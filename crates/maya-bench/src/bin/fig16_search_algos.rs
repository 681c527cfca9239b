//! Figure 16 (Appendix C): comparison of search algorithms — best MFU
//! found vs. number of unique valid configurations sampled, 2000-sample
//! budget each.

use maya_bench::{print_series, Scenario};
use maya_search::{AlgorithmKind, Objective, TrialScheduler};

fn main() {
    let scenario = Scenario::headline()[0].clone(); // GPT3-2.7B 8xV100
    eprintln!("[fig16] setup: {}", scenario.name);
    let maya = scenario.maya_oracle();
    let objective = Objective::new(&maya, scenario.template());

    let checkpoints = [25usize, 50, 100, 200, 300, 500];
    // Appendix C used a 2000-sample budget; default lower here for
    // single-core runs (override with MAYA_BENCH_CONFIGS).
    let budget = maya_bench::config_budget(800);
    let mut rows = Vec::new();
    for kind in AlgorithmKind::all() {
        eprintln!("[fig16] running {kind:?}...");
        let mut sched = TrialScheduler::new(&objective);
        sched.early_stop_patience = None; // fixed budget, like Appendix C
        let result = sched.run(kind, budget, 99);
        let conv = &result.convergence;
        let at = |n: usize| -> String {
            if conv.is_empty() {
                return "-".into();
            }
            let idx = n.min(conv.len()) - 1;
            format!("{:.2}", conv[idx] * 100.0)
        };
        let cells: Vec<String> = checkpoints.iter().map(|&n| at(n)).collect();
        rows.push(format!(
            "{:?},{},{}",
            kind,
            cells.join(","),
            conv.last()
                .map(|m| format!("{:.2}", m * 100.0))
                .unwrap_or_default()
        ));
    }
    print_series(
        &format!(
            "Figure 16: best MFU%% vs unique valid configs ({})",
            scenario.name
        ),
        "algorithm,@25,@50,@100,@200,@300,@500,final",
        &rows,
    );
}
