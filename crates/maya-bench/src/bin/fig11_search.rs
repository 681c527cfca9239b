//! Figure 11: end-to-end configuration-search runtime and fidelity —
//! CMA-ES search (all optimizations) vs. the grid-search optimum, per
//! resource/model spec.

use maya_bench::{config_budget, valid_configs, Scenario};
use maya_search::{AlgorithmKind, Objective, TrialScheduler};

fn main() {
    println!(
        "{:<22} {:>12} {:>14} {:>12} {:>12}",
        "setup", "search time", "grid time", "cma cost", "norm. cost"
    );
    // The grid reference enumerates a deterministic stride sample of the
    // valid space (MAYA_BENCH_CONFIGS to widen; the paper's full grid is
    // the 1920-point space).
    let grid_cap = config_budget(150);
    for scenario in Scenario::headline() {
        eprintln!("[fig11] searching {}...", scenario.name);
        let maya = scenario.maya_oracle();
        let objective = Objective::new(&maya, scenario.template());
        let cma = TrialScheduler::new(&objective).run(AlgorithmKind::CmaEs, 600, 11);
        let mut sched = TrialScheduler::new(&objective);
        sched.early_stop_patience = None; // a grid reference visits every sampled config
        let grid = sched.run_configs(&valid_configs(&scenario, grid_cap));
        let (ct, gt) = match (cma.best_time(), grid.best_time()) {
            (Some(c), Some(g)) => (c.as_secs_f64(), g.as_secs_f64()),
            _ => {
                println!("{:<22} no feasible config", scenario.name);
                continue;
            }
        };
        println!(
            "{:<22} {:>11.1}s {:>13.1}s {:>11.3}s {:>11.3}x",
            scenario.name,
            cma.wall.as_secs_f64(),
            grid.wall.as_secs_f64(),
            ct,
            ct / gt
        );
    }
    println!("\n(norm. cost = CMA-found config cost / grid-search optimal; 1.000x = optimal)");
}
