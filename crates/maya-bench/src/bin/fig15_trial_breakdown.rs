//! Figure 15: trial status breakdown (executed / cached / skipped)
//! during configuration search on each setup.

use maya_bench::{print_series, Scenario};
use maya_search::{AlgorithmKind, Objective, TrialScheduler};

fn main() {
    let mut rows = Vec::new();
    for scenario in Scenario::headline() {
        eprintln!("[fig15] searching {}...", scenario.name);
        let maya = scenario.maya_oracle();
        let objective = Objective::new(&maya, scenario.template());
        let result = TrialScheduler::new(&objective).run(AlgorithmKind::CmaEs, 400, 15);
        let s = result.stats;
        let denom = (s.executed + s.skipped).max(1);
        rows.push(format!(
            "{},{},{},{},{},{:.0}%",
            scenario.name,
            s.executed,
            s.cached,
            s.skipped,
            s.invalid,
            s.skipped as f64 / denom as f64 * 100.0
        ));
    }
    print_series(
        "Figure 15: trial status breakdown during config search",
        "setup,executed,cached,skipped,invalid,skip_rate",
        &rows,
    );
}
