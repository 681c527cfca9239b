//! Table 6: runtime statistics of configuration search on the 32×H100
//! spec with and without Maya's optimizations (worker deduplication +
//! selective launch, pruning, CMA vs. grid).

use maya::{MayaBuilder, PredictionEngine, StageTimings};
use maya_bench::Scenario;
use maya_search::{AlgorithmKind, Objective, TrialScheduler};
use std::time::Duration;

fn accumulate(
    maya: &PredictionEngine,
    scenario: &Scenario,
    optimized: bool,
) -> (StageTimings, Duration, usize) {
    let objective = Objective::new(maya, scenario.template());
    let mut sched = TrialScheduler::new(&objective);
    sched.pruning = optimized;
    if !optimized {
        sched.early_stop_patience = None;
    }
    let result = if optimized {
        sched.run(AlgorithmKind::CmaEs, 300, 6)
    } else {
        // Grid without heuristics — capped via MAYA_BENCH_CONFIGS for
        // tractability; the paper's full grid ran >24 hours.
        let cap = maya_bench::config_budget(120);
        sched.run(AlgorithmKind::Grid, cap, 0)
    };
    // Per-trial stage timings from one representative *fitting* recipe
    // (timings are also accumulated inside each trial; this keeps the
    // table honest and cheap).
    let rep_job = maya_torchlet::TrainingJob {
        parallel: maya_torchlet::ParallelConfig {
            tp: 4,
            pp: 2,
            microbatch_multiplier: 2,
            activation_recompute: true,
            sequence_parallel: true,
            distributed_optimizer: true,
            ..Default::default()
        },
        ..scenario.template()
    };
    let rep = maya
        .predict_job(&rep_job)
        .ok()
        .map(|p| p.timings)
        .unwrap_or_default();
    (rep, result.wall, result.stats.executed)
}

fn main() {
    let scenario = Scenario::headline()[2].clone(); // 32xH100
    eprintln!("[tab06] optimized search...");
    let opt_maya = scenario.maya_oracle();
    let (opt_stage, opt_wall, opt_exec) = accumulate(&opt_maya, &scenario, true);
    eprintln!("[tab06] unoptimized search (capped grid)...");
    let no_maya = MayaBuilder::new(scenario.cluster.clone())
        .without_optimizations()
        .build()
        .expect("builds");
    let (no_stage, no_wall, no_exec) = accumulate(&no_maya, &scenario, false);

    println!(
        "Table 6: per-trial stage runtimes and search totals ({})",
        scenario.name
    );
    println!("{:<22} {:>14} {:>16}", "Stage", "Maya", "No Optimization");
    let ms = |d: Duration| format!("{:.2}ms", d.as_secs_f64() * 1e3);
    println!(
        "{:<22} {:>14} {:>16}",
        "Emulation",
        ms(opt_stage.emulation),
        ms(no_stage.emulation)
    );
    println!(
        "{:<22} {:>14} {:>16}",
        "Trace collation",
        ms(opt_stage.collation),
        ms(no_stage.collation)
    );
    println!(
        "{:<22} {:>14} {:>16}",
        "Runtime prediction",
        ms(opt_stage.estimation),
        ms(no_stage.estimation)
    );
    println!(
        "{:<22} {:>14} {:>16}",
        "Simulation",
        ms(opt_stage.simulation),
        ms(no_stage.simulation)
    );
    println!(
        "{:<22} {:>13.1}s {:>15.1}s",
        "Total search time",
        opt_wall.as_secs_f64(),
        no_wall.as_secs_f64()
    );
    println!(
        "{:<22} {:>14} {:>16}",
        "Trials executed",
        opt_exec,
        format!("{no_exec} (capped)")
    );
}
