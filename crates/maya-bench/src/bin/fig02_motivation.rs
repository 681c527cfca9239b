//! Figure 2: sensitivity of optimal configurations to cluster size
//! (GPT-3 18.4B on H100) — the optimal recipe per size (2a) and the
//! cross-deployment cost-ratio matrix (2b).

use maya_bench::Scenario;
use maya_hw::ClusterSpec;
use maya_search::{Objective, TrialScheduler};
use maya_torchlet::{ModelSpec, TrainingJob};
use maya_trace::Dtype;

fn main() {
    let sizes = [16u32, 32, 64, 128];
    let mut optima = Vec::new();
    for &n in &sizes {
        let cluster = ClusterSpec::h100(n / 8, 8);
        let scenario = Scenario {
            name: "GPT3 18.4B",
            cluster,
            model: ModelSpec::gpt3_18_4b(),
            global_batch: 512,
            precision: Dtype::Bf16,
        };
        eprintln!("[fig02] grid-searching {} GPUs...", n);
        let maya = scenario.maya_oracle();
        let objective = Objective::new(&maya, scenario.template());
        // Deterministic stride sample of the valid space (widen with
        // MAYA_BENCH_CONFIGS).
        let cap = maya_bench::config_budget(120);
        let mut sched = TrialScheduler::new(&objective);
        sched.early_stop_patience = None; // a grid reference visits every sampled config
        let result = sched.run_configs(&maya_bench::valid_configs(&scenario, cap));
        let (cfg, outcome) = result.best.expect("feasible config exists");
        let t = outcome.time().expect("completed");
        println!(
            "GPUs {:>4}: optimal {}  iter {:.2}s  MFU {:.1}%",
            n,
            cfg,
            t.as_secs_f64(),
            outcome.mfu().unwrap_or(0.0) * 100.0
        );
        optima.push((n, cfg, t));
    }

    // Cross-deployment matrix: run the optimum of size A at size B.
    println!("\nFigure 2b: cross-deployment cost ratio (rows = reference, cols = deployment)");
    print!("{:>10}", "");
    for &(n, _, _) in &optima {
        print!("{n:>10}");
    }
    println!();
    for &(ref_n, ref_cfg, _) in &optima {
        print!("{ref_n:>10}");
        for &(dep_n, _, dep_opt) in &optima {
            let cluster = ClusterSpec::h100(dep_n / 8, 8);
            let scenario = Scenario {
                name: "GPT3 18.4B",
                cluster,
                model: ModelSpec::gpt3_18_4b(),
                global_batch: 512,
                precision: Dtype::Bf16,
            };
            let maya = scenario.maya_oracle();
            let job = TrainingJob {
                parallel: ref_cfg,
                ..scenario.template()
            };
            let cell = if job.validate().is_err() {
                "inval".to_string()
            } else {
                match maya.predict_job(&job) {
                    Ok(p) => match p.iteration_time() {
                        Some(t) => format!("{:.2}", t.as_secs_f64() / dep_opt.as_secs_f64()),
                        None => "OOM".to_string(),
                    },
                    Err(_) => "inval".to_string(),
                }
            };
            print!("{cell:>10}");
        }
        println!();
    }
    println!("\n(cell = cost of reference-size optimum deployed at column size, normalized)");
}
