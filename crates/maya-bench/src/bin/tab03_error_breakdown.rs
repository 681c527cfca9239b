//! Table 3: breakdown of prediction error — oracle (true per-kernel
//! runtimes) vs. end-to-end (forest estimator), isolating the error
//! introduced by the emulation + simulation phases.

use maya::PredictionEngine;
use maya_bench::Scenario;
use maya_hw::ClusterSpec;
use maya_torchlet::{ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::Dtype;

struct Row {
    model: ModelSpec,
    name: &'static str,
    world: u32,
    nodes: u32,
    bs: u32,
    tp: u32,
    pp: u32,
    ga: u32,
}

fn main() {
    let rows = vec![
        Row {
            model: ModelSpec::gpt3_1_3b(),
            name: "GPT3-1.3B",
            world: 8,
            nodes: 1,
            bs: 16,
            tp: 1,
            pp: 2,
            ga: 2,
        },
        Row {
            model: ModelSpec::gpt3_1_3b(),
            name: "GPT3-1.3B",
            world: 8,
            nodes: 1,
            bs: 16,
            tp: 2,
            pp: 1,
            ga: 2,
        },
        Row {
            model: ModelSpec::gpt3_1_3b(),
            name: "GPT3-1.3B",
            world: 8,
            nodes: 1,
            bs: 16,
            tp: 2,
            pp: 2,
            ga: 2,
        },
        Row {
            model: ModelSpec::gpt3_1_3b(),
            name: "GPT3-1.3B",
            world: 8,
            nodes: 1,
            bs: 16,
            tp: 2,
            pp: 4,
            ga: 2,
        },
        Row {
            model: ModelSpec::gpt3_1_3b(),
            name: "GPT3-1.3B",
            world: 8,
            nodes: 1,
            bs: 16,
            tp: 4,
            pp: 2,
            ga: 2,
        },
        Row {
            model: ModelSpec::gpt3_2_7b(),
            name: "GPT3-2.7B",
            world: 8,
            nodes: 1,
            bs: 16,
            tp: 1,
            pp: 2,
            ga: 2,
        },
        Row {
            model: ModelSpec::gpt3_2_7b(),
            name: "GPT3-2.7B",
            world: 8,
            nodes: 1,
            bs: 16,
            tp: 2,
            pp: 1,
            ga: 2,
        },
        Row {
            model: ModelSpec::gpt3_2_7b(),
            name: "GPT3-2.7B",
            world: 8,
            nodes: 1,
            bs: 8,
            tp: 2,
            pp: 2,
            ga: 2,
        },
        Row {
            model: ModelSpec::gpt3_2_7b(),
            name: "GPT3-2.7B",
            world: 8,
            nodes: 1,
            bs: 8,
            tp: 2,
            pp: 4,
            ga: 2,
        },
        Row {
            model: ModelSpec::gpt3_2_7b(),
            name: "GPT3-2.7B",
            world: 8,
            nodes: 1,
            bs: 8,
            tp: 4,
            pp: 2,
            ga: 2,
        },
        Row {
            model: ModelSpec::llama2_7b(),
            name: "Llama2-7B",
            world: 32,
            nodes: 4,
            bs: 16,
            tp: 2,
            pp: 8,
            ga: 2,
        },
        Row {
            model: ModelSpec::llama2_7b(),
            name: "Llama2-7B",
            world: 32,
            nodes: 4,
            bs: 8,
            tp: 2,
            pp: 8,
            ga: 4,
        },
        Row {
            model: ModelSpec::llama2_7b(),
            name: "Llama2-7B",
            world: 32,
            nodes: 4,
            bs: 16,
            tp: 4,
            pp: 4,
            ga: 2,
        },
        Row {
            model: ModelSpec::llama2_7b(),
            name: "Llama2-7B",
            world: 32,
            nodes: 4,
            bs: 8,
            tp: 8,
            pp: 2,
            ga: 2,
        },
    ];

    println!(
        "{:<11} {:>4} {:>3} {:>3} {:>3} {:>10} {:>8} {:>8}",
        "Model", "BS", "TP", "PP", "GA", "actual", "Oracle", "E2E"
    );
    // One forest estimator per cluster size (both are V100 clusters).
    let mut mayas: std::collections::HashMap<u32, (PredictionEngine, PredictionEngine)> =
        Default::default();
    for row in rows {
        let cluster = ClusterSpec::v100(row.nodes, 8);
        let scenario = Scenario {
            name: row.name,
            cluster,
            model: row.model,
            global_batch: row.bs,
            precision: Dtype::Fp16,
        };
        let (oracle, e2e) = mayas
            .entry(row.world)
            .or_insert_with(|| (scenario.maya_oracle(), scenario.maya(4242)));
        let parallel = ParallelConfig {
            tp: row.tp,
            pp: row.pp,
            microbatch_multiplier: row.ga,
            activation_recompute: true,
            ..Default::default()
        };
        let job = TrainingJob {
            parallel,
            ..scenario.template()
        };
        if job.validate().is_err() {
            println!("{:<11} config {} invalid, skipped", row.name, parallel);
            continue;
        }
        let actual = match oracle.measure_actual(&job) {
            Ok(Ok(m)) => m.iteration_time,
            _ => {
                println!(
                    "{:<11} {:>4} {:>3} {:>3} {:>3} {:>10}",
                    row.name, row.bs, row.tp, row.pp, row.ga, "OOM"
                );
                continue;
            }
        };
        let err = |m: &PredictionEngine| -> String {
            match m.predict_job(&job).ok().and_then(|p| p.iteration_time()) {
                Some(t) => format!(
                    "{:.2}%",
                    (t.as_secs_f64() / actual.as_secs_f64() - 1.0).abs() * 100.0
                ),
                None => "OOM".to_string(),
            }
        };
        println!(
            "{:<11} {:>4} {:>3} {:>3} {:>3} {:>9.3}s {:>8} {:>8}",
            row.name,
            row.bs,
            row.tp,
            row.pp,
            row.ga,
            actual.as_secs_f64(),
            err(oracle),
            err(e2e),
        );
    }
    println!("\n(Oracle = true per-kernel runtimes; E2E = trained random-forest estimator)");
}
