//! Hyperscale modeling: thousands of GPUs with selective worker launch
//! (§7.4 / Figure 12's setting, scaled to run in seconds).
//!
//! With Megatron-aware selective launch, only one worker per pipeline
//! stage is emulated no matter how large the data-parallel degree gets;
//! collective wire times for the full communicator come from the
//! topology-aware network model (the paper plugs in ASTRA-sim here).
//!
//! ```text
//! cargo run --release --example hyperscale
//! ```

use maya::{EmulationSpec, MayaBuilder};
use maya_hw::{mfu, ClusterSpec};
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::Dtype;

fn main() {
    // GPT-3 18.4B, TP8 PP8, growing DP — a scaled-down cousin of the
    // paper's 145.6B study that finishes quickly in an example.
    println!(
        "{:>6} {:>6} {:>14} {:>8} {:>10}",
        "GPUs", "DP", "iter time", "MFU", "emulated"
    );
    for dp in [2u32, 4, 8, 16] {
        let world = 8 * 8 * dp;
        let cluster = ClusterSpec::h100(world / 8, 8);
        let spec = EmulationSpec::new(cluster.clone()).with_selective_launch(true);
        let maya = MayaBuilder::new(cluster.clone())
            .with_spec(spec)
            .build()
            .expect("builds");
        let parallel = ParallelConfig {
            tp: 8,
            pp: 8,
            microbatch_multiplier: 2,
            activation_recompute: true,
            sequence_parallel: true,
            distributed_optimizer: true,
            ..Default::default()
        };
        let job = TrainingJob {
            model: ModelSpec::gpt3_18_4b(),
            parallel,
            flavor: FrameworkFlavor::Megatron,
            compile: false,
            global_batch: 16 * dp * parallel.num_microbatches(),
            world,
            gpus_per_node: 8,
            precision: Dtype::Bf16,
            iterations: 1,
        };
        let pred = maya.predict_job(&job).expect("pipeline runs");
        match pred.report() {
            None => println!("{world:>6} {dp:>6} OOM"),
            Some(report) => {
                let spec = job.flops_spec().expect("transformer");
                let m = mfu::mfu(&spec, report.total_time.as_secs_f64(), &cluster);
                println!(
                    "{:>6} {:>6} {:>14} {:>7.1}% {:>10}",
                    world,
                    dp,
                    report.total_time.to_string(),
                    m * 100.0,
                    pred.workers_emulated
                );
            }
        }
    }
    println!("\n(8 emulated workers regardless of cluster size: one per pipeline stage)");
}
