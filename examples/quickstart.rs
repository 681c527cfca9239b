//! Quickstart: predict a training iteration without any GPU.
//!
//! Runs an unmodified "training script" (a GPT-3 125M data-parallel job)
//! against Maya's virtual devices, then prints the simulation report —
//! the flow of the paper's Figure 5.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::collections::BTreeMap;

use maya::MayaBuilder;
use maya_hw::ClusterSpec;
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::{Dtype, JobTrace};

fn main() {
    // 1. Describe the deployment: one DGX-H100 node.
    let cluster = ClusterSpec::h100(1, 8);

    // 2. Build the prediction engine. The builder defaults to the
    //    oracle estimator (true per-op runtimes); chain
    //    `.forest(scale, seed)` to profile + fit the random forest
    //    instead (see the megatron_gpt3 example). Warm-starting the
    //    estimator memo from a previous run is the service's
    //    `snapshot_dir` (see the service example).
    let maya = MayaBuilder::new(cluster.clone()).build().expect("builds");

    // 3. The user workload: unmodified training code. Here, torchlet's
    //    GPT-3 125M with a Megatron-style recipe.
    let job = TrainingJob {
        model: ModelSpec::gpt3_125m(),
        parallel: ParallelConfig {
            tp: 2,
            microbatch_multiplier: 2,
            ..Default::default()
        },
        flavor: FrameworkFlavor::Megatron,
        compile: false,
        global_batch: 64,
        world: cluster.num_gpus(),
        gpus_per_node: cluster.gpus_per_node,
        precision: Dtype::Bf16,
        iterations: 1,
    };
    println!("workload: {}", job.describe());

    // 4. Predict.
    let prediction = maya.predict_job(&job).expect("pipeline runs");
    match prediction.report() {
        None => println!("predicted: OUT OF MEMORY"),
        Some(report) => {
            println!("predicted batch time   : {}", report.total_time);
            println!("communication time     : {}", report.comm_time);
            println!(
                "peak memory usage      : {:.1} GiB",
                report.peak_mem_bytes as f64 / (1u64 << 30) as f64
            );
            println!(
                "workers emulated/simulated: {}/{} (worker dedup)",
                prediction.workers_emulated, prediction.workers_simulated
            );
            println!("trace events simulated : {}", prediction.trace_events);
        }
    }

    // 5. Bonus: the same transparency works for arbitrary device-API
    //    code, not just torchlet models. A one-GPU script, traced and
    //    predicted on a one-GPU engine: its trace takes the same
    //    collate → lower → replay path as a job's ranks.
    let single = MayaBuilder::new(ClusterSpec::h100(1, 1))
        .build()
        .expect("builds");
    let mut traced = single.trace_workload(&[0], |_rank, ctx| {
        let blas = ctx.cublas_create();
        ctx.cublas_gemm_ex(blas, 4096, 4096, 4096, Dtype::Bf16)?;
        ctx.device_synchronize();
        Ok(())
    });
    let (trace, ran) = traced.remove(0);
    ran.expect("the script runs");
    println!(
        "custom script traced {} kernel(s) through the device API",
        trace.summary.num_kernels
    );
    let script = JobTrace {
        nranks: 1,
        workers: vec![trace],
        comm_groups: BTreeMap::new(),
    };
    let predicted = single.predict_trace(script).expect("pipeline runs");
    if let Some(report) = predicted.report() {
        println!("custom script predicted: {}", report.total_time);
    }
}
