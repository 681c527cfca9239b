//! Modeling an imperfect cluster: heterogeneous ranks, injected
//! faults, and a cost-aware search.
//!
//! Three passes over the same GPT-3 125M job on one 8-GPU node:
//!
//! 1. A clean homogeneous H100 prediction (the baseline).
//! 2. The same node with a link topology (collectives now share
//!    bandwidth), two ranks downgraded to A100s, and a seed-drawn
//!    fault plan — a straggler window plus a mid-run rank failure
//!    with a checkpoint/restart cost.
//! 3. A cost-weighted configuration search that prices trials by
//!    GPU-hour dollars *plus* the energy bill from a datacenter power
//!    model, instead of iteration time alone.
//!
//! ```text
//! cargo run --release --example faulty_cluster
//! ```

use maya::{EmulationSpec, FaultPlan, MayaBuilder, PredictOutcome};
use maya_hw::{ClusterSpec, GpuSpec, HeteroPool, PowerModel, RankClass};
use maya_search::{AlgorithmKind, ConfigSpace, Objective, TrialScheduler};
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::Dtype;

fn job_for(cluster: &ClusterSpec) -> TrainingJob {
    TrainingJob {
        model: ModelSpec::gpt3_125m(),
        parallel: ParallelConfig {
            tp: 2,
            pp: 2,
            microbatch_multiplier: 2,
            ..Default::default()
        },
        flavor: FrameworkFlavor::Megatron,
        compile: false,
        global_batch: 32,
        world: cluster.num_gpus(),
        gpus_per_node: cluster.gpus_per_node,
        precision: Dtype::Bf16,
        iterations: 1,
    }
}

fn main() {
    // 1. Clean baseline: homogeneous H100 node, no topology, no faults.
    let clean_cluster = ClusterSpec::h100(1, 8);
    let job = job_for(&clean_cluster);
    let clean = MayaBuilder::new(clean_cluster.clone())
        .build()
        .expect("builds")
        .predict_job(&job)
        .expect("predicts");
    let clean_report = match &clean.outcome {
        PredictOutcome::Completed(r) => r.clone(),
        PredictOutcome::OutOfMemory { rank, .. } => {
            panic!("baseline unexpectedly OOMs on rank {rank}")
        }
    };
    println!("clean H100 node     : {}", clean_report.total_time);

    // 2. The imperfect version of the same node: shared-bandwidth
    //    links, two ranks one generation behind, and a deterministic
    //    fault plan drawn over the clean horizon (so the failure lands
    //    mid-run). The same (seed, world, horizon) triple names this
    //    exact fault schedule forever.
    let imperfect_cluster =
        clean_cluster
            .clone()
            .with_default_topology()
            .with_hetero(HeteroPool::new(vec![RankClass {
                gpu: GpuSpec::a100(),
                count: 2,
            }]));
    let faults = FaultPlan::generate(42, job.world, clean_report.total_time);
    println!(
        "fault plan (seed 42): {} straggler window(s), {} rank failure(s)",
        faults.stragglers.len(),
        faults.failures.len()
    );
    for f in &faults.failures {
        println!(
            "  rank {} fails at {} (restart cost {})",
            f.rank, f.at, f.restart_cost
        );
    }
    let spec = EmulationSpec::new(imperfect_cluster.clone()).with_faults(Some(faults));
    let faulty = MayaBuilder::new(imperfect_cluster.clone())
        .with_spec(spec)
        .build()
        .expect("builds")
        .predict_job(&job)
        .expect("predicts");
    let faulty_report = match &faulty.outcome {
        PredictOutcome::Completed(r) => r.clone(),
        PredictOutcome::OutOfMemory { rank, .. } => {
            panic!("faulty run unexpectedly OOMs on rank {rank}")
        }
    };
    let slowdown =
        faulty_report.total_time.as_secs_f64() / clean_report.total_time.as_secs_f64().max(1e-12);
    println!(
        "imperfect cluster   : {} ({slowdown:.2}x the clean run)",
        faulty_report.total_time
    );
    assert!(
        faulty_report.total_time > clean_report.total_time,
        "contention + stragglers + a restart must cost time"
    );

    // 3. Search the recipe space on the imperfect cluster, pricing each
    //    trial with GPU-hour dollars plus the datacenter energy bill.
    let maya = MayaBuilder::new(imperfect_cluster).build().expect("builds");
    let objective = Objective::cost_weighted(&maya, job, PowerModel::datacenter());
    let space = ConfigSpace {
        tp: vec![1, 2, 4],
        pp: vec![1, 2],
        microbatch_multiplier: vec![1, 2],
        virtual_stages: vec![1],
        activation_recompute: vec![true, false],
        sequence_parallel: vec![false],
        distributed_optimizer: vec![false],
    };
    let result = TrialScheduler::new(&objective)
        .with_space(space)
        .run(AlgorithmKind::Grid, 24, 0);
    match &result.best {
        None => println!("no feasible configuration found"),
        Some((config, outcome)) => {
            println!("cheapest recipe     : {config}");
            if let maya_search::TrialOutcome::Completed {
                iteration_time,
                mfu,
                cost,
            } = outcome
            {
                println!("  iteration         : {iteration_time}");
                println!("  MFU               : {:.1}%", mfu * 100.0);
                println!("  cost/iter         : ${cost:.6} (gpu-hours + energy)");
            }
        }
    }
    println!(
        "trials: {} executed, {} cached, {} skipped, {} invalid",
        result.stats.executed, result.stats.cached, result.stats.skipped, result.stats.invalid
    );
}
