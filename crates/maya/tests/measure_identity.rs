//! `measure_actual` emulates through the engine's collator under a plan
//! that runs every rank and folds none. These tests pin it to the path
//! it replaced: every rank traced with `trace_workload`, the scanning
//! `collate`, then the ground-truth testbed — whatever the spec's
//! threads, folding, selective launch or fault plan.

use std::sync::Arc;

use maya::{EmulationSpec, FaultPlan, PredictionEngine};
use maya_cuda::CudaError;
use maya_estimator::OracleEstimator;
use maya_hw::{ClusterSpec, GroundTruthExecutor};
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::{Dtype, SimTime};

fn job(model: ModelSpec, world: u32, parallel: ParallelConfig, global_batch: u32) -> TrainingJob {
    TrainingJob {
        model,
        parallel,
        flavor: FrameworkFlavor::Megatron,
        compile: false,
        global_batch,
        world,
        gpus_per_node: 8,
        precision: Dtype::Bf16,
        iterations: 1,
    }
}

fn engine(spec: EmulationSpec, threads: usize) -> PredictionEngine {
    let est = Arc::new(OracleEstimator::new(&spec.cluster));
    PredictionEngine::new(spec.with_emulation_threads(threads), est)
}

/// The measurement as encoded bytes (`Measurement` has no `PartialEq`),
/// or the memory the first rank to run out held.
type Measured = Result<String, u64>;

/// Every rank traced, collated by scanning, run on the testbed.
fn measured_by_scan(engine: &PredictionEngine, job: &TrainingJob) -> Measured {
    let ranks: Vec<u32> = (0..job.world).collect();
    let mut workers = Vec::with_capacity(ranks.len());
    for (trace, res) in engine.trace_workload(&ranks, |rank, ctx| job.run_worker(rank, ctx)) {
        match res {
            Ok(()) => workers.push(trace),
            Err(CudaError::MemoryAllocation { .. }) => return Err(trace.summary.peak_mem_bytes),
            Err(e) => panic!("rank {}: {e}", trace.rank),
        }
    }
    let collated = maya_collate::collate(workers, job.world).expect("collates");
    let m = GroundTruthExecutor::default()
        .run(&collated, &engine.spec().cluster)
        .expect("testbed runs");
    Ok(serde::to_string(&m))
}

fn measured(engine: &PredictionEngine, job: &TrainingJob) -> Measured {
    let m = engine.measure_actual(job).expect("testbed runs");
    m.map(|m| serde::to_string(&m))
}

#[test]
fn measure_actual_equals_trace_collate_then_run() {
    let cluster = ClusterSpec::h100(1, 8);
    let faults = FaultPlan::generate(1, 8, SimTime::from_ms(50.0));
    let specs = [
        ("default", EmulationSpec::new(cluster.clone())),
        (
            "selective launch",
            EmulationSpec::new(cluster.clone()).with_selective_launch(true),
        ),
        (
            "fault plan",
            EmulationSpec::new(cluster.clone()).with_faults(Some(faults)),
        ),
    ];
    let jobs: Vec<TrainingJob> = [
        ParallelConfig::default(),
        ParallelConfig {
            tp: 2,
            ..Default::default()
        },
        ParallelConfig {
            pp: 2,
            microbatch_multiplier: 2,
            ..Default::default()
        },
        ParallelConfig {
            tp: 2,
            pp: 2,
            sequence_parallel: true,
            ..Default::default()
        },
    ]
    .into_iter()
    .map(|p| job(ModelSpec::gpt3_125m(), 8, p, 32))
    .collect();
    for (name, spec) in specs {
        for threads in [1, 2, 3] {
            let engine = engine(spec.clone(), threads);
            for j in &jobs {
                let expected = measured_by_scan(&engine, j);
                assert!(expected.is_ok(), "{}: fixture drifted", j.parallel);
                assert_eq!(
                    measured(&engine, j),
                    expected,
                    "{name} on {threads} threads: {}",
                    j.parallel
                );
            }
            assert_eq!(
                engine.host_charges(),
                0,
                "{name}: measuring is not predicting"
            );
        }
    }
}

#[test]
fn measure_actual_oom_reports_the_memory_held() {
    // Stage 0 of a 1F1B pipeline holds the most microbatches in flight:
    // ranks 0 and 1 run out of memory, the last stage's do not.
    let parallel = ParallelConfig {
        pp: 2,
        microbatch_multiplier: 4,
        ..Default::default()
    };
    let j = job(ModelSpec::gpt3_2_7b(), 4, parallel, 64);
    for threads in [1, 2, 3] {
        let engine = engine(EmulationSpec::new(ClusterSpec::h100(1, 4)), threads);
        let expected = measured_by_scan(&engine, &j);
        assert!(expected.is_err(), "fixture drifted");
        assert_eq!(measured(&engine, &j), expected, "{threads} threads");
        assert_eq!(engine.host_charges(), 0, "{threads} threads");
    }
}
