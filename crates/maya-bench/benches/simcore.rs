//! Sim-core micro-benchmarks: the dense-slot optimized core (with a
//! reused scratch arena and with fresh state per run) against the
//! frozen pre-optimization reference core, over one shared collated
//! 8-rank trace. The same three shapes `perf_report` measures, under
//! criterion's statistics.

// The frozen oracle now lives with maya-sim's tests.
#[path = "../../maya-sim/tests/reference/mod.rs"]
mod reference;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use maya_collate::collate;
use maya_estimator::OracleEstimator;
use maya_hw::ClusterSpec;
use maya_sim::{SimScratch, Simulator};
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::Dtype;

fn bench_job(world: u32) -> TrainingJob {
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
        global_batch: 4 * world,
        world,
        gpus_per_node: 8,
        precision: Dtype::Bf16,
        iterations: 1,
    }
}

fn bench_simcore(c: &mut Criterion) {
    let cluster = ClusterSpec::h100(1, 8);
    let job = bench_job(8);
    let workers: Vec<_> = (0..8)
        .map(|r| maya_torchlet::engine::trace_one_rank(&job, r, cluster.gpu).0)
        .collect();
    let trace = collate(workers, 8).expect("collates");
    trace.validate().expect("valid fixture");
    let oracle = OracleEstimator::new(&cluster);
    let sim = Simulator::new(&oracle, &cluster);
    let events = trace.total_events() as u64;

    let mut g = c.benchmark_group("simcore");
    g.throughput(Throughput::Elements(events));
    let mut scratch = SimScratch::new();
    sim.run_with_scratch(&trace, &mut scratch).expect("warmup");
    g.bench_function("dense_scratch", |b| {
        b.iter(|| {
            sim.run_prevalidated(&trace, &mut scratch)
                .expect("simulates")
        })
    });
    g.bench_function("dense_fresh", |b| {
        b.iter(|| sim.run(&trace).expect("simulates"))
    });
    g.bench_function("reference", |b| {
        b.iter(|| reference::simulate_reference(&trace, &cluster, &oracle).expect("simulates"))
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_simcore
);
criterion_main!(benches);
