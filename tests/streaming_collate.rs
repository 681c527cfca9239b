//! The streaming collator against the frozen three-pass one on generated
//! jobs: what `Collator` keeps while ranks are still being emulated must
//! be, as a whole `JobTrace`, what collating every rank and reducing
//! afterwards gave — a prediction must not depend on how many threads
//! emulated the ranks, and one from a collated trace must equal one from
//! the job.

#[path = "../crates/maya-collate/tests/reference/mod.rs"]
mod reference;

use std::collections::BTreeMap;
use std::sync::Arc;

use maya::{EmulationSpec, FaultPlan, PredictOutcome, Prediction, PredictionEngine};
use maya_collate::{
    collate, collate_with_known_groups, dedup_classes, reduce_job, unique_megatron_ranks, Collator,
    DedupClass,
};
use maya_estimator::OracleEstimator;
use maya_hw::ClusterSpec;
use maya_torchlet::engine::{megatron_comm_groups, trace_one_rank};
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, RankTopology, TrainingJob};
use maya_trace::{
    shape_digest, CollectiveKind, DeviceOp, Dtype, JobTrace, KernelKind, SimTime, TraceEvent,
    TraceMeta, WorkerTrace,
};

/// xorshift64*: the draw order is part of the test, so no shared RNG.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: u32) -> u32 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        ((self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) % n as u64) as u32
    }

    fn coin(&mut self) -> bool {
        self.below(2) == 1
    }
}

fn job(flavor: FrameworkFlavor, parallel: ParallelConfig, world: u32) -> TrainingJob {
    let dp = parallel.dp(world).max(1);
    TrainingJob {
        model: ModelSpec::gpt3_125m(),
        parallel,
        flavor,
        compile: false,
        global_batch: 2 * dp * parallel.num_microbatches(),
        world,
        gpus_per_node: 8,
        precision: Dtype::Bf16,
        iterations: 1,
    }
}

/// Every (tp, pp, dp) grid point that fits 64 ranks, each with drawn
/// knobs, plus the data-parallel framework flavours.
fn generated_jobs() -> Vec<TrainingJob> {
    let mut draw = Draw(0x4D41_5941);
    let mut jobs = Vec::new();
    for tp in [1, 2, 4] {
        for pp in [1, 2, 3, 4] {
            for dp in [1, 2, 3, 4, 8] {
                let world = tp * pp * dp;
                if world > 64 {
                    continue;
                }
                let parallel = ParallelConfig {
                    tp,
                    pp,
                    microbatch_multiplier: 1 + draw.below(2),
                    virtual_stages: if pp > 1 { 1 + draw.below(3) } else { 1 },
                    activation_recompute: draw.coin(),
                    sequence_parallel: tp > 1 && draw.coin(),
                    distributed_optimizer: draw.coin(),
                };
                let candidate = job(FrameworkFlavor::Megatron, parallel, world);
                if candidate.validate().is_ok() {
                    jobs.push(candidate);
                }
            }
        }
    }
    let flavors = [
        FrameworkFlavor::Ddp,
        FrameworkFlavor::Fsdp,
        FrameworkFlavor::DeepSpeedZero {
            stage: 1,
            activation_offload: false,
        },
        FrameworkFlavor::DeepSpeedZero {
            stage: 2,
            activation_offload: true,
        },
        FrameworkFlavor::DeepSpeedZero {
            stage: 3,
            activation_offload: false,
        },
    ];
    for (flavor, world) in flavors.into_iter().zip([1, 2, 4, 8, 6]) {
        jobs.push(job(flavor, ParallelConfig::default(), world));
    }
    assert!(jobs.len() >= 40, "only {} jobs generated", jobs.len());
    assert!(jobs.iter().any(|j| j.parallel.virtual_stages > 1));
    assert!(jobs.iter().any(|j| j.parallel.pp == 3));
    jobs
}

fn cluster_for(job: &TrainingJob) -> ClusterSpec {
    ClusterSpec::h100(1, job.world)
}

fn emulate(job: &TrainingJob, ranks: impl IntoIterator<Item = u32>) -> Vec<WorkerTrace> {
    let gpu = cluster_for(job).gpu;
    ranks
        .into_iter()
        .map(|r| {
            let (trace, res) = trace_one_rank(job, r, gpu);
            res.unwrap_or_else(|e| panic!("rank {r} of {}: {e}", job.parallel));
            trace
        })
        .collect()
}

fn stream(
    workers: &[WorkerTrace],
    world: u32,
    known: &BTreeMap<u64, Vec<u32>>,
    fold: bool,
) -> JobTrace {
    let mut collator = Collator::new(world, known, fold);
    let mut kept = Vec::new();
    for w in workers {
        let meta = TraceMeta::scan(&w.events);
        kept.extend(collator.push(w.clone(), meta, |_| {}).expect("push").kept);
    }
    // A folding collator keeps its traces as templates.
    let templates = collator.templates();
    kept.extend((0..templates.len()).filter_map(|t| Some(templates.get(t)?.trace().clone())));
    JobTrace {
        nranks: world,
        workers: kept,
        comm_groups: collator.finish().expect("finish"),
    }
}

/// Who is folded into whom. The frozen oracle hashes where the library
/// compares; the classes they sort a job's ranks into are the contract.
fn partition(classes: &[DedupClass]) -> Vec<(u32, &[u32])> {
    classes
        .iter()
        .map(|c| (c.representative, &c.members[..]))
        .collect()
}

/// [`partition`] of the oracle's classes.
fn oracle_partition(classes: &[reference::DedupClass]) -> Vec<(u32, &[u32])> {
    classes
        .iter()
        .map(|c| (c.representative, &c.members[..]))
        .collect()
}

/// The frozen pipeline: collate everything, then reduce.
fn reduced_by_reference(all: &JobTrace) -> JobTrace {
    reference::reduce_job(all, &reference::dedup_classes(&all.workers))
}

#[test]
fn streaming_output_equals_collate_then_reduce() {
    let none = BTreeMap::new();
    for job in generated_jobs() {
        let what = format!("{} {} world {}", job.flavor.name(), job.parallel, job.world);
        let workers = emulate(&job, 0..job.world);
        let all = reference::collate(workers.clone(), job.world).expect(&what);
        let reduced = reduced_by_reference(&all);

        assert_eq!(stream(&workers, job.world, &none, true), reduced, "{what}");
        assert_eq!(stream(&workers, job.world, &none, false), all, "{what}");
        // The batch entry points are the same collator.
        assert_eq!(
            collate(workers.clone(), job.world).expect(&what),
            all,
            "{what}"
        );
        let classes = dedup_classes(&all.workers);
        assert_eq!(
            partition(&classes),
            oracle_partition(&reference::dedup_classes(&all.workers)),
            "{what}"
        );
        assert_eq!(reduce_job(&all, &classes), reduced, "{what}");

        if matches!(job.flavor, FrameworkFlavor::Megatron) {
            let topo = RankTopology::new(&job.parallel, job.world);
            let unique = emulate(&job, unique_megatron_ranks(topo.tp, topo.dp, topo.pp));
            let known = megatron_comm_groups(&job);
            let selected = reference::collate_with_known_groups(unique.clone(), job.world, &known)
                .expect(&what);
            assert_eq!(
                stream(&unique, job.world, &known, false),
                selected,
                "{what}"
            );
            assert_eq!(
                stream(&unique, job.world, &known, true),
                reduced_by_reference(&selected),
                "{what}"
            );
            assert_eq!(
                collate_with_known_groups(unique, job.world, &known).expect(&what),
                selected,
                "{what}"
            );
        }
    }
}

/// A rank's events without what folding must not see: host-delay
/// jitter, pointers, raw communicator ids (replaced by first-use order),
/// the rank's position in each communicator and its Send/Recv peers —
/// written here independently of `maya_trace::Call`.
fn structure(trace: &WorkerTrace) -> Vec<TraceEvent> {
    let mut comms = Vec::new();
    let blind = |e: &TraceEvent| {
        let mut e = *e;
        e.host_delay = Default::default();
        match &mut e.op {
            DeviceOp::Collective { desc } => {
                let seen = comms.iter().position(|&c| c == desc.comm_id);
                desc.comm_id = seen.unwrap_or_else(|| {
                    comms.push(desc.comm_id);
                    comms.len() - 1
                }) as u64;
                desc.rank_in_comm = 0;
                if let CollectiveKind::Send { peer } | CollectiveKind::Recv { peer } =
                    &mut desc.kind
                {
                    *peer = 0;
                }
            }
            DeviceOp::Malloc { ptr, .. } | DeviceOp::Free { ptr } => *ptr = 0,
            _ => {}
        }
        e
    };
    trace.events.iter().map(blind).collect()
}

#[test]
fn signatures_and_shape_digests_do_not_collide_on_generated_jobs() {
    let mut shapes: BTreeMap<u64, KernelKind> = BTreeMap::new();
    for job in generated_jobs() {
        let what = format!("{} {} world {}", job.flavor.name(), job.parallel, job.world);
        // Ranks share a class exactly when they issue one sequence.
        let workers = emulate(&job, 0..job.world);
        let classes = dedup_classes(&workers);
        let of = |rank: u32| structure(&workers[rank as usize]);
        for (i, class) in classes.iter().enumerate() {
            let shape = of(class.representative);
            for &m in &class.members {
                assert!(of(m) == shape, "{what}: rank {m} collides");
            }
            for other in &classes[..i] {
                assert!(of(other.representative) != shape, "{what}: split");
            }
        }
        for w in &workers {
            for e in &w.events {
                if let DeviceOp::KernelLaunch { kernel } = e.op {
                    let seen = shapes.entry(shape_digest(&kernel)).or_insert(kernel);
                    assert_eq!(*seen, kernel, "{what}");
                }
            }
        }
    }
    assert!(shapes.len() > 100, "only {} shapes", shapes.len());
}

/// Everything of a prediction but its wall-clock stage timings.
fn verdict(p: &Prediction) -> impl PartialEq + std::fmt::Debug {
    let oom = match p.outcome {
        PredictOutcome::OutOfMemory {
            rank,
            peak_attempted,
        } => Some((rank, peak_attempted)),
        PredictOutcome::Completed(_) => None,
    };
    (
        p.report().cloned(),
        oom,
        p.workers_emulated,
        p.workers_simulated,
        p.trace_events,
    )
}

#[test]
fn predictions_do_not_depend_on_emulation_threads() {
    // Jobs whose ranks were folded: their kept traces were settled on
    // the sink thread while other threads were still recording.
    let mut folded = 0;
    for (i, job) in generated_jobs().into_iter().enumerate() {
        let cluster = cluster_for(&job);
        // Rotate through the three ways the engine feeds the collator.
        let spec = match i % 3 {
            0 => EmulationSpec::new(cluster.clone()),
            1 => EmulationSpec::new(cluster.clone()).with_selective_launch(true),
            _ => EmulationSpec::without_optimizations(cluster.clone()),
        };
        let predict = |threads| {
            let est = Arc::new(OracleEstimator::new(&cluster));
            PredictionEngine::new(spec.clone().with_emulation_threads(threads), est)
                .predict_job(&job)
                .expect("prediction")
        };
        let sequential = predict(1);
        assert_eq!(sequential.workers_emulated, {
            let topo = RankTopology::new(&job.parallel, job.world);
            if spec.selective_launch && matches!(job.flavor, FrameworkFlavor::Megatron) {
                topo.pp as usize
            } else {
                job.world as usize
            }
        });
        folded += usize::from(sequential.workers_simulated < sequential.workers_emulated);
        for threads in [2, 3, 4, 8] {
            assert_eq!(
                verdict(&predict(threads)),
                verdict(&sequential),
                "{} {} on {threads} threads",
                job.flavor.name(),
                job.parallel
            );
        }
    }
    assert!(folded >= 10, "only {folded} jobs folded");
}

#[test]
fn predict_trace_folds_through_the_collator() {
    // The trace a caller hands over is every rank collated by the frozen
    // oracle; the engine folds it the way it folds ranks it emulated.
    let mut folded = 0;
    for (i, job) in generated_jobs().into_iter().enumerate() {
        let cluster = cluster_for(&job);
        let what = format!("{} {} world {}", job.flavor.name(), job.parallel, job.world);
        let all = reference::collate(emulate(&job, 0..job.world), job.world).expect(&what);
        let faults = FaultPlan::generate(i as u64, job.world, SimTime::from_ms(50.0));
        for (name, spec) in [
            ("folding", EmulationSpec::new(cluster.clone())),
            (
                "no optimizations",
                EmulationSpec::without_optimizations(cluster.clone()),
            ),
            (
                "fault plan",
                EmulationSpec::new(cluster.clone()).with_faults(Some(faults)),
            ),
        ] {
            let engine = PredictionEngine::new(spec, Arc::new(OracleEstimator::new(&cluster)));
            let traced = engine.predict_trace(all.clone()).expect(&what);
            let predicted = engine.predict_job(&job).expect(&what);
            assert_eq!(verdict(&traced), verdict(&predicted), "{name}: {what}");
            folded += usize::from(traced.workers_simulated < traced.workers_emulated);
        }
    }
    assert!(folded >= 10, "only {folded} traces folded");
}
