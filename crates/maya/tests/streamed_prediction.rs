//! `predict_job` against a prediction assembled from public parts that
//! do not go through the engine's pipeline: every launched rank traced
//! on its own (`trace_one_rank`), the whole set collated at once by
//! `collate_with_known_groups`, folded by `dedup_classes` and
//! `reduce_job` when the spec folds, and simulated by `Simulator::run`.
//! Whatever the spec (folding or not, selective launch, a hetero pool,
//! a fault plan, a link topology, a job that runs out of memory) and
//! whatever the thread count, the engine's outcome, worker counts and
//! event count are the reference's.

use std::collections::BTreeMap;
use std::sync::Arc;

use maya::{EmulationSpec, FaultPlan, PredictOutcome, PredictionEngine};
use maya_collate::{collate_with_known_groups, dedup_classes, reduce_job, unique_megatron_ranks};
use maya_cuda::CudaError;
use maya_estimator::OracleEstimator;
use maya_hw::{ClusterSpec, GpuSpec, HeteroPool, RankClass};
use maya_sim::{SimReport, SimScratch, Simulator};
use maya_torchlet::engine::{megatron_comm_groups, trace_one_rank};
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, RankTopology, TrainingJob};
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

/// What a prediction says, in a form that compares.
#[derive(Debug, PartialEq)]
enum Outcome {
    Completed(SimReport),
    OutOfMemory { rank: u32, peak_attempted: u64 },
}

/// `(outcome, workers_emulated, workers_simulated, trace_events)`.
type Predicted = (Outcome, usize, usize, usize);

/// The engine's prediction.
fn predicted(spec: &EmulationSpec, threads: usize, job: &TrainingJob) -> Predicted {
    let est = Arc::new(OracleEstimator::new(&spec.cluster));
    let engine = PredictionEngine::new(spec.clone().with_emulation_threads(threads), est);
    let p = engine.predict_job(job).expect("predicts");
    let outcome = match p.outcome {
        PredictOutcome::Completed(report) => Outcome::Completed(report),
        PredictOutcome::OutOfMemory {
            rank,
            peak_attempted,
        } => Outcome::OutOfMemory {
            rank,
            peak_attempted,
        },
    };
    (
        outcome,
        p.workers_emulated,
        p.workers_simulated,
        p.trace_events,
    )
}

/// The same prediction with every trace of the job held at once.
fn reference(spec: &EmulationSpec, job: &TrainingJob) -> Predicted {
    let cluster = &spec.cluster;
    let (ranks, known) = if spec.selective_launch {
        let topo = RankTopology::new(&job.parallel, job.world);
        let ranks = unique_megatron_ranks(topo.tp, topo.dp, topo.pp);
        (ranks, megatron_comm_groups(job))
    } else {
        ((0..job.world).collect(), BTreeMap::new())
    };
    let (mut workers, mut events, mut oom) = (Vec::new(), 0, None);
    for &rank in &ranks {
        let (trace, res) = trace_one_rank(job, rank, cluster.gpu);
        events += trace.events.len();
        match res {
            Ok(()) => {}
            Err(CudaError::MemoryAllocation { requested, .. }) => {
                let peak_attempted = trace.summary.peak_mem_bytes.saturating_add(requested);
                oom.get_or_insert(Outcome::OutOfMemory {
                    rank,
                    peak_attempted,
                });
            }
            Err(e) => panic!("rank {rank}: {e}"),
        }
        workers.push(trace);
    }
    if let Some(oom) = oom {
        return (oom, ranks.len(), 0, events);
    }
    let collated = collate_with_known_groups(workers, job.world, &known).expect("collates");
    let folds = spec.dedup && cluster.hetero.is_none() && spec.faults.is_none();
    let reduced = if folds {
        reduce_job(&collated, &dedup_classes(&collated.workers))
    } else {
        collated
    };
    let est = OracleEstimator::new(cluster);
    let report = Simulator::new(&est, cluster)
        .with_faults(spec.faults.as_ref())
        .run(&reduced)
        .expect("simulates");
    (
        Outcome::Completed(report),
        ranks.len(),
        reduced.workers.len(),
        reduced.total_events(),
    )
}

/// Holds `predict_job` to the reference on one and on three threads.
fn check(name: &str, spec: &EmulationSpec, job: &TrainingJob) -> Predicted {
    let expected = reference(spec, job);
    for threads in [1, 3] {
        assert_eq!(
            predicted(spec, threads, job),
            expected,
            "{name} on {threads} threads: {}",
            job.parallel
        );
    }
    expected
}

#[test]
fn the_engine_predicts_what_the_whole_trace_set_does() {
    let cluster = ClusterSpec::h100(1, 8);
    let hetero = cluster.clone().with_hetero(HeteroPool::new(vec![RankClass {
        gpu: GpuSpec::v100(),
        count: 3,
    }]));
    let faults = FaultPlan::generate(7, 8, SimTime::from_ms(20.0));
    let specs = [
        ("default", EmulationSpec::new(cluster.clone())),
        (
            "without optimizations",
            EmulationSpec::without_optimizations(cluster.clone()),
        ),
        (
            "selective launch",
            EmulationSpec::new(cluster.clone()).with_selective_launch(true),
        ),
        ("hetero pool", EmulationSpec::new(hetero)),
        (
            "fault plan",
            EmulationSpec::new(cluster.clone()).with_faults(Some(faults)),
        ),
        (
            "default topology",
            EmulationSpec::new(cluster.clone().with_default_topology()),
        ),
    ];
    let jobs: Vec<TrainingJob> = [
        ParallelConfig::default(),
        ParallelConfig {
            tp: 2,
            pp: 2,
            microbatch_multiplier: 2,
            sequence_parallel: true,
            ..Default::default()
        },
    ]
    .into_iter()
    .map(|p| job(ModelSpec::gpt3_125m(), 8, p, 32))
    .collect();
    for (name, spec) in &specs {
        for j in &jobs {
            let (outcome, emulated, simulated, _) = check(name, spec, j);
            assert!(
                matches!(outcome, Outcome::Completed(_)),
                "{name}: fixture drifted"
            );
            let folds = *name == "default" || *name == "default topology";
            assert!(
                !folds || simulated < emulated,
                "{name}, {}: the fixture folds",
                j.parallel
            );
        }
    }
}

#[test]
fn a_job_that_runs_out_of_memory_is_predicted_as_the_trace_set_says() {
    // Stage 0 of a 1F1B pipeline holds the most microbatches in flight:
    // its ranks run out of memory, the last stage's do not.
    let parallel = ParallelConfig {
        pp: 2,
        microbatch_multiplier: 4,
        ..Default::default()
    };
    let j = job(ModelSpec::gpt3_2_7b(), 4, parallel, 64);
    let cluster = ClusterSpec::h100(1, 4);
    for (name, spec) in [
        ("default", EmulationSpec::new(cluster.clone())),
        (
            "without optimizations",
            EmulationSpec::without_optimizations(cluster),
        ),
    ] {
        let (outcome, ..) = check(name, &spec, &j);
        assert!(
            matches!(outcome, Outcome::OutOfMemory { rank: 0, .. }),
            "{name}: fixture drifted"
        );
    }
}

/// `sim_flat_128`'s job under the oracle: 128 ranks, every trace kept,
/// ≈ 700 k events. The reference holds every trace at once, so this
/// stays out of the default run; CI runs it with `--release --
/// --ignored`.
#[test]
#[ignore = "128 ranks, ≈ 700 k events: run with --release -- --ignored"]
fn the_engine_predicts_the_128_rank_flat_job_as_the_trace_set_does() {
    let cluster = ClusterSpec::h100(16, 8);
    let parallel = ParallelConfig {
        tp: 4,
        pp: 2,
        microbatch_multiplier: 2,
        virtual_stages: 1,
        activation_recompute: true,
        sequence_parallel: true,
        distributed_optimizer: true,
    };
    let j = job(ModelSpec::gpt3_18_4b(), 128, parallel, 256);
    let spec = EmulationSpec::without_optimizations(cluster);
    let (outcome, emulated, simulated, events) = check("sim_flat_128", &spec, &j);
    assert!(matches!(outcome, Outcome::Completed(_)));
    assert_eq!((emulated, simulated), (128, 128));
    assert!(events > 600_000, "{events} events");
}

/// A one-event worker joining communicator `comm` as a member of
/// `nranks`.
fn joins(rank: u32, comm: u64, nranks: u32) -> maya_trace::WorkerTrace {
    let mut w = maya_trace::WorkerTrace::new(rank);
    w.events.push(maya_trace::TraceEvent {
        stream: maya_trace::StreamId::DEFAULT,
        op: maya_trace::DeviceOp::Collective {
            desc: maya_trace::CollectiveDesc {
                kind: maya_trace::CollectiveKind::AllReduce,
                comm_id: comm,
                seq: 0,
                bytes: 64,
                nranks,
                rank_in_comm: rank,
            },
        },
        host_delay: SimTime::from_us(1.0),
    });
    w
}

/// The two collective-site errors `JobTrace::validate` raises, with the
/// text it raises them in: a communicator the map does not list, and
/// a descriptor whose size is not the communicator's. Both entries
/// that take a caller's trace say so in those words, and so does the
/// simulator's site resolution, which is all that checks a trusted
/// trace's sites now that the collator no longer re-reads the traces
/// it kept.
#[test]
fn a_bad_collective_site_is_reported_in_validates_words() {
    let cluster = ClusterSpec::h100(1, 2);
    let est = OracleEstimator::new(&cluster);
    let groups = BTreeMap::from([(5, vec![0, 1])]);
    let job = |w1| maya_trace::JobTrace {
        nranks: 2,
        workers: vec![joins(0, 5, 2), w1],
        comm_groups: groups.clone(),
    };
    for (bad, text) in [
        (job(joins(1, 9, 2)), "rank 1 uses unknown communicator 0x9"),
        (
            job(joins(1, 5, 3)),
            "comm 0x5 has 2 members but desc says 3",
        ),
    ] {
        assert_eq!(bad.validate(), Err(text.to_string()));
        let invalid = maya_sim::SimError::InvalidTrace(text.to_string());
        let sim = Simulator::new(&est, &cluster);
        assert_eq!(sim.run(&bad), Err(invalid.clone()));
        let mut scratch = SimScratch::new();
        assert_eq!(
            sim.run_prevalidated(&bad, &mut scratch),
            Err(invalid.clone())
        );
        let mut lowering = sim.lowering(&mut scratch);
        for w in &bad.workers {
            lowering.worker(w).expect("lowering a worker reads no map");
        }
        assert_eq!(
            lowering.resolve(&bad.comm_groups).err(),
            Some(invalid.clone())
        );
        let engine = PredictionEngine::new(
            EmulationSpec::new(cluster.clone()),
            Arc::new(OracleEstimator::new(&cluster)),
        );
        match engine.predict_trace(bad) {
            Err(maya::MayaError::Sim(e)) => assert_eq!(e, invalid),
            other => panic!("{text}: {other:?}"),
        }
    }
}

/// A GEMM of `m` rows takes `m` µs.
struct RowsInUs;

impl maya_estimator::RuntimeEstimator for RowsInUs {
    fn kernel_time(&self, kernel: &maya_trace::KernelKind) -> SimTime {
        match kernel {
            maya_trace::KernelKind::Gemm { m, .. } => SimTime::from_us(*m as f64),
            _ => SimTime::from_us(1.0),
        }
    }
    fn memcpy_time(&self, _: u64, _: maya_trace::MemcpyKind) -> SimTime {
        SimTime::from_us(1.0)
    }
    fn collective_time(
        &self,
        _: maya_trace::CollectiveKind,
        _: u64,
        _: &[u32],
        _: &ClusterSpec,
    ) -> SimTime {
        SimTime::from_us(1.0)
    }
    fn name(&self) -> &'static str {
        "rows in µs"
    }
}

/// `maya-sim/tests/props.rs`' job whose two streams' run-ahead chains
/// tie: both end at 31 µs, their last kernels started at 11 µs, the
/// chains themselves at 1 and 6 µs. `predict_trace` drops each trace
/// once it is lowered, and the prediction reports what
/// `Simulator::run` reports, `events_processed` included.
#[test]
fn predict_trace_keeps_no_trace_of_a_tie_at_chain_ends() {
    use maya_trace::{DeviceOp, KernelKind, StreamId, TraceEvent, WorkerTrace};
    let ev = |stream, op, host_us| TraceEvent {
        stream: StreamId(stream),
        op,
        host_delay: SimTime::from_us(host_us),
    };
    let gemm = |m| DeviceOp::KernelLaunch {
        kernel: KernelKind::Gemm {
            m,
            n: 1024,
            k: 1024,
            dtype: Dtype::Fp32,
        },
    };
    let mut w = WorkerTrace::new(0);
    w.events = vec![
        ev(0, gemm(10), 1.0),
        ev(0, gemm(20), 1.0),
        ev(1, gemm(5), 4.0),
        ev(1, gemm(20), 1.0),
        ev(0, DeviceOp::DeviceSynchronize, 1.0),
    ];
    let job = maya_trace::JobTrace {
        nranks: 1,
        workers: vec![w],
        comm_groups: BTreeMap::new(),
    };
    let cluster = ClusterSpec::h100(1, 1);
    let expected = Simulator::new(&RowsInUs, &cluster).run(&job).unwrap();
    let obs = maya::SimObs::default();
    let engine = PredictionEngine::new(EmulationSpec::new(cluster), Arc::new(RowsInUs))
        .with_sim_obs(obs.clone());
    let p = engine.predict_trace(job).unwrap();
    assert_eq!(p.report(), Some(&expected));
    assert_eq!(obs.events.get(), expected.events_processed);
}
