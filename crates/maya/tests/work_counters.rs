//! Work-counter ratchet for the collate and estimation stages, beside
//! `maya-sim/tests/work_counters.rs`.
//!
//! The counters are deterministic functions of the job, so they are
//! pinned by exact equality. They are the memory evidence for folding
//! ranks as they finish: a 64-rank job whose ranks fall into two classes
//! keeps two traces, the collator holding none of them — it hands a
//! kept trace back with the push that keeps it, and the engine lowers
//! it then — and the collator reads a rank's collectives only,
//! because the recorder signed the trace and indexed them while writing
//! it — and a folded rank's host clock is never run, because nobody
//! reads it: host time is computed for the events of the traces that
//! are kept. They are the evidence that what the recorder hands over is
//! what a scan of the finished trace computes, and that it sorts a job's
//! ranks into the classes the frozen three-pass oracle's signature
//! does — the values differ (the oracle chains every word and hashes a
//! kernel by FLOPs and bytes), the partition is the contract. And they
//! are the evidence that a prediction asks the estimator memo once per
//! distinct kernel shape, memcpy and collective rendezvous, not once
//! per launch or per pipeline stage that wants the answer.

#[path = "../../maya-collate/tests/reference/mod.rs"]
mod reference;

use std::collections::{BTreeMap, BTreeSet};

use maya::{EmulationSpec, MayaBuilder, PredictionEngine};
use maya_collate::{signature, CollateStats, Collator};
use maya_cuda::{CudaContext, CudaError};
use maya_hw::{ClusterSpec, GpuSpec};
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::{
    CollectiveKind, DeviceOp, Dtype, JobTrace, KernelKind, TraceBuffers, TraceMeta, WorkerTrace,
};

/// 64 ranks, tp 4 · pp 2 · dp 8.
fn pinned_job() -> TrainingJob {
    TrainingJob {
        model: ModelSpec::gpt3_125m(),
        parallel: ParallelConfig {
            tp: 4,
            pp: 2,
            microbatch_multiplier: 2,
            sequence_parallel: true,
            distributed_optimizer: true,
            ..Default::default()
        },
        flavor: FrameworkFlavor::Megatron,
        compile: false,
        global_batch: 64,
        world: 64,
        gpus_per_node: 8,
        precision: Dtype::Bf16,
        iterations: 1,
    }
}

/// What `fold_all_ranks` saw go by.
struct Folded {
    stats: CollateStats,
    /// Events and collectives the ranks emitted.
    emitted: (usize, u64),
    /// Events whose host time was computed.
    charged: usize,
    kept: JobTrace,
}

/// The engine's sequential loop from its public parts: each rank records
/// into the buffers the collator handed back for the previous one, and
/// hands the collator what its recorder signed and indexed, settling the
/// host time it noted only if the collator does not hold its signature
/// yet. Every rank's metadata is held against a scan of its finished
/// trace, and the job's classes against the frozen oracle's.
fn fold_all_ranks(job: &TrainingJob, cluster: &ClusterSpec) -> Folded {
    let known = BTreeMap::new();
    let mut collator = Collator::new(job.world, &known, true);
    let (mut spare, mut emitted, mut charged) = (TraceBuffers::default(), (0, 0), 0);
    let mut kept = Vec::new();
    let mut classes = Classes::default();
    for rank in 0..job.world {
        let mut ctx = CudaContext::recording_into(rank, cluster.gpu, spare, true);
        job.run_worker(rank, &mut ctx).expect("rank emulates");
        let (mut trace, meta, charges) = ctx.into_unsettled();
        assert_eq!(charges.owed(), trace.events.len(), "rank {rank}");
        let host_notes = if collator.holds(meta.signature.expect("signed")) {
            charges.forgo()
        } else {
            charged += charges.owed();
            charges.settle(&mut trace)
        };
        // Settled or not: neither the signature nor the index reads
        // host time.
        assert_recorded_as_scanned(&trace, &meta, &mut classes);
        emitted.0 += trace.events.len();
        emitted.1 += trace.summary.num_collectives;
        let pushed = collator.push(trace, meta).expect("rank collates");
        kept.extend(pushed.kept);
        spare = TraceBuffers {
            host_notes,
            ..pushed.spare
        };
    }
    Folded {
        stats: collator.stats(),
        emitted,
        charged,
        kept: JobTrace {
            nranks: job.world,
            workers: kept,
            comm_groups: collator.finish().expect("job collates"),
        },
    }
}

/// The lowest rank seen so far of every class, by the recorder's
/// signature and by the frozen oracle's. Ranks arrive in ascending
/// order, so two signatures sort a job into the same classes with the
/// same kept representatives exactly when every rank meets the same
/// first rank under both.
#[derive(Default)]
struct Classes {
    recorded: BTreeMap<u64, u32>,
    oracle: BTreeMap<u64, u32>,
}

impl Classes {
    fn push(&mut self, rank: u32, recorded: u64, oracle: u64) {
        assert_eq!(
            *self.recorded.entry(recorded).or_insert(rank),
            *self.oracle.entry(oracle).or_insert(rank),
            "rank {rank}: representative by the recorder's signature, by the oracle's"
        );
    }
}

/// The recorder's metadata is the scan's, its signature puts the rank
/// in the class the oracle's does, and the index is where the
/// collectives are.
fn assert_recorded_as_scanned(trace: &WorkerTrace, meta: &TraceMeta, classes: &mut Classes) {
    let what = format!("rank {}", trace.rank);
    assert_eq!(meta, &TraceMeta::scan(&trace.events, true), "{what}");
    assert_eq!(meta.signature, Some(signature(trace)), "{what}");
    classes.push(trace.rank, signature(trace), reference::signature(trace));
    let collectives: Vec<usize> = (0..trace.events.len())
        .filter(|&at| matches!(trace.events[at].op, DeviceOp::Collective { .. }))
        .collect();
    assert_eq!(meta.collectives, collectives, "{what}");
    assert_eq!(
        collectives.len() as u64,
        trace.summary.num_collectives,
        "{what}"
    );
}

/// The 64-rank job's collate counters, host charges and kept traces.
///
/// `CollateStats::resident_high_water` was pinned at 3 here — the two
/// kept traces and the one being pushed — while the collator held what
/// it kept. The collator holds no trace now, so the field is retired:
/// `predict_job` lowers a kept trace the moment the collator hands it
/// back and records the next rank into its buffer, so a single-threaded
/// prediction has one trace alive at a time. No other pinned number
/// moved.
#[test]
fn folded_job_counters_are_pinned() {
    let cluster = ClusterSpec::h100(8, 8);
    let job = pinned_job();
    let Folded {
        stats,
        emitted,
        charged,
        kept,
    } = fold_all_ranks(&job, &cluster);
    assert_eq!(
        stats,
        CollateStats {
            workers_in: 64,
            workers_kept: 2,
            events_seen: 13_120,
        }
    );
    assert_eq!(
        (emitted.0, stats.events_seen),
        (74_688, emitted.1),
        "the collator reads the collectives and nothing else"
    );

    assert_eq!(
        (charged, kept.total_events()),
        (2_334, 2_334),
        "host time is computed for the two traces that are kept, not for 64 ranks"
    );
    // Settled, the kept traces are the ones an eager recorder writes.
    for w in &kept.workers {
        let ((eager, _), _) = record(&job, w.rank, cluster.gpu, TraceBuffers::default(), false);
        assert_eq!(w, &eager, "rank {}", w.rank);
    }

    // The engine reports the same fold and the same charges, whatever
    // the thread count: settling happens on the sink, in rank order.
    let predict = |threads| {
        let maya = MayaBuilder::new(cluster.clone())
            .emulation_threads(threads)
            .build()
            .unwrap();
        let p = maya.predict_job(&job).unwrap();
        assert_eq!(
            (p.workers_emulated, p.workers_simulated, p.trace_events),
            (64, 2, kept.total_events())
        );
        assert_eq!(maya.host_charges(), charged as u64, "{threads} threads");
        p.report().cloned().expect("the job fits")
    };
    assert_eq!(predict(1), predict(2));

    // A spec that does not fold charges every event, as it records it.
    let unfolded = PredictionEngine::new(
        EmulationSpec::without_optimizations(cluster.clone()),
        std::sync::Arc::new(maya_estimator::OracleEstimator::new(&cluster)),
    );
    let p = unfolded.predict_job(&job).unwrap();
    assert_eq!(
        (p.workers_simulated, p.trace_events, unfolded.host_charges()),
        (64, emitted.0, emitted.0 as u64)
    );
}

#[test]
fn one_memo_query_per_distinct_shape() {
    let cluster = ClusterSpec::h100(8, 8);
    let job = pinned_job();
    let kept = fold_all_ranks(&job, &cluster).kept;
    // What the simulator asks about: every distinct kernel shape of the
    // kept workers once for the job, every memcpy, and every distinct
    // collective shape — kind, bytes and communicator — once however
    // many rendezvous take it and however many workers join each (it
    // asked once per rendezvous, 445 questions in all, until the flat
    // path kept a table). A send and its receive are one shape: the end
    // that joins first is asked, and here that is the same end at every
    // step of a pipeline pair.
    let (mut launches, mut memcpys) = (0u64, 0u64);
    let (mut shapes, mut rendezvous) = (Vec::<KernelKind>::new(), BTreeSet::new());
    let mut collective_shapes = Vec::new();
    for e in kept.workers.iter().flat_map(|w| &w.events) {
        match e.op {
            DeviceOp::KernelLaunch { kernel } => {
                launches += 1;
                if !shapes.contains(&kernel) {
                    shapes.push(kernel);
                }
            }
            DeviceOp::MemcpyAsync { .. } => memcpys += 1,
            DeviceOp::Collective { desc } => {
                let pair = match desc.kind {
                    CollectiveKind::Send { peer } | CollectiveKind::Recv { peer } => {
                        Some((desc.rank_in_comm.min(peer), desc.rank_in_comm.max(peer)))
                    }
                    _ => None,
                };
                rendezvous.insert((desc.comm_id, desc.seq, pair));
                let kind = pair.is_none().then_some(desc.kind);
                let shape = (desc.comm_id, desc.bytes, kind, pair);
                if !collective_shapes.contains(&shape) {
                    collective_shapes.push(shape);
                }
            }
            _ => {}
        }
    }
    assert_eq!(
        (launches + memcpys, shapes.len(), memcpys, rendezvous.len()),
        (1_844, 38, 6, 401)
    );
    assert_eq!(collective_shapes.len(), 12);

    let maya = MayaBuilder::new(cluster).build().unwrap();
    maya.predict_job(&job).unwrap();
    let memo = maya.cache_stats();
    assert_eq!(
        memo.hits + memo.misses,
        shapes.len() as u64 + memcpys + collective_shapes.len() as u64
    );
    // What is derived is what was derived when every launch asked.
    assert_eq!(memo.misses, 52, "{memo:?}");
    // A second prediction asks the same questions and derives nothing.
    maya.predict_job(&job).unwrap();
    let warm = maya.cache_stats();
    assert_eq!(warm.misses, memo.misses);
    assert_eq!(warm.hits + warm.misses, 2 * (memo.hits + memo.misses));
}

/// One rank's recording, with the script's verdict.
fn record(
    job: &TrainingJob,
    rank: u32,
    gpu: GpuSpec,
    buffers: TraceBuffers,
    sign: bool,
) -> ((WorkerTrace, TraceMeta), Result<(), CudaError>) {
    let mut ctx = CudaContext::recording_into(rank, gpu, buffers, sign);
    let res = job.run_worker(rank, &mut ctx);
    (ctx.into_recorded(), res)
}

/// One job per framework flavor and model family the recorder serves.
fn recorder_jobs() -> [TrainingJob; 7] {
    let dp = |flavor, model, world| TrainingJob {
        model,
        parallel: ParallelConfig::default(),
        flavor,
        global_batch: 2 * world,
        world,
        ..pinned_job()
    };
    let zero = |stage, activation_offload| FrameworkFlavor::DeepSpeedZero {
        stage,
        activation_offload,
    };
    [
        TrainingJob {
            world: 16,
            global_batch: 16,
            ..pinned_job()
        },
        dp(FrameworkFlavor::Ddp, ModelSpec::gpt3_125m(), 2),
        dp(FrameworkFlavor::Fsdp, ModelSpec::gpt3_125m(), 4),
        dp(zero(1, false), ModelSpec::gpt3_125m(), 2),
        dp(zero(2, true), ModelSpec::gpt3_125m(), 2),
        dp(zero(3, false), ModelSpec::gpt3_125m(), 3),
        // The vision workload: cuDNN handles and descriptors.
        TrainingJob {
            precision: Dtype::Fp32,
            ..dp(FrameworkFlavor::Ddp, ModelSpec::resnet152(), 2)
        },
    ]
}

#[test]
fn recorder_metadata_is_the_scan_of_the_finished_trace() {
    let gpu = GpuSpec::h100();
    for job in &recorder_jobs() {
        job.validate().expect("fixture");
        // Every rank records over what the one before left behind.
        let mut spare = TraceBuffers::default();
        let mut classes = Classes::default();
        for rank in 0..job.world {
            let ((trace, meta), res) = record(job, rank, gpu, spare, true);
            res.unwrap_or_else(|e| panic!("{} rank {rank}: {e}", job.describe()));
            assert!(!meta.collectives.is_empty(), "{}", job.describe());
            assert_recorded_as_scanned(&trace, &meta, &mut classes);
            spare = TraceBuffers {
                events: trace.events,
                collectives: meta.collectives,
                ..Default::default()
            };
        }
    }
}

/// Stage 0 of this pipeline cannot hold its microbatches in flight.
fn oom_job() -> TrainingJob {
    TrainingJob {
        model: ModelSpec::gpt3_2_7b(),
        parallel: ParallelConfig {
            pp: 2,
            microbatch_multiplier: 4,
            ..Default::default()
        },
        global_batch: 64,
        world: 4,
        ..pinned_job()
    }
}

/// Records `rank` twice — signing into `spare`, so its host time is
/// noted and settled here, and not signing, so every call is charged as
/// it is recorded — and holds the two traces equal, `host_delay`s
/// included. Returns the signing recorder's buffers.
fn assert_settled_as_charged(
    job: &TrainingJob,
    rank: u32,
    gpu: GpuSpec,
    spare: TraceBuffers,
) -> TraceBuffers {
    let what = format!("{} rank {rank}", job.describe());
    let mut ctx = CudaContext::recording_into(rank, gpu, spare, true);
    let res = job.run_worker(rank, &mut ctx);
    let (mut settled, meta, charges) = ctx.into_unsettled();
    assert_eq!(charges.owed(), settled.events.len(), "{what}");
    let host_notes = charges.settle(&mut settled);
    let ((charged, _), charged_res) = record(job, rank, gpu, TraceBuffers::default(), false);
    assert_eq!(res, charged_res, "{what}");
    assert_eq!(settled.events.len(), charged.events.len(), "{what}");
    for (at, (s, c)) in settled.events.iter().zip(&charged.events).enumerate() {
        assert_eq!(s, c, "{what}, event {at}");
    }
    assert_eq!(settled.summary, charged.summary, "{what}");
    TraceBuffers {
        events: settled.events,
        collectives: meta.collectives,
        host_notes,
    }
}

#[test]
fn deferred_host_time_settles_to_what_an_eager_recorder_charges() {
    let gpu = GpuSpec::h100();
    for job in &recorder_jobs() {
        // Every rank notes over what the one before left behind.
        let mut spare = TraceBuffers::default();
        for rank in 0..job.world {
            spare = assert_settled_as_charged(job, rank, gpu, spare);
        }
    }
    // A rank cut short by OOM owes exactly the events it got to.
    let whole = assert_settled_as_charged(&oom_job(), 3, gpu, TraceBuffers::default());
    let cut = assert_settled_as_charged(&oom_job(), 0, gpu, whole);
    assert!(!cut.events.is_empty());
}

#[test]
fn a_rank_that_runs_out_of_memory_is_signed_up_to_where_it_stopped() {
    let job = oom_job();
    let gpu = GpuSpec::h100();
    let ((whole, whole_meta), res) = record(&job, 3, gpu, TraceBuffers::default(), true);
    res.expect("the last stage fits");
    let stale = TraceBuffers {
        events: whole.events,
        collectives: whole_meta.collectives,
        host_notes: vec![u64::MAX; 7],
    };
    let ((cut, cut_meta), res) = record(&job, 0, gpu, stale, true);
    assert!(
        matches!(res, Err(CudaError::MemoryAllocation { .. })),
        "{res:?}"
    );
    assert!(cut.summary.oom && !cut.events.is_empty());
    // The cut rank and the whole one are two classes to both signatures.
    let mut classes = Classes::default();
    assert_recorded_as_scanned(&cut, &cut_meta, &mut classes);
    let ((whole, whole_meta), _) = record(&job, 3, gpu, TraceBuffers::default(), true);
    assert_recorded_as_scanned(&whole, &whole_meta, &mut classes);
    assert_eq!(classes.recorded.len(), 2);
    // Nothing of rank 3 leaked through the recycled buffers.
    let ((fresh, fresh_meta), _) = record(&job, 0, gpu, TraceBuffers::default(), true);
    assert_eq!((cut, cut_meta), (fresh, fresh_meta));
}

#[test]
fn a_recorder_that_will_not_fold_computes_no_signature() {
    let cluster = ClusterSpec::h100(8, 8);
    let job = pinned_job();
    let known = BTreeMap::new();
    let mut collator = Collator::new(job.world, &known, false);
    let mut spare = TraceBuffers::default();
    let mut workers = Vec::new();
    for rank in 0..job.world {
        let ((trace, meta), res) = record(&job, rank, cluster.gpu, spare, false);
        res.expect("rank emulates");
        assert_eq!(meta, TraceMeta::scan(&trace.events, false));
        assert_eq!(meta.signature, None);
        let pushed = collator.push(trace, meta).expect("rank collates");
        spare = pushed.spare;
        assert_eq!(spare.events.capacity(), 0, "every trace is kept");
        workers.extend(pushed.kept);
    }
    let stats = collator.stats();
    assert_eq!((stats.workers_in, stats.workers_kept), (64, 64));
    let all = JobTrace {
        nranks: job.world,
        workers,
        comm_groups: collator.finish().expect("job collates"),
    };
    assert_eq!(stats.events_seen, {
        let per_rank = all.workers.iter().map(|w| w.summary.num_collectives);
        per_rank.sum::<u64>()
    });
    // The engine, not folding, predicts from exactly these traces.
    let p = MayaBuilder::new(cluster)
        .dedup(false)
        .build()
        .unwrap()
        .predict_job(&job)
        .unwrap();
    assert_eq!(
        (p.workers_emulated, p.workers_simulated, p.trace_events),
        (64, 64, all.total_events())
    );
}

/// `emulate_dedup_512`'s job: every rank's recorded metadata against a
/// scan and the oracle, and the fold against the oracle's. The oracle
/// wants all 512 traces at once (≈ 220 MB) and the ranks are emulated
/// twice, so it stays out of the default run; CI runs it with
/// `--release -- --ignored`.
#[test]
#[ignore = "512 ranks, ≈ 220 MB: run with --release -- --ignored"]
fn recorder_and_scan_agree_on_the_512_rank_job() {
    let cluster = ClusterSpec::h100(64, 8);
    let job = TrainingJob {
        model: ModelSpec::gpt3_18_4b(),
        parallel: ParallelConfig {
            activation_recompute: true,
            ..pinned_job().parallel
        },
        global_batch: 1024,
        world: 512,
        ..pinned_job()
    };
    let Folded {
        stats,
        emitted,
        charged,
        kept,
    } = fold_all_ranks(&job, &cluster);
    assert_eq!(charged, kept.total_events());
    // No `resident_high_water` (it pinned 3): see
    // `folded_job_counters_are_pinned`'s doc.
    assert_eq!(
        stats,
        CollateStats {
            workers_in: 512,
            workers_kept: 2,
            events_seen: 498_176,
        }
    );
    assert_eq!(emitted, (2_788_864, 498_176));
    // Every rank: signed, noted and settled, against charged as recorded.
    let mut spare = TraceBuffers::default();
    let all: Vec<WorkerTrace> = (0..job.world)
        .map(|r| {
            let settled = maya_torchlet::engine::trace_one_rank(&job, r, cluster.gpu).0;
            let ((charged, meta), _) =
                record(&job, r, cluster.gpu, std::mem::take(&mut spare), false);
            assert_eq!(settled, charged, "rank {r}");
            spare = TraceBuffers {
                events: charged.events,
                collectives: meta.collectives,
                ..Default::default()
            };
            settled
        })
        .collect();
    let all = reference::collate(all, job.world).expect("oracle collates");
    let classes = reference::dedup_classes(&all.workers);
    assert_eq!(kept, reference::reduce_job(&all, &classes));
}
