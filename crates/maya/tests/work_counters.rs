//! Work-counter ratchet for the collate and estimation stages, beside
//! `maya-sim/tests/work_counters.rs`.
//!
//! The counters are deterministic functions of the job, so they are
//! pinned by exact equality. They are the memory evidence for folding
//! ranks as they are recorded: a 64-rank job whose ranks fall into two
//! classes keeps two traces, the collator holding them as its templates
//! (the engine lowers each there, no copy is made) and nothing else —
//! and it is the evidence of the work folding skips.
//! The collator reads a rank's collective descriptors only; a recorder
//! compares each call against the templates of the classes kept so far
//! and, while the calls match, writes none of them, so events are
//! written for the kept traces only; and a folded rank's host clock is
//! never run, because nobody reads it: host time is computed for the
//! events of the traces that are kept. They are the evidence that what
//! the recorder hands over is what a recording against no template
//! writes, and that it sorts a job's ranks into the classes the frozen
//! three-pass oracle's signature does — the oracle hashes (every word
//! chained, a kernel by FLOPs and bytes) where the library compares, so
//! the partition is the contract. And they are the evidence that a
//! prediction asks the estimator memo once per distinct kernel shape,
//! memcpy and collective rendezvous, not once per launch or per
//! pipeline stage that wants the answer.

#[path = "../../maya-collate/tests/reference/mod.rs"]
mod reference;

use std::collections::{BTreeMap, BTreeSet};

use maya::{EmulationSpec, MayaBuilder, PredictionEngine};
use maya_collate::{CollateStats, Collator};
use maya_cuda::{CudaContext, CudaError};
use maya_hw::{ClusterSpec, GpuSpec};
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::{
    CollectiveKind, DeviceOp, Dtype, JobTrace, KernelKind, Templates, TraceBuffers, TraceMeta,
    WorkerTrace,
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
    /// Calls and collectives the ranks recorded.
    emitted: (usize, u64),
    /// Events recorders wrote into trace buffers.
    written: usize,
    /// Ranks whose recorder matched a kept class's template whole.
    folded_while_recording: usize,
    /// Events whose host time was computed.
    charged: usize,
    kept: JobTrace,
    /// Every rank as a recorder against no template writes it.
    all: Vec<WorkerTrace>,
}

/// The engine's sequential loop from its public parts: each rank records
/// into the buffers the collator handed back for the previous one,
/// against the templates of the classes the collator has kept, and
/// hands the collator what it wrote and its metadata, its noted host
/// time settled by the push only if the collator keeps the trace (as a
/// template, where the kept traces are read at the end). Every rank is also
/// recorded against no template; what the folding recorder handed over
/// is held against that recording, and the job's classes against the
/// frozen oracle's.
fn fold_all_ranks(job: &TrainingJob, gpu: GpuSpec) -> Folded {
    let known = BTreeMap::new();
    let mut collator = Collator::new(job.world, &known, true);
    let mut spare = TraceBuffers::default();
    let (mut emitted, mut written, mut folded_while_recording, mut charged) = ((0, 0), 0, 0, 0);
    let (mut kept, mut all) = (Vec::new(), Vec::new());
    let mut classes = Classes::default();
    for rank in 0..job.world {
        let what = format!("{} rank {rank}", job.describe());
        let against = Some(collator.templates());
        let mut ctx = CudaContext::recording_into(rank, gpu, spare, against);
        job.run_worker(rank, &mut ctx).expect("rank emulates");
        let (trace, meta, charges) = ctx.into_unsettled();
        assert_eq!(charges.owed(), meta.calls, "{what}");
        let ((alone, alone_meta), res) = record(job, rank, gpu, TraceBuffers::default(), None);
        res.expect("rank emulates");
        assert_recorded_as_alone(&trace, &meta, &alone, &alone_meta);
        // Ranks arrive in order: a rank that wrote its events opens the
        // class numbered by the templates it saw.
        classes.push(
            rank,
            meta.matched.unwrap_or(meta.seen),
            reference::signature(&alone),
        );
        emitted.0 += meta.calls;
        emitted.1 += trace.summary.num_collectives;
        written += trace.events.len();
        folded_while_recording += usize::from(meta.matched.is_some());
        let matched = meta.matched.is_some();
        let mut owed = Some(charges);
        let mut host_notes = Vec::new();
        let pushed = collator
            .push(trace, meta, |trace| {
                let charges = owed.take().expect("settled once");
                charged += charges.owed();
                host_notes = charges.settle(trace);
                assert_eq!(
                    trace, &alone,
                    "{what}: settled, the kept trace is the eager one"
                );
            })
            .expect("rank collates");
        if let Some(charges) = owed {
            host_notes = charges.forgo();
        }
        assert!(
            pushed.kept.is_none(),
            "{what}: a folding collator holds what it keeps"
        );
        assert_eq!(pushed.template.is_some(), !matched, "{what}");
        all.push(alone);
        spare = TraceBuffers {
            host_notes,
            ..pushed.spare
        };
    }
    let templates = collator.templates();
    kept.extend((0..templates.len()).filter_map(|t| Some(templates.get(t)?.trace().clone())));
    Folded {
        stats: collator.stats(),
        emitted,
        written,
        folded_while_recording,
        charged,
        kept: JobTrace {
            nranks: job.world,
            workers: kept,
            comm_groups: collator.finish().expect("job collates"),
        },
        all,
    }
}

/// The lowest rank seen so far of every class, by the recorder's
/// template and by the frozen oracle's signature. Ranks arrive in
/// ascending order, so the two sort a job into the same classes with
/// the same kept representatives exactly when every rank meets the same
/// first rank under both.
#[derive(Default)]
struct Classes {
    recorded: BTreeMap<usize, u32>,
    oracle: BTreeMap<u64, u32>,
}

impl Classes {
    fn push(&mut self, rank: u32, template: usize, oracle: u64) {
        assert_eq!(
            *self.recorded.entry(template).or_insert(rank),
            *self.oracle.entry(oracle).or_insert(rank),
            "rank {rank}: representative by the recorder's template, by the oracle's signature"
        );
    }
}

/// What a recorder against templates handed over is what one against
/// none wrote: the same collectives and calls, and the same events —
/// up to the host time it still owes — or none at all if it matched a
/// template whole; and the collective descriptors are the trace's.
fn assert_recorded_as_alone(
    trace: &WorkerTrace,
    meta: &TraceMeta,
    alone: &WorkerTrace,
    alone_meta: &TraceMeta,
) {
    let what = format!("rank {}", trace.rank);
    assert_eq!(alone_meta, &TraceMeta::scan(&alone.events), "{what}");
    assert_eq!(meta.collectives, alone_meta.collectives, "{what}");
    assert_eq!(meta.calls, alone.events.len(), "{what}");
    assert_eq!(trace.summary, alone.summary, "{what}");
    match meta.matched {
        Some(_) => assert!(trace.events.is_empty(), "{what}"),
        None => {
            assert_eq!(trace.events.len(), alone.events.len(), "{what}");
            let alone_class = Templates::default().kept(alone.clone());
            assert_eq!(alone_class.find(&trace.events, 0), Some(0), "{what}");
        }
    }
    assert_eq!(
        alone_meta.collectives.len() as u64,
        alone.summary.num_collectives,
        "{what}"
    );
}

/// The 64-rank job's collate counters, host charges, written events and
/// kept traces.
///
/// `CollateStats::resident_high_water` was pinned at 3 here — the two
/// kept traces and the one being pushed — while the collator held what
/// it kept; the field is retired. A folding collator holds its kept
/// traces again, as the templates later ranks are compared against —
/// the two here — and a folded rank writes no event to hold.
#[test]
fn folded_job_counters_are_pinned() {
    let cluster = ClusterSpec::h100(8, 8);
    let job = pinned_job();
    let Folded {
        stats,
        emitted,
        written,
        folded_while_recording,
        charged,
        kept,
        ..
    } = fold_all_ranks(&job, cluster.gpu);
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
        (written, folded_while_recording),
        (2_334, 62),
        "events are written for the two kept traces; 62 ranks match a template whole"
    );

    assert_eq!(
        (charged, kept.total_events()),
        (2_334, 2_334),
        "host time is computed for the two traces that are kept, not for 64 ranks"
    );

    // The engine reports the same fold and the same charges, whatever
    // the thread count: settling happens on the sink, in rank order.
    let predict = |threads| {
        let spec = EmulationSpec::new(cluster.clone()).with_emulation_threads(threads);
        let maya = MayaBuilder::new(cluster.clone())
            .with_spec(spec)
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
    let one = predict(1);
    assert_eq!(predict(2), one);
    assert_eq!(predict(4), one);

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
    let kept = fold_all_ranks(&job, cluster.gpu).kept;
    // What the simulator asks about: every distinct kernel shape of the
    // kept workers once for the job, every memcpy, and every distinct
    // collective shape — kind, bytes and communicator — once however
    // many rendezvous take it and however many workers join each (it
    // asked once per rendezvous, 445 questions in all, until the flat
    // path kept a table). A send and its receive are one shape per end:
    // the end that arrives first is asked, the lower rank on a tie. In
    // one pipeline pair here the receive arrives first at some steps and
    // the send at others, so that pair is two shapes in its
    // communicator's table: 57 questions, not the 56 the per-pair count
    // below gives (56 while a rendezvous asked its first joiner).
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
        shapes.len() as u64 + memcpys + collective_shapes.len() as u64 + 1
    );
    // What is derived is what was derived when every launch asked, and
    // the pair's receive end (52 before it was asked).
    assert_eq!(memo.misses, 53, "{memo:?}");
    // A second prediction asks the same questions and derives nothing.
    maya.predict_job(&job).unwrap();
    let warm = maya.cache_stats();
    assert_eq!(warm.misses, memo.misses);
    assert_eq!(warm.hits + warm.misses, 2 * (memo.hits + memo.misses));
}

/// One rank's recording against `against` (`None`: not to be folded),
/// settled, with the script's verdict.
fn record(
    job: &TrainingJob,
    rank: u32,
    gpu: GpuSpec,
    buffers: TraceBuffers,
    against: Option<Templates>,
) -> ((WorkerTrace, TraceMeta), Result<(), CudaError>) {
    let mut ctx = CudaContext::recording_into(rank, gpu, buffers, against);
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
        // Every rank records over what the one before left behind ...
        let mut spare = TraceBuffers::default();
        for rank in 0..job.world {
            let ((trace, meta), res) = record(job, rank, gpu, spare, None);
            res.unwrap_or_else(|e| panic!("{} rank {rank}: {e}", job.describe()));
            assert!(!meta.collectives.is_empty(), "{}", job.describe());
            assert_eq!(meta, TraceMeta::scan(&trace.events), "{}", job.describe());
            spare = TraceBuffers {
                events: trace.events,
                collectives: meta.collectives,
                ..Default::default()
            };
        }
        // ... and against the classes kept before it, as it folds.
        let folded = fold_all_ranks(job, gpu);
        assert_eq!(folded.written, folded.kept.total_events());
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

/// Records `rank` twice — into `spare`, as a rank that may be folded,
/// so its host time is noted and settled here, and as one that will
/// not be, so every call is charged as it is recorded — and holds the
/// two traces equal, `host_delay`s included. Returns the noting
/// recorder's buffers.
fn assert_settled_as_charged(
    job: &TrainingJob,
    rank: u32,
    gpu: GpuSpec,
    spare: TraceBuffers,
) -> TraceBuffers {
    let what = format!("{} rank {rank}", job.describe());
    let against = Some(Templates::default());
    let mut ctx = CudaContext::recording_into(rank, gpu, spare, against);
    let res = job.run_worker(rank, &mut ctx);
    let (mut settled, meta, charges) = ctx.into_unsettled();
    assert_eq!(charges.owed(), settled.events.len(), "{what}");
    let host_notes = charges.settle(&mut settled);
    let ((charged, _), charged_res) = record(job, rank, gpu, TraceBuffers::default(), None);
    assert_eq!(res, charged_res, "{what}");
    assert_eq!(settled.events.len(), charged.events.len(), "{what}");
    for (at, (s, c)) in settled.events.iter().zip(&charged.events).enumerate() {
        assert_eq!(s, c, "{what}, event {at}");
    }
    assert_eq!(settled.summary, charged.summary, "{what}");
    TraceBuffers {
        events: settled.events,
        collectives: meta.collectives,
        residue: meta.residue,
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

/// A rank that runs out of memory partway through a template — the
/// class of the same rank on a device with room for it — writes out
/// what it matched and is the rank a recorder against no template
/// writes, cut where it stopped.
#[test]
fn a_rank_that_runs_out_of_memory_is_signed_up_to_where_it_stopped() {
    let job = oom_job();
    let gpu = GpuSpec::h100();
    let roomy = GpuSpec {
        mem_gib: 4.0 * gpu.mem_gib,
        ..gpu
    };
    let ((whole, whole_meta), res) = record(&job, 0, roomy, TraceBuffers::default(), None);
    res.expect("a device with room fits stage 0");
    let class = Templates::default().kept(whole.clone());
    let stale = TraceBuffers {
        events: whole.events.clone(),
        collectives: whole_meta.collectives,
        residue: Vec::new(),
        host_notes: vec![u64::MAX; 7],
    };
    let ((cut, cut_meta), res) = record(&job, 0, gpu, stale, Some(class));
    assert!(
        matches!(res, Err(CudaError::MemoryAllocation { .. })),
        "{res:?}"
    );
    assert!(cut.summary.oom && !cut.events.is_empty());
    assert!(cut.events.len() < whole.events.len());
    assert_eq!(cut.events[..], whole.events[..cut.events.len()]);
    assert_eq!((cut_meta.matched, cut_meta.seen), (None, 1));
    // Nothing of the template or the recycled buffers leaked through.
    let ((fresh, fresh_meta), _) = record(&job, 0, gpu, TraceBuffers::default(), None);
    assert_eq!(cut, fresh);
    assert_eq!(
        (cut_meta.collectives, cut_meta.calls),
        (fresh_meta.collectives, fresh_meta.calls)
    );
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
        let ((trace, meta), res) = record(&job, rank, cluster.gpu, spare, None);
        res.expect("rank emulates");
        assert_eq!(meta, TraceMeta::scan(&trace.events));
        assert_eq!((meta.matched, meta.seen), (None, 0));
        let pushed = collator.push(trace, meta, |_| {}).expect("rank collates");
        spare = pushed.spare;
        assert_eq!(spare.events.capacity(), 0, "every trace is kept");
        workers.extend(pushed.kept);
    }
    assert!(collator.templates().is_empty(), "nor keeps a template");
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
    let spec = EmulationSpec::new(cluster.clone()).with_dedup(false);
    let p = MayaBuilder::new(cluster)
        .with_spec(spec)
        .build()
        .unwrap()
        .predict_job(&job)
        .unwrap();
    assert_eq!(
        (p.workers_emulated, p.workers_simulated, p.trace_events),
        (64, 64, all.total_events())
    );
}

/// `emulate_dedup_512`'s job: every rank recorded against the kept
/// classes' templates, held against its recording alone, and the fold
/// against the frozen oracle's. The oracle wants all 512 traces at once
/// and every rank is emulated three times, so it stays out of the
/// default run; CI runs it with `--release -- --ignored`.
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
        written,
        folded_while_recording,
        charged,
        kept,
        all,
    } = fold_all_ranks(&job, cluster.gpu);
    assert_eq!(charged, kept.total_events());
    assert_eq!((written, folded_while_recording), (charged, 510));
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
    // Every rank: noted and settled, against charged as recorded.
    let mut spare = TraceBuffers::default();
    for r in 0..job.world {
        spare = assert_settled_as_charged(&job, r, cluster.gpu, spare);
    }
    let all = reference::collate(all, job.world).expect("oracle collates");
    let classes = reference::dedup_classes(&all.workers);
    assert_eq!(kept, reference::reduce_job(&all, &classes));
}
