//! Work-counter ratchet for the collate and estimation stages, beside
//! `maya-sim/tests/work_counters.rs`.
//!
//! The counters are deterministic functions of the job, so they are
//! pinned by exact equality. They are the memory evidence for folding
//! ranks as they finish: a 64-rank job whose ranks fall into two classes
//! never has more than three traces alive — the two kept and the one
//! being examined — and every event is read once. And they are the
//! evidence that a prediction asks the estimator memo once per
//! simulated kernel, memcpy and collective rendezvous, not once per
//! pipeline stage that wants the answer.

use std::collections::{BTreeMap, BTreeSet};

use maya::MayaBuilder;
use maya_collate::{CollateStats, Collator};
use maya_cuda::CudaContext;
use maya_hw::ClusterSpec;
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::{CollectiveKind, DeviceOp, Dtype, JobTrace};

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

/// The engine's sequential loop from its public parts: each rank records
/// into the buffer the collator handed back for the previous one.
fn fold_all_ranks(job: &TrainingJob, cluster: &ClusterSpec) -> (CollateStats, usize, JobTrace) {
    let known = BTreeMap::new();
    let mut collator = Collator::new(job.world, &known, true);
    let (mut spare, mut emitted) = (Vec::new(), 0);
    for rank in 0..job.world {
        let mut ctx = CudaContext::recording_into(rank, cluster.gpu, spare);
        job.run_worker(rank, &mut ctx).expect("rank emulates");
        let trace = ctx.into_trace();
        emitted += trace.events.len();
        spare = collator.push(trace).expect("rank collates");
    }
    let stats = collator.stats();
    (stats, emitted, collator.finish().expect("job collates"))
}

#[test]
fn folded_job_counters_are_pinned() {
    let cluster = ClusterSpec::h100(8, 8);
    let job = pinned_job();
    let (stats, emitted, kept) = fold_all_ranks(&job, &cluster);
    assert_eq!(
        stats,
        CollateStats {
            workers_in: 64,
            workers_kept: 2,
            events_seen: 74_688,
            resident_high_water: 3,
        }
    );
    assert_eq!(
        stats.events_seen as usize, emitted,
        "one pass over every event"
    );

    // The engine reports the same fold.
    let p = MayaBuilder::new(cluster)
        .build()
        .unwrap()
        .predict_job(&job)
        .unwrap();
    assert_eq!(
        (p.workers_emulated, p.workers_simulated, p.trace_events),
        (64, 2, kept.total_events())
    );
}

#[test]
fn one_memo_query_per_simulated_event() {
    let cluster = ClusterSpec::h100(8, 8);
    let job = pinned_job();
    let (_, _, kept) = fold_all_ranks(&job, &cluster);
    // What the simulator times: every kernel and memcpy of the kept
    // workers, and every rendezvous they take part in, once however
    // many of them join it.
    let (mut timed, mut rendezvous) = (0u64, BTreeSet::new());
    for e in kept.workers.iter().flat_map(|w| &w.events) {
        match e.op {
            DeviceOp::KernelLaunch { .. } | DeviceOp::MemcpyAsync { .. } => timed += 1,
            DeviceOp::Collective { desc } => {
                let pair = match desc.kind {
                    CollectiveKind::Send { peer } | CollectiveKind::Recv { peer } => {
                        Some((desc.rank_in_comm.min(peer), desc.rank_in_comm.max(peer)))
                    }
                    _ => None,
                };
                rendezvous.insert((desc.comm_id, desc.seq, pair));
            }
            _ => {}
        }
    }
    assert_eq!((timed, rendezvous.len()), (1_844, 401));

    let maya = MayaBuilder::new(cluster).build().unwrap();
    maya.predict_job(&job).unwrap();
    let memo = maya.cache_stats();
    assert_eq!(memo.hits + memo.misses, timed + rendezvous.len() as u64);
    // A second prediction asks the same questions and derives nothing.
    maya.predict_job(&job).unwrap();
    let warm = maya.cache_stats();
    assert_eq!(warm.misses, memo.misses);
    assert_eq!(warm.hits + warm.misses, 2 * (memo.hits + memo.misses));
}
