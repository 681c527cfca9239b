//! Dynamic worker deduplication (§4.2) and selective launch (§7.4).
//!
//! In data-parallel (and tensor-parallel) training, many workers execute
//! identical operation sequences on different data shards. The paper
//! hashes each worker's operations while it is emulated and keeps only
//! the unique ranks. This repo compares the operations instead, with the
//! partition the hash induces and without its collisions: two workers
//! are alike exactly when their calls (as `maya_trace::same_calls`
//! and `Template::is` compare them, one definition) are equal, one for
//! one. The emulator's recorder compares
//! each call against the templates of the classes kept so far as it is
//! issued, so a rank that repeats a kept class arrives at
//! [`Collator`](crate::Collator) with no events written and is dropped
//! (the first iteration is the boundary: every job traces one).
//! [`dedup_classes`] / [`reduce_job`] are the same comparison over
//! traces that are all in hand; they serve only the benchmark's replay
//! and the tests, and leave once that replay goes through the collator
//! (ROADMAP.md, item 2(a)).

use maya_trace::{same_calls, JobTrace, WorkerTrace};

/// One equivalence class of identical workers.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DedupClass {
    /// The rank whose trace represents the class.
    pub representative: u32,
    /// All member ranks (including the representative).
    pub members: Vec<u32>,
}

/// Groups workers into equivalence classes of equal calls, compared as
/// the collator compares them. The lowest rank of each class becomes
/// its representative.
pub fn dedup_classes(workers: &[WorkerTrace]) -> Vec<DedupClass> {
    let mut classes: Vec<(&WorkerTrace, Vec<u32>)> = Vec::new();
    for w in workers {
        match classes
            .iter_mut()
            .find(|(first, _)| same_calls(&first.events, &w.events))
        {
            Some((_, members)) => members.push(w.rank),
            None => classes.push((w, vec![w.rank])),
        }
    }
    let mut classes: Vec<DedupClass> = classes
        .into_iter()
        .filter_map(|(_, mut members)| {
            members.sort_unstable();
            Some(DedupClass {
                representative: *members.first()?,
                members,
            })
        })
        .collect();
    classes.sort_by_key(|c| c.representative);
    classes
}

/// Drops redundant workers from a job, keeping one representative per
/// class. Communicator groups are preserved in full, so downstream
/// consumers can still size collectives correctly.
pub fn reduce_job(job: &JobTrace, classes: &[DedupClass]) -> JobTrace {
    let keep: std::collections::BTreeSet<u32> = classes.iter().map(|c| c.representative).collect();
    JobTrace {
        nranks: job.nranks,
        workers: job
            .workers
            .iter()
            .filter(|w| keep.contains(&w.rank))
            .cloned()
            .collect(),
        comm_groups: job.comm_groups.clone(),
    }
}

/// Megatron-aware ahead-of-time unique-rank selection (§7.4): with
/// explicit knowledge of the parallelism configuration, the unique
/// workers are the first data-parallel, first tensor-parallel rank of
/// each pipeline stage.
pub fn unique_megatron_ranks(tp: u32, dp: u32, pp: u32) -> Vec<u32> {
    (0..pp).map(|p| p * tp * dp).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_trace::{
        CollectiveDesc, CollectiveKind, DeviceOp, Dtype, KernelKind, SimTime, StreamId, TraceEvent,
    };

    fn kernel_event(m: u64, host_us: f64) -> TraceEvent {
        TraceEvent {
            stream: StreamId::DEFAULT,
            op: DeviceOp::KernelLaunch {
                kernel: KernelKind::Gemm {
                    m,
                    n: 64,
                    k: 64,
                    dtype: Dtype::Bf16,
                },
            },
            host_delay: SimTime::from_us(host_us),
        }
    }

    fn coll_event(comm: u64, rank_in_comm: u32) -> TraceEvent {
        TraceEvent {
            stream: StreamId::DEFAULT,
            op: DeviceOp::Collective {
                desc: CollectiveDesc {
                    kind: CollectiveKind::AllReduce,
                    comm_id: comm,
                    seq: 0,
                    bytes: 1024,
                    nranks: 2,
                    rank_in_comm,
                },
            },
            host_delay: SimTime::from_us(1.0),
        }
    }

    fn worker(rank: u32, events: Vec<TraceEvent>) -> WorkerTrace {
        let mut w = WorkerTrace::new(rank);
        w.events = events;
        w
    }

    /// How many classes `workers` fall into.
    fn classes(workers: &[WorkerTrace]) -> usize {
        dedup_classes(workers).len()
    }

    #[test]
    fn identical_work_same_signature_despite_jitter() {
        // Same ops, different host delays and different comm ids (as two
        // dp peers in different tp groups would have): one class.
        let a = worker(0, vec![kernel_event(128, 3.0), coll_event(111, 0)]);
        let b = worker(1, vec![kernel_event(128, 7.5), coll_event(222, 0)]);
        assert_eq!(classes(&[a, b]), 1);
    }

    #[test]
    fn different_shapes_different_signature() {
        let a = worker(0, vec![kernel_event(128, 1.0)]);
        let b = worker(1, vec![kernel_event(256, 1.0)]);
        assert_eq!(classes(&[a, b]), 2);
    }

    #[test]
    fn different_comm_role_differs() {
        // Same kernel work but one rank also all-reduces.
        let a = worker(0, vec![kernel_event(128, 1.0)]);
        let b = worker(1, vec![kernel_event(128, 1.0), coll_event(5, 0)]);
        assert_eq!(classes(&[a, b]), 2);
    }

    #[test]
    fn classes_group_and_pick_lowest_representative() {
        let ws = vec![
            worker(0, vec![kernel_event(128, 1.0)]),
            worker(1, vec![kernel_event(256, 1.0)]),
            worker(2, vec![kernel_event(128, 9.0)]),
            worker(3, vec![kernel_event(256, 2.0)]),
        ];
        let classes = dedup_classes(&ws);
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0].representative, 0);
        assert_eq!(classes[0].members, vec![0, 2]);
        assert_eq!(classes[1].representative, 1);
        assert_eq!(classes[1].members, vec![1, 3]);
    }

    #[test]
    fn reduce_job_keeps_representatives_and_groups() {
        let ws = vec![
            worker(0, vec![coll_event(5, 0)]),
            worker(1, vec![coll_event(5, 1)]),
        ];
        let job = crate::collate(ws, 2).unwrap();
        // They differ only by rank_in_comm, which is not part of a call,
        // so they are one class.
        let classes = dedup_classes(&job.workers);
        assert_eq!(classes.len(), 1);
        let reduced = reduce_job(&job, &classes);
        assert_eq!(reduced.workers.len(), 1);
        assert_eq!(reduced.nranks, 2);
        assert_eq!(reduced.comm_groups[&5], vec![0, 1]);
        assert!(reduced.validate().is_ok());
    }

    #[test]
    fn megatron_unique_ranks_one_per_stage() {
        // 8-way TP x 8-way DP x 1 PP: a single unique worker (the paper's
        // 64-GPU example).
        assert_eq!(unique_megatron_ranks(8, 8, 1), vec![0]);
        // With 4 stages: first rank of each stage.
        assert_eq!(unique_megatron_ranks(2, 2, 4), vec![0, 4, 8, 12]);
    }
}
