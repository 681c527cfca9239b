//! Work-counter ratchet for the sim core (ROADMAP item 1: "counters
//! fail on any increase").
//!
//! The counters are deterministic functions of the job, so they are
//! pinned by exact equality: a change that alters which events exist,
//! how many flow solves run, or how deep the pending-event set gets
//! must update these numbers on purpose. `heap_depth_high_water` counts
//! *pending events* — heap entries, the pending flow completion and the
//! issue pumps waiting in the per-rank issue lanes and the per-stream
//! sub-lanes — so it reads the same whether or not lanes exist, but a
//! pump parked on a blocked stream stays pending until the stream is
//! released, where it once popped at its due time. `heap_pops` is what the heap actually did:
//! `events_processed` less the events counted off without it — issue
//! pumps elided or parked, the kernel completions inside a run-ahead
//! chain, and flow completions a convergence superseded or never
//! scheduled.

mod common;

use maya_estimator::OracleEstimator;
use maya_hw::ClusterSpec;
use maya_net::FaultPlan;
use maya_sim::{SimObs, Simulator};

/// `(events_processed, heap_pops, flow_solves, heap_depth_high_water)`
/// of one run.
fn counters(cluster: &ClusterSpec, faults: Option<&FaultPlan>) -> (u64, u64, u64, i64) {
    let oracle = OracleEstimator::new(cluster);
    let obs = SimObs::default();
    let report = Simulator::new(&oracle, cluster)
        .with_faults(faults)
        .with_obs(Some(&obs))
        .run(&common::pinned_job())
        .expect("pinned job simulates");
    assert_eq!(obs.events.get(), report.events_processed);
    (
        report.events_processed,
        obs.heap_pops.get(),
        obs.flow_solves.get(),
        obs.heap_depth_high_water.get(),
    )
}

/// Heap pops were 537 and 1 518 before pumps of blocked streams parked,
/// and 455 before stream run-ahead. Each rank's stream 0 ends an even
/// iteration with a kernel followed by the next iteration's first
/// kernel, both issued by the time the first starts (odd iterations end
/// with a world all-gather instead): iterations 0, 2 and 4 on 8 ranks
/// make 24 chains of two, each of whose first completion is counted
/// off.
#[test]
fn flat_job_counters_are_pinned() {
    assert_eq!(counters(&common::flat_cluster(), None), (776, 431, 0, 136));
}

/// The high water was 141 before parking: a pump parked on a blocked
/// stream stays pending until the release, where it once popped — as a
/// no-op — at its own due time, so more pumps are pending at once.
///
/// Heap pops were 1 324 and the high water 149 while every convergence
/// pushed one completion per live flow: 786 of those popped only to be
/// discarded, superseded by the next start or finish, and each sat in
/// the pending set until then. Now only the first to finish is pending
/// and the rest are counted off at the convergence, so events and flow
/// solves are unchanged.
///
/// Heap pops were 538 before run-ahead under a fault plan, and 516
/// while a kernel in a straggler window ran alone. All of the flat
/// run's 24 chains of two form here, each first completion counted off:
/// rank 3 and rank 6 issue both kernels of their iteration-0 pair (at 14
/// and 18 µs) inside their straggler windows, so that pair chains
/// scaled. Neither failure ends a chain: rank 5 restarts from 30 to
/// 280 µs, before its iteration-0 pair starts, and rank 0 fails at
/// 1.5 ms, between its iteration-0 and iteration-2 pairs.
#[test]
fn contended_faulted_job_counters_are_pinned() {
    let faults = common::pinned_faults();
    assert_eq!(
        counters(&common::contended_cluster(), Some(&faults)),
        (1644, 514, 150, 138)
    );
}
