//! Work-counter ratchet for the sim core (ROADMAP item 1: "counters
//! fail on any increase").
//!
//! The counters are deterministic functions of the job, so they are
//! pinned by exact equality: a change that alters which events exist,
//! how many flow solves run, or how deep the pending-event set gets
//! must update these numbers on purpose. `heap_depth_high_water` counts
//! *pending events* — heap entries plus entries parked in the per-rank
//! issue lanes — so it reads the same whether or not lanes exist.

mod common;

use maya_estimator::OracleEstimator;
use maya_hw::ClusterSpec;
use maya_net::FaultPlan;
use maya_sim::{SimObs, Simulator};

/// `(events_processed, flow_solves, heap_depth_high_water)` of one run.
fn counters(cluster: &ClusterSpec, faults: Option<&FaultPlan>) -> (u64, u64, i64) {
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
        obs.flow_solves.get(),
        obs.heap_depth_high_water.get(),
    )
}

#[test]
fn flat_job_counters_are_pinned() {
    assert_eq!(counters(&common::flat_cluster(), None), (776, 0, 136));
}

#[test]
fn contended_faulted_job_counters_are_pinned() {
    let faults = common::pinned_faults();
    assert_eq!(
        counters(&common::contended_cluster(), Some(&faults)),
        (1644, 150, 141)
    );
}
