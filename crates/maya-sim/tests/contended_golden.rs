//! Pins the topology + fault-plan path of the sim core.
//!
//! `tests/reference` has no flow model, so the byte-identity
//! proptests say nothing about contended runs. This golden is the full
//! `SimReport` of one fixed contended job with injected faults, captured
//! before the flow solver and the event queue were reworked: any change
//! to which events exist, their order, or a single f64 in the
//! water-fill shows up here. `SimTime`'s `Debug` rounds to three
//! decimals, so the file also carries the exact wire encoding. After a
//! deliberate model change, replace the file with the `left` text the
//! failure prints.

mod common;

use maya_estimator::OracleEstimator;
use maya_sim::{SimReport, SimScratch, Simulator};

const GOLDEN: &str = include_str!("golden/contended_report.txt");

fn render(report: &SimReport) -> String {
    format!("{report:#?}\n{}\n", serde::to_string(report))
}

#[test]
fn contended_faulted_report_matches_golden() {
    let cluster = common::contended_cluster();
    let oracle = OracleEstimator::new(&cluster);
    let faults = common::pinned_faults();
    let sim = Simulator::new(&oracle, &cluster).with_faults(Some(&faults));
    let job = common::pinned_job();
    let report = sim.run(&job).expect("pinned job simulates");
    assert_eq!(
        render(&report),
        GOLDEN,
        "contended SimReport drifted from the golden"
    );

    // The same bytes through a dirtied scratch arena.
    let mut scratch = SimScratch::new();
    let flat = common::flat_cluster();
    let _ = Simulator::new(&oracle, &flat).run_prevalidated(&job, &mut scratch);
    let reused = sim.run_prevalidated(&job, &mut scratch).expect("reused");
    assert_eq!(render(&reused), GOLDEN);
}
