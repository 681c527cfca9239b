//! Pins the topology + fault-plan path of the sim core over many
//! schedules: the FNV-1a of the serialized `SimReport` of each of 48
//! seed-drawn jobs (`common::drawn`), each on its cluster's default
//! link topology under a seed-drawn fault plan and, on odd seeds, a
//! hetero pool. `contended_golden.rs` holds one job in full; this
//! table holds many in one line each, so a change to which flows run
//! concurrently, when a completion fires or how a route is built shows
//! up on whichever schedules it touches. Every report is also produced
//! through one arena shared by all the jobs, which must not change a
//! byte. After a deliberate model change, replace
//! `golden/contended_table.txt` with the text the failure prints.

mod common;

use maya_estimator::OracleEstimator;
use maya_sim::{SimScratch, Simulator};

const TABLE: &str = include_str!("golden/contended_table.txt");
const SEEDS: u64 = 48;

#[test]
fn drawn_contended_reports_match_the_table() {
    let mut scratch = SimScratch::new();
    let mut table = String::new();
    for seed in 0..SEEDS {
        let (job, flat) = common::drawn(seed);
        let oracle = OracleEstimator::new(&flat);
        let clean = Simulator::new(&oracle, &flat)
            .run(&job)
            .unwrap_or_else(|e| panic!("seed {seed}: flat run failed: {e}"));
        let (cluster, plan) = common::drawn_contended(&flat, job.nranks, clean.total_time, seed);
        let sim = Simulator::new(&oracle, &cluster).with_faults(Some(&plan));
        let report = sim
            .run(&job)
            .unwrap_or_else(|e| panic!("seed {seed}: contended run failed: {e}"));
        let reused = sim
            .run_prevalidated(&job, &mut scratch)
            .expect("a validated job simulates in a reused arena");
        let bytes = serde::to_string(&report);
        assert_eq!(serde::to_string(&reused), bytes, "seed {seed}: arena reuse");
        table += &format!(
            "{seed:2} {:016x} ranks {} nodes {} events {}\n",
            common::fnv1a(bytes.as_bytes()),
            job.nranks,
            cluster.num_nodes,
            report.events_processed,
        );
    }
    assert!(
        table == TABLE,
        "contended reports drifted from the table; now:\n{table}"
    );
}
