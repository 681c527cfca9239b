//! Pins the topology path of the sim core over many schedules: the
//! FNV-1a of the serialized `SimReport` of each of 48 seed-drawn jobs
//! (`common::drawn`), one line each, on its cluster's default link
//! topology with, on odd seeds, a hetero pool. The first table runs
//! each job under a seed-drawn fault plan; the second runs it with no
//! plan, the path stream run-ahead takes on a topology.
//! `contended_golden.rs` holds one job in full; these tables hold many,
//! so a change to which flows run concurrently, when a completion fires
//! or how a route is built shows up on whichever schedules it touches.
//! Every report is also produced through one arena shared by all the
//! jobs, each job lowered once and replayed twice, which must not
//! change a byte. After a deliberate model change, replace
//! `golden/contended_table.txt` or `golden/topology_table.txt` with the
//! text the failure prints.

mod common;

use maya_estimator::OracleEstimator;
use maya_hw::ClusterSpec;
use maya_net::FaultPlan;
use maya_sim::{SimReport, SimScratch, Simulator};
use maya_trace::JobTrace;

const TABLE: &str = include_str!("golden/contended_table.txt");
const TOPOLOGY_TABLE: &str = include_str!("golden/topology_table.txt");
const SEEDS: u64 = 48;

/// The report of `job` on `cluster` under `plan`, timed by the oracle
/// of the job's flat cluster and checked to come out byte-identical
/// from both of two replays of one lowering into `scratch`, and its
/// serialized form.
fn report(
    job: &JobTrace,
    (oracle, cluster): (&OracleEstimator, &ClusterSpec),
    plan: Option<&FaultPlan>,
    scratch: &mut SimScratch,
    seed: u64,
) -> (SimReport, String) {
    let sim = Simulator::new(oracle, cluster).with_faults(plan);
    let report = sim
        .run(job)
        .unwrap_or_else(|e| panic!("seed {seed}: topology run failed: {e}"));
    let bytes = serde::to_string(&report);
    let mut lowered = sim
        .lower(job, scratch)
        .expect("a validated job lowers in a reused arena");
    for replay in ["first", "second"] {
        let reused = lowered.replay().expect("a lowered job replays");
        assert_eq!(
            serde::to_string(&reused),
            bytes,
            "seed {seed}: {replay} replay"
        );
    }
    (report, bytes)
}

/// One table line.
fn line(seed: u64, bytes: &str, job: &JobTrace, cluster: &ClusterSpec, events: u64) -> String {
    format!(
        "{seed:2} {:016x} ranks {} nodes {} events {events}\n",
        common::fnv1a(bytes.as_bytes()),
        job.nranks,
        cluster.num_nodes,
    )
}

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
        let on = (&oracle, &cluster);
        let (report, bytes) = report(&job, on, Some(&plan), &mut scratch, seed);
        table += &line(seed, &bytes, &job, &cluster, report.events_processed);
    }
    assert!(
        table == TABLE,
        "contended reports drifted from the table; now:\n{table}"
    );
}

#[test]
fn drawn_topology_reports_match_the_table() {
    let mut scratch = SimScratch::new();
    let mut table = String::new();
    for seed in 0..SEEDS {
        let (job, flat) = common::drawn(seed);
        let oracle = OracleEstimator::new(&flat);
        let cluster = common::drawn_topology(&flat, job.nranks, seed);
        let (report, bytes) = report(&job, (&oracle, &cluster), None, &mut scratch, seed);
        table += &line(seed, &bytes, &job, &cluster, report.events_processed);
    }
    assert!(
        table == TOPOLOGY_TABLE,
        "topology reports drifted from the table; now:\n{table}"
    );
}

/// The second table's setup over 16 384 seeds, every lowering replayed
/// twice to the same report and every serialized report folded into
/// one FNV-1a digest. A release-mode run takes seconds.
#[test]
#[ignore = "16 384 jobs; run with --release -- --ignored"]
fn drawn_topology_reports_fold_to_the_digest() {
    const DIGEST: u64 = 0x2a3f_223f_8480_c231;
    let mut scratch = SimScratch::new();
    let mut folded = String::new();
    for seed in 0..16_384 {
        let (job, flat) = common::drawn(seed);
        let oracle = OracleEstimator::new(&flat);
        let cluster = common::drawn_topology(&flat, job.nranks, seed);
        let (_, bytes) = report(&job, (&oracle, &cluster), None, &mut scratch, seed);
        folded += &format!("{:016x}", common::fnv1a(bytes.as_bytes()));
    }
    let digest = common::fnv1a(folded.as_bytes());
    assert!(
        digest == DIGEST,
        "topology reports drifted from the digest; now {digest:#018x}"
    );
}
