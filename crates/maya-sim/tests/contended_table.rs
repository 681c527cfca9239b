//! Pins the fault and topology paths of the sim core over many
//! schedules: the FNV-1a of the serialized `SimReport` of each of 48
//! seed-drawn jobs (`common::drawn`), one line each. The first table
//! runs each job on its cluster's default link topology with, on odd
//! seeds, a hetero pool (`common::drawn_topology`), under a seed-drawn
//! fault plan; the second runs it on its flat cluster under the same
//! plan; the third runs it on the topology with no plan. Stream
//! run-ahead is on in all three.
//! `contended_golden.rs` holds one job in full; these tables hold many,
//! so a change to which flows run concurrently, when a completion fires,
//! where a failure or straggler window lands or how a route is built
//! shows up on whichever schedules it touches.
//! Every report is also produced through one arena shared by all the
//! jobs, each job lowered once and replayed twice, which must not
//! change a byte. After a deliberate model change, replace
//! `golden/contended_table.txt`, `golden/faulted_flat_table.txt` or
//! `golden/topology_table.txt` with the text the failure prints.

mod common;

use maya_estimator::OracleEstimator;
use maya_hw::ClusterSpec;
use maya_net::FaultPlan;
use maya_sim::{SimReport, SimScratch, Simulator};
use maya_trace::JobTrace;

const TABLE: &str = include_str!("golden/contended_table.txt");
const FAULTED_FLAT_TABLE: &str = include_str!("golden/faulted_flat_table.txt");
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

/// Seed `seed`'s drawn job, its flat cluster and the fault plan drawn
/// from the seed over the job's clean run there: the plan both faulted
/// setups run under, as `common::drawn_contended` draws it.
fn drawn_faulted(seed: u64) -> (JobTrace, ClusterSpec, FaultPlan) {
    let (job, flat) = common::drawn(seed);
    let clean = Simulator::new(&OracleEstimator::new(&flat), &flat)
        .run(&job)
        .unwrap_or_else(|e| panic!("seed {seed}: flat run failed: {e}"));
    let plan = FaultPlan::generate(seed, job.nranks, clean.total_time);
    (job, flat, plan)
}

#[test]
fn drawn_contended_reports_match_the_table() {
    let mut scratch = SimScratch::new();
    let mut table = String::new();
    for seed in 0..SEEDS {
        let (job, flat, plan) = drawn_faulted(seed);
        let oracle = OracleEstimator::new(&flat);
        let cluster = common::drawn_topology(&flat, job.nranks, seed);
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
fn drawn_faulted_flat_reports_match_the_table() {
    let mut scratch = SimScratch::new();
    let mut table = String::new();
    for seed in 0..SEEDS {
        let (job, flat, plan) = drawn_faulted(seed);
        let oracle = OracleEstimator::new(&flat);
        let (report, bytes) = report(&job, (&oracle, &flat), Some(&plan), &mut scratch, seed);
        table += &line(seed, &bytes, &job, &flat, report.events_processed);
    }
    assert!(
        table == FAULTED_FLAT_TABLE,
        "faulted flat reports drifted from the table; now:\n{table}"
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

/// The third table's setup over 16 384 seeds, every lowering replayed
/// twice to the same report and every serialized report folded into
/// one FNV-1a digest. A release-mode run takes seconds.
#[test]
#[ignore = "16 384 jobs; run with --release -- --ignored"]
fn drawn_topology_reports_fold_to_the_digest() {
    const DIGEST: u64 = 0x6f3d_8143_69fc_f638;
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

/// The first two tables' setups over 16 384 seeds each, folded as
/// above into one digest per setup: flat, then contended.
#[test]
#[ignore = "2 x 16 384 jobs; run with --release -- --ignored"]
fn drawn_faulted_reports_fold_to_the_digests() {
    const DIGESTS: [u64; 2] = [0xcfe5_500c_dc3f_5ef9, 0x47cd_f9f1_1513_744c];
    let mut scratch = SimScratch::new();
    let mut folded = [String::new(), String::new()];
    for seed in 0..16_384 {
        let (job, flat, plan) = drawn_faulted(seed);
        let oracle = OracleEstimator::new(&flat);
        let contended = common::drawn_topology(&flat, job.nranks, seed);
        for (folded, cluster) in folded.iter_mut().zip([&flat, &contended]) {
            let (_, bytes) = report(&job, (&oracle, cluster), Some(&plan), &mut scratch, seed);
            *folded += &format!("{:016x}", common::fnv1a(bytes.as_bytes()));
        }
    }
    let digests = folded.map(|f| common::fnv1a(f.as_bytes()));
    assert!(
        digests == DIGESTS,
        "faulted reports drifted from the digests; now {:#018x} (flat), {:#018x} (contended)",
        digests[0],
        digests[1],
    );
}
