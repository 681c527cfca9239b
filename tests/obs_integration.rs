//! End-to-end exercise of the observability subsystem: metrics
//! consistency under concurrent load, the loopback-TCP `Scrape`
//! round trip pinned byte-identical to the in-process snapshot, the
//! span trees' wall-clock accounting for a real search job, and their
//! Chrome-trace rendering.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use maya::EmulationSpec;
use maya_hw::ClusterSpec;
use maya_obs::Registry;
use maya_serve::{MayaService, ObsConfig, Request};
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::Dtype;
use maya_wire::{AlgorithmKind, ConfigSpace, JobOptions, WireClient, WireServer};

const TARGET: &str = "h100-pair";

/// Held by the test that saturates every core and by the one that
/// compares two wall clocks: `cargo test` runs them on parallel
/// threads, and a connection thread descheduled for a timeslice reads
/// as an untracked gap in the span tree.
static QUIET_CPU: Mutex<()> = Mutex::new(());

fn job(global_batch: u32) -> TrainingJob {
    TrainingJob {
        model: ModelSpec::gpt3_125m(),
        parallel: ParallelConfig::default(),
        flavor: FrameworkFlavor::Megatron,
        compile: false,
        global_batch,
        world: 2,
        gpus_per_node: 2,
        precision: Dtype::Bf16,
        iterations: 1,
    }
}

fn predict(global_batch: u32) -> Request {
    Request::Predict {
        target: TARGET.into(),
        jobs: vec![job(global_batch)],
    }
}

fn search() -> Request {
    Request::Search {
        target: TARGET.into(),
        template: job(16),
        space: ConfigSpace {
            tp: vec![1, 2],
            pp: vec![1],
            microbatch_multiplier: vec![1, 2],
            virtual_stages: vec![1],
            activation_recompute: vec![false],
            sequence_parallel: vec![false],
            distributed_optimizer: vec![true],
        },
        algorithm: AlgorithmKind::Grid,
        budget: 8,
        seed: 3,
    }
}

fn service() -> Arc<MayaService> {
    Arc::new(
        MayaService::builder()
            .target(TARGET, EmulationSpec::new(ClusterSpec::h100(1, 2)))
            .workers(2)
            .build()
            .expect("service builds"),
    )
}

/// Hammer one registry from many threads while a reader snapshots it
/// mid-flight: every snapshot must be internally consistent (histogram
/// `count` equals the bucket total) and counters must read monotonic
/// across successive snapshots. The final quiesced snapshot must equal
/// the arithmetic truth.
#[test]
fn snapshots_are_consistent_under_concurrent_load() {
    let _quiet = QUIET_CPU.lock().unwrap_or_else(|p| p.into_inner());
    const THREADS: u64 = 8;
    const OPS: u64 = 20_000;
    let reg = Registry::new();
    // Intern before spawning so the reader sees the instruments from
    // snapshot one (registration order does not matter — snapshots
    // sort — but existence does).
    let c = reg.counter("hammer.count");
    let h = reg.histogram("hammer.value");
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let c = c.clone();
            let h = h.clone();
            s.spawn(move || {
                for i in 0..OPS {
                    c.inc();
                    h.record(t * OPS + i);
                }
            });
        }
        let mut last_count = 0u64;
        let mut last_hist = 0u64;
        for _ in 0..200 {
            let snap = reg.snapshot();
            let count = snap.counter("hammer.count").expect("counter registered");
            assert!(count >= last_count, "counter went backwards");
            last_count = count;
            let hist = snap
                .histogram("hammer.value")
                .expect("histogram registered");
            let bucket_total: u64 = hist.buckets.iter().map(|&(_, n)| n).sum();
            assert_eq!(hist.count, bucket_total, "count must equal bucket total");
            assert!(hist.count >= last_hist, "histogram lost samples");
            last_hist = hist.count;
        }
    });
    let total = THREADS * OPS;
    let snap = reg.snapshot();
    assert_eq!(snap.counter("hammer.count"), Some(total));
    let hist = snap.histogram("hammer.value").expect("registered");
    assert_eq!(hist.count, total);
    // Sum of 0..THREADS*OPS: every recorded value landed exactly once.
    assert_eq!(hist.sum, total * (total - 1) / 2);
    assert_eq!(hist.quantile(0.0), 0);
}

/// The wire `Scrape` answer is the in-process snapshot, byte for byte,
/// and repeating it against a quiesced service changes nothing — the
/// act of scraping is deliberately not self-observing.
#[test]
fn loopback_scrape_is_byte_identical_to_in_process_snapshot() {
    let service = service();
    let mut server = WireServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    let client = WireClient::connect(server.local_addr()).expect("connect");

    for i in 1..=3u32 {
        client
            .submit_with(&predict(8 * i), JobOptions::new().with_tenant("t1"))
            .expect("submit")
            .wait()
            .expect("served");
    }

    // The worker records the job tree after handing the reply to the
    // writer, so "the client saw the answer" does not mean "the ring
    // is settled". Poll until two consecutive scrapes agree.
    let deadline = Instant::now() + Duration::from_secs(10);
    let settled = loop {
        let a = client.scrape_raw().expect("scrape");
        let b = client.scrape_raw().expect("scrape");
        if a == b {
            break a;
        }
        assert!(Instant::now() < deadline, "service never quiesced");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(
        settled,
        serde::to_string(&service.obs_snapshot()),
        "the scrape body IS the serialized in-process snapshot"
    );

    // And the decoded form carries the full vocabulary.
    let snap = client.scrape().expect("scrape decodes");
    assert_eq!(snap.counter("serve.served"), Some(3));
    // The wire server's own tallies are views of registry counters, so
    // the remote scrape and `WireServer::stats` read the same cells.
    let wire = server.stats();
    assert_eq!((wire.connections, wire.admitted), (1, 3));
    assert_eq!(snap.counter("wire.connections"), Some(wire.connections));
    assert_eq!(snap.counter("wire.admitted"), Some(wire.admitted));
    assert_eq!(snap.counter("wire.protocol_errors"), Some(0));
    assert!(snap.counter("sim.events_processed").unwrap_or(0) > 0);
    assert!(snap.gauge("sim.heap_depth_high_water").unwrap_or(0) > 0);
    assert!(snap
        .histogram("serve.queue_wait_us.tenant.t1")
        .is_some_and(|h| h.count == 3));
    assert_eq!(snap.recent_jobs.len(), 3);

    // The scrape counter deliberately lives in the wire server's own
    // stats (not the registry) — that is what made the byte-identity
    // above possible despite the scrapes we issued to establish it.
    assert!(server.stats().scrapes >= 3);
    server.shutdown();
}

/// A search job's span tree, fetched over the wire, accounts for at
/// least 95% of the wall-clock the *client* observed — queued +
/// execute + reply leave no untracked gap.
#[test]
fn scraped_span_tree_covers_job_wall_clock() {
    let _quiet = QUIET_CPU.lock().unwrap_or_else(|p| p.into_inner());
    let service = service();
    let mut server = WireServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    let client = WireClient::connect(server.local_addr()).expect("connect");
    // Warm the engine so the measured job is steady-state (a cold
    // estimator build would all be `execute` anyway, but warm keeps
    // the test fast).
    client.call(&predict(16)).expect("warmup");

    let t0 = Instant::now();
    client.call(&search()).expect("search served");
    let wall = t0.elapsed();

    // Poll until the ring holds the search job's tree with the wire
    // server's appended `reply` child.
    let deadline = Instant::now() + Duration::from_secs(10);
    let tree = loop {
        let snap = client.scrape().expect("scrape");
        if let Some(tree) = snap
            .recent_jobs
            .iter()
            .rev()
            .find(|t| t.find("reply").is_some())
        {
            break tree.clone();
        }
        assert!(Instant::now() < deadline, "reply span never recorded");
        std::thread::sleep(Duration::from_millis(5));
    };

    assert_eq!(tree.name, "job");
    assert!(
        tree.duration >= wall.mul_f64(0.95).saturating_sub(Duration::from_millis(2)),
        "server-side tree ({:?}) must account for >=95% of the client wall-clock ({wall:?})",
        tree.duration
    );
    assert!(
        tree.duration <= wall + Duration::from_millis(50),
        "the tree cannot outlast the round trip by much ({:?} vs {wall:?})",
        tree.duration
    );
    let covered = tree.child_coverage();
    assert!(
        covered >= tree.duration.mul_f64(0.95),
        "phases ({covered:?}) must cover >=95% of the job ({:?})",
        tree.duration
    );
    server.shutdown();
}

/// `MayaService::chrome_trace` renders one `job` event per retained
/// tree, and a search's tree names the simulation its trials ran; with
/// observability off it renders an empty array.
#[test]
fn chrome_trace_renders_the_retained_job_trees() {
    let service = service();
    service.call(predict(8)).expect("predict served");
    let searched = service.call(search()).expect("search served");
    let execute = searched.telemetry.spans[0]
        .find("execute")
        .expect("execute span");
    assert!(
        execute.children.iter().any(|c| c.name == "simulation"),
        "a search's execute span must carry its trials' simulation: {execute:?}"
    );

    let trace = service.chrome_trace();
    let depth = trace.chars().try_fold(0i64, |d, c| {
        let d = match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        };
        (d >= 0).then_some(d)
    });
    assert_eq!(depth, Some(0), "unbalanced JSON: {trace}");
    let trees = service.obs_snapshot().recent_jobs.len();
    assert_eq!(trees, 2);
    assert_eq!(trace.matches("\"name\": \"job\"").count(), trees);
    assert_eq!(trace.matches("\"name\": \"simulation\"").count(), 2);

    let off = MayaService::builder()
        .target(TARGET, EmulationSpec::new(ClusterSpec::h100(1, 2)))
        .workers(1)
        .observability(ObsConfig::off())
        .build()
        .expect("service builds");
    off.call(predict(8)).expect("predict served");
    let empty: String = off.chrome_trace().split_whitespace().collect();
    assert_eq!(empty, "[]");
}

/// `ObsConfig::off` registers nothing and records nothing, while the
/// answers stay identical to the instrumented service's.
#[test]
fn obs_off_serves_identically_with_an_empty_snapshot() {
    let on = service();
    let off = Arc::new(
        MayaService::builder()
            .target(TARGET, EmulationSpec::new(ClusterSpec::h100(1, 2)))
            .workers(2)
            .observability(ObsConfig::off())
            .build()
            .expect("service builds"),
    );
    let a = on.call(predict(24)).expect("served");
    let b = off.call(predict(24)).expect("served");
    // Compare the deterministic prediction outcomes; StageTimings are
    // wall-clock and differ run to run regardless of observability.
    let outcome = |r: &maya_serve::Response| {
        let preds = r.predictions().expect("predict payload");
        serde::to_string(&preds[0].as_ref().expect("predicts").outcome)
    };
    assert_eq!(
        outcome(&a),
        outcome(&b),
        "observability must not perturb answers"
    );
    assert!(!a.telemetry.spans.is_empty() && b.telemetry.spans.is_empty());
    let snap = off.obs_snapshot();
    assert!(snap.counters.is_empty() && snap.gauges.is_empty());
    assert!(snap.histograms.is_empty() && snap.recent_jobs.is_empty());
}
