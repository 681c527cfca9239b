//! End-to-end exercise of the per-tenant QoS path over loopback TCP:
//! priority overtake, tenant quota shedding with per-tenant counters,
//! deadline-capped client retry, and byte-identical results for a
//! single tenant riding the QoS scheduler.

use std::sync::Arc;
use std::time::{Duration, Instant};

use maya::EmulationSpec;
use maya_hw::ClusterSpec;
use maya_search::{AlgorithmKind, ConfigSpace};
use maya_serve::{JobOptions, MayaService, Priority, Request};
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::Dtype;
use maya_wire::{RemoteErrorKind, WireClient, WireError, WireServer};

const TARGET: &str = "h100-pair";

fn cluster() -> ClusterSpec {
    ClusterSpec::h100(1, 2)
}

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

/// A predict whose shape nothing else in these tests submits: over a
/// single worker, exactly the first-executed of several identical such
/// requests pays the engine's memo misses, which makes dispatch order
/// observable through wire telemetry without wall-clock races.
fn cold_predict() -> Request {
    Request::Predict {
        target: TARGET.into(),
        jobs: vec![job(48)],
    }
}

fn search(budget: usize) -> Request {
    Request::Search {
        target: TARGET.into(),
        template: job(16),
        space: ConfigSpace {
            tp: vec![1, 2],
            pp: vec![1, 2],
            microbatch_multiplier: vec![1, 2],
            virtual_stages: vec![1],
            activation_recompute: vec![true, false],
            sequence_parallel: vec![false],
            distributed_optimizer: vec![true, false],
        },
        algorithm: AlgorithmKind::Random,
        budget,
        seed: 11,
    }
}

#[test]
fn two_tenant_qos_over_the_wire() {
    let svc = Arc::new(
        MayaService::builder()
            .target(TARGET, EmulationSpec::new(cluster()))
            .workers(1)
            .queue_capacity(16)
            .tenant_max_queued(2)
            // Class order is the point here; a CI stall must not age
            // the Batch jobs into High (aging is tested elsewhere).
            .starvation_guard(Duration::from_secs(3600))
            .build()
            .unwrap(),
    );
    let server = WireServer::bind("127.0.0.1:0", Arc::clone(&svc)).unwrap();
    let client = WireClient::connect(server.local_addr()).unwrap();

    let pipeline = |p: Priority| JobOptions::new().with_priority(p).with_tenant("pipeline");
    // The bursting tenant parks a long search on the single worker.
    // Long by budget, not by space: once the 32 points are memoized a
    // trial costs about a microsecond (4 000 of them were over in
    // ~12 ms, sometimes before the High job below was even submitted),
    // and a space too big to memoize ends *sooner* — the early-stop
    // rule fires on unique configurations. Nobody waits this out; the
    // blocker is cancelled as soon as the queue is staged...
    let mut blocker = client
        .submit_with(&search(5_000_000), pipeline(Priority::Batch))
        .unwrap();
    let _ = blocker.next_progress().expect("blocker running");
    // ...and floods the queue: two Batch jobs are admitted, the third
    // is shed by its own quota as a typed frame (connection survives).
    let b1 = client
        .submit_with(&cold_predict(), pipeline(Priority::Batch))
        .unwrap();
    let b2 = client
        .submit_with(&cold_predict(), pipeline(Priority::Batch))
        .unwrap();
    let shed = client
        .submit_with(&cold_predict(), pipeline(Priority::Batch))
        .unwrap();
    let err = shed.wait().expect_err("over-quota submission is shed");
    match &err {
        WireError::Remote(remote) => {
            assert_eq!(remote.kind, RemoteErrorKind::QuotaExceeded);
            assert!(remote.message.contains("pipeline"), "{}", remote.message);
        }
        other => panic!("expected a typed quota error, got {other}"),
    }

    // The quiet tenant's High job is admitted despite the burst...
    let quiet = client
        .submit_with(
            &cold_predict(),
            JobOptions::new()
                .with_priority(Priority::High)
                .with_tenant("interactive"),
        )
        .unwrap();
    blocker.cancel().unwrap();
    let _ = blocker.wait_outcome();
    // ...and executes before both queued Batch jobs: all three are the
    // same previously-unseen shape, so the first-served one pays the
    // cold misses.
    let quiet_resp = quiet.wait().expect("quiet tenant served");
    assert!(
        quiet_resp.telemetry.cache_delta.misses > 0,
        "the High job must run before the queued Batch jobs: {:?}",
        quiet_resp.telemetry.cache_delta
    );
    for b in [b1, b2] {
        let resp = b.wait().expect("batch job served");
        assert_eq!(
            resp.telemetry.cache_delta.misses, 0,
            "Batch ran after High: {:?}",
            resp.telemetry.cache_delta
        );
    }

    // Per-tenant counters tell the same story.
    let stats = svc.stats();
    assert_eq!(stats.quota_shed, 1);
    let pipeline_stats = stats.tenant("pipeline").expect("pipeline tracked");
    assert_eq!(pipeline_stats.quota_shed, 1);
    assert_eq!(pipeline_stats.admitted, 3, "blocker + two batch jobs");
    assert_eq!(pipeline_stats.served, 2);
    assert_eq!(pipeline_stats.cancelled, 1, "the cancelled blocker");
    assert_eq!((pipeline_stats.queued, pipeline_stats.in_flight), (0, 0));
    let quiet_stats = stats.tenant("interactive").expect("interactive tracked");
    assert_eq!(quiet_stats.served, 1);
    assert_eq!(quiet_stats.quota_shed, 0);
}

#[test]
fn submit_with_retry_stops_at_the_deadline_instead_of_backing_off_past_it() {
    use maya_wire::Backoff;
    let svc = Arc::new(
        MayaService::builder()
            .target(TARGET, EmulationSpec::new(cluster()))
            .workers(1)
            .queue_capacity(1)
            .build()
            .unwrap(),
    );
    let server = WireServer::bind("127.0.0.1:0", Arc::clone(&svc)).unwrap();
    let client = WireClient::connect(server.local_addr()).unwrap();

    // Occupy the worker and the single queue slot so the retry's
    // first attempt is shed as overloaded. Only that first attempt
    // needs the overload: the backoff delay below is *longer* than
    // the whole deadline budget, so what follows is decided entirely
    // client-side, whatever the blocker does afterwards.
    let mut blocker = client.submit(&search(50_000)).unwrap();
    let _ = blocker.next_progress().expect("blocker running");
    let filler = client.submit(&cold_predict()).unwrap();

    // Policy says "sleep 200ms between attempts"; the job's own 50ms
    // budget must cap that sleep and end the loop with the typed
    // expired error — not doze through the schedule and then submit a
    // job the service would immediately shed.
    let t0 = Instant::now();
    let err = client
        .submit_with_retry_opts(
            &cold_predict(),
            JobOptions::new().with_deadline(Duration::from_millis(50)),
            Backoff {
                attempts: 10_000,
                initial: Duration::from_millis(200),
                factor: 2,
                max_delay: Duration::from_millis(200),
            },
        )
        .expect_err("the deadline must end the retry loop");
    let elapsed = t0.elapsed();
    match &err {
        WireError::Remote(remote) => assert_eq!(remote.kind, RemoteErrorKind::Expired),
        other => panic!("expected the typed expired error, got {other}"),
    }
    assert!(
        elapsed >= Duration::from_millis(40),
        "the budget itself may be spent waiting for a retry: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_millis(190),
        "the sleep must be capped at the remaining budget, not the \
         policy's 200ms: {elapsed:?}"
    );

    blocker.cancel().unwrap();
    let _ = blocker.wait_outcome();
    let _ = filler.wait();
}

#[test]
fn single_tenant_qos_results_match_the_plain_service_byte_for_byte() {
    // Same search, three ways: direct in-process plain service, and
    // over the wire through a QoS-configured service with priorities,
    // quotas and a tenant attached. The scheduler reorders and sheds;
    // it must never change result bytes.
    let plain = MayaService::builder()
        .target(TARGET, EmulationSpec::new(cluster()))
        .build()
        .unwrap();
    let want = plain.call(search(30)).unwrap();
    let want_trials = serde::to_string(&want.search().unwrap().trials);

    let qos = Arc::new(
        MayaService::builder()
            .target(TARGET, EmulationSpec::new(cluster()))
            .tenant_max_queued(4)
            .tenant_max_in_flight(1)
            .starvation_guard(Duration::from_millis(20))
            .build()
            .unwrap(),
    );
    let server = WireServer::bind("127.0.0.1:0", qos).unwrap();
    let client = WireClient::connect(server.local_addr()).unwrap();
    let resp = client
        .submit_with(
            &search(30),
            JobOptions::new()
                .with_priority(Priority::Batch)
                .with_tenant("solo")
                .with_deadline(Duration::from_secs(600)),
        )
        .unwrap()
        .wait()
        .expect("served");
    assert_eq!(
        serde::to_string(&resp.search().unwrap().trials),
        want_trials,
        "QoS scheduling over the wire must not change search results"
    );
}
