//! End-to-end exercise of `maya-wire`: a real loopback TCP server over
//! a `MayaService`, concurrent pipelined clients, results checked
//! byte-identical to direct in-process service calls, typed overload
//! shedding, malformed-frame handling, and graceful drain shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use maya::{EmulationSpec, Prediction, StageTimings};
use maya_hw::ClusterSpec;
use maya_search::{AlgorithmKind, ConfigSpace};
use maya_serve::{MayaService, Payload, Request};
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::Dtype;
use maya_wire::{
    frame, RemoteError, RemoteErrorKind, WireClient, WireError, WireJobOutcome, WirePayload,
    WireResponse, WireServer,
};

const H100_TARGET: &str = "h100-quad";
const A40_TARGET: &str = "a40-pair";

fn h100_cluster() -> ClusterSpec {
    ClusterSpec::h100(1, 4)
}

fn a40_cluster() -> ClusterSpec {
    ClusterSpec::a40(1, 2)
}

fn job(cluster: &ClusterSpec, parallel: ParallelConfig) -> TrainingJob {
    TrainingJob {
        model: ModelSpec::gpt3_125m(),
        parallel,
        flavor: FrameworkFlavor::Megatron,
        compile: false,
        global_batch: 16 * cluster.num_gpus(),
        world: cluster.num_gpus(),
        gpus_per_node: cluster.gpus_per_node,
        precision: Dtype::Bf16,
        iterations: 1,
    }
}

fn search_space() -> ConfigSpace {
    ConfigSpace {
        tp: vec![1, 2],
        pp: vec![1, 2],
        microbatch_multiplier: vec![1, 2],
        virtual_stages: vec![1],
        activation_recompute: vec![false],
        sequence_parallel: vec![false],
        distributed_optimizer: vec![false],
    }
}

fn service() -> Arc<MayaService> {
    Arc::new(
        MayaService::builder()
            .target(H100_TARGET, EmulationSpec::new(h100_cluster()))
            .target(A40_TARGET, EmulationSpec::new(a40_cluster()))
            .workers(4)
            .queue_capacity(32)
            .build()
            .expect("service builds"),
    )
}

fn mixed_requests() -> Vec<Request> {
    let h100 = h100_cluster();
    let a40 = a40_cluster();
    let tp2 = ParallelConfig {
        tp: 2,
        ..Default::default()
    };
    let pp2 = ParallelConfig {
        pp: 2,
        ..Default::default()
    };
    vec![
        Request::Predict {
            target: H100_TARGET.into(),
            jobs: vec![job(&h100, ParallelConfig::default()), job(&h100, tp2)],
        },
        Request::Predict {
            target: A40_TARGET.into(),
            jobs: vec![job(&a40, ParallelConfig::default())],
        },
        Request::Search {
            target: H100_TARGET.into(),
            template: job(&h100, ParallelConfig::default()),
            space: search_space(),
            algorithm: AlgorithmKind::Random,
            budget: 6,
            seed: 42,
        },
        Request::Measure {
            target: A40_TARGET.into(),
            job: job(&a40, pp2),
        },
        Request::Predict {
            target: H100_TARGET.into(),
            jobs: vec![job(&h100, pp2)],
        },
        Request::Search {
            target: A40_TARGET.into(),
            template: job(&a40, ParallelConfig::default()),
            space: search_space(),
            algorithm: AlgorithmKind::OnePlusOne,
            budget: 5,
            seed: 7,
        },
    ]
}

/// Reissues an equal request (Request is not Clone by design).
fn reissue(req: &Request) -> Request {
    serde::from_str(&serde::to_string(req)).expect("request round-trips")
}

/// Strips the wall-clock fields (stage timings, search wall time) that
/// legitimately differ run to run, then encodes. Everything else —
/// outcomes, reports, trial records, convergence floats, error codes
/// and messages — must match byte for byte.
fn canonical(payload: &WirePayload) -> String {
    fn norm_pred(p: &Prediction) -> Prediction {
        Prediction {
            timings: StageTimings::default(),
            ..p.clone()
        }
    }
    let normalized = match payload {
        WirePayload::Predict(results) => WirePayload::Predict(
            results
                .iter()
                .map(|r| r.as_ref().map(norm_pred).map_err(Clone::clone))
                .collect(),
        ),
        WirePayload::Search(s) => {
            let mut s = (**s).clone();
            s.wall = Duration::ZERO;
            WirePayload::Search(Box::new(s))
        }
        WirePayload::Measure(m) => WirePayload::Measure(m.clone()),
    };
    serde::to_string(&normalized)
}

/// Converts a direct in-process payload into the wire view (errors
/// become their typed remote form, exactly as the server encodes them).
fn to_wire_payload(payload: &Payload) -> WirePayload {
    match payload {
        Payload::Predict(results) => WirePayload::Predict(
            results
                .iter()
                .map(|r| match r {
                    Ok(p) => Ok(p.clone()),
                    Err(e) => Err(RemoteError::from(e)),
                })
                .collect(),
        ),
        Payload::Search(s) => WirePayload::Search(Box::new((**s).clone())),
        Payload::Measure(m) => match m {
            Ok(outcome) => WirePayload::Measure(Ok(outcome.clone())),
            Err(e) => WirePayload::Measure(Err(RemoteError::from(e))),
        },
    }
}

#[test]
fn concurrent_pipelined_clients_match_direct_service_calls() {
    let server = WireServer::bind("127.0.0.1:0", service()).expect("bind");
    let addr = server.local_addr();
    let requests = mixed_requests();

    // Direct answers from an identical but separate in-process service:
    // every pipeline stage is deterministic, so the network must add
    // multiplexing, never different bytes.
    let direct = service();
    let want: Vec<String> = requests
        .iter()
        .map(|r| {
            let resp = direct.call(reissue(r)).expect("direct call");
            canonical(&to_wire_payload(&resp.payload))
        })
        .collect();

    // Three concurrent clients, each pipelining every request on one
    // connection before redeeming any response.
    let got: Vec<Vec<(String, String)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let requests = &requests;
                s.spawn(move || {
                    let client = WireClient::connect(addr).expect("connect");
                    let pending: Vec<_> = requests
                        .iter()
                        .map(|r| client.submit(r).expect("submit"))
                        .collect();
                    pending
                        .into_iter()
                        .map(|p| {
                            let resp: WireResponse = p.wait().expect("response");
                            (resp.target.clone(), canonical(&resp.payload))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for per_client in &got {
        assert_eq!(per_client.len(), requests.len());
        for (i, (target, payload)) in per_client.iter().enumerate() {
            assert_eq!(target, requests[i].target(), "request {i} routed wrong");
            assert_eq!(
                payload, &want[i],
                "request {i} over the wire differs from the direct call"
            );
        }
    }
    assert_eq!(server.stats().connections, 3);
    assert_eq!(server.stats().admitted, 3 * requests.len() as u64);
    assert_eq!(server.stats().protocol_errors, 0);
}

#[test]
fn overload_is_a_typed_frame_not_a_dropped_connection() {
    let tiny = Arc::new(
        MayaService::builder()
            .target(H100_TARGET, EmulationSpec::new(h100_cluster()))
            .workers(1)
            .queue_capacity(1)
            .build()
            .unwrap(),
    );
    let server = WireServer::bind("127.0.0.1:0", Arc::clone(&tiny)).unwrap();
    let client = WireClient::connect(server.local_addr()).unwrap();

    let predict = || Request::Predict {
        target: H100_TARGET.into(),
        jobs: vec![job(&h100_cluster(), ParallelConfig::default())],
    };
    // Flood one connection far faster than one worker drains a 1-slot
    // queue. Every submission gets an answer frame: a response or a
    // typed overload — never a connection error.
    let pending: Vec<_> = (0..48)
        .map(|_| client.submit(&predict()).unwrap())
        .collect();
    let mut ok = 0u32;
    let mut shed = 0u32;
    for p in pending {
        match p.wait() {
            Ok(resp) => {
                assert!(resp.predictions().unwrap()[0].is_ok());
                ok += 1;
            }
            Err(e) if e.is_overloaded() => shed += 1,
            Err(other) => panic!("unexpected wire error: {other}"),
        }
    }
    assert!(ok > 0, "some requests must be admitted");
    assert!(shed > 0, "a 1-slot queue must shed part of a 48-burst");
    assert_eq!(server.stats().overloaded as u32, shed);

    // The connection survived the overload and still serves.
    let after = client.call(&predict()).expect("connection still usable");
    assert!(after.predictions().unwrap()[0].is_ok());
}

/// The header version range is the one gate against a peer built from
/// another protocol revision: a frame stamped with a version below the
/// floor is refused before its body is looked at.
#[test]
fn frames_below_the_version_floor_are_refused_and_only_that_connection_closes() {
    let server = WireServer::bind("127.0.0.1:0", service()).unwrap();
    let addr = server.local_addr();
    let good = Request::Predict {
        target: A40_TARGET.into(),
        jobs: vec![job(&a40_cluster(), ParallelConfig::default())],
    };
    let mut frame_bytes = request_frame(7, &good);

    for (nth, old) in [4u16, 2].into_iter().enumerate() {
        // A perfectly valid current-version request, restamped.
        frame_bytes[4..6].copy_from_slice(&old.to_be_bytes());
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&frame_bytes).unwrap();
        let reply = frame::read_frame(&mut raw, frame::DEFAULT_MAX_FRAME_LEN)
            .expect("readable reply")
            .expect("an error frame");
        assert_eq!(reply.kind, frame::FrameKind::Error);
        assert_eq!(reply.id, 0, "version skew condemns the connection");
        assert_eq!(reply.version, frame::VERSION);
        let err: RemoteError = serde::from_str(&reply.body).unwrap();
        assert_eq!(err.kind, RemoteErrorKind::Protocol);
        let range = format!("{}..={}", frame::MIN_VERSION, frame::VERSION);
        assert!(
            err.message.contains(&format!("version {old}")) && err.message.contains(&range),
            "message must name the offender and the supported range: {}",
            err.message
        );
        // Exactly one frame, then the server closes this connection.
        let mut rest = Vec::new();
        raw.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "no further frames after the refusal");
        assert_eq!(server.stats().protocol_errors, nth as u64 + 1);
    }
    assert_eq!(server.stats().admitted, 0, "a refused frame is never run");

    // A connection opened afterwards is served as usual.
    let client = WireClient::connect(addr).unwrap();
    let resp = client.call(&good).expect("server survived the refusals");
    assert!(resp.predictions().unwrap()[0].is_ok());
}

#[test]
fn malformed_frames_yield_typed_protocol_errors_and_the_server_survives() {
    let server = WireServer::bind("127.0.0.1:0", service()).unwrap();
    let addr = server.local_addr();

    // 1) A well-framed but undecodable body: per-request error, same
    //    connection keeps working.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        frame::write_frame(
            &mut raw,
            frame::FrameKind::Request,
            9,
            "definitely not a request",
            frame::DEFAULT_MAX_FRAME_LEN,
        )
        .unwrap();
        let reply = frame::read_frame(&mut raw, frame::DEFAULT_MAX_FRAME_LEN)
            .expect("readable reply")
            .expect("a frame");
        assert_eq!(reply.kind, frame::FrameKind::Error);
        assert_eq!(reply.id, 9, "error echoes the offending request id");
        let err: RemoteError = serde::from_str(&reply.body).unwrap();
        assert_eq!(err.kind, RemoteErrorKind::Protocol);

        // Same connection, now a valid request: still served. A
        // request body is a JobOptions envelope followed by the
        // request; the terminal Response frame leads with the job
        // outcome tag.
        let good = Request::Predict {
            target: A40_TARGET.into(),
            jobs: vec![job(&a40_cluster(), ParallelConfig::default())],
        };
        let mut w = serde::compact::Writer::new();
        use serde::Serialize as _;
        maya_serve::JobOptions::default().serialize(&mut w);
        good.serialize(&mut w);
        frame::write_frame(
            &mut raw,
            frame::FrameKind::Request,
            10,
            &w.finish(),
            frame::DEFAULT_MAX_FRAME_LEN,
        )
        .unwrap();
        let reply = frame::read_frame(&mut raw, frame::DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .expect("response frame");
        assert_eq!(reply.kind, frame::FrameKind::Response);
        assert_eq!(reply.id, 10);
        let outcome = maya_wire::message::decode_response_frame(&reply.body).unwrap();
        let resp = outcome.into_response().expect("done carries the response");
        assert!(resp.predictions().unwrap()[0].is_ok());
    }

    // 2) A corrupted header: the stream is untrustworthy, so the server
    //    reports a connection-scoped error (id 0) and closes *that*
    //    connection only.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(b"GARBAGE NOT A FRAME HEADER......").unwrap();
        let reply = frame::read_frame(&mut raw, frame::DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .expect("fatal error frame");
        assert_eq!(reply.kind, frame::FrameKind::Error);
        assert_eq!(reply.id, 0, "stream-fatal errors are connection-scoped");
        let err: RemoteError = serde::from_str(&reply.body).unwrap();
        assert_eq!(err.kind, RemoteErrorKind::Protocol);
        // The server closed this connection after reporting.
        let mut rest = Vec::new();
        raw.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "no further frames after a fatal error");
    }

    // 3) The server is alive and well for everyone else.
    let client = WireClient::connect(addr).unwrap();
    let resp = client
        .call(&Request::Predict {
            target: H100_TARGET.into(),
            jobs: vec![job(&h100_cluster(), ParallelConfig::default())],
        })
        .expect("server survived the garbage");
    assert!(resp.predictions().unwrap()[0].is_ok());
    assert!(server.stats().protocol_errors >= 2);
}

#[test]
fn oversized_frames_are_refused_without_reading_the_body() {
    let server = WireServer::bind("127.0.0.1:0", service()).unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    // A header declaring a body far over the guard; the body is never
    // sent — the server must reject on the header alone.
    let mut header = Vec::new();
    frame::write_frame(
        &mut header,
        frame::FrameKind::Request,
        1,
        "",
        frame::DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();
    header[16..20].copy_from_slice(&(1u32 << 30).to_be_bytes());
    raw.write_all(&header).unwrap();
    let reply = frame::read_frame(&mut raw, frame::DEFAULT_MAX_FRAME_LEN)
        .unwrap()
        .expect("error frame");
    assert_eq!(reply.kind, frame::FrameKind::Error);
    let err: RemoteError = serde::from_str(&reply.body).unwrap();
    assert_eq!(err.kind, RemoteErrorKind::Protocol);
    assert!(err.message.contains("guard"), "{}", err.message);
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let svc = service();
    let mut server = WireServer::bind("127.0.0.1:0", Arc::clone(&svc)).unwrap();
    let client = WireClient::connect(server.local_addr()).unwrap();

    // Pipeline a burst, then shut the server down as soon as every
    // request has been admitted (but long before all have executed).
    let n = 8usize;
    let pending: Vec<_> = (0..n)
        .map(|_| {
            client
                .submit(&Request::Predict {
                    target: H100_TARGET.into(),
                    jobs: vec![job(&h100_cluster(), ParallelConfig::default())],
                })
                .unwrap()
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().admitted < n as u64 {
        assert!(Instant::now() < deadline, "requests never admitted");
        std::thread::yield_now();
    }
    server.shutdown();

    // Every admitted request still gets its response.
    for p in pending {
        let resp = p.wait().expect("drained response");
        assert!(resp.predictions().unwrap()[0].is_ok());
    }

    // New work after shutdown fails with a connection-level error, not
    // a hang.
    let err = client
        .call(&Request::Predict {
            target: H100_TARGET.into(),
            jobs: vec![job(&h100_cluster(), ParallelConfig::default())],
        })
        .expect_err("server is gone");
    assert!(
        matches!(err, WireError::ConnectionClosed | WireError::Io(_)),
        "{err}"
    );

    // The wrapped service itself is untouched by the front end's
    // shutdown: in-process callers keep working.
    let direct = svc
        .call(Request::Predict {
            target: H100_TARGET.into(),
            jobs: vec![job(&h100_cluster(), ParallelConfig::default())],
        })
        .unwrap();
    assert!(direct.predictions().unwrap()[0].is_ok());
}

/// A search space big enough that a cold search runs for many waves.
fn wide_space() -> ConfigSpace {
    ConfigSpace {
        tp: vec![1, 2],
        pp: vec![1, 2],
        microbatch_multiplier: vec![1, 2],
        virtual_stages: vec![1],
        activation_recompute: vec![true, false],
        sequence_parallel: vec![false],
        distributed_optimizer: vec![true, false],
    }
}

fn long_search(budget: usize) -> Request {
    Request::Search {
        target: H100_TARGET.into(),
        template: job(&h100_cluster(), ParallelConfig::default()),
        space: wide_space(),
        algorithm: AlgorithmKind::Random,
        budget,
        seed: 11,
    }
}

#[test]
fn streamed_progress_over_the_wire_reconstructs_the_search_byte_for_byte() {
    let server = WireServer::bind("127.0.0.1:0", service()).unwrap();
    let client = WireClient::connect(server.local_addr()).unwrap();

    let mut pending = client.submit(&long_search(30)).expect("submit");
    let mut events = Vec::new();
    while let Some(event) = pending.next_progress() {
        events.push(event);
    }
    let outcome = pending.wait_outcome().expect("terminal frame");
    let WireJobOutcome::Done(resp) = outcome else {
        panic!("expected Done, got {outcome:?}");
    };
    let result = resp.search().expect("search payload");

    assert!(
        events.len() >= 2,
        "a 30-trial search must stream at least two progress frames, got {}",
        events.len()
    );
    let streamed: Vec<_> = events.iter().flat_map(|e| e.trials.clone()).collect();
    assert_eq!(
        serde::to_string(&streamed),
        serde::to_string(&result.trials),
        "concatenated progress records must equal the final trials byte-for-byte"
    );
    assert!(
        events.windows(2).all(|w| w[0].committed < w[1].committed),
        "committed counts must be strictly increasing"
    );
    assert_eq!(events.last().unwrap().committed, result.trials.len());

    // And the streamed search is byte-identical to a direct in-process
    // run of the same request (modulo wall clock).
    let direct = service().call(reissue(&long_search(30))).unwrap();
    assert_eq!(
        canonical(&to_wire_payload(&direct.payload)),
        canonical(&WirePayload::Search(Box::new(result.clone()))),
        "the streamed search must match the direct in-process result"
    );
}

#[test]
fn cancel_over_the_wire_returns_the_deterministic_committed_prefix() {
    // A 2.7B model, about three times `long_search`'s events a trial:
    // the waves after the first must outlast the cancel frame's trip
    // through two sockets on a machine busy with the other tests (with
    // the 125M template this test lost that race in 2–3 of 40 runs of
    // the file).
    let mut search = long_search(60);
    if let Request::Search { template, .. } = &mut search {
        template.model = ModelSpec::gpt3_2_7b();
    }
    // Reference: the same search, uncancelled.
    let full = service().call(reissue(&search)).unwrap();
    let full = full.search().unwrap().clone();

    let server = WireServer::bind("127.0.0.1:0", service()).unwrap();
    let client = WireClient::connect(server.local_addr()).unwrap();
    let mut pending = client.submit(&search).expect("submit");
    let first = pending.next_progress().expect("first wave before cancel");
    pending.cancel().expect("cancel frame sent");
    let outcome = pending.wait_outcome().expect("terminal frame");
    let WireJobOutcome::Cancelled(Some(resp)) = outcome else {
        panic!("expected Cancelled with a prefix, got {outcome:?}");
    };
    let partial = resp.search().unwrap();
    assert!(partial.trials.len() >= first.trials.len());
    assert!(
        partial.trials.len() < full.trials.len(),
        "cancellation must cut the search short ({} vs {})",
        partial.trials.len(),
        full.trials.len()
    );
    assert_eq!(
        serde::to_string(&partial.trials),
        serde::to_string(&full.trials[..partial.trials.len()].to_vec()),
        "the cancelled search must be an exact byte prefix of the uncancelled run"
    );
    assert_eq!(server.stats().cancels, 1);
    assert_eq!(server.service().stats().cancelled, 1);
}

#[test]
fn queued_deadline_expiry_sheds_the_job_without_a_worker_slot() {
    let svc = Arc::new(
        MayaService::builder()
            .target(H100_TARGET, EmulationSpec::new(h100_cluster()))
            .workers(1)
            .queue_capacity(4)
            .build()
            .unwrap(),
    );
    let server = WireServer::bind("127.0.0.1:0", Arc::clone(&svc)).unwrap();
    let client = WireClient::connect(server.local_addr()).unwrap();

    // Occupy the single worker...
    let blocker = client.submit(&long_search(60)).unwrap();
    // ...then queue a job whose budget is already hopeless.
    let doomed = client
        .submit_with(
            &Request::Predict {
                target: H100_TARGET.into(),
                jobs: vec![job(&h100_cluster(), ParallelConfig::default())],
            },
            maya_wire::JobOptions::new().with_deadline(Duration::ZERO),
        )
        .unwrap();
    let outcome = doomed.wait_outcome().expect("terminal frame");
    assert!(
        matches!(outcome, WireJobOutcome::Expired(None)),
        "a queue-expired job must arrive as an Expired frame with no \
         response, got {outcome:?}"
    );
    assert_eq!(
        svc.stats().expired,
        1,
        "service telemetry must count the shed job"
    );
    blocker.cancel().unwrap();
    let _ = blocker.wait_outcome();
}

#[test]
fn dropped_client_cancels_its_orphaned_jobs() {
    let svc = Arc::new(
        MayaService::builder()
            .target(H100_TARGET, EmulationSpec::new(h100_cluster()))
            .workers(1)
            .build()
            .unwrap(),
    );
    let server = WireServer::bind("127.0.0.1:0", Arc::clone(&svc)).unwrap();
    {
        let client = WireClient::connect(server.local_addr()).unwrap();
        let mut orphan = client.submit(&long_search(50_000)).unwrap();
        let _ = orphan.next_progress().expect("search is running");
        // The client vanishes with the search mid-flight. Nobody can
        // ever receive its frames, so the server must cancel it
        // instead of letting it occupy the only worker for the full
        // 50k-trial budget.
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while svc.stats().cancelled == 0 {
        assert!(
            Instant::now() < deadline,
            "the orphaned search was never cancelled"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // The worker is free again: a fresh client is served promptly.
    let client = WireClient::connect(server.local_addr()).unwrap();
    let resp = client
        .call(&Request::Predict {
            target: H100_TARGET.into(),
            jobs: vec![job(&h100_cluster(), ParallelConfig::default())],
        })
        .expect("worker freed by the orphan cleanup");
    assert!(resp.predictions().unwrap()[0].is_ok());
}

/// One request frame, as a conforming client would send it.
fn request_frame(id: u64, request: &Request) -> Vec<u8> {
    use serde::Serialize as _;
    let mut body = serde::compact::Writer::new();
    maya_serve::JobOptions::default().serialize(&mut body);
    request.serialize(&mut body);
    let mut bytes = Vec::new();
    let max = frame::DEFAULT_MAX_FRAME_LEN;
    frame::write_frame(
        &mut bytes,
        frame::FrameKind::Request,
        id,
        &body.finish(),
        max,
    )
    .unwrap();
    bytes
}

/// A job whose progress backlog never empties — a memoized search
/// commits waves faster than a slow peer takes their frames — must not
/// hold the connection until it ends: whatever arrives meanwhile, a
/// reader-made `Scrape` reply or another job's verdict, gets the next
/// turn on the socket.
#[test]
fn a_backlogged_search_does_not_hold_the_connection() {
    let svc = service();
    let server = WireServer::bind("127.0.0.1:0", Arc::clone(&svc)).unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    // ~20 MB of progress frames, and nobody reading: the socket
    // buffers fill, the writer blocks mid-stream and the rest of the
    // search piles up behind it (its result alone fits a frame).
    raw.write_all(&request_frame(1, &long_search(250_000)))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    while svc.stats().served == 0 {
        assert!(Instant::now() < deadline, "the search never finished");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Two latecomers, then start reading.
    let max = frame::DEFAULT_MAX_FRAME_LEN;
    frame::write_frame(&mut raw, frame::FrameKind::Scrape, 2, "", max).unwrap();
    let predict = Request::Predict {
        target: H100_TARGET.into(),
        jobs: vec![job(&h100_cluster(), ParallelConfig::default())],
    };
    raw.write_all(&request_frame(3, &predict)).unwrap();

    let mut reader = std::io::BufReader::new(raw);
    let mut answered = Vec::new();
    while answered.len() < 3 {
        let frame = frame::read_frame(&mut reader, max)
            .expect("readable frame")
            .expect("the connection stays up");
        match frame.kind {
            frame::FrameKind::Progress => assert_eq!(frame.id, 1),
            frame::FrameKind::Scrape | frame::FrameKind::Response => answered.push(frame.id),
            other => panic!("unexpected {other:?} frame on id {}", frame.id),
        }
    }
    assert_eq!(
        answered.last(),
        Some(&1),
        "the latecomers must be answered ahead of the search's backlog, got {answered:?}"
    );
}

/// A client may reuse a request id as soon as it has seen that id's
/// terminal frame: the job left the in-flight table before the frame
/// was written, so the new job is not mistaken for the old one.
#[test]
fn an_answered_request_id_is_free_for_reuse() {
    let server = WireServer::bind("127.0.0.1:0", service()).unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    // A lost job would never be answered: fail, don't hang.
    raw.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let predict = Request::Predict {
        target: H100_TARGET.into(),
        jobs: vec![job(&h100_cluster(), ParallelConfig::default())],
    };
    let request = request_frame(7, &predict);
    for round in 0..200 {
        raw.write_all(&request).unwrap();
        let frame = frame::read_frame(&mut raw, frame::DEFAULT_MAX_FRAME_LEN)
            .expect("readable frame")
            .unwrap_or_else(|| panic!("round {round}: the connection closed"));
        assert_eq!((frame.kind, frame.id), (frame::FrameKind::Response, 7));
    }
    assert_eq!(server.stats().admitted, 200);
}

/// The `comm` name of every thread in this process.
#[cfg(target_os = "linux")]
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("task list")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .collect()
}

/// A connection costs two server threads however many jobs it has in
/// flight: N jobs pipelined behind a parked worker add no thread.
#[test]
#[cfg(target_os = "linux")]
fn in_flight_jobs_cost_no_threads() {
    const N: usize = 200;
    let svc = Arc::new(
        MayaService::builder()
            .target(H100_TARGET, EmulationSpec::new(h100_cluster()))
            .workers(1)
            .queue_capacity(N + 8)
            .build()
            .unwrap(),
    );
    let server = WireServer::bind("127.0.0.1:0", Arc::clone(&svc)).unwrap();
    let client = WireClient::connect(server.local_addr()).unwrap();
    let predict = || Request::Predict {
        target: H100_TARGET.into(),
        jobs: vec![job(&h100_cluster(), ParallelConfig::default())],
    };
    // Other tests of this binary start and stop threads of their own
    // while this one counts, so one clean round out of five settles
    // it: a thread per job would add N in *every* round.
    for round in 1..=5 {
        // Park the only worker (the search outlasts the round: ~1µs a
        // trial once its 32-point space is memoized), then pipeline.
        let mut blocker = client.submit(&long_search(5_000_000)).unwrap();
        let _ = blocker.next_progress().expect("blocker running");
        let before = thread_names().len();
        let jobs: Vec<_> = (0..N).map(|_| client.submit(&predict()).unwrap()).collect();
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.stats().admitted < (round * (N + 1)) as u64 {
            assert!(Instant::now() < deadline, "the pipeline was never admitted");
            std::thread::yield_now();
        }
        // All N are in flight on the one connection right now.
        let names = thread_names();
        blocker.cancel().unwrap();
        let _ = blocker.wait_outcome();
        for job in jobs {
            let resp = job.wait().expect("pipelined job served");
            assert!(resp.predictions().unwrap()[0].is_ok());
        }
        assert!(
            !names.iter().any(|name| name == "maya-wire-job"),
            "a per-job pump thread is back: {names:?}"
        );
        let grew = names.len().saturating_sub(before);
        if grew < N / 4 {
            return;
        }
        assert!(
            round < 5,
            "{grew} more threads with {N} jobs in flight, five rounds running: {names:?}"
        );
    }
}

#[test]
fn submit_with_retry_rides_out_a_one_slot_queue() {
    use maya_wire::Backoff;
    let tiny = Arc::new(
        MayaService::builder()
            .target(H100_TARGET, EmulationSpec::new(h100_cluster()))
            .workers(1)
            .queue_capacity(1)
            .build()
            .unwrap(),
    );
    let server = WireServer::bind("127.0.0.1:0", Arc::clone(&tiny)).unwrap();
    let addr = server.local_addr();
    let predict = || Request::Predict {
        target: H100_TARGET.into(),
        jobs: vec![job(&h100_cluster(), ParallelConfig::default())],
    };

    // Enough concurrent callers to overrun a 1-slot queue many times
    // over; with backoff every one of them must eventually land.
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(move || {
                    let client = WireClient::connect(addr).expect("connect");
                    for _ in 0..4 {
                        let resp = client
                            .submit_with_retry(
                                &predict(),
                                Backoff {
                                    attempts: 64,
                                    initial: Duration::from_millis(1),
                                    factor: 2,
                                    max_delay: Duration::from_millis(50),
                                },
                            )
                            .expect("retries must ride out the overload");
                        assert!(resp.predictions().unwrap()[0].is_ok());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    assert!(
        server.stats().overloaded > 0,
        "the flood must actually have been shed at least once"
    );

    // Errors other than overload are not retried: an unknown target
    // fails on the first attempt.
    let client = WireClient::connect(addr).unwrap();
    let t0 = Instant::now();
    let err = client
        .submit_with_retry(
            &Request::Predict {
                target: "no-such-target".into(),
                jobs: vec![job(&h100_cluster(), ParallelConfig::default())],
            },
            Backoff {
                attempts: 8,
                initial: Duration::from_secs(1),
                factor: 2,
                max_delay: Duration::from_secs(1),
            },
        )
        .expect_err("unknown target");
    assert!(
        matches!(
            &err,
            WireError::Remote(remote) if remote.kind == RemoteErrorKind::UnknownTarget
        ),
        "{err}"
    );
    assert!(
        t0.elapsed() < Duration::from_millis(900),
        "a non-overload error must not back off"
    );
}

#[test]
fn wire_telemetry_carries_cache_deltas_and_stage_timings() {
    let server = WireServer::bind("127.0.0.1:0", service()).unwrap();
    let client = WireClient::connect(server.local_addr()).unwrap();
    let predict = || Request::Predict {
        target: H100_TARGET.into(),
        jobs: vec![job(&h100_cluster(), ParallelConfig::default())],
    };
    let first = client.call(&predict()).unwrap();
    assert!(first.telemetry.cache_delta.misses > 0, "cold cache");
    assert!(first.telemetry.stages.simulation > Duration::ZERO);
    let second = client.call(&predict()).unwrap();
    assert_eq!(
        second.telemetry.cache_delta.misses, 0,
        "repeat workload over the wire must be answered from the memo"
    );
    assert!(second.telemetry.cache.hits > 0);
}
