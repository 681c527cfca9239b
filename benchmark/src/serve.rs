//! Workload 5: the full request path — encode → frame → queue → engine
//! → reply — under a **closed loop of two clients**: callers that wait
//! for each reply before sending the next (a remote search driver), so
//! a slower service receives less load. Each client owns a `WireClient`
//! to an in-process `WireServer` over a two-worker `MayaService`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use maya::{EmulationSpec, EstimatorChoice, PredictionEngine};
use maya_estimator::RuntimeEstimator;
use maya_hw::ClusterSpec;
use maya_serve::{MayaService, ObsConfig, Request};
use maya_sim::SimScratch;
use maya_torchlet::{ModelSpec, ParallelConfig, TrainingJob};
use maya_wire::{WireClient, WireResponse, WireServer};

use crate::digest::{check_golden, report_digest, Fnv};
use crate::forwarder::Forwarder;
use crate::metrics::MetricSet;
use crate::probes::layer_probes;
use crate::replay::{replay, replay_cold};
use crate::spans::Recorder;
use crate::stats::{median, speed_factor, tail, timed};
use crate::trace_out::{
    finish_trace, record_cache, record_engine_stages, stage_seconds, TracedSamples,
};
use crate::workloads::{
    record_latency, setup_repeated, train_forest, training_job, Outcome, RunConfig, Tally,
};

const TARGET: &str = "h100x8";
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Requests each client sends before timing starts: a long-running
/// service is warm.
const WARMUP_PER_CLIENT: usize = 100;
/// The timed phase is cut into this many blocks; the machine-speed
/// factor is read between blocks, while the clients are parked.
const BLOCKS: usize = 8;
/// Traced samples between two machine-speed calibrations.
const FACTOR_EVERY: usize = 25;
/// Requests rotate over jobs that differ only in global batch.
const GLOBAL_BATCHES: [u32; 4] = [32, 40, 48, 56];

fn cluster() -> ClusterSpec {
    ClusterSpec::h100(1, 8)
}

fn jobs() -> Vec<TrainingJob> {
    let recipe = ParallelConfig {
        tp: 2,
        pp: 2,
        microbatch_multiplier: 2,
        ..ParallelConfig::default()
    };
    GLOBAL_BATCHES
        .iter()
        .map(|&gb| training_job(ModelSpec::gpt3_125m(), &cluster(), recipe, gb))
        .collect()
}

fn request(job: &TrainingJob) -> Request {
    Request::Predict {
        target: TARGET.into(),
        jobs: vec![*job],
    }
}

/// Which job the `i`-th request of client `c` carries.
fn rotation(seed: u64, c: usize, i: usize) -> usize {
    (seed as usize).wrapping_add(c).wrapping_add(i) % GLOBAL_BATCHES.len()
}

/// The digest of a one-job `Predict` reply, `None` if it failed.
fn reply_digest(reply: &WireResponse) -> Option<u64> {
    match reply.predictions()? {
        [Ok(p)] => p.report().map(report_digest),
        _ => None,
    }
}

/// A service behind a bound server. The server is declared first so it
/// stops accepting before the service it fronts goes away.
struct Stack {
    server: WireServer,
    service: Arc<MayaService>,
}

fn start_stack(est: &Arc<dyn RuntimeEstimator>, obs: ObsConfig) -> Result<Stack, String> {
    let service = MayaService::builder()
        .target(TARGET, EmulationSpec::new(cluster()))
        .estimator(EstimatorChoice::Custom(Arc::clone(est)))
        .workers(WORKERS)
        .observability(obs)
        .build()
        .map_err(|e| format!("service build failed: {e}"))?;
    let service = Arc::new(service);
    let server = WireServer::bind("127.0.0.1:0", Arc::clone(&service))
        .map_err(|e| format!("bind failed: {e}"))?;
    Ok(Stack { server, service })
}

fn connect(stack: &Stack, warmup: usize, seed: u64) -> Result<Vec<WireClient>, String> {
    let jobs = jobs();
    (0..CLIENTS)
        .map(|c| {
            let client = WireClient::connect(stack.server.local_addr())
                .map_err(|e| format!("connect failed: {e}"))?;
            for i in 0..warmup {
                client
                    .call(&request(&jobs[rotation(seed, c, i)]))
                    .map_err(|e| format!("warm-up request failed: {e}"))?;
            }
            Ok(client)
        })
        .collect()
}

/// Everything before the first timed request.
struct Ready {
    clients: Vec<WireClient>,
    stack: Stack,
    est: Arc<dyn RuntimeEstimator>,
    /// Digest of each job's report, from a direct engine call.
    expected: Vec<u64>,
    train_s: f64,
}

fn prepare(cfg: &RunConfig) -> Result<Ready, String> {
    let (est, train_s) = train_forest(&cluster(), cfg);
    let direct = PredictionEngine::new(EmulationSpec::new(cluster()), Arc::clone(&est));
    let expected = jobs()
        .iter()
        .map(|j| {
            direct
                .predict_job(j)
                .map_err(|e| format!("direct prediction failed: {e}"))?
                .report()
                .map(report_digest)
                .ok_or_else(|| "a serving job ran out of memory".to_string())
        })
        .collect::<Result<Vec<u64>, String>>()?;
    let stack = start_stack(&est, ObsConfig::default())?;
    let warmup = if cfg.smoke { 4 } else { WARMUP_PER_CLIENT };
    let clients = connect(&stack, warmup, cfg.seed)?;
    Ok(Ready {
        clients,
        stack,
        est,
        expected,
        train_s,
    })
}

/// One client's share of one block.
#[derive(Default)]
struct ClientBlock {
    latencies_s: Vec<f64>,
    failed: u64,
    wall_s: f64,
}

/// What the closed loop measured, calibrated by the loop's factor.
#[derive(Default)]
struct LoopResult {
    raw_latencies_s: Vec<f64>,
    latencies_s: Vec<f64>,
    completed: u64,
    failed: u64,
    /// Sum over blocks of the block's calibrated wall.
    wall_s: f64,
}

impl LoopResult {
    fn req_per_s(&self) -> f64 {
        self.completed as f64 / self.wall_s
    }
}

/// Drives every client in `clients` in a closed loop for `blocks`
/// blocks of `block_s` seconds (and at least `min_requests` each),
/// checking every reply against `expected`.
fn closed_loop(
    clients: &[WireClient],
    expected: &[u64],
    seed: u64,
    blocks: usize,
    block_s: f64,
    min_requests: usize,
) -> LoopResult {
    let jobs = jobs();
    let barrier = Barrier::new(clients.len() + 1);
    let stop = AtomicBool::new(false);
    let deadline = Mutex::new(Instant::now());
    let mut factors = Vec::with_capacity(blocks);
    let per_client: Vec<Vec<ClientBlock>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(c, client)| {
                let (barrier, stop, deadline, jobs) = (&barrier, &stop, &deadline, &jobs);
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut sent = 0usize;
                    loop {
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            return out;
                        }
                        let until = *deadline.lock().expect("deadline lock");
                        let mut block = ClientBlock::default();
                        let started = Instant::now();
                        while block.latencies_s.len() + (block.failed as usize) < min_requests
                            || Instant::now() < until
                        {
                            let which = rotation(seed, c, sent);
                            sent += 1;
                            let (reply, secs) = timed(|| client.call(&request(&jobs[which])));
                            match reply {
                                Ok(r) if reply_digest(&r) == Some(expected[which]) => {
                                    block.latencies_s.push(secs);
                                }
                                Ok(r) => {
                                    block.failed += 1;
                                    eprintln!(
                                        "FAILED: client {c} reply digest {:x?}, expected {:x}",
                                        reply_digest(&r),
                                        expected[which]
                                    );
                                }
                                Err(e) => {
                                    block.failed += 1;
                                    eprintln!("FAILED: client {c} request: {e}");
                                }
                            }
                        }
                        block.wall_s = started.elapsed().as_secs_f64();
                        out.push(block);
                        barrier.wait();
                    }
                })
            })
            .collect();
        for _ in 0..blocks {
            // Clients are parked at the barrier: the machine is idle.
            factors.push(speed_factor());
            *deadline.lock().expect("deadline lock") =
                Instant::now() + Duration::from_secs_f64(block_s);
            barrier.wait();
            barrier.wait();
        }
        stop.store(true, Ordering::SeqCst);
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });

    // One factor for the whole loop, the median of the readings taken
    // between blocks. A single reading is taken by a thread that has just
    // slept through a block, on a core that may have idled with it: over
    // three runs single readings ranged 0.90–1.37 while the blocks' raw
    // medians stayed within ±5 %, so pairing each block with its own
    // reading added more noise than it removed.
    let factor = median(&mut factors.clone());
    let mut out = LoopResult::default();
    for b in 0..blocks {
        let mut block_wall = 0.0f64;
        for client_blocks in &per_client {
            let block = &client_blocks[b];
            out.raw_latencies_s.extend(&block.latencies_s);
            out.completed += block.latencies_s.len() as u64;
            out.failed += block.failed;
            block_wall = block_wall.max(block.wall_s);
        }
        out.wall_s += block_wall / factor;
    }
    out.latencies_s = out.raw_latencies_s.iter().map(|s| s / factor).collect();
    out
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut m = MetricSet::default();
    let (ready, setup_s) = setup_repeated(cfg.setup_reps(), || prepare(cfg))?;

    if !cfg.trace {
        m.set("setup_s", setup_s, cfg.setup_reps());
        let (seconds, min_requests) = cfg.budget(0);
        let blocks = if cfg.smoke { 1 } else { BLOCKS };
        let result = closed_loop(
            &ready.clients,
            &ready.expected,
            cfg.seed,
            blocks,
            seconds / blocks as f64,
            min_requests,
        );
        tally.attempted += result.completed + result.failed;
        tally.failed += result.failed;
        if result.completed == 0 {
            return Err("no request completed".into());
        }
        record_latency(
            &mut m,
            &result.latencies_s,
            &result.raw_latencies_s,
            Some(result.req_per_s()),
        );
        let mut h = Fnv::default();
        for d in &ready.expected {
            h.field(d);
        }
        check_golden(cfg, h.finish(), &mut tally)?;
        let stats = ready.stack.server.stats();
        tally.check(stats.protocol_errors == 0 && stats.overloaded == 0, || {
            format!("server saw protocol errors or shed load: {stats:?}")
        });
    } else {
        trace_run(cfg, &ready, &mut tally, &mut m)?;
    }
    Ok(tally.into_outcome(m))
}

/// The traced run, one client on the main thread. Per sample the same
/// job goes over the wire, through an in-process `service.call`, through
/// a direct `predict_job` on the service's own warm engine, and through
/// the stage-by-stage replay over that engine's memo; each path nests
/// inside the one before it, so the differences are the outer layers'
/// own time. All four must agree on the report.
fn trace_run(
    cfg: &RunConfig,
    ready: &Ready,
    tally: &mut Tally,
    m: &mut MetricSet,
) -> Result<(), String> {
    let started = Instant::now();
    let (seconds, min_samples) = cfg.trace_budget(50);
    let max_samples = 2000;
    let jobs = jobs();
    let service = &ready.stack.service;
    let engine = service
        .engine(TARGET)
        .map_err(|e| format!("no engine for {TARGET}: {e}"))?;
    let spec = engine.spec().clone();
    let client = &ready.clients[0];
    let mut rec = Recorder::default();
    let mut traced = TracedSamples::default();
    let mut scratch = SimScratch::new();
    let mut coverage = Vec::new();
    let (mut queue_wait_s, mut service_time_s) = (Vec::new(), Vec::new());
    let mut stage_timings: [Vec<f64>; 4] = Default::default();
    // A sample takes about as long as calibrating does, so the factor is
    // refreshed every few samples, not before each.
    let mut factor = 1.0;

    probes(cfg, ready, tally, m)?;

    while traced.len() < min_samples
        || (started.elapsed().as_secs_f64() < seconds && traced.len() < max_samples)
    {
        let sample = traced.len();
        let which = rotation(cfg.seed, 0, sample);
        let job = &jobs[which];
        if sample % FACTOR_EVERY == 0 {
            factor = speed_factor();
        }
        rec.set_sample(sample as u32);
        let (paths, _) = rec.span("sample", |rec| {
            let (wire, wire_s) = rec.span("wire.call", |_| client.call(&request(job)));
            let (inproc, _) = rec.span("serve.call", |_| service.call(request(job)));
            let (direct, _) = rec.span("engine.predict_job", |_| engine.predict_job(job));
            let (replayed, _) = rec.span("replay", |rec| {
                replay(job, &spec, engine.cache(), &mut scratch, rec)
            });
            (wire, wire_s, inproc, direct, replayed)
        });
        let (wire, wire_s, inproc, direct, replayed) = paths;
        let (untraced, untraced_s) = timed(|| client.call(&request(job)));
        traced.push(factor, untraced_s);

        let wire = wire.map_err(|e| format!("wire call failed: {e}"))?;
        let digests = [
            reply_digest(&wire),
            inproc.ok().and_then(|r| match r.predictions()? {
                [Ok(p)] => p.report().map(report_digest),
                _ => None,
            }),
            direct
                .as_ref()
                .ok()
                .and_then(|p| p.report().map(report_digest)),
            replayed?.report.as_ref().map(report_digest),
            untraced.ok().as_ref().and_then(reply_digest),
        ];
        tally.check(digests.iter().all(|d| *d == Some(ready.expected[which])), || {
            format!(
                "sample {sample}: wire / service / engine / replay / untraced digests {digests:x?}, \
                 expected {:x}",
                ready.expected[which]
            )
        });
        if let Some(root) = wire.telemetry.spans.first() {
            coverage.push(root.duration.as_secs_f64() / wire_s);
        }
        if let Ok(p) = &direct {
            for (slot, secs) in stage_timings.iter_mut().zip(stage_seconds(&p.timings)) {
                slot.push(secs / factor);
            }
        }
        queue_wait_s.push(wire.telemetry.queue_wait.as_secs_f64() / factor);
        service_time_s.push(wire.telemetry.service_time.as_secs_f64() / factor);
    }

    let n = traced.len();
    m.set("estimator.train_s", ready.train_s, 1);
    let totals = finish_trace(cfg, &rec, &traced, "wire.call", m)?;
    let mut rtt = totals.get("wire.call").to_vec();
    m.set("wire.rtt_us", median(&mut rtt) * 1e6, n);
    m.set("wire.rtt_p99_us", tail(&mut rtt).0 * 1e6, n);
    m.set(
        "wire.overhead_us",
        totals.median_diff("wire.call", "serve.call") * 1e6,
        n,
    );
    m.set("serve.call_us", totals.median("serve.call") * 1e6, n);
    m.set(
        "serve.overhead_us",
        totals.median_diff("serve.call", "engine.predict_job") * 1e6,
        n,
    );
    record_engine_stages(m, std::array::from_fn(|i| median(&mut stage_timings[i])), n);
    m.set("serve.queue_wait_us", median(&mut queue_wait_s) * 1e6, n);
    m.set(
        "serve.service_time_us",
        median(&mut service_time_s) * 1e6,
        n,
    );
    m.set("obs.span_coverage", median(&mut coverage), coverage.len());
    let wire_stats = ready.stack.server.stats();
    let serve_stats = service.stats();
    m.set_count("wire.protocol_errors", wire_stats.protocol_errors);
    m.set_count(
        "serve.shed",
        wire_stats.overloaded
            + serve_stats.quota_shed
            + serve_stats.queue_shed_expired
            + serve_stats.queue_shed_cancelled,
    );
    Ok(())
}

/// Probes that need their own traffic: the layer probes on the first
/// job, a request with no jobs (the path with nothing to predict), a
/// scrape, request and reply sizes on the socket, and the two-client
/// closed loop with observability on against off.
fn probes(
    cfg: &RunConfig,
    ready: &Ready,
    tally: &mut Tally,
    m: &mut MetricSet,
) -> Result<(), String> {
    let jobs = jobs();
    let spec = EmulationSpec::new(cluster());
    let cold = PredictionEngine::new(spec.clone(), Arc::clone(&ready.est));
    cold.predict_job(&jobs[0]).map_err(|e| e.to_string())?;
    record_cache(m, cold.cache_stats());
    let replayed = replay_cold(&jobs[0], &spec, &ready.est)?;
    replayed.stages.record_counts(m);
    let reduced = replayed.reduced.ok_or("a serving job ran out of memory")?;
    layer_probes(m, &jobs[0], &spec, &ready.est, &reduced, cfg.batch_jobs(8))?;

    let factor = speed_factor();
    let client = &ready.clients[0];
    let reps = if cfg.smoke { 5 } else { 200 };
    let mut null_s = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (reply, secs) = timed(|| {
            client.call(&Request::Predict {
                target: TARGET.into(),
                jobs: Vec::new(),
            })
        });
        reply.map_err(|e| format!("empty request failed: {e}"))?;
        null_s.push(secs / factor);
    }
    m.set("wire.null_rtt_us", median(&mut null_s) * 1e6, reps);
    let mut scrape_s = Vec::with_capacity(reps / 4 + 1);
    for _ in 0..reps / 4 + 1 {
        let (snapshot, secs) = timed(|| client.scrape());
        snapshot.map_err(|e| format!("scrape failed: {e}"))?;
        scrape_s.push(secs / factor);
    }
    m.set("obs.scrape_us", median(&mut scrape_s) * 1e6, scrape_s.len());

    // One request per job through the byte-counting forwarder.
    let forwarder = Forwarder::start(ready.stack.server.local_addr())
        .map_err(|e| format!("forwarder failed to start: {e}"))?;
    let through = WireClient::connect(forwarder.addr()).map_err(|e| format!("connect: {e}"))?;
    for (job, want) in jobs.iter().zip(&ready.expected) {
        let reply = through.call(&request(job));
        let got = reply.as_ref().ok().and_then(reply_digest);
        tally.check(got == Some(*want), || {
            format!("reply through the forwarder {got:x?}, expected {want:x}")
        });
    }
    drop(through);
    let (up, down) = forwarder
        .finish()
        .map_err(|e| format!("forwarder failed: {e}"))?;
    m.set("wire.req_bytes", up as f64 / jobs.len() as f64, jobs.len());
    m.set(
        "wire.resp_bytes",
        down as f64 / jobs.len() as f64,
        jobs.len(),
    );

    // Same clients-and-workers shape on two services that differ only
    // in their observability switch, in alternating blocks.
    let off = start_stack(&ready.est, ObsConfig::off())?;
    let warmup = if cfg.smoke { 4 } else { WARMUP_PER_CLIENT };
    let off_clients = connect(&off, warmup, cfg.seed)?;
    let (rounds, block_s, min_requests) = if cfg.smoke { (1, 0.0, 2) } else { (3, 0.4, 0) };
    let (mut on_result, mut off_result) = (LoopResult::default(), LoopResult::default());
    for _ in 0..rounds {
        for (clients, total) in [
            (&ready.clients, &mut on_result),
            (&off_clients, &mut off_result),
        ] {
            let r = closed_loop(clients, &ready.expected, cfg.seed, 1, block_s, min_requests);
            total.completed += r.completed;
            total.failed += r.failed;
            total.wall_s += r.wall_s;
        }
    }
    tally.attempted +=
        on_result.completed + on_result.failed + off_result.completed + off_result.failed;
    tally.failed += on_result.failed + off_result.failed;
    m.set(
        "obs.on_over_off",
        on_result.req_per_s() / off_result.req_per_s(),
        (on_result.completed + off_result.completed) as usize,
    );
    Ok(())
}
