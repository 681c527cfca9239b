//! Serving-path performance report: `BENCH_<version>.json`.
//!
//! Measures the four hot loops the sim-core optimization targets —
//! discrete-event simulation (optimized core with a reused scratch
//! arena, the same core with fresh state, and the frozen
//! pre-optimization reference core as the baseline), cold and warm
//! batched prediction, sequential vs speculative-batched search, and
//! loopback wire round trips — plus `obs_overhead`, the fully
//! instrumented sim run that pins the observability subsystem's cost
//! to ~zero — then writes the schema-versioned JSON report (see
//! `maya_bench::perf`).
//!
//! Flags:
//! - `--smoke`: few iterations (seconds, for CI schema checking; the
//!   numbers are not comparable across machines or runs).
//! - `--out <path>`: report path (default `BENCH_<version>.json`).
//! - `--check <path>`: validate an existing report file against this
//!   binary's schema and exit; nonzero on drift.

// The frozen oracle now lives with maya-sim's tests.
#[path = "../../../maya-sim/tests/reference/mod.rs"]
mod reference;

use std::sync::Arc;

use maya::{EmulationSpec, MayaBuilder};
use maya_bench::perf::{
    default_report_path, measure, validate_report, MachineInfo, PerfReport, ScenarioResult,
    SCHEMA_VERSION,
};
use maya_collate::collate;
use maya_estimator::OracleEstimator;
use maya_hw::ClusterSpec;
use maya_search::{AlgorithmKind, Objective, TrialScheduler};
use maya_sim::{SimObs, SimScratch, Simulator};
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::Dtype;
use maya_wire::{MayaService, Request, WireClient, WireServer};

fn fixture_job(world: u32, parallel: ParallelConfig, global_batch: u32) -> TrainingJob {
    TrainingJob {
        model: ModelSpec::gpt3_125m(),
        parallel,
        flavor: FrameworkFlavor::Megatron,
        compile: false,
        global_batch,
        world,
        gpus_per_node: 8,
        precision: Dtype::Bf16,
        iterations: 1,
    }
}

/// The sim-core scenarios share one collated 8-rank trace, validated
/// exactly once (the hoisted-validation serving path). `net_contended`
/// re-runs the same trace on a topology-carrying cluster so concurrent
/// collectives compete for link bandwidth through the max-min fair
/// flow model — the cost of contention-aware simulation relative to
/// `sim_dense_scratch`.
fn sim_scenarios(smoke: bool) -> Vec<ScenarioResult> {
    let cluster = ClusterSpec::h100(1, 8);
    let world = 8;
    let job = fixture_job(
        world,
        ParallelConfig {
            tp: 2,
            pp: 2,
            microbatch_multiplier: 2,
            ..Default::default()
        },
        4 * world,
    );
    let workers: Vec<_> = (0..world)
        .map(|r| maya_torchlet::engine::trace_one_rank(&job, r, cluster.gpu).0)
        .collect();
    let trace = collate(workers, world).expect("collates");
    trace.validate().expect("fixture trace is valid");
    let events = trace.total_events() as f64;
    let oracle = OracleEstimator::new(&cluster);
    let sim = Simulator::new(&oracle, &cluster);
    let iters = if smoke { 10 } else { 400 };

    let mut scratch = SimScratch::new();
    sim.run_with_scratch(&trace, &mut scratch).expect("warmup");
    let dense_scratch = measure("sim_dense_scratch", "events/sec", iters, events, || {
        sim.run_prevalidated(&trace, &mut scratch)
            .expect("simulates");
    });
    let dense_fresh = measure("sim_dense_fresh", "events/sec", iters, events, || {
        sim.run(&trace).expect("simulates");
    });
    let reference = measure("sim_reference", "events/sec", iters, events, || {
        reference::simulate_reference(&trace, &cluster, &oracle).expect("simulates");
    });

    let contended_cluster = cluster.clone().with_default_topology();
    let sim_net = Simulator::new(&oracle, &contended_cluster);
    let mut net_scratch = SimScratch::new();
    sim_net
        .run_with_scratch(&trace, &mut net_scratch)
        .expect("warmup");
    let net_contended = measure("net_contended", "events/sec", iters, events, || {
        sim_net
            .run_prevalidated(&trace, &mut net_scratch)
            .expect("simulates");
    });

    // Same trace, same reused arena, but with every observability sink
    // installed (counters, high-water gauge, flight recorder). The sim
    // keeps its tallies in the scratch arena and publishes them once
    // after the event loop drains, so this figure is required to sit
    // within noise of `sim_dense_scratch` — the "off-path costs
    // nothing, on-path costs almost nothing" acceptance check.
    let obs = SimObs::default();
    let sim_obs = Simulator::new(&oracle, &cluster).with_obs(Some(&obs));
    let mut obs_scratch = SimScratch::new();
    sim_obs
        .run_with_scratch(&trace, &mut obs_scratch)
        .expect("warmup");
    let obs_overhead = measure("obs_overhead", "events/sec", iters, events, || {
        sim_obs
            .run_prevalidated(&trace, &mut obs_scratch)
            .expect("simulates");
    });

    vec![
        dense_scratch,
        dense_fresh,
        reference,
        net_contended,
        obs_overhead,
    ]
}

/// Batched prediction through `predict_batch`: cold (every job a shape
/// the memo has never seen — full emulate/collate/simulate pipeline)
/// and warm (pure memo hits).
fn predict_scenarios(smoke: bool) -> Vec<ScenarioResult> {
    let cluster = ClusterSpec::h100(1, 2);
    let world = cluster.num_gpus();
    let maya = MayaBuilder::new(cluster.clone())
        .selective_launch(true)
        .build()
        .expect("builds");
    let batch = if smoke { 2 } else { 4 };
    let jobs = |base: u32| -> Vec<TrainingJob> {
        (0..batch)
            .map(|i| fixture_job(world, ParallelConfig::default(), (base + i) * world))
            .collect()
    };

    let mut next_base = 1u32;
    let cold_iters = if smoke { 2 } else { 8 };
    let cold = measure(
        "predict_cold",
        "predictions/sec",
        cold_iters,
        batch as f64,
        || {
            let js = jobs(next_base);
            next_base += batch;
            for r in maya.predict_batch(&js) {
                r.expect("predicts");
            }
        },
    );

    let warm_jobs = jobs(next_base);
    for r in maya.predict_batch(&warm_jobs) {
        r.expect("warmup");
    }
    let warm_iters = if smoke { 40 } else { 1500 };
    let warm = measure(
        "predict_warm",
        "predictions/sec",
        warm_iters,
        batch as f64,
        || {
            for r in maya.predict_batch(&warm_jobs) {
                r.expect("predicts");
            }
        },
    );
    vec![cold, warm]
}

/// Grid search over the default space, sequential vs speculative
/// batched. Every run gets a fresh runtime (cold memo) so trials pay
/// the real pipeline and batching has concurrency to exploit.
fn search_scenarios(smoke: bool) -> Vec<ScenarioResult> {
    let cluster = ClusterSpec::h100(1, 4);
    let template = fixture_job(cluster.num_gpus(), ParallelConfig::default(), 16);
    let budget = if smoke { 6 } else { 48 };
    let runs = if smoke { 1 } else { 5 };
    let run_search = |batched: bool| -> usize {
        let maya = MayaBuilder::new(cluster.clone())
            .selective_launch(true)
            .build()
            .expect("builds");
        let objective = Objective::new(maya.engine(), template);
        let scheduler = TrialScheduler::new(&objective);
        let result = if batched {
            scheduler.run_batched(AlgorithmKind::Grid, budget, 0)
        } else {
            scheduler.run(AlgorithmKind::Grid, budget, 0)
        };
        result.trials.len()
    };
    // Trial count is deterministic for a fixed space/budget/seed.
    let trials = run_search(false) as f64;
    let sequential = measure("search_sequential", "trials/sec", runs, trials, || {
        run_search(false);
    });
    let batched = measure("search_batched", "trials/sec", runs, trials, || {
        run_search(true);
    });
    vec![sequential, batched]
}

/// Warm predict served over a loopback TCP round trip through
/// `maya-wire`: frame encode, socket, decode, queue, execute, respond.
fn wire_scenario(smoke: bool) -> ScenarioResult {
    let cluster = ClusterSpec::h100(1, 1);
    let request = || Request::Predict {
        target: "bench".into(),
        jobs: vec![fixture_job(1, ParallelConfig::default(), 8)],
    };
    let service = Arc::new(
        MayaService::builder()
            .target("bench", EmulationSpec::new(cluster))
            .workers(2)
            .build()
            .expect("service"),
    );
    service.call(request()).expect("warmup");
    let server = WireServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    let client = WireClient::connect(server.local_addr()).expect("connect");
    client.call(&request()).expect("warmup round trip");
    let iters = if smoke { 50 } else { 1500 };
    measure("wire_loopback", "roundtrips/sec", iters, 1.0, || {
        client.call(&request()).expect("round trip");
    })
}

/// Workspace root and budget config for the lint scenarios.
///
/// perf_report runs from the workspace root in CI; fall back to the
/// manifest-relative root for `cargo run -p maya-bench`.
fn lint_setup() -> (std::path::PathBuf, maya_lint::config::Config) {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(std::path::Path::to_path_buf)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    let cfg = std::fs::read_to_string(root.join("lint-budget.toml"))
        .ok()
        .and_then(|t| maya_lint::config::Config::parse(&t).ok())
        .unwrap_or_default();
    (root, cfg)
}

/// Phase-1 maya-lint scan (per-file rules only), reported as
/// files/sec: the analyzer runs on every CI build, so its cost is
/// tracked like any other subsystem's.
fn lint_scenario(smoke: bool) -> ScenarioResult {
    let (root, cfg) = lint_setup();
    let files = maya_lint::run_workspace_phase1(&root, &cfg)
        .map(|r| r.files as f64)
        .unwrap_or(0.0);
    let iters = if smoke { 2 } else { 10 };
    measure("lint_scan", "files/sec", iters, files, || {
        let report = maya_lint::run_workspace_phase1(&root, &cfg).expect("lint scan");
        assert!(report.files > 0, "lint scan found no files");
    })
}

/// Full two-phase maya-lint run (per-file rules plus the item index,
/// call graph, lock-order and codec checks), so the interprocedural
/// layer's cost is visible separately from `lint_scan`.
fn lint_interproc_scenario(smoke: bool) -> ScenarioResult {
    let (root, cfg) = lint_setup();
    let files = maya_lint::run_workspace(&root, &cfg)
        .map(|r| r.files as f64)
        .unwrap_or(0.0);
    let iters = if smoke { 2 } else { 10 };
    measure("lint_interproc", "files/sec", iters, files, || {
        let report = maya_lint::run_workspace(&root, &cfg).expect("lint interproc scan");
        assert!(report.files > 0, "lint scan found no files");
    })
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn fail(msg: &str) -> ! {
    eprintln!("perf_report: {msg}");
    std::process::exit(1)
}

fn main() {
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = Some(args.next().unwrap_or_else(|| fail("--out needs a path"))),
            "--check" => check = Some(args.next().unwrap_or_else(|| fail("--check needs a path"))),
            other => fail(&format!(
                "unknown flag '{other}' (expected --smoke, --out <path>, --check <path>)"
            )),
        }
    }

    if let Some(path) = check {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        match validate_report(&text) {
            Ok(()) => println!("{path}: valid maya-perf-report schema v{SCHEMA_VERSION}"),
            Err(e) => fail(&format!("{path}: schema check failed: {e}")),
        }
        return;
    }

    let out = out.unwrap_or_else(default_report_path);
    let mode = if smoke { "smoke" } else { "full" };
    println!("# perf_report ({mode}) -> {out}");

    let mut scenarios = Vec::new();
    scenarios.extend(sim_scenarios(smoke));
    scenarios.extend(predict_scenarios(smoke));
    scenarios.extend(search_scenarios(smoke));
    scenarios.push(wire_scenario(smoke));
    scenarios.push(lint_scenario(smoke));
    scenarios.push(lint_interproc_scenario(smoke));

    println!(
        "{:<22} {:>14} {:<16} {:>12} {:>12}",
        "scenario", "throughput", "unit", "p50_us", "p99_us"
    );
    for s in &scenarios {
        println!(
            "{:<22} {:>14.1} {:<16} {:>12.1} {:>12.1}",
            s.name, s.throughput, s.unit, s.p50_us, s.p99_us
        );
    }

    let report = PerfReport {
        smoke,
        machine: MachineInfo::probe(git_rev()),
        scenarios,
    };
    let text = report.to_json();
    validate_report(&text).unwrap_or_else(|e| fail(&format!("emitted report invalid: {e}")));
    std::fs::write(&out, &text).unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
    println!("wrote {out}");
}
