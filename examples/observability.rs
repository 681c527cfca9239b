//! The observability subsystem end to end: metrics, span trees, the
//! remote `Scrape` frame, and the proof that it all costs ~nothing
//! when off.
//!
//! One process plays both roles so the example is self-contained and
//! CI-runnable: it binds a [`WireServer`] over a [`MayaService`] with
//! the default [`ObsConfig::on`], drives some work through it, then —
//!
//! 1. **per-response spans**: every reply carries its own job span
//!    tree (`job` → `queued` / `execute` → pipeline stages) in
//!    [`Telemetry::spans`];
//! 2. **remote scrape**: a `Scrape` frame pulls the full
//!    [`ObsSnapshot`] — service counters, queue gauges, per-tenant
//!    wait/service histograms, the simulator's event/flow-solver
//!    tallies, and recent job trees — over the same connection the
//!    work went through;
//! 3. **determinism**: two back-to-back scrapes of a quiesced service
//!    are byte-identical (the scrape counter deliberately lives in the
//!    server's own stats, not the registry);
//! 4. **wall-clock accounting**: the newest job tree's children
//!    account for its whole duration (nothing untracked);
//! 5. **Chrome trace**: the recent job span trees render straight to
//!    `chrome://tracing` JSON;
//! 6. **zero-cost off switch**: the same service built with
//!    [`ObsConfig::off`] serves identically but scrapes empty.
//!
//! Run with `cargo run --release --example observability`.

use std::sync::Arc;
use std::time::Duration;

use maya::EmulationSpec;
use maya_hw::ClusterSpec;
use maya_serve::ObsConfig;
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::Dtype;
use maya_wire::{
    AlgorithmKind, ConfigSpace, JobOptions, MayaService, Priority, Request, WireClient, WireServer,
};

const TARGET: &str = "h100-pair";

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

fn small_search() -> Request {
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
        seed: 7,
    }
}

fn main() {
    let service = Arc::new(
        MayaService::builder()
            .target(TARGET, EmulationSpec::new(ClusterSpec::h100(1, 2)))
            .workers(2)
            .build()
            .expect("service builds"),
    );
    let mut server = WireServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    let addr = server.local_addr();
    println!("wire server listening on {addr} (observability on by default)\n");
    let client = WireClient::connect(addr).expect("connect");

    // Drive some work through: a few predicts from two tenants plus a
    // small grid search, so every instrument has something to say.
    for (i, tenant) in [(1u32, "ops"), (2, "ops"), (3, "research")] {
        client
            .submit_with(
                &predict(8 * i),
                JobOptions::new()
                    .with_tenant(tenant)
                    .with_priority(Priority::Normal),
            )
            .expect("submit")
            .wait()
            .expect("served");
    }
    let search_resp = client.call(&small_search()).expect("search served");

    // 1) Every response carries its own span tree.
    let spans = &search_resp.telemetry.spans;
    assert_eq!(spans.len(), 1, "one job tree per response");
    let root = &spans[0];
    println!("search response span tree ({} nodes):", root.len());
    print_tree(root, 0);
    assert!(root.find("queued").is_some() && root.find("execute").is_some());

    // 2) Pull the full snapshot over the wire with a Scrape frame.
    let snap = client.scrape().expect("scrape");
    println!(
        "\nscraped {} counters, {} gauges, {} histograms, {} recent job trees",
        snap.counters.len(),
        snap.gauges.len(),
        snap.histograms.len(),
        snap.recent_jobs.len()
    );
    let served = snap.counter("serve.served").expect("served counter");
    let sim_events = snap
        .counter("sim.events_processed")
        .expect("sim events counter");
    let flow_solves = snap.counter("sim.flow_solves").unwrap_or(0);
    let heap_hw = snap
        .gauge("sim.heap_depth_high_water")
        .expect("heap high-water gauge");
    println!("  serve.served              = {served}");
    println!("  sim.events_processed      = {sim_events}");
    println!("  sim.flow_solves           = {flow_solves}");
    println!("  sim.heap_depth_high_water = {heap_hw}");
    assert!(served >= 4, "3 predicts + 1 search served");
    assert!(sim_events > 0, "the simulator published its event tally");
    assert!(heap_hw > 0, "the event heap was non-empty at some point");
    let waits = snap
        .histogram("serve.queue_wait_us.tenant.ops")
        .expect("per-tenant wait histogram");
    println!(
        "  tenant `ops` queue wait: {} samples, p50 {}us, p99 {}us",
        waits.count,
        waits.quantile(0.50),
        waits.quantile(0.99)
    );
    assert_eq!(waits.count, 2, "tenant `ops` queued twice");

    // 3) A quiesced service scrapes byte-identically: the snapshot is
    //    deterministic, and scraping is deliberately not self-counting.
    let a = client.scrape_raw().expect("scrape");
    let b = client.scrape_raw().expect("scrape");
    assert_eq!(a, b, "back-to-back scrapes of an idle service agree");
    println!(
        "\ntwo consecutive scrapes: byte-identical ({} bytes)",
        a.len()
    );

    // 4) The newest job tree accounts for the job's whole wall-clock:
    //    queued + execute + the wire server's appended reply span.
    let tree = snap.recent_jobs.last().expect("recent job tree");
    let covered = tree.child_coverage();
    println!(
        "newest job tree: {:?} total, {:?} covered by {} phases",
        tree.duration,
        covered,
        tree.children.len()
    );
    assert!(
        covered >= tree.duration.mul_f64(0.95),
        "phases must account for >=95% of the job ({covered:?} of {:?})",
        tree.duration
    );

    // 5) The recent job trees render straight to chrome://tracing.
    let trace = service.chrome_trace();
    assert!(trace.starts_with('['));
    assert!(trace.contains("\"execute\"") && trace.contains("\"simulation\""));
    println!(
        "chrome trace: {} bytes (load at chrome://tracing)",
        trace.len()
    );

    server.shutdown();

    // 6) The off switch: same service, ObsConfig::off — identical
    //    answers, empty scrape. The uninstrumented path is the
    //    *default* sim core, byte-identical to the reference (that
    //    equivalence is pinned by tests; here we just show the knob).
    let dark = Arc::new(
        MayaService::builder()
            .target(TARGET, EmulationSpec::new(ClusterSpec::h100(1, 2)))
            .workers(1)
            .observability(ObsConfig::off())
            .build()
            .expect("service builds"),
    );
    let resp = dark.call(predict(8)).expect("served");
    assert!(resp.telemetry.spans.is_empty(), "no spans when off");
    let dark_snap = dark.obs_snapshot();
    assert!(
        dark_snap.counters.is_empty()
            && dark_snap.gauges.is_empty()
            && dark_snap.histograms.is_empty()
            && dark_snap.recent_jobs.is_empty(),
        "nothing registered, nothing recorded"
    );
    println!(
        "\nObsConfig::off: same answers, empty scrape — the instruments were never registered"
    );

    // Give the drained sockets a beat on slow CI machines.
    std::thread::sleep(Duration::from_millis(20));
    println!("done");
}

fn print_tree(node: &maya_wire::SpanNode, depth: usize) {
    println!(
        "{:indent$}{} @{:?} for {:?}",
        "",
        node.name,
        node.start,
        node.duration,
        indent = 2 + depth * 2
    );
    for c in &node.children {
        print_tree(c, depth + 1);
    }
}
