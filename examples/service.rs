//! Maya-Serve: one service, many tenants, many clusters.
//!
//! Registers two named cluster targets, fans concurrent client requests
//! (predictions and a recipe search) through the service's shared
//! worker pool, prints the per-request telemetry — then persists the
//! estimator memo and warm-starts a second service instance from it,
//! the restart story of a long-running deployment.
//!
//! ```text
//! cargo run --release --example service
//! ```

use maya::EmulationSpec;
use maya_hw::ClusterSpec;
use maya_search::{AlgorithmKind, ConfigSpace};
use maya_serve::{MayaService, Request};
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::Dtype;

fn job(cluster: &ClusterSpec, tp: u32) -> TrainingJob {
    TrainingJob {
        model: ModelSpec::gpt3_125m(),
        parallel: ParallelConfig {
            tp,
            ..Default::default()
        },
        flavor: FrameworkFlavor::Megatron,
        compile: false,
        global_batch: 64,
        world: cluster.num_gpus(),
        gpus_per_node: cluster.gpus_per_node,
        precision: Dtype::Bf16,
        iterations: 1,
    }
}

fn main() {
    let h100 = ClusterSpec::h100(1, 8);
    let a40 = ClusterSpec::a40(1, 4);
    // Process-unique dir: concurrent runs (or stale state from an older
    // binary with a different snapshot version) can't trip each other.
    let snapshot_dir =
        std::env::temp_dir().join(format!("maya-serve-example-{}", std::process::id()));

    let service = MayaService::builder()
        .target("h100-node", EmulationSpec::new(h100.clone()))
        .target("a40-node", EmulationSpec::new(a40.clone()))
        .workers(4)
        .queue_capacity(32)
        .snapshot_dir(&snapshot_dir)
        .build()
        .expect("service builds");
    println!("serving targets: {:?}", service.targets());

    // Concurrent clients: four prediction tenants plus one searching
    // for the best recipe — all multiplexed over one worker pool, all
    // H100 tenants sharing one estimator memo.
    let handles: Vec<_> = vec![
        service
            .submit(Request::Predict {
                target: "h100-node".into(),
                jobs: vec![job(&h100, 1), job(&h100, 2)],
            })
            .expect("admitted"),
        service
            .submit(Request::Predict {
                target: "h100-node".into(),
                jobs: vec![job(&h100, 2)], // same shapes: served from the shared cache
            })
            .expect("admitted"),
        service
            .submit(Request::Predict {
                target: "a40-node".into(),
                jobs: vec![job(&a40, 1)],
            })
            .expect("admitted"),
        service
            .submit(Request::Search {
                target: "h100-node".into(),
                template: job(&h100, 1),
                space: ConfigSpace {
                    tp: vec![1, 2, 4],
                    pp: vec![1, 2],
                    microbatch_multiplier: vec![1, 2],
                    virtual_stages: vec![1],
                    activation_recompute: vec![false],
                    sequence_parallel: vec![false],
                    distributed_optimizer: vec![false],
                },
                algorithm: AlgorithmKind::CmaEs,
                budget: 60,
                seed: 7,
            })
            .expect("admitted"),
    ];

    println!(
        "\n{:<10} {:>9} {:>12} {:>12} {:>10} {:>10}",
        "kind", "worker", "queue wait", "service", "hits", "misses"
    );
    for handle in handles {
        let resp = handle.wait().expect("response");
        let t = &resp.telemetry;
        println!(
            "{:<10} {:>9} {:>12.3?} {:>12.3?} {:>10} {:>10}",
            resp.kind(),
            t.worker,
            t.queue_wait,
            t.service_time,
            t.cache_delta.hits,
            t.cache_delta.misses
        );
        if let Some(result) = resp.search() {
            if let Some((config, _)) = &result.best {
                println!("           best recipe on h100-node: {config}");
            }
        }
    }

    let stats = service.stats();
    println!(
        "\nservice: {} requests served by {} workers over {} engine(s)",
        stats.served, stats.workers, stats.engines_built
    );

    // Persist the memo and warm-start a second service instance.
    let written = service.persist_snapshots().expect("snapshots persist");
    println!(
        "persisted {written} snapshot file(s) to {}",
        snapshot_dir.display()
    );
    drop(service);

    let restarted = MayaService::builder()
        .target("h100-node", EmulationSpec::new(h100.clone()))
        .target("a40-node", EmulationSpec::new(a40.clone()))
        .snapshot_dir(&snapshot_dir)
        .build()
        .expect("service rebuilds");
    let resp = restarted
        .call(Request::Predict {
            target: "h100-node".into(),
            jobs: vec![job(&h100, 2)],
        })
        .expect("warm response");
    println!(
        "after restart: repeated workload answered with {} cache misses ({} hits)",
        resp.telemetry.cache.misses, resp.telemetry.cache.hits
    );
    let _ = std::fs::remove_dir_all(&snapshot_dir);
}
