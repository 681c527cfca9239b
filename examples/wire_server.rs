//! Serving Maya over the network: a `maya-wire` TCP server on
//! loopback plus typed clients doing a full round trip.
//!
//! One process plays both roles so the example is self-contained and
//! CI-runnable: it binds a [`WireServer`] over a two-target
//! [`MayaService`], then drives it from concurrent [`WireClient`]s —
//! pipelined predictions, a config search, a ground-truth measurement,
//! a deliberate overload burst, and a graceful drain shutdown.
//!
//! Run with `cargo run --release --example wire_server`.

use std::sync::Arc;

use maya::EmulationSpec;
use maya_hw::ClusterSpec;
use maya_serve::{MayaService, MeasureOutcome, Request};
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::Dtype;
use maya_wire::{AlgorithmKind, ConfigSpace, WireClient, WireServer};

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

fn main() {
    let h100 = ClusterSpec::h100(1, 4);
    let a40 = ClusterSpec::a40(1, 2);

    // The service is plain maya-serve — the wire layer wraps it
    // without touching engines. A memo cap keeps a network-facing
    // process bounded no matter what shapes clients send.
    let service = Arc::new(
        MayaService::builder()
            .target("h100-quad", EmulationSpec::new(h100.clone()))
            .target("a40-pair", EmulationSpec::new(a40.clone()))
            .workers(4)
            .queue_capacity(16)
            .memo_capacity(65_536)
            .build()
            .expect("service builds"),
    );
    let mut server = WireServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    let addr = server.local_addr();
    println!("wire server listening on {addr}");

    // Two concurrent clients over their own reused connections.
    std::thread::scope(|s| {
        s.spawn(|| {
            let client = WireClient::connect(addr).expect("connect");
            // Pipeline: both requests are in flight before either
            // response is read.
            let p1 = client
                .submit(&Request::Predict {
                    target: "h100-quad".into(),
                    jobs: vec![
                        job(&h100, ParallelConfig::default()),
                        job(
                            &h100,
                            ParallelConfig {
                                tp: 2,
                                ..Default::default()
                            },
                        ),
                    ],
                })
                .expect("submit predict");
            let p2 = client
                .submit(&Request::Measure {
                    target: "a40-pair".into(),
                    job: job(&a40, ParallelConfig::default()),
                })
                .expect("submit measure");
            let predict = p1.wait().expect("predict response");
            for (i, p) in predict.predictions().unwrap().iter().enumerate() {
                match p {
                    Ok(p) => println!("predict[{i}]: {:?}", p.iteration_time()),
                    Err(e) => println!("predict[{i}]: {e}"),
                }
            }
            let measure = p2.wait().expect("measure response");
            match measure.measurement().unwrap() {
                Ok(MeasureOutcome::Completed(m)) => println!(
                    "measure: {:?} ({:?} communicating, peak {} bytes)",
                    m.iteration_time, m.comm_time, m.peak_mem_bytes
                ),
                other => println!("measure: {other:?}"),
            }
        });
        s.spawn(|| {
            let client = WireClient::connect(addr).expect("connect");
            let search = client
                .call(&Request::Search {
                    target: "h100-quad".into(),
                    template: job(&h100, ParallelConfig::default()),
                    space: ConfigSpace {
                        tp: vec![1, 2],
                        pp: vec![1, 2],
                        microbatch_multiplier: vec![1, 2],
                        virtual_stages: vec![1],
                        activation_recompute: vec![false],
                        sequence_parallel: vec![false],
                        distributed_optimizer: vec![false],
                    },
                    algorithm: AlgorithmKind::CmaEs,
                    budget: 8,
                    seed: 42,
                })
                .expect("search response");
            let result = search.search().unwrap();
            println!(
                "search: {} trials, {:?}, best {:?}",
                result.trials.len(),
                result.stats,
                result.best.as_ref().map(|(config, _)| config.to_string())
            );
            let best = result.best_time().expect("search found a config");
            println!(
                "search best iteration time: {:.3} ms (queue wait {:?})",
                best.as_secs_f64() * 1e3,
                search.telemetry.queue_wait,
            );
        });
    });

    // Overload: burst past the 16-slot queue from one connection. The
    // shed requests come back as typed `overloaded` errors on the same
    // healthy connection — the wire never drops it.
    let client = WireClient::connect(addr).expect("connect");
    let burst: Vec<_> = (0..48)
        .map(|_| {
            client
                .submit(&Request::Predict {
                    target: "a40-pair".into(),
                    jobs: vec![job(&a40, ParallelConfig::default())],
                })
                .expect("submit")
        })
        .collect();
    let (mut served, mut shed) = (0, 0);
    for pending in burst {
        match pending.wait() {
            Ok(_) => served += 1,
            Err(e) if e.is_overloaded() => shed += 1,
            Err(e) => panic!("unexpected wire error: {e}"),
        }
    }
    println!("overload burst: {served} served, {shed} shed with typed Overloaded frames");
    assert!(served > 0, "admitted requests must be answered");

    let stats = server.stats();
    println!(
        "server stats: {} connections, {} admitted, {} overloaded, {} protocol errors",
        stats.connections, stats.admitted, stats.overloaded, stats.protocol_errors
    );

    // Graceful shutdown drains anything still in flight, then the
    // service keeps serving in-process callers.
    server.shutdown();
    let direct = service
        .call(Request::Predict {
            target: "h100-quad".into(),
            jobs: vec![job(&h100, ParallelConfig::default())],
        })
        .expect("service survives the front end");
    println!(
        "after shutdown, direct in-process call still served: {:?}",
        direct.predictions().unwrap()[0]
            .as_ref()
            .map(|p| p.iteration_time())
            .unwrap()
    );
}
