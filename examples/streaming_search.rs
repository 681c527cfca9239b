//! The job-oriented serving flow over loopback TCP: submit a long
//! search, watch its progress stream live, bound another job with a
//! deadline, and cancel a third mid-flight.
//!
//! One process plays both roles so the example is self-contained and
//! CI-runnable: it binds a [`WireServer`] over a [`MayaService`], then
//! drives the [`WireClient`] job API end to end —
//!
//! 1. **stream**: a `Search` job's `Progress` frames arrive while it
//!    runs; their concatenated trial batches equal the final result
//!    exactly;
//! 2. **cancel**: a second identical search is cancelled after the
//!    first progress frame and comes back `Cancelled` with the
//!    deterministic committed prefix of run 1. It runs on a second
//!    service whose estimator is gated: the service's memo has seen only
//!    the search's first trial, so the search parks at its first new
//!    shape until the server has taken the cancel — by construction,
//!    not by timing;
//! 3. **deadline**: a job submitted behind a busy worker with a
//!    zero budget is shed as `Expired` without ever executing;
//! 4. **retry**: a burst against a 1-slot queue rides out the typed
//!    `overloaded` shedding with bounded exponential backoff.
//!
//! Run with `cargo run --release --example streaming_search`.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use maya::{EmulationSpec, EstimatorChoice};
use maya_estimator::{OracleEstimator, RuntimeEstimator};
use maya_hw::ClusterSpec;
use maya_serve::{MayaService, Request};
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::{CollectiveKind, Dtype, KernelKind, MemcpyKind, SimTime};
use maya_wire::{
    AlgorithmKind, Backoff, ConfigSpace, JobOptions, WireClient, WireJobOutcome, WireServer,
};

const TARGET: &str = "h100-quad";

/// A shut-or-open latch that [`Gated`] estimator calls pass through.
#[derive(Default)]
struct Gate {
    shut: Mutex<bool>,
    turned: Condvar,
}

impl Gate {
    fn set_shut(&self, shut: bool) {
        *self.shut.lock().unwrap() = shut;
        self.turned.notify_all();
    }

    fn pass(&self) {
        let mut shut = self.shut.lock().unwrap();
        while *shut {
            shut = self.turned.wait(shut).unwrap();
        }
    }
}

/// The oracle, with every call parked while its gate is shut. Only memo
/// misses reach an engine's estimator.
struct Gated {
    oracle: OracleEstimator,
    gate: Arc<Gate>,
}

impl RuntimeEstimator for Gated {
    fn kernel_time(&self, kernel: &KernelKind) -> SimTime {
        self.gate.pass();
        self.oracle.kernel_time(kernel)
    }

    fn memcpy_time(&self, bytes: u64, kind: MemcpyKind) -> SimTime {
        self.gate.pass();
        self.oracle.memcpy_time(bytes, kind)
    }

    fn collective_time(
        &self,
        kind: CollectiveKind,
        bytes: u64,
        ranks: &[u32],
        cluster: &ClusterSpec,
    ) -> SimTime {
        self.gate.pass();
        self.oracle.collective_time(kind, bytes, ranks, cluster)
    }

    fn name(&self) -> &'static str {
        "gated-oracle"
    }
}

fn job(cluster: &ClusterSpec) -> TrainingJob {
    TrainingJob {
        model: ModelSpec::gpt3_125m(),
        parallel: ParallelConfig::default(),
        flavor: FrameworkFlavor::Megatron,
        compile: false,
        global_batch: 16 * cluster.num_gpus(),
        world: cluster.num_gpus(),
        gpus_per_node: cluster.gpus_per_node,
        precision: Dtype::Bf16,
        iterations: 1,
    }
}

fn search(cluster: &ClusterSpec, budget: usize) -> Request {
    Request::Search {
        target: TARGET.into(),
        template: job(cluster),
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
        seed: 42,
    }
}

fn main() {
    let h100 = ClusterSpec::h100(1, 4);
    let service = Arc::new(
        MayaService::builder()
            .target(TARGET, EmulationSpec::new(h100.clone()))
            .workers(2)
            .queue_capacity(2)
            .memo_capacity(65_536)
            .build()
            .expect("service builds"),
    );
    let mut server = WireServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    let addr = server.local_addr();
    println!("wire server listening on {addr}");

    // 1) Stream a long search's progress live.
    let client = WireClient::connect(addr).expect("connect");
    let mut streaming = client.submit(&search(&h100, 40)).expect("submit search");
    let mut batches = 0usize;
    let mut streamed = Vec::new();
    while let Some(event) = streaming.next_progress() {
        batches += 1;
        println!(
            "progress {batches:2}: +{} trials ({} committed), best mfu {}, cache Δ {}h/{}m",
            event.trials.len(),
            event.committed,
            event
                .best
                .and_then(|(_, o)| o.mfu())
                .map_or("-".into(), |m| format!("{m:.3}")),
            event.cache_delta.hits,
            event.cache_delta.misses,
        );
        streamed.extend(event.trials);
    }
    let outcome = streaming.wait_outcome().expect("terminal frame");
    let WireJobOutcome::Done(resp) = outcome else {
        panic!("expected Done, got {outcome:?}");
    };
    let full = resp.search().expect("search payload").clone();
    assert!(batches >= 2, "a 40-trial search spans several waves");
    assert_eq!(
        serde::to_string(&streamed),
        serde::to_string(&full.trials),
        "streamed batches must reassemble the result byte-for-byte"
    );
    println!(
        "streamed search done: {} trials over {batches} progress frames, best {:.3} ms\n",
        full.trials.len(),
        full.best_time().expect("a config completed").as_secs_f64() * 1e3,
    );

    // 2) Cancel the same search mid-flight: the partial result is an
    //    exact prefix of the run above (deterministic pipeline +
    //    commit-boundary cancellation). The search runs on a service
    //    whose memo has seen only its first trial, and whose estimator
    //    then parks every miss: the search commits that trial (its
    //    first progress frame) and parks at its first new shape until
    //    the server has taken the cancel.
    let gate = Arc::new(Gate::default());
    let held = Arc::new(
        MayaService::builder()
            .target(TARGET, EmulationSpec::new(h100.clone()))
            .estimator(EstimatorChoice::Custom(Arc::new(Gated {
                oracle: OracleEstimator::new(&h100),
                gate: Arc::clone(&gate),
            })))
            .build()
            .expect("service builds"),
    );
    held.call(search(&h100, 1)).expect("first trial");
    gate.set_shut(true);
    let mut held_server = WireServer::bind("127.0.0.1:0", held).expect("bind");
    let held_client = WireClient::connect(held_server.local_addr()).expect("connect");
    let mut doomed = held_client
        .submit(&search(&h100, 40))
        .expect("submit search");
    let first = doomed.next_progress().expect("one wave before cancel");
    doomed.cancel().expect("send cancel frame");
    while held_server.stats().cancels == 0 {
        std::thread::yield_now();
    }
    gate.set_shut(false);
    println!(
        "cancelled after the first progress frame ({} trials committed)...",
        first.committed
    );
    match doomed.wait_outcome().expect("terminal frame") {
        WireJobOutcome::Cancelled(Some(resp)) => {
            let partial = resp.search().unwrap();
            assert!(partial.trials.len() < full.trials.len());
            assert_eq!(
                serde::to_string(&partial.trials),
                serde::to_string(&full.trials[..partial.trials.len()].to_vec()),
                "cancelled prefix must match the uncancelled run"
            );
            println!(
                "cancelled with {} committed trials — an exact prefix of the full run\n",
                partial.trials.len()
            );
        }
        other => panic!("expected Cancelled with a prefix, got {other:?}"),
    }
    held_server.shutdown();

    // 3) Deadlines shed queued work before it costs anything: park a
    //    long search on the worker pool, then submit a job whose
    //    budget is already gone.
    let mut blocker_a = client.submit(&search(&h100, 4_000)).expect("submit");
    let mut blocker_b = client.submit(&search(&h100, 4_000)).expect("submit");
    // Their first progress frames prove both searches are on workers
    // (and the admission queue is empty again).
    let _ = blocker_a.next_progress().expect("blocker A running");
    let _ = blocker_b.next_progress().expect("blocker B running");
    let hopeless = client
        .submit_with(
            &Request::Predict {
                target: TARGET.into(),
                jobs: vec![job(&h100)],
            },
            JobOptions::new().with_deadline(Duration::ZERO),
        )
        .expect("submit with deadline");
    match hopeless.wait_outcome().expect("terminal frame") {
        WireJobOutcome::Expired(None) => {
            println!(
                "deadline job shed while queued (service expired count: {})\n",
                service.stats().expired
            );
        }
        other => panic!("expected Expired(None), got {other:?}"),
    }
    blocker_a.cancel().expect("cancel");
    blocker_b.cancel().expect("cancel");
    let _ = blocker_a.wait_outcome();
    let _ = blocker_b.wait_outcome();

    // 4) Overload + retry: enough concurrent callers to overrun the
    //    2-slot queue are shed with typed frames; bounded backoff
    //    rides it out.
    std::thread::scope(|s| {
        for _ in 0..6 {
            s.spawn(|| {
                let client = WireClient::connect(addr).expect("connect");
                for _ in 0..3 {
                    client
                        .submit_with_retry(
                            &Request::Predict {
                                target: TARGET.into(),
                                jobs: vec![job(&h100)],
                            },
                            Backoff::default(),
                        )
                        .expect("retries ride out the shedding");
                }
            });
        }
    });
    let stats = server.stats();
    println!(
        "server stats: {} connections, {} admitted, {} overloaded, {} cancel frames",
        stats.connections, stats.admitted, stats.overloaded, stats.cancels
    );

    server.shutdown();
    println!("graceful shutdown complete");
}
