//! End-to-end exercise of `maya-serve`: concurrent clients, mixed
//! request kinds, two cluster targets, byte-identical results against
//! direct engine calls, and cross-process-style snapshot warm-starts.

use maya::{EmulationSpec, MayaBuilder};
use maya_hw::ClusterSpec;
use maya_search::{AlgorithmKind, ConfigSpace, Objective, TrialScheduler};
use maya_serve::{MayaService, Request};
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::Dtype;

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

fn service() -> MayaService {
    MayaService::builder()
        .target(H100_TARGET, EmulationSpec::new(h100_cluster()))
        .target(A40_TARGET, EmulationSpec::new(a40_cluster()))
        .workers(4)
        .queue_capacity(32)
        .build()
        .expect("service builds")
}

#[test]
fn concurrent_mixed_requests_match_direct_engine_calls() {
    let service = service();
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

    // Six concurrent clients: four predict tenants (both targets),
    // two searchers with different algorithms.
    let requests = vec![
        Request::Predict {
            target: H100_TARGET.into(),
            jobs: vec![job(&h100, ParallelConfig::default()), job(&h100, tp2)],
        },
        Request::Predict {
            target: H100_TARGET.into(),
            jobs: vec![job(&h100, pp2)],
        },
        Request::Predict {
            target: A40_TARGET.into(),
            jobs: vec![job(&a40, ParallelConfig::default())],
        },
        Request::Predict {
            target: A40_TARGET.into(),
            jobs: vec![job(&a40, tp2)],
        },
        Request::Search {
            target: H100_TARGET.into(),
            template: job(&h100, ParallelConfig::default()),
            space: search_space(),
            algorithm: AlgorithmKind::CmaEs,
            budget: 40,
            seed: 11,
        },
        Request::Search {
            target: H100_TARGET.into(),
            template: job(&h100, ParallelConfig::default()),
            space: search_space(),
            algorithm: AlgorithmKind::Random,
            budget: 30,
            seed: 5,
        },
    ];

    // Submit everything from distinct client threads, then gather.
    let responses: Vec<maya_serve::Response> = std::thread::scope(|s| {
        let handles: Vec<_> = requests
            .into_iter()
            .map(|req| {
                let service = &service;
                s.spawn(move || service.call(req).expect("served"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Reference: direct PredictionEngine / TrialScheduler runs, one
    // fresh engine per cluster (cold caches cannot change values, only
    // telemetry — every stage is deterministic).
    let h100_engine = MayaBuilder::new(h100.clone()).build().unwrap();
    let a40_engine = MayaBuilder::new(a40.clone()).build().unwrap();

    // Every prediction completed; the real value-level comparisons
    // against direct engine runs follow below, job by job.
    for resp in &responses {
        match resp.kind() {
            "predict" => {
                for served in resp.predictions().expect("predict payload") {
                    let served = served.as_ref().expect("prediction succeeds");
                    assert!(!served.oom(), "no test job OOMs");
                }
            }
            "search" => {}
            other => panic!("unexpected kind {other}"),
        }
    }

    // Byte-identical predict results, job by job.
    for (parallel, target) in [
        (ParallelConfig::default(), H100_TARGET),
        (tp2, H100_TARGET),
        (pp2, H100_TARGET),
        (ParallelConfig::default(), A40_TARGET),
        (tp2, A40_TARGET),
    ] {
        let (engine, cluster) = if target == H100_TARGET {
            (&h100_engine, &h100)
        } else {
            (&a40_engine, &a40)
        };
        let direct = engine.predict_job(&job(cluster, parallel)).unwrap();
        let served = responses
            .iter()
            .filter(|r| r.kind() == "predict" && r.target == target)
            .flat_map(|r| r.predictions().unwrap())
            .map(|p| p.as_ref().unwrap())
            .find(|p| {
                p.iteration_time() == direct.iteration_time()
                    && p.trace_events == direct.trace_events
            })
            .unwrap_or_else(|| panic!("no served prediction matches direct run of {parallel:?}"));
        assert_eq!(served.workers_emulated, direct.workers_emulated);
        assert_eq!(served.workers_simulated, direct.workers_simulated);
        assert_eq!(served.oom(), direct.oom());
    }

    // Byte-identical search results (best config, trials, stats,
    // convergence — everything but wall clock).
    for (algorithm, budget, seed) in [
        (AlgorithmKind::CmaEs, 40usize, 11u64),
        (AlgorithmKind::Random, 30, 5),
    ] {
        let objective = Objective::new(&h100_engine, job(&h100, ParallelConfig::default()));
        let direct = TrialScheduler::new(&objective)
            .with_space(search_space())
            .run(algorithm, budget, seed);
        let served = responses
            .iter()
            .filter_map(|r| r.search())
            .find(|s| s.trials == direct.trials)
            .unwrap_or_else(|| panic!("no served search matches direct {algorithm:?} run"));
        assert_eq!(
            served.best.as_ref().map(|(c, o)| (*c, *o)),
            direct.best.as_ref().map(|(c, o)| (*c, *o))
        );
        assert_eq!(served.stats, direct.stats);
        assert_eq!(served.convergence, direct.convergence);
    }

    // Two targets, two engines; every request was served.
    let stats = service.stats();
    assert_eq!(stats.engines_built, 2);
    assert_eq!(stats.served, 6);
}

#[test]
fn measure_requests_match_direct_testbed_runs() {
    let service = service();
    let a40 = a40_cluster();
    let j = job(&a40, ParallelConfig::default());
    let resp = service
        .call(Request::Measure {
            target: A40_TARGET.into(),
            job: j,
        })
        .expect("served");
    let served = match resp.measurement().expect("measure payload") {
        Ok(maya_serve::MeasureOutcome::Completed(m)) => m.clone(),
        other => panic!("unexpected outcome {other:?}"),
    };
    let direct = MayaBuilder::new(a40.clone())
        .build()
        .unwrap()
        .measure_actual(&j)
        .unwrap()
        .expect("fits");
    assert_eq!(served.iteration_time, direct.iteration_time);
    assert_eq!(served.rank_end_times, direct.rank_end_times);
    assert_eq!(served.peak_mem_bytes, direct.peak_mem_bytes);
}

#[test]
fn snapshot_from_one_service_warm_starts_the_next() {
    let dir = std::env::temp_dir().join(format!("maya-serve-integration-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let h100 = h100_cluster();
    let a40 = a40_cluster();
    let build = || {
        MayaService::builder()
            .target(H100_TARGET, EmulationSpec::new(h100.clone()))
            .target(A40_TARGET, EmulationSpec::new(a40.clone()))
            .snapshot_dir(&dir)
            .build()
            .expect("service builds")
    };
    let workload = |service: &MayaService| {
        for (target, cluster) in [(H100_TARGET, &h100), (A40_TARGET, &a40)] {
            service
                .call(Request::Predict {
                    target: target.into(),
                    jobs: vec![
                        job(cluster, ParallelConfig::default()),
                        job(
                            cluster,
                            ParallelConfig {
                                tp: 2,
                                ..Default::default()
                            },
                        ),
                    ],
                })
                .expect("served");
        }
    };

    let first = build();
    workload(&first);
    let cold_h100 = first.cache_stats(H100_TARGET).unwrap();
    assert!(cold_h100.misses > 0, "cold run must miss");
    assert_eq!(first.persist_snapshots().expect("persist"), 2);
    drop(first);

    // A brand-new service instance (fresh registry, fresh engines)
    // restores both targets' memos and answers the repeated workload
    // without a single estimator-cache miss.
    let second = build();
    workload(&second);
    for target in [H100_TARGET, A40_TARGET] {
        let stats = second.cache_stats(target).unwrap();
        assert_eq!(
            stats.misses, 0,
            "{target}: warm-started service must re-derive nothing"
        );
        assert!(stats.hits > 0, "{target}: repeat workload hits the memo");
    }

    // And the warm answers are identical to the cold ones.
    let direct = MayaBuilder::new(h100.clone()).build().unwrap();
    let reference = direct
        .predict_job(&job(&h100, ParallelConfig::default()))
        .unwrap();
    let warm = second
        .call(Request::Predict {
            target: H100_TARGET.into(),
            jobs: vec![job(&h100, ParallelConfig::default())],
        })
        .expect("served");
    let warm = warm.predictions().unwrap()[0].as_ref().unwrap();
    assert_eq!(warm.iteration_time(), reference.iteration_time());
    assert_eq!(warm.trace_events, reference.trace_events);

    let _ = std::fs::remove_dir_all(&dir);
}
