//! Maya-Serve: one coherent front door for many clients and many
//! clusters.
//!
//! The rest of the workspace turns a single `(cluster, estimator)` pair
//! into predictions; this crate turns that into a *service*. Clients
//! submit typed [`Request`]s — [`Request::Predict`],
//! [`Request::Search`], [`Request::Measure`] — against **named cluster
//! targets**, and get back a uniform [`Response`] carrying the result
//! plus [`Telemetry`] (queue wait, engine cache counters, stage
//! timings).
//!
//! Internally:
//!
//! - an engine table, laid out once by [`ServiceBuilder::build`] and
//!   immutable after it, holds **one lazily built
//!   [`maya::PredictionEngine`] per distinct [`maya::EmulationSpec`],
//!   one estimator + memo cache per distinct cluster** — concurrent
//!   clients targeting the same cluster share a single estimator memo
//!   (even when their pipeline knobs differ), so one tenant's trials
//!   warm every tenant's cache, and the expensive estimator build runs
//!   once per cluster; a submission resolves its target name there
//!   once and the queued job carries the slot it found;
//! - a **bounded QoS admission queue** schedules requests over one
//!   shared pool of worker threads (instead of a pool per engine):
//!   jobs carry a [`Priority`] class and an optional tenant
//!   ([`JobOptions`]), classes run High → Normal → Batch with
//!   earliest-deadline-first inside a class and a starvation guard
//!   aging `Batch` work upward, named tenants are quota-checked
//!   (max queued → [`ServeError::QuotaExceeded`], max in-flight →
//!   passed over at dispatch) with per-tenant counters in
//!   [`ServiceStats::tenants`](crate::ServiceStats);
//!   [`MayaService::submit`] blocks when the queue is full,
//!   [`MayaService::try_submit`] sheds load with
//!   [`ServeError::Overloaded`];
//! - optional **memo snapshots** (`CachingEstimator::snapshot` /
//!   `restore` under the hood) warm-start every target from
//!   `<dir>/<target>.memo` and persist what the process learned —
//!   a restarted service answers a repeated workload with zero
//!   estimator-cache misses.
//!
//! Determinism carries through from the engine: a response is
//! byte-identical to driving the [`maya::PredictionEngine`] directly.
//!
//! ```
//! use maya::EmulationSpec;
//! use maya_hw::ClusterSpec;
//! use maya_serve::{MayaService, Request};
//! use maya_torchlet::TrainingJob;
//!
//! let service = MayaService::builder()
//!     .target("h100-1", EmulationSpec::new(ClusterSpec::h100(1, 1)))
//!     .build()
//!     .unwrap();
//! let response = service
//!     .call(Request::Predict {
//!         target: "h100-1".into(),
//!         jobs: vec![TrainingJob::smoke()],
//!     })
//!     .unwrap();
//! let predictions = response.predictions().unwrap();
//! assert!(predictions[0].as_ref().unwrap().report().is_some());
//! ```

pub mod error;
pub mod job;
pub mod queue;
mod registry;
pub mod request;
pub mod serdes;
pub mod service;

pub use error::ServeError;
/// Re-exported observability vocabulary, so service users configure
/// and consume instrumentation without naming `maya-obs` directly.
pub use maya_obs::{Counter, ObsConfig, ObsSnapshot, SpanNode};

pub use job::{
    job_channel, CancelToken, JobConsumer, JobControl, JobHandle, JobOptions, JobOutcome,
    JobProducer, JobState, JobStep, Priority, ProgressEvents, SearchProgress, Verdict,
};
pub use queue::TenantStats;
pub use request::{MeasureOutcome, Payload, Request, Response, Telemetry};
pub use service::{MayaService, RestoreOutcome, ServiceBuilder, ServiceStats, SnapshotRestore};

#[cfg(test)]
mod tests {
    use super::*;
    use maya::{EmulationSpec, EstimatorChoice};
    use maya_estimator::{OracleEstimator, RuntimeEstimator};
    use maya_hw::ClusterSpec;
    use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
    use maya_trace::{CollectiveKind, Dtype, KernelKind, MemcpyKind, SimTime};
    use std::sync::{Arc, Condvar, Mutex};

    pub(crate) fn job(world: u32) -> TrainingJob {
        TrainingJob {
            model: ModelSpec::gpt3_125m(),
            parallel: ParallelConfig::default(),
            flavor: FrameworkFlavor::Megatron,
            compile: false,
            global_batch: 8 * world,
            world,
            gpus_per_node: 8,
            precision: Dtype::Bf16,
            iterations: 1,
        }
    }

    pub(crate) fn predict(target: &str, world: u32) -> Request {
        Request::Predict {
            target: target.into(),
            jobs: vec![job(world)],
        }
    }

    #[test]
    fn equal_spec_targets_share_one_cache() {
        let spec = EmulationSpec::new(ClusterSpec::h100(1, 2));
        let service = MayaService::builder()
            .target("tenant-a", spec.clone())
            .target("tenant-b", spec)
            .workers(2)
            .build()
            .unwrap();

        let first = service.call(predict("tenant-a", 2)).unwrap();
        assert!(first.telemetry.cache_delta.misses > 0, "cold cache misses");
        let after_first = service.cache_stats("tenant-a").unwrap();

        // The other tenant's identical workload is answered entirely
        // from the shared memo: not one new miss.
        let second = service.call(predict("tenant-b", 2)).unwrap();
        assert_eq!(second.telemetry.cache_delta.misses, 0, "shared cache");
        assert!(second.telemetry.cache_delta.hits > 0);
        assert_eq!(
            service.cache_stats("tenant-b").unwrap().misses,
            after_first.misses,
            "tenant-b sees tenant-a's cache"
        );
        assert_eq!(service.stats().engines_built, 1);
    }

    #[test]
    fn same_cluster_knob_variants_share_the_memo_but_not_the_engine() {
        let base = EmulationSpec::new(ClusterSpec::h100(1, 2));
        let service = MayaService::builder()
            .target("plain", base.clone())
            .target("no-dedup", base.with_dedup(false))
            .build()
            .unwrap();
        let a = service.call(predict("plain", 2)).unwrap();
        let b = service.call(predict("no-dedup", 2)).unwrap();
        assert!(a.telemetry.cache_delta.misses > 0);
        assert_eq!(
            b.telemetry.cache_delta.misses, 0,
            "same cluster: pipeline knobs must not fragment the memo"
        );
        assert_eq!(service.stats().engines_built, 2, "but engines differ");
    }

    #[test]
    fn distinct_cluster_targets_do_not_share() {
        let service = MayaService::builder()
            .target("h100", EmulationSpec::new(ClusterSpec::h100(1, 2)))
            .target("a40", EmulationSpec::new(ClusterSpec::a40(1, 2)))
            .build()
            .unwrap();
        let a = service.call(predict("h100", 2)).unwrap();
        let b = service.call(predict("a40", 2)).unwrap();
        assert!(a.telemetry.cache_delta.misses > 0);
        assert!(
            b.telemetry.cache_delta.misses > 0,
            "different clusters must never share answers"
        );
        assert_eq!(service.stats().engines_built, 2);
    }

    #[test]
    fn response_matches_direct_engine_call() {
        let spec = EmulationSpec::new(ClusterSpec::h100(1, 4));
        let service = MayaService::builder()
            .target("h100-4", spec)
            .build()
            .unwrap();
        let resp = service
            .call(Request::Predict {
                target: "h100-4".into(),
                jobs: vec![job(4)],
            })
            .unwrap();
        let via_service = resp.predictions().unwrap()[0].as_ref().unwrap();

        let direct_engine = maya::MayaBuilder::new(ClusterSpec::h100(1, 4))
            .build()
            .unwrap();
        let direct = direct_engine.predict_job(&job(4)).unwrap();
        assert_eq!(via_service.iteration_time(), direct.iteration_time());
        assert_eq!(via_service.workers_simulated, direct.workers_simulated);
        assert_eq!(via_service.trace_events, direct.trace_events);
        assert_eq!(resp.kind(), "predict");
        assert_eq!(resp.target, "h100-4");
    }

    #[test]
    fn snapshot_round_trip_warm_starts_a_second_service() {
        let dir = std::env::temp_dir().join(format!("maya-serve-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = EmulationSpec::new(ClusterSpec::h100(1, 2));

        let first = MayaService::builder()
            .target("h100-2", spec.clone())
            .snapshot_dir(&dir)
            .build()
            .unwrap();
        first.call(predict("h100-2", 2)).unwrap();
        assert_eq!(first.persist_snapshots().unwrap(), 1);
        drop(first);

        let second = MayaService::builder()
            .target("h100-2", spec)
            .snapshot_dir(&dir)
            .build()
            .unwrap();
        let resp = second.call(predict("h100-2", 2)).unwrap();
        assert_eq!(
            resp.telemetry.cache.misses, 0,
            "restored service must answer the repeated workload from the snapshot"
        );
        assert!(resp.telemetry.cache.hits > 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memo_capacity_bounds_the_service_caches_and_reports_evictions() {
        let service = MayaService::builder()
            .target("h100-1", EmulationSpec::new(ClusterSpec::h100(1, 1)))
            .memo_capacity(16)
            .build()
            .unwrap();
        let resp = service.call(predict("h100-1", 1)).unwrap();
        assert!(
            resp.telemetry.cache_delta.evictions > 0,
            "a 16-entry cap must evict during a real prediction: {:?}",
            resp.telemetry.cache_delta
        );
        let engine = service.engine("h100-1").unwrap();
        assert!(engine.cache().len() <= 16, "cap exceeded");
        // Answers are unaffected by eviction (pure recomputation).
        let direct = maya::MayaBuilder::new(ClusterSpec::h100(1, 1))
            .build()
            .unwrap();
        let via = resp.predictions().unwrap()[0].as_ref().unwrap();
        assert_eq!(
            via.iteration_time(),
            direct.predict_job(&job(1)).unwrap().iteration_time()
        );
    }

    #[test]
    fn capped_restore_reports_what_the_capacity_evicted() {
        use service::RestoreOutcome;
        let dir =
            std::env::temp_dir().join(format!("maya-serve-caprestore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = EmulationSpec::new(ClusterSpec::h100(1, 1));

        let warm = MayaService::builder()
            .target("node", spec.clone())
            .snapshot_dir(&dir)
            .build()
            .unwrap();
        warm.call(predict("node", 1)).unwrap();
        assert_eq!(warm.persist_snapshots().unwrap(), 1);
        drop(warm);

        // Restart with a cap far below the snapshot: the restore must
        // say how much of the "warm start" was immediately evicted.
        let capped = MayaService::builder()
            .target("node", spec)
            .snapshot_dir(&dir)
            .memo_capacity(16)
            .build()
            .unwrap();
        match &capped.snapshot_restores()[0].outcome {
            RestoreOutcome::Loaded { entries, evicted } => {
                assert!(*evicted > 0, "a 16-entry cap cannot hold the snapshot");
                assert!(entries > evicted, "something must stay resident");
                let engine = capped.engine("node").unwrap();
                assert_eq!(
                    entries - evicted,
                    engine.cache().len(),
                    "resident = loaded - evicted"
                );
            }
            other => panic!("expected Loaded, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn incompatible_snapshot_is_skipped_with_a_typed_warning_not_a_failed_build() {
        use maya_estimator::SnapshotError;
        use service::RestoreOutcome;

        let dir = std::env::temp_dir().join(format!("maya-serve-skew-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // A service snapshots its H100 target...
        let h100 = MayaService::builder()
            .target("node", EmulationSpec::new(ClusterSpec::h100(1, 1)))
            .snapshot_dir(&dir)
            .build()
            .unwrap();
        h100.call(predict("node", 1)).unwrap();
        assert_eq!(h100.persist_snapshots().unwrap(), 1);
        drop(h100);

        // ...then restarts with the target remapped to an A40. The
        // stale memo must be skipped (reported, cold start) — not
        // silently loaded, and not a fatal build error.
        let a40 = MayaService::builder()
            .target("node", EmulationSpec::new(ClusterSpec::a40(1, 1)))
            .snapshot_dir(&dir)
            .build()
            .expect("scope mismatch must not fail the build");
        let restores = a40.snapshot_restores();
        assert_eq!(restores.len(), 1);
        assert_eq!(restores[0].target, "node");
        assert!(
            matches!(
                restores[0].outcome,
                RestoreOutcome::Skipped {
                    reason: SnapshotError::ScopeMismatch { .. }
                }
            ),
            "{:?}",
            restores[0].outcome
        );
        let resp = a40.call(predict("node", 1)).unwrap();
        assert!(
            resp.telemetry.cache_delta.misses > 0,
            "the skipped snapshot must leave the target cold"
        );
        drop(a40);

        // A compatible restart reports how many entries it loaded.
        let again = MayaService::builder()
            .target("node", EmulationSpec::new(ClusterSpec::a40(1, 1)))
            .snapshot_dir(&dir)
            .build()
            .unwrap();
        // The A40 run overwrote the memo on persist? No — the first A40
        // service never persisted. The H100 memo is still there and
        // still skipped; persist the A40 memo now to check Loaded.
        again.call(predict("node", 1)).unwrap();
        again.persist_snapshots().unwrap();
        drop(again);

        let warm = MayaService::builder()
            .target("node", EmulationSpec::new(ClusterSpec::a40(1, 1)))
            .snapshot_dir(&dir)
            .build()
            .unwrap();
        match &warm.snapshot_restores()[0].outcome {
            RestoreOutcome::Loaded { entries, evicted } => {
                assert!(*entries > 0, "report the count");
                assert_eq!(*evicted, 0, "unbounded memo evicts nothing");
            }
            other => panic!("expected Loaded, got {other:?}"),
        }
        let resp = warm.call(predict("node", 1)).unwrap();
        assert_eq!(resp.telemetry.cache_delta.misses, 0, "warm start");

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A stale snapshot is skipped, but one that is not a snapshot at
    /// all means the directory itself is broken: the build fails.
    #[test]
    fn corrupt_snapshot_fails_the_service_build() {
        use maya_estimator::SnapshotError;

        let dir = std::env::temp_dir().join(format!("maya-serve-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("node.memo"), "definitely not a snapshot").unwrap();
        let err = MayaService::builder()
            .target("node", EmulationSpec::new(ClusterSpec::h100(1, 1)))
            .snapshot_dir(&dir)
            .build()
            .err()
            .expect("a corrupt snapshot must fail the build");
        assert!(
            matches!(err, ServeError::Snapshot(SnapshotError::NotASnapshot)),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fixed_custom_estimator_cannot_span_clusters() {
        use maya::EstimatorChoice;
        use maya_estimator::OracleEstimator;
        use std::sync::Arc;

        let h100 = ClusterSpec::h100(1, 2);
        let fixed = EstimatorChoice::Custom(Arc::new(OracleEstimator::new(&h100)));

        // One cluster (even via several targets): fine.
        assert!(MayaService::builder()
            .target("a", EmulationSpec::new(h100.clone()))
            .target("b", EmulationSpec::new(h100.clone()).with_dedup(false))
            .estimator(fixed.clone())
            .build()
            .is_ok());

        // Two distinct clusters: the fixed instance would silently
        // serve H100 timings for the A40 — rejected at build.
        let err = MayaService::builder()
            .target("h100", EmulationSpec::new(h100.clone()))
            .target("a40", EmulationSpec::new(ClusterSpec::a40(1, 2)))
            .estimator(fixed)
            .build()
            .err();
        assert!(
            matches!(err, Some(ServeError::CustomEstimatorSpansClusters)),
            "{err:?}"
        );

        // The factory form is the multi-cluster-safe escape hatch.
        let factory = EstimatorChoice::Factory {
            label: "oracle-per-cluster".into(),
            make: Arc::new(|cluster| Arc::new(OracleEstimator::new(cluster))),
        };
        let service = MayaService::builder()
            .target("h100", EmulationSpec::new(h100))
            .target("a40", EmulationSpec::new(ClusterSpec::a40(1, 2)))
            .estimator(factory)
            .build()
            .unwrap();
        assert!(service.call(predict("a40", 2)).is_ok());
    }

    #[test]
    fn unknown_target_rejected_at_submission() {
        let service = MayaService::builder()
            .target("known", EmulationSpec::new(ClusterSpec::h100(1, 1)))
            .build()
            .unwrap();
        let err = service.submit(predict("unknown", 1)).err().unwrap();
        assert!(matches!(err, ServeError::UnknownTarget(_)), "{err}");
    }

    #[test]
    fn duplicate_and_empty_target_sets_rejected() {
        let spec = EmulationSpec::new(ClusterSpec::h100(1, 1));
        assert!(matches!(
            MayaService::builder().build().err(),
            Some(ServeError::NoTargets)
        ));
        assert!(matches!(
            MayaService::builder()
                .target("x", spec.clone())
                .target("x", spec)
                .build()
                .err(),
            Some(ServeError::DuplicateTarget(_))
        ));
    }

    #[test]
    fn bounded_queue_sheds_load_and_still_answers_admitted_requests() {
        let service = MayaService::builder()
            .target("h100-2", EmulationSpec::new(ClusterSpec::h100(1, 2)))
            .workers(1)
            .queue_capacity(1)
            .build()
            .unwrap();
        // Flood far faster than one worker can drain a 1-slot queue:
        // predictions take milliseconds, try_submit takes microseconds.
        let mut handles = Vec::new();
        let mut shed = 0;
        for _ in 0..64 {
            match service.try_submit(predict("h100-2", 2)) {
                Ok(h) => handles.push(h),
                Err(ServeError::Overloaded) => shed += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(
            shed > 0,
            "a 1-slot queue must shed some of 64 instant submits"
        );
        assert!(!handles.is_empty(), "admission accepted some requests");
        for h in handles {
            let resp = h.wait().unwrap();
            assert!(resp.predictions().unwrap()[0].is_ok());
        }
    }

    #[test]
    fn shutdown_stops_new_submissions() {
        let mut service = MayaService::builder()
            .target("h100-1", EmulationSpec::new(ClusterSpec::h100(1, 1)))
            .build()
            .unwrap();
        service.shutdown();
        assert!(matches!(
            service.submit(predict("h100-1", 1)).err(),
            Some(ServeError::Stopped)
        ));
    }

    pub(crate) fn search(target: &str, world: u32, budget: usize) -> Request {
        Request::Search {
            target: target.into(),
            template: job(world),
            space: maya_search::ConfigSpace {
                tp: vec![1, 2],
                pp: vec![1, 2],
                microbatch_multiplier: vec![1, 2],
                virtual_stages: vec![1],
                activation_recompute: vec![true, false],
                sequence_parallel: vec![false],
                distributed_optimizer: vec![true, false],
            },
            algorithm: maya_search::AlgorithmKind::Random,
            budget,
            seed: 11,
        }
    }

    #[test]
    fn progress_stream_reconstructs_the_search_result_exactly() {
        let service = MayaService::builder()
            .target("h100-2", EmulationSpec::new(ClusterSpec::h100(1, 2)))
            .build()
            .unwrap();
        let handle = service.submit(search("h100-2", 2, 30)).unwrap();
        let events: Vec<SearchProgress> = handle.progress().collect();
        let outcome = handle.wait_outcome().unwrap();
        let JobOutcome::Done(resp) = outcome else {
            panic!("expected Done, got {outcome:?}");
        };
        let result = resp.search().unwrap();
        assert!(events.len() >= 2, "a 30-trial search spans several waves");
        let streamed: Vec<_> = events.iter().flat_map(|e| e.trials.clone()).collect();
        assert_eq!(
            streamed, result.trials,
            "concatenated progress batches must equal the final trials"
        );
        assert!(
            events.windows(2).all(|w| w[0].committed < w[1].committed),
            "committed counts must be strictly increasing"
        );
        assert_eq!(events.last().unwrap().committed, result.trials.len());
        assert_eq!(
            events.last().unwrap().best.map(|(c, _)| c),
            result.best.map(|(c, _)| c),
            "the last event's best must match the result"
        );
        let delta_misses: u64 = events.iter().map(|e| e.cache_delta.misses).sum();
        assert!(delta_misses > 0, "a cold search must report cache misses");
    }

    #[test]
    fn cancel_mid_search_returns_the_deterministic_committed_prefix() {
        // Eight ranks a trial: the waves after the first must outlast
        // the cancel's trip from this thread by a wide margin.
        let spec = EmulationSpec::new(ClusterSpec::h100(1, 8));
        // Reference: the same search, uncancelled, on a fresh service.
        let reference = MayaService::builder()
            .target("t", spec.clone())
            .build()
            .unwrap();
        let full = reference.call(search("t", 8, 60)).unwrap();
        let full = full.search().unwrap();

        let service = MayaService::builder().target("t", spec).build().unwrap();
        let handle = service.submit(search("t", 8, 60)).unwrap();
        let mut progress = handle.progress();
        let first = progress.next().expect("at least one wave before cancel");
        handle.cancel();
        assert!(service.engine("t").is_ok());
        let outcome = handle.wait_outcome().unwrap();
        let JobOutcome::Cancelled(Some(resp)) = outcome else {
            panic!("expected Cancelled with a prefix response, got {outcome:?}");
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
            partial.trials,
            full.trials[..partial.trials.len()],
            "the cancelled search must be an exact prefix of the uncancelled run"
        );
        assert_eq!(service.stats().cancelled, 1);
        assert_eq!(service.stats().served, 0);
    }

    #[test]
    fn queued_job_past_its_deadline_is_shed_without_touching_a_worker() {
        use std::time::Duration;
        let service = MayaService::builder()
            .target("h100-2", EmulationSpec::new(ClusterSpec::h100(1, 2)))
            .workers(1)
            .queue_capacity(4)
            .build()
            .unwrap();
        // Occupy the single worker with a long search...
        let blocker = service.submit(search("h100-2", 2, 40)).unwrap();
        // ...then queue a job whose budget is already hopeless.
        let doomed = service
            .submit_with(
                predict("h100-2", 2),
                JobOptions::new().with_deadline(Duration::ZERO),
            )
            .unwrap();
        let outcome = doomed.wait_outcome().unwrap();
        assert!(
            matches!(outcome, JobOutcome::Expired(None)),
            "a queue-expired job must be shed unrun, got {outcome:?}"
        );
        blocker.cancel();
        let _ = blocker.wait_outcome();
        let stats = service.stats();
        assert_eq!(stats.expired, 1, "telemetry must count the shed job");
    }

    #[test]
    fn a_deadline_too_large_to_represent_is_no_deadline() {
        // `admission instant + Duration::MAX` overflows `Instant`; the
        // options arrive off the wire, so that must not be a panic.
        let service = MayaService::builder()
            .target("h100-2", EmulationSpec::new(ClusterSpec::h100(1, 2)))
            .build()
            .unwrap();
        let forever = JobOptions::new().with_deadline(std::time::Duration::MAX);
        for submit in [MayaService::submit_with, MayaService::try_submit_with] {
            let handle = submit(&service, predict("h100-2", 2), forever.clone()).unwrap();
            let outcome = handle.wait_outcome().unwrap();
            assert!(matches!(outcome, JobOutcome::Done(_)), "{outcome:?}");
        }
        assert_eq!(service.stats().expired, 0);
    }

    #[test]
    fn deadline_mid_search_expires_at_a_wave_boundary_with_a_prefix() {
        use std::time::Duration;
        let service = MayaService::builder()
            .target("h100-2", EmulationSpec::new(ClusterSpec::h100(1, 2)))
            .build()
            .unwrap();
        // Warm the engine build (but not the memo for the search's own
        // shapes) so pickup happens well inside the budget, then hand
        // the cold search a budget only the first wave or two can meet:
        // the deadline fires at a wave boundary, never mid-trial.
        service.call(predict("h100-2", 2)).unwrap();
        let handle = service
            .submit_with(
                search("h100-2", 2, 5_000),
                JobOptions::new().with_deadline(Duration::from_millis(5)),
            )
            .unwrap();
        let outcome = handle.wait_outcome().unwrap();
        let JobOutcome::Expired(resp) = outcome else {
            panic!("a 5ms budget cannot cover a cold 5000-trial search: {outcome:?}");
        };
        // On a loaded machine the 5ms can elapse before a worker even
        // picks the job up — queue-shed (`None`) is then the correct
        // verdict, just not the path under test here. Only a pickup
        // inside the budget must produce the mid-run prefix.
        if let Some(resp) = resp {
            let partial = resp.search().unwrap();
            assert!(
                !partial.trials.is_empty() && partial.trials.len() < 5_000,
                "expected a partial prefix, got {} trials",
                partial.trials.len()
            );
        }
        assert_eq!(service.stats().expired, 1);
    }

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

    /// The oracle, with every call parked while its gate is shut. Only
    /// memo misses reach an engine's estimator, so a search whose first
    /// wave was predicted before the gate shut commits that wave (its
    /// first progress event) and then parks at its first new shape.
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

    /// The oracle as a service's estimator, with each of `gates`'
    /// clusters behind its gate.
    fn gated(gates: &[(ClusterSpec, Arc<Gate>)]) -> EstimatorChoice {
        let gates = gates.to_vec();
        EstimatorChoice::Factory {
            label: "gated-oracle".into(),
            make: Arc::new(move |cluster| {
                let oracle = OracleEstimator::new(cluster);
                match gates.iter().find(|(c, _)| c == cluster) {
                    Some((_, gate)) => Arc::new(Gated {
                        oracle,
                        gate: Arc::clone(gate),
                    }),
                    None => Arc::new(oracle),
                }
            }),
        }
    }

    /// A service builder with target `"t"` on an H100 pair behind `gate`.
    fn gated_t(gate: &Arc<Gate>) -> ServiceBuilder {
        let cluster = ClusterSpec::h100(1, 2);
        MayaService::builder()
            .target("t", EmulationSpec::new(cluster.clone()))
            .estimator(gated(&[(cluster, Arc::clone(gate))]))
    }

    /// Predicts the first wave of `search(target, 2, _)` straight on the
    /// target's engine, out of sight of the service's counters.
    fn warm_first_wave(service: &MayaService, target: &str) {
        let Request::Search {
            template,
            space,
            algorithm,
            seed,
            ..
        } = search(target, 2, 1)
        else {
            unreachable!("search() builds a search")
        };
        let engine = service.engine(target).unwrap();
        let objective = maya_search::Objective::new(&engine, template);
        maya_search::TrialScheduler::new(&objective)
            .with_space(space)
            .run_batched(algorithm, 1, seed);
    }

    /// A worker held by a search parked behind a gate.
    struct Blocker {
        search: JobHandle,
        gate: Arc<Gate>,
    }

    impl Blocker {
        /// Cancels the search, opens its gate and waits for its verdict.
        fn release(self) {
            self.search.cancel();
            self.gate.set_shut(false);
            let _ = self.search.wait_outcome();
        }
    }

    /// Occupies a worker of a [`gated_t`] service until
    /// [`Blocker::release`] (so later submissions really queue): starts
    /// a search under `opts` with its first wave warm and `gate` shut,
    /// and returns once its first progress event proves a worker picked
    /// it up. The search then parks at its next memo miss.
    fn occupy_worker(service: &MayaService, gate: &Arc<Gate>, opts: JobOptions) -> Blocker {
        warm_first_wave(service, "t");
        gate.set_shut(true);
        let search = service.submit_with(search("t", 2, 4_000), opts).unwrap();
        let _ = search.progress().next().expect("blocker running");
        Blocker {
            search,
            gate: Arc::clone(gate),
        }
    }

    /// A predict whose job shape no other submission in these tests
    /// uses (distinct `global_batch`): over a single worker, exactly
    /// the *first-executed* of several identical such requests pays
    /// the engine's memo misses — a race-free way to observe dispatch
    /// order through telemetry.
    fn cold_predict(target: &str) -> Request {
        let mut j = job(2);
        j.global_batch = 32;
        Request::Predict {
            target: target.into(),
            jobs: vec![j],
        }
    }

    #[test]
    fn high_priority_overtakes_queued_batch_jobs() {
        // An effectively infinite starvation guard: this test is about
        // class order alone, and a scheduling stall on a loaded
        // machine must not age the earlier-admitted Batch jobs into
        // the High class (aging has its own test below).
        let gate = Arc::new(Gate::default());
        let service = gated_t(&gate)
            .workers(1)
            .starvation_guard(std::time::Duration::from_secs(3600))
            .build()
            .unwrap();
        let blocker = occupy_worker(&service, &gate, JobOptions::new());
        let batch: Vec<JobHandle> = (0..3)
            .map(|_| {
                service
                    .submit_with(
                        cold_predict("t"),
                        JobOptions::new().with_priority(Priority::Batch),
                    )
                    .unwrap()
            })
            .collect();
        let high = service
            .submit_with(
                cold_predict("t"),
                JobOptions::new().with_priority(Priority::High),
            )
            .unwrap();
        blocker.release();
        // All four requests are the same previously-unseen shape, so
        // whichever executed first paid the cold misses. It must be
        // the High job, though it was submitted last.
        let high_delta = high.wait().unwrap().telemetry.cache_delta;
        assert!(
            high_delta.misses > 0,
            "the High job must execute before every queued Batch job \
             (it saw a warm cache instead: {high_delta:?})"
        );
        for h in batch {
            let delta = h.wait().unwrap().telemetry.cache_delta;
            assert_eq!(delta.misses, 0, "Batch ran after High: {delta:?}");
        }
    }

    #[test]
    fn over_quota_tenant_is_shed_while_other_tenants_proceed() {
        let gate = Arc::new(Gate::default());
        let service = gated_t(&gate)
            .workers(1)
            .queue_capacity(16)
            .tenant_max_queued(2)
            .build()
            .unwrap();
        let blocker = occupy_worker(&service, &gate, JobOptions::new());
        let burst = |p: Priority| JobOptions::new().with_priority(p).with_tenant("burst");
        let b1 = service
            .submit_with(predict("t", 2), burst(Priority::Batch))
            .unwrap();
        let b2 = service
            .submit_with(predict("t", 2), burst(Priority::Batch))
            .unwrap();
        // Third queued job for the same tenant: shed immediately, by
        // both submit flavors — and even at High priority (quota is
        // about fairness, not urgency).
        for attempt in [
            service.submit_with(predict("t", 2), burst(Priority::High)),
            service.try_submit_with(predict("t", 2), burst(Priority::Batch)),
        ] {
            match attempt {
                Err(ServeError::QuotaExceeded { tenant }) => assert_eq!(tenant, "burst"),
                other => panic!("expected QuotaExceeded, got {:?}", other.map(|h| h.id())),
            }
        }
        // The quiet tenant is untouched by the noisy one's quota.
        let quiet = service
            .submit_with(predict("t", 2), JobOptions::new().with_tenant("quiet"))
            .unwrap();
        blocker.release();
        quiet.wait().unwrap();
        b1.wait().unwrap();
        b2.wait().unwrap();
        let stats = service.stats();
        assert_eq!(stats.quota_shed, 2);
        let burst_stats = stats.tenant("burst").expect("burst tenant tracked");
        assert_eq!(burst_stats.quota_shed, 2);
        assert_eq!(burst_stats.admitted, 2);
        assert_eq!(burst_stats.served, 2);
        assert_eq!(burst_stats.queued, 0);
        assert_eq!(burst_stats.in_flight, 0);
        let quiet_stats = stats.tenant("quiet").expect("quiet tenant tracked");
        assert_eq!(quiet_stats.served, 1);
        assert_eq!(quiet_stats.quota_shed, 0);
    }

    #[test]
    fn tenant_queue_wait_percentiles_are_reported() {
        let gate = Arc::new(Gate::default());
        let service = gated_t(&gate).workers(1).build().unwrap();
        // Hold the only worker so the tenant's jobs accrue real queue
        // wait before dispatch.
        let blocker = occupy_worker(&service, &gate, JobOptions::new());
        let opts = || JobOptions::new().with_tenant("acme");
        let handles: Vec<JobHandle> = (0..4)
            .map(|_| service.submit_with(predict("t", 2), opts()).unwrap())
            .collect();
        blocker.release();
        for h in handles {
            h.wait().unwrap();
        }
        let stats = service.stats();
        let acme = stats.tenant("acme").expect("acme tenant tracked");
        // One wait sample per queue departure: all four dispatches.
        assert_eq!(acme.wait_samples, 4);
        assert!(
            acme.queue_wait_p50 <= acme.queue_wait_p99,
            "p50 {:?} must not exceed p99 {:?}",
            acme.queue_wait_p50,
            acme.queue_wait_p99
        );
        assert!(
            acme.queue_wait_p99 > std::time::Duration::ZERO,
            "jobs queued behind a blocked worker must show nonzero wait"
        );
    }

    #[test]
    fn starved_batch_job_ages_into_service() {
        use std::time::Duration;
        // Returns the Batch job's cache-delta misses: > 0 means it
        // executed before the High flood (first-executed of identical
        // cold shapes pays the misses), 0 means it was served after.
        let run = |guard: Duration, wait: Duration| -> u64 {
            let gate = Arc::new(Gate::default());
            let service = gated_t(&gate)
                .workers(1)
                .starvation_guard(guard)
                .build()
                .unwrap();
            let blocker = occupy_worker(&service, &gate, JobOptions::new());
            let batch = service
                .submit_with(
                    cold_predict("t"),
                    JobOptions::new().with_priority(Priority::Batch),
                )
                .unwrap();
            // Let the Batch job age *before* the High flood arrives:
            // whether the blocker is still busy afterwards (aged Batch
            // outranks the Highs) or finished mid-pause (Batch was the
            // only queued job), the aged run serves it first.
            std::thread::sleep(wait);
            let highs: Vec<JobHandle> = (0..3)
                .map(|_| {
                    service
                        .submit_with(
                            cold_predict("t"),
                            JobOptions::new().with_priority(Priority::High),
                        )
                        .unwrap()
                })
                .collect();
            blocker.release();
            let batch_misses = batch.wait().unwrap().telemetry.cache_delta.misses;
            for h in highs {
                h.wait().unwrap();
            }
            batch_misses
        };
        // With a tight guard, the Batch job ages up to High class
        // during the pause (2ms of queueing is enough); same class +
        // oldest admission then wins.
        assert!(
            run(Duration::from_millis(1), Duration::from_millis(25)) > 0,
            "a starved Batch job must age into service ahead of later High jobs"
        );
        // With an effectively infinite guard it yields to every High
        // job and sees the cache they warmed.
        assert_eq!(
            run(Duration::from_secs(3600), Duration::ZERO),
            0,
            "an un-aged Batch job must yield to High traffic"
        );
    }

    #[test]
    fn tenant_in_flight_cap_limits_concurrency_without_shedding() {
        // Tenant a's two searches run on clusters of their own, each
        // behind a gate that shuts once the search's first wave is warm:
        // each search commits that wave and then stays in flight, parked
        // at its next memo miss, until the test opens its gate. Tenant b
        // predicts on a third cluster, which has no gate.
        let gates = [Arc::new(Gate::default()), Arc::new(Gate::default())];
        let (h100, a100) = (ClusterSpec::h100(1, 2), ClusterSpec::a100(1, 2));
        let service = MayaService::builder()
            .target("a1", EmulationSpec::new(h100.clone()))
            .target("a2", EmulationSpec::new(a100.clone()))
            .target("b", EmulationSpec::new(ClusterSpec::a40(1, 2)))
            .estimator(gated(&[
                (h100, Arc::clone(&gates[0])),
                (a100, Arc::clone(&gates[1])),
            ]))
            .workers(2)
            .tenant_max_in_flight(1)
            .build()
            .unwrap();
        for (target, gate) in ["a1", "a2"].into_iter().zip(&gates) {
            warm_first_wave(&service, target);
            gate.set_shut(true);
        }
        let a_opts = || JobOptions::new().with_tenant("a");
        let a1 = service
            .submit_with(search("a1", 2, 4_000), a_opts())
            .unwrap();
        let _ = a1.progress().next().expect("a1 running");
        // a2 is admitted (no quota on queueing here) but must not be
        // dispatched while a1 runs, even with a worker idle.
        let a2 = service
            .submit_with(search("a2", 2, 4_000), a_opts())
            .unwrap();
        // Another tenant schedules straight past the capped one onto
        // the idle worker.
        let b = service
            .submit_with(predict("b", 2), JobOptions::new().with_tenant("b"))
            .unwrap();
        b.wait().unwrap();
        assert_eq!(a2.poll(), JobState::Queued, "in-flight cap must hold a2");
        let stats = service.stats();
        let a_stats = stats.tenant("a").unwrap();
        assert_eq!((a_stats.in_flight, a_stats.queued), (1, 1));
        // Finishing a1 releases the slot and a2 proceeds.
        a1.cancel();
        gates[0].set_shut(false);
        let _ = a1.wait_outcome();
        let _ = a2.progress().next().expect("a2 dispatched after a1");
        a2.cancel();
        gates[1].set_shut(false);
        let _ = a2.wait_outcome();
        let stats = service.stats();
        let a_stats = stats.tenant("a").unwrap();
        assert_eq!((a_stats.in_flight, a_stats.queued), (0, 0));
        assert_eq!(a_stats.cancelled, 2);
    }

    #[test]
    fn queued_deadline_fires_while_workers_sleep() {
        use std::time::{Duration, Instant};
        // workers = 2 with an in-flight cap of 1: tenant a's search,
        // parked behind its gate, holds one worker, a's second job is
        // queued but ineligible, and the *other* worker sits parked in
        // the scheduler with nothing to do. The queued job's deadline
        // must still fire on time — the scheduler wakes itself for the
        // earliest queued expiry instead of sleeping until the search
        // ends, which it cannot before the gate opens.
        let gate = Arc::new(Gate::default());
        let service = gated_t(&gate)
            .workers(2)
            .tenant_max_in_flight(1)
            .build()
            .unwrap();
        let a_opts = || JobOptions::new().with_tenant("a");
        let a1 = occupy_worker(&service, &gate, a_opts());
        let t0 = Instant::now();
        let doomed = service
            .submit_with(
                predict("t", 2),
                a_opts().with_deadline(Duration::from_millis(100)),
            )
            .unwrap();
        let outcome = doomed.wait_outcome().unwrap();
        assert!(
            matches!(outcome, JobOutcome::Expired(None)),
            "expected a queue-shed expiry, got {outcome:?}"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "the verdict must arrive at the deadline, not when the \
             blocker ends: {:?}",
            t0.elapsed()
        );
        a1.release();
    }

    #[test]
    fn cancelling_a_queued_job_wakes_the_scheduler() {
        use std::time::{Duration, Instant};
        // Same parked-worker setup, but the queued job has no deadline
        // at all: only the cancel poke can wake the scheduler to
        // discard it and deliver the verdict.
        let gate = Arc::new(Gate::default());
        let service = gated_t(&gate)
            .workers(2)
            .tenant_max_in_flight(1)
            .build()
            .unwrap();
        let a_opts = || JobOptions::new().with_tenant("a");
        let a1 = occupy_worker(&service, &gate, a_opts());
        let stuck = service.submit_with(predict("t", 2), a_opts()).unwrap();
        let t0 = Instant::now();
        stuck.cancel();
        let outcome = stuck.wait_outcome().unwrap();
        assert!(
            matches!(outcome, JobOutcome::Cancelled(None)),
            "expected a queue-discarded cancel, got {outcome:?}"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "the verdict must arrive at the cancel, not when the \
             blocker ends: {:?}",
            t0.elapsed()
        );
        a1.release();
    }

    #[test]
    fn queued_deadline_fires_even_when_every_worker_is_busy() {
        use std::time::{Duration, Instant};
        // The hard case: ONE worker, occupied by a search parked behind
        // its gate — no thread is parked on the queue and no further
        // traffic arrives. The sweeper must still deliver the queued
        // job's Expired verdict (and advance the counters) at its
        // deadline, not when the search ends.
        let gate = Arc::new(Gate::default());
        let service = gated_t(&gate).workers(1).build().unwrap();
        let blocker = occupy_worker(&service, &gate, JobOptions::new());
        let t0 = Instant::now();
        let doomed = service
            .submit_with(
                predict("t", 2),
                JobOptions::new().with_deadline(Duration::from_millis(100)),
            )
            .unwrap();
        let outcome = doomed.wait_outcome().unwrap();
        assert!(
            matches!(outcome, JobOutcome::Expired(None)),
            "expected a queue-shed expiry, got {outcome:?}"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "the verdict must arrive at the deadline, not when the \
             blocker ends: {:?}",
            t0.elapsed()
        );
        assert_eq!(service.stats().expired, 1, "counted at the deadline");
        assert!(
            !blocker.search.poll().is_terminal(),
            "the blocker must still be running — nothing but the \
             sweeper could have shed the job"
        );
        blocker.release();
    }

    #[test]
    fn cancelling_a_queued_job_works_with_every_worker_busy() {
        use std::time::{Duration, Instant};
        let gate = Arc::new(Gate::default());
        let service = gated_t(&gate).workers(1).build().unwrap();
        let blocker = occupy_worker(&service, &gate, JobOptions::new());
        let stuck = service.submit(predict("t", 2)).unwrap();
        let t0 = Instant::now();
        stuck.cancel();
        let outcome = stuck.wait_outcome().unwrap();
        assert!(
            matches!(outcome, JobOutcome::Cancelled(None)),
            "expected a queue-discarded cancel, got {outcome:?}"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "the verdict must arrive at the cancel, not when the \
             blocker ends: {:?}",
            t0.elapsed()
        );
        assert!(
            !blocker.search.poll().is_terminal(),
            "blocker still running"
        );
        blocker.release();
    }

    #[test]
    fn dead_queued_jobs_release_their_slots_without_a_worker() {
        use std::time::Duration;
        let gate = Arc::new(Gate::default());
        let service = gated_t(&gate).workers(1).queue_capacity(2).build().unwrap();
        let blocker = occupy_worker(&service, &gate, JobOptions::new());
        // Fill the whole queue with jobs whose budget is already gone.
        let doomed: Vec<JobHandle> = (0..2)
            .map(|_| {
                service
                    .submit_with(
                        predict("t", 2),
                        JobOptions::new().with_deadline(Duration::ZERO),
                    )
                    .unwrap()
            })
            .collect();
        // The old FIFO queue would shed this as Overloaded: the dead
        // jobs held their slots until the (busy) worker dequeued them.
        // The QoS queue purges them at this push and admits the job.
        let live = service
            .try_submit(predict("t", 2))
            .expect("dead entries must not hold queue slots");
        // Verdicts and counters arrived without any worker dequeue —
        // the single worker is still busy with the blocker.
        for d in doomed {
            assert!(matches!(
                d.wait_outcome().unwrap(),
                JobOutcome::Expired(None)
            ));
        }
        assert_eq!(service.stats().expired, 2, "expiry counted immediately");
        assert_eq!(service.stats().served, 0, "nothing has executed yet");
        blocker.release();
        live.wait().unwrap();
    }

    #[test]
    fn undrained_progress_coalesces_past_the_high_water_mark() {
        use std::time::Duration;
        let service = MayaService::builder()
            .target("t", EmulationSpec::new(ClusterSpec::h100(1, 2)))
            .progress_high_water(1)
            .build()
            .unwrap();
        let handle = service.submit(search("t", 2, 30)).unwrap();
        // Deliberately do not drain progress while the search runs.
        while !handle.poll().is_terminal() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let events: Vec<SearchProgress> = handle.progress().collect();
        let outcome = handle.wait_outcome().unwrap();
        let JobOutcome::Done(resp) = outcome else {
            panic!("expected Done, got {outcome:?}");
        };
        let result = resp.search().unwrap();
        assert_eq!(
            events.len(),
            1,
            "an undrained stream is bounded by the high-water mark"
        );
        let streamed: Vec<_> = events.iter().flat_map(|e| e.trials.clone()).collect();
        assert_eq!(
            streamed, result.trials,
            "coalescing must preserve the concatenation invariant"
        );
        assert_eq!(events.last().unwrap().committed, result.trials.len());
        assert!(
            service.stats().progress_coalesced >= 1,
            "merges must surface in telemetry: {:?}",
            service.stats().progress_coalesced
        );
    }

    #[test]
    fn qos_options_leave_results_byte_identical_to_the_plain_service() {
        // A single tenant submitting through the QoS machinery gets
        // byte-for-byte the answers of an unconfigured service: the
        // scheduler reorders and sheds, it never changes results.
        let spec = EmulationSpec::new(ClusterSpec::h100(1, 2));
        let plain = MayaService::builder()
            .target("t", spec.clone())
            .build()
            .unwrap();
        let qos = MayaService::builder()
            .target("t", spec)
            .tenant_max_queued(8)
            .tenant_max_in_flight(2)
            .starvation_guard(std::time::Duration::from_millis(50))
            .build()
            .unwrap();
        let want = plain.call(search("t", 2, 30)).unwrap();
        let got = qos
            .submit_with(
                search("t", 2, 30),
                JobOptions::new()
                    .with_priority(Priority::Batch)
                    .with_tenant("solo"),
            )
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            serde::to_string(&got.search().unwrap().trials),
            serde::to_string(&want.search().unwrap().trials),
            "QoS scheduling must not change search results"
        );
        assert_eq!(
            got.search().unwrap().best.map(|(c, _)| c),
            want.search().unwrap().best.map(|(c, _)| c)
        );
    }

    #[test]
    fn job_states_progress_through_the_machine() {
        let service = MayaService::builder()
            .target("h100-1", EmulationSpec::new(ClusterSpec::h100(1, 1)))
            .build()
            .unwrap();
        let handle = service.submit(predict("h100-1", 1)).unwrap();
        let control = handle.control();
        assert_eq!(handle.id(), control.id());
        let resp = handle.wait().unwrap();
        assert!(resp.predictions().unwrap()[0].is_ok());
        assert_eq!(control.poll(), JobState::Done);
        assert!(control.poll().is_terminal());
    }

    #[test]
    fn wait_shim_reports_cancellation_as_a_typed_error() {
        let service = MayaService::builder()
            .target("h100-1", EmulationSpec::new(ClusterSpec::h100(1, 1)))
            .workers(1)
            .build()
            .unwrap();
        let blocker = service.submit(search("h100-1", 1, 40)).unwrap();
        let queued = service.submit(predict("h100-1", 1)).unwrap();
        queued.cancel();
        blocker.cancel();
        let err = queued.wait().expect_err("cancelled");
        assert!(matches!(err, ServeError::Cancelled), "{err}");
    }

    #[test]
    fn telemetry_reports_queue_wait_and_stage_timings() {
        let service = MayaService::builder()
            .target("h100-1", EmulationSpec::new(ClusterSpec::h100(1, 1)))
            .build()
            .unwrap();
        let resp = service.call(predict("h100-1", 1)).unwrap();
        let t = &resp.telemetry;
        assert!(t.service_time >= t.stages.total() - t.stages.emulation);
        assert!(t.stages.simulation > std::time::Duration::ZERO);
        assert!(t.cache.hits + t.cache.misses > 0);
        assert_eq!(service.stats().served, 1);
    }
}
