//! [`MayaService`]: the multi-tenant front door.
//!
//! Clients submit typed [`Request`]s against named cluster targets; a
//! bounded QoS admission queue (priority classes, EDF within a class,
//! a starvation guard and per-tenant quotas — see [`crate::queue`]'s
//! module docs) schedules them over one shared pool of worker threads.
//! The target set is fixed at [`ServiceBuilder::build`], which lays out
//! one engine slot per distinct [`EmulationSpec`] (`registry.rs`); a
//! submission resolves its target name to that slot once and the queued
//! job carries it, so concurrent clients of the same cluster shape
//! share a single prediction engine — and its estimator memo — and a
//! worker never looks a target up.
//!
//! Every pipeline stage is deterministic and the memo caches pure
//! functions, so a response is byte-identical to calling the engine
//! directly; the service adds multiplexing, admission control and
//! telemetry, never different answers.
//!
//! With a snapshot directory configured, engines warm-start from
//! `<dir>/<target>.memo` at build and [`MayaService::persist_snapshots`]
//! writes the current memos back — the restart story for a long-running
//! deployment.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use maya::{EmulationSpec, EstimatorChoice, PredictionEngine, StageTimings};
use maya_estimator::{CacheStats, SnapshotError};
use maya_obs::{
    chrome_trace_json, Counter, Histogram, JobTreeRing, ObsConfig, ObsSnapshot, Registry, SpanNode,
};
use maya_search::{
    ConfigPoint, Objective, SearchObserver, TrialOutcome, TrialRecord, TrialScheduler,
};

use crate::error::ServeError;
use crate::job::{
    job_channel, CancelToken, JobControl, JobHandle, JobOptions, JobOutcome, JobProducer, JobState,
    QueuedJob, SearchProgress,
};
use crate::queue::{AdmissionQueue, QueueConfig, QueueObs, TenantStats};
use crate::registry::{EngineTable, Recipe};
use crate::request::{MeasureOutcome, Payload, Request, Response, Telemetry};

/// The service's observability surface: one [`Registry`] every layer
/// publishes into and the ring of recent job span trees. Built from the [`ObsConfig`] the
/// [`ServiceBuilder::observability`] chose — with it off the registry
/// is a detached one (its handles still count, since [`ServiceStats`]
/// reads them, but nothing is registered for scraping), and no spans
/// or trees are recorded at all.
struct ServiceObs {
    config: ObsConfig,
    registry: Registry,
    job_trees: JobTreeRing,
    /// Service times by priority class, microseconds, indexed by
    /// `Priority::level` ("serve.service_time_us.{high,normal,batch}").
    service_by_class: [Histogram; 3],
}

impl ServiceObs {
    fn new(config: ObsConfig) -> ServiceObs {
        let registry = if config.enabled() {
            Registry::new()
        } else {
            Registry::detached()
        };
        ServiceObs {
            config,
            service_by_class: [
                registry.histogram("serve.service_time_us.high"),
                registry.histogram("serve.service_time_us.normal"),
                registry.histogram("serve.service_time_us.batch"),
            ],
            registry,
            job_trees: JobTreeRing::default(),
        }
    }
}

/// State shared by the service handle and its workers.
struct Shared {
    table: EngineTable,
    next_job_id: AtomicU64,
    served: Counter,
    cancelled: Counter,
    expired: Counter,
    panicked: Counter,
    /// Progress events merged under backpressure (see
    /// [`ServiceBuilder::progress_high_water`]).
    progress_coalesced: Counter,
    progress_high_water: usize,
    obs: ServiceObs,
}

/// Configures and builds a [`MayaService`].
pub struct ServiceBuilder {
    targets: Vec<(String, EmulationSpec)>,
    estimator: EstimatorChoice,
    workers: usize,
    queue_capacity: usize,
    starvation_guard: Duration,
    tenant_max_queued: Option<usize>,
    tenant_max_in_flight: Option<usize>,
    progress_high_water: usize,
    snapshot_dir: Option<PathBuf>,
    memo_capacity: Option<usize>,
    observability: ObsConfig,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        ServiceBuilder {
            targets: Vec::new(),
            estimator: EstimatorChoice::Oracle,
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(2),
            queue_capacity: 64,
            starvation_guard: Duration::from_millis(500),
            tenant_max_queued: None,
            tenant_max_in_flight: None,
            progress_high_water: 256,
            snapshot_dir: None,
            memo_capacity: None,
            observability: ObsConfig::default(),
        }
    }
}

impl ServiceBuilder {
    /// Empty builder: oracle estimator, pool sized to the machine,
    /// 64-slot admission queue.
    pub fn new() -> Self {
        ServiceBuilder::default()
    }

    /// Registers a named cluster target. Targets with *equal* specs
    /// share one engine (and memo cache); names must be unique.
    pub fn target(mut self, name: impl Into<String>, spec: EmulationSpec) -> Self {
        self.targets.push((name.into(), spec));
        self
    }

    /// Sets the estimator choice, instantiated once per distinct
    /// cluster. [`EstimatorChoice::Custom`] is a single fixed instance
    /// and is therefore rejected at build time when targets span more
    /// than one distinct cluster — use [`EstimatorChoice::Factory`]
    /// for multi-cluster services with bespoke estimators.
    pub fn estimator(mut self, choice: EstimatorChoice) -> Self {
        self.estimator = choice;
        self
    }

    /// Sets the shared worker-pool size (min 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Sets the bounded admission-queue capacity (min 1). When full,
    /// [`MayaService::submit`] blocks and
    /// [`MayaService::try_submit`] returns [`ServeError::Overloaded`].
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n.max(1);
        self
    }

    /// Sets the starvation guard (default 500ms): a queued job is
    /// promoted one priority class for every `interval` it has waited,
    /// so [`crate::Priority::Batch`] work ages into service instead of
    /// starving under a stream of higher-priority submissions.
    pub fn starvation_guard(mut self, interval: Duration) -> Self {
        self.starvation_guard = interval.max(Duration::from_nanos(1));
        self
    }

    /// Caps how many jobs one named tenant may hold *queued* at once
    /// (min 1; unlimited by default). A submission over the cap is
    /// shed immediately with [`ServeError::QuotaExceeded`] — by both
    /// `submit` and `try_submit` — while other tenants' traffic is
    /// untouched. Anonymous jobs (no
    /// [`JobOptions::tenant`](crate::JobOptions)) are exempt.
    pub fn tenant_max_queued(mut self, n: usize) -> Self {
        self.tenant_max_queued = Some(n.max(1));
        self
    }

    /// Caps how many jobs one named tenant may have *executing* at
    /// once (min 1; unlimited by default). Over-cap entries stay
    /// queued — holding their queue slots — until one of the tenant's
    /// running jobs finishes; other tenants schedule past them.
    pub fn tenant_max_in_flight(mut self, n: usize) -> Self {
        self.tenant_max_in_flight = Some(n.max(1));
        self
    }

    /// Bounds every job's buffered progress stream to `events` pending
    /// events (default 256, min 1). Past the mark, adjacent wave
    /// events are coalesced — trial batches concatenate in commit
    /// order, best-so-far and cache deltas merge — so a client that
    /// never drains [`crate::JobHandle::progress`] on a long search
    /// costs bounded memory instead of one event per wave forever. The
    /// "concatenated events == final trials" invariant is preserved;
    /// merges are counted in [`ServiceStats::progress_coalesced`].
    pub fn progress_high_water(mut self, events: usize) -> Self {
        self.progress_high_water = events.max(1);
        self
    }

    /// Arms per-target memo snapshots under `dir`: engines warm-start
    /// from `<dir>/<target>.memo` when present, and
    /// [`MayaService::persist_snapshots`] writes back there.
    pub fn snapshot_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.snapshot_dir = Some(dir.into());
        self
    }

    /// Bounds every per-cluster estimator memo to at most `entries` in
    /// all; 0 keeps nothing. Eviction is a sampled LRU (see
    /// [`maya_estimator::CachingEstimator::with_capacity`]). Unbounded
    /// by default. A service that accepts requests over the network
    /// should set a cap: each distinct kernel shape a client submits
    /// becomes a memo entry, so an open endpoint with an unbounded memo
    /// is an unbounded-memory liability. Evictions surface in
    /// [`Telemetry`] through
    /// [`maya_estimator::CacheStats::evictions`].
    pub fn memo_capacity(mut self, entries: usize) -> Self {
        self.memo_capacity = Some(entries);
        self
    }

    /// Sets the observability switch ([`ObsConfig::on`] by default).
    /// On, the service keeps the scrapeable registry (queue depth,
    /// shed counters, wait/service histograms per tenant and priority
    /// class), the per-job lifecycle tree on [`Telemetry::spans`] and
    /// the ring of recent trees [`MayaService::chrome_trace`] renders.
    /// [`ObsConfig::off`] restores the
    /// uninstrumented cost profile; [`ServiceStats`] keeps working
    /// either way.
    pub fn observability(mut self, config: ObsConfig) -> Self {
        self.observability = config;
        self
    }

    /// Builds the service and spawns its worker pool.
    pub fn build(self) -> Result<MayaService, ServeError> {
        if self.targets.is_empty() {
            return Err(ServeError::NoTargets);
        }
        let obs = ServiceObs::new(self.observability);
        let reg = &obs.registry;
        // Every engine the table ever builds publishes its sim tallies
        // into these shared registry-backed cells.
        let sim_obs = obs.config.enabled().then(|| maya::SimObs {
            events: reg.counter("sim.events_processed"),
            heap_pops: reg.counter("sim.heap_pops"),
            heap_depth_high_water: reg.gauge("sim.heap_depth_high_water"),
            flow_solves: reg.counter("sim.flow_solves"),
            abandoned_replays: reg.counter("sim.abandoned_replays"),
        });
        let table = EngineTable::new(
            self.targets,
            Recipe {
                estimator: self.estimator,
                memo_capacity: self.memo_capacity,
                sim_obs,
            },
        )?;
        let mut restores = Vec::new();
        if let Some(dir) = &self.snapshot_dir {
            // Name order: a deterministic restore (and report) order.
            for (name, slot) in table.targets() {
                let path = snapshot_file(dir, name);
                if !path.exists() {
                    continue;
                }
                // The scope check rejects a memo written under a
                // different cluster or estimator configuration — e.g.
                // a target whose spec changed across restarts. Such a
                // snapshot is *stale, not fatal*: the service starts
                // cold on that target and reports a typed warning
                // (failing the whole build would turn every spec
                // change into a manual snapshot cleanup). Unreadable
                // or corrupt files still fail the build — they mean
                // the snapshot directory itself is broken.
                let engine = slot.engine();
                let evictions_before = engine.cache_stats().evictions;
                match engine.cache().load_snapshot(&path, &slot.memo_scope()) {
                    Ok(entries) => {
                        // With a memo cap smaller than the snapshot,
                        // part of the restore is evicted on the spot —
                        // report it so "warm start" is not silently a
                        // cold one.
                        let evicted = (engine.cache_stats().evictions - evictions_before) as usize;
                        if evicted > 0 {
                            eprintln!(
                                "[maya-serve] target {name:?}: memo capacity evicted \
                                 {evicted} of {entries} restored snapshot entries"
                            );
                        }
                        restores.push(SnapshotRestore {
                            target: name.clone(),
                            outcome: RestoreOutcome::Loaded { entries, evicted },
                        });
                    }
                    Err(
                        reason @ (SnapshotError::ScopeMismatch { .. }
                        | SnapshotError::EstimatorMismatch { .. }
                        | SnapshotError::Version(_)),
                    ) => {
                        eprintln!(
                            "[maya-serve] target {name:?}: skipping incompatible snapshot \
                             {path:?}: {reason}"
                        );
                        restores.push(SnapshotRestore {
                            target: name.clone(),
                            outcome: RestoreOutcome::Skipped { reason },
                        });
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        }
        let queue_obs = QueueObs {
            depth: reg.gauge("serve.queue.depth"),
            depth_high_water: reg.gauge("serve.queue.depth_high_water"),
            wait_by_class: [
                reg.histogram("serve.queue_wait_us.high"),
                reg.histogram("serve.queue_wait_us.normal"),
                reg.histogram("serve.queue_wait_us.batch"),
            ],
            shed_expired: reg.counter("serve.queue.shed_expired"),
            shed_cancelled: reg.counter("serve.queue.shed_cancelled"),
            quota_shed: reg.counter("serve.queue.quota_shed"),
        };
        let shared = Arc::new(Shared {
            table,
            next_job_id: AtomicU64::new(1),
            served: reg.counter("serve.served"),
            cancelled: reg.counter("serve.cancelled"),
            expired: reg.counter("serve.expired"),
            panicked: reg.counter("serve.panicked"),
            progress_coalesced: reg.counter("serve.progress_coalesced"),
            progress_high_water: self.progress_high_water,
            obs,
        });
        let queue = Arc::new(AdmissionQueue::new(
            QueueConfig {
                capacity: self.queue_capacity,
                starvation_guard: self.starvation_guard,
                tenant_max_queued: self.tenant_max_queued,
                tenant_max_in_flight: self.tenant_max_in_flight,
            },
            queue_obs,
        ));
        // Thread spawn can fail under resource exhaustion; a service
        // that cannot field its full worker pool reports the typed
        // `Stopped` (no worker will ever answer) instead of panicking
        // mid-build. The partial pool is closed and joined first so
        // the error path leaks nothing.
        let abort_pool = |workers: Vec<JoinHandle<()>>| {
            queue.close();
            for handle in workers {
                let _ = handle.join();
            }
            ServeError::Stopped
        };
        let mut workers: Vec<JoinHandle<()>> = Vec::with_capacity(self.workers);
        for idx in 0..self.workers {
            let shared = Arc::clone(&shared);
            let queue = Arc::clone(&queue);
            match std::thread::Builder::new()
                .name(format!("maya-serve-{idx}"))
                .spawn(move || worker_loop(idx, &shared, &queue))
            {
                Ok(handle) => workers.push(handle),
                Err(_) => return Err(abort_pool(workers)),
            }
        }
        // The sweeper delivers expired/cancelled-while-queued verdicts
        // on time even when every worker above is busy on a long job
        // (workers only purge when they touch the queue). It exits
        // when the queue closes and joins with the pool at shutdown.
        let sweeper = {
            let queue = Arc::clone(&queue);
            match std::thread::Builder::new()
                .name("maya-serve-sweep".into())
                .spawn(move || queue.sweep())
            {
                Ok(handle) => handle,
                Err(_) => return Err(abort_pool(workers)),
            }
        };
        Ok(MayaService {
            shared,
            queue,
            workers,
            sweeper: Some(sweeper),
            queue_capacity: self.queue_capacity,
            snapshot_dir: self.snapshot_dir,
            restores,
        })
    }
}

/// What happened to one target's memo snapshot at service start.
#[derive(Debug)]
pub struct SnapshotRestore {
    /// The cluster target the snapshot belongs to.
    pub target: String,
    /// Whether the snapshot was loaded or skipped.
    pub outcome: RestoreOutcome,
}

/// Outcome of one snapshot restore attempt (reported, not silent).
#[derive(Debug)]
pub enum RestoreOutcome {
    /// The snapshot was restored; this many memo entries were loaded.
    Loaded {
        /// Entries inserted into the target's memo.
        entries: usize,
        /// Of those, how many the memo capacity evicted again during
        /// the restore itself (0 when unbounded or when the snapshot
        /// fits). `entries - evicted` is what actually stayed warm.
        evicted: usize,
    },
    /// The snapshot exists but was written under an incompatible scope
    /// (different cluster/estimator configuration) or format version;
    /// the target started cold. The file is left in place — a rollback
    /// to the previous configuration would pick it up again.
    Skipped {
        /// Why the snapshot was rejected.
        reason: SnapshotError,
    },
}

/// Snapshot path for one target.
///
/// The escaping is injective even on case-insensitive filesystems
/// (macOS/Windows defaults): ASCII lowercase, digits and `-` pass
/// through, every other byte — uppercase included, plus `_`, the
/// escape introducer — becomes lowercase `_xx` hex. Distinct target
/// names can therefore never collide on one file and cross-wire their
/// memos.
fn snapshot_file(dir: &Path, target: &str) -> PathBuf {
    let mut safe = String::with_capacity(target.len());
    for b in target.bytes() {
        match b {
            b'a'..=b'z' | b'0'..=b'9' | b'-' => safe.push(b as char),
            _ => {
                use std::fmt::Write;
                // Writing into a String cannot fail.
                let _ = write!(safe, "_{b:02x}");
            }
        }
    }
    dir.join(format!("{safe}.memo"))
}

fn worker_loop(idx: usize, shared: &Shared, queue: &AdmissionQueue) {
    // `pop` returns the most urgent eligible job under the QoS policy
    // (priority class promoted by age, EDF within a class, per-tenant
    // in-flight caps); `None` means the queue is closed and drained.
    while let Some(work) = queue.pop() {
        serve(idx, shared, queue, work);
    }
}

/// Takes one popped job to its terminal state.
fn serve(idx: usize, shared: &Shared, queue: &AdmissionQueue, work: QueuedJob) {
    // Dead entries are purged inside the queue at every scheduling
    // point, so the first two arms only cover the race between selection
    // and pickup: a job whose budget ran out (deadline enforcement,
    // part 1) or that was cancelled in that window is shed *here*, before
    // any engine or pipeline work — load shedding at its cheapest point.
    // lint:allow(wall-clock-in-output): deadline shedding — load-shedding input, never serialized
    let verdict = if work.expires.is_some_and(|d| Instant::now() >= d) {
        Some(JobOutcome::Expired(None))
    } else if work.cancel.is_cancelled() {
        Some(JobOutcome::Cancelled(None))
    } else {
        work.producer.set_running();
        // A panicking request must not kill the worker (the pool would
        // silently shrink and later requests would hang in the queue):
        // catch it and keep serving. A panic yields no verdict, so the
        // producer is dropped below and the waiting client gets
        // `ServeError::Stopped` instead of blocking forever.
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(idx, shared, &work)))
        {
            Ok(outcome) => {
                let telemetry = outcome.response().map(|r| &r.telemetry);
                if let Some(t) = telemetry {
                    shared.obs.service_by_class[usize::from(work.priority.level().min(2))]
                        .record_duration(t.service_time);
                }
                if shared.obs.config.enabled() {
                    if let Some(tree) = telemetry.and_then(|t| t.spans.first()) {
                        shared.obs.job_trees.record(work.id, tree.clone());
                    }
                }
                Some(outcome)
            }
            Err(panic) => {
                shared.panicked.inc();
                let label = format!("{} on {:?}", work.req.kind(), work.req.target());
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_string());
                eprintln!("[maya-serve] worker {idx}: request {label} panicked: {msg}");
                None
            }
        }
    };
    let state = verdict.as_ref().map_or(JobState::Failed, JobOutcome::state);
    match state {
        JobState::Done => shared.served.inc(),
        JobState::Cancelled => shared.cancelled.inc(),
        JobState::Expired => shared.expired.inc(),
        _ => {}
    }
    let service_time = verdict
        .as_ref()
        .and_then(JobOutcome::response)
        .map(|r| r.telemetry.service_time);
    // Counters settle before the verdict is delivered, so a client
    // reading stats right after `wait()` sees them.
    queue.finished(work.tenant.as_deref(), state, service_time);
    // The job's one terminal transition. Without a verdict the
    // producer simply goes out of scope: that *is* `Failed`.
    if let Some(outcome) = verdict {
        work.producer.complete(outcome);
    }
}

/// Streams a running search's commits out as [`SearchProgress`] events
/// and enforces the deadline at wave boundaries.
struct ProgressForwarder<'a> {
    job: &'a JobProducer<JobOutcome>,
    cancel: &'a CancelToken,
    /// Service-wide count of events merged under backpressure.
    coalesced: &'a Counter,
    engine: &'a PredictionEngine,
    last_cache: CacheStats,
    pending: Vec<TrialRecord>,
    best: Option<(ConfigPoint, TrialOutcome)>,
    expires: Option<Instant>,
    deadline_fired: &'a AtomicBool,
}

impl SearchObserver for ProgressForwarder<'_> {
    fn trial_committed(
        &mut self,
        record: &TrialRecord,
        best: Option<&(ConfigPoint, TrialOutcome)>,
    ) {
        self.pending.push(*record);
        self.best = best.cloned();
    }

    fn wave_committed(&mut self, committed: usize) {
        let cache = self.engine.cache_stats();
        let cache_delta = cache - self.last_cache;
        self.last_cache = cache;
        if self.job.emit_progress(SearchProgress {
            trials: std::mem::take(&mut self.pending),
            committed,
            best: self.best,
            cache_delta,
        }) {
            self.coalesced.inc();
        }
        // Deadline enforcement, part 2: a search that outlives its
        // budget stops at the next commit boundary — promptly, but
        // without ever interrupting a trial mid-flight, so the partial
        // result is a deterministic prefix.
        // lint:allow(wall-clock-in-output): wave-boundary deadline enforcement — commit prefix stays deterministic
        if self.expires.is_some_and(|d| Instant::now() >= d) && !self.cancel.is_cancelled() {
            self.deadline_fired.store(true, Ordering::SeqCst);
            self.cancel.cancel();
        }
    }
}

/// Builds the job-lifecycle span tree carried on [`Telemetry::spans`]:
/// a `job` root spanning admission to response, with `queued` and
/// `execute` children, and the non-zero pipeline stage timings laid
/// end to end under `execute`. Stage children are *summed* wall times
/// over the request's predictions (they can overrun `execute` for
/// multi-job batches and for a search that runs its trials in parallel
/// waves); `queued`/`execute` are exact, which is what the
/// wall-clock coverage accounting relies on.
fn job_span_tree(queue_wait: Duration, service_time: Duration, stages: &StageTimings) -> SpanNode {
    let mut execute = SpanNode::leaf("execute", queue_wait, service_time);
    let mut at = queue_wait;
    for (name, d) in [
        ("emulation", stages.emulation),
        ("collation", stages.collation),
        ("estimation", stages.estimation),
        ("simulation", stages.simulation),
    ] {
        if !d.is_zero() {
            execute.children.push(SpanNode::leaf(name, at, d));
            at += d;
        }
    }
    SpanNode::leaf("job", Duration::ZERO, queue_wait + service_time)
        .with_child(SpanNode::leaf("queued", Duration::ZERO, queue_wait))
        .with_child(execute)
}

/// Runs one admitted request against the engine of the slot it was
/// routed to at submit.
fn execute(worker: usize, shared: &Shared, work: &QueuedJob) -> JobOutcome {
    // Queue wait ends the moment a worker picks the request up; the
    // (possibly expensive, first-use) lazy engine build that follows
    // is counted as service time, not congestion.
    let queue_wait = work.enqueued.elapsed();
    // lint:allow(wall-clock-in-output): service_time telemetry anchor — reported in Telemetry, not in predictions
    let started = Instant::now();
    let engine: &PredictionEngine = work.slot.engine();
    let cancel = &work.cancel;
    let cache_before = engine.cache_stats();
    let deadline_fired = AtomicBool::new(false);
    let (payload, stages) = match &work.req {
        Request::Predict { jobs, .. } => {
            let results = engine.predict_batch_with(jobs, Some(cancel));
            let mut stages = StageTimings::default();
            for p in results.iter().flatten() {
                stages += p.timings;
            }
            (Payload::Predict(results), stages)
        }
        Request::Search {
            template,
            space,
            algorithm,
            budget,
            seed,
            ..
        } => {
            let objective = Objective::new(engine, *template);
            let forwarder = ProgressForwarder {
                job: &work.producer,
                cancel,
                coalesced: &shared.progress_coalesced,
                engine,
                last_cache: cache_before,
                pending: Vec::new(),
                best: None,
                expires: work.expires,
                deadline_fired: &deadline_fired,
            };
            let result = TrialScheduler::new(&objective)
                .with_space(space.clone())
                .with_observer(Box::new(forwarder))
                .with_cancel(cancel.clone())
                .run_batched(*algorithm, *budget, *seed);
            (Payload::Search(Box::new(result)), objective.timings())
        }
        Request::Measure { job, .. } => {
            let outcome = engine.measure_actual(job).map(|inner| match inner {
                Ok(m) => MeasureOutcome::Completed(m),
                Err(peak_bytes) => MeasureOutcome::OutOfMemory { peak_bytes },
            });
            (Payload::Measure(outcome), StageTimings::default())
        }
    };
    let service_time = started.elapsed();
    let cache = engine.cache_stats();
    let spans = if shared.obs.config.enabled() {
        vec![job_span_tree(queue_wait, service_time, &stages)]
    } else {
        Vec::new()
    };
    let response = Response {
        target: work.req.target().to_string(),
        telemetry: Telemetry {
            queue_wait,
            service_time,
            worker,
            cache,
            cache_delta: cache - cache_before,
            stages,
            spans,
        },
        payload,
    };
    if deadline_fired.load(Ordering::SeqCst) {
        JobOutcome::Expired(Some(response))
    } else if cancel.is_cancelled() {
        JobOutcome::Cancelled(Some(response))
    } else {
        JobOutcome::Done(response)
    }
}

/// Point-in-time service counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests fully served (responses produced).
    pub served: u64,
    /// Jobs that ended [`JobState::Cancelled`] — discarded from the
    /// queue the moment the cancellation was observed, or stopped at a
    /// commit boundary mid-run.
    pub cancelled: u64,
    /// Jobs that ended [`JobState::Expired`] — shed from the queue
    /// with their deadline already blown (never consuming a worker
    /// slot; counted as soon as any scheduling point observes the
    /// expiry), or stopped at a wave boundary when the budget ran out
    /// mid-search.
    pub expired: u64,
    /// Submissions shed with [`ServeError::QuotaExceeded`] (over a
    /// tenant's max-queued cap).
    pub quota_shed: u64,
    /// Of `expired`, the jobs shed *from the queue* (purge or sweeper)
    /// without ever reaching a worker.
    pub queue_shed_expired: u64,
    /// Of `cancelled`, the jobs discarded from the queue unrun.
    pub queue_shed_cancelled: u64,
    /// Requests that panicked during execution (no response; the
    /// client's `wait` returned [`ServeError::Stopped`], and the panic
    /// message went to stderr).
    pub panicked: u64,
    /// Progress events merged under backpressure (see
    /// [`ServiceBuilder::progress_high_water`]).
    pub progress_coalesced: u64,
    /// Engines built by the registry so far.
    pub engines_built: usize,
    /// Worker-pool size.
    pub workers: usize,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Per-tenant counters (named tenants only, sorted by name; idle
    /// tenants beyond the account cap are evicted — see
    /// [`TenantStats`]).
    pub tenants: Vec<TenantStats>,
}

impl ServiceStats {
    /// The counters of one named tenant, if it has been seen.
    pub fn tenant(&self, name: &str) -> Option<&TenantStats> {
        self.tenants.iter().find(|t| t.tenant == name)
    }
}

/// The multi-tenant prediction service (see module docs).
pub struct MayaService {
    shared: Arc<Shared>,
    queue: Arc<AdmissionQueue>,
    workers: Vec<JoinHandle<()>>,
    sweeper: Option<JoinHandle<()>>,
    queue_capacity: usize,
    snapshot_dir: Option<PathBuf>,
    restores: Vec<SnapshotRestore>,
}

impl MayaService {
    /// Starts configuring a service.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::new()
    }

    /// Builds the linked handle/queue-entry pair for one admission,
    /// routing the request to its target's engine slot.
    fn make_job(
        &self,
        req: Request,
        opts: JobOptions,
    ) -> Result<(JobHandle, QueuedJob), ServeError> {
        let slot = Arc::clone(self.shared.table.slot(req.target())?);
        let id = self.shared.next_job_id.fetch_add(1, Ordering::Relaxed);
        let (producer, events) = job_channel(self.shared.progress_high_water);
        let cancel = CancelToken::new();
        let handle = JobHandle(JobControl {
            id,
            cancel: cancel.clone(),
            queue: Arc::downgrade(&self.queue),
            events,
        });
        // lint:allow(wall-clock-in-output): queue_wait telemetry anchor and deadline base — never in payloads
        let enqueued = Instant::now();
        let JobOptions {
            deadline,
            priority,
            tenant,
        } = opts;
        Ok((
            handle,
            QueuedJob {
                req,
                slot,
                enqueued,
                // A budget too large to represent never runs out.
                expires: deadline.and_then(|d| enqueued.checked_add(d)),
                priority,
                tenant,
                id,
                cancel,
                producer,
            },
        ))
    }

    /// Submits a request, blocking while the admission queue is full.
    /// Returns the job's [`JobHandle`] — poll it, stream its progress,
    /// cancel it, or block on [`JobHandle::wait`] exactly like the old
    /// one-shot API.
    pub fn submit(&self, req: Request) -> Result<JobHandle, ServeError> {
        self.submit_with(req, JobOptions::default())
    }

    /// [`MayaService::submit`] with per-job options (deadline,
    /// priority, tenant). An over-quota tenant is shed immediately
    /// with [`ServeError::QuotaExceeded`] — quota shedding never
    /// blocks.
    pub fn submit_with(&self, req: Request, opts: JobOptions) -> Result<JobHandle, ServeError> {
        let (handle, job) = self.make_job(req, opts)?;
        self.queue.push(job, true)?;
        Ok(handle)
    }

    /// Non-blocking submit: fails with [`ServeError::Overloaded`] when
    /// the admission queue is full.
    pub fn try_submit(&self, req: Request) -> Result<JobHandle, ServeError> {
        self.try_submit_with(req, JobOptions::default())
    }

    /// [`MayaService::try_submit`] with per-job options (deadline,
    /// priority, tenant).
    pub fn try_submit_with(&self, req: Request, opts: JobOptions) -> Result<JobHandle, ServeError> {
        let (handle, job) = self.make_job(req, opts)?;
        self.queue.push(job, false)?;
        Ok(handle)
    }

    /// Submit + wait in one call.
    pub fn call(&self, req: Request) -> Result<Response, ServeError> {
        self.submit(req)?.wait()
    }

    /// Registered target names (sorted).
    pub fn targets(&self) -> Vec<String> {
        self.shared
            .table
            .targets()
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// The spec a target resolves to.
    pub fn target_spec(&self, target: &str) -> Result<EmulationSpec, ServeError> {
        Ok(self.shared.table.slot(target)?.spec().clone())
    }

    /// The engine serving `target`, building it if needed. Useful for
    /// out-of-band inspection (cache stats, direct predictions in
    /// tests); requests go through [`MayaService::submit`].
    pub fn engine(&self, target: &str) -> Result<Arc<PredictionEngine>, ServeError> {
        Ok(Arc::clone(self.shared.table.slot(target)?.engine()))
    }

    /// Memo-cache counters of `target`'s engine ([`CacheStats::default`]
    /// when the engine has not been built yet).
    pub fn cache_stats(&self, target: &str) -> Result<CacheStats, ServeError> {
        let built = self.shared.table.slot(target)?.built();
        Ok(built.map(|e| e.cache_stats()).unwrap_or_default())
    }

    /// Service counters. Queue-shed verdicts (deadline blown or
    /// cancelled while queued) are counted the moment any scheduling
    /// point observes them, so `expired`/`cancelled` no longer lag
    /// behind dead entries waiting for a worker to dequeue them.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            served: self.shared.served.get(),
            cancelled: self.shared.cancelled.get() + self.queue.shed_cancelled(),
            expired: self.shared.expired.get() + self.queue.shed_expired(),
            quota_shed: self.queue.quota_shed(),
            queue_shed_expired: self.queue.shed_expired(),
            queue_shed_cancelled: self.queue.shed_cancelled(),
            panicked: self.shared.panicked.get(),
            progress_coalesced: self.shared.progress_coalesced.get(),
            engines_built: self.shared.table.built().count(),
            workers: self.workers.len(),
            queue_capacity: self.queue_capacity,
            tenants: self.queue.tenant_stats(),
        }
    }

    /// A counter a front end publishes through this service's
    /// registry, so one scrape carries every layer: registered under
    /// `name` when metrics are on, detached (it still counts, nothing
    /// is registered) when they are off.
    pub fn counter(&self, name: &str) -> Counter {
        self.shared.obs.registry.counter(name)
    }

    /// Records (or re-records, replacing in place) the span tree for
    /// job `id` in the recent-jobs ring. The wire server uses this to
    /// upsert a worker-recorded tree with the `reply` span appended.
    pub fn record_job_tree(&self, id: u64, tree: SpanNode) {
        if self.shared.obs.config.enabled() {
            self.shared.obs.job_trees.record(id, tree);
        }
    }

    /// The full observability snapshot a `Scrape` frame answers
    /// with: every registry instrument, the per-tenant wait/service
    /// histograms (`serve.queue_wait_us.tenant.<name>` /
    /// `serve.service_time_us.tenant.<name>`), the aggregate engine
    /// memo-cache counters mirrored under `serve.cache.*`, and the
    /// recent job span trees. Deterministic for a quiesced service:
    /// instruments are sorted by name, trees are oldest first.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        if self.shared.obs.config.enabled() {
            // Mirror the engines' memo-cache counters into the
            // registry so a scrape carries them. Targets sharing a
            // cluster share one cache; dedup by cache identity so a
            // shared memo is not double-counted.
            let mut caches: Vec<&Arc<maya_estimator::CachingEstimator>> = Vec::new();
            let mut total = CacheStats::default();
            for engine in self.shared.table.built() {
                if !caches.iter().any(|c| Arc::ptr_eq(c, engine.cache())) {
                    caches.push(engine.cache());
                    total += engine.cache_stats();
                }
            }
            let reg = &self.shared.obs.registry;
            reg.counter("serve.cache.hits").store(total.hits);
            reg.counter("serve.cache.misses").store(total.misses);
            reg.counter("serve.cache.evictions").store(total.evictions);
        }
        let mut snap = self.shared.obs.registry.snapshot();
        if self.shared.obs.config.enabled() {
            for (tenant, waits, service) in self.queue.tenant_histograms() {
                snap.histograms
                    .push((format!("serve.queue_wait_us.tenant.{tenant}"), waits));
                snap.histograms
                    .push((format!("serve.service_time_us.tenant.{tenant}"), service));
            }
            snap.histograms.sort_by(|a, b| a.0.cmp(&b.0));
            snap.recent_jobs = self.shared.obs.job_trees.trees();
        }
        snap
    }

    /// Renders the recent job span trees as Chrome-trace JSON (load at
    /// `chrome://tracing`); empty with observability off.
    pub fn chrome_trace(&self) -> String {
        chrome_trace_json(&[], &self.shared.obs.job_trees.trees())
    }

    /// What happened to each target's memo snapshot at build time, in
    /// target-name order: how many entries each restore loaded, and
    /// which snapshots were skipped as incompatible (with the typed
    /// [`SnapshotError`] explaining why). Targets with no snapshot file
    /// do not appear. Empty when no snapshot directory is configured.
    pub fn snapshot_restores(&self) -> &[SnapshotRestore] {
        &self.restores
    }

    /// Writes every *built* engine's memo to the snapshot directory
    /// (one `<target>.memo` per target; targets sharing an engine write
    /// equal files). Returns how many files were written, or 0 when no
    /// snapshot directory is configured.
    pub fn persist_snapshots(&self) -> Result<usize, ServeError> {
        let Some(dir) = &self.snapshot_dir else {
            return Ok(0);
        };
        let mut written = 0;
        // Name order, so the write sequence (and any partial-failure
        // prefix) is the same run to run.
        for (name, slot) in self.shared.table.targets() {
            if let Some(engine) = slot.built() {
                engine
                    .cache()
                    .write_snapshot(&snapshot_file(dir, name), &slot.memo_scope())?;
                written += 1;
            }
        }
        Ok(written)
    }

    /// Drains and stops the worker pool: queued requests are still
    /// served, new submits fail with [`ServeError::Stopped`].
    pub fn shutdown(&mut self) {
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(sweeper) = self.sweeper.take() {
            let _ = sweeper.join();
        }
    }
}

impl Drop for MayaService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_file_names_are_injective() {
        let dir = Path::new("/snap");
        // The review case: lossy '_' mapping used to collide these.
        let pairs = [
            ("eu/h100", "eu_h100"),
            ("a.40", "a_40"),
            ("x y", "x_y"),
            ("pct%", "pct_"),
        ];
        for (a, b) in pairs {
            assert_ne!(
                snapshot_file(dir, a),
                snapshot_file(dir, b),
                "{a:?} vs {b:?} must not share a memo file"
            );
        }
        // Plain lowercase names stay readable.
        assert_eq!(
            snapshot_file(dir, "h100-node"),
            Path::new("/snap/h100-node.memo")
        );
        // Case-only differences survive case-insensitive filesystems:
        // the escaped output alphabet is all-lowercase, so comparing
        // the lowercased paths is what APFS/NTFS would do.
        let upper = snapshot_file(dir, "EU-node");
        let lower = snapshot_file(dir, "eu-node");
        assert_ne!(
            upper.to_string_lossy().to_lowercase(),
            lower.to_string_lossy().to_lowercase(),
            "case-insensitive collision"
        );
    }

    // ---- fair termination: the job transition table -----------------

    use crate::job::JobControl;
    use crate::tests::{predict, search};
    use maya_estimator::OracleEstimator;
    use maya_hw::ClusterSpec;
    use std::sync::{mpsc, Mutex};

    const OK: &str = "h100-2";
    /// The target whose estimator factory panics on first use.
    const BOOM: &str = "a40-2";
    const TENANT: &str = "table";
    /// Trials no test waits out: ~1µs each once the 32-point space is
    /// memoized, so seconds of search — every use is cancelled.
    const ENDLESS: usize = 5_000_000;

    fn table_service() -> MayaService {
        let boom = ClusterSpec::a40(1, 2);
        let factory = {
            let boom = boom.clone();
            EstimatorChoice::Factory {
                label: "oracle-unless-boom".into(),
                make: Arc::new(move |cluster| {
                    assert!(*cluster != boom, "estimator factory exploded (on purpose)");
                    Arc::new(OracleEstimator::new(cluster))
                }),
            }
        };
        MayaService::builder()
            .target(OK, EmulationSpec::new(ClusterSpec::h100(1, 2)))
            .target(BOOM, EmulationSpec::new(boom))
            .estimator(factory)
            .workers(1)
            .build()
            .unwrap()
    }

    /// Every observer a job has, armed before the job can move: the
    /// wake hook (recording the state it sees each time it fires), the
    /// progress stream and `wait_outcome` (both on a helper thread, so
    /// a hang is a test failure rather than a stuck run).
    struct Watch {
        control: JobControl,
        hook_saw: Arc<Mutex<Vec<JobState>>>,
        done: mpsc::Receiver<Result<JobOutcome, ServeError>>,
    }

    fn watch(handle: JobHandle) -> Watch {
        let control = handle.control();
        let hook_saw = Arc::new(Mutex::new(Vec::new()));
        let (ctl, saw) = (control.clone(), Arc::clone(&hook_saw));
        handle.on_wake(move || saw.lock().unwrap().push(ctl.poll()));
        let (tx, done) = mpsc::channel();
        std::thread::spawn(move || {
            handle.progress().for_each(drop);
            let _ = tx.send(handle.wait_outcome());
        });
        Watch {
            control,
            hook_saw,
            done,
        }
    }

    impl Watch {
        fn until_running(&self) {
            while self.control.poll() == JobState::Queued {
                std::thread::yield_now();
            }
        }

        /// Checks the contract every terminal path owes: the progress
        /// stream ended and `wait_outcome` returned; exactly one
        /// terminal state was ever visible, the expected one, through
        /// `poll`, the verdict and the hook; and the hook fired after
        /// the transition. Returns the verdict.
        fn ends(self, want: JobState, path: &str) -> Option<JobOutcome> {
            let outcome = self
                .done
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{path}: the progress stream or wait_outcome hung"));
            assert_eq!(self.control.poll(), want, "{path}: poll");
            let verdict = match outcome {
                Ok(outcome) => {
                    assert_eq!(outcome.state(), want, "{path}: verdict");
                    Some(outcome)
                }
                Err(e) => {
                    assert!(matches!(e, ServeError::Stopped), "{path}: {e}");
                    assert_eq!(want, JobState::Failed, "{path}: only Failed has no verdict");
                    None
                }
            };
            // The hook runs on the thread that ended the job, after
            // it has woken the blocked readers: give it a moment.
            let patience = Instant::now() + Duration::from_secs(60);
            let saw = loop {
                let saw = self.hook_saw.lock().unwrap().clone();
                if saw.last() == Some(&want) || Instant::now() > patience {
                    break saw;
                }
                std::thread::yield_now();
            };
            assert_eq!(
                saw.last(),
                Some(&want),
                "{path}: no wake after the end: {saw:?}"
            );
            assert!(
                saw.iter().all(|s| !s.is_terminal() || *s == want),
                "{path}: a second terminal state was visible: {saw:?}"
            );
            verdict
        }
    }

    #[test]
    fn every_terminal_path_is_one_fair_transition() {
        let mut service = table_service();
        let tenant = || JobOptions::new().with_tenant(TENANT);
        let submit = |svc: &MayaService, req, opts| watch(svc.submit_with(req, opts).unwrap());
        // Counters settle before a verdict is delivered, so this is
        // race-free right after `ends`.
        let settled = |svc: &MayaService, path: &str| {
            let stats = svc.stats();
            let t = stats.tenant(TENANT).expect("tenant account");
            assert_eq!((t.queued, t.in_flight), (0, 0), "{path}: {t:?}");
        };

        // Done.
        let verdict = submit(&service, predict(OK, 2), tenant()).ends(JobState::Done, "done");
        assert!(matches!(verdict, Some(JobOutcome::Done(_))));
        settled(&service, "done");

        // Cancelled mid-search: stops at a commit boundary, with the
        // committed prefix.
        let job = submit(&service, search(OK, 2, ENDLESS), tenant());
        job.until_running();
        job.control.cancel();
        let verdict = job.ends(JobState::Cancelled, "cancelled mid-search");
        assert!(matches!(verdict, Some(JobOutcome::Cancelled(Some(_)))));
        settled(&service, "cancelled mid-search");

        // Expired at a wave boundary. (On a stalled machine the budget
        // can run out before pickup; that is `Expired(None)` — the
        // right verdict, another row of this table.)
        let job = submit(
            &service,
            search(OK, 2, ENDLESS),
            tenant().with_deadline(Duration::from_millis(30)),
        );
        if let Some(JobOutcome::Expired(Some(resp))) =
            job.ends(JobState::Expired, "expired mid-search")
        {
            assert!(resp.search().unwrap().trials.len() < ENDLESS);
        }
        settled(&service, "expired mid-search");

        // The queued rows: park the only worker on an anonymous search.
        let blocker = submit(&service, search(OK, 2, ENDLESS), JobOptions::new());
        blocker.until_running();

        // Cancelled while queued — shed by the sweeper's purge.
        let job = submit(&service, predict(OK, 2), tenant());
        job.control.cancel();
        let verdict = job.ends(JobState::Cancelled, "cancelled while queued");
        assert!(matches!(verdict, Some(JobOutcome::Cancelled(None))));
        settled(&service, "cancelled while queued");

        // Expired while queued — the sweeper again, every worker busy.
        let job = submit(
            &service,
            predict(OK, 2),
            tenant().with_deadline(Duration::from_millis(10)),
        );
        let verdict = job.ends(JobState::Expired, "expired while queued");
        assert!(matches!(verdict, Some(JobOutcome::Expired(None))));
        settled(&service, "expired while queued");

        // The pickup races: the entry dies between `pop` and the
        // worker's look at it. Forced by being that worker — the real
        // one is inside the blocker, so the entry comes to this pop.
        let job = submit(&service, predict(OK, 2), tenant());
        let work = service.queue.pop().expect("the queued entry");
        job.control.cancel();
        serve(7, &service.shared, &service.queue, work);
        let verdict = job.ends(JobState::Cancelled, "cancelled at pickup");
        assert!(matches!(verdict, Some(JobOutcome::Cancelled(None))));
        settled(&service, "cancelled at pickup");

        let job = submit(&service, predict(OK, 2), tenant());
        let mut work = service.queue.pop().expect("the queued entry");
        work.expires = Some(work.enqueued);
        serve(7, &service.shared, &service.queue, work);
        let verdict = job.ends(JobState::Expired, "expired at pickup");
        assert!(matches!(verdict, Some(JobOutcome::Expired(None))));
        settled(&service, "expired at pickup");

        blocker.control.cancel();
        blocker.ends(JobState::Cancelled, "blocker");

        // No verdict, two ways (an admitted job carries its engine
        // slot, so there is no unknown target left to fail on). A
        // request panic...
        submit(&service, predict(BOOM, 2), tenant()).ends(JobState::Failed, "panic");
        assert_eq!(service.stats().panicked, 1);
        settled(&service, "panic");

        // ...and an entry dropped unrun (what a torn-down queue does).
        let (handle, job) = service.make_job(predict(OK, 2), tenant()).unwrap();
        let job_watch = watch(handle);
        drop(job);
        job_watch.ends(JobState::Failed, "dropped unrun");

        // The worker survived all of that; shutdown drains what was
        // admitted before it.
        let drained: Vec<Watch> = (0..3)
            .map(|_| submit(&service, predict(OK, 2), tenant()))
            .collect();
        service.shutdown();
        for job in drained {
            job.ends(JobState::Done, "admitted before shutdown");
        }
        assert!(matches!(
            service.submit(predict(OK, 2)),
            Err(ServeError::Stopped)
        ));
        settled(&service, "shutdown");
        assert_eq!(service.obs_snapshot().gauge("serve.queue.depth"), Some(0));
    }
}
