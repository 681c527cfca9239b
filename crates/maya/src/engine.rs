//! The concurrent, cache-sharing prediction engine.
//!
//! [`PredictionEngine`] owns everything one emulation spec needs to turn
//! [`TrainingJob`]s into [`Prediction`]s, re-usably and concurrently:
//!
//! - the caller's estimator, wrapped in a [`CachingEstimator`] so kernel
//!   / memcpy / collective answers are memoized **across** predictions —
//!   config search replays the same shapes thousands of times (Fig. 15,
//!   Table 6), and repeated trials should not re-derive them. The memo
//!   lives as long as the engine; `maya-serve` snapshots it across
//!   restarts, and [`PredictionEngine::cache`] reaches the same
//!   snapshot calls for a library caller;
//! - the emulate → fold → estimate → simulate pipeline of Figure 5,
//!   streamed: a rank's recorder notes its collective descriptors as
//!   the calls are issued and, when the spec folds, compares each call
//!   against the templates of the classes the [`Collator`] has kept so
//!   far — the paper hashes, this repo compares, with the same
//!   partition. While the calls still equal some template's, nothing
//!   else is written; a rank that matched a template whole leaves no
//!   events. Every trace, whether a rank just finished it or a caller
//!   handed it to [`PredictionEngine::predict_trace`], takes one ingest
//!   step: it is pushed into the streaming collator, which books its
//!   collectives and alone decides whether it is kept. A recorder that
//!   may be folded does not run the host clock either: it notes each
//!   call, and the collator settles the notes
//!   ([`HostCharges::settle`]) for exactly the traces it keeps, so host
//!   time is computed per kept trace, not per rank. A collator that
//!   folds keeps the first trace of each class as its template — the
//!   recorders of later ranks are handed the templates, and the
//!   serial sink between the emulating threads lowers the trace in
//!   place into the simulator's arena ([`maya_sim::Lowering::worker`])
//!   — so a folding prediction holds one trace per kept class and no
//!   copy of one; when it ends, the templates' event buffers go to the
//!   engine's spare pool for later ranks to record into. A collator
//!   that does not fold hands each trace back, the sink lowers it at
//!   once and records a later rank into its buffer, so that prediction
//!   holds one trace at a time. Either way a kept trace's events are
//!   read once. Estimation is that lowering (one memo query per
//!   distinct kernel shape of the job and per memcpy) plus one pass
//!   over the collective sites once the collator has the communicator
//!   map; simulation is the replay of what was lowered. Emulation,
//!   collation and estimation run once per prediction, and
//!   `predict_job` and `predict_trace` share everything after the
//!   traces' source: the world check, the ingest step, the lowering,
//!   the replay. [`PredictionEngine::measure_actual`] emulates through
//!   the same ingest step under a plan that runs every rank and folds
//!   none, keeping every trace for the testbed;
//! - one ordered fan-out over `emulation_threads` OS threads, which
//!   spreads either one job's ranks (`predict_job`) or a batch's
//!   independent jobs ([`PredictionEngine::predict_batch`]) and hands
//!   results back in index order.
//!
//! Every stage is deterministic, so batched predictions are
//! byte-identical to sequential ones — the search layer relies on this
//! to keep speculative batched trials faithful to serial order.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use maya_collate::{unique_megatron_ranks, Collator, Pushed};
use maya_cuda::{CudaContext, CudaError, HostCharges};
use maya_estimator::{CacheStats, CachingEstimator, RuntimeEstimator};
use maya_hw::{GroundTruthExecutor, Measurement};
use maya_sim::{SimError, SimObs, SimScratch, Simulator};
use maya_torchlet::{FrameworkFlavor, RankTopology, TrainingJob};
use maya_trace::{JobTrace, Templates, TraceBuffers, TraceEvent, TraceMeta, WorkerTrace};

use crate::cancel::CancelToken;
use crate::error::MayaError;
use crate::pipeline::{EmulationSpec, PredictOutcome, Prediction, StageTimings};

/// Internal OOM verdict from emulation.
struct OomInfo {
    rank: u32,
    /// Device memory the rank held when its allocation failed.
    held: u64,
    /// `held` plus the allocation that failed.
    peak_attempted: u64,
    /// Calls recorded by every emulated rank, written as events or not.
    events: usize,
}

/// What collating a job's traces produced.
struct Emulated {
    /// The job's communicator map — the traces the collator kept, one
    /// per class when it folds, went to the caller as they came — or
    /// the OOM verdict.
    outcome: Result<BTreeMap<u64, Vec<u32>>, OomInfo>,
    /// Traces taken: ranks emulated, or the caller's traces.
    ranks: usize,
    /// Trace events whose host time was computed.
    charged: usize,
    /// Wall time spent inside the collator, settling excluded.
    collation: Duration,
}

/// Where the traces one collation takes come from, in rank order.
enum Feed<'a> {
    /// `ranks` of `job`, emulated on up to `threads` OS threads.
    Emulate {
        job: &'a TrainingJob,
        ranks: Vec<u32>,
        threads: usize,
    },
    /// A caller's finished traces, which came from no recorder: each is
    /// scanned for the metadata a recorder would have handed over, and
    /// owes no host time.
    Traced(Vec<WorkerTrace>),
}

/// Runs `f` and adds the wall time it took to `stage`: the one clock
/// behind [`StageTimings`].
fn timed<R>(stage: &mut Duration, f: impl FnOnce() -> R) -> R {
    // lint:allow(wall-clock-in-output): stage timing telemetry — predictions come from the simulator and the memoized estimator, not this clock
    let t = Instant::now();
    let out = f();
    *stage += t.elapsed();
    out
}

/// Runs `work` over `items` on up to `threads` OS threads and hands
/// every result to `sink` on the calling thread, in `items` order
/// whatever order the threads finish in. Threads claim one index at a
/// time, lowest first, so results arrive close to index order; the
/// bounded channel keeps a slow sink from letting finished results pile
/// up behind it. The first `sink` error is returned: nothing further is
/// claimed, and work already claimed ends before this returns (every
/// thread is joined). When one thread suffices, everything runs inline
/// on the calling thread.
fn fan_out<I, T, E>(
    items: &[I],
    threads: usize,
    work: impl Fn(&I) -> T + Sync,
    mut sink: impl FnMut(T) -> Result<(), E>,
) -> Result<(), E>
where
    I: Sync,
    T: Send,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().try_for_each(|item| sink(work(item)));
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::sync_channel(threads);
    std::thread::scope(|s| {
        for _ in 0..threads {
            let (tx, next, work) = (tx.clone(), &next, &work);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                // The receiver goes away on the sink's first error.
                if tx.send((i, work(item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut early = BTreeMap::new();
        let mut due = 0;
        for (i, result) in rx {
            early.insert(i, result);
            while let Some(result) = early.remove(&due) {
                sink(result)?;
                due += 1;
            }
        }
        Ok(())
    })
}

/// The buffers of a rank that is dropped whole, nothing it is owed
/// computed, for a later rank to record into.
fn discard(trace: WorkerTrace, meta: TraceMeta, charges: HostCharges) -> TraceBuffers {
    TraceBuffers {
        events: trace.events,
        collectives: meta.collectives,
        residue: meta.residue,
        host_notes: charges.forgo(),
    }
}

/// Unwraps the result of a [`fan_out`] whose sink cannot fail.
fn infallible(done: Result<(), Infallible>) {
    match done {
        Ok(()) => {}
        Err(never) => match never {},
    }
}

/// Reusable, thread-safe prediction pipeline (see module docs).
pub struct PredictionEngine {
    spec: EmulationSpec,
    cache: Arc<CachingEstimator>,
    /// Pool of reusable simulator arenas. Every simulate call checks
    /// one out (or starts fresh) and returns it afterwards, so repeated
    /// predictions — a search loop, a serving worker, each thread of a
    /// `predict_batch` fan-out — amortize the sim's allocations. The
    /// pool never exceeds the engine's peak simulate concurrency.
    scratch_pool: Mutex<Vec<SimScratch>>,
    /// Simulator observability sinks ([`PredictionEngine::with_sim_obs`]).
    /// `None` — the default — leaves every simulate call on the
    /// uninstrumented path, which is byte-identical to the
    /// instrumented one.
    sim_obs: Option<SimObs>,
    /// Trace events whose host time this engine's predictions computed
    /// ([`PredictionEngine::host_charges`]).
    host_charges: AtomicU64,
    /// Event buffers of the templates of predictions that have ended,
    /// for the ranks of later predictions to record into.
    event_pool: Mutex<Vec<Vec<TraceEvent>>>,
}

impl PredictionEngine {
    /// Builds an engine over a spec and estimator. The estimator is
    /// wrapped in a [`CachingEstimator`] shared by every prediction this
    /// engine ever runs.
    pub fn new(spec: EmulationSpec, estimator: Arc<dyn RuntimeEstimator>) -> Self {
        let cache = Arc::new(CachingEstimator::new(estimator));
        PredictionEngine::with_shared_cache(spec, cache)
    }

    /// Builds an engine over an *existing* memo cache (and the
    /// estimator inside it). Estimator answers are pure functions of
    /// the query key and the cluster, so engines whose specs differ
    /// only in pipeline knobs (dedup, selective launch, thread count)
    /// can share one memo — `maya-serve`'s registry uses this to give
    /// every engine on the same cluster the same warm cache.
    pub fn with_shared_cache(spec: EmulationSpec, cache: Arc<CachingEstimator>) -> Self {
        PredictionEngine {
            spec,
            cache,
            scratch_pool: Mutex::new(Vec::new()),
            sim_obs: None,
            host_charges: AtomicU64::new(0),
            event_pool: Mutex::new(Vec::new()),
        }
    }

    /// Publishes every simulate call's per-run tallies (event counters,
    /// heap high-water gauge, flow-solver counter) into `obs`. A step of construction: it takes the engine by value,
    /// so the sinks are fixed before the engine can be shared.
    pub fn with_sim_obs(mut self, obs: SimObs) -> Self {
        self.sim_obs = Some(obs);
        self
    }

    /// Runs `f` with a pooled simulator arena checked out for the call.
    fn with_sim_scratch<R>(&self, f: impl FnOnce(&mut SimScratch) -> R) -> R {
        let mut scratch = self
            .scratch_pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_default();
        let out = f(&mut scratch);
        self.scratch_pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(scratch);
        out
    }

    /// The emulation spec in use.
    pub fn spec(&self) -> &EmulationSpec {
        &self.spec
    }

    /// The shared memo cache sitting in front of the estimator.
    pub fn cache(&self) -> &Arc<CachingEstimator> {
        &self.cache
    }

    /// Cumulative estimator-cache hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Cumulative count of trace events whose host time
    /// [`PredictionEngine::predict_job`] computed: every event of a
    /// rank that charges while recording (the spec does not fold), and
    /// of a folding spec's ranks the events of the traces it kept — a
    /// folded rank's host clock is never read, so it is never run. A
    /// deterministic function of the jobs predicted, like
    /// [`Prediction::workers_emulated`].
    pub fn host_charges(&self) -> u64 {
        self.host_charges.load(Ordering::Relaxed)
    }

    /// Transparently traces an arbitrary per-rank workload using the
    /// spec's emulation thread count: the Rust analog of running an
    /// unmodified script under the `LD_PRELOAD` shim. `script` receives
    /// `(rank, virtual device)` and may issue any device API calls.
    pub fn trace_workload<F>(
        &self,
        ranks: &[u32],
        script: F,
    ) -> Vec<(WorkerTrace, Result<(), CudaError>)>
    where
        F: Fn(u32, &mut CudaContext) -> Result<(), CudaError> + Sync,
    {
        let mut out = Vec::with_capacity(ranks.len());
        let threads = self.spec.emulation_threads;
        infallible(
            // Against no template, every rank charged as it recorded:
            // nothing was deferred, so this settles nothing.
            self.emulate_each(
                ranks,
                script,
                threads,
                || None,
                |mut trace, _, charges, res| {
                    let _ = charges.settle(&mut trace);
                    out.push((trace, res));
                    Ok(TraceBuffers::default())
                },
            ),
        );
        out
    }

    /// Emulates `ranks` through [`fan_out`] on up to `threads` OS
    /// threads, handing every finished trace, its recorder's metadata
    /// and the host time it is still owed to `sink` on the calling
    /// thread in `ranks` order. Each rank records against what
    /// `against` returns as it starts — the templates of the classes
    /// kept so far, or `None` if its trace will not be folded, when it
    /// owes nothing. `sink` returns buffers for a later rank to record
    /// into (see [`CudaContext::recording_into`]); its first error
    /// stops the emulation.
    fn emulate_each<F, S, E>(
        &self,
        ranks: &[u32],
        script: F,
        threads: usize,
        against: impl Fn() -> Option<Templates> + Sync,
        mut sink: S,
    ) -> Result<(), E>
    where
        F: Fn(u32, &mut CudaContext) -> Result<(), CudaError> + Sync,
        S: FnMut(
            WorkerTrace,
            TraceMeta,
            HostCharges,
            Result<(), CudaError>,
        ) -> Result<TraceBuffers, E>,
    {
        let gpu = self.spec.cluster.gpu;
        // Buffers the sink handed back, and those of ended predictions'
        // templates. Only `push`/`pop` run under this lock, so it cannot
        // be poisoned; a missed spare costs an allocation.
        let pooled = self.event_pool.lock().map(|mut p| std::mem::take(&mut *p));
        let pooled = pooled
            .unwrap_or_default()
            .into_iter()
            .map(|events| TraceBuffers {
                events,
                ..TraceBuffers::default()
            });
        let spares = Mutex::new(pooled.collect::<Vec<_>>());
        let calls = AtomicUsize::new(0);
        fan_out(
            ranks,
            threads,
            |&r| {
                // The spare with the most room for events: a folded
                // rank hands back buffers but writes no event.
                let spare = spares.lock().ok().and_then(|mut pool| {
                    let room = pool.iter().map(|b| b.events.capacity()).enumerate();
                    let most = room.max_by_key(|&(_, room)| room)?.0;
                    Some(pool.swap_remove(most))
                });
                let mut buffers = spare.unwrap_or_default();
                buffers.events.reserve(calls.load(Ordering::Relaxed));
                let mut ctx = CudaContext::recording_into(r, gpu, buffers, against());
                let res = script(r, &mut ctx);
                (ctx.into_unsettled(), res)
            },
            |((trace, meta, charges), res)| {
                calls.fetch_max(meta.calls, Ordering::Relaxed);
                let spare = sink(trace, meta, charges, res)?;
                let held = spare.events.capacity() + spare.collectives.capacity();
                if held + spare.host_notes.capacity() > 0 {
                    if let Ok(mut pool) = spares.lock() {
                        pool.push(spare);
                    }
                }
                Ok(())
            },
        )
    }

    /// The ranks of `job` the current spec emulates and the
    /// communicator groups known without observing them. Selective
    /// launch leaves most communicator slots unobserved, so it supplies
    /// the authoritative group map from workload knowledge (§7.4's
    /// "explicit knowledge of the workload"); every other job emulates
    /// all ranks and lets the collator observe its groups.
    fn launch_plan(&self, job: &TrainingJob) -> (Vec<u32>, BTreeMap<u64, Vec<u32>>) {
        if self.spec.selective_launch && matches!(job.flavor, FrameworkFlavor::Megatron) {
            let topo = RankTopology::new(&job.parallel, job.world);
            (
                unique_megatron_ranks(topo.tp, topo.dp, topo.pp),
                maya_torchlet::engine::megatron_comm_groups(job),
            )
        } else {
            ((0..job.world).collect(), BTreeMap::new())
        }
    }

    /// Whether this spec folds ranks with identical traces onto one
    /// representative — unsound once per-rank state matters: a hetero
    /// pool scales kernels by rank and a fault plan targets specific
    /// ranks, so both disable the reduction.
    fn folds(&self) -> bool {
        self.spec.dedup && self.spec.cluster.hetero.is_none() && self.spec.faults.is_none()
    }

    /// Collates the traces of a `world`-rank job as `feed` yields them,
    /// `known` the groups known without observing them. Each trace
    /// takes the one ingest step: the collator books it, settles what
    /// it is owed only if it keeps it, and a kept trace goes to `keep`
    /// — handed over, or read in place as a template when the collator
    /// folds; `keep` hands back an event buffer for a later rank (an
    /// unallocated one if it holds on to the trace). When folding, an
    /// emulated rank records against the templates of the classes kept
    /// before it started, and a dropped trace's buffers are what the
    /// next rank records into. On OOM, collation stops — a
    /// partially-OOMed job has incomplete communicator traces — the
    /// remaining ranks are still emulated for the tally, and the OOM
    /// verdict of the first rank to run out is returned instead. A
    /// `world` that is not the cluster's is refused before anything
    /// runs.
    fn collate(
        &self,
        world: u32,
        known: &BTreeMap<u64, Vec<u32>>,
        fold: bool,
        feed: Feed<'_>,
        mut keep: impl FnMut(Cow<'_, WorkerTrace>) -> Result<Vec<TraceEvent>, MayaError>,
    ) -> Result<Emulated, MayaError> {
        let cluster = self.spec.cluster.num_gpus();
        if world != cluster {
            return Err(MayaError::WorldMismatch {
                job: world,
                cluster,
            });
        }
        let mut collator = Collator::new(world, known, fold);
        // The templates a rank starting now records against. Only
        // `clone` and assignment run under this lock, so it cannot be
        // poisoned.
        let current = Mutex::new(Templates::default());
        let (mut collation, mut settling, mut settled) = (Duration::ZERO, Duration::ZERO, 0);
        // The one ingest step. `recorded` is what the trace's recorder
        // handed over with it — its metadata and the host time it is
        // owed — or `None` for a trace that came from no recorder. The
        // collator settles the trace only if it keeps it; settling is
        // emulation's work, not collation's, though the collator calls
        // it, so its time is taken back out of `collation`.
        let mut ingest = |trace: WorkerTrace,
                          recorded: Option<(TraceMeta, HostCharges)>|
         -> Result<TraceBuffers, MayaError> {
            let (mut owed, mut host_notes) = (None, Vec::new());
            let pushed = timed(&mut collation, || {
                let meta = match recorded {
                    Some((meta, charges)) => {
                        owed = Some(charges);
                        meta
                    }
                    None => TraceMeta::scan(&trace.events),
                };
                collator.push(trace, meta, |trace| {
                    if let Some(charges) = owed.take() {
                        settled += charges.owed();
                        host_notes = timed(&mut settling, || charges.settle(trace));
                    }
                })
            });
            let Pushed {
                kept,
                template,
                mut spare,
            } = pushed?;
            spare.host_notes = owed.map_or(host_notes, HostCharges::forgo);
            if let Some(trace) = kept {
                spare.events = keep(Cow::Owned(trace))?;
                spare.events.clear();
            }
            if let Some(t) = template {
                let templates = collator.templates();
                if let Some(template) = templates.get(t) {
                    keep(Cow::Borrowed(template.trace()))?;
                }
                if let Ok(mut now) = current.lock() {
                    *now = templates;
                }
            }
            Ok(spare)
        };
        // The first rank to run out: its rank, the memory it held and
        // the allocation that failed.
        let mut oom: Option<(u32, u64, u64)> = None;
        let (mut events, mut charged) = (0usize, 0usize);
        let (ranks, fed) = match feed {
            Feed::Emulate {
                job,
                ranks,
                threads,
            } => {
                let against =
                    || fold.then(|| current.lock().map(|t| t.clone()).unwrap_or_default());
                let fed = self.emulate_each(
                    &ranks,
                    |rank, ctx| job.run_worker(rank, ctx),
                    threads,
                    against,
                    |trace, meta, charges, res| {
                        events += meta.calls;
                        charged += meta.calls - charges.owed();
                        match res {
                            Ok(()) => {}
                            Err(CudaError::MemoryAllocation { requested, .. }) => {
                                let held = trace.summary.peak_mem_bytes;
                                oom.get_or_insert((trace.rank, held, requested));
                            }
                            Err(e) => return Err(MayaError::Device(e)),
                        }
                        // The verdict reads summaries and call counts:
                        // what an OOMed job's traces are owed is never
                        // computed.
                        if oom.is_some() {
                            return Ok(discard(trace, meta, charges));
                        }
                        ingest(trace, Some((meta, charges)))
                    },
                );
                (ranks.len(), fed)
            }
            Feed::Traced(workers) => {
                let ranks = workers.len();
                let fed = workers
                    .into_iter()
                    .try_for_each(|t| ingest(t, None).map(drop));
                (ranks, fed)
            }
        };
        drop(current);
        fed?;
        let templates = collator.templates();
        let outcome = match oom {
            Some((rank, held, requested)) => {
                drop(collator);
                Err(OomInfo {
                    rank,
                    held,
                    peak_attempted: held.saturating_add(requested),
                    events,
                })
            }
            None => Ok(timed(&mut collation, || collator.finish())?),
        };
        // The collator is gone: the last snapshot owns the templates.
        self.recycle(templates);
        Ok(Emulated {
            outcome,
            ranks,
            charged: charged + settled,
            collation: collation.saturating_sub(settling),
        })
    }

    /// Hands the event buffers of `templates`, a collator's last
    /// snapshot, to the pool once nothing else holds them.
    fn recycle(&self, templates: Templates) {
        if let Ok(mut pool) = self.event_pool.lock() {
            pool.extend(templates.into_buffers());
        }
    }

    /// The simulator over the shared memo, with the spec's fault plan
    /// and the engine's observability sinks.
    fn simulator(&self) -> Simulator<'_> {
        Simulator::new(self.cache.as_ref(), &self.spec.cluster)
            .with_faults(self.spec.faults.as_ref())
            .with_obs(self.sim_obs.as_ref())
    }

    /// Predicts the performance of a training job end-to-end.
    pub fn predict_job(&self, job: &TrainingJob) -> Result<Prediction, MayaError> {
        self.predict_job_with(job, self.spec.emulation_threads)
    }

    /// [`PredictionEngine::predict_job`] emulating on up to `threads`
    /// OS threads.
    fn predict_job_with(&self, job: &TrainingJob, threads: usize) -> Result<Prediction, MayaError> {
        job.validate()?;
        let (ranks, known) = self.launch_plan(job);
        self.predict(
            job.world,
            &known,
            Feed::Emulate {
                job,
                ranks,
                threads,
            },
        )
    }

    /// Collates what `feed` yields and lowers each trace the collator
    /// keeps into a pooled simulator arena the moment the collator
    /// hands it back, recycling its buffer for a later rank: a
    /// prediction holds the trace being recorded or examined, never the
    /// kept ones. Lowering is the estimation stage — the one read of a
    /// kept trace, one memo query per distinct kernel shape of the job
    /// and per memcpy (Table 6 / Fig. 13's estimation stage) — and runs
    /// on the calling thread, overlapping the emulating threads when
    /// there are several; collective queries resolve during the
    /// replay, once per collective shape of each communicator. Across
    /// trials the memo persists: a warm search loop pays estimation
    /// only for shapes it has never seen.
    fn predict(
        &self,
        world: u32,
        known: &BTreeMap<u64, Vec<u32>>,
        feed: Feed<'_>,
    ) -> Result<Prediction, MayaError> {
        self.with_sim_scratch(|scratch| {
            let sim = self.simulator();
            let mut timings = StageTimings::default();
            let mut lowering = sim.lowering(scratch);
            let (mut total, mut kept, mut kept_events) = (Duration::ZERO, 0, 0);
            let emulated = timed(&mut total, || {
                self.collate(world, known, self.folds(), feed, |trace| {
                    timed(&mut timings.estimation, || lowering.worker(&trace))?;
                    (kept, kept_events) = (kept + 1, kept_events + trace.events.len());
                    Ok(match trace {
                        Cow::Owned(trace) => trace.events,
                        Cow::Borrowed(_) => Vec::new(),
                    })
                })
            })?;
            timings.emulation = total.saturating_sub(emulated.collation + timings.estimation);
            timings.collation = emulated.collation;
            self.host_charges
                .fetch_add(emulated.charged as u64, Ordering::Relaxed);
            let groups = match emulated.outcome {
                Ok(groups) => groups,
                Err(info) => {
                    return Ok(Prediction {
                        outcome: PredictOutcome::OutOfMemory {
                            rank: info.rank,
                            peak_attempted: info.peak_attempted,
                        },
                        timings,
                        workers_emulated: emulated.ranks,
                        workers_simulated: 0,
                        trace_events: info.events,
                    })
                }
            };
            let mut program = timed(&mut timings.estimation, || lowering.resolve(&groups))?;
            let report = timed(&mut timings.simulation, || program.replay())?;
            Ok(Prediction {
                outcome: PredictOutcome::Completed(report),
                timings,
                workers_emulated: emulated.ranks,
                workers_simulated: kept,
                trace_events: kept_events,
            })
        })
    }

    /// Predicts from an already-collated job trace.
    ///
    /// The trace is validated exactly once, here at the boundary; the
    /// rest of the pipeline (lowering, replay) runs on the prevalidated
    /// fast path, so an invalid trace fails fast before any stage
    /// spends time on it. Its workers then take `predict_job`'s path
    /// from the collator on, with the trace's groups as the known ones:
    /// a trace whose world is not the cluster's is refused, each worker
    /// is scanned for the metadata a recorder would have handed over,
    /// when the spec folds only one per class is kept — the collator
    /// compares each trace in full against the templates it holds, and
    /// a kept one becomes a template — and a kept one is lowered as the
    /// collator keeps it.
    pub fn predict_trace(&self, job_trace: JobTrace) -> Result<Prediction, MayaError> {
        job_trace
            .validate()
            .map_err(|m| MayaError::from(SimError::InvalidTrace(m)))?;
        let JobTrace {
            nranks,
            workers,
            comm_groups,
        } = job_trace;
        self.predict(nranks, &comm_groups, Feed::Traced(workers))
    }

    /// Runs the job on the ground-truth testbed (the stand-in for "actual
    /// deployment" measurements). Emulates *all* ranks, whatever the
    /// spec — real hardware cannot deduplicate workers or skip ranks —
    /// and adds nothing to [`PredictionEngine::host_charges`].
    /// The outer `Result` carries pipeline errors; the inner
    /// `Err(peak_bytes)` reports an actual OOM: the memory the first
    /// rank to run out held.
    pub fn measure_actual(&self, job: &TrainingJob) -> Result<Result<Measurement, u64>, MayaError> {
        job.validate()?;
        let feed = Feed::Emulate {
            job,
            ranks: (0..job.world).collect(),
            threads: self.spec.emulation_threads,
        };
        // The executor takes the job trace whole: every trace is kept.
        let mut workers = Vec::new();
        let emulated = self.collate(job.world, &BTreeMap::new(), false, feed, |trace| {
            workers.push(trace.into_owned());
            Ok(Vec::new())
        })?;
        match emulated.outcome {
            Err(oom) => Ok(Err(oom.held)),
            Ok(comm_groups) => {
                let job_trace = JobTrace {
                    nranks: job.world,
                    workers,
                    comm_groups,
                };
                let executor = GroundTruthExecutor::default();
                Ok(Ok(executor.run(&job_trace, &self.spec.cluster)?))
            }
        }
    }

    /// Predicts a batch of independent jobs, fanning across the spec's
    /// `emulation_threads`.
    ///
    /// Results are positionally aligned with `jobs` and byte-identical
    /// to calling [`PredictionEngine::predict_job`] per job (modulo
    /// wall-clock [`StageTimings`]): the pipeline is deterministic, and
    /// the shared estimator cache memoizes pure functions, so execution
    /// interleaving cannot change any outcome. Member jobs emulate
    /// sequentially; the parallelism is across jobs.
    pub fn predict_batch(&self, jobs: &[TrainingJob]) -> Vec<Result<Prediction, MayaError>> {
        self.predict_batch_with(jobs, None)
    }

    /// [`PredictionEngine::predict_batch`] with cooperative
    /// cancellation. The token is checked once per job, right after it
    /// is claimed by a pool worker: each slot independently either
    /// runs to completion — byte-identical to an uncancelled run — or
    /// resolves to [`MayaError::Cancelled`]. No stage is ever
    /// interrupted mid-flight. With concurrent workers the cancelled
    /// slots need not form a contiguous suffix (two threads can
    /// observe the token on opposite sides of the same instant);
    /// callers needing all-or-nothing semantics should discard the
    /// whole batch when any slot reports `Cancelled`, as the search
    /// scheduler does.
    pub fn predict_batch_with(
        &self,
        jobs: &[TrainingJob],
        cancel: Option<&CancelToken>,
    ) -> Vec<Result<Prediction, MayaError>> {
        // The parallelism is across jobs, each emulating sequentially
        // to avoid nested oversubscription; a lone job gets the whole
        // pool instead, so it emulates as fast as `predict_job`.
        let per_job = if jobs.len() > 1 {
            1
        } else {
            self.spec.emulation_threads
        };
        let mut out = Vec::with_capacity(jobs.len());
        infallible(fan_out(
            jobs,
            self.spec.emulation_threads,
            |job| {
                if cancel.is_some_and(CancelToken::is_cancelled) {
                    Err(MayaError::Cancelled)
                } else {
                    self.predict_job_with(job, per_job)
                }
            },
            |result| {
                out.push(result);
                Ok(())
            },
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MayaBuilder;
    use maya_hw::ClusterSpec;
    use maya_torchlet::{ModelSpec, ParallelConfig};
    use maya_trace::Dtype;

    fn job(world: u32, parallel: ParallelConfig, batch: u32) -> TrainingJob {
        TrainingJob {
            model: ModelSpec::gpt3_125m(),
            parallel,
            flavor: FrameworkFlavor::Megatron,
            compile: false,
            global_batch: batch * world,
            world,
            gpus_per_node: 8,
            precision: Dtype::Bf16,
            iterations: 1,
        }
    }

    /// An oracle engine emulating on `threads` OS threads.
    fn threaded(cluster: ClusterSpec, threads: usize) -> PredictionEngine {
        let spec = EmulationSpec::new(cluster.clone()).with_emulation_threads(threads);
        MayaBuilder::new(cluster).with_spec(spec).build().unwrap()
    }

    /// A one-way gate threads can wait on.
    #[derive(Default)]
    struct Gate(Mutex<bool>, std::sync::Condvar);

    impl Gate {
        fn open(&self) {
            *self.0.lock().unwrap() = true;
            self.1.notify_all();
        }

        fn wait(&self) {
            let mut open = self.0.lock().unwrap();
            while !*open {
                open = self.1.wait(open).unwrap();
            }
        }
    }

    #[test]
    fn fan_out_delivers_in_index_order_whatever_finishes_first() {
        let items: Vec<usize> = (0..32).collect();
        for threads in [0, 1, 2, 3, 8] {
            // Index 0 finishes only once every other index has, so on
            // two or more threads it is the last result to arrive.
            let others_done = Gate::default();
            let finished = AtomicUsize::new(0);
            let mut seen = Vec::new();
            let done: Result<(), Infallible> = fan_out(
                &items,
                threads,
                |&i| {
                    if i == 0 && threads > 1 {
                        others_done.wait();
                    } else if finished.fetch_add(1, Ordering::SeqCst) + 2 == items.len() {
                        others_done.open();
                    }
                    i
                },
                |i| {
                    seen.push(i);
                    Ok(())
                },
            );
            infallible(done);
            assert_eq!(seen, items, "{threads} threads");
        }
    }

    #[test]
    fn fan_out_sink_error_stops_claims_and_joins_every_thread() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            // Every index but 0 waits for the sink to be entered, so
            // when it fails each other thread is in the middle of work.
            let sink_entered = Gate::default();
            let (claimed, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let done = fan_out(
                &items,
                threads,
                |&i| {
                    claimed.fetch_add(1, Ordering::SeqCst);
                    if i != 0 {
                        sink_entered.wait();
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                    i
                },
                |i| {
                    sink_entered.open();
                    Err(i)
                },
            );
            assert_eq!(done, Err(0), "the first delivery is index 0");
            // One claim per thread, plus one for every send that still
            // went through: index 0's and what the channel can buffer.
            let claimed = claimed.load(Ordering::SeqCst);
            assert!(claimed <= 2 * threads + 1, "{threads} threads: {claimed}");
            assert_eq!(
                finished.load(Ordering::SeqCst),
                claimed,
                "{threads} threads: claimed work outlived the call"
            );
        }
    }

    #[test]
    fn batch_matches_per_job_predictions() {
        let batched = threaded(ClusterSpec::h100(1, 4), 4);
        let sequential = MayaBuilder::new(ClusterSpec::h100(1, 4)).build().unwrap();
        let jobs: Vec<TrainingJob> = [
            ParallelConfig::default(),
            ParallelConfig {
                tp: 2,
                ..Default::default()
            },
            ParallelConfig {
                pp: 2,
                ..Default::default()
            },
            ParallelConfig {
                tp: 2,
                pp: 2,
                ..Default::default()
            },
            ParallelConfig {
                microbatch_multiplier: 2,
                ..Default::default()
            },
        ]
        .into_iter()
        .map(|p| job(4, p, 8))
        .collect();
        let batch = batched.predict_batch(&jobs);
        assert_eq!(batch.len(), jobs.len());
        for (j, b) in jobs.iter().zip(&batch) {
            let b = b.as_ref().expect("batch prediction succeeds");
            let s = sequential
                .predict_job(j)
                .expect("sequential prediction succeeds");
            assert_eq!(
                b.iteration_time(),
                s.iteration_time(),
                "config {:?}",
                j.parallel
            );
            assert_eq!(b.oom(), s.oom());
            assert_eq!(b.workers_simulated, s.workers_simulated);
            assert_eq!(b.trace_events, s.trace_events);
        }
    }

    #[test]
    fn batch_reports_errors_positionally() {
        let maya = threaded(ClusterSpec::h100(1, 4), 2);
        let good = job(4, ParallelConfig::default(), 8);
        let bad = job(2, ParallelConfig::default(), 8); // world mismatch
        let out = maya.predict_batch(&[good, bad, good]);
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(MayaError::WorldMismatch { .. })));
        assert!(out[2].is_ok());
    }

    #[test]
    fn repeated_predictions_hit_the_shared_cache() {
        let maya = MayaBuilder::new(ClusterSpec::h100(1, 1)).build().unwrap();
        let j = job(1, ParallelConfig::default(), 8);
        maya.predict_job(&j).unwrap();
        let after_first = maya.cache_stats();
        maya.predict_job(&j).unwrap();
        let after_second = maya.cache_stats();
        assert!(after_first.misses > 0, "first run must populate the cache");
        assert_eq!(
            after_second.misses, after_first.misses,
            "second identical run must not re-derive any kernel time"
        );
        assert!(after_second.hits > after_first.hits);
    }

    #[test]
    fn pre_cancelled_batch_runs_nothing() {
        let maya = threaded(ClusterSpec::h100(1, 4), 2);
        let token = crate::CancelToken::new();
        token.cancel();
        let jobs = vec![job(4, ParallelConfig::default(), 8); 3];
        let out = maya.predict_batch_with(&jobs, Some(&token));
        assert_eq!(out.len(), 3);
        for r in &out {
            assert!(matches!(r, Err(MayaError::Cancelled)), "{r:?}");
        }
        assert_eq!(
            maya.cache_stats().misses,
            0,
            "a pre-cancelled batch must never touch the pipeline"
        );
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        let maya = threaded(ClusterSpec::h100(1, 4), 2);
        let token = crate::CancelToken::new();
        let jobs = vec![
            job(4, ParallelConfig::default(), 8),
            job(
                4,
                ParallelConfig {
                    tp: 2,
                    ..Default::default()
                },
                8,
            ),
        ];
        let with = maya.predict_batch_with(&jobs, Some(&token));
        let without = maya.predict_batch(&jobs);
        for (a, b) in with.iter().zip(&without) {
            assert_eq!(
                a.as_ref().unwrap().iteration_time(),
                b.as_ref().unwrap().iteration_time()
            );
        }
    }

    #[test]
    fn invalid_trace_fails_fast_in_predict_trace() {
        // predict_trace is the one entry point taking a caller-built
        // JobTrace; it must validate exactly once at the boundary and
        // reject before any pipeline stage spends time.
        let maya = MayaBuilder::new(ClusterSpec::h100(1, 1)).build().unwrap();
        let bad = JobTrace {
            nranks: 1,
            workers: vec![WorkerTrace::new(5)], // rank 5 out of range
            comm_groups: std::collections::BTreeMap::new(),
        };
        let err = maya.predict_trace(bad).unwrap_err();
        assert!(
            matches!(err, MayaError::Sim(SimError::InvalidTrace(_))),
            "{err:?}"
        );
        assert_eq!(
            maya.cache_stats().misses,
            0,
            "invalid trace must fail before the estimation stage"
        );
    }

    #[test]
    fn predict_trace_refuses_a_world_that_is_not_the_clusters() {
        // gpt3_125m tp2 traced on 2x8 H100s, handed to a 2-GPU engine:
        // the trace is valid, its world is not the cluster's.
        let tp2 = ParallelConfig {
            tp: 2,
            ..Default::default()
        };
        let j = job(16, tp2, 8);
        let ranks: Vec<u32> = (0..16).collect();
        let wide = MayaBuilder::new(ClusterSpec::h100(2, 8)).build().unwrap();
        let traced = wide.trace_workload(&ranks, |r, ctx| j.run_worker(r, ctx));
        let whole = JobTrace {
            nranks: 16,
            workers: traced.into_iter().map(|(t, _)| t).collect(),
            comm_groups: maya_torchlet::engine::megatron_comm_groups(&j),
        };
        let two = ClusterSpec::h100(1, 2);
        for cluster in [two.clone(), two.with_default_topology()] {
            let maya = MayaBuilder::new(cluster).build().unwrap();
            let err = maya.predict_trace(whole.clone()).unwrap_err();
            assert!(
                matches!(
                    err,
                    MayaError::WorldMismatch {
                        job: 16,
                        cluster: 2
                    }
                ),
                "{err:?}"
            );
            assert_eq!(maya.cache_stats().misses, 0, "no stage ran");
        }
    }

    #[test]
    fn valid_trace_predicts_through_scratch_pool() {
        // Same collated trace predicted repeatedly: the pooled scratch
        // path must return identical reports every time.
        let maya = MayaBuilder::new(ClusterSpec::h100(1, 1)).build().unwrap();
        let j = job(1, ParallelConfig::default(), 8);
        let baseline = maya.predict_job(&j).unwrap().iteration_time();
        for _ in 0..3 {
            let p = maya.predict_job(&j).unwrap();
            assert_eq!(p.iteration_time(), baseline);
        }
    }

    #[test]
    fn oom_verdict_tallies_every_rank_on_any_thread_count() {
        // Stage 0 of a 1F1B pipeline holds the most microbatches in
        // flight: its ranks run out of memory, the last stage's do not.
        let cluster = ClusterSpec::h100(1, 4);
        let parallel = ParallelConfig {
            pp: 2,
            microbatch_multiplier: 4,
            ..Default::default()
        };
        let j = TrainingJob {
            model: ModelSpec::gpt3_2_7b(),
            ..job(4, parallel, 16)
        };
        // The verdict as the all-ranks-then-collate engine formed it.
        let traced: Vec<_> = (0..4)
            .map(|r| maya_torchlet::engine::trace_one_rank(&j, r, cluster.gpu))
            .collect();
        let ooms: Vec<bool> = traced.iter().map(|(_, res)| res.is_err()).collect();
        assert_eq!(ooms, [true, true, false, false], "fixture drifted");
        let expected = traced
            .iter()
            .find_map(|(trace, res)| match res {
                Err(CudaError::MemoryAllocation { requested, .. }) => {
                    Some((trace.rank, trace.summary.peak_mem_bytes + requested))
                }
                _ => None,
            })
            .unwrap();
        let events: usize = traced.iter().map(|(t, _)| t.events.len()).sum();
        for threads in [1, 2, 3, 8] {
            let maya = threaded(cluster.clone(), threads);
            let p = maya.predict_job(&j).unwrap();
            match p.outcome {
                PredictOutcome::OutOfMemory {
                    rank,
                    peak_attempted,
                } => assert_eq!((rank, peak_attempted), expected),
                PredictOutcome::Completed(_) => panic!("expected an OOM verdict"),
            }
            assert_eq!(
                (p.workers_emulated, p.workers_simulated, p.trace_events),
                (4, 0, events),
                "{threads} threads"
            );
            // Rank 0 is the first to run out: every trace is dropped
            // with what it was owed.
            assert_eq!(maya.host_charges(), 0, "{threads} threads");
        }
    }

    #[test]
    fn a_discarded_rank_hands_back_all_three_buffers_uncharged() {
        let j = job(4, ParallelConfig::default(), 8);
        let mut ctx = CudaContext::recording_into(
            0,
            ClusterSpec::h100(1, 4).gpu,
            TraceBuffers::default(),
            Some(Templates::default()),
        );
        j.run_worker(0, &mut ctx).unwrap();
        let (trace, meta, charges) = ctx.into_unsettled();
        assert_eq!(charges.owed(), trace.events.len());
        assert!(!meta.collectives.is_empty());
        let held = (
            trace.events.as_ptr(),
            meta.collectives.as_ptr(),
            trace.events.len(),
        );
        let spare = discard(trace, meta, charges);
        assert_eq!(
            (
                spare.events.as_ptr(),
                spare.collectives.as_ptr(),
                spare.events.len()
            ),
            held,
            "the verdict has read what it needs: nothing is touched"
        );
        assert!(spare.host_notes.capacity() >= held.2);
        assert!(spare.host_notes.is_empty());
    }

    #[test]
    fn trace_workload_owes_nothing_and_reads_as_a_settled_recording() {
        let cluster = ClusterSpec::h100(1, 4);
        let j = job(4, ParallelConfig::default(), 8);
        let maya = threaded(cluster.clone(), 2);
        let traced = maya.trace_workload(&[0, 1, 2, 3], |rank, ctx| j.run_worker(rank, ctx));
        for (rank, (trace, res)) in (0..).zip(&traced) {
            res.as_ref().expect("rank emulates");
            let (settled, _) = maya_torchlet::engine::trace_one_rank(&j, rank, cluster.gpu);
            assert_eq!(trace, &settled, "rank {rank}");
        }
        assert_eq!(maya.host_charges(), 0, "tracing is not predicting");
    }

    /// A spec that folds records every rank against the kept classes'
    /// templates and defers its host time; one that does not compares
    /// nothing and charges as it records.
    #[test]
    fn only_a_spec_that_folds_signs_its_ranks() {
        let cluster = ClusterSpec::h100(1, 4);
        let faults = maya_net::FaultPlan::generate(1, 4, maya_trace::SimTime::from_secs(1.0));
        let spec = EmulationSpec::new(cluster.clone()).with_emulation_threads(2);
        let j = job(4, ParallelConfig::default(), 8);
        for (spec, folds) in [
            (spec.clone(), true),
            (spec.clone().with_dedup(false), false),
            (spec.with_faults(Some(faults)), false),
        ] {
            let maya = MayaBuilder::new(cluster.clone())
                .with_spec(spec)
                .build()
                .unwrap();
            assert_eq!(maya.folds(), folds);
            let (mut deferred, mut events) = (Vec::new(), 0);
            infallible(maya.emulate_each(
                &[0, 1, 2, 3],
                |rank, ctx| j.run_worker(rank, ctx),
                2,
                || maya.folds().then(Templates::default),
                |trace, meta, charges, _| {
                    deferred.push(charges.owed() > 0);
                    // A rank that may be folded only notes its host
                    // time; one that may not, charges.
                    let owed = if folds { trace.events.len() } else { 0 };
                    assert_eq!(charges.owed(), owed);
                    events += trace.events.len();
                    Ok(discard(trace, meta, charges))
                },
            ));
            assert_eq!(deferred, [folds; 4]);
            let p = maya.predict_job(&j).unwrap();
            assert_eq!(p.workers_simulated, if folds { 1 } else { 4 });
            // Host time is computed for the traces that are kept.
            let kept = if folds { events / 4 } else { events };
            assert_eq!((maya.host_charges(), p.trace_events), (kept as u64, kept));
        }
    }

    #[test]
    fn a_prediction_hands_its_templates_to_the_next() {
        let maya = MayaBuilder::new(ClusterSpec::h100(1, 8)).build().unwrap();
        let parallel = ParallelConfig {
            pp: 2,
            ..Default::default()
        };
        let j = job(8, parallel, 8);
        // The pool's buffers, by address, and what they hold room for.
        let pooled = |maya: &PredictionEngine| {
            let pool = maya.event_pool.lock().unwrap();
            let mut at: Vec<usize> = pool.iter().map(|b| b.as_ptr() as usize).collect();
            at.sort_unstable();
            (at, pool.iter().map(Vec::capacity).sum::<usize>())
        };
        let first = maya.predict_job(&j).unwrap();
        assert_eq!(first.workers_simulated, 2);
        let (buffers, capacity) = pooled(&maya);
        assert_eq!(buffers.len(), 2, "one buffer a kept class");
        assert!(capacity >= first.trace_events);
        // The next prediction's ranks record into them, and its two
        // templates are them again: nothing is allocated, nothing lost.
        let second = maya.predict_job(&j).unwrap();
        assert_eq!(second.report(), first.report());
        assert_eq!(pooled(&maya), (buffers, capacity));
        // A trace pushed whole folds the same way; its kept traces'
        // buffers join the pool.
        let traced =
            maya.trace_workload(&(0..8).collect::<Vec<_>>(), |r, ctx| j.run_worker(r, ctx));
        let comm_groups = maya_torchlet::engine::megatron_comm_groups(&j);
        let workers = traced.into_iter().map(|(t, _)| t).collect();
        let whole = JobTrace {
            nranks: 8,
            workers,
            comm_groups,
        };
        let third = maya.predict_trace(whole).unwrap();
        assert_eq!(third.report(), first.report());
        assert_eq!(pooled(&maya).0.len(), 2);
    }

    #[test]
    fn stage_timings_partition_the_call() {
        // Collation runs interleaved with emulation; the two are still
        // reported apart, and no stage is counted twice.
        let maya = MayaBuilder::new(ClusterSpec::h100(1, 8)).build().unwrap();
        let parallel = ParallelConfig {
            tp: 2,
            pp: 2,
            ..Default::default()
        };
        let t = Instant::now();
        let p = maya.predict_job(&job(8, parallel, 8)).unwrap();
        let wall = t.elapsed();
        assert!(p.timings.emulation > Duration::ZERO);
        assert!(p.timings.collation > Duration::ZERO);
        assert!(p.timings.total() <= wall, "{:?} of {wall:?}", p.timings);
    }

    #[test]
    fn empty_batch_is_empty() {
        let maya = MayaBuilder::new(ClusterSpec::h100(1, 1)).build().unwrap();
        assert!(maya.predict_batch(&[]).is_empty());
    }
}
