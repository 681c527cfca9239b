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
//!   streamed: a rank's recorder signs its trace and indexes its
//!   collectives as the calls are issued (only when the spec folds does
//!   it sign), and every finished rank goes straight into a streaming
//!   [`Collator`], which books the indexed collectives and hands the
//!   trace back only if its signature opens a new class. The serial
//!   sink between the emulating threads lowers a trace handed back into
//!   the simulator's arena at once ([`maya_sim::Lowering::worker`]) and
//!   records a later rank into its buffer, so a prediction holds one
//!   trace at a time, not every kept one, and reads a kept trace's
//!   events once. A signing recorder does not run the host clock
//!   either: it notes each call, and the sink settles the notes
//!   ([`HostCharges::settle`]) only for a trace whose signature the
//!   collator does not hold yet, so host time is computed per kept
//!   trace, not per rank. Estimation is that lowering (one memo query
//!   per distinct kernel shape of the job and per memcpy) plus one pass
//!   over the collective sites once the collator has the communicator
//!   map; simulation is the replay of what was lowered. A replay that
//!   run-ahead cannot order (`maya_sim`'s module docs, "Run-ahead")
//!   hands back an empty lowering, and the engine emulates the job
//!   again to feed it: emulation is deterministic. The collator is the
//!   one collation path: [`PredictionEngine::measure_actual`] emulates
//!   through the same loop under a plan that runs every rank and folds
//!   none, keeping every trace for the testbed, and
//!   [`PredictionEngine::predict_trace`] pushes a caller's finished
//!   traces into it, each scanned for the metadata a recorder would
//!   have handed over and lowered as it is kept;
//! - one ordered fan-out over `emulation_threads` OS threads, which
//!   spreads either one job's ranks (`predict_job`) or a batch's
//!   independent jobs ([`PredictionEngine::predict_batch`]) and hands
//!   results back in index order.
//!
//! Every stage is deterministic, so batched predictions are
//! byte-identical to sequential ones — the search layer relies on this
//! to keep speculative batched trials faithful to serial order.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use maya_collate::{unique_megatron_ranks, Collator, Pushed};
use maya_cuda::{CudaContext, CudaError, HostCharges};
use maya_estimator::{CacheStats, CachingEstimator, RuntimeEstimator};
use maya_hw::{GroundTruthExecutor, Measurement};
use maya_sim::{Replay, SimError, SimObs, SimScratch, Simulator};
use maya_torchlet::{FrameworkFlavor, RankTopology, TrainingJob};
use maya_trace::{JobTrace, TraceBuffers, TraceEvent, TraceMeta, WorkerTrace};

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
    /// Events emitted by every emulated rank.
    events: usize,
}

/// What emulating a job produced.
struct Emulated {
    /// The job's communicator map — the traces the collator kept, one
    /// per class when the plan folds, went to the caller as they came —
    /// or the OOM verdict.
    outcome: Result<BTreeMap<u64, Vec<u32>>, OomInfo>,
    /// Ranks emulated.
    ranks: usize,
    /// Trace events whose host time was computed.
    charged: usize,
    /// Wall time spent inside the collator.
    collation: Duration,
}

/// Which ranks of a job to emulate, the communicator groups known
/// without observing them, and whether ranks with identical traces fold
/// onto one representative.
struct LaunchPlan {
    ranks: Vec<u32>,
    known: BTreeMap<u64, Vec<u32>>,
    fold: bool,
}

impl LaunchPlan {
    /// Every rank, its groups observed, nothing folded: the job as real
    /// hardware runs it.
    fn every_rank(job: &TrainingJob) -> Self {
        LaunchPlan {
            ranks: (0..job.world).collect(),
            known: BTreeMap::new(),
            fold: false,
        }
    }
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
            // Not signing, every rank charged as it recorded: nothing
            // was deferred, so this settles nothing.
            self.emulate_each(
                ranks,
                script,
                threads,
                false,
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
    /// (signed only if `sign`) and the host time it is still owed
    /// (something only if `sign`) to `sink` on the calling thread in
    /// `ranks` order. `sink` returns buffers for a later rank to record
    /// into (see [`CudaContext::recording_into`]); its first error
    /// stops the emulation.
    fn emulate_each<F, S, E>(
        &self,
        ranks: &[u32],
        script: F,
        threads: usize,
        sign: bool,
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
        // Buffers the sink handed back. Only `push`/`pop` run under
        // this lock, so it cannot be poisoned; a missed spare costs an
        // allocation.
        let spares: Mutex<Vec<TraceBuffers>> = Mutex::new(Vec::new());
        fan_out(
            ranks,
            threads,
            |&r| {
                let spare = spares.lock().ok().and_then(|mut pool| pool.pop());
                let mut ctx = CudaContext::recording_into(r, gpu, spare.unwrap_or_default(), sign);
                let res = script(r, &mut ctx);
                (ctx.into_unsettled(), res)
            },
            |((trace, meta, charges), res)| {
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

    /// How the current spec predicts a job. Selective launch leaves
    /// most communicator slots unobserved, so it supplies the
    /// authoritative group map from workload knowledge (§7.4's
    /// "explicit knowledge of the workload"); every other job emulates
    /// all ranks and lets the collator observe its groups.
    fn launch_plan(&self, job: &TrainingJob) -> LaunchPlan {
        let fold = self.folds();
        if self.spec.selective_launch && matches!(job.flavor, FrameworkFlavor::Megatron) {
            let topo = RankTopology::new(&job.parallel, job.world);
            LaunchPlan {
                ranks: unique_megatron_ranks(topo.tp, topo.dp, topo.pp),
                known: maya_torchlet::engine::megatron_comm_groups(job),
                fold,
            }
        } else {
            LaunchPlan {
                fold,
                ..LaunchPlan::every_rank(job)
            }
        }
    }

    /// Whether this spec folds ranks with identical traces onto one
    /// representative — unsound once per-rank state matters: a hetero
    /// pool scales kernels by rank and a fault plan targets specific
    /// ranks, so both disable the reduction.
    fn folds(&self) -> bool {
        self.spec.dedup && self.spec.cluster.hetero.is_none() && self.spec.faults.is_none()
    }

    /// Emulates a training job under the launch plan `plan` draws for
    /// it, collating each rank as it finishes: when the plan folds,
    /// every rank signs its trace while recording it, only one trace
    /// per class of identical workers is ever kept (§4.2), and a
    /// dropped trace's buffers are what the next rank records into. A
    /// kept trace goes to `keep` at once, which hands back its event
    /// buffer for a later rank (an unallocated one if it keeps the
    /// trace). On OOM, collation stops — a partially-OOMed job has
    /// incomplete communicator traces — the remaining ranks are still
    /// emulated for the tally, and the OOM verdict of the first rank to
    /// run out is returned instead.
    fn emulate_with(
        &self,
        job: &TrainingJob,
        plan: impl FnOnce(&TrainingJob) -> LaunchPlan,
        threads: usize,
        mut keep: impl FnMut(WorkerTrace) -> Result<Vec<TraceEvent>, MayaError>,
    ) -> Result<Emulated, MayaError> {
        job.validate()?;
        if job.world != self.spec.cluster.num_gpus() {
            return Err(MayaError::WorldMismatch {
                job: job.world,
                cluster: self.spec.cluster.num_gpus(),
            });
        }
        let LaunchPlan { ranks, known, fold } = plan(job);
        let mut collator = Collator::new(job.world, &known, fold);
        let mut collation = Duration::ZERO;
        // The first rank to run out: its rank, the memory it held and
        // the allocation that failed.
        let mut oom: Option<(u32, u64, u64)> = None;
        let (mut events, mut charged) = (0usize, 0usize);
        self.emulate_each(
            &ranks,
            |rank, ctx| job.run_worker(rank, ctx),
            threads,
            fold,
            |mut trace, meta, charges, res| {
                debug_assert_eq!(meta.signature.is_some(), fold, "a rank signs iff it folds");
                events += trace.events.len();
                charged += trace.events.len() - charges.owed();
                match res {
                    Ok(()) => {}
                    Err(CudaError::MemoryAllocation { requested, .. }) => {
                        oom.get_or_insert((trace.rank, trace.summary.peak_mem_bytes, requested));
                    }
                    Err(e) => return Err(MayaError::Device(e)),
                }
                // The verdict reads summaries and event counts: what
                // an OOMed job's traces are owed is never computed.
                if oom.is_some() {
                    return Ok(discard(trace, meta, charges));
                }
                // A trace the collator will fold away is dropped unread
                // (`push` reads collectives, the signature excludes host
                // time), so only one it will keep is settled.
                let host_notes = if meta.signature.is_some_and(|s| collator.holds(s)) {
                    charges.forgo()
                } else {
                    charged += charges.owed();
                    charges.settle(&mut trace)
                };
                // lint:allow(wall-clock-in-output): stage timing telemetry — collation output is trace-derived
                let t = Instant::now();
                let pushed = collator.push(trace, meta);
                collation += t.elapsed();
                let Pushed {
                    kept: trace,
                    mut spare,
                } = pushed?;
                if let Some(trace) = trace {
                    spare.events = keep(trace)?;
                    spare.events.clear();
                }
                Ok(TraceBuffers {
                    host_notes,
                    ..spare
                })
            },
        )?;
        let outcome = match oom {
            Some((rank, held, requested)) => Err(OomInfo {
                rank,
                held,
                peak_attempted: held.saturating_add(requested),
                events,
            }),
            None => {
                // lint:allow(wall-clock-in-output): stage timing telemetry — collation output is trace-derived
                let t = Instant::now();
                let groups = collator.finish();
                collation += t.elapsed();
                Ok(groups?)
            }
        };
        Ok(Emulated {
            outcome,
            ranks: ranks.len(),
            charged,
            collation,
        })
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

    /// Emulates `job` and lowers each trace the collator keeps into a
    /// pooled simulator arena the moment the collator hands it back,
    /// recycling its buffer for a later rank: a prediction holds the
    /// trace being recorded or examined, never the kept ones. Lowering
    /// is the estimation stage — the one read of a kept trace, one memo
    /// query per distinct kernel shape of the job and per memcpy
    /// (Table 6 / Fig. 13's estimation stage) — and runs on the
    /// calling thread, overlapping the emulating threads when there are
    /// several; collective queries resolve during the replay, once per
    /// collective shape of each communicator. Across trials the memo
    /// persists: a warm search loop pays estimation only for shapes it
    /// has never seen.
    fn predict_job_with(
        &self,
        job: &TrainingJob,
        emulation_threads: usize,
    ) -> Result<Prediction, MayaError> {
        self.with_sim_scratch(|scratch| {
            let sim = self.simulator();
            let mut timings = StageTimings::default();
            let mut lowering = sim.lowering(scratch);
            let mut rerun = false;
            loop {
                // lint:allow(wall-clock-in-output): stage timing telemetry — predicted runtimes come from the simulator, not this clock
                let t0 = Instant::now();
                let (mut lowered, mut kept, mut kept_events) = (Duration::ZERO, 0, 0);
                let emulated = self.emulate_with(
                    job,
                    |job| self.launch_plan(job),
                    emulation_threads,
                    |trace| {
                        // lint:allow(wall-clock-in-output): stage timing telemetry — estimates come from the memoized estimator
                        let t = Instant::now();
                        lowering.worker(&trace)?;
                        lowered += t.elapsed();
                        (kept, kept_events) = (kept + 1, kept_events + trace.events.len());
                        Ok(trace.events)
                    },
                )?;
                timings.emulation += t0.elapsed().saturating_sub(emulated.collation + lowered);
                timings.collation += emulated.collation;
                timings.estimation += lowered;
                if !rerun {
                    self.host_charges
                        .fetch_add(emulated.charged as u64, Ordering::Relaxed);
                }
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
                // lint:allow(wall-clock-in-output): stage timing telemetry — estimates come from the memoized estimator
                let t = Instant::now();
                let program = lowering.resolve(&groups)?;
                timings.estimation += t.elapsed();
                // lint:allow(wall-clock-in-output): stage timing telemetry — the sim result is wall-clock-free
                let t = Instant::now();
                let replayed = program.replay();
                timings.simulation += t.elapsed();
                match replayed {
                    Replay::Done(report) => {
                        return Ok(Prediction {
                            outcome: PredictOutcome::Completed(report?),
                            timings,
                            workers_emulated: emulated.ranks,
                            workers_simulated: kept,
                            trace_events: kept_events,
                        })
                    }
                    // Emulation is deterministic: emulating the job
                    // again feeds the lowering, now without run-ahead,
                    // the same traces.
                    Replay::Abandoned(again) => (lowering, rerun) = (again, true),
                }
            }
        })
    }

    /// Predicts from an already-collated job trace.
    ///
    /// The trace is validated exactly once, here at the boundary; the
    /// rest of the pipeline (lowering, replay) runs on the prevalidated
    /// fast path, so an invalid trace fails fast before any stage
    /// spends time on it. Its workers then go through the collator
    /// `predict_job` feeds, with the trace's groups as the known ones:
    /// each is scanned for the metadata a recorder would have handed
    /// over, when the spec folds only one per class is kept, and a kept
    /// one is lowered as the collator hands it back.
    pub fn predict_trace(&self, job_trace: JobTrace) -> Result<Prediction, MayaError> {
        job_trace
            .validate()
            .map_err(|m| MayaError::from(SimError::InvalidTrace(m)))?;
        let emulated = job_trace.workers.len();
        let fold = self.folds();
        self.with_sim_scratch(|scratch| {
            let sim = self.simulator();
            let mut timings = StageTimings::default();
            let mut lowering = sim.lowering(scratch);
            let mut collator = Collator::new(job_trace.nranks, &job_trace.comm_groups, fold);
            let mut kept = Vec::new();
            for trace in job_trace.workers {
                // lint:allow(wall-clock-in-output): stage timing telemetry — collation output is trace-derived
                let t = Instant::now();
                let meta = TraceMeta::scan(&trace.events, fold);
                let pushed = collator.push(trace, meta)?;
                timings.collation += t.elapsed();
                if let Some(trace) = pushed.kept {
                    // lint:allow(wall-clock-in-output): stage timing telemetry — estimates come from the memoized estimator
                    let t = Instant::now();
                    lowering.worker(&trace)?;
                    timings.estimation += t.elapsed();
                    kept.push(trace);
                }
            }
            // lint:allow(wall-clock-in-output): stage timing telemetry — collation output is trace-derived
            let t = Instant::now();
            let reduced = JobTrace {
                nranks: job_trace.nranks,
                workers: kept,
                comm_groups: collator.finish()?,
            };
            timings.collation += t.elapsed();
            // lint:allow(wall-clock-in-output): stage timing telemetry — estimates come from the memoized estimator
            let t = Instant::now();
            let mut program = lowering.resolve(&reduced.comm_groups)?;
            timings.estimation += t.elapsed();
            loop {
                // lint:allow(wall-clock-in-output): stage timing telemetry — the sim result is wall-clock-free
                let t = Instant::now();
                let replayed = program.replay();
                timings.simulation += t.elapsed();
                match replayed {
                    Replay::Done(report) => {
                        return Ok(Prediction {
                            outcome: PredictOutcome::Completed(report?),
                            timings,
                            workers_emulated: emulated,
                            workers_simulated: reduced.workers.len(),
                            trace_events: reduced.total_events(),
                        })
                    }
                    // The caller's traces are in hand: feed them again.
                    Replay::Abandoned(again) => program = again.job(&reduced)?,
                }
            }
        })
    }

    /// Runs the job on the ground-truth testbed (the stand-in for "actual
    /// deployment" measurements). Emulates *all* ranks, whatever the
    /// spec — real hardware cannot deduplicate workers or skip ranks —
    /// and adds nothing to [`PredictionEngine::host_charges`].
    /// The outer `Result` carries pipeline errors; the inner
    /// `Err(peak_bytes)` reports an actual OOM: the memory the first
    /// rank to run out held.
    pub fn measure_actual(&self, job: &TrainingJob) -> Result<Result<Measurement, u64>, MayaError> {
        let threads = self.spec.emulation_threads;
        // The executor takes the job trace whole: every trace is kept.
        let mut workers = Vec::new();
        let emulated = self.emulate_with(job, LaunchPlan::every_rank, threads, |trace| {
            workers.push(trace);
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
        let batched = MayaBuilder::new(ClusterSpec::h100(1, 4))
            .emulation_threads(4)
            .build()
            .unwrap();
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
        let maya = MayaBuilder::new(ClusterSpec::h100(1, 4))
            .emulation_threads(2)
            .build()
            .unwrap();
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
        let maya = MayaBuilder::new(ClusterSpec::h100(1, 4))
            .emulation_threads(2)
            .build()
            .unwrap();
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
        let maya = MayaBuilder::new(ClusterSpec::h100(1, 4))
            .emulation_threads(2)
            .build()
            .unwrap();
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
            let maya = MayaBuilder::new(cluster.clone())
                .emulation_threads(threads)
                .build()
                .unwrap();
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
            true,
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
        let maya = MayaBuilder::new(cluster.clone())
            .emulation_threads(2)
            .build()
            .unwrap();
        let traced = maya.trace_workload(&[0, 1, 2, 3], |rank, ctx| j.run_worker(rank, ctx));
        for (rank, (trace, res)) in (0..).zip(&traced) {
            res.as_ref().expect("rank emulates");
            // `trace_one_rank` signs, defers and settles.
            let (settled, _) = maya_torchlet::engine::trace_one_rank(&j, rank, cluster.gpu);
            assert_eq!(trace, &settled, "rank {rank}");
        }
        assert_eq!(maya.host_charges(), 0, "tracing is not predicting");
    }

    #[test]
    fn only_a_spec_that_folds_signs_its_ranks() {
        let cluster = ClusterSpec::h100(1, 4);
        let faults = maya_net::FaultPlan::generate(1, 4, maya_trace::SimTime::from_secs(1.0));
        let builder = || MayaBuilder::new(cluster.clone()).emulation_threads(2);
        let j = job(4, ParallelConfig::default(), 8);
        for (maya, folds) in [
            (builder(), true),
            (builder().dedup(false), false),
            (builder().faults(faults), false),
        ] {
            let maya = maya.build().unwrap();
            assert_eq!(maya.folds(), folds);
            let (mut signed, mut events) = (Vec::new(), 0);
            infallible(maya.emulate_each(
                &[0, 1, 2, 3],
                |rank, ctx| j.run_worker(rank, ctx),
                2,
                maya.folds(),
                |trace, meta, charges, _| {
                    signed.push(meta.signature.is_some());
                    // A rank that signs may be folded away, so it only
                    // notes its host time; one that does not, charges.
                    let owed = if folds { trace.events.len() } else { 0 };
                    assert_eq!(charges.owed(), owed);
                    events += trace.events.len();
                    Ok(discard(trace, meta, charges))
                },
            ));
            assert_eq!(signed, [folds; 4]);
            // `emulate_with` asserts the same of every rank it sinks.
            let p = maya.predict_job(&j).unwrap();
            assert_eq!(p.workers_simulated, if folds { 1 } else { 4 });
            // Host time is computed for the traces that are kept.
            let kept = if folds { events / 4 } else { events };
            assert_eq!((maya.host_charges(), p.trace_events), (kept as u64, kept));
        }
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
