//! The job-oriented submission API: tickets, states, deadlines,
//! cancellation, and streaming progress.
//!
//! [`MayaService::submit`](crate::MayaService::submit) returns a
//! [`JobHandle`] — a ticket for one request moving through the typed
//! state machine
//!
//! ```text
//! Queued ──► Running ──► Done
//!    │           │   ├──► Cancelled
//!    │           │   ├──► Expired   (deadline hit at a wave boundary)
//!    │           └──────► Failed    (no verdict: panic, typed error)
//!    ├──────────────────► Expired   (deadline elapsed while queued)
//!    ├──────────────────► Cancelled (cancelled while queued)
//!    └──────────────────► Failed    (dropped unrun: service gone)
//! ```
//!
//! Every arrow into a terminal state is one transition. A job is one
//! lock-protected record (state, bounded progress queue, terminal
//! slot, one condvar), generic over its terminal payload — the
//! service's is [`JobOutcome`], the wire client's the same verdict over
//! its decoded response, or a remote error. Its [`JobProducer`] half travels with the work and
//! ends it by the consuming [`JobProducer::complete`] or by being
//! dropped ([`JobState::Failed`]; [`JobHandle::wait`] then reports
//! [`ServeError::Stopped`]); both reach the private `seal`, the only
//! place a terminal state is stored, so no exit path can forget a
//! verdict or deliver two. Its [`JobConsumer`] half reads, blocking
//! or — [`JobConsumer::try_next`] plus an [`JobConsumer::on_wake`]
//! hook — not, which is how one wire-server writer thread serves any
//! number of in-flight jobs.
//!
//! A handle supports non-blocking [`JobControl::poll`], blocking
//! [`JobHandle::wait`] / [`JobHandle::wait_outcome`], cooperative
//! [`JobControl::cancel`], and — for `Search` requests — a
//! [`JobHandle::progress`] stream of [`SearchProgress`] events emitted
//! at the scheduler's deterministic wave boundaries.
//!
//! Determinism is preserved end to end: cancellation and deadlines stop
//! a search only *between* committed trials, so a `Cancelled` or
//! mid-run-`Expired` response carries exactly a prefix of the
//! uncancelled run's trial records, byte for byte; and the
//! concatenation of all progress events' trial batches equals the final
//! result's `trials` exactly.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

pub use maya::CancelToken;
use maya_estimator::CacheStats;
use maya_search::{ConfigPoint, TrialOutcome, TrialRecord};

use crate::error::ServeError;
use crate::request::Response;

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Admitted; waiting for a worker.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished normally; the response is (or was) redeemable.
    Done,
    /// Stopped by [`JobControl::cancel`]. A search cancelled mid-run
    /// still carries its committed-prefix response.
    Cancelled,
    /// The per-request deadline elapsed. Expiry while queued sheds the
    /// job before it ever touches a worker.
    Expired,
    /// The request died without a verdict (its worker panicked).
    /// [`JobHandle::wait`] and [`JobHandle::wait_outcome`] report this
    /// as [`ServeError::Stopped`].
    Failed,
}

impl JobState {
    /// Whether the state is terminal (no further transitions).
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

/// Scheduling class of a job. Within a class the admission queue runs
/// earliest-deadline-first (remaining budget), then admission order;
/// across classes `High` beats `Normal` beats `Batch`, except that the
/// starvation guard ages long-waiting jobs upward one class per guard
/// interval so `Batch` work always reaches a worker eventually.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive: scheduled before everything un-aged.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Throughput work: runs when nothing more urgent is queued, aged
    /// into service by the starvation guard.
    Batch,
}

impl Priority {
    /// Scheduling rank: lower runs first (`High` = 0, `Batch` = 2).
    pub(crate) fn level(self) -> u8 {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Batch => 2,
        }
    }

    /// Every class (for exhaustive tests).
    pub fn all() -> [Priority; 3] {
        [Priority::High, Priority::Normal, Priority::Batch]
    }
}

/// Per-submission options (see [`crate::MayaService::submit_with`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobOptions {
    /// Total latency budget, measured from admission. Queue wait counts
    /// against it: a job still queued when the budget runs out is shed
    /// as [`JobState::Expired`] without consuming a worker slot, and a
    /// `Search` already running checks the budget at wave boundaries.
    /// `None` (the default) never expires.
    pub deadline: Option<Duration>,
    /// Scheduling class ([`Priority::Normal`] by default). Within a
    /// class, jobs with less remaining deadline budget run first.
    pub priority: Priority,
    /// The tenant this job is accounted to. Named tenants are subject
    /// to the service's per-tenant quotas (max queued, max in-flight)
    /// and get their own counters in
    /// [`ServiceStats::tenants`](crate::ServiceStats). `None` (the
    /// default) is anonymous: no quota, no per-tenant counters.
    pub tenant: Option<String>,
}

impl JobOptions {
    /// No deadline, [`Priority::Normal`], anonymous.
    pub fn new() -> Self {
        JobOptions::default()
    }

    /// Sets the latency budget.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Sets the scheduling class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Accounts the job to a named tenant (quota-checked at admission).
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }
}

/// One increment of a running `Search` job, emitted at a scheduler wave
/// boundary. Concatenating `trials` across every event of a job yields
/// exactly the final [`maya_search::SearchResult::trials`] (prefix by
/// prefix, byte for byte).
#[derive(Clone, Debug)]
pub struct SearchProgress {
    /// Trials committed since the previous event, in commit order.
    pub trials: Vec<TrialRecord>,
    /// Total trials committed so far (== sum of `trials` lengths).
    pub committed: usize,
    /// Best completed configuration so far.
    pub best: Option<(ConfigPoint, TrialOutcome)>,
    /// Engine memo-cache counter movement since the previous event
    /// (approximate when concurrent jobs share the engine).
    pub cache_delta: CacheStats,
}

/// Terminal verdict of one job. `R` is the response it carries: the
/// service's [`Response`], or a transport's view of one.
#[derive(Debug)]
pub enum JobOutcome<R = Response> {
    /// Ran to completion.
    Done(R),
    /// Cancelled. `Some` carries the deterministic committed prefix a
    /// mid-run cancellation produced; `None` means the job was
    /// cancelled before it started executing.
    Cancelled(Option<R>),
    /// The deadline elapsed. `None` means the job was shed while still
    /// queued (it never touched a worker); `Some` carries the committed
    /// prefix of a search whose budget ran out at a wave boundary.
    Expired(Option<R>),
}

impl<R> JobOutcome<R> {
    /// The state this outcome lands the job in.
    pub fn state(&self) -> JobState {
        match self {
            JobOutcome::Done(_) => JobState::Done,
            JobOutcome::Cancelled(_) => JobState::Cancelled,
            JobOutcome::Expired(_) => JobState::Expired,
        }
    }

    /// The response, for outcomes that carry one.
    pub fn response(&self) -> Option<&R> {
        match self {
            JobOutcome::Done(r) => Some(r),
            JobOutcome::Cancelled(r) | JobOutcome::Expired(r) => r.as_ref(),
        }
    }

    /// Consumes the outcome, yielding the response if it carries one.
    pub fn into_response(self) -> Option<R> {
        match self {
            JobOutcome::Done(r) => Some(r),
            JobOutcome::Cancelled(r) | JobOutcome::Expired(r) => r,
        }
    }

    /// The same verdict with its response mapped through `f`.
    pub fn map<S>(self, f: impl FnOnce(R) -> S) -> JobOutcome<S> {
        match self {
            JobOutcome::Done(r) => JobOutcome::Done(f(r)),
            JobOutcome::Cancelled(r) => JobOutcome::Cancelled(r.map(f)),
            JobOutcome::Expired(r) => JobOutcome::Expired(r.map(f)),
        }
    }
}

/// A job's terminal payload names the terminal state it brings.
pub trait Verdict {
    /// The terminal [`JobState`] this verdict seals the job with.
    fn state(&self) -> JobState;
}

impl<R> Verdict for JobOutcome<R> {
    fn state(&self) -> JobState {
        JobOutcome::state(self)
    }
}

/// An error in place of a verdict (the wire client's remote error
/// frame) is [`JobState::Failed`].
impl<T: Verdict, E> Verdict for Result<T, E> {
    fn state(&self) -> JobState {
        self.as_ref().map_or(JobState::Failed, Verdict::state)
    }
}

/// See [`JobConsumer::on_wake`].
type WakeHook = Arc<dyn Fn() + Send + Sync>;

/// Everything that changes over a job's life, under one lock.
struct Record<T> {
    state: JobState,
    /// The buffered progress stream, at most `high_water` events.
    events: VecDeque<SearchProgress>,
    high_water: usize,
    /// Whether [`JobHandle::progress`] has handed the stream out.
    stream_taken: bool,
    /// The terminal slot: filled by [`JobProducer::complete`], emptied
    /// by whoever redeems it.
    verdict: Option<T>,
    wake: Option<WakeHook>,
}

/// One job: the [`Record`] and the condvar blocking readers park on,
/// shared by one [`JobProducer`] and any number of [`JobConsumer`]s.
struct Job<T> {
    record: Mutex<Record<T>>,
    changed: Condvar,
}

impl<T> Job<T> {
    fn lock(&self) -> MutexGuard<'_, Record<T>> {
        self.record.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn wait<'j>(&self, rec: MutexGuard<'j, Record<T>>) -> MutexGuard<'j, Record<T>> {
        self.changed.wait(rec).unwrap_or_else(|p| p.into_inner())
    }

    /// Announces a change, after its lock is released: blocked
    /// readers first, then the wake hook.
    fn publish(&self, hook: Option<WakeHook>) {
        self.changed.notify_all();
        if let Some(hook) = hook {
            hook();
        }
    }
}

/// Creates one job's linked halves. `high_water` (min 1) bounds the
/// buffered progress stream, coalescing past it.
pub fn job_channel<T: Verdict>(high_water: usize) -> (JobProducer<T>, JobConsumer<T>) {
    let job = Arc::new(Job {
        record: Mutex::new(Record {
            state: JobState::Queued,
            events: VecDeque::new(),
            high_water: high_water.max(1),
            stream_taken: false,
            verdict: None,
            wake: None,
        }),
        changed: Condvar::new(),
    });
    (
        JobProducer {
            job: Arc::clone(&job),
        },
        JobConsumer { job },
    )
}

/// The writing half of a job, held by whoever executes it. Consumed
/// by [`JobProducer::complete`]; dropped without a verdict, the job is
/// [`JobState::Failed`] — every path (panic, early return, shutdown)
/// ends it exactly once with no cleanup code.
pub struct JobProducer<T: Verdict> {
    job: Arc<Job<T>>,
}

impl<T: Verdict> JobProducer<T> {
    /// `Queued → Running`.
    pub fn set_running(&self) {
        self.job.lock().state = JobState::Running;
    }

    /// Buffers one progress event (its job is `Running`). Events
    /// buffer from the moment of submission so a late reader loses
    /// nothing — but the buffer is *bounded*: past `high_water`
    /// pending events, each new wave is **coalesced** into the newest
    /// buffered one (trial batches concatenate in commit order,
    /// `committed`/`best` take the newer values, cache deltas sum). A
    /// client that never drains a long search's stream therefore costs
    /// at most `high_water` events of memory, and the "concatenated
    /// events == final trials" invariant holds whether or not
    /// coalescing fired. Returns whether it did.
    pub fn emit_progress(&self, event: SearchProgress) -> bool {
        let mut rec = self.job.lock();
        rec.state = JobState::Running;
        // Edge-triggered: a woken reader works through the whole
        // backlog, so only its first event announces itself — a fast
        // search cannot flood the hook's channel.
        let hook = rec.events.is_empty().then(|| rec.wake.clone()).flatten();
        let full = rec.events.len() >= rec.high_water;
        match rec.events.back_mut() {
            Some(last) if full => {
                last.trials.extend(event.trials);
                last.committed = event.committed;
                last.best = event.best;
                last.cache_delta += event.cache_delta;
            }
            _ => rec.events.push_back(event),
        }
        drop(rec);
        self.job.publish(hook);
        full
    }

    /// Ends the job in `verdict.state()`: blocked readers wake, the
    /// progress stream ends once drained, the wake hook fires a last
    /// time. A job cannot be completed twice:
    ///
    /// ```
    /// use maya_serve::{job_channel, JobOutcome, JobState};
    /// let (producer, consumer) = job_channel::<JobOutcome>(1);
    /// producer.complete(JobOutcome::Cancelled(None));
    /// assert_eq!(consumer.poll(), JobState::Cancelled);
    /// ```
    ///
    /// ```compile_fail,E0382
    /// use maya_serve::{job_channel, JobOutcome};
    /// let (producer, _consumer) = job_channel::<JobOutcome>(1);
    /// producer.complete(JobOutcome::Cancelled(None));
    /// producer.complete(JobOutcome::Expired(None)); // use of moved value
    /// ```
    pub fn complete(self, verdict: T) {
        self.seal(verdict.state(), Some(verdict));
    }

    /// The single place a job becomes terminal. A no-op on a job that
    /// already is (the drop that follows every `complete`).
    fn seal(&self, state: JobState, verdict: Option<T>) {
        debug_assert!(state.is_terminal(), "a verdict must name a terminal state");
        let mut rec = self.job.lock();
        if rec.state.is_terminal() {
            return;
        }
        rec.state = state;
        rec.verdict = verdict;
        let hook = rec.wake.take();
        drop(rec);
        self.job.publish(hook);
    }
}

impl<T: Verdict> Drop for JobProducer<T> {
    fn drop(&mut self) {
        self.seal(JobState::Failed, None);
    }
}

/// One step of a job, as [`JobConsumer::try_next`] yields them: every
/// progress event, then the terminal step.
pub enum JobStep<T> {
    /// The next buffered progress event.
    Progress(SearchProgress),
    /// The job is terminal and its progress stream is drained; the
    /// verdict is `None` if it died without one or was already
    /// redeemed.
    Terminal(Option<T>),
}

/// A reading view of a job. Clones observe the same record; the
/// verdict is redeemed once, by whichever view asks first.
pub struct JobConsumer<T: Verdict> {
    job: Arc<Job<T>>,
}

impl<T: Verdict> Clone for JobConsumer<T> {
    fn clone(&self) -> Self {
        JobConsumer {
            job: Arc::clone(&self.job),
        }
    }
}

impl<T: Verdict> JobConsumer<T> {
    /// Current state, without blocking.
    pub fn poll(&self) -> JobState {
        self.job.lock().state
    }

    /// The next step if one is ready, without blocking: buffered
    /// progress first, then (once terminal) the verdict. After `None`,
    /// [`JobConsumer::on_wake`] says when to ask again.
    pub fn try_next(&self) -> Option<JobStep<T>> {
        let mut rec = self.job.lock();
        if let Some(event) = rec.events.pop_front() {
            return Some(JobStep::Progress(event));
        }
        rec.state
            .is_terminal()
            .then(|| JobStep::Terminal(rec.verdict.take()))
    }

    /// Blocks for the next progress event; `None` once the job is
    /// terminal and everything buffered has been drained.
    pub fn next_progress(&self) -> Option<SearchProgress> {
        let mut rec = self.job.lock();
        loop {
            if let Some(event) = rec.events.pop_front() {
                return Some(event);
            }
            if rec.state.is_terminal() {
                return None;
            }
            rec = self.job.wait(rec);
        }
    }

    /// Blocks until the job is terminal and redeems the verdict.
    /// `None` means it died without one ([`JobState::Failed`]).
    pub fn wait_outcome(self) -> Option<T> {
        let mut rec = self.job.lock();
        while !rec.state.is_terminal() {
            rec = self.job.wait(rec);
        }
        rec.verdict.take()
    }

    /// Registers the job's wake hook (once; a second call replaces
    /// it). It is called — outside the job's lock, by the thread that
    /// made the change — when a progress event arrives with none
    /// pending, after the terminal transition (which also releases
    /// it), and at once from here if a step is already waiting: after
    /// a wake, keep calling [`JobConsumer::try_next`] until it yields
    /// `None` or the terminal step, and no step is missed. It **must not block** — a queued job is shed
    /// under the admission queue's lock.
    pub fn on_wake(&self, hook: impl Fn() + Send + Sync + 'static) {
        let hook: WakeHook = Arc::new(hook);
        let mut rec = self.job.lock();
        let ready = !rec.events.is_empty() || rec.state.is_terminal();
        if !rec.state.is_terminal() {
            rec.wake = Some(Arc::clone(&hook));
        }
        drop(rec);
        if ready {
            hook();
        }
    }
}

/// A blocking iterator over a job's [`SearchProgress`] events. Ends
/// when the job reaches a terminal state (or, for non-search requests,
/// immediately — they emit no progress).
pub struct ProgressEvents {
    job: Option<JobConsumer<JobOutcome>>,
}

impl Iterator for ProgressEvents {
    type Item = SearchProgress;

    fn next(&mut self) -> Option<SearchProgress> {
        self.job.as_ref()?.next_progress()
    }
}

/// A shareable controller for a job: everything a [`JobHandle`] can do
/// except redeem the outcome.
#[derive(Clone)]
pub struct JobControl {
    pub(crate) id: u64,
    pub(crate) cancel: CancelToken,
    /// The admission queue the job was submitted to, so a cancel can
    /// wake the sleeping scheduler and have a still-queued job's
    /// verdict delivered promptly.
    pub(crate) queue: Weak<crate::queue::AdmissionQueue>,
    pub(crate) events: JobConsumer<JobOutcome>,
}

impl JobControl {
    /// The job's ticket id (unique per service instance).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Current state, without blocking.
    pub fn poll(&self) -> JobState {
        self.events.poll()
    }

    /// Requests cooperative cancellation (idempotent; a no-op on
    /// terminal jobs). A queued job is discarded by the scheduler
    /// right away (its slot freed, its verdict delivered) — the poke
    /// makes that now, not at the next unrelated scheduling event; a
    /// running search stops at its next commit boundary.
    pub fn cancel(&self) {
        self.cancel.cancel();
        if let Some(queue) = self.queue.upgrade() {
            queue.poke();
        }
    }
}

/// The ticket returned by [`crate::MayaService::submit`] (see module
/// docs): a [`JobControl`] — it derefs to one, for `id`, `poll` and
/// `cancel` — plus the right to consume the job.
pub struct JobHandle(pub(crate) JobControl);

impl std::ops::Deref for JobHandle {
    type Target = JobControl;

    fn deref(&self) -> &JobControl {
        &self.0
    }
}

impl JobHandle {
    /// A clonable controller for this job (poll + cancel).
    pub fn control(&self) -> JobControl {
        self.0.clone()
    }

    /// Takes the job's progress stream. Events buffer from the moment
    /// of submission, so none are lost however late this is called —
    /// though a backlog past the service's progress high-water mark
    /// arrives coalesced (concatenated trial batches, merged deltas)
    /// rather than wave by wave. The stream can be taken once; later
    /// calls return an exhausted stream.
    pub fn progress(&self) -> ProgressEvents {
        let mut rec = self.0.events.job.lock();
        let first = !std::mem::replace(&mut rec.stream_taken, true);
        drop(rec);
        ProgressEvents {
            job: first.then(|| self.0.events.clone()),
        }
    }

    /// [`JobConsumer::try_next`] on this job.
    pub fn try_next(&self) -> Option<JobStep<JobOutcome>> {
        self.0.events.try_next()
    }

    /// [`JobConsumer::on_wake`] on this job.
    pub fn on_wake(&self, hook: impl Fn() + Send + Sync + 'static) {
        self.0.events.on_wake(hook);
    }

    /// Blocks until the job reaches a terminal state and returns the
    /// full verdict. `Err(ServeError::Stopped)` means the service (or
    /// the worker executing the job) died first.
    pub fn wait_outcome(self) -> Result<JobOutcome, ServeError> {
        self.0.events.wait_outcome().ok_or(ServeError::Stopped)
    }

    /// Blocks until done and returns the response — the pre-job-API
    /// blocking call. Cancelled and expired jobs surface as
    /// [`ServeError::Cancelled`] / [`ServeError::Expired`]; use
    /// [`JobHandle::wait_outcome`] to also receive the committed-prefix
    /// response those verdicts may carry.
    pub fn wait(self) -> Result<Response, ServeError> {
        match self.wait_outcome()? {
            JobOutcome::Done(resp) => Ok(resp),
            JobOutcome::Cancelled(_) => Err(ServeError::Cancelled),
            JobOutcome::Expired(_) => Err(ServeError::Expired),
        }
    }
}

/// What the admission queue carries to a worker.
pub(crate) struct QueuedJob {
    pub(crate) req: crate::request::Request,
    /// The engine slot `req`'s target resolved to at submit.
    pub(crate) slot: Arc<crate::registry::EngineSlot>,
    pub(crate) enqueued: Instant,
    /// Absolute expiry instant (admission time + the option's budget).
    pub(crate) expires: Option<Instant>,
    /// Scheduling class (see [`Priority`]).
    pub(crate) priority: Priority,
    /// Quota/accounting tenant, if named.
    pub(crate) tenant: Option<String>,
    /// The job's ticket id.
    pub(crate) id: u64,
    pub(crate) cancel: CancelToken,
    pub(crate) producer: JobProducer<JobOutcome>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn event(committed: usize) -> SearchProgress {
        SearchProgress {
            trials: Vec::new(),
            committed,
            best: None,
            cache_delta: CacheStats::default(),
        }
    }

    fn counting_hook(consumer: &JobConsumer<JobOutcome>) -> Arc<AtomicUsize> {
        let wakes = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&wakes);
        consumer.on_wake(move || {
            count.fetch_add(1, Ordering::SeqCst);
        });
        wakes
    }

    #[test]
    fn steps_come_in_order_and_a_backlog_wakes_once() {
        let (producer, consumer) = job_channel::<JobOutcome>(8);
        let wakes = counting_hook(&consumer);
        assert!(consumer.try_next().is_none(), "nothing ready yet");
        assert_eq!(wakes.load(Ordering::SeqCst), 0);
        assert_eq!(consumer.poll(), JobState::Queued);

        producer.emit_progress(event(1));
        producer.emit_progress(event(2));
        assert_eq!(consumer.poll(), JobState::Running);
        producer.complete(JobOutcome::Cancelled(None));
        assert_eq!(
            wakes.load(Ordering::SeqCst),
            2,
            "the first event of the backlog + the end"
        );

        // Progress drains before the verdict, whatever the timing.
        for want in [1, 2] {
            let Some(JobStep::Progress(e)) = consumer.try_next() else {
                panic!("progress first");
            };
            assert_eq!(e.committed, want);
        }
        let Some(JobStep::Terminal(verdict)) = consumer.try_next() else {
            panic!("then the terminal step");
        };
        assert!(matches!(verdict, Some(JobOutcome::Cancelled(None))));
        // The slot is redeemed once.
        assert!(consumer.wait_outcome().is_none());
    }

    #[test]
    fn dropping_the_producer_is_the_failed_transition() {
        let (producer, consumer) = job_channel::<JobOutcome>(8);
        let wakes = counting_hook(&consumer);
        producer.set_running();
        drop(producer);
        assert_eq!(consumer.poll(), JobState::Failed);
        assert_eq!(wakes.load(Ordering::SeqCst), 1);
        assert!(consumer.next_progress().is_none(), "the stream is over");
        assert!(matches!(consumer.try_next(), Some(JobStep::Terminal(None))));
        assert!(consumer.wait_outcome().is_none());
    }

    #[test]
    fn a_late_hook_fires_at_once() {
        let (producer, consumer) = job_channel::<JobOutcome>(8);
        producer.emit_progress(event(1));
        assert_eq!(counting_hook(&consumer).load(Ordering::SeqCst), 1);
        producer.complete(JobOutcome::Expired(None));
        assert_eq!(counting_hook(&consumer).load(Ordering::SeqCst), 1);
    }

    #[test]
    fn an_error_verdict_lands_the_job_failed() {
        let (producer, consumer) = job_channel::<Result<JobOutcome, String>>(8);
        producer.complete(Err("remote said no".into()));
        assert_eq!(consumer.poll(), JobState::Failed);
        assert!(matches!(consumer.wait_outcome(), Some(Err(e)) if e == "remote said no"));
    }
}
