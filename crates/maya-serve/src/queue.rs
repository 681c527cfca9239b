//! The QoS admission queue: priority classes, EDF within a class, a
//! starvation guard, and per-tenant quotas.
//!
//! The queue replaces the original FIFO `mpsc` channel with a
//! mutex+condvar scheduler. Dispatch order is decided *at pop time*
//! (ordering depends on the clock, so a static heap would go stale):
//!
//! 1. **class** — [`crate::Priority::High`] before `Normal` before `Batch`,
//!    where a job's class is *promoted* one level for every
//!    `starvation_guard` interval it has waited, so `Batch` work ages
//!    into service instead of starving under a `High` flood;
//! 2. **remaining deadline budget** (earliest-deadline-first) within a
//!    class; jobs without a deadline sort last;
//! 3. **admission order** as the final tie-break.
//!
//! Dead entries — jobs whose deadline elapsed or that were cancelled
//! while queued — are purged at every scheduling point (push *and*
//! pop): their verdicts are delivered immediately, their counters
//! advance immediately, and their slots are released immediately, so a
//! full-looking queue of corpses can no longer shed live traffic. (The
//! old queue only discovered dead jobs when a worker dequeued them.)
//!
//! Named tenants are quota-checked: at admission a tenant already
//! holding `tenant_max_queued` slots is shed with
//! [`ServeError::QuotaExceeded`], and at dispatch a tenant running
//! `tenant_max_in_flight` jobs is passed over (its entries stay
//! queued) so one tenant's burst cannot monopolize the worker pool.
//! Anonymous jobs (no tenant) are exempt from quotas.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use maya_obs::{Counter, Gauge, Histogram, HistogramSnapshot};

use crate::error::ServeError;
use crate::job::{JobOutcome, JobState, QueuedJob};

/// Static queue configuration (from the `ServiceBuilder`).
pub(crate) struct QueueConfig {
    /// Max queued entries (in-flight jobs do not count).
    pub(crate) capacity: usize,
    /// Age interval after which a waiting job is promoted one priority
    /// class (see module docs).
    pub(crate) starvation_guard: Duration,
    /// Per-tenant cap on queued entries (`None` = unlimited).
    pub(crate) tenant_max_queued: Option<usize>,
    /// Per-tenant cap on concurrently executing jobs (`None` =
    /// unlimited).
    pub(crate) tenant_max_in_flight: Option<usize>,
}

/// Point-in-time counters for one named tenant.
///
/// Accounts are kept for every tenant with work queued or in flight,
/// plus up to ~1024 recently seen idle tenants; beyond that, idle
/// tenants' historical counters are evicted (the tenant name is
/// client-controlled input and must not grow server state without
/// bound).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant name ([`crate::JobOptions::tenant`]).
    pub tenant: String,
    /// Entries currently queued.
    pub queued: usize,
    /// Jobs currently executing on workers.
    pub in_flight: usize,
    /// Submissions admitted into the queue (cumulative).
    pub admitted: u64,
    /// Jobs fully served (cumulative).
    pub served: u64,
    /// Submissions shed with [`ServeError::QuotaExceeded`]
    /// (cumulative).
    pub quota_shed: u64,
    /// Jobs that ended [`JobState::Expired`] (cumulative).
    pub expired: u64,
    /// Jobs that ended [`JobState::Cancelled`] (cumulative).
    pub cancelled: u64,
    /// Queue-wait samples recorded so far (cumulative; one per queue
    /// departure — dispatch to a worker or shed while queued). The
    /// percentiles below summarize *all* of them: waits land in a
    /// log-bucketed [`maya_obs::Histogram`] (fixed memory, ~6%
    /// resolution), so the tail is no longer truncated to a sample
    /// window.
    pub wait_samples: u64,
    /// Median queue wait (histogram nearest-rank, microsecond floor).
    pub queue_wait_p50: Duration,
    /// 99th-percentile queue wait (histogram nearest-rank,
    /// microsecond floor).
    pub queue_wait_p99: Duration,
}

#[derive(Default)]
struct TenantAccount {
    queued: usize,
    in_flight: usize,
    admitted: u64,
    served: u64,
    quota_shed: u64,
    expired: u64,
    cancelled: u64,
    /// Queue waits, microseconds. Log-bucketed: fixed memory per
    /// tenant, no sample-window truncation.
    waits: Histogram,
    /// Service times of this tenant's completed jobs, microseconds.
    service: Histogram,
}

struct Entry {
    seq: u64,
    job: QueuedJob,
}

#[derive(Default)]
struct QueueState {
    entries: VecDeque<Entry>,
    next_seq: u64,
    closed: bool,
    tenants: HashMap<String, TenantAccount>,
}

/// The queue's shared-registry instrumentation handles, owned by the
/// service (`ServiceObs`) and threaded in at construction. Detached
/// handles (the default) record into private cells nothing reads —
/// the queue's own behaviour never depends on them.
#[derive(Default)]
pub(crate) struct QueueObs {
    /// Live queued-entry count ("serve.queue.depth").
    pub(crate) depth: Gauge,
    /// High-water mark of the depth gauge ("serve.queue.depth_high_water").
    pub(crate) depth_high_water: Gauge,
    /// Queue waits by priority class, microseconds, indexed by
    /// [`crate::Priority::level`] ("serve.queue_wait_us.{high,normal,batch}").
    pub(crate) wait_by_class: [Histogram; 3],
    /// Jobs shed from the queue with their deadline already blown
    /// ("serve.queue.shed_expired").
    pub(crate) shed_expired: Counter,
    /// Jobs discarded from the queue after a cancel
    /// ("serve.queue.shed_cancelled").
    pub(crate) shed_cancelled: Counter,
    /// Submissions shed over a tenant quota ("serve.queue.quota_shed").
    pub(crate) quota_shed: Counter,
}

/// The scheduler (see module docs). Workers block in
/// [`AdmissionQueue::pop`]; submitters enter through
/// [`AdmissionQueue::push`].
pub(crate) struct AdmissionQueue {
    config: QueueConfig,
    state: Mutex<QueueState>,
    /// An entry became available or eligible (push, job finish, close).
    job_ready: Condvar,
    /// A queue slot freed (pop or dead-entry purge) — wakes blocked
    /// submitters.
    slot_free: Condvar,
    obs: QueueObs,
}

impl AdmissionQueue {
    pub(crate) fn new(config: QueueConfig, obs: QueueObs) -> Self {
        AdmissionQueue {
            config,
            state: Mutex::new(QueueState::default()),
            job_ready: Condvar::new(),
            slot_free: Condvar::new(),
            obs,
        }
    }

    /// Publishes the queued-entry count to the depth gauge (and its
    /// high-water mark). Called with the state lock held at every
    /// depth transition.
    fn publish_depth(&self, state: &QueueState) {
        let depth = state.entries.len() as i64;
        self.obs.depth.set(depth);
        self.obs.depth_high_water.raise(depth);
    }

    /// Records one queue departure: the wait lands in the tenant's
    /// histogram (when named) and in the job's priority-class
    /// histogram.
    fn record_wait(&self, acct: Option<&mut TenantAccount>, job: &QueuedJob) {
        let wait = job.enqueued.elapsed();
        if let Some(acct) = acct {
            acct.waits.record_duration(wait);
        }
        self.obs.wait_by_class[usize::from(job.priority.level().min(2))].record_duration(wait);
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Admits one job. `block = true` waits for a slot when the queue
    /// is full (the `submit` path); `block = false` sheds with
    /// [`ServeError::Overloaded`] (the `try_submit` path). Quota
    /// violations shed immediately in both modes.
    pub(crate) fn push(&self, job: QueuedJob, block: bool) -> Result<(), ServeError> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return Err(ServeError::Stopped);
            }
            self.purge_dead(&mut state);
            if let (Some(max), Some(tenant)) = (self.config.tenant_max_queued, job.tenant.clone()) {
                // Over-quota implies queued >= max >= 1, so the
                // account already exists — a quota shed never creates
                // one (the tenant name is client-controlled input; an
                // unadmitted stranger must not grow server state).
                if let Some(acct) = state.tenants.get_mut(&tenant) {
                    if acct.queued >= max {
                        acct.quota_shed += 1;
                        self.obs.quota_shed.inc();
                        return Err(ServeError::QuotaExceeded { tenant });
                    }
                }
            }
            if state.entries.len() < self.config.capacity {
                if let Some(tenant) = job.tenant.clone() {
                    // Accounts are bounded: admission may evict idle
                    // ones first (see prune_idle_tenants).
                    Self::prune_idle_tenants(&mut state);
                    let acct = state.tenants.entry(tenant).or_default();
                    acct.queued += 1;
                    acct.admitted += 1;
                }
                let seq = state.next_seq;
                state.next_seq += 1;
                state.entries.push_back(Entry { seq, job });
                self.publish_depth(&state);
                drop(state);
                self.job_ready.notify_all();
                return Ok(());
            }
            if !block {
                return Err(ServeError::Overloaded);
            }
            state = self.wait(&self.slot_free, state);
        }
    }

    /// Waits on `cond` until notified — or, when queued entries carry
    /// deadlines, until the earliest of them expires, so dead entries
    /// are purged (verdict delivered, slot released) on time even
    /// while every worker is parked and nothing else touches the
    /// queue.
    fn wait<'q>(
        &self,
        cond: &Condvar,
        state: MutexGuard<'q, QueueState>,
    ) -> MutexGuard<'q, QueueState> {
        match state.entries.iter().filter_map(|e| e.job.expires).min() {
            None => cond.wait(state).unwrap_or_else(|p| p.into_inner()),
            Some(at) => {
                // lint:allow(wall-clock-in-output): deadline scheduling — bounds the condvar wait, never serialized
                let until = at.saturating_duration_since(Instant::now());
                if until.is_zero() {
                    return state; // already due: let the caller purge
                }
                cond.wait_timeout(state, until)
                    .unwrap_or_else(|p| p.into_inner())
                    .0
            }
        }
    }

    /// Caps the tenant-account map: the tenant name is an arbitrary
    /// client-supplied string, so a stream of one-shot tenants must
    /// not grow server memory without bound. Accounts with work still
    /// queued or in flight are always kept (there can only be
    /// `capacity + workers` of those); past the cap, *idle* accounts
    /// are evicted — their historical counters leave
    /// [`TenantStats`] reporting, their quota state is immaterial
    /// (idle means zero queued and zero in flight).
    fn prune_idle_tenants(state: &mut QueueState) {
        const MAX_TENANT_ACCOUNTS: usize = 1024;
        if state.tenants.len() >= MAX_TENANT_ACCOUNTS {
            state
                .tenants
                .retain(|_, acct| acct.queued > 0 || acct.in_flight > 0);
        }
    }

    /// Wakes everything parked on the queue so the next loop iteration
    /// re-purges and re-selects. Called when a queued job is cancelled:
    /// cancellation only flips an atomic, which a sleeping scheduler
    /// would otherwise not observe until an unrelated push/pop/finish.
    /// The sweeper ([`AdmissionQueue::sweep`]) is always parked here,
    /// so the notify is never lost even when every worker is busy
    /// executing.
    pub(crate) fn poke(&self) {
        self.job_ready.notify_all();
        self.slot_free.notify_all();
    }

    /// The reaper loop run by the service's sweeper thread: stays
    /// parked on the queue, waking for the earliest queued deadline
    /// (via the timed [`AdmissionQueue::wait`]) and for cancel pokes,
    /// and purging dead entries each time. Workers purge too, but only
    /// when they touch the queue — with every worker busy on long jobs
    /// and no new submissions, this thread is what delivers an
    /// expired/cancelled queued job's verdict (and advances the
    /// counters) on time. Returns when the queue is closed.
    pub(crate) fn sweep(&self) {
        let mut state = self.lock();
        loop {
            if state.closed {
                return;
            }
            self.purge_dead(&mut state);
            state = self.wait(&self.job_ready, state);
        }
    }

    /// Dequeues the most urgent eligible job, blocking while none is.
    /// `None` means the queue is closed *and* drained — the worker
    /// shutdown signal. The caller must report the job's end through
    /// [`AdmissionQueue::finished`] (that is what releases the
    /// tenant's in-flight slot).
    pub(crate) fn pop(&self) -> Option<QueuedJob> {
        let mut state = self.lock();
        loop {
            self.purge_dead(&mut state);
            if let Some(idx) = self.select(&state) {
                let entry = state.entries.remove(idx).expect("selected index in bounds");
                let acct = entry
                    .job
                    .tenant
                    .as_deref()
                    .and_then(|t| state.tenants.get_mut(t))
                    .map(|acct| {
                        acct.queued -= 1;
                        acct.in_flight += 1;
                        acct
                    });
                self.record_wait(acct, &entry.job);
                self.publish_depth(&state);
                drop(state);
                self.slot_free.notify_all();
                return Some(entry.job);
            }
            if state.closed && state.entries.is_empty() {
                return None;
            }
            state = self.wait(&self.job_ready, state);
        }
    }

    /// Reports a popped job's terminal state: releases the tenant's
    /// in-flight slot, advances its counters, records the service
    /// time (when the job actually executed), and re-wakes workers
    /// (an entry blocked on the in-flight cap may now be eligible).
    pub(crate) fn finished(
        &self,
        tenant: Option<&str>,
        state: JobState,
        service_time: Option<Duration>,
    ) {
        let mut s = self.lock();
        if let Some(tenant) = tenant {
            if let Some(acct) = s.tenants.get_mut(tenant) {
                acct.in_flight = acct.in_flight.saturating_sub(1);
                match state {
                    JobState::Done => acct.served += 1,
                    JobState::Expired => acct.expired += 1,
                    JobState::Cancelled => acct.cancelled += 1,
                    _ => {}
                }
                if let Some(st) = service_time {
                    acct.service.record_duration(st);
                }
            }
        }
        drop(s);
        self.job_ready.notify_all();
    }

    /// Closes the queue: new pushes fail with [`ServeError::Stopped`],
    /// queued entries still drain through [`AdmissionQueue::pop`].
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.job_ready.notify_all();
        self.slot_free.notify_all();
    }

    /// Picks the most urgent entry a worker may run now: lowest
    /// (age-promoted class, remaining budget, admission seq), skipping
    /// tenants at their in-flight cap. `None` when nothing is eligible.
    fn select(&self, state: &QueueState) -> Option<usize> {
        // lint:allow(wall-clock-in-output): deadline/aging eligibility — scheduling input, never serialized
        let now = Instant::now();
        let guard = self
            .config
            .starvation_guard
            .max(Duration::from_nanos(1))
            .as_nanos();
        state
            .entries
            .iter()
            .enumerate()
            .filter(
                |(_, e)| match (self.config.tenant_max_in_flight, e.job.tenant.as_deref()) {
                    (Some(max), Some(tenant)) => state
                        .tenants
                        .get(tenant)
                        .map_or(true, |a| a.in_flight < max),
                    _ => true,
                },
            )
            .min_by_key(|(_, e)| {
                let waited = now.saturating_duration_since(e.job.enqueued).as_nanos();
                let promoted = (waited / guard).min(u128::from(u8::MAX)) as u8;
                let class = e.job.priority.level().saturating_sub(promoted);
                let slack = e
                    .job
                    .expires
                    .map_or(Duration::MAX, |d| d.saturating_duration_since(now));
                (class, slack, e.seq)
            })
            .map(|(idx, _)| idx)
    }

    /// Sheds every queued entry that is already dead — deadline
    /// elapsed or cancelled — delivering its verdict and releasing its
    /// slot *now*, not when a worker happens to dequeue it.
    fn purge_dead(&self, state: &mut QueueState) {
        // lint:allow(wall-clock-in-output): deadline expiry check — scheduling input, never serialized
        let now = Instant::now();
        let mut removed = false;
        let mut idx = 0;
        while idx < state.entries.len() {
            let job = &state.entries[idx].job;
            let expired = job.expires.is_some_and(|d| now >= d);
            if !expired && !job.cancel.is_cancelled() {
                idx += 1;
                continue;
            }
            let entry = state.entries.remove(idx).expect("index in bounds");
            removed = true;
            let acct = entry
                .job
                .tenant
                .as_deref()
                .and_then(|t| state.tenants.get_mut(t))
                .map(|acct| {
                    acct.queued -= 1;
                    if expired {
                        acct.expired += 1;
                    } else {
                        acct.cancelled += 1;
                    }
                    acct
                });
            self.record_wait(acct, &entry.job);
            let (shed, verdict) = if expired {
                (&self.obs.shed_expired, JobOutcome::Expired(None))
            } else {
                (&self.obs.shed_cancelled, JobOutcome::Cancelled(None))
            };
            // Counters first, so a client reading stats right after
            // its `wait()` returns sees them. The job's wake hook runs
            // inside `complete`, under this queue's lock — which is
            // why its contract is "must not block".
            shed.inc();
            entry.job.producer.complete(verdict);
        }
        if removed {
            self.publish_depth(state);
            self.slot_free.notify_all();
        }
    }

    /// Jobs shed from the queue with their deadline already blown.
    pub(crate) fn shed_expired(&self) -> u64 {
        self.obs.shed_expired.get()
    }

    /// Jobs discarded from the queue after a cancel.
    pub(crate) fn shed_cancelled(&self) -> u64 {
        self.obs.shed_cancelled.get()
    }

    /// Submissions shed over a tenant quota.
    pub(crate) fn quota_shed(&self) -> u64 {
        self.obs.quota_shed.get()
    }

    /// Per-tenant counters, sorted by tenant name.
    pub(crate) fn tenant_stats(&self) -> Vec<TenantStats> {
        let state = self.lock();
        let mut stats: Vec<TenantStats> = state
            .tenants
            .iter()
            .map(|(tenant, acct)| {
                let waits = acct.waits.snapshot();
                TenantStats {
                    tenant: tenant.clone(),
                    queued: acct.queued,
                    in_flight: acct.in_flight,
                    admitted: acct.admitted,
                    served: acct.served,
                    quota_shed: acct.quota_shed,
                    expired: acct.expired,
                    cancelled: acct.cancelled,
                    wait_samples: waits.count,
                    queue_wait_p50: Duration::from_micros(waits.quantile(0.50)),
                    queue_wait_p99: Duration::from_micros(waits.quantile(0.99)),
                }
            })
            .collect();
        stats.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        stats
    }

    /// Per-tenant `(name, queue-wait, service-time)` histogram
    /// snapshots, sorted by tenant name — injected into the service's
    /// [`maya_obs::ObsSnapshot`] under
    /// `serve.queue_wait_us.tenant.<name>` /
    /// `serve.service_time_us.tenant.<name>`.
    pub(crate) fn tenant_histograms(&self) -> Vec<(String, HistogramSnapshot, HistogramSnapshot)> {
        let state = self.lock();
        let mut out: Vec<_> = state
            .tenants
            .iter()
            .map(|(tenant, acct)| {
                (
                    tenant.clone(),
                    acct.waits.snapshot(),
                    acct.service.snapshot(),
                )
            })
            .collect();
        drop(state);
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}
