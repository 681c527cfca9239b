//! [`WireClient`]: a typed, pipelined client exposing the job-handle
//! API of `maya-serve` over a [`WireServer`](crate::WireServer)
//! connection.
//!
//! One TCP connection is **reused for everything**: the client is
//! `Sync`, any number of threads may [`WireClient::submit`]
//! concurrently, and each submission gets a fresh request id. A
//! background reader thread demultiplexes incoming frames back to their
//! [`WireJob`]s by echoed id — `Progress` frames stream into
//! [`WireJob::next_progress`], the terminal `Response` / `Expired` /
//! `Error` frame resolves [`WireJob::wait_outcome`] — so N jobs can be
//! in flight on one socket while a long search streams increments.
//!
//! The handle is a second view of the type behind the in-process
//! `maya_serve::JobHandle` — the same job record (`maya_serve::job`),
//! here with a decoded verdict frame or a remote error as its
//! terminal payload. The demux reader holds each job's producer half:
//! a `Progress` frame is an `emit_progress`, the terminal frame the
//! one `complete`, and a torn connection drops the producers, which
//! is the same `Failed` transition a dead worker makes in-process. So
//! [`WireJob::poll`], progress iteration and blocking
//! [`WireJob::wait`] / [`WireJob::wait_outcome`] behave exactly as
//! they do in-process; [`WireJob::cancel`] is sent as a `Cancel`
//! frame, and [`WireClient::submit_with`] carries a per-job deadline
//! the server enforces (queue wait counts against it).
//!
//! Failure is typed end to end: a full server queue surfaces as
//! [`WireError::Remote`] with
//! [`RemoteErrorKind::Overloaded`](crate::RemoteErrorKind) — the retry
//! signal [`WireClient::submit_with_retry`] backs off on — per-request
//! pipeline errors arrive inside the payload as
//! [`crate::RemoteError`]s, and a torn connection resolves every
//! in-flight request with [`WireError::ConnectionClosed`]. The client
//! speaks the one protocol version of [`crate::frame`]: a server built
//! from another revision refuses its first frame with a
//! connection-scoped `protocol` error.

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{compact, Serialize};

use maya_serve::{
    job_channel, JobConsumer, JobOptions, JobProducer, JobState, Request, SearchProgress,
    ServeError,
};

use crate::error::{RemoteError, RemoteErrorKind, WireError};
use crate::frame::{read_frame, write_frame, FrameKind, ProtocolError};
use crate::message::{decode_expired_frame, decode_response_frame, WireJobOutcome, WireResponse};

/// A job's terminal payload on this side of the wire: the decoded
/// verdict frame, or the error frame that ended it.
type WireVerdict = Result<WireJobOutcome, RemoteError>;

/// What the demux reader holds for one request id in flight.
enum Pending {
    /// A submitted job: the producer half of its [`WireJob`].
    Job(JobProducer<WireVerdict>),
    /// A `Scrape`: a one-shot waiter for the raw reply body.
    Scrape(mpsc::Sender<Result<String, RemoteError>>),
}

type PendingMap = HashMap<u64, Pending>;

struct ClientShared {
    writer: Mutex<TcpStream>,
    /// `None` once the connection is known dead — late submitters get
    /// [`WireError::ConnectionClosed`] instead of hanging.
    pending: Mutex<Option<PendingMap>>,
    next_id: AtomicU64,
    max_frame_len: u32,
}

impl ClientShared {
    fn pending(&self) -> MutexGuard<'_, Option<PendingMap>> {
        self.pending.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Tears down the pending map; every waiter resolves with
    /// `ConnectionClosed` (their producers and senders drop here).
    fn poison(&self) {
        let _ = self.pending().take();
    }

    /// Writes one frame on the shared connection, mapping local
    /// protocol violations out of the io error.
    fn write(&self, kind: FrameKind, id: u64, body: &str) -> Result<(), WireError> {
        let result = {
            let mut w = self.writer.lock().unwrap_or_else(|p| p.into_inner());
            write_frame(&mut *w, kind, id, body, self.max_frame_len)
        };
        result.map_err(|e| {
            match e
                .get_ref()
                .and_then(|inner| inner.downcast_ref::<ProtocolError>().cloned())
            {
                Some(p) => WireError::Protocol(p),
                None => WireError::Io(e),
            }
        })
    }

    /// Sends one frame under a fresh request id, with `pending`
    /// registered first so the reply cannot race the registration.
    fn send(&self, kind: FrameKind, body: &str, pending: Pending) -> Result<u64, WireError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.pending()
            .as_mut()
            .ok_or(WireError::ConnectionClosed)?
            .insert(id, pending);
        if let Err(e) = self.write(kind, id, body) {
            // Unregister so the map does not leak a dead entry.
            if let Some(map) = self.pending().as_mut() {
                map.remove(&id);
            }
            return Err(e);
        }
        Ok(id)
    }
}

/// Retry policy for [`WireClient::submit_with_retry`]: bounded
/// exponential backoff on the server's typed `overloaded` signal.
#[derive(Clone, Copy, Debug)]
pub struct Backoff {
    /// Total attempts (the first try included; min 1).
    pub attempts: u32,
    /// Sleep before the first retry.
    pub initial: Duration,
    /// Delay multiplier per retry (min 1).
    pub factor: u32,
    /// Upper bound on any single delay.
    pub max_delay: Duration,
}

impl Default for Backoff {
    /// 6 attempts: 2ms, 4ms, 8ms, 16ms, 32ms between them.
    fn default() -> Self {
        Backoff {
            attempts: 6,
            initial: Duration::from_millis(2),
            factor: 2,
            max_delay: Duration::from_millis(250),
        }
    }
}

/// The remote job handle returned by [`WireClient::submit`] (see
/// module docs). Dropping it abandons the job client-side: the server
/// still runs it, later frames for its id are discarded by the demux.
pub struct WireJob {
    id: u64,
    shared: Arc<ClientShared>,
    events: JobConsumer<WireVerdict>,
}

impl WireJob {
    /// The request id this job travels under.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Best-effort remote state, without blocking. A wire client sees
    /// only frames: `Queued` until the first progress frame, `Running`
    /// after it, and the true terminal state once the verdict arrives.
    /// A job that ended in a remote *error* — or whose connection tore
    /// before a verdict — reads as `Failed` here; redeem
    /// [`WireJob::wait_outcome`] for the typed error.
    pub fn poll(&mut self) -> JobState {
        self.events.poll()
    }

    /// Asks the server to cooperatively cancel this job. No direct
    /// acknowledgement: the terminal verdict ([`WireJob::wait_outcome`])
    /// reports `Cancelled` — with any committed-prefix response — or
    /// `Done` if the job beat the cancellation.
    pub fn cancel(&self) -> Result<(), WireError> {
        self.shared.write(FrameKind::Cancel, self.id, "")
    }

    /// Blocks for the next `Progress` event. `None` once the job's
    /// terminal frame (kept for [`WireJob::wait_outcome`]) or a
    /// connection loss has been seen — the progress stream is over.
    pub fn next_progress(&mut self) -> Option<SearchProgress> {
        self.events.next_progress()
    }

    /// A blocking iterator over the remaining progress events.
    pub fn progress(&mut self) -> impl Iterator<Item = SearchProgress> + '_ {
        std::iter::from_fn(move || self.next_progress())
    }

    /// Blocks until the job's terminal frame arrives and returns the
    /// full verdict. Progress events not consumed through
    /// [`WireJob::next_progress`] are discarded here.
    pub fn wait_outcome(self) -> Result<WireJobOutcome, WireError> {
        self.events
            .wait_outcome()
            .ok_or(WireError::ConnectionClosed)?
            .map_err(WireError::Remote)
    }

    /// Blocks until done and returns the response — the pre-job-API
    /// blocking call. `Cancelled` and `Expired` verdicts surface as
    /// typed [`WireError::Remote`] errors
    /// ([`RemoteErrorKind::Cancelled`] / [`RemoteErrorKind::Expired`]);
    /// use [`WireJob::wait_outcome`] to also receive the
    /// committed-prefix response those verdicts may carry.
    pub fn wait(self) -> Result<WireResponse, WireError> {
        match self.wait_outcome()? {
            WireJobOutcome::Done(resp) => Ok(resp),
            WireJobOutcome::Cancelled(_) => Err(WireError::Remote((&ServeError::Cancelled).into())),
            WireJobOutcome::Expired(_) => Err(WireError::Remote((&ServeError::Expired).into())),
        }
    }
}

/// The typed TCP client (see module docs).
pub struct WireClient {
    shared: Arc<ClientShared>,
    local_addr: Option<SocketAddr>,
    reader: Option<JoinHandle<()>>,
}

impl WireClient {
    /// Connects with the default max-frame guard.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        WireClient::connect_with(addr, crate::frame::DEFAULT_MAX_FRAME_LEN)
    }

    /// Connects with an explicit max-frame guard (must admit the
    /// largest response the workload can produce; the server's guard
    /// governs requests).
    pub fn connect_with(addr: impl ToSocketAddrs, max_frame_len: u32) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let local_addr = stream.local_addr().ok();
        let read_half = stream.try_clone()?;
        let shared = Arc::new(ClientShared {
            writer: Mutex::new(stream),
            pending: Mutex::new(Some(HashMap::new())),
            next_id: AtomicU64::new(1),
            max_frame_len,
        });
        let reader = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("maya-wire-client".into())
                .spawn(move || reader_loop(read_half, &shared))?
        };
        Ok(WireClient {
            shared,
            local_addr,
            reader: Some(reader),
        })
    }

    /// This end's socket address.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Sends one request without waiting; any number of jobs may be in
    /// flight while their responses (and progress streams) are
    /// redeemed in any order.
    pub fn submit(&self, request: &Request) -> Result<WireJob, WireError> {
        self.submit_with(request, JobOptions::default())
    }

    /// [`WireClient::submit`] with per-job options. The deadline is
    /// enforced on the server: queue wait counts against it, a job
    /// expiring in the queue is shed without running, and a search
    /// outliving it stops at a wave boundary with its committed
    /// prefix.
    pub fn submit_with(&self, request: &Request, opts: JobOptions) -> Result<WireJob, WireError> {
        let mut w = compact::Writer::new();
        opts.serialize(&mut w);
        request.serialize(&mut w);
        // Unbounded: every progress frame the server chose to send is
        // kept for the caller (the server bounds its own side).
        let (producer, events) = job_channel(usize::MAX);
        let id = self
            .shared
            .send(FrameKind::Request, &w.finish(), Pending::Job(producer))?;
        Ok(WireJob {
            id,
            shared: Arc::clone(&self.shared),
            events,
        })
    }

    /// Submit + wait in one call.
    pub fn call(&self, request: &Request) -> Result<WireResponse, WireError> {
        self.submit(request)?.wait()
    }

    /// Pulls the server's point-in-time observability snapshot: every
    /// registered counter, gauge and histogram,
    /// plus the recent job span trees when the server records spans.
    /// Blocks until the `Scrape` reply arrives; jobs pipelined on the
    /// same connection keep streaming around it.
    pub fn scrape(&self) -> Result<maya_serve::ObsSnapshot, WireError> {
        let body = self.scrape_raw()?;
        serde::from_str(&body).map_err(|e| WireError::Protocol(ProtocolError::Malformed(e)))
    }

    /// [`WireClient::scrape`] without decoding: the exact snapshot
    /// bytes the server wrote. Two scrapes of a quiesced server are
    /// byte-identical to each other and to an in-process
    /// `MayaService::obs_snapshot()` serialization — the property the
    /// integration tests pin.
    pub fn scrape_raw(&self) -> Result<String, WireError> {
        let (tx, rx) = mpsc::channel();
        self.shared
            .send(FrameKind::Scrape, "", Pending::Scrape(tx))?;
        rx.recv()
            .map_err(|_| WireError::ConnectionClosed)?
            .map_err(WireError::Remote)
    }

    /// Submit + wait, retrying with bounded exponential backoff while
    /// the server sheds load ([`WireError::is_overloaded`] — the one
    /// failure that is always safe to retry, since a shed request
    /// never entered the admission queue). Any other error, and any
    /// response, returns immediately. Blocks for up to the sum of the
    /// policy's delays plus the winning attempt's service time.
    pub fn submit_with_retry(
        &self,
        request: &Request,
        backoff: Backoff,
    ) -> Result<WireResponse, WireError> {
        self.submit_with_retry_opts(request, JobOptions::default(), backoff)
    }

    /// [`WireClient::submit_with_retry`] with per-job options. The
    /// options' deadline budget spans the *whole* retry loop, measured
    /// from this call: total backoff is capped at the remaining
    /// budget, each attempt carries only what is left of it (so the
    /// server's deadline enforcement matches the client's clock), and
    /// once the budget is gone the typed expired error
    /// ([`RemoteErrorKind::Expired`]) is returned client-side instead
    /// of sleeping on — or submitting — a job the service would only
    /// shed as `Expired` on arrival.
    pub fn submit_with_retry_opts(
        &self,
        request: &Request,
        opts: JobOptions,
        backoff: Backoff,
    ) -> Result<WireResponse, WireError> {
        fn budget_exhausted() -> WireError {
            WireError::Remote(RemoteError {
                kind: RemoteErrorKind::Expired,
                message: "job deadline expired before the service admitted the request".to_string(),
            })
        }
        // A budget too large to represent is no deadline at all.
        // lint:allow(wall-clock-in-output): client-side retry budget deadline — local scheduling, never serialized
        let expires = opts.deadline.and_then(|d| Instant::now().checked_add(d));
        let attempts = backoff.attempts.max(1);
        let mut delay = backoff.initial;
        let mut last = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                let mut sleep = delay.min(backoff.max_delay);
                if let Some(expires) = expires {
                    // Never sleep past the deadline: the remainder of
                    // the budget caps this delay, and a budget that is
                    // already gone ends the loop with the typed
                    // expired verdict.
                    // lint:allow(wall-clock-in-output): retry budget bookkeeping — caps the backoff sleep
                    let remaining = expires.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return Err(budget_exhausted());
                    }
                    sleep = sleep.min(remaining);
                }
                std::thread::sleep(sleep);
                delay = delay
                    .saturating_mul(backoff.factor.max(1))
                    .min(backoff.max_delay);
            }
            let attempt_opts = match expires {
                Some(expires) => {
                    // lint:allow(wall-clock-in-output): remaining deadline forwarded to the server — deadlines are wall-clock by contract
                    let remaining = expires.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return Err(budget_exhausted());
                    }
                    JobOptions {
                        deadline: Some(remaining),
                        ..opts.clone()
                    }
                }
                None => opts.clone(),
            };
            match self.submit_with(request, attempt_opts)?.wait() {
                Err(e) if e.is_overloaded() => last = Some(e),
                verdict => return verdict,
            }
        }
        // `attempts >= 1`, and the only way out of the loop without
        // returning is an overloaded verdict stored in `last`; the
        // fallback covers the unreachable None without a panic path.
        Err(last.unwrap_or_else(budget_exhausted))
    }
}

impl Drop for WireClient {
    fn drop(&mut self) {
        {
            let w = self.shared.writer.lock().unwrap_or_else(|p| p.into_inner());
            let _ = w.shutdown(Shutdown::Both);
        }
        self.shared.poison();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Demultiplexes incoming frames to pending jobs by echoed id.
fn reader_loop(stream: TcpStream, shared: &Arc<ClientShared>) {
    let mut r = std::io::BufReader::new(stream);
    // Desynced framing, EOF and io errors all end the loop.
    while let Ok(Some(frame)) = read_frame(&mut r, shared.max_frame_len) {
        let malformed = |e| Err(RemoteError::protocol(&ProtocolError::Malformed(e)));
        // Everything but progress is terminal for its id.
        let verdict: WireVerdict = match frame.kind {
            FrameKind::Progress => match serde::from_str::<SearchProgress>(&frame.body) {
                Ok(event) => {
                    let pending = shared.pending();
                    // Unknown id: a frame for a job already answered.
                    if let Some(Pending::Job(job)) = pending.as_ref().and_then(|m| m.get(&frame.id))
                    {
                        job.emit_progress(event);
                    }
                    continue;
                }
                Err(e) => malformed(e),
            },
            FrameKind::Response => decode_response_frame(&frame.body).or_else(malformed),
            FrameKind::Expired => decode_expired_frame(&frame.body).or_else(malformed),
            FrameKind::Error => {
                serde::from_str::<RemoteError>(&frame.body).map_or_else(malformed, Err)
            }
            FrameKind::Scrape => {
                let waiter = shared.pending().as_mut().and_then(|m| m.remove(&frame.id));
                if let Some(Pending::Scrape(tx)) = waiter {
                    let _ = tx.send(Ok(frame.body));
                }
                continue;
            }
            // A server never sends these; the stream framing is still
            // intact, keep serving the rest.
            FrameKind::Request | FrameKind::Cancel => continue,
        };
        let mut pending = shared.pending();
        let deliver = |pending: Pending, verdict: WireVerdict| match (pending, verdict) {
            (Pending::Job(job), verdict) => job.complete(verdict),
            (Pending::Scrape(tx), Err(remote)) => {
                let _ = tx.send(Err(remote));
            }
            // A server answers a scrape id with a scrape or an error
            // frame only; anything else drops the waiter.
            (Pending::Scrape(_), Ok(_)) => {}
        };
        match (frame.id, verdict) {
            // Connection-scoped error: deliver to everyone still
            // waiting, then stop reading.
            (0, Err(fatal)) => {
                for (_, waiter) in pending.take().into_iter().flatten() {
                    deliver(waiter, Err(fatal.clone()));
                }
                return;
            }
            // Unknown id: a frame for a job already answered.
            (id, verdict) => {
                if let Some(waiter) = pending.as_mut().and_then(|m| m.remove(&id)) {
                    deliver(waiter, verdict);
                }
            }
        }
    }
    shared.poison();
}
