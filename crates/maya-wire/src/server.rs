//! [`WireServer`]: a blocking TCP front end wrapping any
//! [`MayaService`].
//!
//! One OS thread accepts connections; each connection gets exactly two
//! more — a *reader* and a *writer* over `std::net::TcpStream` —
//! however many jobs it has in flight:
//!
//! - the *reader* parses request frames and admits them through
//!   [`MayaService::try_submit_with`] — the service's bounded admission
//!   queue is mapped straight onto the wire, so a full queue becomes a
//!   typed [`RemoteErrorKind::Overloaded`](crate::RemoteErrorKind)
//!   error frame (the connection stays up and later requests are
//!   served), never a dropped connection. An admitted job's handle goes
//!   into the connection's in-flight table with a wake hook that posts
//!   the job's id to the writer's channel — one non-blocking `send`
//!   from whichever service thread moved the job. A `Cancel` frame
//!   resolves the echoed id against that table and fires the job's
//!   cooperative cancel;
//! - the *writer* is the only thread that writes the socket and the
//!   only place a job's frames are produced: a wake writes that job's
//!   next frame — a buffered progress event as a `Progress` frame or,
//!   once the job is terminal and drained, its verdict (a `Response`,
//!   `Expired` or `Error` frame), dropping it from the table — and a
//!   job with more ready queues up again behind whatever arrived
//!   meanwhile. So a long search streams increments while other
//!   pipelined jobs complete around it, however fast it emits — frames
//!   of one job stay ordered (progress before terminal), frames of
//!   different jobs interleave by id. Frames the reader makes itself
//!   (errors, `Scrape` replies) travel the same channel.
//!
//! Malformed input degrades proportionally: an undecodable request
//! *body* earns a per-request `protocol` error frame and the connection
//! keeps serving; a corrupt frame *header* (bad magic, a length over
//! [`DEFAULT_MAX_FRAME_LEN`], or a protocol version other than the one
//! [`VERSION`](crate::frame::VERSION) this build speaks) means the
//! stream itself can no longer be trusted, so the server sends a
//! connection-scoped error frame (id 0) and closes that one
//! connection. Every frame the server writes is stamped with its own
//! version. The server itself never dies on client input.
//!
//! [`WireServer::shutdown`] is graceful: stop accepting, half-close
//! every connection's read side, let every writer drain its in-flight
//! jobs' progress and verdicts, then join all threads.

use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use maya_serve::{Counter, JobHandle, JobStep, MayaService, ServeError, SpanNode};

use crate::error::RemoteError;
use crate::frame::{
    read_frame, write_frame, FrameKind, ProtocolError, ReadError, DEFAULT_MAX_FRAME_LEN,
};
use crate::message::{decode_submission, outcome_frame, to_wire};

/// What a connection's writer thread is told. The channel closing is
/// the last message: every sender is gone — the reader's (end of
/// requests) and each in-flight job's wake hook (released when the job
/// ends) — so nothing is left to write.
enum WriterMsg {
    /// Write this reader-made frame (an error or a scrape reply).
    Frame {
        kind: FrameKind,
        id: u64,
        body: String,
    },
    /// The in-flight job under this request id has progress or its
    /// verdict ready (posted by the job's wake hook).
    Wake(u64),
}

/// One connection's in-flight jobs by request id: inserted by the
/// reader at admission (which also resolves `Cancel` frames against
/// it), drained and removed by the writer.
type InFlight = Mutex<HashMap<u64, JobHandle>>;

/// Counters for one [`WireServer`] (all cumulative). Every field but
/// `scrapes` is a view of a `wire.*` counter in the service's registry
/// ([`MayaService::counter`]), so a `Scrape` carries them too — and two
/// servers fronting one service count together.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Request frames admitted into the service queue.
    pub admitted: u64,
    /// Requests shed with a typed `overloaded` error frame.
    pub overloaded: u64,
    /// Frames answered with a `protocol` error (malformed body or
    /// desynchronized stream).
    pub protocol_errors: u64,
    /// `Cancel` frames that resolved to an in-flight job (late cancels
    /// for already-finished ids are ignored and not counted).
    pub cancels: u64,
    /// `Scrape` frames answered with an observability snapshot.
    ///
    /// Deliberately a server-side counter rather than a metric in the
    /// scraped registry: a snapshot must not change by the act of
    /// taking it (two back-to-back scrapes of an idle server are
    /// byte-identical).
    pub scrapes: u64,
}

struct ServerShared {
    service: Arc<MayaService>,
    stopping: AtomicBool,
    /// Live connections' stream clones (keyed by connection id), used
    /// to half-close readers at shutdown; each connection thread
    /// removes its own entry on exit.
    conns: Mutex<HashMap<u64, TcpStream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    /// `wire.connections`, `wire.admitted`, `wire.overloaded`,
    /// `wire.protocol_errors`, `wire.cancels` in the service's registry.
    connections: Counter,
    admitted: Counter,
    overloaded: Counter,
    protocol_errors: Counter,
    cancels: Counter,
    scrapes: AtomicU64,
}

/// The blocking TCP serving front end (see module docs).
pub struct WireServer {
    local_addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Binds the listener over `service` and starts the accept thread.
    /// Bind to port 0 to let the OS pick (see [`WireServer::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs, service: Arc<MayaService>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            connections: service.counter("wire.connections"),
            admitted: service.counter("wire.admitted"),
            overloaded: service.counter("wire.overloaded"),
            protocol_errors: service.counter("wire.protocol_errors"),
            cancels: service.counter("wire.cancels"),
            scrapes: AtomicU64::new(0),
            service,
            stopping: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            conn_threads: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("maya-wire-accept".into())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(WireServer {
            local_addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (the actual port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The wrapped service.
    pub fn service(&self) -> &Arc<MayaService> {
        &self.shared.service
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> WireServerStats {
        WireServerStats {
            connections: self.shared.connections.get(),
            admitted: self.shared.admitted.get(),
            overloaded: self.shared.overloaded.get(),
            protocol_errors: self.shared.protocol_errors.get(),
            cancels: self.shared.cancels.get(),
            scrapes: self.shared.scrapes.load(Ordering::Relaxed),
        }
    }

    /// Graceful shutdown: stop accepting, half-close every connection's
    /// read side (no new requests), drain and deliver every in-flight
    /// response and progress stream, join all threads. Idempotent; also
    /// runs on drop.
    ///
    /// The wrapped [`MayaService`] is *not* stopped — it may be shared
    /// with in-process callers or another front end.
    pub fn shutdown(&mut self) {
        if self.shared.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Readers stop at EOF; writers then drain what is in flight.
        let conns =
            std::mem::take(&mut *self.shared.conns.lock().unwrap_or_else(|p| p.into_inner()));
        for stream in conns.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let threads = std::mem::take(
            &mut *self
                .shared
                .conn_threads
                .lock()
                .unwrap_or_else(|p| p.into_inner()),
        );
        for handle in threads {
            let _ = handle.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    // Keys `ServerShared::conns`; this thread is the only one accepting.
    let mut conn_id = 0u64;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
                // Persistent accept failures (EMFILE under fd
                // pressure, ENOBUFS, ...) would otherwise hot-loop
                // this thread at 100% CPU exactly when the machine is
                // struggling; back off briefly instead.
                std::thread::sleep(std::time::Duration::from_millis(20));
                continue;
            }
        };
        if shared.stopping.load(Ordering::SeqCst) {
            return; // the wake-up connection (or a late client)
        }
        // Response frames are latency-sensitive and already coalesced
        // by the writer's BufWriter; Nagle would add delayed-ACK
        // stalls (~40ms) to pipelined bursts.
        stream.set_nodelay(true).ok();
        shared.connections.inc();
        conn_id += 1;
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        lock(&shared.conns).insert(conn_id, clone);
        let shared_for_conn = Arc::clone(shared);
        let Ok(conn) = std::thread::Builder::new()
            .name("maya-wire-conn".into())
            .spawn(move || connection_loop(conn_id, stream, &shared_for_conn))
        else {
            // Thread exhaustion (a connection flood) must not end
            // accepting for good: close this one connection — the
            // stream died with the unspawned closure, the registered
            // clone is shut down here — and back off like the accept
            // error above.
            let clone = lock(&shared.conns).remove(&conn_id);
            if let Some(clone) = clone {
                let _ = clone.shutdown(Shutdown::Both);
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
            continue;
        };
        // Reap finished connections here rather than only at shutdown,
        // so a long-running server's handle list tracks *concurrent*
        // connections, not every connection ever served. Partition
        // under the lock but join() outside it: is_finished() means
        // the join cannot block for long, but "cannot block for long"
        // held across a Mutex is exactly the discipline maya-lint's
        // guard-across-blocking-call rule forbids — a descheduled
        // exiting thread would stall every other conn_threads user.
        let finished: Vec<std::thread::JoinHandle<()>> = {
            let mut threads = lock(&shared.conn_threads);
            let mut alive = Vec::with_capacity(threads.len() + 1);
            let mut done = Vec::new();
            for handle in threads.drain(..) {
                if handle.is_finished() {
                    done.push(handle);
                } else {
                    alive.push(handle);
                }
            }
            alive.push(conn);
            *threads = alive;
            done
        };
        for handle in finished {
            let _ = handle.join();
        }
    }
}

/// Locks a table whose entries are valid at every step, so a poisoned
/// lock is still good.
fn lock<T>(table: &Mutex<T>) -> MutexGuard<'_, T> {
    table.lock().unwrap_or_else(|p| p.into_inner())
}

/// Reader half of one connection; owns the writer thread.
fn connection_loop(conn_id: u64, stream: TcpStream, shared: &Arc<ServerShared>) {
    let (tx, rx) = mpsc::channel::<WriterMsg>();
    let jobs: Arc<InFlight> = Arc::default();
    let writer = stream.try_clone().and_then(|write_half| {
        let (jobs, shared) = (Arc::clone(&jobs), Arc::clone(shared));
        std::thread::Builder::new()
            .name("maya-wire-write".into())
            .spawn(move || writer_loop(write_half, &rx, &jobs, &shared))
    });
    let send = |kind: FrameKind, id: u64, body: String| {
        let _ = tx.send(WriterMsg::Frame { kind, id, body });
    };
    let send_error = |id: u64, error: &RemoteError| {
        send(FrameKind::Error, id, serde::to_string(error));
    };
    let protocol_error = |id: u64, error: &ProtocolError| {
        shared.protocol_errors.inc();
        send_error(id, &RemoteError::protocol(error));
    };

    let mut reader = std::io::BufReader::new(stream);
    // Without a writer (fd or thread exhaustion) nothing could ever be
    // answered: serve nothing, just close this one connection below.
    while writer.is_ok() {
        match read_frame(&mut reader, DEFAULT_MAX_FRAME_LEN) {
            Ok(None) => break, // client closed its write half
            // Id 0 is reserved for connection-scoped errors: a request
            // carrying it could never be answered unambiguously (an
            // id-0 error frame means "the stream is dead", and a
            // service rejection like Overloaded would be misread as
            // fatal). A conforming client starts at 1, so reject the
            // stream outright.
            Ok(Some(frame)) if frame.id == 0 => {
                shared.protocol_errors.inc();
                send_error(
                    0,
                    &RemoteError {
                        kind: crate::error::RemoteErrorKind::Protocol,
                        message: "frame id 0 is reserved for connection-scoped errors".to_string(),
                    },
                );
                break;
            }
            Ok(Some(frame)) => match frame.kind {
                FrameKind::Request => match decode_submission(&frame.body) {
                    Ok((req, opts)) => match shared.service.try_submit_with(req, opts) {
                        Ok(handle) => {
                            shared.admitted.inc();
                            let (id, wake) = (frame.id, tx.clone());
                            // Hook and insert under one table lock:
                            // a wake the hook posts at once is acted
                            // on only when the writer can find the job.
                            let mut table = lock(&jobs);
                            handle.on_wake(move || {
                                let _ = wake.send(WriterMsg::Wake(id));
                            });
                            // A conforming client never reuses an id
                            // still in flight; one that does forfeits
                            // the older job.
                            if let Some(displaced) = table.insert(id, handle) {
                                displaced.cancel();
                            }
                        }
                        Err(e) => {
                            if matches!(e, ServeError::Overloaded) {
                                shared.overloaded.inc();
                            }
                            send_error(frame.id, &RemoteError::from(&e));
                        }
                    },
                    // The frame parsed but its body did not: this
                    // request fails, the stream is intact.
                    Err(e) => protocol_error(frame.id, &ProtocolError::Malformed(e)),
                },
                // Resolve against this connection's in-flight jobs. A
                // miss is a benign race (the job already reached its
                // terminal frame) and is ignored — the client sees the
                // real verdict.
                FrameKind::Cancel => {
                    if let Some(handle) = lock(&jobs).get(&frame.id) {
                        // Counted after the token is set: whoever reads
                        // the count finds the job already cancelled.
                        handle.cancel();
                        shared.cancels.inc();
                    }
                }
                // Observability pull: answer on the echoed id with the
                // service's deterministic point-in-time snapshot.
                // Request body is ignored (empty by convention).
                FrameKind::Scrape => {
                    shared.scrapes.fetch_add(1, Ordering::Relaxed);
                    send(
                        FrameKind::Scrape,
                        frame.id,
                        serde::to_string(&shared.service.obs_snapshot()),
                    );
                }
                other => protocol_error(frame.id, &ProtocolError::UnexpectedFrame(other)),
            },
            // The framing itself broke: report once on id 0 and close
            // this connection. Other connections — and the service —
            // are untouched.
            Err(ReadError::Protocol(p)) => {
                protocol_error(0, &p);
                break;
            }
            Err(ReadError::Io(_)) => break,
        }
    }
    // End of requests. The writer keeps going until the jobs still in
    // flight have been answered — this is what makes shutdown (and
    // client close) drain rather than abort — while the wrapped
    // service keeps running throughout.
    drop(tx);
    if let Ok(writer) = writer {
        let _ = writer.join();
    }
    // After a graceful drain the table is empty. Anything left can
    // never be answered — the writer gave up on a gone peer (write
    // failure) or a condemned stream (id-0 error) — so cancel it:
    // workers stop burning on orphaned searches promptly.
    for (_, orphan) in lock(&jobs).drain() {
        orphan.cancel();
    }
    // Close the socket at the OS level and deregister. The explicit
    // shutdown matters: the registry (or a client) may still hold FD
    // clones, and the peer must see EOF now, not when the last clone
    // drops.
    let _ = reader.into_inner().shutdown(Shutdown::Both);
    lock(&shared.conns).remove(&conn_id);
}

/// Writer half: the only thread that writes the socket and the one
/// place a job's frames are produced. Reader-made frames are written
/// in arrival order; a `Wake` writes that job's next frame, and a job
/// with more to say waits in `turns` behind everything that arrives
/// meanwhile — a search streaming faster than the socket drains holds
/// up nobody by more than one frame. Ends when the channel closes (see
/// [`WriterMsg`]) with no turn pending. An id-0 error frame is
/// connection-fatal — written, then the writer stops — and so is a
/// failed write; either way the socket is shut down, so a reader still
/// blocked on the peer unblocks and cancels the orphans.
fn writer_loop(
    stream: TcpStream,
    rx: &mpsc::Receiver<WriterMsg>,
    jobs: &InFlight,
    shared: &ServerShared,
) {
    let mut w = std::io::BufWriter::new(stream);
    let mut turns = VecDeque::new();
    loop {
        // Arrivals first, then the jobs waiting for another turn;
        // block only when there is neither.
        let next = rx.try_recv().ok();
        let next = next.or_else(|| turns.pop_front().map(WriterMsg::Wake));
        let Some(msg) = next.or_else(|| rx.recv().ok()) else {
            return;
        };
        let alive = match msg {
            WriterMsg::Frame { kind, id, body } => {
                let fatal = kind == FrameKind::Error && id == 0;
                write_frame(&mut w, kind, id, &body, DEFAULT_MAX_FRAME_LEN).is_ok() && !fatal
            }
            WriterMsg::Wake(id) => write_step(&mut w, id, jobs, &mut turns, shared).is_ok(),
        };
        if !alive {
            let _ = w.get_ref().shutdown(Shutdown::Both);
            return;
        }
    }
}

/// Writes the next frame job `id` has ready: a buffered progress event
/// as a `Progress` frame, booking the job's next turn, or — once it is
/// terminal and drained — its verdict (a `Response`, `Expired` or
/// `Error` frame). The job leaves the in-flight table under the lock
/// that yielded the verdict, so its id is free for reuse before the
/// client can see the frame. One job's frames thus stay ordered however
/// wakes interleave; a wake for an id with nothing ready (or already
/// answered) is a no-op. The table lock is never held across a write.
fn write_step(
    w: &mut impl std::io::Write,
    id: u64,
    jobs: &InFlight,
    turns: &mut VecDeque<u64>,
    shared: &ServerShared,
) -> std::io::Result<()> {
    // The service-side job id names the span tree the worker recorded
    // (the frame id is the client's request id).
    let mut table = lock(jobs);
    let step = table.get(&id).and_then(|h| Some((h.id(), h.try_next()?)));
    let (sid, verdict) = match step {
        None => return Ok(()),
        Some((_, JobStep::Progress(event))) => {
            drop(table);
            // One place in line, however many wakes the job posted.
            if !turns.contains(&id) {
                turns.push_back(id);
            }
            let body = serde::to_string(&event);
            return write_frame(w, FrameKind::Progress, id, &body, DEFAULT_MAX_FRAME_LEN);
        }
        Some((sid, JobStep::Terminal(verdict))) => (sid, verdict),
    };
    table.remove(&id);
    drop(table);
    // lint:allow(wall-clock-in-output): reply-latency telemetry anchor — timing is observability, not payload
    let reply_started = std::time::Instant::now();
    let verdict = verdict.map(|outcome| outcome.map(to_wire));
    let (kind, body) = match &verdict {
        Some(outcome) => outcome_frame(outcome),
        // The job died without a verdict (worker panic): typed
        // Stopped.
        None => (
            FrameKind::Error,
            serde::to_string(&RemoteError::from(&ServeError::Stopped)),
        ),
    };
    let written = write_frame(w, kind, id, &body, DEFAULT_MAX_FRAME_LEN);
    // Extend the worker's span tree with the reply phase — error-slot
    // mapping, encode and socket write — so a scraped tree accounts for the job's full
    // server-side wall clock.
    let spans = verdict.as_ref().and_then(|o| o.response());
    if let Some(root) = spans.and_then(|r| r.telemetry.spans.first()) {
        let reply = reply_started.elapsed();
        let mut tree = root.clone();
        tree.children
            .push(SpanNode::leaf("reply", tree.duration, reply));
        tree.duration += reply;
        shared.service.record_job_tree(sid, tree);
    }
    written
}
