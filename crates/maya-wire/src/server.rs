//! [`WireServer`]: a blocking TCP front end wrapping any
//! [`MayaService`].
//!
//! One OS thread accepts connections; each connection gets a *reader*
//! thread, a *writer* thread, and one lightweight *pump* thread per
//! in-flight job, all over `std::net::TcpStream`:
//!
//! - the *reader* parses request frames and admits them through
//!   [`MayaService::try_submit_with`] — the service's bounded admission
//!   queue is mapped straight onto the wire, so a full queue becomes a
//!   typed [`RemoteErrorKind::Overloaded`](crate::RemoteErrorKind)
//!   error frame (the connection stays up and later requests are
//!   served), never a dropped connection. A `Cancel` frame resolves
//!   the echoed id against the connection's in-flight jobs and fires
//!   that job's cooperative cancel;
//! - each admitted job's *pump* forwards its progress events as
//!   `Progress` frames and then its terminal verdict (a `Response`,
//!   `Expired` or `Error` frame) into the shared writer channel, so a
//!   long search streams increments while other pipelined jobs
//!   complete around it — frames of one job stay ordered (progress
//!   before terminal), frames of different jobs interleave by id;
//! - the *writer* serializes frames onto the socket in arrival order.
//!
//! Malformed input degrades proportionally: an undecodable request
//! *body* earns a per-request `protocol` error frame and the connection
//! keeps serving; a corrupt frame *header* (bad magic, oversized
//! length, or a protocol version other than the one
//! [`VERSION`](crate::frame::VERSION) this build speaks) means the
//! stream itself can no longer be trusted, so the server sends a
//! connection-scoped error frame (id 0) and closes that one
//! connection. Every frame the server writes is stamped with its own
//! version. The server itself never dies on client input.
//!
//! [`WireServer::shutdown`] is graceful: stop accepting, half-close
//! every connection's read side, let every job pump drain its progress
//! and verdict, then join all threads.

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use serde::{compact, Serialize};

use maya_serve::{JobControl, JobHandle, JobOutcome, MayaService, ServeError, SpanNode};

use crate::error::RemoteError;
use crate::frame::{read_frame, write_frame, FrameKind, ProtocolError, ReadError};
use crate::message::decode_submission;

/// One outbound frame, queued for the connection writer.
struct OutFrame {
    kind: FrameKind,
    id: u64,
    body: String,
}

/// Counters for one [`WireServer`] (all cumulative).
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
    max_frame_len: u32,
    stopping: AtomicBool,
    /// Live connections' stream clones (keyed by connection id), used
    /// to half-close readers at shutdown; each connection thread
    /// removes its own entry on exit.
    conns: Mutex<HashMap<u64, TcpStream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    connections: AtomicU64,
    admitted: AtomicU64,
    overloaded: AtomicU64,
    protocol_errors: AtomicU64,
    cancels: AtomicU64,
    scrapes: AtomicU64,
}

/// Configures a [`WireServer`] before binding.
pub struct WireServerBuilder {
    service: Arc<MayaService>,
    max_frame_len: u32,
}

impl WireServerBuilder {
    /// Overrides the max-frame guard (default
    /// [`crate::frame::DEFAULT_MAX_FRAME_LEN`]). Frames longer than
    /// this — in either direction — are refused.
    pub fn max_frame_len(mut self, bytes: u32) -> Self {
        self.max_frame_len = bytes;
        self
    }

    /// Binds the listener and starts the accept thread.
    pub fn bind(self, addr: impl ToSocketAddrs) -> std::io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            service: self.service,
            max_frame_len: self.max_frame_len,
            stopping: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            conn_threads: Mutex::new(Vec::new()),
            connections: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            cancels: AtomicU64::new(0),
            scrapes: AtomicU64::new(0),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("maya-wire-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn accept thread")
        };
        Ok(WireServer {
            local_addr,
            shared,
            accept: Some(accept),
        })
    }
}

/// The blocking TCP serving front end (see module docs).
pub struct WireServer {
    local_addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Starts configuring a server over `service`.
    pub fn builder(service: Arc<MayaService>) -> WireServerBuilder {
        WireServerBuilder {
            service,
            max_frame_len: crate::frame::DEFAULT_MAX_FRAME_LEN,
        }
    }

    /// Binds with defaults: `WireServer::builder(service).bind(addr)`.
    /// Bind to port 0 to let the OS pick (see [`WireServer::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs, service: Arc<MayaService>) -> std::io::Result<Self> {
        WireServer::builder(service).bind(addr)
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
            connections: self.shared.connections.load(Ordering::Relaxed),
            admitted: self.shared.admitted.load(Ordering::Relaxed),
            overloaded: self.shared.overloaded.load(Ordering::Relaxed),
            protocol_errors: self.shared.protocol_errors.load(Ordering::Relaxed),
            cancels: self.shared.cancels.load(Ordering::Relaxed),
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
        // Readers stop at EOF; job pumps then drain into the writers.
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
        let conn_id = shared.connections.fetch_add(1, Ordering::Relaxed);
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        shared
            .conns
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(conn_id, clone);
        let shared_for_conn = Arc::clone(shared);
        let conn = std::thread::Builder::new()
            .name("maya-wire-conn".into())
            .spawn(move || connection_loop(conn_id, stream, &shared_for_conn))
            .expect("spawn connection thread");
        // Reap finished connections here rather than only at shutdown,
        // so a long-running server's handle list tracks *concurrent*
        // connections, not every connection ever served. Partition
        // under the lock but join() outside it: is_finished() means
        // the join cannot block for long, but "cannot block for long"
        // held across a Mutex is exactly the discipline maya-lint's
        // guard-across-blocking-call rule forbids — a descheduled
        // exiting thread would stall every other conn_threads user.
        let finished: Vec<std::thread::JoinHandle<()>> = {
            let mut threads = shared
                .conn_threads
                .lock()
                .unwrap_or_else(|p| p.into_inner());
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

/// Encodes a job's terminal verdict as its wire frame. The layout is
/// mirrored by `WireJobOutcome::decode_*` on the client.
fn outcome_frame(id: u64, outcome: &JobOutcome) -> OutFrame {
    let mut w = compact::Writer::new();
    let kind = match outcome {
        JobOutcome::Done(resp) => {
            w.tag("done");
            resp.serialize(&mut w);
            FrameKind::Response
        }
        JobOutcome::Cancelled(resp) => {
            w.tag("cancelled");
            resp.serialize(&mut w);
            FrameKind::Response
        }
        JobOutcome::Expired(resp) => {
            resp.serialize(&mut w);
            FrameKind::Expired
        }
    };
    OutFrame {
        kind,
        id,
        body: w.finish(),
    }
}

/// Streams one admitted job's progress and verdict into the writer.
fn pump_job(
    id: u64,
    handle: JobHandle,
    out: &mpsc::Sender<OutFrame>,
    jobs: &Mutex<HashMap<u64, JobControl>>,
    service: &MayaService,
) {
    // The service-side job id, under which the worker recorded the
    // job's span tree (the frame id is the client's request id).
    let sid = handle.id();
    for event in handle.progress() {
        let mut w = compact::Writer::new();
        event.serialize(&mut w);
        if out
            .send(OutFrame {
                kind: FrameKind::Progress,
                id,
                body: w.finish(),
            })
            .is_err()
        {
            // Writer gone (client stopped reading): stop forwarding
            // progress but still drain the outcome below so the
            // service-side job is fully consumed.
            break;
        }
    }
    let verdict = handle.wait_outcome();
    // lint:allow(wall-clock-in-output): reply-latency telemetry anchor — timing is observability, not payload
    let reply_started = std::time::Instant::now();
    let frame = match &verdict {
        Ok(outcome) => outcome_frame(id, outcome),
        // The worker died mid-request (panic): typed Stopped.
        Err(e) => OutFrame {
            kind: FrameKind::Error,
            id,
            body: serde::to_string(&RemoteError::from(e)),
        },
    };
    let _ = out.send(frame);
    // Extend the worker's span tree with the reply phase (encode +
    // hand-off to the connection writer), so a scraped tree accounts
    // for the job's full server-side wall clock.
    if let Ok(outcome) = &verdict {
        if let Some(root) = outcome.response().and_then(|r| r.telemetry.spans.first()) {
            let reply = reply_started.elapsed();
            let mut tree = root.clone();
            tree.children
                .push(SpanNode::leaf("reply", tree.duration, reply));
            tree.duration += reply;
            service.record_job_tree(sid, tree);
        }
    }
    jobs.lock().unwrap_or_else(|p| p.into_inner()).remove(&id);
}

/// Reader half of one connection; owns the writer thread and spawns a
/// pump per admitted job.
fn connection_loop(conn_id: u64, stream: TcpStream, shared: &Arc<ServerShared>) {
    let Ok(write_half) = stream.try_clone() else {
        shared
            .conns
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&conn_id);
        return;
    };
    let (tx, rx) = mpsc::channel::<OutFrame>();
    let max_len = shared.max_frame_len;
    // This connection's in-flight jobs, shared with the pumps (each
    // removes its own entry at terminal) so `Cancel` frames — and the
    // writer's orphan cleanup — can reach them.
    let jobs: Arc<Mutex<HashMap<u64, JobControl>>> = Arc::new(Mutex::new(HashMap::new()));
    let writer = {
        let jobs = Arc::clone(&jobs);
        std::thread::Builder::new()
            .name("maya-wire-write".into())
            .spawn(move || writer_loop(write_half, &rx, max_len, &jobs))
            .expect("spawn connection writer")
    };
    let mut pumps: Vec<JoinHandle<()>> = Vec::new();

    let mut reader = std::io::BufReader::new(stream);
    loop {
        match read_frame(&mut reader, shared.max_frame_len) {
            Ok(None) => break, // client closed its write half
            Ok(Some(frame)) => {
                // Id 0 is reserved for connection-scoped errors: a
                // request carrying it could never be answered
                // unambiguously (an id-0 error frame means "the
                // stream is dead", and a service rejection like
                // Overloaded would be misread as fatal). A conforming
                // client starts at 1, so reject the stream outright.
                if frame.id == 0 {
                    shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    let _ = tx.send(OutFrame {
                        kind: FrameKind::Error,
                        id: 0,
                        body: serde::to_string(&RemoteError {
                            kind: crate::error::RemoteErrorKind::Protocol,
                            message: "frame id 0 is reserved for connection-scoped errors"
                                .to_string(),
                        }),
                    });
                    break;
                }
                match frame.kind {
                    FrameKind::Request => match decode_submission(&frame.body) {
                        Ok((req, opts)) => match shared.service.try_submit_with(req, opts) {
                            Ok(handle) => {
                                shared.admitted.fetch_add(1, Ordering::Relaxed);
                                jobs.lock()
                                    .unwrap_or_else(|p| p.into_inner())
                                    .insert(frame.id, handle.control());
                                let out = tx.clone();
                                let jobs = Arc::clone(&jobs);
                                let service = Arc::clone(&shared.service);
                                let id = frame.id;
                                // Reap finished pumps here rather than
                                // only at connection close, so a
                                // long-lived pipelined connection's
                                // handle list tracks *in-flight* jobs,
                                // not every job ever served.
                                let mut alive = Vec::with_capacity(pumps.len() + 1);
                                for pump in pumps.drain(..) {
                                    if pump.is_finished() {
                                        let _ = pump.join();
                                    } else {
                                        alive.push(pump);
                                    }
                                }
                                pumps = alive;
                                pumps.push(
                                    std::thread::Builder::new()
                                        .name("maya-wire-job".into())
                                        .spawn(move || pump_job(id, handle, &out, &jobs, &service))
                                        .expect("spawn job pump"),
                                );
                            }
                            Err(e) => {
                                if matches!(e, ServeError::Overloaded) {
                                    shared.overloaded.fetch_add(1, Ordering::Relaxed);
                                }
                                let _ = tx.send(OutFrame {
                                    kind: FrameKind::Error,
                                    id: frame.id,
                                    body: serde::to_string(&RemoteError::from(&e)),
                                });
                            }
                        },
                        Err(e) => {
                            // The frame parsed but its body did not:
                            // this request fails, the stream is intact.
                            shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                            let _ = tx.send(OutFrame {
                                kind: FrameKind::Error,
                                id: frame.id,
                                body: serde::to_string(&RemoteError::protocol(
                                    &ProtocolError::Malformed(e),
                                )),
                            });
                        }
                    },
                    FrameKind::Cancel => {
                        // Resolve against this connection's in-flight
                        // jobs. A miss is a benign race (the job
                        // already reached its terminal frame) and is
                        // ignored — the client sees the real verdict.
                        let control = jobs
                            .lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .get(&frame.id)
                            .cloned();
                        if let Some(control) = control {
                            shared.cancels.fetch_add(1, Ordering::Relaxed);
                            control.cancel();
                        }
                    }
                    FrameKind::Scrape => {
                        // Observability pull: answer on the echoed
                        // id with the service's deterministic
                        // point-in-time snapshot. Request body is
                        // ignored (empty by convention).
                        shared.scrapes.fetch_add(1, Ordering::Relaxed);
                        let _ = tx.send(OutFrame {
                            kind: FrameKind::Scrape,
                            id: frame.id,
                            body: serde::to_string(&shared.service.obs_snapshot()),
                        });
                    }
                    other => {
                        shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        let _ = tx.send(OutFrame {
                            kind: FrameKind::Error,
                            id: frame.id,
                            body: serde::to_string(&RemoteError::protocol(
                                &ProtocolError::UnexpectedFrame(other),
                            )),
                        });
                    }
                }
            }
            Err(ReadError::Protocol(p)) => {
                // The framing itself broke: report once on id 0 and
                // close this connection. Other connections — and the
                // service — are untouched.
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(OutFrame {
                    kind: FrameKind::Error,
                    id: 0,
                    body: serde::to_string(&RemoteError::protocol(&p)),
                });
                break;
            }
            Err(ReadError::Io(_)) => break,
        }
    }
    // Dropping the reader's sender (after the pumps finish and drop
    // theirs) lets the writer drain in-flight frames and exit — this
    // is what makes shutdown (and client close) drain rather than
    // abort. The pumps finish on their own once the service answers
    // their jobs; the wrapped service keeps running throughout.
    for pump in pumps {
        let _ = pump.join();
    }
    drop(tx);
    let _ = writer.join();
    // Close the socket at the OS level and deregister. The explicit
    // shutdown matters: the registry (or a client) may still hold FD
    // clones, and the peer must see EOF now, not when the last clone
    // drops.
    let stream = reader.into_inner();
    let _ = stream.shutdown(Shutdown::Both);
    shared
        .conns
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .remove(&conn_id);
}

/// Writer half: serializes queued frames onto the socket in arrival
/// order. An id-0 error frame is connection-fatal: written, then the
/// writer stops.
///
/// When the writer exits with jobs still in flight, no frame of theirs
/// can ever reach the client — the peer is gone (write failure) or the
/// stream is condemned (id-0 error) — so it cancels them on the way
/// out. Workers stop burning on orphaned searches promptly, and the
/// pumps (blocked in `wait_outcome`) unwind. A *graceful* drain — the
/// client half-closing its writes, or [`WireServer::shutdown`] — never
/// takes this path: the writer outlives the pumps there, and in-flight
/// jobs deliver normally.
fn writer_loop(
    stream: TcpStream,
    rx: &mpsc::Receiver<OutFrame>,
    max_len: u32,
    jobs: &Mutex<HashMap<u64, JobControl>>,
) {
    let mut w = std::io::BufWriter::new(stream);
    while let Ok(frame) = rx.recv() {
        let fatal = frame.kind == FrameKind::Error && frame.id == 0;
        if write_frame(&mut w, frame.kind, frame.id, &frame.body, max_len).is_err() {
            break; // peer gone; reader will notice on its next read
        }
        if fatal {
            break; // connection-fatal: stop after reporting
        }
    }
    for control in jobs.lock().unwrap_or_else(|p| p.into_inner()).values() {
        control.cancel();
    }
}
