//! A byte-counting loopback forwarder: sits between one `WireClient`
//! and the `WireServer` in the traced run so request and reply sizes
//! are measured on the socket, from outside both.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Forwards exactly one connection to `upstream`, counting bytes each
/// way.
pub struct Forwarder {
    addr: SocketAddr,
    up: Arc<AtomicU64>,
    down: Arc<AtomicU64>,
    thread: JoinHandle<std::io::Result<()>>,
}

/// Copies `from` to `to` until end of stream, adding to `counter`, then
/// passes the end of stream on.
fn pump(mut from: TcpStream, mut to: TcpStream, counter: &AtomicU64) -> std::io::Result<()> {
    let mut buf = [0u8; 16 * 1024];
    loop {
        let n = from.read(&mut buf)?;
        if n == 0 {
            break;
        }
        to.write_all(&buf[..n])?;
        counter.fetch_add(n as u64, Ordering::Relaxed);
    }
    // The peer may already be gone; that is its way of ending too.
    let _ = to.shutdown(Shutdown::Write);
    Ok(())
}

impl Forwarder {
    /// Binds a loopback port and forwards its first connection.
    pub fn start(upstream: SocketAddr) -> std::io::Result<Forwarder> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let up = Arc::new(AtomicU64::new(0));
        let down = Arc::new(AtomicU64::new(0));
        let (up_t, down_t) = (Arc::clone(&up), Arc::clone(&down));
        let thread = std::thread::Builder::new()
            .name("benchmark-forwarder".into())
            .spawn(move || {
                let (client, _) = listener.accept()?;
                drop(listener);
                client.set_nodelay(true)?;
                let server = TcpStream::connect(upstream)?;
                server.set_nodelay(true)?;
                let (client_r, server_w) = (client.try_clone()?, server.try_clone()?);
                let upward = std::thread::spawn(move || pump(client_r, server_w, &up_t));
                let downward = pump(server, client, &down_t);
                let upward = upward.join().expect("forwarder pump does not panic");
                upward.and(downward)
            })?;
        Ok(Forwarder {
            addr,
            up,
            down,
            thread,
        })
    }

    /// Where the client connects.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the forwarded connection to end (drop the client
    /// first) and returns the final byte counts.
    pub fn finish(self) -> std::io::Result<(u64, u64)> {
        // If no client ever connected, this unblocks the accept; after
        // a real connection the listener is gone and this just fails.
        drop(TcpStream::connect(self.addr));
        self.thread
            .join()
            .expect("forwarder thread does not panic")?;
        Ok((
            self.up.load(Ordering::Relaxed),
            self.down.load(Ordering::Relaxed),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_wire::frame::{read_frame, write_frame};
    use maya_wire::{FrameKind, DEFAULT_MAX_FRAME_LEN};

    /// Frames written through the forwarder arrive unchanged in both
    /// directions, and the counts equal the bytes on the socket.
    #[test]
    fn frames_pass_through_unchanged_and_are_counted() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        // Upstream answers every request frame with a longer reply.
        let server = std::thread::spawn(move || {
            let (mut s, _) = upstream.accept().unwrap();
            let mut seen = Vec::new();
            while let Some(f) = read_frame(&mut s, DEFAULT_MAX_FRAME_LEN).unwrap() {
                let reply = format!("{}|{}", f.body, f.body);
                write_frame(
                    &mut s,
                    FrameKind::Response,
                    f.id,
                    &reply,
                    DEFAULT_MAX_FRAME_LEN,
                )
                .unwrap();
                seen.push((f.id, f.body));
            }
            seen
        });

        let fwd = Forwarder::start(upstream_addr).unwrap();
        let mut client = TcpStream::connect(fwd.addr()).unwrap();
        let bodies = [
            "",
            "x",
            "a longer body with \"quotes\" and é",
            &"z".repeat(70_000),
        ];
        let mut sent = 0u64;
        let mut received = 0u64;
        for (i, body) in bodies.iter().enumerate() {
            let mut raw = Vec::new();
            write_frame(
                &mut raw,
                FrameKind::Request,
                i as u64 + 1,
                body,
                DEFAULT_MAX_FRAME_LEN,
            )
            .unwrap();
            client.write_all(&raw).unwrap();
            sent += raw.len() as u64;
            let reply = read_frame(&mut client, DEFAULT_MAX_FRAME_LEN)
                .unwrap()
                .unwrap();
            assert_eq!(reply.id, i as u64 + 1);
            assert_eq!(reply.kind, FrameKind::Response);
            assert_eq!(reply.body, format!("{body}|{body}"));
            let mut raw_reply = Vec::new();
            write_frame(
                &mut raw_reply,
                reply.kind,
                reply.id,
                &reply.body,
                DEFAULT_MAX_FRAME_LEN,
            )
            .unwrap();
            received += raw_reply.len() as u64;
        }
        drop(client);
        assert_eq!(fwd.finish().unwrap(), (sent, received));
        let seen = server.join().unwrap();
        let want: Vec<(u64, String)> = bodies
            .iter()
            .enumerate()
            .map(|(i, b)| (i as u64 + 1, b.to_string()))
            .collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn finish_without_a_client_does_not_hang() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let fwd = Forwarder::start(upstream.local_addr().unwrap()).unwrap();
        let server = std::thread::spawn(move || drop(upstream.accept()));
        assert_eq!(fwd.finish().unwrap(), (0, 0));
        server.join().unwrap();
    }
}
