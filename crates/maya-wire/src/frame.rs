//! The binary framing layer: length-prefixed, versioned frames whose
//! bodies are `serde::compact` token streams.
//!
//! Every frame is a fixed 20-byte header followed by a UTF-8 body:
//!
//! ```text
//! offset  size  field
//!      0     4  magic   b"MAYW"
//!      4     2  version u16 BE (VERSION; anything else is refused)
//!      6     1  kind    1 = request, 2 = response, 3 = error,
//!                       4 = progress, 5 = cancel, 6 = expired,
//!                       7 = scrape
//!      7     1  reserved (must be 0)
//!      8     8  id      u64 BE request id, echoed in the reply
//!                       (must be non-zero in requests: 0 marks
//!                       connection-scoped error frames)
//!     16     4  len     u32 BE body length in bytes
//!     20   len  body    compact token stream (UTF-8)
//! ```
//!
//! `request` and `cancel` travel client → server (a cancel asks the
//! server to cooperatively stop the in-flight job with that id; its
//! body is empty). `progress` streams a running search's incremental
//! results back (many per id, all before the terminal frame);
//! `response`, `expired` and `error` are the terminal frames of a job;
//! `scrape` goes both ways (a client pulls the server's point-in-time
//! metrics snapshot; the server echoes the id back with the serialized
//! `maya_serve::ObsSnapshot` as the body).
//!
//! There is one protocol version. The header's version field exists so
//! that a peer built from a different revision is *refused* with a
//! typed error instead of having its bodies misread: [`read_frame`]
//! accepts exactly [`MIN_VERSION`]..=[`VERSION`], and the two are
//! equal. A future revision that must keep serving older peers lowers
//! [`MIN_VERSION`] and branches on [`Frame::version`]; until then no
//! codec carries a version parameter.
//!
//! The header is self-validating: wrong magic, an unknown version or
//! kind, a non-zero reserved byte, or a length over the reader's
//! max-frame guard are typed [`ProtocolError`]s — never panics and
//! never unbounded allocations. A stream that ends cleanly *between*
//! frames reads as end-of-stream ([`read_frame`] returns `None`); one
//! that ends inside a frame is [`ProtocolError::Truncated`].

use std::io::{ErrorKind, Read, Write};

/// Leading magic of every frame.
pub const MAGIC: [u8; 4] = *b"MAYW";

/// Protocol version this build writes (header field).
pub const VERSION: u16 = 5;

/// Oldest protocol version this build still reads: the current one.
/// No down-level peer is deployed, so none is decoded.
pub const MIN_VERSION: u16 = VERSION;

/// Header size in bytes.
pub const HEADER_LEN: usize = 20;

/// Default max-frame guard: 32 MiB.
///
/// Both sides refuse to *read* a frame longer than their guard (the
/// length is attacker-controlled input — it must bound allocation) and
/// refuse to *write* one (the peer would just drop it).
pub const DEFAULT_MAX_FRAME_LEN: u32 = 32 << 20;

/// What a frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: a serialized `maya_serve::JobOptions` followed
    /// by a serialized `maya_serve::Request`.
    Request,
    /// Server → client: the terminal verdict for the echoed id — a job
    /// outcome tag (`done` / `cancelled`) plus the serialized response
    /// (see [`WireJobOutcome`](crate::WireJobOutcome)).
    Response,
    /// Server → client: a serialized [`RemoteError`](crate::RemoteError)
    /// for the echoed id (id 0 = connection-fatal, not tied to one
    /// request).
    Error,
    /// Server → client: one serialized `maya_serve::SearchProgress`
    /// increment of the running job with the echoed id. Zero or more
    /// of these precede the job's single terminal frame.
    Progress,
    /// Client → server: cooperatively cancel the in-flight job with
    /// the echoed id. Empty body; no direct acknowledgement — the
    /// job's terminal frame reflects the verdict.
    Cancel,
    /// Server → client: terminal — the job's deadline elapsed. The
    /// body is `none` (shed while queued, never executed) or `some`
    /// plus the committed-prefix response of a search whose budget ran
    /// out mid-run.
    Expired,
    /// Both directions: a client sends an empty-body `Scrape` to pull
    /// the server's point-in-time observability snapshot; the server
    /// echoes the id back in a `Scrape` frame whose body is the
    /// serialized `maya_serve::ObsSnapshot`.
    Scrape,
}

impl FrameKind {
    fn code(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Response => 2,
            FrameKind::Error => 3,
            FrameKind::Progress => 4,
            FrameKind::Cancel => 5,
            FrameKind::Expired => 6,
            FrameKind::Scrape => 7,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            1 => FrameKind::Request,
            2 => FrameKind::Response,
            3 => FrameKind::Error,
            4 => FrameKind::Progress,
            5 => FrameKind::Cancel,
            6 => FrameKind::Expired,
            7 => FrameKind::Scrape,
            _ => return None,
        })
    }

    /// Every kind (for exhaustive tests).
    pub fn all() -> [FrameKind; 7] {
        [
            FrameKind::Request,
            FrameKind::Response,
            FrameKind::Error,
            FrameKind::Progress,
            FrameKind::Cancel,
            FrameKind::Expired,
            FrameKind::Scrape,
        ]
    }
}

/// One decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The protocol version the peer wrote this frame under (within
    /// [`MIN_VERSION`]..=[`VERSION`]).
    pub version: u16,
    /// What the body is.
    pub kind: FrameKind,
    /// Request id (echoed by the server; 0 = connection-scoped).
    pub id: u64,
    /// The compact token stream.
    pub body: String,
}

/// A malformed, oversized, truncated or version-skewed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The stream did not start a frame with the `MAYW` magic —
    /// not a maya-wire peer (or a desynchronized stream).
    BadMagic([u8; 4]),
    /// The peer speaks an unsupported protocol version.
    Version(u16),
    /// The header's kind byte is not a known frame kind.
    UnknownKind(u8),
    /// The header's reserved byte was non-zero.
    Reserved(u8),
    /// The frame length exceeds the local max-frame guard.
    Oversized {
        /// Length the header declared.
        len: u32,
        /// This side's guard.
        max: u32,
    },
    /// The stream ended inside a frame (header or body).
    Truncated,
    /// The body is not valid UTF-8.
    BodyNotUtf8,
    /// The body's token stream failed to decode as the expected type.
    Malformed(serde::Error),
    /// The peer sent a frame kind that makes no sense in this direction
    /// (e.g. a server received a response frame).
    UnexpectedFrame(FrameKind),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            ProtocolError::Version(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this build speaks \
                     {MIN_VERSION}..={VERSION})"
                )
            }
            ProtocolError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            ProtocolError::Reserved(b) => write!(f, "non-zero reserved header byte {b}"),
            ProtocolError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte guard")
            }
            ProtocolError::Truncated => write!(f, "stream ended mid-frame"),
            ProtocolError::BodyNotUtf8 => write!(f, "frame body is not UTF-8"),
            ProtocolError::Malformed(e) => write!(f, "malformed frame body: {e}"),
            ProtocolError::UnexpectedFrame(k) => write!(f, "unexpected {k:?} frame"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Failure while reading one frame.
#[derive(Debug)]
pub enum ReadError {
    /// Transport failure.
    Io(std::io::Error),
    /// The bytes arrived but do not form a valid frame.
    Protocol(ProtocolError),
}

/// Writes one frame under [`VERSION`]. Fails with
/// [`ProtocolError::Oversized`] (as `InvalidData` io error) when the
/// body exceeds `max_len`.
pub fn write_frame<W: Write>(
    w: &mut W,
    kind: FrameKind,
    id: u64,
    body: &str,
    max_len: u32,
) -> std::io::Result<()> {
    let len = u32::try_from(body.len())
        .ok()
        .filter(|&l| l <= max_len)
        .ok_or_else(|| {
            std::io::Error::new(
                ErrorKind::InvalidData,
                ProtocolError::Oversized {
                    len: body.len().min(u32::MAX as usize) as u32,
                    max: max_len,
                },
            )
        })?;
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&VERSION.to_be_bytes());
    header[6] = kind.code();
    header[7] = 0;
    header[8..16].copy_from_slice(&id.to_be_bytes());
    header[16..20].copy_from_slice(&len.to_be_bytes());
    w.write_all(&header)?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// Reads exactly `buf.len()` bytes. `Ok(false)` means the stream ended
/// cleanly *before the first byte*; EOF anywhere later is
/// [`ProtocolError::Truncated`].
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<bool, ReadError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(ReadError::Protocol(ProtocolError::Truncated))
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads one frame; `Ok(None)` is a clean end-of-stream at a frame
/// boundary. `max_len` bounds the body allocation *before* it happens.
pub fn read_frame<R: Read>(r: &mut R, max_len: u32) -> Result<Option<Frame>, ReadError> {
    let mut header = [0u8; HEADER_LEN];
    if !read_exact_or_eof(r, &mut header)? {
        return Ok(None);
    }
    // Destructure the fixed-size header once: every field extraction
    // below is infallible by construction (no slice-length expects on
    // the per-frame hot path).
    let [m0, m1, m2, m3, v0, v1, kind_code, reserved, i0, i1, i2, i3, i4, i5, i6, i7, l0, l1, l2, l3] =
        header;
    let magic = [m0, m1, m2, m3];
    if magic != MAGIC {
        return Err(ReadError::Protocol(ProtocolError::BadMagic(magic)));
    }
    let version = u16::from_be_bytes([v0, v1]);
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(ReadError::Protocol(ProtocolError::Version(version)));
    }
    let kind = FrameKind::from_code(kind_code)
        .ok_or(ReadError::Protocol(ProtocolError::UnknownKind(kind_code)))?;
    if reserved != 0 {
        return Err(ReadError::Protocol(ProtocolError::Reserved(reserved)));
    }
    let id = u64::from_be_bytes([i0, i1, i2, i3, i4, i5, i6, i7]);
    let len = u32::from_be_bytes([l0, l1, l2, l3]);
    if len > max_len {
        return Err(ReadError::Protocol(ProtocolError::Oversized {
            len,
            max: max_len,
        }));
    }
    let mut body = vec![0u8; len as usize];
    if !read_exact_or_eof(r, &mut body)? && len > 0 {
        return Err(ReadError::Protocol(ProtocolError::Truncated));
    }
    let body =
        String::from_utf8(body).map_err(|_| ReadError::Protocol(ProtocolError::BodyNotUtf8))?;
    Ok(Some(Frame {
        version,
        kind,
        id,
        body,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(kind: FrameKind, id: u64, body: &str) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, kind, id, body, DEFAULT_MAX_FRAME_LEN).unwrap();
        let mut cursor = &buf[..];
        let frame = read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .expect("one frame");
        assert!(cursor.is_empty(), "frame consumed exactly");
        frame
    }

    #[test]
    fn frames_round_trip() {
        for (kind, id, body) in [
            (FrameKind::Request, 1, "predict h100 1 ..."),
            (FrameKind::Response, u64::MAX, ""),
            (FrameKind::Error, 0, "overloaded admission%squeue%sfull"),
        ] {
            let f = round_trip(kind, id, body);
            assert_eq!(f.kind, kind);
            assert_eq!(f.id, id);
            assert_eq!(f.body, body);
        }
    }

    #[test]
    fn back_to_back_frames_parse_individually() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, 1, "a", 64).unwrap();
        write_frame(&mut buf, FrameKind::Request, 2, "bb", 64).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor, 64).unwrap().unwrap().id, 1);
        assert_eq!(read_frame(&mut cursor, 64).unwrap().unwrap().body, "bb");
        assert!(read_frame(&mut cursor, 64).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, 1, "x", 64).unwrap();
        buf[0] = b'Z';
        assert!(matches!(
            read_frame(&mut &buf[..], 64),
            Err(ReadError::Protocol(ProtocolError::BadMagic(_)))
        ));
    }

    #[test]
    fn version_skew_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, 1, "x", 64).unwrap();
        buf[5] = 99;
        assert!(matches!(
            read_frame(&mut &buf[..], 64),
            Err(ReadError::Protocol(ProtocolError::Version(99)))
        ));
    }

    #[test]
    fn supported_version_range_is_accepted_and_reported() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, 1, "x", 64).unwrap();
        // This build writes VERSION, and the supported range is that
        // one version...
        assert_eq!(MIN_VERSION, VERSION);
        let frame = read_frame(&mut &buf[..], 64).unwrap().unwrap();
        assert_eq!(frame.version, VERSION);
        assert_eq!(frame.body, "x");
        // ...so its neighbours on both sides are refused.
        for version in [MIN_VERSION - 1, VERSION + 1] {
            buf[4..6].copy_from_slice(&version.to_be_bytes());
            assert!(matches!(
                read_frame(&mut &buf[..], 64),
                Err(ReadError::Protocol(ProtocolError::Version(v))) if v == version
            ));
        }
    }

    #[test]
    fn oversized_frames_rejected_before_allocation() {
        // A header declaring 4 GiB-ish must not allocate the body.
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, 1, "x", 64).unwrap();
        buf[16..20].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            read_frame(&mut &buf[..], 64),
            Err(ReadError::Protocol(ProtocolError::Oversized { .. }))
        ));
        // And the writer refuses to produce one.
        let body = "y".repeat(65);
        assert!(write_frame(&mut Vec::new(), FrameKind::Request, 1, &body, 64).is_err());
    }

    #[test]
    fn truncated_frames_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, 7, "hello", 64).unwrap();
        for cut in [1, HEADER_LEN - 1, HEADER_LEN + 2] {
            assert!(
                matches!(
                    read_frame(&mut &buf[..cut], 64),
                    Err(ReadError::Protocol(ProtocolError::Truncated))
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn unknown_kind_and_reserved_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, 1, "", 64).unwrap();
        let mut bad_kind = buf.clone();
        bad_kind[6] = 9;
        assert!(matches!(
            read_frame(&mut &bad_kind[..], 64),
            Err(ReadError::Protocol(ProtocolError::UnknownKind(9)))
        ));
        buf[7] = 1;
        assert!(matches!(
            read_frame(&mut &buf[..], 64),
            Err(ReadError::Protocol(ProtocolError::Reserved(1)))
        ));
    }

    #[test]
    fn non_utf8_body_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, 1, "ab", 64).unwrap();
        let n = buf.len();
        buf[n - 1] = 0xFF;
        assert!(matches!(
            read_frame(&mut &buf[..], 64),
            Err(ReadError::Protocol(ProtocolError::BodyNotUtf8))
        ));
    }
}
