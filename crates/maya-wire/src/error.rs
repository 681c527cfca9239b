//! Typed errors crossing (and reported by) the wire.
//!
//! [`RemoteError`] is the wire form of everything that can go wrong on
//! the serving side: service-boundary failures
//! ([`maya_serve::ServeError`] — `Overloaded`, `UnknownTarget`, ...),
//! pipeline failures inside a payload ([`maya::MayaError`]), and
//! protocol failures the server detected in the client's own frames.
//! The original error trees hold process-local state (`std::io::Error`,
//! estimator internals), so the wire carries a **stable kind code plus
//! the rendered message** — enough for a client to branch on the kind
//! (retry on [`RemoteErrorKind::Overloaded`], fix the request on
//! [`RemoteErrorKind::UnknownTarget`]) and log the rest.
//!
//! [`RemoteErrorKind::code`] is the one error-code table: neither
//! `ServeError` nor `MayaError` has a codec of its own. Each converts to
//! a `RemoteError` by an exhaustive `match` below, so a variant added to
//! either does not compile until it names its kind.
//!
//! [`WireError`] is the client-facing sum: local I/O, local protocol
//! violations, a typed remote error, or a connection that died with the
//! request in flight.

use serde::{compact, Deserialize, Serialize};

use crate::frame::ProtocolError;

/// Stable category of a [`RemoteError`]: one kind per `ServeError`
/// and `MayaError` variant (their `Cancelled` variants share one),
/// plus the wire-only `Protocol`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemoteErrorKind {
    /// `ServeError::UnknownTarget`: the request named an unregistered
    /// cluster target.
    UnknownTarget,
    /// `ServeError::Overloaded`: the service's bounded admission queue
    /// was full. The request was *not* executed; retry later.
    Overloaded,
    /// `ServeError::QuotaExceeded`: the submission's tenant is over
    /// its per-tenant admission quota. The request was *not* executed;
    /// unlike `Overloaded`, blind retry does not help until this
    /// tenant's own queued jobs drain.
    QuotaExceeded,
    /// `ServeError::Stopped`: the service is shutting down (or the
    /// request's worker died mid-execution).
    Stopped,
    /// `ServeError::DuplicateTarget` (build-time; not normally seen
    /// over the wire).
    DuplicateTarget,
    /// `ServeError::NoTargets` (build-time).
    NoTargets,
    /// `ServeError::Cancelled` / `MayaError::Cancelled`: the job (or
    /// one prediction slot of it) was cooperatively cancelled before
    /// completing.
    Cancelled,
    /// `ServeError::Expired`: the job's deadline elapsed.
    Expired,
    /// `ServeError::CustomEstimatorSpansClusters` (build-time).
    CustomEstimatorSpansClusters,
    /// `ServeError::Snapshot`: a memo snapshot could not be read or
    /// written.
    Snapshot,
    /// `MayaError::Config`: the job violates divisibility/topology
    /// rules.
    Config,
    /// `MayaError::Device`: a virtual device call failed.
    Device,
    /// `MayaError::Collate`: trace collation failed.
    Collate,
    /// `MayaError::Sim`: simulation failed.
    Sim,
    /// `MayaError::Exec`: ground-truth execution failed.
    Exec,
    /// `MayaError::WorldMismatch`: the job's world size disagrees with
    /// the target cluster.
    WorldMismatch,
    /// `MayaError::ClusterMismatch` (build-time; not normally seen over
    /// the wire): a spec for another cluster than its builder's.
    ClusterMismatch,
    /// The server could not parse a frame the client sent (the echoed
    /// id tells which request; id 0 means the stream is desynchronized
    /// and the server is closing the connection).
    Protocol,
}

impl RemoteErrorKind {
    /// The stable wire code. Part of the wire format: renaming one is a
    /// protocol change.
    pub fn code(self) -> &'static str {
        match self {
            RemoteErrorKind::UnknownTarget => "unknown_target",
            RemoteErrorKind::Overloaded => "overloaded",
            RemoteErrorKind::QuotaExceeded => "quota_exceeded",
            RemoteErrorKind::Stopped => "stopped",
            RemoteErrorKind::DuplicateTarget => "duplicate_target",
            RemoteErrorKind::NoTargets => "no_targets",
            RemoteErrorKind::Cancelled => "cancelled",
            RemoteErrorKind::Expired => "expired",
            RemoteErrorKind::CustomEstimatorSpansClusters => "custom_estimator_spans_clusters",
            RemoteErrorKind::Snapshot => "snapshot",
            RemoteErrorKind::Config => "config",
            RemoteErrorKind::Device => "device",
            RemoteErrorKind::Collate => "collate",
            RemoteErrorKind::Sim => "sim",
            RemoteErrorKind::Exec => "exec",
            RemoteErrorKind::WorldMismatch => "world_mismatch",
            RemoteErrorKind::ClusterMismatch => "cluster_mismatch",
            RemoteErrorKind::Protocol => "protocol",
        }
    }

    /// Parses a wire code.
    pub fn from_code(code: &str) -> Option<Self> {
        RemoteErrorKind::all()
            .into_iter()
            .find(|k| k.code() == code)
    }

    /// Every kind.
    pub fn all() -> [RemoteErrorKind; 18] {
        [
            RemoteErrorKind::UnknownTarget,
            RemoteErrorKind::Overloaded,
            RemoteErrorKind::QuotaExceeded,
            RemoteErrorKind::Stopped,
            RemoteErrorKind::DuplicateTarget,
            RemoteErrorKind::NoTargets,
            RemoteErrorKind::Cancelled,
            RemoteErrorKind::Expired,
            RemoteErrorKind::CustomEstimatorSpansClusters,
            RemoteErrorKind::Snapshot,
            RemoteErrorKind::Config,
            RemoteErrorKind::Device,
            RemoteErrorKind::Collate,
            RemoteErrorKind::Sim,
            RemoteErrorKind::Exec,
            RemoteErrorKind::WorldMismatch,
            RemoteErrorKind::ClusterMismatch,
            RemoteErrorKind::Protocol,
        ]
    }
}

/// A typed error reported by the serving side (see module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RemoteError {
    /// Stable category; branch on this.
    pub kind: RemoteErrorKind,
    /// The server-side rendered message (diagnostic, not stable).
    pub message: String,
}

impl RemoteError {
    /// Builds a protocol-kind error from a local [`ProtocolError`] (the
    /// server reports the client's malformed frames this way).
    pub fn protocol(e: &ProtocolError) -> Self {
        RemoteError {
            kind: RemoteErrorKind::Protocol,
            message: e.to_string(),
        }
    }
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "remote {}: {}", self.kind.code(), self.message)
    }
}

impl std::error::Error for RemoteError {}

impl From<&maya_serve::ServeError> for RemoteError {
    fn from(e: &maya_serve::ServeError) -> Self {
        use maya_serve::ServeError as E;
        use RemoteErrorKind as K;
        let kind = match e {
            E::UnknownTarget(_) => K::UnknownTarget,
            E::Overloaded => K::Overloaded,
            E::QuotaExceeded { .. } => K::QuotaExceeded,
            E::Stopped => K::Stopped,
            E::DuplicateTarget(_) => K::DuplicateTarget,
            E::NoTargets => K::NoTargets,
            E::Cancelled => K::Cancelled,
            E::Expired => K::Expired,
            E::CustomEstimatorSpansClusters => K::CustomEstimatorSpansClusters,
            E::Snapshot(_) => K::Snapshot,
        };
        RemoteError {
            kind,
            message: e.to_string(),
        }
    }
}

impl From<&maya::MayaError> for RemoteError {
    fn from(e: &maya::MayaError) -> Self {
        use maya::MayaError as E;
        use RemoteErrorKind as K;
        let kind = match e {
            E::Config(_) => K::Config,
            E::Device(_) => K::Device,
            E::Collate(_) => K::Collate,
            E::Sim(_) => K::Sim,
            E::Exec(_) => K::Exec,
            E::WorldMismatch { .. } => K::WorldMismatch,
            E::ClusterMismatch => K::ClusterMismatch,
            E::Cancelled => K::Cancelled,
        };
        RemoteError {
            kind,
            message: e.to_string(),
        }
    }
}

// Hand-written because the tag table already exists as `code()`, which
// `Display` needs as a `&'static str`; a `codec!` enum would be a second
// copy of it.
impl Serialize for RemoteErrorKind {
    fn serialize(&self, w: &mut compact::Writer) {
        w.tag(self.code());
    }
}

impl<'de> Deserialize<'de> for RemoteErrorKind {
    fn deserialize(r: &mut compact::Reader<'de>) -> Result<Self, compact::Error> {
        let t = r.raw_token()?;
        RemoteErrorKind::from_code(t).ok_or_else(|| compact::Error::parse(t, "error code"))
    }
}

// A kind code, then the rendered message.
serde::codec! {
    struct RemoteError { kind, message }
}

/// A wire client call failed (see module docs).
#[derive(Debug)]
pub enum WireError {
    /// Local transport failure.
    Io(std::io::Error),
    /// The *peer's* bytes violated the protocol (bad magic, version
    /// skew, oversized frame, undecodable body...).
    Protocol(ProtocolError),
    /// The server answered with a typed error instead of a response.
    Remote(RemoteError),
    /// The connection closed (or the client was shut down) before this
    /// request's response arrived. The request may or may not have
    /// executed on the server.
    ConnectionClosed,
}

impl WireError {
    /// Whether this is the server's typed load-shed signal — the one
    /// failure that is always safe to retry after backoff (the request
    /// never entered the admission queue).
    pub fn is_overloaded(&self) -> bool {
        matches!(
            self,
            WireError::Remote(RemoteError {
                kind: RemoteErrorKind::Overloaded,
                ..
            })
        )
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::Protocol(e) => write!(f, "wire protocol error: {e}"),
            WireError::Remote(e) => write!(f, "{e}"),
            WireError::ConnectionClosed => write!(f, "connection closed before the response"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<ProtocolError> for WireError {
    fn from(e: ProtocolError) -> Self {
        WireError::Protocol(e)
    }
}

impl From<crate::frame::ReadError> for WireError {
    fn from(e: crate::frame::ReadError) -> Self {
        match e {
            crate::frame::ReadError::Io(io) => WireError::Io(io),
            crate::frame::ReadError::Protocol(p) => WireError::Protocol(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya::MayaError;
    use maya_estimator::SnapshotError;
    use maya_serve::ServeError;

    #[test]
    fn kind_codes_round_trip() {
        for kind in RemoteErrorKind::all() {
            assert_eq!(RemoteErrorKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(RemoteErrorKind::from_code("nonsense"), None);
    }

    #[test]
    fn remote_errors_round_trip_identity() {
        for kind in RemoteErrorKind::all() {
            let e = RemoteError {
                kind,
                message: format!("m sg\nwith {} specials %", kind.code()),
            };
            let back: RemoteError = serde::from_str(&serde::to_string(&e)).unwrap();
            assert_eq!(back, e);
        }
    }

    /// Walks every `ServeError` variant in declaration order. The match
    /// has no wildcard, so a variant added to the enum does not compile
    /// until it is a step of the walk — and the pinned table below then
    /// demands its code and message.
    fn serve_error_after(prev: Option<&ServeError>) -> Option<ServeError> {
        use ServeError as E;
        Some(match prev {
            None => E::UnknownTarget("eu/h100".into()),
            Some(E::UnknownTarget(_)) => E::Overloaded,
            Some(E::Overloaded) => E::QuotaExceeded {
                tenant: "burst".into(),
            },
            Some(E::QuotaExceeded { .. }) => E::Stopped,
            Some(E::Stopped) => E::DuplicateTarget("x".into()),
            Some(E::DuplicateTarget(_)) => E::NoTargets,
            Some(E::NoTargets) => E::Cancelled,
            Some(E::Cancelled) => E::Expired,
            Some(E::Expired) => E::CustomEstimatorSpansClusters,
            Some(E::CustomEstimatorSpansClusters) => E::Snapshot(SnapshotError::NotASnapshot),
            Some(E::Snapshot(_)) => return None,
        })
    }

    /// The same walk over `MayaError`.
    fn maya_error_after(prev: Option<&MayaError>) -> Option<MayaError> {
        use MayaError as E;
        Some(match prev {
            None => E::Config(maya_torchlet::ConfigError::WorldNotDivisible {
                world: 8,
                model_parallel: 3,
            }),
            Some(E::Config(_)) => E::Device(maya_cuda::CudaError::InvalidValue),
            Some(E::Device(_)) => E::Collate(maya_collate::CollateError::Invalid("c".into())),
            Some(E::Collate(_)) => E::Sim(maya_sim::SimError::InvalidTrace("s".into())),
            Some(E::Sim(_)) => E::Exec(maya_hw::ExecError::InvalidTrace("x".into())),
            Some(E::Exec(_)) => E::WorldMismatch { job: 8, cluster: 2 },
            Some(E::WorldMismatch { .. }) => E::ClusterMismatch,
            Some(E::ClusterMismatch) => E::Cancelled,
            Some(E::Cancelled) => return None,
        })
    }

    fn walk<E>(after: fn(Option<&E>) -> Option<E>) -> Vec<E> {
        let mut all = Vec::new();
        while let Some(next) = after(all.last()) {
            all.push(next);
        }
        all
    }

    /// Every variant's wire code, in walk order, and its rendered
    /// message: the codes are the wire format, so a rename fails here
    /// before it reaches a peer.
    #[test]
    fn every_error_variant_has_its_pinned_code_and_message() {
        let mut got: Vec<(RemoteError, String)> = Vec::new();
        got.extend(
            walk(serve_error_after)
                .iter()
                .map(|e| (e.into(), e.to_string())),
        );
        got.extend(
            walk(maya_error_after)
                .iter()
                .map(|e| (e.into(), e.to_string())),
        );
        let codes: Vec<&str> = got.iter().map(|(r, _)| r.kind.code()).collect();
        assert_eq!(
            codes,
            [
                "unknown_target",
                "overloaded",
                "quota_exceeded",
                "stopped",
                "duplicate_target",
                "no_targets",
                "cancelled",
                "expired",
                "custom_estimator_spans_clusters",
                "snapshot",
                "config",
                "device",
                "collate",
                "sim",
                "exec",
                "world_mismatch",
                "cluster_mismatch",
                "cancelled",
            ]
        );
        for (remote, shown) in &got {
            assert_eq!(&remote.message, shown);
        }
    }

    /// A server writes an error as the encoding of its `RemoteError`:
    /// the kind code, then the message as one token.
    fn encodes_as_code_then_message(e: &impl std::fmt::Display, remote: RemoteError) {
        let text = serde::to_string(&remote);
        let mut r = compact::Reader::new(&text);
        assert_eq!(r.raw_token().unwrap(), remote.kind.code());
        assert_eq!(r.str_token().unwrap(), e.to_string());
        r.end().unwrap();
        assert_eq!(serde::from_str::<RemoteError>(&text), Ok(remote), "{e}");
    }

    #[test]
    fn serve_errors_decode_as_remote_errors() {
        for e in walk(serve_error_after) {
            encodes_as_code_then_message(&e, RemoteError::from(&e));
        }
    }

    #[test]
    fn maya_errors_decode_as_remote_errors() {
        for e in walk(maya_error_after) {
            encodes_as_code_then_message(&e, RemoteError::from(&e));
        }
    }

    #[test]
    fn overload_detection() {
        let overloaded = WireError::Remote(RemoteError::from(&maya_serve::ServeError::Overloaded));
        assert!(overloaded.is_overloaded());
        assert!(!WireError::ConnectionClosed.is_overloaded());
    }
}
