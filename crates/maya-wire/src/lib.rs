//! Maya-Wire: the framed TCP serving front end for
//! [`maya_serve::MayaService`].
//!
//! `maya-serve` deliberately kept the service transport-agnostic; this
//! crate puts it on a real socket. Three layers:
//!
//! - **[`frame`]** — a length-prefixed, versioned binary frame header
//!   (magic, version, kind, request id, length) around bodies encoded
//!   in the vendored serde's compact token format, with a max-frame
//!   guard and typed [`ProtocolError`]s for malformed/oversized/
//!   truncated input;
//! - **[`server::WireServer`]** — a blocking `std::net` server wrapping
//!   any [`MayaService`]: pipelined request ids, the service's bounded
//!   admission queue mapped to typed `overloaded` error frames, the
//!   full job vocabulary (per-job deadlines, `Progress` streaming for
//!   long searches, cooperative `Cancel`, `Expired` shedding), and
//!   graceful shutdown that drains in-flight requests;
//! - **[`client::WireClient`]** — a typed client with connection reuse
//!   and pipelining whose [`client::WireJob`] handle mirrors the
//!   in-process `maya_serve::JobHandle` (poll / cancel / progress /
//!   wait); responses carry the full per-request
//!   [`maya_serve::Telemetry`] and payloads byte-identical to a direct
//!   in-process `MayaService` call.
//!
//! Both ends speak the service's own types: [`WireResponse`] is
//! `maya_serve::Response` and [`WireJobOutcome`] is
//! `maya_serve::JobOutcome`, each with a [`RemoteError`] in its error
//! slots ([`message`]). [`RemoteErrorKind::code`] is the one table of
//! error codes on the wire.
//!
//! ```no_run
//! use std::sync::Arc;
//! use maya::EmulationSpec;
//! use maya_hw::ClusterSpec;
//! use maya_serve::{MayaService, Request};
//! use maya_torchlet::TrainingJob;
//! use maya_wire::{WireClient, WireServer};
//!
//! let service = Arc::new(
//!     MayaService::builder()
//!         .target("h100-1", EmulationSpec::new(ClusterSpec::h100(1, 1)))
//!         .build()
//!         .unwrap(),
//! );
//! let server = WireServer::bind("127.0.0.1:0", service).unwrap();
//! let client = WireClient::connect(server.local_addr()).unwrap();
//! let response = client
//!     .call(&Request::Predict {
//!         target: "h100-1".into(),
//!         jobs: vec![TrainingJob::smoke()],
//!     })
//!     .unwrap();
//! assert!(response.predictions().unwrap()[0].is_ok());
//! ```
//!
//! The request vocabulary is re-exported, so a pure client binary can
//! depend on `maya-wire` alone and still build jobs and spaces:
//! [`Request`], [`TrainingJob`], [`ModelSpec`], [`ParallelConfig`],
//! [`ConfigSpace`], [`AlgorithmKind`].

pub mod client;
pub mod error;
pub mod frame;
pub mod message;
pub mod server;

pub use client::{Backoff, WireClient, WireJob};
pub use error::{RemoteError, RemoteErrorKind, WireError};
pub use frame::{Frame, FrameKind, ProtocolError, DEFAULT_MAX_FRAME_LEN, MIN_VERSION, VERSION};
pub use message::{decode_submission, WireJobOutcome, WirePayload, WireResponse};
pub use server::{WireServer, WireServerStats};

// Client-side request-construction vocabulary, re-exported so remote
// callers need only this crate.
pub use maya_search::{AlgorithmKind, ConfigSpace};
pub use maya_serve::{
    JobOptions, JobState, MayaService, MeasureOutcome, ObsConfig, ObsSnapshot, Priority, Request,
    SearchProgress, SpanNode, Telemetry, TenantStats,
};
pub use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
