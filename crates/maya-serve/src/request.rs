//! Typed requests and responses.
//!
//! Every request names a *cluster target* — a string the service maps
//! to an [`maya::EmulationSpec`] at registration time — and every
//! response carries [`Telemetry`]: how long the request sat in the
//! admission queue, how long it executed, what the engine's memo cache
//! did for it, and the summed pipeline stage timings.

use std::time::Duration;

use maya::{MayaError, Prediction, StageTimings};
use maya_estimator::CacheStats;
use maya_hw::Measurement;
use maya_obs::SpanNode;
use maya_search::{AlgorithmKind, ConfigSpace, SearchResult};
use maya_torchlet::TrainingJob;

/// A client request against a named cluster target.
#[derive(Debug)]
pub enum Request {
    /// Predict one or more training jobs end to end; results align
    /// positionally with `jobs`.
    Predict {
        /// Registered cluster target.
        target: String,
        /// Jobs to predict (batched across the engine's pool).
        jobs: Vec<TrainingJob>,
    },
    /// Run a configuration search over `space` for `template`.
    Search {
        /// Registered cluster target.
        target: String,
        /// Job template; the search replaces `parallel` per trial.
        template: TrainingJob,
        /// Knob space to explore.
        space: ConfigSpace,
        /// Search algorithm.
        algorithm: AlgorithmKind,
        /// Trial budget.
        budget: usize,
        /// Optimizer seed.
        seed: u64,
    },
    /// Run the job on the ground-truth testbed.
    Measure {
        /// Registered cluster target.
        target: String,
        /// Job to measure.
        job: TrainingJob,
    },
}

impl Request {
    /// The cluster target this request is routed to.
    pub fn target(&self) -> &str {
        match self {
            Request::Predict { target, .. }
            | Request::Search { target, .. }
            | Request::Measure { target, .. } => target,
        }
    }

    /// Short kind label for logs and telemetry.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Predict { .. } => "predict",
            Request::Search { .. } => "search",
            Request::Measure { .. } => "measure",
        }
    }
}

/// Outcome of a `Measure` request's testbed run.
#[derive(Clone, Debug)]
pub enum MeasureOutcome {
    /// The job ran; here is the ground-truth measurement.
    Completed(Measurement),
    /// The job over-allocated on real (stand-in) hardware.
    OutOfMemory {
        /// Peak bytes held when the allocation failed.
        peak_bytes: u64,
    },
}

/// The result body of a [`Response`], by request kind. `E` fills the
/// error slots: the service's own [`MayaError`], or whatever a
/// transport carries in its place.
#[derive(Debug)]
pub enum Payload<E = MayaError> {
    /// Per-job outcomes of a `Predict`, positionally aligned with the
    /// request's `jobs`.
    Predict(Vec<Result<Prediction, E>>),
    /// Outcome of a `Search`.
    Search(Box<SearchResult>),
    /// Outcome of a `Measure`.
    Measure(Result<MeasureOutcome, E>),
}

/// Per-request service telemetry.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    /// Time spent in the admission queue before a worker picked the
    /// request up.
    pub queue_wait: Duration,
    /// Execution wall time on the worker.
    pub service_time: Duration,
    /// Index of the pool worker that served the request.
    pub worker: usize,
    /// The engine's cumulative memo-cache counters after this request.
    pub cache: CacheStats,
    /// Counters attributable to this request (cumulative delta across
    /// its execution; approximate when concurrent requests share the
    /// engine).
    pub cache_delta: CacheStats,
    /// Summed pipeline stage timings over the request's successful
    /// predictions (zero for `Search`, whose per-trial timings are not
    /// individually surfaced).
    pub stages: StageTimings,
    /// The job-lifecycle span tree (`job` → `queued`/`execute` →
    /// stages), built when the service's [`maya_obs::ObsConfig`] is
    /// on; empty otherwise.
    /// At most one root. The wire server appends a `reply` span before
    /// recording the tree in its flight ring; the wire carries the
    /// tree to clients.
    pub spans: Vec<SpanNode>,
}

/// A served request: payload plus telemetry, with error slots of type
/// `E` (see [`Payload`]).
#[derive(Debug)]
pub struct Response<E = MayaError> {
    /// The cluster target that served the request.
    pub target: String,
    /// Service telemetry.
    pub telemetry: Telemetry,
    /// The result body.
    pub payload: Payload<E>,
}

impl<E> Response<E> {
    /// Request kind label ("predict" / "search" / "measure").
    pub fn kind(&self) -> &'static str {
        match self.payload {
            Payload::Predict(_) => "predict",
            Payload::Search(_) => "search",
            Payload::Measure(_) => "measure",
        }
    }

    /// The predict results, when this response answers a `Predict`.
    pub fn predictions(&self) -> Option<&[Result<Prediction, E>]> {
        match &self.payload {
            Payload::Predict(p) => Some(p),
            _ => None,
        }
    }

    /// The search result, when this response answers a `Search`.
    pub fn search(&self) -> Option<&SearchResult> {
        match &self.payload {
            Payload::Search(s) => Some(s),
            _ => None,
        }
    }

    /// The measurement outcome, when this response answers a `Measure`.
    pub fn measurement(&self) -> Option<&Result<MeasureOutcome, E>> {
        match &self.payload {
            Payload::Measure(m) => Some(m),
            _ => None,
        }
    }

    /// The same response with every error slot mapped through `f`.
    pub fn map_err<F>(self, mut f: impl FnMut(E) -> F) -> Response<F> {
        let payload = match self.payload {
            Payload::Predict(results) => {
                Payload::Predict(results.into_iter().map(|r| r.map_err(&mut f)).collect())
            }
            Payload::Search(s) => Payload::Search(s),
            Payload::Measure(m) => Payload::Measure(m.map_err(f)),
        };
        Response {
            target: self.target,
            telemetry: self.telemetry,
            payload,
        }
    }
}
