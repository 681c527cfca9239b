//! The client-side view of a served response.
//!
//! A server encodes a `maya_serve::Response` straight onto the wire
//! (via its `Serialize` impl); the client decodes the same bytes into a
//! [`WireResponse`]. The two differ in exactly one way: error slots.
//! `Response` holds real [`maya::MayaError`] trees, which cannot cross
//! a process boundary, so the wire carries their kind code + message
//! and the client sees a typed [`RemoteError`] in each error slot.
//! Everything else — [`Telemetry`], [`maya::Prediction`]s,
//! [`maya_search::SearchResult`]s, [`MeasureOutcome`]s — round-trips
//! exactly, and [`WireResponse`]'s own `Serialize` re-produces the
//! server's bytes verbatim (property-tested), which is what makes
//! "byte-identical to a direct `MayaService` call" checkable end to
//! end.

use serde::{compact, Deserialize, Serialize};

use maya::Prediction;
use maya_search::SearchResult;
use maya_serve::{JobOptions, JobState, MeasureOutcome, Request, Telemetry, Verdict};

use crate::error::RemoteError;
use crate::frame::FrameKind;

/// Decodes a request frame body: the leading [`JobOptions`] envelope
/// followed by the [`Request`].
pub fn decode_submission(body: &str) -> Result<(Request, JobOptions), compact::Error> {
    let (opts, req) = serde::from_str(body)?;
    Ok((req, opts))
}

/// The result body of a [`WireResponse`], mirroring
/// `maya_serve::Payload` with wire-safe error slots.
#[derive(Debug)]
pub enum WirePayload {
    /// Per-job outcomes of a `Predict`, positionally aligned with the
    /// request's `jobs`.
    Predict(Vec<Result<Prediction, RemoteError>>),
    /// Outcome of a `Search`.
    Search(Box<SearchResult>),
    /// Outcome of a `Measure`.
    Measure(Result<MeasureOutcome, RemoteError>),
}

/// A served request as seen by a wire client: payload plus telemetry.
#[derive(Debug)]
pub struct WireResponse {
    /// The cluster target that served the request.
    pub target: String,
    /// Service telemetry (queue wait, cache deltas, stage timings),
    /// measured on the server.
    pub telemetry: Telemetry,
    /// The result body.
    pub payload: WirePayload,
}

impl WireResponse {
    /// Request kind label ("predict" / "search" / "measure").
    pub fn kind(&self) -> &'static str {
        match self.payload {
            WirePayload::Predict(_) => "predict",
            WirePayload::Search(_) => "search",
            WirePayload::Measure(_) => "measure",
        }
    }

    /// The predict results, when this response answers a `Predict`.
    pub fn predictions(&self) -> Option<&[Result<Prediction, RemoteError>]> {
        match &self.payload {
            WirePayload::Predict(p) => Some(p),
            _ => None,
        }
    }

    /// The search result, when this response answers a `Search`.
    pub fn search(&self) -> Option<&SearchResult> {
        match &self.payload {
            WirePayload::Search(s) => Some(s),
            _ => None,
        }
    }

    /// The measurement outcome, when this response answers a `Measure`.
    pub fn measurement(&self) -> Option<&Result<MeasureOutcome, RemoteError>> {
        match &self.payload {
            WirePayload::Measure(m) => Some(m),
            _ => None,
        }
    }

    /// Renders the response as a human-readable JSON object (riding on
    /// `Prediction::to_json` / `SearchResult::to_json`) so wire clients
    /// can dump results without a JSON dependency.
    pub fn to_json(&self) -> String {
        use maya_trace::json::json_string;
        use std::fmt::Write as _;
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"target\":{},\"kind\":{},\"telemetry\":{{\"queue_wait_us\":{},\
             \"service_time_us\":{},\"worker\":{},\"cache\":{{\"hits\":{},\"misses\":{},\
             \"evictions\":{}}},\"cache_delta\":{{\"hits\":{},\"misses\":{},\
             \"evictions\":{}}}}},\"payload\":",
            json_string(&self.target),
            json_string(self.kind()),
            self.telemetry.queue_wait.as_micros(),
            self.telemetry.service_time.as_micros(),
            self.telemetry.worker,
            self.telemetry.cache.hits,
            self.telemetry.cache.misses,
            self.telemetry.cache.evictions,
            self.telemetry.cache_delta.hits,
            self.telemetry.cache_delta.misses,
            self.telemetry.cache_delta.evictions,
        );
        fn error_json(e: &RemoteError) -> String {
            format!(
                "{{\"error\":{},\"message\":{}}}",
                maya_trace::json::json_string(e.kind.code()),
                maya_trace::json::json_string(&e.message)
            )
        }
        match &self.payload {
            WirePayload::Predict(results) => {
                out.push('[');
                for (i, r) in results.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    match r {
                        Ok(p) => out.push_str(&p.to_json()),
                        Err(e) => out.push_str(&error_json(e)),
                    }
                }
                out.push(']');
            }
            WirePayload::Search(s) => out.push_str(&s.to_json()),
            WirePayload::Measure(m) => match m {
                Ok(MeasureOutcome::Completed(meas)) => {
                    let _ = write!(
                        out,
                        "{{\"iteration_time_ns\":{},\"comm_time_ns\":{},\
                         \"compute_time_ns\":{},\"peak_mem_bytes\":{}}}",
                        meas.iteration_time.as_ns(),
                        meas.comm_time.as_ns(),
                        meas.compute_time.as_ns(),
                        meas.peak_mem_bytes,
                    );
                }
                Ok(MeasureOutcome::OutOfMemory { peak_bytes }) => {
                    let _ = write!(out, "{{\"oom\":{{\"peak_bytes\":{peak_bytes}}}}}");
                }
                Err(e) => out.push_str(&error_json(e)),
            },
        }
        out.push('}');
        out
    }
}

/// Encodes a terminal verdict as its (frame kind, body) wire form
/// (layout: see [`WireJobOutcome`]; `Done` carries its response bare,
/// the others an `Option`). The one encoder for both views — the
/// server's `JobOutcome` over `maya_serve::Response` and the client's
/// [`WireJobOutcome`] over the byte-identical [`WireResponse`] — so
/// the golden strings pinning the latter pin what the server writes.
pub(crate) fn outcome_frame<R: Serialize>(
    state: JobState,
    response: Option<&R>,
) -> (FrameKind, String) {
    let mut w = compact::Writer::new();
    let kind = match state {
        JobState::Expired => FrameKind::Expired,
        JobState::Done => {
            w.tag("done");
            FrameKind::Response
        }
        _ => {
            w.tag("cancelled");
            FrameKind::Response
        }
    };
    match (state, response) {
        (JobState::Done, Some(resp)) => resp.serialize(&mut w),
        (_, resp) => resp.serialize(&mut w),
    }
    (kind, w.finish())
}

/// The client-side view of a job's terminal verdict — the wire twin of
/// `maya_serve::JobOutcome`.
///
/// `Done` and `Cancelled` travel in a `Response` frame (distinguished
/// by a leading tag), `Expired` in its own
/// [`FrameKind::Expired`] frame. The optional responses of the
/// non-`Done` verdicts carry the deterministic committed prefix a
/// search produced before it was stopped.
#[derive(Debug)]
pub enum WireJobOutcome {
    /// Ran to completion.
    Done(WireResponse),
    /// Cancelled; `Some` carries a mid-run search's committed prefix.
    Cancelled(Option<WireResponse>),
    /// Deadline elapsed; `None` = shed while queued, `Some` = stopped
    /// at a wave boundary with the committed prefix.
    Expired(Option<WireResponse>),
}

impl WireJobOutcome {
    /// The terminal [`JobState`] this verdict lands the job in.
    pub fn state(&self) -> JobState {
        match self {
            WireJobOutcome::Done(_) => JobState::Done,
            WireJobOutcome::Cancelled(_) => JobState::Cancelled,
            WireJobOutcome::Expired(_) => JobState::Expired,
        }
    }

    /// The response, for verdicts that carry one.
    pub fn response(&self) -> Option<&WireResponse> {
        match self {
            WireJobOutcome::Done(r) => Some(r),
            WireJobOutcome::Cancelled(r) | WireJobOutcome::Expired(r) => r.as_ref(),
        }
    }

    /// Consumes the verdict, yielding the response if it carries one.
    pub fn into_response(self) -> Option<WireResponse> {
        match self {
            WireJobOutcome::Done(r) => Some(r),
            WireJobOutcome::Cancelled(r) | WireJobOutcome::Expired(r) => r,
        }
    }

    /// Encodes the verdict as its (frame kind, body) wire form, with
    /// the function the server encodes a `maya_serve::JobOutcome` by.
    pub fn encode(&self) -> (FrameKind, String) {
        outcome_frame(self.state(), self.response())
    }

    /// Decodes the body of a `Response` frame (`done` / `cancelled`).
    pub fn decode_response_frame(body: &str) -> Result<Self, compact::Error> {
        let mut r = compact::Reader::new(body);
        let out = match r.raw_token()? {
            "done" => WireJobOutcome::Done(Deserialize::deserialize(&mut r)?),
            "cancelled" => WireJobOutcome::Cancelled(Deserialize::deserialize(&mut r)?),
            t => return Err(compact::Error::parse(t, "job outcome tag (done|cancelled)")),
        };
        r.end()?;
        Ok(out)
    }

    /// Decodes the body of an [`FrameKind::Expired`] frame.
    pub fn decode_expired_frame(body: &str) -> Result<Self, compact::Error> {
        serde::from_str(body).map(WireJobOutcome::Expired)
    }
}

impl Verdict for WireJobOutcome {
    fn state(&self) -> JobState {
        WireJobOutcome::state(self)
    }
}

serde::codec! {
    enum WirePayload: "payload kind" {
        "predict" => Predict(results),
        "search" => Search(result),
        "measure" => Measure(outcome),
    }

    struct WireResponse { target, telemetry, payload }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_serve::{MayaService, Request};

    #[test]
    fn server_encoding_decodes_as_wire_response_and_reencodes_identically() {
        use maya::EmulationSpec;
        use maya_hw::ClusterSpec;
        use maya_torchlet::TrainingJob;

        let service = MayaService::builder()
            .target("h100-1", EmulationSpec::new(ClusterSpec::h100(1, 1)))
            .build()
            .unwrap();
        let resp = service
            .call(Request::Predict {
                target: "h100-1".into(),
                jobs: vec![TrainingJob::smoke()],
            })
            .unwrap();
        let bytes = serde::to_string(&resp);
        let wire: WireResponse = serde::from_str(&bytes).expect("decode server bytes");
        assert_eq!(wire.target, "h100-1");
        assert_eq!(wire.kind(), "predict");
        assert_eq!(
            serde::to_string(&wire),
            bytes,
            "client re-encoding must reproduce the server bytes"
        );
        let direct = wire.predictions().unwrap()[0].as_ref().unwrap();
        assert!(direct.report().is_some());
    }

    #[test]
    fn to_json_is_balanced_and_carries_the_result() {
        use maya::EmulationSpec;
        use maya_hw::ClusterSpec;
        use maya_torchlet::TrainingJob;

        let service = MayaService::builder()
            .target("h100-1", EmulationSpec::new(ClusterSpec::h100(1, 1)))
            .build()
            .unwrap();
        let resp = service
            .call(Request::Predict {
                target: "h100-1".into(),
                jobs: vec![TrainingJob::smoke()],
            })
            .unwrap();
        let wire: WireResponse = serde::from_str(&serde::to_string(&resp)).unwrap();
        let json = wire.to_json();
        for key in [
            "\"target\":\"h100-1\"",
            "\"kind\":\"predict\"",
            "\"total_time_ns\":",
            "\"cache_delta\"",
            "\"evictions\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "unbalanced JSON: {json}");
    }

    #[test]
    fn error_slots_decode_as_typed_remote_errors() {
        use maya::EmulationSpec;
        use maya_hw::ClusterSpec;
        use maya_torchlet::TrainingJob;

        let service = MayaService::builder()
            .target("h100-1", EmulationSpec::new(ClusterSpec::h100(1, 1)))
            .build()
            .unwrap();
        let mut bad = TrainingJob::smoke();
        bad.world = 4; // cluster has 1 GPU
        let resp = service
            .call(Request::Predict {
                target: "h100-1".into(),
                jobs: vec![bad],
            })
            .unwrap();
        let wire: WireResponse = serde::from_str(&serde::to_string(&resp)).unwrap();
        let err = wire.predictions().unwrap()[0].as_ref().unwrap_err();
        assert_eq!(err.kind, crate::RemoteErrorKind::WorldMismatch);
        assert!(err.message.contains("4 ranks"), "{}", err.message);
    }
}
