//! The service's response types, as the wire carries them.
//!
//! There is no second copy of the vocabulary: [`WireResponse`],
//! [`WirePayload`] and [`WireJobOutcome`] are `maya_serve`'s own
//! generic [`Response`], [`Payload`] and [`JobOutcome`] with a
//! [`RemoteError`] in each error slot. A service-side response holds
//! real [`maya::MayaError`] trees, which cannot cross a process
//! boundary; the server maps each to its typed remote error once
//! ([`to_wire`]) and encodes that. Client and server therefore encode
//! and decode the same type with the same codec, and a decoded response
//! re-encodes to the server's bytes verbatim (property-tested), which is
//! what makes "byte-identical to a direct `MayaService` call" checkable
//! end to end.

use serde::{compact, Deserialize, Serialize};

use maya_serve::{JobOptions, JobOutcome, Payload, Request, Response};

use crate::error::RemoteError;
use crate::frame::FrameKind;

/// The result body of a [`WireResponse`].
pub type WirePayload = Payload<RemoteError>;

/// A served request as a wire client sees it: payload plus telemetry,
/// with typed remote errors in the error slots.
pub type WireResponse = Response<RemoteError>;

/// A job's terminal verdict as a wire client sees it.
///
/// `Done` and `Cancelled` travel in a `Response` frame (distinguished
/// by a leading tag), `Expired` in its own [`FrameKind::Expired`]
/// frame. The optional responses of the non-`Done` verdicts carry the
/// deterministic committed prefix a search produced before it was
/// stopped.
pub type WireJobOutcome = JobOutcome<WireResponse>;

/// Decodes a request frame body: the leading [`JobOptions`] envelope
/// followed by the [`Request`].
pub fn decode_submission(body: &str) -> Result<(Request, JobOptions), compact::Error> {
    let (opts, req) = serde::from_str(body)?;
    Ok((req, opts))
}

/// The wire form of a service response: every error slot mapped to its
/// typed [`RemoteError`]. The server encodes what this returns.
pub fn to_wire(response: Response) -> WireResponse {
    response.map_err(|e| RemoteError::from(&e))
}

/// Encodes a terminal verdict as its (frame kind, body) wire form:
/// `Done` carries its response bare after a `done` tag, `Cancelled` an
/// `Option` after a `cancelled` tag, `Expired` an untagged `Option` in
/// its own frame kind.
pub fn outcome_frame(outcome: &WireJobOutcome) -> (FrameKind, String) {
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
    (kind, w.finish())
}

/// Decodes the body of a `Response` frame (`done` / `cancelled`).
pub fn decode_response_frame(body: &str) -> Result<WireJobOutcome, compact::Error> {
    let mut r = compact::Reader::new(body);
    let out = match r.raw_token()? {
        "done" => JobOutcome::Done(Deserialize::deserialize(&mut r)?),
        "cancelled" => JobOutcome::Cancelled(Deserialize::deserialize(&mut r)?),
        t => return Err(compact::Error::parse(t, "job outcome tag (done|cancelled)")),
    };
    r.end()?;
    Ok(out)
}

/// Decodes the body of an [`FrameKind::Expired`] frame.
pub fn decode_expired_frame(body: &str) -> Result<WireJobOutcome, compact::Error> {
    serde::from_str(body).map(JobOutcome::Expired)
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
        let bytes = serde::to_string(&to_wire(resp));
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
        let wire: WireResponse = serde::from_str(&serde::to_string(&to_wire(resp))).unwrap();
        let err = wire.predictions().unwrap()[0].as_ref().unwrap_err();
        assert_eq!(err.kind, crate::RemoteErrorKind::WorldMismatch);
        assert!(err.message.contains("4 ranks"), "{}", err.message);
    }
}
