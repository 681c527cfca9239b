//! Wire codecs for the service vocabulary, over the vendored serde's
//! compact token format.
//!
//! These are what `maya-wire` frames carry: a [`Request`] round-trips
//! exactly (a remote client's job lands on the service bit-for-bit),
//! and a [`Response`] serializes completely — target, [`Telemetry`],
//! and the payload with every prediction/search/measure result.
//!
//! Error slots are serialize-only. [`maya::MayaError`] and
//! [`ServeError`] wrap things a remote process cannot reconstruct
//! (`std::io::Error`, estimator internals), so the wire carries a
//! stable *kind code* plus the rendered message for each (the same
//! scheme as `maya::serdes::error_code`); `maya-wire` decodes them into
//! its own typed remote-error value rather than a rebuilt original.
//! The response *encoding* is nevertheless total: every variant of
//! every payload has a defined wire form.

use serde::{compact, Serialize};

use crate::error::ServeError;
use crate::job::{JobOptions, Priority, SearchProgress};
use crate::request::{MeasureOutcome, Payload, Request, Response, Telemetry};

serde::codec! {
    enum Priority: "priority (high|normal|batch)" {
        "high" => High,
        "normal" => Normal,
        "batch" => Batch,
    }

    struct JobOptions { deadline, priority, tenant }

    struct SearchProgress { trials, committed, best, cache_delta }

    enum Request: "request kind" {
        "predict" => Predict { target, jobs },
        "search" => Search { target, template, space, algorithm, budget, seed },
        "measure" => Measure { target, job },
    }

    struct Telemetry { queue_wait, service_time, worker, cache, cache_delta, stages, spans }

    enum MeasureOutcome: "measure outcome" {
        "completed" => Completed(measurement),
        "oom" => OutOfMemory { peak_bytes },
    }
}

// Hand-written because it is serialize-only (see module docs): the
// error slots encode as kind code + message via `maya::serdes`, and
// `maya-wire` decodes the same bytes as its own `WirePayload`.
impl Serialize for Payload {
    fn serialize(&self, w: &mut compact::Writer) {
        match self {
            Payload::Predict(results) => {
                w.tag("predict");
                results.serialize(w);
            }
            Payload::Search(result) => {
                w.tag("search");
                result.serialize(w);
            }
            Payload::Measure(outcome) => {
                w.tag("measure");
                outcome.serialize(w);
            }
        }
    }
}

// Hand-written because it is serialize-only, and `kind` is implied
// by the payload tag rather than written.
impl Serialize for Response {
    fn serialize(&self, w: &mut compact::Writer) {
        self.target.serialize(w);
        self.telemetry.serialize(w);
        self.payload.serialize(w);
    }
}

/// Stable wire code naming a [`ServeError`] variant; the shared
/// error-code namespace with `maya::serdes::error_code` (the codes are
/// disjoint). Part of the wire format.
pub fn error_code(e: &ServeError) -> &'static str {
    match e {
        ServeError::UnknownTarget(_) => "unknown_target",
        ServeError::Overloaded => "overloaded",
        ServeError::QuotaExceeded { .. } => "quota_exceeded",
        ServeError::Stopped => "stopped",
        ServeError::DuplicateTarget(_) => "duplicate_target",
        ServeError::NoTargets => "no_targets",
        ServeError::Cancelled => "cancelled",
        ServeError::Expired => "expired",
        ServeError::CustomEstimatorSpansClusters => "custom_estimator_spans_clusters",
        ServeError::Snapshot(_) => "snapshot",
    }
}

// Hand-written because it is serialize-only (see module docs): a
// stable kind code plus the rendered message.
impl Serialize for ServeError {
    fn serialize(&self, w: &mut compact::Writer) {
        w.tag(error_code(self));
        w.str_token(&self.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_search::{AlgorithmKind, ConfigSpace};
    use maya_torchlet::TrainingJob;

    fn reencodes_request(req: &Request) {
        let text = serde::to_string(req);
        let back: Request = serde::from_str(&text).expect("decode");
        assert_eq!(serde::to_string(&back), text, "re-encode mismatch");
        assert_eq!(back.target(), req.target());
        assert_eq!(back.kind(), req.kind());
    }

    #[test]
    fn requests_round_trip() {
        reencodes_request(&Request::Predict {
            target: "h100 quad/eu".into(),
            jobs: vec![TrainingJob::smoke(), TrainingJob::smoke()],
        });
        reencodes_request(&Request::Search {
            target: "a40".into(),
            template: TrainingJob::smoke(),
            space: ConfigSpace::default(),
            algorithm: AlgorithmKind::CmaEs,
            budget: 100,
            seed: 42,
        });
        reencodes_request(&Request::Measure {
            target: "t".into(),
            job: TrainingJob::smoke(),
        });
    }

    fn telemetry_fixture() -> Telemetry {
        use maya::StageTimings;
        use maya_estimator::CacheStats;
        use maya_obs::SpanNode;
        use std::time::Duration;
        Telemetry {
            queue_wait: Duration::from_micros(120),
            service_time: Duration::from_millis(7),
            worker: 3,
            cache: CacheStats {
                hits: 10,
                misses: 2,
                evictions: 1,
            },
            cache_delta: CacheStats {
                hits: 4,
                misses: 1,
                evictions: 0,
            },
            stages: StageTimings::default(),
            spans: vec![
                SpanNode::leaf("job", Duration::ZERO, Duration::from_micros(7_120)).with_child(
                    SpanNode::leaf("queued", Duration::ZERO, Duration::from_micros(120)),
                ),
            ],
        }
    }

    #[test]
    fn telemetry_round_trips() {
        let t = telemetry_fixture();
        let text = serde::to_string(&t);
        let back: Telemetry = serde::from_str(&text).unwrap();
        assert_eq!(back.cache, t.cache);
        assert_eq!(back.cache_delta, t.cache_delta);
        assert_eq!(back.queue_wait, t.queue_wait);
        assert_eq!(back.spans, t.spans);
        assert_eq!(serde::to_string(&back), text);
    }

    #[test]
    fn job_options_round_trip_with_qos_fields() {
        use crate::job::{JobOptions, Priority};
        use std::time::Duration;
        for priority in Priority::all() {
            let opts = JobOptions::new()
                .with_deadline(Duration::from_millis(125))
                .with_priority(priority)
                .with_tenant("tenant a/ü");
            let back: JobOptions = serde::from_str(&serde::to_string(&opts)).unwrap();
            assert_eq!(back, opts);
        }
        let anon = JobOptions::new();
        let back: JobOptions = serde::from_str(&serde::to_string(&anon)).unwrap();
        assert_eq!(back, anon);
    }

    #[test]
    fn serve_error_codes_are_stable() {
        let cases: Vec<(ServeError, &str)> = vec![
            (ServeError::UnknownTarget("x".into()), "unknown_target"),
            (ServeError::Overloaded, "overloaded"),
            (
                ServeError::QuotaExceeded {
                    tenant: "burst".into(),
                },
                "quota_exceeded",
            ),
            (ServeError::Stopped, "stopped"),
            (ServeError::DuplicateTarget("x".into()), "duplicate_target"),
            (ServeError::NoTargets, "no_targets"),
            (
                ServeError::CustomEstimatorSpansClusters,
                "custom_estimator_spans_clusters",
            ),
        ];
        for (e, code) in cases {
            assert_eq!(error_code(&e), code);
            let text = serde::to_string(&e);
            let mut r = compact::Reader::new(&text);
            assert_eq!(r.raw_token().unwrap(), code);
            let msg = r.str_token().unwrap();
            assert_eq!(msg, e.to_string());
            r.end().unwrap();
        }
    }
}
