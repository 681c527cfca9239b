//! Wire codecs for the service vocabulary, over the vendored serde's
//! compact token format.
//!
//! These are what `maya-wire` frames carry: a [`Request`] round-trips
//! exactly (a remote client's job lands on the service bit-for-bit),
//! and so does a [`Response`] — target, [`Telemetry`], and the payload
//! with every prediction/search/measure result.
//!
//! [`Payload`] and [`Response`] are generic over their error slots and
//! encode whenever the slot type does. [`maya::MayaError`] does not: it
//! wraps things a remote process cannot reconstruct (`std::io::Error`,
//! estimator internals). `maya-wire` maps each slot to its typed remote
//! error — a kind code plus the rendered message, from the one code
//! table it owns — and encodes and decodes that same response type.

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

    enum<E> Payload<E>: "payload kind" {
        "predict" => Predict(results),
        "search" => Search(result),
        "measure" => Measure(outcome),
    }

    // The kind is the payload's tag, not a field of its own.
    struct<E> Response<E> { target, telemetry, payload }
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
}
