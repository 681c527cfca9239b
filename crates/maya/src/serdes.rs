//! Wire codecs for the prediction vocabulary, over the vendored serde's
//! compact token format.
//!
//! [`Prediction`] (and everything inside it — [`PredictOutcome`],
//! [`maya_sim::SimReport`], [`StageTimings`]) round-trips exactly, so a
//! `maya-wire` client receives predictions byte-identical to a direct
//! engine call. [`crate::MayaError`] has no codec: its inner error
//! trees hold things a remote process cannot reconstruct
//! (`std::io::Error`, borrowed diagnostics), so `maya-wire` carries each
//! as its typed remote error — a kind code from the one code table it
//! owns, plus the rendered message.

use crate::pipeline::{PredictOutcome, Prediction, StageTimings};

serde::codec! {
    struct StageTimings { emulation, collation, estimation, simulation }

    enum PredictOutcome: "predict outcome" {
        "completed" => Completed(report),
        "oom" => OutOfMemory { rank, peak_attempted },
    }

    struct Prediction { outcome, timings, workers_emulated, workers_simulated, trace_events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_sim::SimReport;
    use maya_trace::SimTime;
    use std::time::Duration;

    fn prediction() -> Prediction {
        Prediction {
            outcome: PredictOutcome::Completed(SimReport {
                total_time: SimTime::from_ms(42.0),
                rank_end_times: vec![SimTime::from_ms(41.0), SimTime::from_ms(42.0)],
                comm_time: SimTime::from_ms(10.0),
                compute_time: SimTime::from_ms(30.0),
                host_time: SimTime::from_ms(2.0),
                peak_mem_bytes: 1 << 34,
                events_processed: 12345,
            }),
            timings: StageTimings {
                emulation: Duration::from_micros(1500),
                collation: Duration::from_nanos(999_999_999),
                estimation: Duration::from_millis(2),
                simulation: Duration::from_secs(1),
            },
            workers_emulated: 8,
            workers_simulated: 2,
            trace_events: 4096,
        }
    }

    #[test]
    fn predictions_round_trip_exactly() {
        for p in [
            prediction(),
            Prediction {
                outcome: PredictOutcome::OutOfMemory {
                    rank: 3,
                    peak_attempted: u64::MAX,
                },
                ..prediction()
            },
        ] {
            let text = serde::to_string(&p);
            let back: Prediction = serde::from_str(&text).expect("decode");
            assert_eq!(serde::to_string(&back), text, "re-encode mismatch");
        }
    }
}
