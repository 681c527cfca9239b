//! Property tests: encode→decode == identity for every wire frame
//! type, including error and telemetry payloads.
//!
//! Values are generated from a seeded splitmix64 stream (the vendored
//! proptest supplies the seeds), so every case is reproducible. Types
//! without `PartialEq` are compared through their canonical encoding:
//! decode must re-encode to the same byte string, which is exactly the
//! property the wire needs (a relay cannot corrupt a frame).

use proptest::prelude::*;

use maya::{PredictOutcome, Prediction, StageTimings};
use maya_hw::Measurement;
use maya_search::{
    AlgorithmKind, ConfigSpace, Provenance, SearchResult, SearchStats, TrialOutcome, TrialRecord,
};
use maya_serve::{JobOptions, MeasureOutcome, Priority, Request, SearchProgress, Telemetry};
use maya_sim::SimReport;
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::{Dtype, KernelKind, SimTime};
use maya_wire::message::{decode_expired_frame, decode_response_frame, outcome_frame};
use maya_wire::{
    frame, RemoteError, RemoteErrorKind, WireJobOutcome, WirePayload, WireResponse,
    DEFAULT_MAX_FRAME_LEN,
};
use std::time::Duration;

/// Deterministic value stream for structured generation.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        // splitmix64
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn u32(&mut self, bound: u32) -> u32 {
        (self.next() % u64::from(bound.max(1))) as u32
    }

    fn pick<T: Copy>(&mut self, choices: &[T]) -> T {
        choices[(self.next() as usize) % choices.len()]
    }

    fn bool(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn f64(&mut self) -> f64 {
        f64::from_bits(self.next()) // any bit pattern, NaN included
    }

    fn duration(&mut self) -> Duration {
        Duration::new(self.next() >> 20, self.u32(1_000_000_000))
    }

    fn string(&mut self) -> String {
        let len = (self.next() % 24) as usize;
        (0..len)
            .map(|_| {
                // Mix printable ASCII with the characters the compact
                // format must escape.
                self.pick(&[
                    'a', 'Z', '0', '%', ' ', '\t', '\n', '\r', '/', 'ü', '→', ';', 'e',
                ])
            })
            .collect()
    }

    fn sim_time(&mut self) -> SimTime {
        SimTime(self.next())
    }

    fn dtype(&mut self) -> Dtype {
        self.pick(&[
            Dtype::Fp32,
            Dtype::Fp16,
            Dtype::Bf16,
            Dtype::Tf32,
            Dtype::Int64,
            Dtype::Int32,
            Dtype::Int8,
        ])
    }

    fn job(&mut self) -> TrainingJob {
        let model = match self.next() % 7 {
            0 => ModelSpec::gpt3_125m(),
            1 => ModelSpec::gpt3_2_7b(),
            2 => ModelSpec::llama2_7b(),
            3 => ModelSpec::bert_large(),
            4 => ModelSpec::vit_large(),
            5 => ModelSpec::t5_large(),
            _ => ModelSpec::resnet152(),
        };
        let flavor = match self.next() % 4 {
            0 => FrameworkFlavor::Megatron,
            1 => FrameworkFlavor::DeepSpeedZero {
                stage: 1 + self.u32(3) as u8,
                activation_offload: self.bool(),
            },
            2 => FrameworkFlavor::Fsdp,
            _ => FrameworkFlavor::Ddp,
        };
        TrainingJob {
            model,
            parallel: self.parallel(),
            flavor,
            compile: self.bool(),
            global_batch: 1 + self.u32(4096),
            world: 1 + self.u32(512),
            gpus_per_node: 1 + self.u32(8),
            precision: self.dtype(),
            iterations: 1 + self.u32(4),
        }
    }

    fn parallel(&mut self) -> ParallelConfig {
        ParallelConfig {
            tp: 1 << self.u32(4),
            pp: 1 << self.u32(4),
            microbatch_multiplier: 1 + self.u32(8),
            virtual_stages: 1 + self.u32(4),
            activation_recompute: self.bool(),
            sequence_parallel: self.bool(),
            distributed_optimizer: self.bool(),
        }
    }

    fn trial_outcome(&mut self) -> TrialOutcome {
        match self.next() % 3 {
            0 => TrialOutcome::Invalid,
            1 => TrialOutcome::Oom,
            _ => TrialOutcome::Completed {
                iteration_time: self.sim_time(),
                mfu: self.f64(),
                cost: self.f64(),
            },
        }
    }

    fn sim_report(&mut self) -> SimReport {
        let ranks = (self.next() % 5) as usize;
        SimReport {
            total_time: self.sim_time(),
            rank_end_times: (0..ranks).map(|_| self.sim_time()).collect(),
            comm_time: self.sim_time(),
            compute_time: self.sim_time(),
            host_time: self.sim_time(),
            peak_mem_bytes: self.next(),
            events_processed: self.next(),
        }
    }

    fn prediction(&mut self) -> Prediction {
        let outcome = if self.bool() {
            PredictOutcome::Completed(self.sim_report())
        } else {
            PredictOutcome::OutOfMemory {
                rank: self.u32(1 << 16),
                peak_attempted: self.next(),
            }
        };
        Prediction {
            outcome,
            timings: StageTimings {
                emulation: self.duration(),
                collation: self.duration(),
                estimation: self.duration(),
                simulation: self.duration(),
            },
            workers_emulated: (self.next() % 4096) as usize,
            workers_simulated: (self.next() % 4096) as usize,
            trace_events: (self.next() % (1 << 32)) as usize,
        }
    }

    fn remote_error(&mut self) -> RemoteError {
        RemoteError {
            kind: self.pick(&RemoteErrorKind::all()),
            message: self.string(),
        }
    }

    /// A span tree up to `depth` levels deep (0 = leaf), with names
    /// exercising the compact format's escaping.
    fn span_node(&mut self, depth: u32) -> maya_serve::SpanNode {
        let children = if depth == 0 {
            Vec::new()
        } else {
            (0..(self.next() % 3))
                .map(|_| self.span_node(depth - 1))
                .collect()
        };
        maya_serve::SpanNode {
            name: self.string(),
            start: self.duration(),
            duration: self.duration(),
            children,
        }
    }

    fn telemetry(&mut self) -> Telemetry {
        let spans = if self.bool() {
            vec![self.span_node(2)]
        } else {
            Vec::new()
        };
        Telemetry {
            queue_wait: self.duration(),
            service_time: self.duration(),
            worker: (self.next() % 64) as usize,
            cache: maya_estimator::CacheStats {
                hits: self.next(),
                misses: self.next(),
                evictions: self.next(),
            },
            cache_delta: maya_estimator::CacheStats {
                hits: self.next(),
                misses: self.next(),
                evictions: self.next(),
            },
            stages: StageTimings {
                emulation: self.duration(),
                collation: self.duration(),
                estimation: self.duration(),
                simulation: self.duration(),
            },
            spans,
        }
    }

    fn search_result(&mut self) -> SearchResult {
        let trials = (self.next() % 6) as usize;
        SearchResult {
            best: if self.bool() {
                Some((self.parallel(), self.trial_outcome()))
            } else {
                None
            },
            trials: (0..trials)
                .map(|_| TrialRecord {
                    config: self.parallel(),
                    outcome: self.trial_outcome(),
                    provenance: self.pick(&[
                        Provenance::Executed,
                        Provenance::Cached,
                        Provenance::Skipped,
                    ]),
                })
                .collect(),
            stats: SearchStats {
                executed: (self.next() % 1000) as usize,
                cached: (self.next() % 1000) as usize,
                skipped: (self.next() % 1000) as usize,
                invalid: (self.next() % 1000) as usize,
            },
            wall: self.duration(),
            convergence: (0..(self.next() % 8)).map(|_| self.f64()).collect(),
        }
    }

    fn measurement(&mut self) -> Measurement {
        let samples = (self.next() % 4) as usize;
        Measurement {
            iteration_time: self.sim_time(),
            rank_end_times: (0..(self.next() % 4)).map(|_| self.sim_time()).collect(),
            comm_time: self.sim_time(),
            compute_time: self.sim_time(),
            peak_mem_bytes: self.next(),
            kernel_samples: (0..samples)
                .map(|_| {
                    (
                        KernelKind::Gemm {
                            m: self.next() % (1 << 16),
                            n: self.next() % (1 << 16),
                            k: self.next() % (1 << 16),
                            dtype: self.dtype(),
                        },
                        self.sim_time(),
                    )
                })
                .collect(),
        }
    }

    fn job_options(&mut self) -> JobOptions {
        let mut opts = JobOptions::new().with_priority(self.pick(&Priority::all()));
        if self.bool() {
            opts = opts.with_deadline(self.duration());
        }
        if self.bool() {
            opts = opts.with_tenant(self.string());
        }
        opts
    }

    fn request(&mut self) -> Request {
        match self.next() % 3 {
            0 => Request::Predict {
                target: self.string(),
                jobs: (0..(self.next() % 4)).map(|_| self.job()).collect(),
            },
            1 => Request::Search {
                target: self.string(),
                template: self.job(),
                space: ConfigSpace {
                    tp: vec![1, self.u32(16).max(1)],
                    pp: vec![1 + self.u32(8)],
                    microbatch_multiplier: vec![1, 2, self.u32(8).max(1)],
                    virtual_stages: vec![1],
                    activation_recompute: vec![self.bool()],
                    sequence_parallel: vec![false, true],
                    distributed_optimizer: vec![self.bool()],
                },
                algorithm: self.pick(&AlgorithmKind::all()),
                budget: (self.next() % 10_000) as usize,
                seed: self.next(),
            },
            _ => Request::Measure {
                target: self.string(),
                job: self.job(),
            },
        }
    }

    fn trial_record(&mut self) -> TrialRecord {
        TrialRecord {
            config: self.parallel(),
            outcome: self.trial_outcome(),
            provenance: self.pick(&[
                Provenance::Executed,
                Provenance::Cached,
                Provenance::Skipped,
            ]),
        }
    }

    fn search_progress(&mut self) -> SearchProgress {
        let trials = (self.next() % 5) as usize;
        SearchProgress {
            trials: (0..trials).map(|_| self.trial_record()).collect(),
            committed: (self.next() % 10_000) as usize,
            best: if self.bool() {
                Some((self.parallel(), self.trial_outcome()))
            } else {
                None
            },
            cache_delta: maya_estimator::CacheStats {
                hits: self.next(),
                misses: self.next(),
                evictions: self.next(),
            },
        }
    }

    fn job_outcome(&mut self) -> WireJobOutcome {
        match self.next() % 3 {
            0 => WireJobOutcome::Done(self.wire_response()),
            1 => WireJobOutcome::Cancelled(if self.bool() {
                Some(self.wire_response())
            } else {
                None
            }),
            _ => WireJobOutcome::Expired(if self.bool() {
                Some(self.wire_response())
            } else {
                None
            }),
        }
    }

    fn wire_response(&mut self) -> WireResponse {
        let payload = match self.next() % 3 {
            0 => WirePayload::Predict(
                (0..(self.next() % 4))
                    .map(|_| {
                        if self.bool() {
                            Ok(self.prediction())
                        } else {
                            Err(self.remote_error())
                        }
                    })
                    .collect(),
            ),
            1 => WirePayload::Search(Box::new(self.search_result())),
            _ => {
                if self.bool() {
                    WirePayload::Measure(Ok(if self.bool() {
                        MeasureOutcome::Completed(self.measurement())
                    } else {
                        MeasureOutcome::OutOfMemory {
                            peak_bytes: self.next(),
                        }
                    }))
                } else {
                    WirePayload::Measure(Err(self.remote_error()))
                }
            }
        };
        WireResponse {
            target: self.string(),
            telemetry: self.telemetry(),
            payload,
        }
    }
}

/// decode(encode(v)) must re-encode to the same bytes.
fn assert_reencodes<T: serde::Serialize + for<'de> serde::Deserialize<'de>>(v: &T) {
    let text = serde::to_string(v);
    let back: T = serde::from_str(&text).unwrap_or_else(|e| panic!("decode {text:?}: {e}"));
    assert_eq!(serde::to_string(&back), text, "re-encode mismatch");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The binary frame layer is byte-transparent for every kind —
    /// the original three and the job-API additions (`Progress`,
    /// `Cancel`, `Expired`) — and every id/body.
    #[test]
    fn frames_round_trip(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let kind = g.pick(&frame::FrameKind::all());
        let id = g.next();
        let body: String = serde::to_string(&g.string());
        let mut buf = Vec::new();
        frame::write_frame(&mut buf, kind, id, &body, DEFAULT_MAX_FRAME_LEN).unwrap();
        let decoded = frame::read_frame(&mut &buf[..], DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .expect("one frame");
        prop_assert_eq!(decoded.kind, kind);
        prop_assert_eq!(decoded.id, id);
        prop_assert_eq!(decoded.body, body);
    }

    /// Requests (all three kinds, arbitrary jobs/spaces) are identity.
    #[test]
    fn requests_round_trip(seed in any::<u64>()) {
        let req = Gen(seed).request();
        assert_reencodes(&req);
        let back: Request = serde::from_str(&serde::to_string(&req)).unwrap();
        prop_assert_eq!(back.target(), req.target());
        prop_assert_eq!(back.kind(), req.kind());
    }

    /// Full responses — predictions (ok and error slots), search
    /// results, measurements, telemetry — are identity.
    #[test]
    fn wire_responses_round_trip(seed in any::<u64>()) {
        assert_reencodes(&Gen(seed).wire_response());
    }

    /// Error payloads are identity including kind and exact message.
    #[test]
    fn remote_errors_round_trip(seed in any::<u64>()) {
        let e = Gen(seed).remote_error();
        let back: RemoteError = serde::from_str(&serde::to_string(&e)).unwrap();
        prop_assert_eq!(back, e);
    }

    /// Telemetry payloads are identity (durations to the nanosecond,
    /// cache counters including evictions).
    #[test]
    fn telemetry_round_trips(seed in any::<u64>()) {
        let t = Gen(seed).telemetry();
        let back: Telemetry = serde::from_str(&serde::to_string(&t)).unwrap();
        prop_assert_eq!(back.queue_wait, t.queue_wait);
        prop_assert_eq!(back.service_time, t.service_time);
        prop_assert_eq!(back.worker, t.worker);
        prop_assert_eq!(back.cache, t.cache);
        prop_assert_eq!(back.cache_delta, t.cache_delta);
        assert_reencodes(&t);
    }

    /// Search results are identity, bit-exact on the float curves.
    #[test]
    fn search_results_round_trip(seed in any::<u64>()) {
        let s = Gen(seed).search_result();
        assert_reencodes(&s);
        let back: SearchResult = serde::from_str(&serde::to_string(&s)).unwrap();
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&back.convergence), bits(&s.convergence));
        prop_assert_eq!(back.trials.len(), s.trials.len());
    }

    /// Measurements (with kernel samples) are identity.
    #[test]
    fn measurements_round_trip(seed in any::<u64>()) {
        assert_reencodes(&Gen(seed).measurement());
    }

    /// `Progress` frame payloads — trial batches, best-so-far, cache
    /// deltas — are identity, bit-exact on the floats.
    #[test]
    fn search_progress_round_trips(seed in any::<u64>()) {
        let p = Gen(seed).search_progress();
        assert_reencodes(&p);
        let back: SearchProgress = serde::from_str(&serde::to_string(&p)).unwrap();
        prop_assert_eq!(back.trials, p.trials);
        prop_assert_eq!(back.committed, p.committed);
        prop_assert_eq!(back.cache_delta, p.cache_delta);
    }

    /// Job verdicts (`Done`/`Cancelled` response frames and `Expired`
    /// frames, with and without prefix responses) decode back to the
    /// exact bytes the server produced.
    #[test]
    fn job_outcome_frames_round_trip(seed in any::<u64>()) {
        let outcome = Gen(seed).job_outcome();
        let (kind, body) = outcome_frame(&outcome);
        let back = match kind {
            frame::FrameKind::Response => decode_response_frame(&body),
            frame::FrameKind::Expired => decode_expired_frame(&body),
            other => panic!("unexpected outcome frame kind {other:?}"),
        }
        .expect("decode job outcome frame");
        prop_assert_eq!(back.state(), outcome.state());
        let (back_kind, back_body) = outcome_frame(&back);
        prop_assert_eq!(back_kind, kind);
        prop_assert_eq!(back_body, body, "re-encode must reproduce the frame body");
    }

    /// Request envelopes (options + request) are identity — deadline
    /// to the nanosecond, priority and tenant exactly.
    #[test]
    fn job_options_round_trip(seed in any::<u64>()) {
        let opts = Gen(seed).job_options();
        let back: JobOptions = serde::from_str(&serde::to_string(&opts)).unwrap();
        prop_assert_eq!(back, opts);
    }
}
