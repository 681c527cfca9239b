//! Golden bytes: one committed encoding per wire root.
//!
//! Every other codec test in the workspace is a round trip, so a
//! *symmetric* change — the same field reordered in encode and decode,
//! a tag renamed on both sides — passes them all while silently
//! breaking every deployed peer and every memo snapshot on disk. This
//! test pins the bytes themselves: protocol-v5 frame bodies and the
//! estimator snapshot file must stay identical to the strings below.
//!
//! On an *intentional* format change (which also means a protocol or
//! snapshot version bump), the failure message prints the new value as
//! a Rust literal to paste into [`GOLDEN`].

use std::sync::Arc;
use std::time::Duration;

use maya::{PredictOutcome, Prediction, StageTimings};
use maya_estimator::{CacheStats, CachingEstimator, RuntimeEstimator};
use maya_hw::{ClusterSpec, Measurement};
use maya_obs::{HistogramSnapshot, ObsSnapshot, SpanNode};
use maya_search::{
    AlgorithmKind, ConfigSpace, Provenance, SearchResult, SearchStats, TrialOutcome, TrialRecord,
};
use maya_serve::{
    JobOptions, JobOutcome, MeasureOutcome, Payload, Priority, Request, Response, SearchProgress,
    Telemetry,
};
use maya_sim::SimReport;
use maya_torchlet::{
    FrameworkFlavor, ModelSpec, ParallelConfig, ResNetConfig, TrainingJob, TransformerConfig,
};
use maya_trace::{CollectiveKind, Dtype, KernelKind, MemcpyKind, SimTime};
use maya_wire::message::{decode_expired_frame, decode_response_frame, outcome_frame, to_wire};
use maya_wire::{
    FrameKind, RemoteError, RemoteErrorKind, WireJobOutcome, WirePayload, WireResponse,
};
use serde::{compact, Deserialize, Serialize};

/// The committed encodings, captured from the encoders as they stood
/// before the codec layer was collapsed onto `serde::codec!`.
const GOLDEN: &[(&str, &str)] = &[
    (
        "request.predict",
        "some 2 500 high some tenant%sa/ü predict h100%squad/eu 2 gpt 12 768 12 3072 50257 1024 1 0 4 2 6 3 1 0 1 megatron 1 256 16 8 bf16 2 resnet 3 8 36 3 224 1000 4 2 6 3 1 0 1 zero 2 0 1 256 16 8 bf16 2",
    ),
    (
        "request.search",
        "none batch none search a40 gpt 12 768 12 3072 50257 1024 1 0 4 2 6 3 1 0 1 megatron 1 256 16 8 bf16 2 3 1 2 4 2 1 2 2 1 3 1 1 2 0 1 1 1 1 0 cma_es 100 42",
    ),
    (
        "request.measure",
        "none normal none measure %e gpt 12 768 12 3072 50257 1024 1 0 4 2 6 3 1 0 1 megatron 1 256 16 8 bf16 2",
    ),
    (
        "response.done",
        "done h100%squad/eu 0 120000 0 7000000 3 10 2 1 4 1 0 0 1500000 0 999999999 0 2000000 1 0 1 job 0 0 0 7120000 2 queued 0 0 0 120000 0 execute 0 120000 0 7000000 1 stage%semulation 0 130000 0 999 0 predict 3 ok completed 42000000 2 41000000 42000000 10000000 30000000 2000000 17179869184 12345 0 1500000 0 999999999 0 2000000 1 0 8 2 4096 err world_mismatch job%swants%s8%sranks,%scluster%shas%s4%s(50%p) ok oom 3 18446744073709551615 0 1500000 0 999999999 0 2000000 1 0 8 2 4096",
    ),
    (
        "response.cancelled_some",
        "cancelled some h100%squad/eu 0 120000 0 7000000 3 10 2 1 4 1 0 0 1500000 0 999999999 0 2000000 1 0 1 job 0 0 0 7120000 2 queued 0 0 0 120000 0 execute 0 120000 0 7000000 1 stage%semulation 0 130000 0 999 0 search some 4 2 6 3 1 0 1 completed 12500000 4601057523306793533 4599676419421066581 3 4 2 6 3 1 0 1 completed 12500000 4601057523306793533 4599676419421066581 executed 1 1 1 1 0 0 0 invalid skipped 1 1 1 1 0 0 0 oom cached 1 2 3 4 0 123456000 3 4591870180066957722 4599075939470750515 4601057523306793533",
    ),
    (
        "response.cancelled_none",
        "cancelled none",
    ),
    (
        "expired.some",
        "some h100%squad/eu 0 120000 0 7000000 3 10 2 1 4 1 0 0 1500000 0 999999999 0 2000000 1 0 1 job 0 0 0 7120000 2 queued 0 0 0 120000 0 execute 0 120000 0 7000000 1 stage%semulation 0 130000 0 999 0 measure ok completed 100 2 99 100 25 70 1073741824 1 memset 64 5",
    ),
    (
        "expired.none",
        "none",
    ),
    (
        "payload.measure_oom",
        "measure ok oom 1099511627776",
    ),
    (
        "payload.measure_err",
        "measure err world_mismatch job%swants%s8%sranks,%scluster%shas%s4%s(50%p)",
    ),
    (
        "progress",
        "3 4 2 6 3 1 0 1 completed 12500000 4601057523306793533 4599676419421066581 executed 1 1 1 1 0 0 0 invalid skipped 1 1 1 1 0 0 0 oom cached 17 some 4 2 6 3 1 0 1 completed 12500000 4601057523306793533 4599676419421066581 9 8 7",
    ),
    (
        "progress.no_best",
        "0 0 none 0 0 0",
    ),
    (
        "remote_error",
        "world_mismatch job%swants%s8%sranks,%scluster%shas%s4%s(50%p)",
    ),
    (
        "obs_snapshot",
        "2 serve.served 3 sim.events 12345 1 queue.depth -2 1 serve.queue_wait%sus 5 8589939594 5 0 1 2 1 9 1 12 1 33 1 1 job 0 0 0 7120000 2 queued 0 0 0 120000 0 execute 0 120000 0 7000000 1 stage%semulation 0 130000 0 999 0",
    ),
    (
        "estimator_snapshot",
        "maya-memo 1 fixed%sgolden h100x8/golden%sscope\nkernels 4\nconv_fwd 32 64 56 57 128 3 2 fp16 1000\ngemm 1024 512 2048 fp16 1000\ngemm_sb 64 65 66 12 bf16 1000\nlt_matmul 8 9 10 tf32 1000\nmemcpys 2\n1024 MemcpyDtoD 1024\n1048576 MemcpyHtoD 1048576\ncollectives 2\nall_reduce 16777216 8 0 1 2 3 4 5 6 7 3 8 8 4646624099911598080 4609884578576439706 4710347945566797824 4632233691727265792 4615063718147915776 4723858744448909312 16777224\nsend 5 1048576 2 0 1 3 8 8 4646624099911598080 4609884578576439706 4710347945566797824 4632233691727265792 4615063718147915776 4723858744448909312 1048578\n",
    ),
    (
        "kernel_kinds",
        "gemm 1024 512 2048 fp16\ngemm_sb 64 65 66 12 bf16\nlt_matmul 8 9 10 tf32\nconv_fwd 32 64 56 57 128 3 2 fp16\nconv_bwd_data 1 2 3 4 5 6 7 fp32\nconv_bwd_filt 11 12 13 14 15 16 17 fp16\nelementwise 1048576 2 int64\nvec_elementwise 77 int32\nfused_dropout 5\nsoftmax_fwd 9 4 1\nsoftmax_bwd 10 5 0\nln_fwd 2 3\nln_bwd_gamma 4 5\nln_bwd_input 6 7\nemb_fwd 10 20\nemb_bwd 30 40\nce_fwd 4 50000\nce_bwd 5 50001\nmulti_tensor 100 4\nreduce 33 int8\ncat_copy 44 1\nmemset 4096\ntriu_tril 55\nbatchnorm 66 11 0\npool 88 2 1\nfused_triton 99 17 fp16",
    ),
    (
        "collective_kinds",
        "all_reduce\nall_gather\nreduce_scatter\nbroadcast\nreduce\nsend 3\nrecv 7\nall_to_all",
    ),
    (
        "model_specs",
        "gpt 12 768 12 3072 50257 1024 1 0\nllama 12 768 12 3072 50257 1024 1 1\nbert 12 768 12 3072 50257 1024 0 0\nvit 12 768 12 3072 50257 1024 1 0\nt5 12 768 12 3072 50257 1024 1 0\nresnet 3 8 36 3 224 1000",
    ),
    (
        "framework_flavors",
        "megatron\nzero 3 1\nfsdp\nddp",
    ),
    (
        "leaf_enums",
        "fp32\nfp16\nbf16\ntf32\nint64\nint32\nint8\nMemcpyHtoD\nMemcpyDtoH\nMemcpyDtoD\nMemcpyHtoH\ncma_es\none_plus_one\npso\ntwo_points_de\nrandom\ngrid\nhigh\nnormal\nbatch",
    ),
];

fn transformer() -> TransformerConfig {
    TransformerConfig {
        layers: 12,
        hidden: 768,
        heads: 12,
        ffn: 3072,
        vocab: 50257,
        seq_len: 1024,
        causal: true,
        gated_mlp: false,
    }
}

fn parallel() -> ParallelConfig {
    ParallelConfig {
        tp: 4,
        pp: 2,
        microbatch_multiplier: 6,
        virtual_stages: 3,
        activation_recompute: true,
        sequence_parallel: false,
        distributed_optimizer: true,
    }
}

fn job(model: ModelSpec, flavor: FrameworkFlavor) -> TrainingJob {
    TrainingJob {
        model,
        parallel: parallel(),
        flavor,
        compile: true,
        global_batch: 256,
        world: 16,
        gpus_per_node: 8,
        precision: Dtype::Bf16,
        iterations: 2,
    }
}

fn model_specs() -> Vec<ModelSpec> {
    vec![
        ModelSpec::Gpt(transformer()),
        ModelSpec::Llama(TransformerConfig {
            gated_mlp: true,
            ..transformer()
        }),
        ModelSpec::Bert(TransformerConfig {
            causal: false,
            ..transformer()
        }),
        ModelSpec::ViT(transformer()),
        ModelSpec::T5(transformer()),
        ModelSpec::ResNet(ResNetConfig {
            blocks: [3, 8, 36, 3],
            image_size: 224,
            classes: 1000,
        }),
    ]
}

fn flavors() -> Vec<FrameworkFlavor> {
    vec![
        FrameworkFlavor::Megatron,
        FrameworkFlavor::DeepSpeedZero {
            stage: 3,
            activation_offload: true,
        },
        FrameworkFlavor::Fsdp,
        FrameworkFlavor::Ddp,
    ]
}

fn collective_kinds() -> Vec<CollectiveKind> {
    vec![
        CollectiveKind::AllReduce,
        CollectiveKind::AllGather,
        CollectiveKind::ReduceScatter,
        CollectiveKind::Broadcast,
        CollectiveKind::Reduce,
        CollectiveKind::Send { peer: 3 },
        CollectiveKind::Recv { peer: 7 },
        CollectiveKind::AllToAll,
    ]
}

/// One value of every [`KernelKind`] variant; every field distinct so
/// a swapped pair of same-typed fields changes the bytes.
fn kernel_kinds() -> Vec<KernelKind> {
    let d = Dtype::Fp16;
    vec![
        KernelKind::Gemm {
            m: 1024,
            n: 512,
            k: 2048,
            dtype: d,
        },
        KernelKind::GemmStridedBatched {
            m: 64,
            n: 65,
            k: 66,
            batch: 12,
            dtype: Dtype::Bf16,
        },
        KernelKind::LtMatmul {
            m: 8,
            n: 9,
            k: 10,
            dtype: Dtype::Tf32,
        },
        KernelKind::ConvForward {
            n: 32,
            c: 64,
            h: 56,
            w: 57,
            k: 128,
            r: 3,
            stride: 2,
            dtype: d,
        },
        KernelKind::ConvBackwardData {
            n: 1,
            c: 2,
            h: 3,
            w: 4,
            k: 5,
            r: 6,
            stride: 7,
            dtype: Dtype::Fp32,
        },
        KernelKind::ConvBackwardFilter {
            n: 11,
            c: 12,
            h: 13,
            w: 14,
            k: 15,
            r: 16,
            stride: 17,
            dtype: d,
        },
        KernelKind::Elementwise {
            numel: 1 << 20,
            arity: 2,
            dtype: Dtype::Int64,
        },
        KernelKind::VectorizedElementwise {
            numel: 77,
            dtype: Dtype::Int32,
        },
        KernelKind::FusedDropout { numel: 5 },
        KernelKind::SoftmaxForward {
            rows: 9,
            cols: 4,
            masked: true,
        },
        KernelKind::SoftmaxBackward {
            rows: 10,
            cols: 5,
            masked: false,
        },
        KernelKind::LayerNormForward { rows: 2, cols: 3 },
        KernelKind::LayerNormBackwardGamma { rows: 4, cols: 5 },
        KernelKind::LayerNormBackwardInput { rows: 6, cols: 7 },
        KernelKind::EmbeddingForward {
            tokens: 10,
            hidden: 20,
        },
        KernelKind::EmbeddingBackward {
            tokens: 30,
            hidden: 40,
        },
        KernelKind::CrossEntropyForward {
            tokens: 4,
            vocab: 50000,
        },
        KernelKind::CrossEntropyBackward {
            tokens: 5,
            vocab: 50001,
        },
        KernelKind::MultiTensorApply {
            numel: 100,
            ops_per_elem: 4,
        },
        KernelKind::Reduce {
            numel: 33,
            dtype: Dtype::Int8,
        },
        KernelKind::CatCopy {
            numel: 44,
            aligned: true,
        },
        KernelKind::Memset { bytes: 4096 },
        KernelKind::TriuTril { numel: 55 },
        KernelKind::BatchNorm {
            numel: 66,
            channels: 11,
            forward: false,
        },
        KernelKind::Pool {
            numel: 88,
            window: 2,
            forward: true,
        },
        KernelKind::FusedTriton {
            numel: 99,
            num_instrs: 17,
            dtype: d,
        },
    ]
}

fn requests() -> Vec<(&'static str, JobOptions, Request)> {
    let gpt = || job(ModelSpec::Gpt(transformer()), FrameworkFlavor::Megatron);
    vec![
        (
            "request.predict",
            JobOptions::new()
                .with_deadline(Duration::new(2, 500))
                .with_priority(Priority::High)
                .with_tenant("tenant a/ü"),
            Request::Predict {
                target: "h100 quad/eu".into(),
                jobs: vec![
                    gpt(),
                    job(
                        model_specs().pop().expect("resnet"),
                        FrameworkFlavor::DeepSpeedZero {
                            stage: 2,
                            activation_offload: false,
                        },
                    ),
                ],
            },
        ),
        (
            "request.search",
            JobOptions::new().with_priority(Priority::Batch),
            Request::Search {
                target: "a40".into(),
                template: gpt(),
                space: ConfigSpace {
                    tp: vec![1, 2, 4],
                    pp: vec![1, 2],
                    microbatch_multiplier: vec![1, 3],
                    virtual_stages: vec![1],
                    activation_recompute: vec![false, true],
                    sequence_parallel: vec![true],
                    distributed_optimizer: vec![false],
                },
                algorithm: AlgorithmKind::CmaEs,
                budget: 100,
                seed: 42,
            },
        ),
        (
            "request.measure",
            JobOptions::new(),
            Request::Measure {
                target: "".into(),
                job: gpt(),
            },
        ),
    ]
}

fn spans() -> Vec<SpanNode> {
    vec![
        SpanNode::leaf("job", Duration::ZERO, Duration::from_micros(7_120))
            .with_child(SpanNode::leaf(
                "queued",
                Duration::ZERO,
                Duration::from_micros(120),
            ))
            .with_child(
                SpanNode::leaf(
                    "execute",
                    Duration::from_micros(120),
                    Duration::from_micros(7_000),
                )
                .with_child(SpanNode::leaf(
                    "stage emulation",
                    Duration::from_micros(130),
                    Duration::from_nanos(999),
                )),
            ),
    ]
}

fn telemetry() -> Telemetry {
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
        stages: stage_timings(),
        spans: spans(),
    }
}

fn stage_timings() -> StageTimings {
    StageTimings {
        emulation: Duration::from_micros(1500),
        collation: Duration::from_nanos(999_999_999),
        estimation: Duration::from_millis(2),
        simulation: Duration::from_secs(1),
    }
}

fn predictions() -> [Prediction; 2] {
    let completed = Prediction {
        outcome: PredictOutcome::Completed(SimReport {
            total_time: SimTime::from_ns(42_000_000),
            rank_end_times: vec![SimTime::from_ns(41_000_000), SimTime::from_ns(42_000_000)],
            comm_time: SimTime::from_ns(10_000_000),
            compute_time: SimTime::from_ns(30_000_000),
            host_time: SimTime::from_ns(2_000_000),
            peak_mem_bytes: 1 << 34,
            events_processed: 12345,
        }),
        timings: stage_timings(),
        workers_emulated: 8,
        workers_simulated: 2,
        trace_events: 4096,
    };
    let oom = Prediction {
        outcome: PredictOutcome::OutOfMemory {
            rank: 3,
            peak_attempted: u64::MAX,
        },
        ..completed.clone()
    };
    [completed, oom]
}

fn remote_error() -> RemoteError {
    RemoteError {
        kind: RemoteErrorKind::WorldMismatch,
        message: "job wants 8 ranks, cluster has 4 (50%)".into(),
    }
}

fn trial_outcome() -> TrialOutcome {
    TrialOutcome::Completed {
        iteration_time: SimTime::from_ns(12_500_000),
        mfu: 0.41,
        cost: 1.0 / 3.0,
    }
}

fn trial_records() -> Vec<TrialRecord> {
    vec![
        TrialRecord {
            config: parallel(),
            outcome: trial_outcome(),
            provenance: Provenance::Executed,
        },
        TrialRecord {
            config: ParallelConfig::default(),
            outcome: TrialOutcome::Invalid,
            provenance: Provenance::Skipped,
        },
        TrialRecord {
            config: ParallelConfig::default(),
            outcome: TrialOutcome::Oom,
            provenance: Provenance::Cached,
        },
    ]
}

fn search_result() -> SearchResult {
    SearchResult {
        best: Some((parallel(), trial_outcome())),
        trials: trial_records(),
        stats: SearchStats {
            executed: 1,
            cached: 2,
            skipped: 3,
            invalid: 4,
        },
        wall: Duration::from_micros(123_456),
        convergence: vec![0.1, 0.3, 0.41],
    }
}

fn measurement() -> Measurement {
    Measurement {
        iteration_time: SimTime::from_ns(100),
        rank_end_times: vec![SimTime::from_ns(99), SimTime::from_ns(100)],
        comm_time: SimTime::from_ns(25),
        compute_time: SimTime::from_ns(70),
        peak_mem_bytes: 1 << 30,
        kernel_samples: vec![(KernelKind::Memset { bytes: 64 }, SimTime::from_ns(5))],
    }
}

/// One client-side response per payload kind, error slots included.
fn wire_response(kind: &str) -> WireResponse {
    let [completed, oom] = predictions();
    WireResponse {
        target: "h100 quad/eu".into(),
        telemetry: telemetry(),
        payload: match kind {
            "predict" => WirePayload::Predict(vec![Ok(completed), Err(remote_error()), Ok(oom)]),
            "search" => WirePayload::Search(Box::new(search_result())),
            "measure" => WirePayload::Measure(Ok(MeasureOutcome::Completed(measurement()))),
            "measure_oom" => WirePayload::Measure(Ok(MeasureOutcome::OutOfMemory {
                peak_bytes: 1 << 40,
            })),
            "measure_err" => WirePayload::Measure(Err(remote_error())),
            other => unreachable!("no such payload fixture: {other}"),
        },
    }
}

fn obs_snapshot() -> ObsSnapshot {
    ObsSnapshot {
        counters: vec![("serve.served".into(), 3), ("sim.events".into(), 12_345)],
        gauges: vec![("queue.depth".into(), -2)],
        histograms: vec![(
            "serve.queue_wait us".into(),
            HistogramSnapshot {
                count: 5,
                sum: 8_589_939_594,
                buckets: vec![(0, 1), (2, 1), (9, 1), (12, 1), (33, 1)],
            },
        )],
        recent_jobs: spans(),
    }
}

/// Fixed answers, so the snapshot bytes depend on the format alone
/// and not on any timing model.
struct FixedEstimator;

impl RuntimeEstimator for FixedEstimator {
    fn kernel_time(&self, _: &KernelKind) -> SimTime {
        SimTime::from_ns(1_000)
    }
    fn memcpy_time(&self, bytes: u64, _: MemcpyKind) -> SimTime {
        SimTime::from_ns(bytes)
    }
    fn collective_time(
        &self,
        _: CollectiveKind,
        bytes: u64,
        ranks: &[u32],
        _: &ClusterSpec,
    ) -> SimTime {
        SimTime::from_ns(bytes + ranks.len() as u64)
    }
    fn name(&self) -> &'static str {
        "fixed golden"
    }
}

fn estimator_snapshot() -> String {
    let cluster = ClusterSpec::h100(1, 8);
    let cached = CachingEstimator::new(Arc::new(FixedEstimator));
    for k in kernel_kinds().iter().take(4) {
        cached.kernel_time(k);
    }
    cached.memcpy_time(1 << 20, MemcpyKind::HostToDevice);
    cached.memcpy_time(1 << 10, MemcpyKind::DeviceToDevice);
    let ranks: Vec<u32> = (0..8).collect();
    cached.collective_time(CollectiveKind::AllReduce, 1 << 24, &ranks, &cluster);
    cached.collective_time(
        CollectiveKind::Send { peer: 5 },
        1 << 20,
        &ranks[..2],
        &cluster,
    );
    cached.snapshot("h100x8/golden scope")
}

fn list<T: Serialize>(values: &[T]) -> String {
    values
        .iter()
        .map(|v| serde::to_string(v))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Every pinned value, by name, as the encoders produce it today.
fn actual() -> Vec<(&'static str, String)> {
    let mut out: Vec<(&'static str, String)> = Vec::new();

    // Request frame bodies, assembled exactly as `WireClient::submit_with`
    // does: the `JobOptions` envelope, then the `Request`.
    for (name, opts, req) in requests() {
        let mut w = compact::Writer::new();
        opts.serialize(&mut w);
        req.serialize(&mut w);
        out.push((name, w.finish()));
    }

    // Terminal frame bodies for every `JobOutcome`, span tree included.
    for (name, outcome, kind) in [
        (
            "response.done",
            WireJobOutcome::Done(wire_response("predict")),
            FrameKind::Response,
        ),
        (
            "response.cancelled_some",
            WireJobOutcome::Cancelled(Some(wire_response("search"))),
            FrameKind::Response,
        ),
        (
            "response.cancelled_none",
            WireJobOutcome::Cancelled(None),
            FrameKind::Response,
        ),
        (
            "expired.some",
            WireJobOutcome::Expired(Some(wire_response("measure"))),
            FrameKind::Expired,
        ),
        (
            "expired.none",
            WireJobOutcome::Expired(None),
            FrameKind::Expired,
        ),
    ] {
        let (got_kind, body) = outcome_frame(&outcome);
        assert_eq!(got_kind, kind, "{name}: frame kind");
        out.push((name, body));
    }
    out.push((
        "payload.measure_oom",
        serde::to_string(&wire_response("measure_oom").payload),
    ));
    out.push((
        "payload.measure_err",
        serde::to_string(&wire_response("measure_err").payload),
    ));

    out.push((
        "progress",
        serde::to_string(&SearchProgress {
            trials: trial_records(),
            committed: 17,
            best: Some((parallel(), trial_outcome())),
            cache_delta: CacheStats {
                hits: 9,
                misses: 8,
                evictions: 7,
            },
        }),
    ));
    out.push((
        "progress.no_best",
        serde::to_string(&SearchProgress {
            trials: Vec::new(),
            committed: 0,
            best: None,
            cache_delta: CacheStats::default(),
        }),
    ));
    out.push(("remote_error", serde::to_string(&remote_error())));
    out.push(("obs_snapshot", serde::to_string(&obs_snapshot())));
    out.push(("estimator_snapshot", estimator_snapshot()));

    out.push(("kernel_kinds", list(&kernel_kinds())));
    out.push(("collective_kinds", list(&collective_kinds())));
    out.push(("model_specs", list(&model_specs())));
    out.push(("framework_flavors", list(&flavors())));
    out.push((
        "leaf_enums",
        [
            list(&[
                Dtype::Fp32,
                Dtype::Fp16,
                Dtype::Bf16,
                Dtype::Tf32,
                Dtype::Int64,
                Dtype::Int32,
                Dtype::Int8,
            ]),
            list(&[
                MemcpyKind::HostToDevice,
                MemcpyKind::DeviceToHost,
                MemcpyKind::DeviceToDevice,
                MemcpyKind::HostToHost,
            ]),
            list(&AlgorithmKind::all()),
            list(&Priority::all()),
        ]
        .join("\n"),
    ));
    out
}

#[test]
fn encodings_are_byte_identical_to_the_committed_golden_strings() {
    let actual = actual();
    let names = |t: &[(&'static str, &str)]| t.iter().map(|(n, _)| *n).collect::<Vec<_>>();
    let actual_refs: Vec<(&'static str, &str)> =
        actual.iter().map(|(n, v)| (*n, v.as_str())).collect();
    assert_eq!(
        names(&actual_refs),
        names(GOLDEN),
        "golden table and fixtures name different values"
    );
    for ((name, got), (_, want)) in actual_refs.iter().zip(GOLDEN) {
        assert!(
            got == want,
            "{name}: encoding changed.\n  want: {want:?}\n   got: {got:?}\n\
             If the format change is intentional, pin:\n    ({name:?}, {got:?}),"
        );
    }
}

fn golden(name: &str) -> &'static str {
    GOLDEN
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no golden entry {name}"))
        .1
}

/// The server maps a `maya_serve::Response`'s error slots to remote
/// errors and encodes the result with the one outcome encoder; pin that
/// path to the committed `done` frame too.
#[test]
fn server_side_response_encoding_matches_the_golden_response() {
    let [completed, oom] = predictions();
    let resp = Response {
        target: "h100 quad/eu".into(),
        telemetry: telemetry(),
        payload: Payload::Predict(vec![
            Ok(completed),
            Err(maya::MayaError::WorldMismatch { job: 8, cluster: 4 }),
            Ok(oom),
        ]),
    };
    let mut wire = to_wire(resp);
    // Only the rendered error message differs from the fixture's
    // `RemoteError`; swap it in so the rest compares byte for byte.
    let Payload::Predict(slots) = &mut wire.payload else {
        panic!("a predict response maps to a predict payload");
    };
    let Err(slot) = &mut slots[1] else {
        panic!("an error slot maps to an error slot");
    };
    assert_eq!(slot.kind, RemoteErrorKind::WorldMismatch);
    slot.message = remote_error().message;
    let (kind, body) = outcome_frame(&JobOutcome::Done(wire));
    assert_eq!(kind, FrameKind::Response);
    assert_eq!(body, golden("response.done"));
}

/// The pinned bytes decode, and re-encode to themselves.
#[test]
fn golden_strings_decode_and_reencode_identically() {
    for name in ["request.predict", "request.search", "request.measure"] {
        let mut r = compact::Reader::new(golden(name));
        let opts = JobOptions::deserialize(&mut r).expect("options");
        let req = Request::deserialize(&mut r).expect("request");
        r.end().expect("fully consumed");
        let mut w = compact::Writer::new();
        opts.serialize(&mut w);
        req.serialize(&mut w);
        assert_eq!(w.finish(), golden(name), "{name}");
    }
    fn reencodes<T: Serialize + for<'de> Deserialize<'de>>(text: &str) {
        let back: T = serde::from_str(text).unwrap_or_else(|e| panic!("decode {text:?}: {e}"));
        assert_eq!(serde::to_string(&back), text);
    }
    reencodes::<SearchProgress>(golden("progress"));
    reencodes::<SearchProgress>(golden("progress.no_best"));
    reencodes::<RemoteError>(golden("remote_error"));
    reencodes::<ObsSnapshot>(golden("obs_snapshot"));
    reencodes::<WirePayload>(golden("payload.measure_oom"));
    reencodes::<WirePayload>(golden("payload.measure_err"));
    for line in golden("kernel_kinds").lines() {
        reencodes::<KernelKind>(line);
    }
    for line in golden("collective_kinds").lines() {
        reencodes::<CollectiveKind>(line);
    }
    for line in golden("model_specs").lines() {
        reencodes::<ModelSpec>(line);
    }
    for line in golden("framework_flavors").lines() {
        reencodes::<FrameworkFlavor>(line);
    }

    // The snapshot file restores every entry and snapshots back to
    // the same bytes.
    let cold = CachingEstimator::new(Arc::new(FixedEstimator));
    let loaded = cold
        .restore(golden("estimator_snapshot"), "h100x8/golden scope")
        .expect("restore golden snapshot");
    assert_eq!(loaded, 8);
    assert_eq!(
        cold.snapshot("h100x8/golden scope"),
        golden("estimator_snapshot")
    );
}

/// Decodes one mutant of the corpus entry `name` with the decoder a
/// client runs on that frame body, and re-encodes what it decoded.
fn decode_as(name: &str, body: &str) -> Result<String, serde::Error> {
    match name.split('.').next() {
        Some("payload") => serde::from_str::<WirePayload>(body).map(|p| serde::to_string(&p)),
        Some("response") => decode_response_frame(body).map(|o| outcome_frame(&o).1),
        Some("expired") => decode_expired_frame(body).map(|o| outcome_frame(&o).1),
        _ => unreachable!("no decoder for {name}"),
    }
}

/// Every truncation and a seeded one-byte flip at every position of the
/// committed response-side bodies. A mutant must not panic the decoder;
/// it decodes to an error, or to a value that re-encodes to the mutant
/// itself (a body cut inside its last number is still a valid body).
#[test]
fn mutated_golden_response_bodies_decode_to_an_error_or_themselves() {
    let mut state = 0x6d61_7961_7769_7265_u64;
    let mut mask = || {
        // splitmix64, reduced to a non-zero ASCII-preserving mask.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as u8 % 0x7f + 1
    };
    let (mut tried, mut corpus_bytes) = (0, 0);
    for (name, body) in GOLDEN {
        if !["payload.", "response.", "expired."]
            .iter()
            .any(|p| name.starts_with(p))
        {
            continue;
        }
        corpus_bytes += body.len();
        let mut mutants: Vec<String> = (0..body.len())
            .filter(|&at| body.is_char_boundary(at))
            .map(|at| body[..at].to_string())
            .collect();
        for at in 0..body.len() {
            let mut bytes = body.as_bytes().to_vec();
            bytes[at] ^= mask();
            // A body that is not UTF-8 never reaches a decoder: the
            // frame reader rejects it first.
            mutants.extend(String::from_utf8(bytes));
        }
        for mutant in mutants {
            let decoded = std::panic::catch_unwind(|| decode_as(name, &mutant))
                .unwrap_or_else(|_| panic!("{name}: decoder panicked on {mutant:?}"));
            if let Ok(again) = decoded {
                assert_eq!(again, mutant, "{name}: a mutant decoded to another value");
            }
            tried += 1;
        }
    }
    // The corpus is ASCII: every cut and every flip was decoded.
    assert_eq!(tried, 2 * corpus_bytes);
}
