//! The five workloads and what every one of them shares: the run
//! configuration, the failure tally, repeated set-up and the timed
//! sampling loop.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use maya::EmulationSpec;
use maya_estimator::{ForestEstimator, ProfileScale, RuntimeEstimator};
use maya_hw::ClusterSpec;
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::Dtype;

use crate::metrics::MetricSet;
use crate::stats::{median, speed_factor, tail, timed};

/// Workload names, in the order the full run takes them.
pub const NAMES: [&str; 5] = [
    "emulate_dedup_512",
    "sim_flat_128",
    "sim_contended_32",
    "search_32",
    "serve_predict_2c",
];

/// One invocation of one workload.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: String,
    /// Feeds forest training, the fault plan and the request rotation.
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Two samples per workload on a small forest: proves every path.
    pub smoke: bool,
    /// Rewrite the committed seed-1 digests instead of checking them.
    pub bless: bool,
    /// The benchmark's directory (`expected/`, `out/`).
    pub dir: PathBuf,
}

impl RunConfig {
    pub fn profile_scale(&self) -> ProfileScale {
        if self.smoke {
            ProfileScale::Test
        } else {
            ProfileScale::Full
        }
    }

    /// Set-up is timed this many times and its median reported, so one
    /// slow set-up cannot move `setup_s`; the traced run reports no
    /// `setup_s` and sets up once.
    pub fn setup_reps(&self) -> usize {
        if self.smoke || self.trace {
            1
        } else {
            3
        }
    }

    /// Timed-phase length and the fewest samples it may end with.
    pub fn budget(&self, min_samples: usize) -> (f64, usize) {
        if self.smoke {
            (0.0, 2)
        } else {
            (self.seconds, min_samples)
        }
    }

    /// The same for the traced run, whose samples are several
    /// operations each: a smoke run takes one.
    pub fn trace_budget(&self, min_samples: usize) -> (f64, usize) {
        if self.smoke {
            (0.0, 1)
        } else {
            (self.seconds, min_samples)
        }
    }

    /// Jobs in the batched-against-serial probe.
    pub fn batch_jobs(&self, full: usize) -> usize {
        if self.smoke {
            2
        } else {
            full
        }
    }
}

/// What a run reports back.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: MetricSet,
}

/// Operations attempted and failed (error, refusal, wrong digest).
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; a failure is explained on standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    pub fn into_outcome(self, metrics: MetricSet) -> Outcome {
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

/// Records prediction error against the ground-truth testbed — the mean
/// of `errors_pct`, one per measured config — beside the paper's band,
/// and fails the run above 10 %. `measure_s` is the calibrated time the
/// `measure_actual` calls took.
pub fn report_accuracy(m: &mut MetricSet, tally: &mut Tally, errors_pct: &[f64], measure_s: f64) {
    let n = errors_pct.len();
    let error_pct = errors_pct.iter().sum::<f64>() / n.max(1) as f64;
    println!(
        "# pred_error_pct {error_pct:.3} over {n} measured config(s) \
         (paper band: < 5 %; the run fails above 10 %)"
    );
    m.set("hw.measure_s", measure_s, n);
    m.set("accuracy.pred_error_pct", error_pct, n);
    tally.check(n > 0 && error_pct <= 10.0, || {
        format!("mean prediction error {error_pct:.2} % exceeds 10 %")
    });
}

/// A Megatron bf16 job filling `cluster`.
pub fn training_job(
    model: ModelSpec,
    cluster: &ClusterSpec,
    parallel: ParallelConfig,
    global_batch: u32,
) -> TrainingJob {
    TrainingJob {
        model,
        parallel,
        flavor: FrameworkFlavor::Megatron,
        compile: false,
        global_batch,
        world: cluster.num_gpus(),
        gpus_per_node: cluster.gpus_per_node,
        precision: Dtype::Bf16,
        iterations: 1,
    }
}

/// Trains the paper's default estimator for a cluster; returns it with
/// the calibrated seconds training took.
pub fn train_forest(cluster: &ClusterSpec, cfg: &RunConfig) -> (Arc<dyn RuntimeEstimator>, f64) {
    let factor = speed_factor();
    let ((est, _mape), secs) =
        timed(|| ForestEstimator::train(cluster, cfg.profile_scale(), cfg.seed));
    (Arc::new(est), secs / factor)
}

/// One of the three single-prediction workloads.
pub struct PredictCase {
    pub cluster: ClusterSpec,
    pub job: TrainingJob,
    /// The spec before any fault plan is drawn.
    pub spec: EmulationSpec,
    /// Draw a `FaultPlan` from the seed over the clean run's horizon.
    pub faulted: bool,
    /// Compare the prediction with `measure_actual` (traced run).
    pub accuracy: bool,
}

/// GPT-3 18.4B's recipe on the two large clusters.
const LARGE_RECIPE: ParallelConfig = ParallelConfig {
    tp: 4,
    pp: 2,
    microbatch_multiplier: 2,
    virtual_stages: 1,
    activation_recompute: true,
    sequence_parallel: true,
    distributed_optimizer: true,
};

pub fn predict_case(name: &str) -> Option<PredictCase> {
    Some(match name {
        // Every rank emulated, then folded to two classes: emulation and
        // collation carry the run, the simulator sees ~11 k events.
        "emulate_dedup_512" => {
            let cluster = ClusterSpec::h100(64, 8);
            PredictCase {
                job: training_job(ModelSpec::gpt3_18_4b(), &cluster, LARGE_RECIPE, 1024),
                spec: EmulationSpec::new(cluster.clone()),
                cluster,
                faulted: false,
                accuracy: false,
            }
        }
        // No trace reduction: 128 ranks, ~700 k events on the flat
        // (contention-free) network path. The simulator carries the run.
        "sim_flat_128" => {
            let cluster = ClusterSpec::h100(16, 8);
            PredictCase {
                job: training_job(ModelSpec::gpt3_18_4b(), &cluster, LARGE_RECIPE, 256),
                spec: EmulationSpec::without_optimizations(cluster.clone()),
                cluster,
                faulted: false,
                accuracy: true,
            }
        }
        // The same simulator used differently: a link topology turns on
        // max-min flow solves, and a fault plan turns dedup off.
        "sim_contended_32" => {
            let cluster = ClusterSpec::h100(4, 8).with_default_topology();
            let recipe = ParallelConfig {
                tp: 2,
                pp: 2,
                microbatch_multiplier: 4,
                ..ParallelConfig::default()
            };
            PredictCase {
                job: training_job(ModelSpec::gpt3_2_7b(), &cluster, recipe, 128),
                spec: EmulationSpec::new(cluster.clone()),
                cluster,
                faulted: true,
                accuracy: false,
            }
        }
        _ => return None,
    })
}

/// Runs the set-up `reps` times, each timed and calibrated, and returns
/// the last product with the median calibrated seconds.
pub fn setup_repeated<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Drop the previous product first: a bound port or a worker
        // pool must not overlap with the next set-up.
        drop(last.take());
        let before = speed_factor();
        let (product, raw) = timed(&mut f);
        let after = speed_factor();
        secs.push(raw / ((before + after) / 2.0));
        last = Some(product?);
    }
    Ok((last.expect("at least one set-up ran"), median(&mut secs)))
}

/// Calibrated wall seconds of the timed samples, with what each
/// sample's operation returned.
pub struct Samples<R> {
    pub calibrated_s: Vec<f64>,
    pub raw_s: Vec<f64>,
    pub results: Vec<R>,
}

/// Runs `op` repeatedly for `seconds` (and at least `min_samples`
/// times), timing each call and dividing it by the machine-speed factor
/// measured just before it.
pub fn sample_for<R>(
    (seconds, min_samples): (f64, usize),
    mut op: impl FnMut(usize) -> Result<R, String>,
) -> Result<Samples<R>, String> {
    let started = Instant::now();
    let mut out = Samples {
        calibrated_s: Vec::new(),
        raw_s: Vec::new(),
        results: Vec::new(),
    };
    while out.results.len() < min_samples || started.elapsed().as_secs_f64() < seconds {
        let factor = speed_factor();
        let i = out.results.len();
        let (result, raw) = timed(|| op(i));
        out.results.push(result?);
        out.calibrated_s.push(raw / factor);
        out.raw_s.push(raw);
    }
    Ok(out)
}

/// The three latency/throughput end-to-end metrics from per-operation
/// calibrated seconds; `ops_per_s` is given when operations overlapped
/// (several clients) and is otherwise operations over their summed time.
/// The uncalibrated median goes on a comment line beside them.
pub fn record_latency(
    m: &mut MetricSet,
    calibrated_s: &[f64],
    raw_s: &[f64],
    ops_per_s: Option<f64>,
) {
    let n = calibrated_s.len();
    println!(
        "# uncalibrated latency_p50_ms {}",
        median(&mut raw_s.iter().map(|s| s * 1e3).collect::<Vec<f64>>())
    );
    let mut ms: Vec<f64> = calibrated_s.iter().map(|s| s * 1e3).collect();
    m.set("latency_p50_ms", median(&mut ms), n);
    let (tail_ms, percentile) = tail(&mut ms);
    m.set("latency_tail_ms", tail_ms, n);
    println!("# latency_tail_ms is the {percentile:.1}th percentile of {n} samples");
    let ops_per_s = ops_per_s.unwrap_or_else(|| n as f64 / calibrated_s.iter().sum::<f64>());
    m.set("throughput_per_s", ops_per_s, n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_predict_workload_is_defined_and_valid() {
        for name in &NAMES[..3] {
            let case = predict_case(name).expect(name);
            case.job.validate().expect(name);
            assert_eq!(case.job.world, case.cluster.num_gpus(), "{name}");
            assert_eq!(case.cluster.topology.is_some(), *name == "sim_contended_32");
        }
        assert!(predict_case("search_32").is_none());
    }

    #[test]
    fn sample_for_honours_the_minimum_and_stops_on_error() {
        let s = sample_for((0.0, 3), |i| Ok::<_, String>(i * 2)).unwrap();
        assert_eq!(s.results, vec![0, 2, 4]);
        assert!(s.calibrated_s.iter().all(|&t| t >= 0.0 && t.is_finite()));
        let failing = sample_for(
            (0.0, 3),
            |i| if i == 1 { Err("boom".into()) } else { Ok(i) },
        );
        assert_eq!(failing.err().as_deref(), Some("boom"));
    }

    #[test]
    fn setup_repeated_keeps_the_last_product() {
        let mut calls = 0;
        let (product, secs) = setup_repeated(3, || {
            calls += 1;
            Ok(calls)
        })
        .unwrap();
        assert_eq!((product, calls), (3, 3));
        assert!(secs >= 0.0);
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.check(true, || unreachable!());
        t.check(false, || "expected in this test".into());
        assert_eq!((t.attempted, t.failed), (2, 1));
    }
}
