//! The end-to-end Maya pipeline's spec and outcome types.

use maya_hw::ClusterSpec;
use maya_sim::SimReport;
use maya_trace::SimTime;

/// How the virtual runtime is configured ("Emulation Spec" in Figure 5).
///
/// Derives `Eq`/`Hash` (cluster specs compare float bit patterns) so a
/// spec can key an engine registry: `maya-serve` multiplexes one
/// [`PredictionEngine`](crate::PredictionEngine) per distinct spec,
/// and two clients submitting equal specs share one memo cache.
///
/// Prefer the `with_*` setters over struct-literal updates — they keep
/// working when new knobs are added (the struct is headed for
/// `#[non_exhaustive]` once the workspace stops constructing it
/// literally):
///
/// ```
/// use maya::EmulationSpec;
/// use maya_hw::ClusterSpec;
///
/// let spec = EmulationSpec::new(ClusterSpec::h100(1, 8))
///     .with_selective_launch(true)
///     .with_emulation_threads(4);
/// assert!(spec.dedup && spec.selective_launch);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct EmulationSpec {
    /// Target cluster (device type, nodes, interconnects).
    pub cluster: ClusterSpec,
    /// Dynamic worker deduplication (§4.2): simulate one representative
    /// per equivalence class.
    pub dedup: bool,
    /// Megatron-aware selective launch (§7.4): emulate only ahead-of-time
    /// unique ranks. Requires workload knowledge; falls back to full
    /// emulation for non-Megatron flavors.
    pub selective_launch: bool,
    /// Number of OS threads used for concurrent worker emulation and for
    /// batched prediction (1 = sequential).
    pub emulation_threads: usize,
    /// Optional fault-injection plan (stragglers, rank failures).
    /// `None` — and an empty plan — leave predictions byte-identical
    /// to the fault-free core.
    pub faults: Option<maya_net::FaultPlan>,
}

impl EmulationSpec {
    /// Defaults: dedup on, selective launch off, sequential emulation.
    pub fn new(cluster: ClusterSpec) -> Self {
        EmulationSpec {
            cluster,
            dedup: true,
            selective_launch: false,
            emulation_threads: 1,
            faults: None,
        }
    }

    /// Disables all trace-reduction optimizations (the "No Optimization"
    /// columns of Table 6 / Figure 14).
    pub fn without_optimizations(cluster: ClusterSpec) -> Self {
        EmulationSpec {
            cluster,
            dedup: false,
            selective_launch: false,
            emulation_threads: 1,
            faults: None,
        }
    }

    /// Enables/disables dynamic worker deduplication (§4.2).
    pub fn with_dedup(mut self, on: bool) -> Self {
        self.dedup = on;
        self
    }

    /// Enables/disables Megatron-aware selective launch (§7.4).
    pub fn with_selective_launch(mut self, on: bool) -> Self {
        self.selective_launch = on;
        self
    }

    /// Sets the emulation/batch worker-thread count (min 1).
    pub fn with_emulation_threads(mut self, threads: usize) -> Self {
        self.emulation_threads = threads.max(1);
        self
    }

    /// Installs a fault-injection plan (empty plans are normalized to
    /// `None` so they cannot perturb results or cache keys).
    pub fn with_faults(mut self, faults: Option<maya_net::FaultPlan>) -> Self {
        self.faults = faults.filter(|p| !p.is_empty());
        self
    }
}

/// Wall-clock cost of each pipeline stage (Table 6, Figure 13).
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// Emulation (running workers on virtual devices), without the
    /// collation that is interleaved with it.
    pub emulation: std::time::Duration,
    /// Collation + deduplication: the time spent inside the collator,
    /// summed over the ranks it was handed.
    pub collation: std::time::Duration,
    /// Runtime prediction: the simulator's lowering pass, which reads
    /// the trace once and asks the engine's shared estimator cache for
    /// every *kernel and memcpy* duration. On a cache-warm engine the
    /// estimator itself costs nothing — an earlier prediction paid —
    /// and what remains is the read of the trace and one memo lookup
    /// per distinct kernel shape and per memcpy.
    pub estimation: std::time::Duration,
    /// Discrete-event simulation: the replay of what was lowered.
    /// Collective durations resolve here (their participant sets are
    /// only known during replay), though they too are memoized across
    /// predictions.
    pub simulation: std::time::Duration,
}

impl StageTimings {
    /// Total pipeline wall time.
    pub fn total(&self) -> std::time::Duration {
        self.emulation + self.collation + self.estimation + self.simulation
    }
}

impl std::ops::AddAssign for StageTimings {
    /// Adds each stage of `rhs`, as a sum over predictions does.
    fn add_assign(&mut self, rhs: StageTimings) {
        self.emulation += rhs.emulation;
        self.collation += rhs.collation;
        self.estimation += rhs.estimation;
        self.simulation += rhs.simulation;
    }
}

/// Outcome of a prediction: a report, or a (predicted!) out-of-memory.
#[derive(Clone, Debug)]
pub enum PredictOutcome {
    /// The workload fits; here is its simulated performance.
    Completed(SimReport),
    /// The emulator's allocator detected OOM on some rank — the paper's
    /// "detect errors such as out-of-memory conditions" (§4.1).
    OutOfMemory {
        /// First rank that over-allocated.
        rank: u32,
        /// Peak bytes it attempted to hold.
        peak_attempted: u64,
    },
}

/// A full prediction with pipeline telemetry.
#[derive(Clone, Debug)]
pub struct Prediction {
    /// Prediction outcome.
    pub outcome: PredictOutcome,
    /// Per-stage wall-clock cost.
    pub timings: StageTimings,
    /// Workers actually emulated.
    pub workers_emulated: usize,
    /// Workers simulated after deduplication.
    pub workers_simulated: usize,
    /// Total trace events fed to the simulator.
    pub trace_events: usize,
}

impl Prediction {
    /// The simulation report, if the workload fit in memory.
    pub fn report(&self) -> Option<&SimReport> {
        match &self.outcome {
            PredictOutcome::Completed(r) => Some(r),
            PredictOutcome::OutOfMemory { .. } => None,
        }
    }

    /// Predicted iteration time, if any.
    pub fn iteration_time(&self) -> Option<SimTime> {
        self.report().map(|r| r.total_time)
    }

    /// Whether the config was predicted to OOM.
    pub fn oom(&self) -> bool {
        matches!(self.outcome, PredictOutcome::OutOfMemory { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MayaBuilder;
    use crate::error::MayaError;
    use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
    use maya_trace::Dtype;

    fn h100_job(world: u32, parallel: ParallelConfig) -> TrainingJob {
        TrainingJob {
            model: ModelSpec::gpt3_125m(),
            parallel,
            flavor: FrameworkFlavor::Megatron,
            compile: false,
            global_batch: 8 * world,
            world,
            gpus_per_node: 8,
            precision: Dtype::Bf16,
            iterations: 1,
        }
    }

    #[test]
    fn single_gpu_prediction_completes() {
        let maya = MayaBuilder::new(ClusterSpec::h100(1, 1)).build().unwrap();
        let p = maya
            .predict_job(&h100_job(1, ParallelConfig::default()))
            .unwrap();
        let r = p.report().expect("no OOM");
        assert!(r.total_time > SimTime::from_ms(1.0), "{}", r.total_time);
        assert!(r.total_time < SimTime::from_secs(60.0));
        assert_eq!(p.workers_emulated, 1);
    }

    #[test]
    fn dp_dedup_simulates_one_worker() {
        let maya = MayaBuilder::new(ClusterSpec::h100(1, 4)).build().unwrap();
        let p = maya
            .predict_job(&h100_job(4, ParallelConfig::default()))
            .unwrap();
        assert_eq!(p.workers_emulated, 4);
        assert_eq!(p.workers_simulated, 1, "pure DP deduplicates to one class");
        assert!(p.report().is_some());
    }

    #[test]
    fn selective_launch_emulates_stage_leaders_only() {
        let cluster = ClusterSpec::h100(1, 4);
        let spec = EmulationSpec::new(cluster.clone()).with_selective_launch(true);
        let maya = MayaBuilder::new(cluster).with_spec(spec).build().unwrap();
        let par = ParallelConfig {
            pp: 2,
            ..Default::default()
        };
        let p = maya.predict_job(&h100_job(4, par)).unwrap();
        assert_eq!(p.workers_emulated, 2, "one leader per pipeline stage");
        assert!(p.report().is_some());
    }

    #[test]
    fn tp_pp_dp_job_predicts() {
        let maya = MayaBuilder::new(ClusterSpec::h100(1, 8)).build().unwrap();
        let par = ParallelConfig {
            tp: 2,
            pp: 2,
            microbatch_multiplier: 2,
            ..Default::default()
        };
        let p = maya.predict_job(&h100_job(8, par)).unwrap();
        let r = p.report().expect("completes");
        assert!(r.comm_time > SimTime::ZERO, "tp/pp/dp must communicate");
    }

    #[test]
    fn oom_is_an_outcome_not_an_error() {
        // GPT3-2.7B on a single H100 with a huge batch: no recompute, so
        // activations blow past 80 GB.
        let maya = MayaBuilder::new(ClusterSpec::h100(1, 1)).build().unwrap();
        let job = TrainingJob {
            model: ModelSpec::gpt3_2_7b(),
            global_batch: 64,
            ..h100_job(1, ParallelConfig::default())
        };
        let p = maya.predict_job(&job).unwrap();
        assert!(p.oom(), "expected OOM, got {:?}", p.iteration_time());
    }

    #[test]
    fn recompute_rescues_oom() {
        let maya = MayaBuilder::new(ClusterSpec::h100(1, 1)).build().unwrap();
        // Recompute plus gradient accumulation (8 microbatches) keeps
        // both stored activations and the transient recompute buffer small.
        let par = ParallelConfig {
            activation_recompute: true,
            microbatch_multiplier: 8,
            ..Default::default()
        };
        let job = TrainingJob {
            model: ModelSpec::gpt3_2_7b(),
            global_batch: 64,
            ..h100_job(1, par)
        };
        let p = maya.predict_job(&job).unwrap();
        assert!(!p.oom(), "recompute should fit");
        // And it should be slower per useful FLOP than a fitting config
        // would be — sanity: the run takes real time.
        assert!(p.iteration_time().unwrap() > SimTime::from_ms(10.0));
    }

    #[test]
    fn world_mismatch_rejected() {
        let maya = MayaBuilder::new(ClusterSpec::h100(1, 8)).build().unwrap();
        let err = maya
            .predict_job(&h100_job(4, ParallelConfig::default()))
            .unwrap_err();
        assert!(matches!(err, MayaError::WorldMismatch { .. }));
    }

    #[test]
    fn actual_measurement_close_to_oracle_prediction() {
        // The Table 3 structure: oracle prediction vs. testbed truth.
        let maya = MayaBuilder::new(ClusterSpec::h100(1, 2)).build().unwrap();
        let par = ParallelConfig {
            tp: 2,
            ..Default::default()
        };
        let job = h100_job(2, par);
        let pred = maya.predict_job(&job).unwrap();
        let actual = maya.measure_actual(&job).unwrap().expect("fits");
        let p = pred.iteration_time().unwrap().as_secs_f64();
        let a = actual.iteration_time.as_secs_f64();
        let err = (p / a - 1.0).abs();
        assert!(
            err < 0.08,
            "oracle error {:.2}% (pred {p:.4}s actual {a:.4}s)",
            err * 100.0
        );
    }

    #[test]
    fn trace_workload_accepts_arbitrary_scripts() {
        let maya = MayaBuilder::new(ClusterSpec::a40(1, 2)).build().unwrap();
        let traces = maya.trace_workload(&[0, 1], |_rank, ctx| {
            let h = ctx.cublas_create();
            ctx.cublas_sgemm(h, 256, 256, 256)?;
            ctx.device_synchronize();
            Ok(())
        });
        assert_eq!(traces.len(), 2);
        assert!(traces
            .iter()
            .all(|(t, r)| r.is_ok() && t.summary.num_kernels == 1));
    }

    #[test]
    fn parallel_emulation_matches_sequential() {
        let seq_maya = MayaBuilder::new(ClusterSpec::h100(1, 4)).build().unwrap();
        let job = h100_job(
            4,
            ParallelConfig {
                tp: 2,
                ..Default::default()
            },
        );
        let p1 = seq_maya.predict_job(&job).unwrap();
        let cluster = ClusterSpec::h100(1, 4);
        let spec = EmulationSpec::new(cluster.clone()).with_emulation_threads(4);
        let par_maya = MayaBuilder::new(cluster).with_spec(spec).build().unwrap();
        let p2 = par_maya.predict_job(&job).unwrap();
        assert_eq!(
            p1.iteration_time().unwrap(),
            p2.iteration_time().unwrap(),
            "emulation is deterministic regardless of threading"
        );
    }
}
