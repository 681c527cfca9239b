//! Trial evaluation: one configuration through the full Maya pipeline.

use std::sync::Mutex;

use maya::{PredictOutcome, PredictionEngine, StageTimings};
use maya_hw::{mfu, PowerModel};
use maya_torchlet::TrainingJob;
use maya_trace::SimTime;

use crate::space::ConfigPoint;

/// What a trial's `cost` measures — the quantity the scheduler
/// minimizes.
#[derive(Clone, Copy, Debug, PartialEq)]
enum ObjectiveKind {
    /// GPU-hour dollars (proportional to iteration time for a fixed
    /// world, so this is the classic time-minimizing search).
    IterationTime,
    /// GPU-hour dollars *plus* electricity: a per-generation power
    /// model priced per kWh, scaled by how busy the iteration keeps
    /// the devices. Old, cheap-per-hour GPUs stop looking free once
    /// their longer iterations burn more energy.
    CostWeighted {
        /// Power/price model applied per rank generation.
        power: PowerModel,
    },
}

/// Result category of one trial.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TrialOutcome {
    /// Config violates structural constraints (divisibility etc.).
    Invalid,
    /// Predicted to run out of device memory.
    Oom,
    /// Predicted to complete.
    Completed {
        /// Predicted iteration time.
        iteration_time: SimTime,
        /// Model FLOPs utilization.
        mfu: f64,
        /// Dollar cost per iteration.
        cost: f64,
    },
}

impl TrialOutcome {
    /// Whether the trial produced a usable time.
    pub fn completed(&self) -> bool {
        matches!(self, TrialOutcome::Completed { .. })
    }

    /// Iteration time, if completed.
    pub fn time(&self) -> Option<SimTime> {
        match self {
            TrialOutcome::Completed { iteration_time, .. } => Some(*iteration_time),
            _ => None,
        }
    }

    /// MFU, if completed.
    pub fn mfu(&self) -> Option<f64> {
        match self {
            TrialOutcome::Completed { mfu, .. } => Some(*mfu),
            _ => None,
        }
    }
}

/// One evaluated (or skipped) trial.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrialRecord {
    /// The evaluated configuration.
    pub config: ConfigPoint,
    /// Its outcome.
    pub outcome: TrialOutcome,
    /// How the result was obtained.
    pub provenance: Provenance,
}

/// How a trial's result came to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Full pipeline execution.
    Executed,
    /// Served from the result cache.
    Cached,
    /// Inferred by a fidelity-preserving pruning tactic (Table 10).
    Skipped,
}

/// Evaluates configurations for a fixed (model, cluster, batch) scenario.
///
/// Runs directly against a [`PredictionEngine`] so any engine owner can
/// search — a caller holding what `MayaBuilder::build` returned or a
/// `maya-serve` registry entry serving a `Search` request.
pub struct Objective<'a> {
    /// The prediction engine used for trials.
    pub engine: &'a PredictionEngine,
    /// Job template; `parallel` is replaced per trial.
    pub template: TrainingJob,
    kind: ObjectiveKind,
    /// Stage timings summed over every prediction run so far.
    timings: Mutex<StageTimings>,
}

impl<'a> Objective<'a> {
    /// Builds a time-minimizing objective over a prediction engine.
    pub fn new(engine: &'a PredictionEngine, template: TrainingJob) -> Self {
        Objective {
            engine,
            template,
            kind: ObjectiveKind::IterationTime,
            timings: Mutex::default(),
        }
    }

    /// Builds a cost-weighted objective: trials are ranked by GPU-hour
    /// dollars plus modeled electricity (per-generation draw under
    /// `power`), so a slower-but-thriftier config can win.
    pub fn cost_weighted(
        engine: &'a PredictionEngine,
        template: TrainingJob,
        power: PowerModel,
    ) -> Self {
        Objective {
            engine,
            template,
            kind: ObjectiveKind::CostWeighted { power },
            timings: Mutex::default(),
        }
    }

    /// The job for a given point.
    pub fn job_for(&self, config: &ConfigPoint) -> TrainingJob {
        TrainingJob {
            parallel: *config,
            ..self.template
        }
    }

    /// Evaluates one configuration end to end.
    pub fn evaluate(&self, config: &ConfigPoint) -> TrialOutcome {
        let job = self.job_for(config);
        if job.validate().is_err() {
            return TrialOutcome::Invalid;
        }
        let pred = self.engine.predict_job(&job);
        self.outcome_of(&job, pred)
    }

    /// Evaluates a batch of configurations, fanning the full-pipeline
    /// predictions across the engine's worker pool.
    ///
    /// Outcomes align positionally with `configs` and are identical to
    /// per-config [`Objective::evaluate`] results: the prediction
    /// pipeline is deterministic and invalid configs are rejected before
    /// ever reaching it.
    ///
    /// Cancellation is cooperative: returns `None` when the token fired
    /// before every member prediction ran — an all-or-nothing verdict,
    /// so a caller never sees a half-evaluated wave (the scheduler relies
    /// on this to keep cancelled searches byte-identical to uncancelled
    /// prefixes).
    pub fn evaluate_batch_with(
        &self,
        configs: &[ConfigPoint],
        cancel: Option<&maya::CancelToken>,
    ) -> Option<Vec<TrialOutcome>> {
        let jobs: Vec<maya_torchlet::TrainingJob> =
            configs.iter().map(|c| self.job_for(c)).collect();
        let mut out = vec![TrialOutcome::Invalid; configs.len()];
        let mut valid = Vec::with_capacity(configs.len());
        for (i, job) in jobs.iter().enumerate() {
            if job.validate().is_ok() {
                valid.push(i);
            }
        }
        let batch: Vec<maya_torchlet::TrainingJob> = valid.iter().map(|&i| jobs[i]).collect();
        for (&i, pred) in valid
            .iter()
            .zip(self.engine.predict_batch_with(&batch, cancel))
        {
            if matches!(pred, Err(maya::MayaError::Cancelled)) {
                return None;
            }
            out[i] = self.outcome_of(&jobs[i], pred);
        }
        Some(out)
    }

    /// The pipeline stage timings summed over every prediction this
    /// objective has run — the executed trials' share of a search.
    pub fn timings(&self) -> StageTimings {
        *self.timings.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Maps a pipeline result to a trial outcome, adding its stage
    /// timings to [`Objective::timings`].
    fn outcome_of(
        &self,
        job: &TrainingJob,
        pred: Result<maya::Prediction, maya::MayaError>,
    ) -> TrialOutcome {
        if let Ok(done) = &pred {
            *self.timings.lock().unwrap_or_else(|p| p.into_inner()) += done.timings;
        }
        match pred {
            Err(_) => TrialOutcome::Invalid,
            Ok(pred) => match pred.outcome {
                PredictOutcome::OutOfMemory { .. } => TrialOutcome::Oom,
                PredictOutcome::Completed(report) => {
                    let t = report.total_time;
                    let cluster = &self.engine.spec().cluster;
                    let m = job
                        .flops_spec()
                        .map(|s| mfu::mfu(&s, t.as_secs_f64(), cluster))
                        .unwrap_or(0.0);
                    let secs = t.as_secs_f64();
                    let mut cost = secs / 3600.0 * cluster.dollars_per_gpu_hour * job.world as f64;
                    if let ObjectiveKind::CostWeighted { power } = self.kind {
                        // Device busy fraction on the busiest rank — a
                        // deliberate over-estimate (idle ranks are
                        // cheaper), keeping the energy term simple and
                        // monotone in iteration time.
                        let busy = if secs > 0.0 {
                            (report.compute_time + report.comm_time).as_secs_f64() / secs
                        } else {
                            0.0
                        };
                        cost += power.energy_dollars(cluster, job.world, secs, busy);
                    }
                    TrialOutcome::Completed {
                        iteration_time: t,
                        mfu: m,
                        cost,
                    }
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya::{EmulationSpec, MayaBuilder, PredictionEngine};
    use maya_hw::ClusterSpec;
    use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig};
    use maya_trace::Dtype;

    fn objective_fixture() -> (PredictionEngine, TrainingJob) {
        let cluster = ClusterSpec::h100(1, 8);
        let maya = MayaBuilder::new(cluster).build().unwrap();
        let template = TrainingJob {
            model: ModelSpec::gpt3_125m(),
            parallel: ParallelConfig::default(),
            flavor: FrameworkFlavor::Megatron,
            compile: false,
            global_batch: 64,
            world: 8,
            gpus_per_node: 8,
            precision: Dtype::Bf16,
            iterations: 1,
        };
        (maya, template)
    }

    #[test]
    fn evaluates_valid_config() {
        let (maya, template) = objective_fixture();
        let obj = Objective::new(&maya, template);
        let out = obj.evaluate(&ParallelConfig {
            tp: 2,
            ..Default::default()
        });
        match out {
            TrialOutcome::Completed {
                iteration_time,
                mfu,
                cost,
            } => {
                assert!(iteration_time > SimTime::ZERO);
                assert!(mfu > 0.0 && mfu < 1.0, "mfu {mfu}");
                assert!(cost > 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            !obj.timings().simulation.is_zero(),
            "the trial's simulation is kept"
        );
    }

    #[test]
    fn invalid_config_flagged() {
        let (maya, template) = objective_fixture();
        let obj = Objective::new(&maya, template);
        // tp=8 exceeds 125M's 12 heads divisibility.
        let out = obj.evaluate(&ParallelConfig {
            tp: 8,
            ..Default::default()
        });
        assert_eq!(out, TrialOutcome::Invalid);
        assert!(obj.timings().total().is_zero(), "no pipeline ran");
    }

    #[test]
    fn batch_outcomes_match_individual() {
        let cluster = ClusterSpec::h100(1, 8);
        let spec = EmulationSpec::new(cluster.clone()).with_emulation_threads(4);
        let par_maya = MayaBuilder::new(cluster).with_spec(spec).build().unwrap();
        let template = objective_fixture().1;
        let obj = Objective::new(&par_maya, template);
        let configs = [
            ParallelConfig::default(),
            ParallelConfig {
                tp: 2,
                ..Default::default()
            },
            ParallelConfig {
                tp: 8,
                ..Default::default()
            }, // invalid: 12 heads % 8
            ParallelConfig {
                tp: 4,
                pp: 2,
                ..Default::default()
            },
            ParallelConfig {
                tp: 2,
                ..Default::default()
            }, // duplicate
        ];
        let batch = obj.evaluate_batch_with(&configs, None).unwrap();
        assert_eq!(batch.len(), configs.len());
        for (c, got) in configs.iter().zip(&batch) {
            assert_eq!(*got, obj.evaluate(c), "config {c:?}");
        }
        assert_eq!(batch[2], TrialOutcome::Invalid);
        assert_eq!(batch[1], batch[4]);
    }

    #[test]
    fn cost_weighted_adds_a_positive_energy_term() {
        let (maya, template) = objective_fixture();
        let plain = Objective::new(&maya, template);
        let weighted = Objective::cost_weighted(&maya, template, PowerModel::datacenter());
        let config = ParallelConfig {
            tp: 2,
            ..Default::default()
        };
        let (a, b) = (plain.evaluate(&config), weighted.evaluate(&config));
        // Same prediction underneath: identical time and MFU.
        assert_eq!(a.time(), b.time());
        assert_eq!(a.mfu(), b.mfu());
        // The energy term strictly raises the cost.
        let (TrialOutcome::Completed { cost: ca, .. }, TrialOutcome::Completed { cost: cb, .. }) =
            (a, b)
        else {
            panic!("both should complete: {a:?} {b:?}");
        };
        assert!(cb > ca, "weighted {cb} <= plain {ca}");
    }

    #[test]
    fn better_config_has_lower_cost() {
        let (maya, template) = objective_fixture();
        let obj = Objective::new(&maya, template);
        let a = obj.evaluate(&ParallelConfig::default());
        let b = obj.evaluate(&ParallelConfig {
            tp: 4,
            pp: 2,
            ..Default::default()
        });
        let (ta, tb) = (a.time().unwrap(), b.time().unwrap());
        // Pure DP should beat heavy model parallelism for a 125M model.
        assert!(ta < tb, "dp-only {ta} vs tp4pp2 {tb}");
    }
}
