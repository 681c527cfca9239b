//! The paper's evaluation (§7) as one table of row functions.
//!
//! Each figure or table is a [`Row`]: an id, a title, and a function
//! from a [`Budget`] to [`Data`] — typed cells, not text. The `repro`
//! binary prints a row through the one renderer in [`data`];
//! `tests/claims.rs` calls the same functions at smoke scale and
//! asserts the paper's claims on the same cells.
//!
//! Runs are paper scale by default (full profiling sweeps, each row's
//! own configuration count); [`Budget::smoke`] (`repro --smoke`) trains
//! on the small profiling sets and finishes in seconds, and
//! [`Budget::with_configs`] (`repro --configs N`) caps the
//! configurations a row evaluates.

pub mod accuracy;
pub mod data;
pub mod figures;
pub mod perf;
pub mod tables;

use std::fmt;

pub use data::{Block, Cell, Data, Table};
use maya::{EmulationSpec, MayaBuilder, MayaError, PredictionEngine};
use maya_baselines::{Amped, BaselineModel, Calculon, Proteus};
use maya_estimator::ProfileScale;
use maya_hw::ClusterSpec;
use maya_search::{ConfigPoint, ConfigSpace};
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::{Dtype, SimTime};

/// How much work a row may do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Profiling-dataset size the forest estimators train on.
    pub scale: ProfileScale,
    /// Cap on configurations evaluated per setup; `None` is the row's
    /// own count.
    pub configs: Option<usize>,
}

impl Budget {
    /// Paper-scale profiling sweeps — the default.
    pub fn paper() -> Self {
        Budget {
            scale: ProfileScale::Full,
            configs: None,
        }
    }

    /// Small profiling sets: every row in seconds.
    pub fn smoke() -> Self {
        Budget {
            scale: ProfileScale::Test,
            configs: None,
        }
    }

    /// Caps the configurations evaluated per setup at `n`.
    pub fn with_configs(self, n: usize) -> Self {
        Budget {
            configs: Some(n),
            ..self
        }
    }

    /// The cap in force for a row whose own count is `default`.
    pub fn configs_or(&self, default: usize) -> usize {
        self.configs.unwrap_or(default)
    }

    /// The error of row `id` finding nothing that completes under this
    /// budget.
    pub fn starved(&self, id: &'static str) -> ReproError {
        let budget = *self;
        ReproError::NoFeasibleConfig { id, budget }
    }
}

impl fmt::Display for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let scale = match self.scale {
            ProfileScale::Test => "smoke",
            ProfileScale::Full => "paper",
        };
        match self.configs {
            Some(n) => write!(f, "{scale} scale, {n} configs per setup"),
            None => write!(f, "{scale} scale"),
        }
    }
}

/// Why a row produced no data.
#[derive(Debug)]
pub enum ReproError {
    /// No sampled configuration of some setup completed, so there is
    /// no optimum to report; raise `--configs`.
    NoFeasibleConfig {
        /// The row.
        id: &'static str,
        /// The budget it ran under.
        budget: Budget,
    },
    /// The pipeline itself failed.
    Pipeline(MayaError),
}

impl fmt::Display for ReproError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReproError::NoFeasibleConfig { id, budget } => write!(
                f,
                "{id}: no sampled configuration completes at {budget}; raise --configs"
            ),
            ReproError::Pipeline(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReproError {}

impl From<MayaError> for ReproError {
    fn from(e: MayaError) -> Self {
        ReproError::Pipeline(e)
    }
}

/// A row function: the figure's or table's data under a budget.
pub type RowFn = fn(&Budget) -> Result<Data, ReproError>;

/// One figure or table of the paper.
pub struct Row {
    /// `fig07`, `tab03`, ...
    pub id: &'static str,
    /// What it shows.
    pub title: &'static str,
    /// Computes it.
    pub run: RowFn,
}

const fn row(id: &'static str, title: &'static str, run: RowFn) -> Row {
    Row { id, title, run }
}

/// Every figure and table, in paper order.
pub const ROWS: [Row; 17] = [
    row(
        "fig02",
        "optimal recipe per cluster size, cross-deployment cost",
        figures::fig02,
    ),
    row(
        "fig07",
        "predicted vs. actual iteration time per system",
        figures::fig07,
    ),
    row(
        "fig08",
        "actual cost of the config each system selects",
        figures::fig08,
    ),
    row("fig09", "prediction-error CDF per system", figures::fig09),
    row("fig10", "ResNet-152 accuracy on 8xA40", figures::fig10),
    row(
        "fig11",
        "CMA-ES search vs. the grid optimum",
        figures::fig11,
    ),
    row(
        "fig12",
        "MFU when scaling DP to thousands of GPUs",
        figures::fig12,
    ),
    row(
        "fig13",
        "Maya stack runtime vs. cluster size",
        figures::fig13,
    ),
    row(
        "fig14",
        "dedup: runtime saved, prediction unchanged",
        figures::fig14,
    ),
    row(
        "fig15",
        "trial status breakdown during search",
        figures::fig15,
    ),
    row(
        "fig16",
        "search algorithms: best MFU vs. configs sampled",
        figures::fig16,
    ),
    row("tab01", "capability matrix, probed per knob", tables::tab01),
    row(
        "tab02",
        "each knob's effect on compute / memory / network",
        tables::tab02,
    ),
    row(
        "tab03",
        "prediction error: oracle vs. end-to-end",
        tables::tab03,
    ),
    row(
        "tab04",
        "models x framework stacks under emulation",
        tables::tab04,
    ),
    row(
        "tab06",
        "search stage runtimes, optimized and not",
        tables::tab06,
    ),
    row(
        "tab07_09",
        "per-kernel MAPE of the forests: H100, V100, A40",
        tables::tab07_09,
    ),
];

/// One evaluation scenario (hardware + model + batch), as in §7.1.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Display name ("GPT3 2.7B - 8xV100").
    pub name: &'static str,
    /// Cluster spec.
    pub cluster: ClusterSpec,
    /// Model.
    pub model: ModelSpec,
    /// Global batch size.
    pub global_batch: u32,
    /// Training precision.
    pub precision: Dtype,
}

impl Scenario {
    /// A scenario.
    pub fn new(
        name: &'static str,
        cluster: ClusterSpec,
        model: ModelSpec,
        global_batch: u32,
        precision: Dtype,
    ) -> Self {
        Scenario {
            name,
            cluster,
            model,
            global_batch,
            precision,
        }
    }

    /// The four headline setups of Figures 7-9.
    pub fn headline() -> [Scenario; 4] {
        let (v100, h100) = (ClusterSpec::v100, ClusterSpec::h100);
        let (small, large) = (ModelSpec::gpt3_2_7b(), ModelSpec::gpt3_18_4b());
        [
            Scenario::new("GPT3 2.7B - 8xV100", v100(1, 8), small, 64, Dtype::Fp16),
            Scenario::new("GPT3 2.7B - 16xV100", v100(2, 8), small, 64, Dtype::Fp16),
            Scenario::new("GPT3 18.4B - 32xH100", h100(4, 8), large, 128, Dtype::Bf16),
            Scenario::new("GPT3 18.4B - 64xH100", h100(8, 8), large, 256, Dtype::Bf16),
        ]
    }

    /// Job template for this scenario.
    pub fn template(&self) -> TrainingJob {
        TrainingJob {
            model: self.model,
            parallel: ParallelConfig::default(),
            flavor: FrameworkFlavor::Megatron,
            compile: false,
            global_batch: self.global_batch,
            world: self.cluster.num_gpus(),
            gpus_per_node: self.cluster.gpus_per_node,
            precision: self.precision,
            iterations: 1,
        }
    }

    /// Builder pre-configured for this scenario (dedup + selective
    /// launch on).
    pub fn builder(&self) -> MayaBuilder {
        let spec = EmulationSpec::new(self.cluster.clone()).with_selective_launch(true);
        MayaBuilder::new(self.cluster.clone()).with_spec(spec)
    }

    /// A Maya instance with the forest estimator trained for this
    /// cluster at `scale` (dedup + selective launch on).
    pub fn maya(&self, scale: ProfileScale, seed: u64) -> Result<PredictionEngine, MayaError> {
        self.builder().forest(scale, seed).build()
    }

    /// A Maya instance with the oracle estimator.
    pub fn maya_oracle(&self) -> Result<PredictionEngine, MayaError> {
        self.builder().build()
    }

    /// This scenario's job under `parallel`.
    pub fn job(&self, parallel: ParallelConfig) -> TrainingJob {
        TrainingJob {
            parallel,
            ..self.template()
        }
    }
}

/// Enumerates structurally-valid configurations for a scenario, sampled
/// deterministically down to `limit`.
pub fn valid_configs(scenario: &Scenario, limit: usize) -> Vec<ConfigPoint> {
    let template = scenario.template();
    let all: Vec<ConfigPoint> = ConfigSpace::default()
        .enumerate()
        .into_iter()
        .filter(|c| {
            TrainingJob {
                parallel: *c,
                ..template
            }
            .validate()
            .is_ok()
        })
        .collect();
    // Always include the "plain" tp x pp sub-space (the only recipes the
    // narrowest baselines can express), then stride-sample the rest.
    let mut picked: Vec<ConfigPoint> = all
        .iter()
        .filter(|c| {
            c.microbatch_multiplier == 1
                && c.virtual_stages == 1
                && !c.activation_recompute
                && !c.sequence_parallel
                && !c.distributed_optimizer
        })
        .copied()
        .collect();
    picked.truncate(limit / 2);
    if picked.len() < limit {
        let remaining = limit - picked.len();
        let rest: Vec<ConfigPoint> = all
            .iter()
            .filter(|c| !picked.contains(c))
            .copied()
            .collect();
        if rest.len() > remaining {
            let stride = rest.len() as f64 / remaining as f64;
            picked.extend((0..remaining).map(|i| rest[(i as f64 * stride) as usize]));
        } else {
            picked.extend(rest);
        }
    }
    picked
}

/// The three baseline systems of §7.1.
pub fn baselines() -> Vec<Box<dyn BaselineModel>> {
    vec![
        Box::new(Proteus::default()),
        Box::new(Calculon),
        Box::new(Amped),
    ]
}

/// Absolute percentage error.
pub fn ape(predicted: SimTime, actual: SimTime) -> f64 {
    (predicted.as_secs_f64() - actual.as_secs_f64()).abs() / actual.as_secs_f64().max(1e-12)
}

/// Quantile of a (will be sorted) sample.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let idx = ((values.len() - 1) as f64 * q).round() as usize;
    values[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_scenarios_have_valid_configs() {
        for s in Scenario::headline() {
            let configs = valid_configs(&s, 50);
            assert!(!configs.is_empty(), "{} has no valid configs", s.name);
            assert!(configs.len() <= 50);
            let template = s.template();
            for c in &configs {
                assert!(TrainingJob {
                    parallel: *c,
                    ..template
                }
                .validate()
                .is_ok());
            }
        }
    }

    #[test]
    fn quantiles() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(quantile(&mut v, 1.0), 5.0);
    }

    #[test]
    fn ape_basics() {
        assert!((ape(SimTime::from_ms(11.0), SimTime::from_ms(10.0)) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn row_ids_are_unique_and_in_paper_order() {
        let ids: Vec<&str> = ROWS.iter().map(|r| r.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn baseline_set_is_three_systems() {
        let b = baselines();
        let names: Vec<&str> = b.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["Proteus", "Calculon", "AMPeD"]);
    }
}
