//! Shared harness for the per-figure/per-table benchmark binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation (§7); see DESIGN.md's experiment index. Output is
//! plain text: aligned tables for tables, CSV-like series for figures.
//!
//! Environment knobs (all optional):
//! - `MAYA_BENCH_CONFIGS`: cap on evaluated configurations per setup
//!   (default varies per binary; raise for closer-to-paper coverage).
//! - `MAYA_BENCH_FULL`: set to `1` to use paper-scale profiling datasets.

pub mod accuracy;
pub mod perf;

use maya::{MayaBuilder, PredictionEngine};
use maya_baselines::{Amped, BaselineModel, Calculon, Proteus};
use maya_estimator::ProfileScale;
use maya_hw::ClusterSpec;
use maya_search::{ConfigPoint, ConfigSpace};
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::{Dtype, SimTime};

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
    /// The four headline setups of Figures 7-9.
    pub fn headline() -> Vec<Scenario> {
        vec![
            Scenario {
                name: "GPT3 2.7B - 8xV100",
                cluster: ClusterSpec::v100(1, 8),
                model: ModelSpec::gpt3_2_7b(),
                global_batch: 64,
                precision: Dtype::Fp16,
            },
            Scenario {
                name: "GPT3 2.7B - 16xV100",
                cluster: ClusterSpec::v100(2, 8),
                model: ModelSpec::gpt3_2_7b(),
                global_batch: 64,
                precision: Dtype::Fp16,
            },
            Scenario {
                name: "GPT3 18.4B - 32xH100",
                cluster: ClusterSpec::h100(4, 8),
                model: ModelSpec::gpt3_18_4b(),
                global_batch: 128,
                precision: Dtype::Bf16,
            },
            Scenario {
                name: "GPT3 18.4B - 64xH100",
                cluster: ClusterSpec::h100(8, 8),
                model: ModelSpec::gpt3_18_4b(),
                global_batch: 256,
                precision: Dtype::Bf16,
            },
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
    /// launch on); chain estimator/thread knobs per binary.
    pub fn builder(&self) -> MayaBuilder {
        MayaBuilder::new(self.cluster.clone()).selective_launch(true)
    }

    /// A Maya instance with the trained forest estimator for this
    /// cluster (dedup + selective launch on).
    pub fn maya(&self, seed: u64) -> PredictionEngine {
        self.builder()
            .forest(profile_scale(), seed)
            .build()
            .expect("scenario runtime builds")
    }

    /// A Maya instance with the oracle estimator.
    pub fn maya_oracle(&self) -> PredictionEngine {
        self.builder().build().expect("scenario runtime builds")
    }
}

/// Profile scale from the environment: paper-scale sweeps by default,
/// `MAYA_BENCH_FAST=1` for quick smoke runs.
pub fn profile_scale() -> ProfileScale {
    if std::env::var("MAYA_BENCH_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        ProfileScale::Test
    } else {
        ProfileScale::Full
    }
}

/// Config-count budget from the environment.
pub fn config_budget(default: usize) -> usize {
    std::env::var("MAYA_BENCH_CONFIGS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
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

/// Prints a CSV-ish series block (the "figure" output format).
pub fn print_series(title: &str, header: &str, rows: &[String]) {
    println!("# {title}");
    println!("{header}");
    for r in rows {
        println!("{r}");
    }
    println!();
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
    fn baseline_set_is_three_systems() {
        let b = baselines();
        let names: Vec<&str> = b.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["Proteus", "Calculon", "AMPeD"]);
    }
}
