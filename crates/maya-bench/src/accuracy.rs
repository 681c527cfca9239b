//! Shared evaluation harness for the accuracy experiments (Figs. 7-9).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use maya_estimator::ProfileScale;
use maya_search::ConfigPoint;
use maya_trace::SimTime;

use crate::{baselines, valid_configs, Budget, ReproError, Scenario};

/// Full evaluation record for one configuration.
#[derive(Clone, Debug)]
pub struct ConfigEval {
    /// The configuration.
    pub config: ConfigPoint,
    /// Testbed measurement (None = actually OOMs).
    pub actual: Option<SimTime>,
    /// Each system's predicted time, in [`SYSTEMS`] order (None =
    /// predicted OOM, or outside the system's modeling domain).
    pub predicted: Vec<(&'static str, Option<SimTime>)>,
}

impl ConfigEval {
    /// The time `system` (one of [`SYSTEMS`]) predicted.
    pub fn predicted_by(&self, system: &str) -> Option<SimTime> {
        self.predicted.iter().find(|(n, _)| *n == system)?.1
    }
}

/// The compared systems: Maya, then `baselines()` by name.
pub const SYSTEMS: [&str; 4] = ["Maya", "Proteus", "Calculon", "AMPeD"];

/// Configurations Figs. 7-9 evaluate per setup unless `--configs`
/// says otherwise.
const HEADLINE_CONFIGS: usize = 36;

/// The evaluation of a headline setup under `budget`, computed once
/// per process: Figs. 7, 8 and 9 read the same records, whichever of
/// them runs first pays. `index` is the setup's position in
/// [`Scenario::headline`]; it picks the forest's seed.
pub fn headline_evals(
    index: usize,
    scenario: &Scenario,
    budget: &Budget,
) -> Result<Arc<Vec<ConfigEval>>, ReproError> {
    type Key = (usize, usize, bool);
    static DONE: Mutex<BTreeMap<Key, Arc<Vec<ConfigEval>>>> = Mutex::new(BTreeMap::new());
    let n_configs = budget.configs_or(HEADLINE_CONFIGS);
    let key = (index, n_configs, budget.scale == ProfileScale::Full);
    // Held across the evaluation so two callers never train the same
    // forest side by side; every update is a whole insert, so a
    // poisoned lock still guards a valid map.
    let mut done = DONE.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(evals) = done.get(&key) {
        return Ok(Arc::clone(evals));
    }
    let seed = 1000 + index as u64;
    let evals = Arc::new(evaluate_scenario(scenario, n_configs, budget.scale, seed)?);
    done.insert(key, Arc::clone(&evals));
    Ok(evals)
}

/// Evaluates up to `n_configs` valid configurations of a scenario with
/// the testbed, Maya (forest estimator) and all baselines.
pub fn evaluate_scenario(
    scenario: &Scenario,
    n_configs: usize,
    scale: ProfileScale,
    seed: u64,
) -> Result<Vec<ConfigEval>, ReproError> {
    let maya = scenario.maya(scale, seed)?;
    let systems = baselines();
    let configs = valid_configs(scenario, n_configs);
    let mut out = Vec::with_capacity(configs.len());
    for config in configs {
        let job = scenario.job(config);
        let by_maya = maya.predict_job(&job).ok().and_then(|p| p.iteration_time());
        let by_baselines = systems
            .iter()
            .map(|b| (b.name(), b.predict(&job, &scenario.cluster).time()));
        out.push(ConfigEval {
            config,
            actual: maya.measure_actual(&job)?.ok().map(|m| m.iteration_time),
            predicted: std::iter::once(("Maya", by_maya))
                .chain(by_baselines)
                .collect(),
        });
    }
    Ok(out)
}

/// Keeps the evaluations that actually completed, ranked fastest-first
/// by measured time (the paper's "top N valid configurations").
pub fn ranked_completions(evals: &[ConfigEval]) -> Vec<&ConfigEval> {
    let mut v: Vec<&ConfigEval> = evals.iter().filter(|e| e.actual.is_some()).collect();
    v.sort_by_key(|e| e.actual);
    v
}

/// Absolute-percentage errors of one system over completed configs.
pub fn system_errors(evals: &[&ConfigEval], system: &str) -> Vec<f64> {
    evals
        .iter()
        .filter_map(|e| Some(crate::ape(e.predicted_by(system)?, e.actual?)))
        .collect()
}
