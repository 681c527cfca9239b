//! The engine registry: one lazily-built [`PredictionEngine`] per
//! distinct [`EmulationSpec`], one memo cache (and estimator) per
//! distinct cluster.
//!
//! [`EmulationSpec`] is `Eq + Hash` (cluster floats compare by bit
//! pattern), so it keys the engine map directly. The memo cache sits
//! one level down: estimator answers are pure functions of the query
//! key and the *cluster*, so specs that differ only in pipeline knobs
//! (dedup, selective launch, thread count) share a single
//! `CachingEstimator` — and the expensive estimator build (forest
//! training profiles the whole cluster) runs once per cluster, not
//! once per knob combination. Distinct clusters never alias: they get
//! independent estimators and memos.
//!
//! Construction is lazy and per-key concurrent: map locks are held
//! only to hand out per-key `OnceLock` cells; estimator/engine builds
//! run outside them. Two clients racing on the same new key build
//! once; clients of other keys are never blocked.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use maya::{EmulationSpec, EstimatorChoice, PredictionEngine, SimObs};
use maya_estimator::CachingEstimator;
use maya_hw::ClusterSpec;

/// Lazily builds and multiplexes engines per emulation spec, sharing
/// memo caches per cluster.
pub struct EngineRegistry {
    choice: EstimatorChoice,
    memo_capacity: Option<usize>,
    engines: Mutex<HashMap<EmulationSpec, Arc<OnceLock<Arc<PredictionEngine>>>>>,
    caches: Mutex<HashMap<ClusterSpec, Arc<OnceLock<Arc<CachingEstimator>>>>>,
    engine_builds: AtomicUsize,
    estimator_builds: AtomicUsize,
    /// Template simulator-observability sinks. When set, every engine
    /// the registry builds gets a clone installed (the handles are
    /// shared cells, so all engines publish into the same counters).
    sim_obs: Option<SimObs>,
}

impl EngineRegistry {
    /// A registry that instantiates `choice` per distinct cluster, with
    /// unbounded memo caches.
    pub fn new(choice: EstimatorChoice) -> Self {
        EngineRegistry::with_memo_capacity(choice, None)
    }

    /// A registry whose memo caches are LRU-bounded to `capacity`
    /// entries per query family (see
    /// [`CachingEstimator::with_capacity`]).
    pub fn with_memo_capacity(choice: EstimatorChoice, capacity: Option<usize>) -> Self {
        EngineRegistry {
            choice,
            memo_capacity: capacity,
            engines: Mutex::new(HashMap::new()),
            caches: Mutex::new(HashMap::new()),
            engine_builds: AtomicUsize::new(0),
            estimator_builds: AtomicUsize::new(0),
            sim_obs: None,
        }
    }

    /// Installs simulator observability sinks on every engine this
    /// registry builds from now on (already-built engines are
    /// unaffected, which is why the service sets this before handing
    /// the registry out).
    pub fn with_sim_obs(mut self, obs: SimObs) -> Self {
        self.sim_obs = Some(obs);
        self
    }

    /// The configured estimator choice.
    pub fn estimator_choice(&self) -> &EstimatorChoice {
        &self.choice
    }

    /// The shared memo cache (wrapping the estimator) for a cluster,
    /// building both on first use.
    pub fn cache(&self, cluster: &ClusterSpec) -> Arc<CachingEstimator> {
        let cell = {
            let mut caches = self.caches.lock().unwrap_or_else(|p| p.into_inner());
            Arc::clone(caches.entry(cluster.clone()).or_default())
        };
        Arc::clone(cell.get_or_init(|| {
            self.estimator_builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(CachingEstimator::with_capacity(
                self.choice.build(cluster),
                self.memo_capacity,
            ))
        }))
    }

    /// The engine for `spec`, building it on first use over the
    /// cluster's shared cache.
    pub fn engine(&self, spec: &EmulationSpec) -> Arc<PredictionEngine> {
        let cell = {
            let mut engines = self.engines.lock().unwrap_or_else(|p| p.into_inner());
            Arc::clone(engines.entry(spec.clone()).or_default())
        };
        Arc::clone(cell.get_or_init(|| {
            self.engine_builds.fetch_add(1, Ordering::Relaxed);
            let engine =
                PredictionEngine::with_shared_cache(spec.clone(), self.cache(&spec.cluster));
            if let Some(obs) = &self.sim_obs {
                let _ = engine.install_sim_obs(obs.clone());
            }
            Arc::new(engine)
        }))
    }

    /// The engine for `spec` if one has already been built.
    pub fn built_engine(&self, spec: &EmulationSpec) -> Option<Arc<PredictionEngine>> {
        let engines = self.engines.lock().unwrap_or_else(|p| p.into_inner());
        engines.get(spec).and_then(|c| c.get().cloned())
    }

    /// Number of engines built so far.
    pub fn engines_built(&self) -> usize {
        self.engine_builds.load(Ordering::Relaxed)
    }

    /// Number of estimators (one per distinct cluster) built so far.
    pub fn estimators_built(&self) -> usize {
        self.estimator_builds.load(Ordering::Relaxed)
    }

    /// Specs whose engines have been built.
    pub fn built_specs(&self) -> Vec<EmulationSpec> {
        let engines = self.engines.lock().unwrap_or_else(|p| p.into_inner());
        engines
            .iter()
            .filter(|(_, c)| c.get().is_some())
            .map(|(s, _)| s.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_specs_resolve_to_the_same_engine() {
        let reg = EngineRegistry::new(EstimatorChoice::Oracle);
        let spec = EmulationSpec::new(ClusterSpec::h100(1, 2));
        let a = reg.engine(&spec);
        let b = reg.engine(&spec.with_dedup(true)); // no-op change: still equal
        assert!(Arc::ptr_eq(&a, &b), "equal specs must share one engine");
        assert_eq!(reg.engines_built(), 1);
        assert_eq!(reg.estimators_built(), 1);
    }

    #[test]
    fn same_cluster_different_knobs_share_one_memo() {
        let reg = EngineRegistry::new(EstimatorChoice::Oracle);
        let base = EmulationSpec::new(ClusterSpec::h100(1, 2));
        let a = reg.engine(&base);
        let b = reg.engine(&base.clone().with_selective_launch(true));
        let c = reg.engine(&base.clone().with_emulation_threads(4));
        assert!(!Arc::ptr_eq(&a, &b), "distinct specs, distinct engines");
        assert!(
            Arc::ptr_eq(a.cache(), b.cache()) && Arc::ptr_eq(a.cache(), c.cache()),
            "pipeline knobs must not fragment the memo"
        );
        assert_eq!(reg.engines_built(), 3);
        assert_eq!(
            reg.estimators_built(),
            1,
            "one cluster, one estimator build"
        );
    }

    #[test]
    fn distinct_clusters_get_independent_memos() {
        let reg = EngineRegistry::new(EstimatorChoice::Oracle);
        let h100 = reg.engine(&EmulationSpec::new(ClusterSpec::h100(1, 2)));
        let a40 = reg.engine(&EmulationSpec::new(ClusterSpec::a40(1, 2)));
        assert!(
            !Arc::ptr_eq(h100.cache(), a40.cache()),
            "different clusters must never share answers"
        );
        assert_eq!(reg.estimators_built(), 2);
    }

    #[test]
    fn racing_clients_build_once() {
        let reg = Arc::new(EngineRegistry::new(EstimatorChoice::Oracle));
        let spec = EmulationSpec::new(ClusterSpec::v100(1, 4));
        let engines: Vec<Arc<PredictionEngine>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let reg = Arc::clone(&reg);
                    let spec = spec.clone();
                    s.spawn(move || reg.engine(&spec))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(engines.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        assert_eq!(reg.engines_built(), 1, "the race must build exactly once");
        assert_eq!(reg.estimators_built(), 1);
    }

    #[test]
    fn built_engine_is_none_before_first_use() {
        let reg = EngineRegistry::new(EstimatorChoice::Oracle);
        let spec = EmulationSpec::new(ClusterSpec::h100(1, 1));
        assert!(reg.built_engine(&spec).is_none());
        reg.engine(&spec);
        assert!(reg.built_engine(&spec).is_some());
    }
}
