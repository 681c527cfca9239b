//! The engine table: which [`PredictionEngine`] every target name
//! means, decided once when the service is built.
//!
//! The target set cannot change after `ServiceBuilder::build`, so
//! nothing about routing is left to look up per request: a submission
//! resolves its target name to an [`EngineSlot`] once, the queued job
//! carries that slot, and the worker that runs it asks the slot for its
//! engine — no map, no lock, no miss to handle.
//!
//! Targets with *equal* [`EmulationSpec`]s (cluster floats compare by
//! bit pattern) share one slot, so they share one engine. The memo
//! cache sits one level down: estimator answers are pure functions of
//! the query key and the *cluster*, so slots that differ only in
//! pipeline knobs (dedup, selective launch, thread count) share a
//! single `CachingEstimator` — and the expensive estimator build
//! (forest training profiles the whole cluster) runs once per cluster,
//! not once per knob combination. Distinct clusters never alias: they
//! get independent estimators and memos.
//!
//! Engines and memos are still built lazily, on first use, inside
//! their own `OnceLock`: two clients racing on the same new slot build
//! once; clients of other slots are never blocked.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use maya::{EmulationSpec, EstimatorChoice, PredictionEngine, SimObs};
use maya_estimator::CachingEstimator;

use crate::error::ServeError;

/// What every engine of one service is built from.
pub(crate) struct Recipe {
    /// Instantiated once per distinct cluster.
    pub(crate) estimator: EstimatorChoice,
    /// LRU bound of every memo (see [`CachingEstimator::with_capacity`]).
    pub(crate) memo_capacity: Option<usize>,
    /// Simulator sinks every engine publishes into (the handles are
    /// shared cells, so all engines feed the same counters).
    pub(crate) sim_obs: Option<SimObs>,
}

/// One distinct [`EmulationSpec`] and the engine serving it.
pub(crate) struct EngineSlot {
    spec: EmulationSpec,
    engine: OnceLock<Arc<PredictionEngine>>,
    /// The cluster's memo, shared with every other slot on the cluster.
    memo: Arc<OnceLock<Arc<CachingEstimator>>>,
    recipe: Arc<Recipe>,
}

impl EngineSlot {
    /// The slot's engine, built on first use over the cluster's memo.
    pub(crate) fn engine(&self) -> &Arc<PredictionEngine> {
        self.engine.get_or_init(|| {
            let memo = self.memo.get_or_init(|| {
                Arc::new(CachingEstimator::with_capacity(
                    self.recipe.estimator.build(&self.spec.cluster),
                    self.recipe.memo_capacity,
                ))
            });
            let engine = PredictionEngine::with_shared_cache(self.spec.clone(), Arc::clone(memo));
            Arc::new(match &self.recipe.sim_obs {
                Some(obs) => engine.with_sim_obs(obs.clone()),
                None => engine,
            })
        })
    }

    /// The slot's engine if it has already been built.
    pub(crate) fn built(&self) -> Option<&Arc<PredictionEngine>> {
        self.engine.get()
    }

    /// Compatibility scope of this slot's memo snapshots.
    pub(crate) fn memo_scope(&self) -> String {
        self.recipe.estimator.memo_scope(&self.spec.cluster)
    }
}

/// Target name → engine slot, immutable once built (see module docs).
pub(crate) struct EngineTable {
    /// Sorted by name, so every walk over the targets is deterministic.
    targets: BTreeMap<String, Arc<EngineSlot>>,
    /// Each distinct slot once, in registration order.
    slots: Vec<Arc<EngineSlot>>,
}

impl EngineTable {
    /// Lays the table out. [`EstimatorChoice::Custom`] is one fixed
    /// instance, so it is refused when the targets need a second memo.
    pub(crate) fn new(
        targets: Vec<(String, EmulationSpec)>,
        recipe: Recipe,
    ) -> Result<Self, ServeError> {
        let recipe = Arc::new(recipe);
        let mut table = EngineTable {
            targets: BTreeMap::new(),
            slots: Vec::new(),
        };
        for (name, spec) in targets {
            let slot = match table.slots.iter().find(|s| s.spec == spec) {
                Some(slot) => Arc::clone(slot),
                None => {
                    let on_cluster = table.slots.iter().find(|s| s.spec.cluster == spec.cluster);
                    let memo = match on_cluster {
                        Some(s) => Arc::clone(&s.memo),
                        None if table.slots.is_empty() || recipe.estimator.is_cluster_aware() => {
                            Arc::default()
                        }
                        None => return Err(ServeError::CustomEstimatorSpansClusters),
                    };
                    let slot = Arc::new(EngineSlot {
                        spec,
                        engine: OnceLock::new(),
                        memo,
                        recipe: Arc::clone(&recipe),
                    });
                    table.slots.push(Arc::clone(&slot));
                    slot
                }
            };
            if table.targets.insert(name.clone(), slot).is_some() {
                return Err(ServeError::DuplicateTarget(name));
            }
        }
        Ok(table)
    }

    /// The slot `target` names — the one place a target name is
    /// resolved, and so the one producer of
    /// [`ServeError::UnknownTarget`].
    pub(crate) fn slot(&self, target: &str) -> Result<&Arc<EngineSlot>, ServeError> {
        self.targets
            .get(target)
            .ok_or_else(|| ServeError::UnknownTarget(target.to_string()))
    }

    /// Every target with its slot, in name order.
    pub(crate) fn targets(&self) -> impl Iterator<Item = (&String, &Arc<EngineSlot>)> {
        self.targets.iter()
    }

    /// The engines built so far, one per distinct spec.
    pub(crate) fn built(&self) -> impl Iterator<Item = &Arc<PredictionEngine>> {
        self.slots.iter().filter_map(|s| s.built())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_hw::ClusterSpec;

    fn table(specs: &[EmulationSpec]) -> EngineTable {
        let recipe = Recipe {
            estimator: EstimatorChoice::Oracle,
            memo_capacity: None,
            sim_obs: None,
        };
        let targets = specs.iter().cloned().enumerate();
        EngineTable::new(targets.map(|(i, s)| (format!("t{i}"), s)).collect(), recipe).unwrap()
    }

    fn engine(table: &EngineTable, target: &str) -> Arc<PredictionEngine> {
        Arc::clone(table.slot(target).unwrap().engine())
    }

    /// Distinct memos behind the built engines: one per estimator build.
    fn memos_built(table: &EngineTable) -> usize {
        let mut memos: Vec<_> = table.built().map(|e| Arc::as_ptr(e.cache())).collect();
        memos.sort();
        memos.dedup();
        memos.len()
    }

    #[test]
    fn equal_specs_resolve_to_the_same_engine() {
        let spec = EmulationSpec::new(ClusterSpec::h100(1, 2));
        // `with_dedup(true)` is a no-op change: the specs are still equal.
        let t = table(&[spec.clone(), spec.with_dedup(true)]);
        let (a, b) = (engine(&t, "t0"), engine(&t, "t1"));
        assert!(Arc::ptr_eq(&a, &b), "equal specs must share one engine");
        assert_eq!(t.built().count(), 1);
        assert_eq!(memos_built(&t), 1);
    }

    #[test]
    fn same_cluster_different_knobs_share_one_memo() {
        let base = EmulationSpec::new(ClusterSpec::h100(1, 2));
        let t = table(&[
            base.clone(),
            base.clone().with_selective_launch(true),
            base.with_emulation_threads(4),
        ]);
        let (a, b, c) = (engine(&t, "t0"), engine(&t, "t1"), engine(&t, "t2"));
        assert!(!Arc::ptr_eq(&a, &b), "distinct specs, distinct engines");
        assert!(
            Arc::ptr_eq(a.cache(), b.cache()) && Arc::ptr_eq(a.cache(), c.cache()),
            "pipeline knobs must not fragment the memo"
        );
        assert_eq!(t.built().count(), 3);
        assert_eq!(memos_built(&t), 1, "one cluster, one estimator build");
    }

    #[test]
    fn distinct_clusters_get_independent_memos() {
        let t = table(&[
            EmulationSpec::new(ClusterSpec::h100(1, 2)),
            EmulationSpec::new(ClusterSpec::a40(1, 2)),
        ]);
        let (h100, a40) = (engine(&t, "t0"), engine(&t, "t1"));
        assert!(
            !Arc::ptr_eq(h100.cache(), a40.cache()),
            "different clusters must never share answers"
        );
        assert_eq!(memos_built(&t), 2);
    }

    #[test]
    fn racing_clients_build_once() {
        // Two slots on one cluster, four first users each: every slot's
        // engine and the cluster's one estimator are built exactly once.
        let builds = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counted = Arc::clone(&builds);
        let recipe = Recipe {
            estimator: EstimatorChoice::Factory {
                label: "counted-oracle".into(),
                make: Arc::new(move |cluster| {
                    counted.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    Arc::new(maya_estimator::OracleEstimator::new(cluster))
                }),
            },
            memo_capacity: None,
            sim_obs: None,
        };
        let spec = EmulationSpec::new(ClusterSpec::v100(1, 4));
        let targets = vec![
            ("plain".to_string(), spec.clone()),
            ("no-dedup".to_string(), spec.with_dedup(false)),
        ];
        let t = EngineTable::new(targets, recipe).unwrap();
        let start = std::sync::Barrier::new(8);
        let engines: Vec<Arc<PredictionEngine>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let (t, start) = (&t, &start);
                    s.spawn(move || {
                        start.wait();
                        engine(t, if i % 2 == 0 { "plain" } else { "no-dedup" })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for pair in engines.windows(3) {
            assert!(Arc::ptr_eq(&pair[0], &pair[2]), "one engine per slot");
            assert!(Arc::ptr_eq(pair[0].cache(), pair[1].cache()), "one memo");
        }
        assert_eq!(t.built().count(), 2, "the race must build each slot once");
        assert_eq!(builds.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn built_engine_is_none_before_first_use() {
        let t = table(&[EmulationSpec::new(ClusterSpec::h100(1, 1))]);
        let slot = t.slot("t0").unwrap();
        assert!(slot.built().is_none());
        slot.engine();
        assert!(slot.built().is_some());
        assert!(matches!(
            t.slot("t1"),
            Err(ServeError::UnknownTarget(name)) if name == "t1"
        ));
    }
}
