//! [`MayaBuilder`]: the one way to construct a [`PredictionEngine`].
//!
//! Pick an estimator, flip spec knobs, then
//! [`build`](MayaBuilder::build) the engine.
//!
//! ```
//! use maya::MayaBuilder;
//! use maya_hw::ClusterSpec;
//!
//! let maya = MayaBuilder::new(ClusterSpec::h100(1, 4))
//!     .selective_launch(true)
//!     .emulation_threads(2)
//!     .build()
//!     .unwrap();
//! assert_eq!(maya.spec().emulation_threads, 2);
//! ```
//!
//! [`build`](MayaBuilder::build) is the only constructor here.
//! `maya-serve` replays an [`EstimatorChoice`] once per distinct
//! cluster and hands the memo to
//! [`PredictionEngine::with_shared_cache`], so its engines on one
//! cluster share a warm cache; it also bounds that memo and persists
//! it across restarts, the one memo-persistence path. A library user
//! reaches the same snapshot calls through
//! [`PredictionEngine::cache`].

use std::fmt;
use std::sync::Arc;

use maya_estimator::{ForestEstimator, OracleEstimator, ProfileScale, RuntimeEstimator};
use maya_hw::ClusterSpec;

use crate::engine::PredictionEngine;
use crate::error::MayaError;
use crate::pipeline::EmulationSpec;

/// Constructor signature of [`EstimatorChoice::Factory`].
pub type EstimatorFactory = Arc<dyn Fn(&ClusterSpec) -> Arc<dyn RuntimeEstimator> + Send + Sync>;

/// Which runtime estimator a builder (or an engine registry) installs.
///
/// A *choice* rather than an instance so it can be cloned and replayed
/// per cluster: the registry in `maya-serve` builds one estimator per
/// distinct cluster spec from a single configured choice.
#[derive(Clone)]
pub enum EstimatorChoice {
    /// True per-op runtimes (Table 3's "oracle"; fast tests).
    Oracle,
    /// Profile the cluster and train the default random-forest
    /// estimator (the paper's deployment path).
    Forest {
        /// Profiling sweep size.
        scale: ProfileScale,
        /// Training seed.
        seed: u64,
    },
    /// A caller-provided estimator instance, used **as-is for every
    /// cluster**. Estimator answers are cluster-specific, so this is
    /// only sound when all engines built from the choice target the
    /// one cluster the instance was made for — `maya-serve` rejects a
    /// `Custom` choice across multiple distinct clusters; use
    /// [`EstimatorChoice::Factory`] there instead.
    Custom(Arc<dyn RuntimeEstimator>),
    /// A caller-provided constructor invoked per distinct cluster —
    /// the multi-cluster-safe form of `Custom`. The label identifies
    /// the factory's configuration in memo-snapshot scopes; give
    /// different factories different labels.
    Factory {
        /// Stable configuration label (part of the snapshot scope).
        label: String,
        /// Builds the estimator for one cluster.
        make: EstimatorFactory,
    },
}

impl EstimatorChoice {
    /// Instantiates the estimator for a concrete cluster.
    pub fn build(&self, cluster: &ClusterSpec) -> Arc<dyn RuntimeEstimator> {
        match self {
            EstimatorChoice::Oracle => Arc::new(OracleEstimator::new(cluster)),
            EstimatorChoice::Forest { scale, seed } => {
                Arc::new(ForestEstimator::train(cluster, *scale, *seed).0)
            }
            EstimatorChoice::Custom(est) => Arc::clone(est),
            EstimatorChoice::Factory { make, .. } => make(cluster),
        }
    }

    /// Whether [`EstimatorChoice::build`] actually adapts to the
    /// cluster it is given. `Custom` does not — it returns one fixed
    /// instance — so it must not be spread across distinct clusters.
    pub fn is_cluster_aware(&self) -> bool {
        !matches!(self, EstimatorChoice::Custom(_))
    }

    /// Compatibility scope for memo snapshots of this choice on this
    /// cluster: everything the memoized answers depend on beyond the
    /// query keys. Kernel/memcpy memo keys carry no cluster identity —
    /// the same GEMM has different true runtimes on an H100 and an A40
    /// — so the cluster is rendered in full (Rust's float formatting is
    /// shortest-round-trip, so distinct specs always render
    /// distinctly), along with the estimator configuration (training
    /// scale and seed for the forest; only the name is available for
    /// custom estimators, so give those distinct names).
    pub fn memo_scope(&self, cluster: &ClusterSpec) -> String {
        let est = match self {
            EstimatorChoice::Oracle => "oracle".to_string(),
            EstimatorChoice::Forest { scale, seed } => format!("forest:{scale:?}:{seed}"),
            EstimatorChoice::Custom(est) => format!("custom:{}", est.name()),
            EstimatorChoice::Factory { label, .. } => format!("factory:{label}"),
        };
        format!("{est}|{cluster:?}")
    }
}

impl fmt::Debug for EstimatorChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimatorChoice::Oracle => write!(f, "Oracle"),
            EstimatorChoice::Forest { scale, seed } => f
                .debug_struct("Forest")
                .field("scale", scale)
                .field("seed", seed)
                .finish(),
            EstimatorChoice::Custom(est) => write!(f, "Custom({:?})", est.name()),
            EstimatorChoice::Factory { label, .. } => write!(f, "Factory({label:?})"),
        }
    }
}

/// Builder for [`PredictionEngine`] (see module docs).
#[derive(Clone, Debug)]
pub struct MayaBuilder {
    spec: EmulationSpec,
    estimator: EstimatorChoice,
}

impl MayaBuilder {
    /// Starts from [`EmulationSpec::new`] defaults (dedup on, selective
    /// launch off, sequential emulation) with the oracle estimator.
    pub fn new(cluster: ClusterSpec) -> Self {
        MayaBuilder {
            spec: EmulationSpec::new(cluster),
            estimator: EstimatorChoice::Oracle,
        }
    }

    /// Replaces the whole emulation spec (cluster included).
    pub fn with_spec(mut self, spec: EmulationSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Enables/disables dynamic worker deduplication (§4.2).
    pub fn dedup(mut self, on: bool) -> Self {
        self.spec = self.spec.with_dedup(on);
        self
    }

    /// Enables/disables Megatron-aware selective launch (§7.4).
    pub fn selective_launch(mut self, on: bool) -> Self {
        self.spec = self.spec.with_selective_launch(on);
        self
    }

    /// Sets the emulation/batch worker-thread count.
    pub fn emulation_threads(mut self, threads: usize) -> Self {
        self.spec = self.spec.with_emulation_threads(threads);
        self
    }

    /// Installs a fault-injection plan (stragglers, rank failures);
    /// empty plans are normalized away.
    pub fn faults(mut self, plan: maya_net::FaultPlan) -> Self {
        self.spec = self.spec.with_faults(Some(plan));
        self
    }

    /// Turns every trace-reduction optimization off (the "No
    /// Optimization" columns of Table 6 / Figure 14): dedup and
    /// selective launch. The emulation thread count is not a
    /// trace-reduction knob and is left as configured.
    pub fn without_optimizations(mut self) -> Self {
        self.spec = self.spec.with_dedup(false).with_selective_launch(false);
        self
    }

    /// Profiles and trains the random-forest estimator at build time.
    pub fn forest(mut self, scale: ProfileScale, seed: u64) -> Self {
        self.estimator = EstimatorChoice::Forest { scale, seed };
        self
    }

    /// Uses a caller-provided estimator.
    pub fn estimator(mut self, est: Arc<dyn RuntimeEstimator>) -> Self {
        self.estimator = EstimatorChoice::Custom(est);
        self
    }

    /// The spec as currently configured.
    pub fn spec(&self) -> &EmulationSpec {
        &self.spec
    }

    /// Builds the engine: the chosen estimator for the spec's
    /// cluster, behind an unbounded memo.
    pub fn build(self) -> Result<PredictionEngine, MayaError> {
        let estimator = self.estimator.build(&self.spec.cluster);
        Ok(PredictionEngine::new(self.spec, estimator))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
    use maya_trace::Dtype;

    fn smoke_job(world: u32) -> TrainingJob {
        TrainingJob {
            model: ModelSpec::gpt3_125m(),
            parallel: ParallelConfig::default(),
            flavor: FrameworkFlavor::Megatron,
            compile: false,
            global_batch: 8 * world,
            world,
            gpus_per_node: 8,
            precision: Dtype::Bf16,
            iterations: 1,
        }
    }

    /// The builder's defaults are the oracle estimator over a default
    /// spec: the same engine a caller would assemble by hand.
    #[test]
    fn builder_matches_deprecated_constructors() {
        let cluster = ClusterSpec::h100(1, 1);
        let built = MayaBuilder::new(cluster.clone()).build().unwrap();
        let oracle = Arc::new(OracleEstimator::new(&cluster));
        let direct = PredictionEngine::new(EmulationSpec::new(cluster), oracle);
        let job = smoke_job(1);
        assert_eq!(
            built.predict_job(&job).unwrap().iteration_time(),
            direct.predict_job(&job).unwrap().iteration_time(),
        );
    }

    #[test]
    fn builder_knobs_land_in_the_spec() {
        let spec = MayaBuilder::new(ClusterSpec::h100(1, 8))
            .dedup(false)
            .selective_launch(true)
            .emulation_threads(3)
            .build()
            .unwrap()
            .spec()
            .to_owned();
        assert!(!spec.dedup);
        assert!(spec.selective_launch);
        assert_eq!(spec.emulation_threads, 3);
    }

    /// A memo snapshot is only sound under the configuration that
    /// wrote it, so every cluster and every estimator configuration
    /// needs a scope of its own, and a rebuilt equal configuration
    /// must find its old scope again.
    #[test]
    fn memo_scopes_tell_configurations_apart() {
        let h100 = ClusterSpec::h100(1, 1);
        let forest = |seed| EstimatorChoice::Forest {
            scale: ProfileScale::Test,
            seed,
        };
        let scopes = [
            EstimatorChoice::Oracle.memo_scope(&h100),
            EstimatorChoice::Oracle.memo_scope(&ClusterSpec::a40(1, 1)),
            forest(1).memo_scope(&h100),
            forest(2).memo_scope(&h100),
        ];
        for (i, a) in scopes.iter().enumerate() {
            for b in &scopes[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(
            EstimatorChoice::Oracle.memo_scope(&ClusterSpec::h100(1, 1)),
            scopes[0]
        );
        assert_eq!(forest(2).memo_scope(&ClusterSpec::h100(1, 1)), scopes[3]);
    }
}
