//! Concurrent trial scheduling with caching, fidelity-preserving pruning
//! (Table 10) and early stopping.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use maya::CancelToken;
use maya_trace::SimTime;

use crate::algorithms::AlgorithmKind;
use crate::objective::{Objective, Provenance, TrialOutcome, TrialRecord};
use crate::space::{ConfigPoint, ConfigSpace};

/// Observes a running search at its deterministic commit points.
///
/// The scheduler calls [`SearchObserver::trial_committed`] once per
/// committed [`TrialRecord`] — in commit order, identical to the final
/// [`SearchResult::trials`] — and [`SearchObserver::wave_committed`]
/// after every wave that committed something, and once more before the
/// search returns if trials were committed since. A wave ends at the
/// `width`-th candidate that needs a pipeline run, so at width 1
/// ([`TrialScheduler::run`]) `wave_committed` fires after every
/// pipeline run, covering that trial and the cache hits and pruned
/// candidates proposed just before it. Observation is pull-free and
/// synchronous: a serving layer uses it to stream progress events, and
/// a callback may fire a [`CancelToken`] to stop the search at the
/// next commit boundary.
pub trait SearchObserver {
    /// One trial was committed (the same record that lands in
    /// [`SearchResult::trials`]); `best` is the best-so-far after it.
    fn trial_committed(&mut self, record: &TrialRecord, best: Option<&(ConfigPoint, TrialOutcome)>);

    /// A commit batch ended; `committed` counts all trials so far. A
    /// good place to flush buffered progress.
    fn wave_committed(&mut self, committed: usize) {
        let _ = committed;
    }
}

/// The test a twin's outcome must pass for a Table 10 tactic to hand it
/// on (see `TrialScheduler::twins`).
type Inherits = fn(&TrialOutcome) -> bool;

/// Counters for Fig. 15's trial-status breakdown, counted off
/// [`SearchResult::trials`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Trials that ran the full pipeline.
    pub executed: usize,
    /// Trials answered from the result cache.
    pub cached: usize,
    /// Trials answered by a pruning tactic.
    pub skipped: usize,
    /// Structurally invalid candidates proposed by the optimizer.
    pub invalid: usize,
}

/// Search outcome.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// Best completing configuration found, with its outcome.
    pub best: Option<(ConfigPoint, TrialOutcome)>,
    /// Every trial in evaluation order.
    pub trials: Vec<TrialRecord>,
    /// Status counters.
    pub stats: SearchStats,
    /// Wall-clock duration of the search.
    pub wall: Duration,
    /// Convergence curve: best MFU after each *unique valid* config.
    pub convergence: Vec<f64>,
}

impl SearchResult {
    /// Best iteration time, if any config completed.
    pub fn best_time(&self) -> Option<SimTime> {
        self.best.as_ref().and_then(|(_, o)| o.time())
    }
}

/// Trial scheduler: wraps an objective with caching, pruning tactics and
/// the paper's early-stopping rule.
///
/// There is one loop. Proposed candidates are grouped into *waves*: the
/// scheduler walks forward deciding, from what it already knows, which
/// candidates need a pipeline run (neither cached nor answered by a
/// pruning tactic), and cuts the wave at the `width`-th such candidate
/// or where an answer could depend on one still in flight. The wave's
/// pipeline runs fan across the prediction engine's worker pool, then
/// every candidate is **committed in proposal order** through cache →
/// pruning → pipeline result ([`TrialScheduler::evaluate`] is that
/// commit for one config). Speculation only pre-computes the pure
/// `objective.evaluate` results, so trial records, pruning decisions,
/// stats and the early-stop point do not depend on the width.
///
/// [`TrialScheduler::run`] and [`TrialScheduler::run_grid`] are that
/// loop at width 1 (a wave holds one pipeline run, executed inline with
/// the engine's whole pool); [`TrialScheduler::run_batched`],
/// [`TrialScheduler::run_grid_batched`] and
/// [`TrialScheduler::run_configs`] run it at width
/// [`TrialScheduler::batch`].
pub struct TrialScheduler<'a> {
    objective: &'a Objective<'a>,
    space: ConfigSpace,
    /// Enable the Table 10 pruning tactics.
    pub pruning: bool,
    /// Stop after the top-5 MFU set is unchanged for this many
    /// consecutive non-OOM configs (paper: 20). `None` disables.
    pub early_stop_patience: Option<usize>,
    /// Wave width for every entry point but [`TrialScheduler::run`] and
    /// [`TrialScheduler::run_grid`]: how many un-answered candidates
    /// may execute concurrently in one wave.
    pub batch: usize,
    cache: HashMap<ConfigPoint, TrialOutcome>,
    trials: Vec<TrialRecord>,
    convergence: Vec<f64>,
    top5: Vec<f64>,
    stable_streak: usize,
    /// Best completed config in commit order (first strict improvement
    /// wins — deterministic, unlike scanning the cache map).
    best: Option<(ConfigPoint, TrialOutcome)>,
    /// Progress observer, notified at commit points.
    observer: Option<Box<dyn SearchObserver + 'a>>,
    /// Cooperative stop signal, checked at commit boundaries.
    cancel: Option<CancelToken>,
    /// Trials already reported through `wave_committed`.
    notified: usize,
}

impl<'a> TrialScheduler<'a> {
    /// Creates a scheduler over the default Table 5 space. The default
    /// speculation width keeps the objective's engine pool saturated.
    pub fn new(objective: &'a Objective<'a>) -> Self {
        let pool = objective.engine.spec().emulation_threads.max(1);
        TrialScheduler {
            objective,
            space: ConfigSpace::default(),
            pruning: true,
            early_stop_patience: Some(20),
            batch: pool * 2,
            cache: HashMap::new(),
            trials: Vec::new(),
            convergence: Vec::new(),
            top5: Vec::new(),
            stable_streak: 0,
            best: None,
            observer: None,
            cancel: None,
            notified: 0,
        }
    }

    /// Replaces the search space.
    pub fn with_space(mut self, space: ConfigSpace) -> Self {
        self.space = space;
        self
    }

    /// Sets the wave width (min 1).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Installs a progress observer (see [`SearchObserver`]). The
    /// observer never changes what the search computes — only what it
    /// reports while computing.
    pub fn with_observer(mut self, observer: Box<dyn SearchObserver + 'a>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Arms cooperative cancellation: when the token fires, the search
    /// stops at the next commit boundary and returns a result whose
    /// trial records are exactly a prefix of the uncancelled run's.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Whether the cancel token (if any) has fired.
    fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Notifies the observer of the just-committed trial.
    fn notify_commit(&mut self) {
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.trial_committed(
                self.trials.last().expect("a trial was just committed"),
                self.best.as_ref(),
            );
        }
    }

    /// Notifies the observer of a batch boundary (only when new trials
    /// were committed since the last notification).
    fn notify_wave(&mut self) {
        if self.trials.len() > self.notified {
            self.notified = self.trials.len();
            let committed = self.notified;
            if let Some(obs) = self.observer.as_deref_mut() {
                obs.wave_committed(committed);
            }
        }
    }

    /// The Table 10 tactics as data: every twin of `c` whose outcome
    /// would settle `c`'s, each with the test that outcome must pass to
    /// be inherited, in the order the tactics apply. Read by the
    /// pruning decision and by the wave cut, so the two cannot drift.
    fn twins(&self, c: ConfigPoint) -> impl Iterator<Item = (ConfigPoint, Inherits)> + '_ {
        let (oom, fit): (Inherits, Inherits) =
            (|o| *o == TrialOutcome::Oom, TrialOutcome::completed);
        let fixed = [
            // Recomputation strictly reduces memory: if the
            // recompute-enabled twin OOMed, this one will too.
            (!c.activation_recompute).then_some((
                ConfigPoint {
                    activation_recompute: true,
                    ..c
                },
                oom,
            )),
            // Sequence parallelism strictly reduces memory at no
            // communication cost. Same reasoning.
            (!c.sequence_parallel && c.tp > 1).then_some((
                ConfigPoint {
                    sequence_parallel: true,
                    ..c
                },
                oom,
            )),
            // The distributed optimizer only reduces memory (same
            // runtime to first order): if the non-sharded twin fit,
            // reuse its runtime.
            c.distributed_optimizer.then_some((
                ConfigPoint {
                    distributed_optimizer: false,
                    ..c
                },
                fit,
            )),
        ];
        // Without pipeline parallelism, more microbatches only lose
        // efficiency: reuse a smaller count's runtime.
        let fewer_microbatches = self
            .space
            .microbatch_multiplier
            .iter()
            .filter(move |&&m| {
                c.pp == 1 && c.microbatch_multiplier > 1 && m < c.microbatch_multiplier
            })
            .map(move |&m| {
                let twin = ConfigPoint {
                    microbatch_multiplier: m,
                    ..c
                };
                (twin, fit)
            });
        fixed
            .into_iter()
            .flatten()
            .chain(fewer_microbatches)
            .filter(|_| self.pruning)
    }

    /// Can this config's outcome be derived from an already-evaluated
    /// twin? `overlay` supplies outcomes decided earlier in a wave that
    /// are not yet committed to the cache.
    fn prune(
        &self,
        c: &ConfigPoint,
        overlay: Option<&HashMap<ConfigPoint, TrialOutcome>>,
    ) -> Option<TrialOutcome> {
        self.twins(*c).find_map(|(twin, inherits)| {
            overlay
                .and_then(|o| o.get(&twin))
                .or_else(|| self.cache.get(&twin))
                .copied()
                .filter(inherits)
        })
    }

    /// Evaluates one config through cache -> pruning -> pipeline.
    pub fn evaluate(&mut self, c: &ConfigPoint) -> TrialOutcome {
        self.commit(c, None)
    }

    /// The decision path every trial takes. `executed` is the wave's
    /// pre-computed pipeline result for `c`, if it has one; the
    /// objective is a pure function, so using it cannot change the
    /// outcome, only skip redundant work.
    fn commit(&mut self, c: &ConfigPoint, executed: Option<TrialOutcome>) -> TrialOutcome {
        if let Some(o) = self.cache.get(c) {
            let o = *o;
            self.trials.push(TrialRecord {
                config: *c,
                outcome: o,
                provenance: Provenance::Cached,
            });
            self.notify_commit();
            return o;
        }
        let (outcome, provenance) = match self.prune(c, None) {
            Some(o) => (o, Provenance::Skipped),
            None => (
                executed.unwrap_or_else(|| self.objective.evaluate(c)),
                Provenance::Executed,
            ),
        };
        self.cache.insert(*c, outcome);
        self.trials.push(TrialRecord {
            config: *c,
            outcome,
            provenance,
        });
        if outcome.completed()
            && self
                .best
                .as_ref()
                .map(|(_, b)| Self::fitness(&outcome) < Self::fitness(b))
                .unwrap_or(true)
        {
            self.best = Some((*c, outcome));
        }
        // Track convergence + early stopping on unique valid configs.
        if outcome != TrialOutcome::Invalid {
            let mfu = outcome.mfu().unwrap_or(0.0);
            let before = self.top5.clone();
            self.top5.push(mfu);
            self.top5
                .sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
            self.top5.truncate(5);
            if !matches!(outcome, TrialOutcome::Oom) {
                if self.top5 == before {
                    self.stable_streak += 1;
                } else {
                    self.stable_streak = 0;
                }
            }
            let best = self.convergence.last().copied().unwrap_or(0.0).max(mfu);
            self.convergence.push(best);
        }
        self.notify_commit();
        outcome
    }

    /// The loop (see the type docs): evaluates `configs` in proposal
    /// order, [`TrialScheduler::batch`] pipeline runs to a wave. Stops
    /// before the first commit the early-stop rule or the cancel token
    /// forbids; the returned outcomes cover the committed prefix.
    fn evaluate_speculative(&mut self, configs: &[ConfigPoint]) -> Vec<TrialOutcome> {
        let width = self.batch.max(1);
        let mut out = Vec::with_capacity(configs.len());
        let mut i = 0usize;
        while i < configs.len() && !self.halted() {
            // Build one wave: walk forward deciding, from current
            // knowledge, which candidates need a pipeline run. Cut when
            // a candidate's answer could depend on an outcome that is
            // still in flight (duplicate of a wave member, or a pruning
            // twin of one).
            let mut overlay: HashMap<ConfigPoint, TrialOutcome> = HashMap::new();
            let mut wave: Vec<ConfigPoint> = Vec::new();
            let mut span = 0usize;
            for &c in &configs[i..] {
                let known = overlay.contains_key(&c) || self.cache.contains_key(&c);
                if !known {
                    if wave.contains(&c) || self.twins(c).any(|(t, _)| wave.contains(&t)) {
                        break;
                    }
                    if let Some(o) = self.prune(&c, Some(&overlay)) {
                        overlay.insert(c, o);
                    } else {
                        wave.push(c);
                        if wave.len() >= width {
                            span += 1;
                            break;
                        }
                    }
                }
                span += 1;
            }
            // Fan the wave's pipeline runs across the engine pool. A
            // cancellation observed mid-wave discards the whole wave
            // (all-or-nothing), so nothing half-evaluated can commit.
            let executed: HashMap<ConfigPoint, TrialOutcome> = if wave.len() > 1 {
                match self
                    .objective
                    .evaluate_batch_with(&wave, self.cancel.as_ref())
                {
                    Some(outcomes) => wave.into_iter().zip(outcomes).collect(),
                    None => break, // cancelled: prior waves stand
                }
            } else {
                HashMap::new() // single run: let the commit path do it inline
            };
            for c in &configs[i..i + span] {
                if self.halted() {
                    break;
                }
                out.push(self.commit(c, executed.get(c).copied()));
            }
            self.notify_wave();
            i += span;
        }
        out
    }

    /// The trial-status breakdown of the trials committed so far.
    fn stats(&self) -> SearchStats {
        self.trials
            .iter()
            .fold(SearchStats::default(), |mut stats, t| {
                match (t.provenance, t.outcome) {
                    (Provenance::Cached, _) => stats.cached += 1,
                    (Provenance::Skipped, _) => stats.skipped += 1,
                    (Provenance::Executed, TrialOutcome::Invalid) => stats.invalid += 1,
                    (Provenance::Executed, _) => stats.executed += 1,
                }
                stats
            })
    }

    /// Whether the early-stopping rule fired.
    pub fn should_stop(&self) -> bool {
        match self.early_stop_patience {
            Some(p) => self.stable_streak >= p,
            None => false,
        }
    }

    /// Whether nothing more may commit: the early-stop rule or the
    /// cancel token fired.
    fn halted(&self) -> bool {
        self.should_stop() || self.cancelled()
    }

    /// Fitness for the optimizer: cost (lower is better); invalid and
    /// OOM configs are pushed far away.
    fn fitness(outcome: &TrialOutcome) -> f64 {
        match outcome {
            TrialOutcome::Completed { cost, .. } => *cost,
            TrialOutcome::Oom => 1e6,
            TrialOutcome::Invalid => 1e7,
        }
    }

    /// Runs a search with the given algorithm and sample budget, one
    /// pipeline run at a time: [`TrialScheduler::run_batched`] at
    /// width 1.
    pub fn run(self, kind: AlgorithmKind, budget: usize, seed: u64) -> SearchResult {
        self.with_batch(1).run_batched(kind, budget, seed)
    }

    /// Runs a search with the given algorithm and sample budget, up to
    /// [`TrialScheduler::batch`] pipeline runs at a time through the
    /// engine's worker pool.
    ///
    /// The result — best config, trial records, stats, convergence,
    /// early-stop point — does not depend on the width; only wall-clock
    /// does.
    pub fn run_batched(mut self, kind: AlgorithmKind, budget: usize, seed: u64) -> SearchResult {
        if kind == AlgorithmKind::Grid {
            // Grid walks the actual discrete knob space (not a unit-cube
            // lattice), in enumeration order, up to the budget.
            let configs: Vec<ConfigPoint> =
                self.space.enumerate().into_iter().take(budget).collect();
            return self.run_configs(&configs);
        }
        // lint:allow(wall-clock-in-output): wall_time telemetry field only — trial selection is seed-driven
        let t0 = Instant::now();
        let mut alg = kind.build(ConfigSpace::DIMS, seed);
        let mut samples = 0usize;
        while samples < budget && !alg.exhausted() && !self.halted() {
            let asks = alg.ask();
            if asks.is_empty() {
                break;
            }
            let configs: Vec<ConfigPoint> = asks.iter().map(|x| self.space.from_unit(x)).collect();
            let outcomes = self.evaluate_speculative(&configs);
            samples += outcomes.len();
            // Stopped mid-batch: fill the remaining slots so tell()'s
            // shapes match.
            let mut fitness: Vec<f64> = outcomes.iter().map(Self::fitness).collect();
            fitness.resize(asks.len(), 1e7);
            alg.tell(&asks, &fitness);
        }
        self.into_result(t0)
    }

    /// Evaluates a caller-supplied list of configs in order — the loop
    /// with nothing proposing — and seals the result. The early-stop
    /// rule applies as configured.
    pub fn run_configs(mut self, configs: &[ConfigPoint]) -> SearchResult {
        // lint:allow(wall-clock-in-output): wall_time telemetry field only — evaluation order is the caller's
        let t0 = Instant::now();
        self.evaluate_speculative(configs);
        self.into_result(t0)
    }

    fn into_result(mut self, t0: Instant) -> SearchResult {
        // Final flush: any trials committed since the last wave
        // boundary are reported before the result is sealed, so an
        // observer's cumulative view always equals `trials`.
        self.notify_wave();
        let stats = self.stats();
        SearchResult {
            best: self.best,
            trials: self.trials,
            stats,
            wall: t0.elapsed(),
            convergence: self.convergence,
        }
    }

    /// Exhaustively evaluates the whole space (the paper's grid-search
    /// reference for Fig. 11b), one pipeline run at a time.
    pub fn run_grid(self) -> SearchResult {
        self.with_batch(1).run_grid_batched()
    }

    /// Exhaustively evaluates the whole space,
    /// [`TrialScheduler::batch`] pipeline runs at a time.
    pub fn run_grid_batched(mut self) -> SearchResult {
        self.early_stop_patience = None;
        let configs = self.space.enumerate();
        self.run_configs(&configs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya::{EmulationSpec, MayaBuilder, PredictionEngine};
    use maya_hw::ClusterSpec;
    use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
    use maya_trace::Dtype;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// An oracle engine emulating on `threads` OS threads.
    fn threaded(cluster: ClusterSpec, threads: usize) -> PredictionEngine {
        let spec = EmulationSpec::new(cluster.clone()).with_emulation_threads(threads);
        MayaBuilder::new(cluster).with_spec(spec).build().unwrap()
    }

    fn fixture() -> (PredictionEngine, TrainingJob) {
        let cluster = ClusterSpec::h100(1, 4);
        let maya = MayaBuilder::new(cluster).build().unwrap();
        let template = TrainingJob {
            model: ModelSpec::gpt3_125m(),
            parallel: ParallelConfig::default(),
            flavor: FrameworkFlavor::Megatron,
            compile: false,
            global_batch: 32,
            world: 4,
            gpus_per_node: 8,
            precision: Dtype::Bf16,
            iterations: 1,
        };
        (maya, template)
    }

    fn small_space() -> ConfigSpace {
        ConfigSpace {
            tp: vec![1, 2],
            pp: vec![1, 2],
            microbatch_multiplier: vec![1, 2],
            virtual_stages: vec![1],
            activation_recompute: vec![true, false],
            sequence_parallel: vec![false],
            distributed_optimizer: vec![true, false],
        }
    }

    #[test]
    fn invalid_configs_fail_fast_without_touching_pipeline() {
        // Every config in this space violates gpt3-125m's 12-head
        // divisibility, so validation must reject each trial up front —
        // including trial 1 — without the pipeline ever running. A
        // regression here (e.g. validation deferred into the simulator)
        // shows up as estimator-cache misses.
        let (maya, template) = fixture();
        let obj = Objective::new(&maya, template);
        let space = ConfigSpace {
            tp: vec![8, 16],
            pp: vec![1],
            microbatch_multiplier: vec![1],
            virtual_stages: vec![1],
            activation_recompute: vec![false],
            sequence_parallel: vec![false],
            distributed_optimizer: vec![false],
        };
        let sched = TrialScheduler::new(&obj).with_space(space);
        let result = sched.run(AlgorithmKind::Grid, 8, 0);
        assert!(!result.trials.is_empty());
        assert_eq!(
            result.trials[0].outcome,
            TrialOutcome::Invalid,
            "trial 1 must fail fast"
        );
        assert!(result
            .trials
            .iter()
            .all(|t| t.outcome == TrialOutcome::Invalid));
        assert_eq!(result.stats.executed, 0);
        assert!(result.best.is_none());
        assert_eq!(
            maya.cache_stats().misses,
            0,
            "invalid configs must never reach estimation or simulation"
        );
    }

    #[test]
    fn cache_avoids_reexecution() {
        let (maya, template) = fixture();
        let obj = Objective::new(&maya, template);
        let mut sched = TrialScheduler::new(&obj).with_space(small_space());
        let c = ParallelConfig::default();
        sched.evaluate(&c);
        sched.evaluate(&c);
        assert_eq!(sched.stats().executed, 1);
        assert_eq!(sched.stats().cached, 1);
    }

    #[test]
    fn distributed_optimizer_tactic_skips() {
        let (maya, template) = fixture();
        let obj = Objective::new(&maya, template);
        let mut sched = TrialScheduler::new(&obj).with_space(small_space());
        let base = ParallelConfig {
            tp: 2,
            ..Default::default()
        };
        let with_dopt = ParallelConfig {
            distributed_optimizer: true,
            ..base
        };
        let a = sched.evaluate(&base);
        let b = sched.evaluate(&with_dopt);
        assert_eq!(sched.stats().skipped, 1);
        assert_eq!(a.time(), b.time(), "tactic copies the runtime");
    }

    #[test]
    fn recompute_oom_tactic_propagates() {
        let (maya, mut template) = fixture();
        // Make it OOM even with recompute: too-large model for 1 GPU.
        template.model = ModelSpec::gpt3_2_7b();
        template.global_batch = 256;
        let obj = Objective::new(&maya, template);
        let mut sched = TrialScheduler::new(&obj).with_space(small_space());
        let recomp = ParallelConfig {
            activation_recompute: true,
            ..Default::default()
        };
        let no_recomp = ParallelConfig::default();
        assert_eq!(sched.evaluate(&recomp), TrialOutcome::Oom);
        assert_eq!(sched.evaluate(&no_recomp), TrialOutcome::Oom);
        assert_eq!(
            sched.stats().skipped,
            1,
            "second one inferred, not executed"
        );
        assert_eq!(sched.stats().executed, 1);
    }

    #[test]
    fn stats_are_a_count_of_the_trial_records() {
        let (maya, template) = fixture();
        let obj = Objective::new(&maya, template);
        let base = ParallelConfig::default();
        let tp2 = ParallelConfig { tp: 2, ..base };
        let configs = [
            ParallelConfig { tp: 8, ..base },
            base,
            base,
            tp2,
            ParallelConfig {
                distributed_optimizer: true,
                ..tp2
            },
        ];
        let result = TrialScheduler::new(&obj)
            .with_space(small_space())
            .run_configs(&configs);
        let count = |provenance: Provenance, invalid: Option<bool>| {
            result
                .trials
                .iter()
                .filter(|t| t.provenance == provenance)
                .filter(|t| invalid.map_or(true, |i| (t.outcome == TrialOutcome::Invalid) == i))
                .count()
        };
        assert_eq!(
            result.stats,
            SearchStats {
                executed: count(Provenance::Executed, Some(false)),
                cached: count(Provenance::Cached, None),
                skipped: count(Provenance::Skipped, None),
                invalid: count(Provenance::Executed, Some(true)),
            }
        );
        assert_eq!(
            result.stats,
            SearchStats {
                executed: 2,
                cached: 1,
                skipped: 1,
                invalid: 1
            },
            "the search has every kind of trial"
        );
    }

    #[test]
    fn grid_search_finds_a_best_config() {
        let (maya, template) = fixture();
        let obj = Objective::new(&maya, template);
        let sched = TrialScheduler::new(&obj).with_space(small_space());
        let result = sched.run_grid();
        let (best, outcome) = result.best.expect("some config completes");
        assert!(outcome.completed());
        assert!(best.tp * best.pp <= 4);
        assert!(result.stats.executed > 0);
        // Convergence curve is monotone.
        for w in result.convergence.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn cma_search_matches_grid_within_tolerance() {
        let (maya, template) = fixture();
        let obj = Objective::new(&maya, template);
        let grid = TrialScheduler::new(&obj)
            .with_space(small_space())
            .run_grid();
        let cma =
            TrialScheduler::new(&obj)
                .with_space(small_space())
                .run(AlgorithmKind::CmaEs, 120, 7);
        let gt = grid.best_time().unwrap().as_secs_f64();
        let ct = cma.best_time().unwrap().as_secs_f64();
        assert!(ct <= gt * 1.10, "cma {ct} vs grid {gt}");
    }

    fn assert_results_identical(seq: &SearchResult, par: &SearchResult, label: &str) {
        assert_eq!(
            seq.best.as_ref().map(|(c, _)| *c),
            par.best.as_ref().map(|(c, _)| *c),
            "{label}: best config"
        );
        assert_eq!(
            seq.best.as_ref().map(|(_, o)| *o),
            par.best.as_ref().map(|(_, o)| *o),
            "{label}: best outcome"
        );
        assert_eq!(seq.stats, par.stats, "{label}: stats");
        assert_eq!(seq.trials, par.trials, "{label}: trial records");
        assert_eq!(seq.convergence, par.convergence, "{label}: convergence");
    }

    /// The sequential loop the wave loop replaced, kept as the oracle
    /// the one loop is held to at every width.
    fn sequential_oracle(
        mut sched: TrialScheduler,
        kind: AlgorithmKind,
        budget: usize,
        seed: u64,
    ) -> SearchResult {
        let t0 = Instant::now();
        if kind == AlgorithmKind::Grid {
            for c in sched.space.enumerate().into_iter().take(budget) {
                if sched.should_stop() {
                    break;
                }
                sched.evaluate(&c);
            }
            return sched.into_result(t0);
        }
        let mut alg = kind.build(ConfigSpace::DIMS, seed);
        let mut samples = 0usize;
        while samples < budget && !alg.exhausted() && !sched.should_stop() {
            let asks = alg.ask();
            if asks.is_empty() {
                break;
            }
            let mut fitness = Vec::with_capacity(asks.len());
            for x in &asks {
                let config = sched.space.from_unit(x);
                let outcome = sched.evaluate(&config);
                fitness.push(TrialScheduler::fitness(&outcome));
                samples += 1;
                if sched.should_stop() {
                    break;
                }
            }
            fitness.resize(asks.len(), 1e7);
            alg.tell(&asks, &fitness);
        }
        sched.into_result(t0)
    }

    #[test]
    fn batched_search_identical_to_sequential() {
        let cluster = ClusterSpec::h100(1, 4);
        let seq_maya = MayaBuilder::new(cluster.clone()).build().unwrap();
        let par_maya = threaded(cluster, 4);
        let template = fixture().1;
        let seq_obj = Objective::new(&seq_maya, template);
        let par_obj = Objective::new(&par_maya, template);
        for kind in AlgorithmKind::all() {
            let oracle = sequential_oracle(
                TrialScheduler::new(&seq_obj).with_space(small_space()),
                kind,
                60,
                9,
            );
            assert!(oracle.stats.executed > 0, "{kind:?} executed nothing");
            let cut_at = oracle.trials.len() / 2;
            for width in [1usize, 2, 3, 8] {
                let label = format!("{kind:?} at width {width}");
                let seen = Rc::new(RefCell::new(Recorder::new()));
                let sched = TrialScheduler::new(&par_obj)
                    .with_space(small_space())
                    .with_batch(width)
                    .with_observer(Box::new(Tee(Rc::clone(&seen))));
                // `run` is the same loop with the width forced to 1.
                let result = if width == 1 {
                    sched.run(kind, 60, 9)
                } else {
                    sched.run_batched(kind, 60, 9)
                };
                assert_results_identical(&oracle, &result, &label);
                assert_eq!(seen.borrow().records, oracle.trials, "{label}: stream");
                assert_eq!(
                    seen.borrow().waves.last().copied(),
                    Some(oracle.trials.len()),
                    "{label}: the last wave notification covers every trial"
                );

                let token = CancelToken::new();
                let cut = TrialScheduler::new(&par_obj)
                    .with_space(small_space())
                    .with_batch(width)
                    .with_observer(Box::new(Recorder::cancelling_after(cut_at, token.clone())))
                    .with_cancel(token)
                    .run_batched(kind, 60, 9);
                assert_eq!(
                    cut.trials,
                    oracle.trials[..cut_at],
                    "{label}: cancel after {cut_at}"
                );
            }
        }
    }

    #[test]
    fn batched_grid_identical_to_sequential_grid() {
        let cluster = ClusterSpec::h100(1, 4);
        let seq_maya = MayaBuilder::new(cluster.clone()).build().unwrap();
        let par_maya = threaded(cluster, 4);
        let template = fixture().1;
        let seq_obj = Objective::new(&seq_maya, template);
        let seq = TrialScheduler::new(&seq_obj)
            .with_space(small_space())
            .run_grid();
        let par_obj = Objective::new(&par_maya, template);
        let par = TrialScheduler::new(&par_obj)
            .with_space(small_space())
            .with_batch(6)
            .run_grid_batched();
        assert_results_identical(&seq, &par, "exhaustive grid");
    }

    #[test]
    fn batched_early_stop_fires_at_the_same_trial() {
        let cluster = ClusterSpec::h100(1, 4);
        let seq_maya = MayaBuilder::new(cluster.clone()).build().unwrap();
        let par_maya = threaded(cluster, 4);
        let template = fixture().1;
        let seq_obj = Objective::new(&seq_maya, template);
        let par_obj = Objective::new(&par_maya, template);
        // Patience 0 means "stopped before the first trial", whichever
        // algorithm proposes it and whatever the width.
        for (kind, patience, stops_after) in [
            (AlgorithmKind::Random, 5, None),
            (AlgorithmKind::Random, 0, Some(0)),
            (AlgorithmKind::Grid, 0, Some(0)),
        ] {
            let mut seq_sched = TrialScheduler::new(&seq_obj).with_space(small_space());
            seq_sched.early_stop_patience = Some(patience);
            let seq = seq_sched.run(kind, 10_000, 3);
            let mut par_sched = TrialScheduler::new(&par_obj)
                .with_space(small_space())
                .with_batch(8);
            par_sched.early_stop_patience = Some(patience);
            let par = par_sched.run_batched(kind, 10_000, 3);
            assert_eq!(seq.trials.len(), par.trials.len(), "stop point must match");
            assert_results_identical(&seq, &par, &format!("{kind:?}, patience {patience}"));
            if let Some(n) = stops_after {
                assert_eq!(seq.trials.len(), n, "{kind:?}, patience {patience}");
            }
        }
    }

    /// Records every observation; optionally fires a cancel token after
    /// a fixed number of committed trials.
    struct Recorder {
        records: Vec<TrialRecord>,
        waves: Vec<usize>,
        cancel_after: Option<(usize, CancelToken)>,
    }

    impl Recorder {
        fn new() -> Self {
            Recorder {
                records: Vec::new(),
                waves: Vec::new(),
                cancel_after: None,
            }
        }

        fn cancelling_after(n: usize, token: CancelToken) -> Self {
            Recorder {
                cancel_after: Some((n, token)),
                ..Recorder::new()
            }
        }
    }

    impl SearchObserver for Recorder {
        fn trial_committed(
            &mut self,
            record: &TrialRecord,
            _best: Option<&(ConfigPoint, TrialOutcome)>,
        ) {
            self.records.push(*record);
            if let Some((n, token)) = &self.cancel_after {
                if self.records.len() >= *n {
                    token.cancel();
                }
            }
        }

        fn wave_committed(&mut self, committed: usize) {
            self.waves.push(committed);
        }
    }

    /// Lets a test keep reading a [`Recorder`] the scheduler owns.
    struct Tee(Rc<RefCell<Recorder>>);

    impl SearchObserver for Tee {
        fn trial_committed(&mut self, r: &TrialRecord, b: Option<&(ConfigPoint, TrialOutcome)>) {
            self.0.borrow_mut().trial_committed(r, b);
        }
        fn wave_committed(&mut self, n: usize) {
            self.0.borrow_mut().wave_committed(n);
        }
    }

    #[test]
    fn observer_sees_every_committed_trial_in_order() {
        let cluster = ClusterSpec::h100(1, 4);
        let maya = threaded(cluster, 4);
        let template = fixture().1;
        let obj = Objective::new(&maya, template);
        let observed = Rc::new(RefCell::new(Recorder::new()));
        let result = TrialScheduler::new(&obj)
            .with_space(small_space())
            .with_batch(4)
            .with_observer(Box::new(Tee(Rc::clone(&observed))))
            .run_batched(AlgorithmKind::Random, 40, 9);
        let observed = observed.borrow();
        assert_eq!(
            observed.records, result.trials,
            "the observer's stream must equal the final trial records"
        );
        assert!(
            observed.waves.windows(2).all(|w| w[0] < w[1]),
            "wave counts must be strictly increasing: {:?}",
            observed.waves
        );
        assert_eq!(
            observed.waves.last().copied(),
            Some(result.trials.len()),
            "the final wave notification must cover every trial"
        );
    }

    #[test]
    fn cancelled_search_returns_the_exact_uncancelled_prefix() {
        let cluster = ClusterSpec::h100(1, 4);
        let template = fixture().1;
        // Reference: the full, uncancelled run.
        let ref_maya = MayaBuilder::new(cluster.clone()).build().unwrap();
        let ref_obj = Objective::new(&ref_maya, template);
        let full = TrialScheduler::new(&ref_obj).with_space(small_space()).run(
            AlgorithmKind::Random,
            40,
            9,
        );
        assert!(full.trials.len() >= 12, "need enough trials to cut");

        for n in [1usize, 5, 11] {
            for batched in [false, true] {
                let maya = threaded(cluster.clone(), 4);
                let obj = Objective::new(&maya, template);
                let token = CancelToken::new();
                let sched = TrialScheduler::new(&obj)
                    .with_space(small_space())
                    .with_batch(4)
                    .with_observer(Box::new(Recorder::cancelling_after(n, token.clone())))
                    .with_cancel(token);
                let cut = if batched {
                    sched.run_batched(AlgorithmKind::Random, 40, 9)
                } else {
                    sched.run(AlgorithmKind::Random, 40, 9)
                };
                assert_eq!(
                    cut.trials,
                    full.trials[..n],
                    "cancel after {n} (batched={batched}) must return exactly \
                     the first {n} records of the uncancelled run"
                );
                assert_eq!(cut.convergence, {
                    // Convergence grows once per *uncached* valid commit.
                    let valid = full.trials[..n]
                        .iter()
                        .filter(|t| {
                            t.provenance != Provenance::Cached && t.outcome != TrialOutcome::Invalid
                        })
                        .count();
                    full.convergence[..valid].to_vec()
                });
            }
        }
    }

    #[test]
    fn pre_cancelled_search_commits_nothing() {
        let (maya, template) = fixture();
        let obj = Objective::new(&maya, template);
        let token = CancelToken::new();
        token.cancel();
        let result = TrialScheduler::new(&obj)
            .with_space(small_space())
            .with_cancel(token)
            .run_batched(AlgorithmKind::Grid, 40, 0);
        assert!(result.trials.is_empty());
        assert!(result.best.is_none());
    }

    #[test]
    fn early_stopping_fires_on_small_spaces() {
        let (maya, template) = fixture();
        let obj = Objective::new(&maya, template);
        let mut sched = TrialScheduler::new(&obj).with_space(small_space());
        sched.early_stop_patience = Some(5);
        let result = sched.run(AlgorithmKind::Random, 10_000, 3);
        assert!(
            result.trials.len() < 10_000,
            "early stop should cut the budget, ran {}",
            result.trials.len()
        );
    }
}
