//! Workload 4: the paper's use case — a configuration search made of
//! hundreds of small warm-memo trials. One sample is one *round*: three
//! searches (CMA-ES, random, grid) run one after another, each on a
//! fresh engine, over the default Table 5 space.

use std::sync::Arc;

use maya::{EmulationSpec, PredictionEngine};
use maya_estimator::{CachingEstimator, RuntimeEstimator};
use maya_hw::ClusterSpec;
use maya_search::{
    AlgorithmKind, Objective, Provenance, SearchResult, SearchStats, TrialOutcome, TrialRecord,
    TrialScheduler,
};
use maya_sim::SimScratch;
use maya_torchlet::{ModelSpec, ParallelConfig, TrainingJob};

use crate::digest::{check_golden, feed_search, Fnv};
use crate::metrics::MetricSet;
use crate::probes::layer_probes;
use crate::replay::{replay, replay_cold, Stages};
use crate::spans::Recorder;
use crate::stats::{median, speed_factor, timed};
use crate::trace_out::{
    finish_trace, record_cache, record_engine_stages, stage_seconds, TracedSamples,
};
use crate::workloads::{
    record_latency, report_accuracy, sample_for, setup_repeated, train_forest, training_job,
    Outcome, RunConfig, Tally,
};

/// The round's searches with their trial budgets (default pruning and
/// early stop).
const SEARCHES: [(AlgorithmKind, usize); 3] = [
    (AlgorithmKind::CmaEs, 400),
    (AlgorithmKind::Random, 300),
    (AlgorithmKind::Grid, 2000),
];

/// The optimizers' seed is fixed. Under seeds 1–5 CMA-ES executed 43 to
/// 82 trials and a round took 1.33 to 1.92 s: another optimizer seed is
/// another amount of work, not another input to the same work, and the
/// bound on `latency_p50_ms` could not hold across seeds. `--seed`
/// still moves every objective value, through the forest it trains.
const OPTIMIZER_SEED: u64 = 1;

/// How many of the fastest CMA-ES trials the accuracy check measures on
/// the ground-truth testbed (the paper's Fig. 7 protocol).
const ACCURACY_TRIALS: usize = 12;

struct Case {
    spec: EmulationSpec,
    template: TrainingJob,
    /// Budgets divided by this on a smoke run.
    budget_divisor: usize,
}

impl Case {
    fn job_for(&self, config: ParallelConfig) -> TrainingJob {
        TrainingJob {
            parallel: config,
            ..self.template
        }
    }
}

fn case(cfg: &RunConfig) -> Case {
    let cluster = ClusterSpec::h100(4, 8);
    Case {
        template: training_job(
            ModelSpec::gpt3_18_4b(),
            &cluster,
            ParallelConfig::default(),
            128,
        ),
        spec: EmulationSpec::new(cluster).with_selective_launch(true),
        budget_divisor: if cfg.smoke { 10 } else { 1 },
    }
}

struct Ready {
    est: Arc<dyn RuntimeEstimator>,
    train_s: f64,
}

fn run_search(
    case: &Case,
    spec: &EmulationSpec,
    est: &Arc<dyn RuntimeEstimator>,
    (kind, budget): (AlgorithmKind, usize),
    batched: bool,
) -> SearchResult {
    let engine = PredictionEngine::new(spec.clone(), Arc::clone(est));
    let objective = Objective::new(&engine, case.template);
    let scheduler = TrialScheduler::new(&objective);
    let budget = budget / case.budget_divisor;
    if batched {
        scheduler.run_batched(kind, budget, OPTIMIZER_SEED)
    } else {
        scheduler.run(kind, budget, OPTIMIZER_SEED)
    }
}

fn round(case: &Case, est: &Arc<dyn RuntimeEstimator>) -> Vec<SearchResult> {
    SEARCHES
        .iter()
        .map(|&s| run_search(case, &case.spec, est, s, false))
        .collect()
}

fn round_digest(results: &[SearchResult]) -> u64 {
    let mut h = Fnv::default();
    for r in results {
        feed_search(&mut h, r);
    }
    h.finish()
}

/// The trials of one search that ran the pipeline.
fn executed(result: &SearchResult) -> impl Iterator<Item = &TrialRecord> {
    result
        .trials
        .iter()
        .filter(|t| t.provenance == Provenance::Executed && t.outcome != TrialOutcome::Invalid)
}

/// Replays every executed trial of a round stage by stage — a fresh
/// memo and one arena per search, as the engine has — and checks each
/// replayed outcome against the one the search recorded.
fn replay_round(
    case: &Case,
    est: &Arc<dyn RuntimeEstimator>,
    results: &[SearchResult],
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<Stages, String> {
    let mut total = Stages::default();
    for result in results {
        let memo = CachingEstimator::new(Arc::clone(est));
        let mut scratch = SimScratch::new();
        for trial in executed(result) {
            let job = case.job_for(trial.config);
            let replayed = replay(&job, &case.spec, &memo, &mut scratch, rec)?;
            total.add(&replayed.stages);
            let replayed_time = replayed.report.map(|r| r.total_time);
            tally.check(replayed_time == trial.outcome.time(), || {
                format!(
                    "trial {}: search recorded {:?}, stage replay gives {replayed_time:?}",
                    trial.config, trial.outcome
                )
            });
        }
    }
    Ok(total)
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let case = case(cfg);
    let mut tally = Tally::default();
    let mut m = MetricSet::default();
    let (ready, setup_s) = setup_repeated(cfg.setup_reps(), || {
        let (est, train_s) = train_forest(&case.spec.cluster, cfg);
        Ok(Ready { est, train_s })
    })?;

    if !cfg.trace {
        m.set("setup_s", setup_s, cfg.setup_reps());
        let samples = sample_for(cfg.budget(6), |_| Ok(round(&case, &ready.est)))?;
        record_latency(&mut m, &samples.calibrated_s, &samples.raw_s, None);
        let first = round_digest(&samples.results[0]);
        for (i, r) in samples.results.iter().enumerate() {
            let d = round_digest(r);
            tally.check(d == first, || {
                format!("round {i} digest {d:x} differs from the first {first:x}")
            });
        }
        check_golden(cfg, first, &mut tally)?;
        replay_round(
            &case,
            &ready.est,
            &samples.results[0],
            &mut Recorder::default(),
            &mut tally,
        )?;
    } else {
        trace_run(&case, cfg, &ready, &mut tally, &mut m)?;
    }
    Ok(tally.into_outcome(m))
}

/// The traced run. Per sample: the real round; the round's executed
/// configs again, in order, through `predict_job` on fresh engines (what
/// is left of the round after that is the search layer's own time); the
/// same configs stage by stage; and an untraced round.
fn trace_run(
    case: &Case,
    cfg: &RunConfig,
    ready: &Ready,
    tally: &mut Tally,
    m: &mut MetricSet,
) -> Result<(), String> {
    let started = std::time::Instant::now();
    let (seconds, min_samples) = cfg.trace_budget(2);
    let mut rec = Recorder::default();
    let mut traced = TracedSamples::default();
    let mut stages = Stages::default();
    let mut stage_timings = [0.0f64; 4];
    let mut first_round = None;

    // The probes go first so the samples fill what is left of the
    // budget: a round is too long to fit many around them.
    let probe_round = round(case, &ready.est);
    let best = probe_round[0]
        .best
        .ok_or("the CMA-ES search completed no trial")?
        .0;
    let best_job = case.job_for(best);
    let reduced = replay_cold(&best_job, &case.spec, &ready.est)?
        .reduced
        .ok_or("the best config ran out of memory on replay")?;
    layer_probes(
        m,
        &best_job,
        &case.spec,
        &ready.est,
        &reduced,
        cfg.batch_jobs(8),
    )?;
    batched_over_sequential(case, ready, tally, m);
    if !cfg.smoke {
        accuracy(case, ready, &probe_round[0], tally, m)?;
    }

    while traced.len() < min_samples || started.elapsed().as_secs_f64() < seconds {
        let sample = traced.len() as u32;
        // A sample is four operations of a second or two each, and there
        // are only a few samples: read the machine's speed around every
        // operation and take the median, so one odd reading cannot skew
        // a whole sample.
        let mut readings = vec![speed_factor()];
        rec.set_sample(sample);
        let (results, _) = rec.span("sample", |rec| {
            let (results, _) = rec.span("search.round", |_| round(case, &ready.est));
            readings.push(speed_factor());
            rec.span("search.replay_predict", |rec| {
                for (search, result) in results.iter().enumerate() {
                    let engine = PredictionEngine::new(case.spec.clone(), Arc::clone(&ready.est));
                    for trial in executed(result) {
                        let job = case.job_for(trial.config);
                        let (p, _) = rec.span("engine.predict_job", |_| engine.predict_job(&job));
                        if let (true, Ok(p)) = (sample == 0, p) {
                            for (slot, secs) in
                                stage_timings.iter_mut().zip(stage_seconds(&p.timings))
                            {
                                *slot += secs;
                            }
                        }
                    }
                    if sample == 0 && search == SEARCHES.len() - 1 {
                        // The grid search's engine: every estimator
                        // query of its trials went through this memo.
                        record_cache(m, engine.cache_stats());
                    }
                }
            });
            results
        });
        readings.push(speed_factor());
        let (replayed, _) = rec.span("replay", |rec| {
            replay_round(case, &ready.est, &results, rec, tally)
        });
        stages = replayed?;
        readings.push(speed_factor());
        let (_, untraced_s) = timed(|| round(case, &ready.est));
        readings.push(speed_factor());
        let factor = median(&mut readings);
        if sample == 0 {
            stage_timings.iter_mut().for_each(|t| *t /= factor);
        }
        traced.push(factor, untraced_s);
        first_round.get_or_insert(results);
    }

    let results = first_round.expect("at least one traced sample ran");
    check_golden(cfg, round_digest(&results), tally)?;

    let mut stats = SearchStats::default();
    let mut trials = 0;
    for r in &results {
        stats.executed += r.stats.executed;
        stats.cached += r.stats.cached;
        stats.skipped += r.stats.skipped;
        stats.invalid += r.stats.invalid;
        trials += r.trials.len();
    }
    m.set_count("search.trials", trials as u64);
    m.set_count("search.executed", stats.executed as u64);
    m.set_count("search.cached", stats.cached as u64);
    m.set_count("search.skipped", stats.skipped as u64);
    m.set_count("search.invalid", stats.invalid as u64);
    m.set(
        "search.executed_share",
        stats.executed as f64 / trials as f64,
        1,
    );
    m.set("estimator.train_s", ready.train_s, 1);
    record_engine_stages(m, stage_timings, stats.executed);
    stages.record_counts(m);
    let totals = finish_trace(cfg, &rec, &traced, "search.round", m)?;
    let n = traced.len();
    m.set(
        "search.trial_us",
        totals.median("search.round") * 1e6 / trials as f64,
        n,
    );
    m.set(
        "search.overhead_s",
        totals.median_diff("search.round", "engine.predict_job"),
        n,
    );
    Ok(())
}

/// `run_batched` over `run` on two emulation threads, same search, same
/// run; the two must commit identical trials.
fn batched_over_sequential(case: &Case, ready: &Ready, tally: &mut Tally, m: &mut MetricSet) {
    let spec = case.spec.clone().with_emulation_threads(2);
    let (sequential, seq_s) = timed(|| run_search(case, &spec, &ready.est, SEARCHES[0], false));
    let (batched, batch_s) = timed(|| run_search(case, &spec, &ready.est, SEARCHES[0], true));
    tally.check(sequential.trials == batched.trials, || {
        "batched and sequential CMA-ES searches committed different trials".into()
    });
    m.set("search.batched_over_seq", batch_s / seq_s, 1);
}

/// Mean prediction error over the fastest completed CMA-ES trials
/// against the ground-truth testbed.
fn accuracy(
    case: &Case,
    ready: &Ready,
    cma: &SearchResult,
    tally: &mut Tally,
    m: &mut MetricSet,
) -> Result<(), String> {
    let mut completed: Vec<(ParallelConfig, f64)> = Vec::new();
    for t in &cma.trials {
        if let (Some(time), false) = (
            t.outcome.time(),
            completed.iter().any(|(c, _)| *c == t.config),
        ) {
            completed.push((t.config, time.as_secs_f64()));
        }
    }
    completed.sort_by(|a, b| a.1.total_cmp(&b.1));
    completed.truncate(ACCURACY_TRIALS);
    let factor = speed_factor();
    let engine = PredictionEngine::new(case.spec.clone(), Arc::clone(&ready.est));
    let mut errors = Vec::with_capacity(completed.len());
    let mut measure_s = 0.0;
    for (config, predicted_s) in &completed {
        let job = case.job_for(*config);
        let (actual, secs) = timed(|| engine.measure_actual(&job));
        measure_s += secs;
        let actual = actual
            .map_err(|e| format!("measure_actual failed on {config}: {e}"))?
            .map_err(|peak| {
                format!("{config} fits when predicted but not when measured ({peak} bytes)")
            })?;
        let actual_s = actual.iteration_time.as_secs_f64();
        errors.push(100.0 * (predicted_s - actual_s).abs() / actual_s);
    }
    report_accuracy(m, tally, &errors, measure_s / factor);
    Ok(())
}
