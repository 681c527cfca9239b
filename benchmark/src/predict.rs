//! Workloads 1–3: one `predict_job` per sample, each on a fresh engine
//! (a cold memo — what a one-shot CLI user pays every time) over a
//! forest trained once in set-up.

use std::sync::Arc;

use maya::{EmulationSpec, PredictionEngine};
use maya_estimator::{CacheStats, CachingEstimator, RuntimeEstimator};
use maya_net::FaultPlan;
use maya_sim::SimScratch;

use crate::digest::{check_golden, report_digest};
use crate::metrics::MetricSet;
use crate::probes::layer_probes;
use crate::replay::{replay, replay_cold, Stages};
use crate::spans::Recorder;
use crate::stats::{median, speed_factor, timed};
use crate::trace_out::{
    finish_trace, record_cache, record_engine_stages, stage_seconds, TracedSamples,
};
use crate::workloads::{
    record_latency, report_accuracy, sample_for, setup_repeated, train_forest, Outcome,
    PredictCase, RunConfig, Tally,
};

/// Everything before the first timed sample.
struct Ready {
    est: Arc<dyn RuntimeEstimator>,
    spec: EmulationSpec,
    train_s: f64,
}

fn prepare(case: &PredictCase, cfg: &RunConfig) -> Result<Ready, String> {
    let (est, train_s) = train_forest(&case.cluster, cfg);
    let spec = if case.faulted {
        // The plan's horizon is the clean run's iteration time, so the
        // straggler windows and the failure land inside the iteration.
        let clean = PredictionEngine::new(case.spec.clone(), Arc::clone(&est))
            .predict_job(&case.job)
            .map_err(|e| format!("clean-horizon prediction failed: {e}"))?;
        let horizon = clean
            .iteration_time()
            .ok_or("clean-horizon prediction ran out of memory")?;
        let plan = FaultPlan::generate(cfg.seed, case.job.world, horizon);
        case.spec.clone().with_faults(Some(plan))
    } else {
        case.spec.clone()
    };
    Ok(Ready { est, spec, train_s })
}

pub fn run(case: &PredictCase, cfg: &RunConfig) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut m = MetricSet::default();
    let (ready, setup_s) = setup_repeated(cfg.setup_reps(), || prepare(case, cfg))?;
    // One sample: a fresh engine, one prediction, and what the engine's
    // memo counted while making it.
    let predict = || {
        let engine = PredictionEngine::new(ready.spec.clone(), Arc::clone(&ready.est));
        engine
            .predict_job(&case.job)
            .map(|p| (p, engine.cache_stats()))
            .map_err(|e| format!("predict_job failed: {e}"))
    };

    if !cfg.trace {
        m.set("setup_s", setup_s, cfg.setup_reps());
        let samples = sample_for(cfg.budget(20), |_| predict())?;
        record_latency(&mut m, &samples.calibrated_s, &samples.raw_s, None);

        // Every sample did the same work, so every report must match
        // the first, the first must match the committed digest, and the
        // stage-by-stage replay must match them both.
        let digests: Vec<Option<u64>> = samples
            .results
            .iter()
            .map(|(p, _)| p.report().map(report_digest))
            .collect();
        let first = digests[0].ok_or("the workload's job ran out of device memory")?;
        for (i, d) in digests.iter().enumerate() {
            tally.check(*d == Some(first), || {
                format!("sample {i} digest {d:x?} differs from the first {first:x}")
            });
        }
        check_golden(cfg, first, &mut tally)?;
        let replayed = replay_cold(&case.job, &ready.spec, &ready.est)?;
        let replay_digest = replayed.report.as_ref().map(report_digest);
        tally.check(replay_digest == Some(first), || {
            format!("stage replay digest {replay_digest:x?} differs from predict_job {first:x}")
        });
    } else {
        trace_run(case, cfg, &ready, &predict, &mut tally, &mut m)?;
    }

    Ok(tally.into_outcome(m))
}

/// The traced run: per sample the real call, the stage-by-stage replay
/// and an untraced real call (the tracing-overhead baseline), all under
/// one machine-speed factor; after the first sample, the layer probes.
fn trace_run(
    case: &PredictCase,
    cfg: &RunConfig,
    ready: &Ready,
    predict: &dyn Fn() -> Result<(maya::Prediction, CacheStats), String>,
    tally: &mut Tally,
    m: &mut MetricSet,
) -> Result<(), String> {
    let started = std::time::Instant::now();
    let (seconds, min_samples) = cfg.trace_budget(5);
    let mut rec = Recorder::default();
    let mut traced = TracedSamples::default();
    let mut stage_timings: [Vec<f64>; 4] = Default::default();
    let mut stages = Stages::default();
    let mut golden_digest = None;

    while traced.len() < min_samples || started.elapsed().as_secs_f64() < seconds {
        let sample = traced.len() as u32;
        let factor = speed_factor();
        rec.set_sample(sample);
        // Each operation's result is boiled down and dropped before the
        // next one starts, so all three start from the heap an untraced
        // run's sample starts from. (A live result pins the heap's top,
        // the allocator cannot trim below it, and the next operation
        // finds its pages still mapped: on `emulate_dedup_512` that made
        // whichever call followed the replay a quarter faster.)
        let ((predicted, replayed), _) = rec.span("sample", |rec| {
            let (predicted, _) = rec.span("engine.predict_job", |_| {
                predict().map(|(p, cache)| {
                    let digest = p.report().map(report_digest);
                    (digest, stage_seconds(&p.timings), cache, p.iteration_time())
                })
            });
            let memo = CachingEstimator::new(Arc::clone(&ready.est));
            let (replayed, _) = rec.span("replay", |rec| {
                replay(&case.job, &ready.spec, &memo, &mut SimScratch::new(), rec)
                    .map(|r| (r.report.as_ref().map(report_digest), r.stages))
            });
            (predicted, replayed)
        });
        let ((digest, t, cache, predicted_time), (replay_digest, replayed_stages)) =
            (predicted?, replayed?);
        let (untraced, untraced_s) = timed(|| predict().map(drop));
        untraced?;

        tally.check(digest.is_some() && digest == replay_digest, || {
            format!("sample {sample}: predict_job {digest:x?} and stage replay {replay_digest:x?} disagree")
        });
        golden_digest = golden_digest.or(digest);
        for (slot, secs) in stage_timings.iter_mut().zip(t) {
            slot.push(secs / factor);
        }
        stages = replayed_stages;
        traced.push(factor, untraced_s);

        if sample == 0 {
            record_cache(m, cache);
            let reduced = replay_cold(&case.job, &ready.spec, &ready.est)?
                .reduced
                .ok_or("the job ran out of memory")?;
            layer_probes(
                m,
                &case.job,
                &ready.spec,
                &ready.est,
                &reduced,
                cfg.batch_jobs(4),
            )?;
            if case.accuracy && !cfg.smoke {
                let predicted_time = predicted_time.ok_or("the job ran out of memory")?;
                accuracy(case, ready, predicted_time.as_secs_f64(), tally, m)?;
            }
        }
    }

    if let Some(d) = golden_digest {
        check_golden(cfg, d, tally)?;
    }
    m.set("estimator.train_s", ready.train_s, 1);
    record_engine_stages(
        m,
        std::array::from_fn(|i| median(&mut stage_timings[i])),
        traced.len(),
    );
    stages.record_counts(m);
    finish_trace(cfg, &rec, &traced, "engine.predict_job", m).map(drop)
}

/// Prediction error against the ground-truth testbed on this config.
fn accuracy(
    case: &PredictCase,
    ready: &Ready,
    predicted_s: f64,
    tally: &mut Tally,
    m: &mut MetricSet,
) -> Result<(), String> {
    let factor = speed_factor();
    let engine = PredictionEngine::new(ready.spec.clone(), Arc::clone(&ready.est));
    let (actual, measure_s) = timed(|| engine.measure_actual(&case.job));
    let actual = actual
        .map_err(|e| format!("measure_actual failed: {e}"))?
        .map_err(|peak| format!("measure_actual ran out of memory at {peak} bytes"))?;
    let actual_s = actual.iteration_time.as_secs_f64();
    let error_pct = 100.0 * (predicted_s - actual_s).abs() / actual_s;
    report_accuracy(m, tally, &[error_pct], measure_s / factor);
    Ok(())
}
