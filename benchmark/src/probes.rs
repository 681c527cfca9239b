//! Per-layer probes of the traced run that need more than a span around
//! a stage: the memo cold against warm, the simulator with fresh state
//! against a reused arena, the flow model against the flat path on one
//! trace, and batched against serial prediction. Each compares two ways
//! of using one layer within the same run, so machine drift cancels.

use std::sync::Arc;

use maya::{EmulationSpec, MayaBuilder, PredictionEngine};
use maya_estimator::{CachingEstimator, RuntimeEstimator};
use maya_sim::{SimObs, SimScratch, Simulator};
use maya_torchlet::TrainingJob;
use maya_trace::JobTrace;

use crate::metrics::MetricSet;
use crate::replay::estimation_prepass;
use crate::stats::{speed_factor, timed};

/// Probes the estimator, sim, net and engine layers on `job`, whose
/// simulator-ready trace is `reduced`. `batch_jobs` sizes the
/// batched-against-serial comparison.
pub fn layer_probes(
    m: &mut MetricSet,
    job: &TrainingJob,
    spec: &EmulationSpec,
    base: &Arc<dyn RuntimeEstimator>,
    reduced: &JobTrace,
    batch_jobs: usize,
) -> Result<(), String> {
    let factor = speed_factor();
    let sim_err = |e| format!("probe simulation failed: {e}");

    // estimator: the engine's query loop through a fresh memo, then
    // through the same memo warm.
    let memo = CachingEstimator::new(Arc::clone(base));
    let ((), cold_s) = timed(|| estimation_prepass(&memo, reduced));
    let misses = memo.stats().misses;
    let ((), warm_s) = timed(|| estimation_prepass(&memo, reduced));
    m.set("estimator.prepass_cold_s", cold_s / factor, 1);
    m.set("estimator.prepass_warm_s", warm_s / factor, 1);
    m.set(
        "estimator.miss_ns",
        cold_s / factor * 1e9 / misses.max(1) as f64,
        misses as usize,
    );

    // sim: validation alone, a run on fresh state, and one instrumented
    // run for the counters the report does not carry.
    let sim = Simulator::new(&memo, &spec.cluster).with_faults(spec.faults.as_ref());
    let (valid, validate_s) = timed(|| reduced.validate());
    valid.map_err(|e| format!("probe trace is invalid: {e}"))?;
    let (fresh, fresh_s) = timed(|| sim.run(reduced));
    fresh.map_err(sim_err)?;
    m.set("sim.validate_s", validate_s / factor, 1);
    m.set("sim.fresh_run_s", fresh_s / factor, 1);
    let obs = SimObs::default();
    let mut scratch = SimScratch::new();
    let (observed, contended_s) = timed(|| {
        Simulator::new(&memo, &spec.cluster)
            .with_faults(spec.faults.as_ref())
            .with_obs(Some(&obs))
            .run_prevalidated(reduced, &mut scratch)
    });
    let observed = observed.map_err(sim_err)?;
    m.set_count(
        "sim.heap_high_water",
        obs.heap_depth_high_water.get().max(0) as u64,
    );
    m.set_count("net.flow_solves", obs.flow_solves.get());

    // net: the same trace with and without the link topology.
    if spec.cluster.topology.is_some() {
        let mut flat_cluster = spec.cluster.clone();
        flat_cluster.topology = None;
        let flat_sim = Simulator::new(&memo, &flat_cluster).with_faults(spec.faults.as_ref());
        flat_sim
            .run_prevalidated(reduced, &mut scratch)
            .map_err(sim_err)?;
        let (flat, flat_s) = timed(|| flat_sim.run_prevalidated(reduced, &mut scratch));
        flat.map_err(sim_err)?;
        m.set("net.contended_over_flat", contended_s / flat_s, 1);
        m.set(
            "net.events_per_s",
            observed.events_processed as f64 / (contended_s / factor),
            1,
        );
    }

    // engine: construction, and a batch on two threads against the same
    // jobs one after another, each on its own fresh engine.
    let (built, build_s) = timed(|| {
        MayaBuilder::new(spec.cluster.clone())
            .with_spec(spec.clone())
            .estimator(Arc::clone(base))
            .build()
    });
    built.map_err(|e| format!("engine build failed: {e}"))?;
    m.set("engine.build_s", build_s / factor, 1);
    let jobs = vec![*job; batch_jobs];
    let serial_engine = PredictionEngine::new(spec.clone(), Arc::clone(base));
    let (serial, serial_s) = timed(|| {
        jobs.iter()
            .map(|j| serial_engine.predict_job(j))
            .collect::<Vec<_>>()
    });
    let batch_engine =
        PredictionEngine::new(spec.clone().with_emulation_threads(2), Arc::clone(base));
    let (batched, batch_s) = timed(|| batch_engine.predict_batch(&jobs));
    for (s, b) in serial.iter().zip(&batched) {
        let (s, b) = (
            s.as_ref()
                .map_err(|e| format!("serial predict failed: {e}"))?,
            b.as_ref()
                .map_err(|e| format!("batched predict failed: {e}"))?,
        );
        if s.report() != b.report() {
            return Err("batched and serial predictions disagree".into());
        }
    }
    m.set("engine.batch_over_serial", batch_s / serial_s, batch_jobs);
    Ok(())
}
