//! The prediction pipeline, stage by stage, through public functions.
//!
//! `PredictionEngine::predict_job` runs emulate → collate → dedup →
//! estimation pre-pass → simulate behind one call. To time each layer
//! from outside, the traced run replays the same job through the same
//! public functions the engine calls, in the same order, each inside
//! its own span. The replay must produce the report `predict_job`
//! produced — that agreement is one of the benchmark's output checks.

use std::sync::Arc;

use maya::EmulationSpec;
use maya_collate::{
    collate, collate_with_known_groups, dedup_classes, reduce_job, unique_megatron_ranks,
};
use maya_cuda::CudaError;
use maya_estimator::{CachingEstimator, RuntimeEstimator};
use maya_sim::{SimReport, SimScratch, Simulator};
use maya_torchlet::engine::{megatron_comm_groups, trace_one_rank};
use maya_torchlet::{FrameworkFlavor, RankTopology, TrainingJob};
use maya_trace::{DeviceOp, JobTrace};

use crate::metrics::MetricSet;
use crate::spans::Recorder;

/// Raw wall seconds and work counts of one replayed job.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stages {
    pub emulate_s: f64,
    pub collate_s: f64,
    pub dedup_s: f64,
    pub prepass_s: f64,
    pub sim_s: f64,
    pub ranks_emulated: u64,
    pub events_emitted: u64,
    pub workers_in: u64,
    pub workers_out: u64,
    pub sim_events: u64,
}

impl Stages {
    pub fn add(&mut self, o: &Stages) {
        self.emulate_s += o.emulate_s;
        self.collate_s += o.collate_s;
        self.dedup_s += o.dedup_s;
        self.prepass_s += o.prepass_s;
        self.sim_s += o.sim_s;
        self.ranks_emulated += o.ranks_emulated;
        self.events_emitted += o.events_emitted;
        self.workers_in += o.workers_in;
        self.workers_out += o.workers_out;
        self.sim_events += o.sim_events;
    }

    /// Records the work counts (the exact, `=` metrics of the stages).
    pub fn record_counts(&self, m: &mut MetricSet) {
        m.set_count("torchlet.events_emitted", self.events_emitted);
        m.set_count("torchlet.ranks_emulated", self.ranks_emulated);
        m.set_count("collate.workers_in", self.workers_in);
        m.set_count("collate.workers_out", self.workers_out);
        m.set_count("sim.events", self.sim_events);
    }
}

/// What a replay produced: the report (`None` when emulation ran out of
/// device memory, which the engine reports as an outcome, not an error)
/// and the trace the simulator consumed.
pub struct Replayed {
    pub stages: Stages,
    pub report: Option<SimReport>,
    pub reduced: Option<JobTrace>,
}

/// The estimation pre-pass the engine runs before simulating: one query
/// per kernel launch and memcpy of the trace.
pub fn estimation_prepass(est: &dyn RuntimeEstimator, trace: &JobTrace) {
    for w in &trace.workers {
        for e in w.events.iter() {
            match e.op {
                DeviceOp::KernelLaunch { kernel } => {
                    std::hint::black_box(est.kernel_time(&kernel));
                }
                DeviceOp::MemcpyAsync { bytes, kind, .. } => {
                    std::hint::black_box(est.memcpy_time(bytes, kind));
                }
                _ => {}
            }
        }
    }
}

/// Replays `job` under `spec` stage by stage, single-threaded, through
/// `memo` (fresh for a cold pipeline, shared for a warm one).
pub fn replay(
    job: &TrainingJob,
    spec: &EmulationSpec,
    memo: &CachingEstimator,
    scratch: &mut SimScratch,
    rec: &mut Recorder,
) -> Result<Replayed, String> {
    let selective = spec.selective_launch && matches!(job.flavor, FrameworkFlavor::Megatron);
    let ranks: Vec<u32> = if selective {
        let topo = RankTopology::new(&job.parallel, job.world);
        unique_megatron_ranks(topo.tp, topo.dp, topo.pp)
    } else {
        (0..job.world).collect()
    };
    let mut stages = Stages {
        ranks_emulated: ranks.len() as u64,
        ..Stages::default()
    };

    let (traced, emulate_s) = rec.span("torchlet.emulate", |_| {
        ranks
            .iter()
            .map(|&r| trace_one_rank(job, r, spec.cluster.gpu))
            .collect::<Vec<_>>()
    });
    stages.emulate_s = emulate_s;
    let mut workers = Vec::with_capacity(traced.len());
    let mut oom = false;
    for (trace, res) in traced {
        match res {
            Ok(()) => {}
            Err(CudaError::MemoryAllocation { .. }) => oom = true,
            Err(e) => return Err(format!("emulation failed on rank {}: {e}", trace.rank)),
        }
        stages.events_emitted += trace.events.len() as u64;
        workers.push(trace);
    }
    if oom {
        return Ok(Replayed {
            stages,
            report: None,
            reduced: None,
        });
    }

    stages.workers_in = workers.len() as u64;
    let (collated, collate_s) = rec.span("collate.collate", |_| {
        if selective {
            collate_with_known_groups(workers, job.world, &megatron_comm_groups(job))
        } else {
            collate(workers, job.world)
        }
    });
    stages.collate_s = collate_s;
    let collated = collated.map_err(|e| format!("collation failed: {e}"))?;

    // The engine folds identical ranks only while every rank is alike.
    let rank_uniform = spec.cluster.hetero.is_none() && spec.faults.is_none();
    let (reduced, dedup_s) = rec.span("collate.dedup", |_| {
        if spec.dedup && rank_uniform {
            let classes = dedup_classes(&collated.workers);
            if classes.len() < collated.workers.len() {
                return reduce_job(&collated, &classes);
            }
        }
        collated
    });
    stages.dedup_s = dedup_s;
    stages.workers_out = reduced.workers.len() as u64;

    let ((), prepass_s) = rec.span("estimator.prepass", |_| estimation_prepass(memo, &reduced));
    stages.prepass_s = prepass_s;

    let (report, sim_s) = rec.span("sim.run", |_| {
        Simulator::new(memo, &spec.cluster)
            .with_faults(spec.faults.as_ref())
            .run_prevalidated(&reduced, scratch)
    });
    stages.sim_s = sim_s;
    let report = report.map_err(|e| format!("simulation failed: {e}"))?;
    stages.sim_events = report.events_processed;
    Ok(Replayed {
        stages,
        report: Some(report),
        reduced: Some(reduced),
    })
}

/// [`replay`] as a one-shot command-line run would see it: a fresh memo,
/// a fresh arena, no spans kept.
pub fn replay_cold(
    job: &TrainingJob,
    spec: &EmulationSpec,
    est: &Arc<dyn RuntimeEstimator>,
) -> Result<Replayed, String> {
    replay(
        job,
        spec,
        &CachingEstimator::new(Arc::clone(est)),
        &mut SimScratch::new(),
        &mut Recorder::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya::PredictionEngine;
    use maya_estimator::OracleEstimator;
    use maya_hw::ClusterSpec;
    use maya_torchlet::{ModelSpec, ParallelConfig};

    /// The replay is only a measuring device if it is the engine's
    /// pipeline: same report, same worker and event counts, with dedup
    /// alone and with selective launch.
    #[test]
    fn replay_agrees_with_predict_job() {
        let cluster = ClusterSpec::h100(1, 8);
        let job = crate::workloads::training_job(
            ModelSpec::gpt3_125m(),
            &cluster,
            ParallelConfig {
                tp: 2,
                pp: 2,
                microbatch_multiplier: 2,
                ..Default::default()
            },
            32,
        );
        for spec in [
            EmulationSpec::new(cluster.clone()),
            EmulationSpec::new(cluster.clone()).with_selective_launch(true),
            EmulationSpec::without_optimizations(cluster.clone()),
        ] {
            let est: Arc<dyn RuntimeEstimator> = Arc::new(OracleEstimator::new(&cluster));
            let predicted = PredictionEngine::new(spec.clone(), Arc::clone(&est))
                .predict_job(&job)
                .unwrap();
            let replayed = replay_cold(&job, &spec, &est).unwrap();
            assert_eq!(replayed.report.as_ref(), predicted.report());
            assert_eq!(
                replayed.stages.ranks_emulated as usize,
                predicted.workers_emulated
            );
            assert_eq!(
                replayed.stages.workers_out as usize,
                predicted.workers_simulated
            );
            assert_eq!(
                replayed.reduced.unwrap().total_events(),
                predicted.trace_events
            );
        }
    }

    #[test]
    fn replay_reports_oom_as_an_outcome() {
        let cluster = ClusterSpec::h100(1, 1);
        let job = crate::workloads::training_job(
            ModelSpec::gpt3_2_7b(),
            &cluster,
            ParallelConfig::default(),
            64,
        );
        let spec = EmulationSpec::new(cluster.clone());
        let est: Arc<dyn RuntimeEstimator> = Arc::new(OracleEstimator::new(&cluster));
        let replayed = replay_cold(&job, &spec, &est).unwrap();
        assert!(replayed.report.is_none() && replayed.reduced.is_none());
    }
}
