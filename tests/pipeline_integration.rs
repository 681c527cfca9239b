//! Cross-crate integration tests: the full emulate -> collate ->
//! estimate -> simulate pipeline against the ground-truth testbed.

use maya::{EmulationSpec, MayaBuilder};
use maya_hw::ClusterSpec;
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::Dtype;

fn job(model: ModelSpec, world: u32, parallel: ParallelConfig, batch: u32) -> TrainingJob {
    TrainingJob {
        model,
        parallel,
        flavor: FrameworkFlavor::Megatron,
        compile: false,
        global_batch: batch,
        world,
        gpus_per_node: 8,
        precision: Dtype::Bf16,
        iterations: 1,
    }
}

/// Oracle-estimator predictions should track the testbed within a few
/// percent across parallelism strategies (the Table 3 "Oracle" column).
#[test]
fn oracle_error_small_across_parallelisms() {
    let cluster = ClusterSpec::h100(1, 8);
    let maya = MayaBuilder::new(cluster).build().unwrap();
    let configs = [
        ParallelConfig::default(),
        ParallelConfig {
            tp: 2,
            ..Default::default()
        },
        ParallelConfig {
            pp: 2,
            microbatch_multiplier: 2,
            ..Default::default()
        },
        ParallelConfig {
            tp: 2,
            pp: 2,
            microbatch_multiplier: 2,
            ..Default::default()
        },
        ParallelConfig {
            tp: 2,
            pp: 2,
            sequence_parallel: true,
            ..Default::default()
        },
        ParallelConfig {
            tp: 2,
            distributed_optimizer: true,
            ..Default::default()
        },
        ParallelConfig {
            tp: 2,
            pp: 2,
            virtual_stages: 2,
            microbatch_multiplier: 2,
            ..Default::default()
        },
        ParallelConfig {
            tp: 2,
            activation_recompute: true,
            ..Default::default()
        },
    ];
    for parallel in configs {
        let j = job(ModelSpec::gpt3_125m(), 8, parallel, 32);
        assert!(j.validate().is_ok(), "{parallel} invalid");
        let pred = maya.predict_job(&j).expect("predicts");
        let actual = maya
            .measure_actual(&j)
            .expect("testbed runs")
            .expect("fits");
        let p = pred.iteration_time().expect("fits").as_secs_f64();
        let a = actual.iteration_time.as_secs_f64();
        let err = (p / a - 1.0).abs();
        assert!(
            err < 0.10,
            "{parallel}: oracle error {:.1}% (pred {p:.4}s actual {a:.4}s)",
            err * 100.0
        );
    }
}

/// Dedup must not change predictions (fidelity-preserving).
#[test]
fn dedup_preserves_predictions() {
    let cluster = ClusterSpec::h100(1, 8);
    let parallel = ParallelConfig {
        tp: 2,
        pp: 2,
        microbatch_multiplier: 2,
        ..Default::default()
    };
    let j = job(ModelSpec::gpt3_125m(), 8, parallel, 32);
    let with = MayaBuilder::new(cluster.clone()).build().unwrap();
    let spec = EmulationSpec::without_optimizations(cluster.clone());
    let without = MayaBuilder::new(cluster).with_spec(spec).build().unwrap();
    let a = with.predict_job(&j).unwrap();
    let b = without.predict_job(&j).unwrap();
    assert!(a.workers_simulated < b.workers_simulated);
    let (ta, tb) = (a.iteration_time().unwrap(), b.iteration_time().unwrap());
    let drift = (ta.as_secs_f64() / tb.as_secs_f64() - 1.0).abs();
    assert!(drift < 0.02, "dedup drift {:.2}%", drift * 100.0);
}

/// Selective launch must agree with full emulation.
#[test]
fn selective_launch_preserves_predictions() {
    let cluster = ClusterSpec::h100(1, 8);
    let parallel = ParallelConfig {
        tp: 2,
        pp: 2,
        microbatch_multiplier: 2,
        ..Default::default()
    };
    let j = job(ModelSpec::gpt3_125m(), 8, parallel, 32);
    let full = MayaBuilder::new(cluster.clone()).build().unwrap();
    let spec = EmulationSpec::new(cluster.clone()).with_selective_launch(true);
    let selective = MayaBuilder::new(cluster).with_spec(spec).build().unwrap();
    let a = full.predict_job(&j).unwrap();
    let b = selective.predict_job(&j).unwrap();
    assert!(b.workers_emulated < a.workers_emulated);
    let (ta, tb) = (a.iteration_time().unwrap(), b.iteration_time().unwrap());
    let drift = (ta.as_secs_f64() / tb.as_secs_f64() - 1.0).abs();
    assert!(drift < 0.03, "selective-launch drift {:.2}%", drift * 100.0);
}

/// More parallel hardware should not make the same global batch slower.
#[test]
fn scaling_out_does_not_slow_down() {
    let batch = 64;
    let t4 = {
        let maya = MayaBuilder::new(ClusterSpec::h100(1, 4)).build().unwrap();
        let j = job(ModelSpec::gpt3_125m(), 4, ParallelConfig::default(), batch);
        maya.predict_job(&j).unwrap().iteration_time().unwrap()
    };
    let t8 = {
        let maya = MayaBuilder::new(ClusterSpec::h100(1, 8)).build().unwrap();
        let j = job(ModelSpec::gpt3_125m(), 8, ParallelConfig::default(), batch);
        maya.predict_job(&j).unwrap().iteration_time().unwrap()
    };
    assert!(t8 < t4, "8 GPUs {t8} should beat 4 GPUs {t4}");
}

/// Activation recomputation should cost extra time but reduce memory.
#[test]
fn recompute_tradeoff_visible() {
    let cluster = ClusterSpec::h100(1, 8);
    let maya = MayaBuilder::new(cluster).build().unwrap();
    let base = job(
        ModelSpec::gpt3_125m(),
        8,
        ParallelConfig {
            tp: 2,
            ..Default::default()
        },
        32,
    );
    let rc = job(
        ModelSpec::gpt3_125m(),
        8,
        ParallelConfig {
            tp: 2,
            activation_recompute: true,
            ..Default::default()
        },
        32,
    );
    let pb = maya.predict_job(&base).unwrap();
    let pr = maya.predict_job(&rc).unwrap();
    let (rb, rr) = (pb.report().unwrap(), pr.report().unwrap());
    assert!(rr.total_time > rb.total_time, "recompute should cost time");
    assert!(
        rr.peak_mem_bytes < rb.peak_mem_bytes,
        "recompute should save memory"
    );
}

/// The paper's headline OOM story: recipes that fit on larger clusters
/// OOM on smaller ones.
#[test]
fn oom_boundary_depends_on_cluster_size() {
    let parallel = ParallelConfig {
        tp: 2,
        pp: 2,
        microbatch_multiplier: 2,
        ..Default::default()
    };
    // GPT-3 2.7B, batch 64, no recompute.
    let small = {
        let maya = MayaBuilder::new(ClusterSpec::h100(1, 8)).build().unwrap();
        maya.predict_job(&job(ModelSpec::gpt3_2_7b(), 8, parallel, 64))
            .unwrap()
    };
    let large = {
        let maya = MayaBuilder::new(ClusterSpec::h100(4, 8)).build().unwrap();
        maya.predict_job(&job(ModelSpec::gpt3_2_7b(), 32, parallel, 64))
            .unwrap()
    };
    assert!(small.oom(), "8 GPUs should OOM");
    assert!(!large.oom(), "32 GPUs (dp 8) should fit");
}

/// Interleaved pipeline schedules must not deadlock and should shrink
/// the bubble relative to plain 1F1B at equal microbatch count.
#[test]
fn interleaving_reduces_pipeline_bubble() {
    let cluster = ClusterSpec::h100(1, 8);
    let maya = MayaBuilder::new(cluster).build().unwrap();
    let plain = job(
        ModelSpec::gpt3_125m(),
        8,
        ParallelConfig {
            pp: 4,
            microbatch_multiplier: 1,
            ..Default::default()
        },
        32,
    );
    let interleaved = job(
        ModelSpec::gpt3_125m(),
        8,
        ParallelConfig {
            pp: 4,
            virtual_stages: 3,
            microbatch_multiplier: 1,
            ..Default::default()
        },
        32,
    );
    let tp = maya.predict_job(&plain).unwrap().iteration_time().unwrap();
    let ti = maya
        .predict_job(&interleaved)
        .unwrap()
        .iteration_time()
        .unwrap();
    assert!(
        ti.as_secs_f64() < tp.as_secs_f64() * 1.02,
        "interleaving should not slow things down: plain {tp} interleaved {ti}"
    );
}
