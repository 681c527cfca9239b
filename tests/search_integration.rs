//! Integration tests for Maya-Search over the real pipeline.

use maya::{EmulationSpec, MayaBuilder, PredictionEngine};
use maya_hw::ClusterSpec;
use maya_search::{AlgorithmKind, ConfigSpace, Objective, TrialScheduler};
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::Dtype;

fn fixture() -> (PredictionEngine, TrainingJob) {
    let cluster = ClusterSpec::h100(1, 8);
    let spec = EmulationSpec::new(cluster.clone()).with_selective_launch(true);
    let maya = MayaBuilder::new(cluster).with_spec(spec).build().unwrap();
    let template = TrainingJob {
        model: ModelSpec::gpt3_125m(),
        parallel: ParallelConfig::default(),
        flavor: FrameworkFlavor::Megatron,
        compile: false,
        global_batch: 48,
        world: 8,
        gpus_per_node: 8,
        precision: Dtype::Bf16,
        iterations: 1,
    };
    (maya, template)
}

fn space() -> ConfigSpace {
    ConfigSpace {
        tp: vec![1, 2, 4],
        pp: vec![1, 2],
        microbatch_multiplier: vec![1, 2],
        virtual_stages: vec![1],
        activation_recompute: vec![true, false],
        sequence_parallel: vec![true, false],
        distributed_optimizer: vec![true, false],
    }
}

/// Every algorithm should find a config within 15% of the grid optimum
/// on this small space.
#[test]
fn all_algorithms_land_near_grid_optimum() {
    let (maya, template) = fixture();
    let obj = Objective::new(&maya, template);
    let grid = TrialScheduler::new(&obj).with_space(space()).run_grid();
    let optimum = grid.best_time().expect("grid finds optimum").as_secs_f64();
    for kind in [
        AlgorithmKind::CmaEs,
        AlgorithmKind::OnePlusOne,
        AlgorithmKind::Pso,
        AlgorithmKind::TwoPointsDe,
        AlgorithmKind::Random,
    ] {
        let result = TrialScheduler::new(&obj)
            .with_space(space())
            .run(kind, 150, 42);
        let found = result
            .best_time()
            .unwrap_or(maya_trace::SimTime::MAX)
            .as_secs_f64();
        assert!(
            found <= optimum * 1.15,
            "{kind:?} found {found:.4}s vs optimum {optimum:.4}s"
        );
    }
}

/// The best recipe the search finds must actually be good on the
/// testbed — the end-to-end claim of §7.3.
#[test]
fn search_result_validates_on_testbed() {
    let (maya, template) = fixture();
    let obj = Objective::new(&maya, template);
    let result = TrialScheduler::new(&obj)
        .with_space(space())
        .run(AlgorithmKind::CmaEs, 150, 5);
    let (best_cfg, _) = result.best.expect("found something");
    let job = TrainingJob {
        parallel: best_cfg,
        ..template
    };
    let actual = maya
        .measure_actual(&job)
        .expect("testbed runs")
        .expect("fits");
    // Compare against a deliberately bad recipe.
    let bad = TrainingJob {
        parallel: ParallelConfig {
            tp: 4,
            pp: 2,
            microbatch_multiplier: 2,
            activation_recompute: true,
            ..Default::default()
        },
        ..template
    };
    let bad_actual = maya
        .measure_actual(&bad)
        .expect("testbed runs")
        .expect("fits");
    assert!(
        actual.iteration_time < bad_actual.iteration_time,
        "searched recipe {} should beat the bad recipe {}",
        actual.iteration_time,
        bad_actual.iteration_time
    );
}

/// Pruning must not change the best found config (fidelity preserving).
#[test]
fn pruning_is_fidelity_preserving() {
    let (maya, template) = fixture();
    let obj = Objective::new(&maya, template);
    let mut with = TrialScheduler::new(&obj).with_space(space());
    with.pruning = true;
    with.early_stop_patience = None;
    let r_with = with.run_grid();
    let mut without = TrialScheduler::new(&obj).with_space(space());
    without.pruning = false;
    without.early_stop_patience = None;
    let r_without = without.run_grid();
    assert!(r_with.stats.skipped > 0, "tactics should fire on the grid");
    let a = r_with.best_time().unwrap().as_secs_f64();
    let b = r_without.best_time().unwrap().as_secs_f64();
    assert!(
        (a / b - 1.0).abs() < 0.03,
        "pruned best {a} vs full best {b}"
    );
}
