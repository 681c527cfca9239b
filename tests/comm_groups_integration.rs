//! Verifies that the workload-knowledge communicator map used by
//! selective launch agrees exactly with what full emulation observes,
//! and that selective launch therefore predicts multi-node jobs
//! accurately (regression test for strided-group inference).

use maya::{EmulationSpec, MayaBuilder};
use maya_hw::ClusterSpec;
use maya_torchlet::engine::megatron_comm_groups;
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::Dtype;

fn job(world: u32, parallel: ParallelConfig) -> TrainingJob {
    TrainingJob {
        model: ModelSpec::gpt3_125m(),
        parallel,
        flavor: FrameworkFlavor::Megatron,
        compile: false,
        global_batch: 4 * world,
        world,
        gpus_per_node: 8,
        precision: Dtype::Bf16,
        iterations: 1,
    }
}

/// Every group observed under full emulation must appear, identically,
/// in the analytically-constructed map.
#[test]
fn megatron_comm_groups_match_observation() {
    let cases = [
        (
            8u32,
            ParallelConfig {
                tp: 2,
                pp: 2,
                microbatch_multiplier: 2,
                ..Default::default()
            },
        ),
        (
            8,
            ParallelConfig {
                tp: 4,
                ..Default::default()
            },
        ),
        (
            8,
            ParallelConfig {
                pp: 4,
                microbatch_multiplier: 2,
                ..Default::default()
            },
        ),
        (
            16,
            ParallelConfig {
                tp: 2,
                pp: 2,
                virtual_stages: 2,
                microbatch_multiplier: 2,
                ..Default::default()
            },
        ),
        (
            16,
            ParallelConfig {
                tp: 2,
                pp: 4,
                microbatch_multiplier: 2,
                distributed_optimizer: true,
                ..Default::default()
            },
        ),
    ];
    for (world, parallel) in cases {
        let cluster = ClusterSpec::h100(world.div_ceil(8), 8.min(world));
        let j = job(world, parallel);
        assert!(j.validate().is_ok(), "{parallel} invalid");
        let maya = MayaBuilder::new(cluster).build().unwrap();
        let ranks: Vec<u32> = (0..world).collect();
        let traced = maya.trace_workload(&ranks, |r, ctx| j.run_worker(r, ctx));
        let workers: Vec<_> = traced
            .into_iter()
            .map(|(t, res)| {
                res.expect("worker runs");
                t
            })
            .collect();
        let observed = maya_collate::collate(workers, world).expect("collates");
        let analytical = megatron_comm_groups(&j);
        for (comm, members) in &observed.comm_groups {
            assert_eq!(
                analytical.get(comm),
                Some(members),
                "{parallel} world {world}: comm {comm:#x} mismatch"
            );
        }
    }
}

/// Selective launch must agree with full emulation even when groups span
/// nodes with non-unit stride (the bug this test pins down: stride-1
/// inference mis-tiered strided DP groups).
#[test]
fn selective_launch_accurate_on_multinode_strided_groups() {
    for (world, nodes) in [(32u32, 4u32), (64, 8)] {
        let cluster = ClusterSpec::h100(nodes, 8);
        let parallel = ParallelConfig {
            tp: 2,
            pp: 2,
            microbatch_multiplier: 2,
            ..Default::default()
        };
        let j = job(world, parallel);
        let full = MayaBuilder::new(cluster.clone()).build().unwrap();
        let spec = EmulationSpec::new(cluster.clone()).with_selective_launch(true);
        let selective = MayaBuilder::new(cluster).with_spec(spec).build().unwrap();
        let a = full.predict_job(&j).unwrap().iteration_time().unwrap();
        let b = selective.predict_job(&j).unwrap().iteration_time().unwrap();
        let drift = (a.as_secs_f64() / b.as_secs_f64() - 1.0).abs();
        assert!(
            drift < 0.02,
            "{world} GPUs: selective-launch drift {:.2}% (full {a} selective {b})",
            drift * 100.0
        );
    }
}
