//! Maya-Search: find the cheapest training recipe without touching a GPU
//! (the §7.3 flow).
//!
//! Searches the Table 5 knob space for GPT-3 2.7B on 8×H100 with CMA-ES,
//! caching, fidelity-preserving pruning and early stopping, then prints
//! the best recipe plus the trial-status breakdown (Figure 15's bars).
//!
//! ```text
//! cargo run --release --example config_search
//! ```

use maya::{EmulationSpec, MayaBuilder};
use maya_hw::ClusterSpec;
use maya_search::{AlgorithmKind, ConfigSpace, Objective, TrialScheduler};
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::Dtype;

fn main() {
    let cluster = ClusterSpec::h100(1, 8);
    let spec = EmulationSpec::new(cluster.clone()).with_selective_launch(true);
    let maya = MayaBuilder::new(cluster.clone())
        .with_spec(spec)
        .build()
        .expect("builds");

    let template = TrainingJob {
        model: ModelSpec::gpt3_2_7b(),
        parallel: ParallelConfig::default(),
        flavor: FrameworkFlavor::Megatron,
        compile: false,
        global_batch: 64,
        world: cluster.num_gpus(),
        gpus_per_node: cluster.gpus_per_node,
        precision: Dtype::Bf16,
        iterations: 1,
    };
    let objective = Objective::new(&maya, template);

    // A reduced space keeps the example snappy; drop `.with_space` to
    // search the full 1920-point Table 5 space.
    let space = ConfigSpace {
        tp: vec![1, 2, 4],
        pp: vec![1, 2, 4],
        microbatch_multiplier: vec![1, 2, 4],
        virtual_stages: vec![1, 2],
        activation_recompute: vec![true, false],
        sequence_parallel: vec![true, false],
        distributed_optimizer: vec![true, false],
    };

    println!(
        "searching {} candidate recipes with CMA-ES...",
        space.cardinality()
    );
    let result =
        TrialScheduler::new(&objective)
            .with_space(space)
            .run(AlgorithmKind::CmaEs, 400, 7);

    match &result.best {
        None => println!("no feasible configuration found"),
        Some((config, outcome)) => {
            println!("best recipe : {config}");
            if let maya_search::TrialOutcome::Completed {
                iteration_time,
                mfu,
                cost,
            } = outcome
            {
                println!("iteration   : {iteration_time}");
                println!("MFU         : {:.1}%", mfu * 100.0);
                println!("cost/iter   : ${cost:.4}");
            }
        }
    }
    println!(
        "trials: {} executed, {} cached, {} skipped by pruning, {} invalid",
        result.stats.executed, result.stats.cached, result.stats.skipped, result.stats.invalid
    );
    println!("search wall time: {:.2?}", result.wall);
}
