//! Row functions for the paper's tables (§2, §7, Appendix B).

use std::collections::btree_map::{BTreeMap, Entry};
use std::time::Duration;

use maya::{EmulationSpec, MayaBuilder, MayaError, PredictionEngine, StageTimings};
use maya_baselines::BaselinePrediction;
use maya_estimator::ForestEstimator;
use maya_hw::ClusterSpec;
use maya_search::{AlgorithmKind, Objective, TrialScheduler};
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::{DeviceOp, Dtype};

use crate::{baselines, Budget, Cell, Data, ReproError, Scenario, Table};

/// Table 1: capability matrix of Maya vs. the baselines, derived by
/// probing each system with single-knob configurations rather than
/// hard-coding claims.
pub fn tab01(_: &Budget) -> Result<Data, ReproError> {
    // Each knob alone, on the default recipe.
    let only = |edit: fn(&mut ParallelConfig)| {
        let mut p = ParallelConfig::default();
        edit(&mut p);
        p
    };
    let knobs = [
        ("Data Parallel", only(|_| ())),
        ("Tensor Parallel", only(|p| p.tp = 4)),
        ("Pipeline Parallel", only(|p| p.pp = 4)),
        (
            "Sequence Parallel",
            only(|p| (p.tp, p.sequence_parallel) = (4, true)),
        ),
        (
            "Pipeline Interleaving",
            only(|p| (p.pp, p.virtual_stages) = (4, 2)),
        ),
        (
            "Distributed Optimizer",
            only(|p| p.distributed_optimizer = true),
        ),
        (
            "Activation Recompute",
            only(|p| p.activation_recompute = true),
        ),
        (
            "Gradient Accumulation",
            only(|p| p.microbatch_multiplier = 4),
        ),
    ];
    let (cluster, model) = (ClusterSpec::h100(4, 8), ModelSpec::gpt3_18_4b());
    let probe = Scenario::new("probe", cluster, model, 256, Dtype::Bf16);
    let maya = probe.maya_oracle()?;
    let systems = baselines();
    let mut columns = vec![("Capability", -24), ("Maya", 6)];
    columns.extend(systems.iter().map(|s| (s.name(), 9)));
    let mut table = Table::new("", &columns);
    let yes_no = |yes: bool| Cell::from(if yes { "yes" } else { "no" });
    for (name, parallel) in knobs {
        let job = probe.job(parallel);
        // An OOM verdict still counts as support: the pipeline produced
        // a definitive answer for the knob combination.
        let mut row = vec![
            name.into(),
            yes_no(job.validate().is_ok() && maya.predict_job(&job).is_ok()),
        ];
        row.extend(systems.iter().map(|s| {
            yes_no(!matches!(
                s.predict(&job, &probe.cluster),
                BaselinePrediction::Unsupported
            ))
        }));
        table.rows.push(row);
    }
    Ok(Data::default().aligned(table).note(
        "\nTransparent (no code modifications): Maya yes; all baselines no (by design —\n\
         they consume declarative specs / strategy trees rather than the running script).",
    ))
}

/// Compute (FLOPs), memory (peak bytes) and network (collective bytes)
/// load of one job's rank-0 trace.
fn loads(job: &TrainingJob, scenario: &Scenario) -> Result<[f64; 3], MayaError> {
    job.validate()?;
    let (trace, res) = maya_torchlet::engine::trace_one_rank(job, 0, scenario.cluster.gpu);
    if let Err(e) = res {
        if !trace.summary.oom {
            return Err(MayaError::Device(e));
        }
    }
    let flops = trace
        .kernels()
        .filter_map(|e| e.op.as_kernel().map(|k| k.flops()))
        .sum();
    let net = trace
        .events
        .iter()
        .filter_map(|e| match e.op {
            DeviceOp::Collective { desc } => Some(desc.bytes as f64),
            _ => None,
        })
        .sum();
    Ok([flops, trace.summary.peak_mem_bytes as f64, net])
}

/// Table 2: effect of each configuration knob on compute / memory /
/// network load, measured from emulated traces at fixed global batch.
pub fn tab02(_: &Budget) -> Result<Data, ReproError> {
    let (cluster, model) = (ClusterSpec::h100(1, 8), ModelSpec::gpt3_2_7b());
    let scenario = Scenario::new("GPT3 2.7B - 8xH100", cluster, model, 32, Dtype::Bf16);
    // Each knob alone, on the tp2 pp2 two-microbatch baseline.
    let on_base = |edit: fn(&mut ParallelConfig)| {
        let mut p = ParallelConfig {
            tp: 2,
            pp: 2,
            microbatch_multiplier: 2,
            ..Default::default()
        };
        edit(&mut p);
        p
    };
    let base_loads = loads(&scenario.job(on_base(|_| ())), &scenario)?;
    let knobs = [
        ("Tensor Parallel (x2)", on_base(|p| (p.tp, p.pp) = (4, 1))),
        ("Pipeline Parallel (x2)", on_base(|p| (p.tp, p.pp) = (1, 4))),
        ("Sequence Parallel", on_base(|p| p.sequence_parallel = true)),
        ("Pipeline Interleaving", on_base(|p| p.virtual_stages = 2)),
        (
            "Distributed Optimizer",
            on_base(|p| p.distributed_optimizer = true),
        ),
        (
            "Activation Recompute",
            on_base(|p| p.activation_recompute = true),
        ),
        (
            "Grad Accumulation (x2)",
            on_base(|p| p.microbatch_multiplier = 4),
        ),
    ];
    let mut table = Table::new(
        "Table 2: per-rank load vs baseline (tp2 pp2, fixed global batch 32)",
        &[
            ("Knob", -26),
            ("Compute", 9),
            ("Memory", 9),
            ("Network", 9),
            ("(ratio to baseline)", 0),
        ],
    );
    for (name, cfg) in knobs {
        let Ok(knob_loads) = loads(&scenario.job(cfg), &scenario) else {
            table.rows.push(vec![name.into(), "invalid".into()]);
            continue;
        };
        let [f, m, n] = knob_loads;
        let [base_f, base_m, base_n] = base_loads;
        let [f, m, n] = [f / base_f, m / base_m, n / base_n];
        let mut row: Vec<Cell> = vec![name.into()];
        row.extend([f, m, n].map(|r| {
            let arrow = if r > 1.05 {
                "UP"
            } else if r < 0.95 {
                "DOWN"
            } else {
                "-"
            };
            Cell {
                text: arrow.into(),
                value: Some(r),
            }
        }));
        row.push(format!("({f:.2}x, {m:.2}x, {n:.2}x)").into());
        table.rows.push(row);
    }
    Ok(Data::default().aligned(table))
}

/// Table 3: breakdown of prediction error — oracle (true per-kernel
/// runtimes) vs. end-to-end (forest estimator), isolating the error
/// introduced by the emulation + simulation phases.
pub fn tab03(budget: &Budget) -> Result<Data, ReproError> {
    let (small, mid, llama) = (
        ModelSpec::gpt3_1_3b(),
        ModelSpec::gpt3_2_7b(),
        ModelSpec::llama2_7b(),
    );
    // (model, name, nodes, batch, tp, pp, grad-accumulation)
    let rows = [
        (small, "GPT3-1.3B", 1, 16, 1, 2, 2),
        (small, "GPT3-1.3B", 1, 16, 2, 1, 2),
        (small, "GPT3-1.3B", 1, 16, 2, 2, 2),
        (small, "GPT3-1.3B", 1, 16, 2, 4, 2),
        (small, "GPT3-1.3B", 1, 16, 4, 2, 2),
        (mid, "GPT3-2.7B", 1, 16, 1, 2, 2),
        (mid, "GPT3-2.7B", 1, 16, 2, 1, 2),
        (mid, "GPT3-2.7B", 1, 8, 2, 2, 2),
        (mid, "GPT3-2.7B", 1, 8, 2, 4, 2),
        (mid, "GPT3-2.7B", 1, 8, 4, 2, 2),
        (llama, "Llama2-7B", 4, 16, 2, 8, 2),
        (llama, "Llama2-7B", 4, 8, 2, 8, 4),
        (llama, "Llama2-7B", 4, 16, 4, 4, 2),
        (llama, "Llama2-7B", 4, 8, 8, 2, 2),
    ];
    let mut table = Table::new(
        "",
        &[
            ("Model", -11),
            ("BS", 4),
            ("TP", 3),
            ("PP", 3),
            ("GA", 3),
            ("actual", 10),
            ("Oracle", 8),
            ("E2E", 8),
        ],
    );
    // One oracle and one forest engine per cluster size (all V100).
    let mut engines: BTreeMap<u32, (PredictionEngine, PredictionEngine)> = BTreeMap::new();
    for (model, name, nodes, bs, tp, pp, ga) in rows {
        let scenario = Scenario::new(name, ClusterSpec::v100(nodes, 8), model, bs, Dtype::Fp16);
        let (oracle, e2e) = match engines.entry(nodes) {
            Entry::Occupied(pair) => pair.into_mut(),
            Entry::Vacant(slot) => {
                slot.insert((scenario.maya_oracle()?, scenario.maya(budget.scale, 4242)?))
            }
        };
        let parallel = ParallelConfig {
            tp,
            pp,
            microbatch_multiplier: ga,
            activation_recompute: true,
            ..Default::default()
        };
        let job = scenario.job(parallel);
        if job.validate().is_err() {
            table.rows.push(vec![
                name.into(),
                format!("config {parallel} invalid, skipped").into(),
            ]);
            continue;
        }
        let mut row: Vec<Cell> = vec![name.into()];
        row.extend([bs, tp, pp, ga].map(|n| Cell::count(n as usize)));
        let Ok(actual) = oracle.measure_actual(&job)? else {
            row.push("OOM".into());
            table.rows.push(row);
            continue;
        };
        let actual = actual.iteration_time.as_secs_f64();
        row.push(Cell::num(actual, 3, "s"));
        for engine in [&*oracle, &*e2e] {
            let predicted = engine
                .predict_job(&job)
                .ok()
                .and_then(|p| p.iteration_time());
            row.push(match predicted {
                Some(t) => Cell::num((t.as_secs_f64() / actual - 1.0).abs() * 100.0, 2, "%"),
                None => "OOM".into(),
            });
        }
        table.rows.push(row);
    }
    Ok(Data::default()
        .aligned(table)
        .note("\n(Oracle = true per-kernel runtimes; E2E = trained random-forest estimator)"))
}

/// Table 4: framework generality — models x framework stacks that run
/// under Maya's emulation and produce usable traces.
pub fn tab04(_: &Budget) -> Result<Data, ReproError> {
    let maya = MayaBuilder::new(ClusterSpec::h100(1, 4)).build()?;
    let models = [
        ("GPT", ModelSpec::gpt3_125m()),
        ("Llama", ModelSpec::llama2_7b()),
        ("BERT", ModelSpec::bert_large()),
        ("ViT", ModelSpec::vit_large()),
        ("T5", ModelSpec::t5_large()),
        ("ResNet", ModelSpec::resnet152()),
    ];
    let zero = |stage, activation_offload| FrameworkFlavor::DeepSpeedZero {
        stage,
        activation_offload,
    };
    let flavors = [
        ("DDP", FrameworkFlavor::Ddp, false),
        ("DDP+compile", FrameworkFlavor::Ddp, true),
        ("FSDP", FrameworkFlavor::Fsdp, false),
        ("ZeRO-1", zero(1, false), false),
        ("ZeRO-2", zero(2, false), false),
        ("ZeRO-3", zero(3, false), false),
        ("ZeRO-1+offload", zero(1, true), false),
    ];
    let mut columns = vec![("Model", -10)];
    columns.extend(flavors.iter().map(|&(name, ..)| (name, 14)));
    let mut table = Table::new("", &columns);
    for (name, model) in models {
        let mut row: Vec<Cell> = vec![name.into()];
        for (_, flavor, compile) in flavors {
            let job = TrainingJob {
                model,
                parallel: ParallelConfig::default(),
                flavor,
                compile,
                global_batch: 16,
                world: 4,
                gpus_per_node: 8,
                precision: Dtype::Bf16,
                iterations: 1,
            };
            row.push(match maya.predict_job(&job).map(|p| p.iteration_time()) {
                Ok(Some(t)) => Cell::num(t.as_ms(), 0, "ms"),
                Ok(None) => "OOM".into(),
                Err(_) => "err".into(),
            });
        }
        table.rows.push(row);
    }
    Ok(Data::default()
        .aligned(table)
        .note("\n(every cell = emulation ran and produced a prediction; times are per iteration)"))
}

/// One Table 6 column: a search on `maya`, plus the stage timings of
/// one representative *fitting* recipe (timings are also accumulated
/// inside each trial; this keeps the table honest and cheap).
fn search_column(
    maya: &PredictionEngine,
    scenario: &Scenario,
    grid_cap: Option<usize>,
) -> (StageTimings, Duration, usize) {
    let objective = Objective::new(maya, scenario.template());
    let mut sched = TrialScheduler::new(&objective);
    let result = match grid_cap {
        None => sched.run(AlgorithmKind::CmaEs, 300, 6),
        // Grid without heuristics, capped for tractability; the paper's
        // full grid ran for more than 24 hours.
        Some(cap) => {
            sched.pruning = false;
            sched.early_stop_patience = None;
            sched.run(AlgorithmKind::Grid, cap, 0)
        }
    };
    let representative = scenario.job(ParallelConfig {
        tp: 4,
        pp: 2,
        microbatch_multiplier: 2,
        activation_recompute: true,
        sequence_parallel: true,
        distributed_optimizer: true,
        ..Default::default()
    });
    let stages = maya
        .predict_job(&representative)
        .map(|p| p.timings)
        .unwrap_or_default();
    (stages, result.wall, result.stats.executed)
}

/// Table 6: runtime statistics of configuration search on the 32×H100
/// spec with and without Maya's optimizations (worker deduplication +
/// selective launch, pruning, CMA vs. grid).
pub fn tab06(budget: &Budget) -> Result<Data, ReproError> {
    let [_, _, scenario, _] = Scenario::headline(); // 32xH100
    let (opt, opt_wall, opt_exec) = search_column(&scenario.maya_oracle()?, &scenario, None);
    let spec = EmulationSpec::without_optimizations(scenario.cluster.clone());
    let unoptimized = MayaBuilder::new(scenario.cluster.clone())
        .with_spec(spec)
        .build()?;
    let (no, no_wall, no_exec) =
        search_column(&unoptimized, &scenario, Some(budget.configs_or(120)));

    let mut table = Table::new(
        format!(
            "Table 6: per-trial stage runtimes and search totals ({})",
            scenario.name
        ),
        &[("Stage", -22), ("Maya", 14), ("No Optimization", 16)],
    );
    let ms = |d: Duration| Cell::num(d.as_secs_f64() * 1e3, 2, "ms");
    for (stage, with, without) in [
        ("Emulation", opt.emulation, no.emulation),
        ("Trace collation", opt.collation, no.collation),
        ("Runtime prediction", opt.estimation, no.estimation),
        ("Simulation", opt.simulation, no.simulation),
    ] {
        table.rows.push(vec![stage.into(), ms(with), ms(without)]);
    }
    table.rows.push(vec![
        "Total search time".into(),
        Cell::num(opt_wall.as_secs_f64(), 1, "s"),
        Cell::num(no_wall.as_secs_f64(), 1, "s"),
    ]);
    let capped = Cell::count(no_exec);
    table.rows.push(vec![
        "Trials executed".into(),
        Cell::count(opt_exec),
        Cell {
            text: format!("{} (capped)", capped.text),
            ..capped
        },
    ]);
    Ok(Data::default().aligned(table))
}

/// Tables 7/8/9: per-kernel MAPE of the random-forest estimators on a
/// held-out 20 % split, for H100, V100 and A40.
pub fn tab07_09(budget: &Budget) -> Result<Data, ReproError> {
    let mut data = Data::default();
    for (label, cluster) in [
        ("Table 7 (H100)", ClusterSpec::h100(1, 8)),
        ("Table 8 (V100)", ClusterSpec::v100(1, 8)),
        ("Table 9 (A40)", ClusterSpec::a40(1, 8)),
    ] {
        let (_, report) = ForestEstimator::train(&cluster, budget.scale, 0xBEEF);
        let mut table = Table::new(
            format!("{label} — per-kernel MAPE on a held-out 20% split"),
            &[("Kernel", -44), ("Samples", 8), ("MAPE", 9)],
        );
        for (name, &(samples, mape)) in &report.per_kernel {
            table.rows.push(vec![
                (*name).into(),
                Cell::count(samples),
                Cell::num(mape * 100.0, 2, "%"),
            ]);
        }
        table.rows.push(vec![
            "OVERALL".into(),
            "".into(),
            Cell::num(report.overall() * 100.0, 2, "%"),
        ]);
        data = data.aligned(table).note("");
    }
    Ok(data)
}
