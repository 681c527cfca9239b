//! Row functions for the paper's figures (§7).

use maya::{EmulationSpec, MayaBuilder};
use maya_hw::{mfu, ClusterSpec};
use maya_search::{AlgorithmKind, Objective, SearchResult, TrialScheduler};
use maya_torchlet::{FrameworkFlavor, ModelSpec, ParallelConfig, TrainingJob};
use maya_trace::{Dtype, SimTime};

use crate::accuracy::{headline_evals, ranked_completions, system_errors, SYSTEMS};
use crate::{ape, quantile, valid_configs};
use crate::{Budget, Cell, Data, ReproError, Scenario, Table};

/// Seconds to `decimals` places, or `-`.
fn secs_or_dash(t: Option<SimTime>, decimals: usize) -> Cell {
    match t {
        Some(t) => Cell::num(t.as_secs_f64(), decimals, ""),
        None => "-".into(),
    }
}

/// The grid reference: visits every one of a deterministic stride
/// sample of `scenario`'s valid space, `limit` configurations wide.
fn grid(objective: &Objective<'_>, scenario: &Scenario, limit: usize) -> SearchResult {
    let mut sched = TrialScheduler::new(objective);
    sched.early_stop_patience = None;
    sched.run_configs(&valid_configs(scenario, limit))
}

/// TP8 x PP8 on `dp`-way data parallelism over H100 nodes, with every
/// memory optimization on (Figs. 12 and 13): the cluster it needs and
/// the recipe.
fn tp8_pp8(
    model: ModelSpec,
    dp: u32,
    microbatch_multiplier: u32,
    global_batch: u32,
) -> (Scenario, ParallelConfig) {
    let cluster = ClusterSpec::h100(8 * dp, 8);
    let parallel = ParallelConfig {
        tp: 8,
        pp: 8,
        microbatch_multiplier,
        activation_recompute: true,
        sequence_parallel: true,
        distributed_optimizer: true,
        ..Default::default()
    };
    let scenario = Scenario::new("", cluster, model, global_batch, Dtype::Bf16);
    (scenario, parallel)
}

/// Figure 2: sensitivity of the optimal configuration to cluster size
/// (GPT-3 18.4B on H100) — the optimal recipe per size (2a) and the
/// cross-deployment cost-ratio matrix (2b).
pub fn fig02(budget: &Budget) -> Result<Data, ReproError> {
    let mut data = Data::default();
    let mut optima = Vec::new();
    for n in [16u32, 32, 64, 128] {
        let cluster = ClusterSpec::h100(n / 8, 8);
        let scenario = Scenario::new("", cluster, ModelSpec::gpt3_18_4b(), 512, Dtype::Bf16);
        let maya = scenario.maya_oracle()?;
        let objective = Objective::new(&maya, scenario.template());
        let (cfg, iteration_time, mfu) = grid(&objective, &scenario, budget.configs_or(120))
            .best
            .and_then(|(cfg, outcome)| Some((cfg, outcome.time()?, outcome.mfu()?)))
            .ok_or(budget.starved("fig02"))?;
        data = data.record(
            format!("GPUs {n:>4}: optimal {cfg}"),
            vec![
                ("iter", Cell::num(iteration_time.as_secs_f64(), 2, "s")),
                ("MFU", Cell::num(mfu * 100.0, 1, "%")),
            ],
        );
        optima.push((n, cfg, iteration_time, scenario, maya));
    }

    // Cross-deployment matrix: run the optimum of size A at size B.
    let mut columns = vec![(String::new(), 10)];
    columns.extend(optima.iter().map(|(n, ..)| (n.to_string(), 9)));
    let columns: Vec<(&str, isize)> = columns.iter().map(|(n, w)| (n.as_str(), *w)).collect();
    let mut matrix = Table::new(
        "\nFigure 2b: cross-deployment cost ratio (rows = reference, cols = deployment)",
        &columns,
    );
    for (ref_n, ref_cfg, ..) in &optima {
        let mut row: Vec<Cell> = vec![ref_n.to_string().into()];
        for (_, _, dep_opt, scenario, maya) in &optima {
            let job = scenario.job(*ref_cfg);
            let predicted = job
                .validate()
                .ok()
                .and_then(|_| maya.predict_job(&job).ok());
            row.push(match predicted.map(|p| p.iteration_time()) {
                None => "inval".into(),
                Some(None) => "OOM".into(),
                Some(Some(t)) => Cell::num(t.as_secs_f64() / dep_opt.as_secs_f64(), 2, ""),
            });
        }
        matrix.rows.push(row);
    }
    Ok(data
        .aligned(matrix)
        .note("\n(cell = cost of reference-size optimum deployed at column size, normalized)"))
}

/// Figure 7: predicted vs. actual per-iteration runtime for the top
/// valid configurations on each deployment setup, with each system's
/// mean absolute percentage error.
pub fn fig07(budget: &Budget) -> Result<Data, ReproError> {
    let mut data = Data::default();
    for (i, scenario) in Scenario::headline().iter().enumerate() {
        let evals = headline_evals(i, scenario, budget)?;
        let ranked = ranked_completions(&evals);
        let mut series = Table::series(
            format!("Figure 7: {}", scenario.name),
            "config_id,actual_s,maya_s,proteus_s,calculon_s,amped_s,config",
        );
        for (id, e) in ranked.iter().take(100).enumerate() {
            let mut row = vec![Cell::count(id), secs_or_dash(e.actual, 4)];
            row.extend(e.predicted.iter().map(|(_, t)| secs_or_dash(*t, 4)));
            row.push(e.config.to_string().into());
            series.rows.push(row);
        }
        let fields = SYSTEMS
            .into_iter()
            .map(|system| {
                let errs = system_errors(&ranked, system);
                // NaN when the system answered for no config.
                let mean = errs.iter().sum::<f64>() / errs.len() as f64 * 100.0;
                (system, Cell::num(mean, 1, "%"))
            })
            .collect();
        let label = format!("summary {}: mean APE", scenario.name);
        data = data.series(series).record(label, fields).note("");
    }
    Ok(data)
}

/// Figure 8: cost impact of prediction accuracy on configuration
/// selection — each system picks its best-predicted config; the cell
/// is that config's *actual* cost over the actual optimum.
pub fn fig08(budget: &Budget) -> Result<Data, ReproError> {
    let mut columns = vec![("setup", -22)];
    columns.extend(SYSTEMS.map(|system| (system, 10)));
    let mut table = Table::new("", &columns);
    for (i, scenario) in Scenario::headline().iter().enumerate() {
        let evals = headline_evals(i, scenario, budget)?;
        let actuals = evals.iter().filter_map(|e| e.actual);
        let optimal = actuals.min().ok_or(budget.starved("fig08"))?;
        let mut row: Vec<Cell> = vec![scenario.name.into()];
        for system in SYSTEMS {
            let selected = evals
                .iter()
                .filter(|e| e.predicted_by(system).is_some())
                .min_by_key(|e| e.predicted_by(system));
            // `n/a`: no supported/feasible prediction, or the selected
            // config actually OOMs on deployment.
            row.push(match selected.and_then(|e| e.actual) {
                Some(actual) => {
                    let over = (actual.as_secs_f64() / optimal.as_secs_f64() - 1.0) * 100.0;
                    Cell {
                        text: format!("+{over:.0}%"),
                        value: Some(over),
                    }
                }
                None => "n/a".into(),
            });
        }
        table.rows.push(row);
    }
    Ok(Data::default()
        .aligned(table)
        .note("\n(normalized actual cost of each system's selected config; +0% = optimal)"))
}

/// Figure 9: distribution of absolute prediction errors per system, on
/// the smallest and largest setups.
pub fn fig09(budget: &Budget) -> Result<Data, ReproError> {
    let mut data = Data::default();
    for (i, scenario) in Scenario::headline().iter().enumerate() {
        if !matches!(i, 0 | 3) {
            continue;
        }
        let evals = headline_evals(i, scenario, budget)?;
        let ranked = ranked_completions(&evals);
        let mut series = Table::series(
            format!("Figure 9: error CDF, {}", scenario.name),
            "system,p10_err%,p25_err%,p50_err%,p75_err%,p90_err%",
        );
        for system in SYSTEMS {
            let mut errs: Vec<f64> = system_errors(&ranked, system)
                .iter()
                .map(|e| e * 100.0)
                .collect();
            let mut row: Vec<Cell> = vec![system.into()];
            row.extend([0.10, 0.25, 0.50, 0.75, 0.90].map(|q| {
                if errs.is_empty() {
                    "-".into()
                } else {
                    Cell::num(quantile(&mut errs, q), 2, "")
                }
            }));
            series.rows.push(row);
        }
        data = data.series(series);
    }
    Ok(data)
}

/// Figure 10: prediction accuracy across ResNet-152 configurations on
/// the 8×A40 node (batch × gradient accumulation × torch.compile).
pub fn fig10(budget: &Budget) -> Result<Data, ReproError> {
    let (a40, resnet) = (ClusterSpec::a40(1, 8), ModelSpec::resnet152());
    let scenario = Scenario::new("ResNet152 - 8xA40", a40, resnet, 256, Dtype::Fp32);
    let maya = scenario.maya(budget.scale, 77)?;
    let mut series = Table::series(
        "Figure 10: ResNet152 on 8xA40",
        "config_id,actual_s,maya_s,error%,config",
    );
    let mut errs = Vec::new();
    for batch in [64u32, 128, 192, 256, 384, 512] {
        for accum in [1u32, 2] {
            for compile in [false, true] {
                let job = TrainingJob {
                    parallel: ParallelConfig {
                        microbatch_multiplier: accum,
                        ..Default::default()
                    },
                    flavor: FrameworkFlavor::Ddp,
                    compile,
                    global_batch: batch,
                    ..scenario.template()
                };
                if job.validate().is_err() {
                    continue;
                }
                let predicted = maya.predict_job(&job)?.iteration_time();
                let actual = maya.measure_actual(&job)?;
                if let (Some(p), Ok(a)) = (predicted, actual) {
                    let err = ape(p, a.iteration_time) * 100.0;
                    errs.push(err);
                    let suffix = if compile { "-compile" } else { "" };
                    series.rows.push(vec![
                        Cell::count(series.rows.len()),
                        Cell::num(a.iteration_time.as_secs_f64(), 4, ""),
                        Cell::num(p.as_secs_f64(), 4, ""),
                        Cell::num(err, 2, ""),
                        format!("batch{batch}-ga{accum}{suffix}").into(),
                    ]);
                }
            }
        }
    }
    let under5 = errs.iter().filter(|&&e| e < 5.0).count();
    let share = Cell {
        text: format!("{under5}/{}", errs.len()),
        value: Some(under5 as f64 / errs.len() as f64),
    };
    let median = Cell::num(quantile(&mut errs, 0.5), 2, "%");
    let summary = vec![("configs under 5% error", share), ("median", median)];
    Ok(Data::default().series(series).record("summary:", summary))
}

/// Figure 11: end-to-end configuration-search runtime and fidelity —
/// CMA-ES (all optimizations) vs. the optimum of a grid over a
/// deterministic stride sample of the valid space, per setup.
pub fn fig11(budget: &Budget) -> Result<Data, ReproError> {
    let mut table = Table::new(
        "",
        &[
            ("setup", -22),
            ("search time", 12),
            ("grid time", 14),
            ("cma cost", 12),
            ("norm. cost", 12),
        ],
    );
    for scenario in Scenario::headline() {
        let maya = scenario.maya_oracle()?;
        let objective = Objective::new(&maya, scenario.template());
        let cma = TrialScheduler::new(&objective).run(AlgorithmKind::CmaEs, 600, 11);
        let reference = grid(&objective, &scenario, budget.configs_or(150));
        table
            .rows
            .push(match (cma.best_time(), reference.best_time()) {
                (Some(c), Some(g)) => vec![
                    scenario.name.into(),
                    Cell::num(cma.wall.as_secs_f64(), 1, "s"),
                    Cell::num(reference.wall.as_secs_f64(), 1, "s"),
                    Cell::num(c.as_secs_f64(), 3, "s"),
                    Cell::num(c.as_secs_f64() / g.as_secs_f64(), 3, "x"),
                ],
                _ => vec![scenario.name.into(), "no feasible config".into()],
            });
    }
    Ok(Data::default()
        .aligned(table)
        .note("\n(norm. cost = CMA-found config cost / grid-search optimal; 1.000x = optimal)"))
}

/// Figure 12: predicted MFU and iteration time when scaling the
/// data-parallel degree to thousands of GPUs (GPT-3 145.6B, TP8 PP8,
/// the paper's 12K global batch, 64 microbatches), using selective
/// worker launch and the analytical network model.
pub fn fig12(_: &Budget) -> Result<Data, ReproError> {
    let global_batch = 12288u32;
    let mut series = Table::series(
        "Figure 12: MFU when scaling DP (GPT3-145.6B, TP8 PP8, batch 12288)",
        "gpus,iter_time_s,mfu%",
    );
    for dp in [16u32, 24, 32, 48, 96, 192] {
        if global_batch % (dp * 64) != 0 {
            continue;
        }
        // Multiplier 8 on PP8: 64 microbatches.
        let (scenario, parallel) = tp8_pp8(ModelSpec::gpt3_145_6b(), dp, 8, global_batch);
        let job = scenario.job(parallel);
        let prediction = scenario.maya_oracle()?.predict_job(&job)?;
        let world = Cell::count(job.world as usize);
        series
            .rows
            .push(match (prediction.report(), job.flops_spec()) {
                (Some(r), Some(spec)) => {
                    let secs = r.total_time.as_secs_f64();
                    let mfu = mfu::mfu(&spec, secs, &scenario.cluster);
                    vec![world, Cell::num(secs, 2, ""), Cell::num(mfu * 100.0, 2, "")]
                }
                _ => vec![world, "OOM".into(), "-".into()],
            });
    }
    Ok(Data::default().series(series))
}

/// Figure 13: Maya stack runtime (emulator / collator / predictor /
/// simulator wall time) when scaling the cluster to thousands of GPUs
/// with a fixed configuration, under selective launch (8 unique
/// workers, one per pipeline stage, §7.4). The model is a scaled-down
/// GPT so the largest point takes seconds, not the paper's ~25 minutes;
/// the scaling *shape* is the result.
pub fn fig13(_: &Budget) -> Result<Data, ReproError> {
    let mut series = Table::series(
        "Figure 13: Maya stack runtime vs cluster size (selective launch)",
        "gpus,emulator_s,collator_s,predictor_s,simulator_s,total_s,trace_events,full_sim_total_s",
    );
    for dp in [16u32, 32, 64, 128, 256] {
        // 1K .. 16K GPUs; per-DP-rank batch fixed (multiplier 4 on PP8
        // is 32 microbatches), so the global batch grows with the cluster.
        let (scenario, parallel) = tp8_pp8(ModelSpec::gpt3_18_4b(), dp, 4, dp * 32);
        let job = scenario.job(parallel);
        let p = scenario.maya_oracle()?.predict_job(&job)?;
        let t = p.timings;
        // At feasible sizes, also run with all optimizations off to show
        // the full-simulation cost the paper's Fig. 13 is dominated by.
        let full = (job.world <= 1024)
            .then(|| {
                let spec = EmulationSpec::without_optimizations(scenario.cluster.clone());
                let no_opt = MayaBuilder::new(scenario.cluster.clone()).with_spec(spec);
                Some(no_opt.build().ok()?.predict_job(&job).ok()?.timings.total())
            })
            .flatten();
        let mut row = vec![Cell::count(job.world as usize)];
        let stages = [
            t.emulation,
            t.collation,
            t.estimation,
            t.simulation,
            t.total(),
        ];
        row.extend(stages.map(|d| Cell::num(d.as_secs_f64(), 3, "")));
        row.push(Cell::count(p.trace_events));
        row.push(match full {
            Some(d) => Cell::num(d.as_secs_f64(), 3, ""),
            None => "-".into(),
        });
        series.rows.push(row);
    }
    Ok(Data::default().series(series).note(
        "note: unlike the paper's implementation (which reconstructs and simulates every\n\
         rank), this pipeline simulates only unique workers, so the optimized stack cost\n\
         is nearly scale-independent; the full_sim column shows the unoptimized cost.",
    ))
}

/// Figure 14: impact of dynamic worker deduplication on Maya's
/// end-to-end runtime. Parallelism is fixed while the data-parallel
/// degree (cluster size) grows; the added workers are redundant, so
/// deduplication holds the runtime roughly flat — and must not move the
/// prediction.
pub fn fig14(budget: &Budget) -> Result<Data, ReproError> {
    let parallel = ParallelConfig {
        tp: 2,
        pp: 2,
        microbatch_multiplier: 2,
        activation_recompute: true,
        ..Default::default()
    };
    let mut series = Table::series(
        "Figure 14: worker-deduplication runtime impact (fixed tp2 pp2, growing DP)",
        "setup,no_dedup_s,dedup_s,saving,prediction_drift,workers_no_dedup,workers_dedup",
    );
    for (label, cluster, precision) in [
        ("8xV100", ClusterSpec::v100(1, 8), Dtype::Fp16),
        ("16xV100", ClusterSpec::v100(2, 8), Dtype::Fp16),
        ("32xV100", ClusterSpec::v100(4, 8), Dtype::Fp16),
        ("32xH100", ClusterSpec::h100(4, 8), Dtype::Bf16),
        ("64xH100", ClusterSpec::h100(8, 8), Dtype::Bf16),
    ] {
        let batch = 4 * cluster.num_gpus();
        let scenario = Scenario::new(label, cluster, ModelSpec::gpt3_2_7b(), batch, precision);
        let job = scenario.job(parallel);
        let timed = |builder: MayaBuilder| -> Result<_, ReproError> {
            let p = builder.build()?.predict_job(&job)?;
            let wall = p.timings.total().as_secs_f64();
            let time = p.iteration_time().ok_or(budget.starved("fig14"))?;
            Ok((wall, time.as_secs_f64(), p.workers_simulated))
        };
        let spec = EmulationSpec::without_optimizations(scenario.cluster.clone());
        let full = MayaBuilder::new(scenario.cluster.clone()).with_spec(spec);
        let (without, t_no, workers_no) = timed(full)?;
        let (with, t_yes, workers_yes) = timed(scenario.builder())?;
        series.rows.push(vec![
            label.into(),
            Cell::num(without, 3, ""),
            Cell::num(with, 3, ""),
            Cell::num((1.0 - with / without) * 100.0, 0, "%"),
            // Both must agree on the prediction (fidelity-preserving).
            Cell::num((t_no / t_yes - 1.0).abs() * 100.0, 2, "%"),
            Cell::count(workers_no),
            Cell::count(workers_yes),
        ]);
    }
    Ok(Data::default().series(series))
}

/// Figure 15: trial status breakdown (executed / cached / skipped)
/// during configuration search on each setup.
pub fn fig15(_: &Budget) -> Result<Data, ReproError> {
    let mut series = Table::series(
        "Figure 15: trial status breakdown during config search",
        "setup,executed,cached,skipped,invalid,skip_rate",
    );
    for scenario in Scenario::headline() {
        let maya = scenario.maya_oracle()?;
        let objective = Objective::new(&maya, scenario.template());
        let s = TrialScheduler::new(&objective)
            .run(AlgorithmKind::CmaEs, 400, 15)
            .stats;
        let denom = (s.executed + s.skipped).max(1);
        series.rows.push(vec![
            scenario.name.into(),
            Cell::count(s.executed),
            Cell::count(s.cached),
            Cell::count(s.skipped),
            Cell::count(s.invalid),
            Cell::num(s.skipped as f64 / denom as f64 * 100.0, 0, "%"),
        ]);
    }
    Ok(Data::default().series(series))
}

/// Figure 16 (Appendix C): comparison of search algorithms — best MFU
/// found vs. number of unique valid configurations sampled. Appendix C
/// gave each algorithm 2000 samples; the default here is 800.
pub fn fig16(budget: &Budget) -> Result<Data, ReproError> {
    let [scenario, ..] = Scenario::headline(); // GPT3-2.7B 8xV100
    let maya = scenario.maya_oracle()?;
    let objective = Objective::new(&maya, scenario.template());
    let mut series = Table::series(
        format!(
            "Figure 16: best MFU% vs unique valid configs ({})",
            scenario.name
        ),
        "algorithm,@25,@50,@100,@200,@300,@500,final",
    );
    for kind in AlgorithmKind::all() {
        let mut sched = TrialScheduler::new(&objective);
        sched.early_stop_patience = None; // fixed budget, like Appendix C
        let conv = sched.run(kind, budget.configs_or(800), 99).convergence;
        // Best MFU once `n` unique valid configs were seen (or at the
        // end, when the run saw fewer).
        let at = |n: usize| match n.min(conv.len()).checked_sub(1).and_then(|i| conv.get(i)) {
            Some(m) => Cell::num(m * 100.0, 2, ""),
            None => "-".into(),
        };
        let mut row: Vec<Cell> = vec![format!("{kind:?}").into()];
        row.extend([25, 50, 100, 200, 300, 500, usize::MAX].map(at));
        series.rows.push(row);
    }
    Ok(Data::default().series(series))
}
