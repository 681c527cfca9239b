//! Turning a traced run's spans into per-layer metrics, the self-time
//! table and the Chrome-trace file.

use std::collections::BTreeMap;

use maya::StageTimings;
use maya_estimator::CacheStats;

use crate::metrics::MetricSet;
use crate::spans::{self_seconds_by_name, Recorder};
use crate::stats::{kernel_seconds, median};
use crate::workloads::RunConfig;

/// The replay's stage spans, pipeline order.
pub const STAGE_SPANS: [&str; 5] = [
    "torchlet.emulate",
    "collate.collate",
    "collate.dedup",
    "estimator.prepass",
    "sim.run",
];

/// `Prediction::timings`, in the order of the `engine.stage_*_s` metrics.
pub fn stage_seconds(t: &StageTimings) -> [f64; 4] {
    [t.emulation, t.collation, t.estimation, t.simulation].map(|d| d.as_secs_f64())
}

/// Records the engine's own stage timings (already calibrated).
pub fn record_engine_stages(m: &mut MetricSet, seconds: [f64; 4], n: usize) {
    for (name, s) in [
        "engine.stage_emulation_s",
        "engine.stage_collation_s",
        "engine.stage_estimation_s",
        "engine.stage_simulation_s",
    ]
    .into_iter()
    .zip(seconds)
    {
        m.set(name, s, n);
    }
}

/// Records what a memo counted over one cold prediction (or, for a
/// search, over every trial that went through one engine).
pub fn record_cache(m: &mut MetricSet, cache: CacheStats) {
    m.set_count("estimator.hits", cache.hits);
    m.set_count("estimator.misses", cache.misses);
    m.set("estimator.hit_rate", cache.hit_rate(), 1);
}

/// Per traced sample: its machine-speed factor and the calibrated wall
/// of the untraced real call made beside it.
#[derive(Default)]
pub struct TracedSamples {
    factors: Vec<f64>,
    untraced_s: Vec<f64>,
}

impl TracedSamples {
    pub fn len(&self) -> usize {
        self.factors.len()
    }

    pub fn push(&mut self, factor: f64, untraced_s: f64) {
        self.factors.push(factor);
        self.untraced_s.push(untraced_s / factor);
    }

    pub fn mean_factor(&self) -> f64 {
        self.factors.iter().sum::<f64>() / self.factors.len().max(1) as f64
    }
}

/// Calibrated self seconds per span name, one total per sample (0 for a
/// sample that never opened that span).
pub struct SpanTotals {
    by_name: BTreeMap<&'static str, Vec<f64>>,
    /// What a name no sample recorded reads as.
    zeros: Vec<f64>,
}

impl SpanTotals {
    pub fn new(rec: &Recorder, traced: &TracedSamples) -> SpanTotals {
        let samples = traced.len();
        let by_name = self_seconds_by_name(rec.spans())
            .into_iter()
            .map(|(name, per_sample)| {
                let mut totals = vec![0.0; samples];
                for (sample, secs) in per_sample {
                    totals[sample as usize] = secs / traced.factors[sample as usize];
                }
                (name, totals)
            })
            .collect();
        SpanTotals {
            by_name,
            zeros: vec![0.0; samples],
        }
    }

    /// Per-sample totals of one span name.
    pub fn get(&self, name: &str) -> &[f64] {
        self.by_name.get(name).unwrap_or(&self.zeros)
    }

    pub fn median(&self, name: &str) -> f64 {
        median(&mut self.get(name).to_vec())
    }

    /// Per-sample `a - b`, as a median.
    pub fn median_diff(&self, a: &str, b: &str) -> f64 {
        let mut d: Vec<f64> = self
            .get(a)
            .iter()
            .zip(self.get(b))
            .map(|(x, y)| x - y)
            .collect();
        median(&mut d)
    }
}

/// Folds the spans into the metrics every workload shares, prints each
/// layer's self time beside the end-to-end wall, and writes
/// `out/<workload>.trace.json`. `e2e_span` names the span around the
/// operation a user sees (a prediction, a search round, a round trip).
/// Expects `sim.events` and `torchlet.events_emitted` to be set.
pub fn finish_trace(
    cfg: &RunConfig,
    rec: &Recorder,
    traced: &TracedSamples,
    e2e_span: &'static str,
    m: &mut MetricSet,
) -> Result<SpanTotals, String> {
    let totals = SpanTotals::new(rec, traced);
    let n = traced.len();
    let emulate_s = totals.median("torchlet.emulate");
    let sim_s = totals.median("sim.run");
    m.set("torchlet.emulate_s", emulate_s, n);
    m.set("collate.collate_s", totals.median("collate.collate"), n);
    m.set("collate.dedup_s", totals.median("collate.dedup"), n);
    m.set("sim.run_s", sim_s, n);
    let per_s = |count: Option<f64>, secs: f64| match count {
        Some(c) if secs > 0.0 => c / secs,
        _ => 0.0,
    };
    m.set(
        "torchlet.events_per_s",
        per_s(m.get("torchlet.events_emitted"), emulate_s),
        n,
    );
    m.set("sim.events_per_s", per_s(m.get("sim.events"), sim_s), n);

    // What the stage replay cannot account for of the engine's own
    // wall, and so what share of the user-visible wall the layers'
    // self times do account for.
    let engine = totals.get("engine.predict_job");
    let e2e = totals.get(e2e_span);
    let stage_sum: Vec<f64> = (0..n)
        .map(|i| STAGE_SPANS.iter().map(|s| totals.get(s)[i]).sum())
        .collect();
    let mut unattributed: Vec<f64> = engine.iter().zip(&stage_sum).map(|(e, s)| e - s).collect();
    let mut share: Vec<f64> = unattributed
        .iter()
        .zip(e2e)
        .map(|(u, w)| 1.0 - u / w)
        .collect();
    m.set("engine.predict_s", totals.median("engine.predict_job"), n);
    m.set("engine.unattributed_s", median(&mut unattributed), n);
    m.set("trace.attributed_share", median(&mut share), n);

    let e2e_s = totals.median(e2e_span);
    let untraced_s = median(&mut traced.untraced_s.clone());
    m.set(
        "trace.overhead_pct",
        100.0 * (e2e_s - untraced_s) / untraced_s,
        n,
    );
    m.set(
        "machine.calibration_ms",
        kernel_seconds(traced.mean_factor()) * 1e3,
        n,
    );

    println!("# layer self times beside the end-to-end wall ({e2e_span}, median of {n} samples)");
    println!("# {:<24} {:>12} {:>8}", "span", "self_s", "share");
    println!("# {:<24} {:>12.6} {:>7.1}%", e2e_span, e2e_s, 100.0);
    for (name, values) in &totals.by_name {
        if *name == e2e_span || *name == "sample" {
            continue;
        }
        let self_s = median(&mut values.clone());
        println!(
            "# {name:<24} {self_s:>12.6} {:>7.1}%",
            100.0 * self_s / e2e_s
        );
    }

    let out = cfg.dir.join("out");
    let path = out.join(format!("{}.trace.json", cfg.workload));
    std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&path, rec.chrome_trace()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(totals)
}
