//! The benchmark's metric vocabulary and its two output forms.
//!
//! Every number the benchmark reports is named here once, with its unit
//! and direction; `BENCHMARK.json` lists exactly these names (a unit
//! test compares the two). A workload reports every metric of the mode
//! it ran in: a layer it bypasses reads 0, which is the prediction the
//! README makes for it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that must repeat bit for bit for a seed (the `=` column
    /// of the README), so it may carry a later count-based claim.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

const fn count(name: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit: "count",
        better,
        exact: true,
    }
}

/// What a user of the system sees; printed by every workload with
/// `--trace 0`. All host times are calibrated (see `stats`).
pub const END_TO_END: &[MetricDef] = &[
    timing("latency_p50_ms", "ms"),
    timing("latency_tail_ms", "ms"),
    rate("throughput_per_s", "1/s"),
    timing("peak_rss_mb", "MB"),
    timing("setup_s", "s"),
];

/// Single-layer metrics; printed by every workload with `--trace 1`.
pub const PER_LAYER: &[MetricDef] = &[
    timing("torchlet.emulate_s", "s"),
    count("torchlet.events_emitted", Better::Lower),
    rate("torchlet.events_per_s", "1/s"),
    count("torchlet.ranks_emulated", Better::Lower),
    timing("collate.collate_s", "s"),
    timing("collate.dedup_s", "s"),
    count("collate.workers_in", Better::Lower),
    count("collate.workers_out", Better::Lower),
    timing("estimator.prepass_cold_s", "s"),
    timing("estimator.prepass_warm_s", "s"),
    count("estimator.hits", Better::Higher),
    count("estimator.misses", Better::Lower),
    rate("estimator.hit_rate", "ratio"),
    timing("estimator.miss_ns", "ns"),
    timing("estimator.train_s", "s"),
    timing("sim.run_s", "s"),
    count("sim.events", Better::Lower),
    rate("sim.events_per_s", "1/s"),
    timing("sim.fresh_run_s", "s"),
    timing("sim.validate_s", "s"),
    count("sim.heap_high_water", Better::Lower),
    count("net.flow_solves", Better::Lower),
    rate("net.events_per_s", "1/s"),
    timing("net.contended_over_flat", "ratio"),
    timing("engine.predict_s", "s"),
    timing("engine.stage_emulation_s", "s"),
    timing("engine.stage_collation_s", "s"),
    timing("engine.stage_estimation_s", "s"),
    timing("engine.stage_simulation_s", "s"),
    timing("engine.unattributed_s", "s"),
    timing("engine.build_s", "s"),
    timing("engine.batch_over_serial", "ratio"),
    count("search.trials", Better::Lower),
    count("search.executed", Better::Lower),
    count("search.cached", Better::Higher),
    count("search.skipped", Better::Higher),
    count("search.invalid", Better::Lower),
    timing("search.executed_share", "ratio"),
    timing("search.trial_us", "us"),
    timing("search.overhead_s", "s"),
    timing("search.batched_over_seq", "ratio"),
    timing("serve.call_us", "us"),
    timing("serve.overhead_us", "us"),
    timing("serve.queue_wait_us", "us"),
    timing("serve.service_time_us", "us"),
    count("serve.shed", Better::Lower),
    timing("wire.rtt_us", "us"),
    timing("wire.rtt_p99_us", "us"),
    timing("wire.overhead_us", "us"),
    timing("wire.null_rtt_us", "us"),
    count("wire.req_bytes", Better::Lower),
    // Replies carry telemetry durations in a variable-length decimal
    // encoding, so their size follows the clock: not an exact count.
    timing("wire.resp_bytes", "count"),
    count("wire.protocol_errors", Better::Lower),
    rate("obs.span_coverage", "ratio"),
    timing("obs.scrape_us", "us"),
    rate("obs.on_over_off", "ratio"),
    timing("hw.measure_s", "s"),
    // Simulated against ground-truth iteration time; exact for a seed,
    // but a different seed trains a different forest, so it cannot hold
    // a bound across seeds and is reported here, not end to end.
    timing("accuracy.pred_error_pct", "%"),
    rate("trace.attributed_share", "ratio"),
    timing("trace.overhead_pct", "%"),
    timing("machine.calibration_ms", "ms"),
];

/// The metric table a run in the given mode reports.
pub fn table(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Measured values of one run: `(value, sample count)` by metric name.
#[derive(Clone, Debug, Default)]
pub struct MetricSet {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl MetricSet {
    /// Records a value taken from `n` samples. A name outside the
    /// vocabulary is a bug in the benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        let def = find(name).unwrap_or_else(|| panic!("metric '{name}' is not in the vocabulary"));
        self.values.insert(def.name, (value, n));
    }

    /// Records a count (one observation).
    pub fn set_count(&mut self, name: &str, value: u64) {
        self.set(name, value as f64, 1);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }

    /// Every metric of `defs` in order: measured, or 0 with no samples
    /// when the workload bypasses that layer.
    fn rows<'a>(
        &'a self,
        defs: &'static [MetricDef],
    ) -> impl Iterator<Item = (&'static MetricDef, f64, usize)> + 'a {
        defs.iter().map(|d| {
            let (v, n) = self.values.get(d.name).copied().unwrap_or((0.0, 0));
            (d, v, n)
        })
    }

    /// The `name unit value n` lines.
    pub fn render_lines(&self, defs: &'static [MetricDef]) -> String {
        let mut out = String::new();
        for (d, v, n) in self.rows(defs) {
            let _ = writeln!(out, "{} {} {} {}", d.name, d.unit, number(v), n);
        }
        out
    }

    /// The `"metrics"` object of the result line.
    pub fn render_json(&self, defs: &'static [MetricDef]) -> String {
        let mut out = String::from("{");
        for (i, (d, v, _)) in self.rows(defs).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                number(v),
                d.unit
            );
        }
        out.push('}');
        out
    }

    /// End-to-end metrics that are missing, zero or not finite: the
    /// contract wants every one of them present and non-zero.
    pub fn unusable(&self, defs: &'static [MetricDef]) -> Vec<&'static str> {
        self.rows(defs)
            .filter(|&(_, v, n)| n == 0 || !v.is_finite() || v == 0.0)
            .map(|(d, _, _)| d.name)
            .collect()
    }
}

/// A number with all its digits; JSON has no NaN or infinity, so those
/// (a bug upstream) print as 0 and fail the non-zero check.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line the driver reads: last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics_json}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_bench::perf::json;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }

    #[test]
    fn result_line_lists_exactly_the_table() {
        let mut m = MetricSet::default();
        m.set("latency_p50_ms", 1.25, 40);
        let line = result_line(true, 41, 0, &m.render_json(END_TO_END));
        let doc = json::parse(&line).expect("result line is JSON");
        let json::Value::Object(fields) = doc.get("metrics").unwrap() else {
            panic!("metrics is an object");
        };
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, expected);
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("latency_p50_ms"))
                .and_then(|m| m.get("value"))
                .and_then(json::Value::as_f64),
            Some(1.25)
        );
        assert_eq!(
            doc.get("attempted").and_then(json::Value::as_f64),
            Some(41.0)
        );
        // The other four were never set: flagged, not silently zero.
        assert_eq!(m.unusable(END_TO_END).len(), END_TO_END.len() - 1);
    }

    #[test]
    #[should_panic(expected = "not in the vocabulary")]
    fn unnamed_metric_is_rejected() {
        MetricSet::default().set("made.up", 1.0, 1);
    }

    /// `BENCHMARK.json` and the tables above name the same metrics with
    /// the same units and directions — none missing, none unnamed.
    #[test]
    fn benchmark_json_matches_the_vocabulary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(json::Value::as_array).unwrap();
            let got: Vec<(String, String, String)> = listed
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(json::Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let want: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
                .collect();
            assert_eq!(got, want, "{key}");
        }
    }
}
