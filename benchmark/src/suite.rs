//! The whole set: every workload in a process of its own, untraced then
//! traced, `--repeat N` times with the workload order alternating.
//! Prints every metric, writes `out/results.json`, and fails on any
//! failed check, on an exact counter that differs between repeats, or
//! on an end-to-end metric that strays from the repeats' median by more
//! than its bound in `BENCHMARK.json` — the self-agreement the bounds
//! were calibrated with.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use maya_bench::perf::json;

use crate::metrics::{number, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::workloads::NAMES;

pub struct SuiteConfig {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub repeat: usize,
    pub bless: bool,
    pub dir: PathBuf,
}

/// One child run's result line.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, f64>,
}

pub fn parse_result_line(line: &str) -> Result<RunResult, String> {
    let doc = json::parse(line).map_err(|e| format!("result line is not JSON ({e}): {line}"))?;
    let num = |key: &str| {
        doc.get(key)
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("result line has no number '{key}'"))
    };
    let correct = matches!(doc.get("correct"), Some(json::Value::Bool(true)));
    let Some(json::Value::Object(metrics)) = doc.get("metrics") else {
        return Err("result line has no 'metrics' object".into());
    };
    let values = metrics
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(json::Value::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric '{name}' has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(RunResult {
        correct,
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        values,
    })
}

/// Runs one workload in a child process and parses its last line.
fn child_run(cfg: &SuiteConfig, workload: &str, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("MAYA_BENCHMARK_DIR", &cfg.dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    if cfg.bless && !trace {
        cmd.arg("--bless");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("  {line}");
    }
    let result =
        parse_result_line(last).map_err(|e| format!("{workload} (trace {}): {e}", trace as u8))?;
    if !out.status.success() && result.correct {
        return Err(format!(
            "{workload} exited with {} after a correct result",
            out.status
        ));
    }
    Ok(result)
}

/// Both runs of one workload in one repeat.
#[derive(Clone, Debug, Default)]
pub struct WorkloadRuns {
    pub untraced: RunResult,
    pub traced: RunResult,
}

/// `workload -> one entry per repeat`.
pub type SuiteRuns = BTreeMap<&'static str, Vec<WorkloadRuns>>;

fn series(runs: &[WorkloadRuns], def: &MetricDef, traced: bool) -> Vec<f64> {
    runs.iter()
        .map(|r| {
            let result = if traced { &r.traced } else { &r.untraced };
            result.values.get(def.name).copied().unwrap_or(f64::NAN)
        })
        .collect()
}

/// End-to-end bounds by metric name, from `BENCHMARK.json`.
fn read_bounds(dir: &Path) -> Result<BTreeMap<String, f64>, String> {
    let path = dir.join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let listed = doc
        .get("end_to_end")
        .and_then(json::Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    listed
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(json::Value::as_str);
            let bound = m.get("bound").and_then(json::Value::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "end_to_end entry without name and bound".to_string())
        })
        .collect()
}

/// What the repeats disagree on: end-to-end values further from their
/// median than the bound, and exact counters that are not identical.
pub fn disagreements(runs: &SuiteRuns, bounds: &BTreeMap<String, f64>) -> Vec<String> {
    let mut out = Vec::new();
    for (workload, reps) in runs {
        for def in END_TO_END {
            let values = series(reps, def, false);
            let mid = median(&mut values.clone());
            let bound = bounds.get(def.name).copied().unwrap_or(0.0);
            for v in &values {
                // Written so that NaN (a missing value) disagrees too.
                let within = ((v - mid) / mid).abs() <= bound;
                if !within {
                    out.push(format!(
                        "{workload} {}: {v} is more than {bound} from the repeats' median {mid}",
                        def.name
                    ));
                }
            }
        }
        for def in PER_LAYER.iter().filter(|d| d.exact) {
            let values = series(reps, def, true);
            if values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                out.push(format!(
                    "{workload} {}: exact counter differs between repeats: {values:?}",
                    def.name
                ));
            }
        }
    }
    out
}

/// `out/results.json`: per workload every end-to-end and per-layer
/// metric by name — the median over repeats and each repeat's value.
pub fn render_results(cfg: &SuiteConfig, runs: &SuiteRuns) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"repeats\": {},\n  \"workloads\": [",
        cfg.seed,
        number(cfg.seconds),
        cfg.smoke,
        cfg.repeat
    );
    for (wi, name) in NAMES.iter().filter(|n| runs.contains_key(*n)).enumerate() {
        let reps = &runs[name];
        let sum = |f: fn(&WorkloadRuns) -> u64| reps.iter().map(f).sum::<u64>();
        let _ = write!(
            out,
            "{}\n    {{\"name\": \"{name}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}",
            if wi > 0 { "," } else { "" },
            reps.iter().all(|r| r.untraced.correct && r.traced.correct),
            sum(|r| r.untraced.attempted + r.traced.attempted),
            sum(|r| r.untraced.failed + r.traced.failed),
        );
        for (key, defs, traced) in [
            ("end_to_end", END_TO_END, false),
            ("per_layer", PER_LAYER, true),
        ] {
            let _ = write!(out, ",\n     \"{key}\": {{");
            for (i, def) in defs.iter().enumerate() {
                let values = series(reps, def, traced);
                let runs_json: Vec<String> = values.iter().map(|v| number(*v)).collect();
                let _ = write!(
                    out,
                    "{}\n      \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"runs\": [{}]}}",
                    if i > 0 { "," } else { "" },
                    def.name,
                    number(median(&mut values.clone())),
                    def.unit,
                    runs_json.join(", ")
                );
            }
            out.push_str("\n     }");
        }
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn print_summary(runs: &SuiteRuns, bounds: &BTreeMap<String, f64>) {
    println!("\n# medians over repeats: workload metric unit better median spread bound n");
    for name in NAMES.iter().filter(|n| runs.contains_key(*n)) {
        let reps = &runs[name];
        for (defs, traced) in [(END_TO_END, false), (PER_LAYER, true)] {
            for def in defs {
                let values = series(reps, def, traced);
                let mid = median(&mut values.clone());
                let (lo, hi) = values
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                        (lo.min(*v), hi.max(*v))
                    });
                let spread = if mid != 0.0 {
                    (hi - lo) / mid.abs()
                } else {
                    0.0
                };
                let bound = bounds
                    .get(def.name)
                    .map(|b| number(*b))
                    .unwrap_or_else(|| "-".into());
                println!(
                    "{name} {} {} {} {} {:.4} {bound} {}",
                    def.name,
                    def.unit,
                    def.better.as_str(),
                    number(mid),
                    spread,
                    values.len()
                );
            }
        }
    }
}

pub fn run(cfg: &SuiteConfig) -> Result<bool, String> {
    let bounds = read_bounds(&cfg.dir)?;
    let mut runs: SuiteRuns = BTreeMap::new();
    for rep in 0..cfg.repeat {
        let mut order = NAMES.to_vec();
        if rep % 2 == 1 {
            order.reverse();
        }
        for workload in order {
            println!("## repeat {} of {}: {workload}", rep + 1, cfg.repeat);
            let untraced = child_run(cfg, workload, false)?;
            let traced = child_run(cfg, workload, true)?;
            runs.entry(workload)
                .or_default()
                .push(WorkloadRuns { untraced, traced });
        }
    }
    print_summary(&runs, &bounds);

    let out = cfg.dir.join("out");
    let path = out.join("results.json");
    std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&path, render_results(cfg, &runs)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());

    let mut ok = true;
    for (workload, reps) in &runs {
        for (i, r) in reps.iter().enumerate() {
            for (mode, result) in [("untraced", &r.untraced), ("traced", &r.traced)] {
                if !result.correct {
                    ok = false;
                    eprintln!(
                        "FAILED: {workload} repeat {} {mode}: {} of {} operations failed",
                        i + 1,
                        result.failed,
                        result.attempted
                    );
                }
            }
        }
    }
    // A smoke run takes two samples per workload: it proves the paths,
    // it does not measure them.
    if cfg.repeat > 1 && !cfg.smoke {
        for d in disagreements(&runs, &bounds) {
            ok = false;
            eprintln!("DISAGREES: {d}");
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{result_line, MetricSet};

    fn synthetic(defs: &'static [MetricDef], scale: f64) -> RunResult {
        let mut m = MetricSet::default();
        for (i, d) in defs.iter().enumerate() {
            let v = if d.exact {
                (i + 1) as f64
            } else {
                (i + 1) as f64 * scale
            };
            m.set(d.name, v, 1);
        }
        parse_result_line(&result_line(true, 10, 0, &m.render_json(defs))).unwrap()
    }

    fn synthetic_runs(scales: &[f64]) -> SuiteRuns {
        NAMES
            .iter()
            .map(|name| {
                let reps = scales
                    .iter()
                    .map(|&s| WorkloadRuns {
                        untraced: synthetic(END_TO_END, s),
                        traced: synthetic(PER_LAYER, s),
                    })
                    .collect();
                (*name, reps)
            })
            .collect()
    }

    fn cfg() -> SuiteConfig {
        SuiteConfig {
            seed: 1,
            seconds: 15.0,
            smoke: false,
            repeat: 2,
            bless: false,
            dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
        }
    }

    #[test]
    fn result_line_round_trips() {
        let r = synthetic(END_TO_END, 1.5);
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (10, 0));
        assert_eq!(r.values.len(), END_TO_END.len());
        assert_eq!(r.values["latency_p50_ms"], 1.5);
        assert!(parse_result_line("not json").is_err());
        assert!(parse_result_line("{\"correct\": true}").is_err());
    }

    /// `results.json` lists, for every workload, exactly the metric
    /// names of `BENCHMARK.json` — none missing, none unnamed.
    #[test]
    fn results_json_lists_exactly_the_benchmark_json_names() {
        let text = render_results(&cfg(), &synthetic_runs(&[1.0, 1.02]));
        let doc = json::parse(&text).expect("results.json parses");
        let spec_text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let spec = json::parse(&spec_text).unwrap();
        let names = |v: &json::Value, key: &str| -> Vec<String> {
            v.get(key)
                .and_then(json::Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(json::Value::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        let workloads = doc
            .get("workloads")
            .and_then(json::Value::as_array)
            .unwrap();
        let listed: Vec<String> = workloads
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(json::Value::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(listed, names(&spec, "workloads"));
        for w in workloads {
            for key in ["end_to_end", "per_layer"] {
                let Some(json::Value::Object(fields)) = w.get(key) else {
                    panic!("{key} is an object");
                };
                let got: Vec<String> = fields.iter().map(|(k, _)| k.clone()).collect();
                assert_eq!(got, names(&spec, key), "{key}");
                for (name, m) in fields {
                    assert_eq!(
                        m.get("runs")
                            .and_then(json::Value::as_array)
                            .map(<[_]>::len),
                        Some(2),
                        "{name}"
                    );
                }
            }
        }
    }

    #[test]
    fn repeats_within_bounds_agree() {
        let bounds = read_bounds(&cfg().dir).unwrap();
        assert_eq!(bounds.len(), END_TO_END.len());
        assert!(disagreements(&synthetic_runs(&[1.0, 1.02, 0.99]), &bounds).is_empty());
    }

    #[test]
    fn a_stray_metric_or_counter_disagrees() {
        let bounds = read_bounds(&cfg().dir).unwrap();
        let far = disagreements(&synthetic_runs(&[1.0, 1.0, 2.0]), &bounds);
        assert_eq!(far.len(), NAMES.len() * END_TO_END.len(), "{far:?}");

        let mut runs = synthetic_runs(&[1.0, 1.0]);
        let counter = PER_LAYER.iter().find(|d| d.exact).unwrap().name;
        *runs.get_mut(NAMES[0]).unwrap()[1]
            .traced
            .values
            .get_mut(counter)
            .unwrap() += 1.0;
        let d = disagreements(&runs, &bounds);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].contains(counter));

        let mut missing = synthetic_runs(&[1.0, 1.0]);
        missing.get_mut(NAMES[0]).unwrap()[0]
            .untraced
            .values
            .remove("setup_s");
        assert!(!disagreements(&missing, &bounds).is_empty());
    }
}
