//! The repository's benchmark (see `README.md` beside `Cargo.toml`).
//!
//! `--workload W` runs one workload in this process and ends standard
//! output with one JSON result line; without it, every workload runs in
//! a process of its own (`suite`). Every layer is measured from
//! outside, through `pub` items: nothing under `crates/` knows this
//! program exists.

mod digest;
mod forwarder;
mod metrics;
mod predict;
mod probes;
mod replay;
mod search;
mod serve;
mod spans;
mod stats;
mod suite;
mod trace_out;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Outcome, RunConfig};

const USAGE: &str = "usage: run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]] \
                     [--smoke] [--repeat N] [--bless]";

/// How long one run measures when `--seconds` is not given; the same
/// number `BENCHMARK.json` gives the driver as `run_seconds`.
const DEFAULT_SECONDS: f64 = 15.0;

/// Command-line options of either mode.
#[derive(Debug)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    bless: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        repeat: 1,
        bless: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => o.workload = Some(value(&mut i, "--workload")?),
            "--seed" => {
                o.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds.is_finite() && o.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--repeat" => {
                o.repeat = value(&mut i, "--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if o.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    o.trace = false;
                    i += 1;
                }
                Some("1") => {
                    o.trace = true;
                    i += 1;
                }
                _ => o.trace = true,
            },
            "--smoke" => o.smoke = true,
            "--bless" => o.bless = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
        i += 1;
    }
    Ok(o)
}

/// The benchmark's own directory: where `run.sh` says it is, else
/// where it was built.
fn benchmark_dir() -> PathBuf {
    std::env::var_os("MAYA_BENCHMARK_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

fn run_workload(cfg: &RunConfig) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "search_32" => search::run(cfg),
        "serve_predict_2c" => serve::run(cfg),
        name => match workloads::predict_case(name) {
            Some(case) => predict::run(&case, cfg),
            None => Err(format!(
                "unknown workload '{name}' (expected one of {})",
                workloads::NAMES.join(", ")
            )),
        },
    }
}

/// One workload in this process: metric lines, then the result line.
fn single(cfg: &RunConfig) -> Result<bool, String> {
    let mut outcome = run_workload(cfg)?;
    let defs = metrics::table(cfg.trace);
    if !cfg.trace {
        outcome.metrics.set("peak_rss_mb", stats::peak_rss_mb()?, 1);
        let unusable = outcome.metrics.unusable(defs);
        if !unusable.is_empty() {
            return Err(format!("end-to-end metrics missing or zero: {unusable:?}"));
        }
    }
    print!("{}", outcome.metrics.render_lines(defs));
    let fail_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "fail_rate ratio {} {} ({} failed of {} attempted)",
        metrics::number(fail_rate),
        outcome.attempted,
        outcome.failed,
        outcome.attempted
    );
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{}",
        metrics::result_line(
            correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics.render_json(defs)
        )
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|o| match &o.workload {
        Some(w) => single(&RunConfig {
            workload: w.clone(),
            seed: o.seed,
            seconds: o.seconds,
            trace: o.trace,
            smoke: o.smoke,
            bless: o.bless,
            dir: benchmark_dir(),
        }),
        None => suite::run(&suite::SuiteConfig {
            seed: o.seed,
            seconds: o.seconds,
            smoke: o.smoke,
            repeat: o.repeat,
            bless: o.bless,
            dir: benchmark_dir(),
        }),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("maya-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_form() {
        let o = parse_args(&args(
            "--workload sim_flat_128 --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("sim_flat_128"));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 12.0, true));
        let o = parse_args(&args("--workload x --trace 0 --seed 2")).unwrap();
        assert!(!o.trace);
        assert_eq!(o.seed, 2);
    }

    #[test]
    fn parses_the_human_form() {
        let o = parse_args(&args("--trace --smoke --repeat 3")).unwrap();
        assert!(o.trace && o.smoke && o.workload.is_none());
        assert_eq!(o.repeat, 3);
        assert_eq!(parse_args(&[]).unwrap().seconds, DEFAULT_SECONDS);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_args(&args("--frobnicate")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
        assert!(parse_args(&args("--seed x")).is_err());
        assert!(parse_args(&args("--seconds -1")).is_err());
        assert!(parse_args(&args("--repeat 0")).is_err());
    }
}
