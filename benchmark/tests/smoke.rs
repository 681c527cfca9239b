//! Runs the whole set in smoke mode — two samples per workload on a
//! small forest — through the real binary: every workload, untraced and
//! traced, each in its own process, proving every path runs, every
//! cross-path check holds and `out/results.json` is written.

use std::path::Path;
use std::process::Command;

use maya_bench::perf::json;

#[test]
fn smoke_run_exercises_every_workload_and_mode() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_maya-benchmark"))
        .args(["--smoke", "--seed", "3"])
        .env("MAYA_BENCHMARK_DIR", dir)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{stderr}"
    );
    assert!(!stderr.contains("FAILED"), "{stderr}");

    let text = std::fs::read_to_string(dir.join("out").join("results.json")).unwrap();
    let doc = json::parse(&text).expect("results.json parses");
    assert_eq!(doc.get("smoke"), Some(&json::Value::Bool(true)));
    let workloads = doc
        .get("workloads")
        .and_then(json::Value::as_array)
        .unwrap();
    assert_eq!(workloads.len(), 5);
    for w in workloads {
        let name = w.get("name").and_then(json::Value::as_str).unwrap();
        assert_eq!(w.get("correct"), Some(&json::Value::Bool(true)), "{name}");
        assert_eq!(
            w.get("failed").and_then(json::Value::as_f64),
            Some(0.0),
            "{name}"
        );
        let value = |group: &str, metric: &str| {
            w.get(group)
                .and_then(|g| g.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(json::Value::as_f64)
                .unwrap_or_else(|| panic!("{name} has no {group}.{metric}"))
        };
        assert!(value("end_to_end", "latency_p50_ms") > 0.0, "{name}");
        assert!(value("per_layer", "sim.events") > 0.0, "{name}");
        // The workloads separate the layers as designed.
        let only_on = |metric: &str, workload: &str| {
            assert_eq!(
                value("per_layer", metric) > 0.0,
                name == workload,
                "{metric} on {name}"
            );
        };
        only_on("net.flow_solves", "sim_contended_32");
        only_on("search.executed", "search_32");
        only_on("serve.call_us", "serve_predict_2c");
        only_on("wire.req_bytes", "serve_predict_2c");
        only_on("obs.scrape_us", "serve_predict_2c");
        assert!(dir.join("out").join(format!("{name}.trace.json")).exists());
    }
}
