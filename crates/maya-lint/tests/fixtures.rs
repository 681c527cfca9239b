//! Fixture corpus: every rule has one known-bad and one known-clean
//! file under `tests/fixtures/`. Bad fixtures must produce exactly the
//! expected findings; clean fixtures must produce none.

use maya_lint::config::Config;
use maya_lint::report::Report;
use maya_lint::rules;
use maya_lint::{run_sources, scan_file};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()))
}

/// Runs the full two-phase analyzer over a set of fixtures, each
/// mounted at a synthetic crate path so the workspace phase treats
/// them as first-party code.
fn run_fixtures(fixtures: &[&str]) -> Report {
    let sources: Vec<(String, String)> = fixtures
        .iter()
        .enumerate()
        .map(|(i, name)| (format!("crates/fix{i}/src/lib.rs"), fixture(name)))
        .collect();
    run_sources(&sources, &Config::default())
}

/// The finding locations [`run_fixtures`] reports for `rule`.
fn phase2_findings(fixtures: &[&str], rule: &str) -> Vec<(String, u32)> {
    run_fixtures(fixtures)
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.file.clone(), f.line))
        .collect()
}

fn findings_for(name: &str, rule: &str) -> Vec<u32> {
    let scan = scan_file(name, &fixture(name), &Config::default());
    scan.findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn guard_bad_fires_three_times() {
    let hits = phase2_findings(&["guard_bad.rs"], rules::GUARD_RULE);
    assert_eq!(hits.len(), 3, "recv, join, accept: {hits:?}");
}

#[test]
fn guard_clean_is_silent() {
    let findings = run_fixtures(&["guard_clean.rs"]).findings;
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn iter_bad_fires_twice() {
    let lines = findings_for("iter_bad.rs", rules::ITER_RULE);
    assert_eq!(lines.len(), 2, "snapshot chain + emit for-loop: {lines:?}");
}

#[test]
fn iter_clean_is_silent() {
    let scan = scan_file(
        "iter_clean.rs",
        &fixture("iter_clean.rs"),
        &Config::default(),
    );
    assert!(scan.findings.is_empty(), "{:?}", scan.findings);
}

#[test]
fn wallclock_bad_fires_twice() {
    let lines = findings_for("wallclock_bad.rs", rules::WALL_CLOCK_RULE);
    assert_eq!(lines.len(), 2, "SystemTime + Instant::now: {lines:?}");
}

#[test]
fn wallclock_clean_is_silent_and_counts_its_allow() {
    let scan = scan_file(
        "wallclock_clean.rs",
        &fixture("wallclock_clean.rs"),
        &Config::default(),
    );
    assert!(scan.findings.is_empty(), "{:?}", scan.findings);
    assert_eq!(scan.suppressed.len(), 1, "the reasoned allow is reported");
    assert_eq!(scan.suppressed[0].rule, rules::WALL_CLOCK_RULE);
    assert!(!scan.suppressed[0].reason.is_empty());
}

#[test]
fn rng_bad_fires_three_times() {
    let lines = findings_for("rng_bad.rs", rules::RNG_RULE);
    assert_eq!(lines.len(), 3, "thread_rng, from_entropy, OsRng: {lines:?}");
}

#[test]
fn rng_clean_is_silent() {
    let scan = scan_file("rng_clean.rs", &fixture("rng_clean.rs"), &Config::default());
    assert!(scan.findings.is_empty(), "{:?}", scan.findings);
}

#[test]
fn panic_bad_counts_every_category() {
    let scan = scan_file("panic_bad.rs", &fixture("panic_bad.rs"), &Config::default());
    assert_eq!(scan.counts.unwrap, 2);
    assert_eq!(scan.counts.expect, 1);
    assert_eq!(scan.counts.panics, 1);
    assert_eq!(scan.counts.index, 2);
    assert_eq!(scan.counts.total(), 6);
}

#[test]
fn panic_clean_counts_nothing() {
    let scan = scan_file(
        "panic_clean.rs",
        &fixture("panic_clean.rs"),
        &Config::default(),
    );
    assert_eq!(scan.counts.total(), 0, "{:?}", scan.counts);
    assert_eq!(scan.suppressed.len(), 1, "the index allow is reported");
    assert_eq!(scan.suppressed[0].rule, rules::PANIC_RULE);
}

#[test]
fn lockorder_bad_finds_the_cycle_and_the_self_loop() {
    let hits = phase2_findings(&["lockorder_bad.rs"], rules::LOCK_ORDER_RULE);
    assert_eq!(hits.len(), 2, "opposite-order pair + re-lock: {hits:?}");
}

#[test]
fn lockorder_clean_is_silent() {
    let hits = phase2_findings(&["lockorder_clean.rs"], rules::LOCK_ORDER_RULE);
    assert!(hits.is_empty(), "{hits:?}");
}

#[test]
fn guard_transitive_bad_fires_at_both_depths() {
    let hits = phase2_findings(&["guard_transitive_bad.rs"], rules::GUARD_RULE);
    assert_eq!(hits.len(), 2, "depth-1 and depth-2 chains: {hits:?}");
}

#[test]
fn guard_transitive_clean_is_silent() {
    let hits = phase2_findings(&["guard_transitive_clean.rs"], rules::GUARD_RULE);
    assert!(hits.is_empty(), "{hits:?}");
}

#[test]
fn cross_crate_cycle_resolves_across_fixture_files() {
    // The two halves are clean in isolation; the cycle only exists
    // once the call graph links them.
    for half in ["xcrate/alpha.rs", "xcrate/beta.rs"] {
        let hits = phase2_findings(&[half], rules::LOCK_ORDER_RULE);
        assert!(hits.is_empty(), "{half} alone must be clean: {hits:?}");
    }
    let hits = phase2_findings(
        &["xcrate/alpha.rs", "xcrate/beta.rs"],
        rules::LOCK_ORDER_RULE,
    );
    assert_eq!(hits.len(), 1, "one cycle across the two crates: {hits:?}");
}

#[test]
fn bad_fixtures_fail_a_check_and_clean_ones_pass() {
    // End-to-end shape check: the bad corpus as a whole has findings,
    // the clean corpus none.
    for name in [
        "guard_bad.rs",
        "iter_bad.rs",
        "wallclock_bad.rs",
        "rng_bad.rs",
    ] {
        let report = run_fixtures(&[name]);
        assert!(!report.findings.is_empty(), "{name} must produce findings");
    }
    for name in [
        "guard_clean.rs",
        "iter_clean.rs",
        "wallclock_clean.rs",
        "rng_clean.rs",
        "panic_clean.rs",
    ] {
        let report = run_fixtures(&[name]);
        assert!(report.findings.is_empty(), "{name} must be clean");
    }
}
