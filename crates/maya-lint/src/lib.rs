//! maya-lint: in-tree static analysis for the maya workspace.
//!
//! Machine-checks the hand-maintained discipline every correctness
//! claim in this repo rests on: no guard held across a blocking call
//! (the PR-5 bug class), no hash-ordered iteration in serialization
//! paths, no wall-clock or ambient entropy in deterministic outputs,
//! and a panic budget per crate that only ratchets down. See
//! [`rules`] and [`interproc`] for the rule list, [`config`] for
//! `lint-budget.toml`, and the README "Static analysis" section for
//! the allow syntax.
//!
//! The analyzer runs in two phases:
//!
//! 1. **per-file** — the hand-rolled comment/string-aware lexer
//!    ([`lexer`]) feeds the token-local rules;
//! 2. **workspace** — the same token streams are parsed into an item
//!    index ([`items`]) and a conservative name-resolved call graph
//!    ([`callgraph`]), over which the call-graph rules run:
//!    guard-across-blocking-call, for direct and transitive calls, and
//!    lock-order cycle detection ([`interproc`]). Vendored code is
//!    scanned in phase 1 but excluded from phase 2.
//!
//! The workspace is registry-free, so no `syn`. The trade is
//! precision for zero dependencies: rules are heuristic, tuned to the
//! idioms this codebase actually uses, with
//! `// lint:allow(<rule>): <reason>` as the escape hatch (reason
//! mandatory, every use counted in the JSON report).
//!
//! Entry point: [`run_workspace`]; CLI in `src/main.rs`
//! (`cargo run -p maya-lint -- --check`).

pub mod callgraph;
pub mod config;
pub mod interproc;
pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use callgraph::CallGraph;
use config::Config;
use items::{ItemIndex, SourceUnit};
use lexer::{lex, Allow, Lexed};
use report::{BudgetLine, Report, Suppressed};
use rules::{FileCtx, Finding, PanicCounts};

/// Directory names never scanned, wherever they appear under a `src/`
/// tree (test scaffolding and lint fixtures are not shipped code).
const SKIP_DIRS: &[&str] = &["tests", "benches", "examples", "fixtures"];

/// Maps a workspace-relative path to the crate name used in
/// `lint-budget.toml`. Returns `None` for paths outside any scanned
/// crate.
pub fn crate_name_for(rel: &str) -> Option<String> {
    let mut parts = rel.split('/');
    match parts.next()? {
        "src" => Some("maya-repro".to_string()),
        "crates" => Some(parts.next()?.to_string()),
        "vendor" => Some(format!("vendor-{}", parts.next()?)),
        _ => None,
    }
}

/// Collects every scannable `.rs` file, as sorted workspace-relative
/// `/`-separated paths. Scans `src/`, `crates/*/src/`, and
/// `vendor/*/src/`; the sort makes scan order (and therefore output
/// order) deterministic across platforms.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut roots = vec![root.join("src")];
    for parent in ["crates", "vendor"] {
        let dir = root.join(parent);
        if !dir.is_dir() {
            continue;
        }
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<Result<_, _>>()?;
        entries.sort();
        for entry in entries {
            let src = entry.join("src");
            if src.is_dir() {
                roots.push(src);
            }
        }
    }
    for r in roots {
        if r.is_dir() {
            walk(&r, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            walk(&path, root, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                let rel: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
                out.push(rel.join("/"));
            }
        }
    }
    Ok(())
}

/// Result of scanning one file.
pub struct FileScan {
    /// Live findings (suppressions already applied).
    pub findings: Vec<Finding>,
    /// Findings silenced by a reasoned allow.
    pub suppressed: Vec<Suppressed>,
    /// Panic sites (allow-exempted lines excluded).
    pub counts: PanicCounts,
    /// Source lines in the file.
    pub lines: u64,
}

/// Scans one file's source against the per-file rules.
pub fn scan_file(rel: &str, source: &str, cfg: &Config) -> FileScan {
    let lexed = lex(source);
    let tests = rules::test_ranges(&lexed.tokens);
    scan_lexed(rel, &lexed, &tests, cfg)
}

/// Phase-1 core: runs the per-file rules over an already-lexed file
/// whose test-code ranges are `tests`.
fn scan_lexed(rel: &str, lexed: &Lexed, tests: &[(usize, usize)], cfg: &Config) -> FileScan {
    // Lines covered by a panic-budget allow are exempt from counting
    // (and from nothing else): the panic count alone reads these spans.
    let mut panic_exempt = tests.to_vec();
    let panic_allow_lines: Vec<&Allow> = lexed
        .allows
        .iter()
        .filter(|a| a.rule == rules::PANIC_RULE)
        .collect();
    let mut suppressed = Vec::new();
    for a in &panic_allow_lines {
        // An allow on line N covers N and N+1 (trailing comment, or a
        // comment line above the code).
        let covered = |l: u32| l == a.line || l == a.line + 1;
        let mut span: Option<(usize, usize)> = None;
        for (i, t) in lexed.tokens.iter().enumerate() {
            if covered(t.line) {
                span = Some(match span {
                    None => (i, i + 1),
                    Some((s, _)) => (s, i + 1),
                });
            }
        }
        if let Some((s, e)) = span {
            // Only record the suppression if the covered span actually
            // contains panic sites (unused allows are noise, not debt).
            let sub_ctx = FileCtx {
                path: rel,
                tokens: &lexed.tokens[s..e],
                exempt: &[],
            };
            if rules::panic_counts(&sub_ctx).total() > 0 {
                suppressed.push(Suppressed {
                    file: rel.to_string(),
                    line: a.line,
                    rule: rules::PANIC_RULE,
                    reason: a.reason.clone(),
                });
            }
            panic_exempt.push((s, e));
        }
    }
    panic_exempt.sort_unstable();

    let ctx = FileCtx {
        path: rel,
        tokens: &lexed.tokens,
        exempt: tests,
    };

    let mut raw: Vec<Finding> = Vec::new();
    raw.extend(rules::nondeterministic_iteration(&ctx));
    raw.extend(rules::wall_clock(&ctx, &cfg.wall_clock_allow));
    raw.extend(rules::unseeded_randomness(&ctx));

    // Malformed allow comments are findings themselves (a suppression
    // without a reason is exactly the debt this tool exists to track).
    for (line, msg) in &lexed.bad_allows {
        raw.push(Finding {
            file: rel.to_string(),
            line: *line,
            rule: rules::SUPPRESSION_RULE,
            message: msg.clone(),
        });
    }
    for a in &lexed.allows {
        if !rules::ALL_RULES.contains(&a.rule.as_str()) {
            raw.push(Finding {
                file: rel.to_string(),
                line: a.line,
                rule: rules::SUPPRESSION_RULE,
                message: format!("lint:allow names unknown rule `{}`", a.rule),
            });
        }
    }

    // Apply suppressions: an allow matches a finding on its own line
    // (trailing comment) or the next line (comment above the code).
    let mut findings = Vec::new();
    for f in raw {
        let allow = lexed.allows.iter().find(|a| {
            a.rule == f.rule
                && f.rule != rules::SUPPRESSION_RULE
                && (a.line == f.line || a.line + 1 == f.line)
        });
        match allow {
            Some(a) => suppressed.push(Suppressed {
                file: f.file,
                line: f.line,
                rule: f.rule,
                reason: a.reason.clone(),
            }),
            None => findings.push(f),
        }
    }

    FileScan {
        findings,
        suppressed,
        counts: rules::panic_counts(&FileCtx {
            exempt: &panic_exempt,
            ..ctx
        }),
        lines: u64::from(lexed.lines),
    }
}

/// Scans a set of in-memory sources (`(workspace-relative path,
/// content)` pairs). Phase 1 runs the per-file rules on every file;
/// phase 2 builds the workspace item index and call graph over the
/// non-vendored files and runs the call-graph rules. Phase-2 findings
/// honor the same `lint:allow` comments as phase 1.
pub fn run_sources(sources: &[(String, String)], cfg: &Config) -> Report {
    let mut report = Report::default();
    let mut per_crate: BTreeMap<String, PanicCounts> = BTreeMap::new();
    let mut units: Vec<SourceUnit> = Vec::new();
    let mut unit_allows: Vec<Vec<Allow>> = Vec::new();
    for (rel, source) in sources {
        let krate = match crate_name_for(rel) {
            Some(k) => k,
            None => continue,
        };
        let lexed = lex(source);
        let exempt = rules::test_ranges(&lexed.tokens);
        let scan = scan_lexed(rel, &lexed, &exempt, cfg);
        report.findings.extend(scan.findings);
        report.suppressed.extend(scan.suppressed);
        report.lines += scan.lines;
        report.files += 1;
        per_crate.entry(krate).or_default().add(&scan.counts);
        if !rel.starts_with("vendor/") {
            units.push(SourceUnit {
                path: rel.clone(),
                tokens: lexed.tokens,
                exempt,
            });
            unit_allows.push(lexed.allows);
        }
    }

    let index = ItemIndex::build(&units);
    let graph = CallGraph::build(&units, &index);
    let phase2 = interproc::check(&units, &index, &graph);
    let by_path: BTreeMap<&str, usize> = units
        .iter()
        .enumerate()
        .map(|(i, u)| (u.path.as_str(), i))
        .collect();
    for f in phase2 {
        let allow = by_path
            .get(f.file.as_str())
            .and_then(|&i| unit_allows.get(i))
            .into_iter()
            .flatten()
            .find(|a| a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line));
        match allow {
            Some(a) => report.suppressed.push(Suppressed {
                file: f.file,
                line: f.line,
                rule: f.rule,
                reason: a.reason.clone(),
            }),
            None => report.findings.push(f),
        }
    }

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
        .suppressed
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    for (krate, counts) in per_crate {
        let cap = cfg.budgets.get(&krate).copied();
        // A crate absent from the budget file only fails once it has
        // something to budget; `--write-budget` lists every crate.
        if cap.is_none() && counts.total() == 0 {
            continue;
        }
        report.budgets.push(BudgetLine { krate, counts, cap });
    }
    report
}

/// Reads every scannable file under `root` into memory.
fn read_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let files = collect_files(root)?;
    let mut out = Vec::with_capacity(files.len());
    for rel in files {
        let source = std::fs::read_to_string(root.join(&rel))?;
        out.push((rel, source));
    }
    Ok(out)
}

/// Scans the whole workspace rooted at `root` against `cfg`: both the
/// per-file rules and the workspace phase.
pub fn run_workspace(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    Ok(run_sources(&read_sources(root)?, cfg))
}

/// Recomputes the budget table from actual counts (the ratchet write
/// path). Keeps the existing wall-clock allowlist.
pub fn write_budget(root: &Path, cfg: &Config) -> std::io::Result<Config> {
    let files = collect_files(root)?;
    let mut per_crate: BTreeMap<String, PanicCounts> = BTreeMap::new();
    for rel in &files {
        let krate = match crate_name_for(rel) {
            Some(k) => k,
            None => continue,
        };
        let source = std::fs::read_to_string(root.join(rel))?;
        let scan = scan_file(rel, &source, cfg);
        per_crate.entry(krate).or_default().add(&scan.counts);
    }
    let mut next = cfg.clone();
    next.budgets = per_crate.into_iter().map(|(k, c)| (k, c.total())).collect();
    Ok(next)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_names() {
        assert_eq!(
            crate_name_for("crates/maya-sim/src/engine.rs").as_deref(),
            Some("maya-sim")
        );
        assert_eq!(
            crate_name_for("vendor/serde/src/lib.rs").as_deref(),
            Some("vendor-serde")
        );
        assert_eq!(crate_name_for("src/lib.rs").as_deref(), Some("maya-repro"));
        assert_eq!(crate_name_for("target/debug/x.rs"), None);
    }

    #[test]
    fn trailing_allow_suppresses_and_is_counted() {
        let cfg = Config::default();
        let src = "
fn f() {
    let t = Instant::now(); // lint:allow(wall-clock-in-output): demo timing
}
";
        let scan = scan_file("x.rs", src, &cfg);
        assert!(scan.findings.is_empty());
        assert_eq!(scan.suppressed.len(), 1);
        assert_eq!(scan.suppressed[0].reason, "demo timing");
    }

    #[test]
    fn preceding_line_allow_suppresses() {
        let cfg = Config::default();
        let src = "
fn f() {
    // lint:allow(unseeded-randomness): fixture generator
    let r = thread_rng();
}
";
        let scan = scan_file("x.rs", src, &cfg);
        assert!(scan.findings.is_empty());
        assert_eq!(scan.suppressed.len(), 1);
    }

    #[test]
    fn allow_without_reason_is_a_finding() {
        let cfg = Config::default();
        let src = "fn f() {} // lint:allow(panic-budget)\n";
        let scan = scan_file("x.rs", src, &cfg);
        assert_eq!(scan.findings.len(), 1);
        assert_eq!(scan.findings[0].rule, rules::SUPPRESSION_RULE);
    }

    #[test]
    fn allow_with_unknown_rule_is_a_finding() {
        let cfg = Config::default();
        let src = "fn f() {} // lint:allow(no-such-rule): because\n";
        let scan = scan_file("x.rs", src, &cfg);
        assert_eq!(scan.findings.len(), 1);
        assert_eq!(scan.findings[0].rule, rules::SUPPRESSION_RULE);
    }

    #[test]
    fn panic_allow_excludes_the_line_from_counts() {
        let cfg = Config::default();
        let src = "
fn f(v: &[u8]) -> u8 {
    let a = v[0];
    // lint:allow(panic-budget): bounds checked by caller contract
    let b = v[1];
    a + b
}
";
        let scan = scan_file("x.rs", src, &cfg);
        assert_eq!(scan.counts.index, 1, "only the unallowed v[0] counts");
        assert_eq!(scan.suppressed.len(), 1);
    }

    #[test]
    fn a_panic_budget_allow_hides_no_other_rule() {
        let cfg = Config::default();
        let src = "
fn f(v: &[u8]) -> u8 {
    // lint:allow(panic-budget): bounds checked by caller contract
    let t = Instant::now(); let r = thread_rng(); v[1]
}
";
        let scan = scan_file("x.rs", src, &cfg);
        assert_eq!(scan.counts.index, 0);
        let suppressed: Vec<&str> = scan.suppressed.iter().map(|s| s.rule).collect();
        let findings: Vec<&str> = scan.findings.iter().map(|f| f.rule).collect();
        assert_eq!(suppressed, [rules::PANIC_RULE]);
        assert_eq!(findings, [rules::WALL_CLOCK_RULE, rules::RNG_RULE]);
    }

    #[test]
    fn wrong_rule_allow_does_not_suppress() {
        let cfg = Config::default();
        let src = "
fn f() {
    let r = thread_rng(); // lint:allow(wall-clock-in-output): mismatched
}
";
        let scan = scan_file("x.rs", src, &cfg);
        assert_eq!(scan.findings.len(), 1);
        assert_eq!(scan.findings[0].rule, rules::RNG_RULE);
    }
}
