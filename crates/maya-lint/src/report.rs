//! Rendering: human `file:line rule message` lines and the
//! machine-readable JSON report.
//!
//! Both are hand-rolled (the linter is pure std) and
//! deterministic: findings arrive pre-sorted from the engine, budgets
//! and suppression tallies are emitted in sorted order.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::rules::{Finding, PanicCounts};

/// One crate's panic tally against its committed cap.
#[derive(Clone, Debug)]
pub struct BudgetLine {
    /// Crate name as keyed in `lint-budget.toml`.
    pub krate: String,
    /// Counted sites.
    pub counts: PanicCounts,
    /// Committed cap, if the crate has one.
    pub cap: Option<u64>,
}

impl BudgetLine {
    /// Over budget (or missing from the budget file entirely).
    pub fn violation(&self) -> bool {
        match self.cap {
            Some(cap) => self.counts.total() > cap,
            None => true,
        }
    }

    /// Unused headroom that could be ratcheted away.
    pub fn slack(&self) -> u64 {
        self.cap
            .map(|c| c.saturating_sub(self.counts.total()))
            .unwrap_or(0)
    }
}

/// A suppressed finding: where, which rule, and the justification.
#[derive(Clone, Debug)]
pub struct Suppressed {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the suppressed finding.
    pub line: u32,
    /// Rule that would have fired.
    pub rule: &'static str,
    /// The reason given in the `lint:allow` comment.
    pub reason: String,
}

/// Full result of a workspace scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Live findings (sorted by file, line, rule).
    pub findings: Vec<Finding>,
    /// Findings silenced by a reasoned `lint:allow`.
    pub suppressed: Vec<Suppressed>,
    /// Per-crate budget status (sorted by crate).
    pub budgets: Vec<BudgetLine>,
    /// Files scanned.
    pub files: usize,
    /// Total source lines scanned.
    pub lines: u64,
}

impl Report {
    /// Whether `--check` should fail.
    pub fn failed(&self) -> bool {
        !self.findings.is_empty() || self.budgets.iter().any(|b| b.violation())
    }

    /// Human-readable rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}:{} {} {}", f.file, f.line, f.rule, f.message);
        }
        for b in &self.budgets {
            if b.violation() {
                match b.cap {
                    Some(cap) => {
                        let _ = writeln!(
                            out,
                            "{}: panic-budget exceeded: {} sites > cap {} \
                             (unwrap {}, expect {}, panic {}, index {})",
                            b.krate,
                            b.counts.total(),
                            cap,
                            b.counts.unwrap,
                            b.counts.expect,
                            b.counts.panics,
                            b.counts.index,
                        );
                    }
                    None => {
                        let _ = writeln!(
                            out,
                            "{}: panic-budget missing: {} sites but no cap in lint-budget.toml \
                             (run --write-budget)",
                            b.krate,
                            b.counts.total(),
                        );
                    }
                }
            }
        }
        let _ = writeln!(
            out,
            "maya-lint: {} files, {} lines, {} finding(s), {} suppressed, {} budget crate(s)",
            self.files,
            self.lines,
            self.findings.len(),
            self.suppressed.len(),
            self.budgets.len(),
        );
        for b in &self.budgets {
            if !b.violation() && b.slack() > 0 {
                let _ = writeln!(
                    out,
                    "note: {} has budget slack: {} used of cap {} — ratchet it down",
                    b.krate,
                    b.counts.total(),
                    b.cap.unwrap_or(0),
                );
            }
        }
        out
    }

    /// Machine-readable rendering.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
                json_str(&f.file),
                f.line,
                json_str(f.rule),
                json_str(&f.message),
            );
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"suppressed\": [");
        for (i, s) in self.suppressed.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"reason\": {}}}",
                json_str(&s.file),
                s.line,
                json_str(s.rule),
                json_str(&s.reason),
            );
        }
        if !self.suppressed.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"suppressed_by_rule\": {");
        let mut by_rule: BTreeMap<&str, u64> = BTreeMap::new();
        for s in &self.suppressed {
            *by_rule.entry(s.rule).or_insert(0) += 1;
        }
        for (i, (rule, n)) in by_rule.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{}: {n}", json_str(rule));
        }
        out.push_str("},\n  \"budgets\": [");
        for (i, b) in self.budgets.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    {{\"crate\": {}, \"total\": {}, \"cap\": {}, \"unwrap\": {}, \
                 \"expect\": {}, \"panic\": {}, \"index\": {}}}",
                json_str(&b.krate),
                b.counts.total(),
                b.cap
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| "null".to_string()),
                b.counts.unwrap,
                b.counts.expect,
                b.counts.panics,
                b.counts.index,
            );
        }
        if !self.budgets.is_empty() {
            out.push_str("\n  ");
        }
        let _ = write!(
            out,
            "],\n  \"files\": {},\n  \"lines\": {},\n  \"failed\": {}\n}}\n",
            self.files,
            self.lines,
            self.failed(),
        );
        out
    }
}

/// Minimal JSON string escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_conditions() {
        let mut r = Report::default();
        assert!(!r.failed());
        r.budgets.push(BudgetLine {
            krate: "maya-x".to_string(),
            counts: PanicCounts {
                unwrap: 3,
                ..PanicCounts::default()
            },
            cap: Some(3),
        });
        assert!(!r.failed(), "at cap is fine");
        r.budgets[0].cap = Some(2);
        assert!(r.failed(), "over cap fails");
        r.budgets[0].cap = None;
        assert!(r.failed(), "missing cap fails");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mut r = Report::default();
        r.findings.push(Finding {
            file: "a.rs".to_string(),
            line: 3,
            rule: crate::rules::GUARD_RULE,
            message: "held \"across\"\nblocking".to_string(),
        });
        r.suppressed.push(Suppressed {
            file: "b.rs".to_string(),
            line: 9,
            rule: crate::rules::WALL_CLOCK_RULE,
            reason: "telemetry".to_string(),
        });
        let json = r.render_json();
        assert!(json.contains("\\\"across\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"failed\": true"));
        assert!(json.contains("\"suppressed_by_rule\": {\"wall-clock-in-output\": 1}"));
    }
}
