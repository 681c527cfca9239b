//! Rendering: one human-readable report, `file:line rule message` a
//! finding and `suppressed: file:line rule reason` a suppression, with
//! the suppressions tallied per rule.
//!
//! It is hand-rolled (the linter is pure std) and deterministic:
//! findings arrive pre-sorted from the engine, budgets and suppression
//! tallies are emitted in sorted order.

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
        let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
        for s in &self.suppressed {
            let _ = writeln!(
                out,
                "suppressed: {}:{} {} {}",
                s.file, s.line, s.rule, s.reason
            );
            *by_rule.entry(s.rule).or_default() += 1;
        }
        for (rule, n) in by_rule {
            let _ = writeln!(out, "suppressed by rule: {rule} {n}");
        }
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
    fn text_lists_findings_and_each_suppression_with_its_tally() {
        let mut r = Report::default();
        r.findings.push(Finding {
            file: "a.rs".to_string(),
            line: 3,
            rule: crate::rules::GUARD_RULE,
            message: "held across blocking".to_string(),
        });
        for line in [9, 12] {
            r.suppressed.push(Suppressed {
                file: "b.rs".to_string(),
                line,
                rule: crate::rules::WALL_CLOCK_RULE,
                reason: "telemetry".to_string(),
            });
        }
        assert!(r.failed());
        let text = r.render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "a.rs:3 guard-across-blocking-call held across blocking",
                "maya-lint: 0 files, 0 lines, 1 finding(s), 2 suppressed, 0 budget crate(s)",
                "suppressed: b.rs:9 wall-clock-in-output telemetry",
                "suppressed: b.rs:12 wall-clock-in-output telemetry",
                "suppressed by rule: wall-clock-in-output 2",
            ]
        );
    }
}
