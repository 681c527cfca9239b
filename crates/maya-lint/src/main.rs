//! maya-lint CLI.
//!
//! ```text
//! cargo run -p maya-lint -- --check          # gate: exit 1 on any finding; lists suppressions
//! cargo run -p maya-lint -- --write-budget   # regenerate lint-budget.toml
//! ```
//!
//! The workspace root is located from `CARGO_MANIFEST_DIR` (set by
//! `cargo run`) or, failing that, the current directory; `--root PATH`
//! overrides both.

use std::path::PathBuf;
use std::process::ExitCode;

use maya_lint::config::Config;

const USAGE: &str = "usage: maya-lint [--check] [--write-budget] [--root PATH]";

fn main() -> ExitCode {
    let mut write_budget = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // --check is the default (and only) analysis mode; accept
            // it explicitly so the CI invocation reads as a gate.
            "--check" => {}
            "--write-budget" => write_budget = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("maya-lint: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let root = root.unwrap_or_else(workspace_root);
    let budget_path = root.join("lint-budget.toml");
    let cfg = match std::fs::read_to_string(&budget_path) {
        Ok(text) => match Config::parse(&text) {
            Ok(cfg) => cfg,
            Err(e) => {
                eprintln!("maya-lint: {e}");
                return ExitCode::from(2);
            }
        },
        // No budget file yet: empty caps (every crate with panic sites
        // will report as missing until --write-budget commits one).
        Err(_) => Config::default(),
    };

    if write_budget {
        let next = match maya_lint::write_budget(&root, &cfg) {
            Ok(next) => next,
            Err(e) => {
                eprintln!("maya-lint: scan failed: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(&budget_path, next.render()) {
            eprintln!("maya-lint: cannot write {}: {e}", budget_path.display());
            return ExitCode::from(2);
        }
        println!(
            "maya-lint: wrote {} ({} crate budget(s))",
            budget_path.display(),
            next.budgets.len()
        );
        return ExitCode::SUCCESS;
    }

    let report = match maya_lint::run_workspace(&root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("maya-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.render_text());
    if report.failed() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// `CARGO_MANIFEST_DIR` points at `crates/maya-lint`; the workspace
/// root is two levels up. Outside cargo, fall back to the current dir.
fn workspace_root() -> PathBuf {
    if let Ok(dir) = std::env::var("CARGO_MANIFEST_DIR") {
        let manifest = PathBuf::from(dir);
        if let Some(root) = manifest.parent().and_then(|p| p.parent()) {
            return root.to_path_buf();
        }
    }
    PathBuf::from(".")
}
