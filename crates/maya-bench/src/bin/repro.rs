//! Regenerates the paper's figures and tables.
//!
//! ```text
//! cargo run --release -p maya-bench --bin repro -- --list
//! cargo run --release -p maya-bench --bin repro -- fig07           # paper scale
//! cargo run --release -p maya-bench --bin repro -- --smoke all     # every row, seconds
//! cargo run --release -p maya-bench --bin repro -- --smoke --configs 12 fig07
//! ```

use std::process::ExitCode;

use maya_bench::{Budget, Row, ROWS};

const USAGE: &str = "usage: repro <id>|all|--list [--smoke] [--configs N]

Runs are paper scale by default: full profiling sweeps and each row's
own configuration count (minutes per row).
  --smoke       train on the small profiling sets (every row in seconds)
  --configs N   cap the configurations evaluated per setup at N
  --list        print the row ids and what each shows";

fn main() -> ExitCode {
    let mut budget = Budget::paper();
    let mut rows: Vec<&Row> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => budget.scale = Budget::smoke().scale,
            "--configs" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => budget = budget.with_configs(n),
                None => return usage_error("--configs needs a number"),
            },
            "--list" => {
                for row in &ROWS {
                    println!("{:<9} {}", row.id, row.title);
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                return usage_error(&format!("unknown option `{flag}`"))
            }
            "all" => rows.extend(&ROWS),
            id => match ROWS.iter().find(|r| r.id == id) {
                Some(row) => rows.push(row),
                None => return usage_error(&format!("unknown id `{id}` (see --list)")),
            },
        }
    }
    if rows.is_empty() {
        return usage_error("name a row, or `all`");
    }

    let mut failed = false;
    for row in &rows {
        eprintln!("[{}] {} ({budget})...", row.id, row.title);
        match (row.run)(&budget) {
            Ok(data) => {
                if rows.len() > 1 {
                    println!("== {}: {} ==", row.id, row.title);
                }
                print!("{data}");
            }
            Err(e) => {
                eprintln!("repro: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

fn usage_error(what: &str) -> ExitCode {
    eprintln!("repro: {what}\n{USAGE}");
    ExitCode::from(2)
}
