//! Output digests: FNV-1a over the decimal rendering of every simulated
//! statistic. A change meant only to make the simulator faster must
//! leave every one of them identical, so the digests of seed 1 are
//! committed under `expected/` and compared on every seed-1 run; on any
//! seed the paths that answer the same job must agree with each other.

use std::path::{Path, PathBuf};

use maya_search::{SearchResult, TrialOutcome};
use maya_sim::SimReport;

use crate::workloads::{RunConfig, Tally};

/// FNV-1a, 64 bit.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds the rendering of `v` followed by a separator, so adjacent
    /// fields cannot run together.
    pub fn field(&mut self, v: impl std::fmt::Display) -> &mut Self {
        for b in format!("{v},").bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Feeds every simulated output of a report.
pub fn feed_report(h: &mut Fnv, r: &SimReport) {
    h.field(r.total_time.as_ns());
    h.field(r.rank_end_times.len());
    for t in &r.rank_end_times {
        h.field(t.as_ns());
    }
    h.field(r.comm_time.as_ns())
        .field(r.compute_time.as_ns())
        .field(r.peak_mem_bytes)
        .field(r.events_processed);
}

/// Digest of one report.
pub fn report_digest(r: &SimReport) -> u64 {
    let mut h = Fnv::default();
    feed_report(&mut h, r);
    h.finish()
}

fn feed_outcome(h: &mut Fnv, o: &TrialOutcome) {
    match o {
        TrialOutcome::Invalid => h.field("invalid"),
        TrialOutcome::Oom => h.field("oom"),
        TrialOutcome::Completed {
            iteration_time,
            mfu,
            cost,
        } => h.field(iteration_time.as_ns()).field(mfu).field(cost),
    };
}

/// Feeds a search: the best config, then every trial in order.
pub fn feed_search(h: &mut Fnv, r: &SearchResult) {
    match &r.best {
        Some((c, o)) => {
            h.field(c);
            feed_outcome(h, o);
        }
        None => {
            h.field("none");
        }
    }
    h.field(r.trials.len());
    for t in &r.trials {
        h.field(t.config).field(format_args!("{:?}", t.provenance));
        feed_outcome(h, &t.outcome);
    }
}

/// Where a workload's committed seed-1 digest lives.
pub fn golden_path(dir: &Path, workload: &str) -> PathBuf {
    dir.join("expected")
        .join(format!("{workload}.seed1.digest"))
}

/// Counts one check in `tally`: `digest` against the committed one.
pub fn check_golden(cfg: &RunConfig, digest: u64, tally: &mut Tally) -> Result<(), String> {
    let agrees = agrees_with_golden(cfg, digest)?;
    tally.check(agrees, || {
        format!(
            "{} outputs differ from expected/{}.seed1.digest",
            cfg.workload, cfg.workload
        )
    });
    Ok(())
}

/// Compares `digest` with the committed one (seed 1 only — other seeds
/// have no golden file and rely on cross-path agreement), or writes it
/// when an untraced run is blessing. `Ok(true)` means "agrees or not
/// applicable".
fn agrees_with_golden(cfg: &RunConfig, digest: u64) -> Result<bool, String> {
    // A smoke run trains a smaller forest: its outputs are not seed 1's.
    if cfg.seed != 1 || cfg.smoke {
        return Ok(true);
    }
    let workload = &cfg.workload;
    let path = golden_path(&cfg.dir, workload);
    let rendered = format!("{digest:016x}\n");
    if cfg.bless && !cfg.trace {
        std::fs::create_dir_all(path.parent().expect("golden path has a parent"))
            .and_then(|()| std::fs::write(&path, &rendered))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        return Ok(true);
    }
    let committed = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read {} (run with --bless once): {e}",
            path.display()
        )
    })?;
    if committed == rendered {
        Ok(true)
    } else {
        eprintln!(
            "golden digest mismatch on {workload}: expected {}, got {}",
            committed.trim(),
            rendered.trim()
        );
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_trace::SimTime;

    fn report(total_ns: u64) -> SimReport {
        SimReport {
            total_time: SimTime(total_ns),
            rank_end_times: vec![SimTime(total_ns), SimTime(12)],
            comm_time: SimTime(3),
            compute_time: SimTime(4),
            host_time: SimTime(5),
            peak_mem_bytes: 6,
            events_processed: 7,
        }
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        // FNV-1a 64 of "a," computed by hand from the definition.
        let mut h = Fnv::default();
        h.field("a");
        let mut want = 0xcbf2_9ce4_8422_2325u64;
        for b in [b'a', b','] {
            want = (want ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(h.finish(), want);
    }

    #[test]
    fn fields_do_not_run_together() {
        let mut a = Fnv::default();
        a.field(12).field(3);
        let mut b = Fnv::default();
        b.field(1).field(23);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn any_simulated_statistic_moves_the_digest() {
        assert_eq!(report_digest(&report(100)), report_digest(&report(100)));
        assert_ne!(report_digest(&report(100)), report_digest(&report(101)));
        let mut more_events = report(100);
        more_events.events_processed += 1;
        assert_ne!(report_digest(&report(100)), report_digest(&more_events));
    }

    #[test]
    fn golden_applies_to_seed_one_only_and_round_trips() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("golden-test-{}", std::process::id()));
        let cfg = |seed, smoke, bless| RunConfig {
            workload: "w".into(),
            seed,
            seconds: 0.0,
            trace: false,
            smoke,
            bless,
            dir: dir.clone(),
        };
        assert!(
            agrees_with_golden(&cfg(2, false, false), 1).unwrap(),
            "no golden off seed 1"
        );
        assert!(
            agrees_with_golden(&cfg(1, true, false), 1).unwrap(),
            "nor on a smoke run"
        );
        assert!(
            agrees_with_golden(&cfg(1, false, false), 1).is_err(),
            "missing file is an error"
        );
        assert!(agrees_with_golden(&cfg(1, false, true), 0xabc).unwrap());
        assert!(agrees_with_golden(&cfg(1, false, false), 0xabc).unwrap());
        assert!(!agrees_with_golden(&cfg(1, false, false), 0xabd).unwrap());
        let traced_bless = RunConfig {
            trace: true,
            ..cfg(1, false, true)
        };
        assert!(
            !agrees_with_golden(&traced_bless, 0xabd).unwrap(),
            "a traced run never blesses"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
