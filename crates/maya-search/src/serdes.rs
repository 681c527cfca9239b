//! Wire codecs for the search vocabulary, over the vendored serde's
//! compact token format.
//!
//! A remote `Search` request carries a [`ConfigSpace`] and an
//! [`AlgorithmKind`] to the service; the [`SearchResult`] travels back
//! whole — best point, every trial record, stats, convergence curve —
//! so a wire client sees exactly what a direct caller of
//! `TrialScheduler::run_batched` would. Floats (MFU, cost, convergence)
//! serialize as IEEE-754 bit patterns, so the round trip is bit-exact
//! and "byte-identical to a direct call" holds across the network.

use crate::algorithms::AlgorithmKind;
use crate::objective::{Provenance, TrialOutcome, TrialRecord};
use crate::scheduler::{SearchResult, SearchStats};
use crate::space::ConfigSpace;

serde::codec! {
    enum AlgorithmKind: "algorithm kind" {
        "cma_es" => CmaEs,
        "one_plus_one" => OnePlusOne,
        "pso" => Pso,
        "two_points_de" => TwoPointsDe,
        "random" => Random,
        "grid" => Grid,
    }

    struct ConfigSpace {
        tp,
        pp,
        microbatch_multiplier,
        virtual_stages,
        activation_recompute,
        sequence_parallel,
        distributed_optimizer,
    }

    enum TrialOutcome: "trial outcome" {
        "invalid" => Invalid,
        "oom" => Oom,
        "completed" => Completed { iteration_time, mfu, cost },
    }

    enum Provenance: "provenance" {
        "executed" => Executed,
        "cached" => Cached,
        "skipped" => Skipped,
    }

    struct TrialRecord { config, outcome, provenance }

    struct SearchStats { executed, cached, skipped, invalid }

    struct SearchResult { best, trials, stats, wall, convergence }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_torchlet::ParallelConfig;
    use maya_trace::SimTime;
    use std::time::Duration;

    #[test]
    fn algorithm_kinds_round_trip() {
        for a in AlgorithmKind::all() {
            let back: AlgorithmKind = serde::from_str(&serde::to_string(&a)).unwrap();
            assert_eq!(back, a);
        }
    }

    #[test]
    fn search_results_round_trip() {
        let outcome = TrialOutcome::Completed {
            iteration_time: SimTime::from_ms(12.5),
            mfu: 0.41,
            cost: 1.0 / 3.0,
        };
        let result = SearchResult {
            best: Some((ParallelConfig::default(), outcome)),
            trials: vec![
                TrialRecord {
                    config: ParallelConfig::default(),
                    outcome,
                    provenance: Provenance::Executed,
                },
                TrialRecord {
                    config: ParallelConfig {
                        tp: 8,
                        ..Default::default()
                    },
                    outcome: TrialOutcome::Invalid,
                    provenance: Provenance::Skipped,
                },
                TrialRecord {
                    config: ParallelConfig {
                        pp: 2,
                        ..Default::default()
                    },
                    outcome: TrialOutcome::Oom,
                    provenance: Provenance::Cached,
                },
            ],
            stats: SearchStats {
                executed: 1,
                cached: 1,
                skipped: 1,
                invalid: 1,
            },
            wall: Duration::from_micros(123_456),
            convergence: vec![0.1, 0.3, 0.41],
        };
        let text = serde::to_string(&result);
        let back: SearchResult = serde::from_str(&text).unwrap();
        assert_eq!(back.best, result.best);
        assert_eq!(back.trials, result.trials);
        assert_eq!(back.stats, result.stats);
        assert_eq!(back.wall, result.wall);
        assert_eq!(
            back.convergence
                .iter()
                .map(|f| f.to_bits())
                .collect::<Vec<_>>(),
            result
                .convergence
                .iter()
                .map(|f| f.to_bits())
                .collect::<Vec<_>>()
        );
        assert_eq!(serde::to_string(&back), text);
    }

    #[test]
    fn config_spaces_round_trip() {
        let s = ConfigSpace::default();
        let back: ConfigSpace = serde::from_str(&serde::to_string(&s)).unwrap();
        assert_eq!(back.cardinality(), s.cardinality());
        assert_eq!(back.enumerate(), s.enumerate());
    }
}
