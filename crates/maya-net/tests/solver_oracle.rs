//! The shipped live-set solver against the frozen scan-everything one.
//!
//! Sessions are long (≥ 300 ops) and finish-biased, so almost every
//! flow ever started is dead at any point — the regime where the old
//! solver spent its time and where a live-set bug (a stale entry, a
//! reordered water-fill, a recycled buffer leaking links) would hide.
//! After every op the two must agree bit for bit on everything the
//! simulator reads: the `active_flows` order, `rate_of` /
//! `remaining_of` / `eta_ns` / `is_active` of every flow ever started,
//! and `first_to_finish` — the earliest eta among the oracle's live
//! flows, ties to the first started.

mod naive;

use maya_net::FlowNet;
use naive::NaiveFlowNet;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    /// Start a flow over the links in `mask` (empty masks included:
    /// the degenerate single-rank collective).
    Start { bytes: u32, mask: u8, dt_us: u16 },
    /// Finish the `pick % live`-th oldest live flow.
    Finish { pick: u8, dt_us: u16 },
}

/// At most this many flows are live at once; a `Start` beyond it
/// finishes one instead.
const MAX_LIVE: usize = 6;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        1 => (0u32..50_000_000, 0u8..255, 0u16..2000)
            .prop_map(|(bytes, mask, dt_us)| Op::Start { bytes, mask, dt_us }),
        1 => (0u8..255, 0u16..2000).prop_map(|(pick, dt_us)| Op::Finish { pick, dt_us }),
    ]
}

fn route(mask: u8, num_links: usize) -> Vec<u32> {
    (0..num_links as u32)
        .filter(|l| mask & (1 << l) != 0)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn live_set_solver_matches_naive_solver(
        caps in proptest::collection::vec(1.0f64..1000.0, 1..7),
        ops in proptest::collection::vec(op_strategy(), 300..400),
    ) {
        let mut fast = FlowNet::new();
        let mut slow = NaiveFlowNet::new();
        fast.reset(caps.iter().copied());
        slow.reset(caps.iter().copied());
        let mut live: Vec<u32> = Vec::new();
        let mut started = 0u32;
        let mut now = 0u64;
        for op in &ops {
            match *op {
                Op::Start { bytes, mask, dt_us } if live.len() < MAX_LIVE => {
                    now += dt_us as u64 * 1000;
                    let links = route(mask, caps.len());
                    let id = fast.start(now, bytes as f64, &links);
                    prop_assert_eq!(id, slow.start(now, bytes as f64, &links));
                    prop_assert_eq!(fast.links_of(id), &links[..]);
                    live.push(id);
                    started += 1;
                }
                Op::Start { mask: pick, dt_us, .. } | Op::Finish { pick, dt_us } => {
                    if live.is_empty() {
                        continue;
                    }
                    now += dt_us as u64 * 1000;
                    let id = live.remove(pick as usize % live.len());
                    fast.finish(now, id);
                    slow.finish(now, id);
                }
            }
            prop_assert_eq!(
                fast.active_flows().collect::<Vec<_>>(),
                slow.active_flows().collect::<Vec<_>>()
            );
            let first = slow
                .active_flows()
                .map(|f| (f, slow.eta_ns(f)))
                .min_by_key(|&(f, eta)| (eta, f));
            prop_assert_eq!(fast.first_to_finish(), first);
            for f in 0..started {
                prop_assert_eq!(fast.is_active(f), slow.is_active(f), "flow {}", f);
                prop_assert_eq!(
                    fast.rate_of(f).to_bits(), slow.rate_of(f).to_bits(), "rate of flow {}", f
                );
                prop_assert_eq!(
                    fast.remaining_of(f).to_bits(),
                    slow.remaining_of(f).to_bits(),
                    "remaining of flow {}", f
                );
                prop_assert_eq!(fast.eta_ns(f), slow.eta_ns(f), "eta of flow {}", f);
            }
        }
        prop_assert!(started as usize > 10 * MAX_LIVE, "sessions must leave dead >> live");
    }
}
