//! The scan-everything flow solver `maya_net::FlowNet` shipped before
//! it learned to keep only live flows, frozen verbatim as a test
//! oracle. Finished flows stay in `flows` forever and every operation
//! rescans all of them — simple enough to trust by inspection, and the
//! water-fill visits active flows in creation order, which is the
//! order the shipped solver must reproduce bit for bit.
//!
//! Test-only: do not optimise, and do not fix anything here without
//! fixing `FlowNet` the same way.

// Frozen with the full method set; the oracle test reads a subset.
#![allow(dead_code)]

/// One in-flight transfer competing for link capacity.
#[derive(Clone, Debug, Default)]
struct FlowState {
    /// Bytes still to move.
    remaining: f64,
    /// Current allocated rate in bytes/sec.
    rate: f64,
    /// Link indices this flow crosses (no duplicates).
    links: Vec<u32>,
    /// False once finished (slot kept so ids stay stable in a run).
    active: bool,
}

/// The flow network: link capacities plus the currently active flows.
///
/// Designed for scratch reuse — `reset` clears the
/// flow table but keeps allocations, so a pooled `SimScratch` pays no
/// steady-state allocation for the model.
#[derive(Debug, Default)]
pub struct NaiveFlowNet {
    /// Capacity of each link in bytes/sec.
    capacity: Vec<f64>,
    flows: Vec<FlowState>,
    /// Simulated time (ns) the flow table was last advanced to.
    last_update_ns: u64,
    // Water-filling scratch, reused across convergences.
    remaining_cap: Vec<f64>,
    unfrozen_on: Vec<u32>,
    frozen: Vec<bool>,
}

impl NaiveFlowNet {
    /// An empty model with no links.
    pub fn new() -> Self {
        NaiveFlowNet::default()
    }

    /// Clears all flows and installs link capacities (bytes/sec),
    /// keeping allocations for reuse.
    pub fn reset(&mut self, capacities: impl IntoIterator<Item = f64>) {
        self.capacity.clear();
        self.capacity.extend(capacities);
        self.flows.clear();
        self.last_update_ns = 0;
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.capacity.len()
    }

    /// Capacity of a link in bytes/sec.
    pub fn capacity_of(&self, link: u32) -> f64 {
        self.capacity[link as usize]
    }

    /// Current rate of a flow in bytes/sec (0 if finished).
    pub fn rate_of(&self, flow: u32) -> f64 {
        let f = &self.flows[flow as usize];
        if f.active {
            f.rate
        } else {
            0.0
        }
    }

    /// Remaining bytes of a flow (as of the last advance).
    pub fn remaining_of(&self, flow: u32) -> f64 {
        self.flows[flow as usize].remaining
    }

    /// The links a flow crosses.
    pub fn links_of(&self, flow: u32) -> &[u32] {
        &self.flows[flow as usize].links
    }

    /// Whether a flow is still active.
    pub fn is_active(&self, flow: u32) -> bool {
        self.flows.get(flow as usize).is_some_and(|f| f.active)
    }

    /// Ids of all active flows, ascending.
    pub fn active_flows(&self) -> impl Iterator<Item = u32> + '_ {
        self.flows
            .iter()
            .enumerate()
            .filter(|(_, f)| f.active)
            .map(|(i, _)| i as u32)
    }

    /// Starts a flow of `bytes` over `links` (deduplicated by the
    /// caller) at time `now_ns`, re-converges every rate, and returns
    /// the flow id.
    pub fn start(&mut self, now_ns: u64, bytes: f64, links: &[u32]) -> u32 {
        debug_assert!(links.iter().all(|&l| (l as usize) < self.capacity.len()));
        self.advance(now_ns);
        let id = self.flows.len() as u32;
        self.flows.push(FlowState {
            remaining: bytes.max(0.0),
            rate: 0.0,
            links: links.to_vec(),
            active: true,
        });
        self.converge();
        id
    }

    /// Finishes a flow at `now_ns` (its completion event fired) and
    /// re-converges the survivors.
    pub fn finish(&mut self, now_ns: u64, flow: u32) {
        self.advance(now_ns);
        self.flows[flow as usize].active = false;
        self.flows[flow as usize].remaining = 0.0;
        self.converge();
    }

    /// Completion time (ns) of a flow at its current rate, measured
    /// from the last advance point. Saturates instead of overflowing.
    pub fn eta_ns(&self, flow: u32) -> u64 {
        let f = &self.flows[flow as usize];
        if !f.active || f.remaining <= 0.0 {
            return self.last_update_ns;
        }
        if f.rate <= 0.0 {
            return u64::MAX;
        }
        let dt = (f.remaining / f.rate) * 1e9;
        if dt >= (u64::MAX / 2) as f64 {
            return u64::MAX;
        }
        self.last_update_ns.saturating_add(dt.ceil() as u64)
    }

    /// Moves every active flow forward to `now_ns` at its current
    /// rate. Idempotent for equal timestamps; `now_ns` must not go
    /// backwards (events pop in time order).
    fn advance(&mut self, now_ns: u64) {
        debug_assert!(now_ns >= self.last_update_ns, "time went backwards");
        if now_ns <= self.last_update_ns {
            return;
        }
        let dt = (now_ns - self.last_update_ns) as f64 / 1e9;
        for f in &mut self.flows {
            if f.active {
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
        }
        self.last_update_ns = now_ns;
    }

    /// Max-min fair (water-filling) rate assignment over all active
    /// flows. O(links² + links·flows) per convergence — topologies are
    /// small (two links per node) and convergences only happen at flow
    /// boundaries, so this never shows up in profiles.
    fn converge(&mut self) {
        let n_links = self.capacity.len();
        self.remaining_cap.clear();
        self.remaining_cap.extend_from_slice(&self.capacity);
        self.unfrozen_on.clear();
        self.unfrozen_on.resize(n_links, 0);
        self.frozen.clear();
        self.frozen.resize(self.flows.len(), false);

        for f in &self.flows {
            if f.active {
                for &l in &f.links {
                    self.unfrozen_on[l as usize] += 1;
                }
            }
        }

        loop {
            // The bottleneck: smallest fair share among loaded links,
            // ties to the lowest index (determinism).
            let mut bottleneck: Option<(usize, f64)> = None;
            for l in 0..n_links {
                if self.unfrozen_on[l] == 0 {
                    continue;
                }
                let share = (self.remaining_cap[l] / self.unfrozen_on[l] as f64).max(0.0);
                match bottleneck {
                    Some((_, best)) if share >= best => {}
                    _ => bottleneck = Some((l, share)),
                }
            }
            let Some((bl, share)) = bottleneck else { break };

            // Freeze every unfrozen flow crossing the bottleneck at
            // the fair share, charging its whole route.
            for fi in 0..self.flows.len() {
                if self.frozen[fi] || !self.flows[fi].active {
                    continue;
                }
                if !self.flows[fi].links.contains(&(bl as u32)) {
                    continue;
                }
                self.flows[fi].rate = share;
                self.frozen[fi] = true;
                for &l in &self.flows[fi].links {
                    let l = l as usize;
                    self.remaining_cap[l] = (self.remaining_cap[l] - share).max(0.0);
                    self.unfrozen_on[l] -= 1;
                }
            }
        }

        // Flows with an empty route (degenerate single-rank
        // collectives) never hit a bottleneck: drain them instantly.
        for fi in 0..self.flows.len() {
            if self.flows[fi].active && !self.frozen[fi] {
                debug_assert!(self.flows[fi].links.is_empty());
                self.flows[fi].rate = f64::MAX;
            }
        }
    }
}
