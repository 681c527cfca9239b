//! Max-min fair shared-bandwidth flow model.
//!
//! Every in-flight collective is a *flow*: a byte count moving over a
//! fixed set of links. Active flows split each link's capacity by
//! progressive (water-)filling: repeatedly find the most contended
//! link, freeze every flow crossing it at that link's fair share, and
//! recurse on what's left. Rates only change when the flow population
//! changes, so the model is exact between events: the simulator
//! advances remaining bytes at the old rates to the event time and
//! re-converges. A start or a finish changes every rate, so a
//! completion time holds only until the next one: the simulator asks
//! for the [first flow to finish](FlowNet::first_to_finish) after each
//! convergence and keeps only that completion pending: the first to
//! fire finishes its flow, which re-converges the net and voids the
//! others.
//!
//! Determinism: the fill visits links and flows in ascending index
//! order with pure f64 arithmetic; identical call sequences produce
//! bit-identical rates.

/// One live transfer competing for link capacity.
#[derive(Debug)]
struct LiveFlow {
    id: u32,
    /// Bytes still to move.
    remaining: f64,
    /// Current allocated rate in bytes/sec.
    rate: f64,
    /// Link indices this flow crosses (no duplicates).
    links: Vec<u32>,
    /// Water-fill mark: the rate is already fixed in the convergence
    /// under way.
    frozen: bool,
}

/// The flow network: link capacities plus the currently live flows.
///
/// Every operation costs O(live flows), however many flows the run has
/// started and finished: a finished flow leaves the table, and its
/// route buffer is handed to the next flow to start. A training step
/// starts thousands of collectives and keeps a handful in flight, so
/// this is what makes a contended run cost about what a flat one does.
/// Ids are still handed out in start order and never reused within a
/// run; asking about a finished flow answers "inactive, rate 0, nothing
/// remaining, no links".
///
/// Designed for scratch reuse — [`reset`](FlowNet::reset) clears the
/// flow table but keeps allocations, so a pooled `SimScratch` allocates
/// for the model only until its spare route buffers cover the most
/// flows it ever had live at once.
#[derive(Debug, Default)]
pub struct FlowNet {
    /// Capacity of each link in bytes/sec.
    capacity: Vec<f64>,
    /// Live flows in start order (ascending id). The water-fill walks
    /// this in order, which keeps every rate bit-identical to a solver
    /// that scans the run's whole flow history and skips the dead.
    live: Vec<LiveFlow>,
    /// Id the next [`start`](FlowNet::start) hands out.
    next_id: u32,
    /// Route buffers of finished flows, reused by later starts.
    spare_links: Vec<Vec<u32>>,
    /// Simulated time (ns) the flow table was last advanced to.
    last_update_ns: u64,
    // Water-filling scratch, reused across convergences.
    remaining_cap: Vec<f64>,
    unfrozen_on: Vec<u32>,
}

impl FlowNet {
    /// An empty model with no links.
    pub fn new() -> Self {
        FlowNet::default()
    }

    /// Clears all flows and installs link capacities (bytes/sec),
    /// keeping allocations for reuse.
    pub fn reset(&mut self, capacities: impl IntoIterator<Item = f64>) {
        self.capacity.clear();
        self.capacity.extend(capacities);
        for f in self.live.drain(..) {
            self.spare_links.push(f.links);
        }
        self.next_id = 0;
        self.last_update_ns = 0;
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.capacity.len()
    }

    fn find(&self, flow: u32) -> Option<&LiveFlow> {
        self.live.iter().find(|f| f.id == flow)
    }

    /// Current rate of a flow in bytes/sec (0 if finished).
    pub fn rate_of(&self, flow: u32) -> f64 {
        self.find(flow).map_or(0.0, |f| f.rate)
    }

    /// Remaining bytes of a flow (as of the last advance; 0 if
    /// finished).
    pub fn remaining_of(&self, flow: u32) -> f64 {
        self.find(flow).map_or(0.0, |f| f.remaining)
    }

    /// The links a live flow crosses (empty once it has finished).
    pub fn links_of(&self, flow: u32) -> &[u32] {
        self.find(flow).map_or(&[], |f| &f.links)
    }

    /// Whether a flow is still active.
    pub fn is_active(&self, flow: u32) -> bool {
        self.find(flow).is_some()
    }

    /// Ids of all active flows, ascending.
    pub fn active_flows(&self) -> impl Iterator<Item = u32> + '_ {
        self.live.iter().map(|f| f.id)
    }

    /// Starts a flow of `bytes` over `links` (deduplicated by the
    /// caller) at time `now_ns`, re-converges every rate, and returns
    /// the flow id. Every completion time computed before is void.
    pub fn start(&mut self, now_ns: u64, bytes: f64, links: &[u32]) -> u32 {
        debug_assert!(links.iter().all(|&l| (l as usize) < self.capacity.len()));
        self.advance(now_ns);
        let id = self.next_id;
        self.next_id += 1;
        let mut route = self.spare_links.pop().unwrap_or_default();
        route.clear();
        route.extend_from_slice(links);
        self.live.push(LiveFlow {
            id,
            remaining: bytes.max(0.0),
            rate: 0.0,
            links: route,
            frozen: false,
        });
        self.converge();
        id
    }

    /// Finishes a flow at `now_ns` (its completion event fired) and
    /// re-converges the survivors. Every completion time computed
    /// before is void.
    pub fn finish(&mut self, now_ns: u64, flow: u32) {
        self.advance(now_ns);
        if let Some(pos) = self.live.iter().position(|f| f.id == flow) {
            // `remove`, not `swap_remove`: the survivors keep their
            // start order for the water-fill.
            self.spare_links.push(self.live.remove(pos).links);
        }
        self.converge();
    }

    /// Completion time (ns) of a flow at its current rate, measured
    /// from the last advance point. Saturates instead of overflowing.
    pub fn eta_ns(&self, flow: u32) -> u64 {
        self.find(flow).map_or(self.last_update_ns, |f| self.eta(f))
    }

    /// The live flow that drains first at the current rates and its
    /// [`eta_ns`](FlowNet::eta_ns); of flows due at the same instant,
    /// the one started first. `None` when no flow is live.
    pub fn first_to_finish(&self) -> Option<(u32, u64)> {
        let mut first: Option<(u32, u64)> = None;
        for f in &self.live {
            let eta = self.eta(f);
            match first {
                Some((_, due)) if eta >= due => {}
                _ => first = Some((f.id, eta)),
            }
        }
        first
    }

    fn eta(&self, f: &LiveFlow) -> u64 {
        if f.remaining <= 0.0 {
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
        for f in &mut self.live {
            f.remaining = (f.remaining - f.rate * dt).max(0.0);
        }
        self.last_update_ns = now_ns;
    }

    /// Max-min fair (water-filling) rate assignment over the live
    /// flows: O(links² + links·live) per convergence. Topologies are
    /// small (two links per node) and only a handful of flows are live
    /// at once, but a run converges twice per collective, so this is
    /// the flow model's hot loop — nothing in it may grow with the
    /// number of flows already finished.
    fn converge(&mut self) {
        self.remaining_cap.clear();
        self.remaining_cap.extend_from_slice(&self.capacity);
        self.unfrozen_on.clear();
        self.unfrozen_on.resize(self.capacity.len(), 0);

        // Routes only name links the net has (`start` checks): the
        // `get`s below always find theirs.
        for f in &mut self.live {
            f.frozen = false;
            for &l in &f.links {
                if let Some(n) = self.unfrozen_on.get_mut(l as usize) {
                    *n += 1;
                }
            }
        }

        loop {
            // The bottleneck: smallest fair share among loaded links,
            // ties to the lowest index (determinism).
            let mut bottleneck: Option<(u32, f64)> = None;
            for (l, (&cap, &n)) in self.remaining_cap.iter().zip(&self.unfrozen_on).enumerate() {
                if n == 0 {
                    continue;
                }
                let share = (cap / n as f64).max(0.0);
                match bottleneck {
                    Some((_, best)) if share >= best => {}
                    _ => bottleneck = Some((l as u32, share)),
                }
            }
            let Some((bl, share)) = bottleneck else { break };

            // Freeze every unfrozen flow crossing the bottleneck at
            // the fair share, charging its whole route.
            for f in &mut self.live {
                if f.frozen || !f.links.contains(&bl) {
                    continue;
                }
                f.rate = share;
                f.frozen = true;
                for &l in &f.links {
                    let l = l as usize;
                    if let (Some(cap), Some(n)) =
                        (self.remaining_cap.get_mut(l), self.unfrozen_on.get_mut(l))
                    {
                        *cap = (*cap - share).max(0.0);
                        *n -= 1;
                    }
                }
            }
        }

        // Flows with an empty route (degenerate single-rank
        // collectives) never hit a bottleneck: drain them instantly.
        for f in &mut self.live {
            if !f.frozen {
                debug_assert!(f.links.is_empty());
                f.rate = f64::MAX;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_flow_gets_the_whole_link() {
        let mut net = FlowNet::new();
        net.reset([100.0]);
        let f = net.start(0, 1000.0, &[0]);
        assert!((net.rate_of(f) - 100.0).abs() < 1e-9);
        assert_eq!(net.eta_ns(f), 10_000_000_000);
    }

    #[test]
    fn two_flows_split_a_shared_link() {
        let mut net = FlowNet::new();
        net.reset([100.0]);
        let a = net.start(0, 1000.0, &[0]);
        let b = net.start(0, 1000.0, &[0]);
        assert!((net.rate_of(a) - 50.0).abs() < 1e-9);
        assert!((net.rate_of(b) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn finishing_a_flow_reconverges_the_survivor() {
        let mut net = FlowNet::new();
        net.reset([100.0]);
        let a = net.start(0, 1000.0, &[0]);
        let b = net.start(0, 500.0, &[0]);
        // b finishes first (same rate, fewer bytes).
        let eta_b = net.eta_ns(b);
        assert_eq!(net.first_to_finish(), Some((b, eta_b)));
        net.finish(eta_b, b);
        assert!((net.rate_of(a) - 100.0).abs() < 1e-9, "a reclaims the link");
        // a moved 500 bytes in the shared phase, 500 remain at 100 B/s.
        assert_eq!(net.eta_ns(a), eta_b + 5_000_000_000);
    }

    #[test]
    fn first_to_finish_ties_go_to_the_first_started() {
        let mut net = FlowNet::new();
        net.reset([100.0, 100.0]);
        let a = net.start(0, 1000.0, &[0]);
        let b = net.start(0, 1000.0, &[1]);
        assert_eq!(net.eta_ns(a), net.eta_ns(b));
        assert_eq!(net.first_to_finish(), Some((a, net.eta_ns(a))));
        net.finish(net.eta_ns(a), a);
        assert_eq!(net.first_to_finish(), Some((b, net.eta_ns(b))));
    }

    #[test]
    fn bottleneck_flows_do_not_starve_elsewhere() {
        // Flow A crosses links 0,1; flow B only link 0; link 1 is fat.
        let mut net = FlowNet::new();
        net.reset([100.0, 1000.0]);
        let a = net.start(0, 1e6, &[0, 1]);
        let b = net.start(0, 1e6, &[0]);
        // Link 0 is the bottleneck: both get 50.
        assert!((net.rate_of(a) - 50.0).abs() < 1e-9);
        assert!((net.rate_of(b) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn unbottlenecked_flow_takes_the_slack() {
        // A on the thin link (cap 10), B on the fat link (cap 100),
        // sharing nothing: each gets its own link's full capacity.
        let mut net = FlowNet::new();
        net.reset([10.0, 100.0]);
        let a = net.start(0, 1e6, &[0]);
        let b = net.start(0, 1e6, &[1]);
        assert!((net.rate_of(a) - 10.0).abs() < 1e-9);
        assert!((net.rate_of(b) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn max_min_gives_slack_to_the_unconstrained() {
        // Links: 0 (cap 30), 1 (cap 100). A: {0}, B: {0,1}, C: {1}.
        // Fill 1: link 0 share 15 → A,B freeze at 15.
        // Fill 2: link 1 has 85 left, C alone → 85.
        let mut net = FlowNet::new();
        net.reset([30.0, 100.0]);
        let a = net.start(0, 1e6, &[0]);
        let b = net.start(0, 1e6, &[0, 1]);
        let c = net.start(0, 1e6, &[1]);
        assert!((net.rate_of(a) - 15.0).abs() < 1e-9);
        assert!((net.rate_of(b) - 15.0).abs() < 1e-9);
        assert!((net.rate_of(c) - 85.0).abs() < 1e-9);
    }

    #[test]
    fn finished_flows_leave_the_table() {
        let mut net = FlowNet::new();
        net.reset([100.0, 100.0]);
        let background = net.start(0, 1e12, &[1]);
        for i in 0..10_000u64 {
            let f = net.start(i, 1.0, &[0, 1]);
            assert_eq!(f as u64, i + 1, "ids follow start order");
            net.finish(i, f);
            assert!(!net.is_active(f));
            assert_eq!(net.rate_of(f), 0.0);
            assert_eq!(net.eta_ns(f), i);
            assert!(net.live.len() <= 1, "live table grew to {}", net.live.len());
            assert!(net.spare_links.len() <= 1, "route buffers are recycled");
        }
        assert_eq!(net.active_flows().collect::<Vec<_>>(), vec![background]);
        assert_eq!(net.links_of(background), &[1]);
    }

    #[test]
    fn reset_reuses_allocations() {
        let mut net = FlowNet::new();
        net.reset([100.0]);
        net.start(0, 10.0, &[0]);
        net.reset([50.0, 50.0]);
        assert_eq!(net.num_links(), 2);
        assert_eq!(net.active_flows().count(), 0);
        assert_eq!(net.first_to_finish(), None);
    }
}
