//! Per-link network topology and heterogeneous rank pools.
//!
//! [`TopologySpec`] names the *shared* links of a cluster so the
//! simulator's flow model (`maya-net`) can make concurrent collectives
//! compete for capacity: each node owns an intra-node fabric link and
//! an inter-node uplink, and a collective's route is the set of links
//! its participant nodes touch. [`HeteroPool`] describes mixed-GPU
//! deployments — ranks are assigned to [`RankClass`]es in declaration
//! order, and per-rank kernel durations scale by the class GPU's
//! throughput relative to the cluster's base GPU.
//!
//! Both types are opt-in `Option` fields on
//! [`ClusterSpec`](crate::ClusterSpec): a `None` spec takes exactly the
//! pre-existing happy-path code, byte for byte.

use crate::specs::GpuSpec;

/// One shared network link: a capacity every crossing flow competes
/// for, plus a propagation latency.
///
/// Equality and hashing compare float bit patterns (see
/// [`GpuSpec`]).
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct NetLink {
    /// Shared capacity in GB/s (decimal; 1 GB/s = 1e9 bytes/s). All
    /// flows crossing the link split this by max-min fairness.
    pub bw_gbps: f64,
    /// Propagation latency in microseconds, paid once per traversal.
    pub latency_us: f64,
}

impl NetLink {
    /// Capacity in bytes per second.
    pub fn bytes_per_sec(&self) -> f64 {
        (self.bw_gbps * 1e9).max(1.0)
    }

    fn key(&self) -> [u64; 2] {
        let Self {
            bw_gbps,
            latency_us,
        } = self;
        [bw_gbps.to_bits(), latency_us.to_bits()]
    }
}

impl PartialEq for NetLink {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for NetLink {}

impl std::hash::Hash for NetLink {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

/// Shared-bandwidth link topology of a cluster.
///
/// Links live in a flat vector with a fixed layout: link `2*n` is the
/// intra-node fabric of node `n` (NVLink switch plane), link `2*n + 1`
/// is node `n`'s inter-node uplink (NIC). A collective spanning nodes
/// `{a, b, ...}` crosses the intra link of every participant node,
/// plus every participant's uplink when more than one node is
/// involved. The flat indexing keeps the flow model allocation-free.
#[derive(Clone, Debug, PartialEq, Eq, Hash, serde::Serialize)]
pub struct TopologySpec {
    /// The links, two per node (see the type docs for the layout).
    pub links: Vec<NetLink>,
}

impl TopologySpec {
    /// A symmetric topology: every node gets the same intra-node fabric
    /// link and the same uplink.
    pub fn symmetric(num_nodes: u32, intra: NetLink, inter: NetLink) -> Self {
        let mut links = Vec::with_capacity(2 * num_nodes as usize);
        for _ in 0..num_nodes {
            links.push(intra);
            links.push(inter);
        }
        TopologySpec { links }
    }

    /// Number of nodes this topology describes.
    pub fn num_nodes(&self) -> u32 {
        (self.links.len() / 2) as u32
    }

    /// Flat index of node `n`'s intra-node fabric link.
    pub const fn intra_index(node: u32) -> u32 {
        2 * node
    }

    /// Flat index of node `n`'s inter-node uplink.
    pub const fn uplink_index(node: u32) -> u32 {
        2 * node + 1
    }

    /// Appends to `route` the links a collective over `nodes` crosses.
    /// `nodes` must be sorted and deduplicated (the caller derives it
    /// from participant ranks); the route is then deterministic: intra
    /// links in node order, followed by every uplink when the set spans
    /// nodes. Appending lets a caller keep many routes in one buffer.
    pub fn collective_route(&self, nodes: &[u32], route: &mut Vec<u32>) {
        route.extend(nodes.iter().map(|&n| Self::intra_index(n)));
        if nodes.len() > 1 {
            route.extend(nodes.iter().map(|&n| Self::uplink_index(n)));
        }
    }

    /// Summed propagation latency (µs) along a route of link indices.
    pub fn route_latency_us(&self, route: &[u32]) -> f64 {
        route
            .iter()
            .filter_map(|&l| self.links.get(l as usize))
            .map(|l| l.latency_us)
            .sum()
    }
}

/// One class of a heterogeneous pool: `count` consecutive ranks of one
/// GPU generation.
#[derive(Clone, Debug, PartialEq, Eq, Hash, serde::Serialize)]
pub struct RankClass {
    /// The GPU these ranks run on.
    pub gpu: GpuSpec,
    /// How many consecutive global ranks belong to this class.
    pub count: u32,
}

/// A mixed-generation GPU pool: global ranks are assigned to classes
/// in declaration order (class 0 gets ranks `0..count0`, class 1 the
/// next `count1`, ...). Ranks beyond the pool's total fall back to the
/// cluster's base GPU.
#[derive(Clone, Debug, PartialEq, Eq, Hash, serde::Serialize)]
pub struct HeteroPool {
    /// The classes, in rank-assignment order.
    pub classes: Vec<RankClass>,
}

impl HeteroPool {
    /// Builds a pool from classes in rank-assignment order.
    pub fn new(classes: Vec<RankClass>) -> Self {
        HeteroPool { classes }
    }

    /// Index of the class holding `rank`, if the pool covers it.
    pub fn class_of(&self, rank: u32) -> Option<usize> {
        let mut base = 0u32;
        for (i, c) in self.classes.iter().enumerate() {
            if rank < base + c.count {
                return Some(i);
            }
            base += c.count;
        }
        None
    }

    /// The GPU `rank` runs on, if the pool covers it.
    pub fn gpu_of(&self, rank: u32) -> Option<&GpuSpec> {
        self.class_of(rank).map(|i| &self.classes[i].gpu)
    }

    /// Duration multiplier for kernels on `rank` relative to the
    /// cluster's base GPU: the ratio of tensor-core throughputs (most
    /// training kernels are tensor-bound). A slower generation yields a
    /// factor > 1; a rank outside the pool scales by 1.
    pub fn kernel_scale(&self, base: &GpuSpec, rank: u32) -> f64 {
        match self.gpu_of(rank) {
            Some(g) if g.tensor_tflops > 0.0 => base.tensor_tflops / g.tensor_tflops,
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(bw: f64) -> NetLink {
        NetLink {
            bw_gbps: bw,
            latency_us: 2.0,
        }
    }

    #[test]
    fn symmetric_layout_and_indices() {
        let t = TopologySpec::symmetric(3, link(450.0), link(50.0));
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.links.len(), 6);
        assert_eq!(t.links[TopologySpec::intra_index(1) as usize], link(450.0));
        assert_eq!(t.links[TopologySpec::uplink_index(1) as usize], link(50.0));
    }

    fn route(t: &TopologySpec, nodes: &[u32]) -> Vec<u32> {
        let mut route = vec![9];
        t.collective_route(nodes, &mut route);
        assert_eq!(route.remove(0), 9, "the route is appended");
        route
    }

    #[test]
    fn single_node_route_is_intra_only() {
        let t = TopologySpec::symmetric(2, link(450.0), link(50.0));
        assert_eq!(route(&t, &[0]), vec![0]);
        assert_eq!(route(&t, &[1]), vec![2]);
    }

    #[test]
    fn multi_node_route_adds_uplinks() {
        let t = TopologySpec::symmetric(2, link(450.0), link(50.0));
        assert_eq!(route(&t, &[0, 1]), vec![0, 2, 1, 3]);
        assert!((t.route_latency_us(&[0, 2, 1, 3]) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn hetero_rank_assignment() {
        let pool = HeteroPool::new(vec![
            RankClass {
                gpu: GpuSpec::h100(),
                count: 2,
            },
            RankClass {
                gpu: GpuSpec::a100(),
                count: 2,
            },
        ]);
        assert_eq!(pool.classes.iter().map(|c| c.count).sum::<u32>(), 4);
        assert_eq!(pool.class_of(0), Some(0));
        assert_eq!(pool.class_of(1), Some(0));
        assert_eq!(pool.class_of(2), Some(1));
        assert_eq!(pool.class_of(4), None);
        assert_eq!(pool.gpu_of(3).unwrap().name, "A100");
    }

    #[test]
    fn kernel_scale_slows_older_generations() {
        let pool = HeteroPool::new(vec![
            RankClass {
                gpu: GpuSpec::h100(),
                count: 1,
            },
            RankClass {
                gpu: GpuSpec::v100(),
                count: 1,
            },
        ]);
        let base = GpuSpec::h100();
        assert!((pool.kernel_scale(&base, 0) - 1.0).abs() < 1e-12);
        let v100 = pool.kernel_scale(&base, 1);
        assert!(v100 > 5.0, "V100 under an H100 base must be much slower");
        assert!((pool.kernel_scale(&base, 9) - 1.0).abs() < 1e-12);
    }
}
