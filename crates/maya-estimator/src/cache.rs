//! A memoizing decorator over any [`RuntimeEstimator`].
//!
//! Configuration search re-runs the emulate → collate → estimate →
//! simulate loop thousands of times (Fig. 15, Table 6), and the vast
//! majority of estimator queries repeat across trials: the same GEMM
//! shapes, the same memcpy sizes, the same collective payloads. Every
//! estimator in this crate is a pure function of its arguments, so the
//! answers can be memoized once and shared by every prediction that runs
//! on the same engine — including predictions running concurrently on
//! different threads.
//!
//! [`CachingEstimator`] keeps all three query families (kernel / memcpy
//! / collective) in one `Mutex<HashMap>`. One lock suffices because the
//! simulator asks few questions: lowering a job asks once per
//! distinct kernel shape of a job and each communicator times a
//! collective shape once, so a traced seed-1 benchmark run counts, per
//! cold prediction, 56 queries on `emulate_dedup_512`, 710 on
//! `sim_flat_128`, 197 on `sim_contended_32` and 53 on
//! `serve_predict_2c`, and 2 213 over `search_32`'s whole grid search.
//! The inner estimator is always called outside the lock, so a miss
//! never holds up another thread's hit.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use maya_hw::ClusterSpec;
use maya_obs::Counter;
use maya_trace::{CollectiveKind, KernelKind, MemcpyKind, SimTime};

use crate::estimator::RuntimeEstimator;

/// One memoized question, from any of the three families. The
/// collective key is boxed so that kernel entries, most of the memo,
/// are not sized to the largest key.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) enum Query {
    Kernel(KernelKind),
    Memcpy(u64, MemcpyKind),
    Collective(Box<CollectiveKey>),
}

/// One memoized answer plus its last-access stamp (for LRU eviction).
struct Entry {
    value: SimTime,
    stamp: u64,
}

/// Every memoized answer and the logical clock its stamps read. The map
/// hashes with std's `RandomState`, so keys that arrive over the wire
/// cannot be crafted to pile into one bucket.
#[derive(Default)]
struct Memo {
    entries: HashMap<Query, Entry>,
    clock: u64,
}

impl Memo {
    /// Entries examined per eviction. Sampled LRU: the victim is the
    /// oldest stamp among a small prefix of the map's (arbitrary)
    /// iteration order, not a full scan — at steady state a capped memo
    /// is full on *every* miss. Memos at or below the sample size still
    /// get exact LRU.
    const EVICTION_SAMPLE: usize = 8;

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The memoized answer to `query`, whose stamp it refreshes.
    fn get(&mut self, query: &Query) -> Option<SimTime> {
        let stamp = self.tick();
        let entry = self.entries.get_mut(query)?;
        entry.stamp = stamp;
        Some(entry.value)
    }

    /// Stores an answer, keeping at most `capacity` entries (none at 0).
    /// Returns whether an entry was evicted to make room.
    fn insert(&mut self, query: Query, value: SimTime, capacity: usize) -> bool {
        let entry = Entry {
            value,
            stamp: self.tick(),
        };
        if let Some(e) = self.entries.get_mut(&query) {
            *e = entry;
            return false;
        }
        if capacity == 0 {
            return false;
        }
        let full = self.entries.len() >= capacity;
        if full {
            let victim = self
                .entries
                .iter()
                .take(Self::EVICTION_SAMPLE)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(q, _)| q.clone());
            if let Some(victim) = victim {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(query, entry);
        full
    }
}

/// Key for memoized collective queries.
///
/// Includes a cluster fingerprint — architecture, shape, and the bit
/// patterns of both link specs (the inputs `collective_time`
/// actually depends on) — so a cache shared across differing clusters
/// cannot alias; a `CachingEstimator` is still intended to live inside
/// one prediction engine with one fixed cluster.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct CollectiveKey {
    pub(crate) kind: CollectiveKind,
    pub(crate) bytes: u64,
    pub(crate) ranks: Vec<u32>,
    pub(crate) arch_id: u64,
    pub(crate) num_gpus: u32,
    pub(crate) gpus_per_node: u32,
    pub(crate) link_bits: [u64; 6],
}

/// Bit patterns of the intra/inter link parameters.
fn link_bits(cluster: &ClusterSpec) -> [u64; 6] {
    [
        cluster.intra_link.bw_gbps.to_bits(),
        cluster.intra_link.latency_us.to_bits(),
        cluster.intra_link.half_ramp_bytes.to_bits(),
        cluster.inter_link.bw_gbps.to_bits(),
        cluster.inter_link.latency_us.to_bits(),
        cluster.inter_link.half_ramp_bytes.to_bits(),
    ]
}

/// Cumulative hit/miss/eviction counters for one [`CachingEstimator`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the memo.
    pub hits: u64,
    /// Queries forwarded to the inner estimator.
    pub misses: u64,
    /// Entries dropped to respect the LRU capacity (0 when unbounded).
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; zero when no queries were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What happened between two readings of one cache's counters
/// (`later - earlier`; the counters only grow).
impl std::ops::Sub for CacheStats {
    type Output = CacheStats;

    fn sub(self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
        }
    }
}

impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, more: CacheStats) {
        self.hits += more.hits;
        self.misses += more.misses;
        self.evictions += more.evictions;
    }
}

/// Memoizing [`RuntimeEstimator`] decorator (see module docs).
///
/// Transparent by construction: estimators are pure, so a cached answer
/// is byte-identical to an uncached one. Cheap to share — clone the
/// surrounding `Arc`.
pub struct CachingEstimator {
    inner: Arc<dyn RuntimeEstimator>,
    memo: Mutex<Memo>,
    /// Entry bound over all three families; `usize::MAX` is unbounded.
    capacity: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl CachingEstimator {
    /// Wraps an inner estimator with an unbounded memo.
    pub fn new(inner: Arc<dyn RuntimeEstimator>) -> Self {
        CachingEstimator::with_capacity(inner, None)
    }

    /// Wraps an inner estimator, keeping at most `capacity` entries in
    /// all (kernel, memcpy and collective together; 0 keeps nothing)
    /// with sampled least-recently-used eviction — exact LRU up to 8
    /// entries, approximate beyond, never a scan of the whole memo.
    ///
    /// Eviction counts surface through [`CacheStats::evictions`].
    /// `None` keeps the memo unbounded (the default — right for batch
    /// runs; long-running services should set a cap so an adversarial
    /// or merely diverse workload cannot grow the memo without limit).
    pub fn with_capacity(inner: Arc<dyn RuntimeEstimator>, capacity: Option<usize>) -> Self {
        CachingEstimator {
            inner,
            memo: Mutex::default(),
            capacity: capacity.unwrap_or(usize::MAX),
            hits: Counter::detached(),
            misses: Counter::detached(),
            evictions: Counter::detached(),
        }
    }

    /// The wrapped estimator.
    pub fn inner(&self) -> &Arc<dyn RuntimeEstimator> {
        &self.inner
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
        }
    }

    /// Total memoized entries across all query families.
    pub fn len(&self) -> usize {
        self.memo().entries.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The memo. A thread that panicked holding the lock cannot have
    /// left a wrong answer behind — every entry is a pure value — so a
    /// poisoned lock is still good.
    fn memo(&self) -> MutexGuard<'_, Memo> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Every memoized entry (unordered).
    pub(crate) fn entries(&self) -> Vec<(Query, SimTime)> {
        self.memo()
            .entries
            .iter()
            .map(|(q, e)| (q.clone(), e.value))
            .collect()
    }

    /// Stores an answer without touching the hit/miss counters (a miss
    /// and the snapshot-restore path both land here), evicting to stay
    /// within the capacity.
    pub(crate) fn insert(&self, query: Query, value: SimTime) {
        if self.memo().insert(query, value, self.capacity) {
            self.evictions.inc();
        }
    }

    /// Returns the memoized answer or computes and stores it. `compute`
    /// runs outside the lock; a racing miss on the same query computes
    /// the same pure value, so last-write-wins is benign.
    fn memoize(&self, query: Query, compute: impl FnOnce() -> SimTime) -> SimTime {
        let hit = self.memo().get(&query);
        if let Some(t) = hit {
            self.hits.inc();
            return t;
        }
        let t = compute();
        self.misses.inc();
        self.insert(query, t);
        t
    }
}

impl RuntimeEstimator for CachingEstimator {
    fn kernel_time(&self, kernel: &KernelKind) -> SimTime {
        self.memoize(Query::Kernel(*kernel), || self.inner.kernel_time(kernel))
    }

    fn memcpy_time(&self, bytes: u64, kind: MemcpyKind) -> SimTime {
        self.memoize(Query::Memcpy(bytes, kind), || {
            self.inner.memcpy_time(bytes, kind)
        })
    }

    fn collective_time(
        &self,
        kind: CollectiveKind,
        bytes: u64,
        ranks: &[u32],
        cluster: &ClusterSpec,
    ) -> SimTime {
        let key = CollectiveKey {
            kind,
            bytes,
            ranks: ranks.to_vec(),
            arch_id: cluster.gpu.arch.id(),
            num_gpus: cluster.num_gpus(),
            gpus_per_node: cluster.gpus_per_node,
            link_bits: link_bits(cluster),
        };
        self.memoize(Query::Collective(Box::new(key)), || {
            self.inner.collective_time(kind, bytes, ranks, cluster)
        })
    }

    fn name(&self) -> &'static str {
        "caching"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::OracleEstimator;
    use maya_trace::Dtype;

    fn oracle_pair() -> (OracleEstimator, CachingEstimator, ClusterSpec) {
        let cluster = ClusterSpec::h100(1, 8);
        let oracle = OracleEstimator::new(&cluster);
        (oracle, CachingEstimator::new(Arc::new(oracle)), cluster)
    }

    #[test]
    fn cached_equals_uncached_for_all_query_families() {
        let (oracle, cached, cluster) = oracle_pair();
        let kernels = [
            KernelKind::Gemm {
                m: 1024,
                n: 512,
                k: 2048,
                dtype: Dtype::Bf16,
            },
            KernelKind::Gemm {
                m: 64,
                n: 64,
                k: 64,
                dtype: Dtype::Fp32,
            },
            KernelKind::Memset { bytes: 4096 },
        ];
        for k in &kernels {
            // Twice: the second query is served from the memo.
            assert_eq!(cached.kernel_time(k), oracle.kernel_time(k));
            assert_eq!(cached.kernel_time(k), oracle.kernel_time(k));
        }
        for bytes in [1u64 << 10, 1 << 20, 1 << 28] {
            for kind in [MemcpyKind::HostToDevice, MemcpyKind::DeviceToDevice] {
                assert_eq!(
                    cached.memcpy_time(bytes, kind),
                    oracle.memcpy_time(bytes, kind)
                );
                assert_eq!(
                    cached.memcpy_time(bytes, kind),
                    oracle.memcpy_time(bytes, kind)
                );
            }
        }
        let ranks: Vec<u32> = (0..8).collect();
        for kind in [CollectiveKind::AllReduce, CollectiveKind::AllGather] {
            let want = oracle.collective_time(kind, 1 << 24, &ranks, &cluster);
            assert_eq!(
                cached.collective_time(kind, 1 << 24, &ranks, &cluster),
                want
            );
            assert_eq!(
                cached.collective_time(kind, 1 << 24, &ranks, &cluster),
                want
            );
        }
    }

    #[test]
    fn repeat_queries_hit() {
        let (_, cached, _) = oracle_pair();
        let k = KernelKind::Gemm {
            m: 256,
            n: 256,
            k: 256,
            dtype: Dtype::Fp16,
        };
        cached.kernel_time(&k);
        assert_eq!(
            cached.stats(),
            CacheStats {
                hits: 0,
                misses: 1,
                evictions: 0
            }
        );
        for _ in 0..9 {
            cached.kernel_time(&k);
        }
        assert_eq!(
            cached.stats(),
            CacheStats {
                hits: 9,
                misses: 1,
                evictions: 0
            }
        );
        assert_eq!(cached.len(), 1);
        assert!((cached.stats().hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn distinct_rank_sets_do_not_alias() {
        let (oracle, cached, cluster) = oracle_pair();
        let intra: Vec<u32> = (0..4).collect();
        let cross: Vec<u32> = (0..8).collect();
        let a = cached.collective_time(CollectiveKind::AllReduce, 1 << 26, &intra, &cluster);
        let b = cached.collective_time(CollectiveKind::AllReduce, 1 << 26, &cross, &cluster);
        assert_eq!(
            a,
            oracle.collective_time(CollectiveKind::AllReduce, 1 << 26, &intra, &cluster)
        );
        assert_eq!(
            b,
            oracle.collective_time(CollectiveKind::AllReduce, 1 << 26, &cross, &cluster)
        );
        assert_ne!(a, b, "different rank sets must not share an entry");
    }

    #[test]
    fn concurrent_queries_are_consistent() {
        let (oracle, cached, _) = oracle_pair();
        let cached = Arc::new(cached);
        let shapes: Vec<KernelKind> = (0..64)
            .map(|i| KernelKind::Gemm {
                m: 64 + i,
                n: 128,
                k: 256,
                dtype: Dtype::Bf16,
            })
            .collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cached = Arc::clone(&cached);
                let shapes = shapes.clone();
                s.spawn(move || {
                    for k in &shapes {
                        let got = cached.kernel_time(k);
                        assert_eq!(got, oracle.kernel_time(k));
                    }
                });
            }
        });
        assert_eq!(cached.len(), 64);
        let st = cached.stats();
        assert_eq!(st.hits + st.misses, 4 * 64);
    }

    fn gemm(i: u64) -> KernelKind {
        KernelKind::Gemm {
            m: 64 + i,
            n: 128,
            k: 256,
            dtype: Dtype::Bf16,
        }
    }

    #[test]
    fn capacity_bounds_the_memo_and_counts_evictions() {
        let cluster = ClusterSpec::h100(1, 8);
        let capped =
            CachingEstimator::with_capacity(Arc::new(OracleEstimator::new(&cluster)), Some(32));
        for i in 0..200 {
            capped.kernel_time(&gemm(i));
        }
        let st = capped.stats();
        assert!(capped.len() <= 32, "len {} exceeds cap", capped.len());
        assert_eq!(st.misses, 200);
        assert_eq!(
            st.evictions,
            200 - capped.len() as u64,
            "every insert beyond the cap evicts exactly one entry"
        );
    }

    #[test]
    fn a_zero_capacity_memo_keeps_nothing() {
        let cluster = ClusterSpec::h100(1, 8);
        let oracle = OracleEstimator::new(&cluster);
        let none = CachingEstimator::with_capacity(Arc::new(oracle), Some(0));
        let ranks: Vec<u32> = (0..8).collect();
        for _ in 0..3 {
            assert_eq!(none.kernel_time(&gemm(1)), oracle.kernel_time(&gemm(1)));
            assert_eq!(
                none.memcpy_time(1 << 20, MemcpyKind::HostToDevice),
                oracle.memcpy_time(1 << 20, MemcpyKind::HostToDevice)
            );
            assert_eq!(
                none.collective_time(CollectiveKind::AllReduce, 1 << 24, &ranks, &cluster),
                oracle.collective_time(CollectiveKind::AllReduce, 1 << 24, &ranks, &cluster)
            );
        }
        assert!(none.is_empty());
        assert_eq!(
            none.stats(),
            CacheStats {
                hits: 0,
                misses: 9,
                evictions: 0
            }
        );
    }

    #[test]
    fn a_capped_memo_never_exceeds_its_bound_under_concurrent_queries() {
        let cluster = ClusterSpec::h100(1, 8);
        let oracle = OracleEstimator::new(&cluster);
        let capped = CachingEstimator::with_capacity(Arc::new(oracle), Some(32));
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for thread in 0..4u64 {
                let (capped, start) = (&capped, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..200 {
                        let shape = gemm(thread * 200 + i);
                        assert_eq!(capped.kernel_time(&shape), oracle.kernel_time(&shape));
                        assert!(capped.len() <= 32, "len {} exceeds cap", capped.len());
                    }
                });
            }
        });
        assert_eq!(capped.len(), 32);
        let st = capped.stats();
        assert_eq!(st.misses, 800);
        assert_eq!(st.evictions, 800 - 32);
    }

    #[test]
    fn eviction_prefers_the_least_recently_used_entry() {
        let cluster = ClusterSpec::h100(1, 8);
        // Room for more than one entry, so the freshest-stamped key is
        // never the eviction victim.
        let capped =
            CachingEstimator::with_capacity(Arc::new(OracleEstimator::new(&cluster)), Some(32));
        let hot = gemm(0);
        capped.kernel_time(&hot);
        // Flood with cold shapes, re-touching the hot one between
        // batches so its stamp stays newest.
        for i in 1..100 {
            capped.kernel_time(&gemm(i));
            capped.kernel_time(&hot);
        }
        let st = capped.stats();
        assert!(st.evictions > 0, "the flood must evict");
        // The hot key was never evicted: its final query is a hit, and
        // it missed exactly once (the initial insert).
        assert_eq!(
            st.misses, 100,
            "only the 100 distinct shapes ever missed — the hot key stayed resident"
        );
    }

    #[test]
    fn no_ttl_means_no_aging() {
        // Answers are pure, so an entry is never stale: time alone
        // does not drop one.
        let (_, cached, _) = oracle_pair();
        cached.kernel_time(&gemm(1));
        std::thread::sleep(std::time::Duration::from_millis(30));
        cached.kernel_time(&gemm(1));
        assert_eq!(cached.stats().hits, 1);
        assert_eq!(cached.stats().evictions, 0);
    }

    #[test]
    fn uncapped_memo_never_evicts() {
        let (_, cached, _) = oracle_pair();
        for i in 0..500 {
            cached.kernel_time(&gemm(i));
        }
        assert_eq!(cached.len(), 500);
        assert_eq!(cached.stats().evictions, 0);
    }

    #[test]
    fn capped_answers_match_uncapped() {
        // Eviction changes *retention*, never answers: re-deriving an
        // evicted entry recomputes the same pure value.
        let cluster = ClusterSpec::h100(1, 8);
        let oracle = OracleEstimator::new(&cluster);
        let capped =
            CachingEstimator::with_capacity(Arc::new(OracleEstimator::new(&cluster)), Some(16));
        for round in 0..3 {
            let _ = round;
            for i in 0..40 {
                assert_eq!(capped.kernel_time(&gemm(i)), oracle.kernel_time(&gemm(i)));
            }
        }
    }
}
