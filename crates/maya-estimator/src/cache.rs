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
//! [`CachingEstimator`] wraps an inner estimator with a sharded
//! `RwLock` memo per query family (kernel / memcpy / collective).
//! Sharding keeps reader contention negligible when a worker pool fans
//! many simulations over the cache at once; the common steady-state
//! access is a read lock on one shard.

use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use maya_hw::ClusterSpec;
use maya_obs::Counter;
use maya_trace::{CollectiveKind, KernelKind, MemcpyKind, SimTime};

use crate::estimator::RuntimeEstimator;

/// Number of lock shards per memo map (power of two).
const SHARDS: usize = 16;

/// One memoized answer plus its last-access stamp (for LRU eviction).
///
/// The stamp is atomic so the hot hit path can refresh recency under a
/// *read* lock; only inserts and evictions take the write lock.
struct Entry {
    value: SimTime,
    stamp: AtomicU64,
}

/// A key with its hash, taken once per lookup ([`Sharded::seal`]): the
/// shard choice and the shard's map both read it. The hash is SipHash
/// under a fixed key, so which shard a key lives in — and with a cap,
/// what it competes with for room — repeats from run to run.
#[derive(Clone)]
pub(crate) struct Hashed<K> {
    hash: u64,
    key: K,
}

impl<K: PartialEq> PartialEq for Hashed<K> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.key == other.key
    }
}

impl<K: Eq> Eq for Hashed<K> {}

impl<K> Hash for Hashed<K> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Builds a shard map's hasher: a [`Hashed`] key's hash folded with a
/// seed drawn per memo. A fixed-key hash can be computed by whoever
/// sends the trace; the seed keeps the *bucket* it lands in theirs to
/// guess, so served keys cannot be crafted to pile into one.
#[derive(Clone, Copy)]
struct Seeded(u64);

impl BuildHasher for Seeded {
    type Hasher = Folded;

    fn build_hasher(&self) -> Folded {
        Folded {
            seed: self.0,
            hash: 0,
        }
    }
}

struct Folded {
    seed: u64,
    hash: u64,
}

impl Hasher for Folded {
    fn finish(&self) -> u64 {
        // The map buckets by the low bits, which a multiply alone
        // leaves a function of the input's low bits — the ones a
        // shard's keys share.
        let x = (self.hash ^ self.seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^ (x >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `Hashed` keys reach these maps, and they call `write_u64`.
        for &b in bytes {
            self.hash = self.hash.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, hash: u64) {
        self.hash = hash;
    }
}

type Shard<K> = HashMap<Hashed<K>, Entry, Seeded>;

/// A hash-sharded `RwLock<HashMap>` memo with an optional LRU entry cap.
pub(crate) struct Sharded<K> {
    shards: Vec<RwLock<Shard<K>>>,
    /// Per-shard entry budget; `None` is unbounded. The user-facing cap
    /// is divided over the shards, so the effective total rounds up to
    /// a multiple of [`SHARDS`].
    cap_per_shard: Option<usize>,
    /// Logical clock stamped onto entries at insert and, when the memo
    /// is capped, on every hit — nothing reads a stamp otherwise.
    clock: AtomicU64,
    /// Entries dropped to respect the cap. An obs counter
    /// handle shared with the owning estimator (and, through it, any
    /// metrics registry that mirrors it), not a private atomic.
    evictions: Counter,
}

impl<K: Hash + Eq + Clone> Sharded<K> {
    fn new(capacity: Option<usize>, evictions: Counter) -> Self {
        let seed = Seeded(RandomState::new().hash_one(0u8));
        Sharded {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(Shard::with_hasher(seed)))
                .collect(),
            cap_per_shard: capacity.map(|c| c.div_ceil(SHARDS).max(1)),
            clock: AtomicU64::new(0),
            evictions,
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Entries examined per eviction. Sampled LRU: the victim is the
    /// oldest stamp among a small prefix of the map's (arbitrary)
    /// iteration order, not a full scan — at steady state a capped
    /// cache is full on *every* miss, and an O(shard) scan under the
    /// write lock would stall all concurrent readers of the shard.
    /// Shards at or below the sample size (cap ≤ 16·8) still get exact
    /// LRU.
    const EVICTION_SAMPLE: usize = 8;

    /// Drops an approximately-least-recently-used entry of `map` while
    /// it is at the cap. O(EVICTION_SAMPLE) per eviction.
    fn evict_if_full(&self, map: &mut Shard<K>) {
        let Some(cap) = self.cap_per_shard else {
            return;
        };
        while map.len() >= cap {
            let Some(victim) = map
                .iter()
                .take(Self::EVICTION_SAMPLE)
                .min_by_key(|(_, e)| e.stamp.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
            else {
                return;
            };
            map.remove(&victim);
            self.evictions.inc();
        }
    }

    /// Inserts an entry directly, bypassing the hit/miss counters — the
    /// snapshot-restore path, which must not masquerade as traffic.
    /// Respects the LRU cap like any other insert.
    pub(crate) fn insert(&self, key: K, value: SimTime) {
        self.insert_sealed(self.seal(key), value);
    }

    fn insert_sealed(&self, key: Hashed<K>, value: SimTime) {
        let stamp = self.tick();
        let mut map = self.shard(&key).write().expect("cache shard poisoned");
        if let Some(e) = map.get_mut(&key) {
            e.value = value;
            e.stamp.store(stamp, Ordering::Relaxed);
            return;
        }
        self.evict_if_full(&mut map);
        map.insert(
            key,
            Entry {
                value,
                stamp: AtomicU64::new(stamp),
            },
        );
    }

    /// Every memoized entry (unordered).
    pub(crate) fn entries(&self) -> Vec<(K, SimTime)> {
        self.shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .expect("cache shard poisoned")
                    .iter()
                    .map(|(k, e)| (k.key.clone(), e.value))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Hashes `key`, once.
    fn seal(&self, key: K) -> Hashed<K> {
        let mut sealed = Hashed { hash: 0, key };
        self.reseal(&mut sealed);
        sealed
    }

    /// Re-hashes a sealed key whose `key` was edited in place.
    fn reseal(&self, sealed: &mut Hashed<K>) {
        sealed.hash = BuildHasherDefault::<DefaultHasher>::default().hash_one(&sealed.key);
    }

    fn shard(&self, key: &Hashed<K>) -> &RwLock<Shard<K>> {
        &self.shards[(key.hash as usize) & (SHARDS - 1)]
    }

    /// Returns the memoized value or computes, stores and returns it.
    fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> SimTime) -> (SimTime, bool) {
        let key = self.seal(key);
        if let Some(t) = self.get(&key) {
            return (t, true);
        }
        let t = compute();
        // A racing writer may have inserted the same key; both computed
        // the same pure value, so last-write-wins is benign.
        self.insert_sealed(key, t);
        (t, false)
    }

    /// Read-only probe by reference (no key ownership needed); a hit
    /// on a capped memo refreshes the entry's LRU stamp.
    fn get(&self, key: &Hashed<K>) -> Option<SimTime> {
        let map = self.shard(key).read().expect("cache shard poisoned");
        let e = map.get(key)?;
        if self.cap_per_shard.is_some() {
            e.stamp.store(self.tick(), Ordering::Relaxed);
        }
        Some(e.value)
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("cache shard poisoned").len())
            .sum()
    }

    fn clear(&self) {
        for s in &self.shards {
            s.write().expect("cache shard poisoned").clear();
        }
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
    pub(crate) kernels: Sharded<KernelKind>,
    pub(crate) memcpys: Sharded<(u64, MemcpyKind)>,
    pub(crate) collectives: Sharded<CollectiveKey>,
    // Obs counter handles, not private atomics: `obs_counters` hands
    // the same cells to a metrics registry, so a scrape reads live
    // values instead of a second bespoke stats surface.
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl CachingEstimator {
    /// Wraps an inner estimator with an unbounded memo.
    pub fn new(inner: Arc<dyn RuntimeEstimator>) -> Self {
        CachingEstimator::with_capacity(inner, None)
    }

    /// Wraps an inner estimator, bounding each memo family (kernel /
    /// memcpy / collective) to roughly `capacity` entries with sampled
    /// least-recently-used eviction — exact LRU within small shards,
    /// approximate beyond, never an O(shard) scan on the hot path.
    ///
    /// The cap is approximate: it is divided over the 16 lock shards,
    /// so the effective per-family bound rounds up to a multiple of 16.
    /// Eviction counts surface through [`CacheStats::evictions`].
    /// `None` keeps the memo unbounded (the default — right for batch
    /// runs; long-running services should set a cap so an adversarial
    /// or merely diverse workload cannot grow the memo without limit).
    pub fn with_capacity(inner: Arc<dyn RuntimeEstimator>, capacity: Option<usize>) -> Self {
        // All three families report into one eviction counter, which
        // is what `CacheStats::evictions` always surfaced.
        let evictions = Counter::detached();
        CachingEstimator {
            inner,
            kernels: Sharded::new(capacity, evictions.clone()),
            memcpys: Sharded::new(capacity, evictions.clone()),
            collectives: Sharded::new(capacity, evictions.clone()),
            hits: Counter::detached(),
            misses: Counter::detached(),
            evictions,
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

    /// Live handles to the `(hits, misses, evictions)` cells —
    /// the very counters [`CachingEstimator::stats`] reads — so a
    /// service can surface them in its `maya_obs` snapshot without a
    /// parallel plumbing path.
    pub fn obs_counters(&self) -> (Counter, Counter, Counter) {
        (
            self.hits.clone(),
            self.misses.clone(),
            self.evictions.clone(),
        )
    }

    /// Total memoized entries across all query families.
    pub fn len(&self) -> usize {
        self.kernels.len() + self.memcpys.len() + self.collectives.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every memoized entry (counters are kept).
    pub fn clear(&self) {
        self.kernels.clear();
        self.memcpys.clear();
        self.collectives.clear();
    }

    fn count(&self, hit: bool) {
        if hit {
            self.hits.inc();
        } else {
            self.misses.inc();
        }
    }
}

impl RuntimeEstimator for CachingEstimator {
    fn kernel_time(&self, kernel: &KernelKind) -> SimTime {
        let (t, hit) = self
            .kernels
            .get_or_insert_with(*kernel, || self.inner.kernel_time(kernel));
        self.count(hit);
        t
    }

    fn memcpy_time(&self, bytes: u64, kind: MemcpyKind) -> SimTime {
        let (t, hit) = self
            .memcpys
            .get_or_insert_with((bytes, kind), || self.inner.memcpy_time(bytes, kind));
        self.count(hit);
        t
    }

    fn collective_time(
        &self,
        kind: CollectiveKind,
        bytes: u64,
        ranks: &[u32],
        cluster: &ClusterSpec,
    ) -> SimTime {
        // A warm simulation resolves hundreds of collectives per trial;
        // probe with a thread-local scratch key (its ranks buffer is
        // reused) so the hit path never allocates. Only a miss pays the
        // `ranks.to_vec()` for the owned key it inserts.
        thread_local! {
            static SCRATCH: std::cell::RefCell<Hashed<CollectiveKey>> =
                const { std::cell::RefCell::new(Hashed {
                    hash: 0,
                    key: CollectiveKey {
                        kind: CollectiveKind::AllReduce,
                        bytes: 0,
                        ranks: Vec::new(),
                        arch_id: 0,
                        num_gpus: 0,
                        gpus_per_node: 0,
                        link_bits: [0; 6],
                    },
                }) };
        }
        // One construction site: the scratch key is the only place the
        // field set is assembled; a miss clones it for the insert.
        let probe = SCRATCH.with(|scratch| {
            let mut sealed = scratch.borrow_mut();
            let key = &mut sealed.key;
            key.kind = kind;
            key.bytes = bytes;
            key.ranks.clear();
            key.ranks.extend_from_slice(ranks);
            key.arch_id = cluster.gpu.arch.id();
            key.num_gpus = cluster.num_gpus();
            key.gpus_per_node = cluster.gpus_per_node;
            key.link_bits = link_bits(cluster);
            self.collectives.reseal(&mut sealed);
            match self.collectives.get(&sealed) {
                Some(t) => Ok(t),
                None => Err(sealed.clone()),
            }
        });
        match probe {
            Ok(t) => {
                self.count(true);
                t
            }
            Err(key) => {
                // Scratch borrow is released before calling the inner
                // estimator (which may be arbitrarily nested). A racing
                // writer inserts the same pure value; last-write-wins
                // is benign.
                let t = self.inner.collective_time(kind, bytes, ranks, cluster);
                self.collectives.insert_sealed(key, t);
                self.count(false);
                t
            }
        }
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

    #[test]
    fn clear_empties_the_memo() {
        let (_, cached, _) = oracle_pair();
        cached.kernel_time(&KernelKind::Memset { bytes: 64 });
        assert!(!cached.is_empty());
        cached.clear();
        assert!(cached.is_empty());
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
        // The cap is per-shard approximate: 32 entries over 16 shards
        // is 2 per shard, so the family can never exceed 32.
        assert!(capped.len() <= 32, "len {} exceeds cap", capped.len());
        assert_eq!(st.misses, 200);
        assert_eq!(
            st.evictions,
            200 - capped.len() as u64,
            "every insert beyond the cap evicts exactly one entry"
        );
    }

    #[test]
    fn eviction_prefers_the_least_recently_used_entry() {
        let cluster = ClusterSpec::h100(1, 8);
        // Two entries per shard: enough room that the freshest-stamped
        // key in a shard is never the eviction victim.
        let capped =
            CachingEstimator::with_capacity(Arc::new(OracleEstimator::new(&cluster)), Some(32));
        let hot = gemm(0);
        capped.kernel_time(&hot);
        // Flood with cold shapes, re-touching the hot one between
        // batches so its stamp stays newest in its shard.
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
