//! The lock-light metrics registry: named counters, gauges, and
//! log-bucketed histograms behind cheap cloneable handles.
//!
//! Registration takes a short-lived lock once per name; every update
//! after that is a plain atomic on the handle — no lock, no hash
//! lookup, no allocation. [`Registry::snapshot`] walks the registered
//! instruments in sorted-name order and produces a deterministic
//! [`ObsSnapshot`] whose encoding is byte-stable for a quiesced
//! registry (the property the wire `Scrape` round-trip test pins).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter handle. Clones share the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (same cell semantics;
    /// useful for code that keeps its own stats surface but wants the
    /// shared handle type).
    pub fn detached() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the value. For mirroring an external monotonic
    /// counter into the registry; regular code should [`Counter::add`].
    #[inline]
    pub fn store(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// A point-in-time gauge handle (queue depth, high-water marks).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds (possibly negative) `d`.
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if it is below it (high-water marks).
    #[inline]
    pub fn raise(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Values below `1 << SUB_BITS` get one exact bucket each; above that,
/// each power-of-two range splits into `1 << SUB_BITS` sub-buckets, so
/// any recorded value lands in a bucket whose lower bound is within
/// `1/2^SUB_BITS` (6.25%) of it.
const SUB_BITS: u32 = 4;
const SUBS: usize = 1 << SUB_BITS;

/// Total bucket count: 16 exact low buckets plus 16 sub-buckets for
/// each of the 60 remaining power-of-two ranges of a `u64`.
pub const HISTOGRAM_BUCKETS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// Bucket index for a recorded value.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // >= SUB_BITS
    let sub = ((v >> (msb - SUB_BITS as usize)) & (SUBS as u64 - 1)) as usize;
    SUBS + (msb - SUB_BITS as usize) * SUBS + sub
}

/// Inclusive lower bound of bucket `i` — the histogram's canonical
/// representative for every value that lands in it.
#[inline]
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i < SUBS {
        return i as u64;
    }
    let msb = SUB_BITS as usize + (i - SUBS) / SUBS;
    let sub = ((i - SUBS) % SUBS) as u64;
    (1u64 << msb) | (sub << (msb - SUB_BITS as usize))
}

struct HistogramCore {
    buckets: Box<[AtomicU64; HISTOGRAM_BUCKETS]>,
    sum: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        // `AtomicU64` is not Copy; build the boxed array from a Vec.
        let v: Vec<AtomicU64> = (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; HISTOGRAM_BUCKETS]> =
            v.into_boxed_slice().try_into().expect("bucket count");
        HistogramCore {
            buckets,
            sum: AtomicU64::new(0),
        }
    }
}

/// A log-bucketed histogram handle: unbounded sample count, ~6.25%
/// relative value error, wait-free `record`. Subsumes the nearest-rank
/// reservoir it replaced — the tail is never truncated, only rounded
/// to its bucket's lower bound.
#[derive(Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// A histogram not attached to any registry.
    pub fn detached() -> Histogram {
        Histogram::default()
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a `Duration` in whole microseconds (saturating).
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Total samples recorded (sum over buckets).
    pub fn count(&self) -> u64 {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`), reported as the
    /// holding bucket's lower bound. Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                count += n;
                buckets.push((i as u32, n));
            }
        }
        HistogramSnapshot {
            count,
            sum: self.0.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        write!(f, "Histogram {{ count: {}, sum: {} }}", s.count, s.sum)
    }
}

/// A point-in-time histogram: sample count, value sum, and the
/// non-empty `(bucket index, count)` pairs in index order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples (equals the sum of the bucket counts).
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Non-empty buckets, ascending by index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Nearest-rank quantile over the buckets, as the holding bucket's
    /// lower bound. Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_lower_bound(i as usize);
            }
        }
        bucket_lower_bound(self.buckets.last().map(|&(i, _)| i as usize).unwrap_or(0))
    }
}

#[derive(Default)]
struct RegistryInner {
    /// Set by [`Registry::detached`]: nothing is ever registered.
    detached: bool,
    counters: Mutex<Vec<(String, Counter)>>,
    gauges: Mutex<Vec<(String, Gauge)>>,
    histograms: Mutex<Vec<(String, Histogram)>>,
}

/// The instrument registry (see module docs). Clones share the
/// instrument set.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl RegistryInner {
    fn intern<T: Clone + Default>(&self, list: &Mutex<Vec<(String, T)>>, name: &str) -> T {
        if self.detached {
            return T::default();
        }
        let mut list = list.lock().unwrap_or_else(|p| p.into_inner());
        if let Some((_, handle)) = list.iter().find(|(n, _)| n == name) {
            return handle.clone();
        }
        let handle = T::default();
        list.push((name.to_string(), handle.clone()));
        handle
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// A registry that registers nothing: every handle it gives out is
    /// a fresh detached cell (it still counts for whoever holds it) and
    /// its snapshot stays empty. What a service with metrics off hands
    /// its layers, so none of them has to ask whether metrics are on.
    pub fn detached() -> Registry {
        Registry {
            inner: Arc::new(RegistryInner {
                detached: true,
                ..Default::default()
            }),
        }
    }

    /// The counter registered under `name`, creating it on first use.
    /// Repeated calls return handles to the same cell.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner.intern(&self.inner.counters, name)
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner.intern(&self.inner.gauges, name)
    }

    /// The histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner.intern(&self.inner.histograms, name)
    }

    /// A deterministic point-in-time snapshot: every instrument, sorted
    /// by name within its kind. The span slots are empty; callers that
    /// also keep a [`crate::JobTreeRing`] fill them in (see
    /// [`ObsSnapshot::recent_jobs`]).
    pub fn snapshot(&self) -> ObsSnapshot {
        fn collect<T, V>(
            list: &Mutex<Vec<(String, T)>>,
            read: impl Fn(&T) -> V,
        ) -> Vec<(String, V)> {
            let list = list.lock().unwrap_or_else(|p| p.into_inner());
            let mut out: Vec<(String, V)> =
                list.iter().map(|(n, h)| (n.clone(), read(h))).collect();
            out.sort_by(|a, b| a.0.cmp(&b.0));
            out
        }
        ObsSnapshot {
            counters: collect(&self.inner.counters, Counter::get),
            gauges: collect(&self.inner.gauges, Gauge::get),
            histograms: collect(&self.inner.histograms, Histogram::snapshot),
            recent_jobs: Vec::new(),
        }
    }
}

/// The full observability snapshot a `Scrape` returns: every metric
/// plus the recent job span trees of a [`crate::JobTreeRing`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsSnapshot {
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` histograms, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Span trees of recently completed jobs, oldest first.
    pub recent_jobs: Vec<crate::span::SpanNode>,
}

impl ObsSnapshot {
    /// Counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_lower_bound_agree() {
        for v in (0..2048u64).chain([
            4095,
            4096,
            4097,
            1 << 20,
            (1 << 20) + 12345,
            u64::MAX / 3,
            u64::MAX,
        ]) {
            let i = bucket_index(v);
            assert!(i < HISTOGRAM_BUCKETS, "index {i} for {v}");
            let lo = bucket_lower_bound(i);
            assert!(lo <= v, "lower bound {lo} above value {v}");
            // The next bucket starts above the value.
            if i + 1 < HISTOGRAM_BUCKETS {
                assert!(bucket_lower_bound(i + 1) > v, "value {v} beyond bucket {i}");
            }
            // Relative error of the representative is bounded by the
            // sub-bucket width.
            if v >= SUBS as u64 {
                assert!((v - lo) as f64 / v as f64 <= 1.0 / SUBS as f64 + 1e-9);
            } else {
                assert_eq!(lo, v, "low buckets are exact");
            }
        }
    }

    #[test]
    fn histogram_quantiles_track_nearest_rank() {
        let h = Histogram::detached();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.count, s.buckets.iter().map(|&(_, n)| n).sum::<u64>());
        let p50 = s.quantile(0.50);
        let p99 = s.quantile(0.99);
        assert!(p50 <= p99);
        // Within one sub-bucket of the exact nearest-rank answers.
        assert!((440..=500).contains(&p50), "p50 {p50}");
        assert!((920..=990).contains(&p99), "p99 {p99}");
        // Quantiles never exceed the recorded maximum.
        assert!(s.quantile(1.0) <= 1000);
        assert_eq!(Histogram::detached().quantile(0.99), 0);
    }

    #[test]
    fn registry_handles_are_shared_by_name() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x").get(), 3);
        reg.gauge("g").set(-7);
        assert_eq!(reg.gauge("g").get(), -7);
        reg.gauge("g").raise(3);
        assert_eq!(reg.gauge("g").get(), 3);
        reg.gauge("g").raise(1);
        assert_eq!(reg.gauge("g").get(), 3);
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let reg = Registry::new();
        reg.counter("z.last").add(1);
        reg.counter("a.first").add(2);
        reg.histogram("h.wait").record(10);
        let s1 = reg.snapshot();
        let s2 = reg.snapshot();
        assert_eq!(s1, s2);
        assert_eq!(s1.counters[0].0, "a.first");
        assert_eq!(s1.counters[1].0, "z.last");
        assert_eq!(s1.counter("a.first"), Some(2));
        assert_eq!(s1.histogram("h.wait").unwrap().count, 1);
    }

    #[test]
    fn concurrent_recording_keeps_count_sum_agreement() {
        let h = Histogram::detached();
        let c = Counter::detached();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                let c = c.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + i % 997);
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 40_000);
        assert_eq!(c.get(), 40_000);
        assert_eq!(s.count, s.buckets.iter().map(|&(_, n)| n).sum::<u64>());
        // The sum must be consistent with the bucketed distribution:
        // every sample's bucket lower bound is <= the sample.
        let lower: u64 = s
            .buckets
            .iter()
            .map(|&(i, n)| bucket_lower_bound(i as usize) * n)
            .sum();
        assert!(lower <= s.sum);
    }
}
