//! Persisting the estimator memo across processes (snapshot / restore).
//!
//! A [`CachingEstimator`] accumulates the runtime answers a prediction
//! engine derives over its lifetime — exactly the state a long-running
//! service wants to carry over a restart. [`CachingEstimator::snapshot`]
//! serializes the full memo (all three query families) to a compact
//! text format via the vendored serde; [`CachingEstimator::restore`]
//! loads one back, after which a repeat of the snapshotted workload is
//! answered entirely from the memo — zero new misses.
//!
//! Restores insert entries directly, so the hit/miss counters keep
//! measuring only real query traffic. The header records a format
//! version, the *inner* estimator's name and a caller-supplied
//! **scope** string; a restore is rejected unless all three match.
//! Memoized answers are only valid for the exact function that
//! produced them, and kernel/memcpy keys carry *no* cluster identity —
//! the same `KernelKind` has different true runtimes on an H100 and an
//! A40 — so the caller must fold everything the estimator's answers
//! depend on (cluster spec, forest training seed, ...) into the scope.
//! `maya::MayaBuilder` and `maya-serve` derive it from the cluster and
//! estimator choice; see `EstimatorChoice::memo_scope`.
//!
//! The entry order within each family is sorted on the serialized form,
//! so equal memo contents produce byte-identical snapshots.

use std::fmt;
use std::io::{Read, Write};
use std::path::Path;

use maya_trace::SimTime;
use serde::{compact, Deserialize, Serialize};

use crate::cache::{CachingEstimator, CollectiveKey, Query};

/// On-disk format version; bump when the token layout changes.
const VERSION: u64 = 1;

/// Leading magic tag of a snapshot.
const MAGIC: &str = "maya-memo";

/// Failure while writing or reading a memo snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// The token stream is malformed or truncated.
    Format(compact::Error),
    /// File I/O failed.
    Io(std::io::Error),
    /// The snapshot does not start with the `maya-memo` magic.
    NotASnapshot,
    /// The snapshot was written by an incompatible format version.
    Version(u64),
    /// The snapshot was produced by a different inner estimator.
    EstimatorMismatch {
        /// Name recorded in the snapshot.
        snapshot: String,
        /// Name of the estimator being restored into.
        estimator: String,
    },
    /// The snapshot was produced under a different scope (cluster /
    /// estimator configuration fingerprint).
    ScopeMismatch {
        /// Scope recorded in the snapshot.
        snapshot: String,
        /// Scope of the engine being restored into.
        engine: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Format(e) => write!(f, "malformed snapshot: {e}"),
            SnapshotError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            SnapshotError::NotASnapshot => write!(f, "not a maya-memo snapshot"),
            SnapshotError::Version(v) => {
                write!(
                    f,
                    "snapshot format v{v} unsupported (this build reads v{VERSION})"
                )
            }
            SnapshotError::EstimatorMismatch {
                snapshot,
                estimator,
            } => write!(
                f,
                "snapshot was built by estimator {snapshot:?} but this engine runs {estimator:?}"
            ),
            SnapshotError::ScopeMismatch { snapshot, engine } => write!(
                f,
                "snapshot scope {snapshot:?} does not match this engine's scope {engine:?} \
                 (different cluster or estimator configuration)"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<compact::Error> for SnapshotError {
    fn from(e: compact::Error) -> Self {
        SnapshotError::Format(e)
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

serde::codec! {
    struct CollectiveKey { kind, bytes, ranks, arch_id, num_gpus, gpus_per_node, link_bits }
    struct crate::cache::CacheStats { hits, misses, evictions }
}

/// Serializes one memo family: a count line, then one sorted entry per
/// line (sorting makes snapshots of equal memos byte-identical).
fn family<K: Serialize>(out: &mut String, tag: &'static str, entries: Vec<(K, SimTime)>) {
    let mut lines: Vec<String> = entries
        .into_iter()
        .map(|(k, v)| {
            let mut w = compact::Writer::new();
            k.serialize(&mut w);
            v.serialize(&mut w);
            w.finish()
        })
        .collect();
    lines.sort_unstable();
    out.push_str(&format!("{tag} {}\n", lines.len()));
    for l in &lines {
        out.push_str(l);
        out.push('\n');
    }
}

/// Reads a family's count line (`<tag> <n>`).
fn family_len(line: &str, tag: &'static str) -> Result<u64, compact::Error> {
    let mut r = compact::Reader::new(line);
    r.expect_tag(tag)?;
    let n = u64::deserialize(&mut r)?;
    r.end()?;
    Ok(n)
}

impl CachingEstimator {
    /// Serializes the entire memo — kernel, memcpy and collective
    /// families — to the compact snapshot format.
    ///
    /// `scope` is an opaque compatibility fingerprint recorded in the
    /// header and enforced by [`CachingEstimator::restore`]: it must
    /// capture every input the memoized answers depend on beyond the
    /// query keys themselves — above all the cluster spec, which
    /// kernel/memcpy keys do not encode.
    pub fn snapshot(&self, scope: &str) -> String {
        let mut out = String::new();
        let mut header = compact::Writer::new();
        header.tag(MAGIC);
        VERSION.serialize(&mut header);
        self.inner().name().serialize(&mut header);
        scope.serialize(&mut header);
        out.push_str(&header.finish());
        out.push('\n');
        let (mut kernels, mut memcpys, mut collectives) = (Vec::new(), Vec::new(), Vec::new());
        for (query, value) in self.entries() {
            match query {
                Query::Kernel(k) => kernels.push((k, value)),
                Query::Memcpy(bytes, kind) => memcpys.push(((bytes, kind), value)),
                Query::Collective(c) => collectives.push((*c, value)),
            }
        }
        family(&mut out, "kernels", kernels);
        family(&mut out, "memcpys", memcpys);
        family(&mut out, "collectives", collectives);
        out
    }

    /// Loads a snapshot produced by [`CachingEstimator::snapshot`] into
    /// this memo, returning the number of entries inserted.
    ///
    /// Entries are inserted without touching the hit/miss counters;
    /// existing entries for the same keys are overwritten (the values
    /// are pure-function results, so this is value-preserving whenever
    /// the estimator name *and* scope match — both are enforced).
    pub fn restore(&self, text: &str, scope: &str) -> Result<usize, SnapshotError> {
        // One compact value per line, each line ended by a newline.
        let mut lines = text.split('\n');
        let mut r = compact::Reader::new(lines.next().unwrap_or_default());
        if r.raw_token().map_err(|_| SnapshotError::NotASnapshot)? != MAGIC {
            return Err(SnapshotError::NotASnapshot);
        }
        let version = u64::deserialize(&mut r)?;
        if version != VERSION {
            return Err(SnapshotError::Version(version));
        }
        let name = String::deserialize(&mut r)?;
        if name != self.inner().name() {
            return Err(SnapshotError::EstimatorMismatch {
                snapshot: name,
                estimator: self.inner().name().to_string(),
            });
        }
        let snapshot_scope = String::deserialize(&mut r)?;
        if snapshot_scope != scope {
            return Err(SnapshotError::ScopeMismatch {
                snapshot: snapshot_scope,
                engine: scope.to_string(),
            });
        }
        r.end()?;
        let mut line = || lines.next().ok_or(compact::Error::Eof);
        let mut loaded = 0usize;
        for _ in 0..family_len(line()?, "kernels")? {
            let (k, v) = serde::from_str(line()?)?;
            self.insert(Query::Kernel(k), v);
            loaded += 1;
        }
        for _ in 0..family_len(line()?, "memcpys")? {
            let ((bytes, kind), v) = serde::from_str(line()?)?;
            self.insert(Query::Memcpy(bytes, kind), v);
            loaded += 1;
        }
        for _ in 0..family_len(line()?, "collectives")? {
            let (k, v) = serde::from_str(line()?)?;
            self.insert(Query::Collective(Box::new(k)), v);
            loaded += 1;
        }
        // The last newline leaves one empty piece, and nothing follows.
        match (lines.next(), lines.next()) {
            (Some(""), None) => Ok(loaded),
            (None, _) => Err(compact::Error::Eof.into()),
            (Some(extra), _) => Err(compact::Error::Trailing {
                token: extra.chars().take(64).collect(),
            }
            .into()),
        }
    }

    /// Writes a snapshot to `path`, creating parent directories.
    ///
    /// The write is atomic (unique temp file + rename in the target
    /// directory): a crash mid-write — or two writers racing on the
    /// same path — can never publish a torn snapshot that would block
    /// the next warm start. The old file, no file, or one writer's
    /// complete bytes survive instead.
    pub fn write_snapshot(&self, path: &Path, scope: &str) -> Result<(), SnapshotError> {
        static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(
            ".{}-{}.tmp",
            std::process::id(),
            WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let tmp = std::path::PathBuf::from(tmp);
        let write = (|| {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.snapshot(scope).as_bytes())?;
            f.sync_all()?;
            std::fs::rename(&tmp, path)
        })();
        if write.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        write.map_err(SnapshotError::from)
    }

    /// Restores a snapshot from `path`; see [`CachingEstimator::restore`].
    pub fn load_snapshot(&self, path: &Path, scope: &str) -> Result<usize, SnapshotError> {
        let mut text = String::new();
        std::fs::File::open(path)?.read_to_string(&mut text)?;
        self.restore(&text, scope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{OracleEstimator, RuntimeEstimator};
    use maya_hw::ClusterSpec;
    use maya_trace::{CollectiveKind, Dtype, KernelKind, MemcpyKind};
    use std::sync::Arc;

    fn warm_cache() -> (CachingEstimator, ClusterSpec) {
        let cluster = ClusterSpec::h100(1, 8);
        let cached = CachingEstimator::new(Arc::new(OracleEstimator::new(&cluster)));
        for i in 0..10u64 {
            cached.kernel_time(&KernelKind::Gemm {
                m: 64 + i,
                n: 128,
                k: 256,
                dtype: Dtype::Bf16,
            });
        }
        cached.memcpy_time(1 << 20, MemcpyKind::HostToDevice);
        cached.memcpy_time(1 << 10, MemcpyKind::DeviceToDevice);
        let ranks: Vec<u32> = (0..8).collect();
        cached.collective_time(CollectiveKind::AllReduce, 1 << 24, &ranks, &cluster);
        cached.collective_time(CollectiveKind::AllGather, 1 << 20, &ranks[..4], &cluster);
        (cached, cluster)
    }

    #[test]
    fn round_trip_restores_every_entry_with_zero_new_misses() {
        let (warm, cluster) = warm_cache();
        let text = warm.snapshot("h100x8/oracle");

        let cold = CachingEstimator::new(Arc::new(OracleEstimator::new(&cluster)));
        let loaded = cold.restore(&text, "h100x8/oracle").expect("restore");
        assert_eq!(loaded, warm.len());
        assert_eq!(cold.len(), warm.len());
        assert_eq!(
            cold.stats().misses,
            0,
            "restore must not count as cache traffic"
        );

        // Replay the exact warm workload: every query must hit.
        for i in 0..10u64 {
            cold.kernel_time(&KernelKind::Gemm {
                m: 64 + i,
                n: 128,
                k: 256,
                dtype: Dtype::Bf16,
            });
        }
        cold.memcpy_time(1 << 20, MemcpyKind::HostToDevice);
        cold.memcpy_time(1 << 10, MemcpyKind::DeviceToDevice);
        let ranks: Vec<u32> = (0..8).collect();
        cold.collective_time(CollectiveKind::AllReduce, 1 << 24, &ranks, &cluster);
        cold.collective_time(CollectiveKind::AllGather, 1 << 20, &ranks[..4], &cluster);
        let st = cold.stats();
        assert_eq!(st.misses, 0, "warm-started memo must answer everything");
        assert_eq!(st.hits, 14);
    }

    #[test]
    fn snapshots_are_deterministic() {
        let (a, cluster) = warm_cache();
        let b = CachingEstimator::new(Arc::new(OracleEstimator::new(&cluster)));
        b.restore(&a.snapshot("s"), "s").unwrap();
        assert_eq!(a.snapshot("s"), b.snapshot("s"), "equal memos, equal bytes");
    }

    #[test]
    fn estimator_mismatch_rejected() {
        let (warm, cluster) = warm_cache();
        struct Renamed(OracleEstimator);
        impl RuntimeEstimator for Renamed {
            fn kernel_time(&self, k: &KernelKind) -> SimTime {
                self.0.kernel_time(k)
            }
            fn memcpy_time(&self, bytes: u64, kind: MemcpyKind) -> SimTime {
                self.0.memcpy_time(bytes, kind)
            }
            fn collective_time(
                &self,
                kind: CollectiveKind,
                bytes: u64,
                ranks: &[u32],
                cluster: &ClusterSpec,
            ) -> SimTime {
                self.0.collective_time(kind, bytes, ranks, cluster)
            }
            fn name(&self) -> &'static str {
                "renamed"
            }
        }
        let other = CachingEstimator::new(Arc::new(Renamed(OracleEstimator::new(&cluster))));
        let err = other.restore(&warm.snapshot("s"), "s").unwrap_err();
        assert!(
            matches!(err, SnapshotError::EstimatorMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn scope_mismatch_rejected() {
        // The estimator name alone cannot distinguish clusters (every
        // oracle is called "oracle"), so the scope must: a memo built
        // for one cluster is refused by an engine scoped to another.
        let (warm, _) = warm_cache();
        let a40 = ClusterSpec::a40(1, 8);
        let other = CachingEstimator::new(Arc::new(OracleEstimator::new(&a40)));
        let err = other
            .restore(&warm.snapshot("scope:h100x8"), "scope:a40x8")
            .unwrap_err();
        assert!(matches!(err, SnapshotError::ScopeMismatch { .. }), "{err}");
        assert!(other.is_empty(), "nothing may be loaded on mismatch");
    }

    #[test]
    fn garbage_rejected() {
        let (warm, _) = warm_cache();
        assert!(matches!(
            warm.restore("not a snapshot", "s"),
            Err(SnapshotError::NotASnapshot)
        ));
        let truncated: String = warm
            .snapshot("s")
            .lines()
            .take(3)
            .collect::<Vec<_>>()
            .join("\n");
        assert!(warm.restore(&truncated, "s").is_err());
        // Only the bytes `snapshot` writes restore: one value per line,
        // every line ended by one newline.
        let snap = warm.snapshot("s");
        for bent in [
            format!("{snap}\n"),
            snap.trim_end().to_string(),
            snap.replacen('\n', " ", 1),
        ] {
            assert!(warm.restore(&bent, "s").is_err(), "{bent:?}");
        }
    }

    #[test]
    fn file_round_trip() {
        let (warm, cluster) = warm_cache();
        let path = std::env::temp_dir().join(format!(
            "maya-snapshot-test-{}-{:?}.memo",
            std::process::id(),
            std::thread::current().id()
        ));
        warm.write_snapshot(&path, "file-scope").expect("write");
        let cold = CachingEstimator::new(Arc::new(OracleEstimator::new(&cluster)));
        assert_eq!(
            cold.load_snapshot(&path, "file-scope").expect("load"),
            warm.len()
        );
        let _ = std::fs::remove_file(&path);
    }
}
