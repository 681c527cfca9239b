//! The structural signature of a worker's operation sequence (§4.2) and
//! the metadata a recorder hands the collator with a finished trace.
//!
//! The paper hashes a worker's operations while it is emulated. The hash
//! lives here, beside [`TraceEvent`], so the recorder (`maya-cuda`) can
//! advance it as each call is issued and the collator (`maya-collate`)
//! never re-reads an event to learn what the recorder already knew:
//! [`Signer::note`] is the one definition, [`TraceMeta`] is what it
//! leaves behind — the finished signature and the positions of the
//! collectives, the only events collation needs — and
//! [`TraceMeta::scan`] builds the same metadata for a trace that did not
//! come from a recorder.
//!
//! An event costs the signature one chained round. Its words — op tag,
//! stream, the op's fields — are folded into one digest by multiplies
//! that do not wait for each other or for the previous event, and only
//! that digest enters the [`Key`] chain, the one dependency carried
//! from event to event. A kernel's word is [`shape_digest`], the one
//! definition of when two launches are the same shape: every field of
//! the raw [`KernelKind`], no derived quantity. The simulator keys its
//! per-job table of estimated durations by the same function, so what
//! the fold calls one kernel is what the estimator is asked about once.
//! Signature *values* are private to a process (they are in no trace,
//! wire message or snapshot); the contract is the partition of ranks
//! they induce.

use std::hash::{Hash, Hasher};

use crate::event::TraceEvent;
use crate::kernel::KernelKind;
use crate::ops::{DeviceOp, StreamId};

/// One round of the splitmix64 mixing function.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combines hash state with another word.
#[inline]
pub fn mix(seed: u64, v: u64) -> u64 {
    splitmix64(seed ^ v.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// A tiny accumulating hasher: the signature's state, and the key chain
/// behind the testbed's deterministic noise (`maya_hw::noise`).
#[derive(Clone, Copy, Debug)]
pub struct Key(pub u64);

impl Key {
    /// Starts a key chain from a seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Key(splitmix64(seed))
    }

    /// Folds a word into the key.
    #[inline]
    pub fn with(self, v: u64) -> Self {
        Key(mix(self.0, v))
    }

    /// Final hash value.
    #[inline]
    pub fn finish(self) -> u64 {
        splitmix64(self.0)
    }
}

/// A sum of per-word folded multiplies: word `i` is xored with the
/// `i`-th step of an additive constant sequence, multiplied to 128 bits
/// and folded to 64, and the results are added. No multiply reads
/// another's result, so a digest's latency is one multiply plus an add
/// per word; each word passes through its own non-linear map, so
/// exchanging two fields (a transposed GEMM) or moving a difference
/// from one field to another changes the sum.
struct Fold {
    sum: u64,
    step: u64,
}

impl Fold {
    const STEP: u64 = 0x9E37_79B9_7F4A_7C15;
    const MUL: u64 = 0xD6E8_FEB8_6659_FD93;

    #[inline]
    fn new() -> Self {
        Fold {
            sum: 0,
            step: Self::STEP,
        }
    }

    #[inline]
    fn word(&mut self, w: u64) {
        let wide = u128::from(w ^ self.step) * u128::from(Self::MUL ^ self.step.rotate_left(32));
        self.sum = self.sum.wrapping_add(wide as u64 ^ (wide >> 64) as u64);
        self.step = self.step.wrapping_add(Self::STEP);
    }

    #[inline]
    fn of<const N: usize>(words: [u64; N]) -> u64 {
        let mut fold = Fold::new();
        for w in words {
            fold.word(w);
        }
        fold.sum
    }
}

/// `Hasher` methods that take one integer and fold it as one word.
macro_rules! words {
    ($($write:ident: $int:ty),* $(,)?) => {$(
        #[inline]
        fn $write(&mut self, i: $int) {
            self.word(i as u64);
        }
    )*};
}

/// Every integer a derived `Hash` writes is one word; nothing reaches
/// the byte-slice default and nothing allocates.
impl Hasher for Fold {
    #[inline]
    fn finish(&self) -> u64 {
        self.sum
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            for (w, b) in word.iter_mut().zip(chunk) {
                *w = *b;
            }
            self.word(u64::from_le_bytes(word));
        }
        self.word(bytes.len() as u64);
    }

    words! {
        write_u8: u8, write_u16: u16, write_u32: u32, write_u64: u64, write_usize: usize,
        write_i8: i8, write_i16: i16, write_i32: i32, write_i64: i64, write_isize: isize,
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.word(i as u64);
        self.word((i >> 64) as u64);
    }

    #[inline]
    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }
}

/// The identity of a kernel launch's shape: a digest of the variant and
/// every field of the raw [`KernelKind`], as its derived `Hash` lists
/// them. Equal kernels have equal digests; the worker signature treats
/// the converse as true, and the simulator's shape table confirms it
/// with `==`.
#[inline]
pub fn shape_digest(kernel: &KernelKind) -> u64 {
    let mut fold = Fold::new();
    kernel.hash(&mut fold);
    fold.finish()
}

/// What a recorder knows about a trace when it finishes writing it.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TraceMeta {
    /// Structural rolling hash of the operation sequence; `None` when
    /// the recorder was told the trace will not be folded.
    ///
    /// Invariant to identifiers that differ between otherwise-identical
    /// workers (raw communicator ids, device pointers, host-delay
    /// jitter); sensitive to everything that defines the workload
    /// structure: op kinds, kernel shapes — every field of
    /// [`KernelKind`] ([`shape_digest`]), so a GEMM and its transpose
    /// differ although their FLOPs and bytes agree — payload sizes,
    /// stream assignment, communicator *roles* (first-use index + size;
    /// rank-in-comm is excluded, since e.g. pipeline neighbors differ
    /// only by rank) and sequence numbers.
    pub signature: Option<u64>,
    /// Position in the trace's `events` of every
    /// [`DeviceOp::Collective`], ascending.
    pub collectives: Vec<usize>,
}

impl TraceMeta {
    /// The metadata of a trace that is already in hand: one pass over
    /// `events`, hashing them only if `sign`.
    pub fn scan(events: &[TraceEvent], sign: bool) -> TraceMeta {
        scanned(events, sign).finish()
    }
}

/// The signature of a trace that is already in hand.
pub fn signature_of(events: &[TraceEvent]) -> u64 {
    scanned(events, true).key.finish()
}

fn scanned(events: &[TraceEvent], sign: bool) -> Signer {
    let mut signer = Signer::new(sign, Vec::new());
    for (at, e) in events.iter().enumerate() {
        signer.note(at, e.stream, &e.op);
    }
    signer
}

/// The buffers one recording fills, handed from a trace that was dropped
/// to the next rank's recorder so it writes over pages already mapped:
/// the events, the collective index, and the host-time notes a signing
/// recorder keeps in place of computing a host clock nobody may read.
#[derive(Debug, Default)]
pub struct TraceBuffers {
    /// Becomes `WorkerTrace::events`.
    pub events: Vec<TraceEvent>,
    /// Becomes [`TraceMeta::collectives`].
    pub collectives: Vec<usize>,
    /// Where a signing recorder notes the host time each event is owed
    /// (one word an event, the recorder's encoding) until the trace is
    /// known to be kept.
    pub host_notes: Vec<u64>,
}

/// [`TraceMeta`] under construction: advanced once per recorded call.
#[derive(Clone, Debug)]
pub struct Signer {
    sign: bool,
    key: Key,
    /// Communicators in first-use order; a collective hashes its
    /// communicator's position here, not its raw id.
    comms: Vec<u64>,
    collectives: Vec<usize>,
}

impl Signer {
    /// A signer for a trace with nothing recorded yet, indexing into
    /// `collectives` (cleared first) and hashing only if `sign`.
    pub fn new(sign: bool, mut collectives: Vec<usize>) -> Self {
        collectives.clear();
        Signer {
            sign,
            key: Key::new(0x5749_5245),
            comms: Vec::new(),
            collectives,
        }
    }

    /// Takes the call about to be recorded as event number `at`.
    #[inline]
    pub fn note(&mut self, at: usize, stream: StreamId, op: &DeviceOp) {
        if let DeviceOp::Collective { .. } = op {
            self.collectives.push(at);
        }
        if !self.sign {
            return;
        }
        let head = |tag: u64| tag << 32 | u64::from(stream.0);
        let digest = match *op {
            DeviceOp::KernelLaunch { kernel } => Fold::of([head(1), shape_digest(&kernel)]),
            DeviceOp::MemcpyAsync { bytes, kind, sync } => {
                Fold::of([head(2), bytes, kind as u64, sync as u64])
            }
            DeviceOp::Malloc { bytes, .. } => Fold::of([head(3), bytes]),
            DeviceOp::Free { .. } => Fold::of([head(4)]),
            DeviceOp::EventRecord { event, version } => {
                Fold::of([head(5), event, u64::from(version)])
            }
            DeviceOp::StreamWaitEvent { event, version } => {
                Fold::of([head(6), event, u64::from(version)])
            }
            DeviceOp::EventSynchronize { event, version } => {
                Fold::of([head(7), event, u64::from(version)])
            }
            DeviceOp::StreamSynchronize => Fold::of([head(8)]),
            DeviceOp::DeviceSynchronize => Fold::of([head(9)]),
            DeviceOp::Collective { desc } => {
                let seen = self.comms.iter().position(|&c| c == desc.comm_id);
                let comm_local = seen.unwrap_or_else(|| {
                    self.comms.push(desc.comm_id);
                    self.comms.len() - 1
                });
                Fold::of([
                    head(10),
                    comm_local as u64,
                    u64::from(desc.kind.id()),
                    desc.bytes,
                    u64::from(desc.nranks),
                    u64::from(desc.seq),
                ])
            }
        };
        self.key = self.key.with(digest);
    }

    /// The metadata of everything noted.
    pub fn finish(self) -> TraceMeta {
        TraceMeta {
            signature: self.sign.then(|| self.key.finish()),
            collectives: self.collectives,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{CollectiveDesc, CollectiveKind};
    use crate::time::SimTime;

    fn event(op: DeviceOp) -> TraceEvent {
        TraceEvent {
            stream: StreamId(3),
            op,
            host_delay: SimTime::from_us(1.0),
        }
    }

    fn collective(comm_id: u64, rank_in_comm: u32) -> TraceEvent {
        event(DeviceOp::Collective {
            desc: CollectiveDesc {
                kind: CollectiveKind::AllReduce,
                comm_id,
                seq: 0,
                bytes: 64,
                nranks: 2,
                rank_in_comm,
            },
        })
    }

    #[test]
    fn scan_indexes_collectives_and_signs_only_when_asked() {
        let events = [
            event(DeviceOp::DeviceSynchronize),
            collective(5, 0),
            event(DeviceOp::StreamSynchronize),
            collective(6, 0),
        ];
        let signed = TraceMeta::scan(&events, true);
        assert_eq!(signed.collectives, vec![1, 3]);
        assert_eq!(signed.signature, Some(signature_of(&events)));
        let unsigned = TraceMeta::scan(&events, false);
        assert_eq!(unsigned.collectives, signed.collectives);
        assert_eq!(unsigned.signature, None);
    }

    #[test]
    fn communicators_hash_by_first_use_not_by_id() {
        let a = [collective(111, 0), collective(222, 0), collective(111, 0)];
        let b = [collective(7, 1), collective(9, 1), collective(7, 1)];
        let c = [collective(7, 1), collective(9, 1), collective(9, 1)];
        assert_eq!(signature_of(&a), signature_of(&b));
        assert_ne!(signature_of(&b), signature_of(&c));
    }

    #[test]
    fn every_field_of_a_shape_reaches_its_digest() {
        use crate::dtype::Dtype;
        let gemm = |m, n, k, dtype| KernelKind::Gemm { m, n, k, dtype };
        let base = gemm(4096, 1024, 512, Dtype::Bf16);
        assert_eq!(
            shape_digest(&base),
            shape_digest(&gemm(4096, 1024, 512, Dtype::Bf16))
        );
        let others = [
            // Same FLOPs, same bytes: only the raw shape tells them apart.
            gemm(1024, 4096, 512, Dtype::Bf16),
            gemm(4096, 512, 1024, Dtype::Bf16),
            gemm(4096, 1024, 512, Dtype::Fp16),
            KernelKind::LtMatmul {
                m: 4096,
                n: 1024,
                k: 512,
                dtype: Dtype::Bf16,
            },
        ];
        for other in others {
            assert_ne!(shape_digest(&base), shape_digest(&other), "{other:?}");
            let launch = |kernel| [event(DeviceOp::KernelLaunch { kernel })];
            assert_ne!(signature_of(&launch(base)), signature_of(&launch(other)));
        }
    }

    #[test]
    fn a_digest_is_sensitive_to_which_word_holds_a_value() {
        assert_ne!(Fold::of([1, 2]), Fold::of([2, 1]));
        assert_ne!(Fold::of([0, 1]), Fold::of([1, 0]));
        assert_ne!(Fold::of([7]), Fold::of([7, 0]));
        // The byte-slice path, which no trace type takes, still folds
        // every byte and the length.
        let bytes = |b: &[u8]| {
            let mut fold = Fold::new();
            fold.write(b);
            fold.finish()
        };
        assert_ne!(
            bytes(&[1, 0, 0, 0, 0, 0, 0, 0, 2]),
            bytes(&[1, 0, 0, 0, 0, 0, 0, 0, 3])
        );
        assert_ne!(bytes(&[0]), bytes(&[0, 0]));
    }

    #[test]
    fn a_recycled_index_buffer_carries_nothing_over() {
        let mut signer = Signer::new(false, vec![9, 9, 9]);
        signer.note(0, StreamId(3), &collective(5, 0).op);
        assert_eq!(signer.finish().collectives, vec![0]);
    }
}
