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

use crate::event::TraceEvent;
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

/// What a recorder knows about a trace when it finishes writing it.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TraceMeta {
    /// Structural rolling hash of the operation sequence; `None` when
    /// the recorder was told the trace will not be folded.
    ///
    /// Invariant to identifiers that differ between otherwise-identical
    /// workers (raw communicator ids, device pointers, host-delay
    /// jitter); sensitive to everything that defines the workload
    /// structure: op kinds, kernel shapes, payload sizes, stream
    /// assignment, communicator *roles* (first-use index + size;
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
/// to the next rank's recorder so it writes over pages already mapped.
#[derive(Debug, Default)]
pub struct TraceBuffers {
    /// Becomes `WorkerTrace::events`.
    pub events: Vec<TraceEvent>,
    /// Becomes [`TraceMeta::collectives`].
    pub collectives: Vec<usize>,
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
        let key = self.key.with(stream.0 as u64);
        self.key = match *op {
            DeviceOp::KernelLaunch { kernel } => key
                .with(1)
                .with(kernel.family_id() as u64)
                .with(kernel.flops().to_bits())
                .with(kernel.bytes_accessed().to_bits()),
            DeviceOp::MemcpyAsync { bytes, kind, sync } => {
                key.with(2).with(bytes).with(kind as u64).with(sync as u64)
            }
            DeviceOp::Malloc { bytes, .. } => key.with(3).with(bytes),
            DeviceOp::Free { .. } => key.with(4),
            DeviceOp::EventRecord { event, version } => {
                key.with(5).with(event).with(version as u64)
            }
            DeviceOp::StreamWaitEvent { event, version } => {
                key.with(6).with(event).with(version as u64)
            }
            DeviceOp::EventSynchronize { event, version } => {
                key.with(7).with(event).with(version as u64)
            }
            DeviceOp::StreamSynchronize => key.with(8),
            DeviceOp::DeviceSynchronize => key.with(9),
            DeviceOp::Collective { desc } => {
                let seen = self.comms.iter().position(|&c| c == desc.comm_id);
                let comm_local = seen.unwrap_or_else(|| {
                    self.comms.push(desc.comm_id);
                    self.comms.len() - 1
                });
                key.with(10)
                    .with(comm_local as u64)
                    .with(desc.kind.id() as u64)
                    .with(desc.bytes)
                    .with(desc.nranks as u64)
                    .with(desc.seq as u64)
            }
        };
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
    fn a_recycled_index_buffer_carries_nothing_over() {
        let mut signer = Signer::new(false, vec![9, 9, 9]);
        signer.note(0, StreamId(3), &collective(5, 0).op);
        assert_eq!(signer.finish().collectives, vec![0]);
    }
}
