//! What makes two workers' traces "the same" for folding (§4.2), and
//! the metadata a recorder hands the collator with a finished trace.
//!
//! The paper hashes a worker's operations while it is emulated and keeps
//! one worker per hash. This repo compares instead, with the same
//! partition and no collisions. A call as folding sees it is its op and
//! stream, without host time, `Malloc`/`Free` pointers, `rank_in_comm`
//! or a Send/Recv peer, and with raw communicator ids replaced by their
//! first-use index (`same_call` here is the one definition), and two
//! workers fold exactly when their calls are equal, one for one. The
//! collator keeps each kept class's first trace as its template
//! ([`Templates`]); a recorder
//! (`maya_cuda::CudaContext`) compares each call as it is issued against
//! them ([`Template::is`]) and, while the calls still equal some
//! template's, writes only their collective descriptors and what the
//! template cannot reproduce ([`Residue`]). A rank that matched a whole
//! template is folded without an event written; one that differs from
//! every template writes out the matched prefix and records on.
//! [`TraceMeta`] is what a recording leaves behind — the collective
//! descriptors, the only part of a trace collation reads, and whether
//! it matched — and [`TraceMeta::scan`] builds the same metadata for a
//! trace that did not come from a recorder, which the collator then
//! compares in full ([`Templates::find`]).
//!
//! [`shape_digest`] stays a hash: the one definition of when two kernel
//! launches are the same shape, every field of the raw [`KernelKind`]
//! and no derived quantity. The simulator keys its per-job table of
//! estimated durations by it and confirms a hit with `==`. [`Key`] is
//! the key chain behind the host clock and the testbed's deterministic
//! noise.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::event::{TraceEvent, WorkerTrace};
use crate::kernel::KernelKind;
use crate::ops::{CollectiveDesc, DeviceOp, StreamId};
use crate::time::SimTime;

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

/// A tiny accumulating hasher: the key chain behind the host clock
/// (`maya_cuda::ModelClock`) and the testbed's deterministic noise
/// (`maya_hw::noise`).
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
/// them. Equal kernels have equal digests; the simulator's shape table
/// confirms a digest hit with `==`.
#[inline]
pub fn shape_digest(kernel: &KernelKind) -> u64 {
    let mut fold = Fold::new();
    kernel.hash(&mut fold);
    fold.finish()
}

/// Whether event `t` of a trace whose communicators are `t_comms`, in
/// first-use order, and `op` on `stream` make the same call: the one
/// definition of "the same call" folding uses. A call is its stream and
/// its op, less what differs between otherwise-identical workers: a
/// `Malloc` or `Free` keeps no pointer; a collective keeps no
/// `rank_in_comm` and no Send/Recv peer (pipeline neighbours differ only
/// there — [`CollectiveKind::id`] leaves the peer out), and names its
/// communicator by first use in its trace, not by raw id. Host time is
/// not part of a call. Everything else — op kind, every field of a
/// kernel's shape (a GEMM and its transpose differ although their FLOPs
/// and bytes agree), payload sizes, streams, event handles and
/// versions, communicator sizes and sequence numbers — is. `comms` holds
/// the communicators of `op`'s trace in first-use order so far, and
/// gains `op`'s if it is new.
#[inline]
fn same_call(
    t: &TraceEvent,
    t_comms: &[u64],
    stream: StreamId,
    op: &DeviceOp,
    comms: &mut Vec<u64>,
) -> bool {
    if t.stream != stream {
        return false;
    }
    match (&t.op, op) {
        (DeviceOp::KernelLaunch { kernel: a }, DeviceOp::KernelLaunch { kernel: b }) => a == b,
        (DeviceOp::Malloc { bytes: a, .. }, DeviceOp::Malloc { bytes: b, .. }) => a == b,
        (DeviceOp::Free { .. }, DeviceOp::Free { .. }) => true,
        (DeviceOp::Collective { desc: a }, DeviceOp::Collective { desc: b }) => {
            let ours = first_use(comms, b.comm_id);
            let theirs = t_comms.iter().position(|&c| c == a.comm_id);
            theirs == Some(ours)
                && (a.seq, a.bytes, a.nranks, a.kind.id())
                    == (b.seq, b.bytes, b.nranks, b.kind.id())
        }
        (a, b) => a == b,
    }
}

/// Whether `a` and `b` make the same calls, one for one.
pub fn same_calls(a: &[TraceEvent], b: &[TraceEvent]) -> bool {
    let (mut theirs, mut ours) = (Vec::new(), Vec::new());
    a.len() == b.len()
        && a.iter().zip(b).all(|(t, e)| {
            if let DeviceOp::Collective { desc } = t.op {
                first_use(&mut theirs, desc.comm_id);
            }
            same_call(t, &theirs, e.stream, &e.op, &mut ours)
        })
}

/// `comm`'s index in `comms`, a trace's communicators in first-use
/// order, where it is appended if it is new.
#[inline]
fn first_use(comms: &mut Vec<u64>, comm: u64) -> usize {
    let seen = comms.iter().position(|&c| c == comm);
    seen.unwrap_or_else(|| {
        comms.push(comm);
        comms.len() - 1
    })
}

/// One kept class: its first rank's trace — whose calls are the
/// class's — and how far those calls agree with each class kept before
/// it.
#[derive(Debug)]
pub struct Template {
    trace: WorkerTrace,
    /// The communicators of the trace, in first-use order.
    comms: Vec<u64>,
    /// `shared[u]`: the leading calls this template has in common with
    /// template `u`, for every `u` kept before it.
    shared: Vec<usize>,
}

impl Template {
    /// The class's first trace, as the collator kept it: a recorder
    /// writing out calls it matched puts back its own host time,
    /// pointers and collective descriptors.
    pub fn trace(&self) -> &WorkerTrace {
        &self.trace
    }

    /// Whether call number `at` of this template is the one `op` on
    /// `stream` makes (see [`Template`]'s calls); `comms` holds the
    /// communicators of `op`'s trace in first-use order so far, and
    /// gains `op`'s if it is new.
    #[inline]
    pub fn is(&self, at: usize, stream: StreamId, op: &DeviceOp, comms: &mut Vec<u64>) -> bool {
        let event = self.trace.events.get(at);
        event.is_some_and(|t| same_call(t, &self.comms, stream, op, comms))
    }

    /// How many leading calls of `events` are this template's.
    fn common(&self, events: &[TraceEvent]) -> usize {
        let mut comms = Vec::new();
        let mut calls = events.iter().enumerate();
        calls
            .position(|(at, e)| !self.is(at, e.stream, &e.op, &mut comms))
            .unwrap_or(events.len().min(self.trace.events.len()))
    }
}

/// The classes one collation has kept, as templates in the order they
/// were kept: what a recorder compares a rank's calls against. Templates
/// are pairwise distinct, so a rank's calls equal at most one. A clone
/// is a snapshot: cheap, and blind to classes kept after it was taken.
#[derive(Clone, Debug, Default)]
pub struct Templates(Arc<Vec<Arc<Template>>>);

impl Templates {
    /// Templates held.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no class has been kept.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Template number `t`.
    pub fn get(&self, t: usize) -> Option<&Arc<Template>> {
        self.0.get(t)
    }

    fn calls(&self, t: usize) -> usize {
        self.0.get(t).map_or(0, |t| t.trace.events.len())
    }

    /// The leading calls templates `a` and `b` have in common.
    fn shared(&self, a: usize, b: usize) -> usize {
        let (early, late) = (a.min(b), a.max(b));
        match self.0.get(late) {
            Some(t) if early < late => t.shared.get(early).copied().unwrap_or(0),
            Some(t) => t.trace.events.len(),
            None => 0,
        }
    }

    /// The template, other than `t`, whose first `at` calls are `t`'s
    /// and whose next call is the one `op` on `stream` makes (`comms`
    /// as for [`Template::is`]).
    pub fn branch(
        &self,
        t: usize,
        at: usize,
        stream: StreamId,
        op: &DeviceOp,
        comms: &mut Vec<u64>,
    ) -> Option<usize> {
        let mut next = |u: usize| self.0.get(u).is_some_and(|n| n.is(at, stream, op, comms));
        (0..self.len()).find(|&u| u != t && self.shared(t, u) >= at && next(u))
    }

    /// The template whose calls are exactly `t`'s first `at`.
    pub fn ending(&self, t: usize, at: usize) -> Option<usize> {
        (0..self.len()).find(|&u| self.calls(u) == at && self.shared(t, u) >= at)
    }

    /// The template, from number `from` on, whose calls are those of
    /// `events`.
    pub fn find(&self, events: &[TraceEvent], from: usize) -> Option<usize> {
        let same = |t: &Arc<Template>| {
            t.trace.events.len() == events.len() && t.common(events) == events.len()
        };
        (from..self.len()).find(|&u| self.0.get(u).is_some_and(same))
    }

    /// These templates and `trace`, whose calls none of them has, kept
    /// as the next: a new set, which snapshots of this one do not see.
    pub fn kept(&self, trace: WorkerTrace) -> Templates {
        let shared = self.0.iter().map(|t| t.common(&trace.events)).collect();
        let mut comms = Vec::new();
        for e in &trace.events {
            if let DeviceOp::Collective { desc } = e.op {
                first_use(&mut comms, desc.comm_id);
            }
        }
        let mut list = Vec::with_capacity(self.0.len() + 1);
        list.extend(self.0.iter().cloned());
        list.push(Arc::new(Template {
            trace,
            comms,
            shared,
        }));
        Templates(Arc::new(list))
    }

    /// The templates' event buffers, emptied, for later ranks to record
    /// into. A template that a snapshot still holds goes with the
    /// snapshot instead.
    pub fn into_buffers(self) -> Vec<Vec<TraceEvent>> {
        let list = Arc::try_unwrap(self.0).unwrap_or_else(|shared| shared.as_ref().clone());
        let unshared = list.into_iter().filter_map(|t| Arc::try_unwrap(t).ok());
        unshared
            .map(|t| {
                let mut events = t.trace.events;
                events.clear();
                events
            })
            .collect()
    }
}

/// What a call's event holds beyond its template's event while a
/// recorder follows a template: the host time written with it and, for
/// a `Malloc` or `Free`, the pointer. A collective's own descriptor is
/// in [`TraceMeta::collectives`]; any other call's event is its
/// template's event with no host time, and is not noted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Residue {
    /// The call's position in the trace.
    pub at: usize,
    /// The host time written with the call's event.
    pub host_delay: SimTime,
    /// A `Malloc`'s or `Free`'s pointer; 0 for any other call.
    pub ptr: u64,
}

/// What a recorder knows about a trace when it finishes writing it.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TraceMeta {
    /// Every collective's descriptor, in call order — the part of a
    /// trace collation reads, written whether or not the trace's events
    /// are.
    pub collectives: Vec<CollectiveDesc>,
    /// Calls recorded: the trace's events, or, when the calls matched a
    /// template whole, that template's length.
    pub calls: usize,
    /// The template the calls equal, when the recorder matched one whole
    /// and so wrote no event.
    pub matched: Option<usize>,
    /// Templates the recorder compared the calls against: the first
    /// `seen` of the collator's. A trace with events equals none of
    /// them.
    pub seen: usize,
    /// The buffer the recorder noted [`Residue`] in, emptied, for the
    /// next rank to record into.
    pub residue: Vec<Residue>,
}

impl TraceMeta {
    /// The metadata of a trace that is already in hand, compared against
    /// no template: its collectives and its length.
    pub fn scan(events: &[TraceEvent]) -> TraceMeta {
        let collectives = events.iter().filter_map(|e| match e.op {
            DeviceOp::Collective { desc } => Some(desc),
            _ => None,
        });
        TraceMeta {
            collectives: collectives.collect(),
            calls: events.len(),
            ..TraceMeta::default()
        }
    }
}

/// The buffers one recording fills, handed from a trace that was dropped
/// to the next rank's recorder so it writes over pages already mapped.
#[derive(Debug, Default)]
pub struct TraceBuffers {
    /// Becomes `WorkerTrace::events`.
    pub events: Vec<TraceEvent>,
    /// Becomes [`TraceMeta::collectives`].
    pub collectives: Vec<CollectiveDesc>,
    /// Becomes [`TraceMeta::residue`].
    pub residue: Vec<Residue>,
    /// Where a recorder whose trace may be folded notes the host time
    /// each call is owed (one word a call, the recorder's encoding)
    /// until the trace is known to be kept.
    pub host_notes: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::Dtype;
    use crate::ops::CollectiveKind;

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

    fn gemm(m: u64) -> TraceEvent {
        event(DeviceOp::KernelLaunch {
            kernel: KernelKind::Gemm {
                m,
                n: 64,
                k: 64,
                dtype: Dtype::Bf16,
            },
        })
    }

    fn p2p(kind: CollectiveKind, comm_id: u64, rank_in_comm: u32) -> TraceEvent {
        let mut e = collective(comm_id, rank_in_comm);
        if let DeviceOp::Collective { desc } = &mut e.op {
            desc.kind = kind;
        }
        e
    }

    /// Templates of the given traces, kept in order.
    fn templates(traces: &[&[TraceEvent]]) -> Templates {
        let each = traces.iter().map(|t| WorkerTrace {
            events: t.to_vec(),
            ..WorkerTrace::new(0)
        });
        each.fold(Templates::default(), |kept, trace| kept.kept(trace))
    }

    /// Whether `a` and `b` make the same calls, asked both ways.
    fn same(a: &[TraceEvent], b: &[TraceEvent]) -> bool {
        let found = templates(&[a]).find(b, 0).is_some();
        assert_eq!(same_calls(a, b), found);
        assert_eq!(same_calls(b, a), found);
        found
    }

    #[test]
    fn scan_lists_collectives_and_counts_calls() {
        let events = [
            event(DeviceOp::DeviceSynchronize),
            collective(5, 0),
            event(DeviceOp::StreamSynchronize),
            collective(6, 1),
        ];
        let meta = TraceMeta::scan(&events);
        let desc = |e: &TraceEvent| match e.op {
            DeviceOp::Collective { desc } => desc,
            _ => unreachable!("a collective"),
        };
        assert_eq!(meta.collectives, [desc(&events[1]), desc(&events[3])]);
        assert_eq!((meta.calls, meta.matched, meta.seen), (4, None, 0));
        assert!(meta.residue.is_empty());
    }

    #[test]
    fn communicators_compare_by_first_use_not_by_id() {
        let a = [collective(111, 0), collective(222, 0), collective(111, 0)];
        let b = [collective(7, 1), collective(9, 1), collective(7, 1)];
        let c = [collective(7, 1), collective(9, 1), collective(9, 1)];
        assert!(same(&a, &b));
        assert!(!same(&b, &c));
    }

    #[test]
    fn every_field_of_a_shape_reaches_its_digest() {
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
            assert!(
                !same(&launch(other), &launch(base)),
                "{other:?} is not {base:?}"
            );
        }
    }

    /// The words of one digest.
    fn folded<const N: usize>(words: [u64; N]) -> u64 {
        let mut fold = Fold::new();
        for w in words {
            fold.word(w);
        }
        fold.finish()
    }

    #[test]
    fn a_digest_is_sensitive_to_which_word_holds_a_value() {
        assert_ne!(folded([1, 2]), folded([2, 1]));
        assert_ne!(folded([0, 1]), folded([1, 0]));
        assert_ne!(folded([7]), folded([7, 0]));
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
        let events = [gemm(2), collective(5, 0)];
        // A buffer another trace left behind, recorded into again.
        let mut stale = vec![gemm(1), gemm(1), collective(9, 1)];
        let at = stale.as_ptr();
        stale.clear();
        stale.extend_from_slice(&events);
        let trace = WorkerTrace {
            events: stale,
            ..WorkerTrace::new(0)
        };
        let before = Templates::default();
        let kept = before.kept(trace);
        let template = kept
            .get(0)
            .map(|t| (t.trace().events.clone(), t.trace().events.as_ptr()));
        assert_eq!(
            template,
            Some((events.to_vec(), at)),
            "kept in place, nothing left over"
        );
        assert_eq!(kept.find(&events, 0), Some(0));
        assert_eq!(kept.find(&[gemm(1), gemm(1), collective(9, 1)], 0), None);
        // A snapshot taken before does not see it.
        assert_eq!((before.len(), before.find(&events, 0)), (0, None));
    }

    #[test]
    fn templates_know_how_far_they_agree() {
        let head = [gemm(1), collective(5, 0)];
        let a = [&head[..], &[gemm(2), gemm(3)]].concat();
        let b = [&head[..], &[gemm(2), gemm(4)]].concat();
        let c = [&head[..], &[gemm(2)]].concat();
        let kept = templates(&[&a, &b, &c]);
        let at = |e: &TraceEvent, t, at| {
            // The communicators of the rank following up to `at`.
            let mut comms = vec![5];
            kept.branch(t, at, e.stream, &e.op, &mut comms)
        };
        // Off `a` at its last call onto `b`; nowhere before the split.
        assert_eq!(at(&gemm(4), 0, 3), Some(1));
        assert_eq!(at(&gemm(3), 1, 3), Some(0));
        assert_eq!(at(&gemm(4), 0, 2), None);
        assert_eq!(at(&gemm(9), 0, 3), None);
        // `c` is `a` and `b` cut after their third call.
        assert_eq!(kept.ending(0, 3), Some(2));
        assert_eq!(kept.ending(1, 3), Some(2));
        assert_eq!(kept.ending(0, 4), Some(0));
        assert_eq!(kept.ending(0, 2), None);
        for (t, events) in [&a, &b, &c].into_iter().enumerate() {
            assert_eq!(kept.find(events, 0), Some(t));
            assert_eq!(kept.find(events, t + 1), None);
        }
    }

    /// [`same_call`] written out as a projection: the event with what a
    /// call leaves out zeroed and its communicator numbered by first use.
    fn projected(e: &TraceEvent, comms: &mut Vec<u64>) -> TraceEvent {
        let mut e = *e;
        e.host_delay = SimTime::ZERO;
        match &mut e.op {
            DeviceOp::Malloc { ptr, .. } | DeviceOp::Free { ptr } => *ptr = 0,
            DeviceOp::Collective { desc } => {
                desc.comm_id = first_use(comms, desc.comm_id) as u64;
                desc.rank_in_comm = 0;
                if let CollectiveKind::Send { peer } | CollectiveKind::Recv { peer } =
                    &mut desc.kind
                {
                    *peer = 0;
                }
            }
            _ => {}
        }
        e
    }

    #[test]
    fn a_call_compares_in_place_as_it_projects() {
        let mut seq1 = collective(5, 1);
        if let DeviceOp::Collective { desc } = &mut seq1.op {
            desc.seq = 1;
        }
        let mut other_stream = gemm(8);
        other_stream.stream = StreamId(0);
        let ops = [
            gemm(8),
            gemm(16),
            other_stream,
            event(DeviceOp::Malloc { bytes: 512, ptr: 1 }),
            event(DeviceOp::Malloc { bytes: 512, ptr: 2 }),
            event(DeviceOp::Malloc {
                bytes: 1024,
                ptr: 1,
            }),
            event(DeviceOp::Free { ptr: 1 }),
            event(DeviceOp::Free { ptr: 2 }),
            event(DeviceOp::DeviceSynchronize),
            event(DeviceOp::EventRecord {
                event: 1,
                version: 1,
            }),
            event(DeviceOp::EventRecord {
                event: 1,
                version: 2,
            }),
            collective(5, 0),
            collective(6, 1),
            seq1,
            p2p(CollectiveKind::Send { peer: 0 }, 5, 1),
            p2p(CollectiveKind::Send { peer: 1 }, 6, 0),
            p2p(CollectiveKind::Recv { peer: 1 }, 5, 0),
        ];
        // Every pair, each side with communicators seen before or not.
        let histories = [vec![], vec![5], vec![6, 5]];
        for a in &ops {
            for b in &ops {
                for theirs in &histories {
                    for ours in &histories {
                        let mut t_comms = theirs.clone();
                        let expected_a = projected(a, &mut t_comms);
                        let mut built = ours.clone();
                        let expected = expected_a == projected(b, &mut built);
                        let mut compared = ours.clone();
                        let got = same_call(a, &t_comms, b.stream, &b.op, &mut compared);
                        assert_eq!(got, expected, "{a:?} against {b:?}, {theirs:?}, {ours:?}");
                        // A matched collective numbers its communicator.
                        if got {
                            assert_eq!(compared, built);
                        }
                    }
                }
            }
        }
    }
}
