//! A rank's trace as [`CudaContext`](crate::CudaContext) records it
//! against the templates of the classes kept so far.
//!
//! Each call is compared, as it is issued, with the next call of the
//! template it has followed so far ([`Template::is`]); when it
//! differs, the recording switches to another template that shares
//! every call before it and continues with it, if one does. While some
//! template still matches, a call's event is not written: its
//! collective descriptor goes to the trace's metadata, as every call's
//! does, and what its template's event cannot reproduce — the host time
//! written with it, a `Malloc`'s or `Free`'s pointer — to the residue.
//! Once the calls differ from every template, the matched prefix is
//! written out from the template, the descriptors and the residue, bit
//! for bit the events recording alone would have written, and the rest
//! is recorded as it comes. A recording that ends on a template's last
//! call wrote nothing: the rank folds onto that class.
//!
//! A call comes in as its parts, the op by reference, and is compared
//! in place: a [`TraceEvent`] is built only where one is written, as a
//! call is pushed onto the events or as the matched prefix is written
//! out.

use std::sync::Arc;

use maya_trace::{
    CollectiveDesc, DeviceOp, Residue, SimTime, StreamId, Template, Templates, TraceBuffers,
    TraceEvent, TraceMeta,
};

/// One rank's trace while it is recorded against [`Templates`]: each
/// call is compared as it comes, and its event is written only once the
/// calls differ from every template's.
#[derive(Debug)]
pub(crate) struct Recording {
    events: Vec<TraceEvent>,
    collectives: Vec<CollectiveDesc>,
    residue: Vec<Residue>,
    templates: Templates,
    /// The template whose first `matched` calls the calls so far equal,
    /// while there is one: its number and its calls.
    follow: Option<(usize, Arc<Template>)>,
    matched: usize,
    /// Communicators in first-use order, while following.
    comms: Vec<u64>,
}

impl Recording {
    /// A recording into `buffers`' events, collectives and residue
    /// (cleared first; the host notes are not the recording's) that
    /// follows `templates` from its first call.
    pub(crate) fn new(buffers: TraceBuffers, templates: Templates) -> Self {
        let TraceBuffers {
            mut events,
            mut collectives,
            mut residue,
            ..
        } = buffers;
        events.clear();
        collectives.clear();
        residue.clear();
        Recording {
            events,
            collectives,
            residue,
            follow: templates.get(0).map(|t| (0, Arc::clone(t))),
            templates,
            matched: 0,
            comms: Vec::new(),
        }
    }

    /// Takes the next call: `op` on `stream`, with `host_delay` written
    /// before it. Its event is built only if it is written.
    #[inline]
    pub(crate) fn push(&mut self, stream: StreamId, op: &DeviceOp, host_delay: SimTime) {
        if let DeviceOp::Collective { desc } = op {
            self.collectives.push(*desc);
        }
        if !self.follows(stream, op, host_delay) {
            self.events.push(TraceEvent {
                stream,
                op: *op,
                host_delay,
            });
        }
    }

    /// Whether the calls, this one included, still equal some
    /// template's first calls; then what the template does not hold of
    /// the call is noted in place of writing it. When they stop doing
    /// so, the calls before this one are written out.
    #[inline]
    fn follows(&mut self, stream: StreamId, op: &DeviceOp, host_delay: SimTime) -> bool {
        let Some((_, template)) = &self.follow else {
            return false;
        };
        let at = self.matched;
        let same = template.is(at, stream, op, &mut self.comms);
        if !same && !self.branch(stream, op) {
            self.write_out();
            return false;
        }
        let ptr = match *op {
            DeviceOp::Malloc { ptr, .. } | DeviceOp::Free { ptr } => Some(ptr),
            _ => None,
        };
        if ptr.is_some() || host_delay != SimTime::ZERO {
            self.residue.push(Residue {
                at,
                host_delay,
                ptr: ptr.unwrap_or(0),
            });
        }
        self.matched += 1;
        true
    }

    /// Switches to the template, if any, whose first calls are the ones
    /// matched so far and whose next is `op` on `stream`.
    #[cold]
    fn branch(&mut self, stream: StreamId, op: &DeviceOp) -> bool {
        let Some((t, _)) = self.follow else {
            return false;
        };
        let (at, comms) = (self.matched, &mut self.comms);
        let Some(u) = self.templates.branch(t, at, stream, op, comms) else {
            return false;
        };
        self.follow = self.templates.get(u).map(|next| (u, Arc::clone(next)));
        true
    }

    /// Writes the calls matched along the template followed as the
    /// events they were, and stops following.
    fn write_out(&mut self) {
        let Some((_, template)) = self.follow.take() else {
            return;
        };
        let events = template.trace().events.as_slice();
        let events = events.get(..self.matched).unwrap_or(events);
        let mut own = self.collectives.iter();
        let mut residue = self.residue.iter().peekable();
        self.events.reserve(events.len());
        for (at, theirs) in events.iter().enumerate() {
            let mut event = TraceEvent {
                host_delay: SimTime::ZERO,
                ..*theirs
            };
            if let DeviceOp::Collective { desc } = &mut event.op {
                *desc = own.next().copied().unwrap_or(*desc);
            }
            if let Some(r) = residue.next_if(|r| r.at == at) {
                event.host_delay = r.host_delay;
                if let DeviceOp::Malloc { ptr, .. } | DeviceOp::Free { ptr } = &mut event.op {
                    *ptr = r.ptr;
                }
            }
            self.events.push(event);
        }
    }

    /// Ends the recording: the events written — none when the calls
    /// equal a template whole — and the metadata.
    pub(crate) fn finish(mut self) -> (Vec<TraceEvent>, TraceMeta) {
        let followed = self.follow.as_ref().map(|(t, _)| *t);
        let matched = followed.and_then(|t| self.templates.ending(t, self.matched));
        if matched.is_none() {
            self.write_out();
        }
        self.residue.clear();
        let calls = match matched {
            Some(_) => self.matched,
            None => self.events.len(),
        };
        let meta = TraceMeta {
            collectives: self.collectives,
            calls,
            matched,
            seen: self.templates.len(),
            residue: self.residue,
        };
        (self.events, meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_trace::{CollectiveKind, Dtype, KernelKind};

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
        let each = traces.iter().map(|t| maya_trace::WorkerTrace {
            events: t.to_vec(),
            ..maya_trace::WorkerTrace::new(0)
        });
        each.fold(Templates::default(), |kept, trace| kept.kept(trace))
    }

    /// `events` recorded against `against`.
    fn record(events: &[TraceEvent], against: &Templates) -> (Vec<TraceEvent>, TraceMeta) {
        let mut rec = Recording::new(TraceBuffers::default(), against.clone());
        for e in events {
            rec.push(e.stream, &e.op, e.host_delay);
        }
        rec.finish()
    }

    #[test]
    fn a_recording_against_no_template_writes_what_a_scan_reads() {
        let events = [gemm(2), collective(5, 0), gemm(3)];
        let (written, meta) = record(&events, &Templates::default());
        assert_eq!(
            (written.as_slice(), meta),
            (&events[..], TraceMeta::scan(&events))
        );
        // Nor do buffers another rank left behind change that.
        let stale = TraceBuffers {
            events: vec![gemm(1); 4],
            collectives: TraceMeta::scan(&[collective(9, 1)]).collectives,
            residue: vec![Residue {
                at: 0,
                host_delay: SimTime::from_us(9.0),
                ptr: 9,
            }],
            host_notes: Vec::new(),
        };
        let against = templates(&[&[gemm(2), gemm(4)]]);
        let mut rec = Recording::new(stale, against.clone());
        for e in &events {
            rec.push(e.stream, &e.op, e.host_delay);
        }
        let fresh = record(&events, &against);
        assert_eq!(rec.finish(), fresh);
        assert_eq!(fresh.0, events);
        assert_eq!((fresh.1.calls, fresh.1.seen), (3, 1));
    }

    /// A rank of the shape the templates below are cut from: a malloc, a
    /// launch with framework work before it, a collective on a fresh
    /// communicator, a send, a free and a launch.
    fn rank(ptr: u64, comm: u64, slot: u32, host_us: f64) -> Vec<TraceEvent> {
        let mut launch = gemm(128);
        launch.host_delay = SimTime::from_us(host_us);
        vec![
            event(DeviceOp::Malloc { bytes: 512, ptr }),
            launch,
            collective(comm, slot),
            p2p(CollectiveKind::Send { peer: 1 - slot }, comm + 1, slot),
            event(DeviceOp::Free { ptr }),
            gemm(64),
        ]
    }

    #[test]
    fn ranks_that_differ_only_in_what_a_call_leaves_out_fold() {
        let first = rank(0x100, 11, 0, 12.0);
        let against = templates(&[&first]);
        // Host work, a pointer, raw communicator ids, the slot and the
        // peer: none of it is part of a call.
        for other in [
            rank(0x100, 11, 0, 30.0),
            rank(0x900, 11, 0, 12.0),
            rank(0x100, 71, 0, 12.0),
            rank(0x100, 11, 1, 12.0),
            rank(0x300, 40, 1, 0.0),
        ] {
            let (written, meta) = record(&other, &against);
            assert!(written.is_empty(), "{other:?}");
            assert_eq!(meta.matched, Some(0));
            assert_eq!(meta.calls, other.len());
            assert_eq!(meta.collectives, TraceMeta::scan(&other).collectives);
        }
        // What a call keeps does not fold: a stream, a size, a sequence
        // number, a shape.
        let mut stream = first.clone();
        stream[5].stream = StreamId(4);
        let mut size = first.clone();
        size[0].op = DeviceOp::Malloc {
            bytes: 1024,
            ptr: 0x100,
        };
        let mut seq = first.clone();
        if let DeviceOp::Collective { desc } = &mut seq[2].op {
            desc.seq = 1;
        }
        let mut shape = first.clone();
        shape[1] = gemm(256);
        for other in [stream, size, seq, shape] {
            let (written, meta) = record(&other, &against);
            assert_eq!((written, meta.matched), (other, None));
        }
    }

    #[test]
    fn a_rank_that_differs_only_at_its_last_call_is_kept() {
        let first = rank(0x100, 11, 0, 12.0);
        let mut last = rank(0x200, 31, 1, 5.0);
        last[5] = gemm(32);
        let against = templates(&[&first]);
        assert_eq!(record(&last, &against).0, last);
        // Nor does a rank fold that stops one call short, or goes one
        // call further.
        for other in [&last[..5], &[first.clone(), vec![gemm(1)]].concat()[..]] {
            let (written, meta) = record(other, &against);
            assert_eq!((written.as_slice(), meta.matched), (other, None));
        }
    }

    #[test]
    fn a_rank_that_diverges_after_k_calls_writes_what_recording_alone_does() {
        let first = rank(0x100, 11, 0, 12.0);
        let against = templates(&[&first]);
        for k in 0..first.len() {
            let mut other = rank(0x700, 23, 1, 3.0);
            other[k].stream = StreamId(9);
            other.extend([gemm(5), collective(23, 1)]);
            let alone = record(&other, &Templates::default());
            let (written, meta) = record(&other, &against);
            assert_eq!(written, other, "k = {k}");
            assert_eq!(meta.calls, alone.1.calls, "k = {k}");
            assert_eq!(meta.collectives, alone.1.collectives, "k = {k}");
            assert_eq!((meta.matched, meta.seen), (None, 1), "k = {k}");
            assert!(meta.residue.is_empty());
        }
    }

    #[test]
    fn a_rank_follows_whichever_template_its_calls_continue() {
        // Three classes: a common head, then each its own way; the third
        // is a prefix of the first.
        let head = rank(0x100, 11, 0, 12.0);
        let a = [head.clone(), vec![gemm(1), gemm(2)]].concat();
        let b = [head.clone(), vec![gemm(1), gemm(3)]].concat();
        let c = [head.clone(), vec![gemm(1)]].concat();
        let against = templates(&[&a, &b, &c]);
        for (t, class) in [&a, &b, &c].into_iter().enumerate() {
            let (written, meta) = record(class, &against);
            assert_eq!((written.len(), meta.matched), (0, Some(t)));
        }
        // Off the last shared call of all three.
        let d = [head.clone(), vec![gemm(1), gemm(4)]].concat();
        assert_eq!(record(&d, &against).0, d);
        // The head alone is a prefix of every template, and none of them.
        assert_eq!(record(&head, &against).0, head);
    }
}
