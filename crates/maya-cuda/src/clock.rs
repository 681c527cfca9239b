//! Host-side time accounting for emulated API calls.
//!
//! The paper measures "wall-clock deltas between API calls during
//! emulation" and replays them as blocking host work in the simulator
//! (§4.2). A measured delta is different on every run, and every digest,
//! golden string and dedup class in this repo needs the same trace from
//! the same job, so the one clock here is a *model*: a per-call-class
//! dispatch cost plus deterministic jitter.
//!
//! A call's host time is a pure function of its number and class
//! ([`ModelClock::cost`]), so it need not be computed when the call is
//! issued. A recorder whose trace is always kept charges as it records
//! ([`ModelClock::charge`]); one whose trace may be folded away — nobody
//! reads a folded rank's host time: folding compares calls without it,
//! the collator reads collectives, a matched call's event is not even
//! written —
//! only numbers the call and notes `(call, class)` beside the event, and
//! the [`HostCharges`] it finishes with computes the costs if and when
//! the trace turns out to be kept. Settled, such a trace is bit for bit
//! the one charging every call would have written.

use maya_hw::noise::{centered_factor, Key};
use maya_trace::{SimTime, WorkerTrace};

/// Coarse classes of host work attached to an API call.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HostOpClass {
    /// Kernel or memcpy launch through the runtime API.
    KernelLaunch,
    /// Allocation / free bookkeeping.
    Memory,
    /// Event / stream management.
    Sync,
    /// cuBLAS / cuDNN library dispatch (heavier: heuristics, setup).
    Library,
    /// NCCL enqueue.
    Nccl,
    /// Framework-level host work injected by the application between API
    /// calls (Python dispatch, optimizer bookkeeping, ...).
    Framework,
}

/// Deterministic host-cost model.
///
/// Costs loosely follow measured CUDA dispatch overheads on a modern
/// server CPU (a few microseconds per launch; more for library calls that
/// run heuristics). `cpu_speed` scales everything, standing in for the
/// host hardware differences discussed in §8 ("Taxonomy of CPU
/// computation").
#[derive(Clone, Debug)]
pub struct ModelClock {
    /// Multiplier on all host costs (1.0 = reference CPU).
    pub cpu_speed: f64,
    /// Jitter amplitude (deterministic, hash-based).
    pub jitter: f64,
    /// `Key::new(seed)`: every charge extends this chain.
    key: Key,
    calls: u64,
}

impl ModelClock {
    /// Creates a model clock for a given seed.
    pub fn new(seed: u64) -> Self {
        ModelClock {
            cpu_speed: 1.0,
            jitter: 0.10,
            key: Key::new(seed),
            calls: 0,
        }
    }

    /// Base cost in microseconds for each call class.
    fn base_us(class: HostOpClass) -> f64 {
        match class {
            HostOpClass::KernelLaunch => 4.5,
            HostOpClass::Memory => 2.8,
            HostOpClass::Sync => 1.9,
            HostOpClass::Library => 7.5,
            HostOpClass::Nccl => 9.0,
            HostOpClass::Framework => 12.0,
        }
    }

    /// Counts one API call and returns its number (the first call is
    /// 1). Every call that costs host time is numbered, recorded as an
    /// event or not, in program order.
    #[inline]
    pub fn note(&mut self) -> u64 {
        self.calls += 1;
        self.calls
    }

    /// Host time of call number `call`, of class `class`: the one
    /// definition, a pure function of the clock's seed and settings.
    #[inline]
    pub fn cost(&self, call: u64, class: HostOpClass) -> SimTime {
        let f = centered_factor(self.key.with(call).with(class as u64).finish(), self.jitter);
        SimTime::from_us(Self::base_us(class) * self.cpu_speed * f)
    }

    /// [`ModelClock::note`] and [`ModelClock::cost`] in one: the time to
    /// charge for the next API call, of class `class`.
    ///
    /// Out of line on purpose, for the sake of the path that does not
    /// call it: `CudaContext::record` holds this call beside the branch
    /// that only notes, and with the body inlined there a noting
    /// rank's recording measured ≈ 5 % slower (512-rank sweeps, min of
    /// 12, five alternating processes a side: 39.9–40.8 ms against
    /// 37.2–38.6). The eager path itself would rather have it inlined,
    /// by less: 86.1–86.9 µs an eagerly charged rank against 87.7–88.4
    /// (min of 3 000, six alternating processes a side). The 15–25 % PR 21 read
    /// against inlining went with libm's `round` in PR 22.
    #[inline(never)]
    pub fn charge(&mut self, class: HostOpClass) -> SimTime {
        let call = self.note();
        self.cost(call, class)
    }
}

/// One deferred charge, packed into a word: the call number above the
/// class's three bits. Zero — no call is numbered 0 — marks an event
/// that owes nothing.
fn pack(call: u64, class: HostOpClass) -> Option<u64> {
    (call < 1 << 61).then_some(call << 3 | class as u64)
}

fn unpack(note: u64) -> Option<(u64, HostOpClass)> {
    let class = match note & 7 {
        0 => HostOpClass::KernelLaunch,
        1 => HostOpClass::Memory,
        2 => HostOpClass::Sync,
        3 => HostOpClass::Library,
        4 => HostOpClass::Nccl,
        5 => HostOpClass::Framework,
        _ => return None,
    };
    match note >> 3 {
        0 => None,
        call => Some((call, class)),
    }
}

/// The host-time ledger of one recording. While the
/// [`CudaContext`](crate::CudaContext) records, it prices each call —
/// at once, or, when the trace may be folded away unread (a context
/// recording against templates), as a one-word note a call. Finished,
/// it is what the trace is still owed: [`HostCharges::settle`] computes the noted
/// costs for a trace that is kept, [`HostCharges::forgo`] drops them
/// with a trace that is not; both consume the ledger and return the
/// note buffer for the next rank to record into.
#[must_use = "a trace lacks its host time until its charges are settled"]
#[derive(Debug)]
pub struct HostCharges {
    clock: ModelClock,
    defer: bool,
    /// When deferring, one word per recorded call.
    notes: Vec<u64>,
}

impl HostCharges {
    /// A ledger over `clock` that defers its charges only if `defer`,
    /// noting into `notes` (cleared first).
    pub(crate) fn new(clock: ModelClock, defer: bool, mut notes: Vec<u64>) -> Self {
        notes.clear();
        HostCharges {
            clock,
            defer,
            notes,
        }
    }

    /// Counts a call that costs host time and records no event.
    pub(crate) fn pass(&mut self) {
        self.clock.note();
    }

    /// Counts the call being recorded as an event and returns the part
    /// of its host time to write with the event now: all of it, or
    /// none, the rest noted.
    #[inline]
    pub(crate) fn charge(&mut self, class: HostOpClass) -> SimTime {
        if !self.defer {
            return self.clock.charge(class);
        }
        let call = self.clock.note();
        match pack(call, class) {
            Some(note) => {
                self.notes.push(note);
                SimTime::ZERO
            }
            None => {
                self.notes.push(0);
                self.clock.cost(call, class)
            }
        }
    }

    /// Events whose host time is still to be computed.
    pub fn owed(&self) -> usize {
        self.notes.len()
    }

    /// Adds every noted call's [`ModelClock::cost`] to its event;
    /// `trace` is the one this ledger was handed out with, which then
    /// reads exactly as if it had been charged while recorded.
    pub fn settle(self, trace: &mut WorkerTrace) -> Vec<u64> {
        debug_assert!(self.notes.is_empty() || self.notes.len() == trace.events.len());
        for (event, &note) in trace.events.iter_mut().zip(&self.notes) {
            if let Some((call, class)) = unpack(note) {
                event.host_delay += self.clock.cost(call, class);
            }
        }
        self.forgo()
    }

    /// Drops the charges uncomputed: the trace they belong to is being
    /// discarded.
    pub fn forgo(mut self) -> Vec<u64> {
        self.notes.clear();
        self.notes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_clock_is_deterministic() {
        let mut a = ModelClock::new(7);
        let mut b = ModelClock::new(7);
        for class in [
            HostOpClass::KernelLaunch,
            HostOpClass::Library,
            HostOpClass::Sync,
        ] {
            assert_eq!(a.charge(class), b.charge(class));
        }
    }

    const CLASSES: [HostOpClass; 6] = [
        HostOpClass::KernelLaunch,
        HostOpClass::Memory,
        HostOpClass::Sync,
        HostOpClass::Library,
        HostOpClass::Nccl,
        HostOpClass::Framework,
    ];

    #[test]
    fn charge_is_note_then_cost() {
        let (mut charged, mut noted) = (ModelClock::new(9), ModelClock::new(9));
        let mut calls = Vec::new();
        for (i, class) in (1..=10_000u64).zip(CLASSES.into_iter().cycle()) {
            let call = noted.note();
            assert_eq!(call, i);
            let cost = noted.cost(call, class);
            assert_eq!(charged.charge(class), cost, "call {call}");
            calls.push((call, class, cost));
        }
        // A cost is a function of the call, not of when it is asked for.
        for (call, class, cost) in calls.into_iter().rev() {
            assert_eq!(charged.cost(call, class), cost, "call {call}");
        }
    }

    #[test]
    fn a_note_holds_every_call_number_it_accepts() {
        for class in CLASSES {
            for call in [1, 2, 12_345, u64::from(u32::MAX) + 1, (1 << 61) - 1] {
                let note = pack(call, class).expect("fits");
                assert_eq!(unpack(note), Some((call, class)));
            }
            // Too wide to sit above the class bits: refused, not wrapped.
            for call in [1 << 61, (1 << 61) + 1, u64::MAX] {
                assert_eq!(pack(call, class), None);
            }
        }
        assert_eq!(unpack(0), None, "no call is numbered 0");
        assert_eq!(unpack(6), None);
        assert_eq!(unpack(8 | 7), None, "there is no seventh class");
    }

    #[test]
    fn a_call_too_late_to_note_is_charged_at_once() {
        let mut clock = ModelClock::new(3);
        clock.calls = (1 << 61) - 2;
        let mut eager = clock.clone();
        let mut host = HostCharges::new(clock, true, vec![5; 9]);
        let mut trace = WorkerTrace::new(0);
        for class in [HostOpClass::Library, HostOpClass::Nccl, HostOpClass::Sync] {
            trace.events.push(maya_trace::TraceEvent {
                stream: maya_trace::StreamId::DEFAULT,
                op: maya_trace::DeviceOp::DeviceSynchronize,
                host_delay: host.charge(class),
            });
        }
        let charged: Vec<SimTime> = [HostOpClass::Library, HostOpClass::Nccl, HostOpClass::Sync]
            .map(|class| eager.charge(class))
            .into();
        let delays = |trace: &WorkerTrace| -> Vec<SimTime> {
            trace.events.iter().map(|e| e.host_delay).collect()
        };
        assert_eq!(
            delays(&trace),
            [SimTime::ZERO, charged[1], charged[2]],
            "call 2^61 - 1 is noted, the two after it are not"
        );
        assert_eq!(host.owed(), 3, "stale notes are gone, every event has one");
        let notes = host.settle(&mut trace);
        assert_eq!(delays(&trace), charged);
        assert!(notes.is_empty() && notes.capacity() >= 9);
    }

    #[test]
    fn model_clock_scales_with_cpu_speed() {
        let mut fast = ModelClock::new(7);
        let mut slow = ModelClock::new(7);
        slow.cpu_speed = 2.0;
        let tf = fast.charge(HostOpClass::KernelLaunch);
        let ts = slow.charge(HostOpClass::KernelLaunch);
        // Nanosecond rounding in `SimTime` allows a tiny deviation.
        assert!((ts.as_us() / tf.as_us() - 2.0).abs() < 1e-3);
    }

    #[test]
    fn library_calls_cost_more_than_sync() {
        let mut c = ModelClock::new(1);
        c.jitter = 0.0;
        let lib = c.charge(HostOpClass::Library);
        let sync = c.charge(HostOpClass::Sync);
        assert!(lib > sync);
    }
}
