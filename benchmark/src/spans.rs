//! The benchmark's own in-memory span recorder.
//!
//! The traced run wraps every call into a layer in a span (name, start,
//! end, parent, sample id). Spans stay in memory and are written out in
//! Chrome-trace form when the run ends. A layer's self time is its
//! span's duration minus the part of it its child spans cover. Spans
//! inside `crates/` are a later issue; these are recorded from outside.

use std::collections::BTreeMap;
use std::time::Instant;

use maya_obs::SpanRecord;

/// One closed (or still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The sample this span belongs to.
    pub sample: u32,
}

/// Single-threaded span recorder: spans nest by call order.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    sample: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            sample: 0,
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the sample id stamped on spans opened from now on.
    pub fn set_sample(&mut self, sample: u32) {
        self.sample = sample;
    }

    /// Runs `f` inside a span named `name`, nested under whichever span
    /// is open, and returns its result with the span's wall seconds.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> (R, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            sample: self.sample,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome-trace JSON of every span; each sample gets its own row.
    pub fn chrome_trace(&self) -> String {
        let flat: Vec<SpanRecord> = self
            .spans
            .iter()
            .map(|s| SpanRecord {
                name: s.name,
                start_us: s.start_ns / 1000,
                dur_us: (s.end_ns - s.start_ns) / 1000,
                thread: s.sample,
            })
            .collect();
        maya_obs::chrome_trace_json(&flat, &[])
    }
}

/// Self time of every span, in nanoseconds: its duration minus the
/// union of its children's intervals clipped to it.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Self seconds summed by span name within each sample: `name ->
/// (sample, total)` for every sample that recorded the name, in sample
/// order.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<(u32, f64)>> {
    let mut per: BTreeMap<(&'static str, u32), f64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *per.entry((s.name, s.sample)).or_insert(0.0) += ns as f64 * 1e-9;
    }
    let mut out: BTreeMap<&'static str, Vec<(u32, f64)>> = BTreeMap::new();
    for ((name, sample), secs) in per {
        out.entry(name).or_default().push((sample, secs));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            sample: 0,
        }
    }

    #[test]
    fn self_time_of_nested_spans() {
        // root 0..100 > a 10..60 > b 20..30
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_of_adjacent_children() {
        // Two children that touch cover 0..80 of the root exactly once.
        let spans = [
            span("root", 0, 100, None),
            span("a", 0, 40, Some(0)),
            span("b", 40, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 40, 40]);
    }

    #[test]
    fn self_time_of_zero_length_and_overlapping_children() {
        let spans = [
            span("root", 0, 100, None),
            span("empty", 50, 50, Some(0)),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("leaf", 0, 0, None),
        ];
        // a ∪ b = 10..70; the empty child covers nothing.
        assert_eq!(self_times_ns(&spans), vec![40, 0, 40, 40, 0]);
    }

    #[test]
    fn recorder_nests_by_call_order_and_groups_by_sample() {
        let mut rec = Recorder::default();
        for sample in 0..2 {
            rec.set_sample(sample);
            rec.span("outer", |rec| {
                rec.span("inner", |_| std::hint::black_box(1 + 1));
                rec.span("inner", |_| ());
            });
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[4].parent, Some(3));
        assert_eq!(spans[4].sample, 1);
        let by_name = self_seconds_by_name(spans);
        assert_eq!(by_name["inner"].len(), 2, "two inner spans fold per sample");
        assert_eq!(by_name["outer"].len(), 2);
        assert_eq!(by_name["outer"][1].0, 1, "totals carry their sample id");
        let total: f64 = by_name.values().flatten().map(|&(_, secs)| secs).sum();
        let walls: f64 = [0, 3]
            .iter()
            .map(|&i| (spans[i].end_ns - spans[i].start_ns) as f64 * 1e-9)
            .sum();
        assert!((total - walls).abs() < 1e-9, "self times sum to the roots");
        let trace = rec.chrome_trace();
        assert!(trace.trim_start().starts_with('[') && trace.contains("\"outer\""));
    }
}
