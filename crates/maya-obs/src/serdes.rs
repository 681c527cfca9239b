//! Compact-format codecs for the snapshot vocabulary, so a full
//! [`ObsSnapshot`] — and the span trees inside it — can cross the wire
//! in a `Scrape` frame and re-encode byte-identically.

use crate::metrics::{HistogramSnapshot, ObsSnapshot};
use crate::span::SpanNode;

serde::codec! {
    struct HistogramSnapshot { count, sum, buckets }
    struct SpanNode { name, start, duration, children }
    struct ObsSnapshot { counters, gauges, histograms, recent_jobs }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl ObsSnapshot {
    /// Human-readable JSON rendering (metrics only; job trees export
    /// through [`crate::chrome::chrome_trace_json`]).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (n, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_str(n), v);
        }
        out.push_str("},\"gauges\":{");
        for (i, (n, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_str(n), v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (n, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{}}}",
                json_str(n),
                h.count,
                h.sum,
                h.quantile(0.50),
                h.quantile(0.99)
            );
        }
        let _ = write!(out, "}},\"recent_jobs\":{}}}", self.recent_jobs.len());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_snapshot() -> ObsSnapshot {
        let reg = crate::Registry::new();
        reg.counter("serve.served").add(3);
        reg.counter("sim.events").add(12_345);
        reg.gauge("queue.depth").set(-2);
        let h = reg.histogram("serve.queue_wait_us");
        for v in [1u64, 5, 900, 4096, 1 << 33] {
            h.record(v);
        }
        let mut snap = reg.snapshot();
        snap.recent_jobs.push(
            SpanNode::leaf("job", Duration::ZERO, Duration::from_millis(12)).with_child(
                SpanNode::leaf(
                    "queued name with spaces",
                    Duration::ZERO,
                    Duration::from_millis(2),
                ),
            ),
        );
        snap
    }

    #[test]
    fn snapshot_round_trips_byte_identically() {
        let snap = sample_snapshot();
        let text = serde::to_string(&snap);
        let back: ObsSnapshot = serde::from_str(&text).expect("decode");
        assert_eq!(back, snap);
        assert_eq!(serde::to_string(&back), text);
    }

    #[test]
    fn json_rendering_is_balanced_and_carries_names() {
        let json = sample_snapshot().to_json();
        for key in [
            "serve.served",
            "queue.depth",
            "serve.queue_wait_us",
            "\"p99\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "unbalanced: {json}");
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = ObsSnapshot::default();
        let back: ObsSnapshot = serde::from_str(&serde::to_string(&snap)).unwrap();
        assert_eq!(back, snap);
    }
}
