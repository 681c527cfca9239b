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
    fn empty_snapshot_round_trips() {
        let snap = ObsSnapshot::default();
        let back: ObsSnapshot = serde::from_str(&serde::to_string(&snap)).unwrap();
        assert_eq!(back, snap);
    }
}
