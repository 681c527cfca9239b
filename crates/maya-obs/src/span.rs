//! Span tracing: the [`SpanNode`] tree of a job's phases, the bounded
//! [`JobTreeRing`] of recent trees, and [`SpanRecord`], the flat span a
//! caller with its own recorder hands to [`crate::chrome`].
//!
//! A tree is built by code that already knows its phase structure —
//! the job lifecycle on `Telemetry` (queued → execute → stages →
//! reply) — as named intervals offset from a common origin. It is the
//! service's one span mechanism.

use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One completed flat span, as a caller's own recorder keeps it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name.
    pub name: &'static str,
    /// Start, microseconds since the recorder's epoch.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Recording thread, as a small dense id the recorder assigns.
    pub thread: u32,
}

/// One node of an explicit span tree: a named interval, offset from
/// the tree's origin, with nested children.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanNode {
    /// Phase name ("job", "queued", "simulation", ...).
    pub name: String,
    /// Offset of the interval start from the tree origin.
    pub start: Duration,
    /// Interval length.
    pub duration: Duration,
    /// Nested phases, in start order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// A leaf span.
    pub fn leaf(name: &str, start: Duration, duration: Duration) -> SpanNode {
        SpanNode {
            name: name.to_string(),
            start,
            duration,
            children: Vec::new(),
        }
    }

    /// Appends a child and returns `self` (builder style).
    pub fn with_child(mut self, child: SpanNode) -> SpanNode {
        self.children.push(child);
        self
    }

    /// Finds a descendant (or `self`) by name, depth-first.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Sum of the direct children's durations — the portion of this
    /// span its children account for.
    pub fn child_coverage(&self) -> Duration {
        self.children.iter().map(|c| c.duration).sum()
    }

    /// Total node count of the tree rooted here.
    pub fn len(&self) -> usize {
        1 + self.children.iter().map(SpanNode::len).sum::<usize>()
    }

    /// Whether the tree is a single childless node.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }
}

/// A bounded ring of recently completed job span trees keyed by job
/// id, shared by the service workers and drained into
/// [`crate::ObsSnapshot`]. Re-recording an id *replaces* that entry in
/// place, so a layer that enriches a tree (the wire server appending a
/// `reply` span to the worker's tree) upserts rather than duplicates.
#[derive(Clone)]
pub struct JobTreeRing {
    inner: Arc<Mutex<RingState>>,
}

/// The id-keyed ring entries plus the capacity bound.
type RingState = (std::collections::VecDeque<(u64, SpanNode)>, usize);

impl Default for JobTreeRing {
    fn default() -> Self {
        JobTreeRing::new(64)
    }
}

impl JobTreeRing {
    /// A ring keeping the latest `capacity` trees.
    pub fn new(capacity: usize) -> JobTreeRing {
        JobTreeRing {
            inner: Arc::new(Mutex::new((
                std::collections::VecDeque::new(),
                capacity.max(1),
            ))),
        }
    }

    /// Records (or replaces) the tree for job `id`, evicting the
    /// oldest entry at capacity.
    pub fn record(&self, id: u64, tree: SpanNode) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let cap = inner.1;
        if let Some(slot) = inner.0.iter_mut().find(|(k, _)| *k == id) {
            slot.1 = tree;
            return;
        }
        if inner.0.len() == cap {
            inner.0.pop_front();
        }
        inner.0.push_back((id, tree));
    }

    /// The retained trees, oldest first.
    pub fn trees(&self) -> Vec<SpanNode> {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.0.iter().map(|(_, t)| t.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_tree_finds_and_measures() {
        let ms = Duration::from_millis;
        let tree = SpanNode::leaf("job", ms(0), ms(10))
            .with_child(SpanNode::leaf("queued", ms(0), ms(2)))
            .with_child(
                SpanNode::leaf("execute", ms(2), ms(7)).with_child(SpanNode::leaf(
                    "simulation",
                    ms(3),
                    ms(5),
                )),
            )
            .with_child(SpanNode::leaf("reply", ms(9), ms(1)));
        assert_eq!(tree.len(), 5);
        assert_eq!(tree.find("simulation").unwrap().duration, ms(5));
        assert_eq!(tree.child_coverage(), ms(10));
    }

    #[test]
    fn job_ring_is_bounded() {
        let ring = JobTreeRing::new(2);
        for i in 0..5u64 {
            ring.record(
                i,
                SpanNode::leaf(&format!("job{i}"), Duration::ZERO, Duration::from_millis(1)),
            );
        }
        let trees = ring.trees();
        assert_eq!(trees.len(), 2);
        assert_eq!(trees[0].name, "job3");
        assert_eq!(trees[1].name, "job4");
    }

    #[test]
    fn job_ring_upserts_by_id() {
        let ring = JobTreeRing::new(4);
        let ms = Duration::from_millis;
        ring.record(7, SpanNode::leaf("job", ms(0), ms(5)));
        ring.record(8, SpanNode::leaf("job", ms(0), ms(3)));
        // The wire layer re-records id 7 with a reply child appended.
        ring.record(
            7,
            SpanNode::leaf("job", ms(0), ms(6)).with_child(SpanNode::leaf("reply", ms(5), ms(1))),
        );
        let trees = ring.trees();
        assert_eq!(trees.len(), 2, "upsert must not duplicate");
        // The upsert replaces id 7 in place, ahead of id 8.
        assert_eq!(trees[0].find("reply").unwrap().duration, ms(1));
        assert_eq!(trees[1].duration, ms(3));
    }
}
