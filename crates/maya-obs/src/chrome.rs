//! Chrome-trace JSON export (`chrome://tracing` / Perfetto "JSON
//! array" format): every event is a complete `"X"` (duration) phase
//! with microsecond timestamps, so the file loads directly in the
//! trace viewer with no footer or metadata required.

use std::fmt::Write as _;
use std::time::Duration;

use crate::span::{SpanNode, SpanRecord};

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn event(out: &mut String, name: &str, ts_us: u64, dur_us: u64, pid: u32, tid: u32, first: bool) {
    if !first {
        out.push_str(",\n");
    }
    let _ = write!(
        out,
        "  {{\"name\": \"{}\", \"cat\": \"maya\", \"ph\": \"X\", \"ts\": {}, \
         \"dur\": {}, \"pid\": {}, \"tid\": {}}}",
        esc(name),
        ts_us,
        dur_us,
        pid,
        tid
    );
}

fn walk_tree(out: &mut String, node: &SpanNode, origin: Duration, tid: u32, first: &mut bool) {
    let start = origin + node.start;
    event(
        out,
        &node.name,
        start.as_micros() as u64,
        node.duration.as_micros() as u64,
        1,
        tid,
        *first,
    );
    *first = false;
    for child in &node.children {
        // Child offsets are relative to the same tree origin.
        walk_tree(out, child, origin, tid, first);
    }
}

/// Renders flat spans plus job span trees as one
/// Chrome-trace JSON array. Flat spans keep their recording thread as
/// `tid`; each job tree gets its own synthetic `tid` starting above
/// the flat ones, laid out end to end so overlapping jobs stay
/// readable.
pub fn chrome_trace_json(flat: &[SpanRecord], jobs: &[SpanNode]) -> String {
    let mut out = String::with_capacity(256 + 128 * (flat.len() + jobs.len()));
    out.push_str("[\n");
    let mut first = true;
    for span in flat {
        event(
            &mut out,
            span.name,
            span.start_us,
            span.dur_us,
            1,
            span.thread,
            first,
        );
        first = false;
    }
    let base_tid = flat.iter().map(|s| s.thread + 1).max().unwrap_or(0) + 100;
    let mut origin = Duration::ZERO;
    for (i, tree) in jobs.iter().enumerate() {
        walk_tree(&mut out, tree, origin, base_tid + i as u32, &mut first);
        origin += tree.duration + Duration::from_micros(50);
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_is_balanced_json_with_all_events() {
        let flat = vec![
            SpanRecord {
                name: "sim.run",
                start_us: 10,
                dur_us: 90,
                thread: 0,
            },
            SpanRecord {
                name: "flow.solve",
                start_us: 40,
                dur_us: 5,
                thread: 1,
            },
        ];
        let ms = Duration::from_millis;
        let job = SpanNode::leaf("job", ms(0), ms(10)).with_child(SpanNode::leaf(
            "queued \"q\"",
            ms(0),
            ms(2),
        ));
        let json = chrome_trace_json(&flat, &[job]);
        for key in ["\"sim.run\"", "\"flow.solve\"", "\"job\"", "\\\"q\\\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 4);
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "unbalanced JSON: {json}");
    }

    #[test]
    fn span_names_are_escaped() {
        let name = "a\"b\\c\nd\te\u{1}f";
        let job = SpanNode::leaf(name, Duration::ZERO, Duration::from_millis(1));
        let json = chrome_trace_json(&[], &[job]);
        assert!(json.contains(r#""name": "a\"b\\c\nd\te\u0001f""#), "{json}");
        assert!(
            !json.contains(['\t', '\u{1}']),
            "raw control characters: {json}"
        );
        assert_eq!(json.lines().count(), 3, "one event line: {json}");
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "unbalanced JSON: {json}");
    }

    #[test]
    fn empty_export_is_an_empty_array() {
        let json = chrome_trace_json(&[], &[]);
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
    }
}
