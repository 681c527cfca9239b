//! Minimal JSON export for traces.
//!
//! The paper's emulator writes traces as JSON event lists (Figure 3 shows
//! `{"events": [{"dev": "gpu0-stream0", "op": "cublasSgemm_v2"}, ...]}`).
//! This module provides a small hand-rolled writer with the same shape, so
//! the repository avoids a `serde_json` dependency while still producing
//! inspectable artifacts.

use std::fmt::Write as _;

use crate::event::{JobTrace, WorkerTrace};
use crate::ops::DeviceOp;

/// Escapes a string for inclusion in a JSON document. Public so the
/// downstream `to_json` exporters (predictions in `maya`, search
/// results in `maya-search`, wire responses in `maya-wire`) share it.
/// Two crates keep their own copy: `maya-obs` (its Chrome-trace export)
/// and `maya-lint` (its report). Neither depends on `maya-trace`, and
/// adding that edge would rewrite both the workspace's and the
/// benchmark's lock files.
pub fn escape(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders a string as a quoted, escaped JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape(s, &mut out);
    out.push('"');
    out
}

/// Serializes one worker trace into the paper's event-list JSON shape.
pub fn worker_trace_to_json(trace: &WorkerTrace) -> String {
    let mut out = String::with_capacity(trace.events.len() * 64 + 128);
    let _ = write!(out, "{{\"rank\":{},\"events\":[", trace.rank);
    for (i, e) in trace.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"dev\":\"gpu{}-stream{}\",\"op\":\"",
            trace.rank, e.stream.0
        );
        escape(e.op.name(), &mut out);
        let _ = write!(out, "\",\"host_delay_ns\":{}", e.host_delay.as_ns());
        match e.op {
            DeviceOp::KernelLaunch { kernel } => {
                let _ = write!(
                    out,
                    ",\"flops\":{},\"bytes\":{}",
                    kernel.flops() as u64,
                    kernel.bytes_accessed() as u64
                );
            }
            DeviceOp::MemcpyAsync { bytes, .. } => {
                let _ = write!(out, ",\"bytes\":{bytes}");
            }
            DeviceOp::Collective { desc } => {
                let _ = write!(
                    out,
                    ",\"comm\":{},\"seq\":{},\"bytes\":{},\"nranks\":{}",
                    desc.comm_id, desc.seq, desc.bytes, desc.nranks
                );
            }
            DeviceOp::Malloc { bytes, ptr } => {
                let _ = write!(out, ",\"bytes\":{bytes},\"ptr\":{ptr}");
            }
            _ => {}
        }
        out.push('}');
    }
    let _ = write!(
        out,
        "],\"peak_mem_bytes\":{},\"oom\":{}}}",
        trace.summary.peak_mem_bytes, trace.summary.oom
    );
    out
}

/// Serializes a collated job trace (workers + communicator groups).
pub fn job_trace_to_json(job: &JobTrace) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"nranks\":{},\"comm_groups\":{{", job.nranks);
    for (i, (comm, members)) in job.comm_groups.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{comm}\":[");
        for (j, m) in members.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{m}");
        }
        out.push(']');
    }
    out.push_str("},\"workers\":[");
    for (i, w) in job.workers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&worker_trace_to_json(w));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::kernel::KernelKind;
    use crate::ops::StreamId;
    use crate::{Dtype, SimTime};
    use std::collections::BTreeMap;

    #[test]
    fn escaping() {
        let mut s = String::new();
        escape("a\"b\\c\nd", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn worker_json_shape() {
        let mut w = WorkerTrace::new(0);
        w.events.push(TraceEvent {
            stream: StreamId::DEFAULT,
            op: DeviceOp::KernelLaunch {
                kernel: KernelKind::Gemm {
                    m: 4,
                    n: 4,
                    k: 4,
                    dtype: Dtype::Fp32,
                },
            },
            host_delay: SimTime::from_us(5.0),
        });
        let json = worker_trace_to_json(&w);
        assert!(json.contains("\"dev\":\"gpu0-stream0\""), "{json}");
        assert!(json.contains("\"op\":\"cublasSgemm_v2\""), "{json}");
        assert!(json.contains("\"host_delay_ns\":5000"), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn job_json_contains_groups() {
        let mut groups = BTreeMap::new();
        groups.insert(42u64, vec![0u32, 1u32]);
        let job = JobTrace {
            nranks: 2,
            workers: vec![WorkerTrace::new(0), WorkerTrace::new(1)],
            comm_groups: groups,
        };
        let json = job_trace_to_json(&job);
        assert!(json.contains("\"42\":[0,1]"), "{json}");
        assert!(json.contains("\"nranks\":2"), "{json}");
    }
}
