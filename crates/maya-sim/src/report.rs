//! Simulation output: the paper's "comprehensive simulation report".

use maya_trace::SimTime;

/// What a simulation run reports (Figure 5's "Simulation Report":
/// batch time, communication time, peak memory usage).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimReport {
    /// End-to-end traced-region time (max over ranks).
    pub total_time: SimTime,
    /// Per-present-worker completion times.
    pub rank_end_times: Vec<SimTime>,
    /// Communication-busy time on the busiest rank.
    pub comm_time: SimTime,
    /// Compute-busy time on the busiest rank (summed kernel durations).
    pub compute_time: SimTime,
    /// Host-dispatch time on the busiest rank.
    pub host_time: SimTime,
    /// Peak device memory across ranks (from emulation summaries).
    pub peak_mem_bytes: u64,
    /// Discrete events processed (for the Fig. 13 scaling study).
    pub events_processed: u64,
}

serde::codec! {
    struct SimReport {
        total_time,
        rank_end_times,
        comm_time,
        compute_time,
        host_time,
        peak_mem_bytes,
        events_processed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_the_wire_codec() {
        let r = SimReport {
            total_time: SimTime::from_ms(100.0),
            rank_end_times: vec![SimTime::from_ms(99.0), SimTime::from_ms(100.0)],
            comm_time: SimTime::from_ms(25.0),
            compute_time: SimTime::from_ms(70.0),
            host_time: SimTime::from_ms(5.0),
            peak_mem_bytes: 38 * 1024 * 1024 * 1024,
            events_processed: 1000,
        };
        let text = serde::to_string(&r);
        let back: SimReport = serde::from_str(&text).expect("decode");
        assert_eq!(serde::to_string(&back), text);
        assert_eq!(back.total_time, r.total_time);
        assert_eq!(back.rank_end_times, r.rank_end_times);
        assert_eq!(back.events_processed, r.events_processed);
    }
}
