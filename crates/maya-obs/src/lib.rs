//! Maya-Obs: the unified observability layer — one metrics registry,
//! one span vocabulary, one flight recorder — threaded through every
//! stage of the stack (simulator, estimator cache, admission queue,
//! service, wire protocol) in place of the per-layer counters that
//! grew up around them.
//!
//! Three pieces:
//!
//! - **[`Registry`]** — named [`Counter`]s, [`Gauge`]s, and
//!   log-bucketed [`Histogram`]s behind cheap cloneable handles.
//!   Registration locks once per name; every update after that is a
//!   single relaxed atomic. [`Registry::snapshot`] is deterministic
//!   (sorted names) and the resulting [`ObsSnapshot`] has a compact
//!   wire codec, which is what a `Scrape` frame carries.
//! - **Span tracing** — [`FlightRecorder::span`] records flat timed
//!   spans into bounded per-thread rings (the flight recorder), and
//!   [`SpanNode`] is the explicit job-lifecycle tree
//!   (queued → execute → stages → reply) that rides on service
//!   telemetry. Both export as Chrome-trace JSON via
//!   [`chrome::chrome_trace_json`] — load the file at
//!   `chrome://tracing`.
//! - **[`ObsConfig`]** — the one zero-cost-when-off switch
//!   instrumented code branches on, for metrics and spans alike.
//!   `ObsConfig::off()` keeps hot paths exactly as uninstrumented (the
//!   benchmark's `obs.on_over_off` probe measures the cost of the *on*
//!   path).

pub mod chrome;
pub mod metrics;
pub mod serdes;
pub mod span;

pub use chrome::chrome_trace_json;
pub use metrics::{
    bucket_index, bucket_lower_bound, Counter, Gauge, Histogram, HistogramSnapshot, ObsSnapshot,
    Registry, HISTOGRAM_BUCKETS,
};
pub use span::{FlightRecorder, JobTreeRing, SpanGuard, SpanNode, SpanRecord};

/// The instrumentation switch: whether instrumented code publishes
/// metrics and records spans. Both channels move together — a service
/// is observed or it is not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    enabled: bool,
}

impl ObsConfig {
    /// Metrics and spans on.
    pub fn on() -> ObsConfig {
        ObsConfig { enabled: true }
    }

    /// Everything off: instrumented code must cost the same as before
    /// it was instrumented.
    pub fn off() -> ObsConfig {
        ObsConfig { enabled: false }
    }

    /// Whether instrumentation is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }
}

impl Default for ObsConfig {
    /// Defaults to on: per-job instrumentation is cheap, and a server
    /// should answer a `Scrape` out of the box. Per-event hot loops
    /// (the simulator core) are only instrumented when explicitly
    /// given handles, so the default stays free there.
    fn default() -> Self {
        ObsConfig::on()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_toggles() {
        assert!(ObsConfig::default().enabled());
        assert_eq!(ObsConfig::default(), ObsConfig::on());
        assert!(!ObsConfig::off().enabled());
    }
}
