//! Streaming latency metrics: the per-run traffic summary, built on
//! the shared fixed-bucket histogram.
//!
//! The histogram itself ([`LatencyHistogram`]) lives in
//! `vi-telemetry` — it is the same structure the engine's wall-clock
//! phase timers aggregate into — and is re-exported here so existing
//! `vi_traffic::LatencyHistogram` users keep compiling unchanged. In
//! this crate it records latencies in *virtual rounds*: one `record`
//! per completed request, no allocation, no float arithmetic.

use serde::{Deserialize, Serialize};

pub use vi_telemetry::{LatencyHistogram, BUCKETS};

/// Everything measured about one traffic run: the row E16 reports per
/// `(app, scenario, mode)` and the payload `ScenarioOutcome` carries
/// for traffic workloads.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrafficSummary {
    /// The driven application (`register`, `mutex`, …).
    pub app: String,
    /// `open` or `closed`.
    pub mode: String,
    /// Requests admitted by the generator.
    pub issued: u64,
    /// Requests completed within their timeout.
    pub completed: u64,
    /// Requests dropped after `timeout_rounds` without a response.
    pub timed_out: u64,
    /// Requests still outstanding when the run ended (issued late
    /// enough that neither completion nor timeout resolved them).
    pub in_flight_at_end: u64,
    /// Completed-request latency distribution, in virtual rounds.
    pub latency: LatencyHistogram,
    /// Median latency (virtual rounds).
    pub p50: u64,
    /// 95th-percentile latency.
    pub p95: u64,
    /// 99th-percentile latency.
    pub p99: u64,
    /// Maximum latency (exact).
    pub max: u64,
    /// Mean latency.
    pub mean: f64,
    /// Completions per virtual round over the admission window.
    pub throughput_per_round: f64,
    /// Most completions observed in a single virtual round.
    pub peak_round_completions: u64,
}

impl TrafficSummary {
    /// Clients issued requests but none completed: the run's liveness
    /// stall.
    pub fn stalled(&self) -> bool {
        self.issued > 0 && self.completed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The histogram's own unit tests live in vi-telemetry; this
    // checks only the re-export keeps the traffic-facing contract.
    #[test]
    fn reexported_histogram_behaves() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 2, 3, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.p50(), 2, "3rd smallest of 0,1,2,3,3,7");
        assert_eq!(h.max(), 7);
        let json = serde_json::to_string(&h).unwrap();
        let back: LatencyHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }
}
