//! # vi-telemetry
//!
//! Observability for the deterministic simulator stack, split along
//! the determinism boundary:
//!
//! * **Deterministic counters** ([`Counters`], module [`counters`]) —
//!   plain `u64` totals of *logical* engine decisions (rounds by
//!   resolver mode, fallback causes, grid queries,
//!   receptions, adversary consultations, …). Counters are part of
//!   the determinism contract: for a fixed `(spec, seed)` they are
//!   byte-identical however many sweep workers share the jobs,
//!   because a run owns its engine and every round of it resolves on
//!   one thread.
//! * **Wall-clock phase timers** ([`PhaseTimers`], module [`phases`])
//!   — per-round durations of the advance / geometry / finalize /
//!   deliver / checker phases, aggregated into alloc-free log-linear
//!   [`LatencyHistogram`]s. Wall-clock is *explicitly outside* the
//!   determinism contract and excluded from byte-identity comparisons
//!   (see [`TelemetrySummary`]'s `PartialEq`).
//! * **Causal tracing** ([`CausalRecorder`], module [`causal`]) —
//!   deterministic trace ids for client ops, protocol broadcasts, and
//!   CHA propose/decide chains, reconstructed into per-run causal
//!   DAGs with per-app invoke→decide latency timelines. Ids come from
//!   a dedicated SplitMix64 stream, so tracing never perturbs the
//!   simulation RNG.
//! * **Flight recorder** ([`FlightRecorder`], module [`flight`]) — a
//!   bounded ring of the last K rounds of structured events
//!   (receptions, adversary verdicts, churn, nemesis crashes), the
//!   raw material for replayable incident bundles.
//! * **Live monitoring** ([`Monitor`], module [`monitor`]) — periodic
//!   [`TelemetrySnapshot`]s every K rounds (counter deltas, phase
//!   histogram deltas, in-flight traffic) streamed through pluggable
//!   [`MonitorSink`]s: a JSONL event log (`VI_MONITOR_LOG`), a bounded
//!   in-memory ring, and a Prometheus-text `/metrics` exporter
//!   (`VI_MONITOR_ADDR`).
//! * **Perfetto/Chrome trace export** ([`TraceSink`], module
//!   [`trace_export`]) — one more [`MonitorSink`]: sweep job events
//!   become per-job and per-worker spans, a [`MonitorEvent::Causal`]
//!   DAG becomes flow arrows, and every flush rewrites the Chrome
//!   trace-event JSON file (opens in `ui.perfetto.dev`) with
//!   everything seen so far. `VI_TRACE=out.json` adds one to the
//!   environment's sinks ([`monitor::env`]); it requests no snapshot
//!   sampling.
//!
//! The counters, the phase timers, the two recorders and the monitor
//! of one run share one state behind one [`Observers`] handle (module
//! [`observers`]), cloned into every layer that reports. The handle is
//! null by default, so an unobserved run pays one branch per hook
//! (guarded by the zero-alloc test and the CI telemetry-overhead
//! check).

#![forbid(unsafe_code)]

pub mod causal;
pub mod counters;
pub mod flight;
pub mod histogram;
pub mod monitor;
pub mod observers;
pub mod phases;
pub mod trace_export;

pub use causal::{CausalEdge, CausalRecorder, CausalSpan, CausalSummary, DecisionStats, SpanKind};
pub use counters::Counters;
pub use flight::{FlightEvent, FlightRecorder, RoundWindow};
pub use histogram::{LatencyHistogram, BUCKETS, EMPTY_QUANTILE};
pub use monitor::{
    JobEvent, JobState, JsonlSink, Monitor, MonitorEvent, MonitorSink, PrometheusExporter,
    RingSink, SinkSet, TelemetrySnapshot, TrafficProgress,
};
pub use observers::Observers;
pub use phases::{Phase, PhaseStats, PhaseSummary, PhaseTimers};
pub use trace_export::TraceSink;

use serde::{Deserialize, Serialize};

/// Everything one telemetry-enabled run measured: the deterministic
/// counter totals plus the wall-clock phase breakdown.
///
/// Serialized in full (counters *and* phases), but compared by
/// counters only: `PartialEq` deliberately ignores the wall-clock
/// fields so that telemetry-enabled outcomes can be asserted equal
/// across worker counts — the assertion then checks exactly the
/// deterministic contract and tolerates timing jitter.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TelemetrySummary {
    /// Deterministic per-run totals (worker-count independent).
    pub counters: Counters,
    /// Wall-clock per-phase durations (noise; never byte-identical).
    pub phases: PhaseSummary,
}

impl PartialEq for TelemetrySummary {
    fn eq(&self, other: &Self) -> bool {
        self.counters == other.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_equality_ignores_wall_clock() {
        let mut a = TelemetrySummary {
            counters: Counters::default(),
            phases: PhaseTimers::default().summary(),
        };
        let mut b = a.clone();
        let mut timers = PhaseTimers::default();
        timers.record(Phase::Geometry, 123);
        b.phases = timers.summary();
        assert_eq!(a, b, "wall-clock fields must not break equality");
        a.counters.rounds_total = 1;
        assert_ne!(a, b, "counter drift must break equality");
    }

    #[test]
    fn summary_round_trips_through_json() {
        let mut timers = PhaseTimers::default();
        timers.record(Phase::Advance, 10);
        timers.record(Phase::Deliver, 99);
        let counters = Counters {
            rounds_total: 3,
            rounds_steady: 2,
            grid_queries: 41,
            ..Counters::default()
        };
        let summary = TelemetrySummary {
            counters,
            phases: timers.summary(),
        };
        let json = serde_json::to_string(&summary).unwrap();
        let back: TelemetrySummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back.counters, summary.counters);
        assert_eq!(back.phases, summary.phases);
    }
}
