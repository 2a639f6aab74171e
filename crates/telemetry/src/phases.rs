//! Wall-clock phase timers.
//!
//! A round passes through a fixed pipeline; each stage's wall-clock
//! duration (in microseconds) is recorded into one alloc-free
//! [`LatencyHistogram`] per phase. Everything here is *outside* the
//! determinism contract: timings vary run to run and must never feed
//! back into simulation state or byte-identity assertions.

use crate::histogram::LatencyHistogram;
use serde::{Deserialize, Serialize};

/// The fixed round pipeline stages.
///
/// * `Advance` — mobility advance + intent collection (engine).
/// * `Geometry` — spatial-index and neighborhood-cache maintenance
///   (medium).
/// * `Finalize` — the receiver walk: every receiver resolved through
///   the delivery rule, in intent order (medium).
/// * `Deliver` — stats, trace capture, and protocol delivery (engine).
/// * `Checker` — scenario-level invariant checking / audit capture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Advance,
    Geometry,
    Finalize,
    Deliver,
    Checker,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 5] = [
        Phase::Advance,
        Phase::Geometry,
        Phase::Finalize,
        Phase::Deliver,
        Phase::Checker,
    ];

    /// Stable lowercase name (used in summaries, tables, traces).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Advance => "advance",
            Phase::Geometry => "geometry",
            Phase::Finalize => "finalize",
            Phase::Deliver => "deliver",
            Phase::Checker => "checker",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Advance => 0,
            Phase::Geometry => 1,
            Phase::Finalize => 2,
            Phase::Deliver => 3,
            Phase::Checker => 4,
        }
    }
}

/// One histogram per phase; `record` is a single bucket increment.
#[derive(Clone, Debug, Default)]
pub struct PhaseTimers {
    hists: [LatencyHistogram; 5],
}

impl PhaseTimers {
    /// Records one phase duration in microseconds.
    pub fn record(&mut self, phase: Phase, micros: u64) {
        self.hists[phase.index()].record(micros);
    }

    /// The histogram for one phase.
    pub fn hist(&self, phase: Phase) -> &LatencyHistogram {
        &self.hists[phase.index()]
    }

    /// Adds every observation of `other` into `self`.
    pub fn merge(&mut self, other: &PhaseTimers) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }

    /// The phase-wise delta `self - earlier` (see
    /// [`LatencyHistogram::subtracting`]): `earlier` must be a prior
    /// snapshot of the same growing timers.
    pub fn subtracting(&self, earlier: &PhaseTimers) -> PhaseTimers {
        let mut d = self.clone();
        for (a, b) in d.hists.iter_mut().zip(&earlier.hists) {
            *a = a.subtracting(b);
        }
        d
    }

    /// Condenses the histograms into serializable per-phase rows.
    pub fn summary(&self) -> PhaseSummary {
        PhaseSummary {
            phases: Phase::ALL
                .iter()
                .map(|&p| {
                    let h = self.hist(p);
                    // Quantiles of an unused phase are undefined (the
                    // histogram reports its sentinel); serialize them
                    // as 0 so "phase never ran" stays visibly inert
                    // in artifacts — `samples == 0` is the signal.
                    let q = |v: u64| if h.count() == 0 { 0 } else { v };
                    PhaseStats {
                        phase: p.name().to_string(),
                        samples: h.count(),
                        total_us: h.sum(),
                        p50_us: q(h.p50()),
                        p95_us: q(h.p95()),
                        p99_us: q(h.p99()),
                        max_us: h.max(),
                    }
                })
                .collect(),
        }
    }
}

/// Serializable wall-clock digest: one [`PhaseStats`] row per phase,
/// in pipeline order. All-integer so it survives the vendored JSON
/// round trip exactly.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseSummary {
    /// Rows in [`Phase::ALL`] order.
    pub phases: Vec<PhaseStats>,
}

impl PhaseSummary {
    /// The row for a phase, if it was summarized.
    pub fn get(&self, phase: Phase) -> Option<&PhaseStats> {
        self.phases.iter().find(|s| s.phase == phase.name())
    }
}

/// Wall-clock digest of one phase (all durations in microseconds).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseStats {
    /// Phase name (see [`Phase::name`]).
    pub phase: String,
    /// Number of recorded durations.
    pub samples: u64,
    /// Sum of all durations.
    pub total_us: u64,
    /// Median duration.
    pub p50_us: u64,
    /// 95th-percentile duration.
    pub p95_us: u64,
    /// 99th-percentile duration.
    pub p99_us: u64,
    /// Largest duration.
    pub max_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_lands_in_the_right_phase() {
        let mut t = PhaseTimers::default();
        t.record(Phase::Geometry, 50);
        t.record(Phase::Geometry, 60);
        t.record(Phase::Deliver, 5);
        assert_eq!(t.hist(Phase::Geometry).count(), 2);
        assert_eq!(t.hist(Phase::Deliver).count(), 1);
        assert_eq!(t.hist(Phase::Advance).count(), 0);
    }

    #[test]
    fn summary_has_one_row_per_phase_in_order() {
        let mut t = PhaseTimers::default();
        t.record(Phase::Checker, 1000);
        let s = t.summary();
        assert_eq!(s.phases.len(), Phase::ALL.len());
        for (row, phase) in s.phases.iter().zip(Phase::ALL) {
            assert_eq!(row.phase, phase.name());
        }
        let checker = s.get(Phase::Checker).unwrap();
        assert_eq!(checker.samples, 1);
        assert_eq!(checker.total_us, 1000);
        assert!(checker.p50_us > 0);
        // Unused phases serialize inert zero rows, not the histogram's
        // empty-quantile sentinel.
        let advance = s.get(Phase::Advance).unwrap();
        assert_eq!(advance.samples, 0);
        assert_eq!(advance.p50_us, 0);
        assert_eq!(advance.p99_us, 0);
    }

    #[test]
    fn merge_accumulates_across_timers() {
        let mut a = PhaseTimers::default();
        let mut b = PhaseTimers::default();
        a.record(Phase::Advance, 10);
        b.record(Phase::Advance, 20);
        b.record(Phase::Finalize, 30);
        a.merge(&b);
        assert_eq!(a.hist(Phase::Advance).count(), 2);
        assert_eq!(a.hist(Phase::Advance).sum(), 30);
        assert_eq!(a.hist(Phase::Finalize).count(), 1);
    }

    #[test]
    fn subtract_inverts_merge_per_phase() {
        let mut a = PhaseTimers::default();
        let mut b = PhaseTimers::default();
        a.record(Phase::Advance, 10);
        a.record(Phase::Geometry, 55);
        b.record(Phase::Advance, 20);
        b.record(Phase::Finalize, 30);
        let mut total = a.clone();
        total.merge(&b);
        let d = total.subtracting(&a);
        for p in Phase::ALL {
            assert_eq!(
                d.hist(p).bucket_counts(),
                b.hist(p).bucket_counts(),
                "phase {} buckets",
                p.name()
            );
            assert_eq!(d.hist(p).sum(), b.hist(p).sum());
        }
    }

    #[test]
    fn summary_round_trips_through_json() {
        let mut t = PhaseTimers::default();
        t.record(Phase::Geometry, 123);
        t.record(Phase::Geometry, 456);
        let s = t.summary();
        let json = serde_json::to_string(&s).unwrap();
        let back: PhaseSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
