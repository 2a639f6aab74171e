//! The probe handle threaded through the engine.
//!
//! A [`Probe`] is either *null* (the default — every operation is one
//! branch on an `Option` and returns immediately) or *live* (a shared
//! handle onto one run's counters and phase timers). The engine,
//! medium, and scenario layer each hold a clone of the same probe, so
//! all instrumentation lands in one [`TelemetrySummary`].
//!
//! `Rc<RefCell<_>>` (not `Arc<Mutex<_>>`) is deliberate: every engine
//! is constructed, stepped, and consumed on a single thread (sweep
//! workers own their engines outright, and a round never leaves the
//! thread that steps it). Keeping the handle `!Send` makes that
//! invariant a compile error instead of a data race.

use crate::counters::Counters;
use crate::phases::{Phase, PhaseTimers};
use crate::TelemetrySummary;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

#[derive(Debug, Default)]
struct TelemetryState {
    counters: Counters,
    phases: PhaseTimers,
}

/// Cloneable telemetry handle; null by default.
#[derive(Clone, Debug, Default)]
pub struct Probe {
    state: Option<Rc<RefCell<TelemetryState>>>,
}

impl Probe {
    /// The null probe: every operation is a single branch, no
    /// allocation anywhere (this is the hot-path default).
    pub fn disabled() -> Self {
        Probe { state: None }
    }

    /// A live probe with fresh counters and timers.
    pub fn enabled() -> Self {
        Probe {
            state: Some(Rc::new(RefCell::new(TelemetryState::default()))),
        }
    }

    /// Whether this probe records anything.
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Applies `f` to the counters — a no-op on a null probe, so
    /// increment sites read `probe.count(|c| c.rounds_total += 1)`.
    #[inline]
    pub fn count(&self, f: impl FnOnce(&mut Counters)) {
        if let Some(state) = &self.state {
            f(&mut state.borrow_mut().counters);
        }
    }

    /// Starts a phase timer — `None` on a null probe, so the disabled
    /// path never calls `Instant::now()`.
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        self.state.as_ref().map(|_| Instant::now())
    }

    /// Records the time elapsed since a [`Probe::timer`] start into
    /// `phase`'s histogram. A `None` start (null probe) is a no-op.
    #[inline]
    pub fn phase_since(&self, phase: Phase, start: Option<Instant>) {
        if let (Some(state), Some(start)) = (&self.state, start) {
            let micros = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
            state.borrow_mut().phases.record(phase, micros);
        }
    }

    /// A copy of the deterministic counters, if live.
    pub fn counters(&self) -> Option<Counters> {
        self.state.as_ref().map(|s| s.borrow().counters)
    }

    /// A copy of the raw phase timers, if live — the monitor snapshots
    /// these to compute per-window histogram deltas (the condensed
    /// [`crate::PhaseSummary`] loses the buckets, so deltas need the
    /// timers themselves).
    pub fn phase_timers(&self) -> Option<PhaseTimers> {
        self.state.as_ref().map(|s| s.borrow().phases.clone())
    }

    /// The full summary (counters + phase digest), if live.
    pub fn summary(&self) -> Option<TelemetrySummary> {
        self.state.as_ref().map(|s| {
            let state = s.borrow();
            TelemetrySummary {
                counters: state.counters,
                phases: state.phases.summary(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_probe_records_nothing() {
        let p = Probe::disabled();
        assert!(!p.is_enabled());
        p.count(|c| c.rounds_total += 1);
        assert!(p.timer().is_none());
        p.phase_since(Phase::Advance, None);
        assert!(p.counters().is_none());
        assert!(p.summary().is_none());
    }

    #[test]
    fn clones_share_one_state() {
        let p = Probe::enabled();
        let q = p.clone();
        p.count(|c| c.rounds_total += 1);
        q.count(|c| c.rounds_total += 1);
        let summary = p.summary().unwrap();
        assert_eq!(summary.counters.rounds_total, 2);
    }

    #[test]
    fn phase_timer_lands_in_summary() {
        let p = Probe::enabled();
        let t = p.timer();
        assert!(t.is_some());
        p.phase_since(Phase::Geometry, t);
        let summary = p.summary().unwrap();
        let geom = summary.phases.get(Phase::Geometry).unwrap();
        assert_eq!(geom.samples, 1);
    }
}
