//! The observer handle of one run.
//!
//! Everything that watches an execution without taking part in it —
//! the deterministic [`Counters`], the wall-clock [`PhaseTimers`], the
//! [`CausalRecorder`], the [`FlightRecorder`] and the live [`Monitor`]
//! — lives in one shared state behind one [`Observers`] handle. The
//! engine, the medium, each `ChaNode`, the traffic driver and the
//! scenario layer hold clones of it. A round's shared facts (open,
//! adversary consultations, close) go through one hook each, which
//! decides who records what; a site that feeds one recorder reaches it
//! through [`Observers::causal`] or [`Observers::flight`].
//!
//! The default handle is null: every hook is one branch on one
//! `Option`, with no `Rc` clone, `RefCell` borrow or allocation.
//! `Rc<RefCell<_>>` (not `Arc<Mutex<_>>`) is deliberate: a run is
//! built, stepped and consumed on one thread, and a `!Send` handle
//! makes that a compile error instead of a data race.

use crate::{
    CausalRecorder, CausalSummary, Counters, FlightEvent, FlightRecorder, Monitor, Phase,
    PhaseTimers, RoundWindow, TelemetrySummary, TrafficProgress,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// The observers of one run, one pointer wide; null by default.
#[derive(Clone, Default)]
pub struct Observers {
    state: Option<Rc<RefCell<ObserverState>>>,
}

impl std::fmt::Debug for Observers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observers")
            .field("live", &self.state.is_some())
            .finish()
    }
}

struct ObserverState {
    /// Whether engine rounds feed the counters, the phase timers and
    /// the monitor. Not in a traffic run: its engine feeds only the
    /// causal and flight parts, its counters hold the workload-level
    /// totals, and its monitor samples the driver's virtual rounds.
    engine_rounds: bool,
    counters: Counters,
    phases: PhaseTimers,
    causal: Option<CausalRecorder>,
    flight: Option<FlightRecorder>,
    monitor: Option<Monitor>,
}

impl Observers {
    /// A live handle: counters and phase timers on, every recorder off
    /// until a `with_*` below adds it. `traffic` says whether the run
    /// is a traffic workload, whose engine feeds only the causal and
    /// flight parts; nothing changes that later.
    pub fn new(traffic: bool) -> Self {
        Observers {
            state: Some(Rc::new(RefCell::new(ObserverState {
                engine_rounds: !traffic,
                counters: Counters::default(),
                phases: PhaseTimers::default(),
                causal: None,
                flight: None,
                monitor: None,
            }))),
        }
    }

    /// Adds a causal recorder whose trace ids derive from `seed`.
    pub fn with_causal(self, seed: u64) -> Self {
        self.part(|s| s.causal = Some(CausalRecorder::new(seed)))
    }

    /// Adds a flight recorder retaining the last `rounds` rounds
    /// (`0` adds none).
    pub fn with_flight(self, rounds: usize) -> Self {
        self.part(|s| s.flight = (rounds > 0).then(|| FlightRecorder::new(rounds)))
    }

    /// Adds a monitor sampling this handle's counters and timers.
    pub fn with_monitor(self, monitor: Monitor) -> Self {
        self.part(|s| s.monitor = Some(monitor))
    }

    fn part(self, add: impl FnOnce(&mut ObserverState)) -> Self {
        let state = self.state.as_ref().expect("recorders join a live handle");
        add(&mut state.borrow_mut());
        self
    }

    /// Applies `f` to the shared state, if live.
    #[inline]
    fn with(&self, f: impl FnOnce(&mut ObserverState)) {
        if let Some(state) = &self.state {
            f(&mut state.borrow_mut());
        }
    }

    /// Applies `f` to the causal recorder, if one rides along.
    #[inline]
    pub fn causal(&self, f: impl FnOnce(&mut CausalRecorder)) {
        self.with(|s| {
            if let Some(causal) = &mut s.causal {
                f(causal);
            }
        });
    }

    /// Applies `f` to the flight recorder, if one rides along.
    #[inline]
    pub fn flight(&self, f: impl FnOnce(&mut FlightRecorder)) {
        self.with(|s| {
            if let Some(flight) = &mut s.flight {
                f(flight);
            }
        });
    }

    /// Opens engine round `round` on the round-scoped recorders.
    #[inline]
    pub fn begin_round(&self, round: u64) {
        self.with(|s| {
            if let Some(causal) = &mut s.causal {
                causal.begin_round(round);
            }
            if let Some(flight) = &mut s.flight {
                flight.begin_round(round);
            }
        });
    }

    /// The adversary was consulted `checks` times this round (reported
    /// once per round by the medium's receiver walk, which counts the
    /// consultations as it makes them).
    #[inline]
    pub fn adversary_checks(&self, checks: u64) {
        if checks == 0 {
            return;
        }
        self.with(|s| {
            if s.engine_rounds {
                s.counters.adversary_checks += checks;
            }
            if let Some(flight) = &mut s.flight {
                flight.note(FlightEvent::Adversary { checks });
            }
        });
    }

    /// Closes a round: `delivered` messages and `collisions` reports
    /// reached receivers in it, and `rounds_done` rounds have now
    /// resolved (the round number the monitor samples on). The monitor
    /// goes last, so its snapshot sees this round's counters.
    #[inline]
    pub fn end_round(&self, rounds_done: u64, delivered: u64, collisions: u64) {
        self.with(|s| {
            if let Some(flight) = &mut s.flight {
                flight.note(FlightEvent::Reception {
                    delivered,
                    collisions,
                });
            }
            if s.engine_rounds {
                s.counters.receptions += delivered;
                s.counters.collisions += collisions;
                if let Some(monitor) = &mut s.monitor {
                    monitor.on_round(rounds_done, &s.counters, &s.phases);
                }
            }
        });
    }

    /// Traffic-round hook, called by the traffic driver after virtual
    /// round `vr`. `progress` is only evaluated for a monitor, so an
    /// unmonitored run never builds the summary.
    #[inline]
    pub fn traffic_round(&self, vr: u64, progress: impl FnOnce() -> TrafficProgress) {
        self.with(|s| {
            if let Some(monitor) = &mut s.monitor {
                monitor.traffic = Some(progress());
                monitor.on_round(vr, &s.counters, &s.phases);
            }
        });
    }

    /// Applies `f` to the counters if engine rounds feed them — the
    /// engine's and the medium's count sites.
    #[inline]
    pub fn count_round(&self, f: impl FnOnce(&mut Counters)) {
        self.with(|s| {
            if s.engine_rounds {
                f(&mut s.counters);
            }
        });
    }

    /// Applies `f` to the counters in any run: the scenario layer's
    /// workload-level counts.
    pub fn count(&self, f: impl FnOnce(&mut Counters)) {
        self.with(|s| f(&mut s.counters));
    }

    /// Starts an engine phase timer: `None` unless engine rounds feed
    /// the timers, so an unobserved round never reads the clock.
    #[inline]
    pub fn round_timer(&self) -> Option<Instant> {
        let state = self.state.as_ref()?;
        state.borrow().engine_rounds.then(Instant::now)
    }

    /// Starts a scenario-level phase timer (`None` on a null handle).
    pub fn timer(&self) -> Option<Instant> {
        self.state.as_ref().map(|_| Instant::now())
    }

    /// Records the time since a `round_timer` / `timer` start into
    /// `phase`'s histogram. A `None` start is a no-op.
    #[inline]
    pub fn phase_since(&self, phase: Phase, start: Option<Instant>) {
        if let Some(start) = start {
            let micros = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
            self.with(|s| s.phases.record(phase, micros));
        }
    }

    /// Emits the monitor's final snapshot and flushes its sinks. Call
    /// after the checker phase so the final sample covers the run.
    pub fn finish(&self) {
        self.with(|s| {
            if let Some(monitor) = &mut s.monitor {
                monitor.finish(&s.counters, &s.phases);
            }
        });
    }

    /// A copy of the counters, if live.
    pub fn counters(&self) -> Option<Counters> {
        self.state.as_ref().map(|s| s.borrow().counters)
    }

    /// The counters and the phase digest, if live.
    pub fn summary(&self) -> Option<TelemetrySummary> {
        self.state.as_ref().map(|s| {
            let s = s.borrow();
            TelemetrySummary {
                counters: s.counters,
                phases: s.phases.summary(),
            }
        })
    }

    /// The causal recording, if a recorder rides along.
    pub fn causal_summary(&self) -> Option<CausalSummary> {
        let state = self.state.as_ref()?.borrow();
        let summary = state.causal.as_ref().map(CausalRecorder::summary);
        summary
    }

    /// The flight window, oldest round first; empty without a
    /// flight recorder.
    pub fn flight_window(&self) -> Vec<RoundWindow> {
        self.state
            .as_ref()
            .and_then(|s| s.borrow().flight.as_ref().map(FlightRecorder::window))
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The handle is one pointer wide, so a `ChaNode` (20 000 of them
    /// on the metro workloads) carries it at no extra size.
    #[test]
    fn the_handle_is_one_pointer_wide() {
        assert_eq!(size_of::<Observers>(), size_of::<usize>());
    }

    #[test]
    fn a_round_lands_in_the_probe_and_the_flight_window_in_call_order() {
        let obs = Observers::new(false).with_flight(4);
        obs.begin_round(7);
        obs.flight(|f| f.note(FlightEvent::Nemesis { node: 2 }));
        obs.flight(|f| f.note_churn(&[1, 2], &[1, 3]));
        obs.adversary_checks(0);
        obs.adversary_checks(5);
        obs.end_round(8, 4, 1);
        let w = obs.flight_window();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].round, 7);
        assert_eq!(
            w[0].events,
            vec![
                FlightEvent::Nemesis { node: 2 },
                FlightEvent::Churn {
                    joined: vec![3],
                    left: vec![2]
                },
                FlightEvent::Adversary { checks: 5 },
                FlightEvent::Reception {
                    delivered: 4,
                    collisions: 1
                },
            ]
        );
        let c = obs.counters().expect("live handle");
        assert_eq!((c.adversary_checks, c.receptions, c.collisions), (5, 4, 1));
    }

    /// In a traffic run the engine's rounds reach the flight window
    /// but not the counters or the phase timers; the scenario layer's
    /// counts still land.
    #[test]
    fn a_traffic_runs_engine_feeds_only_causal_and_flight() {
        let obs = Observers::new(true).with_flight(4).with_causal(1);
        obs.begin_round(3);
        obs.causal(|c| c.broadcast(0));
        obs.adversary_checks(2);
        obs.count_round(|c| c.rounds_total += 1);
        assert!(obs.round_timer().is_none());
        obs.end_round(4, 1, 0);
        obs.count(|c| c.traffic_timeouts += 1);
        let c = obs.counters().expect("live handle");
        assert_eq!(
            (
                c.rounds_total,
                c.adversary_checks,
                c.receptions,
                c.traffic_timeouts
            ),
            (0, 0, 0, 1)
        );
        assert_eq!(obs.flight_window()[0].events.len(), 2);
        assert_eq!(obs.causal_summary().expect("causal part").spans.len(), 1);
    }

    #[test]
    fn null_probe_records_nothing() {
        let obs = Observers::default();
        obs.count(|c| c.rounds_total += 1);
        obs.count_round(|c| c.rounds_total += 1);
        assert!(obs.timer().is_none() && obs.round_timer().is_none());
        obs.phase_since(Phase::Advance, None);
        assert!(obs.counters().is_none());
        assert!(obs.summary().is_none());
    }

    #[test]
    fn clones_share_one_state() {
        let p = Observers::new(false);
        let q = p.clone();
        p.count(|c| c.rounds_total += 1);
        q.count_round(|c| c.rounds_total += 1);
        let summary = p.summary().unwrap();
        assert_eq!(summary.counters.rounds_total, 2);
    }

    #[test]
    fn phase_timer_lands_in_summary() {
        let p = Observers::new(false);
        let t = p.round_timer();
        assert!(t.is_some());
        p.phase_since(Phase::Geometry, t);
        let summary = p.summary().unwrap();
        let geom = summary.phases.get(Phase::Geometry).unwrap();
        assert_eq!(geom.samples, 1);
    }
}
