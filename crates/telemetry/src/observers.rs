//! The observer set of one run.
//!
//! Everything that watches an execution without taking part in it —
//! the telemetry [`Probe`], the [`CausalRecorder`], the
//! [`FlightRecorder`] and the live [`Monitor`] — travels as one
//! [`Observers`] value. The engine holds one and states each
//! observer-only fact of a round once, through the methods below; who
//! records what is decided here, not at the call site.
//!
//! The set is closed (four plain fields, no trait, no registration),
//! and its default is four null handles: every method is then a few
//! branches, with no `Rc` clone, `RefCell` borrow or allocation.

use crate::{CausalRecorder, FlightEvent, FlightRecorder, Monitor, Probe};

/// The four observer handles of one run; null by default.
#[derive(Clone, Default)]
pub struct Observers {
    /// Deterministic counters + wall-clock phase timers.
    pub probe: Probe,
    /// Causal spans and reception edges.
    pub causal: CausalRecorder,
    /// Last-K-rounds structured event ring.
    pub flight: FlightRecorder,
    /// Periodic snapshots of `probe` into the monitor sinks.
    pub monitor: Monitor,
}

impl Observers {
    /// Opens engine round `round` on the round-scoped recorders.
    #[inline]
    pub fn begin_round(&self, round: u64) {
        self.causal.begin_round(round);
        self.flight.begin_round(round);
    }

    /// A scripted crash of `node` fires this round.
    pub fn crash(&self, node: u64) {
        self.flight.note(FlightEvent::Nemesis { node });
    }

    /// The live participant set changed from `prev` to `live` (both
    /// sorted ascending).
    #[inline]
    pub fn churn(&self, prev: &[usize], live: &[usize]) {
        self.flight.note_churn(prev, live);
    }

    /// Whether anyone wants the round's adversary-consultation count
    /// (the engine wraps the adversary in a counter only then).
    #[inline]
    pub fn counts_adversary(&self) -> bool {
        self.probe.is_enabled() || self.flight.is_enabled()
    }

    /// The adversary was consulted `checks` times this round.
    #[inline]
    pub fn adversary_checks(&self, checks: u64) {
        if checks > 0 {
            self.probe.count(|c| c.adversary_checks += checks);
            self.flight.note(FlightEvent::Adversary { checks });
        }
    }

    /// Closes a round: `delivered` messages and `collisions` reports
    /// reached receivers in it, and `rounds_done` rounds have now
    /// resolved (the round number the monitor samples on). The monitor
    /// goes last, so its snapshot sees this round's counters.
    #[inline]
    pub fn end_round(&self, rounds_done: u64, delivered: u64, collisions: u64) {
        self.flight.note(FlightEvent::Reception {
            delivered,
            collisions,
        });
        self.probe.count(|c| {
            c.receptions += delivered;
            c.collisions += collisions;
        });
        self.monitor.on_round(rounds_done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_lands_in_the_probe_and_the_flight_window_in_call_order() {
        let obs = Observers {
            probe: Probe::enabled(),
            flight: FlightRecorder::enabled(4),
            ..Observers::default()
        };
        obs.begin_round(7);
        obs.crash(2);
        obs.churn(&[1, 2], &[1, 3]);
        obs.adversary_checks(0);
        obs.adversary_checks(5);
        obs.end_round(8, 4, 1);
        let w = obs.flight.window();
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
        let c = obs.probe.counters().expect("live probe");
        assert_eq!((c.adversary_checks, c.receptions, c.collisions), (5, 4, 1));
    }
}
