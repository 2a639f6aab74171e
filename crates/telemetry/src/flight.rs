//! Bounded ring-buffer flight recorder.
//!
//! Retains the last K rounds of structured engine events — aggregate
//! receptions, adversary consultations, churn, and nemesis crash
//! transitions — so that when a run ends badly (checker violation,
//! liveness stall, panic) the window can be dumped into a
//! self-contained incident bundle and replayed. Everything recorded
//! is deterministic, so the window participates in byte-identity
//! comparisons via plain `PartialEq`.
//!
//! The recorder is a plain struct inside a run's [`crate::Observers`]
//! state, fed only on the sequential control path.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// One structured event inside a round window.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlightEvent {
    /// Aggregate channel outcome of the round.
    Reception {
        /// Messages delivered to receivers this round.
        delivered: u64,
        /// Collisions reported to receivers this round.
        collisions: u64,
    },
    /// The adversary was consulted this round.
    Adversary {
        /// Drop/spurious/suppress consultations this round.
        checks: u64,
    },
    /// The live participant set changed this round.
    Churn {
        /// Nodes that joined (spawned) this round.
        joined: Vec<u64>,
        /// Nodes that left (crashed or departed) this round.
        left: Vec<u64>,
    },
    /// A scripted crash fired this round.
    Nemesis {
        /// The crashed node.
        node: u64,
    },
}

/// All events of one engine round.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundWindow {
    /// Engine round the window covers.
    pub round: u64,
    /// Structured events, in recording order.
    pub events: Vec<FlightEvent>,
}

/// The flight recorder of one run: a ring of the last `cap` rounds.
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    window: VecDeque<RoundWindow>,
}

impl FlightRecorder {
    /// A recorder retaining the last `k` rounds (`k` ≥ 1).
    pub(crate) fn new(k: usize) -> Self {
        FlightRecorder {
            cap: k,
            window: VecDeque::with_capacity(k),
        }
    }

    /// Opens the window for engine round `round`, evicting the oldest
    /// round once the ring is full.
    pub(crate) fn begin_round(&mut self, round: u64) {
        if self.window.len() == self.cap {
            self.window.pop_front();
        }
        self.window.push_back(RoundWindow {
            round,
            events: Vec::new(),
        });
    }

    /// Appends an event to the current round's window (no-op before
    /// the first round opens).
    pub fn note(&mut self, event: FlightEvent) {
        if let Some(w) = self.window.back_mut() {
            w.events.push(event);
        }
    }

    /// Notes the live-set change from `prev` to `live` (both sorted
    /// ascending, as the engine builds them) as one
    /// [`FlightEvent::Churn`]; identical sets note nothing.
    pub fn note_churn(&mut self, prev: &[usize], live: &[usize]) {
        let (joined, left) = churn_diff(prev, live);
        if !(joined.is_empty() && left.is_empty()) {
            self.note(FlightEvent::Churn { joined, left });
        }
    }

    /// The retained window, oldest round first.
    pub(crate) fn window(&self) -> Vec<RoundWindow> {
        self.window.iter().cloned().collect()
    }
}

/// Sorted-merge diff of two ascending node-index sets: `(joined,
/// left)` = (in `live` only, in `prev` only).
fn churn_diff(prev: &[usize], live: &[usize]) -> (Vec<u64>, Vec<u64>) {
    let (mut i, mut j) = (0, 0);
    let mut joined = Vec::new();
    let mut left = Vec::new();
    loop {
        match (prev.get(i), live.get(j)) {
            (Some(&a), Some(&b)) if a == b => {
                i += 1;
                j += 1;
            }
            (Some(&a), Some(&b)) if a < b => {
                left.push(a as u64);
                i += 1;
            }
            (Some(_), Some(&b)) | (None, Some(&b)) => {
                joined.push(b as u64);
                j += 1;
            }
            (Some(&a), None) => {
                left.push(a as u64);
                i += 1;
            }
            (None, None) => break,
        }
    }
    (joined, left)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Observers;

    #[test]
    fn churn_diff_is_the_sorted_set_difference() {
        let diff = churn_diff;
        assert_eq!(diff(&[], &[]), (vec![], vec![]));
        assert_eq!(diff(&[], &[0, 1, 2]), (vec![0, 1, 2], vec![]));
        assert_eq!(diff(&[0, 1, 2], &[]), (vec![], vec![0, 1, 2]));
        assert_eq!(diff(&[1, 3], &[0, 1, 3, 9]), (vec![0, 9], vec![]), "join");
        assert_eq!(diff(&[0, 1, 3, 9], &[1, 3]), (vec![], vec![0, 9]), "leave");
        assert_eq!(
            diff(&[0, 2, 4, 6, 7], &[1, 2, 5, 6, 8]),
            (vec![1, 5, 8], vec![0, 4, 7]),
            "interleaved"
        );
        assert_eq!(diff(&[2, 4], &[2, 4]), (vec![], vec![]));
    }

    #[test]
    fn identical_live_sets_note_no_churn() {
        let mut r = FlightRecorder::new(2);
        r.begin_round(0);
        r.note_churn(&[1, 2], &[1, 2]);
        assert!(r.window()[0].events.is_empty());
        r.note_churn(&[1, 2], &[2, 3]);
        assert_eq!(
            r.window()[0].events,
            vec![FlightEvent::Churn {
                joined: vec![3],
                left: vec![1]
            }]
        );
    }

    /// A run with no flight part keeps no window: a null handle, a
    /// live one without the recorder, and a zero-round window alike.
    #[test]
    fn disabled_recorder_is_inert() {
        let handles = [
            Observers::default(),
            Observers::new(false),
            Observers::new(false).with_flight(0),
        ];
        for obs in handles {
            obs.begin_round(0);
            obs.flight(|_| panic!("no flight part to reach"));
            obs.adversary_checks(3);
            obs.end_round(1, 2, 0);
            assert!(obs.flight_window().is_empty());
        }
    }

    #[test]
    fn ring_retains_exactly_the_last_k_rounds() {
        let mut r = FlightRecorder::new(3);
        for round in 0..10u64 {
            r.begin_round(round);
            r.note(FlightEvent::Reception {
                delivered: round,
                collisions: 0,
            });
        }
        let w = r.window();
        assert_eq!(w.len(), 3);
        assert_eq!(
            w.iter().map(|rw| rw.round).collect::<Vec<_>>(),
            vec![7, 8, 9],
            "oldest rounds evicted first"
        );
        assert_eq!(
            w[0].events,
            vec![FlightEvent::Reception {
                delivered: 7,
                collisions: 0
            }]
        );
    }

    #[test]
    fn events_group_under_their_round_and_round_trip_through_json() {
        let mut r = FlightRecorder::new(8);
        r.begin_round(5);
        r.note(FlightEvent::Churn {
            joined: vec![3],
            left: vec![],
        });
        r.note(FlightEvent::Adversary { checks: 12 });
        r.begin_round(6);
        r.note(FlightEvent::Nemesis { node: 3 });
        let w = r.window();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].events.len(), 2);
        assert_eq!(w[1].events, vec![FlightEvent::Nemesis { node: 3 }]);
        let json = serde_json::to_string(&w).unwrap();
        let back: Vec<RoundWindow> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, w);
    }

    #[test]
    fn note_before_any_round_is_dropped() {
        let mut r = FlightRecorder::new(2);
        r.note(FlightEvent::Adversary { checks: 1 });
        assert!(r.window().is_empty());
    }
}
