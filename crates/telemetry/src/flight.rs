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
//! Like [`crate::Probe`], the recorder is a cloneable handle that is
//! null by default: one branch per site when disabled, `!Send` by
//! construction so recording stays on the sequential control path.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

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

#[derive(Debug)]
struct FlightState {
    cap: usize,
    window: VecDeque<RoundWindow>,
}

impl FlightState {
    fn begin_round(&mut self, round: u64) {
        if self.window.len() == self.cap {
            self.window.pop_front();
        }
        self.window.push_back(RoundWindow {
            round,
            events: Vec::new(),
        });
    }

    fn note(&mut self, event: FlightEvent) {
        if let Some(w) = self.window.back_mut() {
            w.events.push(event);
        }
    }
}

/// Cloneable handle to the flight recorder. Null by default; all
/// methods are no-ops on a disabled handle. Deliberately `!Send`.
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder {
    state: Option<Rc<RefCell<FlightState>>>,
}

impl FlightRecorder {
    /// The null recorder.
    pub fn disabled() -> Self {
        FlightRecorder { state: None }
    }

    /// A live recorder retaining the last `k` rounds (`k == 0` is
    /// treated as disabled).
    pub fn enabled(k: usize) -> Self {
        if k == 0 {
            return FlightRecorder::disabled();
        }
        FlightRecorder {
            state: Some(Rc::new(RefCell::new(FlightState {
                cap: k,
                window: VecDeque::with_capacity(k),
            }))),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Opens the window for engine round `round`, evicting the oldest
    /// round once the ring is full.
    #[inline]
    pub fn begin_round(&self, round: u64) {
        let Some(state) = &self.state else { return };
        state.borrow_mut().begin_round(round);
    }

    /// Appends an event to the current round's window (no-op before
    /// the first [`FlightRecorder::begin_round`]).
    #[inline]
    pub fn note(&self, event: FlightEvent) {
        let Some(state) = &self.state else { return };
        state.borrow_mut().note(event);
    }

    /// Notes the live-set change from `prev` to `live` (both sorted
    /// ascending, as the engine builds them) as one
    /// [`FlightEvent::Churn`]; identical sets note nothing.
    pub fn note_churn(&self, prev: &[usize], live: &[usize]) {
        if self.state.is_none() {
            return;
        }
        let (joined, left) = churn_diff(prev, live);
        if !(joined.is_empty() && left.is_empty()) {
            self.note(FlightEvent::Churn { joined, left });
        }
    }

    /// Snapshots the retained window, oldest round first; empty on a
    /// disabled handle.
    pub fn window(&self) -> Vec<RoundWindow> {
        match &self.state {
            Some(state) => state.borrow().window.iter().cloned().collect(),
            None => Vec::new(),
        }
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
        let r = FlightRecorder::enabled(2);
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
        FlightRecorder::disabled().note_churn(&[], &[1]);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = FlightRecorder::disabled();
        assert!(!r.is_enabled());
        r.begin_round(0);
        r.note(FlightEvent::Nemesis { node: 1 });
        assert!(r.window().is_empty());
        assert!(!FlightRecorder::enabled(0).is_enabled(), "k = 0 is off");
    }

    #[test]
    fn ring_retains_exactly_the_last_k_rounds() {
        let r = FlightRecorder::enabled(3);
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
        let r = FlightRecorder::enabled(8);
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
        let r = FlightRecorder::enabled(2);
        r.note(FlightEvent::Adversary { checks: 1 });
        assert!(r.window().is_empty());
    }
}
