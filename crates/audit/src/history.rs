//! Operation-history capture.
//!
//! A [`History`] is the complete, serializable record of what one
//! traffic run's clients observed: invocations, responses, timeouts
//! (Jepsen-style `:info` operations — the op may or may not have taken
//! effect), and the protocol-level observations (lock grants/releases,
//! raw packet deliveries) the checkers need beyond request/response
//! pairs. Events come from the `vi-traffic` driver in deterministic
//! order — identical `(spec, seed)` pairs replay identical histories —
//! so audits are sweep-worker invariant by construction.
//!
//! A history is built from driver events with [`History::from_events`]
//! (`drive_recorded` returns them, and `vi_traffic::run_traffic` hands
//! them to its sink); [`HistoryRecorder::record`] does both steps for
//! an unobserved run. An audit does not need one: the
//! [`crate::Auditor`] takes the events as the run produces them.

use serde::{Deserialize, Serialize};
use vi_traffic::{
    run_traffic, AppKind, AuditRecord, OpDesc, OpOutcome, TrafficEvent, TrafficOutcome,
    TrafficSpec, TrafficWorld,
};

/// One history entry (re-exported from `vi-traffic`, where the driver
/// produces it).
pub type Event = TrafficEvent;

/// The complete operation history of one traffic run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct History {
    /// The driven app (decides which checkers apply).
    pub app: AppKind,
    /// The events, in driver (chronological) order.
    pub events: Vec<Event>,
}

impl History {
    /// Wraps raw driver events into a history for `app`.
    pub fn from_events(app: AppKind, events: Vec<Event>) -> Self {
        History { app, events }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of invoked operations.
    pub fn invocations(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::Invoke { .. }))
            .count() as u64
    }

    /// The invocation table: `(id, client, vr, op)` per invoke event,
    /// in invocation order.
    pub fn invokes(&self) -> Vec<(u64, u32, u64, OpDesc)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Invoke { id, client, vr, op } => Some((*id, *client, *vr, *op)),
                _ => None,
            })
            .collect()
    }

    /// The completion table: `(id, client, vr, outcome)` per complete
    /// event, in completion order.
    pub fn completes(&self) -> Vec<(u64, u32, u64, OpOutcome)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Complete {
                    id,
                    client,
                    vr,
                    outcome,
                } => Some((*id, *client, *vr, *outcome)),
                _ => None,
            })
            .collect()
    }

    /// The timeout table: `(id, client, vr)` per timeout event.
    pub fn timeouts(&self) -> Vec<(u64, u32, u64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Timeout { id, client, vr } => Some((*id, *client, *vr)),
                _ => None,
            })
            .collect()
    }

    /// Protocol-level records, in observation order.
    pub fn protocol(&self) -> Vec<AuditRecord> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Protocol { record } => Some(*record),
                _ => None,
            })
            .collect()
    }
}

/// Captures operation histories from traffic runs:
/// [`HistoryRecorder::record`] is the one-shot, no-observer entry.
/// Hand-built histories (checker unit tests, external drivers) wrap
/// their events with [`History::from_events`].
pub struct HistoryRecorder;

impl HistoryRecorder {
    /// Runs `spec` against the `app` service over `tw` (exactly like
    /// `vi_traffic::run_traffic` with no observer) and captures the
    /// complete history through its sink.
    pub fn record(app: AppKind, tw: TrafficWorld, spec: &TrafficSpec) -> (TrafficOutcome, History) {
        let mut events = Vec::new();
        let outcome = run_traffic(
            app,
            tw,
            spec,
            &vi_telemetry::Observers::default(),
            Some(&mut |e| events.push(e)),
        );
        (outcome, History::from_events(app, events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_round_trips_through_json() {
        let h = History::from_events(
            AppKind::Register,
            vec![
                Event::Invoke {
                    id: 1,
                    client: 0,
                    vr: 1,
                    op: OpDesc::Write { value: 1 },
                },
                Event::Complete {
                    id: 1,
                    client: 0,
                    vr: 3,
                    outcome: OpOutcome::Acked,
                },
                Event::Timeout {
                    id: 2,
                    client: 1,
                    vr: 9,
                },
                Event::Protocol {
                    record: AuditRecord::Granted { client: 0, vr: 4 },
                },
            ],
        );
        let json = serde_json::to_string(&h).unwrap();
        let back: History = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
        assert_eq!(h.invocations(), 1);
        assert_eq!(h.completes().len(), 1);
        assert_eq!(h.timeouts(), vec![(2, 1, 9)]);
        assert_eq!(h.protocol().len(), 1);
    }

    #[test]
    fn hand_built_histories_preserve_event_order() {
        let h = History::from_events(
            AppKind::Mutex,
            vec![
                Event::Invoke {
                    id: 1,
                    client: 0,
                    vr: 1,
                    op: OpDesc::Acquire,
                },
                Event::Complete {
                    id: 1,
                    client: 0,
                    vr: 2,
                    outcome: OpOutcome::Granted,
                },
            ],
        );
        assert_eq!(h.app, AppKind::Mutex);
        assert_eq!(h.len(), 2);
        assert!(!h.is_empty());
        assert!(matches!(h.events[0], Event::Invoke { .. }));
    }
}
