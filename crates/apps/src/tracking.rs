//! A location / tracking service on virtual infrastructure.
//!
//! One of the paper's headline applications (references [11, 16, 34,
//! 36]): mobile objects periodically report their position to the
//! virtual node covering their area; other clients query any virtual
//! node and receive the last known cell of the object. Because the
//! virtual node is reliable and immobile, the service survives the
//! churn of the devices that happen to implement it.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vi_core::vi::{VirtualAutomaton, VirtualInput, VnCtx};
use vi_radio::geometry::Point;
use vi_radio::WireSized;

/// A grid cell (quantized position).
pub type Cell = (u32, u32);

/// Quantizes a position to a tracking cell of the given size.
///
/// # Panics
///
/// Panics if `cell_size` is not positive.
pub fn cell_of(pos: Point, cell_size: f64) -> Cell {
    assert!(cell_size > 0.0, "cell size must be positive");
    (
        (pos.x.max(0.0) / cell_size) as u32,
        (pos.y.max(0.0) / cell_size) as u32,
    )
}

/// Messages of the tracking service.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TrackMsg {
    /// "Object `object` is in `cell`."
    Report {
        /// The tracked object's identifier.
        object: u32,
        /// Its current cell.
        cell: Cell,
    },
    /// "Where is `object`?"
    Query {
        /// The queried object.
        object: u32,
    },
    /// The virtual node's reply.
    Answer {
        /// The queried object.
        object: u32,
        /// Its last reported cell, if known.
        cell: Option<Cell>,
    },
}

impl WireSized for TrackMsg {
    fn wire_size(&self) -> usize {
        match self {
            TrackMsg::Report { .. } => 1 + 4 + 8,
            TrackMsg::Query { .. } => 1 + 4,
            TrackMsg::Answer { .. } => 1 + 4 + 9,
        }
    }
}

/// The tracking virtual node: remembers the last reported cell per
/// object and answers queries when its broadcast slot comes up.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrackingVn;

/// State of [`TrackingVn`].
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrackState {
    /// Last known cell per object.
    pub objects: BTreeMap<u32, Cell>,
    /// Queries awaiting an answer, FIFO.
    pub pending: Vec<u32>,
}

impl VirtualAutomaton for TrackingVn {
    type Msg = TrackMsg;
    type State = TrackState;

    fn init(&self) -> TrackState {
        TrackState::default()
    }

    fn step(
        &self,
        state: &mut TrackState,
        ctx: VnCtx,
        input: &VirtualInput<TrackMsg>,
    ) -> Option<TrackMsg> {
        for m in &input.messages {
            match m {
                TrackMsg::Report { object, cell } => {
                    state.objects.insert(*object, *cell);
                }
                TrackMsg::Query { object } => {
                    if !state.pending.contains(object) {
                        state.pending.push(*object);
                    }
                }
                TrackMsg::Answer { .. } => {}
            }
        }
        // Answer one pending query per broadcast opportunity; emit only
        // into rounds where this virtual node is scheduled, to avoid
        // colliding with neighbours.
        if ctx.next_scheduled && !state.pending.is_empty() {
            let object = state.pending.remove(0);
            return Some(TrackMsg::Answer {
                object,
                cell: state.objects.get(&object).copied(),
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_core::vi::VnId;

    #[test]
    fn cell_quantization() {
        assert_eq!(cell_of(Point::new(0.0, 0.0), 10.0), (0, 0));
        assert_eq!(cell_of(Point::new(19.9, 31.0), 10.0), (1, 3));
    }

    #[test]
    fn tracker_state_remembers_latest_report() {
        let a = TrackingVn;
        let mut st = a.init();
        let ctx = VnCtx {
            vn: VnId(0),
            loc: Point::ORIGIN,
            vr: 1,
            scheduled: true,
            next_scheduled: true,
        };
        let input = VirtualInput {
            messages: vec![
                TrackMsg::Report {
                    object: 1,
                    cell: (2, 3),
                },
                TrackMsg::Report {
                    object: 1,
                    cell: (4, 5),
                },
            ],
            collision: false,
        };
        a.step(&mut st, ctx, &input);
        assert_eq!(st.objects.get(&1), Some(&(4, 5)), "later report wins");
    }

    #[test]
    fn unknown_object_answered_with_none() {
        let a = TrackingVn;
        let mut st = a.init();
        let ctx = VnCtx {
            vn: VnId(0),
            loc: Point::ORIGIN,
            vr: 1,
            scheduled: true,
            next_scheduled: true,
        };
        let input = VirtualInput {
            messages: vec![TrackMsg::Query { object: 9 }],
            collision: false,
        };
        let out = a.step(&mut st, ctx, &input);
        assert_eq!(
            out,
            Some(TrackMsg::Answer {
                object: 9,
                cell: None
            })
        );
    }
}
