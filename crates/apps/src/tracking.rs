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
use vi_core::vi::{ClientApp, VirtualReception};
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

/// A client that reports its own (quantized) position every `period`
/// virtual rounds.
pub struct ReporterClient {
    object: u32,
    period: u64,
    cell_size: f64,
}

impl ReporterClient {
    /// Creates a reporter for `object`.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` or `cell_size <= 0`.
    pub fn new(object: u32, period: u64, cell_size: f64) -> Self {
        assert!(period > 0, "period must be positive");
        assert!(cell_size > 0.0, "cell size must be positive");
        ReporterClient {
            object,
            period,
            cell_size,
        }
    }
}

impl ClientApp<TrackMsg> for ReporterClient {
    fn on_virtual_round(
        &mut self,
        vr: u64,
        pos: Point,
        _prev: &VirtualReception<TrackMsg>,
    ) -> Option<TrackMsg> {
        (vr.is_multiple_of(self.period)).then(|| TrackMsg::Report {
            object: self.object,
            cell: cell_of(pos, self.cell_size),
        })
    }
}

/// A client that queries for an object every `period` virtual rounds
/// and records the answers it hears.
pub struct QueryClient {
    object: u32,
    period: u64,
    /// `(virtual round heard, answered cell)` pairs.
    pub answers: Vec<(u64, Option<Cell>)>,
}

impl QueryClient {
    /// Creates a querier for `object`.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(object: u32, period: u64) -> Self {
        assert!(period > 0, "period must be positive");
        QueryClient {
            object,
            period,
            answers: Vec::new(),
        }
    }
}

impl ClientApp<TrackMsg> for QueryClient {
    fn on_virtual_round(
        &mut self,
        vr: u64,
        _pos: Point,
        prev: &VirtualReception<TrackMsg>,
    ) -> Option<TrackMsg> {
        for m in &prev.messages {
            if let TrackMsg::Answer { object, cell } = m {
                if *object == self.object {
                    self.answers.push((vr, *cell));
                }
            }
        }
        (vr % self.period == 1).then_some(TrackMsg::Query {
            object: self.object,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_core::vi::{VnId, VnLayout, World, WorldConfig};
    use vi_radio::mobility::Static;
    use vi_radio::RadioConfig;

    #[test]
    fn cell_quantization() {
        assert_eq!(cell_of(Point::new(0.0, 0.0), 10.0), (0, 0));
        assert_eq!(cell_of(Point::new(19.9, 31.0), 10.0), (1, 3));
    }

    #[test]
    fn query_answered_with_reported_cell() {
        let layout = VnLayout::new(vec![Point::new(50.0, 50.0)], 2.5);
        let mut world = World::new(WorldConfig {
            radio: RadioConfig::reliable(10.0, 20.0),
            layout,
            automaton: TrackingVn,
            seed: 11,
            record_trace: false,
        });
        // Three devices near the virtual node: a reporter, a querier,
        // and a silent relay (all three also emulate the VN).
        world.add_device(
            Box::new(Static::new(Point::new(50.5, 50.0))),
            Some(Box::new(ReporterClient::new(7, 2, 10.0))),
        );
        let querier = world.add_device(
            Box::new(Static::new(Point::new(49.5, 50.0))),
            Some(Box::new(QueryClient::new(7, 3))),
        );
        world.add_device(Box::new(Static::new(Point::new(50.0, 50.7))), None);
        world.run_virtual_rounds(15);

        let q: &QueryClient = world.device(querier).client::<QueryClient>().unwrap();
        assert!(!q.answers.is_empty(), "querier should have heard an answer");
        let (_, cell) = q.answers.last().unwrap();
        assert_eq!(
            *cell,
            Some(cell_of(Point::new(50.5, 50.0), 10.0)),
            "answer matches the reporter's cell"
        );
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
