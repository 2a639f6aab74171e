//! Execution traces and aggregate channel statistics.
//!
//! Traces record what physically happened on the channel each round;
//! the specification checkers in `vi-core` and the experiment harness
//! in `vi-bench` consume them. Statistics aggregate the quantities the
//! paper's efficiency claims are about: rounds, broadcasts, message
//! sizes, and collision reports.

use crate::engine::NodeId;
use crate::geometry::Point;
use serde::{Deserialize, Serialize};

/// Everything that happened on the channel in one round.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RoundRecord {
    /// The round number.
    pub round: u64,
    /// Position of every participating node.
    pub positions: Vec<(NodeId, Point)>,
    /// `(broadcaster, wire size in bytes)` for every transmission.
    pub broadcasts: Vec<(NodeId, usize)>,
    /// `(sender, receiver)` for every successful delivery to another
    /// node (loopback observations are not recorded).
    pub deliveries: Vec<(NodeId, NodeId)>,
    /// Nodes whose collision detector reported `±` this round.
    pub collisions: Vec<NodeId>,
}

/// A full execution trace: one [`RoundRecord`] per simulated round.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Records in round order.
    pub rounds: Vec<RoundRecord>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// `true` if no rounds were recorded.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }
}

/// Aggregate channel statistics for an execution.
///
/// These are the raw measurements behind experiments E2, E3 and E7:
/// Theorem 14 claims constant rounds per agreement instance and
/// constant message size, so `max_message_bytes` must not grow with
/// execution length, and rounds-per-decision must not grow with `n`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelStats {
    /// Rounds simulated.
    pub rounds: u64,
    /// Total broadcast attempts.
    pub broadcasts: u64,
    /// Total successful deliveries to *other* nodes.
    pub deliveries: u64,
    /// Total collision indications reported by detectors.
    pub collision_reports: u64,
    /// Sum of wire sizes of all broadcast messages, in bytes.
    pub total_bytes: u64,
    /// Largest single message broadcast, in bytes.
    pub max_message_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_window_filters() {
        let mut t = Trace::new();
        for round in 0..10 {
            t.rounds.push(RoundRecord {
                round,
                positions: vec![],
                broadcasts: vec![],
                deliveries: vec![],
                collisions: vec![],
            });
        }
        assert_eq!(t.len(), 10);
        assert!(!t.is_empty());
    }
}
