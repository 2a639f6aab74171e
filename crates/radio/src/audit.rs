//! Post-hoc auditing of recorded traces against the channel laws.
//!
//! When a protocol misbehaves, the first question is whether the
//! *channel* obeyed its contract. [`audit_trace`] replays a recorded
//! [`Trace`] against the model's laws — delivery only within `R1`,
//! interference within `R2`, detector completeness (Property 1), and
//! post-`racc` accuracy (Property 2) — and reports every round that
//! breaks one. The engine upholds these by construction; the auditor
//! exists so downstream users can verify traces from *modified*
//! engines or hand-written scenarios, and as an executable statement
//! of the model.

use crate::config::RadioConfig;
use crate::engine::NodeId;
use crate::trace::{RoundRecord, Trace};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A violation of the channel laws found in a trace.
#[derive(Clone, Debug, PartialEq)]
pub enum ChannelViolation {
    /// A delivery whose sender was beyond `R1` of the receiver.
    DeliveryBeyondR1 {
        /// Round of the delivery.
        round: u64,
        /// Sending node.
        src: NodeId,
        /// Receiving node.
        dst: NodeId,
        /// Measured distance.
        distance: f64,
    },
    /// A delivery that should have been destroyed by an interferer
    /// within `R2` of the receiver.
    DeliveryDespiteInterference {
        /// Round of the delivery.
        round: u64,
        /// Receiving node.
        dst: NodeId,
        /// The interfering broadcaster.
        interferer: NodeId,
    },
    /// Property 1: a node lost an `R1` message without its detector
    /// reporting a collision.
    MissedDetection {
        /// Round of the loss.
        round: u64,
        /// The node whose detector stayed silent.
        node: NodeId,
        /// The broadcaster whose message was lost.
        lost_from: NodeId,
    },
    /// Property 2: a post-`racc` collision report with no lost message
    /// within `R2`.
    FalsePositiveAfterRacc {
        /// Round of the report.
        round: u64,
        /// The reporting node.
        node: NodeId,
    },
}

impl fmt::Display for ChannelViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelViolation::DeliveryBeyondR1 {
                round,
                src,
                dst,
                distance,
            } => write!(
                f,
                "round {round}: delivery {src}→{dst} at distance {distance:.2} beyond R1"
            ),
            ChannelViolation::DeliveryDespiteInterference {
                round,
                dst,
                interferer,
            } => write!(
                f,
                "round {round}: {dst} received despite interferer {interferer} within R2"
            ),
            ChannelViolation::MissedDetection {
                round,
                node,
                lost_from,
            } => write!(
                f,
                "round {round}: {node} lost a message from {lost_from} without detection"
            ),
            ChannelViolation::FalsePositiveAfterRacc { round, node } => write!(
                f,
                "round {round}: {node} reported a collision after racc with nothing lost in R2"
            ),
        }
    }
}

/// Audits every recorded round of `trace` against `cfg`'s laws.
pub fn audit_trace(trace: &Trace, cfg: &RadioConfig) -> Vec<ChannelViolation> {
    trace
        .rounds
        .iter()
        .flat_map(|r| audit_round(r, cfg))
        .collect()
}

/// Audits a single round record.
pub fn audit_round(rec: &RoundRecord, cfg: &RadioConfig) -> Vec<ChannelViolation> {
    let mut violations = Vec::new();
    let pos: BTreeMap<NodeId, _> = rec.positions.iter().copied().collect();
    let broadcasters: BTreeSet<NodeId> = rec.broadcasts.iter().map(|&(n, _)| n).collect();
    let collided: BTreeSet<NodeId> = rec.collisions.iter().copied().collect();
    let mut received: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
    for &(src, dst) in &rec.deliveries {
        received.entry(dst).or_default().insert(src);
    }

    // Delivery laws.
    for &(src, dst) in &rec.deliveries {
        let (Some(&ps), Some(&pd)) = (pos.get(&src), pos.get(&dst)) else {
            continue;
        };
        let d = ps.distance(pd);
        if d > cfg.r1 {
            violations.push(ChannelViolation::DeliveryBeyondR1 {
                round: rec.round,
                src,
                dst,
                distance: d,
            });
        }
        for &k in &broadcasters {
            if k != src && k != dst {
                if let Some(&pk) = pos.get(&k) {
                    if pk.within(pd, cfg.r2) {
                        violations.push(ChannelViolation::DeliveryDespiteInterference {
                            round: rec.round,
                            dst,
                            interferer: k,
                        });
                    }
                }
            }
        }
    }

    // Detector laws, per participating node.
    for &(node, pn) in &rec.positions {
        let got = received.get(&node);
        let mut lost_r1 = None;
        let mut lost_r2 = false;
        for &b in &broadcasters {
            if b == node {
                continue;
            }
            let Some(&pb) = pos.get(&b) else { continue };
            let delivered = got.is_some_and(|s| s.contains(&b));
            if !delivered {
                if pb.within(pn, cfg.r1) {
                    lost_r1 = Some(b);
                }
                if pb.within(pn, cfg.r2) {
                    lost_r2 = true;
                }
            }
        }
        if let Some(lost_from) = lost_r1 {
            if !collided.contains(&node) {
                violations.push(ChannelViolation::MissedDetection {
                    round: rec.round,
                    node,
                    lost_from,
                });
            }
        }
        if rec.round >= cfg.racc && collided.contains(&node) && !lost_r2 {
            violations.push(ChannelViolation::FalsePositiveAfterRacc {
                round: rec.round,
                node,
            });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::RandomLoss;
    use crate::geometry::Point;
    use crate::geometry::Rect;
    use crate::mobility::Waypoint;
    use crate::{Engine, EngineConfig, NodeSpec, Process, RoundCtx, RoundReception};

    struct Chatty;
    impl Process<u64> for Chatty {
        fn transmit(&mut self, ctx: &RoundCtx) -> Option<u64> {
            ctx.round.is_multiple_of(2).then_some(1)
        }
        fn deliver(&mut self, _ctx: &RoundCtx, _rx: RoundReception<'_, u64>) {}
    }

    struct Quiet;
    impl Process<u64> for Quiet {
        fn transmit(&mut self, _ctx: &RoundCtx) -> Option<u64> {
            None
        }
        fn deliver(&mut self, _ctx: &RoundCtx, _rx: RoundReception<'_, u64>) {}
    }

    /// A real engine trace — mobile nodes, adversarial losses before
    /// stabilization — always passes the audit (the engine enforces
    /// the laws by construction).
    #[test]
    fn engine_traces_are_law_abiding() {
        let cfg = RadioConfig::stabilizing(10.0, 20.0, 25);
        let mut engine: Engine<u64> = Engine::new(EngineConfig {
            radio: cfg,
            seed: 8,
            record_trace: true,
        });
        engine.set_adversary(Box::new(RandomLoss::new(0.4, 0.2)));
        for i in 0..6 {
            let start = Point::new(5.0 + 3.0 * i as f64, 10.0);
            engine.add_node(NodeSpec::new(
                Box::new(Waypoint::new(start, 0.8, Rect::square(40.0))),
                if i % 2 == 0 {
                    Box::new(Chatty) as Box<dyn Process<u64>>
                } else {
                    Box::new(Quiet)
                },
            ));
        }
        engine.run(50);
        let violations = audit_trace(engine.trace(), &cfg);
        assert!(violations.is_empty(), "{violations:?}");
    }

    fn record(
        positions: Vec<(usize, f64)>,
        broadcasts: Vec<usize>,
        deliveries: Vec<(usize, usize)>,
        collisions: Vec<usize>,
        round: u64,
    ) -> RoundRecord {
        RoundRecord {
            round,
            positions: positions
                .into_iter()
                .map(|(n, x)| (NodeId::from(n), Point::new(x, 0.0)))
                .collect(),
            broadcasts: broadcasts
                .into_iter()
                .map(|n| (NodeId::from(n), 8))
                .collect(),
            deliveries: deliveries
                .into_iter()
                .map(|(a, b)| (NodeId::from(a), NodeId::from(b)))
                .collect(),
            collisions: collisions.into_iter().map(NodeId::from).collect(),
        }
    }

    #[test]
    fn detects_delivery_beyond_r1() {
        let cfg = RadioConfig::reliable(10.0, 20.0);
        let rec = record(vec![(0, 0.0), (1, 15.0)], vec![0], vec![(0, 1)], vec![], 0);
        let v = audit_round(&rec, &cfg);
        assert!(matches!(v[0], ChannelViolation::DeliveryBeyondR1 { .. }));
    }

    #[test]
    fn detects_missed_detection() {
        let cfg = RadioConfig::reliable(10.0, 20.0);
        // Node 1 within R1 of broadcaster 0, nothing delivered, no
        // collision reported: completeness broken.
        let rec = record(vec![(0, 0.0), (1, 5.0)], vec![0], vec![], vec![], 0);
        let v = audit_round(&rec, &cfg);
        assert!(matches!(v[0], ChannelViolation::MissedDetection { .. }));
    }

    #[test]
    fn detects_false_positive_after_racc() {
        let cfg = RadioConfig::reliable(10.0, 20.0);
        // Nothing broadcast, yet node 0 reported a collision at a
        // round past racc (= 0 here).
        let rec = record(vec![(0, 0.0)], vec![], vec![], vec![0], 5);
        let v = audit_round(&rec, &cfg);
        assert!(matches!(
            v[0],
            ChannelViolation::FalsePositiveAfterRacc { .. }
        ));
    }

    #[test]
    fn detects_delivery_despite_interference() {
        let cfg = RadioConfig::reliable(10.0, 20.0);
        // Two broadcasters within R2 of the receiver, yet one message
        // was delivered.
        let rec = record(
            vec![(0, 0.0), (1, 4.0), (2, 8.0)],
            vec![0, 2],
            vec![(0, 1)],
            vec![1],
            0,
        );
        let v = audit_round(&rec, &cfg);
        assert!(v
            .iter()
            .any(|x| matches!(x, ChannelViolation::DeliveryDespiteInterference { .. })));
    }

    #[test]
    fn clean_round_passes() {
        let cfg = RadioConfig::reliable(10.0, 20.0);
        let rec = record(vec![(0, 0.0), (1, 5.0)], vec![0], vec![(0, 1)], vec![], 3);
        assert!(audit_round(&rec, &cfg).is_empty());
    }
}
