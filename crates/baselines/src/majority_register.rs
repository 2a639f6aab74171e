//! A majority-acknowledged register with **local reads** — a
//! deliberately broken baseline for the consistency audit.
//!
//! The classic wired-network shortcut: writes are replicated with a
//! majority of acknowledgements (the [`super::majority`] pattern), but
//! reads return the *local* replica copy without any quorum — "reads
//! are cheap". On a reliable channel the shortcut is invisible. Under
//! a partition it is a textbook linearizability violation: a replica
//! cut off from the leader keeps serving its stale copy long after
//! newer writes completed at a majority. The paper's virtual-node
//! register avoids the bug structurally — there is one agreed replica
//! state, and *every* response routes through it — which is exactly
//! what the `vi-audit` WGL checker certifies in E17. This baseline
//! exists so `examples/audit_demo.rs` can show the checker catching
//! the violation, minimized witness and all.

use vi_audit::linearizability::PENDING;
use vi_audit::{RegOp, RegOpKind};
use vi_radio::{Engine, NodeId, Process, RoundCtx, RoundReception, WireSized};

/// Wire messages of the majority register.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MajRegMessage {
    /// The leader replicates `value` under `tag`.
    Write {
        /// Monotone write tag (the window index).
        tag: u64,
        /// The written value.
        value: u64,
    },
    /// A ranked replica acknowledges `tag`.
    Ack {
        /// The acknowledged tag.
        tag: u64,
    },
}

impl WireSized for MajRegMessage {
    fn wire_size(&self) -> usize {
        match self {
            MajRegMessage::Write { .. } => 17,
            MajRegMessage::Ack { .. } => 9,
        }
    }
}

/// One write's lifecycle at the leader.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteRecord {
    /// The written value.
    pub value: u64,
    /// Round the write was broadcast.
    pub invoked: u64,
    /// Round the majority was reached (`None` = never completed).
    pub completed: Option<u64>,
}

/// One local read (instantaneous: no messages are exchanged — that is
/// the bug).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadRecord {
    /// Round of the read.
    pub round: u64,
    /// The local replica value returned.
    pub value: u64,
}

/// One ranked participant of the majority register (rank 0 leads and
/// writes; every participant serves local reads).
pub struct MajorityRegister {
    rank: usize,
    n: usize,
    writes_total: u64,
    /// Local replica copy.
    tag: u64,
    value: u64,
    /// Leader bookkeeping for the in-flight write.
    acks_seen: usize,
    /// Leader: every write's lifecycle.
    pub write_log: Vec<WriteRecord>,
    /// Every node: local reads, one per replication window.
    pub read_log: Vec<ReadRecord>,
}

impl MajorityRegister {
    /// Creates participant `rank` of `n`; the leader (rank 0) issues
    /// one write per replication window, `writes_total` in all.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= n` or `n == 0`.
    pub fn new(rank: usize, n: usize, writes_total: u64) -> Self {
        assert!(n > 0 && rank < n, "rank {rank} out of 0..{n}");
        MajorityRegister {
            rank,
            n,
            writes_total,
            tag: 0,
            value: 0,
            acks_seen: 0,
            write_log: Vec::new(),
            read_log: Vec::new(),
        }
    }

    /// Rounds one write window occupies (proposal + ranked ack slots).
    pub fn window(n: usize) -> u64 {
        1 + Self::needed_acks(n) as u64
    }

    /// Participant acks required for a majority (the leader counts
    /// itself).
    pub fn needed_acks(n: usize) -> usize {
        n / 2
    }

    fn slot(&self, round: u64) -> u64 {
        round % Self::window(self.n)
    }
}

impl Process<MajRegMessage> for MajorityRegister {
    fn transmit(&mut self, ctx: &RoundCtx) -> Option<MajRegMessage> {
        let slot = self.slot(ctx.round);
        let k = ctx.round / Self::window(self.n);
        if slot == 0 {
            self.acks_seen = 0;
            if self.rank == 0 && k < self.writes_total {
                let tag = k + 1;
                let value = 1000 + tag;
                // Apply locally; the leader is part of the majority.
                self.tag = tag;
                self.value = value;
                self.write_log.push(WriteRecord {
                    value,
                    invoked: ctx.round,
                    completed: None,
                });
                return Some(MajRegMessage::Write { tag, value });
            }
            return None;
        }
        // Ranked ack slots: ack iff this window's write arrived.
        (slot as usize == self.rank && self.tag == k + 1)
            .then_some(MajRegMessage::Ack { tag: self.tag })
    }

    fn deliver(&mut self, ctx: &RoundCtx, rx: RoundReception<'_, MajRegMessage>) {
        for m in rx.messages {
            match m {
                MajRegMessage::Write { tag, value } => {
                    if *tag > self.tag {
                        self.tag = *tag;
                        self.value = *value;
                    }
                }
                MajRegMessage::Ack { tag } => {
                    if self.rank == 0 && *tag == self.tag {
                        self.acks_seen += 1;
                        if self.acks_seen >= Self::needed_acks(self.n) {
                            if let Some(w) = self.write_log.last_mut() {
                                if w.completed.is_none() {
                                    w.completed = Some(ctx.round);
                                }
                            }
                        }
                    }
                }
            }
        }
        // The bug: a "read" is served straight from the local copy, no
        // quorum, no messages. One read per window, at its last slot.
        if self.slot(ctx.round) == Self::window(self.n) - 1 {
            self.read_log.push(ReadRecord {
                round: ctx.round,
                value: self.value,
            });
        }
    }
}

/// Flattens every node's write/read logs into the WGL register
/// operations the `vi-audit` checker consumes (node order, writes
/// before reads per node; a write that never reached a majority is
/// pending, a local read is instantaneous). Shared by
/// `examples/audit_demo.rs` and the unit tests, so the demo and the
/// tests cannot diverge.
pub fn collect_register_ops(engine: &Engine<MajRegMessage>, ids: &[NodeId]) -> Vec<RegOp> {
    let mut ops = Vec::new();
    for &id in ids {
        let node: &MajorityRegister = engine.process(id).expect("majority-register node");
        for w in &node.write_log {
            ops.push(RegOp {
                id: ops.len() as u64,
                kind: RegOpKind::Write { value: w.value },
                inv: w.invoked,
                ret: w.completed.unwrap_or(PENDING),
            });
        }
        for r in &node.read_log {
            ops.push(RegOp {
                id: ops.len() as u64,
                kind: RegOpKind::Read { returned: r.value },
                inv: r.round,
                ret: r.round,
            });
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_audit::{check_register, LinResult};
    use vi_radio::geometry::Point;
    use vi_radio::mobility::Static;
    use vi_radio::{Engine, EngineConfig, NodeId, NodeSpec, RadioConfig, ScriptedAdversary};

    fn build(n: usize, writes: u64, rounds: u64, partition_from: Option<u64>) -> Vec<RegOp> {
        let mut engine: Engine<MajRegMessage> = Engine::new(EngineConfig {
            radio: RadioConfig::stabilizing(10.0, 20.0, u64::MAX),
            seed: 5,
            record_trace: false,
        });
        if let Some(from) = partition_from {
            // Cut the last replica off: it still serves local reads.
            let mut adv = ScriptedAdversary::new();
            for r in from..rounds {
                adv.drop_all_to(r, NodeId::from(n - 1));
            }
            engine.set_adversary(Box::new(adv));
        }
        let ids: Vec<NodeId> = (0..n)
            .map(|i| {
                engine.add_node(NodeSpec::new(
                    Box::new(Static::new(Point::new(i as f64 * 0.2, 0.0))),
                    Box::new(MajorityRegister::new(i, n, writes)),
                ))
            })
            .collect();
        engine.run(rounds);
        collect_register_ops(&engine, &ids)
    }

    #[test]
    fn clean_channel_hides_the_bug() {
        let ops = build(4, 6, 20, None);
        assert!(
            ops.iter()
                .any(|o| matches!(o.kind, RegOpKind::Write { .. })),
            "writes happened"
        );
        assert_eq!(check_register(&ops), LinResult::Ok);
    }

    #[test]
    fn partition_exposes_stale_local_reads() {
        // Partition the last replica from round 6 on: the leader keeps
        // completing writes with the remaining majority while the cut
        // replica serves its stale copy.
        let ops = build(4, 8, 24, Some(6));
        let LinResult::Violation { witness } = check_register(&ops) else {
            panic!("local reads behind a partition must fail linearizability");
        };
        assert!(
            witness.len() <= 4,
            "witness is minimized to the contradiction: {witness:?}"
        );
        assert!(
            witness.iter().any(|l| l.contains('R')),
            "a stale read appears in the witness: {witness:?}"
        );
    }

    #[test]
    fn window_matches_the_majority_baseline() {
        assert_eq!(MajorityRegister::window(4), 3);
        assert_eq!(MajorityRegister::needed_acks(4), 2);
        assert_eq!(MajorityRegister::window(5), 3);
    }
}
