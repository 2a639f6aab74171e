//! Slotted three-phase commit: the protocol family CHAP is "inspired
//! by" (Section 1.5, refs [41, 42]).
//!
//! Per instance, over a window of `3 + 2(n−1)` rounds: the coordinator
//! proposes (*can-commit*), participants vote in ranked slots, the
//! coordinator *pre-commits*, participants acknowledge in slots, and
//! the coordinator issues *do-commit*. A participant that reaches the
//! end of the window without a do-commit applies the classic
//! termination rule: commit if pre-committed, abort otherwise.
//!
//! The ablation experiment (E12) scripts a lossy pre-commit followed
//! by a coordinator crash: participants that saw the pre-commit commit
//! while the rest abort — an *inconsistent* outcome that plain 3PC
//! admits under partition, whereas CHAP's two veto phases resolve the
//! same uncertainty to a consistent ⊥ (Lemma 5's one-shade spread is
//! exactly what 3PC lacks). This contrast is the paper's "somewhat
//! different approach to recovering from network misbehavior".

use vi_radio::{Process, RoundCtx, RoundReception, WireSized};

/// Wire messages of slotted 3PC.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TpcMessage<V> {
    /// Coordinator's proposal.
    CanCommit(V),
    /// Ranked yes-vote.
    VoteYes,
    /// Coordinator's pre-commit.
    PreCommit,
    /// Ranked pre-commit acknowledgement.
    AckPre,
    /// Coordinator's final commit order.
    DoCommit,
}

impl<V: WireSized> WireSized for TpcMessage<V> {
    fn wire_size(&self) -> usize {
        match self {
            TpcMessage::CanCommit(v) => 1 + v.wire_size(),
            _ => 1,
        }
    }
}

/// Per-instance outcome at one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TpcDecision {
    /// The value was committed.
    Committed,
    /// The instance aborted.
    Aborted,
}

/// One ranked 3PC node (rank 0 coordinates).
pub struct ThreePhaseCommit<V> {
    rank: usize,
    n: usize,
    make_value: Box<dyn FnMut(u64) -> V>,
    // Current-instance state.
    proposal: Option<V>,
    votes: usize,
    precommitted: bool,
    acks: usize,
    do_commit: bool,
    /// Per-instance decisions.
    decisions: Vec<TpcDecision>,
    /// Instances that ended via the uncertainty termination rule
    /// (window expired without do-commit after voting yes).
    uncertain_terminations: u64,
}

impl<V: Clone + 'static> ThreePhaseCommit<V> {
    /// Creates node `rank` of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= n` or `n < 2`.
    pub fn new(rank: usize, n: usize, make_value: Box<dyn FnMut(u64) -> V>) -> Self {
        assert!(n >= 2 && rank < n, "need n >= 2 and rank < n");
        ThreePhaseCommit {
            rank,
            n,
            make_value,
            proposal: None,
            votes: 0,
            precommitted: false,
            acks: 0,
            do_commit: false,
            decisions: Vec::new(),
            uncertain_terminations: 0,
        }
    }

    /// Rounds per instance: `3 + 2(n−1)`.
    pub fn window(n: usize) -> u64 {
        3 + 2 * (n as u64 - 1)
    }

    /// Decisions so far.
    pub fn decisions(&self) -> &[TpcDecision] {
        &self.decisions
    }

    /// Instances terminated under uncertainty.
    pub fn uncertain_terminations(&self) -> u64 {
        self.uncertain_terminations
    }

    fn participants(&self) -> u64 {
        self.n as u64 - 1
    }
}

impl<V: Clone + WireSized + 'static> Process<TpcMessage<V>> for ThreePhaseCommit<V> {
    fn transmit(&mut self, ctx: &RoundCtx) -> Option<TpcMessage<V>> {
        let w = Self::window(self.n);
        let slot = ctx.round % w;
        let m = self.participants();
        match slot {
            0 => {
                self.proposal = None;
                self.votes = 0;
                self.precommitted = false;
                self.acks = 0;
                self.do_commit = false;
                (self.rank == 0).then(|| {
                    let instance = ctx.round / w + 1;
                    TpcMessage::CanCommit((self.make_value)(instance))
                })
            }
            s if s >= 1 && s <= m => {
                (self.rank as u64 == s && self.proposal.is_some()).then_some(TpcMessage::VoteYes)
            }
            s if s == m + 1 => {
                (self.rank == 0 && self.votes >= m as usize).then_some(TpcMessage::PreCommit)
            }
            s if s >= m + 2 && s <= 2 * m + 1 => {
                (self.rank as u64 == s - m - 1 && self.precommitted).then_some(TpcMessage::AckPre)
            }
            _ => (self.rank == 0 && self.acks >= m as usize).then_some(TpcMessage::DoCommit),
        }
    }

    fn deliver(&mut self, ctx: &RoundCtx, rx: RoundReception<'_, TpcMessage<V>>) {
        let w = Self::window(self.n);
        let slot = ctx.round % w;
        for msg in rx.messages {
            match msg {
                TpcMessage::CanCommit(v) => self.proposal = Some(v.clone()),
                TpcMessage::VoteYes => self.votes += 1,
                TpcMessage::PreCommit => self.precommitted = true,
                TpcMessage::AckPre => self.acks += 1,
                TpcMessage::DoCommit => self.do_commit = true,
            }
        }
        if slot == w - 1 {
            let decision = if self.do_commit {
                TpcDecision::Committed
            } else if self.precommitted {
                // Termination rule under uncertainty: a pre-committed
                // node commits.
                self.uncertain_terminations += 1;
                TpcDecision::Committed
            } else {
                if self.proposal.is_some() {
                    self.uncertain_terminations += 1;
                }
                TpcDecision::Aborted
            };
            self.decisions.push(decision);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_radio::adversary::ScriptedAdversary;
    use vi_radio::geometry::Point;
    use vi_radio::{Engine, EngineConfig, NodeId, NodeSpec, RadioConfig};

    fn build(
        n: usize,
        crash_coord_at: Option<u64>,
        radio: RadioConfig,
    ) -> (Engine<TpcMessage<u64>>, Vec<NodeId>) {
        let mut engine = Engine::new(EngineConfig {
            radio,
            seed: 5,
            record_trace: false,
        });
        let ids: Vec<_> = (0..n)
            .map(|i| {
                let mut spec = NodeSpec::new(
                    Box::new(Point::new(i as f64 * 0.2, 0.0)),
                    Box::new(ThreePhaseCommit::<u64>::new(i, n, Box::new(|k| k)))
                        as Box<dyn vi_radio::Process<TpcMessage<u64>>>,
                );
                if i == 0 {
                    if let Some(r) = crash_coord_at {
                        spec = spec.crash_at(r);
                    }
                }
                engine.add_node(spec)
            })
            .collect();
        (engine, ids)
    }

    #[test]
    fn commits_on_clean_channel() {
        let n = 4;
        let (mut engine, ids) = build(n, None, RadioConfig::reliable(10.0, 20.0));
        engine.run(3 * ThreePhaseCommit::<u64>::window(n));
        for &id in &ids {
            let node: &ThreePhaseCommit<u64> = engine.process(id).unwrap();
            assert_eq!(
                node.decisions(),
                &[TpcDecision::Committed; 3],
                "all instances commit"
            );
            assert_eq!(node.uncertain_terminations(), 0);
        }
    }

    #[test]
    fn partitioned_precommit_plus_coordinator_crash_is_inconsistent() {
        // The E12 scenario: the pre-commit (round m+1 = 4 with n=4)
        // reaches node 1 but is dropped at nodes 2 and 3; the
        // coordinator crashes before do-commit. Node 1's termination
        // rule commits; nodes 2 and 3 abort — disagreement.
        let n = 4;
        let w = ThreePhaseCommit::<u64>::window(n); // 9
        let radio = RadioConfig::stabilizing(10.0, 20.0, 1_000);
        let (mut engine, ids) = build(n, Some(5), radio);
        let mut adv = ScriptedAdversary::new();
        adv.drop(4, ids[0], ids[2]);
        adv.drop(4, ids[0], ids[3]);
        engine.set_adversary(Box::new(adv));
        engine.run(w);
        let d1 = engine
            .process::<ThreePhaseCommit<u64>>(ids[1])
            .unwrap()
            .decisions()[0];
        let d2 = engine
            .process::<ThreePhaseCommit<u64>>(ids[2])
            .unwrap()
            .decisions()[0];
        assert_eq!(d1, TpcDecision::Committed, "pre-committed node commits");
        assert_eq!(d2, TpcDecision::Aborted, "uncertain node aborts");
    }

    #[test]
    fn window_is_linear_in_n() {
        assert_eq!(ThreePhaseCommit::<u64>::window(2), 5);
        assert_eq!(ThreePhaseCommit::<u64>::window(4), 9);
        assert_eq!(ThreePhaseCommit::<u64>::window(10), 21);
    }
}
