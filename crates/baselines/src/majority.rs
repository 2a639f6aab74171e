//! Majority-acknowledgement consensus: the classic wired-network RSM
//! pattern, transplanted to the broadcast channel.
//!
//! Section 1.5: "most such protocols require at least a majority of
//! the nodes to send messages; in a wireless network this creates
//! unacceptable channel contention and long delays." Because only one
//! message fits on the channel per round, collecting `⌊n/2⌋ + 1`
//! acknowledgements takes `Θ(n)` rounds per decision — the cost
//! experiment E3 contrasts with CHAP's constant three rounds.
//!
//! The protocol per instance, over a window of `1 + ⌊n/2⌋` rounds:
//! round 0 the leader proposes; round `i ∈ 1..=⌊n/2⌋` the `i`-th-ranked
//! node acknowledges (slotted, to avoid self-inflicted collisions).
//! An instance decides at a node if it saw the proposal and all
//! required acks (the leader counts itself towards the majority).
//! Note this baseline *requires ranked identities* — something the
//! paper's model explicitly does not grant mobile nodes, which is
//! itself part of the argument for CHA.

use vi_radio::{Process, RoundCtx, RoundReception, WireSized};

/// Wire messages of the majority baseline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MajorityMessage<V> {
    /// The leader's proposal for the current instance.
    Propose(V),
    /// A ranked acknowledgement.
    Ack,
}

impl<V: WireSized> WireSized for MajorityMessage<V> {
    fn wire_size(&self) -> usize {
        match self {
            MajorityMessage::Propose(v) => 1 + v.wire_size(),
            MajorityMessage::Ack => 1,
        }
    }
}

/// One ranked participant of the majority baseline.
pub struct MajorityConsensus<V> {
    rank: usize,
    n: usize,
    make_value: Box<dyn FnMut(u64) -> V>,
    /// Current-instance bookkeeping.
    got_proposal: Option<V>,
    acks_seen: usize,
    lost: bool,
    /// Per-instance decisions (`Some(value)` or ⊥).
    decisions: Vec<Option<V>>,
}

impl<V: Clone + 'static> MajorityConsensus<V> {
    /// Creates participant `rank` of `n` (rank 0 is the leader).
    ///
    /// # Panics
    ///
    /// Panics if `rank >= n` or `n == 0`.
    pub fn new(rank: usize, n: usize, make_value: Box<dyn FnMut(u64) -> V>) -> Self {
        assert!(n > 0 && rank < n, "rank {rank} out of 0..{n}");
        MajorityConsensus {
            rank,
            n,
            make_value,
            got_proposal: None,
            acks_seen: 0,
            lost: false,
            decisions: Vec::new(),
        }
    }

    /// Rounds one instance occupies: `1 + ⌊n/2⌋` (a proposal round
    /// plus one slot per required participant ack) — Θ(n).
    pub fn window(n: usize) -> u64 {
        1 + Self::needed_acks(n) as u64
    }

    /// Participant acks required: the leader counts itself towards the
    /// majority of `⌊n/2⌋ + 1`, so `⌊n/2⌋` others must ack.
    pub fn needed_acks(n: usize) -> usize {
        n / 2
    }

    /// Per-instance decisions so far.
    pub fn decisions(&self) -> &[Option<V>] {
        &self.decisions
    }

    fn slot(&self, round: u64) -> u64 {
        round % Self::window(self.n)
    }
}

impl<V: Clone + WireSized + 'static> Process<MajorityMessage<V>> for MajorityConsensus<V> {
    fn transmit(&mut self, ctx: &RoundCtx) -> Option<MajorityMessage<V>> {
        let slot = self.slot(ctx.round);
        if slot == 0 {
            // New instance.
            self.got_proposal = None;
            self.acks_seen = 0;
            self.lost = false;
            if self.rank == 0 {
                let instance = ctx.round / Self::window(self.n) + 1;
                return Some(MajorityMessage::Propose((self.make_value)(instance)));
            }
            return None;
        }
        // Ack slots 1..=needed, by rank; only ack if the proposal
        // arrived intact.
        (slot as usize == self.rank && self.got_proposal.is_some() && !self.lost)
            .then_some(MajorityMessage::Ack)
    }

    fn deliver(&mut self, ctx: &RoundCtx, rx: RoundReception<'_, MajorityMessage<V>>) {
        let slot = self.slot(ctx.round);
        if rx.collision {
            self.lost = true;
        }
        for m in rx.messages {
            match m {
                MajorityMessage::Propose(v) => self.got_proposal = Some(v.clone()),
                MajorityMessage::Ack => self.acks_seen += 1,
            }
        }
        if slot == Self::window(self.n) - 1 {
            // Instance concludes.
            let decided = (!self.lost
                && self.acks_seen >= Self::needed_acks(self.n)
                && self.got_proposal.is_some())
            .then(|| self.got_proposal.clone().expect("checked"));
            self.decisions.push(decided);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_radio::geometry::Point;
    use vi_radio::{Engine, EngineConfig, NodeSpec, RadioConfig};

    fn run(n: usize, instances: u64) -> (Engine<MajorityMessage<u64>>, Vec<vi_radio::NodeId>) {
        let mut engine = Engine::new(EngineConfig {
            radio: RadioConfig::reliable(10.0, 20.0),
            seed: 3,
            record_trace: false,
        });
        let ids: Vec<_> = (0..n)
            .map(|i| {
                engine.add_node(NodeSpec::new(
                    Box::new(Point::new(i as f64 * 0.2, 0.0)),
                    Box::new(MajorityConsensus::new(
                        i,
                        n,
                        Box::new(move |k| k * 100 + i as u64),
                    )),
                ))
            })
            .collect();
        engine.run(instances * MajorityConsensus::<u64>::window(n));
        (engine, ids)
    }

    #[test]
    fn decides_on_clean_channel() {
        let (engine, ids) = run(5, 4);
        for &id in &ids {
            let node: &MajorityConsensus<u64> = engine.process(id).unwrap();
            assert_eq!(node.decisions().len(), 4);
            for (k, d) in node.decisions().iter().enumerate() {
                assert_eq!(*d, Some((k as u64 + 1) * 100), "leader's value decided");
            }
        }
    }

    #[test]
    fn window_grows_linearly_with_n() {
        assert_eq!(MajorityConsensus::<u64>::window(2), 2);
        assert_eq!(MajorityConsensus::<u64>::window(4), 3);
        assert_eq!(MajorityConsensus::<u64>::window(16), 9);
        assert_eq!(MajorityConsensus::<u64>::window(64), 33);
        assert_eq!(MajorityConsensus::<u64>::window(256), 129);
    }

    #[test]
    fn needed_acks_is_half() {
        assert_eq!(MajorityConsensus::<u64>::needed_acks(5), 2);
        assert_eq!(MajorityConsensus::<u64>::needed_acks(6), 3);
    }

    #[test]
    fn crashed_acker_blocks_decisions() {
        // Rank-1 crash: its ack slot stays silent, majority of 2 is
        // still reachable with ranks 1..=2 acking... with n=3 majority
        // is 2 (ranks 1 and 2). Crash rank 1 ⇒ only one ack ⇒ ⊥ forever.
        let n = 3;
        let mut engine = Engine::new(EngineConfig {
            radio: RadioConfig::reliable(10.0, 20.0),
            seed: 3,
            record_trace: false,
        });
        let ids: Vec<_> = (0..n)
            .map(|i| {
                let spec = NodeSpec::new(
                    Box::new(Point::new(i as f64 * 0.2, 0.0)),
                    Box::new(MajorityConsensus::<u64>::new(i, n, Box::new(|k| k)))
                        as Box<dyn vi_radio::Process<MajorityMessage<u64>>>,
                );
                let spec = if i == 1 { spec.crash_at(0) } else { spec };
                engine.add_node(spec)
            })
            .collect();
        engine.run(4 * MajorityConsensus::<u64>::window(n));
        let node: &MajorityConsensus<u64> = engine.process(ids[2]).unwrap();
        assert!(node.decisions().iter().all(|d| d.is_none()));
    }

    #[test]
    #[should_panic(expected = "out of 0..")]
    fn rejects_bad_rank() {
        let _ = MajorityConsensus::<u64>::new(3, 3, Box::new(|k| k));
    }
}
