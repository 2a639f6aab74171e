//! The "naïve solution" of Section 3.4: broadcast the entire history
//! every instance.
//!
//! "By contrast, a naïve solution might include the entire history in
//! every message." This baseline does exactly that: per instance the
//! leader appends its proposal and broadcasts the complete history;
//! receivers adopt it wholesale. One round per instance, trivially
//! consistent on a clean channel — but the message size grows
//! *linearly* with execution length, which is what experiment E2
//! contrasts with CHAP's constant-size ballots (Theorem 14).

use vi_contention::{ChannelFeedback, CmSlot, SharedCm};
use vi_core::cha::Proposer;
use vi_radio::{Process, RoundCtx, RoundReception, WireSized};

/// The full history, re-broadcast every instance.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FullHistoryMessage<V> {
    /// One decided value per instance `1..=k` (⊥ entries are `None`).
    pub history: Vec<Option<V>>,
}

impl<V: WireSized> WireSized for FullHistoryMessage<V> {
    fn wire_size(&self) -> usize {
        8 + self
            .history
            .iter()
            .map(|e| 1 + e.as_ref().map_or(0, WireSized::wire_size))
            .sum::<usize>()
    }
}

/// One participant of the full-history RSM baseline.
pub struct FullHistoryNode<V> {
    proposer: Box<dyn Proposer<V>>,
    cm: SharedCm,
    slot: CmSlot,
    history: Vec<Option<V>>,
    /// Per-instance outcome: `Some(len)` if a history of that length
    /// was adopted, `None` for ⊥.
    outputs: Vec<Option<usize>>,
    was_active: bool,
    /// Wire size of each message this node broadcast (the E2 metric).
    sent_sizes: Vec<usize>,
}

impl<V: Clone + Ord + WireSized + 'static> FullHistoryNode<V> {
    /// Creates a participant sharing the region's contention manager.
    pub fn new(proposer: Box<dyn Proposer<V>>, cm: SharedCm) -> Self {
        let slot = cm.register();
        FullHistoryNode {
            proposer,
            cm,
            slot,
            history: Vec::new(),
            outputs: Vec::new(),
            was_active: false,
            sent_sizes: Vec::new(),
        }
    }

    /// The adopted history.
    pub fn history(&self) -> &[Option<V>] {
        &self.history
    }

    /// Per-instance outcomes.
    pub fn outputs(&self) -> &[Option<usize>] {
        &self.outputs
    }

    /// Sizes of the messages this node broadcast, in instance order.
    pub fn sent_sizes(&self) -> &[usize] {
        &self.sent_sizes
    }
}

impl<V: Clone + Ord + WireSized + 'static> Process<FullHistoryMessage<V>> for FullHistoryNode<V> {
    fn transmit(&mut self, ctx: &RoundCtx) -> Option<FullHistoryMessage<V>> {
        // One instance per round: instance = round + 1.
        let instance = ctx.round + 1;
        let advice = self.cm.contend(self.slot, ctx.round, ctx.pos);
        self.was_active = advice.is_active();
        if !self.was_active {
            return None;
        }
        let v = self.proposer.propose(instance);
        let mut h = self.history.clone();
        h.resize(instance as usize, None);
        h[instance as usize - 1] = Some(v);
        let msg = FullHistoryMessage { history: h };
        self.sent_sizes.push(msg.wire_size());
        Some(msg)
    }

    fn deliver(&mut self, ctx: &RoundCtx, rx: RoundReception<'_, FullHistoryMessage<V>>) {
        let feedback = ChannelFeedback::of(self.was_active, rx.collision, !rx.messages.is_empty());
        self.cm.observe(self.slot, ctx.round, feedback);

        if rx.collision || rx.messages.is_empty() {
            self.outputs.push(None);
            return;
        }
        let adopted = rx.messages.iter().min().expect("nonempty").clone();
        self.history = adopted.history;
        self.outputs.push(Some(self.history.len()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_contention::OracleCm;
    use vi_core::cha::TaggedProposer;
    use vi_radio::geometry::Point;
    use vi_radio::mobility::Static;
    use vi_radio::{Engine, EngineConfig, NodeSpec, RadioConfig};

    fn run(n: usize, rounds: u64) -> (Engine<FullHistoryMessage<u64>>, Vec<vi_radio::NodeId>) {
        let mut engine = Engine::new(EngineConfig {
            radio: RadioConfig::reliable(10.0, 20.0),
            seed: 3,
            record_trace: false,
        });
        let cm = SharedCm::new(OracleCm::perfect());
        let ids: Vec<_> = (0..n)
            .map(|i| {
                engine.add_node(NodeSpec::new(
                    Box::new(Static::new(Point::new(i as f64 * 0.3, 0.0))),
                    Box::new(FullHistoryNode::new(
                        Box::new(TaggedProposer::new(i as u64)),
                        cm.clone(),
                    )),
                ))
            })
            .collect();
        engine.run(rounds);
        (engine, ids)
    }

    #[test]
    fn histories_replicate() {
        let (engine, ids) = run(3, 10);
        let leader: &FullHistoryNode<u64> = engine.process(ids[0]).unwrap();
        let follower: &FullHistoryNode<u64> = engine.process(ids[2]).unwrap();
        assert_eq!(leader.history(), follower.history());
        assert!(follower.history().len() >= 9);
    }

    #[test]
    fn message_size_grows_linearly() {
        let (engine, ids) = run(2, 50);
        let leader: &FullHistoryNode<u64> = engine.process(ids[0]).unwrap();
        let sizes = leader.sent_sizes();
        assert!(sizes.len() >= 49);
        // Strictly growing: each instance appends one entry.
        assert!(sizes.windows(2).all(|w| w[1] > w[0]));
        let growth = sizes[40] - sizes[10];
        assert!(growth >= 30 * 9, "≈9 bytes per appended entry: {growth}");
        assert_eq!(engine.stats().max_message_bytes, *sizes.last().unwrap());
    }

    #[test]
    fn one_round_per_instance() {
        let (engine, ids) = run(2, 20);
        let node: &FullHistoryNode<u64> = engine.process(ids[1]).unwrap();
        assert_eq!(node.outputs().len(), 20);
    }
}
