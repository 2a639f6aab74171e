//! Radio adapter: runs [`ChaProtocol`] over the simulated channel.
//!
//! One CHAP instance occupies three consecutive rounds (ballot,
//! veto-1, veto-2 — `round % 3` selects the phase), matching the
//! Section 3 setting: a single region in which all `n` nodes stay
//! within `R1/2` of a fixed location and share one leader-election
//! contention manager.

use crate::cha::history::Ballot;
use crate::cha::protocol::{ChaMessage, ChaOutput, ChaProtocol, Phase};
use crate::cha::spec::SharedChaSpec;
use vi_contention::{ChannelFeedback, CmSlot, SharedCm};
use vi_radio::{Process, RoundCtx, RoundReception};
use vi_telemetry::Observers;

/// Supplies the proposal for each instance (Figure 1's `propose(k)`
/// input). In the virtual-infrastructure emulation the proposal is the
/// set of messages a replica believes the virtual node received; in
/// the Section 3 experiments it is a test value.
pub trait Proposer<V>: 'static {
    /// The value this node proposes for `instance`.
    fn propose(&mut self, instance: u64) -> V;
}

impl<V, F: FnMut(u64) -> V + 'static> Proposer<V> for F {
    fn propose(&mut self, instance: u64) -> V {
        self(instance)
    }
}

/// A proposer producing `instance * 1_000_000 + tag`: values are
/// per-node distinguishable and totally ordered, so checkers can
/// verify Validity (every decided value traces back to some node's
/// proposal).
#[derive(Clone, Copy, Debug)]
pub struct TaggedProposer {
    tag: u64,
}

impl TaggedProposer {
    /// Creates a proposer with the given node tag (`tag <
    /// 1_000_000`).
    pub fn new(tag: u64) -> Self {
        assert!(tag < 1_000_000, "tag must fit below the instance stride");
        TaggedProposer { tag }
    }

    /// Decodes a proposed value back into `(instance, tag)`.
    pub fn decode(value: u64) -> (u64, u64) {
        (value / 1_000_000, value % 1_000_000)
    }
}

impl Proposer<u64> for TaggedProposer {
    fn propose(&mut self, instance: u64) -> u64 {
        instance * 1_000_000 + self.tag
    }
}

/// What a node without a checker keeps of its run, in one box so that
/// a checked node pays one null pointer for it.
struct Kept<V> {
    outputs: Vec<ChaOutput<V>>,
    proposals: Vec<(u64, V)>,
}

/// One CHAP participant wired to the radio engine and a shared
/// contention manager.
pub struct ChaNode<V: Clone + 'static> {
    protocol: ChaProtocol<V>,
    proposer: Box<dyn Proposer<V>>,
    cm: SharedCm,
    slot: CmSlot,
    /// Whether this node has reached its first ballot phase (nodes
    /// spawning mid-instance wait for the next instance boundary).
    synced: bool,
    /// Whether the node broadcast in the current ballot phase (for
    /// contention-manager feedback).
    was_active: bool,
    /// The run's checker and this node's index in it, if any.
    spec: Option<(SharedChaSpec<V>, usize)>,
    /// The outputs and proposals of a node without a checker, boxed
    /// at its first proposal (or by [`ChaNode::with_instances`]).
    kept: Option<Box<Kept<V>>>,
    /// The run's observers (null by default): propose/decide spans
    /// form the per-instance prev-chain of the causal DAG.
    obs: Observers,
    /// This node's tag in causal spans (the simulator node index).
    causal_node: u64,
}

impl<V: Clone + Ord + 'static> ChaNode<V> {
    /// Creates a participant that runs from instance 1. `cm` must be
    /// the manager shared by all nodes of this region; the node
    /// registers itself.
    ///
    /// Nodes spawning mid-execution **must not** use this constructor:
    /// without the early ballots they cannot reconstruct histories
    /// (the Section 3 model fixes the participant set up front; late
    /// arrival requires the Section 4 join protocol's state transfer —
    /// use [`ChaNode::from_checkpoint`]).
    pub fn new(proposer: Box<dyn Proposer<V>>, cm: SharedCm) -> Self {
        Self::with_protocol(ChaProtocol::new(), proposer, cm)
    }

    /// Creates a participant resuming from transferred state: the
    /// decided prefix up to `checkpoint` is summarized externally and
    /// the cluster is about to start `next_instance + 1` (see
    /// [`ChaProtocol::from_checkpoint`]).
    pub fn from_checkpoint(
        checkpoint: u64,
        next_instance: u64,
        proposer: Box<dyn Proposer<V>>,
        cm: SharedCm,
    ) -> Self {
        Self::with_protocol(
            ChaProtocol::from_checkpoint(checkpoint, next_instance),
            proposer,
            cm,
        )
    }

    fn with_protocol(
        protocol: ChaProtocol<V>,
        proposer: Box<dyn Proposer<V>>,
        cm: SharedCm,
    ) -> Self {
        let slot = cm.register();
        ChaNode {
            protocol,
            proposer,
            cm,
            slot,
            synced: false,
            was_active: false,
            spec: None,
            kept: None,
            obs: Observers::default(),
            causal_node: 0,
        }
    }

    /// This participant reporting to the run's observers; `node` tags
    /// its propose/decide spans (use the simulator node index so they
    /// line up with the engine's broadcast spans).
    pub fn with_observers(mut self, obs: Observers, node: u64) -> Self {
        self.obs = obs;
        self.causal_node = node;
        self
    }

    /// This participant handing each proposal and output to the run's
    /// checker, as node `node`, as it makes them, and keeping neither.
    pub fn with_checker(mut self, spec: SharedChaSpec<V>, node: usize) -> Self {
        self.spec = Some((spec, node));
        self
    }

    /// This participant running exactly `instances` instances: its
    /// protocol window (and, without a checker, its outputs and
    /// proposals) is sized for them once, where a node that is not told
    /// grows each as it goes. A checkpoint joiner counts only the
    /// instances after its checkpoint.
    pub fn with_instances(mut self, instances: usize) -> Self {
        if self.spec.is_none() {
            let kept = self.kept();
            kept.outputs.reserve_exact(instances);
            kept.proposals.reserve_exact(instances);
        }
        self.protocol.reserve_instances(instances);
        self
    }

    /// What this node keeps, boxed on first use.
    fn kept(&mut self) -> &mut Kept<V> {
        self.kept.get_or_insert_with(|| {
            Box::new(Kept {
                outputs: Vec::new(),
                proposals: Vec::new(),
            })
        })
    }

    /// The outputs this node kept, in instance order: one per instance
    /// it finished, or none if it hands them to a checker
    /// ([`with_checker`](Self::with_checker)).
    pub fn outputs(&self) -> &[ChaOutput<V>] {
        self.kept.as_ref().map_or(&[], |kept| &kept.outputs)
    }

    /// The proposals this node kept, as `(instance, value)`: one per
    /// ballot phase it ran, or none if it hands them to a checker
    /// ([`with_checker`](Self::with_checker)).
    pub fn proposals(&self) -> &[(u64, V)] {
        self.kept.as_ref().map_or(&[], |kept| &kept.proposals)
    }

    /// The underlying protocol state (for inspection).
    pub fn protocol(&self) -> &ChaProtocol<V> {
        &self.protocol
    }
}

impl<V: Clone + Ord + vi_radio::WireSized + 'static> Process<ChaMessage<V>> for ChaNode<V> {
    fn transmit(&mut self, ctx: &RoundCtx) -> Option<ChaMessage<V>> {
        match Phase::of_round(ctx.round) {
            Phase::Ballot => {
                self.synced = true;
                let instance = self.protocol.instance() + 1;
                let proposal = self.proposer.propose(instance);
                match &self.spec {
                    Some((spec, _)) => spec.borrow_mut().propose(instance, proposal.clone()),
                    None => self.kept().proposals.push((instance, proposal.clone())),
                }
                let ballot = self.protocol.begin_instance(proposal);
                self.obs.causal(|c| c.propose(self.causal_node, instance));
                let advice = self.cm.contend(self.slot, ctx.round, ctx.pos);
                self.was_active = advice.is_active();
                self.was_active.then_some(ChaMessage::Ballot(ballot))
            }
            step if self.synced => self.protocol.vetoes(step).then_some(ChaMessage::Veto),
            _ => None,
        }
    }

    fn deliver(&mut self, ctx: &RoundCtx, rx: RoundReception<'_, ChaMessage<V>>) {
        if !self.synced {
            return;
        }
        let veto_heard = rx.messages.iter().any(|m| matches!(m, ChaMessage::Veto));
        match Phase::of_round(ctx.round) {
            Phase::Ballot => {
                let min_ballot = Ballot::min_heard(rx.messages.iter().filter_map(|m| match m {
                    ChaMessage::Ballot(b) => Some(b),
                    ChaMessage::Veto => None,
                }));
                let feedback =
                    ChannelFeedback::of(self.was_active, rx.collision, !min_ballot.is_empty());
                self.cm.observe(self.slot, ctx.round, feedback);
                self.protocol.on_ballot_phase(min_ballot, rx.collision);
            }
            Phase::Veto1 => self.protocol.on_veto1_phase(veto_heard, rx.collision),
            Phase::Veto2 => {
                let out = self.protocol.on_veto2_phase(veto_heard, rx.collision);
                if out.decided() {
                    self.obs
                        .causal(|c| c.decide(self.causal_node, out.instance));
                }
                match &self.spec {
                    Some((spec, node)) => spec.borrow_mut().output(*node, out),
                    None => self.kept().outputs.push(out),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cha::history::Color;
    use crate::cha::spec::ChaSpecStream;
    use std::cell::RefCell;
    use std::rc::Rc;
    use vi_contention::{Advice, ContentionManager, OracleCm};
    use vi_radio::geometry::Point;
    use vi_radio::{Engine, EngineConfig, NodeSpec, RadioConfig};

    type Clique = Engine<ChaMessage<u64>, ChaNode<u64>>;

    fn clique(n: usize) -> (Clique, Vec<vi_radio::NodeId>, SharedCm) {
        let mut engine = Engine::new(EngineConfig {
            radio: RadioConfig::reliable(10.0, 20.0),
            seed: 1,
            record_trace: false,
        });
        let cm = SharedCm::new(OracleCm::perfect());
        let ids = (0..n)
            .map(|i| {
                engine.add_node(NodeSpec::by_value(
                    Box::new(Point::new(i as f64 * 0.5, 0.0)),
                    ChaNode::new(Box::new(TaggedProposer::new(i as u64)), cm.clone()),
                ))
            })
            .collect();
        (engine, ids, cm)
    }

    #[test]
    fn reliable_clique_decides_every_instance() {
        let (mut engine, ids, _cm) = clique(4);
        engine.run(30); // 10 instances
        for &id in &ids {
            let node = engine.process_at(id);
            assert_eq!(node.outputs().len(), 10);
            // After the oracle's one-round bootstrap, every instance
            // is green (instance 1 may bootstrap the leader).
            for out in &node.outputs()[1..] {
                assert_eq!(out.color, Color::Green, "instance {}", out.instance);
                assert!(out.decided());
            }
        }
    }

    #[test]
    fn decided_values_come_from_the_leader() {
        let (mut engine, ids, _cm) = clique(3);
        engine.run(30);
        let node = engine.process_at(ids[1]);
        let last = node.outputs().last().unwrap();
        let h = last.history.as_ref().unwrap();
        for (instance, v) in h.iter() {
            let (inst, tag) = TaggedProposer::decode(*v);
            assert_eq!(inst, instance, "value proposed for its own instance");
            assert_eq!(tag, 0, "oracle leader is the lowest slot");
        }
    }

    #[test]
    fn all_nodes_decide_identical_histories() {
        let (mut engine, ids, _cm) = clique(5);
        engine.run(60);
        let histories: Vec<_> = ids
            .iter()
            .map(|&id| {
                let node = engine.process_at(id);
                node.outputs().last().unwrap().history.clone().unwrap()
            })
            .collect();
        for h in &histories[1..] {
            assert_eq!(h, &histories[0]);
        }
    }

    #[test]
    fn a_node_keeps_its_run_only_without_a_checker() {
        let cm = SharedCm::new(OracleCm::perfect());
        let spec = Rc::new(RefCell::new(ChaSpecStream::new(1)));
        let mut engine: Clique = Engine::new(EngineConfig {
            radio: RadioConfig::reliable(10.0, 20.0),
            seed: 1,
            record_trace: false,
        });
        let node = |tag| ChaNode::new(Box::new(TaggedProposer::new(tag)), cm.clone());
        let kept = engine.add_node(NodeSpec::by_value(Box::new(Point::ORIGIN), node(0)));
        let checked = engine.add_node(NodeSpec::by_value(
            Box::new(Point::new(0.5, 0.0)),
            node(1).with_checker(Rc::clone(&spec), 0),
        ));
        // Seven ballot phases, six of them finished.
        engine.run(20);
        let kept = engine.process_at(kept);
        let instances: Vec<u64> = kept.proposals().iter().map(|&(k, _)| k).collect();
        assert_eq!(instances, [1, 2, 3, 4, 5, 6, 7]);
        let finished: Vec<u64> = kept.outputs().iter().map(|o| o.instance).collect();
        assert_eq!(finished, [1, 2, 3, 4, 5, 6]);

        let checked = engine.process_at(checked);
        assert!(checked.proposals().is_empty() && checked.outputs().is_empty());
        assert!(checked.kept.is_none(), "a checked node boxes nothing");
        assert_eq!(spec.borrow().output_count(), 6, "its checker got them");
    }

    #[test]
    fn late_spawner_with_state_transfer_syncs_to_instance_boundary() {
        let (mut engine, ids, cm) = clique(2);
        // Spawns mid-instance (round 4 is a veto-1 phase) with a
        // checkpoint transferred as of instance 2 (what the Section 4
        // join protocol would hand over): it waits for the round-6
        // ballot phase and participates from instance 3.
        let late = engine.add_node(
            NodeSpec::by_value(
                Box::new(Point::new(2.0, 0.0)),
                ChaNode::from_checkpoint(2, 2, Box::new(TaggedProposer::new(99)), cm),
            )
            .spawn_at(4),
        );
        engine.run(12);
        let node = engine.process_at(late);
        // Instances 3 and 4 completed by round 12, decided green, and
        // its suffix histories agree with the veterans'.
        assert_eq!(node.outputs().len(), 2);
        assert!(node.outputs().iter().all(|o| o.decided()));
        let veteran = engine.process_at(ids[0]);
        let vh = veteran.outputs().last().unwrap().history.as_ref().unwrap();
        let jh = node.outputs().last().unwrap().history.as_ref().unwrap();
        for k in 3..=4 {
            assert_eq!(vh.get(k), jh.get(k), "suffix agreement at {k}");
        }
    }

    /// Answers `contend` from a script and logs what `observe` is told.
    struct ScriptedCm {
        slots: OracleCm,
        active: bool,
        observed: Rc<RefCell<Vec<ChannelFeedback>>>,
    }

    impl ContentionManager for ScriptedCm {
        fn register(&mut self) -> CmSlot {
            self.slots.register()
        }

        fn contend(&mut self, _: CmSlot, _: u64, _: Point) -> Advice {
            if self.active {
                Advice::Active
            } else {
                Advice::Passive
            }
        }

        fn observe(&mut self, _: CmSlot, _: u64, feedback: ChannelFeedback) {
            self.observed.borrow_mut().push(feedback);
        }
    }

    /// The ballot phase as `deliver` ran it before it folded the
    /// minimum: every ballot heard cloned into a vector, the vector
    /// handed to the protocol. Returns the adopted ballot, the color
    /// and the feedback.
    fn collecting_ballot_phase(
        messages: &[ChaMessage<u64>],
        was_active: bool,
        collision: bool,
    ) -> (Option<Ballot<u64>>, Color, ChannelFeedback) {
        let ballots: Vec<Ballot<u64>> = messages
            .iter()
            .filter_map(|m| match m {
                ChaMessage::Ballot(b) => Some(*b),
                ChaMessage::Veto => None,
            })
            .collect();
        let feedback = if was_active {
            if collision {
                ChannelFeedback::TxCollided
            } else {
                ChannelFeedback::TxSucceeded
            }
        } else if collision {
            ChannelFeedback::HeardCollision
        } else if !ballots.is_empty() {
            ChannelFeedback::HeardOther
        } else {
            ChannelFeedback::Quiet
        };
        let mut protocol = ChaProtocol::new();
        protocol.begin_instance(0);
        protocol.on_ballot_phase(&ballots, collision);
        (
            protocol.ballot_of(1).copied(),
            protocol.color_of(1).expect("instance 1 ran"),
            feedback,
        )
    }

    #[test]
    fn ballot_phase_adopts_colors_and_reports_as_the_collecting_code_did() {
        let own = ChaMessage::Ballot(Ballot::new(1_000_005, 0));
        let foreign = |tag: u64, prev: u64| ChaMessage::Ballot(Ballot::new(1_000_000 + tag, prev));
        let cases: [(&str, bool, Vec<ChaMessage<u64>>); 5] = [
            ("silent", false, vec![]),
            ("own ballot only", true, vec![own.clone()]),
            ("one foreign", false, vec![foreign(9, 0)]),
            (
                "several, the minimum neither first nor last",
                false,
                vec![
                    foreign(7, 1),
                    ChaMessage::Veto,
                    foreign(2, 1),
                    foreign(2, 0),
                    foreign(4, 0),
                ],
            ),
            (
                "own among several",
                true,
                vec![foreign(8, 0), own.clone(), foreign(6, 0)],
            ),
        ];
        let ctx = RoundCtx {
            round: 0,
            pos: Point::new(0.0, 0.0),
        };
        for (what, active, messages) in &cases {
            for collision in [false, true] {
                let observed = Rc::new(RefCell::new(Vec::new()));
                let cm = SharedCm::new(ScriptedCm {
                    slots: OracleCm::perfect(),
                    active: *active,
                    observed: Rc::clone(&observed),
                });
                let mut node = ChaNode::new(Box::new(TaggedProposer::new(5)), cm);
                assert_eq!(node.transmit(&ctx).is_some(), *active, "{what}");
                node.deliver(
                    &ctx,
                    RoundReception {
                        messages,
                        collision,
                    },
                );
                let (adopted, color, feedback) =
                    collecting_ballot_phase(messages, *active, collision);
                let what = format!("{what}, collision {collision}");
                assert_eq!(node.protocol().ballot_of(1).copied(), adopted, "{what}");
                assert_eq!(node.protocol().color_of(1), Some(color), "{what}");
                assert_eq!(*observed.borrow(), [feedback], "{what}");
            }
        }
    }

    #[test]
    fn tagged_proposer_roundtrip() {
        let mut p = TaggedProposer::new(42);
        let v = p.propose(17);
        assert_eq!(TaggedProposer::decode(v), (17, 42));
    }

    #[test]
    #[should_panic(expected = "tag must fit")]
    fn tagged_proposer_rejects_huge_tag() {
        let _ = TaggedProposer::new(1_000_000);
    }
}
