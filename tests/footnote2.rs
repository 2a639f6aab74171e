//! The paper's footnote-2 scenario, scripted exactly.
//!
//! > "There are two nodes pi and pj that are unable to communicate due
//! > to interference. Node pi outputs a decision and fails. In this
//! > case, pj is required to behave in a manner consistent with this
//! > unknown decision!"
//!
//! The two veto phases make this work without pi ever hearing an
//! acknowledgement: pi finishes green only if nobody vetoed, which
//! (by completeness) means every other node reached at least yellow —
//! so every survivor's `prev-instance` pointer already commits to the
//! decided instance, and all their future histories include it.

use virtual_infra::contention::{OracleCm, SharedCm};
use virtual_infra::core::cha::{ChaMessage, ChaNode, Color, TaggedProposer};
use virtual_infra::radio::adversary::ScriptedAdversary;
use virtual_infra::radio::geometry::Point;
use virtual_infra::radio::{Engine, EngineConfig, NodeSpec, RadioConfig};

#[test]
fn survivors_stay_consistent_with_a_dead_nodes_unacknowledged_decision() {
    // Instance 3 occupies rounds 6..=8; its veto-2 phase is round 8.
    // Nodes 1 and 2 suffer (spurious) collisions there and finish
    // yellow; node 0 — the leader — hears silence and finishes green.
    // Node 0 then crashes without ever exchanging another message.
    let veto2_round = 8;
    let mut engine: Engine<ChaMessage<u64>, ChaNode<u64>> = Engine::new(EngineConfig {
        // Accurate only after round 9, so the scripted false positives
        // at round 8 are admissible detector behaviour.
        radio: RadioConfig::reliable(10.0, 20.0).with_stabilization(0, 9),
        seed: 4,
        record_trace: false,
    });
    let mut adv = ScriptedAdversary::new();
    adv.inject_collision(veto2_round, 1.into());
    adv.inject_collision(veto2_round, 2.into());
    engine.set_adversary(Box::new(adv));

    let cm = SharedCm::new(OracleCm::perfect());
    let ids: Vec<_> = (0..3)
        .map(|i| {
            let spec = NodeSpec::by_value(
                Box::new(Point::new(i as f64, 0.0)),
                ChaNode::<u64>::new(Box::new(TaggedProposer::new(i)), cm.clone()),
            );
            let spec = if i == 0 {
                spec.crash_at(veto2_round + 1) // dies right after deciding
            } else {
                spec
            };
            engine.add_node(spec)
        })
        .collect();

    engine.run(18); // instances 1..=6

    // Node 0 decided instance 3 (green) before dying.
    let dead = engine.process_at(ids[0]);
    let decision = dead.outputs().last().unwrap();
    assert_eq!(decision.instance, 3);
    assert_eq!(decision.color, Color::Green);
    let decided_value = *decision.history.as_ref().unwrap().get(3).unwrap();

    // The survivors finished instance 3 yellow — they output ⊥ and
    // never learned that node 0 decided.
    for &id in &ids[1..] {
        let node = engine.process_at(id);
        let at3 = &node.outputs()[2];
        assert_eq!(at3.color, Color::Yellow);
        assert!(at3.history.is_none(), "no output, no acknowledgement sent");
    }

    // Yet every history they ever output afterwards includes instance
    // 3 with exactly the dead node's decided value.
    for &id in &ids[1..] {
        let node = engine.process_at(id);
        let later: Vec<_> = node
            .outputs()
            .iter()
            .filter(|o| o.instance > 3 && o.decided())
            .collect();
        assert!(!later.is_empty(), "survivors keep deciding");
        for out in later {
            let h = out.history.as_ref().unwrap();
            assert_eq!(
                h.get(3),
                Some(&decided_value),
                "survivor's history at instance {} is consistent with the \
                 dead node's unacknowledged decision",
                out.instance
            );
        }
    }
}

/// The complementary direction: when the *other* nodes went orange
/// (veto-1 disruption), nobody may decide — the instance resolves to ⊥
/// everywhere, so there is no decision to be inconsistent with.
#[test]
fn orange_disruption_prevents_any_decision() {
    let veto1_round = 7; // instance 3's veto-1 phase
    let mut engine: Engine<ChaMessage<u64>, ChaNode<u64>> = Engine::new(EngineConfig {
        radio: RadioConfig::reliable(10.0, 20.0).with_stabilization(0, 8),
        seed: 4,
        record_trace: false,
    });
    let mut adv = ScriptedAdversary::new();
    for node in 0..3usize {
        adv.inject_collision(veto1_round, node.into());
    }
    engine.set_adversary(Box::new(adv));
    let cm = SharedCm::new(OracleCm::perfect());
    let ids: Vec<_> = (0..3)
        .map(|i| {
            engine.add_node(NodeSpec::by_value(
                Box::new(Point::new(i as f64, 0.0)),
                ChaNode::<u64>::new(Box::new(TaggedProposer::new(i)), cm.clone()),
            ))
        })
        .collect();
    engine.run(9);
    for &id in &ids {
        let node = engine.process_at(id);
        let at3 = &node.outputs()[2];
        assert_eq!(at3.color, Color::Orange);
        assert!(!at3.decided());
    }
}
