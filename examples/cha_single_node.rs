//! Convergent history agreement, standalone (Section 3 of the paper).
//!
//! ```sh
//! cargo run --example cha_single_node
//! ```
//!
//! Runs the CHAP protocol among five nodes in a single region through
//! an unstable prefix (random message loss and spurious collision
//! indications until round 30), then a stable suffix. Prints each
//! node's per-instance colors and shows the paper's guarantees in
//! action: limited disagreement while the channel misbehaves, and
//! convergence to all-green afterwards.

use virtual_infra::contention::{OracleCm, PreStability, SharedCm};
use virtual_infra::core::cha::{ChaMessage, ChaNode, Color, TaggedProposer};
use virtual_infra::radio::geometry::Point;
use virtual_infra::radio::{AdversaryKind, Engine, EngineConfig, NodeSpec, RadioConfig};

fn main() {
    const N: usize = 5;
    const STABLE_AT: u64 = 30;
    const ROUNDS: u64 = 60; // 20 instances of 3 rounds each

    let mut engine: Engine<ChaMessage<u64>, ChaNode<u64>> = Engine::new(EngineConfig {
        radio: RadioConfig::stabilizing(10.0, 20.0, STABLE_AT),
        seed: 2024,
        record_trace: false,
    });
    engine.set_adversary(Box::new(AdversaryKind::Random(0.25, 0.08)));

    let cm = SharedCm::new(OracleCm::new(STABLE_AT, PreStability::Random(0.25), 7));
    let ids: Vec<_> = (0..N)
        .map(|i| {
            engine.add_node(NodeSpec::by_value(
                Box::new(Point::new(i as f64, 0.0)),
                ChaNode::new(Box::new(TaggedProposer::new(i as u64)), cm.clone()),
            ))
        })
        .collect();

    engine.run(ROUNDS);

    println!("per-instance colors (instability ends at round {STABLE_AT} = instance 10):\n");
    print!("instance: ");
    for k in 1..=ROUNDS / 3 {
        print!("{k:>3}");
    }
    println!();
    for (i, &id) in ids.iter().enumerate() {
        let node = engine.process_at(id);
        print!("node {i}:   ");
        for out in node.outputs() {
            let c = match out.color {
                Color::Red => "  R",
                Color::Orange => "  O",
                Color::Yellow => "  Y",
                Color::Green => "  G",
            };
            print!("{c}");
        }
        println!();
    }

    // The final histories of all nodes agree (Theorem 10).
    let finals: Vec<_> = ids
        .iter()
        .map(|&id| {
            engine
                .process_at(id)
                .outputs()
                .iter()
                .rev()
                .find_map(|o| o.history.clone())
                .expect("at least one decided instance")
        })
        .collect();
    let agree = finals.windows(2).all(|w| {
        let upto = w[0].len().min(w[1].len());
        w[0].agrees_with(&w[1], upto)
    });
    println!("\nall decided histories agree on common prefixes: {agree}");
    println!(
        "max message size over the whole run: {} bytes (constant, Theorem 14)",
        engine.stats().max_message_bytes
    );
}
