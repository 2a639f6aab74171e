//! Consistency auditing, end to end:
//!
//! 1. Run the two nemesis catalog scenarios (`blackout_market`,
//!    `quake_drill`) with auditing on and print every checker's
//!    verdict — the virtual-infrastructure apps stay consistent
//!    through blackouts, detector corruption, and crash bursts.
//! 2. Run the deliberately broken `vi-baselines` majority register —
//!    majority-acked writes, quorum-free *local* reads — behind a
//!    partition, and watch the linearizability check catch it, witness
//!    and all.
//!
//! ```sh
//! cargo run --example audit_demo --release
//! ```

use virtual_infra::audit::{check_register, LinResult, RegOpKind};
use virtual_infra::baselines::{collect_register_ops, MajRegMessage, MajorityRegister};
use virtual_infra::radio::geometry::Point;
use virtual_infra::radio::{
    Engine, EngineConfig, NodeId, NodeSpec, RadioConfig, ScriptedAdversary,
};
use virtual_infra::scenario::catalog;

fn main() {
    println!("== Part 1: virtual-infrastructure apps under the nemesis ==\n");
    for name in ["blackout_market", "quake_drill"] {
        let spec = catalog::scenario(name).expect("nemesis catalog scenario");
        let out = spec.run(1);
        let report = out.audit.as_ref().expect("audited scenario");
        let t = out.traffic.as_ref().expect("traffic workload");
        println!(
            "{name}: {} ops, {} completed, {} timed out (`:info`, maybe-applied)",
            report.ops, t.completed, report.timeouts
        );
        for c in &report.checks {
            println!(
                "  {:<20} {}",
                c.name,
                if c.ok() { "ok" } else { "VIOLATION" }
            );
            if let Some(w) = &c.witness {
                println!("    witness: {w}");
            }
        }
        assert!(report.ok(), "nemesis scenarios must audit clean");
        println!();
    }

    println!("== Part 2: the broken baseline (majority register, local reads) ==\n");
    // Four ranked replicas; the leader's writes complete on a majority
    // of acks. From round 6 the last replica is partitioned away — and
    // keeps serving reads from its stale local copy.
    let n = 4;
    let rounds = 24u64;
    let mut engine: Engine<MajRegMessage, MajorityRegister> = Engine::new(EngineConfig {
        radio: RadioConfig::stabilizing(10.0, 20.0, u64::MAX),
        seed: 5,
        record_trace: false,
    });
    let mut adv = ScriptedAdversary::new();
    for r in 6..rounds {
        adv.drop_all_to(r, NodeId::from(n - 1));
    }
    engine.set_adversary(Box::new(adv));
    let ids: Vec<NodeId> = (0..n)
        .map(|i| {
            engine.add_node(NodeSpec::by_value(
                Box::new(Point::new(i as f64 * 0.2, 0.0)),
                MajorityRegister::new(i, n, 8),
            ))
        })
        .collect();
    engine.run(rounds);

    // Collect the observed history — the leader's write lifecycles
    // and every replica's instantaneous local reads — as register
    // operations (the same collection the baseline's own tests use).
    let ops = collect_register_ops(&engine, &ids);
    println!(
        "history: {} ops from {} replicas ({} writes)",
        ops.len(),
        n,
        ops.iter()
            .filter(|o| matches!(o.kind, RegOpKind::Write { .. }))
            .count()
    );
    match check_register(&ops) {
        LinResult::Ok => panic!("the broken baseline must fail linearizability"),
        LinResult::Inconclusive { reason } => panic!("no verdict: {reason}"),
        LinResult::Violation { witness } => {
            println!("linearizability: VIOLATION (as designed). Witness:");
            for line in &witness {
                println!("  {line}");
            }
            println!(
                "\nA partitioned replica kept serving its stale local copy after \
                 newer writes completed at the majority — the quorum-free read \
                 path is the bug. The virtual-node register routes every response \
                 through the single agreed replica state, which is why Part 1 \
                 stays clean under a harsher fault schedule."
            );
        }
    }
}
