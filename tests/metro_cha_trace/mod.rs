//! A synthetic CHA run shaped like vi-perf's metro workloads, streamed
//! through the incremental spec checker the way `ScenarioSpec::run`
//! feeds it, and shared by the checker's time guard
//! (`cha_properties.rs`) and its memory guard
//! (`alloc_contracts.rs`): every node proposes every instance, and
//! one output in a hundred decides — on the last node's proposals, the
//! far end of each instance's values. Each instance's proposals and
//! outputs are made when the checker takes them and dropped after, so
//! nothing but the checker holds the run.

use virtual_infra::core::cha::{ChaOutput, ChaSpecStream, Color, History};

/// Node `node`'s output at instance `k` of a `nodes`-node run.
fn output(nodes: usize, node: usize, k: u64) -> ChaOutput<u64> {
    let leader = nodes as u64 - 1;
    let history = node.is_multiple_of(100).then(|| {
        let mut h = History::new(k);
        for i in 1..=k {
            h.insert(i, i * 1_000_000 + leader);
        }
        Box::new(h)
    });
    let color = if history.is_some() {
        Color::Green
    } else {
        Color::Yellow
    };
    ChaOutput {
        instance: k,
        history,
        color,
    }
}

/// Streams a `nodes`-node, `instances`-instance run through a checker,
/// instance by instance — every node's proposal, then every node's
/// output — asserts the verdicts, and returns the checker.
pub fn stream(nodes: usize, instances: u64) -> ChaSpecStream<'static, u64> {
    let mut checker = ChaSpecStream::new(nodes);
    for k in 1..=instances {
        for node in 0..nodes as u64 {
            checker.propose(k, k * 1_000_000 + node);
        }
        for node in 0..nodes {
            checker.output(node, output(nodes, node, k));
        }
    }
    assert!(
        checker.validity().is_empty()
            && checker.agreement().is_empty()
            && checker.color_spread().is_empty(),
        "the synthetic run is clean"
    );
    assert_eq!(checker.liveness_kst(), None);
    assert_eq!(checker.output_count(), nodes * instances as usize);
    checker
}
