//! A synthetic CHA spec-checker input shaped like vi-perf's metro
//! workloads, shared by the checker's time guard
//! (`cha_properties.rs`) and its memory guard
//! (`cha_checker_memory.rs`): every node proposes every one of 10
//! instances, and one output in a hundred decides — on the last node's
//! proposals, the far end of a scan over them.

use virtual_infra::core::cha::{ChaOutput, ChaSpecChecker, Color, History, SpecViolation};

/// Instances every node runs.
const INSTANCES: u64 = 10;

/// Each node's outputs, `nodes` nodes.
pub fn outputs(nodes: usize) -> Vec<Vec<ChaOutput<u64>>> {
    let leader = nodes as u64 - 1;
    (0..nodes)
        .map(|node| {
            (1..=INSTANCES)
                .map(|k| {
                    let history = (node % 100 == 0).then(|| {
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
                })
                .collect()
        })
        .collect()
}

/// Records the run and performs the four checks the way
/// `ScenarioSpec::run_cha` does: each node's proposals, then its
/// outputs as one slice.
pub fn check(outputs: &[Vec<ChaOutput<u64>>]) {
    let mut checker = ChaSpecChecker::new();
    for (node, outs) in outputs.iter().enumerate() {
        for k in 1..=INSTANCES {
            checker.record_proposal(k, k * 1_000_000 + node as u64);
        }
        checker.record_outputs(node, outs);
    }
    let violations: Vec<SpecViolation> = checker.check_all(false);
    assert!(
        violations.is_empty(),
        "the synthetic run is clean: {violations:?}"
    );
    assert_eq!(checker.liveness_kst(), None);
}
