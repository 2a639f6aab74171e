//! E12 — recovery-behaviour ablation: CHAP vs classic three-phase
//! commit under message loss and coordinator crashes.
//!
//! The paper (Section 1.5): CHAP "uses a novel strategy, inspired by
//! three-phase commit, to ensure consistent outputs despite
//! collisions, lost messages, and crash failures", while "the 3PC
//! protocols take a somewhat different approach to recovering from
//! network misbehavior". This experiment quantifies the difference:
//! under partial pre-commit delivery plus a coordinator crash, slotted
//! 3PC's termination rule produces *inconsistent* commit/abort
//! outcomes, whereas CHAP resolves the same uncertainty to a
//! consistent ⊥ (its agreement checker finds zero violations at any
//! loss rate — at the price of some undecided instances).

use crate::harness::clique_spec;
use crate::table::{f2, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vi_baselines::{ThreePhaseCommit, TpcDecision, TpcMessage};
use vi_contention::PreStability;
use vi_radio::adversary::ScriptedAdversary;
use vi_radio::geometry::Point;
use vi_radio::mobility::Static;
use vi_radio::{AdversaryKind, Engine, EngineConfig, NodeSpec, RadioConfig};
use vi_scenario::{CmSpec, ScenarioSpec, SweepRunner};

/// Runs one slotted-3PC instance with each pre-commit delivery dropped
/// independently with probability `drop_p`, and the coordinator
/// crashing right after the pre-commit round. Returns the surviving
/// participants' decisions.
fn tpc_instance(n: usize, drop_p: f64, rng: &mut StdRng, seed: u64) -> Vec<TpcDecision> {
    let w = ThreePhaseCommit::<u64>::window(n);
    let m = n as u64 - 1;
    let precommit_round = m + 1;
    let mut engine: Engine<TpcMessage<u64>, ThreePhaseCommit<u64>> = Engine::new(EngineConfig {
        radio: RadioConfig::stabilizing(10.0, 20.0, u64::MAX),
        seed,
        record_trace: false,
    });
    let ids: Vec<_> = (0..n)
        .map(|i| {
            let mut spec = NodeSpec::by_value(
                Box::new(Static::new(Point::new(i as f64 * 0.2, 0.0))),
                ThreePhaseCommit::new(i, n, Box::new(|k| k)),
            );
            if i == 0 {
                spec = spec.crash_at(precommit_round + 1);
            }
            engine.add_node(spec)
        })
        .collect();
    let mut adv = ScriptedAdversary::new();
    for &id in ids.iter().skip(1) {
        if rng.random_bool(drop_p) {
            adv.drop(precommit_round, ids[0], id);
        }
    }
    engine.set_adversary(Box::new(adv));
    engine.run(w);
    ids.iter()
        .skip(1)
        .map(|&id| engine.process_at(id).decisions()[0])
        .collect()
}

/// E12 — the ablation table.
pub fn ablation_3pc() -> Table {
    let mut t = Table::new(
        "E12 / ablation: 3PC vs CHAP under lossy pre-commit + coordinator crash",
        &[
            "drop rate",
            "3PC inconsistent",
            "CHAP agreement violations",
            "CHAP ⊥ fraction",
        ],
    );
    let n = 4;
    let trials = 40;
    for drop_p in [0.2, 0.5, 0.8] {
        let mut rng = StdRng::seed_from_u64(77);
        let mut inconsistent = 0usize;
        for trial in 0..trials {
            let decisions = tpc_instance(n, drop_p, &mut rng, trial as u64);
            let all_same = decisions.windows(2).all(|w| w[0] == w[1]);
            if !all_same {
                inconsistent += 1;
            }
        }

        // CHAP on an equally hostile channel: random loss at the same
        // rate, CM misbehaving, a crash mid-run.
        let out = ScenarioSpec {
            radio: RadioConfig::stabilizing(10.0, 20.0, u64::MAX),
            adversary: AdversaryKind::Random(drop_p, drop_p / 2.0),
            ..clique_spec("ablation3pc", n, 40, &[(0, 60)])
        }
        .run(77);
        let violations = out.agreement_violations + out.validity_violations;
        assert_eq!(violations, 0, "CHAP never disagrees, at drop rate {drop_p}");
        if drop_p == 0.5 {
            assert!(inconsistent > 0, "3PC must split under 50% pre-commit loss");
        }
        let bottom = 1.0 - out.decided_fraction;

        t.row(&[
            f2(drop_p),
            format!("{inconsistent}/{trials}"),
            violations.to_string(),
            f2(bottom),
        ]);
    }
    t.note("3PC's termination rule splits commit/abort under partition; CHAP trades undecided (⊥) instances for zero disagreement");
    t
}

/// E13 — necessity of detector completeness: the paper's Section 1.1
/// asserts that without collision detection, consensus is impossible
/// (refs [7, 8]); Property 1 (no false negatives) is what CHAP's veto
/// phases lean on. Breaking completeness with probability `miss_p`
/// makes agreement violations appear — empirical evidence that the
/// guarantee is load-bearing, not decorative.
///
/// Each `(miss rate, seed)` run is a [`clique_spec`] whose broken
/// detector is just an [`AdversaryKind`] value, and the 80-run sweep
/// fans across cores via [`SweepRunner`].
pub fn detector_necessity() -> Table {
    let mut t = Table::new(
        "E13 / necessity: breaking detector completeness breaks agreement",
        &["detector miss rate", "runs", "runs with safety violations"],
    );
    let miss_rates = [0.0, 0.3, 0.7, 1.0];
    let runs = 20u64;
    let spec = |miss_p: f64| ScenarioSpec {
        radio: RadioConfig::stabilizing(10.0, 20.0, u64::MAX),
        adversary: AdversaryKind::BrokenDetector {
            drop_p: 0.35,
            miss_p,
        },
        cm: CmSpec::Oracle {
            stabilize_at: u64::MAX,
            pre: PreStability::Random(0.5),
        },
        ..clique_spec(&format!("necessity miss {miss_p}"), 4, 40, &[])
    };
    let jobs: Vec<(ScenarioSpec, u64)> = miss_rates
        .iter()
        .flat_map(|&miss_p| (0..runs).map(move |seed| (spec(miss_p), 1000 + seed)))
        .collect();
    let outcomes = SweepRunner::auto().run(&jobs);
    for (g, &miss_p) in miss_rates.iter().enumerate() {
        let group = &outcomes[g * runs as usize..(g + 1) * runs as usize];
        let bad_runs = group.iter().filter(|o| o.safety_violations() > 0).count();
        if miss_p == 0.0 {
            assert_eq!(
                bad_runs, 0,
                "the paper's model (miss rate 0) must stay safe"
            );
        } else if miss_p == 1.0 {
            assert!(bad_runs > 0, "a fully blind detector must break safety");
        }
        t.row(&[f2(miss_p), runs.to_string(), bad_runs.to_string()]);
    }
    t.note("miss rate 0 (the paper's model) must show zero violations; any incompleteness admits disagreement");
    t
}

/// Each experiment asserts its claim on typed values; these tests
/// check that the rendered table carries the same claim.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_completeness_is_load_bearing() {
        let t = detector_necessity();
        assert_eq!(t.cell(0, 2), "0", "intact model: no violations");
        let broken: usize = t.cell(t.len() - 1, 2).parse().unwrap();
        assert!(broken > 0, "fully blind detector must break safety");
    }

    #[test]
    fn tpc_splits_and_chap_never_disagrees() {
        let t = ablation_3pc();
        // At 50% pre-commit loss, inconsistency must actually occur.
        let mid: &str = t.cell(1, 1);
        let inconsistent: usize = mid.split('/').next().unwrap().parse().unwrap();
        assert!(inconsistent > 0, "3PC should split under partition: {mid}");
        for row in 0..t.len() {
            assert_eq!(t.cell(row, 2), "0", "CHAP never violates agreement");
        }
    }
}
