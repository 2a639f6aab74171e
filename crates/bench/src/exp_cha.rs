//! Experiments on convergent history agreement (E1–E6, E10).

use crate::harness::{all_green_from, clique_spec};
use crate::table::{f2, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vi_baselines::{FullHistoryMessage, FullHistoryNode, MajorityConsensus, MajorityMessage};
use vi_contention::{OracleCm, PreStability, SharedCm};
use vi_core::cha::{ChaProtocol, Color, Phase, TaggedProposer};
use vi_radio::geometry::Point;
use vi_radio::{AdversaryKind, Engine, EngineConfig, NodeSpec, RadioConfig};
use vi_scenario::{CmSpec, ScenarioSpec, SweepRunner};

/// E1 — reproduces **Figure 2**: how a replica's color and output
/// depend on which phases it survives. A ✓ means the node received
/// the phase's message cleanly; an ✗ means it did not (collision
/// detected).
pub fn fig2() -> Table {
    let mut t = Table::new(
        "E1 / Figure 2: collision pattern → replica color → output",
        &["ballot", "veto-1", "veto-2", "color", "output"],
    );
    let patterns = [
        (true, true, true, Color::Green),
        (true, true, false, Color::Yellow),
        (true, false, false, Color::Orange),
        (false, false, false, Color::Red),
    ];
    for (b_ok, v1_ok, v2_ok, paper) in patterns {
        let mut node = ChaProtocol::<u64>::new();
        let ballot = node.begin_instance(7);
        if b_ok {
            node.on_ballot_phase(&[ballot], false);
        } else {
            node.on_ballot_phase(&[], true);
        }
        // The node hears its own veto (it knows what it broadcast);
        // an ✗ additionally raises the collision indication.
        let own_veto1 = node.vetoes(Phase::Veto1);
        node.on_veto1_phase(own_veto1, !v1_ok);
        let own_veto2 = node.vetoes(Phase::Veto2);
        let out = node.on_veto2_phase(own_veto2, !v2_ok);
        assert_eq!(
            (out.color, out.decided()),
            (paper, paper == Color::Green),
            "Figure 2: ({b_ok}, {v1_ok}, {v2_ok}) must end {paper}, outputting a history iff green"
        );
        let mark = |ok: bool| if ok { "✓" } else { "✗" }.to_string();
        t.row(&[
            mark(b_ok),
            mark(v1_ok),
            mark(v2_ok),
            out.color.to_string(),
            if out.decided() { "history" } else { "⊥" }.to_string(),
        ]);
    }
    t.note("paper's Figure 2: ✓✓✓→green/history, ✓✓✗→yellow/⊥, ✓✗✗→orange/⊥, ✗✗✗→red/⊥");
    t
}

/// E2 — **Theorem 14 (message size)**: CHAP's largest message stays
/// constant as the execution grows, while the naïve full-history RSM
/// grows linearly.
pub fn msgsize() -> Table {
    let mut t = Table::new(
        "E2 / Theorem 14: max message size (bytes) vs execution length",
        &["instances k", "CHAP", "full-history RSM", "ratio"],
    );
    let mut sizes = Vec::new();
    for k in [10u64, 100, 500, 1_000, 5_000] {
        let chap = clique_spec("msgsize", 3, k, &[]).run(7).max_message_bytes;

        // Full-history baseline on the same channel.
        let mut engine: Engine<FullHistoryMessage<u64>, FullHistoryNode<u64>> =
            Engine::new(EngineConfig {
                radio: RadioConfig::reliable(10.0, 20.0),
                seed: 7,
                record_trace: false,
            });
        let cm = SharedCm::new(OracleCm::perfect());
        for i in 0..3 {
            engine.add_node(NodeSpec::by_value(
                Box::new(Point::new(i as f64 * 0.3, 0.0)),
                FullHistoryNode::new(Box::new(TaggedProposer::new(i)), cm.clone()),
            ));
        }
        engine.run(k);
        let naive = engine.stats().max_message_bytes;
        sizes.push((chap, naive));

        t.row(&[
            k.to_string(),
            chap.to_string(),
            naive.to_string(),
            f2(naive as f64 / chap as f64),
        ]);
    }
    let (first, last) = (sizes[0], sizes[sizes.len() - 1]);
    assert!(
        sizes.iter().all(|&(chap, _)| chap == first.0) && last.1 > first.1 * 100,
        "Theorem 14: CHAP's message size stays constant, the full history's grows: {sizes:?}"
    );
    t.note("CHAP column must be flat (constant-size ballots); baseline grows ~9 bytes/instance");
    t
}

/// E3 — **Theorem 14 (rounds)**: rounds per decided instance vs the
/// number of nodes — CHAP is a constant 3, majority-ack consensus is
/// Θ(n).
pub fn rounds() -> Table {
    let mut t = Table::new(
        "E3 / Theorem 14: rounds per decided instance vs n",
        &["n", "CHAP", "majority consensus"],
    );
    let mut costs = Vec::new();
    for n in [2usize, 4, 8, 16, 32, 64] {
        let instances = 20u64;
        let (_, outputs) = clique_spec("rounds", n, instances, &[])
            .run_cha_clique(5)
            .expect("a CHA clique");
        let decided = outputs[0].iter().filter(|o| o.decided()).count() as f64;
        let chap = (instances * 3) as f64 / decided;

        let window = MajorityConsensus::<u64>::window(n);
        let mut engine: Engine<MajorityMessage<u64>, MajorityConsensus<u64>> =
            Engine::new(EngineConfig {
                radio: RadioConfig::reliable(20.0, 40.0),
                seed: 5,
                record_trace: false,
            });
        let ids: Vec<_> = (0..n)
            .map(|i| {
                engine.add_node(NodeSpec::by_value(
                    Box::new(Point::new(i as f64 * 0.1, 0.0)),
                    MajorityConsensus::new(i, n, Box::new(|k| k)),
                ))
            })
            .collect();
        engine.run(10 * window);
        let decided = engine
            .process_at(ids[0])
            .decisions()
            .iter()
            .filter(|d| d.is_some())
            .count() as f64;
        let majority = (10 * window) as f64 / decided.max(1.0);

        costs.push((chap, majority));
        t.row(&[n.to_string(), f2(chap), f2(majority)]);
    }
    let (small, large) = (costs[0], costs[costs.len() - 1]);
    assert!(
        (small.0 - large.0).abs() < 0.5 && large.1 > small.1 * 8.0,
        "Theorem 14: CHAP's rounds per decision stay flat in n, majority's grow: {costs:?}"
    );
    t.note("CHAP column flat at ~3 (plus the one bootstrap instance); majority grows ~n/2");
    t
}

/// E4 — **Property 4 / Lemma 5**: the per-instance color spread across
/// nodes never exceeds one shade, at any loss rate.
pub fn spread() -> Table {
    let mut t = Table::new(
        "E4 / Property 4: color mix and max shade spread vs loss rate",
        &[
            "loss",
            "%green",
            "%yellow",
            "%orange",
            "%red",
            "max spread",
            "violations",
        ],
    );
    for loss in [0.0, 0.1, 0.3, 0.5, 0.7, 0.9] {
        let spec = ScenarioSpec {
            // Never stabilizes: the adversary is live for the whole run.
            radio: RadioConfig::stabilizing(10.0, 20.0, u64::MAX),
            adversary: AdversaryKind::Random(loss, loss / 2.0),
            ..clique_spec("spread", 5, 300, &[])
        };
        let (out, outputs) = spec.run_cha_clique(11).expect("a CHA clique");

        let mut counts = [0usize; 4];
        let mut max_spread = 0u8;
        for k in 0..outputs[0].len() {
            let colors: Vec<Color> = outputs.iter().map(|o| o[k].color).collect();
            for c in &colors {
                counts[c.shade() as usize] += 1;
            }
            let hi = colors.iter().map(|c| c.shade()).max().unwrap();
            let lo = colors.iter().map(|c| c.shade()).min().unwrap();
            max_spread = max_spread.max(hi - lo);
        }
        assert!(
            max_spread <= 1 && out.spread_violations == 0,
            "Property 4 at loss {loss}: spread {max_spread}, {} violations",
            out.spread_violations
        );
        let total: usize = counts.iter().sum();
        let pct = |c: usize| f2(100.0 * c as f64 / total as f64);
        t.row(&[
            f2(loss),
            pct(counts[3]),
            pct(counts[2]),
            pct(counts[1]),
            pct(counts[0]),
            max_spread.to_string(),
            out.spread_violations.to_string(),
        ]);
    }
    t.note("max spread must be ≤ 1 and violations 0 at every loss rate (Lemma 5)");
    t
}

/// E5 — **Theorem 12 (liveness)**: after the network and contention
/// manager stabilize, every instance decides within a constant number
/// of further instances, regardless of how long the disruption lasted.
pub fn convergence() -> Table {
    let mut t = Table::new(
        "E5 / Theorem 12: convergence lag after stabilization",
        &[
            "disruption rounds",
            "first stable instance",
            "all-green from",
            "lag (instances)",
        ],
    );
    for d in [0u64, 12, 48, 96, 192] {
        let spec = ScenarioSpec {
            radio: RadioConfig::stabilizing(10.0, 20.0, d),
            cm: CmSpec::Oracle {
                stabilize_at: d,
                pre: PreStability::AllActive,
            },
            adversary: AdversaryKind::Random(0.5, 0.3),
            ..clique_spec("convergence", 5, d / 3 + 30, &[])
        };
        let (_, outputs) = spec.run_cha_clique(13).expect("a CHA clique");
        let first_stable = d / 3 + 1;
        let from = all_green_from(&outputs).expect("must converge");
        let lag = from.saturating_sub(first_stable);
        assert!(
            lag <= 3,
            "Theorem 12: lag {lag} after {d} disruption rounds"
        );
        t.row(&[
            d.to_string(),
            first_stable.to_string(),
            from.to_string(),
            lag.to_string(),
        ]);
    }
    t.note("lag must stay O(1) — independent of disruption length (instances decide 3 rounds after stability)");
    t
}

/// E6 — **Theorems 10 & 13 (safety)**: a seed sweep with loss,
/// spurious collisions, and crash injection; the specification checker
/// must find zero violations.
///
/// Each `(config, seed)` run is a [`clique_spec`] and the whole sweep
/// fans across cores via [`SweepRunner`].
pub fn safety() -> Table {
    let mut t = Table::new(
        "E6 / Theorems 10+13: safety sweep (violations must be 0)",
        &["config", "runs", "outputs checked", "violations"],
    );
    let groups: Vec<(&str, f64, f64, bool)> = vec![
        ("clean", 0.0, 0.0, false),
        ("loss 0.3", 0.3, 0.1, false),
        ("loss 0.5 + crashes", 0.5, 0.2, true),
        ("loss 0.7 + crashes", 0.7, 0.3, true),
    ];
    let runs = 10u64;
    let spec = |name: &str, loss: f64, spur: f64, crashes: bool, seed: u64| {
        let crashes = if crashes {
            vec![(4, 40 + seed), (5, 90 + seed)]
        } else {
            Vec::new()
        };
        ScenarioSpec {
            radio: RadioConfig::stabilizing(10.0, 20.0, 120),
            adversary: AdversaryKind::Random(loss, spur),
            cm: CmSpec::Oracle {
                stabilize_at: 120,
                pre: PreStability::Random(0.3),
            },
            ..clique_spec(name, 6, 60, &crashes)
        }
    };
    let jobs: Vec<(ScenarioSpec, u64)> = groups
        .iter()
        .flat_map(|&(name, loss, spur, crashes)| {
            (0..runs).map(move |seed| (spec(name, loss, spur, crashes, seed), seed))
        })
        .collect();
    let outcomes = SweepRunner::auto().run(&jobs);
    for (g, &(name, ..)) in groups.iter().enumerate() {
        let group = &outcomes[g * runs as usize..(g + 1) * runs as usize];
        let outputs: usize = group.iter().map(|o| o.outputs_checked).sum();
        // `check_all(true)`: every safety check plus a liveness
        // violation when the run never stabilized.
        let violations: usize = group
            .iter()
            .map(|o| o.safety_violations() + usize::from(o.stabilized_kst.is_none()))
            .sum();
        assert_eq!(
            violations, 0,
            "Theorems 10+13: {name} must show no violations"
        );
        t.row(&[
            name.to_string(),
            runs.to_string(),
            outputs.to_string(),
            violations.to_string(),
        ]);
    }
    t.note("Agreement, Validity, Property 4 and Liveness checked on every run");
    t
}

/// E10 — **Section 3.5 (garbage collection)**: resident per-instance
/// state of plain CHAP vs checkpoint-CHA, as a function of execution
/// length and the fraction of non-green instances.
pub fn gc() -> Table {
    let mut t = Table::new(
        "E10 / Section 3.5: resident state entries after k instances",
        &["yellow rate", "k", "plain CHAP", "checkpoint-CHA"],
    );
    // Leader pattern: ballot received cleanly, veto-2 collision iff
    // this instance is "yellow". Returns whether it ended green.
    let run_instance = |node: &mut ChaProtocol<u64>, k: u64, yellow: bool| {
        let ballot = node.begin_instance(k);
        node.on_ballot_phase(&[ballot], false);
        node.on_veto1_phase(false, false);
        node.on_veto2_phase(false, yellow).decided()
    };
    for yellow_rate in [0.0, 0.2, 0.5] {
        let mut plain = ChaProtocol::<u64>::new();
        let mut gc = ChaProtocol::<u64>::new();
        // The checkpoint: here, the sum of the decided values.
        let mut checkpoint = 0u64;
        let mut rng = StdRng::seed_from_u64(17);
        for k in 1..=1000u64 {
            let yellow = rng.random_bool(yellow_rate);
            run_instance(&mut plain, k, yellow);
            if run_instance(&mut gc, k, yellow) {
                gc.fold_decided(k, |_, v| checkpoint += v.copied().unwrap_or(0));
            }
            if k == 100 || k == 500 || k == 1000 {
                t.row(&[
                    f2(yellow_rate),
                    k.to_string(),
                    plain.resident_entries().to_string(),
                    gc.resident_entries().to_string(),
                ]);
            }
        }
        if yellow_rate == 0.0 {
            assert_eq!(
                (plain.resident_entries(), gc.resident_entries()),
                (2000, 0),
                "Section 3.5: on a clean channel checkpoint-CHA keeps nothing, plain CHAP 2k"
            );
        }
        let folded = gc.floor();
        assert_eq!(
            checkpoint,
            folded * (folded + 1) / 2,
            "every instance through the floor is summarized, yellow ones included"
        );
    }
    t.note("plain grows ~2 entries/instance; checkpoint-CHA stays bounded by the current yellow streak");
    t
}

/// Each experiment asserts its claim on typed values; these tests
/// check that the rendered table carries the same claim.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_matches_paper() {
        let t = fig2();
        assert_eq!(t.len(), 4);
        assert_eq!(t.cell(0, 3), "green");
        assert_eq!(t.cell(0, 4), "history");
        assert_eq!(t.cell(1, 3), "yellow");
        assert_eq!(t.cell(2, 3), "orange");
        assert_eq!(t.cell(3, 3), "red");
        for row in 1..4 {
            assert_eq!(t.cell(row, 4), "⊥");
        }
    }

    #[test]
    fn msgsize_chap_is_constant_baseline_grows() {
        let t = msgsize();
        let chap_first: usize = t.cell(0, 1).parse().unwrap();
        let chap_last: usize = t.cell(t.len() - 1, 1).parse().unwrap();
        assert_eq!(chap_first, chap_last, "CHAP message size constant");
        let naive_first: usize = t.cell(0, 2).parse().unwrap();
        let naive_last: usize = t.cell(t.len() - 1, 2).parse().unwrap();
        assert!(naive_last > naive_first * 100, "baseline grows linearly");
    }

    #[test]
    fn rounds_chap_constant_majority_linear() {
        let t = rounds();
        let chap_small: f64 = t.cell(0, 1).parse().unwrap();
        let chap_large: f64 = t.cell(t.len() - 1, 1).parse().unwrap();
        assert!((chap_small - chap_large).abs() < 0.5, "CHAP flat");
        let maj_small: f64 = t.cell(0, 2).parse().unwrap();
        let maj_large: f64 = t.cell(t.len() - 1, 2).parse().unwrap();
        assert!(maj_large > maj_small * 8.0, "majority grows with n");
    }

    #[test]
    fn spread_never_violates_property4() {
        let t = spread();
        for row in 0..t.len() {
            let spread: u8 = t.cell(row, 5).parse().unwrap();
            assert!(spread <= 1, "row {row}");
            assert_eq!(t.cell(row, 6), "0");
        }
    }

    #[test]
    fn convergence_lag_is_constant() {
        let t = convergence();
        for row in 0..t.len() {
            let lag: u64 = t.cell(row, 3).parse().unwrap();
            assert!(lag <= 3, "lag {lag} too large in row {row}");
        }
    }

    #[test]
    fn gc_bounds_resident_state() {
        let t = gc();
        // Clean channel: checkpoint-CHA keeps nothing, plain keeps 2k.
        assert_eq!(t.cell(2, 2), "2000");
        assert_eq!(t.cell(2, 3), "0");
    }
}
