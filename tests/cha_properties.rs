//! Property-based tests of the CHA protocol (Section 3 guarantees).
//!
//! Strategy: generate random adversarial environments — loss rates,
//! spurious collision indications, contention-manager misbehaviour,
//! crash schedules, seeds — run CHAP in a single region, and check the
//! Section 3.2 specification plus Property 4 on the resulting trace.
//! Safety must hold in *every* environment; liveness is checked only
//! when the environment stabilizes.

mod metro_cha_trace;

use proptest::prelude::*;
use std::collections::BTreeMap;
use vi_bench::harness::clique_spec;
use virtual_infra::contention::PreStability;
use virtual_infra::core::cha::{
    calculate_history, Ballot, ChaOutput, ChaSpecChecker, ChaSpecStream, Color, History,
    SpecViolation,
};
use virtual_infra::radio::{AdversaryKind, RadioConfig};
use virtual_infra::scenario::{CmSpec, ScenarioSpec};

/// The quadratic map-of-maps checker `ChaSpecChecker` replaced: the
/// differential oracle (test-only in vi-core, included here by path; it
/// names `ChaOutput`, `ChaSpecChecker`, `Color`, `History` and
/// `SpecViolation` through this file's imports).
#[path = "../crates/core/src/cha/spec/reference.rs"]
mod reference;
use reference::{assert_same_verdicts, ChaSpecCheckerReference};

/// A randomly hostile clique that never stabilizes, with its seed.
fn hostile_clique() -> impl Strategy<Value = (ScenarioSpec, u64)> {
    (
        2usize..7,
        10u64..30,
        0.0f64..0.9,
        0.0f64..0.5,
        any::<u64>(),
        0.0f64..1.0,
        proptest::collection::vec((0usize..7, 5u64..80), 0..3),
    )
        .prop_map(|(n, instances, loss, spurious, seed, cm_p, crashes)| {
            // A crash at or after the last round never happens; leaving
            // it out keeps the spec valid.
            let crashes: Vec<_> = crashes
                .into_iter()
                .filter(|&(node, round)| node < n && round < 3 * instances)
                .collect();
            let spec = ScenarioSpec {
                radio: RadioConfig::stabilizing(10.0, 20.0, u64::MAX),
                cm: CmSpec::Oracle {
                    stabilize_at: u64::MAX,
                    pre: PreStability::Random(cm_p),
                },
                adversary: AdversaryKind::Random(loss, spurious),
                ..clique_spec("hostile", n, instances, &crashes)
            };
            (spec, seed)
        })
}

/// A clique that stabilizes midway, with its seed.
fn stabilizing_clique() -> impl Strategy<Value = (ScenarioSpec, u64)> {
    (2usize..6, 0u64..60, 0.0f64..0.8, any::<u64>()).prop_map(|(n, disrupt, loss, seed)| {
        let spec = ScenarioSpec {
            radio: RadioConfig::stabilizing(10.0, 20.0, disrupt),
            cm: CmSpec::Oracle {
                stabilize_at: disrupt,
                pre: PreStability::AllActive,
            },
            adversary: AdversaryKind::Random(loss, loss / 2.0),
            ..clique_spec("stabilizing", n, disrupt / 3 + 15, &[])
        };
        (spec, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorems 10 & 13 + Property 4: safety holds under arbitrary,
    /// never-ending misbehaviour.
    #[test]
    fn safety_under_arbitrary_misbehaviour((spec, seed) in hostile_clique()) {
        let out = spec.run(seed);
        prop_assert_eq!(out.safety_violations(), 0, "violations: {:?}", out);
    }

    /// Theorem 12: once the channel and contention manager stabilize,
    /// liveness holds (a stabilization instance exists, the one the
    /// quadratic reference finds in the same outputs) and safety
    /// continues to hold.
    #[test]
    fn liveness_after_stabilization((spec, seed) in stabilizing_clique()) {
        let (out, outputs) = spec.run_cha_clique(seed).expect("a CHA clique");
        prop_assert_eq!(out.safety_violations(), 0, "violations: {:?}", out);
        let mut reference = ChaSpecCheckerReference::new();
        for (node, outs) in outputs.iter().enumerate() {
            for o in outs {
                reference.record_output(node, o);
            }
        }
        for (node, population) in spec.populations.iter().enumerate() {
            if population.crash_at.is_some() {
                reference.mark_crashed(node);
            }
        }
        let kst = reference.liveness_kst();
        prop_assert!(kst.is_some(), "no stabilization instance: {:?}", out);
        prop_assert_eq!(out.stabilized_kst, kst);
    }

    /// The efficient (sorted-adjacent) agreement checker agrees with
    /// the reference's exhaustive pairwise one.
    #[test]
    fn agreement_checkers_agree((spec, seed) in hostile_clique()) {
        let (_, outputs) = spec.run_cha_clique(seed).expect("a CHA clique");
        let mut checker = ChaSpecChecker::new();
        let mut exhaustive = ChaSpecCheckerReference::new();
        for (node, outs) in outputs.iter().enumerate() {
            checker.record_outputs(node, outs);
            for o in outs {
                exhaustive.record_output(node, o);
            }
        }
        let fast_clean = checker.check_agreement().is_empty();
        let slow_clean = exhaustive.check_agreement_exhaustive().is_empty();
        prop_assert_eq!(fast_clean, slow_clean);
    }

    /// The inspection entry runs the execution `run` does, and the
    /// outputs it hands back, recorded after the run, reach the
    /// verdicts the run's checker reached as the nodes made them.
    #[test]
    fn clique_entry_matches_run((spec, seed) in hostile_clique()) {
        let (out, outputs) = spec.run_cha_clique(seed).expect("a CHA clique");
        prop_assert_eq!(&out, &spec.run(seed));
        let mut checker = ChaSpecChecker::new();
        for (node, outs) in outputs.iter().enumerate() {
            checker.record_outputs(node, outs);
        }
        for (node, population) in spec.populations.iter().enumerate() {
            if population.crash_at.is_some() {
                checker.mark_crashed(node);
            }
        }
        prop_assert_eq!(checker.output_count(), out.outputs_checked);
        prop_assert_eq!(checker.check_agreement().len(), out.agreement_violations);
        prop_assert_eq!(checker.check_color_spread().len(), out.spread_violations);
        prop_assert_eq!(checker.liveness_kst(), out.stabilized_kst);
    }

    /// Message size never depends on the execution length or node
    /// count (Theorem 14) — measured across random environments.
    #[test]
    fn message_size_is_constant((spec, seed) in hostile_clique()) {
        let bytes = spec.run(seed).max_message_bytes;
        // Ballot = 17 bytes (tag + u64 value + prev index); veto = 1.
        prop_assert!(bytes <= 17, "message grew to {}", bytes);
    }
}

/// Strategy producing a protocol-shaped ballot chain: for each
/// instance `k`, a ballot whose `prev` pointer refers to some earlier
/// instance (or 0), mimicking what adopted leader ballots look like.
fn chain_ballots() -> impl Strategy<Value = BTreeMap<u64, Ballot<u32>>> {
    proptest::collection::vec(any::<u32>(), 1..40).prop_perturb(|values, mut rng| {
        let mut map = BTreeMap::new();
        let mut goods: Vec<u64> = vec![0];
        for (i, v) in values.into_iter().enumerate() {
            let k = i as u64 + 1;
            let prev = goods[rng.random_range(0..goods.len())];
            map.insert(k, Ballot::new(v, prev));
            // This instance may or may not become good later.
            if rng.random_bool(0.7) {
                goods.push(k);
            }
        }
        map
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lemma 8 analog: histories computed from the same ballot array
    /// starting at chain-connected instances agree on their common
    /// prefix (values and ⊥ placement both).
    #[test]
    fn calculate_history_prefix_agreement(ballots in chain_ballots()) {
        let last = *ballots.keys().last().unwrap();
        let h_full = calculate_history(last, last, &ballots, 0);
        // Walk the chain: every suffix start on the chain yields an
        // agreeing history.
        let mut cursor = last;
        while cursor > 0 {
            let h = calculate_history(last, cursor, &ballots, 0);
            prop_assert!(h.agrees_with(&h_full, cursor));
            // The prefix up to `cursor` is identical; beyond it the
            // shorter start excludes instances the full one includes.
            cursor = ballots[&cursor].prev;
        }
    }

    /// `calculate_history` includes exactly the chain instances.
    #[test]
    fn calculate_history_includes_only_chain(ballots in chain_ballots()) {
        let last = *ballots.keys().last().unwrap();
        let h = calculate_history(last, last, &ballots, 0);
        // Chain membership from following pointers.
        let mut chain = std::collections::BTreeSet::new();
        let mut cursor = last;
        while cursor > 0 {
            chain.insert(cursor);
            cursor = ballots[&cursor].prev;
        }
        for k in 1..=last {
            prop_assert_eq!(h.includes(k), chain.contains(&k), "instance {}", k);
        }
    }

    /// Spec-checker sanity: a fabricated violation is always caught.
    #[test]
    fn checker_catches_planted_disagreement(ballots in chain_ballots(), wrong in any::<u32>()) {
        let last = *ballots.keys().last().unwrap();
        let h = calculate_history(last, last, &ballots, 0);
        prop_assume!(h.includes(last));
        prop_assume!(Some(&wrong) != h.get(last));
        // A second node decided a different value for `last`.
        let mut bad = History::new(last);
        bad.insert(last, wrong);
        let [good, bad] = [h, bad].map(|h| ChaOutput {
            instance: last,
            history: Some(Box::new(h)),
            color: Color::Green,
        });
        let mut checker = ChaSpecChecker::new();
        for (k, b) in &ballots {
            checker.record_proposal(*k, b.value);
        }
        checker.record_proposal(last, wrong);
        checker.record_output(0, &good);
        checker.record_output(1, &bad);
        prop_assert!(!checker.check_agreement().is_empty());
    }
}

/// Everything a checker is fed, in recording order.
#[derive(Clone, Debug, Default)]
struct RecordedTrace {
    proposals: Vec<(u64, u32)>,
    outputs: Vec<(usize, ChaOutput<u32>)>,
    crashed: Vec<usize>,
}

const COLORS: [Color; 4] = [Color::Red, Color::Orange, Color::Yellow, Color::Green];

/// Random checker input around a stabilising run: every node outputs
/// instances `first..=last` (late joiners start at `first > 1`),
/// undecided before a stabilisation instance and full histories after
/// it. `mess` then dials in what real traces may contain: skipped
/// instances, ⊥ outputs, histories with holes or that omit their own
/// instance, entries beyond it, unproposed values, missing proposals,
/// crashed nodes, off-by-two colors, out-of-order recording — and
/// always at least one `(node, instance)` pair recorded again with a
/// different verdict, which validity, agreement and Property 4 count
/// twice and liveness judges by the later recording.
fn arb_trace() -> impl Strategy<Value = RecordedTrace> {
    (1usize..6, 1u64..9, 0u32..4).prop_perturb(|(nodes, last, mess), mut rng| {
        let p = f64::from(mess) * 0.12;
        let kst = rng.random_range(1..=last);
        let mut t = RecordedTrace::default();
        for k in 1..=last {
            if !rng.random_bool(p / 2.0) {
                t.proposals.push((k, k as u32));
            }
            if rng.random_bool(0.3) {
                t.proposals.push((k, 100 + k as u32));
            }
        }
        for node in 0..nodes {
            let first = if rng.random_bool(0.3) {
                rng.random_range(1..=last)
            } else {
                1
            };
            for k in first..=last {
                if rng.random_bool(p) {
                    continue;
                }
                let history = (k >= kst && !rng.random_bool(p)).then(|| {
                    let mut h = History::new(k + rng.random_range(0..3));
                    for i in 1..=h.len() {
                        let include = if (kst..=k).contains(&i) {
                            1.0 - p
                        } else {
                            p / 2.0
                        };
                        if rng.random_bool(include) {
                            h.insert(
                                i,
                                if rng.random_bool(p / 2.0) {
                                    77
                                } else {
                                    i as u32
                                },
                            );
                        }
                    }
                    Box::new(h)
                });
                let color = if rng.random_bool(p) {
                    COLORS[rng.random_range(0..4)]
                } else if history.is_some() {
                    Color::Green
                } else {
                    Color::Yellow
                };
                t.outputs.push((
                    node,
                    ChaOutput {
                        instance: k,
                        history,
                        color,
                    },
                ));
            }
            if rng.random_bool(p) {
                t.crashed.push(node);
            }
        }
        if !t.outputs.is_empty() {
            for _ in 0..mess {
                let (a, b) = (
                    rng.random_range(0..t.outputs.len()),
                    rng.random_range(0..t.outputs.len()),
                );
                t.outputs.swap(a, b);
            }
            // One re-recording in a clean trace, up to 46 in the
            // messiest: enough that some node's outputs outgrow the 20
            // elements below which std's unstable sort happens to keep
            // equal keys in order.
            for _ in 0..1 + mess as usize * rng.random_range(0..16) {
                let (node, again) = t.outputs[rng.random_range(0..t.outputs.len())].clone();
                let k = again.instance;
                let flipped = match again.history {
                    Some(_) => ChaOutput {
                        instance: k,
                        history: None,
                        color: Color::Orange,
                    },
                    None => {
                        let mut h = History::new(k);
                        for i in kst.min(k)..=k {
                            h.insert(i, i as u32);
                        }
                        ChaOutput {
                            instance: k,
                            history: Some(Box::new(h)),
                            color: Color::Green,
                        }
                    }
                };
                t.outputs.push((node, flipped));
            }
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The linear checker against the quadratic one it replaced: every
    /// violation list equal element for element, same `kst`.
    #[test]
    fn checker_matches_reference(trace in arb_trace()) {
        let mut new = ChaSpecChecker::new();
        let mut old = ChaSpecCheckerReference::new();
        for &(k, v) in &trace.proposals {
            new.record_proposal(k, v);
            old.record_proposal(k, v);
        }
        for (node, out) in &trace.outputs {
            new.record_output(*node, out);
            old.record_output(*node, out);
        }
        for &node in &trace.crashed {
            new.mark_crashed(node);
            old.mark_crashed(node);
        }
        assert_same_verdicts(&new, &old, "random trace");
    }

    /// Recording a node's outputs as slices is recording them one at a
    /// time: each maximal same-node stretch of the trace goes in as one
    /// `record_outputs` run, so a node's outputs arrive in several runs
    /// whenever the trace interleaves nodes, and a repeated
    /// `(node, instance)` pair may sit in the same run or a later one.
    #[test]
    fn checker_runs_match_single_records(trace in arb_trace()) {
        let runs: Vec<(usize, Vec<ChaOutput<u32>>)> = trace
            .outputs
            .chunk_by(|a, b| a.0 == b.0)
            .map(|s| (s[0].0, s.iter().map(|(_, o)| o.clone()).collect()))
            .collect();
        let mut batched = ChaSpecChecker::new();
        let mut single = ChaSpecChecker::new();
        let mut old = ChaSpecCheckerReference::new();
        for &(k, v) in &trace.proposals {
            batched.record_proposal(k, v);
            single.record_proposal(k, v);
            old.record_proposal(k, v);
        }
        for (node, run) in &runs {
            batched.record_outputs(*node, run);
            for out in run {
                single.record_output(*node, out);
                old.record_output(*node, out);
            }
        }
        for &node in &trace.crashed {
            batched.mark_crashed(node);
            single.mark_crashed(node);
            old.mark_crashed(node);
        }
        // Both against the reference, so each against the other.
        assert_same_verdicts(&batched, &old, "runs");
        assert_same_verdicts(&single, &old, "one output at a time");
    }

    /// The incremental checker against the quadratic one, both fed
    /// every proposal and then the outputs in `(instance, node)` order,
    /// as a run hands them over: every violation list equal element for
    /// element, same `kst`.
    #[test]
    fn stream_matches_reference(trace in arb_trace()) {
        let mut outputs = trace.outputs.clone();
        outputs.sort_by_key(|(node, o)| (o.instance, *node));
        let mut stream = ChaSpecStream::new(0);
        let mut old = ChaSpecCheckerReference::new();
        for &(k, v) in &trace.proposals {
            stream.propose(k, v);
            old.record_proposal(k, v);
        }
        for (node, out) in outputs {
            old.record_output(node, &out);
            stream.output(node, out);
        }
        for &node in &trace.crashed {
            stream.mark_crashed(node);
            old.mark_crashed(node);
        }
        prop_assert_eq!(stream.output_count(), old.output_count());
        prop_assert_eq!(stream.validity(), &old.check_validity()[..]);
        prop_assert_eq!(stream.agreement(), &old.check_agreement()[..]);
        prop_assert_eq!(stream.color_spread(), old.check_color_spread());
        prop_assert_eq!(stream.liveness_kst(), old.liveness_kst());
    }
}

/// Seconds to stream a `nodes`-node, 10-instance run shaped like the
/// benchmark's metro workloads through the spec checker the way
/// `ScenarioSpec::run` feeds it ([`metro_cha_trace`]), making each
/// output as it goes; the fastest of five.
fn checker_seconds(nodes: usize) -> f64 {
    (0..5)
        .map(|_| {
            let t0 = std::time::Instant::now();
            drop(metro_cha_trace::stream(nodes, 10));
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// CI-release guard on the checker's growth: ten times the nodes may
/// cost at most 15 times the time (≈8x measured streaming; ≈12x when
/// the run was recorded first and checked after). The quadratic
/// checker this guards against scanned every node's proposal per
/// history entry and reads 28–34x.
/// Scheduler noise only inflates a timing, so one clean attempt in
/// three passes.
#[test]
#[ignore = "wall-clock benchmark; CI runs it explicitly in release (metropolis smoke step)"]
fn checker_cost_grows_linearly_with_the_trace() {
    let mut ratios = Vec::new();
    for _ in 0..3 {
        let (small, large) = (checker_seconds(2_000), checker_seconds(20_000));
        let ratio = large / small;
        eprintln!("checker: 2 000 nodes {small:.4} s, 20 000 nodes {large:.4} s ({ratio:.1}x)");
        if ratio <= 15.0 {
            return;
        }
        ratios.push(ratio);
    }
    panic!("10x the nodes cost {ratios:.1?} times the time on every attempt (want <= 15x)");
}
