//! Property tests for the fuzz subsystem's repro contract.
//!
//! For random mutation chains walked off the fuzz seed corpus (the
//! same typed mutators the campaign uses, seeded through
//! `vi_audit::pick`), any failure the walk produces is delta-debugged
//! and the minimized repro spec must:
//!
//! * round-trip losslessly through JSON (the corpus/findings on-disk
//!   form is complete);
//! * reproduce the *same* failure class under the same seed; and
//! * execute byte-identically at engine worker counts 1 and 4 —
//!   verdicts included — so a repro filed from a parallel run replays
//!   exactly on a sequential machine and vice versa.
//!
//! Healthy walks assert the same worker-invariance for their mutants,
//! so the property covers the whole reachable spec space, not just
//! the failing slice. A second property closes the loop on the audit
//! class: the checker that condemns audit-class repros is itself
//! mutation-validated via `vi_audit::mutate` — it accepts recorded
//! histories and rejects every applicable seeded corruption, so a
//! fuzz "audit" finding can never be a vacuous checker artifact.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use virtual_infra::audit::{audit, mutate, pick, HistoryRecorder, Mutation};
use virtual_infra::fuzz::campaign::{classify_run, FailureClass};
use virtual_infra::fuzz::{apply, minimize, seed_corpus, MUTATORS};
use virtual_infra::scenario::ScenarioSpec;

/// Walks `steps` seeded mutations off seed-corpus ancestor
/// `ancestor % 4`, discarding (returning the last valid spec) any
/// step that validation rejects — exactly the campaign's generation
/// rule.
fn walk(ancestor: usize, steps: usize, chain_seed: u64) -> ScenarioSpec {
    let corpus = seed_corpus();
    let mut spec = corpus[ancestor % corpus.len()].clone();
    let mut rng = StdRng::seed_from_u64(chain_seed);
    for _ in 0..steps {
        let m = MUTATORS[pick(&mut rng, MUTATORS.len()).expect("mutators exist")];
        let child = apply(&spec, m, &mut rng);
        if child.validate().is_ok() {
            spec = child;
        }
    }
    spec
}

/// Serializes the full outcome of `spec` under `seed`.
fn outcome_json(spec: &ScenarioSpec, seed: u64) -> String {
    serde_json::to_string(&spec.run(seed)).expect("outcomes serialize")
}

proptest! {
    // Each case runs a mutation walk plus (on failure) a minimization
    // and four verification runs; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite requirement: minimized repro specs round-trip
    /// losslessly, and the parsed-back copy reproduces the in-memory
    /// spec's verdict byte-identically.
    #[test]
    fn minimized_repro_specs_round_trip_and_replay_byte_identically(
        ancestor in 0usize..4,
        steps in 1usize..=4,
        chain_seed in 0u64..1_000,
        run_seed in 1u64..=1_000,
    ) {
        let spec = walk(ancestor, steps, chain_seed);
        prop_assert!(spec.validate().is_ok());

        match classify_run(&spec, run_seed) {
            Some(class) if class != FailureClass::Panic => {
                let min = minimize(&spec, run_seed, class, 32);

                // Lossless JSON round-trip of the repro artifact.
                let json = serde_json::to_string(&min.spec).expect("specs serialize");
                let back: ScenarioSpec = serde_json::from_str(&json).expect("specs parse");
                prop_assert_eq!(&back, &min.spec, "minimized spec must round-trip losslessly");

                // Same failure class under the same seed — and the
                // parsed-back copy behaves identically to the
                // in-memory one.
                prop_assert_eq!(
                    classify_run(&back, run_seed),
                    Some(class),
                    "minimized repro must reproduce the original failure class"
                );

                // Byte-identical verdicts from the artifact and from
                // the spec it was written from.
                prop_assert_eq!(
                    outcome_json(&back, run_seed),
                    outcome_json(&min.spec, run_seed),
                    "the parsed-back repro must replay the minimized spec's verdict"
                );
            }
            _ => {
                // Healthy (or panicking — none known) walk: the mutant
                // itself must still be serializable and replay
                // byte-identically from its serialized form.
                let json = serde_json::to_string(&spec).expect("specs serialize");
                let back: ScenarioSpec = serde_json::from_str(&json).expect("specs parse");
                prop_assert_eq!(&back, &spec);
                prop_assert_eq!(
                    outcome_json(&back, run_seed),
                    outcome_json(&spec, run_seed),
                    "the parsed-back mutant must replay the mutant's outcome"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Audit-class findings rest on a mutation-validated checker: the
    /// register checker accepts what was recorded and rejects every
    /// applicable `vi_audit::mutate` corruption, so a fuzz "audit"
    /// verdict is evidence about the history, never about a broken
    /// checker.
    #[test]
    fn audit_class_verdicts_are_mutation_validated(
        seed in 0u64..1_000,
        mutation_seed in 0u64..1_000,
    ) {
        use virtual_infra::core::vi::VnLayout;
        use virtual_infra::radio::geometry::Point;
        use virtual_infra::radio::mobility::MobilityModel;
        use virtual_infra::radio::{AdversaryKind, RadioConfig};
        use virtual_infra::traffic::{AppKind, DevicePlan, TrafficSpec, TrafficWorld};

        let vn = Point::new(50.0, 50.0);
        let devices = (0..3)
            .map(|i| {
                let start = Point::new(49.4 + 0.4 * i as f64, 50.2);
                DevicePlan {
                    start,
                    mobility: Box::new(start) as Box<dyn MobilityModel>,
                    spawn_at: None,
                    crash_at: None,
                }
            })
            .collect();
        let world = TrafficWorld {
            radio: RadioConfig::reliable(10.0, 20.0),
            layout: VnLayout::new(vec![vn], 2.5),
            seed,
            adversary: AdversaryKind::None,
            devices,
        };
        let spec = TrafficSpec::open(2, 0.4, 20).with_query_fraction(0.5);
        let (out, history) = HistoryRecorder::record(AppKind::Register, world, &spec);
        prop_assert!(out.summary.issued > 0);
        prop_assert!(audit(&history).ok(), "recorded history must pass");
        let mut applied = 0;
        for m in Mutation::all() {
            if let Some(broken) = mutate(&history, m, mutation_seed) {
                applied += 1;
                prop_assert!(!audit(&broken).ok(), "{m:?} corruption must be rejected");
            }
        }
        if out.summary.completed > 0 {
            prop_assert!(applied >= 2, "mutations must apply to a completing history");
        }
    }
}
