//! Property-based test of the flight recorder's core promise: a
//! dumped [`IncidentBundle`] is a *complete* reproduction recipe.
//!
//! For random perturbations of the violating majority-register
//! scenario (write count, horizon, partition onset, seed, flight
//! window), any bundle the run dumps must — after a JSON round-trip,
//! as a replay consumer would see it — re-execute to a byte-identical
//! [`ScenarioOutcome`] (audit report included) every time, and that
//! replay must re-dump the identical bundle. Runs that happen not to
//! violate must still repeat exactly under tracing.

use proptest::prelude::*;
use virtual_infra::scenario::{catalog, EngineTuning, IncidentBundle, ScenarioSpec, WorkloadSpec};

/// The violating baseline with its workload knobs replaced.
fn perturbed(writes: u64, rounds: u64, partition_from: u64) -> ScenarioSpec {
    let mut spec = catalog::scenario("broken_majority").expect("catalog scenario");
    spec.name = format!("broken_majority/w{writes}r{rounds}p{partition_from}");
    spec.workload = WorkloadSpec::MajorityRegister {
        writes,
        rounds,
        partition_from: Some(partition_from),
    };
    spec.validate().expect("perturbation stays valid");
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn dumped_bundles_replay_byte_identically(
        seed in 1u64..=64,
        writes in 4u64..=10,
        rounds in 16u64..=32,
        partition_from in 2u64..=8,
        flight_k in 4usize..=16,
    ) {
        let spec = perturbed(writes, rounds, partition_from);
        let tuning = EngineTuning::DEFAULT.with_tracing().with_flight(flight_k);
        let out = spec.run_with(seed, tuning);

        if let Some(bundle) = &out.incident {
            // A replay consumer only ever sees the serialized form.
            let parsed = IncidentBundle::from_json(&bundle.to_json()).expect("round-trips");
            prop_assert_eq!(&parsed, bundle);

            let replay = parsed.replay();
            prop_assert_eq!(
                serde_json::to_string(&replay).expect("serializes"),
                serde_json::to_string(&parsed.replay()).expect("serializes"),
                "two replays of one bundle disagree"
            );
            prop_assert_eq!(&replay.audit, &bundle.audit, "audit verdict drifted on replay");
            prop_assert_eq!(
                replay.incident.as_ref(),
                Some(bundle),
                "replay failed to re-dump the identical bundle"
            );
        } else {
            // No violation at these knobs: a traced run must still
            // repeat exactly.
            prop_assert_eq!(
                serde_json::to_string(&out).expect("serializes"),
                serde_json::to_string(&spec.run_with(seed, tuning)).expect("serializes"),
                "a traced re-run diverged"
            );
        }
    }
}

/// The canonical catalog violation always dumps, and its bundle's
/// causal slice points at real spans: every witness span id resolves
/// into the bundled summary.
#[test]
fn witness_slice_points_into_the_causal_dag() {
    let spec = catalog::scenario("broken_majority").expect("catalog scenario");
    let out = spec.run_with(1, EngineTuning::DEFAULT.with_tracing().with_flight(8));
    let bundle = out.incident.expect("catalog scenario violates");
    let summary = bundle.causal.as_ref().expect("tracing was on");
    assert!(
        !bundle.witness_spans.is_empty(),
        "a traced violation carries its causal slice"
    );
    let ids: std::collections::BTreeSet<u64> = summary.spans.iter().map(|s| s.id).collect();
    for span in &bundle.witness_spans {
        assert!(ids.contains(span), "witness span {span} not in the DAG");
    }
}
