//! Experiment E17 (`consistency_audit`): every vi-app *audited* under
//! every nemesis fault schedule.
//!
//! For each of the four apps and each nemesis catalog scenario
//! (`blackout_market`: mid-run radio blackout + replica crash burst;
//! `quake_drill`: detector-corruption window + crash burst), the
//! experiment rebases the scenario onto the app — same layout, same
//! traffic discipline, same fault schedule, `audit: true` — and sweeps
//! all seeds through the deterministic parallel [`SweepRunner`], twice
//! (1 worker vs N) to assert the outcome tables, audit reports
//! included, are byte-identical. Rows report per-run op counts,
//! timeouts (`:info` ops), and the verdict of every consistency
//! checker; the experiment **panics if any checker reports a
//! violation**, printing the witness — the audit is the
//! acceptance gate, not just a measurement.
//!
//! The nemesis histories are a few dozen operations each, so the
//! table closes with **checker-volume rows**: the register zone test
//! alone over legal synthetic histories of 10 000, 100 000 and
//! 1 000 000 operations. What the check costs is not this table's
//! business: its memory is guarded by `tests/audit_memory.rs`, its
//! time and RSS are vi-perf's `audit.check_s` / `audit.ns_per_op` /
//! `audit.rss_mb` (`bash bench/run.sh --workload register_audit
//! --trace 1`).

use crate::harness::paired_sweep;
use crate::table::Table;
use vi_audit::{audit_register_ops, synthetic_history};
use vi_scenario::catalog::scenario;
use vi_scenario::{AppKind, EngineTuning, ScenarioSpec, SweepRunner, WorkloadSpec};

/// The audited nemesis scenarios (catalog names).
pub const NEMESIS_SCENARIOS: [&str; 2] = ["blackout_market", "quake_drill"];

/// Seeds every `(scenario, app)` pair is audited under.
pub const SEEDS: [u64; 3] = [1, 2, 3];

/// Rebases a nemesis catalog scenario onto `app`: same deployment,
/// layout, traffic discipline, and fault schedule; only the driven
/// app changes (audit stays on).
pub fn audit_variant(base: &ScenarioSpec, app: AppKind) -> ScenarioSpec {
    let mut spec = base.clone();
    spec.name = format!("{}/{}", base.name, app.name());
    let WorkloadSpec::Traffic { app: a, audit, .. } = &mut spec.workload else {
        panic!("{}: nemesis scenario must drive traffic", base.name)
    };
    *a = app;
    *audit = true;
    spec
}

/// The full E17 job list: nemesis scenarios × apps × seeds.
pub fn audit_jobs() -> Vec<(ScenarioSpec, u64)> {
    let mut jobs = Vec::new();
    for name in NEMESIS_SCENARIOS {
        let base = scenario(name).expect("nemesis catalog scenario");
        for app in AppKind::all() {
            for seed in SEEDS {
                jobs.push((audit_variant(&base, app), seed));
            }
        }
    }
    jobs
}

/// E17's columns.
const HEADERS: [&str; 8] = [
    "scenario", "app", "seed", "ops", "done", "t/o", "checks", "verdicts",
];

/// History sizes of the checker-volume rows.
const VOLUME_OPS: [usize; 3] = [10_000, 100_000, 1_000_000];

/// Seed of the checker-volume histories (the checker bench's).
const VOLUME_SEED: u64 = 7;

/// One checker-volume row: the register audit (`check_register`
/// behind `audit_register_ops`) of a legal synthetic history of `ops`
/// operations.
fn volume_row(ops: usize) -> Vec<String> {
    let report = audit_register_ops("register", &synthetic_history(ops, VOLUME_SEED));
    vec![
        "synthetic_history".to_string(),
        report.app.clone(),
        VOLUME_SEED.to_string(),
        report.ops.to_string(),
        (report.ops - report.timeouts).to_string(),
        report.timeouts.to_string(),
        report.checks.len().to_string(),
        report.verdict_summary(),
    ]
}

/// E17 — the consistency-audit table.
///
/// # Panics
///
/// Panics if any audited run violates a consistency checker (with the
/// witness in the message) — passing audits are this
/// experiment's acceptance criterion.
pub fn consistency_audit() -> Table {
    let jobs = audit_jobs();
    let outcomes = paired_sweep(&jobs, EngineTuning::DEFAULT, SweepRunner::auto().workers());

    let mut t = Table::new(
        "E17 / consistency audit: apps × nemesis schedules × seeds (history checkers)",
        &HEADERS,
    );
    for o in &outcomes {
        let s = o.traffic.as_ref().expect("traffic outcome");
        let report = o.audit.as_ref().expect("audited outcome");
        if let Some(bad) = report.violations().first() {
            panic!(
                "{} seed {}: {} {} — {}",
                o.scenario,
                o.seed,
                bad.name,
                bad.verdict.label(),
                bad.witness.as_deref().unwrap_or("(no witness)")
            );
        }
        let base = o.scenario.split('/').next().unwrap_or(&o.scenario);
        t.row(&[
            base.to_string(),
            report.app.clone(),
            o.seed.to_string(),
            report.ops.to_string(),
            s.completed.to_string(),
            report.timeouts.to_string(),
            report.checks.len().to_string(),
            report.verdict_summary(),
        ]);
    }
    for ops in VOLUME_OPS {
        let row = volume_row(ops);
        assert_eq!(row[7], "linearizable=ok", "synthetic history is legal");
        t.row(&row);
    }
    t.note(
        "every row passed linearizability/exclusion/freshness/delivery checks under its nemesis",
    );
    t.note("timeouts are Jepsen :info ops (maybe-applied, concurrent-forever for the checkers)");
    t.note("1-worker vs N-worker sweeps asserted byte-identical, audit reports included");
    t.note("synthetic_history rows: the register zone test alone on a legal history");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Acceptance slice: all four apps audit clean under both nemesis
    /// schedules (one seed here for test runtime; the release smoke
    /// runs the full seed matrix) and verdicts are worker-invariant.
    #[test]
    fn all_apps_audit_clean_under_both_nemeses() {
        let jobs: Vec<_> = audit_jobs()
            .into_iter()
            .filter(|(_, seed)| *seed == SEEDS[0])
            .collect();
        assert_eq!(jobs.len(), 8, "2 schedules × 4 apps");
        let outcomes = paired_sweep(&jobs, EngineTuning::DEFAULT, 4);
        for o in &outcomes {
            let report = o.audit.as_ref().expect("audited outcome");
            assert!(
                report.ok(),
                "{} seed {}: {:?}",
                o.scenario,
                o.seed,
                report.violations()
            );
            assert!(report.ops > 0, "{}: drove traffic", o.scenario);
            assert!(
                report.checks.len() >= 2,
                "{}: well-formed + semantic checks",
                o.scenario
            );
            let t = o.traffic.as_ref().expect("traffic summary");
            assert_eq!(
                t.completed + t.timed_out + t.in_flight_at_end,
                t.issued,
                "{}: accounting closes",
                o.scenario
            );
        }
    }

    #[test]
    fn volume_rows_repeat_exactly_outside_the_host_columns() {
        // No host column is left, so "outside" is the whole row.
        let a = volume_row(2_000);
        assert_eq!(a.len(), HEADERS.len());
        assert_eq!(a, volume_row(2_000));
        assert_eq!(a[3], "2000");
        assert_eq!(a[7], "linearizable=ok");
    }

    #[test]
    fn audit_variants_validate_and_round_trip() {
        for (spec, _) in audit_jobs() {
            spec.validate().expect("audit variant must validate");
            let json = serde_json::to_string(&spec).unwrap();
            let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "{} round-trips", spec.name);
        }
    }
}
