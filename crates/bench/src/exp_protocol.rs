//! Experiment E20 (`protocol_trace`): protocol-level causal tracing,
//! per-app decision timelines, and the crash/violation flight
//! recorder.
//!
//! Three claims are exercised, the first two asserted inline before
//! anything is reported:
//!
//! 1. **Tracing is zero-perturbation and worker-invariant.** Every job
//!    runs traced (causal recorder + 16-round flight window) under 1
//!    sweep worker and under 4; the two outcome lists — causal DAGs,
//!    decision timelines, and channel stats included — must be equal.
//!    Each traced outcome records spans and edges and, stripped of its
//!    observability fields, must equal the plain untraced run.
//! 2. **Violations dump replayable incident bundles.** The
//!    `broken_majority` catalog scenario deterministically fails the
//!    register linearizability audit; its run must attach an
//!    [`IncidentBundle`] whose [`IncidentBundle::replay`] reproduces
//!    the identical audit verdict *and* the identical bundle at both
//!    worker counts. With `VI_INCIDENT_DIR` set, the bundle is also
//!    written to disk (CI uploads it and replays it via
//!    `repro --replay`).
//! 3. **Decision timelines quantify invoke→decide latency.** The
//!    table reports p50/p95/p99/max (in rounds) per app — the four
//!    traffic apps from their invoke→complete spans, CHA from its
//!    propose→decide chains.
//!
//! The artifact is `BENCH_protocol_trace.json`. The clique run's
//! causal DAG is also emitted to the environment's monitor sinks as one
//! `MonitorEvent::Causal`; under `VI_TRACE` the trace sink exports it
//! as Perfetto flow events.

use crate::exp_traffic::traffic_jobs;
use crate::harness::{assert_replays, assert_unperturbed, paired_sweep, write_file};
use crate::table::Table;
use vi_scenario::{catalog, EngineTuning, IncidentBundle, ScenarioSpec};
use vi_telemetry::monitor::{self, MonitorEvent};

/// The seed every E20 job runs with.
const SEED: u64 = 1;

/// Flight-recorder window for every traced run.
const FLIGHT_ROUNDS: usize = 16;

/// The traced job list: the CHA clique (propose→decide timeline) plus
/// one open-loop traffic variant per app over `robot_patrol`
/// (invoke→complete timelines for register, mutex, tracking, and
/// georouting).
pub fn protocol_specs() -> Vec<ScenarioSpec> {
    let mut specs = vec![catalog::scenario("clique").expect("catalog scenario")];
    specs.extend(
        traffic_jobs()
            .into_iter()
            .filter(|(s, _)| s.name.starts_with("robot_patrol/") && s.name.ends_with("/open"))
            .map(|(s, _)| s),
    );
    specs
}

/// The tracing tuning every E20 run uses. Telemetry stays off:
/// phase timers are wall-clock and would break the byte-for-byte
/// outcome comparison (E19 owns the counter-invariance claim).
pub fn traced_tuning() -> EngineTuning {
    EngineTuning::DEFAULT
        .with_tracing()
        .with_flight(FLIGHT_ROUNDS)
}

/// The forced-violation fixture: runs `broken_majority` traced,
/// extracts the incident bundle, verifies it replays to the identical
/// audit verdict and bundle, and returns it.
///
/// # Panics
///
/// Panics if no bundle is dumped or a replay diverges.
pub fn forced_violation_bundle() -> IncidentBundle {
    let spec = catalog::scenario("broken_majority").expect("catalog scenario");
    let out = spec.run_with(SEED, traced_tuning());
    let report = out.audit.as_ref().expect("always audited");
    assert!(!report.ok(), "broken_majority must violate linearizability");
    let bundle = out
        .incident
        .expect("violation must dump an incident bundle");
    assert_replays(&bundle);
    bundle
}

/// E20 — the protocol-trace table: per-app decision timelines, causal
/// DAG sizes, and the forced-violation incident bundle.
pub fn protocol_trace() -> Table {
    // 1 and 4 sweep workers: a causal span, a flight event, or a
    // counter recorded on a parallel code path shows as a mismatch.
    let specs = protocol_specs();
    let jobs: Vec<(ScenarioSpec, u64)> = specs.iter().map(|s| (s.clone(), SEED)).collect();
    let outcomes = paired_sweep(&jobs, traced_tuning(), 4);
    for (spec, out) in specs.iter().zip(&outcomes) {
        assert_unperturbed(spec, SEED, out);
    }
    // The clique's causal DAG goes to the environment's sinks; under
    // VI_TRACE the trace sink draws it as Perfetto flow arrows on the
    // protocol lane.
    if let Some(summary) = &outcomes[0].causal {
        let sinks = &monitor::env().sinks;
        sinks.emit(&MonitorEvent::Causal(Box::new(summary.clone())));
        sinks.flush();
    }

    let mut t = Table::new(
        "E20 protocol trace: causal DAGs, decision timelines, incident bundles",
        &[
            "scenario", "timeline", "samples", "p50", "p95", "p99", "max", "spans", "edges",
            "flight",
        ],
    );
    for out in &outcomes {
        let c = out.causal.as_ref().expect("tracing was enabled");
        assert!(
            !c.spans.is_empty() && !c.edges.is_empty(),
            "{}: a traced run records spans and traces receptions",
            out.scenario
        );
        let base = out.scenario.split('/').next().unwrap_or(&out.scenario);
        for (app, d) in &c.decision {
            t.row(&[
                base.to_string(),
                app.clone(),
                d.samples.to_string(),
                d.p50.to_string(),
                d.p95.to_string(),
                d.p99.to_string(),
                d.max.to_string(),
                c.spans.len().to_string(),
                c.edges.len().to_string(),
                out.incident
                    .as_ref()
                    .map_or("-".to_string(), |b| b.flight.len().to_string()),
            ]);
        }
    }

    let bundle = forced_violation_bundle();
    let (spans, edges) = bundle
        .causal
        .as_ref()
        .map_or((0, 0), |c| (c.spans.len(), c.edges.len()));
    t.row(&[
        "broken_majority".to_string(),
        "(incident)".to_string(),
        bundle.audit.as_ref().map_or(0, |r| r.ops).to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        spans.to_string(),
        edges.to_string(),
        bundle.flight.len().to_string(),
    ]);
    if let Some(dir) = &monitor::env().incident_dir {
        write_file(
            &dir.join("incident_broken_majority.json"),
            &bundle.to_json(),
        );
    }

    t.note("latencies in rounds: invoke→complete per traffic app, propose→decide for cha");
    t.note("1-worker vs 4-worker traced sweeps asserted byte-identical (causal DAGs included)");
    t.note(
        "every traced outcome, observability fields stripped, asserted equal to its untraced run",
    );
    t.note("broken_majority: linearizability violation dumped as an incident bundle; replay asserted to reproduce verdict and bundle byte-identically");
    t.note("set VI_INCIDENT_DIR=. to write incident_broken_majority.json; replay it via `repro --replay incident_broken_majority.json`");
    t.note("set VI_TRACE=out.json to export the causal DAG as Perfetto flow events");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_scenario::IncidentReason;

    /// Acceptance: traced sweeps are worker-invariant and tracing is
    /// zero-perturbation (subset for test runtime: clique + one
    /// traffic app).
    #[test]
    fn traced_sweeps_are_worker_invariant_and_zero_perturbation() {
        let jobs: Vec<(ScenarioSpec, u64)> = protocol_specs()
            .into_iter()
            .filter(|s| s.name == "clique" || s.name.starts_with("robot_patrol/register/"))
            .map(|s| (s, SEED))
            .collect();
        assert_eq!(jobs.len(), 2);
        let outcomes = paired_sweep(&jobs, traced_tuning(), 4);
        for ((spec, seed), out) in jobs.iter().zip(&outcomes) {
            assert_unperturbed(spec, *seed, out);
            let c = out.causal.as_ref().expect("tracing on");
            assert!(!c.spans.is_empty(), "{}: spans recorded", spec.name);
            assert!(!c.edges.is_empty(), "{}: receptions traced", spec.name);
        }
    }

    /// The decision timelines cover both protocol layers: CHA's
    /// propose→decide chain and a traffic app's invoke→complete path.
    #[test]
    fn decision_timelines_cover_cha_and_traffic_apps() {
        let clique = catalog::scenario("clique").expect("catalog scenario");
        let out = clique.run_with(SEED, traced_tuning());
        let c = out.causal.as_ref().expect("tracing on");
        let cha = c.decision.get("cha").expect("cha timeline");
        assert!(cha.samples > 0);
        assert!(cha.p50 <= cha.p95 && cha.p95 <= cha.p99 && cha.p99 <= cha.max);
        assert!(cha.max >= 2, "a CHA instance spans 3 rounds: {cha:?}");
        assert!(out.incident.is_none(), "clean run, no bundle");

        let register = protocol_specs()
            .into_iter()
            .find(|s| s.name.starts_with("robot_patrol/register/"))
            .expect("register variant");
        let out = register.run_with(SEED, traced_tuning());
        let c = out.causal.as_ref().expect("tracing on");
        let reg = c.decision.get("register").expect("register timeline");
        assert!(reg.samples > 0);
        let t = out.traffic.as_ref().expect("traffic summary");
        assert_eq!(reg.samples, t.completed, "one sample per completion");
        assert_eq!(
            c.op_spans.len() as u64,
            t.issued,
            "every issued op links to an invoke span"
        );
    }

    /// Acceptance: the forced violation produces a bundle that
    /// replays to the identical verdict (asserted
    /// inside `forced_violation_bundle`), and the bundle's JSON
    /// round-trips.
    #[test]
    fn forced_violation_bundle_replays_and_round_trips() {
        let bundle = forced_violation_bundle();
        assert_eq!(bundle.reason, IncidentReason::Violation);
        assert!(bundle.flight.len() <= FLIGHT_ROUNDS);
        assert!(!bundle.flight.is_empty());
        let back = IncidentBundle::from_json(&bundle.to_json()).expect("parses");
        assert_eq!(back, bundle);
    }
}
