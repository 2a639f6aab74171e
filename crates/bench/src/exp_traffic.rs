//! Experiment E16 (`traffic_profile`): every vi-app under sustained
//! client traffic, across catalog scenarios, in both arrival
//! disciplines.
//!
//! For each of the four apps (register, mutex, tracking, georouting)
//! and each of three catalog base scenarios, the experiment swaps the
//! scenario's workload for a [`WorkloadSpec::Traffic`] — once
//! open-loop (fixed arrival schedule) and once closed-loop (bounded
//! outstanding) — and sweeps the whole matrix through the
//! deterministic parallel [`SweepRunner`], twice (1 worker vs N
//! workers) to assert the metrics tables are byte-identical. Rows
//! report p50/p95/p99/max latency (in virtual rounds), throughput,
//! and drop accounting; per-app aggregate rows merge the scenario
//! histograms in job order, exercising the mergeability guarantee.
//! The artifact is `BENCH_traffic_profile.json`.

use crate::harness::paired_sweep;
use crate::table::{f2, Table};
use vi_scenario::catalog::scenario;
use vi_scenario::{
    AppKind, EngineTuning, LoadMode, RatePhase, ScenarioSpec, SweepRunner, TrafficSpec,
    WorkloadSpec,
};
use vi_traffic::LatencyHistogram;

/// The catalog scenarios E16 drives traffic over (all three deploy
/// virtual-node worlds with an always-alive first population that
/// hosts the client ports).
const BASE_SCENARIOS: [&str; 3] = ["sparse_grid", "robot_patrol", "commuter_wave"];

/// The seed every E16 job runs with.
const SEED: u64 = 1;

/// The open-loop profile: modest base rate with a mid-run burst.
fn open_profile(clients: usize) -> TrafficSpec {
    TrafficSpec {
        clients,
        mode: LoadMode::Open {
            rate_per_round: 0.25,
            phases: vec![
                RatePhase {
                    from_vr: 15,
                    rate_per_round: 0.5,
                },
                RatePhase {
                    from_vr: 25,
                    rate_per_round: 0.25,
                },
            ],
        },
        query_fraction: 0.5,
        timeout_rounds: 30,
        virtual_rounds: 40,
    }
}

/// The closed-loop profile: one outstanding request per client with a
/// short think time.
fn closed_profile(clients: usize) -> TrafficSpec {
    TrafficSpec {
        clients,
        mode: LoadMode::Closed {
            outstanding_per_client: 1,
            think_rounds: 2,
        },
        query_fraction: 0.5,
        timeout_rounds: 30,
        virtual_rounds: 40,
    }
}

/// Rebases a catalog scenario onto a traffic workload for `app`,
/// reusing the scenario's own virtual-node layout. The client count
/// is the scenario's first (always-alive) population.
fn traffic_variant(base: &ScenarioSpec, app: AppKind, traffic: TrafficSpec) -> ScenarioSpec {
    let layout = match &base.workload {
        WorkloadSpec::ViCounter { layout, .. } => layout.clone(),
        WorkloadSpec::Traffic { layout, .. } => layout.clone(),
        WorkloadSpec::ChaClique { .. } | WorkloadSpec::MajorityRegister { .. } => {
            panic!(
                "{}: base scenario must deploy a virtual-node world",
                base.name
            )
        }
    };
    let mut spec = base.clone();
    spec.name = format!("{}/{}/{}", base.name, app.name(), traffic.mode.name());
    spec.workload = WorkloadSpec::Traffic {
        app,
        layout,
        traffic,
        audit: false,
    };
    spec
}

/// The full E16 job list: apps × base scenarios × disciplines.
pub fn traffic_jobs() -> Vec<(ScenarioSpec, u64)> {
    let mut jobs = Vec::new();
    for app in AppKind::all() {
        for name in BASE_SCENARIOS {
            let base = scenario(name).expect("catalog scenario");
            let clients = base.populations[0].count.min(4);
            jobs.push((traffic_variant(&base, app, open_profile(clients)), SEED));
            jobs.push((traffic_variant(&base, app, closed_profile(clients)), SEED));
        }
    }
    jobs
}

/// E16 — the traffic profile table.
pub fn traffic_profile() -> Table {
    let jobs = traffic_jobs();
    let outcomes = paired_sweep(&jobs, EngineTuning::DEFAULT, SweepRunner::auto().workers());

    let mut t = Table::new(
        "E16 / traffic profile: apps × catalog scenarios × open/closed loop",
        &[
            "app", "scenario", "mode", "issued", "done", "t/o", "p50", "p95", "p99", "max",
            "thr/vr",
        ],
    );
    // Per-app merged histograms (job order ⇒ deterministic):
    // `(app, histogram, completed, issued, timed_out)`.
    let mut merged: Vec<(String, LatencyHistogram, u64, u64, u64)> = Vec::new();
    for o in &outcomes {
        let s = o.traffic.as_ref().expect("traffic outcome");
        let base = o.scenario.split('/').next().unwrap_or(&o.scenario);
        t.row(&[
            s.app.clone(),
            base.to_string(),
            s.mode.clone(),
            s.issued.to_string(),
            s.completed.to_string(),
            s.timed_out.to_string(),
            s.p50.to_string(),
            s.p95.to_string(),
            s.p99.to_string(),
            s.max.to_string(),
            f2(s.throughput_per_round),
        ]);
        match merged.iter_mut().find(|(app, ..)| *app == s.app) {
            Some((_, h, done, issued, timed_out)) => {
                h.merge(&s.latency);
                *done += s.completed;
                *issued += s.issued;
                *timed_out += s.timed_out;
            }
            None => merged.push((
                s.app.clone(),
                s.latency.clone(),
                s.completed,
                s.issued,
                s.timed_out,
            )),
        }
    }
    for (app, h, done, issued, timed_out) in &merged {
        t.row(&[
            app.clone(),
            "(all)".to_string(),
            "both".to_string(),
            issued.to_string(),
            done.to_string(),
            timed_out.to_string(),
            h.p50().to_string(),
            h.p95().to_string(),
            h.p99().to_string(),
            h.max().to_string(),
            "-".to_string(),
        ]);
    }
    t.note("latencies in virtual rounds; 1-worker vs N-worker sweeps asserted byte-identical");
    t.note("aggregate rows merge per-scenario histograms in job order (mergeability guarantee)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Acceptance: every app completes requests on every base
    /// scenario, in both disciplines, and the metrics tables are
    /// byte-identical across sweep worker counts.
    #[test]
    fn all_apps_complete_traffic_and_sweeps_are_worker_invariant() {
        // Subset for test runtime: one base scenario, all apps, both
        // modes; `paired_sweep` itself asserts 1 vs 4 workers.
        let jobs: Vec<_> = traffic_jobs()
            .into_iter()
            .filter(|(s, _)| s.name.starts_with("robot_patrol/"))
            .collect();
        assert_eq!(jobs.len(), 8, "4 apps × 2 modes");
        let outcomes = paired_sweep(&jobs, EngineTuning::DEFAULT, 4);
        for o in &outcomes {
            let s = o.traffic.as_ref().expect("traffic summary");
            assert!(s.issued > 0, "{}: issued", o.scenario);
            assert!(
                s.completed > 0,
                "{}: some requests must complete: {s:?}",
                o.scenario
            );
            assert_eq!(
                s.completed + s.timed_out + s.in_flight_at_end,
                s.issued,
                "{}: accounting closes: {s:?}",
                o.scenario
            );
            assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        }
    }

    #[test]
    fn traffic_variants_validate_and_round_trip() {
        for (spec, _) in traffic_jobs() {
            spec.validate().expect("traffic variant must validate");
            let json = serde_json::to_string(&spec).unwrap();
            let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "{} round-trips", spec.name);
        }
    }
}
