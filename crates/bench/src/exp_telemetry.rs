//! Experiment E19 (`telemetry`): the observability layer itself —
//! deterministic engine counters across representative catalog
//! scenarios. (The wall-clock phase timers the same runs fill are
//! vi-perf's `radio.phase.*` rows, `bash bench/run.sh --trace 1`.)
//!
//! Every row runs with [`EngineTuning::with_telemetry`] through the
//! [`SweepRunner`] and reports the counter set a run accumulated:
//! round-mode split (steady / scatter / re-anchor / churn), cache
//! re-anchors, receptions and collisions, adversary consultations,
//! traffic timeouts and audited operations. Counters live on the
//! sequential control path of the engine, so the experiment asserts
//! inline ([`paired_sweep`]) that the same matrix on 1 worker and on
//! `auto()` workers yields equal outcomes, counter sets included
//! (wall-clock phase stats are excluded from summary equality).
//!
//! The Perfetto side (`VI_TRACE`, a `TraceSink` among the
//! environment's monitor sinks) is exercised by this module's tests: a
//! sweep carrying a `TraceSink` turns its job events into
//! `sweep-worker` and per-job spans that must round-trip through the
//! Chrome trace-event JSON format.

use crate::harness::{catalog_specs, matrix_jobs, paired_sweep};
use crate::table::Table;
use vi_scenario::{EngineTuning, SweepRunner};

/// Seeds of the telemetry matrix (two is enough — determinism across
/// seeds is E15's job; this experiment characterizes counter shapes).
const SEEDS: [u64; 2] = [1, 2];

/// Catalog picks covering every counter family: a static clique
/// (steady rounds), heavy mobility (movers + re-anchors), a lying
/// detector (adversary consultations), city scale (scatter + churn),
/// and an audited traffic workload (timeouts + audit ops).
const SCENARIOS: [&str; 5] = [
    "clique",
    "commuter_wave",
    "broken_detector",
    "city_scale",
    "quake_drill",
];

/// E19 — per-scenario deterministic counters, with the 1-vs-N-worker
/// counter identity asserted before anything is reported.
///
/// # Panics
///
/// Panics if any outcome, counter set included, differs between the
/// 1-worker and the `auto()`-worker run of the same job — that would
/// mean a counter leaked onto a parallel code path.
pub fn telemetry() -> Table {
    let outcomes = paired_sweep(
        &matrix_jobs(&catalog_specs(&SCENARIOS), &SEEDS),
        EngineTuning::DEFAULT.with_telemetry(),
        SweepRunner::auto().workers(),
    );

    let mut t = Table::new(
        "E19 telemetry: deterministic engine counters across catalog scenarios",
        &[
            "scenario",
            "seed",
            "rounds",
            "steady",
            "scatter",
            "reanchor",
            "churn",
            "receptions",
            "collisions",
            "adv checks",
            "timeouts",
            "audit ops",
        ],
    );
    for out in &outcomes {
        let c = out
            .telemetry
            .as_ref()
            .expect("telemetry was enabled")
            .counters;
        t.row(&[
            out.scenario.clone(),
            out.seed.to_string(),
            c.rounds_total.to_string(),
            c.rounds_steady.to_string(),
            c.rounds_scatter.to_string(),
            c.rounds_reanchor.to_string(),
            c.rounds_churn.to_string(),
            c.receptions.to_string(),
            c.collisions.to_string(),
            c.adversary_checks.to_string(),
            c.traffic_timeouts.to_string(),
            c.audit_ops.to_string(),
        ]);
    }
    t.note("counters asserted identical between 1-worker and auto-worker sweeps before reporting");
    t.note("traffic workloads drive their own engine, so their round-mode counters stay 0");
    t.note("set VI_TRACE=out.json on any sweep to additionally export a Perfetto/Chrome trace of worker and job spans");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::guards::assert_on_overhead_is_bounded;
    use std::sync::Arc;
    use vi_scenario::catalog;
    use vi_telemetry::monitor::MonitorSink;
    use vi_telemetry::trace_export::{TraceEvent, TraceFile, PID_SWEEP};
    use vi_telemetry::{SinkSet, TraceSink};

    /// The counter algebra of a pure-CHA run: the round-mode counters
    /// partition `rounds_total`, and the delivery counters mirror the
    /// channel stats.
    #[test]
    fn counters_reconcile_on_a_clique() {
        let spec = catalog::scenario("clique").expect("catalog name");
        let out = spec.run_with(1, EngineTuning::DEFAULT.with_telemetry());
        let c = out.telemetry.as_ref().expect("telemetry on").counters;
        assert_eq!(c.rounds_total, out.rounds, "every round is counted");
        assert_eq!(
            c.rounds_total,
            c.rounds_steady + c.rounds_scatter + c.rounds_reanchor + c.rounds_churn,
            "round modes partition the total"
        );
        assert!(c.receptions > 0, "a clique delivers messages");
        // Telemetry off: the field is absent and the rest identical.
        let plain = spec.run_with(1, EngineTuning::DEFAULT);
        assert!(plain.telemetry.is_none());
        let mut stripped = out.clone();
        stripped.telemetry = None;
        assert_eq!(stripped, plain, "telemetry must not perturb the run");
    }

    /// A sweep carrying a [`TraceSink`] writes spans that round-trip
    /// through the Chrome trace-event format: one `scenario#seed` span
    /// per job, and a `sweep-worker` span on every lane that ran one
    /// (which lanes do is the scheduler's business).
    #[test]
    fn sweep_trace_validates_as_chrome_trace_json() {
        let dir = std::env::temp_dir().join("vi_bench_trace_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("trace.json");
        let sink = Arc::new(TraceSink::create(path.to_str().expect("utf-8")).expect("create"));
        let spec = catalog::scenario("clique").expect("catalog name");
        let _ = SweepRunner::new(2)
            .with_sinks(SinkSet::new(vec![sink.clone()]))
            .run_matrix(&[spec], &[1, 2, 3, 4]);
        sink.flush();

        let raw = std::fs::read_to_string(&path).expect("read trace");
        let file: TraceFile = serde_json::from_str(&raw).expect("trace must be valid JSON");
        let sweep: Vec<&TraceEvent> = file
            .traceEvents
            .iter()
            .filter(|ev| ev.pid == PID_SWEEP)
            .collect();
        assert!(
            sweep
                .iter()
                .all(|ev| ev.ph == "X" && (ev.ts > 0 || ev.dur > 0)),
            "{sweep:?}"
        );
        let jobs: Vec<&&TraceEvent> = sweep
            .iter()
            .filter(|ev| ev.name.starts_with("clique#"))
            .collect();
        let mut names: Vec<&str> = jobs.iter().map(|ev| ev.name.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, ["clique#1", "clique#2", "clique#3", "clique#4"]);
        for job in jobs {
            assert!(job.tid < 2, "tid is the worker index: {job:?}");
            assert!(
                sweep
                    .iter()
                    .any(|ev| ev.name == "sweep-worker" && ev.tid == job.tid),
                "no sweep-worker span on the lane that ran {job:?}"
            );
        }
    }

    /// Acceptance guard, CI-release only: telemetry-on must stay
    /// within ~1.3x of telemetry-off on a metropolis-scale run — the
    /// counters are plain u64 bumps on the control path and the phase
    /// timers are five `Instant` reads per round, nothing more.
    #[test]
    #[ignore = "wall-clock benchmark; CI runs it explicitly in release (E-series step)"]
    fn telemetry_on_overhead_is_bounded() {
        assert_on_overhead_is_bounded(
            "telemetry",
            EngineTuning::DEFAULT,
            EngineTuning::DEFAULT.with_telemetry(),
        );
    }
}
