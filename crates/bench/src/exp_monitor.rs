//! Experiment E21 (`live_monitor`): the live-monitoring pipeline —
//! periodic telemetry snapshots, streaming sinks, the Prometheus
//! `/metrics` exporter, and sweep progress events.
//!
//! The experiment drives two monitored sweeps of catalog scenarios,
//! each carrying its own [`RingSink`] (the auto-worker one a live
//! [`PrometheusExporter`] too), and asserts the acceptance criteria
//! inline before reporting anything:
//!
//! * the deterministic projection of every snapshot (counter deltas,
//!   totals, rounds, traffic progress — everything except wall-clock
//!   phase timings) is byte-identical between a 1-worker and an
//!   `auto()`-worker sweep;
//! * a monitored run's final [`ScenarioOutcome`] equals the
//!   unmonitored run's (monitoring rides the wall-clock side);
//! * snapshot deltas merged in `seq` order reconcile exactly with the
//!   run's final counter totals;
//! * a `/metrics` scrape against the exporter during the sweep returns
//!   well-formed Prometheus text exposition with per-scenario
//!   counters;
//! * every sweep job emits Queued → Started → Finished, and each
//!   Finished digest matches the FNV-1a digest of the job's outcome;
//! * every job samples at least twice.
//!
//! The table reports, per job, the snapshot count. What sampling
//! costs is not this table's business: the CI-gated ≤1.3x bound lives
//! in the `#[ignore]`d `monitor_on_overhead_is_bounded` test, run
//! explicitly in release.

use crate::harness::{assert_unperturbed, catalog_specs};
use crate::table::Table;
use std::sync::Arc;
use std::time::Duration;
use vi_scenario::{EngineTuning, ScenarioOutcome, SweepRunner};
use vi_telemetry::monitor::{self, scrape_metrics};
use vi_telemetry::{
    Counters, JobState, MonitorEvent, PrometheusExporter, RingSink, SinkSet, TrafficProgress,
};

/// Seeds of the monitored matrix.
const SEEDS: [u64; 2] = [1, 2];

/// Catalog picks: a static clique (pure engine rounds), heavy mobility
/// (re-anchors keep the counters moving), and an audited traffic
/// workload (exercises [`TrafficProgress`] snapshots).
const SCENARIOS: [&str; 3] = ["clique", "commuter_wave", "quake_drill"];

/// Snapshot period: small enough that every catalog run samples
/// several times.
const EVERY: u64 = 16;

/// The deterministic projection of a snapshot: everything except the
/// wall-clock `phases_delta`. Two monitored runs of the same job must
/// produce identical sequences of these at any worker count.
#[derive(Debug, PartialEq)]
struct DetSnap {
    scenario: String,
    seed: u64,
    seq: u64,
    round: u64,
    last: bool,
    counters_delta: Counters,
    counters_total: Counters,
    traffic: Option<TrafficProgress>,
}

/// Extracts the deterministic snapshot projections, sorted by
/// `(scenario, seed, seq)` so worker interleaving cannot matter.
fn det_snaps(events: &[MonitorEvent]) -> Vec<DetSnap> {
    let mut snaps: Vec<DetSnap> = events
        .iter()
        .filter_map(|e| match e {
            MonitorEvent::Snapshot(s) => Some(DetSnap {
                scenario: s.scenario.clone(),
                seed: s.seed,
                seq: s.seq,
                round: s.round,
                last: s.last,
                counters_delta: s.counters_delta,
                counters_total: s.counters_total,
                traffic: s.traffic,
            }),
            _ => None,
        })
        .collect();
    snaps.sort_by(|a, b| (&a.scenario, a.seed, a.seq).cmp(&(&b.scenario, b.seed, b.seq)));
    snaps
}

/// Asserts that every non-empty line of `body` is Prometheus text
/// exposition: a `# TYPE`/`# HELP` comment or a `name{labels} value` /
/// `name value` sample with a numeric value.
fn assert_prometheus_well_formed(body: &str) {
    assert!(!body.trim().is_empty(), "empty /metrics body");
    for line in body.lines().filter(|l| !l.trim().is_empty()) {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# TYPE ") || line.starts_with("# HELP "),
                "malformed comment line: {line:?}"
            );
            continue;
        }
        let (name_part, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "non-numeric sample value: {line:?}"
        );
        let name = name_part.split('{').next().unwrap_or("");
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "malformed metric name: {line:?}"
        );
        if let Some(rest) = name_part.split_once('{') {
            assert!(rest.1.ends_with('}'), "unterminated label set: {line:?}");
        }
    }
}

/// Asserts the sweep's job events: one Queued, one Started, and one
/// Finished per job, Started and Finished naming the same worker, with
/// every Finished digest equal to the FNV-1a digest of the job's
/// actual outcome JSON.
fn assert_job_events(events: &[MonitorEvent], outcomes: &[ScenarioOutcome]) {
    for (job, out) in outcomes.iter().enumerate() {
        let mine: Vec<&JobState> = events
            .iter()
            .filter_map(|e| match e {
                MonitorEvent::Job(j) if j.job == job as u64 && j.seed == out.seed => Some(&j.state),
                _ => None,
            })
            .collect();
        assert_eq!(
            mine.len(),
            3,
            "job {job}: expected Queued/Started/Finished, got {mine:?}"
        );
        assert_eq!(*mine[0], JobState::Queued, "job {job}");
        let JobState::Started { worker } = *mine[1] else {
            panic!("job {job}: expected Started, got {:?}", mine[1]);
        };
        let digest = monitor::outcome_digest(serde_json::to_string(out).unwrap().as_bytes());
        assert_eq!(
            *mine[2],
            JobState::Finished { worker, digest },
            "job {job}: outcome digest or worker mismatch"
        );
    }
}

/// E21 — the live-monitoring pipeline, acceptance-asserted inline.
///
/// # Panics
///
/// Panics if any acceptance criterion fails: snapshot determinism
/// across worker counts, outcome identity under monitoring, delta
/// reconciliation, `/metrics` well-formedness, job-event digests, or
/// at least two snapshots per job.
pub fn live_monitor() -> Table {
    let specs = catalog_specs(&SCENARIOS);
    let exporter = PrometheusExporter::bind("127.0.0.1:0").expect("bind ephemeral /metrics port");
    let addr = exporter.addr().to_string();
    let tuning = EngineTuning::DEFAULT.with_monitor(EVERY);

    // Acceptance (d): scrape /metrics *while* the auto-worker sweep
    // runs. The sweep runs on a helper thread; this thread polls until
    // a scrape shows one of the sweep's scenarios (or the sweep ends —
    // the exporter keeps serving, so the final scrape still validates).
    let auto_ring = Arc::new(RingSink::with_capacity(1 << 16));
    let auto = SweepRunner::auto().with_sinks(SinkSet::new(vec![auto_ring.clone(), exporter]));
    let sweep_specs = specs.clone();
    let sweep = std::thread::spawn(move || auto.run_matrix_with(&sweep_specs, &SEEDS, tuning));
    let mut live_body = String::new();
    for _ in 0..400 {
        if let Ok(body) = scrape_metrics(&addr) {
            if body.contains("vi_round{scenario=") {
                live_body = body;
                break;
            }
        }
        if sweep.is_finished() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let auto_outcomes = sweep.join().expect("sweep thread");
    if live_body.is_empty() {
        live_body = scrape_metrics(&addr).expect("post-sweep scrape");
    }
    assert_prometheus_well_formed(&live_body);
    assert!(
        live_body.contains("# TYPE vi_rounds_total counter"),
        "missing counter family in /metrics"
    );
    assert!(
        live_body.contains("vi_rounds_total{scenario="),
        "missing per-scenario counter samples in /metrics"
    );

    // Acceptance (a): the same matrix on 1 worker — the deterministic
    // snapshot projections must be byte-identical to the auto sweep's.
    let seq_ring = Arc::new(RingSink::with_capacity(1 << 16));
    let seq_outcomes = SweepRunner::new(1)
        .with_sinks(SinkSet::new(vec![seq_ring.clone()]))
        .run_matrix_with(&specs, &SEEDS, tuning);
    let (auto_events, seq_events) = (auto_ring.events(), seq_ring.events());
    let auto_snaps = det_snaps(&auto_events);
    let seq_snaps = det_snaps(&seq_events);
    assert!(!auto_snaps.is_empty(), "no snapshots sampled");
    assert_eq!(
        auto_snaps, seq_snaps,
        "snapshot stream depends on the worker count"
    );
    assert_job_events(&auto_events, &auto_outcomes);
    assert_job_events(&seq_events, &seq_outcomes);

    // Reconciliation: per job, deltas merged in seq order equal the
    // final totals.
    for out in &seq_outcomes {
        let mine: Vec<&DetSnap> = seq_snaps
            .iter()
            .filter(|s| s.scenario == out.scenario && s.seed == out.seed)
            .collect();
        assert!(
            !mine.is_empty(),
            "{}#{}: no snapshots",
            out.scenario,
            out.seed
        );
        let mut merged = Counters::default();
        for s in &mine {
            merged.merge(&s.counters_delta);
        }
        let last = mine.last().unwrap();
        assert!(last.last, "final snapshot not marked last");
        assert_eq!(
            merged, last.counters_total,
            "{}#{}: deltas do not reconcile with totals",
            out.scenario, out.seed
        );
    }

    // Acceptance (b): per job, an unmonitored run must equal the
    // monitored one.
    let mut t = Table::new(
        "E21 live_monitor: snapshot pipeline, sinks, /metrics, sweep progress",
        &["scenario", "seed", "rounds", "snapshots"],
    );
    for (job, out) in seq_outcomes.iter().enumerate() {
        assert_unperturbed(&specs[job / SEEDS.len()], out.seed, out);
        let snaps = seq_snaps
            .iter()
            .filter(|s| s.scenario == out.scenario && s.seed == out.seed)
            .count();
        assert!(
            snaps >= 2,
            "{}#{}: a monitored run samples at least twice",
            out.scenario,
            out.seed
        );
        t.row(&[
            out.scenario.clone(),
            out.seed.to_string(),
            out.rounds.to_string(),
            snaps.to_string(),
        ]);
    }
    t.note(format!(
        "snapshots every {EVERY} rounds; deterministic projections asserted identical between 1-worker and auto-worker sweeps"
    ));
    t.note("monitored outcomes asserted byte-identical to unmonitored runs before reporting");
    t.note("set VI_MONITOR_LOG=out.jsonl / VI_MONITOR_ADDR=127.0.0.1:9464 to stream any run; `repro monitor <addr>` tails an exporter");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::guards::assert_on_overhead_is_bounded;
    use vi_telemetry::{Monitor, Observers};

    /// Fast end-to-end: the full experiment runs, asserts its
    /// acceptance criteria inline, and reports one row per job.
    #[test]
    fn live_monitor_reports_every_job() {
        let t = live_monitor();
        assert_eq!(t.len(), SCENARIOS.len() * SEEDS.len());
        assert_eq!(t.cell(0, 0), "clique");
        for row in 0..t.len() {
            assert!(
                t.cell(row, 3).parse::<u64>().unwrap() >= 2,
                "row {row}: a monitored run samples at least twice"
            );
        }
    }

    /// An explicit monitor over a local sink set, outside any sweep:
    /// a run's rounds sample on the monitor's period and the deltas
    /// reconcile — the embedder-facing API works without env vars.
    #[test]
    fn explicit_monitor_samples_a_run() {
        let ring = Arc::new(RingSink::with_capacity(1024));
        let sinks = SinkSet::new(vec![ring.clone()]);
        let obs = Observers::new(false).with_monitor(Monitor::new("local", 7, 8, sinks));
        for round in 1..=20u64 {
            obs.count_round(|c| c.rounds_total += 1);
            obs.end_round(round, 0, 0);
        }
        obs.finish();
        let snaps: Vec<_> = ring
            .events()
            .into_iter()
            .filter_map(|e| match e {
                MonitorEvent::Snapshot(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(
            snaps.iter().map(|s| s.round).collect::<Vec<_>>(),
            vec![8, 16, 20]
        );
        let mut merged = Counters::default();
        for s in &snaps {
            merged.merge(&s.counters_delta);
        }
        assert_eq!(merged.rounds_total, 20);
        assert_eq!(merged, obs.counters().unwrap());
    }

    /// Acceptance guard, CI-release only: monitoring-on must stay
    /// within ~1.3x of monitoring-off on a metropolis-scale run — a
    /// snapshot is two struct copies, a subtraction, and one JSON
    /// line every `EVERY` rounds.
    #[test]
    #[ignore = "wall-clock benchmark; CI runs it explicitly in release (E-series step)"]
    fn monitor_on_overhead_is_bounded() {
        assert_on_overhead_is_bounded(
            "monitor",
            EngineTuning::DEFAULT,
            EngineTuning::DEFAULT.with_monitor(64),
        );
    }
}
