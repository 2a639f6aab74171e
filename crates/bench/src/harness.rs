//! Shared experiment runners.

use std::path::Path;
use vi_core::cha::ChaOutput;
use vi_radio::geometry::{Point, Rect};
use vi_radio::{AdversaryKind, RadioConfig};
use vi_scenario::{
    catalog, CmSpec, EngineTuning, IncidentBundle, NemesisSpec, PlacementSpec, PopulationSpec,
    ScenarioOutcome, ScenarioSpec, SweepRunner, WorkloadSpec,
};

/// Writes `contents` to `path` and says on stderr where it went (or
/// why it did not): `repro`'s `BENCH_<id>.json` artifacts and the
/// experiments' files under `VI_INCIDENT_DIR`.
pub fn write_file(path: &Path, contents: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// The Section 3 single-region clique every CHA experiment runs: `n`
/// static nodes 0.1 m apart on a line that wraps at 2 m (so every pair
/// is within `R1 / 2`), node `i` crashing at the round `crashes`
/// pairs it with, and `instances` agreement instances (3 rounds each)
/// over a reliable channel under a perfect contention manager.
/// Experiments override the radio, adversary and manager by struct
/// update.
pub fn clique_spec(name: &str, n: usize, instances: u64, crashes: &[(usize, u64)]) -> ScenarioSpec {
    let populations = (0..n)
        .map(|i| {
            let at = Point::new((i as f64 * 0.1) % 2.0, 0.0);
            let node = PopulationSpec::fixed(
                1,
                PlacementSpec::Line {
                    start: at,
                    step_x: 0.0,
                    step_y: 0.0,
                },
            );
            match crashes.iter().find(|&&(crashing, _)| crashing == i) {
                Some(&(_, round)) => node.crashing_at(round),
                None => node,
            }
        })
        .collect();
    ScenarioSpec {
        name: name.into(),
        arena: Rect::square(10.0),
        radio: RadioConfig::reliable(10.0, 20.0),
        populations,
        adversary: AdversaryKind::None,
        nemesis: NemesisSpec::none(),
        cm: CmSpec::perfect(),
        workload: WorkloadSpec::ChaClique { instances },
    }
}

/// The first instance from which every node decided every instance it
/// finished (measured stabilization; `None` if never), given each
/// node's outputs as `ScenarioSpec::run_cha_clique` returns them.
pub(crate) fn all_green_from(outputs: &[Vec<ChaOutput<u64>>]) -> Option<u64> {
    let last = outputs
        .iter()
        .filter_map(|o| o.last())
        .map(|o| o.instance)
        .min()?;
    (1..=last).find(|&kst| {
        outputs
            .iter()
            .flat_map(|o| o.iter())
            .all(|o| o.instance < kst || o.decided())
    })
}

/// The named catalog scenarios, in order.
pub fn catalog_specs(names: &[&str]) -> Vec<ScenarioSpec> {
    names
        .iter()
        .map(|name| catalog::scenario(name).expect("catalog name"))
        .collect()
}

/// The `scenarios × seeds` job list, scenario-major.
pub fn matrix_jobs(scenarios: &[ScenarioSpec], seeds: &[u64]) -> Vec<(ScenarioSpec, u64)> {
    scenarios
        .iter()
        .flat_map(|s| seeds.iter().map(move |&seed| (s.clone(), seed)))
        .collect()
}

/// Runs `jobs` under `tuning` with 1 sweep worker and with `workers`
/// (at least two, so the cross-check always exercises real
/// concurrency), asserts the outcomes are equal, and returns them in
/// job order. Outcome equality skips only telemetry's wall-clock phase
/// timers.
///
/// # Panics
///
/// Panics if the sweeps disagree: a determinism bug in the runner, or
/// something — a recorder, a checker, a service adapter — running on
/// a parallel code path.
pub fn paired_sweep(
    jobs: &[(ScenarioSpec, u64)],
    tuning: EngineTuning,
    workers: usize,
) -> Vec<ScenarioOutcome> {
    let sequential = SweepRunner::new(1).run_with(jobs, tuning);
    let parallel = SweepRunner::new(workers.max(2)).run_with(jobs, tuning);
    assert_eq!(
        sequential, parallel,
        "sweep outcomes must not depend on the worker count"
    );
    parallel
}

/// Asserts that `observed`, a run of `spec` with `seed` under some
/// observing tuning (telemetry, tracing, a flight recorder, a
/// monitor), equals the plain run once its observability fields are
/// stripped: observing a run must not perturb it.
///
/// # Panics
///
/// Panics on any divergence.
pub fn assert_unperturbed(spec: &ScenarioSpec, seed: u64, observed: &ScenarioOutcome) {
    let stripped = ScenarioOutcome {
        telemetry: None,
        causal: None,
        incident: None,
        ..observed.clone()
    };
    assert_eq!(
        stripped,
        spec.run(seed),
        "{}#{seed}: observing the run perturbed it",
        spec.name
    );
}

/// Asserts that `bundle` replays to its recorded audit verdict and
/// re-dumps itself byte-identically.
///
/// # Panics
///
/// Panics if the replay diverges.
pub fn assert_replays(bundle: &IncidentBundle) {
    let replay = bundle.replay();
    assert_eq!(
        replay.audit, bundle.audit,
        "a replay must reproduce the audit verdict"
    );
    assert_eq!(
        replay.incident.as_ref(),
        Some(bundle),
        "a replay must reproduce the bundle byte-identically"
    );
}

/// What the `#[ignore]`d release guards of E19 and E21 share. vi-bench
/// reports no wall-clock number (that is vi-perf's job, `bash
/// bench/run.sh`); the guards time themselves and report into no
/// table.
#[cfg(test)]
pub(crate) mod guards {
    use std::sync::Arc;
    use std::time::Instant;
    use vi_radio::geometry::Rect;
    use vi_radio::{AdversaryKind, RadioConfig};
    use vi_scenario::{
        CmSpec, EngineTuning, MobilitySpec, NemesisSpec, PlacementSpec, PopulationSpec,
        ScenarioSpec, SweepRunner, WorkloadSpec,
    };
    use vi_telemetry::{RingSink, SinkSet};

    /// A constant-density metropolis (15 m spacing: each `R2` disk
    /// holds a handful of nodes regardless of `n`): `n` nodes uniform
    /// over a square growing with `sqrt(n)`, of which `mobile_fraction`
    /// roam as random waypoints and the rest never move. The workload
    /// is CHA under the randomized backoff contention manager, so
    /// pre-capture rounds keep genuine broadcast contention on the
    /// channel. (vi-perf's `metro_static` / `metro_churn` are this
    /// spec at n = 20 000.)
    pub(crate) fn metropolis_spec(
        name: &str,
        n: usize,
        mobile_fraction: f64,
        instances: u64,
    ) -> ScenarioSpec {
        let side = (n as f64).sqrt() * 15.0;
        let mobile = ((n as f64) * mobile_fraction).round() as usize;
        let mut populations = vec![PopulationSpec::fixed(n - mobile, PlacementSpec::Uniform)];
        if mobile > 0 {
            populations.push(
                PopulationSpec::fixed(mobile, PlacementSpec::Uniform)
                    .with_mobility(MobilitySpec::Waypoint { speed: 0.5 }),
            );
        }
        ScenarioSpec {
            name: name.into(),
            arena: Rect::square(side),
            radio: RadioConfig::reliable(10.0, 20.0),
            populations,
            adversary: AdversaryKind::None,
            nemesis: NemesisSpec::none(),
            cm: CmSpec::Backoff,
            workload: WorkloadSpec::ChaClique { instances },
        }
    }

    /// Asserts that an instrument costs at most 1.3× on a
    /// metropolis-scale run (n = 5 000, 2 % mobile): ms/round under
    /// `on` against ms/round under `off`, as interleaved min-of-pairs
    /// (scheduler noise only inflates), three attempts. Both run as a
    /// one-job sweep carrying a ring sink, so a monitor period has
    /// somewhere to sample into.
    ///
    /// # Panics
    ///
    /// Panics if the ratio is above 1.3 on every attempt.
    pub(crate) fn assert_on_overhead_is_bounded(what: &str, off: EngineTuning, on: EngineTuning) {
        let spec = metropolis_spec(&format!("{what}_overhead_5000"), 5000, 0.02, 10);
        let ring = Arc::new(RingSink::with_capacity(1 << 14));
        let runner = SweepRunner::new(1).with_sinks(SinkSet::new(vec![ring]));
        let run_ms = |tuning: EngineTuning| -> f64 {
            let t0 = Instant::now();
            let out = runner
                .run_matrix_with(std::slice::from_ref(&spec), &[1], tuning)
                .remove(0);
            t0.elapsed().as_secs_f64() * 1000.0 / out.rounds.max(1) as f64
        };
        let mut failure = String::new();
        for attempt in 0..3 {
            let mut off_ms = f64::INFINITY;
            let mut on_ms = f64::INFINITY;
            for _ in 0..2 {
                off_ms = off_ms.min(run_ms(off));
                on_ms = on_ms.min(run_ms(on));
            }
            let ratio = on_ms / off_ms.max(f64::MIN_POSITIVE);
            if ratio <= 1.3 {
                eprintln!(
                    "{what} overhead n=5000: {off_ms:.3} -> {on_ms:.3} ms/round ({ratio:.2}x)"
                );
                return;
            }
            failure = format!(
                "attempt {attempt}: {off_ms:.3} -> {on_ms:.3} ms/round, {ratio:.2}x (want <= 1.3x)"
            );
        }
        panic!("{what} overhead above 1.3x on every attempt; last: {failure}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_contention::PreStability;

    #[test]
    fn reliable_run_is_fully_green_after_bootstrap() {
        let (out, outputs) = clique_spec("reliable", 4, 20, &[])
            .run_cha_clique(1)
            .expect("a CHA clique");
        assert!(out.decided_fraction > 0.9);
        let green_from = all_green_from(&outputs);
        assert!(green_from.unwrap_or(u64::MAX) <= 2);
        assert_eq!(out.safety_violations(), 0);
        assert_eq!(out.stabilized_kst, green_from, "liveness");
    }

    #[test]
    fn lossy_run_stays_safe() {
        let (out, outputs) = ScenarioSpec {
            radio: RadioConfig::stabilizing(10.0, 20.0, 90),
            cm: CmSpec::Oracle {
                stabilize_at: 90,
                pre: PreStability::Random(0.4),
            },
            adversary: AdversaryKind::Random(0.4, 0.2),
            ..clique_spec("lossy", 5, 50, &[(4, 77)])
        }
        .run_cha_clique(3)
        .expect("a CHA clique");
        assert_eq!(out.safety_violations(), 0, "{out:?}");
        // Node 4 crashes, so liveness judges the other four.
        let green_from = all_green_from(&outputs[..4]);
        assert!(green_from.is_some(), "liveness");
        assert_eq!(out.stabilized_kst, green_from, "liveness");
    }
}
