//! Experiment E15 (`scenario_matrix`): the named-scenario catalog
//! swept across seeds through the `vi-scenario` subsystem.
//!
//! This is the declarative successor to the hand-assembled sweeps:
//! every row is one `(scenario, seed)` execution compiled from a
//! [`vi_scenario::ScenarioSpec`] and run by the deterministic parallel
//! [`SweepRunner`]. The experiment runs the identical matrix with one
//! worker and with a multi-worker pool, asserts the two result tables
//! are byte-identical (the runner's core guarantee), and reports the
//! wall-clock comparison — the artifact `BENCH_scenarios.json` tracks
//! both across PRs.

use crate::harness::{paired_sweep, PairedSweep};
use crate::table::{f2, Table};
use vi_scenario::catalog::catalog;
use vi_scenario::{EngineTuning, ScenarioSpec, SweepRunner};

/// Seeds swept per scenario by E15.
const SEEDS: [u64; 2] = [1, 2];

/// Runs `scenarios × seeds` (scenario-major) through
/// [`paired_sweep`] with the machine's worker budget.
fn paired_matrix(scenarios: &[ScenarioSpec], seeds: &[u64]) -> PairedSweep {
    let jobs: Vec<(ScenarioSpec, u64)> = scenarios
        .iter()
        .flat_map(|s| seeds.iter().map(move |&seed| (s.clone(), seed)))
        .collect();
    paired_sweep(&jobs, EngineTuning::DEFAULT, SweepRunner::auto().workers())
}

/// Renders a paired sweep as a table: one row per `(scenario, seed)`
/// outcome plus the wall-clock comparison as a note.
fn matrix_table(title: &str, scenarios: &[ScenarioSpec], seeds: &[u64]) -> Table {
    let sweep = paired_matrix(scenarios, seeds);
    let mut t = Table::new(
        title,
        &[
            "scenario",
            "seed",
            "nodes",
            "rounds",
            "broadcasts",
            "decided",
            "safety viol",
            "kst",
        ],
    );
    for o in &sweep.outcomes {
        t.row(&[
            o.scenario.clone(),
            o.seed.to_string(),
            o.nodes.to_string(),
            o.rounds.to_string(),
            o.broadcasts.to_string(),
            f2(o.decided_fraction),
            o.safety_violations().to_string(),
            o.stabilized_kst
                .map_or_else(|| "-".into(), |k| k.to_string()),
        ]);
    }
    t.note(format!(
        "wall-clock: 1 worker {:.3}s vs {} workers {:.3}s on {} runs (byte-identical tables asserted)",
        sweep.single_secs,
        sweep.workers,
        sweep.multi_secs,
        scenarios.len() * seeds.len(),
    ));
    t.note("only broken_detector and the promoted fuzz_* findings (deliberate model violations) may show safety violations");
    t
}

/// E15 — the full catalog × seed matrix.
pub fn scenario_matrix() -> Table {
    matrix_table(
        "E15 / scenario matrix: named scenarios × seeds via the parallel SweepRunner",
        &catalog(),
        &SEEDS,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_scenario::catalog::scenario;

    /// Debug-friendly subset: the cheap CHA scenarios only.
    fn cheap() -> Vec<ScenarioSpec> {
        vec![
            scenario("clique").unwrap(),
            scenario("partition_heal").unwrap(),
        ]
    }

    #[test]
    fn matrix_rows_are_deterministic_and_safe() {
        // `matrix_table` itself asserts 1-worker vs N-worker equality.
        let t = matrix_table("subset", &cheap(), &[1, 2]);
        assert_eq!(t.len(), 4);
        for row in 0..t.len() {
            assert_eq!(t.cell(row, 6), "0", "paper-model scenarios stay safe");
        }
    }

    /// Acceptance check for the sweep subsystem, CI-release only: on a
    /// multi-core machine the multi-worker sweep must beat the
    /// single-worker sweep in wall-clock while producing an identical
    /// table.
    #[test]
    #[ignore = "wall-clock benchmark; CI runs it explicitly in release (bench-smoke step)"]
    fn multi_worker_sweep_beats_single_worker() {
        let scenarios = catalog();
        // Enough seeds that the sweep's work dwarfs thread-pool
        // overhead, keeping the wall-clock comparison stable.
        let seeds: Vec<u64> = (1..=16).collect();
        // `paired_sweep` asserts 1-worker vs N-worker byte-identity.
        let sweep = paired_matrix(&scenarios, &seeds);
        eprintln!(
            "sweep of {} runs: 1 worker {:.3}s, {} workers {:.3}s",
            sweep.outcomes.len(),
            sweep.single_secs,
            sweep.workers,
            sweep.multi_secs,
        );
        if std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) > 1 {
            assert!(
                sweep.multi_secs < sweep.single_secs,
                "multi-worker sweep must beat single-worker ({:.3}s vs {:.3}s)",
                sweep.multi_secs,
                sweep.single_secs,
            );
        }
    }
}
