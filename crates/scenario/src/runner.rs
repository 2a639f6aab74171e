//! The deterministic parallel sweep runner.
//!
//! A sweep is a list of `(scenario, seed)` jobs. Each job is
//! self-contained — the worker thread builds the engine from the spec,
//! runs it, and extracts the outcome — so jobs never share mutable
//! state and the whole sweep parallelizes embarrassingly across
//! `std::thread` workers with no extra dependencies.
//!
//! **Determinism guarantee:** results are stored by job index, and
//! each run's randomness derives only from its own seed, so the result
//! table is byte-identical no matter how many workers execute it (a
//! property the tests assert). This is what lets multicore sweeps
//! replace the former hand-rolled sequential loops without changing a
//! single table cell.

use crate::compile::{EngineTuning, ScenarioOutcome};
use crate::spec::ScenarioSpec;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use vi_telemetry::monitor::{self, JobEvent, JobState, MonitorEvent, SinkSet};

/// Parses a `VI_WORKERS`-style override: a positive integer (after
/// trimming) yields `Some(n)`. The second component flags a value
/// that was *present but unusable* — set, yet not a positive integer
/// — so callers can warn about the typo instead of silently falling
/// back to autodetection.
fn worker_budget_from(var: Option<&str>) -> (Option<usize>, bool) {
    let Some(raw) = var else {
        return (None, false);
    };
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => (Some(n), false),
        _ => (None, true),
    }
}

/// How many threads a sweep of `jobs` jobs starts on a budget of
/// `workers`: one per job up to the budget, and at least one.
fn job_threads(workers: usize, jobs: usize) -> usize {
    workers.min(jobs.max(1))
}

/// Fans `scenario × seed` jobs across a fixed-size worker pool, and
/// reports them to its own monitor sinks.
#[derive(Clone)]
pub struct SweepRunner {
    workers: usize,
    sinks: SinkSet,
}

impl SweepRunner {
    /// A runner with exactly `workers` worker threads, reporting to
    /// the environment's monitor sinks.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is 0.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "sweep runner needs at least one worker");
        SweepRunner {
            workers,
            sinks: monitor::env().sinks.clone(),
        }
    }

    /// A runner sized to the machine (`available_parallelism`, falling
    /// back to 1 if unknown).
    ///
    /// The `VI_WORKERS` environment variable, when set to a positive
    /// integer, overrides the detected size — the documented way for
    /// CI and benches to pin thread counts without code edits. It
    /// sizes these across-job threads and nothing else: every job
    /// resolves its rounds on the thread that runs it.
    pub fn auto() -> Self {
        let detected = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        let raw = std::env::var("VI_WORKERS").ok();
        let (budget, junk) = worker_budget_from(raw.as_deref());
        if junk {
            eprintln!(
                "vi-scenario: ignoring unparsable VI_WORKERS={:?} \
                 (expected a positive integer); using {detected} detected worker(s)",
                raw.unwrap_or_default()
            );
        }
        SweepRunner::new(budget.unwrap_or(detected))
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// This runner with `sinks` added to the environment's: they see
    /// this runner's sweeps — job events, and the snapshots of jobs
    /// run with a sampling period — and no other runner's.
    pub fn with_sinks(mut self, sinks: SinkSet) -> Self {
        self.sinks = self.sinks.and(&sinks);
        self
    }

    /// Runs every scenario with every seed (the full cross product,
    /// scenario-major) and returns the outcomes in matrix order.
    ///
    /// Specs are shared with the worker threads by reference — the
    /// matrix never clones a `ScenarioSpec`, and one pool of scoped
    /// workers drains the entire cross product.
    ///
    /// # Panics
    ///
    /// Panics if any spec fails [`ScenarioSpec::validate`].
    pub fn run_matrix(&self, scenarios: &[ScenarioSpec], seeds: &[u64]) -> Vec<ScenarioOutcome> {
        self.run_matrix_with(scenarios, seeds, EngineTuning::DEFAULT)
    }

    /// [`SweepRunner::run_matrix`] with every job run under `tuning`
    /// (which observers ride along). The runner's workers are
    /// across-job threads only; outcomes are byte-identical under
    /// every tuning and at every worker count.
    pub fn run_matrix_with(
        &self,
        scenarios: &[ScenarioSpec],
        seeds: &[u64],
        tuning: EngineTuning,
    ) -> Vec<ScenarioOutcome> {
        let jobs: Vec<(&ScenarioSpec, u64)> = scenarios
            .iter()
            .flat_map(|s| seeds.iter().map(move |&seed| (s, seed)))
            .collect();
        self.run_borrowed(&jobs, tuning)
    }

    /// Runs an explicit (owned) job list; `results[i]` is the outcome
    /// of `jobs[i]` regardless of which worker executed it.
    ///
    /// # Panics
    ///
    /// Panics if any spec fails [`ScenarioSpec::validate`].
    pub fn run(&self, jobs: &[(ScenarioSpec, u64)]) -> Vec<ScenarioOutcome> {
        self.run_with(jobs, EngineTuning::DEFAULT)
    }

    /// [`SweepRunner::run`] with every job run under `tuning`. The fuzz
    /// orchestrator drives its candidate batches through this with
    /// telemetry on, so every outcome carries the counter profile the
    /// coverage signature buckets.
    ///
    /// # Panics
    ///
    /// Panics if any spec fails [`ScenarioSpec::validate`].
    pub fn run_with(
        &self,
        jobs: &[(ScenarioSpec, u64)],
        tuning: EngineTuning,
    ) -> Vec<ScenarioOutcome> {
        let borrowed: Vec<(&ScenarioSpec, u64)> =
            jobs.iter().map(|(spec, seed)| (spec, *seed)).collect();
        self.run_borrowed(&borrowed, tuning)
    }

    /// The worker-pool core every public entry point funnels into:
    /// jobs borrow their specs (scoped threads), results land by job
    /// index, determinism is per-seed.
    fn run_borrowed(
        &self,
        jobs: &[(&ScenarioSpec, u64)],
        tuning: EngineTuning,
    ) -> Vec<ScenarioOutcome> {
        for (spec, _) in jobs {
            if let Err(e) = spec.validate() {
                panic!("invalid scenario spec: {e}");
            }
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<ScenarioOutcome>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        let job_threads = job_threads(self.workers, jobs.len());
        // Sweep progress events (wall-clock-side; with no sink this is
        // one branch per sweep): every queued job is announced up
        // front in job order, workers report started/finished as they
        // go. Events carry the deterministic job index and the outcome
        // digest, so a consumer ordering by `(job, state)` sees the
        // same sequence at any worker count; the worker index is what
        // the Perfetto export (a sink like any other) lanes them by.
        let sinks = &self.sinks;
        let monitored = !sinks.is_empty();
        if monitored {
            for (i, (spec, seed)) in jobs.iter().enumerate() {
                sinks.emit(&MonitorEvent::Job(JobEvent {
                    job: i as u64,
                    scenario: spec.name.clone(),
                    seed: *seed,
                    state: JobState::Queued,
                }));
            }
        }
        std::thread::scope(|scope| {
            let next = &next;
            let slots = &slots;
            for worker in 0..job_threads as u64 {
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((spec, seed)) = jobs.get(i) else {
                        break;
                    };
                    if monitored {
                        sinks.emit(&MonitorEvent::Job(JobEvent {
                            job: i as u64,
                            scenario: spec.name.clone(),
                            seed: *seed,
                            state: JobState::Started { worker },
                        }));
                    }
                    let outcome = spec.run_in(*seed, tuning, sinks);
                    if monitored {
                        let digest = serde_json::to_string(&outcome)
                            .map(|json| monitor::outcome_digest(json.as_bytes()))
                            .unwrap_or(0);
                        sinks.emit(&MonitorEvent::Job(JobEvent {
                            job: i as u64,
                            scenario: spec.name.clone(),
                            seed: *seed,
                            state: JobState::Finished { worker, digest },
                        }));
                    }
                    *slots[i].lock().expect("result slot") = Some(outcome);
                });
            }
        });
        if monitored {
            sinks.flush();
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot")
                    .expect("every job ran")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CmSpec, PlacementSpec, PopulationSpec, WorkloadSpec};
    use std::sync::Arc;
    use vi_radio::geometry::{Point, Rect};
    use vi_radio::{AdversaryKind, RadioConfig};
    use vi_telemetry::RingSink;

    fn small_matrix() -> Vec<ScenarioSpec> {
        let clique = ScenarioSpec {
            name: "r-clique".into(),
            arena: Rect::square(10.0),
            radio: RadioConfig::reliable(10.0, 20.0),
            populations: vec![PopulationSpec::fixed(
                4,
                PlacementSpec::Line {
                    start: Point::ORIGIN,
                    step_x: 0.1,
                    step_y: 0.0,
                },
            )],
            adversary: AdversaryKind::None,
            nemesis: vi_audit::NemesisSpec::none(),
            cm: CmSpec::perfect(),
            workload: WorkloadSpec::ChaClique { instances: 15 },
        };
        let mut lossy = clique.clone();
        lossy.name = "r-lossy".into();
        lossy.radio = RadioConfig::stabilizing(10.0, 20.0, 30);
        lossy.adversary = AdversaryKind::Random(0.4, 0.2);
        lossy.populations[0].placement = PlacementSpec::Cluster {
            center: Point::new(5.0, 5.0),
            radius: 0.5,
        };
        vec![clique, lossy]
    }

    /// Satellite requirement: the same `scenario × seed` matrix run
    /// with 1 worker and N workers yields byte-identical result
    /// tables.
    #[test]
    fn worker_count_never_changes_the_result_table() {
        let scenarios = small_matrix();
        let seeds = [1u64, 2, 3];
        let sequential = SweepRunner::new(1).run_matrix(&scenarios, &seeds);
        for workers in [2usize, 4, 7] {
            let parallel = SweepRunner::new(workers).run_matrix(&scenarios, &seeds);
            assert_eq!(
                serde_json::to_string(&sequential).unwrap(),
                serde_json::to_string(&parallel).unwrap(),
                "{workers} workers changed the table"
            );
        }
    }

    /// Satellite requirement: junk `VI_WORKERS` values are ignored
    /// *and flagged* (so `auto()` warns instead of silently falling
    /// back); valid and absent values raise no flag.
    #[test]
    fn worker_budget_parsing_ignores_and_flags_junk() {
        assert_eq!(worker_budget_from(Some("4")), (Some(4), false));
        assert_eq!(worker_budget_from(Some(" 12\n")), (Some(12), false));
        assert_eq!(
            worker_budget_from(Some("0")),
            (None, true),
            "zero is not a budget"
        );
        assert_eq!(worker_budget_from(Some("-3")), (None, true));
        assert_eq!(worker_budget_from(Some("four")), (None, true));
        assert_eq!(worker_budget_from(Some("")), (None, true));
        assert_eq!(worker_budget_from(None), (None, false), "unset is not junk");
    }

    /// A sweep never starts more threads than its budget or its job
    /// list, and always at least one — even for an empty list.
    #[test]
    fn worker_budget_split_clamps_to_one_when_jobs_exceed_workers() {
        assert_eq!(job_threads(4, 100), 4, "jobs ≫ workers");
        assert_eq!(job_threads(1, 64), 1);
        assert_eq!(job_threads(8, 2), 2, "surplus workers stay unspawned");
        assert_eq!(job_threads(16, 0), 1, "empty job list");
        for workers in 1..=32usize {
            for jobs in 0..=64usize {
                let threads = job_threads(workers, jobs);
                assert!((1..=workers).contains(&threads), "{workers}w/{jobs}j");
            }
        }
    }

    /// A jobs ≫ workers sweep end-to-end: every job still runs (and
    /// deterministically).
    #[test]
    fn jobs_exceeding_workers_sweep_cleanly() {
        let scenarios = small_matrix();
        let seeds: Vec<u64> = (1..=6).collect();
        // 2 scenarios × 6 seeds = 12 jobs on 2 workers.
        let narrow = SweepRunner::new(2).run_matrix(&scenarios, &seeds);
        let wide = SweepRunner::new(8).run_matrix(&scenarios, &seeds);
        assert_eq!(narrow.len(), 12);
        assert_eq!(
            serde_json::to_string(&narrow).unwrap(),
            serde_json::to_string(&wide).unwrap(),
            "jobs ≫ workers changed the table"
        );
    }

    /// Tentpole requirement: telemetry counters are part of the
    /// deterministic surface — the same matrix run with 1 worker and
    /// N workers yields identical counter sets (wall-clock phase
    /// stats are excluded from `TelemetrySummary` equality), and
    /// stripping the telemetry field recovers the telemetry-off table
    /// byte for byte.
    #[test]
    fn telemetry_counters_are_worker_count_invariant() {
        let scenarios = small_matrix();
        let seeds = [1u64, 2, 3];
        let tuning = EngineTuning::DEFAULT.with_telemetry();
        let sequential = SweepRunner::new(1).run_matrix_with(&scenarios, &seeds, tuning);
        for out in &sequential {
            let summary = out.telemetry.as_ref().expect("telemetry enabled");
            assert!(summary.counters.rounds_total > 0, "rounds were counted");
        }
        for workers in [2usize, 4, 7] {
            let parallel = SweepRunner::new(workers).run_matrix_with(&scenarios, &seeds, tuning);
            for (a, b) in sequential.iter().zip(&parallel) {
                assert_eq!(
                    a.telemetry, b.telemetry,
                    "{workers} workers changed the counters of {}#{}",
                    a.scenario, a.seed
                );
            }
        }
        // Telemetry must observe, never perturb: strip the summary and
        // the table matches a plain run exactly.
        let plain = SweepRunner::new(1).run_matrix(&scenarios, &seeds);
        let stripped: Vec<ScenarioOutcome> = sequential
            .iter()
            .map(|o| {
                let mut o = o.clone();
                o.telemetry = None;
                o
            })
            .collect();
        assert_eq!(
            serde_json::to_string(&stripped).unwrap(),
            serde_json::to_string(&plain).unwrap(),
            "telemetry changed the simulation"
        );
    }

    /// Two sweeps running at once over identically named jobs, each
    /// carrying its own ring: a ring sees Queued, Started and Finished
    /// for each of its own sweep's jobs and nothing else, and each
    /// Finished digest is that sweep's own outcome's.
    #[test]
    fn concurrent_sweeps_report_only_to_their_own_sinks() {
        let scenarios = small_matrix();
        let seeds = [[1u64, 2], [3, 4]];
        let rings = [(); 2].map(|_| Arc::new(RingSink::with_capacity(1 << 10)));
        let outcomes: Vec<Vec<ScenarioOutcome>> = std::thread::scope(|scope| {
            let sweeps: Vec<_> = rings
                .iter()
                .zip(&seeds)
                .map(|(ring, seeds)| {
                    let runner = SweepRunner::new(2).with_sinks(SinkSet::new(vec![ring.clone()]));
                    let scenarios = &scenarios;
                    scope.spawn(move || runner.run_matrix(scenarios, seeds))
                })
                .collect();
            sweeps.into_iter().map(|s| s.join().unwrap()).collect()
        });
        for (ring, outcomes) in rings.iter().zip(&outcomes) {
            let events = ring.events();
            assert_eq!(events.len(), 3 * outcomes.len(), "{events:?}");
            for (job, out) in outcomes.iter().enumerate() {
                let mine: Vec<JobState> = events
                    .iter()
                    .filter_map(|e| match e {
                        MonitorEvent::Job(j) if j.job == job as u64 => {
                            assert_eq!((&j.scenario, j.seed), (&out.scenario, out.seed));
                            Some(j.state)
                        }
                        _ => None,
                    })
                    .collect();
                let JobState::Started { worker } = mine[1] else {
                    panic!("job {job}: {mine:?}");
                };
                let json = serde_json::to_string(out).unwrap();
                let digest = monitor::outcome_digest(json.as_bytes());
                assert_eq!(
                    mine,
                    [
                        JobState::Queued,
                        JobState::Started { worker },
                        JobState::Finished { worker, digest }
                    ],
                    "job {job}"
                );
            }
        }
    }

    #[test]
    fn matrix_order_is_scenario_major() {
        let scenarios = small_matrix();
        let out = SweepRunner::new(3).run_matrix(&scenarios, &[5, 6]);
        let labels: Vec<(String, u64)> = out.iter().map(|o| (o.scenario.clone(), o.seed)).collect();
        assert_eq!(
            labels,
            vec![
                ("r-clique".to_string(), 5),
                ("r-clique".to_string(), 6),
                ("r-lossy".to_string(), 5),
                ("r-lossy".to_string(), 6),
            ]
        );
    }

    #[test]
    fn empty_matrix_is_fine() {
        assert!(SweepRunner::new(4).run(&[]).is_empty());
    }

    #[test]
    fn empty_scenario_list_yields_empty_table() {
        let out = SweepRunner::new(3).run_matrix(&[], &[1, 2, 3]);
        assert!(out.is_empty(), "no scenarios → no rows");
    }

    #[test]
    fn zero_seeds_yield_empty_table() {
        let out = SweepRunner::new(3).run_matrix(&small_matrix(), &[]);
        assert!(out.is_empty(), "no seeds → no rows");
    }

    #[test]
    fn more_workers_than_jobs_is_clean() {
        let scenarios = small_matrix();
        // 2 scenarios × 1 seed = 2 jobs on 16 workers: the surplus
        // workers must exit cleanly and the table must match the
        // single-worker run.
        let wide = SweepRunner::new(16).run_matrix(&scenarios, &[4]);
        let narrow = SweepRunner::new(1).run_matrix(&scenarios, &[4]);
        assert_eq!(wide.len(), 2);
        assert_eq!(
            serde_json::to_string(&wide).unwrap(),
            serde_json::to_string(&narrow).unwrap(),
            "surplus workers must not change the table"
        );
    }

    #[test]
    #[should_panic(expected = "invalid scenario spec")]
    fn invalid_specs_are_rejected_up_front() {
        let mut bad = small_matrix().remove(0);
        bad.populations.clear();
        let _ = SweepRunner::new(1).run(&[(bad, 1)]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_is_rejected() {
        let _ = SweepRunner::new(0);
    }
}
