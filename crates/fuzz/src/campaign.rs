//! The fuzz orchestrator: generation, execution, coverage feedback,
//! and finding management, on top of [`SweepRunner`]'s scoped worker
//! pool.
//!
//! Determinism contract: identical [`FuzzConfig`]s produce identical
//! campaigns — same corpus, same findings, same minimized specs — at
//! *any* `workers` setting. Everything that feeds a decision is
//! deterministic (outcomes are worker-invariant, corpus iteration is
//! signature-ordered, the RNG is seeded), and the candidate batch
//! size is a constant rather than a function of the worker count, so
//! the mutation schedule never observes the parallelism.

use crate::corpus::{Corpus, CorpusEntry};
use crate::coverage::Signature;
use crate::gen::seed_corpus;
use crate::minimize::minimize;
use crate::mutate::{apply, crossover, MUTATORS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use vi_audit::pick;
use vi_scenario::{EngineTuning, IncidentBundle, ScenarioOutcome, ScenarioSpec, SweepRunner};

/// Salt folded into the campaign seed so the mutation stream shares
/// nothing with the simulation seeds it hands out.
const CAMPAIGN_SALT: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// Candidates per [`SweepRunner`] batch. A constant (not a function
/// of the worker count) so the mutation schedule is identical at any
/// parallelism.
const BATCH: usize = 8;

/// Flight-recorder window used when packaging a finding's bundle.
const FLIGHT_ROUNDS: usize = 8;

/// How a run failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailureClass {
    /// The CHA specification checker found a safety violation
    /// (validity, agreement, or color spread).
    Safety,
    /// A consistency-audit checker reported a violation.
    AuditViolation,
    /// Traffic was issued but nothing ever completed.
    Stall,
    /// The run panicked.
    Panic,
}

impl FailureClass {
    /// Short label for reports and bench rows.
    pub fn label(self) -> &'static str {
        match self {
            FailureClass::Safety => "safety",
            FailureClass::AuditViolation => "audit",
            FailureClass::Stall => "stall",
            FailureClass::Panic => "panic",
        }
    }
}

/// Classifies a completed outcome; `None` = healthy.
pub fn classify(outcome: &ScenarioOutcome) -> Option<FailureClass> {
    if outcome.safety_violations() > 0 {
        return Some(FailureClass::Safety);
    }
    if outcome.audit.as_ref().is_some_and(|r| !r.ok()) {
        return Some(FailureClass::AuditViolation);
    }
    if outcome
        .traffic
        .as_ref()
        .is_some_and(|t| t.issued > 0 && t.completed == 0)
    {
        return Some(FailureClass::Stall);
    }
    None
}

/// Runs `spec` under `seed` (panic-safely) and classifies the result.
/// The minimizer's reproduction oracle.
pub fn classify_run(spec: &ScenarioSpec, seed: u64) -> Option<FailureClass> {
    match catch_unwind(AssertUnwindSafe(|| spec.run(seed))) {
        Ok(outcome) => classify(&outcome),
        Err(_) => Some(FailureClass::Panic),
    }
}

/// One confirmed, minimized failure.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// How the run failed.
    pub class: FailureClass,
    /// Coverage signature of the *original* failing run.
    pub signature: Signature,
    /// The minimized repro spec (named `<stem>~min`).
    pub spec: ScenarioSpec,
    /// Name of the spec as discovered, before minimization.
    pub discovered_as: String,
    /// The seed the failure reproduces under.
    pub seed: u64,
    /// Campaign iteration that discovered it.
    pub iteration: u64,
    /// Candidate executions the minimizer spent.
    pub minimize_runs: u64,
    /// Replayable incident bundle (absent only for panics, which
    /// refuse to produce an outcome to package).
    pub bundle: Option<IncidentBundle>,
}

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Mutation candidates to generate (rejected ones count).
    pub iters: u64,
    /// Campaign seed: drives mutations, parent choice, and run seeds.
    pub seed: u64,
    /// Sweep workers executing candidate batches.
    pub workers: usize,
    /// Persistent corpus directory: loaded before the campaign,
    /// saved (with new buckets) after.
    pub corpus_dir: Option<PathBuf>,
    /// Run budget per minimization.
    pub minimize_budget: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            iters: 400,
            seed: 0xf00d,
            workers: 1,
            corpus_dir: None,
            minimize_budget: 96,
        }
    }
}

/// What a campaign did: corpus growth, throughput accounting, and
/// every (deduplicated) finding.
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzReport {
    /// Candidates generated (= the configured budget).
    pub iters: u64,
    /// Candidates that validated and ran.
    pub executed: u64,
    /// Candidates rejected by spec validation (typed errors, no runs).
    pub rejected: u64,
    /// Runs that reached a previously unowned coverage bucket.
    pub new_buckets: u64,
    /// The final coverage map.
    pub corpus: Corpus,
    /// Minimized findings, in discovery order (one per
    /// `(failure class, workload family)`).
    pub findings: Vec<Finding>,
}

/// Packages a finding's replayable bundle: rerun the minimized spec
/// with a flight recorder; the engine assembles the bundle itself on
/// violation or stall.
fn package_bundle(spec: &ScenarioSpec, seed: u64) -> Option<IncidentBundle> {
    let tuning = EngineTuning::DEFAULT.with_flight(FLIGHT_ROUNDS);
    catch_unwind(AssertUnwindSafe(|| spec.run_with(seed, tuning)))
        .ok()
        .and_then(|outcome| outcome.incident)
}

/// Runs a coverage-guided fuzzing campaign. See the module docs for
/// the loop shape and the determinism contract.
///
/// # Errors
///
/// Returns an error only for corpus-directory I/O problems; fuzzing
/// failures are *findings*, not errors.
pub fn run_campaign(config: &FuzzConfig) -> Result<FuzzReport, String> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ CAMPAIGN_SALT);
    let runner = SweepRunner::new(config.workers.max(1));
    let tuning = EngineTuning::DEFAULT.with_telemetry();
    let mut report = FuzzReport {
        iters: config.iters,
        executed: 0,
        rejected: 0,
        new_buckets: 0,
        corpus: match &config.corpus_dir {
            Some(dir) => Corpus::load(dir)?,
            None => Corpus::new(),
        },
        findings: Vec::new(),
    };
    // Ancestors seed the coverage map (iteration 0).
    let ancestors: Vec<(ScenarioSpec, u64)> = seed_corpus()
        .into_iter()
        .map(|s| {
            let seed = rng.random_range(1..=u32::MAX as u64);
            (s, seed)
        })
        .collect();
    let outcomes = runner.run_with(&ancestors, tuning);
    for ((spec, seed), outcome) in ancestors.iter().zip(&outcomes) {
        report.executed += 1;
        let entry = CorpusEntry {
            signature: Signature::of(outcome),
            spec: spec.clone(),
            seed: *seed,
            iteration: 0,
        };
        if report.corpus.insert_if_new(entry) {
            report.new_buckets += 1;
        }
    }

    let mut iteration = 0u64;
    while iteration < config.iters {
        // Compose one batch of candidates. All decisions happen here,
        // before anything runs, off deterministic state only.
        let mut jobs: Vec<(ScenarioSpec, u64)> = Vec::new();
        let mut metas: Vec<u64> = Vec::new();
        while jobs.len() < BATCH && iteration < config.iters {
            iteration += 1;
            let corpus = &report.corpus;
            let parent = corpus
                .nth(rng.random_range(0..corpus.len().max(1)))
                .expect("corpus holds at least the ancestors")
                .spec
                .clone();
            let child = if corpus.len() >= 2 && rng.random_bool(0.2) {
                let other = corpus
                    .nth(rng.random_range(0..corpus.len()))
                    .expect("non-empty")
                    .spec
                    .clone();
                crossover(&parent, &other, &mut rng)
            } else {
                let m = MUTATORS[pick(&mut rng, MUTATORS.len()).expect("mutators exist")];
                apply(&parent, m, &mut rng)
            };
            let run_seed = rng.random_range(1..=u32::MAX as u64);
            match child.validate() {
                Ok(()) => {
                    jobs.push((child, run_seed));
                    metas.push(iteration);
                }
                Err(_) => report.rejected += 1,
            }
        }
        if jobs.is_empty() {
            continue;
        }
        // Run the batch on the pool; on a batch panic, re-attribute
        // by running each job alone so the panicking spec is caught
        // (and becomes a finding) instead of killing the campaign.
        let outcomes = catch_unwind(AssertUnwindSafe(|| runner.run_with(&jobs, tuning)));
        match outcomes {
            Ok(outs) => {
                for (((spec, seed), outcome), &iter_no) in jobs.iter().zip(&outs).zip(&metas) {
                    report.executed += 1;
                    process(spec, *seed, outcome, iter_no, config, &mut report);
                }
            }
            Err(_) => {
                for ((spec, seed), &iter_no) in jobs.iter().zip(&metas) {
                    match catch_unwind(AssertUnwindSafe(|| spec.run_with(*seed, tuning))) {
                        Ok(outcome) => {
                            report.executed += 1;
                            process(spec, *seed, &outcome, iter_no, config, &mut report);
                        }
                        Err(_) => {
                            report.executed += 1;
                            record_finding(
                                spec,
                                *seed,
                                FailureClass::Panic,
                                Signature::of(&placeholder_outcome(spec, *seed)),
                                iter_no,
                                config,
                                &mut report,
                            );
                        }
                    }
                }
            }
        }
    }
    if let Some(dir) = &config.corpus_dir {
        report.corpus.save(dir).map_err(|e| e.to_string())?;
        save_findings(&report, dir)?;
    }
    Ok(report)
}

/// Persists every finding under `<dir>/findings/`: the minimized
/// repro spec as `<family>-<class>.json` (feed it back through
/// `repro fuzz --minimize` or lift it into the catalog) and, when one
/// was packaged, its replayable bundle as
/// `<family>-<class>.bundle.json` (feed it to `repro --replay`).
fn save_findings(report: &FuzzReport, dir: &std::path::Path) -> Result<(), String> {
    if report.findings.is_empty() {
        return Ok(());
    }
    let findings_dir = dir.join("findings");
    std::fs::create_dir_all(&findings_dir).map_err(|e| e.to_string())?;
    for f in &report.findings {
        let stem = format!("{}-{}", family(&f.spec.name), f.class.label());
        let json = serde_json::to_string(&f.spec).map_err(|e| e.to_string())?;
        std::fs::write(findings_dir.join(format!("{stem}.json")), json)
            .map_err(|e| e.to_string())?;
        if let Some(bundle) = &f.bundle {
            bundle
                .save(&findings_dir.join(format!("{stem}.bundle.json")))
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// The workload family of a (possibly mutated) spec name: the part
/// before the first `~`.
fn family(name: &str) -> &str {
    name.split('~').next().unwrap_or(name)
}

/// Coverage + failure handling for one completed run.
fn process(
    spec: &ScenarioSpec,
    seed: u64,
    outcome: &ScenarioOutcome,
    iteration: u64,
    config: &FuzzConfig,
    report: &mut FuzzReport,
) {
    let signature = Signature::of(outcome);
    let entry = CorpusEntry {
        signature: signature.clone(),
        spec: spec.clone(),
        seed,
        iteration,
    };
    if report.corpus.insert_if_new(entry) {
        report.new_buckets += 1;
    }
    if let Some(class) = classify(outcome) {
        record_finding(spec, seed, class, signature, iteration, config, report);
    }
}

/// Minimizes and records one failure, if its (class, family) is new:
/// the first discovery pins the bug; later hits of the same class on
/// the same family are the same bug reached again, not new
/// information.
fn record_finding(
    spec: &ScenarioSpec,
    seed: u64,
    class: FailureClass,
    signature: Signature,
    iteration: u64,
    config: &FuzzConfig,
    report: &mut FuzzReport,
) {
    let seen = report
        .findings
        .iter()
        .any(|f| f.class == class && family(&f.discovered_as) == family(&spec.name));
    if seen {
        return;
    }
    let min = minimize(spec, seed, class, config.minimize_budget);
    let bundle = match class {
        FailureClass::Panic => None,
        _ => package_bundle(&min.spec, seed),
    };
    report.findings.push(Finding {
        class,
        signature,
        spec: min.spec,
        discovered_as: spec.name.clone(),
        seed,
        iteration,
        minimize_runs: min.runs,
        bundle,
    });
}

/// A stand-in outcome for a panicking run, so panic findings still
/// carry a (degenerate) signature: everything zero except the family.
fn placeholder_outcome(spec: &ScenarioSpec, seed: u64) -> ScenarioOutcome {
    ScenarioOutcome {
        scenario: spec.name.clone(),
        seed,
        nodes: spec.node_count(),
        ..ScenarioOutcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(iters: u64, seed: u64, workers: usize) -> FuzzReport {
        run_campaign(&FuzzConfig {
            iters,
            seed,
            workers,
            corpus_dir: None,
            minimize_budget: 48,
        })
        .expect("no corpus dir, no I/O errors")
    }

    #[test]
    fn campaigns_are_deterministic_and_worker_invariant() {
        let a = small(48, 7, 1);
        let b = small(48, 7, 4);
        assert_eq!(a.executed, b.executed);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.new_buckets, b.new_buckets);
        assert_eq!(a.corpus, b.corpus, "coverage maps are worker-invariant");
        assert_eq!(a.findings.len(), b.findings.len());
        for (fa, fb) in a.findings.iter().zip(&b.findings) {
            assert_eq!(fa.class, fb.class);
            assert_eq!(fa.spec, fb.spec, "minimized specs are worker-invariant");
            assert_eq!(fa.seed, fb.seed);
        }
    }

    #[test]
    fn coverage_accounting_closes() {
        let r = small(48, 9, 2);
        assert_eq!(r.iters, 48);
        // 4 ancestors ran on top of the iteration budget.
        assert_eq!(r.executed + r.rejected, 48 + 4);
        assert!(
            r.new_buckets as usize >= 4,
            "ancestors own distinct buckets"
        );
        assert_eq!(r.corpus.len() as u64, r.new_buckets);
    }
}
