//! # vi-fuzz
//!
//! Coverage-guided fuzzing over the [`vi_scenario::ScenarioSpec`]
//! space: an adversarial search for checker violations, audit
//! counterexamples, liveness stalls, and panics that the hand-written
//! catalog never imagined — the Jepsen-style fault-schedule
//! exploration the nemesis `:info` semantics were built for.
//!
//! The loop is classic evolutionary fuzzing, made fully deterministic:
//!
//! * the **generator** (module [`gen`]) seeds the corpus with tiny
//!   specs covering every workload family;
//! * **typed mutators** (module [`mutate`]) perturb one dimension of a
//!   spec at a time — population/placement, mobility, churn windows,
//!   adversary timeline, nemesis composition, traffic mix, workload
//!   knobs — all choices drawn from one seeded RNG via
//!   [`vi_audit::pick`];
//! * every candidate is [`validate`](vi_scenario::ScenarioSpec::validate)d
//!   first — mutated specs are *runnable or rejected, never UB* — and
//!   then executed with telemetry on;
//! * the **coverage signature** (module [`coverage`]) buckets the
//!   run's observable behaviour (resolver-mode counter profile,
//!   channel bands, checker verdicts, liveness `kst`); candidates
//!   reaching a new bucket join the **corpus** (module [`corpus`])
//!   and become future mutation parents;
//! * any failure triggers the **delta-debugging minimizer** (module
//!   [`minimize`](mod@minimize)), which shrinks the spec while the failure class
//!   still reproduces, then packages the result as a repro spec plus
//!   an [`vi_scenario::IncidentBundle`] that replays byte-identically
//!   at any worker count.
//!
//! Identical `(FuzzConfig, seed)` pairs produce identical campaigns —
//! same corpus, same findings, same minimized specs — at any sweep
//! worker count, because every run is deterministic per seed and every
//! campaign decision is a pure function of prior (deterministic)
//! results and the campaign RNG.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod corpus;
pub mod coverage;
pub mod gen;
pub mod minimize;
pub mod mutate;

pub use campaign::{run_campaign, FailureClass, Finding, FuzzConfig, FuzzReport};
pub use corpus::{Corpus, CorpusEntry};
pub use coverage::Signature;
pub use gen::seed_corpus;
pub use minimize::{minimize, MinimizeOutcome};
pub use mutate::{apply, crossover, Mutator, MUTATORS};
