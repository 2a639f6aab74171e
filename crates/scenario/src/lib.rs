//! # vi-scenario
//!
//! Declarative scenario descriptions for the collision-prone wireless
//! simulator, plus a deterministic parallel sweep runner.
//!
//! The paper's claims quantify over *executions*: adversary bursts
//! before `rcf`/`racc`, churn, mobility, contention misbehaviour.
//! Instead of hand-assembling each such execution in Rust, this crate
//! turns a full deployment into **data**:
//!
//! * [`ScenarioSpec`] (module [`spec`]) — a serde-(de)serializable
//!   description of arena, radio parameters, node populations
//!   (placement, mobility, churn windows), channel adversary,
//!   contention manager, and workload. Round-trips through JSON via
//!   the workspace `serde_json`.
//! * The **compiler** (module [`compile`]) — [`ScenarioSpec::run`]
//!   builds the corresponding [`vi_radio::Engine`] or
//!   [`vi_core::vi::World`], executes it, and extracts a uniform
//!   [`ScenarioOutcome`] row (channel statistics, CHA spec-checker
//!   verdicts, measured stabilization; traffic workloads additionally
//!   carry a [`vi_traffic::TrafficSummary`] with latency quantiles).
//! * [`SweepRunner`] (module [`runner`]) — fans a `scenario × seed`
//!   matrix across `std::thread` workers. Every run owns its engine
//!   (specs are plain data, so jobs are `Send` by construction) and
//!   result ordering is by job index, independent of worker count:
//!   the same matrix yields byte-identical outcome tables with 1 or
//!   N workers.
//! * The **catalog** (module [`catalog`]) — named, ready-to-run
//!   scenarios covering the regimes the paper argues about, from a
//!   single reliable clique to a city-scale deployment.
//!
//! ## Example
//!
//! ```
//! use vi_scenario::{catalog, SweepRunner};
//!
//! let clique = catalog::scenario("clique").expect("named scenario");
//! let outcomes = SweepRunner::new(2).run_matrix(&[clique], &[1, 2]);
//! assert_eq!(outcomes.len(), 2);
//! assert!(outcomes.iter().all(|o| o.safety_violations() == 0));
//! ```

#![forbid(unsafe_code)]

pub mod catalog;
pub mod compile;
pub mod incident;
pub mod runner;
pub mod spec;

pub use compile::{EngineTuning, NodeOutputs, ScenarioOutcome};
pub use incident::{file_stem, IncidentBundle, IncidentReason, BUNDLE_VERSION};
pub use runner::SweepRunner;
pub use spec::{
    CmSpec, LayoutSpec, MobilitySpec, PlacementSpec, PopulationSpec, ScenarioSpec, SpecError,
    SpecErrorKind, WorkloadSpec,
};
pub use vi_audit::{AuditReport, NemesisFault, NemesisSpec};
pub use vi_telemetry::{
    CausalSummary, Counters, DecisionStats, FlightEvent, PhaseSummary, RoundWindow,
    TelemetrySummary,
};
pub use vi_traffic::{AppKind, LoadMode, RatePhase, TrafficSpec, TrafficSummary};
