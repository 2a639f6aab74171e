//! # virtual-infra
//!
//! Umbrella crate for the reproduction of *Chockler, Gilbert, Lynch:
//! "Virtual Infrastructure for Collision-Prone Wireless Networks"*
//! (PODC 2008). Re-exports the workspace crates under one roof and
//! hosts the runnable examples and cross-crate integration tests.
//!
//! * [`radio`] — collision-prone slotted wireless simulator.
//! * [`contention`] — contention managers (Property 3).
//! * [`core`] — convergent history agreement + virtual infrastructure.
//! * [`baselines`] — comparison protocols.
//! * [`apps`] — applications on virtual infrastructure.
//! * [`traffic`] — client load generation + latency metrics over the apps.
//! * [`audit`] — operation-history capture + consistency checkers.
//! * [`scenario`] — declarative scenario specs + parallel sweep runner.
//! * [`telemetry`] — deterministic counters, phase timers, Perfetto export.
//! * [`fuzz`] — coverage-guided scenario fuzzing + violation minimization.

#![forbid(unsafe_code)]

pub use vi_apps as apps;
pub use vi_audit as audit;
pub use vi_baselines as baselines;
pub use vi_contention as contention;
pub use vi_core as core;
pub use vi_fuzz as fuzz;
pub use vi_radio as radio;
pub use vi_scenario as scenario;
pub use vi_telemetry as telemetry;
pub use vi_traffic as traffic;
