//! # vi-traffic
//!
//! Deterministic client load generation and streaming latency metrics
//! over the vi-apps — the paper's virtual nodes treated the way a
//! real service benchmark treats a server fleet.
//!
//! The paper's programming-simplification argument is that ordinary
//! client programs (GeoQuorums registers, tracking, georouting,
//! mutual exclusion) can run over a collision-prone radio network as
//! if the virtual nodes were reliable servers. This crate measures
//! that claim under sustained client *traffic*:
//!
//! * [`Service`] (module [`service`]) — the uniform request/response
//!   interface: submit a [`Request`], step the world one virtual
//!   round, harvest round-stamped [`Completion`]s. There is one
//!   adapter behind it and four app descriptions: the request
//!   lifecycle (enqueue, retransmit with backoff, stale-echo guard,
//!   complete, forget/purge, audit buffer) is written once; register,
//!   mutex, tracking and georouting each state only how a request
//!   becomes a message and how a reception resolves pending ops.
//!   Client endpoints are ordinary `ClientApp`s fed through shared
//!   ports, broadcasting in staggered slots so client-phase
//!   broadcasts never collide.
//! * [`TrafficSpec`] (module [`workload`]) — the serializable
//!   workload description: open-loop (seeded arrival schedule with
//!   rate ramps/bursts) or closed-loop (k outstanding per client with
//!   think time), op mix, timeout, and measurement window. Embedded
//!   in `vi_scenario::ScenarioSpec` workloads, so traffic runs are
//!   data like everything else.
//! * [`LatencyHistogram`] (module [`metrics`]) — fixed-bucket
//!   log-linear latency histograms: allocation-free `record`,
//!   commutative `merge`, deterministic quantiles. Identical
//!   `(spec, seed)` pairs yield byte-identical histograms no matter
//!   how many sweep workers executed them.
//! * The **driver** (module [`driver`]) — [`run_traffic`] builds the
//!   service over a [`TrafficWorld`], replays the admission schedule,
//!   sweeps timeouts, and emits a [`TrafficSummary`]
//!   (p50/p95/p99/max, throughput, drop accounting). Given a sink, it
//!   hands the sink the run's operation history as it happens, one
//!   [`TrafficEvent`] at a time — invocations with concrete
//!   [`OpDesc`]s, responses with semantic [`OpOutcome`]s, timeouts,
//!   and protocol-level [`AuditRecord`]s — the input of the
//!   `vi-audit` consistency checkers; without one it records nothing.

#![forbid(unsafe_code)]

pub mod driver;
pub mod metrics;
pub mod service;
pub mod workload;

pub use driver::{drive, drive_recorded, run_traffic, TrafficEvent, TrafficOutcome};
pub use metrics::{LatencyHistogram, TrafficSummary};
pub use service::{
    backoff_delay, build_service, AuditRecord, Completion, DevicePlan, OpClass, OpDesc, OpOutcome,
    Request, Service, TrafficWorld,
};
pub use workload::{AppKind, LoadMode, RatePhase, TrafficSpec};
