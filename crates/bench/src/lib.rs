//! # vi-bench
//!
//! Experiment harness reproducing every figure and quantitative claim
//! of the paper. Each experiment (E1–E22) is a function returning a
//! [`Table`], callable from the `repro` binary (which prints
//! paper-shaped tables and writes a `BENCH_<id>.json` artifact per
//! experiment) and exercised by unit tests that assert the claimed
//! *shape* (who wins, what stays constant, what grows). Seed sweeps
//! (E6, E13, E15, E16, E17, E18) fan across cores through
//! [`vi_scenario::SweepRunner`].

#![forbid(unsafe_code)]

pub mod diff;
pub mod exp_ablation;
pub mod exp_audit;
pub mod exp_cha;
pub mod exp_emulation;
pub mod exp_fuzz;
pub mod exp_metropolis;
pub mod exp_monitor;
pub mod exp_protocol;
pub mod exp_radio;
pub mod exp_scenarios;
pub mod exp_telemetry;
pub mod exp_traffic;
pub mod harness;
pub mod table;

pub use table::Table;

/// An experiment entry: `(id, description, runner)`.
pub type Experiment = (&'static str, &'static str, fn() -> Table);

/// All experiments in index order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("fig2", "Figure 2: collision pattern → color", exp_cha::fig2),
        ("msgsize", "Theorem 14: message size vs k", exp_cha::msgsize),
        ("rounds", "Theorem 14: rounds vs n", exp_cha::rounds),
        ("spread", "Property 4: color spread", exp_cha::spread),
        (
            "convergence",
            "Theorem 12: liveness lag",
            exp_cha::convergence,
        ),
        ("safety", "Theorems 10+13: safety sweep", exp_cha::safety),
        (
            "overhead",
            "Section 4.3: emulation overhead",
            exp_emulation::overhead,
        ),
        (
            "availability",
            "Section 4.2: progress under churn",
            exp_emulation::availability,
        ),
        (
            "join",
            "Section 4.3: join latency",
            exp_emulation::join_latency,
        ),
        ("gc", "Section 3.5: garbage collection", exp_cha::gc),
        (
            "schedule",
            "Section 4.1: schedule quality",
            exp_emulation::schedule_quality,
        ),
        (
            "ablation3pc",
            "Ablation: CHAP vs 3PC",
            exp_ablation::ablation_3pc,
        ),
        (
            "necessity",
            "Ablation: detector completeness is necessary",
            exp_ablation::detector_necessity,
        ),
        (
            "radio_scale",
            "Engine scalability: grid medium vs naive resolver",
            exp_radio::radio_scale,
        ),
        (
            "scenario_matrix",
            "Named scenarios × seeds via the parallel SweepRunner",
            exp_scenarios::scenario_matrix,
        ),
        (
            "traffic_profile",
            "Client traffic: apps × scenarios × open/closed loop",
            exp_traffic::traffic_profile,
        ),
        (
            "consistency_audit",
            "History checkers: apps × nemesis fault schedules",
            exp_audit::consistency_audit,
        ),
        (
            "metropolis",
            "Engine hot path at city scale: ms/round, round modes, phase breakdown",
            exp_metropolis::metropolis,
        ),
        (
            "telemetry",
            "Observability: deterministic counters, phase timers, Perfetto export",
            exp_telemetry::telemetry,
        ),
        (
            "protocol_trace",
            "Causal tracing: decision timelines + incident-bundle replay",
            exp_protocol::protocol_trace,
        ),
        (
            "live_monitor",
            "Live monitoring: snapshot pipeline, sinks, /metrics, sweep progress",
            exp_monitor::live_monitor,
        ),
        (
            "fuzz_hunt",
            "Robustness: coverage-guided fuzz campaign + violation minimization",
            exp_fuzz::fuzz_hunt,
        ),
    ]
}
