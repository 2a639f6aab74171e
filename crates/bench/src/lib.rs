//! # vi-bench
//!
//! Experiment harness reproducing every figure and quantitative claim
//! of the paper. Each experiment (E1–E22; E14 and E18 are retired, not
//! renumbered) is a function returning a [`Table`], callable from the
//! `repro` binary (which prints paper-shaped tables and writes a
//! `BENCH_<id>.json` artifact per experiment). Each experiment asserts
//! its paper claim — the claimed *shape*: who wins, what stays
//! constant, what grows — on the values it computes, before it returns
//! its table, so `repro` panics on a broken claim rather than printing
//! it. Every CHA clique (E2–E6, E12, E13) is a
//! [`harness::clique_spec`] run by vi-scenario, and the baselines run
//! typed engines, so vi-bench builds and downcasts no node. Seed sweeps
//! (E6, E13, E15, E16, E17) fan across cores through
//! [`vi_scenario::SweepRunner`].
//!
//! No experiment reads a clock or the host: a table is a pure function
//! of the code, and `expected/<id>.json` pins each one byte for byte
//! (CI `cmp`s every artifact against it; re-pin a file by copying the
//! artifact over it, with the reason in CHANGES.md). Wall-clock and
//! RSS numbers come from vi-perf (`bash bench/run.sh`); the six
//! `#[ignore]`d release guards time themselves inside `#[cfg(test)]`
//! and report into no table.

#![forbid(unsafe_code)]

pub mod exp_ablation;
pub mod exp_audit;
pub mod exp_cha;
pub mod exp_emulation;
pub mod exp_fuzz;
pub mod exp_monitor;
pub mod exp_protocol;
mod exp_radio;
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
            "telemetry",
            "Observability: deterministic counters, Perfetto export",
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

#[cfg(test)]
mod tests {
    use super::all_experiments;
    use std::path::Path;

    /// No experiment reads a clock, so each serialized table is a pure
    /// function of the code and `expected/<id>.json` pins it. A change
    /// that moves one re-pins the file (`repro <id>`, copy
    /// `BENCH_<id>.json` over it) and says why in CHANGES.md. Each run
    /// also asserts the experiment's paper claim.
    #[test]
    fn tables_equal_the_committed_expected_files() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected");
        let experiments = all_experiments();

        let mut pinned: Vec<String> = std::fs::read_dir(&dir)
            .expect("crates/bench/expected exists")
            .map(|entry| entry.expect("readable entry").file_name())
            .map(|name| name.to_string_lossy().into_owned())
            .collect();
        pinned.sort();
        let mut registered: Vec<String> = experiments
            .iter()
            .map(|(id, _, _)| format!("{id}.json"))
            .collect();
        registered.sort();
        assert_eq!(
            pinned, registered,
            "expected/ holds exactly one file per experiment id"
        );

        for (id, _, run) in experiments {
            let expected = std::fs::read_to_string(dir.join(format!("{id}.json")))
                .expect("pinned table is readable");
            assert_eq!(
                serde_json::to_string(&run()).expect("serializable table"),
                expected,
                "{id}: table drifted from crates/bench/expected/{id}.json"
            );
        }
    }
}
