//! Experiment E18 (`metropolis`): the engine hot path at city scale,
//! through the scenario subsystem.
//!
//! Deployments are constant-density metropolises of up to 1 000 000
//! nodes with mixed static/mobile populations, compiled from
//! [`ScenarioSpec`]s. Every configuration is timed end to end
//! (ms per slotted round, telemetry off) and then run once more with
//! telemetry on for the deterministic round-mode counters and the
//! phase breakdown; stripping the telemetry must recover the timed
//! outcome exactly.
//!
//! The n=200 000 and n=1 000 000 rows are expensive, so they only run
//! when `VI_METROPOLIS_LARGE=1` is set (CI runs them in a non-gating
//! nightly-style job); otherwise they are skipped with a table note.

use crate::table::Table;
use std::time::Instant;
use vi_radio::geometry::Rect;
use vi_radio::{AdversaryKind, RadioConfig};
use vi_scenario::{
    CmSpec, EngineTuning, MobilitySpec, PlacementSpec, PopulationSpec, ScenarioOutcome,
    ScenarioSpec, WorkloadSpec,
};

/// Seed shared by every metropolis run (one seed keeps the experiment
/// affordable; determinism is already covered by the E15 matrix).
const SEED: u64 = 1;

/// Constant-density spacing (matches E14's deployments): each `R2`
/// disk holds a handful of nodes regardless of `n`.
const SPACING: f64 = 15.0;

/// One E18 configuration row. The experiment table, its tests, and
/// the CI guards all derive from [`CONFIGS`], so rows cannot drift
/// between the experiment and its assertions.
#[derive(Clone, Copy, Debug)]
pub struct MetroConfig {
    /// Mobility-mix label (`static_heavy` / `commuter` / `rush_hour`).
    pub mix: &'static str,
    /// Node count.
    pub n: usize,
    /// Fraction of nodes roaming as random waypoints.
    pub mobile_fraction: f64,
    /// CHA instances (3 rounds each).
    pub instances: u64,
    /// Expensive row: runs only with `VI_METROPOLIS_LARGE=1`.
    pub large: bool,
}

/// The E18 configuration matrix: three mobility mixes at two
/// affordable city sizes, plus the large-n scaling rows.
pub const CONFIGS: &[MetroConfig] = &[
    MetroConfig {
        mix: "static_heavy",
        n: 5000,
        mobile_fraction: 0.02,
        instances: 20,
        large: false,
    },
    MetroConfig {
        mix: "commuter",
        n: 5000,
        mobile_fraction: 0.30,
        instances: 20,
        large: false,
    },
    MetroConfig {
        mix: "rush_hour",
        n: 5000,
        mobile_fraction: 0.60,
        instances: 20,
        large: false,
    },
    MetroConfig {
        mix: "static_heavy",
        n: 20000,
        mobile_fraction: 0.02,
        instances: 10,
        large: false,
    },
    MetroConfig {
        mix: "commuter",
        n: 20000,
        mobile_fraction: 0.30,
        instances: 10,
        large: false,
    },
    MetroConfig {
        mix: "rush_hour",
        n: 20000,
        mobile_fraction: 0.60,
        instances: 10,
        large: false,
    },
    MetroConfig {
        mix: "static_heavy",
        n: 200_000,
        mobile_fraction: 0.02,
        instances: 4,
        large: true,
    },
    MetroConfig {
        mix: "commuter",
        n: 200_000,
        mobile_fraction: 0.30,
        instances: 3,
        large: true,
    },
    MetroConfig {
        mix: "static_heavy",
        n: 1_000_000,
        mobile_fraction: 0.02,
        instances: 2,
        large: true,
    },
];

/// Whether the expensive large-n rows should run (documented env
/// gate; CI sets it in the non-gating nightly-style job).
fn large_rows_enabled() -> bool {
    std::env::var("VI_METROPOLIS_LARGE").is_ok_and(|v| v.trim() == "1")
}

/// A constant-density metropolis: `n` nodes uniform over a square
/// growing with `sqrt(n)`, of which `mobile_fraction` roam as random
/// waypoints and the rest never move. The workload is CHA under the
/// randomized backoff contention manager, so pre-capture rounds keep
/// genuine broadcast contention on the channel.
pub fn metropolis_spec(name: &str, n: usize, mobile_fraction: f64, instances: u64) -> ScenarioSpec {
    let side = (n as f64).sqrt() * SPACING;
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
        nemesis: vi_scenario::NemesisSpec::none(),
        cm: CmSpec::Backoff,
        workload: WorkloadSpec::ChaClique { instances },
    }
}

fn spec_of(cfg: &MetroConfig) -> ScenarioSpec {
    metropolis_spec(
        &format!("metropolis_{}_{}", cfg.mix, cfg.n),
        cfg.n,
        cfg.mobile_fraction,
        cfg.instances,
    )
}

/// Wall-clock of one run under the given tuning: `(ms per round,
/// outcome)`.
pub fn timed_run(spec: &ScenarioSpec, tuning: EngineTuning) -> (f64, ScenarioOutcome) {
    let t0 = Instant::now();
    let out = spec.run_with(SEED, tuning);
    let ms = t0.elapsed().as_secs_f64() * 1000.0 / out.rounds.max(1) as f64;
    (ms, out)
}

/// E18 — metropolis-scale ms/round with the round-mode counters and
/// phase breakdown of each configuration.
///
/// # Panics
///
/// Panics if recording telemetry changes an outcome.
pub fn metropolis() -> Table {
    let mut t = Table::new(
        "E18 metropolis: engine hot path at city scale",
        &[
            "mix",
            "n",
            "rounds",
            "ms/round",
            "steady",
            "reanchor",
            "churn",
            "receptions",
        ],
    );
    let large_on = large_rows_enabled();
    for cfg in CONFIGS {
        if cfg.large && !large_on {
            continue;
        }
        let spec = spec_of(cfg);
        let (ms, out) = timed_run(&spec, EngineTuning::DEFAULT);
        // One extra telemetry-on run per row feeds the counter columns
        // and the phase breakdown below. The timing column above stays
        // telemetry-off, and stripping the summary must recover the
        // plain outcome exactly — telemetry observes, never perturbs.
        let tele_out = spec.run_with(SEED, EngineTuning::DEFAULT.with_telemetry());
        let mut stripped = tele_out.clone();
        stripped.telemetry = None;
        assert_eq!(
            stripped, out,
            "telemetry perturbed the simulation on {}",
            spec.name
        );
        let tele = tele_out.telemetry.expect("telemetry was enabled");
        t.row(&[
            cfg.mix.to_string(),
            out.nodes.to_string(),
            out.rounds.to_string(),
            format!("{ms:.3}"),
            tele.counters.rounds_steady.to_string(),
            tele.counters.rounds_reanchor.to_string(),
            tele.counters.rounds_churn.to_string(),
            tele.counters.receptions.to_string(),
        ]);
        let phases: Vec<String> = tele
            .phases
            .phases
            .iter()
            .filter(|p| p.samples > 0)
            .map(|p| format!("{} p50={}µs p95={}µs", p.phase, p.p50_us, p.p95_us))
            .collect();
        t.note(format!(
            "{} {}k phase breakdown: {}",
            cfg.mix,
            cfg.n / 1000,
            phases.join(", ")
        ));
    }
    t.note("constant density (15 m spacing); mobile nodes are 0.5 m/round waypoints");
    t.note("static_heavy = 2% mobile, commuter = 30%, rush_hour = 60% (high churn exercises the churn fallback)");
    t.note(
        "ms/round is one whole run (placement to checker) over its slotted rounds, on one thread",
    );
    t.note("steady/reanchor/churn are deterministic round-mode counters; receptions is total deliveries (telemetry run, the timing column is telemetry-off)");
    if large_on {
        t.note("large rows (n >= 200000) enabled via VI_METROPOLIS_LARGE=1");
    } else {
        t.note("large rows (n = 200000, 1000000) skipped; set VI_METROPOLIS_LARGE=1 to run them");
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down metropolis validates, repeats exactly and
    /// produces sane outcomes.
    #[test]
    fn small_metropolis_paths_agree() {
        let spec = metropolis_spec("metropolis_test", 300, 0.1, 4);
        spec.validate().expect("metropolis spec validates");
        let fast = spec.run(SEED);
        assert_eq!(fast, spec.run(SEED), "a re-run must be byte-identical");
        assert_eq!(fast.nodes, 300);
        assert_eq!(fast.rounds, 12);
        assert!(fast.broadcasts > 0, "backoff CM must admit broadcasters");
    }

    #[test]
    fn table_has_expected_shape() {
        // Shape only — tiny stand-ins for the real configs would still
        // run nine sweeps, so assert over the shared CONFIGS const.
        assert_eq!(CONFIGS.len(), 9);
        assert!(CONFIGS
            .iter()
            .any(|c| c.mix == "static_heavy" && c.n == 20000 && !c.large));
        assert!(
            CONFIGS.iter().any(|c| c.n == 1_000_000 && c.large),
            "the million-node scaling row must exist"
        );
        assert!(
            CONFIGS.iter().filter(|c| c.large).all(|c| c.n >= 200_000),
            "only genuinely large rows may hide behind the env gate"
        );
    }
}
