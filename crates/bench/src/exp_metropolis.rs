//! Experiment E18 (`metropolis`): the engine hot path at city scale —
//! sequential vs tile-sharded rounds, through the scenario subsystem.
//!
//! Deployments are constant-density metropolises of up to 1 000 000
//! nodes with mixed static/mobile populations, compiled from
//! [`ScenarioSpec`]s and executed through the [`SweepRunner`]. Every
//! configuration runs with sequential rounds and with tile-sharded
//! rounds ([`SHARD_WORKERS`] intra-round workers for the identity
//! checks, at most one per core for the timed column). The outcome
//! tables are asserted byte-identical before any timing is reported:
//! sharding buys nothing but wall-clock.
//!
//! Only re-anchor rounds shard — the first stable round after churn,
//! which refills the neighborhood cache with one full grid query per
//! receiver. Steady rounds fold cached neighborhoods and churn rounds
//! scan a per-round broadcaster index, both on the calling thread, so
//! a row's sharded column can differ from its sequential one only by
//! its `reanchor` rounds: one of `static_heavy`'s, none of the churn
//! mixes'.
//!
//! The n=200 000 and n=1 000 000 rows are expensive, so they only run
//! when `VI_METROPOLIS_LARGE=1` is set (CI runs them in a non-gating
//! nightly-style job); otherwise they are skipped with a table note.

use crate::table::{f2, Table};
use std::time::Instant;
use vi_radio::geometry::Rect;
use vi_radio::{AdversaryKind, RadioConfig};
use vi_scenario::{
    CmSpec, EngineTuning, MobilitySpec, PlacementSpec, PopulationSpec, ScenarioOutcome,
    ScenarioSpec, SweepRunner, WorkloadSpec,
};

/// Seed shared by every metropolis run (one seed keeps the experiment
/// affordable; determinism is already covered by the E15 matrix).
const SEED: u64 = 1;

/// Constant-density spacing (matches E14's deployments): each `R2`
/// disk holds a handful of nodes regardless of `n`.
const SPACING: f64 = 15.0;

/// Intra-round worker count of the byte-identity checks and of the CI
/// speedup guard (`metropolis_sharded_speedup`). The timed sharded
/// column runs at most one of them per core.
pub const SHARD_WORKERS: usize = 4;

/// Workers of the *timed* sharded column: [`SHARD_WORKERS`], but never
/// more than the host has cores — an oversubscribed pool measures the
/// scheduler, not the resolver.
fn timed_shard_workers() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    SHARD_WORKERS.min(cores)
}

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

/// E18 — metropolis-scale ms/round, sequential vs tile-sharded, with
/// byte-identity asserted first: through the sweep runner on the
/// affordable sizes at [`SHARD_WORKERS`], 1-worker vs
/// `min(SHARD_WORKERS, cores)` on every row that runs.
///
/// # Panics
///
/// Panics if the two ever disagree on an outcome — that would be a
/// determinism bug in the tile-sharded resolver.
pub fn metropolis() -> Table {
    let small: Vec<ScenarioSpec> = CONFIGS.iter().filter(|c| !c.large).map(spec_of).collect();

    // The safety net first: identical matrices through the runner,
    // sequential and sharded.
    let runner = SweepRunner::auto();
    let sequential = runner.run_matrix_with(&small, &[SEED], EngineTuning::with_workers(1));
    let sharded =
        runner.run_matrix_with(&small, &[SEED], EngineTuning::with_workers(SHARD_WORKERS));
    assert_eq!(
        serde_json::to_string(&sequential).expect("serializable outcomes"),
        serde_json::to_string(&sharded).expect("serializable outcomes"),
        "sequential and tile-sharded rounds must be byte-identical"
    );

    let mut t = Table::new(
        "E18 metropolis: engine hot path — sequential vs tile-sharded rounds",
        &[
            "mix",
            "n",
            "rounds",
            "workers",
            "seq ms/round",
            "sharded ms/round",
            "shard speedup",
            "steady",
            "reanchor",
            "churn",
            "receptions",
        ],
    );
    let large_on = large_rows_enabled();
    let workers = timed_shard_workers();
    for cfg in CONFIGS {
        if cfg.large && !large_on {
            continue;
        }
        let spec = spec_of(cfg);
        let (seq_ms, seq_out) = timed_run(&spec, EngineTuning::with_workers(1));
        let (shard_ms, shard_out) = timed_run(&spec, EngineTuning::with_workers(workers));
        assert_eq!(
            seq_out, shard_out,
            "sequential and sharded outcomes diverged on {}",
            spec.name
        );
        // One extra telemetry-on run per row feeds the counter columns
        // and the phase breakdown below. The timing columns above stay
        // telemetry-off, and stripping the summary must recover the
        // plain outcome exactly — telemetry observes, never perturbs.
        let tele_out = spec.run_with(SEED, EngineTuning::with_workers(1).with_telemetry());
        let mut stripped = tele_out.clone();
        stripped.telemetry = None;
        assert_eq!(
            stripped, seq_out,
            "telemetry perturbed the simulation on {}",
            spec.name
        );
        let tele = tele_out.telemetry.expect("telemetry was enabled");
        t.row(&[
            cfg.mix.to_string(),
            seq_out.nodes.to_string(),
            seq_out.rounds.to_string(),
            workers.to_string(),
            format!("{seq_ms:.3}"),
            format!("{shard_ms:.3}"),
            f2(seq_ms / shard_ms.max(f64::MIN_POSITIVE)),
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
    t.note("outcome tables asserted byte-identical between sequential and sharded rounds before timing");
    t.note("`workers` is the intra-round worker count of the sharded column (min(4, cores)); shard speedup = seq / sharded");
    t.note("only reanchor rounds shard; steady and churn rounds resolve on the calling thread at any worker count");
    t.note("steady/reanchor/churn are deterministic round-mode counters; receptions is total deliveries (telemetry run, timing columns are telemetry-off)");
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vi_radio::adversary::NoAdversary;
    use vi_radio::channel::{Medium, ReceptionBuffer, TopologyDelta, TxIntent};
    use vi_radio::geometry::Point;
    use vi_radio::NodeId;

    /// A scaled-down metropolis stays byte-identical between
    /// sequential and pool-backed runs and produces sane outcomes (the
    /// full-size differential runs inside `metropolis()` itself and in
    /// CI release smoke).
    #[test]
    fn small_metropolis_paths_agree() {
        let spec = metropolis_spec("metropolis_test", 300, 0.1, 4);
        spec.validate().expect("metropolis spec validates");
        let fast = spec.run(SEED);
        let sharded = spec.run_with(SEED, EngineTuning::with_workers(3));
        assert_eq!(fast, sharded, "sharded path must be byte-identical");
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

    /// CI acceptance: 1-vs-N-worker byte-identity at n=20 000 on
    /// every affordable configuration (release smoke; the proptests
    /// cover randomized small topologies, this covers real scale).
    #[test]
    #[ignore = "full-scale differential; CI runs it explicitly in release (metropolis smoke step)"]
    fn metropolis_sharded_byte_identity() {
        for cfg in CONFIGS.iter().filter(|c| !c.large && c.n == 20000) {
            let spec = spec_of(cfg);
            let sequential = spec.run_with(SEED, EngineTuning::with_workers(1));
            // Telemetry counters are part of the deterministic surface:
            // the same run at any worker count must report the same
            // counter set (phase timings are excluded from equality).
            let tele_seq = spec.run_with(SEED, EngineTuning::with_workers(1).with_telemetry());
            let seq_counters = tele_seq
                .telemetry
                .as_ref()
                .expect("telemetry was enabled")
                .counters;
            assert!(seq_counters.rounds_total > 0, "rounds were counted");
            for workers in [2usize, SHARD_WORKERS] {
                let sharded = spec.run_with(SEED, EngineTuning::with_workers(workers));
                assert_eq!(
                    sequential, sharded,
                    "{} diverged at {workers} workers",
                    spec.name
                );
                let tele_shard =
                    spec.run_with(SEED, EngineTuning::with_workers(workers).with_telemetry());
                assert_eq!(
                    seq_counters,
                    tele_shard
                        .telemetry
                        .as_ref()
                        .expect("telemetry was enabled")
                        .counters,
                    "{} counters diverged at {workers} workers",
                    spec.name
                );
            }
        }
    }

    /// Acceptance criterion for tile sharding, CI-release only: on the
    /// one round kind that still reaches the pool, the *round
    /// resolver* at 4 workers must not lose to sequential (≥ 1.0x) on
    /// a metropolis-scale medium, while byte-identical.
    ///
    /// Only re-anchor rounds shard (see `Medium::set_workers`): steady
    /// cached rounds and churn rounds resolve on the calling thread at
    /// any worker count, so timing those would compare the sequential
    /// walk with itself. A re-anchor is the first stable round after
    /// churn, so every timed `TopologyDelta::Unchanged` round follows
    /// an untimed `TopologyDelta::Rebuild` one that invalidates the
    /// cache. The bar is 1.0x because no ≥4-core measurement backs a
    /// higher one; on the 2-vCPU box this guard skips (forced to run
    /// there at 2 workers, three runs read 1.44–1.58x, 12.4–13.7 ->
    /// 8.6–8.7 ms per re-anchor round). Raise it with such a
    /// measurement in hand.
    ///
    /// This times `Medium::resolve_round_cached` directly rather than
    /// whole scenario runs: protocol work (CHA state machines,
    /// contention management, intent collection) is inherently
    /// sequential, so Amdahl caps the end-to-end speedup well below
    /// the resolver's own scaling.
    #[test]
    #[ignore = "wall-clock benchmark; CI runs it explicitly in release (sharding smoke step)"]
    fn metropolis_sharded_speedup() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        if cores < SHARD_WORKERS {
            eprintln!("skipping sharded speedup guard: {cores} cores < {SHARD_WORKERS} workers");
            return;
        }
        // A dense metropolis medium: hash-scattered positions at 8 m
        // spacing (~20 nodes per R2 disk), every third slot
        // broadcasting on a rotating schedule.
        let n = 20_000usize;
        let side = (n as f64).sqrt() * 8.0;
        let positions: Vec<Point> = (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                Point::new(
                    (h % 100_000) as f64 / 100_000.0 * side,
                    ((h >> 32) % 100_000) as f64 / 100_000.0 * side,
                )
            })
            .collect();
        let cfg = RadioConfig::reliable(10.0, 20.0);
        let intents_of = |round: u64| -> Vec<TxIntent<u64>> {
            positions
                .iter()
                .enumerate()
                .map(|(i, &pos)| TxIntent {
                    node: NodeId::from(i),
                    pos,
                    payload: (round as usize + i).is_multiple_of(3).then_some(i as u64),
                })
                .collect()
        };
        // `(ms per re-anchor round, digest)` over `pairs` churn +
        // re-anchor pairs.
        let run = |workers: usize, pairs: u64| -> (f64, u64) {
            let mut medium = Medium::new(cfg);
            medium.set_workers(workers);
            let mut out = ReceptionBuffer::new();
            let mut rng = StdRng::seed_from_u64(SEED);
            let mut digest = 0u64;
            let mut step = |round: u64, delta, out: &mut ReceptionBuffer<u64>| {
                let intents = intents_of(round);
                let t0 = Instant::now();
                medium.resolve_round_cached(
                    round,
                    &intents,
                    delta,
                    &mut NoAdversary,
                    &mut rng,
                    out,
                );
                t0.elapsed().as_secs_f64()
            };
            let mut reanchor_secs = 0.0;
            // The first three pairs are warm-up: one full period of
            // the rotating broadcast pattern grows the grid, the
            // neighborhood cache, the tiles and all scratch.
            for pair in 0..3 + pairs {
                step(2 * pair, TopologyDelta::Rebuild, &mut out);
                let secs = step(2 * pair + 1, TopologyDelta::Unchanged, &mut out);
                if pair >= 3 {
                    reanchor_secs += secs;
                    digest = digest
                        .wrapping_mul(31)
                        .wrapping_add(out.len() as u64)
                        .wrapping_add((0..out.len()).filter(|&k| out.collision(k)).count() as u64);
                }
            }
            (reanchor_secs * 1000.0 / pairs as f64, digest)
        };

        let mut failure = String::new();
        for attempt in 0..3 {
            // Interleaved min-of-pairs: scheduler noise only inflates.
            let mut seq_ms = f64::INFINITY;
            let mut shard_ms = f64::INFINITY;
            let mut digests = (0u64, 0u64);
            for _ in 0..2 {
                let (s, d1) = run(1, 15);
                let (p, d2) = run(SHARD_WORKERS, 15);
                seq_ms = seq_ms.min(s);
                shard_ms = shard_ms.min(p);
                digests = (d1, d2);
            }
            assert_eq!(
                digests.0, digests.1,
                "sharded resolver digest diverged from sequential"
            );
            let speedup = seq_ms / shard_ms.max(f64::MIN_POSITIVE);
            if speedup >= 1.0 {
                eprintln!(
                    "sharded re-anchor rounds n=20000: {seq_ms:.3} -> {shard_ms:.3} ms/round ({speedup:.2}x at {SHARD_WORKERS} workers)"
                );
                return;
            }
            failure = format!(
                "attempt {attempt}: {seq_ms:.3} -> {shard_ms:.3} ms/round, {speedup:.2}x (want >= 1.0x)"
            );
        }
        panic!("sharded re-anchor rounds lost to sequential on every attempt; last: {failure}");
    }
}
