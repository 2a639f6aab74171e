//! The four workloads, their output checks and the untimed
//! correctness gate.
//!
//! A workload is a list of `(ScenarioSpec, seed)` jobs; one *repeat*
//! is one `SweepRunner::auto().run(&jobs)` call — the default user
//! path. The specs are built here, serialised to JSON and parsed back,
//! and the program only ever sees the parsed copy and the seed.
//!
//! Sizes are chosen so that one repeat takes 0.2–0.5 s on the baseline
//! machine: the driver measures for `run_seconds` and reports medians,
//! and a median needs a few dozen samples to sit still on a box whose
//! vCPUs get stolen (see `bench/README.md`, "Sizing").

use virtual_infra::radio::geometry::Rect;
use virtual_infra::radio::{AdversaryKind, RadioConfig};
use virtual_infra::scenario::{
    catalog, AppKind, CmSpec, LoadMode, MobilitySpec, NemesisSpec, PlacementSpec, PopulationSpec,
    ScenarioOutcome, ScenarioSpec, TrafficSpec, WorkloadSpec,
};

/// Workload names, in report order (the names `BENCHMARK.json` lists).
pub const NAMES: [&str; 4] = [
    "metro_static",
    "metro_churn",
    "apps_traffic",
    "register_audit",
];

/// City size of the metro workloads (E18's n = 20 000 rows).
const METRO_NODES: usize = 20_000;
/// CHA instances per metro run (3 slotted rounds each).
const METRO_INSTANCES: u64 = 10;
/// Admission window of each `apps_traffic` job, in virtual rounds.
const APPS_VIRTUAL_ROUNDS: u64 = 5_000;
/// Admission window of `register_audit`: 24 000 operations, which the
/// WGL checker holds in ops²/8 bytes ≈ 70 MB.
const AUDIT_VIRTUAL_ROUNDS: u64 = 30_000;

/// One job list, ready to hand to the sweep runner.
pub type Jobs = Vec<(ScenarioSpec, u64)>;

/// A constant-density city (15 m spacing, `r1 = 10`, `r2 = 20`,
/// reliable radio): `mobile_fraction` of the nodes roam as 0.5 m/round
/// waypoints, everyone runs CHA under the randomized backoff manager.
/// The shape of `vi_bench::exp_metropolis::metropolis_spec`.
fn metro(name: &str, n: usize, mobile_fraction: f64) -> ScenarioSpec {
    let mobile = ((n as f64) * mobile_fraction).round() as usize;
    ScenarioSpec {
        name: name.into(),
        arena: Rect::square((n as f64).sqrt() * 15.0),
        radio: RadioConfig::reliable(10.0, 20.0),
        populations: vec![
            PopulationSpec::fixed(n - mobile, PlacementSpec::Uniform),
            PopulationSpec::fixed(mobile, PlacementSpec::Uniform)
                .with_mobility(MobilitySpec::Waypoint { speed: 0.5 }),
        ],
        adversary: AdversaryKind::None,
        nemesis: NemesisSpec::none(),
        cm: CmSpec::Backoff,
        workload: WorkloadSpec::ChaClique {
            instances: METRO_INSTANCES,
        },
    }
}

/// The catalog `robot_patrol` deployment driven by each of the four
/// apps: two virtual nodes, the two anchors of the first region as
/// clients (deployment order assigns the ports), and three robots
/// patrolling through both regions, which costs ≈60 join transfers per
/// 1 000 virtual rounds. Register and tracking are open-loop at
/// 0.5 req/vr, mutex and georouting closed-loop (one request in flight
/// per client, think time 2).
///
/// The jobs are listed longest first. The runner hands jobs to its
/// workers first come, first served; in `AppKind::all()` order the two
/// short jobs finish within 20 % of each other, whichever wins takes
/// the third, and the repeat lands on one of two schedules 20 % apart —
/// a race, not a cost. Longest first reaches the better schedule every
/// time.
fn apps_traffic(virtual_rounds: u64) -> Vec<ScenarioSpec> {
    let base = catalog::scenario("robot_patrol").expect("catalog has robot_patrol");
    let WorkloadSpec::ViCounter { layout, .. } = base.workload.clone() else {
        panic!("robot_patrol is a virtual-node scenario");
    };
    [
        AppKind::Georouting,
        AppKind::Mutex,
        AppKind::Tracking,
        AppKind::Register,
    ]
    .into_iter()
    .map(|app| {
        let traffic = match app {
            AppKind::Register | AppKind::Tracking => TrafficSpec::open(2, 0.5, virtual_rounds),
            AppKind::Mutex | AppKind::Georouting => TrafficSpec::closed(2, 1, 2, virtual_rounds),
        };
        ScenarioSpec {
            name: format!("apps_traffic_{}", app.name()),
            workload: WorkloadSpec::Traffic {
                app,
                layout: layout.clone(),
                traffic,
                audit: false,
            },
            ..base.clone()
        }
    })
    .collect()
}

/// The catalog `mall_rush` register without its arrival wave: one
/// virtual node, four client devices and two anchors, open loop at
/// 0.8 req/vr — below the 1.0 req/vr the four staggered client slots
/// carry, so no queue builds and nothing times out — with the history
/// recorded and audited.
fn register_audit(virtual_rounds: u64) -> ScenarioSpec {
    let mut spec = catalog::scenario("mall_rush").expect("catalog has mall_rush");
    spec.name = "register_audit".into();
    spec.populations.truncate(2);
    let WorkloadSpec::Traffic { traffic, audit, .. } = &mut spec.workload else {
        panic!("mall_rush is a traffic scenario");
    };
    traffic.mode = LoadMode::Open {
        rate_per_round: 0.8,
        phases: Vec::new(),
    };
    traffic.virtual_rounds = virtual_rounds;
    *audit = true;
    spec
}

/// Builds the specs of `workload` (`quick` divides every size by ten),
/// sends each through JSON and `validate`, and pairs the parsed copies
/// with `seed`.
pub fn generate(workload: &str, seed: u64, quick: bool) -> Result<Jobs, String> {
    let div = if quick { 10 } else { 1 };
    let specs = match workload {
        "metro_static" => vec![metro(workload, METRO_NODES / div, 0.02)],
        "metro_churn" => vec![metro(workload, METRO_NODES / div, 0.30)],
        "apps_traffic" => apps_traffic(APPS_VIRTUAL_ROUNDS / div as u64),
        "register_audit" => vec![register_audit(AUDIT_VIRTUAL_ROUNDS / div as u64)],
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {NAMES:?})"
            ))
        }
    };
    specs
        .into_iter()
        .map(|spec| {
            let json = serde_json::to_string(&spec).map_err(|e| e.to_string())?;
            let parsed: ScenarioSpec = serde_json::from_str(&json).map_err(|e| e.to_string())?;
            if parsed != spec {
                return Err(format!("{}: JSON round-trip changed the spec", spec.name));
            }
            parsed.validate()?;
            Ok((parsed, seed))
        })
        .collect()
}

/// `(attempted, failed)` operations of one repeat. An op is a
/// node-round on the CHA workloads (none can fail on its own: the
/// caller fails the whole repeat when its digest drifts) and a client
/// request on the traffic workloads, where a request that timed out or
/// never resolved has failed.
pub fn ops(outcomes: &[ScenarioOutcome]) -> (u64, u64) {
    outcomes
        .iter()
        .fold((0, 0), |(attempted, failed), o| match &o.traffic {
            Some(t) => (
                attempted + t.issued,
                failed + t.timed_out + t.in_flight_at_end,
            ),
            None => (attempted + o.nodes as u64 * o.rounds, failed),
        })
}

/// Shape checks on one repeat's outcomes; the first failure is fatal.
pub fn check_outcomes(jobs: &Jobs, outcomes: &[ScenarioOutcome]) -> Result<(), String> {
    if outcomes.len() != jobs.len() {
        return Err(format!(
            "{} jobs gave {} outcomes",
            jobs.len(),
            outcomes.len()
        ));
    }
    for ((spec, _), o) in jobs.iter().zip(outcomes) {
        let fail = |what: String| Err(format!("{}: {what}", spec.name));
        match &spec.workload {
            WorkloadSpec::ChaClique { instances } => {
                if o.nodes != spec.node_count() || o.rounds != instances * 3 {
                    return fail(format!(
                        "ran {} nodes for {} rounds, expected {} for {}",
                        o.nodes,
                        o.rounds,
                        spec.node_count(),
                        instances * 3
                    ));
                }
                if o.deliveries == 0 {
                    return fail("nothing was delivered".into());
                }
            }
            WorkloadSpec::Traffic { audit, .. } => {
                let Some(t) = &o.traffic else {
                    return fail("no traffic summary".into());
                };
                if t.completed + t.timed_out + t.in_flight_at_end != t.issued {
                    return fail(format!("request accounting does not close: {t:?}"));
                }
                if t.completed == 0 {
                    return fail("no request completed".into());
                }
                match (&o.audit, audit) {
                    (Some(report), true) if report.ok() => {}
                    (Some(report), true) => {
                        return fail(format!("audit failed: {}", report.verdict_summary()))
                    }
                    (None, false) => {}
                    _ => return fail("audit report does not match the spec".into()),
                }
            }
            other => return fail(format!("unexpected workload {other:?}")),
        }
    }
    Ok(())
}

/// The untimed in-model gate, part of set-up: on seeds `seed..seed+2`
/// the catalog's `clique` and `partition_heal` must show no safety
/// violation and a measured stabilisation, and the faulted, audited
/// `blackout_market` and `quake_drill` must audit clean (timeouts are
/// `:info` operations there, never violations).
///
/// `flash_crowd` is run and *reported*, not gated: at this commit it
/// breaks CHA safety on 63 of the seeds 0..2000 (33, 106, 150, …), so
/// gating it would fail the benchmark on a property of the seed.
/// Returns the number of `flash_crowd` safety violations seen.
pub fn gate(seed: u64) -> Result<usize, String> {
    let named = |name: &str| catalog::scenario(name).expect("catalog scenario");
    let mut flash_crowd_violations = 0;
    for s in (0..3).map(|i| seed.wrapping_add(i)) {
        for name in ["clique", "partition_heal"] {
            let o = named(name).run(s);
            if o.safety_violations() != 0 || o.stabilized_kst.is_none() {
                return Err(format!(
                    "gate: {name} seed {s}: {} safety violations, kst {:?}",
                    o.safety_violations(),
                    o.stabilized_kst
                ));
            }
        }
        flash_crowd_violations += named("flash_crowd").run(s).safety_violations();
        for name in ["blackout_market", "quake_drill"] {
            let o = named(name).run(s);
            match &o.audit {
                Some(report) if report.ok() => {}
                Some(report) => {
                    return Err(format!(
                        "gate: {name} seed {s}: {}",
                        report.verdict_summary()
                    ))
                }
                None => return Err(format!("gate: {name} seed {s}: no audit report")),
            }
        }
    }
    Ok(flash_crowd_violations)
}
