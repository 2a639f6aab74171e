//! Property-based tests of the telemetry layer's three contracts:
//!
//! 1. **Counters are deterministic** — the counter set of a run is a
//!    pure function of the seed and the spec: every round is counted,
//!    and a re-run (with or without recorders riding along) counts
//!    the same.
//! 2. **Telemetry observes, never perturbs** — enabling the counters,
//!    or the whole observer handle, changes no reception, no trace
//!    byte, no channel statistic, and no RNG draw of the run it
//!    measures.
//! 3. **Snapshots are an exact decomposition** — the counter deltas a
//!    live monitor streams, concatenated in sequence order, reconcile
//!    exactly with the end-of-run telemetry totals at any sampling
//!    period.
//!
//! Two plain tests use the process-global sink registry: the Perfetto
//! export (a `TraceSink` keeps every sweep and causal DAG of the
//! process), and a monitored traffic run, whose engine feeds no
//! counter and no snapshot.

use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use virtual_infra::radio::adversary::RandomLoss;
use virtual_infra::radio::geometry::{Point, Rect};
use virtual_infra::radio::mobility::{Billiard, MobilityModel, Static, Waypoint};
use virtual_infra::radio::{
    ChannelStats, Engine, EngineConfig, NodeId, NodeSpec, Process, RadioConfig, RoundCtx,
    RoundReception,
};
use virtual_infra::scenario::{catalog, EngineTuning, SweepRunner, WorkloadSpec};
use virtual_infra::telemetry::monitor::{self, MonitorSink};
use virtual_infra::telemetry::trace_export::TraceFile;
use virtual_infra::telemetry::{
    Counters, Monitor, MonitorEvent, Observers, RingSink, SinkSet, TelemetrySnapshot, TraceSink,
};

fn arb_point() -> impl Strategy<Value = Point> {
    (0.0f64..100.0, 0.0f64..100.0).prop_map(|(x, y)| Point::new(x, y))
}

/// Records everything a protocol can observe.
struct Recorder {
    chatty: bool,
    heard: Vec<u64>,
    collisions: u64,
}

impl Process<u64> for Recorder {
    fn transmit(&mut self, ctx: &RoundCtx) -> Option<u64> {
        (self.chatty && ctx.round.is_multiple_of(2)).then_some(ctx.round)
    }
    fn deliver(&mut self, _ctx: &RoundCtx, rx: RoundReception<'_, u64>) {
        self.heard.extend_from_slice(rx.messages);
        if rx.collision {
            self.collisions += 1;
        }
    }
}

type NodeGene = (Point, u8, bool, u64, Option<u64>);
type Observation = (Vec<(Vec<u64>, u64)>, String, ChannelStats);

/// A live observer handle with counters and timers only.
fn probed() -> Observers {
    Observers::new(false)
}

/// A fully live observer handle: counters, causal recorder, an 8-round
/// flight window, and a monitor sampling every 3 rounds into a ring.
fn live(seed: u64) -> Observers {
    let ring = Arc::new(RingSink::with_capacity(64));
    Observers::new(false)
        .with_causal(seed)
        .with_flight(8)
        .with_monitor(Monitor::new("prop", seed, 3, SinkSet::new(vec![ring])))
}

/// Builds and runs one engine under `obs`; returns the observable
/// execution and the handle's counter set (when it is live).
fn run_engine(
    specs: &[NodeGene],
    seed: u64,
    stabilize: u64,
    drop_p: f64,
    rounds: u64,
    obs: &Observers,
) -> (Observation, Option<Counters>) {
    let bounds = Rect::square(200.0);
    let mut engine: Engine<u64> = Engine::new(EngineConfig {
        radio: RadioConfig::stabilizing(10.0, 20.0, stabilize),
        seed,
        record_trace: true,
    });
    engine.set_adversary(Box::new(RandomLoss::new(drop_p, 0.1)));
    engine.set_observers(obs.clone());
    let mut ids: Vec<NodeId> = Vec::new();
    for &(start, mobility, chatty, spawn, crash) in specs {
        let start = Point::new(start.x.min(190.0), start.y.min(190.0));
        let model: Box<dyn MobilityModel> = match mobility {
            0 => Box::new(Static::new(start)),
            1 => Box::new(Waypoint::new(start, 0.7, bounds)),
            2 => Box::new(Waypoint::new(start, 0.0, bounds)),
            _ => Box::new(Billiard::new(start, (0.5, -0.3), bounds)),
        };
        let mut spec = NodeSpec::new(
            model,
            Box::new(Recorder {
                chatty,
                heard: Vec::new(),
                collisions: 0,
            }),
        );
        if spawn > 0 {
            spec = spec.spawn_at(spawn);
        }
        if let Some(c) = crash {
            spec = spec.crash_at(c);
        }
        ids.push(engine.add_node(spec));
    }
    engine.run(rounds);
    let observed = ids
        .iter()
        .map(|&id| {
            let r: &Recorder = engine.process(id).expect("recorder");
            (r.heard.clone(), r.collisions)
        })
        .collect();
    let trace = serde_json::to_string(engine.trace()).expect("serializable trace");
    let observation = (observed, trace, *engine.stats());
    (observation, obs.counters())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Telemetry-on changes nothing observable: receptions, the full
    /// round trace, and the channel statistics (which close over every
    /// RNG draw) are identical with and without the counters, and with
    /// and without the whole observer handle; what is counted and the
    /// recorders keep is the same on a re-run.
    #[test]
    fn probe_never_perturbs_the_execution(
        specs in proptest::collection::vec(
            (arb_point(), 0u8..4, any::<bool>(), 0u64..6, proptest::option::of(2u64..20)),
            1..14),
        seed in any::<u64>(),
        stabilize in 0u64..30,
        drop_p in 0.0f64..0.6,
        rounds in 5u64..30,
    ) {
        let (plain, none) = run_engine(
            &specs, seed, stabilize, drop_p, rounds, &Observers::default());
        prop_assert!(none.is_none(), "a null handle counts nothing");
        let (probed, counters) =
            run_engine(&specs, seed, stabilize, drop_p, rounds, &probed());
        prop_assert_eq!(&probed, &plain, "telemetry perturbed the execution");
        let counters = counters.expect("live handle");
        prop_assert_eq!(counters.rounds_total, rounds, "every round is counted");
        prop_assert_eq!(
            counters.receptions, plain.2.deliveries,
            "reception counter must mirror channel stats");
        prop_assert_eq!(
            counters.collisions, plain.2.collision_reports,
            "collision counter must mirror channel stats");

        let (first, again) = (live(seed), live(seed));
        let (observed, live_counters) =
            run_engine(&specs, seed, stabilize, drop_p, rounds, &first);
        let (observed_again, _) = run_engine(&specs, seed, stabilize, drop_p, rounds, &again);
        prop_assert_eq!(&observed, &plain, "live observers perturbed the run");
        prop_assert_eq!(&observed_again, &plain, "live observers perturbed the re-run");
        prop_assert_eq!(live_counters, Some(counters),
            "recorders riding along must not change what is counted");
        prop_assert_eq!(first.flight_window(), again.flight_window(),
            "flight window diverged on a re-run");
        prop_assert_eq!(first.causal_summary(), again.causal_summary(),
            "causal summary diverged on a re-run");
    }

    /// Live-monitoring acceptance: the counter deltas a monitor
    /// streams, concatenated in sequence order, reconcile exactly with
    /// the end-of-run totals — for any sampling period and topology —
    /// and the final snapshot's running total IS the
    /// end-of-run counter set.
    #[test]
    fn snapshot_deltas_reconcile_with_final_summary(
        specs in proptest::collection::vec(
            (arb_point(), 0u8..4, any::<bool>(), 0u64..6, proptest::option::of(2u64..20)),
            1..10),
        seed in any::<u64>(),
        rounds in 5u64..40,
        every in 1u64..12,
    ) {
        let bounds = Rect::square(200.0);
        let mut engine: Engine<u64> = Engine::new(EngineConfig {
            radio: RadioConfig::reliable(10.0, 20.0),
            seed,
            record_trace: false,
        });
        let ring = Arc::new(RingSink::with_capacity(4096));
        let obs = Observers::new(false)
            .with_monitor(Monitor::new("prop", seed, every, SinkSet::new(vec![ring.clone()])));
        engine.set_observers(obs.clone());
        for &(start, mobility, chatty, spawn, crash) in &specs {
            let start = Point::new(start.x.min(190.0), start.y.min(190.0));
            let model: Box<dyn MobilityModel> = match mobility {
                0 => Box::new(Static::new(start)),
                1 => Box::new(Waypoint::new(start, 0.7, bounds)),
                2 => Box::new(Waypoint::new(start, 0.0, bounds)),
                _ => Box::new(Billiard::new(start, (0.5, -0.3), bounds)),
            };
            let mut spec = NodeSpec::new(
                model,
                Box::new(Recorder { chatty, heard: Vec::new(), collisions: 0 }),
            );
            if spawn > 0 {
                spec = spec.spawn_at(spawn);
            }
            if let Some(c) = crash {
                spec = spec.crash_at(c);
            }
            engine.add_node(spec);
        }
        engine.run(rounds);
        obs.finish();

        let snaps: Vec<TelemetrySnapshot> = ring
            .events()
            .into_iter()
            .filter_map(|e| match e {
                MonitorEvent::Snapshot(s) => Some(*s),
                _ => None,
            })
            .collect();
        prop_assert!(!snaps.is_empty(), "a finished monitor always snapshots");
        for (i, s) in snaps.iter().enumerate() {
            prop_assert_eq!(s.seq, i as u64 + 1, "sequence numbers are gapless");
            if !s.last {
                prop_assert_eq!(s.round % every, 0,
                    "periodic snapshots land on the period");
            }
        }
        let last = snaps.last().expect("non-empty");
        prop_assert!(last.last, "the final snapshot is marked last");
        let mut merged = Counters::default();
        for s in &snaps {
            merged.merge(&s.counters_delta);
        }
        let finals = obs.counters().expect("live handle");
        prop_assert_eq!(merged, finals,
            "concatenated deltas must reconcile with the final totals");
        prop_assert_eq!(last.counters_total, finals,
            "the last snapshot's running total is the end-of-run counter set");
    }
}

/// The tests that install sinks on the process-global registry hold
/// this lock, so neither sees the other's events.
static REGISTRY: Mutex<()> = Mutex::new(());

/// Two sweeps and one causal DAG into one installed `TraceSink`: the
/// file holds both sweeps' job spans (a flush rewrites everything seen
/// so far; it never drains) and the DAG's flows as equal, non-zero
/// counts of `s` and `f` endpoints. Installing sinks turns on no
/// snapshot sampling: a ring beside the trace sink sees job events
/// only.
#[test]
fn trace_sink_keeps_every_sweep_and_the_causal_flows() {
    let _registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join("vi_trace_sink_sweeps");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    let trace: Arc<dyn MonitorSink> = Arc::new(TraceSink::create(path.to_str().unwrap()).unwrap());
    let ring = Arc::new(RingSink::with_capacity(1 << 12));
    let ring_sink: Arc<dyn MonitorSink> = ring.clone();
    monitor::install_sink(trace.clone());
    monitor::install_sink(ring_sink.clone());

    let clique = catalog::scenario("clique").unwrap();
    let mut second = clique.clone();
    second.name = "clique_again".to_string();
    SweepRunner::new(2).run_matrix(std::slice::from_ref(&clique), &[1, 2]);
    SweepRunner::new(2).run_matrix(&[second], &[3]);
    let traced = clique.run_with(1, EngineTuning::DEFAULT.with_tracing());
    let dag = traced.causal.expect("tracing on");
    monitor::emit_global(&MonitorEvent::Causal(Box::new(dag)));
    monitor::flush_global();
    monitor::uninstall_sink(&trace);
    monitor::uninstall_sink(&ring_sink);

    let file: TraceFile = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let events = file.traceEvents;
    for job in ["clique#1", "clique#2", "clique_again#3"] {
        assert!(events.iter().any(|ev| ev.name == job), "{job} missing");
    }
    let phase = |ph: &str| events.iter().filter(|ev| ev.ph == ph).count();
    assert!(phase("s") > 0, "the DAG's flows are in the file");
    assert_eq!(phase("s"), phase("f"), "every flow has both ends");

    let events = ring.events();
    assert!(events.iter().any(|e| matches!(e, MonitorEvent::Job(_))));
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, MonitorEvent::Snapshot(_))),
        "an installed sink alone requests no snapshots"
    );
    std::fs::remove_file(&path).ok();
}

/// A traffic run's engine feeds only the causal and flight parts: with
/// telemetry and a 4-round monitor on, the engine-round counters stay
/// 0 in the outcome and in every snapshot, and the monitor samples the
/// driver's virtual rounds, never an engine round.
#[test]
fn a_traffic_runs_engine_feeds_no_counter_and_no_sample() {
    let _registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let spec = catalog::scenario("quake_drill").unwrap();
    let WorkloadSpec::Traffic { traffic, .. } = &spec.workload else {
        panic!("quake_drill is a traffic scenario");
    };
    let last_vr = traffic.virtual_rounds + traffic.timeout_rounds + 1;
    let ring = Arc::new(RingSink::with_capacity(1 << 12));
    let sink: Arc<dyn MonitorSink> = ring.clone();
    monitor::install_sink(sink.clone());
    let out = spec.run_with(1, EngineTuning::DEFAULT.with_telemetry().with_monitor(4));
    monitor::uninstall_sink(&sink);

    let engine_counts = |c: &Counters| {
        (
            c.rounds_total,
            c.rounds_steady,
            c.grid_queries,
            c.adversary_checks,
        )
    };
    let telemetry = out.telemetry.expect("telemetry was requested");
    assert_eq!(engine_counts(&telemetry.counters), (0, 0, 0, 0));
    assert!(out.rounds > last_vr, "the engine ran rounds of its own");
    let snaps: Vec<TelemetrySnapshot> = ring
        .events()
        .into_iter()
        .filter_map(|e| match e {
            MonitorEvent::Snapshot(s) => Some(*s),
            _ => None,
        })
        .collect();
    assert!(snaps.len() >= 2, "the monitor sampled the run");
    for s in &snaps {
        assert_eq!(
            engine_counts(&s.counters_total),
            (0, 0, 0, 0),
            "seq {}",
            s.seq
        );
        assert!(
            s.round <= last_vr,
            "seq {} sampled round {} past the last virtual round {last_vr}",
            s.seq,
            s.round
        );
    }
}
