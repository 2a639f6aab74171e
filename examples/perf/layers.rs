//! The per-layer metrics of the traced run.
//!
//! Layer = crate. Every number is taken from outside the crates: by
//! timing public calls (`SweepRunner`, `ScenarioSpec::validate`,
//! `World::run_virtual_rounds`, `Engine::step`, `vi_audit::audit`), by
//! reading the engine's own phase timers out of a `.with_telemetry()`
//! outcome, or from the spans of the mirror (`crate::mirror`).
//! `bench/README.md` says which end-to-end metric each should move, on
//! which workload.

use crate::measure::{median, ratio, timed};
use crate::mirror::{self, MirrorOutcome};
use crate::trace::{SpanTimes, Tracer};
use crate::{digest_of, Prepared};
use std::collections::BTreeMap;
use virtual_infra::audit::HistoryRecorder;
use virtual_infra::core::vi::{CounterAutomaton, World, WorldConfig};
use virtual_infra::radio::{Engine, EngineConfig, NodeSpec, Process, RoundCtx, RoundReception};
use virtual_infra::scenario::{
    AppKind, EngineTuning, ScenarioOutcome, ScenarioSpec, SweepRunner, WorkloadSpec,
};
use virtual_infra::telemetry::{LatencyHistogram, Phase};
use virtual_infra::traffic::{build_service, drive};

/// Runs of each untraced configuration, of the mirror, and of each
/// side of the audit probe; every ratio and mirror timing is a median
/// over this many.
const SIDE_RUNS: usize = 5;
/// Samples behind each microsecond-scale probe.
const PROBE_SAMPLES: usize = 25;
/// Virtual rounds the bare-emulation probe steps.
const VROUND_PROBE: u64 = 2_000;
/// Slotted rounds the idle-engine probe steps.
const IDLE_PROBE_ROUNDS: u64 = 50_000;

type Values = BTreeMap<String, f64>;

/// Measures every per-layer metric for one workload. Spans go to
/// `tracer`; the caller writes them out.
///
/// One repetition runs the workload untraced on the default path, with
/// one worker and with telemetry on, then through the mirror — side by
/// side, so that a slow minute on the box hits all four alike and the
/// ratios between them survive it. Every timing is the median over
/// `SIDE_RUNS` repetitions; every count must be the same in all.
pub fn measure(prepared: &Prepared, tracer: &Tracer) -> Result<BTreeMap<String, f64>, String> {
    let jobs = &prepared.jobs;
    // The intra-round workers the sweep runner would hand a mirrored
    // job (traffic jobs ignore them).
    let workers = if jobs.len() == 1 {
        prepared.runner.workers()
    } else {
        1
    };
    let mut reps: Vec<Values> = Vec::new();
    let mut counts = Values::new();
    let mut counters = Vec::new();
    for rep in 0..SIDE_RUNS {
        let mut sample = Values::new();
        let (default_wall, out) = timed(|| prepared.runner.run(jobs));
        prepared.same_digest(&out, "default-path run")?;
        let (one_worker_wall, out) =
            timed(|| SweepRunner::new(1).run_with(jobs, EngineTuning::with_workers(1)));
        prepared.same_digest(&out, "one-worker run")?;
        let (telemetry_wall, mut out) = timed(|| {
            prepared
                .runner
                .run_with(jobs, EngineTuning::DEFAULT.with_telemetry())
        });
        engine_telemetry(&out, &mut sample);
        // `TelemetrySummary` equality compares the deterministic
        // counters only: they must repeat exactly, and without them
        // the outcome must be the untraced one.
        let summaries: Vec<_> = out.iter_mut().map(|o| o.telemetry.take()).collect();
        prepared.same_digest(&out, "telemetry run")?;
        if rep > 0 && summaries != counters {
            return Err("telemetry counters changed between two runs of one seed".into());
        }
        counters = summaries;

        // The mirror, checked against the real outcomes.
        let first_span = tracer.len();
        let mut outcomes = Vec::new();
        for (j, (spec, seed)) in jobs.iter().enumerate() {
            tracer.begin_run((rep * jobs.len() + j) as u32);
            let m = mirror::run(spec, *seed, workers, tracer);
            m.check_against(&prepared.reference[j])?;
            outcomes.push(m);
        }
        let spans = tracer.times_from(first_span);
        let mirror_wall = spans["run"].total_ns as f64 / 1e9;
        sample.extend(mirror_timings(&spans, &outcomes, prepared));
        let c = mirror_counts(&outcomes, prepared);
        if rep > 0 && c != counts {
            return Err("mirror counts changed between two runs of one seed".into());
        }
        counts = c;

        sample.insert("radio.shard_speedup".into(), one_worker_wall / default_wall);
        sample.insert("telemetry.on_ratio".into(), telemetry_wall / default_wall);
        // Same execution shape on both sides: one job runs on the
        // default path, several run one after another like the
        // one-worker sweep.
        let base = if jobs.len() == 1 {
            default_wall
        } else {
            one_worker_wall
        };
        sample.insert("bench.trace_overhead_ratio".into(), mirror_wall / base);
        reps.push(sample);
    }
    let mut v: Values = reps[0]
        .keys()
        .map(|name| {
            let samples: Vec<f64> = reps.iter().map(|r| r[name]).collect();
            (name.clone(), median(&samples))
        })
        .collect();
    v.extend(counts);

    scenario_probes(prepared, &mut v);
    emulation_probes(prepared, &mut v);
    audit_probe(prepared, &mut v);
    Ok(v)
}

/// `radio.phase.*` and the deterministic engine counters, summed over
/// the jobs of one `.with_telemetry()` run. The traffic driver owns
/// its engine, so on the traffic workloads only the workload-level
/// counters (receptions, collisions) are non-zero.
fn engine_telemetry(outcomes: &[ScenarioOutcome], v: &mut Values) {
    let mut add = |name: &str, x: u64| *v.entry(name.into()).or_insert(0.0) += x as f64;
    for o in outcomes {
        let t = o.telemetry.as_ref().expect("telemetry was requested");
        for (phase, name) in [
            (Phase::Advance, "radio.phase.advance_us"),
            (Phase::Geometry, "radio.phase.geometry_us"),
            (Phase::Finalize, "radio.phase.finalize_us"),
            (Phase::Deliver, "radio.phase.deliver_us"),
        ] {
            add(name, t.phases.get(phase).map_or(0, |p| p.total_us));
        }
        let c = &t.counters;
        add("radio.rounds_steady", c.rounds_steady);
        add("radio.rounds_reanchor", c.rounds_reanchor);
        add("radio.rounds_churn", c.rounds_churn);
        add("radio.grid_queries", c.grid_queries);
        add("radio.receptions", c.receptions);
        add("radio.collisions", c.collisions);
    }
}

/// The wall-clock metrics of one mirror repetition (all jobs summed).
fn mirror_timings(
    spans: &BTreeMap<&'static str, SpanTimes>,
    outcomes: &[MirrorOutcome],
    prepared: &Prepared,
) -> Values {
    let total = |name: &str| spans.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
    let self_s = |name: &str| spans.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e9);
    let count = |name: &str| spans.get(name).map_or(0, |t| t.spans);
    let mut v = Values::new();
    let mut put = |name: &str, x: f64| {
        v.insert(name.into(), x);
    };
    put("scenario.build_s", total("scenario.build"));
    put("scenario.residual_share", self_s("run") / total("run"));
    put("radio.mobility_s", total("radio.mobility"));
    put(
        "contention.contend_s",
        total("contention.contend") + total("contention.observe"),
    );
    put("core.cha.transmit_s", total("core.cha.transmit"));
    put("core.cha.deliver_s", total("core.cha.deliver"));
    put("core.cha.checker_s", total("core.cha.checker"));
    put("traffic.build_service_s", total("traffic.build_service"));
    let mut step_s = 0.0;
    let mut steps = 0;
    for app in AppKind::all() {
        let span = mirror::step_span(app);
        put(&format!("traffic.step_round_s.{}", app.name()), total(span));
        step_s += total(span);
        steps += count(span);
    }
    put("traffic.step_round_s", step_s);
    put(
        "traffic.step_ns_per_round",
        ratio(step_s * 1e9, steps as f64),
    );
    put("traffic.submit_s", total("traffic.submit"));
    put("traffic.driver_self_s", self_s("traffic.drive"));
    put("audit.check_s", total("audit.check"));
    let audited_ops: u64 = outcomes
        .iter()
        .filter_map(|m| m.audit.as_ref())
        .map(|r| r.ops)
        .sum();
    put(
        "audit.ns_per_op",
        ratio(total("audit.check") * 1e9, audited_ops as f64),
    );
    put(
        "audit.rss_mb",
        outcomes.iter().map(|m| m.audit_rss_mib).sum(),
    );
    // On the CHA workloads the engine's own time is what is left of
    // each `Engine::step` span once the wrapped calls are taken out;
    // on the traffic workloads the engine is out of reach inside the
    // service and `emulation_probes` measures its fixed cost instead.
    if outcomes.iter().any(|m| m.cha.is_some()) {
        let node_rounds = prepared.ops.0 as f64;
        put("radio.step_self_s", self_s("radio.step"));
        put(
            "radio.ns_per_node_round",
            self_s("radio.step") * 1e9 / node_rounds,
        );
    }
    v
}

/// The counts of one mirror repetition: simulated, so they repeat
/// exactly for a seed.
fn mirror_counts(outcomes: &[MirrorOutcome], prepared: &Prepared) -> Values {
    let mut v = Values::new();
    let mut put = |name: &str, x: f64| {
        v.insert(name.into(), x);
    };
    let sum = |f: &dyn Fn(&MirrorOutcome) -> u64| outcomes.iter().map(f).sum::<u64>() as f64;
    let contends = sum(&|m| m.accs.contend.calls());
    put("radio.mobility_calls", sum(&|m| m.accs.mobility.calls()));
    put("contention.calls", contends);
    put(
        "contention.active_share",
        ratio(sum(&|m| m.accs.active.get()), contends),
    );
    let cha: Vec<_> = outcomes.iter().filter_map(|m| m.cha).collect();
    put(
        "core.cha.outputs",
        cha.iter().map(|c| c.0).sum::<usize>() as f64,
    );
    put(
        "core.cha.violations_out_of_model",
        cha.iter().map(|c| c.1).sum::<usize>() as f64,
    );
    put("core.cha.decided_share", cha.first().map_or(0.0, |c| c.2));

    let traffic: Vec<_> = outcomes.iter().filter_map(|m| m.traffic.as_ref()).collect();
    let issued: u64 = traffic.iter().map(|t| t.issued).sum();
    let completed: u64 = traffic.iter().map(|t| t.completed).sum();
    let mut latency = LatencyHistogram::new();
    for t in &traffic {
        latency.merge(&t.latency);
    }
    put("traffic.issued", issued as f64);
    put("traffic.completed", completed as f64);
    put(
        "traffic.timed_out",
        traffic.iter().map(|t| t.timed_out).sum::<u64>() as f64,
    );
    put(
        "traffic.complete_share",
        ratio(completed as f64, issued as f64),
    );
    let quantile = |q: u64| if completed == 0 { 0.0 } else { q as f64 };
    put("traffic.latency_vr_p50", quantile(latency.p50()));
    put("traffic.latency_vr_p99", quantile(latency.p99()));

    // What the `Service` boundary shows of vi-core's emulation.
    let emulated: Vec<_> = prepared
        .reference
        .iter()
        .filter(|o| o.traffic.is_some())
        .collect();
    put(
        "core.vi.joins",
        emulated.iter().map(|o| o.vn_joins).sum::<u64>() as f64,
    );
    put(
        "core.vi.resets",
        emulated.iter().map(|o| o.vn_resets).sum::<u64>() as f64,
    );
    put(
        "core.vi.green_share",
        ratio(
            emulated.iter().map(|o| o.decided_fraction).sum(),
            emulated.len() as f64,
        ),
    );

    let reports: Vec<_> = outcomes.iter().filter_map(|m| m.audit.as_ref()).collect();
    put(
        "audit.ops",
        reports.iter().map(|r| r.ops).sum::<u64>() as f64,
    );
    put(
        "audit.info_ops",
        reports.iter().map(|r| r.timeouts).sum::<u64>() as f64,
    );
    put(
        "audit.events",
        outcomes
            .iter()
            .filter(|m| m.audit.is_some())
            .map(|m| m.history_events)
            .sum::<usize>() as f64,
    );
    v
}

/// vi-scenario's own costs: validation and the two JSON trips.
fn scenario_probes(prepared: &Prepared, v: &mut Values) {
    let specs: Vec<&ScenarioSpec> = prepared.jobs.iter().map(|(s, _)| s).collect();
    let micros = |f: &dyn Fn()| {
        let samples: Vec<f64> = (0..PROBE_SAMPLES).map(|_| timed(f).0 * 1e6).collect();
        median(&samples)
    };
    v.insert(
        "scenario.validate_us".into(),
        micros(&|| {
            for s in &specs {
                s.validate().expect("validated in set-up");
            }
        }),
    );
    v.insert(
        "scenario.spec_json_us".into(),
        micros(&|| {
            for s in &specs {
                let json = serde_json::to_string(s).expect("specs serialise");
                let back: ScenarioSpec = serde_json::from_str(&json).expect("and parse back");
                std::hint::black_box(back);
            }
        }),
    );
    v.insert(
        "scenario.outcome_json_us".into(),
        micros(&|| {
            std::hint::black_box(digest_of(&prepared.reference));
        }),
    );
}

/// A process that never transmits: what is left of `Engine::step` is
/// the engine's fixed per-round cost.
struct Idle;

impl Process<()> for Idle {
    fn transmit(&mut self, _ctx: &RoundCtx) -> Option<()> {
        None
    }
    fn deliver(&mut self, _ctx: &RoundCtx, _rx: RoundReception<'_, ()>) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// On the traffic workloads, vi-core's emulation and the engine under
/// it are inside the `Service`; two probes on the same deployment
/// show them alone: `World::run_virtual_rounds(1)` with the counter
/// automaton (emulation without app or driver) and `Engine::step` with
/// idle processes (the engine's fixed per-round cost, scaled to the
/// slotted rounds the workload ran).
fn emulation_probes(prepared: &Prepared, v: &mut Values) {
    let mut vround_us = Vec::new();
    let mut rounds_per_vr = 0.0;
    let mut idle_step_s = 0.0;
    let mut idle_node_rounds = 0.0;
    for ((spec, seed), outcome) in prepared.jobs.iter().zip(&prepared.reference) {
        let WorkloadSpec::Traffic { layout, .. } = &spec.workload else {
            continue;
        };
        let mut world = World::new(WorldConfig {
            radio: spec.radio,
            layout: layout.build(),
            automaton: CounterAutomaton,
            seed: *seed,
            record_trace: false,
        });
        for device in mirror::traffic_world(spec, *seed, None).devices {
            world.add_device(device.mobility, None);
        }
        rounds_per_vr = world.plan().rounds_per_vr() as f64;
        vround_us.extend((0..VROUND_PROBE).map(|_| timed(|| world.run_virtual_rounds(1)).0 * 1e6));

        let mut engine: Engine<()> = Engine::new(EngineConfig {
            radio: spec.radio,
            seed: *seed,
            record_trace: false,
        });
        for device in mirror::traffic_world(spec, *seed, None).devices {
            engine.add_node(NodeSpec::new(device.mobility, Box::new(Idle)));
        }
        let probe_rounds = outcome.rounds.min(IDLE_PROBE_ROUNDS);
        let (wall, ()) = timed(|| engine.run(probe_rounds));
        idle_step_s += wall / probe_rounds as f64 * outcome.rounds as f64;
        idle_node_rounds += (outcome.rounds * outcome.nodes as u64) as f64;
    }
    let traffic = !vround_us.is_empty();
    v.insert(
        "core.vi.vround_us".into(),
        if traffic { median(&vround_us) } else { 0.0 },
    );
    v.insert("core.vi.rounds_per_vr".into(), rounds_per_vr);
    if traffic {
        v.insert("radio.step_self_s".into(), idle_step_s);
        v.insert(
            "radio.ns_per_node_round".into(),
            idle_step_s * 1e9 / idle_node_rounds,
        );
    }
}

/// What keeping the history costs the driver: `HistoryRecorder::record`
/// against the same service driven with nothing recorded. Zero on
/// workloads that do not audit.
fn audit_probe(prepared: &Prepared, v: &mut Values) {
    let mut overhead = 0.0;
    for (spec, seed) in &prepared.jobs {
        let WorkloadSpec::Traffic {
            app,
            traffic,
            audit: true,
            ..
        } = &spec.workload
        else {
            continue;
        };
        let world = || mirror::traffic_world(spec, *seed, None);
        let mut recorded = Vec::new();
        let mut unrecorded = Vec::new();
        for _ in 0..SIDE_RUNS {
            recorded.push(timed(|| HistoryRecorder::record(*app, world(), traffic)).0);
            unrecorded.push(
                timed(|| {
                    let mut service = build_service(*app, world(), traffic.clients);
                    drive(service.as_mut(), traffic, *seed)
                })
                .0,
            );
        }
        overhead += median(&recorded) - median(&unrecorded);
    }
    v.insert("audit.record_overhead_s".into(), overhead);
}
