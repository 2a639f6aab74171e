//! The traced mirror: the same execution `ScenarioSpec::run_with`
//! performs, reassembled here from public constructors so that a
//! timing wrapper sits at every layer boundary.
//!
//! Nothing inside the crates is touched. The price is that this file
//! repeats what `vi_scenario::compile` does (`run_cha`, `run_traffic`),
//! so every mirrored run is checked against the real outcome for the
//! same spec and seed: if channel statistics, traffic summary or audit
//! verdict differ, the trace describes another program and the run
//! fails (see [`MirrorOutcome::check_against`]).

use crate::trace::{Acc, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::rc::Rc;
use virtual_infra::audit::{audit, AuditReport, History};
use virtual_infra::contention::{
    Advice, BackoffCm, BackoffConfig, ChannelFeedback, CmSlot, ContentionManager, OracleCm,
    SharedCm,
};
use virtual_infra::core::cha::{ChaMessage, ChaNode, ChaSpecChecker, TaggedProposer};
use virtual_infra::radio::geometry::Point;
use virtual_infra::radio::mobility::MobilityModel;
use virtual_infra::radio::trace::ChannelStats;
use virtual_infra::radio::{
    Engine, EngineConfig, NodeId, NodeSpec, Process, RoundCtx, RoundReception,
};
use virtual_infra::scenario::{AppKind, CmSpec, ScenarioOutcome, ScenarioSpec, WorkloadSpec};
use virtual_infra::telemetry::{CausalRecorder, FlightRecorder};
use virtual_infra::traffic::{
    build_service, drive_recorded, AuditRecord, Completion, DevicePlan, OpDesc, Request, Service,
    TrafficSummary, TrafficWorld,
};

/// `vi_scenario::compile::PLACEMENT_SALT` (private there): separates
/// the placement RNG stream from the engine's. A drift shows up as a
/// failed faithfulness check, never as a silently different city.
const PLACEMENT_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// The accumulators the per-call wrappers of one mirrored job add into.
#[derive(Default)]
pub struct Accs {
    pub transmit: Acc,
    pub deliver: Acc,
    pub mobility: Acc,
    pub contend: Acc,
    pub observe: Acc,
    /// `Service` calls of the driver other than `step_round`:
    /// `submit`, `forget`, `drain_audit`.
    pub submit: Acc,
    /// `contend` calls answered `Active`.
    pub active: std::cell::Cell<u64>,
}

/// `Process` wrapper timing `transmit` and `deliver`. `as_any`
/// delegates, so `Engine::process::<P>` still finds the inner process.
struct Timed<P> {
    inner: P,
    accs: Rc<Accs>,
}

impl<M, P: Process<M>> Process<M> for Timed<P> {
    fn transmit(&mut self, ctx: &RoundCtx) -> Option<M> {
        self.accs.transmit.time(|| self.inner.transmit(ctx))
    }

    fn deliver(&mut self, ctx: &RoundCtx, rx: RoundReception<'_, M>) {
        self.accs.deliver.time(|| self.inner.deliver(ctx, rx));
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// `MobilityModel` wrapper timing `advance`.
struct TimedMobility {
    inner: Box<dyn MobilityModel>,
    accs: Rc<Accs>,
}

impl MobilityModel for TimedMobility {
    fn advance(&mut self, round: u64, rng: &mut StdRng) -> Point {
        self.accs.mobility.time(|| self.inner.advance(round, rng))
    }

    fn vmax(&self) -> f64 {
        self.inner.vmax()
    }

    fn is_settled(&self) -> bool {
        self.inner.is_settled()
    }
}

/// `ContentionManager` wrapper timing `contend` and `observe`.
struct TimedCm<C> {
    inner: C,
    accs: Rc<Accs>,
}

impl<C: ContentionManager> ContentionManager for TimedCm<C> {
    fn register(&mut self) -> CmSlot {
        self.inner.register()
    }

    fn contend(&mut self, slot: CmSlot, round: u64, pos: Point) -> Advice {
        let advice = self
            .accs
            .contend
            .time(|| self.inner.contend(slot, round, pos));
        if advice.is_active() {
            self.accs.active.set(self.accs.active.get() + 1);
        }
        advice
    }

    fn observe(&mut self, slot: CmSlot, round: u64, feedback: ChannelFeedback) {
        self.accs
            .observe
            .time(|| self.inner.observe(slot, round, feedback));
    }
}

/// `Service` wrapper: one span per `step_round`, the driver's other
/// calls accumulated.
struct TimedService {
    inner: Box<dyn Service>,
    tracer: Tracer,
    accs: Rc<Accs>,
    step_span: &'static str,
}

impl Service for TimedService {
    fn app(&self) -> AppKind {
        self.inner.app()
    }

    fn clients(&self) -> usize {
        self.inner.clients()
    }

    fn submit(&mut self, client: usize, req: &Request) -> OpDesc {
        self.accs.submit.time(|| self.inner.submit(client, req))
    }

    fn step_round(&mut self) -> Vec<Completion> {
        let span = self.tracer.enter(self.step_span);
        let completions = self.inner.step_round();
        self.tracer.aggregate("radio.mobility", &self.accs.mobility);
        self.tracer.exit(span);
        completions
    }

    fn drain_audit(&mut self) -> Vec<AuditRecord> {
        self.accs.submit.time(|| self.inner.drain_audit())
    }

    fn set_telemetry(&mut self, causal: CausalRecorder, flight: FlightRecorder) {
        self.inner.set_telemetry(causal, flight);
    }

    fn forget(&mut self, id: u64) {
        self.accs.submit.time(|| self.inner.forget(id));
    }

    fn virtual_round(&self) -> u64 {
        self.inner.virtual_round()
    }

    fn stats(&self) -> ChannelStats {
        self.inner.stats()
    }

    fn world_totals(&self) -> virtual_infra::traffic::service::WorldTotals {
        self.inner.world_totals()
    }
}

/// What a mirrored job produced, in the terms `ScenarioOutcome` uses.
pub struct MirrorOutcome {
    pub stats: ChannelStats,
    pub traffic: Option<TrafficSummary>,
    pub audit: Option<AuditReport>,
    /// CHA: `(outputs checked, safety violations, decided fraction)`.
    pub cha: Option<(usize, usize, f64)>,
    /// Audited runs: events in the recorded history.
    pub history_events: usize,
    /// Audited runs: peak-RSS rise across `vi_audit::audit`, in MiB.
    pub audit_rss_mib: f64,
    pub accs: Rc<Accs>,
}

impl MirrorOutcome {
    /// The faithfulness check: this mirror and the real run of the
    /// same `(spec, seed)` must agree on everything both can see.
    pub fn check_against(&self, real: &ScenarioOutcome) -> Result<(), String> {
        let mine = (
            self.stats.rounds,
            self.stats.broadcasts,
            self.stats.deliveries,
            self.stats.collision_reports,
        );
        let theirs = (
            real.rounds,
            real.broadcasts,
            real.deliveries,
            real.collision_reports,
        );
        if mine != theirs {
            return Err(format!(
                "{}: mirror channel stats (rounds, broadcasts, deliveries, collisions) \
                 {mine:?} differ from the program's {theirs:?}",
                real.scenario
            ));
        }
        if self.traffic != real.traffic {
            return Err(format!("{}: mirror traffic summary differs", real.scenario));
        }
        if self.audit != real.audit {
            return Err(format!("{}: mirror audit verdict differs", real.scenario));
        }
        if let Some((outputs, violations, decided)) = self.cha {
            if outputs != real.outputs_checked
                || violations != real.safety_violations()
                || decided != real.decided_fraction
            {
                return Err(format!("{}: mirror CHA verdicts differ", real.scenario));
            }
        }
        Ok(())
    }
}

/// Runs `spec` with `seed` through the mirror, one `run` span with a
/// child span per layer call. `workers` is the intra-round worker
/// count the sweep runner would hand this job.
pub fn run(spec: &ScenarioSpec, seed: u64, workers: usize, tracer: &Tracer) -> MirrorOutcome {
    tracer.scope("run", || match &spec.workload {
        WorkloadSpec::ChaClique { instances } => run_cha(spec, seed, *instances, workers, tracer),
        WorkloadSpec::Traffic { .. } => run_traffic(spec, seed, tracer),
        other => panic!("the mirror covers the benchmark's workloads only, not {other:?}"),
    })
}

/// Start positions and mobility models in deployment order (what every
/// `run_*` of the compiler begins with), each model inside a timing
/// wrapper when `accs` is given. The benchmark's specs deploy everyone
/// at round 0 and script no crash; the mirror refuses anything else
/// rather than guess.
fn deployment(
    spec: &ScenarioSpec,
    seed: u64,
    accs: Option<&Rc<Accs>>,
) -> Vec<(Point, Box<dyn MobilityModel>)> {
    let mut place_rng = StdRng::seed_from_u64(seed ^ PLACEMENT_SALT);
    let mut devices = Vec::with_capacity(spec.node_count());
    for pop in &spec.populations {
        assert!(
            pop.spawn_at == 0 && pop.spawn_stride == 0 && pop.crash_at.is_none(),
            "the mirror covers populations deployed at round 0 that never crash"
        );
        for j in 0..pop.count {
            let start = pop.placement.position(j, spec.arena, &mut place_rng);
            let inner = pop.mobility.build(start, spec.arena);
            let mobility = match accs {
                Some(accs) => Box::new(TimedMobility {
                    inner,
                    accs: Rc::clone(accs),
                }),
                None => inner,
            };
            devices.push((start, mobility));
        }
    }
    devices
}

fn timed_cm<C: ContentionManager + 'static>(inner: C, accs: &Rc<Accs>) -> SharedCm {
    SharedCm::new(TimedCm {
        inner,
        accs: Rc::clone(accs),
    })
}

/// `ScenarioSpec::run_cha`, instrumented.
fn run_cha(
    spec: &ScenarioSpec,
    seed: u64,
    instances: u64,
    workers: usize,
    tracer: &Tracer,
) -> MirrorOutcome {
    let accs = Rc::new(Accs::default());
    let rounds = instances * 3;
    let mut ids: Vec<NodeId> = Vec::with_capacity(spec.node_count());
    let mut engine: Engine<ChaMessage<u64>> = tracer.scope("scenario.build", || {
        let mut engine = Engine::new(EngineConfig {
            radio: spec.radio,
            seed,
            record_trace: false,
        });
        if workers >= 2 {
            engine.set_workers(workers);
        }
        engine.set_adversary(spec.nemesis.compile_adversary(&spec.adversary).build());
        let cm = match &spec.cm {
            CmSpec::Backoff => timed_cm(BackoffCm::new(BackoffConfig::default(), seed), &accs),
            CmSpec::Oracle { stabilize_at, pre } => {
                timed_cm(OracleCm::new(*stabilize_at, *pre, seed), &accs)
            }
        };
        for (tag, (_, mobility)) in deployment(spec, seed, Some(&accs)).into_iter().enumerate() {
            let node = Timed {
                inner: ChaNode::<u64>::new(Box::new(TaggedProposer::new(tag as u64)), cm.clone()),
                accs: Rc::clone(&accs),
            };
            ids.push(engine.add_node(NodeSpec::new(mobility, Box::new(node))));
        }
        engine
    });

    for _ in 0..rounds {
        let span = tracer.enter("radio.step");
        engine.step();
        // `ChaNode::transmit` calls `contend` and `deliver` calls
        // `observe`: hand that time to the manager, once.
        accs.transmit.discount(accs.contend.ns());
        accs.deliver.discount(accs.observe.ns());
        tracer.aggregate("radio.mobility", &accs.mobility);
        tracer.aggregate("core.cha.transmit", &accs.transmit);
        tracer.aggregate("core.cha.deliver", &accs.deliver);
        tracer.aggregate("contention.contend", &accs.contend);
        tracer.aggregate("contention.observe", &accs.observe);
        tracer.exit(span);
    }

    // Recording and the four checks exactly as `run_cha` performs
    // them (every node deploys at round 0, so all are genesis nodes).
    let cha = tracer.scope("core.cha.checker", || {
        let mut checker = ChaSpecChecker::new();
        let mut decided = 0usize;
        let mut total = 0usize;
        for (node, &id) in ids.iter().enumerate() {
            let p = engine.process::<ChaNode<u64>>(id).expect("cha node");
            for &(k, v) in p.proposals() {
                checker.record_proposal(k, v);
            }
            for out in p.outputs() {
                checker.record_output(node, out);
                total += 1;
                decided += usize::from(out.decided());
            }
        }
        let violations = checker.check_validity().len()
            + checker.check_agreement().len()
            + checker.check_color_spread().len();
        let _ = checker.liveness_kst();
        let decided_fraction = crate::measure::ratio(decided as f64, total as f64);
        (checker.output_count(), violations, decided_fraction)
    });
    let stats = *engine.stats();
    // The program frees its engine inside the timed run too.
    tracer.scope("scenario.teardown", || drop(engine));
    MirrorOutcome {
        stats,
        traffic: None,
        audit: None,
        cha: Some(cha),
        history_events: 0,
        audit_rss_mib: 0.0,
        accs,
    }
}

/// The span name of `app`'s `Service::step_round` calls.
pub fn step_span(app: AppKind) -> &'static str {
    match app {
        AppKind::Register => "traffic.step_round.register",
        AppKind::Mutex => "traffic.step_round.mutex",
        AppKind::Tracking => "traffic.step_round.tracking",
        AppKind::Georouting => "traffic.step_round.georouting",
    }
}

/// The world `ScenarioSpec::run_traffic` hands the traffic driver, its
/// mobility models inside timing wrappers when `accs` is given.
pub fn traffic_world(spec: &ScenarioSpec, seed: u64, accs: Option<&Rc<Accs>>) -> TrafficWorld {
    let WorkloadSpec::Traffic {
        layout, traffic, ..
    } = &spec.workload
    else {
        panic!("{} is not a traffic scenario", spec.name);
    };
    let mut devices: Vec<DevicePlan> = deployment(spec, seed, accs)
        .into_iter()
        .map(|(start, mobility)| DevicePlan {
            start,
            mobility,
            spawn_at: None,
            crash_at: None,
        })
        .collect();
    spec.nemesis.apply_crashes(&mut devices, traffic.clients);
    TrafficWorld {
        radio: spec.radio,
        layout: layout.build(),
        seed,
        adversary: spec.nemesis.compile_adversary(&spec.adversary),
        devices,
    }
}

/// `ScenarioSpec::run_traffic`, instrumented. The program records the
/// operation history whether or not it audits it, so the mirror drives
/// through `drive_recorded` in both cases.
fn run_traffic(spec: &ScenarioSpec, seed: u64, tracer: &Tracer) -> MirrorOutcome {
    let WorkloadSpec::Traffic {
        app,
        traffic,
        audit: audited,
        ..
    } = &spec.workload
    else {
        unreachable!("dispatched on the workload");
    };
    let accs = Rc::new(Accs::default());
    let world = tracer.scope("scenario.build", || traffic_world(spec, seed, Some(&accs)));
    let mut service = tracer.scope("traffic.build_service", || TimedService {
        inner: build_service(*app, world, traffic.clients),
        tracer: tracer.clone(),
        accs: Rc::clone(&accs),
        step_span: step_span(*app),
    });
    let (summary, events) = tracer.scope("traffic.drive", || {
        let driven = drive_recorded(&mut service, traffic, seed);
        tracer.aggregate("traffic.submit", &accs.submit);
        driven
    });
    let stats = service.stats();
    let history = History::from_events(*app, events);
    let history_events = history.len();
    let (report, audit_rss_mib) = if *audited {
        // The set-up runs already pushed the process peak to the
        // audit's level; reset the mark to see this call's own rise.
        let reset = crate::measure::reset_peak_rss();
        let before = crate::measure::peak_rss_mib();
        let report = tracer.scope("audit.check", || audit(&history));
        let rise = crate::measure::peak_rss_mib() - before;
        (Some(report), if reset { rise } else { 0.0 })
    } else {
        (None, 0.0)
    };
    tracer.scope("scenario.teardown", || drop((service, history)));
    MirrorOutcome {
        stats,
        traffic: Some(summary),
        audit: report,
        cha: None,
        history_events,
        audit_rss_mib,
        accs,
    }
}
