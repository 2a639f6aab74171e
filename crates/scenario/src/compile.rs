//! The scenario compiler: `ScenarioSpec × seed → execution → outcome`.
//!
//! [`ScenarioSpec::run`] builds the deployment the spec describes —
//! a [`vi_radio::Engine`] running CHA nodes, or a
//! [`vi_core::vi::World`] emulating virtual nodes — executes it, and
//! extracts a uniform [`ScenarioOutcome`] row. Runs are deterministic:
//! identical `(spec, seed)` pairs produce identical outcomes, no
//! matter which thread executes them (every run owns its engine and
//! all of its RNG state).
//!
//! Every workload is the same pipeline: [`ScenarioSpec::deployment`]
//! places the devices, the workload's `run_*` builds and runs its
//! engine or world over them under the run's one
//! [`vi_telemetry::Observers`] handle, and [`ScenarioSpec::run_with`]
//! collects what the observers saw into the outcome.

use crate::incident::{file_stem, IncidentBundle, IncidentReason};
use crate::spec::{ScenarioSpec, SpecError, SpecErrorKind, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;
use vi_audit::{audit_register_ops, AuditReport, Auditor};
use vi_baselines::{collect_register_ops, MajRegMessage, MajorityRegister};
use vi_core::cha::{ChaMessage, ChaNode, ChaOutput, ChaSpecStream, TaggedProposer};
use vi_core::vi::{CounterAutomaton, World, WorldConfig};
use vi_radio::trace::ChannelStats;
use vi_radio::{
    Adversary, Engine, EngineConfig, NodeId, NodeSpec, Process, ScriptedAdversary, WireSized,
};
use vi_telemetry::{monitor, CausalSummary, Monitor, Observers, Phase, SinkSet, TelemetrySummary};
use vi_traffic::{AppKind, DevicePlan, TrafficSpec, TrafficSummary, TrafficWorld};

/// Salt separating the placement RNG stream from the engine's seed
/// stream (so random placement never perturbs channel resolution).
const PLACEMENT_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Every node's outputs in a [`WorkloadSpec::ChaClique`] run, by node.
pub type NodeOutputs = Vec<Vec<ChaOutput<u64>>>;

/// Execution tuning for a scenario run: which observers ride along.
/// How a round is resolved is not tunable — it runs on the thread
/// that steps the engine.
///
/// Tuning is **not** part of the scenario: for any fixed `(spec,
/// seed)` every tuning produces a byte-identical [`ScenarioOutcome`]
/// (the telemetry, incident-replay and sweep-runner tests assert
/// this); only wall-clock changes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineTuning {
    /// Record telemetry for this run: deterministic counters plus
    /// wall-clock phase timers, surfaced as
    /// [`ScenarioOutcome::telemetry`]. Off by default — the disabled
    /// path costs one branch per instrumentation site. Enabling
    /// telemetry never changes receptions, traces, or the RNG stream.
    pub telemetry: bool,
    /// Record causal tracing for this run: trace spans for every
    /// protocol broadcast, client op, and CHA propose/decide, plus
    /// reception edges between them, surfaced as
    /// [`ScenarioOutcome::causal`]. Trace ids come from a dedicated
    /// SplitMix64 stream, so tracing never perturbs the simulation:
    /// receptions, counters, and the RNG stream stay byte-identical.
    pub tracing: bool,
    /// Flight-recorder window: retain the last `flight_rounds` rounds
    /// of structured engine events and dump an [`IncidentBundle`] when
    /// the run ends in a checker violation, a liveness stall, or a
    /// panic. `0` (the default) disables the recorder.
    pub flight_rounds: usize,
    /// Live-monitoring sample period in rounds: emit a
    /// `TelemetrySnapshot` to the run's monitor sinks each
    /// `monitor_every` rounds. `0` (the default) defers to the
    /// environment (`VI_MONITOR_LOG` / `VI_MONITOR_ADDR` /
    /// `VI_MONITOR_EVERY`); a run only samples when it has at least
    /// one sink. Monitoring rides the wall-clock side: a monitored
    /// run's [`ScenarioOutcome`] is byte-identical to an unmonitored
    /// run's.
    pub monitor_every: u64,
}

impl EngineTuning {
    /// The default execution: telemetry, tracing, flight recording
    /// and monitoring off.
    pub const DEFAULT: EngineTuning = EngineTuning {
        telemetry: false,
        tracing: false,
        flight_rounds: 0,
        monitor_every: 0,
    };

    /// Returns [`EngineTuning::DEFAULT`] whatever the argument: there
    /// is no intra-round worker count to tune. Kept only because the
    /// frozen benchmark sources under `examples/perf/` call it; the
    /// benchmark-only PR that deletes the mirror deletes it too.
    #[doc(hidden)]
    pub fn with_workers(_: usize) -> Self {
        Self::DEFAULT
    }

    /// This tuning with telemetry recording on.
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// This tuning with causal tracing on.
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// This tuning with a `k`-round flight-recorder window.
    pub fn with_flight(mut self, k: usize) -> Self {
        self.flight_rounds = k;
        self
    }

    /// This tuning with live monitoring sampling every `every` rounds
    /// (snapshots still require at least one sink).
    pub fn with_monitor(mut self, every: u64) -> Self {
        self.monitor_every = every;
        self
    }

    /// The observer handle of one run of `spec`, built once: null
    /// unless something observes; the monitor rides along when a
    /// sampling period is in effect and `sinks` is not empty, the
    /// causal and flight recorders when asked for. A traffic
    /// workload's engine feeds only the recorders.
    fn observers(&self, spec: &ScenarioSpec, seed: u64, sinks: &SinkSet) -> Observers {
        let every = monitor::env().every(self.monitor_every);
        let monitored = every > 0 && !sinks.is_empty();
        if !(self.telemetry || self.tracing || self.flight_rounds > 0 || monitored) {
            return Observers::default();
        }
        let traffic = matches!(spec.workload, WorkloadSpec::Traffic { .. });
        let mut obs = Observers::new(traffic).with_flight(self.flight_rounds);
        if self.tracing {
            obs = obs.with_causal(seed);
        }
        if monitored {
            obs = obs.with_monitor(Monitor::new(&spec.name, seed, every, sinks.clone()));
        }
        obs
    }
}

/// One row of a sweep result table: everything measured about one
/// `(scenario, seed)` run. Serializable, so whole result tables can be
/// compared byte-for-byte and shipped as bench artifacts.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Simulation seed.
    pub seed: u64,
    /// Nodes deployed.
    pub nodes: usize,
    /// Real (slotted) rounds executed.
    pub rounds: u64,
    /// Total broadcast attempts.
    pub broadcasts: u64,
    /// Total successful deliveries to other nodes.
    pub deliveries: u64,
    /// Total collision indications reported.
    pub collision_reports: u64,
    /// Largest message broadcast, in bytes.
    pub max_message_bytes: usize,
    /// CHA outputs fed to the specification checker (0 for VI runs).
    pub outputs_checked: usize,
    /// Validity violations found by the checker.
    pub validity_violations: usize,
    /// Agreement violations found by the checker.
    pub agreement_violations: usize,
    /// Color-spread (Property 4) violations found by the checker.
    pub spread_violations: usize,
    /// Fraction of (node, instance) outcomes that decided; for VI
    /// runs, the fraction of green virtual rounds.
    pub decided_fraction: f64,
    /// Measured stabilization: the checker's liveness instance `kst`
    /// (CHA runs only; `None` if the run never stabilized).
    pub stabilized_kst: Option<u64>,
    /// Virtual-node join transfers (VI runs; 0 for CHA).
    pub vn_joins: u64,
    /// Virtual-node state losses / resets (VI runs; 0 for CHA).
    pub vn_resets: u64,
    /// Client-traffic metrics (traffic workloads only).
    pub traffic: Option<TrafficSummary>,
    /// Consistency-audit verdicts (audited traffic workloads only).
    pub audit: Option<AuditReport>,
    /// Telemetry (counters + phase timers), present only when the run
    /// was executed with [`EngineTuning::telemetry`]. Its equality
    /// compares deterministic counters only, so outcome comparisons
    /// across worker counts tolerate wall-clock jitter.
    pub telemetry: Option<TelemetrySummary>,
    /// The causal DAG and decision timelines, present only when the
    /// run was executed with [`EngineTuning::tracing`]. Fully
    /// deterministic: byte-identical at any worker count.
    pub causal: Option<CausalSummary>,
    /// The incident bundle, present only when the run had a flight
    /// recorder ([`EngineTuning::flight_rounds`] > 0) **and** ended in
    /// a checker violation or a liveness stall.
    pub incident: Option<IncidentBundle>,
}

impl ScenarioOutcome {
    /// Total safety violations (validity + agreement + color spread).
    pub fn safety_violations(&self) -> usize {
        self.validity_violations + self.agreement_violations + self.spread_violations
    }
}

impl ScenarioSpec {
    /// Compiles and executes this scenario with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid (see [`ScenarioSpec::validate`];
    /// the sweep runner validates up front).
    pub fn run(&self, seed: u64) -> ScenarioOutcome {
        self.run_with(seed, EngineTuning::DEFAULT)
    }

    /// Like [`ScenarioSpec::run`], but under the given
    /// [`EngineTuning`].
    ///
    /// The tuning is an execution parameter, **not** part of the
    /// scenario: outcomes are byte-identical under every tuning, only
    /// wall-clock differs. Every layer of the run holds a clone of one
    /// observer handle. In a traffic workload, built inside
    /// `vi-traffic`, the engine feeds only the causal and flight
    /// recorders: its telemetry holds workload-level counters (the
    /// round-mode ones stay zero), and the monitor samples the traffic
    /// driver's virtual rounds, not the engine's.
    ///
    /// With [`EngineTuning::flight_rounds`] > 0, a run ending in a
    /// checker violation or a liveness stall attaches an
    /// [`IncidentBundle`] to the outcome; a run that *panics* writes
    /// the bundle to `$VI_INCIDENT_DIR/incident_<scenario>_<seed>.json`
    /// (when that variable is set) before resuming the unwind.
    ///
    /// A monitored run samples into the environment's sinks; one run
    /// by a [`crate::SweepRunner`] samples into the runner's.
    pub fn run_with(&self, seed: u64, tuning: EngineTuning) -> ScenarioOutcome {
        self.run_in(seed, tuning, &monitor::env().sinks)
    }

    /// [`ScenarioSpec::run_with`], sampling into `sinks`.
    pub(crate) fn run_in(
        &self,
        seed: u64,
        tuning: EngineTuning,
        sinks: &SinkSet,
    ) -> ScenarioOutcome {
        let obs = tuning.observers(self, seed, sinks);
        let mut out = if tuning.flight_rounds > 0 {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.dispatch(seed, &obs)
            }));
            match run {
                Ok(out) => out,
                Err(payload) => {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    let bundle = IncidentBundle::assemble(
                        self,
                        seed,
                        tuning,
                        IncidentReason::Panic { message },
                        obs.flight_window(),
                        obs.causal_summary(),
                        None,
                    );
                    if let Some(dir) = &monitor::env().incident_dir {
                        let stem = file_stem(&self.name);
                        let path = dir.join(format!("incident_{stem}_{seed}.json"));
                        if let Err(e) = bundle.save(&path) {
                            eprintln!("warning: could not write {}: {e}", path.display());
                        }
                    }
                    std::panic::resume_unwind(payload);
                }
            }
        } else {
            self.dispatch(seed, &obs)
        };
        if tuning.telemetry {
            out.telemetry = obs.summary();
        }
        // The final snapshot (marked `last`) lands after the checker
        // phase and the workload-level counters, so it reconciles with
        // the run's telemetry summary exactly.
        obs.finish();
        out.causal = obs.causal_summary();
        if tuning.flight_rounds > 0 {
            let reason =
                if out.audit.as_ref().is_some_and(|r| !r.ok()) || out.safety_violations() > 0 {
                    Some(IncidentReason::Violation)
                } else if out.traffic.as_ref().is_some_and(TrafficSummary::stalled) {
                    Some(IncidentReason::LivenessStall)
                } else {
                    None
                };
            if let Some(reason) = reason {
                out.incident = Some(IncidentBundle::assemble(
                    self,
                    seed,
                    tuning,
                    reason,
                    obs.flight_window(),
                    out.causal.clone(),
                    out.audit.clone(),
                ));
            }
        }
        out
    }

    /// The deployment this spec describes for `seed`, one
    /// [`DevicePlan`] per node in population order: start position
    /// (drawn from the placement RNG stream, which is salted apart
    /// from the engine's), mobility model, and the population's
    /// scripted spawn and crash rounds. Nemesis crash bursts are *not*
    /// folded in; the two device workloads apply
    /// `NemesisSpec::apply_crashes` on top (validation rejects crash
    /// bursts on the other two).
    ///
    /// What each workload reads of it:
    ///
    /// * `ChaClique` — everything.
    /// * `ViCounter` — everything, plus nemesis crash bursts over all
    ///   devices.
    /// * `Traffic` — everything, plus nemesis crash bursts sparing the
    ///   client ports at the deployment front.
    /// * `MajorityRegister` — `start` and `mobility` only. Population
    ///   `spawn_at` / `spawn_stride` / `crash_at` are ignored: every
    ///   replica runs from round 0 and never crashes. Honouring or
    ///   rejecting them would move the pinned E22 fuzz campaign, so
    ///   that is left to the per-run assumptions report of the
    ///   model-conformance oracle.
    pub fn deployment(&self, seed: u64) -> Vec<DevicePlan> {
        let mut place_rng = StdRng::seed_from_u64(seed ^ PLACEMENT_SALT);
        let mut devices = Vec::with_capacity(self.node_count());
        for pop in &self.populations {
            for j in 0..pop.count {
                let start = pop.placement.position(j, self.arena, &mut place_rng);
                let spawn = pop.spawn_at + j as u64 * pop.spawn_stride;
                devices.push(DevicePlan {
                    start,
                    mobility: pop.mobility.build(start, self.arena),
                    spawn_at: (spawn > 0).then_some(spawn),
                    crash_at: pop.crash_at,
                });
            }
        }
        devices
    }

    /// The spec's channel adversary with the nemesis's channel faults
    /// composed over it.
    fn channel_adversary(&self) -> Box<dyn Adversary> {
        self.nemesis.compile_adversary(&self.adversary).build()
    }

    /// An empty engine over this spec's radio, set up for the run:
    /// observers, adversary.
    fn engine<M: Clone + WireSized + 'static, P: Process<M>>(
        &self,
        seed: u64,
        obs: &Observers,
        adversary: Box<dyn Adversary>,
    ) -> Engine<M, P> {
        let mut engine = Engine::new(EngineConfig {
            radio: self.radio,
            seed,
            record_trace: false,
        });
        engine.set_observers(obs.clone());
        engine.set_adversary(adversary);
        engine
    }

    /// Runs this [`WorkloadSpec::ChaClique`] spec with `seed`, like
    /// [`ScenarioSpec::run`], and hands back every node's outputs, in
    /// node order and each in instance order, beside the outcome: the
    /// run's checker keeps them as the nodes hand them over.
    ///
    /// # Errors
    ///
    /// [`SpecErrorKind::Workload`] if the spec runs another workload.
    pub fn run_cha_clique(&self, seed: u64) -> Result<(ScenarioOutcome, NodeOutputs), SpecError> {
        match self.workload {
            WorkloadSpec::ChaClique { instances } => {
                let checker = ChaSpecStream::new(self.node_count()).keeping_outputs();
                let (out, mut outputs) =
                    self.run_cha(seed, &Observers::default(), instances, checker);
                outputs.resize_with(self.node_count(), Vec::new);
                Ok((out, outputs))
            }
            _ => Err(SpecError {
                scenario: self.name.clone(),
                kind: SpecErrorKind::Workload("not a CHA clique workload".into()),
            }),
        }
    }

    fn dispatch(&self, seed: u64, obs: &Observers) -> ScenarioOutcome {
        match &self.workload {
            WorkloadSpec::ChaClique { instances } => {
                let checker = ChaSpecStream::new(self.node_count());
                self.run_cha(seed, obs, *instances, checker).0
            }
            WorkloadSpec::ViCounter {
                layout,
                virtual_rounds,
            } => self.run_vi(seed, obs, layout, *virtual_rounds),
            WorkloadSpec::Traffic {
                app,
                layout,
                traffic,
                audit,
            } => self.run_traffic(seed, obs, *app, layout, traffic, *audit),
            WorkloadSpec::MajorityRegister {
                writes,
                rounds,
                partition_from,
            } => self.run_majority_register(seed, obs, *writes, *rounds, *partition_from),
        }
    }

    /// Runs the clique, every node handing its outputs and broadcast
    /// proposals to `checker`, and reads its verdicts and kept outputs
    /// at the end.
    fn run_cha(
        &self,
        seed: u64,
        obs: &Observers,
        instances: u64,
        checker: ChaSpecStream<'static, u64>,
    ) -> (ScenarioOutcome, NodeOutputs) {
        let rounds = instances * 3;
        let mut engine: Engine<ChaMessage<u64>, ChaNode<u64, TaggedProposer>> =
            self.engine(seed, obs, self.channel_adversary());
        engine.reserve_nodes(self.node_count());
        let cm = self.cm.build(seed);
        cm.reserve(self.node_count());
        let checker = Rc::new(RefCell::new(checker));

        for (tag, d) in self.deployment(seed).into_iter().enumerate() {
            let proposer = TaggedProposer::new(tag as u64);
            // Nodes deployed from round 0 run the plain Section 3
            // protocol. Late arrivals must enter with a consistent
            // instance counter — the paper's join-by-state-transfer
            // — so they resume from a checkpoint aligned to the
            // global round/instance mapping (their first ballot
            // phase starts instance `spawn.div_ceil(3) + 1`). Each
            // participant mints propose/decide spans under its
            // simulator node index, so they line up with the engine's
            // broadcast spans and reception edges, reports to the
            // checker under the same index, and is told how many
            // instances it will run, so it sizes its storage once.
            let k0 = d.spawn_at.map_or(0, |spawn| spawn.div_ceil(3));
            let node = match d.spawn_at {
                None => ChaNode::new(proposer, cm.clone()),
                Some(_) => ChaNode::from_checkpoint(k0, k0, proposer, cm.clone()),
            };
            let node = node
                .with_observers(obs.clone(), tag as u64)
                .with_checker(Rc::clone(&checker), tag)
                .with_instances(instances.saturating_sub(k0) as usize);
            // The Section 3 specification (and its checker) quantifies
            // over a fixed participant set. Every node's broadcast
            // proposals count (adopted values must trace back to
            // *some* proposal) and every node's outputs count towards
            // `decided_fraction`, but only genesis nodes' outputs are
            // checked: a checkpoint joiner's history summarizes the
            // pre-join prefix as ⊥, which the strict history-equality
            // relation would misread as disagreement.
            let mut spec = NodeSpec::by_value(d.mobility, node);
            if let Some(spawn) = d.spawn_at {
                spec = spec.spawn_at(spawn);
                checker.borrow_mut().mark_joiner(tag);
            }
            if let Some(c) = d.crash_at {
                spec = spec.crash_at(c);
                if c < rounds {
                    checker.borrow_mut().mark_crashed(tag);
                }
            }
            engine.add_node(spec);
        }
        engine.run(rounds);

        let t_check = obs.timer();
        let mut checker = checker.borrow_mut();
        let mut out = self.outcome(seed, engine.stats(), checker.decided_fraction());
        out.outputs_checked = checker.output_count();
        out.validity_violations = checker.validity().len();
        out.agreement_violations = checker.agreement().len();
        out.spread_violations = checker.color_spread().len();
        out.stabilized_kst = checker.liveness_kst();
        obs.phase_since(Phase::Checker, t_check);
        (out, checker.take_outputs())
    }

    fn run_vi(
        &self,
        seed: u64,
        obs: &Observers,
        layout: &crate::spec::LayoutSpec,
        virtual_rounds: u64,
    ) -> ScenarioOutcome {
        let layout = layout.build();
        let mut world = World::new(WorldConfig {
            radio: self.radio,
            layout,
            automaton: CounterAutomaton,
            seed,
            record_trace: false,
        });
        world.set_observers(obs.clone());
        world.set_adversary(self.channel_adversary());
        let mut devices = self.deployment(seed);
        self.nemesis.apply_crashes(&mut devices, 0);
        for d in devices {
            world.add_device_spec(d.mobility, None, d.spawn_at, d.crash_at);
        }

        world.run_virtual_rounds(virtual_rounds);

        let t_check = obs.timer();
        let report = world.report();
        let mut out = self.outcome(seed, world.stats(), report.decided_fraction());
        out.vn_joins = report.joins;
        out.vn_resets = report.resets;
        obs.phase_since(Phase::Checker, t_check);
        out
    }

    /// Runs a client-traffic workload: populations emulate the app's
    /// virtual nodes; the first `traffic.clients` devices also run
    /// request ports driven by the vi-traffic generator. With
    /// `audited`, each event of the run's operation history goes to a
    /// `vi-audit` [`Auditor`] as it happens and the outcome carries its
    /// verdicts; without, nothing is recorded.
    fn run_traffic(
        &self,
        seed: u64,
        obs: &Observers,
        app: AppKind,
        layout: &crate::spec::LayoutSpec,
        traffic: &TrafficSpec,
        audited: bool,
    ) -> ScenarioOutcome {
        let mut devices = self.deployment(seed);
        // Nemesis: crash bursts fold into the device churn (client
        // ports at the deployment front are protected), channel
        // faults compose over the base adversary.
        self.nemesis.apply_crashes(&mut devices, traffic.clients);
        let tw = TrafficWorld {
            radio: self.radio,
            layout: layout.build(),
            seed,
            adversary: self.nemesis.compile_adversary(&self.adversary),
            devices,
        };
        // The traffic driver owns its engine internally, and that
        // engine feeds no counter: the handle records the
        // workload-level counters only (timeouts, audit ops, delivery
        // totals); per-round resolver-mode counters stay zero.
        let mut auditor = audited.then(|| Auditor::new(app));
        let out = match &mut auditor {
            Some(auditor) => {
                vi_traffic::run_traffic(app, tw, traffic, obs, Some(&mut |e| auditor.observe(&e)))
            }
            None => vi_traffic::run_traffic(app, tw, traffic, obs, None),
        };
        let report = auditor.map(|auditor| {
            let t_check = obs.timer();
            let report = auditor.finish();
            obs.phase_since(Phase::Checker, t_check);
            report
        });
        obs.count(|c| {
            c.receptions = out.stats.deliveries;
            c.collisions = out.stats.collision_reports;
            c.traffic_timeouts = out.summary.timed_out;
            if let Some(report) = &report {
                c.audit_ops = report.ops;
            }
        });
        let mut outcome = self.outcome(seed, &out.stats, out.emulation.decided_fraction());
        outcome.vn_joins = out.emulation.joins;
        outcome.vn_resets = out.emulation.resets;
        outcome.traffic = Some(out.summary);
        outcome.audit = report;
        outcome
    }

    /// Runs the deliberately broken majority-register baseline and
    /// always audits the collected register operations: with a partition
    /// cutting off the last replica, the stale local reads produce a
    /// deterministic linearizability violation — the fixture the
    /// incident-bundle pipeline is exercised against.
    fn run_majority_register(
        &self,
        seed: u64,
        obs: &Observers,
        writes: u64,
        rounds: u64,
        partition_from: Option<u64>,
    ) -> ScenarioOutcome {
        let n = self.node_count();
        let adversary = match partition_from {
            // The partition is part of the workload, not the spec's
            // adversary: everything addressed to the last-ranked
            // replica is dropped from `from` on, so it keeps serving
            // its stale local copy.
            Some(from) => {
                let mut adv = ScriptedAdversary::new();
                for r in from..rounds {
                    adv.drop_all_to(r, NodeId::from(n - 1));
                }
                Box::new(adv)
            }
            None => self.channel_adversary(),
        };
        let mut engine: Engine<MajRegMessage, MajorityRegister> = self.engine(seed, obs, adversary);
        let ids: Vec<NodeId> = self
            .deployment(seed)
            .into_iter()
            .enumerate()
            .map(|(rank, d)| {
                let replica = MajorityRegister::new(rank, n, writes);
                engine.add_node(NodeSpec::by_value(d.mobility, replica))
            })
            .collect();

        engine.run(rounds);

        let ops = collect_register_ops(&engine, &ids);
        // Register the collected history as op spans: each op's
        // invoke round becomes an `Op` span keyed by its audit op id,
        // so a violation's witness ops resolve into the causal DAG
        // and completions feed the `majority_register` timeline. The
        // op vector is flat in node order (writes then reads per
        // node), so the owning node is recovered from the log sizes.
        obs.causal(|c| {
            let mut cursor = 0usize;
            for (node, &id) in ids.iter().enumerate() {
                let p = engine.process_at(id);
                let count = p.write_log.len() + p.read_log.len();
                for op in &ops[cursor..cursor + count] {
                    c.invoke(op.id, node as u64, op.inv);
                    if op.ret != vi_audit::linearizability::PENDING {
                        c.complete("majority_register", op.id, op.ret);
                    }
                }
                cursor += count;
            }
        });
        let t_check = obs.timer();
        let report = audit_register_ops("majority_register", &ops);
        obs.phase_since(Phase::Checker, t_check);
        obs.count(|c| c.audit_ops = report.ops);
        let completed = ops
            .iter()
            .filter(|o| o.ret != vi_audit::linearizability::PENDING)
            .count();
        let decided_fraction = completed as f64 / ops.len().max(1) as f64;
        let mut out = self.outcome(seed, engine.stats(), decided_fraction);
        out.audit = Some(report);
        out
    }

    /// The outcome row every workload starts from: identity, channel
    /// totals and `decided_fraction`; the workload-specific fields
    /// (checker verdicts, VN counters, traffic, audit) start empty.
    fn outcome(&self, seed: u64, stats: &ChannelStats, decided_fraction: f64) -> ScenarioOutcome {
        ScenarioOutcome {
            scenario: self.name.clone(),
            seed,
            nodes: self.node_count(),
            rounds: stats.rounds,
            broadcasts: stats.broadcasts,
            deliveries: stats.deliveries,
            collision_reports: stats.collision_reports,
            max_message_bytes: stats.max_message_bytes,
            decided_fraction,
            ..ScenarioOutcome::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CmSpec, LayoutSpec, PlacementSpec, PopulationSpec};
    use vi_radio::geometry::{Point, Rect};
    use vi_radio::{AdversaryKind, RadioConfig};

    fn clique(n: usize, instances: u64) -> ScenarioSpec {
        ScenarioSpec {
            name: "test-clique".into(),
            arena: Rect::square(10.0),
            radio: RadioConfig::reliable(10.0, 20.0),
            populations: vec![PopulationSpec::fixed(
                n,
                PlacementSpec::Line {
                    start: Point::ORIGIN,
                    step_x: 0.1,
                    step_y: 0.0,
                },
            )],
            adversary: AdversaryKind::None,
            nemesis: vi_audit::NemesisSpec::none(),
            cm: CmSpec::perfect(),
            workload: WorkloadSpec::ChaClique { instances },
        }
    }

    #[test]
    fn reliable_clique_decides_and_stays_safe() {
        let out = clique(4, 20).run(1);
        assert_eq!(out.nodes, 4);
        assert_eq!(out.rounds, 60);
        assert!(out.decided_fraction > 0.9, "{}", out.decided_fraction);
        assert_eq!(out.safety_violations(), 0);
        assert!(out.stabilized_kst.unwrap_or(u64::MAX) <= 2);
    }

    #[test]
    fn runs_are_deterministic_per_seed_and_distinct_across_seeds() {
        let mut spec = clique(5, 30);
        spec.radio = RadioConfig::stabilizing(10.0, 20.0, 60);
        spec.adversary = AdversaryKind::Random(0.4, 0.2);
        assert_eq!(spec.run(7), spec.run(7));
        assert_ne!(spec.run(7), spec.run(8), "seeds must matter");
    }

    #[test]
    fn traffic_scenario_reports_latency_metrics() {
        let spec = ScenarioSpec {
            name: "test-traffic".into(),
            arena: Rect::square(100.0),
            radio: RadioConfig::reliable(10.0, 20.0),
            populations: vec![PopulationSpec::fixed(
                3,
                PlacementSpec::Cluster {
                    center: Point::new(50.0, 50.0),
                    radius: 0.4,
                },
            )],
            adversary: AdversaryKind::None,
            nemesis: vi_audit::NemesisSpec::none(),
            cm: CmSpec::perfect(),
            workload: WorkloadSpec::Traffic {
                app: vi_traffic::AppKind::Register,
                layout: LayoutSpec::Explicit {
                    locations: vec![Point::new(50.0, 50.0)],
                    region_radius: 2.5,
                },
                traffic: vi_traffic::TrafficSpec::open(2, 0.25, 30),
                audit: false,
            },
        };
        spec.validate().expect("traffic spec validates");
        let out = spec.run(5);
        let t = out.traffic.as_ref().expect("traffic summary present");
        assert!(t.issued > 0);
        assert!(t.completed > 0, "{t:?}");
        assert!(t.p50 >= 1 && t.p50 <= t.p99, "{t:?}");
        assert!(out.audit.is_none(), "unaudited run carries no report");
        assert_eq!(out, spec.run(5), "traffic runs are deterministic");
        // Too many clients for the deployment must fail validation.
        let mut bad = spec.clone();
        if let WorkloadSpec::Traffic { traffic, .. } = &mut bad.workload {
            traffic.clients = 99;
        }
        assert!(bad.validate().unwrap_err().contains("clients"));
    }

    #[test]
    fn audited_traffic_scenario_carries_verdicts_and_nemesis_bites() {
        use vi_audit::{NemesisFault, NemesisSpec};
        let mut spec = ScenarioSpec {
            name: "test-audited".into(),
            arena: Rect::square(100.0),
            radio: RadioConfig::reliable(10.0, 20.0),
            populations: vec![PopulationSpec::fixed(
                5,
                PlacementSpec::Cluster {
                    center: Point::new(50.0, 50.0),
                    radius: 0.4,
                },
            )],
            adversary: AdversaryKind::None,
            nemesis: NemesisSpec {
                faults: vec![NemesisFault::CrashBurst {
                    at_round: 60,
                    victims: 2,
                }],
            },
            cm: CmSpec::perfect(),
            workload: WorkloadSpec::Traffic {
                app: vi_traffic::AppKind::Register,
                layout: LayoutSpec::Explicit {
                    locations: vec![Point::new(50.0, 50.0)],
                    region_radius: 2.5,
                },
                traffic: vi_traffic::TrafficSpec::open(2, 0.3, 30),
                audit: true,
            },
        };
        spec.validate().expect("audited spec validates");
        let out = spec.run(3);
        let report = out.audit.as_ref().expect("audited run carries a report");
        assert!(report.ok(), "{:?}", report.violations());
        assert_eq!(report.app, "register");
        assert!(report.ops > 0);
        assert_eq!(out, spec.run(3), "audited runs are deterministic");
        // The same deployment without the nemesis behaves differently:
        // two crashed replicas receive nothing, so the crash burst
        // must show up as lost deliveries.
        let with_nemesis = out;
        spec.nemesis = NemesisSpec::none();
        let without = spec.run(3);
        assert!(
            with_nemesis.deliveries < without.deliveries,
            "crash burst must cost deliveries ({} vs {})",
            with_nemesis.deliveries,
            without.deliveries
        );
    }

    #[test]
    fn vi_world_scenario_reports_green_fraction() {
        let spec = ScenarioSpec {
            name: "test-world".into(),
            arena: Rect::square(100.0),
            radio: RadioConfig::reliable(10.0, 20.0),
            populations: vec![PopulationSpec::fixed(
                3,
                PlacementSpec::Cluster {
                    center: Point::new(50.0, 50.0),
                    radius: 0.4,
                },
            )],
            adversary: AdversaryKind::None,
            nemesis: vi_audit::NemesisSpec::none(),
            cm: CmSpec::perfect(),
            workload: WorkloadSpec::ViCounter {
                layout: LayoutSpec::Explicit {
                    locations: vec![Point::new(50.0, 50.0)],
                    region_radius: 2.5,
                },
                virtual_rounds: 8,
            },
        };
        let out = spec.run(3);
        assert!(out.decided_fraction > 0.5, "{}", out.decided_fraction);
        assert_eq!(out.outputs_checked, 0);
        assert!(out.rounds > 8, "real rounds exceed virtual rounds");
        assert_eq!(out, spec.run(3), "world runs are deterministic");
    }

    /// The entry that keeps the outputs runs the same execution as
    /// `run`: its outcome serializes to the same bytes, and it hands
    /// back one output list per node, holding the outputs the outcome
    /// counted.
    #[test]
    fn cha_clique_entry_matches_run() {
        let mut lossy = clique(4, 40);
        lossy.radio = RadioConfig::stabilizing(10.0, 20.0, 60);
        lossy.adversary = AdversaryKind::Random(0.4, 0.2);
        let line_from = |x: f64| PlacementSpec::Line {
            start: Point::new(x, 0.0),
            step_x: 0.1,
            step_y: 0.0,
        };
        lossy
            .populations
            .push(PopulationSpec::fixed(2, line_from(0.4)).crashing_at(50));
        let catalog = crate::catalog::scenario("clique").expect("catalog clique");
        for (spec, seed) in [(catalog, 2), (lossy, 7)] {
            let (out, outputs) = spec.run_cha_clique(seed).expect("a CHA clique");
            assert_eq!(
                serde_json::to_string(&out).expect("serializable"),
                serde_json::to_string(&spec.run(seed)).expect("serializable"),
                "{}",
                spec.name
            );
            assert_eq!(outputs.len(), spec.node_count(), "{}", spec.name);
            let total: usize = outputs.iter().map(Vec::len).sum();
            assert_eq!(total, out.outputs_checked, "{}", spec.name);
        }
    }

    #[test]
    fn cha_clique_entry_rejects_other_workloads() {
        let mut spec = clique(3, 4);
        spec.workload = WorkloadSpec::ViCounter {
            layout: LayoutSpec::Explicit {
                locations: vec![Point::ORIGIN],
                region_radius: 2.5,
            },
            virtual_rounds: 4,
        };
        let err = spec.run_cha_clique(1).map(|_| ()).unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::Workload(_)), "{err}");
    }

    /// Retransmit backoff draws from no RNG: burning the backoff
    /// schedule arbitrarily hard between two runs of a non-traffic
    /// scenario leaves the outcome byte-identical, because the jitter
    /// is a pure hash of `(key, attempt)` rather than a stream shared
    /// with placement, channel, or admission randomness.
    #[test]
    fn backoff_never_perturbs_non_traffic_rng_streams() {
        let spec = clique(4, 6);
        let before = spec.run(11);
        let mut burned = 0u64;
        for key in 0..512u64 {
            for attempt in 0..16u32 {
                burned = burned.wrapping_add(vi_traffic::backoff_delay(key, attempt));
            }
        }
        assert!(burned > 0, "backoff delays are positive");
        assert_eq!(
            before,
            spec.run(11),
            "backoff consumed shared RNG state: non-traffic outcome changed"
        );
    }
}
