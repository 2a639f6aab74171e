//! The lockstep round executor.
//!
//! The engine owns a set of nodes, each bundling a mobility model and
//! a protocol [`Process`], stored by value: an `Engine<M, P>` runs one
//! process type `P`, and a mixed population is the default
//! `P = Box<dyn Process<M>>`. Every round it (1) advances mobility, (2)
//! collects transmission decisions, (3) resolves the channel through
//! the engine-owned [`Medium`] (spatially indexed, reusable buffers),
//! and (4) delivers receptions. Executions are deterministic given
//! the seed.
//!
//! Crash failures and dynamic arrivals follow the paper's model: a
//! node may crash at any point (including mid-protocol-phase), and new
//! nodes may arrive at any round. Crashed nodes never participate
//! again; not-yet-spawned nodes are invisible to the channel.
//!
//! Whoever watches a run — counters, phase timers, causal and flight
//! recorders, live monitor — sits behind one
//! [`vi_telemetry::Observers`] handle ([`Engine::set_observers`]),
//! shared with the medium. A round states each observer-only fact
//! once through it (round open, scripted crashes, live-set churn,
//! round close); the medium's receiver walk, which makes every
//! adversary consultation, reports their count as the resolution's
//! last act, and only the per-message causal broadcast/reception sites
//! sit inside the statistics pass.
//! All of it is on the sequential control path, so observing never
//! changes an execution.

use crate::adversary::{Adversary, AdversaryKind};
use crate::channel::{Medium, ReceptionBuffer, RoundReception, TopologyDelta, TxIntent};
use crate::config::RadioConfig;
use crate::geometry::Point;
use crate::mobility::MobilityModel;
use crate::trace::{ChannelStats, RoundRecord, Trace};
use crate::WireSized;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::fmt;
use std::marker::PhantomData;
use vi_telemetry::{FlightEvent, Observers, Phase};

/// Simulator handle for a node.
///
/// Note: this is a *simulator* handle for bookkeeping, traces, and
/// adversary scripts. The paper's model gives nodes no unique
/// identifiers, and no protocol in this workspace ever receives or
/// branches on a `NodeId`; messages are delivered anonymously.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(usize);

impl NodeId {
    /// The underlying index (nodes are numbered in insertion order).
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId(value)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Per-round context handed to a [`Process`]: the round number and the
/// node's own position (the paper's GPS / location-service update).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoundCtx {
    /// Current round.
    pub round: u64,
    /// The node's position this round.
    pub pos: Point,
}

/// A protocol endpoint driven by the engine.
///
/// Each round the engine calls [`Process::transmit`] (broadcast or
/// listen?) and then [`Process::deliver`] with the reception outcome.
/// An engine of one process type reads results back typed
/// ([`Engine::process_at`]); `as_any` survives only for a boxed
/// population's [`Engine::process`] downcast and the frozen benchmark
/// mirror, whose wrapper delegates it. Its default is right for every
/// other process.
pub trait Process<M>: AsAny {
    /// Decides this round's transmission: `Some(payload)` to
    /// broadcast, `None` to listen.
    fn transmit(&mut self, ctx: &RoundCtx) -> Option<M>;

    /// Receives the end-of-round outcome: messages plus the collision
    /// detector's output. The reception borrows engine-owned round
    /// storage — copy out whatever must outlive the call.
    fn deliver(&mut self, ctx: &RoundCtx, rx: RoundReception<'_, M>);

    /// Upcast for a boxed population's typed extraction. Override only
    /// to delegate, as a wrapper does.
    fn as_any(&self) -> &dyn Any {
        self.upcast()
    }

    /// Mutable twin of [`Process::as_any`].
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.upcast_mut()
    }
}

/// The upcast behind [`Process::as_any`]'s default, for every sized
/// `'static` type.
pub trait AsAny: Any {
    /// `self` as `&dyn Any`.
    fn upcast(&self) -> &dyn Any;

    /// `self` as `&mut dyn Any`.
    fn upcast_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn upcast(&self) -> &dyn Any {
        self
    }

    fn upcast_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A mixed population: each call goes to the boxed process, `as_any`
/// included, so [`Engine::process`] sees the concrete type inside.
impl<M: 'static> Process<M> for Box<dyn Process<M>> {
    fn transmit(&mut self, ctx: &RoundCtx) -> Option<M> {
        (**self).transmit(ctx)
    }

    fn deliver(&mut self, ctx: &RoundCtx, rx: RoundReception<'_, M>) {
        (**self).deliver(ctx, rx)
    }

    fn as_any(&self) -> &dyn Any {
        (**self).as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        (**self).as_any_mut()
    }
}

/// Specification of one node: mobility + protocol + lifecycle.
///
/// `P` is the process type of the engine the node joins: a concrete
/// type for a homogeneous population ([`NodeSpec::by_value`]), or the
/// default `Box<dyn Process<M>>` for a mixed one ([`NodeSpec::new`]).
pub struct NodeSpec<M, P = Box<dyn Process<M>>> {
    mobility: Box<dyn MobilityModel>,
    process: P,
    spawn_at: u64,
    crash_at: Option<u64>,
    message: PhantomData<fn() -> M>,
}

impl<M> NodeSpec<M> {
    /// Creates a node of a mixed population that participates from
    /// round 0 and never crashes.
    pub fn new(mobility: Box<dyn MobilityModel>, process: Box<dyn Process<M>>) -> Self {
        NodeSpec::by_value(mobility, process)
    }
}

impl<M, P> NodeSpec<M, P> {
    /// Creates a node holding `process` by value that participates
    /// from round 0 and never crashes.
    pub fn by_value(mobility: Box<dyn MobilityModel>, process: P) -> Self {
        NodeSpec {
            mobility,
            process,
            spawn_at: 0,
            crash_at: None,
            message: PhantomData,
        }
    }

    /// Delays the node's arrival until `round` (ad hoc deployment).
    pub fn spawn_at(mut self, round: u64) -> Self {
        self.spawn_at = round;
        self
    }

    /// Crashes the node at the start of `round` (it last participates
    /// in `round - 1`).
    pub fn crash_at(mut self, round: u64) -> Self {
        self.crash_at = Some(round);
        self
    }
}

impl<M, P> fmt::Debug for NodeSpec<M, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeSpec")
            .field("spawn_at", &self.spawn_at)
            .field("crash_at", &self.crash_at)
            .finish_non_exhaustive()
    }
}

/// Engine construction parameters.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Radio model parameters.
    pub radio: RadioConfig,
    /// Seed for all simulator randomness (mobility, adversary,
    /// backoff); identical seeds give identical executions.
    pub seed: u64,
    /// Whether to record a full [`Trace`] (memory-proportional to the
    /// execution; disable for long benches).
    pub record_trace: bool,
}

/// A [`NodeEntry::crash_at`] for a node that never crashes.
const NEVER: u64 = u64::MAX;

/// A node's state; its [`NodeId`] is its index in the engine's list.
struct NodeEntry<P> {
    mobility: Box<dyn MobilityModel>,
    process: P,
    spawn_at: u64,
    /// The first round the node misses; [`NEVER`] if it never
    /// crashes (a plain `u64`: 8 bytes a node, not an `Option`'s 16).
    crash_at: u64,
    pos: Point,
    placed: bool,
    /// Cached [`MobilityModel::is_settled`] from the last `advance`;
    /// once `true` (and placed) the engine stops calling `advance`.
    settled: bool,
}

impl<P> NodeEntry<P> {
    fn participates(&self, round: u64) -> bool {
        round >= self.spawn_at && round < self.crash_at
    }
}

/// The deterministic lockstep simulator.
///
/// `P` is the type every node's process has, stored by value beside
/// the node's metadata. A homogeneous population names it (vi-core's
/// CHA clique runs an `Engine<ChaMessage<u64>, ChaNode<u64>>`, a
/// virtual-infrastructure world an `Engine<Wire<..>, Device<VA>>`) and
/// reads results back typed with [`Engine::process_at`]. The default,
/// `Box<dyn Process<M>>`, holds a mixed population, read back by
/// downcast with [`Engine::process`].
///
/// See the [crate-level documentation](crate) for an end-to-end
/// example.
pub struct Engine<M, P = Box<dyn Process<M>>> {
    config: EngineConfig,
    nodes: Vec<NodeEntry<P>>,
    adversary: Box<dyn Adversary>,
    rng: StdRng,
    round: u64,
    trace: Trace,
    stats: ChannelStats,
    /// The broadcast medium: spatial index plus reusable resolution
    /// buffers (see [`Medium`]).
    medium: Medium,
    /// Per-round buffers, reused across [`Engine::step`] calls so the
    /// steady-state loop does not allocate.
    intents: Vec<TxIntent<M>>,
    live: Vec<usize>,
    /// Intent slots whose position changed this round (the dirty-set
    /// handed to the cached resolver).
    moved: Vec<u32>,
    /// Last round's live set, for detecting participant churn.
    prev_live: Vec<usize>,
    /// SoA reception storage, refilled every round.
    receptions: ReceptionBuffer<M>,
    /// Pooled trace record: built in place each traced round, then
    /// stored as an exact-size clone (no per-round growth churn).
    trace_scratch: RoundRecord,
    /// The run's observers (null by default; the medium holds a clone).
    /// Fed on the sequential control path only.
    obs: Observers,
}

impl<M: Clone + WireSized + 'static, P: Process<M>> Engine<M, P> {
    /// Creates an engine with the benign [`AdversaryKind::None`].
    ///
    /// # Panics
    ///
    /// Panics if the radio configuration is invalid.
    pub fn new(config: EngineConfig) -> Self {
        config.radio.validate().expect("invalid radio config");
        let rng = StdRng::seed_from_u64(config.seed);
        let medium = Medium::new(config.radio);
        Engine {
            config,
            nodes: Vec::new(),
            adversary: Box::new(AdversaryKind::None),
            rng,
            round: 0,
            trace: Trace::new(),
            stats: ChannelStats::default(),
            medium,
            intents: Vec::new(),
            live: Vec::new(),
            moved: Vec::new(),
            prev_live: Vec::new(),
            receptions: ReceptionBuffer::new(),
            trace_scratch: RoundRecord {
                round: 0,
                positions: Vec::new(),
                broadcasts: Vec::new(),
                deliveries: Vec::new(),
                collisions: Vec::new(),
            },
            obs: Observers::default(),
        }
    }

    /// Installs the run's observers, on the medium too (clones share
    /// one state). Everything they see is stated on the sequential
    /// control path — the resolver, RNG stream, and channel stats are
    /// untouched — so an observed run is byte-identical to an
    /// unobserved one. The default handle is null: every
    /// instrumentation site costs a single branch and the zero-alloc
    /// steady-state contract is untouched.
    pub fn set_observers(&mut self, obs: Observers) {
        self.medium.set_observers(obs.clone());
        self.obs = obs;
    }

    /// Does nothing: a round resolves on the calling thread and there
    /// is no worker count to set. Kept only because the frozen
    /// benchmark sources under `examples/perf/` call it; the
    /// benchmark-only PR that deletes the mirror deletes it too.
    #[doc(hidden)]
    pub fn set_workers(&mut self, _: usize) {}

    /// Installs an adversary (replacing the current one).
    pub fn set_adversary(&mut self, adversary: Box<dyn Adversary>) {
        self.adversary = adversary;
    }

    /// Reserves node storage for exactly `additional` more
    /// [`add_node`](Self::add_node) calls, and the per-node round
    /// buffers for every node then added, so a population of known
    /// size is stored without regrowth or slack.
    pub fn reserve_nodes(&mut self, additional: usize) {
        let total = self.nodes.len() + additional;
        self.nodes.reserve_exact(additional);
        self.intents.reserve_exact(total - self.intents.len());
        self.live.reserve_exact(total - self.live.len());
        self.prev_live.reserve_exact(total - self.prev_live.len());
        self.moved.reserve_exact(total - self.moved.len());
        self.receptions.reserve_receivers(total);
    }

    /// Adds a node and returns its simulator handle. May be called
    /// mid-execution to model ad hoc arrivals (combine with
    /// [`NodeSpec::spawn_at`] for scripted arrivals).
    pub fn add_node(&mut self, spec: NodeSpec<M, P>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeEntry {
            mobility: spec.mobility,
            process: spec.process,
            spawn_at: spec.spawn_at,
            crash_at: spec.crash_at.unwrap_or(NEVER),
            pos: Point::ORIGIN,
            placed: false,
            settled: false,
        });
        id
    }

    /// Crashes `node` at the start of the *next* round (it no longer
    /// participates). Idempotent; earlier scheduled crashes win.
    ///
    /// # Panics
    ///
    /// Panics if `node` is unknown.
    pub fn crash(&mut self, node: NodeId) {
        let entry = &mut self.nodes[node.index()];
        let at = self.round;
        entry.crash_at = entry.crash_at.min(at);
    }

    /// The next round to be executed.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Current position of `node`, if it has been placed (i.e. has
    /// participated in at least one round).
    pub fn position(&self, node: NodeId) -> Option<Point> {
        let e = self.nodes.get(node.index())?;
        e.placed.then_some(e.pos)
    }

    /// Whether `node` participates in the upcoming round.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.nodes
            .get(node.index())
            .is_some_and(|e| e.participates(self.round))
    }

    /// A node's process, as the engine stores it (for extracting
    /// results).
    ///
    /// # Panics
    ///
    /// Panics if `node` is unknown.
    pub fn process_at(&self, node: NodeId) -> &P {
        &self.nodes[node.index()].process
    }

    /// A node's process downcast to `T`: `None` if `node` is unknown
    /// or runs another type. For a mixed population, whose processes
    /// are boxed; an engine of one process type reads
    /// [`process_at`](Self::process_at) instead.
    pub fn process<T: 'static>(&self, node: NodeId) -> Option<&T> {
        self.nodes
            .get(node.index())?
            .process
            .as_any()
            .downcast_ref::<T>()
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// The recorded trace (empty unless `record_trace` was set).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Number of nodes ever added.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Mobility + transmission collection: fills `intents`/`live`, and
    /// the `moved` dirty-set of intent slots whose position changed.
    ///
    /// Placed, settled nodes keep their position without an `advance`
    /// call (the settled contract guarantees the call would return the
    /// same position and draw nothing, so the RNG stream is unchanged).
    fn collect_intents(&mut self) {
        let round = self.round;
        self.intents.clear();
        self.live.clear();
        self.moved.clear();

        for idx in 0..self.nodes.len() {
            if !self.nodes[idx].participates(round) {
                continue;
            }
            let slot = self.intents.len() as u32;
            let entry = &mut self.nodes[idx];
            if !(entry.placed && entry.settled) {
                let pos = entry.mobility.advance(round, &mut self.rng);
                // All inside the assertion: no `vmax` call in release.
                debug_assert!(
                    !entry.placed || entry.pos.distance(pos) <= entry.mobility.vmax() + 1e-9,
                    "node {} moved {} > vmax {} in round {round}",
                    NodeId(idx),
                    entry.pos.distance(pos),
                    entry.mobility.vmax()
                );
                if !entry.placed || entry.pos != pos {
                    self.moved.push(slot);
                }
                entry.pos = pos;
                entry.placed = true;
                entry.settled = entry.mobility.is_settled();
            }
            let ctx = RoundCtx {
                round,
                pos: self.nodes[idx].pos,
            };
            let payload = self.nodes[idx].process.transmit(&ctx);
            self.intents.push(TxIntent {
                node: NodeId(idx),
                pos: self.nodes[idx].pos,
                payload,
            });
            self.live.push(idx);
        }
    }

    /// Executes one slotted round: advance mobility (skipping settled
    /// nodes), collect intents, resolve the channel through the
    /// [`Medium`]'s cached-topology path, deliver outcomes. All round
    /// buffers are engine-owned and reused, so steady-state rounds
    /// (static topology, non-allocating processes, tracing off) make
    /// zero heap allocations — see `tests/zero_alloc.rs`.
    pub fn step(&mut self) {
        let round = self.round;
        self.obs.begin_round(round);
        self.obs.flight(|f| {
            for (idx, e) in self.nodes.iter().enumerate() {
                if e.crash_at == round {
                    f.note(FlightEvent::Nemesis { node: idx as u64 });
                }
            }
        });
        let t_adv = self.obs.round_timer();
        self.collect_intents();
        self.obs.phase_since(Phase::Advance, t_adv);

        // Topology delta for the cached resolver: participant churn
        // forces a rebuild; otherwise only the movers are dirty.
        let delta = if self.live != self.prev_live {
            self.obs
                .flight(|f| f.note_churn(&self.prev_live, &self.live));
            self.prev_live.clone_from(&self.live);
            TopologyDelta::Rebuild
        } else if self.moved.is_empty() {
            TopologyDelta::Unchanged
        } else {
            TopologyDelta::Moved(&self.moved)
        };
        self.medium.resolve_round_cached(
            round,
            &self.intents,
            delta,
            self.adversary.as_mut(),
            &mut self.rng,
            &mut self.receptions,
        );

        // Statistics and trace (pooled record, cloned exact-size).
        let t_del = self.obs.round_timer();
        let prev_deliveries = self.stats.deliveries;
        let prev_collisions = self.stats.collision_reports;
        self.stats.rounds += 1;
        let record = self.config.record_trace;
        if record {
            self.trace_scratch.round = round;
            self.trace_scratch.positions.clear();
            self.trace_scratch
                .positions
                .extend(self.intents.iter().map(|i| (i.node, i.pos)));
            self.trace_scratch.broadcasts.clear();
            self.trace_scratch.deliveries.clear();
            self.trace_scratch.collisions.clear();
        }
        for intent in &self.intents {
            if let Some(payload) = &intent.payload {
                let size = payload.wire_size();
                self.stats.broadcasts += 1;
                self.stats.total_bytes += size as u64;
                self.stats.max_message_bytes = self.stats.max_message_bytes.max(size);
                self.obs.causal(|c| c.broadcast(intent.node.index() as u64));
                if record {
                    self.trace_scratch.broadcasts.push((intent.node, size));
                }
            }
        }
        for k in 0..self.receptions.len() {
            let node = self.receptions.node(k);
            for &src in self.receptions.senders(k) {
                if src != node {
                    self.stats.deliveries += 1;
                    self.obs
                        .causal(|c| c.reception(src.index() as u64, node.index() as u64));
                    if record {
                        self.trace_scratch.deliveries.push((src, node));
                    }
                }
            }
            if self.receptions.collision(k) {
                self.stats.collision_reports += 1;
                if record {
                    self.trace_scratch.collisions.push(node);
                }
            }
        }
        if record {
            self.trace.rounds.push(self.trace_scratch.clone());
        }

        // Deliver outcomes as borrowed views into the SoA buffer.
        for k in 0..self.receptions.len() {
            let idx = self.live[k];
            let ctx = RoundCtx {
                round,
                pos: self.nodes[idx].pos,
            };
            let rx = self.receptions.reception(k);
            self.nodes[idx].process.deliver(&ctx, rx);
        }
        self.obs.phase_since(Phase::Deliver, t_del);

        self.round += 1;
        self.obs.end_round(
            self.round,
            self.stats.deliveries - prev_deliveries,
            self.stats.collision_reports - prev_collisions,
        );
    }

    /// Executes `rounds` rounds.
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }
}

impl<M, P> fmt::Debug for Engine<M, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("round", &self.round)
            .field("nodes", &self.nodes.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts receptions and collisions; broadcasts `value` every
    /// round while `chatty`.
    struct Chatter {
        chatty: bool,
        value: u64,
        heard: Vec<u64>,
        collisions: u64,
        rounds_seen: u64,
    }

    impl Chatter {
        fn new(chatty: bool, value: u64) -> Self {
            Chatter {
                chatty,
                value,
                heard: Vec::new(),
                collisions: 0,
                rounds_seen: 0,
            }
        }
    }

    impl Process<u64> for Chatter {
        fn transmit(&mut self, _ctx: &RoundCtx) -> Option<u64> {
            self.chatty.then_some(self.value)
        }
        fn deliver(&mut self, _ctx: &RoundCtx, rx: RoundReception<'_, u64>) {
            self.rounds_seen += 1;
            self.heard.extend_from_slice(rx.messages);
            if rx.collision {
                self.collisions += 1;
            }
        }
    }

    fn engine() -> Engine<u64> {
        Engine::new(EngineConfig {
            radio: RadioConfig::reliable(10.0, 20.0),
            seed: 5,
            record_trace: true,
        })
    }

    fn static_node(engine: &mut Engine<u64>, x: f64, p: Chatter) -> NodeId {
        engine.add_node(NodeSpec::new(Box::new(Point::new(x, 0.0)), Box::new(p)))
    }

    #[test]
    fn single_broadcaster_reaches_listeners() {
        let mut e = engine();
        let tx = static_node(&mut e, 0.0, Chatter::new(true, 42));
        let rx1 = static_node(&mut e, 5.0, Chatter::new(false, 0));
        let rx2 = static_node(&mut e, 9.0, Chatter::new(false, 0));
        e.run(4);
        for id in [rx1, rx2] {
            let p: &Chatter = e.process(id).unwrap();
            assert_eq!(p.heard, vec![42, 42, 42, 42]);
            assert_eq!(p.collisions, 0);
        }
        let t: &Chatter = e.process(tx).unwrap();
        // Sender observes its own message each round.
        assert_eq!(t.heard.len(), 4);
        assert_eq!(e.stats().broadcasts, 4);
        assert_eq!(e.stats().deliveries, 8);
        assert_eq!(e.stats().max_message_bytes, 8);
    }

    #[test]
    fn crash_at_stops_participation() {
        let mut e = engine();
        let _tx = e.add_node(
            NodeSpec::new(Box::new(Point::ORIGIN), Box::new(Chatter::new(true, 1))).crash_at(2),
        );
        let rx = static_node(&mut e, 5.0, Chatter::new(false, 0));
        e.run(5);
        let p: &Chatter = e.process(rx).unwrap();
        assert_eq!(p.heard, vec![1, 1], "two rounds before the crash");
        assert_eq!(p.rounds_seen, 5, "listener still runs after the crash");
    }

    #[test]
    fn spawn_at_delays_participation() {
        let mut e = engine();
        let late = e.add_node(
            NodeSpec::new(Box::new(Point::ORIGIN), Box::new(Chatter::new(true, 9))).spawn_at(3),
        );
        let rx = static_node(&mut e, 5.0, Chatter::new(false, 0));
        e.run(5);
        assert!(e.is_alive(late));
        let p: &Chatter = e.process(rx).unwrap();
        assert_eq!(p.heard, vec![9, 9], "rounds 3 and 4 only");
    }

    #[test]
    fn dynamic_crash_takes_effect_next_round() {
        let mut e = engine();
        let tx = static_node(&mut e, 0.0, Chatter::new(true, 3));
        let rx = static_node(&mut e, 5.0, Chatter::new(false, 0));
        e.step();
        e.crash(tx);
        assert!(!e.is_alive(tx));
        e.run(3);
        let p: &Chatter = e.process(rx).unwrap();
        assert_eq!(p.heard, vec![3]);
    }

    #[test]
    fn identical_seeds_identical_executions() {
        let run = |seed: u64| {
            let mut e = Engine::<u64>::new(EngineConfig {
                radio: RadioConfig::stabilizing(10.0, 20.0, 50),
                seed,
                record_trace: false,
            });
            e.set_adversary(Box::new(AdversaryKind::Random(0.4, 0.1)));
            let _ = static_node(&mut e, 0.0, Chatter::new(true, 1));
            let rx = static_node(&mut e, 5.0, Chatter::new(false, 0));
            e.run(40);
            let p: &Chatter = e.process(rx).unwrap();
            (p.heard.clone(), p.collisions, *e.stats())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0.len(), 40, "some loss expected pre-stabilization");
    }

    #[test]
    fn trace_records_broadcasts_and_deliveries() {
        let mut e = engine();
        let tx = static_node(&mut e, 0.0, Chatter::new(true, 1));
        let rx = static_node(&mut e, 5.0, Chatter::new(false, 0));
        e.run(2);
        let trace = e.trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.rounds[0].broadcasts, vec![(tx, 8)]);
        assert_eq!(trace.rounds[0].deliveries, vec![(tx, rx)]);
        assert!(trace.rounds[0].collisions.is_empty());
    }

    /// Circles `center` at `radius`, a twelfth of a turn a round.
    struct Circling {
        center: Point,
        radius: f64,
    }

    impl MobilityModel for Circling {
        fn advance(&mut self, round: u64, _rng: &mut StdRng) -> Point {
            let angle = round as f64 * std::f64::consts::TAU / 12.0;
            Point::new(
                self.center.x + self.radius * angle.cos(),
                self.center.y + self.radius * angle.sin(),
            )
        }

        fn vmax(&self) -> f64 {
            self.radius * std::f64::consts::TAU / 12.0
        }
    }

    #[test]
    fn movers_on_the_hull_keep_the_surgical_path() {
        // 5 000 nodes hash-scattered at constant density; every 50th
        // circles its home at 8 m, so some step past the hull of the
        // deployment half of every turn.
        const N: usize = 5_000;
        let side = (N as f64).sqrt() * 15.0;
        let mut engine: Engine<u64> = Engine::new(EngineConfig {
            radio: RadioConfig::reliable(10.0, 20.0),
            seed: 5,
            record_trace: false,
        });
        let obs = Observers::new(false);
        engine.set_observers(obs.clone());
        for i in 0..N {
            let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let home = Point::new(
                (h % 10_000) as f64 / 10_000.0 * side,
                ((h >> 32) % 10_000) as f64 / 10_000.0 * side,
            );
            let mobility: Box<dyn MobilityModel> = if i % 50 == 0 {
                Box::new(Circling {
                    center: home,
                    radius: 8.0,
                })
            } else {
                Box::new(home)
            };
            let chatter = Chatter::new(i % 7 == 0, i as u64);
            engine.add_node(NodeSpec::new(mobility, Box::new(chatter)));
        }
        engine.run(50);
        let c = obs.counters().expect("live observers");
        // An anchor without a margin re-anchors on 40 of the 50.
        assert!(
            c.fallback_anchor_drift <= 1,
            "{} drift re-anchors in 50 rounds",
            c.fallback_anchor_drift
        );
        assert!(c.mover_rounds >= 48, "{} mover rounds", c.mover_rounds);
    }

    #[test]
    fn position_reports_location_service() {
        let mut e = engine();
        let id = static_node(&mut e, 7.0, Chatter::new(false, 0));
        assert_eq!(e.position(id), None, "not placed before first round");
        e.step();
        assert_eq!(e.position(id), Some(Point::new(7.0, 0.0)));
    }
}
