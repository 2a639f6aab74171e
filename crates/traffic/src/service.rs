//! The uniform request/response interface over the vi-apps.
//!
//! A [`Service`] adapts one application (register, mutex, tracking,
//! georouting) running on a [`World`] to the shape a load generator
//! understands: `submit` a [`Request`], `step_round` the deployment by
//! one virtual round, harvest [`Completion`]s. Each request's
//! lifecycle is round-stamped — issued at a virtual round, completed
//! at the virtual round its response was heard — so latency is always
//! measured in the emulation's own clock.
//!
//! Client endpoints are ordinary [`ClientApp`]s: a [`Port`] shared
//! (via `Rc<RefCell<_>>`, the `World` is single-threaded) between the
//! adapter and the in-world client program shuttles outbound messages
//! and observed receptions. Ports broadcast in staggered slots —
//! client `i` speaks only in virtual rounds `vr ≡ i (mod clients)` —
//! so client-phase broadcasts never collide with each other, exactly
//! like the stagger the mutex app's reference client uses.

use crate::workload::AppKind;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use vi_apps::georouting::{quantize, GeoRouterVn, RouteMsg};
use vi_apps::mutex::{LockMsg, LockVn};
use vi_apps::register::{RegMsg, RegisterVn};
use vi_apps::tracking::{cell_of, TrackMsg, TrackingVn};
use vi_core::vi::{
    ClientApp, VirtualAutomaton, VirtualReception, VnId, VnLayout, World, WorldConfig,
};
use vi_radio::geometry::Point;
use vi_radio::mobility::MobilityModel;
use vi_radio::trace::ChannelStats;
use vi_radio::{AdversaryKind, RadioConfig};

/// Base retransmit interval in virtual rounds: the first retry of an
/// unanswered request fires after roughly this long (all app messages
/// are idempotent at the virtual node, so retries only cost
/// bandwidth).
const RETRY_ROUNDS: u64 = 6;

/// Cap on the exponential backoff: no retransmit interval ever
/// exceeds this many virtual rounds (before jitter), no matter how
/// many attempts a request has burned.
const RETRY_CAP_ROUNDS: u64 = 48;

/// Salt folded into the jitter hash so backoff jitter shares no
/// stream with the placement (`PLACEMENT_SALT`) or admission
/// (`TRAFFIC_SALT`) RNGs.
const BACKOFF_SALT: u64 = 0x6a09_e667_f3bc_c908;

/// SplitMix64 finalizer — the stateless hash behind the retry jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Bounded deterministic exponential backoff with seeded jitter: the
/// virtual rounds to wait before retransmit `attempt + 1` of the
/// request identified by `key`. The base interval doubles per attempt
/// ([`RETRY_ROUNDS`] · 2^attempt) up to [`RETRY_CAP_ROUNDS`]; a
/// hash-derived jitter of up to half the interval spreads concurrent
/// losers so they stop retransmitting in lockstep.
///
/// The jitter is a pure SplitMix64 hash of `(key, attempt)` — it
/// draws from **no** RNG, so retries can never perturb the placement,
/// channel, or admission streams (the vi-scenario stream-isolation
/// test asserts this for non-traffic scenarios).
pub fn backoff_delay(key: u64, attempt: u32) -> u64 {
    let base = RETRY_ROUNDS
        .saturating_mul(1u64 << attempt.min(31))
        .min(RETRY_CAP_ROUNDS);
    let span = base / 2;
    base + splitmix64(key ^ BACKOFF_SALT ^ (u64::from(attempt) << 48)) % (span + 1)
}

/// Tracking-report quantization (meters per cell).
const TRACK_CELL_SIZE: f64 = 10.0;

/// The class of an operation, for mix accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpClass {
    /// State-changing op: register write, lock cycle, position
    /// report, packet send.
    Mutate,
    /// Read-only op: register read, tracking lookup.
    Query,
}

/// One client request, as issued by the generator.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    /// Unique (per run) request id.
    pub id: u64,
    /// Operation class.
    pub class: OpClass,
    /// Virtual round the request entered the system.
    pub issued_vr: u64,
}

/// What a request concretely did at the service — the invocation side
/// of an audit history. Adapters return it from [`Service::submit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpDesc {
    /// Register write of `value` (unique per run: the request id).
    Write {
        /// The written value.
        value: u64,
    },
    /// Register read.
    Read,
    /// Mutex acquire (the adapter releases immediately on grant).
    Acquire,
    /// Tracking position report for `object` (the reporting client).
    Report {
        /// The reported object (the client's own id).
        object: u32,
        /// The reported cell.
        cell: (u32, u32),
    },
    /// Tracking lookup of `object`.
    Lookup {
        /// The queried object.
        object: u32,
    },
    /// Georouting packet send addressed to virtual node `vn`.
    Send {
        /// Destination virtual-node index.
        vn: usize,
        /// The packet payload (the request id, truncated).
        payload: u32,
    },
}

/// The observed result of a completed request — the response side of
/// an audit history.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpOutcome {
    /// Write acknowledged by the virtual node.
    Acked,
    /// Read answered with the register contents.
    ReadValue {
        /// Tag of the returned value (0 = never written).
        tag: u64,
        /// The returned value.
        value: u64,
    },
    /// Lock granted (and immediately released by the adapter).
    Granted,
    /// Report broadcast (reports complete on send).
    Reported,
    /// Lookup answered with the object's last known cell.
    Answered {
        /// The answered cell (`None` = object unknown to the node).
        cell: Option<(u32, u32)>,
    },
    /// Packet recorded as delivered at its destination virtual node.
    Delivered,
}

/// A protocol-level observation outside the request lifecycle,
/// drained via [`Service::drain_audit`]. These carry the facts the
/// consistency checkers need that completions alone cannot: grants to
/// requests that already timed out, release broadcast rounds, and raw
/// per-virtual-node delivery state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AuditRecord {
    /// A lock grant naming `client` was heard (measured or not).
    Granted {
        /// The granted client.
        client: u32,
        /// Virtual round the grant was heard.
        vr: u64,
    },
    /// `client` broadcast its lock release.
    Released {
        /// The releasing client.
        client: u32,
        /// Virtual round the release hit the channel.
        vr: u64,
    },
    /// `payload` appeared in virtual node `vn`'s delivered state.
    Delivered {
        /// The delivering virtual node.
        vn: usize,
        /// The delivered payload.
        payload: u32,
        /// Virtual round the delivery was observed.
        vr: u64,
    },
    /// Virtual node `vn`'s delivered state shrank: a reset lost state.
    VnReset {
        /// The reset virtual node.
        vn: usize,
        /// Virtual round the shrink was observed.
        vr: u64,
    },
}

/// A completed request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The completed request.
    pub id: u64,
    /// Virtual round the response was heard (or the op took effect).
    pub completed_vr: u64,
    /// What the response said.
    pub outcome: OpOutcome,
}

/// Aggregated virtual-node emulation counters for a traffic run.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorldTotals {
    /// Green (decided) instances across all virtual nodes.
    pub decided: u64,
    /// ⊥ instances.
    pub bottom: u64,
    /// Join transfers.
    pub joins: u64,
    /// Resets.
    pub resets: u64,
}

/// A request/response adapter over one app deployment.
pub trait Service {
    /// Which app this service drives.
    fn app(&self) -> AppKind;
    /// Number of client endpoints.
    fn clients(&self) -> usize;
    /// Queues `req` for issuance by client `client` and describes the
    /// concrete operation it became.
    fn submit(&mut self, client: usize, req: &Request) -> OpDesc;
    /// Runs one virtual round and returns the completions observed in
    /// it, in deterministic (client-index, arrival) order.
    fn step_round(&mut self) -> Vec<Completion>;
    /// Drains protocol-level audit observations accumulated since the
    /// last drain (empty for apps whose completions say everything).
    fn drain_audit(&mut self) -> Vec<AuditRecord> {
        Vec::new()
    }
    /// Installs telemetry recorders on the underlying world so causal
    /// tracing sees protocol broadcasts/receptions and the flight
    /// recorder sees channel events. Default: no-op (hand-built test
    /// services have no world to instrument).
    fn set_telemetry(
        &mut self,
        _causal: vi_telemetry::CausalRecorder,
        _flight: vi_telemetry::FlightRecorder,
    ) {
    }
    /// Drops the measurement state of a timed-out request. Protocol
    /// obligations (e.g. releasing a lock that is granted late)
    /// survive; only completion matching is cancelled.
    fn forget(&mut self, id: u64);
    /// Completed virtual rounds.
    fn virtual_round(&self) -> u64;
    /// Channel statistics snapshot.
    fn stats(&self) -> ChannelStats;
    /// Aggregated emulation counters.
    fn world_totals(&self) -> WorldTotals;
}

/// How one deployed device participates in a traffic run.
pub struct DevicePlan {
    /// Start position (used to seed the client port before the first
    /// round).
    pub start: Point,
    /// Motion model.
    pub mobility: Box<dyn MobilityModel>,
    /// Real round the device spawns, if not deployed from the start.
    pub spawn_at: Option<u64>,
    /// Real round the device crashes, if any.
    pub crash_at: Option<u64>,
}

/// Everything needed to build the world a service runs over.
pub struct TrafficWorld {
    /// Radio model.
    pub radio: RadioConfig,
    /// Virtual-node placement.
    pub layout: VnLayout,
    /// Simulation seed.
    pub seed: u64,
    /// Channel adversary active before stabilization.
    pub adversary: AdversaryKind,
    /// Devices in deployment order; the first `clients` run ports.
    pub devices: Vec<DevicePlan>,
}

/// The shared mailbox between an adapter and its in-world client.
struct Port<M> {
    /// Messages awaiting broadcast: `(request id, message)`, FIFO.
    outbox: VecDeque<(u64, M)>,
    /// Messages heard, tagged with the virtual round they arrived in.
    rx: Vec<(u64, M)>,
    /// Send events: `(request id, virtual round broadcast)`.
    sent: Vec<(u64, u64)>,
    /// Device position as of the last client phase.
    pos: Point,
    /// This client's stagger slot.
    slot: u64,
    /// Stagger stride (the client count).
    stride: u64,
}

impl<M> Port<M> {
    fn new(slot: u64, stride: u64, start: Point) -> Self {
        Port {
            outbox: VecDeque::new(),
            rx: Vec::new(),
            sent: Vec::new(),
            pos: start,
            slot,
            stride,
        }
    }
}

/// The [`ClientApp`] end of a port: records receptions, broadcasts
/// the head of the outbox on this client's stagger slots.
struct PortClient<M> {
    port: Rc<RefCell<Port<M>>>,
}

impl<M: Clone + 'static> ClientApp<M> for PortClient<M> {
    fn on_virtual_round(&mut self, vr: u64, pos: Point, prev: &VirtualReception<M>) -> Option<M> {
        let mut p = self.port.borrow_mut();
        p.pos = pos;
        // `prev` is the reception of virtual round `vr - 1`.
        for m in &prev.messages {
            p.rx.push((vr.saturating_sub(1), m.clone()));
        }
        if p.stride > 1 && vr % p.stride != p.slot % p.stride {
            return None;
        }
        let (id, msg) = p.outbox.pop_front()?;
        p.sent.push((id, vr));
        Some(msg)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// World + ports: the plumbing every adapter shares.
struct Harness<VA: VirtualAutomaton> {
    world: World<VA>,
    ports: Vec<Rc<RefCell<Port<VA::Msg>>>>,
    vr: u64,
}

impl<VA: VirtualAutomaton> Harness<VA>
where
    VA::Msg: Clone,
{
    /// Builds the world: every device emulates; the first `clients`
    /// devices additionally run a traffic port.
    ///
    /// # Panics
    ///
    /// Panics if `clients` exceeds the device count or is zero.
    fn new(automaton: VA, tw: TrafficWorld, clients: usize) -> Self {
        assert!(clients >= 1, "traffic needs at least one client");
        assert!(
            clients <= tw.devices.len(),
            "traffic needs {clients} clients but only {} devices deployed",
            tw.devices.len()
        );
        let mut world = World::new(WorldConfig {
            radio: tw.radio,
            layout: tw.layout,
            automaton,
            seed: tw.seed,
            record_trace: false,
        });
        world.set_adversary(tw.adversary.build());
        let mut ports = Vec::with_capacity(clients);
        for (i, d) in tw.devices.into_iter().enumerate() {
            let client: Option<Box<dyn ClientApp<VA::Msg>>> = if i < clients {
                let port = Rc::new(RefCell::new(Port::new(i as u64, clients as u64, d.start)));
                ports.push(Rc::clone(&port));
                Some(Box::new(PortClient { port }))
            } else {
                None
            };
            world.add_device_spec(d.mobility, client, d.spawn_at, d.crash_at);
        }
        Harness {
            world,
            ports,
            vr: 0,
        }
    }

    /// Runs one virtual round.
    fn step(&mut self) {
        self.world.run_virtual_rounds(1);
        self.vr += 1;
    }

    /// Installs telemetry recorders on the world's engine.
    fn set_telemetry(
        &mut self,
        causal: vi_telemetry::CausalRecorder,
        flight: vi_telemetry::FlightRecorder,
    ) {
        self.world.set_observers(vi_telemetry::Observers {
            causal,
            flight,
            ..Default::default()
        });
    }

    /// Drains the received messages of client `i`.
    fn drain_rx(&mut self, i: usize) -> Vec<(u64, VA::Msg)> {
        std::mem::take(&mut self.ports[i].borrow_mut().rx)
    }

    /// Drains the send events of client `i`.
    fn drain_sent(&mut self, i: usize) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.ports[i].borrow_mut().sent)
    }

    /// Queues `(id, msg)` on client `i`'s port.
    fn enqueue(&mut self, i: usize, id: u64, msg: VA::Msg) {
        self.ports[i].borrow_mut().outbox.push_back((id, msg));
    }

    /// Removes queued-but-unsent messages of request `id` everywhere.
    fn purge(&mut self, id: u64) {
        for p in &self.ports {
            p.borrow_mut().outbox.retain(|&(e, _)| e != id);
        }
    }

    /// Client `i`'s current position.
    fn pos(&self, i: usize) -> Point {
        self.ports[i].borrow().pos
    }

    fn totals(&self) -> WorldTotals {
        let mut t = WorldTotals::default();
        for vn in 0..self.world.deployment().layout.len() {
            let (_, r) = self.world.vn_report(VnId(vn));
            t.decided += r.decided;
            t.bottom += r.bottom;
            t.joins += r.joins;
            t.resets += r.resets;
        }
        t
    }
}

/// A pending request awaiting its response, with retry bookkeeping.
struct PendingMsg<M> {
    client: usize,
    msg: M,
    /// Virtual round the op was submitted — receptions drain one round
    /// late, so an answer stamped before this round is a stale echo of
    /// an *earlier* request and must not complete this op.
    issued_vr: u64,
    last_enqueued_vr: u64,
    /// Retransmits already burned — drives the backoff schedule.
    attempts: u32,
}

/// Retransmits every pending message whose last enqueue is older than
/// its [`backoff_delay`] (shared retry pass of the register/tracking
/// adapters; idempotent messages only).
fn retry_pending<VA: VirtualAutomaton>(
    harness: &mut Harness<VA>,
    pending: &mut BTreeMap<u64, PendingMsg<VA::Msg>>,
) where
    VA::Msg: Clone,
{
    let vr = harness.vr;
    for (&id, p) in pending.iter_mut() {
        if vr.saturating_sub(p.last_enqueued_vr) >= backoff_delay(id, p.attempts) {
            harness.enqueue(p.client, id, p.msg.clone());
            p.last_enqueued_vr = vr;
            p.attempts = p.attempts.saturating_add(1);
        }
    }
}

// ---------------------------------------------------------------------------
// Register
// ---------------------------------------------------------------------------

/// The single-writer register under load: `Mutate` = tagged write
/// (completes on the matching `Ack`), `Query` = nonce'd read
/// (completes on the matching `Value`).
pub struct RegisterService {
    harness: Harness<RegisterVn>,
    next_tag: u64,
    next_nonce: u64,
    /// `write tag → request id`.
    write_index: BTreeMap<u64, u64>,
    /// `read nonce → request id`.
    read_index: BTreeMap<u64, u64>,
    pending: BTreeMap<u64, PendingMsg<RegMsg>>,
}

impl RegisterService {
    /// Builds the register deployment.
    pub fn new(tw: TrafficWorld, clients: usize) -> Self {
        RegisterService {
            harness: Harness::new(RegisterVn, tw, clients),
            next_tag: 0,
            next_nonce: 0,
            write_index: BTreeMap::new(),
            read_index: BTreeMap::new(),
            pending: BTreeMap::new(),
        }
    }
}

impl Service for RegisterService {
    fn app(&self) -> AppKind {
        AppKind::Register
    }

    fn clients(&self) -> usize {
        self.harness.ports.len()
    }

    fn submit(&mut self, client: usize, req: &Request) -> OpDesc {
        let (msg, op) = match req.class {
            OpClass::Mutate => {
                self.next_tag += 1;
                self.write_index.insert(self.next_tag, req.id);
                (
                    RegMsg::Write {
                        tag: self.next_tag,
                        value: req.id,
                    },
                    OpDesc::Write { value: req.id },
                )
            }
            OpClass::Query => {
                self.next_nonce += 1;
                self.read_index.insert(self.next_nonce, req.id);
                (
                    RegMsg::Read {
                        nonce: self.next_nonce,
                    },
                    OpDesc::Read,
                )
            }
        };
        self.harness.enqueue(client, req.id, msg.clone());
        self.pending.insert(
            req.id,
            PendingMsg {
                client,
                msg,
                issued_vr: req.issued_vr,
                last_enqueued_vr: req.issued_vr,
                attempts: 0,
            },
        );
        op
    }

    fn step_round(&mut self) -> Vec<Completion> {
        self.harness.step();
        let mut done = Vec::new();
        for i in 0..self.clients() {
            for (heard_vr, msg) in self.harness.drain_rx(i) {
                let hit = match &msg {
                    RegMsg::Ack { tag } => self
                        .write_index
                        .remove(tag)
                        .map(|id| (id, OpOutcome::Acked)),
                    RegMsg::Value { nonce, tag, value } => {
                        self.read_index.remove(nonce).map(|id| {
                            (
                                id,
                                OpOutcome::ReadValue {
                                    tag: *tag,
                                    value: *value,
                                },
                            )
                        })
                    }
                    _ => None,
                };
                if let Some((id, outcome)) = hit {
                    if self.pending.remove(&id).is_some() {
                        done.push(Completion {
                            id,
                            completed_vr: heard_vr,
                            outcome,
                        });
                    }
                }
            }
        }
        retry_pending(&mut self.harness, &mut self.pending);
        done
    }

    fn set_telemetry(
        &mut self,
        causal: vi_telemetry::CausalRecorder,
        flight: vi_telemetry::FlightRecorder,
    ) {
        self.harness.set_telemetry(causal, flight);
    }

    fn forget(&mut self, id: u64) {
        if let Some(p) = self.pending.remove(&id) {
            match p.msg {
                RegMsg::Write { tag, .. } => {
                    self.write_index.remove(&tag);
                }
                RegMsg::Read { nonce } => {
                    self.read_index.remove(&nonce);
                }
                _ => {}
            }
            self.harness.purge(id);
        }
    }

    fn virtual_round(&self) -> u64 {
        self.harness.vr
    }

    fn stats(&self) -> ChannelStats {
        *self.harness.world.stats()
    }

    fn world_totals(&self) -> WorldTotals {
        self.harness.totals()
    }
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Per-client lock protocol state.
enum LockPhase {
    /// No request in flight.
    Idle,
    /// A `Request` is out; `Some(id)` if the measurement still counts
    /// (a timed-out acquire keeps the phase but drops the id — the
    /// grant, when it comes, is still released immediately).
    WaitGrant(Option<u64>),
}

/// The FIFO lock server under load: every op is an acquire (completes
/// when the grant is heard) followed by an immediate release. A client
/// serializes its ops; each client keeps at most one `Request`
/// outstanding at the virtual node.
pub struct MutexService {
    harness: Harness<LockVn>,
    phases: Vec<LockPhase>,
    /// Ops submitted but not yet started, per client.
    backlog: Vec<VecDeque<u64>>,
    /// Virtual round of each client's last `Request` enqueue.
    last_request_vr: Vec<u64>,
    /// Virtual round each client's in-flight op was submitted —
    /// grants heard before it are stale echoes of a *previous* op's
    /// retried request and must not complete this one.
    request_issued_vr: Vec<u64>,
    /// Retransmits burned by each client's in-flight `Request` —
    /// drives the backoff schedule; reset when a fresh op starts.
    request_attempts: Vec<u32>,
    /// Port-entry ids of queued releases (`id → releasing client`):
    /// a namespace disjoint from request ids, so release broadcasts
    /// can be recognized in the port send log and survive purges.
    release_ids: BTreeMap<u64, u32>,
    next_release_id: u64,
    /// Grant/release observations awaiting [`Service::drain_audit`].
    audit: Vec<AuditRecord>,
}

/// First port-entry id of the release namespace (request ids count up
/// from 1 and never reach it).
const RELEASE_ID_BASE: u64 = 1 << 63;

impl MutexService {
    /// Builds the lock deployment.
    pub fn new(tw: TrafficWorld, clients: usize) -> Self {
        let harness = Harness::new(LockVn, tw, clients);
        let n = harness.ports.len();
        MutexService {
            harness,
            phases: (0..n).map(|_| LockPhase::Idle).collect(),
            backlog: (0..n).map(|_| VecDeque::new()).collect(),
            last_request_vr: vec![0; n],
            request_issued_vr: vec![0; n],
            request_attempts: vec![0; n],
            release_ids: BTreeMap::new(),
            next_release_id: RELEASE_ID_BASE,
            audit: Vec::new(),
        }
    }

    /// Starts the next backlogged op of `client`, if it is idle.
    fn start_next(&mut self, client: usize, vr: u64) {
        if matches!(self.phases[client], LockPhase::Idle) {
            if let Some(id) = self.backlog[client].pop_front() {
                self.harness.enqueue(
                    client,
                    id,
                    LockMsg::Request {
                        client: client as u32,
                    },
                );
                self.phases[client] = LockPhase::WaitGrant(Some(id));
                self.last_request_vr[client] = vr;
                self.request_issued_vr[client] = vr;
                self.request_attempts[client] = 0;
            }
        }
    }
}

impl Service for MutexService {
    fn app(&self) -> AppKind {
        AppKind::Mutex
    }

    fn clients(&self) -> usize {
        self.harness.ports.len()
    }

    fn submit(&mut self, client: usize, req: &Request) -> OpDesc {
        self.backlog[client].push_back(req.id);
        self.start_next(client, req.issued_vr);
        OpDesc::Acquire
    }

    fn step_round(&mut self) -> Vec<Completion> {
        self.harness.step();
        let vr = self.harness.vr;
        let mut done = Vec::new();
        for i in 0..self.clients() {
            let me = i as u32;
            // Release broadcasts since the last round (request send
            // events share the log; only release-namespace ids count).
            for (id, sent_vr) in self.harness.drain_sent(i) {
                if let Some(client) = self.release_ids.remove(&id) {
                    self.audit.push(AuditRecord::Released {
                        client,
                        vr: sent_vr,
                    });
                }
            }
            let mut granted = None;
            for (heard_vr, msg) in self.harness.drain_rx(i) {
                if msg.granted_client() == Some(me) {
                    self.audit.push(AuditRecord::Granted {
                        client: me,
                        vr: heard_vr,
                    });
                    // A grant heard before the current op was even
                    // submitted is a stale echo (the server re-grants
                    // on retried requests); it cannot complete it.
                    if granted.is_none() && heard_vr >= self.request_issued_vr[i] {
                        granted = Some(heard_vr);
                    }
                }
            }
            if let Some(heard_vr) = granted {
                if let LockPhase::WaitGrant(id) = self.phases[i] {
                    if let Some(id) = id {
                        done.push(Completion {
                            id,
                            completed_vr: heard_vr,
                            outcome: OpOutcome::Granted,
                        });
                    }
                    // Release immediately, under a release-namespace
                    // port id (measurement-neutral).
                    let rid = self.next_release_id;
                    self.next_release_id += 1;
                    self.release_ids.insert(rid, me);
                    self.harness
                        .enqueue(i, rid, LockMsg::Release { client: me });
                    self.phases[i] = LockPhase::Idle;
                }
            }
            // Retry a lost Request (the server dedupes). The backoff
            // key is the client id: it is stable across the retries of
            // one in-flight request, measured or not.
            if let LockPhase::WaitGrant(id) = self.phases[i] {
                let wait = backoff_delay(u64::from(me), self.request_attempts[i]);
                if vr.saturating_sub(self.last_request_vr[i]) >= wait {
                    self.harness.enqueue(
                        i,
                        id.unwrap_or(u64::MAX),
                        LockMsg::Request { client: me },
                    );
                    self.last_request_vr[i] = vr;
                    self.request_attempts[i] = self.request_attempts[i].saturating_add(1);
                }
            }
            self.start_next(i, vr);
        }
        done
    }

    fn drain_audit(&mut self) -> Vec<AuditRecord> {
        std::mem::take(&mut self.audit)
    }

    fn set_telemetry(
        &mut self,
        causal: vi_telemetry::CausalRecorder,
        flight: vi_telemetry::FlightRecorder,
    ) {
        self.harness.set_telemetry(causal, flight);
    }

    fn forget(&mut self, id: u64) {
        for q in &mut self.backlog {
            q.retain(|&e| e != id);
        }
        for ph in &mut self.phases {
            if let LockPhase::WaitGrant(Some(e)) = ph {
                if *e == id {
                    // The request may already sit in the server queue:
                    // keep waiting for the grant (to release it), but
                    // stop measuring.
                    *ph = LockPhase::WaitGrant(None);
                }
            }
        }
    }

    fn virtual_round(&self) -> u64 {
        self.harness.vr
    }

    fn stats(&self) -> ChannelStats {
        *self.harness.world.stats()
    }

    fn world_totals(&self) -> WorldTotals {
        self.harness.totals()
    }
}

// ---------------------------------------------------------------------------
// Tracking
// ---------------------------------------------------------------------------

/// The tracking service under load: `Mutate` = position report
/// (completes the round it is actually broadcast), `Query` = lookup
/// of another client's object (completes when the answer is heard;
/// a broadcast answer completes every pending query for the object,
/// mirroring the server's query dedup).
pub struct TrackingService {
    harness: Harness<TrackingVn>,
    /// Round-robin target selector for queries.
    next_target: u32,
    /// Pending queries per queried object, FIFO.
    query_index: BTreeMap<u32, Vec<u64>>,
    /// Pending queries (for retries). Reports need no retry: they
    /// complete on send.
    pending: BTreeMap<u64, PendingMsg<TrackMsg>>,
    /// Outstanding report ids (completion on send).
    reports: BTreeMap<u64, ()>,
}

impl TrackingService {
    /// Builds the tracking deployment.
    pub fn new(tw: TrafficWorld, clients: usize) -> Self {
        TrackingService {
            harness: Harness::new(TrackingVn, tw, clients),
            next_target: 0,
            query_index: BTreeMap::new(),
            pending: BTreeMap::new(),
            reports: BTreeMap::new(),
        }
    }
}

impl Service for TrackingService {
    fn app(&self) -> AppKind {
        AppKind::Tracking
    }

    fn clients(&self) -> usize {
        self.harness.ports.len()
    }

    fn submit(&mut self, client: usize, req: &Request) -> OpDesc {
        match req.class {
            OpClass::Mutate => {
                let object = client as u32;
                let cell = cell_of(self.harness.pos(client), TRACK_CELL_SIZE);
                let msg = TrackMsg::Report { object, cell };
                self.harness.enqueue(client, req.id, msg);
                self.reports.insert(req.id, ());
                OpDesc::Report { object, cell }
            }
            OpClass::Query => {
                // Query the objects (other clients' reports) round-robin.
                let object = self.next_target % self.clients() as u32;
                self.next_target = self.next_target.wrapping_add(1);
                let msg = TrackMsg::Query { object };
                self.harness.enqueue(client, req.id, msg.clone());
                self.query_index.entry(object).or_default().push(req.id);
                self.pending.insert(
                    req.id,
                    PendingMsg {
                        client,
                        msg,
                        issued_vr: req.issued_vr,
                        last_enqueued_vr: req.issued_vr,
                        attempts: 0,
                    },
                );
                OpDesc::Lookup { object }
            }
        }
    }

    fn step_round(&mut self) -> Vec<Completion> {
        self.harness.step();
        let mut done = Vec::new();
        for i in 0..self.clients() {
            // Reports complete the round they hit the channel.
            for (id, sent_vr) in self.harness.drain_sent(i) {
                if self.reports.remove(&id).is_some() {
                    done.push(Completion {
                        id,
                        completed_vr: sent_vr,
                        outcome: OpOutcome::Reported,
                    });
                }
            }
            for (heard_vr, msg) in self.harness.drain_rx(i) {
                if let TrackMsg::Answer { object, cell } = msg {
                    // The answer is a broadcast: every pending query
                    // for this object is answered at once — except
                    // queries issued *after* the answer was heard
                    // (receptions drain one round late, so a stale
                    // echo of an earlier query can surface here).
                    // Those stay pending for a fresh broadcast.
                    let mut waiting = Vec::new();
                    for id in self.query_index.remove(&object).unwrap_or_default() {
                        match self.pending.get(&id) {
                            Some(p) if p.issued_vr > heard_vr => waiting.push(id),
                            Some(_) => {
                                self.pending.remove(&id);
                                done.push(Completion {
                                    id,
                                    completed_vr: heard_vr,
                                    outcome: OpOutcome::Answered { cell },
                                });
                            }
                            None => {}
                        }
                    }
                    if !waiting.is_empty() {
                        self.query_index.insert(object, waiting);
                    }
                }
            }
        }
        retry_pending(&mut self.harness, &mut self.pending);
        done
    }

    fn set_telemetry(
        &mut self,
        causal: vi_telemetry::CausalRecorder,
        flight: vi_telemetry::FlightRecorder,
    ) {
        self.harness.set_telemetry(causal, flight);
    }

    fn forget(&mut self, id: u64) {
        self.reports.remove(&id);
        if self.pending.remove(&id).is_some() {
            for ids in self.query_index.values_mut() {
                ids.retain(|&e| e != id);
            }
            self.query_index.retain(|_, ids| !ids.is_empty());
            self.harness.purge(id);
        }
    }

    fn virtual_round(&self) -> u64 {
        self.harness.vr
    }

    fn stats(&self) -> ChannelStats {
        *self.harness.world.stats()
    }

    fn world_totals(&self) -> WorldTotals {
        self.harness.totals()
    }
}

// ---------------------------------------------------------------------------
// Georouting
// ---------------------------------------------------------------------------

/// Greedy georouting under load: every op injects a packet addressed
/// to the virtual node nearest the client and completes when that
/// node's (replicated, agreed) state records the delivery.
pub struct GeoroutingService {
    harness: Harness<GeoRouterVn>,
    /// `payload → (request id, destination)`.
    in_flight: BTreeMap<u32, (u64, VnId)>,
    pending: BTreeMap<u64, PendingMsg<RouteMsg>>,
    /// Per-VN cursor into the delivered list (the folded state only
    /// appends; a reset shrinks it, losing the packets with it).
    delivered_seen: Vec<usize>,
    /// Raw delivery/reset observations awaiting
    /// [`Service::drain_audit`].
    audit: Vec<AuditRecord>,
}

impl GeoroutingService {
    /// Builds the routing deployment.
    pub fn new(tw: TrafficWorld, clients: usize) -> Self {
        let harness = Harness::new(GeoRouterVn, tw, clients);
        let vns = harness.world.deployment().layout.len();
        GeoroutingService {
            harness,
            in_flight: BTreeMap::new(),
            pending: BTreeMap::new(),
            delivered_seen: vec![0; vns],
            audit: Vec::new(),
        }
    }

    /// The virtual node nearest to `pos`.
    fn nearest_vn(&self, pos: Point) -> (VnId, Point) {
        self.harness
            .world
            .deployment()
            .layout
            .iter()
            .min_by(|(_, a), (_, b)| {
                pos.distance_sq(*a)
                    .partial_cmp(&pos.distance_sq(*b))
                    .expect("finite distances")
            })
            .expect("layouts are non-empty")
    }
}

impl Service for GeoroutingService {
    fn app(&self) -> AppKind {
        AppKind::Georouting
    }

    fn clients(&self) -> usize {
        self.harness.ports.len()
    }

    fn submit(&mut self, client: usize, req: &Request) -> OpDesc {
        let (vn, loc) = self.nearest_vn(self.harness.pos(client));
        let payload = req.id as u32;
        let msg = RouteMsg::inject(quantize(loc), payload);
        self.harness.enqueue(client, req.id, msg.clone());
        self.in_flight.insert(payload, (req.id, vn));
        self.pending.insert(
            req.id,
            PendingMsg {
                client,
                msg,
                issued_vr: req.issued_vr,
                last_enqueued_vr: req.issued_vr,
                attempts: 0,
            },
        );
        OpDesc::Send { vn: vn.0, payload }
    }

    fn step_round(&mut self) -> Vec<Completion> {
        self.harness.step();
        let vr = self.harness.vr;
        let mut done = Vec::new();
        for vn in 0..self.delivered_seen.len() {
            let Some((state, _)) = self.harness.world.vn_state(VnId(vn)) else {
                continue;
            };
            let seen = &mut self.delivered_seen[vn];
            if *seen > state.delivered.len() {
                *seen = state.delivered.len(); // reset lost state
                self.audit.push(AuditRecord::VnReset { vn, vr });
            }
            for &payload in &state.delivered[*seen..] {
                self.audit.push(AuditRecord::Delivered { vn, payload, vr });
                if let Some((id, _)) = self.in_flight.remove(&payload) {
                    if self.pending.remove(&id).is_some() {
                        done.push(Completion {
                            id,
                            completed_vr: vr,
                            outcome: OpOutcome::Delivered,
                        });
                    }
                }
            }
            *seen = state.delivered.len();
        }
        retry_pending(&mut self.harness, &mut self.pending);
        done
    }

    fn drain_audit(&mut self) -> Vec<AuditRecord> {
        std::mem::take(&mut self.audit)
    }

    fn set_telemetry(
        &mut self,
        causal: vi_telemetry::CausalRecorder,
        flight: vi_telemetry::FlightRecorder,
    ) {
        self.harness.set_telemetry(causal, flight);
    }

    fn forget(&mut self, id: u64) {
        if self.pending.remove(&id).is_some() {
            self.in_flight.retain(|_, &mut (e, _)| e != id);
            self.harness.purge(id);
        }
    }

    fn virtual_round(&self) -> u64 {
        self.harness.vr
    }

    fn stats(&self) -> ChannelStats {
        *self.harness.world.stats()
    }

    fn world_totals(&self) -> WorldTotals {
        self.harness.totals()
    }
}

/// Builds the service adapter for `app` over `tw`.
pub fn build_service(app: AppKind, tw: TrafficWorld, clients: usize) -> Box<dyn Service> {
    match app {
        AppKind::Register => Box::new(RegisterService::new(tw, clients)),
        AppKind::Mutex => Box::new(MutexService::new(tw, clients)),
        AppKind::Tracking => Box::new(TrackingService::new(tw, clients)),
        AppKind::Georouting => Box::new(GeoroutingService::new(tw, clients)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_radio::mobility::Static;

    /// One virtual node at (50, 50) with `n` static devices close by.
    fn small_world(n: usize, seed: u64) -> TrafficWorld {
        let vn = Point::new(50.0, 50.0);
        let devices = (0..n)
            .map(|i| {
                let start = Point::new(49.4 + 0.4 * i as f64, 50.2);
                DevicePlan {
                    start,
                    mobility: Box::new(Static::new(start)) as Box<dyn MobilityModel>,
                    spawn_at: None,
                    crash_at: None,
                }
            })
            .collect();
        TrafficWorld {
            radio: RadioConfig::reliable(10.0, 20.0),
            layout: VnLayout::new(vec![vn], 2.5),
            seed,
            adversary: AdversaryKind::None,
            devices,
        }
    }

    fn run_until<S: Service + ?Sized>(svc: &mut S, rounds: u64) -> Vec<Completion> {
        let mut all = Vec::new();
        for _ in 0..rounds {
            all.extend(svc.step_round());
        }
        all
    }

    #[test]
    fn register_write_and_read_complete() {
        let mut svc = RegisterService::new(small_world(3, 5), 2);
        svc.submit(
            0,
            &Request {
                id: 1,
                class: OpClass::Mutate,
                issued_vr: 0,
            },
        );
        svc.submit(
            1,
            &Request {
                id: 2,
                class: OpClass::Query,
                issued_vr: 0,
            },
        );
        let done = run_until(&mut svc, 20);
        let ids: Vec<u64> = done.iter().map(|c| c.id).collect();
        assert!(ids.contains(&1), "write acked: {done:?}");
        assert!(ids.contains(&2), "read answered: {done:?}");
        for c in &done {
            assert!(c.completed_vr >= 1, "completions are round-stamped");
        }
    }

    #[test]
    fn mutex_cycles_complete_and_serialize() {
        let mut svc = MutexService::new(small_world(3, 7), 2);
        for (client, id) in [(0usize, 1u64), (1, 2), (0, 3)] {
            svc.submit(
                client,
                &Request {
                    id,
                    class: OpClass::Mutate,
                    issued_vr: 0,
                },
            );
        }
        let done = run_until(&mut svc, 60);
        let mut ids: Vec<u64> = done.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3], "all lock cycles completed: {done:?}");
    }

    #[test]
    fn tracking_reports_complete_on_send_and_queries_on_answer() {
        let mut svc = TrackingService::new(small_world(3, 9), 2);
        svc.submit(
            0,
            &Request {
                id: 1,
                class: OpClass::Mutate,
                issued_vr: 0,
            },
        );
        let done = run_until(&mut svc, 6);
        assert!(
            done.iter().any(|c| c.id == 1),
            "report completes on send: {done:?}"
        );
        svc.submit(
            1,
            &Request {
                id: 2,
                class: OpClass::Query,
                issued_vr: 6,
            },
        );
        let done = run_until(&mut svc, 20);
        assert!(done.iter().any(|c| c.id == 2), "query answered: {done:?}");
    }

    #[test]
    fn georouting_packets_complete_on_delivery() {
        let mut svc = GeoroutingService::new(small_world(3, 11), 1);
        svc.submit(
            0,
            &Request {
                id: 1,
                class: OpClass::Mutate,
                issued_vr: 0,
            },
        );
        let done = run_until(&mut svc, 25);
        assert_eq!(done.len(), 1, "packet delivered exactly once: {done:?}");
        assert_eq!(done[0].id, 1);
    }

    #[test]
    fn forget_cancels_measurement_but_not_protocol() {
        let mut svc = MutexService::new(small_world(3, 13), 2);
        svc.submit(
            0,
            &Request {
                id: 1,
                class: OpClass::Mutate,
                issued_vr: 0,
            },
        );
        svc.submit(
            1,
            &Request {
                id: 2,
                class: OpClass::Mutate,
                issued_vr: 0,
            },
        );
        svc.forget(1);
        let done = run_until(&mut svc, 60);
        let ids: Vec<u64> = done.iter().map(|c| c.id).collect();
        assert!(!ids.contains(&1), "forgotten op not reported: {done:?}");
        assert!(
            ids.contains(&2),
            "the other client still gets the lock (no wedge): {done:?}"
        );
    }

    #[test]
    fn register_outcomes_are_semantic() {
        let mut svc = RegisterService::new(small_world(3, 5), 2);
        let op = svc.submit(
            0,
            &Request {
                id: 1,
                class: OpClass::Mutate,
                issued_vr: 0,
            },
        );
        assert_eq!(op, OpDesc::Write { value: 1 });
        let mut done = run_until(&mut svc, 20);
        let op = svc.submit(
            1,
            &Request {
                id: 2,
                class: OpClass::Query,
                issued_vr: 20,
            },
        );
        assert_eq!(op, OpDesc::Read);
        done.extend(run_until(&mut svc, 20));
        let write = done.iter().find(|c| c.id == 1).expect("write done");
        assert_eq!(write.outcome, OpOutcome::Acked);
        let read = done.iter().find(|c| c.id == 2).expect("read done");
        assert_eq!(
            read.outcome,
            OpOutcome::ReadValue { tag: 1, value: 1 },
            "the read issued after the ack sees the write"
        );
    }

    #[test]
    fn mutex_audit_records_alternating_grants_and_releases() {
        let mut svc = MutexService::new(small_world(3, 7), 2);
        for (client, id) in [(0usize, 1u64), (1, 2)] {
            svc.submit(
                client,
                &Request {
                    id,
                    class: OpClass::Mutate,
                    issued_vr: 0,
                },
            );
        }
        let mut audit = Vec::new();
        for _ in 0..60 {
            let done = svc.step_round();
            for c in &done {
                assert_eq!(c.outcome, OpOutcome::Granted);
            }
            audit.extend(svc.drain_audit());
        }
        let grants = audit
            .iter()
            .filter(|r| matches!(r, AuditRecord::Granted { .. }))
            .count();
        let releases = audit
            .iter()
            .filter(|r| matches!(r, AuditRecord::Released { .. }))
            .count();
        assert_eq!(grants, 2, "one grant per acquire: {audit:?}");
        assert_eq!(releases, 2, "every grant is released: {audit:?}");
        // Per client: the grant precedes the release.
        for me in 0..2u32 {
            let g = audit.iter().find_map(|r| match r {
                AuditRecord::Granted { client, vr } if *client == me => Some(*vr),
                _ => None,
            });
            let rel = audit.iter().find_map(|r| match r {
                AuditRecord::Released { client, vr } if *client == me => Some(*vr),
                _ => None,
            });
            assert!(
                g.unwrap() <= rel.unwrap(),
                "grant before release: {audit:?}"
            );
        }
    }

    #[test]
    fn georouting_audit_records_raw_deliveries() {
        let mut svc = GeoroutingService::new(small_world(3, 11), 1);
        let op = svc.submit(
            0,
            &Request {
                id: 1,
                class: OpClass::Mutate,
                issued_vr: 0,
            },
        );
        assert_eq!(op, OpDesc::Send { vn: 0, payload: 1 });
        let mut audit = Vec::new();
        let mut done = Vec::new();
        for _ in 0..25 {
            done.extend(svc.step_round());
            audit.extend(svc.drain_audit());
        }
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].outcome, OpOutcome::Delivered);
        assert_eq!(
            audit,
            vec![AuditRecord::Delivered {
                vn: 0,
                payload: 1,
                vr: done[0].completed_vr,
            }],
            "exactly one raw delivery, same round as the completion"
        );
    }

    #[test]
    fn services_are_deterministic_per_seed() {
        let run = || {
            let mut svc = RegisterService::new(small_world(4, 21), 3);
            let mut id = 0u64;
            let mut log = Vec::new();
            for vr in 0..30u64 {
                if vr.is_multiple_of(3) {
                    id += 1;
                    svc.submit(
                        (id % 3) as usize,
                        &Request {
                            id,
                            class: if id.is_multiple_of(2) {
                                OpClass::Query
                            } else {
                                OpClass::Mutate
                            },
                            issued_vr: vr,
                        },
                    );
                }
                log.extend(svc.step_round());
            }
            log
        };
        assert_eq!(
            run(),
            run(),
            "identical runs must match completion-for-completion"
        );
    }

    /// The backoff schedule is a pure function: deterministic per
    /// `(key, attempt)`, never below the base interval, never past the
    /// cap plus its half-interval jitter, and (de-jittered) monotone
    /// non-decreasing in the attempt count.
    #[test]
    fn backoff_delay_is_deterministic_bounded_and_monotone() {
        for key in [0u64, 1, 7, u64::MAX] {
            let mut prev_base = 0u64;
            for attempt in 0..40u32 {
                let d = backoff_delay(key, attempt);
                assert_eq!(d, backoff_delay(key, attempt), "pure function");
                let base = RETRY_ROUNDS
                    .saturating_mul(1u64 << attempt.min(31))
                    .min(RETRY_CAP_ROUNDS);
                assert!(d >= base, "jitter only ever delays: {d} < {base}");
                assert!(d <= RETRY_CAP_ROUNDS + RETRY_CAP_ROUNDS / 2, "bounded: {d}");
                assert!(base >= prev_base, "base never shrinks");
                prev_base = base;
            }
            assert!(
                backoff_delay(key, 39) >= RETRY_CAP_ROUNDS,
                "deep attempts saturate at the cap"
            );
        }
    }

    /// Different keys de-synchronize: across many keys the first-retry
    /// jitter takes more than one value (lockstep retransmits are what
    /// the jitter exists to break).
    #[test]
    fn backoff_jitter_spreads_across_keys() {
        let spread: std::collections::BTreeSet<u64> =
            (0..64u64).map(|key| backoff_delay(key, 0)).collect();
        assert!(spread.len() > 1, "jitter must vary by key: {spread:?}");
        for &d in &spread {
            assert!((RETRY_ROUNDS..=RETRY_ROUNDS + RETRY_ROUNDS / 2).contains(&d));
        }
    }
}
