//! The uniform request/response interface over the vi-apps: one
//! adapter, four app descriptions.
//!
//! A [`Service`] presents one application (register, mutex, tracking,
//! georouting) running on a [`World`] in the shape a load generator
//! understands: `submit` a [`Request`], `step_round` the deployment by
//! one virtual round, harvest [`Completion`]s. Each request's
//! lifecycle is round-stamped — issued at a virtual round, completed
//! at the virtual round its response was heard — so latency is always
//! measured in the emulation's own clock.
//!
//! That lifecycle is written once. `Adapter<A>` is the only
//! `impl Service`; its `Harness` owns the client ports, the one
//! pending-request table (keyed by backoff key), the one retry pass
//! ([`backoff_delay`]), `forget` / purge and the audit-record buffer.
//! An `App` is a private description of what differs between the
//! four: `submit` says how a request becomes a message and an
//! [`OpDesc`]; `resolve` says how one send event, heard message or
//! virtual-node state (`Seen`) settles pending ops — including the
//! stale-echo guards, which are functions of `(heard round, message,
//! pending table)` and need no `World` to run or to test. Mutex is the
//! one different protocol (one in-flight acquire per client, a release
//! owed even after `forget`); its per-client phase is that same table
//! read by client id. [`build_service`] picks the description.
//!
//! Client endpoints are ordinary [`ClientApp`]s: a `Port` shared
//! (via `Rc<RefCell<_>>`, the `World` is single-threaded) between the
//! harness and the in-world client program shuttles outbound messages
//! and observed receptions. Ports broadcast in staggered slots —
//! client `i` speaks only in virtual rounds `vr ≡ i (mod clients)` —
//! so client-phase broadcasts never collide with each other.

use crate::workload::AppKind;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;
use vi_apps::georouting::{quantize, GeoRouterVn, RouteMsg};
use vi_apps::mutex::{LockMsg, LockVn};
use vi_apps::register::{RegMsg, RegisterVn};
use vi_apps::tracking::{cell_of, TrackMsg, TrackingVn};
use vi_core::vi::{
    ClientApp, EmulatorReport, VirtualAutomaton, VirtualInput, VnId, VnLayout, World, WorldConfig,
};
use vi_radio::geometry::Point;
use vi_radio::mobility::MobilityModel;
use vi_radio::trace::ChannelStats;
use vi_radio::{AdversaryKind, RadioConfig};
use vi_telemetry::Observers;

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
/// (`RETRY_ROUNDS` · 2^attempt) up to `RETRY_CAP_ROUNDS`; a
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

/// Aggregated virtual-node emulation counters for a traffic run: the
/// world's summed [`EmulatorReport`].
pub type WorldTotals = EmulatorReport;

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
    /// Does nothing: a traffic world receives its observers when
    /// [`crate::run_traffic`] builds it. Kept only because the frozen
    /// benchmark sources under `examples/perf/` implement it; the
    /// benchmark-only PR that deletes the mirror deletes it too.
    #[doc(hidden)]
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

/// The shared mailbox between the adapter and its in-world client.
struct Port<M> {
    /// Messages awaiting broadcast: `(port-entry id, message)`, FIFO.
    outbox: VecDeque<(u64, M)>,
    /// Messages heard, tagged with the virtual round they arrived in.
    rx: Vec<(u64, M)>,
    /// Send events: `(port-entry id, virtual round broadcast)`.
    sent: Vec<(u64, u64)>,
    /// Device position as of the last client phase.
    pos: Point,
    /// This client's stagger slot.
    slot: u64,
    /// Stagger stride (the client count).
    stride: u64,
}

/// The [`ClientApp`] end of a port: records receptions, broadcasts
/// the head of the outbox on this client's stagger slots.
struct PortClient<M> {
    port: Rc<RefCell<Port<M>>>,
}

impl<M: Clone + 'static> ClientApp<M> for PortClient<M> {
    fn on_virtual_round(&mut self, vr: u64, pos: Point, prev: &VirtualInput<M>) -> Option<M> {
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
}

/// A request awaiting its response, with retry bookkeeping.
struct PendingMsg<M> {
    /// Port-entry id its (re)transmissions are queued under: the
    /// request id, or [`UNMEASURED_ID`] once a mutex acquire that must
    /// still be released was forgotten.
    id: u64,
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

/// The request lifecycle every app shares, written once: the client
/// ports, the pending-request table with its retry pass, `forget` /
/// purge, and the audit-record buffer. It holds no [`World`], so the
/// per-app resolution rules run (and are unit-tested) over hand-built
/// receptions.
struct Harness<M> {
    ports: Vec<Rc<RefCell<Port<M>>>>,
    /// Completed virtual rounds.
    vr: u64,
    /// Pending requests by **backoff key** — the `key` of
    /// [`backoff_delay`], stable across the retransmits of one
    /// request: the request id for register, tracking and georouting;
    /// the client id for mutex (one in-flight acquire per client,
    /// measured or not).
    pending: BTreeMap<u64, PendingMsg<M>>,
    /// Completions of the round being resolved, in (client index,
    /// arrival) order.
    done: Vec<Completion>,
    /// Observations awaiting [`Service::drain_audit`].
    audit: Vec<AuditRecord>,
    /// Empty buffers [`Service::step_round`] trades for each port's
    /// full `sent` / `rx` in turn, so neither side ever regrows.
    sent: Vec<(u64, u64)>,
    rx: Vec<(u64, M)>,
}

impl<M: Clone> Harness<M> {
    fn new() -> Self {
        Harness {
            ports: Vec::new(),
            vr: 0,
            pending: BTreeMap::new(),
            done: Vec::new(),
            audit: Vec::new(),
            sent: Vec::new(),
            rx: Vec::new(),
        }
    }

    /// Adds the next client's port (stagger slot = its index) and
    /// returns the in-world end of it.
    fn add_port(&mut self, stride: usize, start: Point) -> PortClient<M> {
        let port = Rc::new(RefCell::new(Port {
            outbox: VecDeque::new(),
            rx: Vec::new(),
            sent: Vec::new(),
            pos: start,
            slot: self.ports.len() as u64,
            stride: stride as u64,
        }));
        self.ports.push(Rc::clone(&port));
        PortClient { port }
    }

    /// Client `i`'s current position.
    fn pos(&self, i: usize) -> Point {
        self.ports[i].borrow().pos
    }

    /// Queues `(id, msg)` on client `i`'s port.
    fn enqueue(&mut self, i: usize, id: u64, msg: M) {
        self.ports[i].borrow_mut().outbox.push_back((id, msg));
    }

    /// Starts the lifecycle of request `id`: queues `msg` on `client`'s
    /// port and files it for retransmission under `backoff_key`.
    fn issue(&mut self, backoff_key: u64, id: u64, client: usize, msg: M, issued_vr: u64) {
        self.enqueue(client, id, msg.clone());
        self.pending.insert(
            backoff_key,
            PendingMsg {
                id,
                client,
                msg,
                issued_vr,
                last_enqueued_vr: issued_vr,
                attempts: 0,
            },
        );
    }

    /// Resolves the request pending under `backoff_key`, if it still
    /// is (a request already forgotten or completed yields nothing),
    /// and reports its completion unless it went unmeasured.
    fn complete(&mut self, backoff_key: u64, completed_vr: u64, outcome: OpOutcome) {
        if let Some(p) = self.pending.remove(&backoff_key) {
            if p.id != UNMEASURED_ID {
                self.done.push(Completion {
                    id: p.id,
                    completed_vr,
                    outcome,
                });
            }
        }
    }

    /// Drops the request pending under `backoff_key` together with its
    /// queued-but-unsent transmissions, and hands it back so the app
    /// can clear its own index of it.
    fn forget(&mut self, backoff_key: u64) -> Option<PendingMsg<M>> {
        let p = self.pending.remove(&backoff_key)?;
        for port in &self.ports {
            port.borrow_mut().outbox.retain(|&(e, _)| e != p.id);
        }
        Some(p)
    }

    /// The one retry pass: retransmits every pending message whose
    /// last enqueue is older than its [`backoff_delay`] (all app
    /// messages are idempotent at the virtual node).
    fn retry(&mut self) {
        for (&key, p) in &mut self.pending {
            if self.vr.saturating_sub(p.last_enqueued_vr) >= backoff_delay(key, p.attempts) {
                self.ports[p.client]
                    .borrow_mut()
                    .outbox
                    .push_back((p.id, p.msg.clone()));
                p.last_enqueued_vr = self.vr;
                p.attempts = p.attempts.saturating_add(1);
            }
        }
    }
}

/// The message type of app `A`'s virtual node.
type MsgOf<A> = <<A as App>::Vn as VirtualAutomaton>::Msg;

/// One thing the adapter saw in the round just run.
enum Seen<'a, A: App + ?Sized> {
    /// Port entry `id` was broadcast in virtual round `vr`.
    Sent { id: u64, vr: u64 },
    /// `client` heard `msg` in virtual round `vr`.
    Heard {
        client: usize,
        vr: u64,
        msg: &'a MsgOf<A>,
    },
    /// Virtual node `vn`'s most advanced replica holds `state`.
    VnState {
        vn: usize,
        state: &'a <A::Vn as VirtualAutomaton>::State,
    },
}

/// What differs between the four apps: how a [`Request`] becomes a
/// message and an [`OpDesc`], and how one send event / heard message /
/// virtual-node state resolves pending ops into [`Completion`]s.
/// Everything else is [`Adapter`] and [`Harness`].
trait App {
    /// The virtual-node program the deployment emulates.
    type Vn: VirtualAutomaton + Default;
    const KIND: AppKind;
    /// Whether [`App::resolve`] wants [`Seen::VnState`] every round.
    const READS_VN_STATE: bool = false;

    /// Turns `req` into its message(s) on `client`'s port.
    fn submit(&mut self, h: &mut Harness<MsgOf<Self>>, client: usize, req: &Request) -> OpDesc;

    /// Resolves what `seen` settles: [`Harness::complete`] for each op
    /// it answers, audit records for what the checkers need.
    fn resolve(&mut self, h: &mut Harness<MsgOf<Self>>, seen: Seen<'_, Self>);

    /// Cancels the measurement of timed-out request `id`.
    fn forget(&mut self, h: &mut Harness<MsgOf<Self>>, id: u64);
}

/// The one request/response adapter: a [`World`] emulating `A::Vn`,
/// the shared [`Harness`], and the app description `A`.
struct Adapter<A: App> {
    world: World<A::Vn>,
    harness: Harness<MsgOf<A>>,
    app: A,
}

impl<A: App> Adapter<A> {
    /// Builds the world: every device emulates; the first `clients`
    /// devices additionally run a traffic port.
    ///
    /// # Panics
    ///
    /// Panics if `clients` exceeds the device count or is zero.
    fn new(app: A, tw: TrafficWorld, clients: usize, obs: Observers) -> Self {
        assert!(clients >= 1, "traffic needs at least one client");
        assert!(
            clients <= tw.devices.len(),
            "traffic needs {clients} clients but only {} devices deployed",
            tw.devices.len()
        );
        let mut world = World::new(WorldConfig {
            radio: tw.radio,
            layout: tw.layout,
            automaton: A::Vn::default(),
            seed: tw.seed,
            record_trace: false,
        });
        world.set_adversary(tw.adversary.build());
        world.set_observers(obs);
        let mut harness = Harness::new();
        for (i, d) in tw.devices.into_iter().enumerate() {
            let client = (i < clients)
                .then(|| Box::new(harness.add_port(clients, d.start)) as Box<dyn ClientApp<_>>);
            world.add_device_spec(d.mobility, client, d.spawn_at, d.crash_at);
        }
        Adapter {
            world,
            harness,
            app,
        }
    }
}

impl<A: App> Service for Adapter<A> {
    fn app(&self) -> AppKind {
        A::KIND
    }

    fn clients(&self) -> usize {
        self.harness.ports.len()
    }

    fn submit(&mut self, client: usize, req: &Request) -> OpDesc {
        self.app.submit(&mut self.harness, client, req)
    }

    fn step_round(&mut self) -> Vec<Completion> {
        self.world.run_virtual_rounds(1);
        let (h, app) = (&mut self.harness, &mut self.app);
        h.vr += 1;
        let (mut sent, mut rx) = (std::mem::take(&mut h.sent), std::mem::take(&mut h.rx));
        for client in 0..h.ports.len() {
            {
                let mut port = h.ports[client].borrow_mut();
                std::mem::swap(&mut sent, &mut port.sent);
                std::mem::swap(&mut rx, &mut port.rx);
            }
            for (id, vr) in sent.drain(..) {
                app.resolve(h, Seen::Sent { id, vr });
            }
            for (vr, msg) in rx.drain(..) {
                let msg = &msg;
                app.resolve(h, Seen::Heard { client, vr, msg });
            }
        }
        (h.sent, h.rx) = (sent, rx);
        if A::READS_VN_STATE {
            for vn in 0..self.world.deployment().layout.len() {
                if let Some((state, _)) = self.world.vn_view(VnId(vn)) {
                    app.resolve(h, Seen::VnState { vn, state });
                }
            }
        }
        h.retry();
        std::mem::take(&mut h.done)
    }

    fn drain_audit(&mut self) -> Vec<AuditRecord> {
        std::mem::take(&mut self.harness.audit)
    }

    fn forget(&mut self, id: u64) {
        self.app.forget(&mut self.harness, id);
    }

    fn virtual_round(&self) -> u64 {
        self.harness.vr
    }

    fn stats(&self) -> ChannelStats {
        *self.world.stats()
    }

    fn world_totals(&self) -> WorldTotals {
        self.world.report()
    }
}

// ---------------------------------------------------------------------------
// Register
// ---------------------------------------------------------------------------

/// The single-writer register under load: `Mutate` = tagged write
/// (completes on the matching `Ack`), `Query` = nonce'd read
/// (completes on the matching `Value`).
#[derive(Default)]
struct Register {
    next_tag: u64,
    next_nonce: u64,
    /// `write tag → request id`.
    write_index: BTreeMap<u64, u64>,
    /// `read nonce → request id`.
    read_index: BTreeMap<u64, u64>,
}

impl App for Register {
    type Vn = RegisterVn;
    const KIND: AppKind = AppKind::Register;

    fn submit(&mut self, h: &mut Harness<RegMsg>, client: usize, req: &Request) -> OpDesc {
        let (msg, op) = match req.class {
            OpClass::Mutate => {
                self.next_tag += 1;
                self.write_index.insert(self.next_tag, req.id);
                let (tag, value) = (self.next_tag, req.id);
                (RegMsg::Write { tag, value }, OpDesc::Write { value })
            }
            OpClass::Query => {
                self.next_nonce += 1;
                self.read_index.insert(self.next_nonce, req.id);
                let nonce = self.next_nonce;
                (RegMsg::Read { nonce }, OpDesc::Read)
            }
        };
        h.issue(req.id, req.id, client, msg, req.issued_vr);
        op
    }

    fn resolve(&mut self, h: &mut Harness<RegMsg>, seen: Seen<'_, Self>) {
        let Seen::Heard { vr, msg, .. } = seen else {
            return;
        };
        let hit = match *msg {
            RegMsg::Ack { tag } => self
                .write_index
                .remove(&tag)
                .map(|id| (id, OpOutcome::Acked)),
            RegMsg::Value { nonce, tag, value } => self
                .read_index
                .remove(&nonce)
                .map(|id| (id, OpOutcome::ReadValue { tag, value })),
            _ => None,
        };
        if let Some((id, outcome)) = hit {
            h.complete(id, vr, outcome);
        }
    }

    fn forget(&mut self, h: &mut Harness<RegMsg>, id: u64) {
        match h.forget(id).map(|p| p.msg) {
            Some(RegMsg::Write { tag, .. }) => {
                self.write_index.remove(&tag);
            }
            Some(RegMsg::Read { nonce }) => {
                self.read_index.remove(&nonce);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// First port-entry id of the release namespace (request ids count up
/// from 1 and never reach it).
const RELEASE_ID_BASE: u64 = 1 << 63;

/// Port-entry id of an acquire whose measurement was forgotten: its
/// retransmits go on, its grant completes nothing.
const UNMEASURED_ID: u64 = u64::MAX;

/// The FIFO lock server under load: every op is an acquire (completes
/// when the grant is heard) followed by an immediate release. It is a
/// different protocol from the other three: a client serializes its
/// ops and keeps at most one `Request` outstanding at the virtual
/// node, and the obligation to release a granted lock outlives
/// `forget`. The per-client phase is the shared pending table read by
/// client id: no entry = idle; an entry = waiting for the grant, its
/// `id` the measured request or [`UNMEASURED_ID`].
struct Mutex {
    /// Ops submitted but not yet started, per client.
    backlog: Vec<VecDeque<u64>>,
    /// Port-entry ids of queued releases (`id → releasing client`):
    /// a namespace disjoint from request ids, so release broadcasts
    /// can be recognized in the port send log and survive purges.
    release_ids: BTreeMap<u64, u32>,
    next_release_id: u64,
}

impl Mutex {
    fn new(clients: usize) -> Self {
        Mutex {
            backlog: vec![VecDeque::new(); clients],
            release_ids: BTreeMap::new(),
            next_release_id: RELEASE_ID_BASE,
        }
    }

    /// Starts the next backlogged op of `client`, if it is idle. The
    /// backoff key is the client id: it is stable across the retries
    /// of one in-flight request, measured or not.
    fn start_next(&mut self, h: &mut Harness<LockMsg>, client: usize, vr: u64) {
        if !h.pending.contains_key(&(client as u64)) {
            if let Some(id) = self.backlog[client].pop_front() {
                let msg = LockMsg::Request {
                    client: client as u32,
                };
                h.issue(client as u64, id, client, msg, vr);
            }
        }
    }
}

impl App for Mutex {
    type Vn = LockVn;
    const KIND: AppKind = AppKind::Mutex;

    fn submit(&mut self, h: &mut Harness<LockMsg>, client: usize, req: &Request) -> OpDesc {
        self.backlog[client].push_back(req.id);
        self.start_next(h, client, req.issued_vr);
        OpDesc::Acquire
    }

    fn resolve(&mut self, h: &mut Harness<LockMsg>, seen: Seen<'_, Self>) {
        match seen {
            // Release broadcasts (request send events share the log;
            // only release-namespace ids count).
            Seen::Sent { id, vr } => {
                if let Some(client) = self.release_ids.remove(&id) {
                    h.audit.push(AuditRecord::Released { client, vr });
                }
            }
            Seen::Heard { client, vr, msg } if msg.granted_client() == Some(client as u32) => {
                let me = client as u32;
                h.audit.push(AuditRecord::Granted { client: me, vr });
                // A grant heard before the current op was even
                // submitted is a stale echo of an earlier op's
                // request; it cannot complete this one.
                if !matches!(h.pending.get(&u64::from(me)), Some(p) if vr >= p.issued_vr) {
                    return;
                }
                h.complete(u64::from(me), vr, OpOutcome::Granted);
                // Release immediately, under a release-namespace port
                // id (measurement-neutral), then start the next op.
                let rid = self.next_release_id;
                self.next_release_id += 1;
                self.release_ids.insert(rid, me);
                h.enqueue(client, rid, LockMsg::Release { client: me });
                self.start_next(h, client, h.vr);
            }
            _ => {}
        }
    }

    fn forget(&mut self, h: &mut Harness<LockMsg>, id: u64) {
        for q in &mut self.backlog {
            q.retain(|&e| e != id);
        }
        // The request may already sit in the server queue: keep
        // waiting for the grant (to release it), but stop measuring.
        for p in h.pending.values_mut().filter(|p| p.id == id) {
            p.id = UNMEASURED_ID;
        }
    }
}

// ---------------------------------------------------------------------------
// Tracking
// ---------------------------------------------------------------------------

/// Tracking-report quantization (meters per cell).
const TRACK_CELL_SIZE: f64 = 10.0;

/// The tracking service under load: `Mutate` = position report
/// (completes the round it is actually broadcast, so it is never
/// pending and never retried), `Query` = lookup of another client's
/// object (completes when the answer is heard; a broadcast answer
/// completes every pending query for the object, mirroring the
/// server's query dedup).
#[derive(Default)]
struct Tracking {
    /// Round-robin target selector for queries.
    next_target: u32,
    /// Pending queries per queried object, FIFO.
    query_index: BTreeMap<u32, Vec<u64>>,
    /// Outstanding report ids (completion on send).
    reports: BTreeSet<u64>,
}

impl App for Tracking {
    type Vn = TrackingVn;
    const KIND: AppKind = AppKind::Tracking;

    fn submit(&mut self, h: &mut Harness<TrackMsg>, client: usize, req: &Request) -> OpDesc {
        match req.class {
            OpClass::Mutate => {
                let object = client as u32;
                let cell = cell_of(h.pos(client), TRACK_CELL_SIZE);
                h.enqueue(client, req.id, TrackMsg::Report { object, cell });
                self.reports.insert(req.id);
                OpDesc::Report { object, cell }
            }
            OpClass::Query => {
                // Query the objects (other clients' reports) round-robin.
                let object = self.next_target % h.ports.len() as u32;
                self.next_target = self.next_target.wrapping_add(1);
                let msg = TrackMsg::Query { object };
                h.issue(req.id, req.id, client, msg, req.issued_vr);
                self.query_index.entry(object).or_default().push(req.id);
                OpDesc::Lookup { object }
            }
        }
    }

    fn resolve(&mut self, h: &mut Harness<TrackMsg>, seen: Seen<'_, Self>) {
        match seen {
            // Reports complete the round they hit the channel.
            Seen::Sent { id, vr } => {
                let reported = self.reports.remove(&id);
                h.done.extend(reported.then_some(Completion {
                    id,
                    completed_vr: vr,
                    outcome: OpOutcome::Reported,
                }));
            }
            // The answer is a broadcast: every pending query for this
            // object is answered at once — except queries issued
            // *after* the answer was heard (receptions drain one round
            // late, so a stale echo of an earlier query can surface
            // here). Those stay pending for a fresh broadcast.
            Seen::Heard {
                vr,
                msg: &TrackMsg::Answer { object, cell },
                ..
            } => {
                let mut ids = self.query_index.remove(&object).unwrap_or_default();
                ids.retain(|id| {
                    let waits = matches!(h.pending.get(id), Some(p) if p.issued_vr > vr);
                    if !waits {
                        h.complete(*id, vr, OpOutcome::Answered { cell });
                    }
                    waits
                });
                if !ids.is_empty() {
                    self.query_index.insert(object, ids);
                }
            }
            _ => {}
        }
    }

    fn forget(&mut self, h: &mut Harness<TrackMsg>, id: u64) {
        self.reports.remove(&id);
        if h.forget(id).is_some() {
            self.query_index.retain(|_, ids| {
                ids.retain(|&e| e != id);
                !ids.is_empty()
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Georouting
// ---------------------------------------------------------------------------

/// Greedy georouting under load: every op injects a packet addressed
/// to the virtual node nearest the client and completes when that
/// node's (replicated, agreed) state records the delivery.
struct Georouting {
    /// The virtual-node locations packets are addressed to.
    vns: Vec<(VnId, Point)>,
    /// `payload → request id`.
    in_flight: BTreeMap<u32, u64>,
    /// Per-VN cursor into the delivered list (the folded state only
    /// appends; a reset shrinks it, losing the packets with it).
    delivered_seen: Vec<usize>,
}

impl Georouting {
    fn new(layout: &VnLayout) -> Self {
        Georouting {
            vns: layout.iter().collect(),
            in_flight: BTreeMap::new(),
            delivered_seen: vec![0; layout.len()],
        }
    }
}

impl App for Georouting {
    type Vn = GeoRouterVn;
    const KIND: AppKind = AppKind::Georouting;
    const READS_VN_STATE: bool = true;

    fn submit(&mut self, h: &mut Harness<RouteMsg>, client: usize, req: &Request) -> OpDesc {
        let pos = h.pos(client);
        let &(vn, loc) = self
            .vns
            .iter()
            .min_by(|(_, a), (_, b)| {
                pos.distance_sq(*a)
                    .partial_cmp(&pos.distance_sq(*b))
                    .expect("finite distances")
            })
            .expect("layouts are non-empty");
        let payload = req.id as u32;
        let msg = RouteMsg::inject(quantize(loc), payload);
        h.issue(req.id, req.id, client, msg, req.issued_vr);
        self.in_flight.insert(payload, req.id);
        OpDesc::Send { vn: vn.0, payload }
    }

    /// Raw deliveries and resets, read off the borrowed state: only
    /// the tail past the cursor is looked at, nothing is cloned.
    fn resolve(&mut self, h: &mut Harness<RouteMsg>, seen: Seen<'_, Self>) {
        let Seen::VnState { vn, state } = seen else {
            return;
        };
        let vr = h.vr;
        let seen = &mut self.delivered_seen[vn];
        if *seen > state.delivered.len() {
            *seen = state.delivered.len(); // reset lost state
            h.audit.push(AuditRecord::VnReset { vn, vr });
        }
        for &payload in &state.delivered[*seen..] {
            h.audit.push(AuditRecord::Delivered { vn, payload, vr });
            if let Some(id) = self.in_flight.remove(&payload) {
                h.complete(id, vr, OpOutcome::Delivered);
            }
        }
        *seen = state.delivered.len();
    }

    fn forget(&mut self, h: &mut Harness<RouteMsg>, id: u64) {
        if h.forget(id).is_some() {
            self.in_flight.retain(|_, &mut e| e != id);
        }
    }
}

/// Builds the service adapter for `app` over `tw`, unobserved.
pub fn build_service(app: AppKind, tw: TrafficWorld, clients: usize) -> Box<dyn Service> {
    build_observed(app, tw, clients, Observers::default())
}

/// [`build_service`] with the run's observers installed on the world.
pub(crate) fn build_observed(
    app: AppKind,
    tw: TrafficWorld,
    clients: usize,
    obs: Observers,
) -> Box<dyn Service> {
    match app {
        AppKind::Register => Box::new(Adapter::new(Register::default(), tw, clients, obs)),
        AppKind::Mutex => Box::new(Adapter::new(Mutex::new(clients), tw, clients, obs)),
        AppKind::Tracking => Box::new(Adapter::new(Tracking::default(), tw, clients, obs)),
        AppKind::Georouting => {
            Box::new(Adapter::new(Georouting::new(&tw.layout), tw, clients, obs))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One virtual node at (50, 50) with `n` static devices close by.
    fn small_world(n: usize, seed: u64) -> TrafficWorld {
        let vn = Point::new(50.0, 50.0);
        let devices = (0..n)
            .map(|i| {
                let start = Point::new(49.4 + 0.4 * i as f64, 50.2);
                DevicePlan {
                    start,
                    mobility: Box::new(start) as Box<dyn MobilityModel>,
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
        let mut svc = build_service(AppKind::Register, small_world(3, 5), 2);
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
        let done = run_until(&mut *svc, 20);
        let ids: Vec<u64> = done.iter().map(|c| c.id).collect();
        assert!(ids.contains(&1), "write acked: {done:?}");
        assert!(ids.contains(&2), "read answered: {done:?}");
        for c in &done {
            assert!(c.completed_vr >= 1, "completions are round-stamped");
        }
    }

    #[test]
    fn mutex_cycles_complete_and_serialize() {
        let mut svc = build_service(AppKind::Mutex, small_world(3, 7), 2);
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
        let done = run_until(&mut *svc, 60);
        let mut ids: Vec<u64> = done.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3], "all lock cycles completed: {done:?}");
    }

    #[test]
    fn tracking_reports_complete_on_send_and_queries_on_answer() {
        let mut svc = build_service(AppKind::Tracking, small_world(3, 9), 2);
        svc.submit(
            0,
            &Request {
                id: 1,
                class: OpClass::Mutate,
                issued_vr: 0,
            },
        );
        let done = run_until(&mut *svc, 6);
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
        let done = run_until(&mut *svc, 20);
        assert!(done.iter().any(|c| c.id == 2), "query answered: {done:?}");
    }

    #[test]
    fn georouting_packets_complete_on_delivery() {
        let mut svc = build_service(AppKind::Georouting, small_world(3, 11), 1);
        svc.submit(
            0,
            &Request {
                id: 1,
                class: OpClass::Mutate,
                issued_vr: 0,
            },
        );
        let done = run_until(&mut *svc, 25);
        assert_eq!(done.len(), 1, "packet delivered exactly once: {done:?}");
        assert_eq!(done[0].id, 1);
    }

    #[test]
    fn forget_cancels_measurement_but_not_protocol() {
        let mut svc = build_service(AppKind::Mutex, small_world(3, 13), 2);
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
        let done = run_until(&mut *svc, 60);
        let ids: Vec<u64> = done.iter().map(|c| c.id).collect();
        assert!(!ids.contains(&1), "forgotten op not reported: {done:?}");
        assert!(
            ids.contains(&2),
            "the other client still gets the lock (no wedge): {done:?}"
        );
    }

    #[test]
    fn register_outcomes_are_semantic() {
        let mut svc = build_service(AppKind::Register, small_world(3, 5), 2);
        let op = svc.submit(
            0,
            &Request {
                id: 1,
                class: OpClass::Mutate,
                issued_vr: 0,
            },
        );
        assert_eq!(op, OpDesc::Write { value: 1 });
        let mut done = run_until(&mut *svc, 20);
        let op = svc.submit(
            1,
            &Request {
                id: 2,
                class: OpClass::Query,
                issued_vr: 20,
            },
        );
        assert_eq!(op, OpDesc::Read);
        done.extend(run_until(&mut *svc, 20));
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
        let mut svc = build_service(AppKind::Mutex, small_world(3, 7), 2);
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
        let mut svc = build_service(AppKind::Georouting, small_world(3, 11), 1);
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
            let mut svc = build_service(AppKind::Register, small_world(4, 21), 3);
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

    // -- Per-app resolution rules over hand-built receptions (no World) --

    /// A world-free harness with `n` client ports.
    fn harness<M: Clone>(n: usize) -> Harness<M> {
        let mut h = Harness::new();
        for _ in 0..n {
            h.add_port(n, Point::new(0.0, 0.0));
        }
        h
    }

    fn req(id: u64, class: OpClass, issued_vr: u64) -> Request {
        Request {
            id,
            class,
            issued_vr,
        }
    }

    /// Client `i`'s queued port entries.
    fn outbox<M: Clone>(h: &Harness<M>, i: usize) -> Vec<(u64, M)> {
        h.ports[i].borrow().outbox.iter().cloned().collect()
    }

    #[test]
    fn tracking_answer_heard_before_a_query_was_issued_leaves_it_pending() {
        // (query issued, answer heard, the answer completes it)
        for (issued_vr, heard_vr, completes) in [(5, 9, true), (9, 9, true), (10, 9, false)] {
            let (mut h, mut app) = (harness(2), Tracking::default());
            let op = app.submit(&mut h, 1, &req(7, OpClass::Query, issued_vr));
            assert_eq!(op, OpDesc::Lookup { object: 0 });
            let answer = TrackMsg::Answer {
                object: 0,
                cell: Some((4, 5)),
            };
            let heard = |vr| Seen::Heard {
                client: 1,
                vr,
                msg: &answer,
            };
            app.resolve(&mut h, heard(heard_vr));
            let done = |completed_vr| {
                vec![Completion {
                    id: 7,
                    completed_vr,
                    outcome: OpOutcome::Answered { cell: Some((4, 5)) },
                }]
            };
            if completes {
                assert_eq!(h.done, done(heard_vr), "issued {issued_vr}");
                assert!(h.pending.is_empty() && app.query_index.is_empty());
                continue;
            }
            assert!(h.done.is_empty(), "a stale echo answered a later query");
            assert_eq!(app.query_index[&0], vec![7], "still indexed");
            assert!(h.pending.contains_key(&7), "still retried");
            app.resolve(&mut h, heard(issued_vr));
            assert_eq!(h.done, done(issued_vr), "a fresh broadcast completes it");
        }
    }

    #[test]
    fn mutex_grant_heard_before_the_op_was_submitted_does_not_complete_it() {
        // (op submitted, grant heard, the grant completes it)
        for (issued_vr, heard_vr, completes) in [(10, 9, false), (10, 10, true), (10, 12, true)] {
            let (mut h, mut app) = (harness(2), Mutex::new(2));
            app.submit(&mut h, 1, &req(3, OpClass::Mutate, issued_vr));
            let grant = LockMsg::Grant { client: 1 };
            app.resolve(
                &mut h,
                Seen::Heard {
                    client: 1,
                    vr: heard_vr,
                    msg: &grant,
                },
            );
            let granted = AuditRecord::Granted {
                client: 1,
                vr: heard_vr,
            };
            assert_eq!(h.audit, vec![granted], "every grant is on the record");
            let request = (3, LockMsg::Request { client: 1 });
            if completes {
                let c = Completion {
                    id: 3,
                    completed_vr: heard_vr,
                    outcome: OpOutcome::Granted,
                };
                assert_eq!(h.done, vec![c]);
                assert!(h.pending.is_empty(), "idle again");
                let release = (RELEASE_ID_BASE, LockMsg::Release { client: 1 });
                assert_eq!(outbox(&h, 1), vec![request, release]);
            } else {
                assert!(h.done.is_empty(), "a stale echo completed the op");
                assert!(h.pending.contains_key(&1), "still waiting for its grant");
                assert_eq!(outbox(&h, 1), vec![request], "nothing to release");
            }
        }
    }

    #[test]
    fn mutex_grant_after_forget_queues_the_release_and_completes_nothing() {
        let (mut h, mut app) = (harness(2), Mutex::new(2));
        app.submit(&mut h, 0, &req(1, OpClass::Mutate, 3));
        app.submit(&mut h, 0, &req(2, OpClass::Mutate, 3));
        app.forget(&mut h, 1);
        assert_eq!(h.pending[&0].id, UNMEASURED_ID, "kept for the release");
        // The unmeasured request is still retransmitted, under the
        // client's backoff key and the unmeasured port id.
        h.vr = 3 + backoff_delay(0, 0);
        h.retry();
        let request = LockMsg::Request { client: 0 };
        assert_eq!(
            outbox(&h, 0),
            vec![(1, request.clone()), (UNMEASURED_ID, request.clone())],
            "forget purges nothing: the server may already queue the request"
        );
        let grant = LockMsg::Grant { client: 0 };
        app.resolve(
            &mut h,
            Seen::Heard {
                client: 0,
                vr: 5,
                msg: &grant,
            },
        );
        assert!(h.done.is_empty(), "a forgotten acquire completed");
        assert_eq!(h.audit, vec![AuditRecord::Granted { client: 0, vr: 5 }]);
        assert_eq!(
            outbox(&h, 0)[2..],
            [
                (RELEASE_ID_BASE, LockMsg::Release { client: 0 }),
                (2, request)
            ],
            "the late grant is released, then the backlog moves on"
        );
        assert_eq!(h.pending[&0].id, 2, "the next op is the in-flight one");
        app.resolve(
            &mut h,
            Seen::Sent {
                id: RELEASE_ID_BASE,
                vr: 8,
            },
        );
        assert_eq!(h.audit[1], AuditRecord::Released { client: 0, vr: 8 });
    }

    #[test]
    fn register_forget_clears_the_tag_and_nonce_index() {
        let late_replies = [
            (OpClass::Mutate, RegMsg::Ack { tag: 1 }),
            (
                OpClass::Query,
                RegMsg::Value {
                    nonce: 1,
                    tag: 0,
                    value: 0,
                },
            ),
        ];
        for (class, late_reply) in late_replies {
            let (mut h, mut app) = (harness(1), Register::default());
            app.submit(&mut h, 0, &req(9, class, 2));
            assert_eq!(app.write_index.len() + app.read_index.len(), 1);
            assert_eq!(outbox(&h, 0).len(), 1);
            app.forget(&mut h, 9);
            assert!(
                app.write_index.is_empty() && app.read_index.is_empty(),
                "forget leaked the {class:?} index entry"
            );
            assert!(h.pending.is_empty(), "no more retransmits");
            assert!(outbox(&h, 0).is_empty(), "unsent copies are purged");
            app.resolve(
                &mut h,
                Seen::Heard {
                    client: 0,
                    vr: 4,
                    msg: &late_reply,
                },
            );
            assert!(h.done.is_empty(), "a forgotten op completed");
        }
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
