//! The replica process run by mobile devices (Section 4.3).
//!
//! A [`Device`] is one mobile node. Per the paper, each device runs
//! two components: the *client* program (the user's code, see
//! [`crate::vi::client`]) and the *emulator*, which replicates the
//! virtual node whose region the device currently occupies.
//!
//! Lifecycle: entering a virtual node's region (within `R1/4` of its
//! location) makes the device a *joiner*; the join / join-ack / reset
//! sub-protocol either transfers it the current replica state or — if
//! the virtual node is provably dead (total silence in the reset
//! phase) — lets it re-initialize the virtual node. Leaving the region
//! drops the emulation. Crashing at any point is tolerated by CHAP.
//! The transfer is a [`TransferState`] snapshot shared by every joiner
//! that hears the join-ack; its JSON length, counted once by the
//! sender, is the join-ack's wire size.
//!
//! Within a virtual round (see [`RoundPlan`]) a replica:
//!
//! 1. listens in the **client phase**, accumulating observed messages;
//! 2. in the **vn phase** broadcasts the virtual node's message iff it
//!    has *decided* state through the previous virtual round (green —
//!    external visibility is gated on green, which is what makes the
//!    footnote-2 scenario safe) — gated by the contention manager when
//!    the virtual node is scheduled, unconditional when not (the
//!    paper's "counterintuitive rule": if the virtual node ignores its
//!    schedule, the replica does too);
//! 3. runs one CHAP instance for this virtual round — in the three
//!    **scheduled** rounds if the virtual node is scheduled, else in
//!    the stretched **unscheduled** instance whose ballot phase gives
//!    every nearby virtual node its own slot;
//! 4. participates in **join/join-ack/reset**.
//!
//! On a green instance the replica folds the decided suffix into the
//! automaton state (checkpoint-CHA, Section 3.5) and garbage-collects.

use crate::cha::history::{Ballot, Color};
use crate::cha::protocol::ChaProtocol;
use crate::vi::automaton::{VirtualAutomaton, VirtualInput, VnCtx, VnId};
use crate::vi::client::{ClientApp, VirtualReception};
use crate::vi::layout::VnLayout;
use crate::vi::message::{Transfer, VrProposal, Wire};
use crate::vi::round::{RoundPlan, VirtualPhase};
use crate::vi::schedule::Schedule;
use serde::Serialize;
use std::any::Any;
use std::rc::Rc;
use std::{fmt, io};
use vi_contention::{CmSlot, SharedCm};
use vi_radio::{Process, RoundCtx, RoundReception};

/// Everything shared by all devices of one deployment.
pub struct Deployment<VA: VirtualAutomaton> {
    /// The virtual-node program (identical at every replica).
    pub automaton: VA,
    /// Virtual-node placement.
    pub layout: VnLayout,
    /// The Section 4.1 broadcast schedule.
    pub schedule: Schedule,
    /// Real-round structure of a virtual round.
    pub plan: RoundPlan,
    /// One regional contention manager per virtual node.
    pub cms: Vec<SharedCm>,
}

impl<VA: VirtualAutomaton> Deployment<VA> {
    fn cm(&self, vn: VnId) -> &SharedCm {
        &self.cms[vn.index()]
    }
}

impl<VA: VirtualAutomaton> fmt::Debug for Deployment<VA> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Deployment")
            .field("vns", &self.layout.len())
            .field("schedule_len", &self.schedule.len())
            .finish_non_exhaustive()
    }
}

/// The replica state a join-ack carries: the CHA protocol suffix plus
/// the checkpointed automaton state (Section 4.3's "entire current
/// state"). A replica builds it once per join-ack and every joiner that
/// hears the ack clones it out (see [`Transfer`]). Its JSON form is
/// counted, not kept (a debug build also writes it once, to check the
/// count), and the count is the transfer's wire size.
#[derive(Debug, Serialize)]
pub struct TransferState<S, A> {
    /// CHA state: instance counter, prev pointer, floor, and the
    /// un-collected ballot/status suffix.
    pub protocol: ChaProtocol<VrProposal<A>>,
    /// Automaton state folded through `folded_to`.
    pub vn_state: S,
    /// The virtual node's pending outbound message.
    pub pending_out: Option<A>,
    /// Virtual round through which `vn_state` is folded (== the
    /// protocol's floor).
    pub folded_to: u64,
}

/// Statistics one emulator accumulates (extracted by experiments).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EmulatorReport {
    /// Green (decided) instances.
    pub decided: u64,
    /// ⊥ instances.
    pub bottom: u64,
    /// Successful joins via state transfer.
    pub joins: u64,
    /// Virtual-node resets performed.
    pub resets: u64,
    /// Virtual rounds in which this replica broadcast for the virtual
    /// node.
    pub vn_broadcasts: u64,
}

impl std::ops::AddAssign for EmulatorReport {
    fn add_assign(&mut self, r: Self) {
        self.decided += r.decided;
        self.bottom += r.bottom;
        self.joins += r.joins;
        self.resets += r.resets;
        self.vn_broadcasts += r.vn_broadcasts;
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Waiting to join: request, await ack, maybe reset.
    Joining { requested: bool },
    /// A full replica.
    Replica,
}

/// The per-virtual-node emulation state of one device.
struct Emulator<VA: VirtualAutomaton> {
    vn: VnId,
    slot: CmSlot,
    mode: Mode,
    protocol: ChaProtocol<VrProposal<VA::Msg>>,
    vn_state: VA::State,
    pending_out: Option<VA::Msg>,
    /// Observations accumulated during the client/vn phases of the
    /// current virtual round (cleared, never replaced: the buffer is
    /// reused round after round).
    obs: VrProposal<VA::Msg>,
    /// The automaton's input, refilled per folded virtual round.
    input: VirtualInput<VA::Msg>,
    /// Whether this replica started the CHA instance for the current
    /// virtual round.
    began: bool,
    /// Whether the virtual node is scheduled this virtual round.
    scheduled: bool,
    /// Contention-manager advice for the current round.
    cm_active: bool,
    /// Join request or collision seen in the join/join-ack phases of
    /// this virtual round.
    join_activity: bool,
    /// The last concluded instance ended green.
    last_green: bool,
    report: EmulatorReport,
}

impl<VA: VirtualAutomaton> Emulator<VA> {
    fn joining(vn: VnId, dep: &Deployment<VA>) -> Self {
        Emulator {
            vn,
            slot: dep.cm(vn).register(),
            mode: Mode::Joining { requested: false },
            protocol: ChaProtocol::new(),
            vn_state: dep.automaton.init(),
            pending_out: None,
            obs: VrProposal::empty(),
            input: VirtualInput::silent(),
            began: false,
            scheduled: false,
            cm_active: false,
            join_activity: false,
            last_green: false,
            report: EmulatorReport::default(),
        }
    }

    fn is_replica(&self) -> bool {
        self.mode == Mode::Replica
    }

    /// Virtual round through which `vn_state` is folded: the
    /// protocol's checkpoint floor.
    fn folded_to(&self) -> u64 {
        self.protocol.floor()
    }

    /// Folds the decided suffix of a green instance into the automaton
    /// state and garbage-collects (checkpoint-CHA): one automaton step
    /// per virtual round since the last checkpoint.
    fn fold_green(&mut self, dep: &Deployment<VA>, upto: u64) {
        let vn = self.vn;
        self.protocol.fold_decided(upto, |k, decided| {
            // ⊥ is `VirtualInput::bottom()`: nothing heard, a collision.
            match decided {
                Some(p) => self.input.messages.clone_from(&p.messages),
                None => self.input.messages.clear(),
            }
            self.input.collision = decided.is_none_or(|p| p.collision);
            let ctx = VnCtx {
                vn,
                loc: dep.layout.location(vn),
                vr: k,
                scheduled: dep.schedule.is_scheduled(vn, k),
                next_scheduled: dep.schedule.is_scheduled(vn, k + 1),
            };
            self.pending_out = dep.automaton.step(&mut self.vn_state, ctx, &self.input);
        });
    }

    /// Concludes the instance for `vr` after the final veto phase.
    fn conclude(&mut self, dep: &Deployment<VA>, vr: u64, veto: bool, collision: bool) {
        let color = self.protocol.finish_instance(veto, collision);
        debug_assert_eq!(
            self.protocol.instance(),
            vr,
            "instance/virtual-round alignment"
        );
        if color == Color::Green {
            self.report.decided += 1;
            self.last_green = true;
            self.fold_green(dep, vr);
        } else {
            self.report.bottom += 1;
            self.last_green = false;
        }
    }

    /// Snapshots the replica state into a join-ack's transfer, sized
    /// by its JSON length.
    fn encode_transfer(&self) -> Transfer<VA::State, VA::Msg> {
        let state = Rc::new(TransferState {
            protocol: self.protocol.clone(),
            vn_state: self.vn_state.clone(),
            pending_out: self.pending_out.clone(),
            folded_to: self.folded_to(),
        });
        let mut count = ByteCount(0);
        serde_json::to_writer(&mut count, &*state).expect("replica state serializes");
        debug_assert_eq!(count.0, serde_json::to_vec(&*state).map_or(0, |v| v.len()));
        Transfer {
            state,
            bytes: count.0,
        }
    }

    fn adopt_transfer(&mut self, transfer: &Transfer<VA::State, VA::Msg>) {
        let ts = &*transfer.state;
        debug_assert_eq!(ts.folded_to, ts.protocol.floor());
        self.protocol.clone_from(&ts.protocol);
        self.vn_state.clone_from(&ts.vn_state);
        self.pending_out.clone_from(&ts.pending_out);
        self.mode = Mode::Replica;
        self.report.joins += 1;
    }

    /// Re-initializes the virtual node (reset sub-protocol): fresh
    /// automaton state, CHA resuming at the current virtual round.
    fn reset(&mut self, dep: &Deployment<VA>, vr: u64) {
        self.protocol = ChaProtocol::from_checkpoint(vr, vr);
        self.vn_state = dep.automaton.init();
        self.pending_out = None;
        self.mode = Mode::Replica;
        self.report.resets += 1;
    }
}

/// An `io::Write` sink that only counts: the JSON length of a transfer
/// without the JSON.
struct ByteCount(usize);

impl io::Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One mobile device: optional client program plus the emulator for
/// whichever virtual node's region it currently occupies.
pub struct Device<VA: VirtualAutomaton> {
    dep: Rc<Deployment<VA>>,
    emulator: Option<Emulator<VA>>,
    /// Reports of emulations this device has since left (region
    /// departures), so churn statistics survive.
    retired: Vec<(VnId, EmulatorReport)>,
    client: Option<Box<dyn ClientApp<VA::Msg>>>,
    /// Client-side reception accumulating for the current virtual
    /// round.
    client_rx: VirtualReception<VA::Msg>,
    /// Completed reception of the previous virtual round (what the
    /// client app sees).
    client_prev: VirtualReception<VA::Msg>,
    /// The round `transmit` last planned, with its virtual round and phase, for `deliver`.
    planned: (u64, u64, VirtualPhase),
}

impl<VA: VirtualAutomaton> Device<VA> {
    /// Creates a device. Pass `client: None` for a pure emulation
    /// relay (a device whose user runs no program).
    pub fn new(dep: Rc<Deployment<VA>>, client: Option<Box<dyn ClientApp<VA::Msg>>>) -> Self {
        Device {
            dep,
            emulator: None,
            retired: Vec::new(),
            client,
            client_rx: VirtualReception::default(),
            client_prev: VirtualReception::default(),
            planned: (u64::MAX, 0, VirtualPhase::Reset),
        }
    }

    /// The emulator's statistics, if the device currently emulates a
    /// virtual node.
    pub fn emulator_report(&self) -> Option<(VnId, EmulatorReport)> {
        self.emulator.as_ref().map(|e| (e.vn, e.report))
    }

    /// All emulation reports over the device's lifetime: retired
    /// (left-region) emulations, then the current one.
    pub(crate) fn lifetime_reports(&self) -> impl Iterator<Item = (VnId, EmulatorReport)> + '_ {
        self.retired.iter().copied().chain(self.emulator_report())
    }

    /// `true` if the device is currently a full replica.
    pub fn is_replica(&self) -> Option<VnId> {
        self.emulator
            .as_ref()
            .filter(|e| e.is_replica())
            .map(|e| e.vn)
    }

    /// The replica's view of its virtual node: `(state, folded_to,
    /// pending_out)`, available when it is a replica.
    #[allow(clippy::type_complexity)] // a named struct would just re-spell the tuple
    pub fn vn_view(&self) -> Option<(&VA::State, u64, Option<&VA::Msg>)> {
        self.emulator
            .as_ref()
            .filter(|e| e.is_replica())
            .map(|e| (&e.vn_state, e.folded_to(), e.pending_out.as_ref()))
    }

    /// Typed access to the client app.
    pub fn client<T: 'static>(&self) -> Option<&T> {
        let client: &dyn Any = self.client.as_deref()?;
        client.downcast_ref::<T>()
    }

    /// Called at each virtual-round boundary: region management and
    /// buffer rotation.
    fn begin_virtual_round(&mut self, vr: u64, pos: vi_radio::geometry::Point) {
        // Region management: enter/leave emulations.
        let dep = Rc::clone(&self.dep);
        let here = dep.layout.region_of(pos);
        match (&mut self.emulator, here) {
            (Some(e), Some(vn)) if e.vn == vn => {}
            (em, here) => {
                if let Some(old) = em.take() {
                    self.retired.push((old.vn, old.report));
                }
                *em = here.map(|vn| Emulator::joining(vn, &dep));
            }
        }
        if let Some(e) = self.emulator.as_mut() {
            // A replica whose CHA stream fell out of alignment (e.g.
            // engine paused it) can no longer participate correctly:
            // demote it to joiner (defensive; cannot happen in normal
            // runs).
            if e.is_replica() && e.protocol.instance() != vr - 1 {
                e.mode = Mode::Joining { requested: false };
            }
            e.obs.messages.clear();
            e.obs.collision = false;
            e.began = false;
            e.join_activity = false;
            e.scheduled = dep.schedule.is_scheduled(e.vn, vr);
            if let Mode::Joining { requested } = &mut e.mode {
                *requested = false;
            }
        }
    }
}

impl<VA: VirtualAutomaton> Process<Wire<VA::Msg, VA::State>> for Device<VA> {
    fn transmit(&mut self, ctx: &RoundCtx) -> Option<Wire<VA::Msg, VA::State>> {
        let (vr, phase) = self.dep.plan.phase(ctx.round);
        self.planned = (ctx.round, vr, phase);
        if phase == VirtualPhase::Client {
            self.begin_virtual_round(vr, ctx.pos);
        }

        // Replicas contend every round so the regional manager's
        // temporary-leader lease stays warm.
        if let Some(e) = self.emulator.as_mut() {
            if e.is_replica() {
                e.cm_active = self
                    .dep
                    .cm(e.vn)
                    .contend(e.slot, ctx.round, ctx.pos)
                    .is_active();
            } else {
                e.cm_active = false;
            }
        }

        match phase {
            VirtualPhase::Client => {
                // The reception just completed becomes the client's
                // view; its predecessor's buffer collects the next.
                std::mem::swap(&mut self.client_rx, &mut self.client_prev);
                self.client_rx.messages.clear();
                self.client_rx.collision = false;
                let app = self.client.as_mut()?;
                app.on_virtual_round(vr, ctx.pos, &self.client_prev)
                    .map(Wire::Client)
            }
            VirtualPhase::Vn => {
                let e = self.emulator.as_mut()?;
                if !e.is_replica() || e.folded_to() != vr - 1 {
                    return None; // external visibility gated on green
                }
                let payload = e.pending_out.clone()?;
                if e.scheduled && !e.cm_active {
                    return None;
                }
                e.report.vn_broadcasts += 1;
                Some(Wire::VnMsg { vn: e.vn, payload })
            }
            VirtualPhase::SchedBallot | VirtualPhase::UnschedBallot(_) => {
                let e = self.emulator.as_mut()?;
                if !e.is_replica() || !ballot_phase_is_mine(e, &self.dep, phase) {
                    return None;
                }
                e.obs.canonicalize();
                e.protocol.start_instance();
                e.began = true;
                // Only the leader's proposal leaves the device.
                (e.cm_active).then(|| Wire::Ballot {
                    vn: e.vn,
                    ballot: Ballot::new(e.obs.clone(), e.protocol.prev_instance()),
                })
            }
            VirtualPhase::SchedVeto1 | VirtualPhase::UnschedVeto1 => {
                let e = self.emulator.as_ref()?;
                (e.began
                    && phase_matches_instance(e.scheduled, phase)
                    && e.protocol.veto1_broadcast())
                .then(|| Wire::Veto { vn: e.vn })
            }
            VirtualPhase::SchedVeto2 | VirtualPhase::UnschedVeto2 => {
                let e = self.emulator.as_ref()?;
                (e.began
                    && phase_matches_instance(e.scheduled, phase)
                    && e.protocol.veto2_broadcast())
                .then(|| Wire::Veto { vn: e.vn })
            }
            VirtualPhase::Join => {
                let e = self.emulator.as_mut()?;
                if e.is_replica() || !e.scheduled {
                    return None;
                }
                e.mode = Mode::Joining { requested: true };
                Some(Wire::JoinReq { vn: e.vn })
            }
            VirtualPhase::JoinAck => {
                let e = self.emulator.as_ref()?;
                (e.is_replica() && e.scheduled && e.join_activity && e.cm_active).then(|| {
                    Wire::JoinAck {
                        vn: e.vn,
                        transfer: e.encode_transfer(),
                    }
                })
            }
            VirtualPhase::Reset => {
                let e = self.emulator.as_ref()?;
                // Like join and join-ack, the liveness assertion runs
                // only in the virtual node's scheduled rounds: the
                // schedule keeps neighbouring join sub-protocols from
                // cross-talking (a neighbour's Alive would otherwise
                // block this virtual node's bootstrap reset forever).
                (e.is_replica() && e.scheduled && e.join_activity).then(|| Wire::Alive { vn: e.vn })
            }
        }
    }

    fn deliver(&mut self, ctx: &RoundCtx, rx: RoundReception<'_, Wire<VA::Msg, VA::State>>) {
        let (round, vr, phase) = self.planned;
        debug_assert_eq!(round, ctx.round, "deliver follows transmit");
        let dep = Rc::clone(&self.dep);
        match phase {
            VirtualPhase::Client | VirtualPhase::Vn => {
                for m in rx.messages {
                    // Each message phase hears only its own kind.
                    if let (VirtualPhase::Client, Wire::Client(payload))
                    | (VirtualPhase::Vn, Wire::VnMsg { payload, .. }) = (phase, m)
                    {
                        self.client_rx.messages.push(payload.clone());
                        if let Some(e) = self.emulator.as_mut() {
                            e.obs.messages.push(payload.clone());
                        }
                    }
                }
                self.client_rx.collision |= rx.collision;
                if let Some(e) = self.emulator.as_mut() {
                    e.obs.collision |= rx.collision;
                }
            }
            VirtualPhase::SchedBallot | VirtualPhase::UnschedBallot(_) => {
                let Some(e) = self.emulator.as_mut() else {
                    return;
                };
                if !e.began || !ballot_phase_is_mine(e, &dep, phase) {
                    return;
                }
                let min_ballot = Ballot::min_heard(rx.messages.iter().filter_map(|m| match m {
                    Wire::Ballot { vn, ballot } if *vn == e.vn => Some(ballot),
                    _ => None,
                }));
                e.protocol.on_ballot_phase(min_ballot, rx.collision);
            }
            VirtualPhase::SchedVeto1 | VirtualPhase::UnschedVeto1 => {
                let Some(e) = self.emulator.as_mut() else {
                    return;
                };
                if e.began && phase_matches_instance(e.scheduled, phase) {
                    let veto = heard_veto(&rx, e.vn);
                    e.protocol.on_veto1_phase(veto, rx.collision);
                }
            }
            VirtualPhase::SchedVeto2 | VirtualPhase::UnschedVeto2 => {
                let Some(e) = self.emulator.as_mut() else {
                    return;
                };
                if e.began && phase_matches_instance(e.scheduled, phase) {
                    let veto = heard_veto(&rx, e.vn);
                    e.conclude(&dep, vr, veto, rx.collision);
                }
            }
            VirtualPhase::Join => {
                let Some(e) = self.emulator.as_mut() else {
                    return;
                };
                if e.is_replica() && e.scheduled {
                    let req = rx
                        .messages
                        .iter()
                        .any(|m| matches!(m, Wire::JoinReq { vn } if *vn == e.vn));
                    e.join_activity |= req || rx.collision;
                }
            }
            VirtualPhase::JoinAck => {
                let Some(e) = self.emulator.as_mut() else {
                    return;
                };
                if e.is_replica() {
                    if e.scheduled {
                        e.join_activity |= rx.collision;
                    }
                } else if matches!(e.mode, Mode::Joining { requested: true }) {
                    for m in rx.messages {
                        if let Wire::JoinAck { vn, transfer } = m {
                            if *vn == e.vn {
                                e.adopt_transfer(transfer);
                                break;
                            }
                        }
                    }
                }
            }
            VirtualPhase::Reset => {
                if let Some(e) = self.emulator.as_mut() {
                    if matches!(e.mode, Mode::Joining { requested: true })
                        && rx.messages.is_empty()
                        && !rx.collision
                    {
                        // Total silence: the virtual node is dead;
                        // safe to re-initialize it (Section 4.3).
                        e.reset(&dep, vr);
                    }
                }
                // End of the virtual round: a co-located replica that
                // ended ⊥ instructs its client to simulate a collision
                // (Section 3.3).
                if let Some(e) = self.emulator.as_ref() {
                    if e.is_replica() && e.began && !e.last_green {
                        self.client_rx.collision = true;
                    }
                }
            }
        }
    }
}

/// Whether a veto/conclude phase belongs to the instance this replica
/// is running (scheduled replicas use the scheduled phases, and vice
/// versa).
fn phase_matches_instance(scheduled: bool, phase: VirtualPhase) -> bool {
    match phase {
        VirtualPhase::SchedVeto1 | VirtualPhase::SchedVeto2 => scheduled,
        VirtualPhase::UnschedVeto1 | VirtualPhase::UnschedVeto2 => !scheduled,
        _ => false,
    }
}

fn ballot_phase_is_mine<VA: VirtualAutomaton>(
    e: &Emulator<VA>,
    dep: &Deployment<VA>,
    phase: VirtualPhase,
) -> bool {
    match phase {
        VirtualPhase::SchedBallot => e.scheduled,
        VirtualPhase::UnschedBallot(slot) => {
            !e.scheduled && slot == dep.plan.unsched_ballot_slot(dep.schedule.slot_of(e.vn))
        }
        _ => false,
    }
}

fn heard_veto<A, S>(rx: &RoundReception<'_, Wire<A, S>>, vn: VnId) -> bool {
    rx.messages
        .iter()
        .any(|m| matches!(m, Wire::Veto { vn: v } if *v == vn))
}
