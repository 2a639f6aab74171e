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
//! 1. listens in the **client and vn phases**: its device's client
//!    reception, sorted, is what it proposes in step 3;
//! 2. in the **vn phase** broadcasts the virtual node's message iff it
//!    has *decided* state through the previous virtual round (green —
//!    external visibility is gated on green, which is what makes the
//!    footnote-2 scenario safe) — gated by the contention manager when
//!    the virtual node is scheduled, unconditional when not (the
//!    paper's "counterintuitive rule": if the virtual node ignores its
//!    schedule, the replica does too);
//! 3. runs one CHAP instance for this virtual round: the three steps
//!    of Figure 1 ([`VirtualPhase::Cha`], keyed by [`Phase`]) of the
//!    **scheduled** instance if the virtual node is scheduled, else of
//!    the **unscheduled** one, balloting in the slot of its stretched
//!    ballot that the schedule gives the virtual node; it skips the
//!    other instance's steps and the other slots;
//! 4. participates in **join/join-ack/reset**.
//!
//! On a green instance the replica folds the decided suffix into the
//! automaton state (checkpoint-CHA, Section 3.5), stepping it on each
//! decided proposal ([`VirtualInput::bottom`] for ⊥), and
//! garbage-collects.

use crate::cha::history::{Ballot, Color};
use crate::cha::protocol::{ChaProtocol, Phase};
use crate::vi::automaton::{VirtualAutomaton, VirtualInput, VnCtx, VnId};
use crate::vi::client::ClientApp;
use crate::vi::layout::VnLayout;
use crate::vi::message::{Transfer, Wire};
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
    pub protocol: ChaProtocol<VirtualInput<A>>,
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

impl EmulatorReport {
    /// The share of concluded instances that ended green (0 when none
    /// concluded).
    pub fn decided_fraction(&self) -> f64 {
        self.decided as f64 / (self.decided + self.bottom).max(1) as f64
    }
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
    protocol: ChaProtocol<VirtualInput<VA::Msg>>,
    vn_state: VA::State,
    pending_out: Option<VA::Msg>,
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

    /// Whether a CHAP step of the `scheduled` (or unscheduled) instance,
    /// in unscheduled-ballot `slot` if any, is this replica's own.
    fn runs(&self, dep: &Deployment<VA>, scheduled: bool, slot: Option<u64>) -> bool {
        self.scheduled == scheduled
            && slot.is_none_or(|c| c == dep.plan.unsched_ballot_slot(dep.schedule.slot_of(self.vn)))
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
        let bottom = VirtualInput::bottom();
        self.protocol.fold_decided(upto, |k, decided| {
            let ctx = VnCtx {
                vn,
                loc: dep.layout.location(vn),
                vr: k,
                scheduled: dep.schedule.is_scheduled(vn, k),
                next_scheduled: dep.schedule.is_scheduled(vn, k + 1),
            };
            let input = decided.unwrap_or(&bottom);
            self.pending_out = dep.automaton.step(&mut self.vn_state, ctx, input);
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
    /// What the device hears this virtual round: its client's
    /// reception and its replica's proposal.
    client_rx: VirtualInput<VA::Msg>,
    /// Completed reception of the previous virtual round (what the
    /// client app sees).
    client_prev: VirtualInput<VA::Msg>,
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
            client_rx: VirtualInput::default(),
            client_prev: VirtualInput::default(),
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
            VirtualPhase::Cha {
                scheduled,
                step,
                slot,
            } => {
                let e = self.emulator.as_mut()?;
                if !e.runs(&self.dep, scheduled, slot) {
                    return None;
                }
                match step {
                    Phase::Ballot if e.is_replica() => {
                        e.protocol.start_instance();
                        e.began = true;
                        // Only the leader's proposal leaves the device:
                        // what it heard in the client and vn phases,
                        // sorted.
                        e.cm_active.then(|| {
                            let mut proposal = self.client_rx.clone();
                            proposal.canonicalize();
                            Wire::Ballot {
                                vn: e.vn,
                                ballot: Ballot::new(proposal, e.protocol.prev_instance()),
                            }
                        })
                    }
                    // Nobody vetoes in a ballot phase, and a device that
                    // did not begin this instance vetoes in no phase.
                    _ => (e.began && e.protocol.vetoes(step)).then(|| Wire::Veto { vn: e.vn }),
                }
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
                    }
                }
                self.client_rx.collision |= rx.collision;
            }
            VirtualPhase::Cha {
                scheduled,
                step,
                slot,
            } => {
                let Some(e) = self.emulator.as_mut() else {
                    return;
                };
                if !e.began || !e.runs(&dep, scheduled, slot) {
                    return;
                }
                match step {
                    Phase::Ballot => {
                        let min_ballot =
                            Ballot::min_heard(rx.messages.iter().filter_map(|m| match m {
                                Wire::Ballot { vn, ballot } if *vn == e.vn => Some(ballot),
                                _ => None,
                            }));
                        e.protocol.on_ballot_phase(min_ballot, rx.collision);
                    }
                    Phase::Veto1 => {
                        let veto = heard_veto(&rx, e.vn);
                        e.protocol.on_veto1_phase(veto, rx.collision);
                    }
                    Phase::Veto2 => {
                        let veto = heard_veto(&rx, e.vn);
                        e.conclude(&dep, vr, veto, rx.collision);
                    }
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

fn heard_veto<A, S>(rx: &RoundReception<'_, Wire<A, S>>, vn: VnId) -> bool {
    rx.messages
        .iter()
        .any(|m| matches!(m, Wire::Veto { vn: v } if *v == vn))
}
