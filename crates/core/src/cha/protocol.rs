//! The CHAP state machine (Figure 1 of the paper), as a pure protocol
//! core decoupled from the radio.
//!
//! Each agreement instance runs in three single-round phases:
//!
//! 1. **ballot** — the contention-manager-elected leader broadcasts a
//!    ballot `(proposal, prev-instance)`; everyone adopts the minimum
//!    received ballot, or goes *red* on silence/collision;
//! 2. **veto-1** — red nodes broadcast a veto; hearing a veto or a
//!    collision downgrades to *orange*;
//! 3. **veto-2** — red/orange nodes broadcast a veto; hearing a veto
//!    or a collision downgrades to *yellow*.
//!
//! A node that finishes green outputs a history (computed by
//! `calculate-history`); any other color outputs ⊥. Good instances
//! (yellow/green) advance the node's `prev-instance` pointer.
//!
//! Driving the state machine is the caller's job (see
//! [`ChaNode`](crate::cha::ChaNode) for the radio adapter and the
//! virtual-infrastructure emulator in [`crate::vi`] for the
//! multiplexed variant); this separation lets the protocol be unit-
//! and property-tested without a simulated channel, and reused by the
//! emulation with its stretched ballot phase.

use crate::cha::history::{walk_prev_chain, Ballot, Color, History};
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use vi_radio::WireSized;

/// The three communication phases of one CHAP instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Leader broadcasts `(proposal, prev)`.
    Ballot,
    /// Red nodes veto.
    Veto1,
    /// Red and orange nodes veto.
    Veto2,
}

impl Phase {
    /// Phase for a global round counter, assuming instances occupy
    /// three consecutive rounds.
    pub fn of_round(round: u64) -> Phase {
        match round % 3 {
            0 => Phase::Ballot,
            1 => Phase::Veto1,
            _ => Phase::Veto2,
        }
    }
}

/// A CHAP wire message.
///
/// Theorem 14: both variants are constant-sized — a ballot carries one
/// proposal value and one instance index; a veto carries nothing.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ChaMessage<V> {
    /// A ballot for the current instance.
    Ballot(Ballot<V>),
    /// A veto in one of the veto phases.
    Veto,
}

impl<V: WireSized> WireSized for ChaMessage<V> {
    fn wire_size(&self) -> usize {
        match self {
            // tag + value + prev-instance index (8 bytes, constant per
            // the paper's convention).
            ChaMessage::Ballot(b) => 1 + b.value.wire_size() + 8,
            ChaMessage::Veto => 1,
        }
    }
}

/// The per-instance outcome at one node.
///
/// The history is boxed because most outputs are ⊥ (99 in 100 across
/// a 20 000-node city): wherever outputs are kept (by a node without a
/// checker, or for inspection) one is 24 bytes for `V = u64`, not 56.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaOutput<V> {
    /// The instance this output concludes.
    pub instance: u64,
    /// `Some(history)` iff the instance finished green; `None` is ⊥.
    pub history: Option<Box<History<V>>>,
    /// The final color (recorded for Property 4 experiments).
    pub color: Color,
}

impl<V> ChaOutput<V> {
    /// `true` if this output decided (non-⊥).
    pub fn decided(&self) -> bool {
        self.history.is_some()
    }
}

/// The `status` half of one resident instance, and the mark
/// [`ChaProtocol::fold_decided`] leaves on it: two bytes an instance.
/// The `ballots` half lives apart, in a sparse list, because most
/// instances never adopt one (one in four across a 20 000-node city).
#[derive(Clone, Copy)]
struct Marks {
    color: Option<Color>,
    /// On the `prev` chain of the fold in progress; set and cleared
    /// within one [`ChaProtocol::fold_decided`].
    on_chain: bool,
}

impl Marks {
    const EMPTY: Self = Marks {
        color: None,
        on_chain: false,
    };
}

/// Entries a full window or ballot list grows by. A fixed step, not
/// `Vec`'s doubling: a node that never collects (plain CHAP — each
/// `ChaNode` of a 20 000-node city) then idles at most three entries
/// of each however long it runs, where doubling idles up to the list's
/// own length; and not one entry at a time, which reallocates every
/// instance and fragments the heap those cities share.
const WINDOW_GROWTH: usize = 4;

/// Makes room for one more entry in `list`, [`WINDOW_GROWTH`] at a
/// time.
fn grow_for_one<T>(list: &mut Vec<T>) {
    if list.len() == list.capacity() {
        list.reserve_exact(WINDOW_GROWTH);
    }
}

/// Where instance `k` sits in a window whose first slot holds instance
/// `base + 1`; `None` below the window (the caller bounds it above).
fn window_index(base: u64, k: u64) -> Option<usize> {
    usize::try_from(k.checked_sub(base)?.checked_sub(1)?).ok()
}

/// Instance `k`'s entry in an ascending ballot list.
fn ballot_in<V>(ballots: &[(u64, Ballot<V>)], k: u64) -> Option<&Ballot<V>> {
    let i = ballots.binary_search_by_key(&k, |&(j, _)| j).ok()?;
    Some(&ballots[i].1)
}

/// The CHAP per-node state machine.
///
/// `V` is the proposal domain — any totally ordered, cloneable value
/// (total order is what makes deterministic `min(M)` ballot adoption
/// possible).
///
/// The per-instance state (Figure 1's `status` and `ballots` arrays)
/// lives in two flat lists. The **instance window** is dense: two
/// bytes of status marks for each of the consecutive instances
/// `base + 1 ..= instance`. The **ballots** are sparse: one
/// `(instance, ballot)` entry, ascending by instance, for each resident
/// instance that adopted one, found by binary search. A node that never
/// collects (plain CHAP in a city, where one instance in four adopts a
/// ballot) holds about 8 bytes an instance for `V = u64`.
/// [`garbage_collect`](Self::garbage_collect) drains both lists in
/// place. Under checkpoint-CHA each is a handful of entries whose
/// buffer is reused forever, so a steady-state instance never reaches
/// the allocator (Theorem 14's constant work per round, kept honest by
/// `tests/virtual_round_allocs.rs`).
///
/// The state serializes (given `V: Serialize`) so that the Section 4.3
/// join protocol can size its transfer of "the entire current state"
/// to a joiner (the transfer itself is a clone). The serialized form is
/// that of the two ordered maps the window replaced — `status` and
/// `ballots` as ascending `[instance, entry]` pairs — byte for byte.
///
/// # Example
///
/// One clean instance at a node that is also the elected leader:
///
/// ```
/// use vi_core::cha::{ChaProtocol, Color, Phase};
///
/// let mut node = ChaProtocol::<u32>::new();
/// let ballot = node.begin_instance(7);          // ballot phase, send
/// node.on_ballot_phase(&[ballot], false);       // hears its own ballot
/// assert!(!node.vetoes(Phase::Veto1));          // not red: no veto
/// node.on_veto1_phase(false, false);
/// assert!(!node.vetoes(Phase::Veto2));
/// let out = node.on_veto2_phase(false, false);  // finalize
/// assert_eq!(out.color, Color::Green);
/// assert_eq!(out.history.unwrap().get(1), Some(&7));
/// ```
#[derive(Clone)]
pub struct ChaProtocol<V> {
    instance: u64,
    prev_instance: u64,
    floor: u64,
    /// The instance just below the window: `window[i]` holds instance
    /// `base + 1 + i`. A non-empty window ends at `instance`. `base`
    /// is the first resident instance's predecessor, not the floor, so
    /// the gap a checkpoint transfer may leave between the two costs
    /// no entries.
    base: u64,
    window: Vec<Marks>,
    /// The adopted ballots, ascending by instance; every one is an
    /// instance of the window.
    ballots: Vec<(u64, Ballot<V>)>,
}

impl<V: Clone + Ord> Default for ChaProtocol<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> ChaProtocol<V> {
    /// A fresh protocol state: no instances run, `prev-instance = 0`.
    pub fn new() -> Self {
        Self::from_checkpoint(0, 0)
    }

    /// Reconstructs protocol state from a transferred checkpoint (used
    /// by the join protocol, Section 4.3): the joiner starts as if
    /// instance `checkpoint` had just finished green, with everything
    /// at or below it summarized externally.
    pub fn from_checkpoint(checkpoint: u64, next_instance: u64) -> Self {
        assert!(
            next_instance >= checkpoint,
            "next instance {next_instance} precedes checkpoint {checkpoint}"
        );
        ChaProtocol {
            instance: next_instance,
            prev_instance: checkpoint,
            floor: checkpoint,
            base: next_instance,
            window: Vec::new(),
            ballots: Vec::new(),
        }
    }

    /// Sizes the instance window for `instances` more instances at
    /// once, for a caller that knows how many it will run without
    /// collecting: the window then never regrows. The sparse ballots
    /// still grow as they are adopted.
    pub fn reserve_instances(&mut self, instances: usize) {
        self.window.reserve_exact(instances);
    }

    /// The most recently started instance (0 if none).
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// The node's most recent *good* instance (0 if none).
    pub fn prev_instance(&self) -> u64 {
        self.prev_instance
    }

    /// The checkpoint floor (0 for the plain protocol).
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// Final color of `k`, if that instance ran here.
    pub fn color_of(&self, k: u64) -> Option<Color> {
        self.marks(k)?.color
    }

    /// The ballot stored for `k`, if any.
    pub fn ballot_of(&self, k: u64) -> Option<&Ballot<V>> {
        ballot_in(&self.ballots, k)
    }

    /// Number of resident (non-garbage-collected) per-instance
    /// entries, for the Section 3.5 memory experiments.
    pub fn resident_entries(&self) -> usize {
        self.window.iter().filter(|m| m.color.is_some()).count() + self.ballots.len()
    }

    fn marks(&self, k: u64) -> Option<&Marks> {
        self.window.get(window_index(self.base, k)?)
    }

    fn current(&self) -> u64 {
        assert!(self.instance > 0, "no instance started");
        self.instance
    }

    /// The current instance's marks, opened if this is its first entry.
    fn current_marks(&mut self) -> &mut Marks {
        let k = self.current();
        if self.window.is_empty() {
            self.base = k - 1;
        }
        if self.marks(k).is_none() {
            debug_assert_eq!(self.base + self.window.len() as u64 + 1, k);
            grow_for_one(&mut self.window);
            self.window.push(Marks::EMPTY);
        }
        self.window.last_mut().expect("just opened")
    }

    /// Stores `ballot` as resident instance `k`'s. `k` is the current
    /// instance but for out-of-model damage done by the tests, so the
    /// new entry almost always goes last.
    fn set_ballot(&mut self, k: u64, ballot: Ballot<V>) {
        debug_assert!(self.marks(k).is_some(), "instance {k} is not resident");
        match self.ballots.binary_search_by_key(&k, |&(j, _)| j) {
            Ok(i) => self.ballots[i].1 = ballot,
            Err(i) => {
                grow_for_one(&mut self.ballots);
                self.ballots.insert(i, (k, ballot));
            }
        }
    }

    fn color(&self) -> Color {
        self.color_of(self.current())
            .expect("instance status initialized by begin_instance")
    }

    /// Downgrades the current instance to (at most) `ceiling`.
    fn downgrade(&mut self, ceiling: Color) {
        let downgraded = self.color().min(ceiling);
        self.current_marks().color = Some(downgraded);
    }
}

impl<V: Clone + Ord> ChaProtocol<V> {
    /// **Ballot phase, send side** (Figure 1 lines 13–19): starts
    /// instance `k = instance + 1` with `proposal` and returns the
    /// ballot this node *would* broadcast; whether it actually does is
    /// the contention manager's call.
    pub fn begin_instance(&mut self, proposal: V) -> Ballot<V> {
        self.start_instance();
        Ballot::new(proposal, self.prev_instance)
    }

    /// [`begin_instance`](Self::begin_instance) without the ballot,
    /// for a caller that builds one only when the contention manager
    /// lets it broadcast: `Ballot::new(proposal, prev_instance())`.
    pub fn start_instance(&mut self) {
        self.instance += 1;
        self.current_marks().color = Some(Color::Green);
    }

    /// **Ballot phase, receive side** (lines 29–32): `received` holds
    /// the ballots heard this round (including the node's own, if it
    /// broadcast — the sender knows what it sent), `collision` is the
    /// detector's output. Silence or a collision turns the instance
    /// red; otherwise the minimum ballot is adopted.
    pub fn on_ballot_phase(&mut self, received: &[Ballot<V>], collision: bool) {
        let marks = self.current_marks();
        if received.is_empty() || collision {
            marks.color = Some(Color::Red);
        } else {
            let adopted = received.iter().min().expect("not empty").clone();
            self.set_ballot(self.instance, adopted);
        }
    }

    /// **Veto phases, send side** (lines 20–27): whether this node
    /// vetoes in `step` — red nodes in veto-1, red and orange nodes in
    /// veto-2, nobody in the ballot phase.
    pub fn vetoes(&self, step: Phase) -> bool {
        match step {
            Phase::Ballot => false,
            Phase::Veto1 => self.color() == Color::Red,
            Phase::Veto2 => matches!(self.color(), Color::Red | Color::Orange),
        }
    }

    /// **Veto-1 phase, receive side** (lines 33–35): a veto or a
    /// collision downgrades to (at most) orange.
    pub fn on_veto1_phase(&mut self, veto_heard: bool, collision: bool) {
        if veto_heard || collision {
            self.downgrade(Color::Orange);
        }
    }

    /// **Veto-2 phase, receive side and instance finalization** (lines
    /// 36–45): a veto or collision downgrades to (at most) yellow;
    /// good instances advance `prev-instance`; the history is computed
    /// and the output produced (a history iff green, else ⊥).
    pub fn on_veto2_phase(&mut self, veto_heard: bool, collision: bool) -> ChaOutput<V> {
        let color = self.finish_instance(veto_heard, collision);
        ChaOutput {
            instance: self.instance,
            history: (color == Color::Green).then(|| Box::new(self.current_history())),
            color,
        }
    }

    /// [`on_veto2_phase`](Self::on_veto2_phase) without the history:
    /// finalizes the current instance and returns its color. For
    /// callers that fold a green instance through
    /// [`fold_decided`](Self::fold_decided) and never read a
    /// [`History`].
    pub fn finish_instance(&mut self, veto_heard: bool, collision: bool) -> Color {
        if veto_heard || collision {
            self.downgrade(Color::Yellow);
        }
        let color = self.color();
        if color.is_good() {
            self.prev_instance = self.instance;
        }
        color
    }

    /// Computes the history this node would output right now,
    /// regardless of the current instance's color (what a replica uses
    /// to compute the virtual node's state from its latest *decided*
    /// knowledge — see Section 4.3's message sub-protocol): the
    /// window's [`calculate_history`](crate::cha::calculate_history).
    pub fn current_history(&self) -> History<V> {
        let mut history = History::new(self.instance);
        walk_prev_chain(self.prev_instance, self.floor, |k| {
            let ballot = self.ballot_of(k)?;
            history.insert(k, ballot.value.clone());
            Some(ballot.prev)
        });
        history
    }

    /// Garbage-collects all per-instance state at or below
    /// `checkpoint` and raises the floor (Section 3.5). The caller
    /// must have summarized instances `<= checkpoint` externally and
    /// may only do this for *green* instances.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoint` is below the current floor.
    pub fn garbage_collect(&mut self, checkpoint: u64) {
        assert!(
            checkpoint >= self.floor,
            "checkpoint {checkpoint} below current floor {}",
            self.floor
        );
        self.floor = checkpoint;
        let collected = usize::try_from(checkpoint.saturating_sub(self.base))
            .map_or(self.window.len(), |n| n.min(self.window.len()));
        // In place: the buffers stay for the instances to come.
        self.window.drain(..collected);
        self.base += collected as u64;
        let ballots = self.ballots.partition_point(|&(k, _)| k <= checkpoint);
        self.ballots.drain(..ballots);
    }

    /// **Checkpoint-CHA** (Section 3.5): "a node can garbage-collect
    /// whenever a round is designated as green, keeping only (1) a
    /// pointer to the most recent green round, (2) the checkpoint up
    /// to and including that round, and (3) ballot/status entries that
    /// have occurred since that green round."
    ///
    /// Hands every instance `k` in `(floor, upto]` to `apply` in
    /// ascending order — `Some(value)` borrowed from the stored ballot
    /// if `k` is on the `prev` chain (exactly the instances
    /// [`current_history`](Self::current_history) includes, under the
    /// same out-of-model stops as
    /// [`calculate_history`](crate::cha::calculate_history)), `None`
    /// for ⊥ — then garbage-collects through `upto`. `apply` is the
    /// application's checkpoint fold (for a virtual node: one automaton
    /// step per instance). The caller does this when `upto` has just
    /// finished green; on any other color "there are multiple possible
    /// executions", nothing may be collected and state accumulates.
    ///
    /// # Panics
    ///
    /// Panics if `upto` is below the current floor.
    pub fn fold_decided(&mut self, upto: u64, mut apply: impl FnMut(u64, Option<&V>)) {
        // The chain is linked backward and folded forward: mark it in
        // the window, then read the marks in instance order.
        let (base, window, ballots) = (self.base, &mut self.window, &self.ballots);
        walk_prev_chain(self.prev_instance, self.floor, |k| {
            let prev = ballot_in(ballots, k)?.prev;
            window.get_mut(window_index(base, k)?)?.on_chain = true;
            Some(prev)
        });
        for k in self.floor + 1..=upto {
            let on_chain = self.marks(k).is_some_and(|m| m.on_chain);
            let decided = on_chain.then(|| self.ballot_of(k)).flatten();
            apply(k, decided.map(|ballot| &ballot.value));
        }
        self.garbage_collect(upto);
        // Chain instances above `upto` survive the collection.
        for marks in &mut self.window {
            marks.on_chain = false;
        }
    }
}

/// The serialized form of the two ordered maps this state used to be:
/// `status` and `ballots` as ascending `[instance, entry]` pairs after
/// the three counters. A join transfer is sized by it, so its length is
/// part of every `wire_size` and digest.
impl<V: Serialize> Serialize for ChaProtocol<V> {
    fn to_value(&self) -> Value {
        let pair = |k: u64, entry: &dyn Serialize| Value::Seq(vec![k.to_value(), entry.to_value()]);
        let status = (self.base + 1..)
            .zip(&self.window)
            .filter_map(|(k, m)| Some(pair(k, m.color.as_ref()?)));
        let ballots = self.ballots.iter().map(|(k, b)| pair(*k, b));
        Value::Map(vec![
            ("instance".to_string(), self.instance.to_value()),
            ("prev_instance".to_string(), self.prev_instance.to_value()),
            ("floor".to_string(), self.floor.to_value()),
            ("status".to_string(), Value::Seq(status.collect())),
            ("ballots".to_string(), Value::Seq(ballots.collect())),
        ])
    }
}

impl<V: fmt::Debug> fmt::Debug for ChaProtocol<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaProtocol")
            .field("instance", &self.instance)
            .field("prev_instance", &self.prev_instance)
            .field("floor", &self.floor)
            .field("resident", &self.resident_entries())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::TreeProtocol;
    use super::*;
    use proptest::prelude::*;

    /// Drives `n` lockstep protocol copies through one instance with a
    /// scripted outcome per phase per node, modelling a clique channel.
    ///
    /// `leader` broadcasts its ballot; `ballot_loss[i]` makes node `i`
    /// miss it (and, by completeness, detect a collision);
    /// `veto1_loss[i]` / `veto2_loss[i]` make node `i` miss the veto
    /// *broadcast* of that phase while still detecting the collision
    /// (a veto heard and a collision have the same effect, so "loss"
    /// here means the detector fires without a clean message).
    fn run_instance(
        nodes: &mut [ChaProtocol<u32>],
        leader: usize,
        proposal_base: u32,
        ballot_loss: &[bool],
        veto1_collision: &[bool],
        veto2_collision: &[bool],
    ) -> Vec<ChaOutput<u32>> {
        let n = nodes.len();
        // Ballot phase.
        let mut ballots: Vec<Ballot<u32>> = Vec::new();
        for (i, node) in nodes.iter_mut().enumerate() {
            let b = node.begin_instance(proposal_base + i as u32);
            if i == leader {
                ballots.push(b);
            }
        }
        for (i, node) in nodes.iter_mut().enumerate() {
            if ballot_loss[i] && i != leader {
                node.on_ballot_phase(&[], true);
            } else {
                node.on_ballot_phase(&ballots, false);
            }
        }
        // Veto-1 phase.
        let any_veto1 = (0..n).any(|i| nodes[i].vetoes(Phase::Veto1));
        for (i, node) in nodes.iter_mut().enumerate() {
            node.on_veto1_phase(any_veto1 && !veto1_collision[i], veto1_collision[i]);
        }
        // Veto-2 phase.
        let any_veto2 = (0..n).any(|i| nodes[i].vetoes(Phase::Veto2));
        nodes
            .iter_mut()
            .enumerate()
            .map(|(i, node)| {
                node.on_veto2_phase(any_veto2 && !veto2_collision[i], veto2_collision[i])
            })
            .collect()
    }

    #[test]
    fn clean_instance_goes_green_everywhere() {
        let mut nodes = vec![ChaProtocol::<u32>::new(); 3];
        let outs = run_instance(&mut nodes, 0, 100, &[false; 3], &[false; 3], &[false; 3]);
        for out in &outs {
            assert_eq!(out.color, Color::Green);
            let h = out.history.as_ref().unwrap();
            assert_eq!(h.get(1), Some(&100), "leader's proposal decided");
        }
    }

    #[test]
    fn silent_ballot_phase_goes_red() {
        let mut node = ChaProtocol::<u32>::new();
        node.begin_instance(5);
        node.on_ballot_phase(&[], false);
        assert_eq!(node.color_of(1), Some(Color::Red));
        assert!(node.vetoes(Phase::Veto1));
    }

    #[test]
    fn collision_in_ballot_phase_goes_red_despite_messages() {
        // Figure 1 line 30: (± ∈ M) ⇒ red even if some ballot arrived.
        let mut node = ChaProtocol::<u32>::new();
        node.begin_instance(5);
        node.on_ballot_phase(&[Ballot::new(5, 0)], true);
        assert_eq!(node.color_of(1), Some(Color::Red));
    }

    #[test]
    fn min_ballot_is_adopted() {
        let mut node = ChaProtocol::<u32>::new();
        node.begin_instance(9);
        node.on_ballot_phase(
            &[Ballot::new(9, 0), Ballot::new(3, 0), Ballot::new(7, 0)],
            false,
        );
        assert_eq!(node.ballot_of(1), Some(&Ballot::new(3, 0)));
    }

    #[test]
    fn figure2_row_yellow() {
        // ✓ ✓ ✗ → yellow, output ⊥.
        let mut node = ChaProtocol::<u32>::new();
        node.begin_instance(1);
        node.on_ballot_phase(&[Ballot::new(1, 0)], false);
        node.on_veto1_phase(false, false);
        assert!(!node.vetoes(Phase::Veto2));
        let out = node.on_veto2_phase(false, true);
        assert_eq!(out.color, Color::Yellow);
        assert!(out.history.is_none());
        // Yellow is good: prev-instance advanced.
        assert_eq!(node.prev_instance(), 1);
    }

    #[test]
    fn figure2_row_orange() {
        // ✓ ✗ ✗ → orange, output ⊥, prev-instance NOT advanced.
        let mut node = ChaProtocol::<u32>::new();
        node.begin_instance(1);
        node.on_ballot_phase(&[Ballot::new(1, 0)], false);
        node.on_veto1_phase(false, true);
        assert!(node.vetoes(Phase::Veto2), "orange nodes veto in veto-2");
        let out = node.on_veto2_phase(true, false);
        assert_eq!(out.color, Color::Orange);
        assert!(out.history.is_none());
        assert_eq!(node.prev_instance(), 0);
    }

    #[test]
    fn figure2_row_red() {
        // ✗ ✗ ✗ → red, output ⊥.
        let mut node = ChaProtocol::<u32>::new();
        node.begin_instance(1);
        node.on_ballot_phase(&[], true);
        assert!(node.vetoes(Phase::Veto1));
        node.on_veto1_phase(true, false);
        let out = node.on_veto2_phase(true, false);
        assert_eq!(out.color, Color::Red);
        assert_eq!(node.prev_instance(), 0);
    }

    #[test]
    fn red_node_vetoes_drag_everyone_to_orange() {
        // Node 1 misses the ballot; its veto-1 veto must prevent
        // anyone from finishing green (Lemma 5 / Lemma 6 mechanism).
        let mut nodes = vec![ChaProtocol::<u32>::new(); 3];
        let outs = run_instance(
            &mut nodes,
            0,
            10,
            &[false, true, false],
            &[false; 3],
            &[false; 3],
        );
        assert_eq!(outs[1].color, Color::Red);
        for i in [0, 2] {
            assert_eq!(outs[i].color, Color::Orange, "node {i}");
            assert!(outs[i].history.is_none());
        }
    }

    #[test]
    fn color_spread_never_exceeds_one_shade() {
        // Property 4 over all scripted single-fault patterns.
        for fault_node in 0..3usize {
            for phase in 0..3usize {
                let mut nodes = vec![ChaProtocol::<u32>::new(); 3];
                let mut ballot_loss = [false; 3];
                let mut v1 = [false; 3];
                let mut v2 = [false; 3];
                match phase {
                    0 => ballot_loss[fault_node] = true,
                    1 => v1[fault_node] = true,
                    _ => v2[fault_node] = true,
                }
                let outs = run_instance(&mut nodes, 0, 1, &ballot_loss, &v1, &v2);
                let max = outs.iter().map(|o| o.color.shade()).max().unwrap();
                let min = outs.iter().map(|o| o.color.shade()).min().unwrap();
                assert!(
                    max - min <= 1,
                    "spread {max}-{min} with fault at node {fault_node} phase {phase}: {:?}",
                    outs.iter().map(|o| o.color).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn histories_chain_across_instances() {
        let mut nodes = vec![ChaProtocol::<u32>::new(); 2];
        let all_ok = [false; 2];
        // Three clean instances; leader proposals 100, 200, 300.
        for base in [100, 200, 300] {
            let outs = run_instance(&mut nodes, 0, base, &all_ok, &all_ok, &all_ok);
            assert!(outs.iter().all(|o| o.decided()));
        }
        let h = nodes[0].current_history();
        assert_eq!(h.get(1), Some(&100));
        assert_eq!(h.get(2), Some(&200));
        assert_eq!(h.get(3), Some(&300));
    }

    #[test]
    fn failed_instance_leaves_hole_in_history() {
        let mut nodes = vec![ChaProtocol::<u32>::new(); 2];
        let ok = [false; 2];
        run_instance(&mut nodes, 0, 100, &ok, &ok, &ok);
        // Instance 2: total silence (no leader) — red everywhere.
        run_instance(&mut nodes, 0, 200, &[true, true], &ok, &ok);
        let outs = run_instance(&mut nodes, 0, 300, &ok, &ok, &ok);
        let h = outs[0].history.as_ref().unwrap();
        assert!(h.includes(1));
        assert!(!h.includes(2), "undecided instance resolved to ⊥");
        assert!(h.includes(3));
    }

    #[test]
    fn garbage_collect_prunes_and_preserves_suffix() {
        let mut nodes = vec![ChaProtocol::<u32>::new(); 1];
        let ok = [false; 1];
        for base in [1, 2, 3, 4] {
            run_instance(&mut nodes, 0, base, &ok, &ok, &ok);
        }
        let node = &mut nodes[0];
        assert_eq!(node.resident_entries(), 8);
        node.garbage_collect(3);
        assert_eq!(node.floor(), 3);
        assert_eq!(node.resident_entries(), 2, "only instance 4 retained");
        let h = node.current_history();
        assert!(h.includes(4));
        assert!(!h.includes(3), "summarized by the checkpoint");
    }

    /// The checkpoint of the Section 3.5 tests: every folded instance
    /// in fold order, ⊥ as `None`, so they see exactly what was folded.
    type Log = Vec<(u64, Option<u32>)>;

    /// Runs one instance with this node as leader — yellow (collision
    /// in veto-2) or green — and, as checkpoint-CHA does, folds and
    /// garbage-collects on green.
    fn leader_instance(
        node: &mut ChaProtocol<u32>,
        log: &mut Log,
        proposal: u32,
        yellow: bool,
    ) -> ChaOutput<u32> {
        let b = node.begin_instance(proposal);
        node.on_ballot_phase(&[b], false);
        node.on_veto1_phase(false, false);
        let out = node.on_veto2_phase(false, yellow);
        assert_eq!(out.decided(), !yellow);
        if out.decided() {
            node.fold_decided(out.instance, |k, v| log.push((k, v.copied())));
        }
        out
    }

    #[test]
    fn green_instances_advance_checkpoint_and_prune() {
        let (mut node, mut log) = (ChaProtocol::new(), Log::new());
        for p in [10, 20, 30] {
            leader_instance(&mut node, &mut log, p, false);
        }
        assert_eq!(node.floor(), 3);
        assert_eq!(node.resident_entries(), 0, "everything folded away");
        assert_eq!(log, vec![(1, Some(10)), (2, Some(20)), (3, Some(30))]);
    }

    #[test]
    fn yellow_instances_accumulate_until_next_green() {
        let (mut node, mut log) = (ChaProtocol::new(), Log::new());
        leader_instance(&mut node, &mut log, 1, false);
        leader_instance(&mut node, &mut log, 2, true);
        leader_instance(&mut node, &mut log, 3, true);
        assert_eq!(node.floor(), 1);
        assert!(node.resident_entries() > 0, "cannot collect on yellow");
        // The next green folds the whole suffix — including the
        // yellow-but-good instances, which are on the pointer chain.
        leader_instance(&mut node, &mut log, 4, false);
        assert_eq!(node.floor(), 4);
        assert_eq!(node.resident_entries(), 0);
        assert_eq!(
            log,
            vec![(1, Some(1)), (2, Some(2)), (3, Some(3)), (4, Some(4))]
        );
    }

    #[test]
    fn undecided_instances_fold_as_bottom() {
        let (mut node, mut log) = (ChaProtocol::new(), Log::new());
        leader_instance(&mut node, &mut log, 1, false);
        // Instance 2: silent ballot phase → red → ⊥, not on the chain.
        node.begin_instance(2);
        node.on_ballot_phase(&[], false);
        node.on_veto1_phase(true, false);
        let out = node.on_veto2_phase(true, false);
        assert!(!out.decided());
        leader_instance(&mut node, &mut log, 3, false);
        assert_eq!(
            log,
            vec![(1, Some(1)), (2, None), (3, Some(3))],
            "red instance folded as ⊥ (virtual node detects a collision)"
        );
    }

    #[test]
    fn from_checkpoint_resumes_with_transferred_state() {
        let mut node = ChaProtocol::from_checkpoint(1, 1);
        let mut log: Log = vec![(1, Some(7))];
        assert_eq!(node.floor(), 1);
        leader_instance(&mut node, &mut log, 22, false);
        assert_eq!(log, vec![(1, Some(7)), (2, Some(22))]);
    }

    #[test]
    fn suffix_history_len_matches_instance() {
        let (mut node, mut log) = (ChaProtocol::new(), Log::new());
        leader_instance(&mut node, &mut log, 5, false);
        leader_instance(&mut node, &mut log, 6, true);
        let out = leader_instance(&mut node, &mut log, 7, false);
        let h = out.history.unwrap();
        assert_eq!(h.len(), 3);
        assert!(!h.includes(1), "pre-checkpoint instances summarized");
        assert!(h.includes(2) && h.includes(3));
        assert_eq!(node.floor(), 3);
    }

    /// One instance of a proptest script.
    #[derive(Clone, Debug)]
    struct Step {
        /// Before this instance the node leaves and comes back through
        /// a checkpoint transfer taken `gap` instances ago: it resumes
        /// from `from_checkpoint(k, k + gap)`, its window starting that
        /// far above its floor.
        rejoin: Option<u64>,
        /// Final color, by shade: 0 red (ballot lost) … 3 green.
        shade: u8,
        /// `prev` of the adopted ballot: the node's own pointer, or
        /// another node's (any earlier instance, even one below the
        /// floor or off this node's chain).
        foreign_prev: Option<u64>,
        /// Fold here if the instance ends green.
        checkpoint: bool,
        /// How far below the instance that fold stops (the API takes
        /// any `upto`; chain instances above it survive the fold).
        lag: u64,
        /// Out-of-model damage done once the instance has finished: 0
        /// drops a resident ballot, 1 makes one's `prev`
        /// non-decreasing, 2 stores a ballot at a resident instance
        /// that holds none (an insertion into the middle of the sparse
        /// list, mostly).
        damage: u8,
        /// Which resident ballot (or, for damage 2, which ballotless
        /// resident instance) the damage hits.
        victim: usize,
    }

    fn script() -> impl Strategy<Value = Vec<Step>> {
        // One step in ten rejoins; one fold in five lags.
        let rejoin = (0u8..10, 0u64..4).prop_map(|(die, gap)| (die == 0).then_some(gap));
        let lag = (0u8..5, 1u64..4).prop_map(|(die, lag)| if die == 0 { lag } else { 0 });
        let step = (
            rejoin,
            0u8..4,
            proptest::option::of(0u64..40),
            any::<bool>(),
            lag,
            0u8..8,
            0usize..8,
        )
            .prop_map(
                |(rejoin, shade, foreign_prev, checkpoint, lag, damage, victim)| Step {
                    rejoin,
                    shade,
                    foreign_prev,
                    checkpoint,
                    lag,
                    damage,
                    victim,
                },
            );
        proptest::collection::vec(step, 1..40)
    }

    /// Applies `step`'s damage to `node` and returns the instance hit.
    fn damage(node: &mut ChaProtocol<u64>, step: &Step) -> Option<u64> {
        match step.damage {
            0 => (step.victim < node.ballots.len()).then(|| node.ballots.remove(step.victim).0),
            1 => {
                let &(victim, ballot) = node.ballots.get(step.victim)?;
                node.set_ballot(victim, Ballot::new(ballot.value, victim + 1));
                Some(victim)
            }
            2 => {
                let resident = node.base + 1..=node.base + node.window.len() as u64;
                let victim = resident
                    .filter(|&k| node.ballot_of(k).is_none())
                    .nth(step.victim)?;
                node.set_ballot(victim, Ballot::new(1_000 + victim, victim - 1));
                Some(victim)
            }
            _ => None,
        }
    }

    /// Runs `step`'s instance at `node` and returns its output.
    fn run_step(node: &mut ChaProtocol<u64>, step: &Step) -> ChaOutput<u64> {
        let own = node.begin_instance(100 + node.instance());
        if step.shade == 0 {
            node.on_ballot_phase(&[], true);
        } else {
            let prev = step.foreign_prev.map_or(own.prev, |p| p % node.instance());
            node.on_ballot_phase(&[Ballot::new(own.value, prev)], false);
        }
        node.on_veto1_phase(false, step.shade <= 1);
        node.on_veto2_phase(false, step.shade <= 2)
    }

    /// Every observable of `node` equals `model`'s, its serialized
    /// bytes included.
    fn assert_same(
        node: &ChaProtocol<u64>,
        model: &TreeProtocol<u64>,
    ) -> Result<(), proptest::TestCaseError> {
        prop_assert_eq!(node.instance(), model.instance);
        prop_assert_eq!(node.prev_instance(), model.prev_instance);
        prop_assert_eq!(node.floor(), model.floor);
        for k in 0..=model.instance + 1 {
            prop_assert_eq!(
                node.color_of(k),
                model.status.get(&k).copied(),
                "color {}",
                k
            );
            prop_assert_eq!(node.ballot_of(k), model.ballots.get(&k), "ballot {}", k);
        }
        prop_assert_eq!(node.resident_entries(), model.resident_entries());
        prop_assert_eq!(node.current_history(), model.current_history());
        prop_assert!(node.window.iter().all(|marks| !marks.on_chain));

        prop_assert_eq!(
            serde_json::to_string(node).expect("serializes"),
            serde_json::to_string(model).expect("serializes")
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Section 3.5 against Figure 1: at every checkpoint
        /// `fold_decided` hands `apply` exactly what reading
        /// `current_history()` instance by instance yields, in
        /// ascending order, and leaves what `garbage_collect` leaves.
        #[test]
        fn fold_matches_history_then_collect(script in script()) {
            let mut node = ChaProtocol::<u64>::new();
            for step in &script {
                let out = run_step(&mut node, step);
                prop_assert_eq!(out.color.shade(), step.shade);
                if !(out.decided() && step.checkpoint) {
                    continue;
                }
                damage(&mut node, step);

                let k = node.instance();
                let mut reference = node.clone();
                let history = reference.current_history();
                let expected: Vec<(u64, Option<u64>)> = (reference.floor() + 1..=k)
                    .map(|i| (i, history.get(i).copied()))
                    .collect();
                reference.garbage_collect(k);

                let mut folded = Vec::new();
                node.fold_decided(k, |i, v| folded.push((i, v.copied())));
                prop_assert_eq!(folded, expected);
                prop_assert_eq!(node.floor(), reference.floor());
                prop_assert_eq!(node.resident_entries(), reference.resident_entries());
            }
        }

        /// The instance window against the tree it replaced
        /// ([`TreeProtocol`]): through rejoin gaps, foreign `prev`
        /// pointers, lagging folds and out-of-model damage, every
        /// output, every fold, every observable and every serialized
        /// byte agree after every step.
        ///
        /// Mutation-checked by hand; each of these turns it red:
        /// `window_index` off by one (`checked_sub(1)` dropped);
        /// `fold_decided` leaving `on_chain` set after the fold;
        /// `to_value` emitting `ballots` before `status`; `set_ballot`
        /// appending where it should insert in instance order.
        #[test]
        fn window_matches_the_tree_model(script in script()) {
            let mut node = ChaProtocol::<u64>::new();
            let mut model = TreeProtocol::<u64>::from_checkpoint(0, 0);
            for step in &script {
                if let Some(gap) = step.rejoin {
                    let k = node.instance();
                    node = ChaProtocol::from_checkpoint(k, k + gap);
                    model = TreeProtocol::from_checkpoint(k, k + gap);
                }
                let out = run_step(&mut node, step);
                // The model hears what the window heard.
                let k = node.instance();
                model.begin_instance(100 + model.instance);
                model.on_ballot_phase(node.ballot_of(k).map_or(&[], std::slice::from_ref), step.shade == 0);
                model.on_veto1_phase(false, step.shade <= 1);
                prop_assert_eq!(&out, &model.on_veto2_phase(false, step.shade <= 2));
                assert_same(&node, &model)?;

                if let Some(victim) = damage(&mut node, step) {
                    match node.ballot_of(victim) {
                        Some(&damaged) => model.ballots.insert(victim, damaged),
                        None => model.ballots.remove(&victim),
                    };
                    assert_same(&node, &model)?;
                }
                if out.decided() && step.checkpoint {
                    let upto = k.saturating_sub(step.lag).max(node.floor());
                    let (mut folded, mut expected) = (Vec::new(), Vec::new());
                    node.fold_decided(upto, |i, v| folded.push((i, v.copied())));
                    model.fold_decided(upto, |i, v| expected.push((i, v.copied())));
                    prop_assert_eq!(folded, expected);
                    assert_same(&node, &model)?;
                }
            }
        }
    }

    #[test]
    fn checkpoint_gap_costs_no_slots() {
        // A joiner whose transfer is 2⁴⁰ instances stale: the window
        // starts at its first resident instance, not at the floor.
        let mut node = ChaProtocol::<u64>::from_checkpoint(7, 1 << 40);
        assert_eq!(node.window.capacity(), 0);
        let ballot = node.begin_instance(5);
        node.on_ballot_phase(&[ballot], false);
        assert_eq!(node.window.capacity(), WINDOW_GROWTH);
        assert_eq!(node.color_of((1 << 40) + 1), Some(Color::Green));
        assert_eq!(node.color_of(8), None);

        // A joiner's copy holds the one resident instance.
        let joiner = node.clone();
        assert_eq!(
            (joiner.window.capacity(), joiner.ballots.capacity()),
            (1, 1)
        );
        assert_eq!(joiner.floor(), 7);
        assert_eq!(joiner.ballot_of((1 << 40) + 1), Some(&Ballot::new(5, 7)));
    }

    #[test]
    fn steady_checkpointing_reuses_one_slot() {
        let (mut node, mut log) = (ChaProtocol::new(), Log::new());
        for p in 0..50 {
            leader_instance(&mut node, &mut log, p, false);
            assert_eq!(
                (node.window.capacity(), node.ballots.capacity()),
                (WINDOW_GROWTH, WINDOW_GROWTH),
                "drained in place, never regrown"
            );
        }
        // A yellow streak longer than the window grows it one step …
        for p in 0..WINDOW_GROWTH as u32 {
            leader_instance(&mut node, &mut log, p, true);
        }
        leader_instance(&mut node, &mut log, 9, false);
        // … and the capacity stays for the next one.
        assert_eq!(
            (node.window.len(), node.window.capacity()),
            (0, 2 * WINDOW_GROWTH)
        );
        assert_eq!(
            (node.ballots.len(), node.ballots.capacity()),
            (0, 2 * WINDOW_GROWTH)
        );
    }

    #[test]
    fn from_checkpoint_restores_join_state() {
        let p = ChaProtocol::<u32>::from_checkpoint(7, 9);
        assert_eq!(p.prev_instance(), 7);
        assert_eq!(p.floor(), 7);
        assert_eq!(p.instance(), 9);
        assert_eq!(p.resident_entries(), 0);
    }

    #[test]
    fn message_sizes_are_constant() {
        let b: ChaMessage<u64> = ChaMessage::Ballot(Ballot::new(12345, 999_999));
        let v: ChaMessage<u64> = ChaMessage::Veto;
        assert_eq!(b.wire_size(), 17);
        assert_eq!(v.wire_size(), 1);
    }

    #[test]
    #[should_panic(expected = "no instance started")]
    fn ballot_reception_requires_started_instance() {
        let mut p = ChaProtocol::<u32>::new();
        p.on_ballot_phase(&[], false);
    }
}
