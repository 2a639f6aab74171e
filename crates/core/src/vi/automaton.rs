//! Virtual-node programs: deterministic automata.
//!
//! "A virtual infrastructure consists of a set of *deterministic*
//! virtual nodes distributed throughout the network, each of which
//! resides at a fixed location" (Section 1.2). Determinism is what
//! makes replication work: every replica that knows the decided
//! history computes the identical virtual-node state by replaying the
//! automaton over it.

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::fmt;
use vi_radio::WireSized;

/// Identifier of a virtual node.
///
/// Unlike mobile devices (which the model leaves anonymous), virtual
/// nodes are named infrastructure with known, fixed locations — like
/// the base stations they emulate.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct VnId(pub usize);

impl VnId {
    /// The underlying index into the layout.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vn{}", self.0)
    }
}

/// Everything a message type must support to flow through the virtual
/// broadcast service: deterministic ordering (for `min(M)` ballot
/// adoption and canonical proposal sorting), serialization (for join
/// state transfer), and size accounting. Blanket-implemented.
pub trait VnMessage:
    Clone + Ord + fmt::Debug + Serialize + DeserializeOwned + WireSized + 'static
{
}

impl<T> VnMessage for T where
    T: Clone + Ord + fmt::Debug + Serialize + DeserializeOwned + WireSized + 'static
{
}

/// Everything a virtual-node state must support: equality (replica
/// consistency checks) and serialization (join state transfer).
/// Blanket-implemented.
pub trait VnState: Clone + Eq + fmt::Debug + Serialize + DeserializeOwned + 'static {}

impl<T> VnState for T where T: Clone + Eq + fmt::Debug + Serialize + DeserializeOwned + 'static {}

/// What one virtual round delivered: the messages heard and a
/// collision bit. It is a client's reception (Section 1.2, messages in
/// arrival order), a replica's CHAP proposal (Section 4.3, sorted by
/// [`canonicalize`](Self::canonicalize), the bit its detector's
/// evidence) and the virtual node's input: the decided proposal, or
/// [`bottom`](Self::bottom) when the instance ended ⊥ and the virtual
/// node simulates a collision (Section 3.3).
///
/// `collision` comes first because the derived `Ord` is CHAP's
/// min-ballot rule.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VirtualInput<A> {
    /// The collision indication.
    pub collision: bool,
    /// The messages; senders are anonymous, as on the real channel.
    pub messages: Vec<A>,
}

impl<A> Default for VirtualInput<A> {
    /// A quiet virtual round: nothing received, no collision.
    fn default() -> Self {
        VirtualInput {
            collision: false,
            messages: Vec::new(),
        }
    }
}

impl<A> VirtualInput<A> {
    /// The input representing an undecided instance: the virtual node
    /// simulates detecting a collision.
    pub fn bottom() -> Self {
        VirtualInput {
            collision: true,
            messages: Vec::new(),
        }
    }
}

impl<A: Ord> VirtualInput<A> {
    /// Canonicalizes a proposal: sorts the message list.
    pub fn canonicalize(&mut self) {
        self.messages.sort();
    }
}

impl<A: WireSized> WireSized for VirtualInput<A> {
    fn wire_size(&self) -> usize {
        1 + self.messages.wire_size()
    }
}

/// Per-virtual-round context handed to the automaton.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VnCtx {
    /// Which virtual node this is (virtual nodes, unlike mobile
    /// devices, are named infrastructure).
    pub vn: VnId,
    /// The virtual node's fixed location.
    pub loc: vi_radio::geometry::Point,
    /// The virtual round being executed (1-based).
    pub vr: u64,
    /// Whether this virtual node is scheduled to broadcast in this
    /// virtual round (Section 4.1).
    pub scheduled: bool,
    /// Whether it is scheduled in the *next* virtual round — the round
    /// in which the message returned by this `step` would actually be
    /// broadcast. Schedule-aware automata emit only when this is true;
    /// emitting otherwise is allowed (the emulation then ignores the
    /// schedule too, per Section 4.3) but risks collisions with
    /// neighbours.
    pub next_scheduled: bool,
}

/// A deterministic virtual-node program.
///
/// The automaton is pure state-transition logic: `step` consumes the
/// round's input and returns the message the virtual node will
/// broadcast in the *next* virtual round's vn phase (if any). All
/// replicas hold the same `VirtualAutomaton` value and replay it over
/// the agreed history, so `step` must be deterministic — no clocks, no
/// randomness, no I/O.
pub trait VirtualAutomaton: 'static {
    /// Messages exchanged between this virtual node, its clients, and
    /// neighbouring virtual nodes.
    type Msg: VnMessage;
    /// The virtual node's replicated state.
    type State: VnState;

    /// The state a (re-)initialized virtual node starts in.
    fn init(&self) -> Self::State;

    /// Executes one virtual round, returning the message to broadcast
    /// in the next round's vn phase.
    fn step(
        &self,
        state: &mut Self::State,
        ctx: VnCtx,
        input: &VirtualInput<Self::Msg>,
    ) -> Option<Self::Msg>;
}

/// A trivial automaton for tests and the quickstart example: counts
/// received messages and collisions, and broadcasts the running total
/// into its scheduled rounds.
#[derive(Clone, Copy, Debug, Default)]
pub struct CounterAutomaton;

/// State of [`CounterAutomaton`].
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterState {
    /// Messages received so far.
    pub received: u64,
    /// Collisions detected so far.
    pub collisions: u64,
}

impl VirtualAutomaton for CounterAutomaton {
    type Msg = u64;
    type State = CounterState;

    fn init(&self) -> CounterState {
        CounterState::default()
    }

    fn step(&self, state: &mut CounterState, ctx: VnCtx, input: &VirtualInput<u64>) -> Option<u64> {
        state.received += input.messages.len() as u64;
        if input.collision {
            state.collisions += 1;
        }
        // Emit into scheduled rounds only (the returned message is
        // broadcast in the *next* round's vn phase).
        ctx.next_scheduled.then_some(state.received)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_automaton_is_deterministic() {
        let a = CounterAutomaton;
        let inputs = [
            VirtualInput {
                messages: vec![5, 6],
                collision: false,
            },
            VirtualInput::bottom(),
            VirtualInput {
                messages: vec![7],
                collision: false,
            },
        ];
        let run = || {
            let mut st = a.init();
            let mut out = None;
            for (vr, input) in (1..).zip(&inputs) {
                let ctx = VnCtx {
                    vn: VnId(0),
                    loc: vi_radio::geometry::Point::ORIGIN,
                    vr,
                    scheduled: vr == 3,
                    next_scheduled: vr + 1 == 3,
                };
                out = a.step(&mut st, ctx, input);
            }
            (st, out)
        };
        let (s1, o1) = run();
        let (s2, o2) = run();
        assert_eq!(s1, s2);
        assert_eq!(o1, o2);
        assert_eq!(s1.received, 3);
        assert_eq!(s1.collisions, 1);
        assert_eq!(o1, None, "round 4 is unscheduled: nothing emitted");
    }

    #[test]
    fn bottom_input_is_collision_without_messages() {
        let b = VirtualInput::<u64>::bottom();
        assert!(b.collision);
        assert!(b.messages.is_empty());
        assert!(!VirtualInput::<u64>::default().collision);
    }

    #[test]
    fn vnid_display() {
        assert_eq!(VnId(4).to_string(), "vn4");
        assert_eq!(VnId(4).index(), 4);
    }

    #[test]
    fn counter_state_serializes() {
        let st = CounterState {
            received: 3,
            collisions: 1,
        };
        let json = serde_json::to_string(&st).unwrap();
        let back: CounterState = serde_json::from_str(&json).unwrap();
        assert_eq!(st, back);
    }
}
