//! The emulation's wire format.
//!
//! All traffic — client messages, virtual-node messages, both
//! agreement instances, and the join/reset sub-protocol — shares the
//! one physical channel; the current [`VirtualPhase`](crate::vi::round::VirtualPhase)
//! determines which variants are live. Messages carry the [`VnId`]
//! they concern so that co-located emulations ignore each other's
//! protocol traffic (their *collisions* still interfere, which is
//! exactly the physical reality the schedule manages).

use crate::cha::history::Ballot;
use crate::vi::automaton::{VirtualInput, VnId};
use crate::vi::emulator::TransferState;
use std::rc::Rc;
use vi_radio::WireSized;

/// The replica state a join-ack hands to joiners (Section 4.3: "a
/// join response including the entire current state (or some digest
/// thereof)").
///
/// The state travels typed and shared, like every other [`Wire`]
/// payload: cloning a join-ack for each receiver bumps a reference
/// count, and a joiner clones the state out. `bytes` is what the
/// transfer would cost as JSON — the length of the serde-encoded
/// [`TransferState`], counted once by the sender — and is all the
/// wire layer needs.
#[derive(Clone, Debug)]
pub struct Transfer<S, A> {
    /// The transferred replica state.
    pub state: Rc<TransferState<S, A>>,
    /// The JSON length of `state`.
    pub bytes: usize,
}

impl<S, A> WireSized for Transfer<S, A> {
    fn wire_size(&self) -> usize {
        8 + self.bytes
    }
}

/// Everything that can appear on the physical channel during an
/// emulation of virtual nodes with messages `A` and state `S`.
#[derive(Clone, Debug)]
pub enum Wire<A, S> {
    /// A client's message for the current virtual round (client
    /// phase). Clients are anonymous; the message is addressed to
    /// whoever hears it, like any wireless broadcast.
    Client(A),
    /// A replica broadcasting on behalf of virtual node `vn` (vn
    /// phase).
    VnMsg {
        /// The virtual node speaking.
        vn: VnId,
        /// Its message for this virtual round.
        payload: A,
    },
    /// A CHAP ballot for `vn`'s current agreement instance (scheduled
    /// or unscheduled ballot phase).
    Ballot {
        /// The virtual node whose instance this is.
        vn: VnId,
        /// The ballot: proposal + prev-instance pointer.
        ballot: Ballot<VirtualInput<A>>,
    },
    /// A CHAP veto for `vn`'s current instance (any veto phase).
    Veto {
        /// The virtual node whose instance this vetoes.
        vn: VnId,
    },
    /// A new emulator asks to join `vn` (join phase).
    JoinReq {
        /// The virtual node being joined.
        vn: VnId,
    },
    /// An existing replica transfers state to joiners (join-ack
    /// phase).
    JoinAck {
        /// The virtual node being joined.
        vn: VnId,
        /// The state transfer.
        transfer: Transfer<S, A>,
    },
    /// A replica asserts the virtual node is alive (reset phase);
    /// silence in this phase authorizes a joiner to reset.
    Alive {
        /// The virtual node in question.
        vn: VnId,
    },
}

impl<A, S> Wire<A, S> {
    /// The virtual node this message concerns, if any (client messages
    /// are unaddressed).
    pub fn vn(&self) -> Option<VnId> {
        match self {
            Wire::Client(_) => None,
            Wire::VnMsg { vn, .. }
            | Wire::Ballot { vn, .. }
            | Wire::Veto { vn }
            | Wire::JoinReq { vn }
            | Wire::JoinAck { vn, .. }
            | Wire::Alive { vn } => Some(*vn),
        }
    }
}

impl<A: WireSized, S> WireSized for Wire<A, S> {
    fn wire_size(&self) -> usize {
        // 1 byte tag + 4 bytes VnId where present + payload.
        match self {
            Wire::Client(a) => 1 + a.wire_size(),
            Wire::VnMsg { payload, .. } => 5 + payload.wire_size(),
            // Ballot = proposal + 8-byte prev-instance index.
            Wire::Ballot { ballot, .. } => 5 + ballot.value.wire_size() + 8,
            Wire::Veto { .. } => 5,
            Wire::JoinReq { .. } => 5,
            Wire::JoinAck { transfer, .. } => 5 + transfer.wire_size(),
            Wire::Alive { .. } => 5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposal_canonicalization_sorts() {
        let mut p = VirtualInput {
            collision: false,
            messages: vec![3u64, 1, 2],
        };
        p.canonicalize();
        assert_eq!(p.messages, vec![1, 2, 3]);
    }

    #[test]
    fn equal_receptions_equal_proposals() {
        let mut a = VirtualInput {
            collision: true,
            messages: vec![9u64, 4],
        };
        let mut b = VirtualInput {
            collision: true,
            messages: vec![4u64, 9],
        };
        a.canonicalize();
        b.canonicalize();
        assert_eq!(a, b);
    }

    #[test]
    fn wire_vn_attribution() {
        assert_eq!(Wire::<u64, ()>::Client(7).vn(), None);
        assert_eq!(Wire::<u64, ()>::Veto { vn: VnId(3) }.vn(), Some(VnId(3)));
        assert_eq!(
            Wire::<u64, ()>::VnMsg {
                vn: VnId(1),
                payload: 0
            }
            .vn(),
            Some(VnId(1))
        );
    }

    #[test]
    fn control_messages_are_constant_size() {
        // Veto / join-req / alive never grow with execution length or
        // node count.
        assert_eq!(Wire::<u64, ()>::Veto { vn: VnId(0) }.wire_size(), 5);
        assert_eq!(Wire::<u64, ()>::JoinReq { vn: VnId(9) }.wire_size(), 5);
        assert_eq!(Wire::<u64, ()>::Alive { vn: VnId(9) }.wire_size(), 5);
    }

    #[test]
    fn ballot_size_tracks_proposal_only() {
        let small = Wire::<u64, ()>::Ballot {
            vn: VnId(0),
            ballot: Ballot::new(
                VirtualInput {
                    collision: false,
                    messages: vec![1u64],
                },
                7,
            ),
        };
        let large_prev = Wire::<u64, ()>::Ballot {
            vn: VnId(0),
            ballot: Ballot::new(
                VirtualInput {
                    collision: false,
                    messages: vec![1u64],
                },
                7_000_000,
            ),
        };
        assert_eq!(
            small.wire_size(),
            large_prev.wire_size(),
            "prev pointer is a constant-size index"
        );
    }
}
