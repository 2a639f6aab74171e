//! The client-side runtime (Section 1.2).
//!
//! Clients are the user programs running on mobile devices. From a
//! client's perspective the system "appears equivalent to a system in
//! which each virtual node is replaced with a reliable, immobile real
//! device": the client broadcasts in the client phase of each virtual
//! round and receives, at the end of the round, whatever the virtual
//! broadcast service delivered — messages from other clients and from
//! virtual nodes — together with a (virtual) collision indication. A
//! co-located replica whose agreement instance ended ⊥ injects a
//! simulated collision, preserving the virtual collision detector's
//! completeness (Section 3.3). The reception is a [`VirtualInput`]
//! with its messages in arrival order.

use crate::vi::automaton::VirtualInput;
use std::any::Any;
use vi_radio::geometry::Point;

/// A client program, driven once per virtual round. A device reads its
/// client back typed through [`Device::client`](crate::vi::Device::client),
/// by upcasting to [`Any`].
pub trait ClientApp<A>: Any {
    /// Called at the start of virtual round `vr` with the device's
    /// current position (the GPS / location-service reading) and the
    /// previous round's reception; returns the message to broadcast
    /// this round, if any.
    fn on_virtual_round(&mut self, vr: u64, pos: Point, prev: &VirtualInput<A>) -> Option<A>;
}

/// A client that never sends and records everything it observes.
#[derive(Clone, Debug, Default)]
pub struct CollectorClient<A> {
    /// Every reception the client was handed, one per virtual round it
    /// ran. Virtual rounds count from 1, so for a device present from
    /// the start `log[0]` is the empty reception before any round ran
    /// and `log[k]` is what the client heard in virtual round `k`.
    pub log: Vec<VirtualInput<A>>,
}

impl<A: Clone + 'static> ClientApp<A> for CollectorClient<A> {
    fn on_virtual_round(&mut self, _vr: u64, _pos: Point, prev: &VirtualInput<A>) -> Option<A> {
        self.log.push(prev.clone());
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_records_in_order() {
        let mut c = CollectorClient::<u64>::default();
        let r1 = VirtualInput {
            messages: vec![1],
            collision: false,
        };
        let r2 = VirtualInput {
            messages: vec![],
            collision: true,
        };
        assert_eq!(c.on_virtual_round(1, Point::ORIGIN, &r1), None);
        assert_eq!(c.on_virtual_round(2, Point::ORIGIN, &r2), None);
        assert_eq!(c.log, vec![r1, r2]);
    }
}
