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
//! completeness (Section 3.3).

use std::any::Any;
use vi_radio::geometry::Point;

/// What a client observes in one virtual round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VirtualReception<A> {
    /// Messages received (from clients and virtual nodes), in arrival
    /// order within the round.
    pub messages: Vec<A>,
    /// Virtual collision indication: a physical collision during the
    /// message sub-protocol, or a co-located replica reporting an
    /// undecided round.
    pub collision: bool,
}

impl<A> Default for VirtualReception<A> {
    fn default() -> Self {
        VirtualReception {
            messages: Vec::new(),
            collision: false,
        }
    }
}

impl<A> VirtualReception<A> {
    /// `true` if nothing was received and no collision indicated.
    pub fn is_silent(&self) -> bool {
        self.messages.is_empty() && !self.collision
    }
}

/// A client program, driven once per virtual round. A device reads its
/// client back typed through [`Device::client`](crate::vi::Device::client),
/// by upcasting to [`Any`].
pub trait ClientApp<A>: Any {
    /// Called at the start of virtual round `vr` with the device's
    /// current position (the GPS / location-service reading) and the
    /// previous round's reception; returns the message to broadcast
    /// this round, if any.
    fn on_virtual_round(&mut self, vr: u64, pos: Point, prev: &VirtualReception<A>) -> Option<A>;
}

/// A client that never sends and records everything it observes.
#[derive(Clone, Debug, Default)]
pub struct CollectorClient<A> {
    /// Per-virtual-round receptions, indexed from virtual round 1.
    pub log: Vec<VirtualReception<A>>,
}

impl<A: Clone + 'static> ClientApp<A> for CollectorClient<A> {
    fn on_virtual_round(&mut self, _vr: u64, _pos: Point, prev: &VirtualReception<A>) -> Option<A> {
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
        let r1 = VirtualReception {
            messages: vec![1],
            collision: false,
        };
        let r2 = VirtualReception {
            messages: vec![],
            collision: true,
        };
        assert_eq!(c.on_virtual_round(1, Point::ORIGIN, &r1), None);
        assert_eq!(c.on_virtual_round(2, Point::ORIGIN, &r2), None);
        assert_eq!(c.log, vec![r1, r2]);
    }

    #[test]
    fn silence_detection() {
        assert!(VirtualReception::<u64>::default().is_silent());
        assert!(!VirtualReception::<u64> {
            messages: vec![],
            collision: true
        }
        .is_silent());
    }
}
