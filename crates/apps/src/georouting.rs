//! Greedy geographic routing over the virtual-node grid.
//!
//! The paper's routing motivation (references [12, 16, 17, 40]):
//! because virtual nodes are immobile and reliably present, they form
//! a static overlay over which classic position-based routing works
//! unmodified — no route discovery, no broken links from mobility.
//! Each virtual node forwards a packet iff it is strictly closer to
//! the destination than the previous carrier; the strict-decrease rule
//! guarantees loop freedom.

use serde::{Deserialize, Serialize};
use vi_core::vi::{VirtualAutomaton, VirtualInput, VnCtx};
use vi_radio::geometry::Point;
use vi_radio::WireSized;

/// Quantized coordinates (millimeters), giving routing messages a
/// total order without comparing floats.
pub type QPoint = (i64, i64);

/// Quantizes a position to millimeters.
pub fn quantize(p: Point) -> QPoint {
    ((p.x * 1000.0).round() as i64, (p.y * 1000.0).round() as i64)
}

/// Quantized distance (millimeters) between a position and a
/// quantized destination.
pub fn qdist(from: Point, to: QPoint) -> u64 {
    let dx = from.x * 1000.0 - to.0 as f64;
    let dy = from.y * 1000.0 - to.1 as f64;
    (dx * dx + dy * dy).sqrt().round() as u64
}

/// Routing messages: a packet in flight.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RouteMsg {
    /// A packet addressed to the virtual node at `dst`.
    Packet {
        /// Destination location (quantized).
        dst: QPoint,
        /// Application payload.
        payload: u32,
        /// Distance of the previous carrier to the destination; only
        /// strictly closer virtual nodes forward (loop freedom).
        carrier_dist: u64,
    },
}

impl RouteMsg {
    /// A freshly injected packet: maximal carrier distance, so any
    /// virtual node hearing it makes progress (how clients and load
    /// generators enter packets into the overlay).
    pub fn inject(dst: QPoint, payload: u32) -> Self {
        RouteMsg::Packet {
            dst,
            payload,
            carrier_dist: u64::MAX,
        }
    }
}

impl WireSized for RouteMsg {
    fn wire_size(&self) -> usize {
        1 + 16 + 4 + 8
    }
}

/// The routing automaton.
#[derive(Clone, Copy, Debug, Default)]
pub struct GeoRouterVn;

/// State of [`GeoRouterVn`].
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouterState {
    /// Payloads delivered at this (destination) virtual node.
    pub delivered: Vec<u32>,
    /// Packets queued for forwarding: `(dst, payload)`.
    pub queue: Vec<(QPoint, u32)>,
    /// Payloads this node has already handled (forward-once).
    pub seen: Vec<u32>,
}

impl VirtualAutomaton for GeoRouterVn {
    type Msg = RouteMsg;
    type State = RouterState;

    fn init(&self) -> RouterState {
        RouterState::default()
    }

    fn step(
        &self,
        state: &mut RouterState,
        ctx: VnCtx,
        input: &VirtualInput<RouteMsg>,
    ) -> Option<RouteMsg> {
        for m in &input.messages {
            let RouteMsg::Packet {
                dst,
                payload,
                carrier_dist,
            } = m;
            if state.seen.contains(payload) {
                continue;
            }
            let my_dist = qdist(ctx.loc, *dst);
            if my_dist >= *carrier_dist {
                continue; // not making progress: drop (loop freedom)
            }
            state.seen.push(*payload);
            if my_dist == 0 {
                state.delivered.push(*payload);
            } else {
                state.queue.push((*dst, *payload));
            }
        }
        if ctx.next_scheduled && !state.queue.is_empty() {
            let (dst, payload) = state.queue.remove(0);
            return Some(RouteMsg::Packet {
                dst,
                payload,
                carrier_dist: qdist(ctx.loc, dst),
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_core::vi::{ClientApp, VirtualInput, VnId, VnLayout, World, WorldConfig};
    use vi_radio::RadioConfig;

    /// Sends its one packet at virtual round 5.
    struct OneShot(Option<RouteMsg>);

    impl ClientApp<RouteMsg> for OneShot {
        fn on_virtual_round(
            &mut self,
            vr: u64,
            _: Point,
            _: &VirtualInput<RouteMsg>,
        ) -> Option<RouteMsg> {
            self.0.take_if(|_| vr >= 5)
        }
    }

    #[test]
    fn quantization_roundtrip() {
        let p = Point::new(12.345, -6.789);
        assert_eq!(quantize(p), (12345, -6789));
        assert_eq!(qdist(p, quantize(p)), 0);
        assert_eq!(qdist(Point::new(0.0, 0.0), (3000, 4000)), 5000);
    }

    /// A packet injected near vn0 hops vn0 → vn1 → vn2 and is
    /// delivered at the destination exactly once.
    #[test]
    fn packet_routes_across_three_hops() {
        // Row of three virtual nodes, 18 m apart; R1 = 40 keeps
        // adjacent emulation regions in broadcast range while the
        // conflict rule (R1 + 2·R2 = 160) forces distinct schedule
        // slots, so forwarding hops never collide.
        let locs = vec![
            Point::new(50.0, 50.0),
            Point::new(68.0, 50.0),
            Point::new(86.0, 50.0),
        ];
        let dst = quantize(locs[2]);
        let layout = VnLayout::new(locs.clone(), 2.5);
        let mut world = World::new(WorldConfig {
            radio: RadioConfig::reliable(40.0, 60.0),
            layout,
            automaton: GeoRouterVn,
            seed: 17,
            record_trace: false,
        });
        // Two emulating devices per virtual node + the injector client
        // near vn0.
        for loc in &locs {
            world.add_device(Box::new(Point::new(loc.x + 0.5, loc.y)), None);
            world.add_device(Box::new(Point::new(loc.x - 0.5, loc.y)), None);
        }
        world.add_device(
            Box::new(Point::new(50.0, 51.0)),
            Some(Box::new(OneShot(Some(RouteMsg::inject(dst, 42))))),
        );
        world.run_virtual_rounds(30);

        let (state, _) = world.vn_state(VnId(2)).expect("vn2 alive");
        assert_eq!(state.delivered, vec![42], "delivered exactly once");
        let (mid, _) = world.vn_state(VnId(1)).expect("vn1 alive");
        assert!(mid.seen.contains(&42), "vn1 forwarded the packet");
        assert!(mid.delivered.is_empty(), "vn1 is not the destination");
    }

    #[test]
    fn non_progress_packets_are_dropped() {
        let a = GeoRouterVn;
        let mut st = a.init();
        let ctx = VnCtx {
            vn: VnId(0),
            loc: Point::new(100.0, 0.0),
            vr: 1,
            scheduled: false,
            next_scheduled: true,
        };
        // Carrier was already closer than us: drop.
        let input = VirtualInput {
            messages: vec![RouteMsg::Packet {
                dst: (0, 0),
                payload: 1,
                carrier_dist: 50_000,
            }],
            collision: false,
        };
        let out = a.step(&mut st, ctx, &input);
        assert_eq!(out, None);
        assert!(st.queue.is_empty() && st.delivered.is_empty());
    }

    #[test]
    fn forward_once_per_payload() {
        let a = GeoRouterVn;
        let mut st = a.init();
        let ctx = VnCtx {
            vn: VnId(0),
            loc: Point::new(1.0, 0.0),
            vr: 1,
            scheduled: false,
            next_scheduled: true,
        };
        let pkt = RouteMsg::Packet {
            dst: (0, 0),
            payload: 7,
            carrier_dist: u64::MAX,
        };
        let input = VirtualInput {
            messages: vec![pkt.clone(), pkt],
            collision: false,
        };
        let out = a.step(&mut st, ctx, &input);
        assert!(out.is_some());
        assert!(st.queue.is_empty(), "duplicate suppressed, queue drained");
    }
}
