//! Tracking a mobile object with a virtual node.
//!
//! ```sh
//! cargo run --example tracking_demo
//! ```
//!
//! A reporter device wanders the field (random waypoint) reporting its
//! cell; the virtual node covering the field records it; a stationary
//! querier asks the virtual node where the object is. Both run
//! vi-traffic's tracking client. This is the paper's location-service
//! motivation: the service address (the virtual node) never moves even
//! though every implementing device does.

use virtual_infra::audit::HistoryRecorder;
use virtual_infra::core::vi::VnLayout;
use virtual_infra::radio::geometry::{Point, Rect};
use virtual_infra::radio::mobility::MobilitySpec;
use virtual_infra::radio::{AdversaryKind, RadioConfig};
use virtual_infra::traffic::{
    AppKind, DevicePlan, OpDesc, OpOutcome, TrafficEvent, TrafficSpec, TrafficWorld,
};

fn main() {
    let parked = |x, y| {
        let start = Point::new(x, y);
        let mobility = Box::new(start);
        DevicePlan {
            start,
            mobility,
            spawn_at: None,
            crash_at: None,
        }
    };
    let roam_from = Point::new(20.0, 20.0);
    let tw = TrafficWorld {
        // Long range: one tracking virtual node covers the 100 m field.
        radio: RadioConfig::reliable(60.0, 90.0),
        layout: VnLayout::new(vec![Point::new(50.0, 50.0)], 2.5),
        seed: 99,
        adversary: AdversaryKind::None,
        devices: vec![
            // Client 0 is the tracked object, client 1 the querier.
            DevicePlan {
                mobility: MobilitySpec::Waypoint { speed: 0.05 }
                    .build(roam_from, Rect::square(100.0)),
                ..parked(roam_from.x, roam_from.y)
            },
            parked(40.0, 50.0),
            // Two devices near the virtual node keep it alive.
            parked(50.5, 50.0),
            parked(49.5, 50.2),
        ],
    };
    let spec = TrafficSpec::closed(2, 1, 1, 60);
    let (_, history) = HistoryRecorder::record(AppKind::Tracking, tw, &spec);

    // The object's reports against what the querier was told about it.
    let (mut lookups, mut answers) = (Vec::new(), 0);
    for e in &history.events {
        match *e {
            TrafficEvent::Invoke {
                vr,
                op: OpDesc::Report { object: 0, cell },
                ..
            } => println!("vr {vr:>2}: object reports cell {cell:?}"),
            TrafficEvent::Invoke {
                id,
                client: 1,
                op: OpDesc::Lookup { object: 0 },
                ..
            } => lookups.push(id),
            TrafficEvent::Complete {
                id,
                vr,
                outcome: OpOutcome::Answered { cell },
                ..
            } if lookups.contains(&id) => {
                answers += 1;
                println!("vr {vr:>2}:   querier is told {cell:?}");
            }
            _ => {}
        }
    }
    println!("\nquerier received {answers} answers about the object");
}
