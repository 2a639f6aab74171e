//! A register anchored at a geographic focal point (GeoQuorums-style).
//!
//! ```sh
//! cargo run --example geo_register
//! ```
//!
//! Two client devices write and read a virtual-node-hosted register
//! through vi-traffic's register client; a third device exists only to
//! thicken the replica set. Midway it crashes — the register (being
//! virtual) survives, and the audit checks the history linearizable.

use virtual_infra::audit::{audit, HistoryRecorder};
use virtual_infra::core::vi::{RoundPlan, Schedule, VnLayout};
use virtual_infra::radio::geometry::Point;
use virtual_infra::radio::{AdversaryKind, RadioConfig};
use virtual_infra::traffic::{
    AppKind, DevicePlan, OpDesc, OpOutcome, TrafficEvent, TrafficSpec, TrafficWorld,
};

fn main() {
    let layout = VnLayout::new(vec![Point::new(50.0, 50.0)], 2.5);
    let rpv = RoundPlan::new(Schedule::build(&layout, 10.0 + 2.0 * 20.0).len()).rounds_per_vr();
    let device = |x, y, crash_at| {
        let start = Point::new(x, y);
        let mobility = Box::new(start);
        DevicePlan {
            start,
            mobility,
            spawn_at: None,
            crash_at,
        }
    };
    let crash_vr = 15;
    let tw = TrafficWorld {
        radio: RadioConfig::reliable(10.0, 20.0),
        layout,
        seed: 5,
        adversary: AdversaryKind::None,
        devices: vec![
            device(50.4, 50.0, None),
            device(49.6, 50.0, None),
            // The relay crashes mid-flight; the virtual node must survive.
            device(50.0, 50.6, Some(crash_vr * rpv)),
        ],
    };
    let spec = TrafficSpec::closed(2, 1, 1, 30);
    let (_, history) = HistoryRecorder::record(AppKind::Register, tw, &spec);
    println!("relay crashes at vr {crash_vr}");

    // Tags count up in write-invocation order; a write's value is its
    // request id.
    let (mut writes, mut acked, mut reads) = (Vec::new(), Vec::new(), Vec::new());
    for e in &history.events {
        match *e {
            TrafficEvent::Invoke {
                id,
                op: OpDesc::Write { .. },
                ..
            } => writes.push(id),
            TrafficEvent::Complete {
                id,
                outcome: OpOutcome::Acked,
                ..
            } => {
                let tag = writes.iter().position(|&w| w == id).expect("invoked") + 1;
                acked.push((tag, id));
            }
            TrafficEvent::Complete {
                outcome: OpOutcome::ReadValue { tag, value },
                ..
            } => reads.push((tag, value)),
            _ => {}
        }
    }
    println!("acknowledged writes (tag, value): {acked:?}");
    println!("reads observed (tag, value) sequence: {reads:?}");
    let monotone = reads.windows(2).all(|w| w[0].0 <= w[1].0);
    println!("reads tag-monotone (regular register): {monotone}");
    println!("audit: {}", audit(&history).verdict_summary());
}
