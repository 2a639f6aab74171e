//! Quickstart: one virtual node, three mobile devices, live in under
//! a minute.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Deploys a single virtual node (the built-in counter automaton) at a
//! fixed location, places three devices nearby, and lets the
//! emulation bootstrap itself: the devices discover the dead virtual
//! node via the join/reset sub-protocol, re-initialize it, and from
//! then on keep it alive and consistent while clients talk to it.

use virtual_infra::core::vi::{
    CollectorClient, CounterAutomaton, VnId, VnLayout, World, WorldConfig,
};
use virtual_infra::radio::geometry::Point;
use virtual_infra::radio::RadioConfig;

fn main() {
    // A 10 m broadcast radius, 20 m interference radius, well-behaved
    // channel; one virtual node at (50, 50) emulated by every device
    // within 2.5 m (= R1/4).
    let layout = VnLayout::new(vec![Point::new(50.0, 50.0)], 2.5);
    let mut world = World::new(WorldConfig {
        radio: RadioConfig::reliable(10.0, 20.0),
        layout,
        automaton: CounterAutomaton,
        seed: 42,
        record_trace: false,
    });

    // Three devices in the region; each also runs a collecting client.
    let devices: Vec<_> = (0..3)
        .map(|i| {
            world.add_device(
                Box::new(Point::new(49.4 + i as f64 * 0.6, 50.0)),
                Some(Box::new(CollectorClient::<u64>::default())),
            )
        })
        .collect();

    println!(
        "one virtual round = {} radio rounds",
        world.plan().rounds_per_vr()
    );
    for step in 1..=5 {
        world.run_virtual_rounds(2);
        let vr = world.virtual_rounds_done();
        let replicas = world.replica_count(VnId(0));
        match world.vn_state(VnId(0)) {
            Some((state, folded)) => println!(
                "after vr {vr}: {replicas} replicas, vn state folded to vr {folded}: {state:?}"
            ),
            None => println!("after vr {vr}: virtual node not yet alive"),
        }
        if step == 1 {
            println!("  (bootstrap: devices found a dead virtual node and reset it)");
        }
    }

    // What did a client see? The counter automaton broadcasts its
    // running total every scheduled round.
    let client = world
        .device(devices[0])
        .client::<CollectorClient<u64>>()
        .expect("client present");
    let heard: Vec<&u64> = client.log.iter().flat_map(|r| &r.messages).collect();
    println!(
        "client 0 heard {} virtual-node broadcasts: {heard:?}",
        heard.len()
    );

    let (_, report) = world.vn_report(VnId(0));
    println!(
        "emulation totals: {} green instances, {} ⊥, {} resets",
        report.decided, report.bottom, report.resets
    );
}
