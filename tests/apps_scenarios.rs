//! End-to-end application scenarios across crates: the paper's
//! motivating use cases exercised on the full stack (radio →
//! contention → CHA → emulation → application).

use virtual_infra::apps::georouting::{quantize, GeoRouterVn, InjectorClient};
use virtual_infra::apps::register::{ReaderClient, RegisterVn, WriterClient};
use virtual_infra::apps::tracking::{cell_of, QueryClient, ReporterClient, TrackingVn};
use virtual_infra::core::vi::{VnId, VnLayout, World, WorldConfig};
use virtual_infra::radio::geometry::Point;
use virtual_infra::radio::mobility::{PatrolRoute, Static};
use virtual_infra::radio::{AdversaryKind, RadioConfig};

/// A reporter that commutes between two virtual-node regions: both
/// virtual nodes end up knowing the object, each from the reports it
/// heard while the reporter was in radio range.
#[test]
fn tracking_across_regions() {
    let locs = vec![Point::new(30.0, 50.0), Point::new(170.0, 50.0)];
    let layout = VnLayout::new(locs.clone(), 2.5);
    let mut world = World::new(WorldConfig {
        radio: RadioConfig::reliable(40.0, 60.0),
        layout,
        automaton: TrackingVn,
        seed: 8,
        record_trace: false,
    });
    // Anchors for both virtual nodes.
    for loc in &locs {
        world.add_device(Box::new(Static::new(Point::new(loc.x + 0.4, loc.y))), None);
        world.add_device(Box::new(Static::new(Point::new(loc.x - 0.4, loc.y))), None);
    }
    // The commuting reporter: patrols between points near each vn.
    world.add_device(
        Box::new(PatrolRoute::new(
            vec![Point::new(35.0, 55.0), Point::new(165.0, 55.0)],
            4.0,
        )),
        Some(Box::new(ReporterClient::new(9, 1, 20.0))),
    );
    // A querier near vn1.
    let querier = world.add_device(
        Box::new(Static::new(Point::new(168.0, 53.0))),
        Some(Box::new(QueryClient::new(9, 4))),
    );
    world.run_virtual_rounds(40);

    for vn in [VnId(0), VnId(1)] {
        let (state, _) = world.vn_state(vn).expect("vn alive");
        assert!(
            state.objects.contains_key(&9),
            "{vn} should have heard reports"
        );
    }
    let q: &QueryClient = world.device(querier).client::<QueryClient>().unwrap();
    assert!(!q.answers.is_empty(), "query answered");
    let (_, Some(cell)) = q.answers.last().unwrap() else {
        panic!("answer should carry a cell");
    };
    // The answered cell is one the commuter actually visits.
    let visited = [
        cell_of(Point::new(35.0, 55.0), 20.0),
        cell_of(Point::new(165.0, 55.0), 20.0),
    ];
    assert!(
        visited.contains(cell) || cell.0 >= 1,
        "plausible cell: {cell:?}"
    );
}

/// The register survives replica churn without losing acknowledged
/// writes.
#[test]
fn register_survives_replica_rotation() {
    let vn = Point::new(50.0, 50.0);
    let layout = VnLayout::new(vec![vn], 2.5);
    let mut world = World::new(WorldConfig {
        radio: RadioConfig::reliable(10.0, 20.0),
        layout,
        automaton: RegisterVn,
        seed: 21,
        record_trace: false,
    });
    let rpv = world.plan().rounds_per_vr();
    // Three generations of relay devices, overlapping by 4 vrs.
    for gen in 0..3u64 {
        let spawn = gen * 8 * rpv;
        let crash = (gen * 8 + 12) * rpv;
        for d in 0..2u64 {
            world.add_device_spec(
                Box::new(Static::new(Point::new(vn.x + 0.2 + 0.2 * d as f64, vn.y))),
                None,
                Some(spawn),
                Some(crash),
            );
        }
    }
    // Writer and reader stay (they are clients; they also happen to
    // emulate while in region, adding to the replica pool).
    let writer = world.add_device(
        Box::new(Static::new(Point::new(vn.x - 0.4, vn.y))),
        Some(Box::new(WriterClient::new(500, 8))),
    );
    let reader = world.add_device(
        Box::new(Static::new(Point::new(vn.x, vn.y + 0.5))),
        Some(Box::new(ReaderClient::new(3))),
    );
    world.run_virtual_rounds(26);

    let w: &WriterClient = world.device(writer).client::<WriterClient>().unwrap();
    assert_eq!(w.ack_log, vec![1, 2, 3, 4, 5, 6, 7, 8], "all writes acked");
    let r: &ReaderClient = world.device(reader).client::<ReaderClient>().unwrap();
    let tags: Vec<u64> = r.read_log.iter().map(|&(t, _)| t).collect();
    assert!(
        tags.windows(2).all(|w| w[0] <= w[1]),
        "regular reads: {tags:?}"
    );
    let (state, _) = world.vn_state(VnId(0)).expect("register alive");
    assert_eq!((state.tag, state.value), (8, 508), "no acked write lost");
}

/// Routing under a disruption burst: loop freedom and at-most-once
/// delivery hold even when forwarding broadcasts are destroyed.
#[test]
fn routing_is_safe_under_bursts() {
    let locs = vec![
        Point::new(50.0, 50.0),
        Point::new(68.0, 50.0),
        Point::new(86.0, 50.0),
    ];
    let dst = quantize(locs[2]);
    let layout = VnLayout::new(locs.clone(), 2.5);
    let mut world = World::new(WorldConfig {
        radio: RadioConfig::stabilizing(40.0, 60.0, u64::MAX),
        layout,
        automaton: GeoRouterVn,
        seed: 30,
        record_trace: false,
    });
    world.set_adversary(Box::new(AdversaryKind::Burst(vec![300..400, 700..760])));
    for loc in &locs {
        world.add_device(Box::new(Static::new(Point::new(loc.x + 0.5, loc.y))), None);
        world.add_device(Box::new(Static::new(Point::new(loc.x - 0.5, loc.y))), None);
    }
    world.add_device(
        Box::new(Static::new(Point::new(50.0, 51.0))),
        Some(Box::new(InjectorClient::new(dst, 42, 5))),
    );
    world.run_virtual_rounds(50);

    // Safety: never duplicated, never delivered at a non-destination.
    for vn in 0..3 {
        if let Some((state, _)) = world.vn_state(VnId(vn)) {
            if vn == 2 {
                assert!(state.delivered.len() <= 1, "at-most-once");
            } else {
                assert!(state.delivered.is_empty(), "vn{vn} is not the destination");
            }
            let mut seen = state.seen.clone();
            seen.dedup();
            assert_eq!(seen.len(), state.seen.len(), "forward-once per payload");
        }
    }
}
