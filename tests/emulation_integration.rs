//! Cross-crate integration tests of the full virtual-infrastructure
//! emulation: replica consistency, churn survival, crash tolerance,
//! state transfer, disruption recovery, and the client-visible
//! abstraction.

use virtual_infra::core::cha::Phase;
use virtual_infra::core::vi::{
    CollectorClient, CounterAutomaton, CounterState, RoundPlan, VirtualPhase, VnId, VnLayout,
    World, WorldConfig,
};
use virtual_infra::radio::adversary::ScriptedAdversary;
use virtual_infra::radio::geometry::{Point, Rect};
use virtual_infra::radio::mobility::MobilitySpec;
use virtual_infra::radio::{AdversaryKind, NodeId, RadioConfig};

const VN: Point = Point::new(50.0, 50.0);

fn counter_world(seed: u64) -> World<CounterAutomaton> {
    let layout = VnLayout::new(vec![VN], 2.5);
    World::new(WorldConfig {
        radio: RadioConfig::reliable(10.0, 20.0),
        layout,
        automaton: CounterAutomaton,
        seed,
        record_trace: false,
    })
}

fn static_device(world: &mut World<CounterAutomaton>, dx: f64, dy: f64) -> NodeId {
    world.add_device(Box::new(Point::new(VN.x + dx, VN.y + dy)), None)
}

/// All replicas of a virtual node hold identical state whenever they
/// have folded to the same virtual round — the core replication
/// invariant, checked at every virtual round boundary.
#[test]
fn replicas_never_diverge() {
    let mut world = counter_world(1);
    let ids: Vec<NodeId> = (0..4)
        .map(|i| static_device(&mut world, 0.3 * i as f64 - 0.45, 0.2))
        .collect();
    // Also a client generating traffic for the counter to chew on.
    world.add_device(
        Box::new(Point::new(VN.x, VN.y - 1.0)),
        Some(Box::new(CollectorClient::<u64>::default())),
    );
    for _ in 0..12 {
        world.run_virtual_rounds(1);
        let views: Vec<(CounterState, u64)> = ids
            .iter()
            .filter_map(|&id| world.device(id).vn_view())
            .map(|(s, f, _)| (s.clone(), f))
            .collect();
        for (i, (s, f)) in views.iter().enumerate() {
            for (s2, f2) in views.iter().skip(i + 1) {
                if f == f2 {
                    assert_eq!(s, s2, "replicas diverged at fold {f}");
                }
            }
        }
    }
}

/// The virtual node survives the crash of every original replica, as
/// long as replacements arrive in time — and its state carries over
/// through join transfers (it is the *virtual node's* state, not any
/// device's).
#[test]
fn virtual_node_outlives_every_founding_device() {
    let mut world = counter_world(2);
    let rpv = world.plan().rounds_per_vr();
    let founders: Vec<NodeId> = (0..3)
        .map(|i| {
            world.add_device_spec(
                Box::new(Point::new(VN.x + 0.3 * i as f64, VN.y)),
                None,
                None,
                Some(10 * rpv + i), // all crash around vr 11
            )
        })
        .collect();
    // Replacements arrive at vr 8 (overlapping the founders).
    let heirs: Vec<NodeId> = (0..2)
        .map(|i| {
            world.add_device_spec(
                Box::new(Point::new(VN.x - 0.3 * (i + 1) as f64, VN.y)),
                None,
                Some(7 * rpv),
                None,
            )
        })
        .collect();
    world.run_virtual_rounds(9);
    let (state_before, folded_before) = world.vn_state(VnId(0)).expect("alive before crashes");
    world.run_virtual_rounds(11);
    for &f in &founders {
        assert!(world.device(f).is_replica().is_none() || !world.engine().is_alive(f));
    }
    let (state_after, folded_after) = world.vn_state(VnId(0)).expect("alive after crashes");
    assert!(folded_after > folded_before, "progress continued");
    assert!(
        state_after.received >= state_before.received,
        "virtual-node state carried over, not reset"
    );
    let heir_replicas = heirs
        .iter()
        .filter(|&&id| world.device(id).is_replica() == Some(VnId(0)))
        .count();
    assert_eq!(heir_replicas, 2, "heirs took over the emulation");
    let (_, report) = world.vn_report(VnId(0));
    assert!(report.joins >= 2, "heirs joined by state transfer");
}

/// A burst of total message loss mid-run: safety throughout, and the
/// emulation resumes progress after the burst ends (the paper's
/// alternating stability periods).
#[test]
fn burst_disruption_recovers() {
    let layout = VnLayout::new(vec![VN], 2.5);
    let mut world = World::new(WorldConfig {
        radio: RadioConfig::stabilizing(10.0, 20.0, u64::MAX),
        layout,
        automaton: CounterAutomaton,
        seed: 3,
        record_trace: false,
    });
    // Burst of total loss + false detector reports between rounds
    // 200-280 (several virtual rounds).
    #[allow(clippy::single_range_in_vec_init)] // a list of burst windows
    let bursts = vec![200..280];
    world.set_adversary(Box::new(AdversaryKind::Burst(bursts)));
    let ids: Vec<NodeId> = (0..3)
        .map(|i| static_device(&mut world, 0.3 * i as f64, 0.0))
        .collect();
    world.run_virtual_rounds(40);
    let (_, folded) = world.vn_state(VnId(0)).expect("alive");
    assert!(folded >= 35, "recovered and caught up: folded={folded}");
    let (_, report) = world.vn_report(VnId(0));
    assert!(report.bottom > 0, "the burst produced undecided instances");
    assert!(report.decided > report.bottom, "but most instances decided");
    // Replica agreement after recovery.
    let views: Vec<CounterState> = ids
        .iter()
        .filter_map(|&id| world.device(id).vn_view())
        .map(|(s, _, _)| s.clone())
        .collect();
    assert!(views.windows(2).all(|w| w[0] == w[1]));
}

/// Footnote 2's rule, emulated: a virtual node's message leaves its
/// replicas only once the instance before it ended green. A spurious
/// collision at every replica in one ballot round (the detector is
/// accurate from the next round on) turns that virtual round's
/// instance ⊥ everywhere, so in the next virtual round's vn phase no
/// replica broadcasts and a client in range hears nothing from the
/// virtual node, though it hears it in the rounds before and after.
#[test]
fn no_vn_broadcast_follows_an_undecided_instance() {
    let vr = 6; // the virtual round whose instance ends ⊥
    let plan = RoundPlan::new(1); // one virtual node: one schedule slot
    let scheduled_ballot = VirtualPhase::Cha {
        scheduled: true,
        step: Phase::Ballot,
        slot: None,
    };
    let ballot = (plan.start_of(vr)..)
        .find(|&r| plan.phase(r).1 == scheduled_ballot)
        .unwrap();
    let mut world = World::new(WorldConfig {
        radio: RadioConfig::reliable(10.0, 20.0).with_stabilization(0, ballot + 1),
        layout: VnLayout::new(vec![VN], 2.5),
        automaton: CounterAutomaton,
        seed: 6,
        record_trace: false,
    });
    assert_eq!(world.plan(), plan);
    let replicas: Vec<NodeId> = (0..3)
        .map(|i| static_device(&mut world, 0.3 * i as f64 - 0.3, 0.0))
        .collect();
    // Outside the region (radius 2.5), within R1 of every replica.
    let client = world.add_device(
        Box::new(Point::new(VN.x - 5.0, VN.y)),
        Some(Box::new(CollectorClient::<u64>::default())),
    );
    let mut adv = ScriptedAdversary::new();
    for &id in &replicas {
        adv.inject_collision(ballot, id);
    }
    world.set_adversary(Box::new(adv));

    // Each replica's (⊥ instances, vn broadcasts) so far.
    let tally = |world: &World<CounterAutomaton>| -> Vec<(u64, u64)> {
        replicas
            .iter()
            .map(|&id| {
                let (_, report) = world.device(id).emulator_report().expect("emulating");
                (report.bottom, report.vn_broadcasts)
            })
            .collect()
    };
    world.run_virtual_rounds(vr - 1);
    let before = tally(&world);
    world.run_virtual_rounds(1);
    let undecided = tally(&world);
    world.run_virtual_rounds(1);
    let gated = tally(&world);
    for ((b, u), g) in before.iter().zip(&undecided).zip(&gated) {
        assert_eq!(u.0, b.0 + 1, "every replica ends vr {vr} ⊥");
        assert_eq!(g.1, u.1, "a replica broadcast in vr {}", vr + 1);
    }
    world.run_virtual_rounds(2);
    // `log[k]` is what the client heard in virtual round `k`.
    let log = &world
        .device(client)
        .client::<CollectorClient<u64>>()
        .unwrap()
        .log;
    let heard: Vec<bool> = log.iter().map(|r| !r.messages.is_empty()).collect();
    assert_eq!(
        heard[vr as usize - 2..],
        [true, true, true, false, true],
        "the virtual node is heard in vrs {}..={} but {}",
        vr - 2,
        vr + 2,
        vr + 1
    );
}

/// Co-located clients of the same virtual node observe the same
/// virtual-node broadcasts (the "reliable base station" illusion of
/// Section 1.2) on a stable channel.
#[test]
fn co_located_clients_see_identical_vn_traffic() {
    let mut world = counter_world(4);
    for i in 0..2 {
        static_device(&mut world, 0.4 + 0.2 * i as f64, 0.0);
    }
    let c1 = world.add_device(
        Box::new(Point::new(VN.x - 0.5, VN.y)),
        Some(Box::new(CollectorClient::<u64>::default())),
    );
    let c2 = world.add_device(
        Box::new(Point::new(VN.x - 0.7, VN.y)),
        Some(Box::new(CollectorClient::<u64>::default())),
    );
    world.run_virtual_rounds(12);
    let log1 = &world
        .device(c1)
        .client::<CollectorClient<u64>>()
        .unwrap()
        .log;
    let log2 = &world
        .device(c2)
        .client::<CollectorClient<u64>>()
        .unwrap()
        .log;
    let msgs1: Vec<&u64> = log1.iter().flat_map(|r| &r.messages).collect();
    let msgs2: Vec<&u64> = log2.iter().flat_map(|r| &r.messages).collect();
    assert_eq!(msgs1, msgs2, "same virtual broadcasts observed");
    assert!(!msgs1.is_empty());
}

/// A device that wanders out of the region stops emulating; when it
/// wanders back it rejoins through the join protocol rather than
/// resuming its stale state.
#[test]
fn region_departure_forces_rejoin() {
    let mut world = counter_world(5);
    let rpv = world.plan().rounds_per_vr();
    // Two anchors.
    static_device(&mut world, 0.3, 0.0);
    static_device(&mut world, -0.3, 0.0);
    // A wanderer that leaves after vr 5 at a speed that exits the
    // region within ~2 virtual rounds.
    let wanderer = world.add_device(
        MobilitySpec::DepartAt {
            dir_x: 0.0,
            dir_y: 1.0,
            speed: 2.6 / (2 * rpv) as f64,
            depart_at: 5 * rpv,
        }
        .build(Point::new(VN.x, VN.y + 0.5), Rect::square(100.0)),
        None,
    );
    world.run_virtual_rounds(5);
    assert_eq!(world.device(wanderer).is_replica(), Some(VnId(0)));
    world.run_virtual_rounds(5);
    assert_eq!(
        world.device(wanderer).is_replica(),
        None,
        "left the region: no longer a replica"
    );
    // The virtual node is unaffected.
    assert_eq!(world.replica_count(VnId(0)), 2);
    let (_, folded) = world.vn_state(VnId(0)).unwrap();
    assert_eq!(folded, 10);
}

/// Determinism: identical seeds give byte-identical emulation results,
/// including under churn.
#[test]
fn emulation_is_deterministic() {
    let run = |seed: u64| {
        let mut world = counter_world(seed);
        let rpv = world.plan().rounds_per_vr();
        for i in 0..4u64 {
            world.add_device_spec(
                Box::new(Point::new(VN.x + 0.2 * i as f64 - 0.3, VN.y)),
                None,
                Some(i * rpv),
                (i == 2).then_some(12 * rpv),
            );
        }
        world.run_virtual_rounds(16);
        let (state, folded) = world.vn_state(VnId(0)).expect("alive");
        (state, folded, *world.stats())
    };
    assert_eq!(run(77), run(77));
}
