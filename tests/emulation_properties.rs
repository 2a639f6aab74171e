//! Property-based tests of the virtual-infrastructure emulation:
//! randomized deployments, populations, churn, and disruption — the
//! replication invariants must hold in every generated world.

use proptest::prelude::*;
use virtual_infra::core::vi::{CounterAutomaton, CounterState, VnId, VnLayout, World, WorldConfig};
use virtual_infra::radio::geometry::Point;
use virtual_infra::radio::{AdversaryKind, RadioConfig};

#[derive(Clone, Debug)]
struct Scenario {
    seed: u64,
    devices_per_vn: usize,
    vn_count: usize,
    vrs: u64,
    /// Optional burst of total loss `(start_vr, len_vrs)`.
    burst: Option<(u64, u64)>,
    /// Device lifecycle jitter: (index, spawn_vr, crash_vr).
    churn: Vec<(usize, u64, u64)>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        any::<u64>(),
        2usize..5,
        1usize..4,
        8u64..20,
        proptest::option::of((2u64..10, 1u64..5)),
        proptest::collection::vec((0usize..12, 0u64..6, 8u64..18), 0..3),
    )
        .prop_map(
            |(seed, devices_per_vn, vn_count, vrs, burst, churn)| Scenario {
                seed,
                devices_per_vn,
                vn_count,
                vrs,
                burst,
                churn,
            },
        )
}

fn build(s: &Scenario) -> World<CounterAutomaton> {
    // Virtual nodes far enough apart to be independent cliques but
    // placed on one shared channel.
    let locations: Vec<Point> = (0..s.vn_count)
        .map(|i| Point::new(50.0 + 25.0 * i as f64, 50.0))
        .collect();
    let layout = VnLayout::new(locations.clone(), 2.5);
    let mut world = World::new(WorldConfig {
        radio: if s.burst.is_some() {
            RadioConfig::stabilizing(10.0, 20.0, u64::MAX)
        } else {
            RadioConfig::reliable(10.0, 20.0)
        },
        layout,
        automaton: CounterAutomaton,
        seed: s.seed,
        record_trace: false,
    });
    let rpv = world.plan().rounds_per_vr();
    if let Some((start, len)) = s.burst {
        let from = start * rpv;
        let to = (start + len) * rpv;
        #[allow(clippy::single_range_in_vec_init)] // a list of burst windows
        let bursts = vec![from..to];
        world.set_adversary(Box::new(AdversaryKind::Burst(bursts)));
    }
    let mut device_index = 0usize;
    for loc in &locations {
        for d in 0..s.devices_per_vn {
            let off = 0.25 + 0.3 * d as f64 / s.devices_per_vn as f64;
            let lifecycle = s
                .churn
                .iter()
                .find(|&&(idx, _, _)| idx == device_index)
                .map(|&(_, sp, cr)| (sp * rpv, cr * rpv));
            world.add_device_spec(
                Box::new(Point::new(loc.x + off, loc.y - off / 2.0)),
                None,
                lifecycle.map(|(sp, _)| sp),
                lifecycle.map(|(_, cr)| cr),
            );
            device_index += 1;
        }
    }
    world
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The core replication invariant in every generated world:
    /// replicas of the same virtual node folded to the same virtual
    /// round hold identical state; folds never run ahead of completed
    /// virtual rounds; reports stay arithmetically consistent.
    #[test]
    fn replicas_agree_in_every_world(s in scenario()) {
        let mut world = build(&s);
        world.run_virtual_rounds(s.vrs);
        for vn in 0..s.vn_count {
            let vn = VnId(vn);
            let mut views: Vec<(CounterState, u64)> = Vec::new();
            for &id in &world.devices().to_vec() {
                if world.device(id).is_replica() == Some(vn) {
                    if let Some((st, folded, _)) = world.device(id).vn_view() {
                        prop_assert!(folded <= s.vrs, "fold beyond completed rounds");
                        views.push((st.clone(), folded));
                    }
                }
            }
            for (i, (st, f)) in views.iter().enumerate() {
                for (st2, f2) in views.iter().skip(i + 1) {
                    if f == f2 {
                        prop_assert_eq!(st, st2, "replica divergence at fold {}", f);
                    }
                }
            }
            let (_, report) = world.vn_report(vn);
            prop_assert!(
                report.decided + report.bottom <= s.vrs * (s.devices_per_vn as u64 + 2) * 2,
                "report counts are bounded by participation"
            );
        }
    }

    /// Without disruption or churn, every virtual node is fully live:
    /// all instances green once bootstrapped, and state folds to the
    /// last completed round.
    #[test]
    fn stable_worlds_are_fully_live(
        seed in any::<u64>(),
        devices in 2usize..5,
        vns in 1usize..4,
    ) {
        let s = Scenario {
            seed,
            devices_per_vn: devices,
            vn_count: vns,
            vrs: 12,
            burst: None,
            churn: vec![],
        };
        let mut world = build(&s);
        world.run_virtual_rounds(s.vrs);
        for vn in 0..vns {
            let (state, folded) = world.vn_state(VnId(vn)).expect("alive");
            prop_assert_eq!(folded, s.vrs, "fully caught up");
            // The counter automaton detects no collisions on a stable
            // channel once live (the bootstrap rounds may contain join
            // collisions, which are outside its lifetime).
            prop_assert_eq!(state.collisions, 0, "no virtual collisions when stable");
        }
    }

    /// Determinism across the full emulation stack: same scenario,
    /// same world, byte-for-byte.
    #[test]
    fn worlds_are_deterministic(s in scenario()) {
        let run = |s: &Scenario| {
            let mut world = build(s);
            world.run_virtual_rounds(s.vrs);
            let stats = *world.stats();
            let states: Vec<_> = (0..s.vn_count)
                .map(|vn| world.vn_state(VnId(vn)))
                .collect();
            (stats, states)
        };
        prop_assert_eq!(run(&s), run(&s));
    }
}
