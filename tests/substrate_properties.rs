//! Property-based tests of the substrates: the radio channel model
//! (Properties 1–2) and the contention managers (Property 3).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use virtual_infra::contention::{
    Advice, BackoffCm, ChannelFeedback, ContentionManager, OracleCm, RegionalCm, RegionalConfig,
};
use virtual_infra::radio::adversary::{NoAdversary, RandomLoss};
use virtual_infra::radio::channel::{
    resolve_round, resolve_round_reference, Medium, ReceptionBuffer, TopologyDelta, TxIntent,
};
use virtual_infra::radio::geometry::{Heard, Point, Rect, SnapshotIndex, SpatialGrid};
use virtual_infra::radio::mobility::{Billiard, MobilityModel, Static, Waypoint};
use virtual_infra::radio::{
    ChannelStats, Engine, EngineConfig, NodeId, NodeSpec, Process, RadioConfig, RoundCtx,
    RoundReception, RoundRecord, Trace,
};

/// The contender lists of `OracleCm` / `RegionalCm` as both rolled
/// them before they swapped buffers: the current list is taken for the
/// previous one on a consecutive round, and both start fresh after a
/// gap.
#[derive(Default)]
struct TakeRolled {
    prev: Vec<usize>,
    cur: Vec<usize>,
    round: u64,
}

impl TakeRolled {
    /// Rolls into `round`; `true` if that is a new round.
    fn roll(&mut self, round: u64) -> bool {
        if round == self.round {
            return false;
        }
        self.prev = if round == self.round + 1 {
            std::mem::take(&mut self.cur)
        } else {
            self.cur.clear();
            Vec::new()
        };
        self.round = round;
        true
    }

    fn enter(&mut self, slot: usize) {
        if !self.cur.contains(&slot) {
            self.cur.push(slot);
        }
    }

    /// The election rule: lowest contender of the previous round, or
    /// the asker if there was none.
    fn prev_min_or(&self, slot: usize) -> usize {
        self.prev.iter().copied().min().unwrap_or(slot)
    }
}

fn arb_point() -> impl Strategy<Value = Point> {
    (0.0f64..100.0, 0.0f64..100.0).prop_map(|(x, y)| Point::new(x, y))
}

/// Random placements + broadcast patterns for channel-law checks.
fn arb_round() -> impl Strategy<Value = (Vec<(Point, bool)>, u64, f64, f64)> {
    (
        proptest::collection::vec((arb_point(), any::<bool>()), 1..12),
        any::<u64>(),
        1.0f64..30.0,
        0.0f64..30.0,
    )
        .prop_map(|(nodes, seed, r1, extra)| (nodes, seed, r1, r1 + extra))
}

/// Records everything a protocol can observe (message stream +
/// collision count) — the probe of the engine-level differentials.
struct Recorder {
    chatty: bool,
    heard: Vec<u64>,
    collisions: u64,
}

impl Recorder {
    fn new(chatty: bool) -> Self {
        Recorder {
            chatty,
            heard: Vec::new(),
            collisions: 0,
        }
    }
}

impl Process<u64> for Recorder {
    fn transmit(&mut self, ctx: &RoundCtx) -> Option<u64> {
        (self.chatty && ctx.round.is_multiple_of(2)).then_some(ctx.round)
    }
    fn deliver(&mut self, _ctx: &RoundCtx, rx: RoundReception<'_, u64>) {
        self.heard.extend_from_slice(rx.messages);
        if rx.collision {
            self.collisions += 1;
        }
    }
}

/// One generated node of the engine-level differentials: start
/// position, mobility kind, chatty?, spawn round, crash round.
type NodeGen = (Point, u8, bool, u64, Option<u64>);

fn arb_nodes() -> impl Strategy<Value = Vec<NodeGen>> {
    proptest::collection::vec(
        (
            arb_point(),
            0u8..4,
            any::<bool>(),
            0u64..6,
            proptest::option::of(2u64..20),
        ),
        1..14,
    )
}

/// Static, roaming waypoint, parked waypoint (settles), or billiard.
fn mobility_of(&(start, kind, ..): &NodeGen) -> Box<dyn MobilityModel> {
    let bounds = Rect::square(200.0);
    let start = Point::new(start.x.min(190.0), start.y.min(190.0));
    match kind {
        0 => Box::new(Static::new(start)),
        1 => Box::new(Waypoint::new(start, 0.7, bounds)),
        2 => Box::new(Waypoint::new(start, 0.0, bounds)),
        _ => Box::new(Billiard::new(start, (0.5, -0.3), bounds)),
    }
}

/// Everything an execution exposes: each node's `(heard,
/// collisions)`, the trace as JSON, and the channel statistics.
type Observed = (Vec<(Vec<u64>, u64)>, String, ChannelStats);

/// The deployment `nodes` describes, under a lossy adversary, run on
/// the real [`Engine`].
fn engine_run(nodes: &[NodeGen], seed: u64, stabilize: u64, drop_p: f64, rounds: u64) -> Observed {
    let mut engine: Engine<u64> = Engine::new(EngineConfig {
        radio: RadioConfig::stabilizing(10.0, 20.0, stabilize),
        seed,
        record_trace: true,
    });
    engine.set_adversary(Box::new(RandomLoss::new(drop_p, 0.1)));
    let mut ids = Vec::new();
    for node in nodes {
        let &(_, _, chatty, spawn, crash) = node;
        let mut spec = NodeSpec::new(mobility_of(node), Box::new(Recorder::new(chatty)));
        if spawn > 0 {
            spec = spec.spawn_at(spawn);
        }
        if let Some(c) = crash {
            spec = spec.crash_at(c);
        }
        ids.push(engine.add_node(spec));
    }
    engine.run(rounds);
    let observed = ids
        .iter()
        .map(|&id| {
            let r: &Recorder = engine.process(id).expect("recorder");
            (r.heard.clone(), r.collisions)
        })
        .collect();
    let trace = serde_json::to_string(engine.trace()).expect("serializable trace");
    (observed, trace, *engine.stats())
}

/// The same deployment on the engine's round loop re-stated naively:
/// *every* participant's mobility advances every round (no settled
/// skip), the channel is [`resolve_round_reference`] (no topology
/// delta, no cache), and receptions are delivered from owned vectors.
fn spec_run(nodes: &[NodeGen], seed: u64, stabilize: u64, drop_p: f64, rounds: u64) -> Observed {
    let cfg = RadioConfig::stabilizing(10.0, 20.0, stabilize);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut adversary = RandomLoss::new(drop_p, 0.1);
    let mut state: Vec<(Box<dyn MobilityModel>, Recorder)> = nodes
        .iter()
        .map(|node| (mobility_of(node), Recorder::new(node.2)))
        .collect();
    let mut trace = Trace::new();
    let mut stats = ChannelStats::default();
    for round in 0..rounds {
        let mut intents: Vec<TxIntent<u64>> = Vec::new();
        for (i, &(_, _, _, spawn, crash)) in nodes.iter().enumerate() {
            if round >= spawn && crash.is_none_or(|c| round < c) {
                let pos = state[i].0.advance(round, &mut rng);
                let payload = state[i].1.transmit(&RoundCtx { round, pos });
                intents.push(TxIntent {
                    node: NodeId::from(i),
                    pos,
                    payload,
                });
            }
        }
        let receptions = resolve_round_reference(round, &cfg, &intents, &mut adversary, &mut rng);
        let mut record = RoundRecord {
            round,
            positions: intents.iter().map(|i| (i.node, i.pos)).collect(),
            broadcasts: Vec::new(),
            deliveries: Vec::new(),
            collisions: Vec::new(),
        };
        stats.rounds += 1;
        for intent in intents.iter().filter(|i| i.payload.is_some()) {
            // A `u64` payload is 8 bytes on the wire.
            stats.broadcasts += 1;
            stats.total_bytes += 8;
            stats.max_message_bytes = 8;
            record.broadcasts.push((intent.node, 8));
        }
        for (rx, intent) in receptions.iter().zip(&intents) {
            let mut messages = Vec::new();
            for &(src, payload) in &rx.messages {
                messages.push(payload);
                if src != rx.node {
                    stats.deliveries += 1;
                    record.deliveries.push((src, rx.node));
                }
            }
            if rx.collision {
                stats.collision_reports += 1;
                record.collisions.push(rx.node);
            }
            state[rx.node.index()].1.deliver(
                &RoundCtx {
                    round,
                    pos: intent.pos,
                },
                RoundReception {
                    messages: &messages,
                    collision: rx.collision,
                },
            );
        }
        trace.rounds.push(record);
    }
    let observed = state
        .into_iter()
        .map(|(_, r)| (r.heard, r.collisions))
        .collect();
    let trace = serde_json::to_string(&trace).expect("serializable trace");
    (observed, trace, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Property 1 (completeness) holds structurally: whenever a
    /// message broadcast within R1 of a node is not delivered to it,
    /// that node's detector reports a collision — even under an
    /// adversary.
    #[test]
    fn channel_completeness((nodes, seed, r1, r2) in arb_round(), drop_p in 0.0f64..1.0) {
        let cfg = RadioConfig { r1, r2, rcf: u64::MAX, racc: u64::MAX, ring_reports: true };
        let intents: Vec<TxIntent<u64>> = nodes.iter().enumerate().map(|(i, &(pos, tx))| TxIntent {
            node: NodeId::from(i),
            pos,
            payload: tx.then_some(i as u64),
        }).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut adv = RandomLoss::new(drop_p, 0.0);
        let out = resolve_round(0, &cfg, &intents, &mut adv, &mut rng);
        for (j, rx) in out.iter().enumerate() {
            let received: Vec<usize> = rx.messages.iter().map(|&(src, _)| src.index()).collect();
            for (i, &(pos_i, tx_i)) in nodes.iter().enumerate() {
                if i == j || !tx_i {
                    continue;
                }
                let in_r1 = pos_i.within(nodes[j].0, r1);
                if in_r1 && !received.contains(&i) {
                    prop_assert!(rx.collision,
                        "node {j} lost an R1 message from {i} without detection");
                }
            }
        }
    }

    /// Deliveries obey the quasi-unit-disk law: a received message
    /// came from within R1, and no other broadcaster sat within R2 of
    /// the receiver; listeners never receive while broadcasting
    /// (except their own loopback).
    #[test]
    fn channel_delivery_law((nodes, seed, r1, r2) in arb_round()) {
        let cfg = RadioConfig::reliable(r1, r2);
        let intents: Vec<TxIntent<u64>> = nodes.iter().enumerate().map(|(i, &(pos, tx))| TxIntent {
            node: NodeId::from(i),
            pos,
            payload: tx.then_some(i as u64),
        }).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let out = resolve_round(0, &cfg, &intents, &mut NoAdversary, &mut rng);
        for (j, rx) in out.iter().enumerate() {
            for &(src, _) in &rx.messages {
                let i = src.index();
                if i == j {
                    continue; // loopback
                }
                prop_assert!(!nodes[j].1, "broadcaster {j} received a foreign message");
                prop_assert!(nodes[i].0.within(nodes[j].0, r1), "reception beyond R1");
                for (k, &(pos_k, tx_k)) in nodes.iter().enumerate() {
                    if tx_k && k != i && k != j {
                        prop_assert!(!pos_k.within(nodes[j].0, r2),
                            "delivery despite interferer {k} within R2 of {j}");
                    }
                }
            }
        }
    }

    /// Mobility models never exceed their declared vmax.
    #[test]
    fn mobility_respects_vmax(
        start in (5.0f64..95.0, 5.0f64..95.0),
        speed in 0.0f64..5.0,
        vel in (-3.0f64..3.0, -3.0f64..3.0),
        seed in any::<u64>(),
    ) {
        let bounds = Rect::square(100.0);
        let start = Point::new(start.0, start.1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut models: Vec<Box<dyn MobilityModel>> = vec![
            Box::new(Waypoint::new(start, speed, bounds)),
            Box::new(Billiard::new(start, vel, bounds)),
        ];
        for m in &mut models {
            let mut prev = m.advance(0, &mut rng);
            for round in 1..100 {
                let next = m.advance(round, &mut rng);
                prop_assert!(prev.distance(next) <= m.vmax() + 1e-9);
                prop_assert!(bounds.contains(next));
                prev = next;
            }
        }
    }

    /// Property 3(1): the stabilized oracle never advises two
    /// contenders active in the same round, whatever subset contends.
    #[test]
    fn oracle_at_most_one_active(
        pattern in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 5), 1..20),
    ) {
        let mut cm = OracleCm::perfect();
        let slots: Vec<_> = (0..5).map(|_| cm.register()).collect();
        for (round, mask) in pattern.iter().enumerate() {
            let active = slots.iter().zip(mask)
                .filter(|&(_, &contends)| contends)
                .filter(|&(&s, _)| cm.contend(s, round as u64, Point::ORIGIN).is_active())
                .count();
            prop_assert!(active <= 1, "round {round}: {active} active");
        }
    }

    /// Property 3(3) for the regional manager: advice is Active only
    /// for in-region contenders, and never two at once.
    #[test]
    fn regional_respects_region_and_uniqueness(
        positions in proptest::collection::vec(arb_point(), 2..8),
        rounds in 1u64..30,
    ) {
        let cfg = RegionalConfig {
            location: Point::new(50.0, 50.0),
            radius: 10.0,
            lease: 6,
            stabilize_at: 0,
        };
        let mut cm = RegionalCm::new(cfg);
        let slots: Vec<_> = positions.iter().map(|_| cm.register()).collect();
        for round in 0..rounds {
            let mut active = 0;
            for (i, &slot) in slots.iter().enumerate() {
                let advice = cm.contend(slot, round, positions[i]);
                if advice == Advice::Active {
                    active += 1;
                    prop_assert!(
                        positions[i].within(cfg.location, cfg.radius),
                        "out-of-region node advised active"
                    );
                }
            }
            prop_assert!(active <= 1, "round {round}: {active} active");
        }
    }

    /// Both leader-electing managers roll their contender lists by
    /// swapping two kept buffers; their advice must stay what the
    /// `mem::take` roll produced ([`TakeRolled`]), over any `contend`
    /// script — repeated rounds, skipped rounds (after which the
    /// previous round's list must read empty, not stale) and, for the
    /// regional manager, contenders outside the region.
    #[test]
    fn swapped_contender_buffers_match_take_based_roll(
        script in proptest::collection::vec((0u64..4, 0usize..5, any::<bool>()), 1..120),
    ) {
        const LEASE: u64 = 6;
        let location = Point::new(50.0, 50.0);
        let mut oracle = OracleCm::perfect();
        let mut regional = RegionalCm::new(RegionalConfig {
            location,
            radius: 10.0,
            lease: LEASE,
            stabilize_at: 0,
        });
        let slots: Vec<_> = (0..5).map(|_| (oracle.register(), regional.register())).collect();

        let (mut oracle_lists, mut oracle_leader) = (TakeRolled::default(), None);
        let (mut regional_lists, mut lease) = (TakeRolled::default(), None::<(usize, u64, u64)>);
        let mut round = 0;
        for (step, &(advance, slot, inside)) in script.iter().enumerate() {
            round += advance;

            if oracle_lists.roll(round) {
                oracle_leader = None;
            }
            oracle_lists.enter(slot);
            let leader = *oracle_leader.get_or_insert(oracle_lists.prev_min_or(slot));
            prop_assert_eq!(
                oracle.contend(slots[slot].0, round, Point::ORIGIN).is_active(),
                leader == slot,
                "oracle, step {} round {}", step, round
            );

            if regional_lists.roll(round) {
                lease = lease.filter(|&(_, expires, seen)| round < expires && round <= seen + 1);
            }
            let expected = inside && {
                regional_lists.enter(slot);
                let (holder, _, seen) = lease.get_or_insert((
                    regional_lists.prev_min_or(slot),
                    round + LEASE,
                    round,
                ));
                if *holder == slot {
                    *seen = round;
                }
                *holder == slot
            };
            let pos = if inside { location } else { Point::new(80.0, 50.0) };
            prop_assert_eq!(
                regional.contend(slots[slot].1, round, pos).is_active(),
                expected,
                "regional, step {} round {}", step, round
            );
        }
    }

    /// Satellite property of the hot-path overhaul: a spatial grid
    /// maintained incrementally (a random sequence of moves, inside and
    /// outside the anchored box) is byte-identical — query order
    /// included — to a grid rebuilt from scratch over the same points.
    #[test]
    fn incremental_grid_matches_rebuilt_grid(
        initial in proptest::collection::vec(arb_point(), 1..30),
        moves in proptest::collection::vec((arb_point(), any::<usize>()), 1..40),
        cell in 3.0f64..40.0,
        radius in 0.5f64..50.0,
    ) {
        let mut grid = SpatialGrid::new(cell);
        grid.rebuild(&initial);
        let mut mirror = initial.clone();

        for (p, index) in moves {
            let idx = index % mirror.len();
            grid.move_point(idx as u32, p);
            mirror[idx] = p;

            // A from-scratch grid over the mirrored points must agree
            // with the incrementally maintained one on every query,
            // including result order.
            let mut rebuilt = SpatialGrid::new(cell);
            rebuilt.rebuild(&mirror);
            prop_assert_eq!(grid.len(), mirror.len());
            prop_assert_eq!(grid.position(idx as u32), p);
            for center in [p, Point::new(0.0, 0.0), mirror[0]] {
                let (mut inc, mut scratch) = (Vec::new(), Vec::new());
                grid.query_within_d2(center, radius, &mut inc);
                rebuilt.query_within_d2(center, radius, &mut scratch);
                prop_assert_eq!(&inc, &scratch, "query mismatch at {}", center);
            }
        }
    }

    /// Differential law for the churn round's kernel: one fused
    /// [`SnapshotIndex::scan`] returns exactly the [`Heard`] a brute
    /// force over the same tagged points does. Points sit on an integer
    /// lattice and the radii are the hypotenuses of 3-4-5 and 5-12-13
    /// triangles, so hits *exactly at* `r1` and `r2` (both inclusive)
    /// and coincident points are common; `spread` 0 packs everything
    /// into one cell, a wide spread with few points trips the 16×n
    /// cell budget, and `far_flung` adds a point 10⁶ m out, which
    /// trips `MAX_CELLS_PER_AXIS`. One index is rebuilt for both
    /// rounds (the second may be empty or a single broadcaster), so
    /// offsets left over from a larger geometry cannot leak. Every
    /// point is scanned as a broadcasting receiver (its own tag
    /// excluded) and as a listener standing on the same spot.
    #[test]
    fn snapshot_scan_matches_brute_force(
        first in proptest::collection::vec((0i32..40, 0i32..40), 0..40),
        second in proptest::collection::vec((0i32..40, 0i32..40), 0..3),
        listeners in proptest::collection::vec((-15i32..55, -15i32..55), 1..8),
        spread in 0usize..3,
        radii in 0usize..3,
        far_flung in any::<bool>(),
    ) {
        let step = [0.25, 1.0, 9.0][spread];
        let (r1, r2) = [(5.0, 10.0), (5.0, 13.0), (13.0, 13.0)][radii];
        let at = |&(x, y): &(i32, i32)| Point::new(f64::from(x) * step, f64::from(y) * step);
        let mut index = SnapshotIndex::new(r2);
        for lattice in [&first, &second] {
            // Odd tags: sparse like intent slots, and never a
            // listener's (even) tag.
            let mut points: Vec<(Point, u32)> = lattice
                .iter()
                .enumerate()
                .map(|(i, xy)| (at(xy), 2 * i as u32 + 1))
                .collect();
            if far_flung && !points.is_empty() {
                points.push((Point::new(1e6, -1e6), 2 * points.len() as u32 + 1));
            }
            index.rebuild(points.iter().copied());
            prop_assert_eq!(index.len(), points.len());

            let brute = |center: Point, exclude: u32| {
                let hits: Vec<(u32, f64)> = points
                    .iter()
                    .filter(|&&(p, tag)| tag != exclude && p.within(center, r2))
                    .map(|&(p, tag)| (tag, p.distance_sq(center)))
                    .collect();
                match hits[..] {
                    [] => Heard::Silence,
                    [(slot, d2)] => Heard::One { slot, d2 },
                    _ => Heard::Many {
                        within_r1: hits.iter().any(|&(_, d2)| d2 <= r1 * r1),
                    },
                }
            };
            for &(p, tag) in &points {
                prop_assert_eq!(index.scan(p, r1, r2, tag), brute(p, tag),
                    "broadcasting receiver {} at {}", tag, p);
                prop_assert_eq!(index.scan(p, r1, r2, tag - 1), brute(p, tag - 1),
                    "listener on top of broadcaster {} at {}", tag, p);
            }
            for (k, xy) in listeners.iter().enumerate() {
                let (center, tag) = (at(xy), 2 * k as u32);
                prop_assert_eq!(index.scan(center, r1, r2, tag), brute(center, tag),
                    "listener at {}", center);
            }
        }
    }

    /// Differential law for the hot path: the cached-topology resolver
    /// ([`Medium::resolve_round_cached`]) is observationally identical
    /// to the naive reference resolver — same receptions, same
    /// collision indications, same RNG stream — across drifting
    /// positions (exercising the surgical-move path), mass movement
    /// (the churn fallback), periodic forced rebuilds, a caller that
    /// reports [`TopologyDelta::Rebuild`] every round (`mover_stride ==
    /// 0`: what the one-shot `resolve_round` does), varying broadcast
    /// patterns, stabilization thresholds, and adversaries — through
    /// one reused `Medium`, crossing the rcf/racc thresholds.
    #[test]
    fn cached_medium_matches_reference_resolver(
        nodes in proptest::collection::vec((arb_point(), any::<bool>()), 1..60),
        seed in any::<u64>(),
        r1 in 1.0f64..30.0,
        extra in 0.0f64..30.0,
        rcf in 0u64..6,
        racc in 0u64..6,
        ring_reports in any::<bool>(),
        drop_p in 0.0f64..1.0,
        spurious_p in 0.0f64..0.6,
        mover_stride in 0usize..8,
    ) {
        let cfg = RadioConfig { r1, r2: r1 + extra, rcf, racc, ring_reports };
        let mut medium = Medium::new(cfg);
        let mut soa = ReceptionBuffer::new();
        let mut rng_fast = StdRng::seed_from_u64(seed);
        let mut rng_ref = StdRng::seed_from_u64(seed);
        let mut adv_fast = RandomLoss::new(drop_p, spurious_p);
        let mut adv_ref = RandomLoss::new(drop_p, spurious_p);

        let mut positions: Vec<Point> = nodes.iter().map(|&(p, _)| p).collect();
        let mut intents: Vec<TxIntent<u64>> = Vec::new();
        let mut moved: Vec<u32> = Vec::new();
        for round in 0..8u64 {
            // Every `mover_stride`-th node drifts this round; strides 0
            // and 1 move everyone (churn fallback), larger strides
            // exercise the surgical updates.
            moved.clear();
            if round > 0 {
                for (i, pos) in positions.iter_mut().enumerate() {
                    if (i + round as usize).is_multiple_of(mover_stride.max(1)) {
                        let next = Point::new(pos.x + 0.9, pos.y - 0.4);
                        *pos = next;
                        moved.push(i as u32);
                    }
                }
            }
            intents.clear();
            intents.extend(nodes.iter().enumerate().map(|(i, &(_, tx))| TxIntent {
                node: NodeId::from(i),
                pos: positions[i],
                payload: (tx ^ (round % 3 == i as u64 % 3)).then_some(i as u64),
            }));
            let delta = if mover_stride == 0 || round == 0 || round == 5 {
                TopologyDelta::Rebuild
            } else if moved.is_empty() {
                TopologyDelta::Unchanged
            } else {
                TopologyDelta::Moved(&moved)
            };

            medium.resolve_round_cached(round, &intents, delta, &mut adv_fast, &mut rng_fast, &mut soa);
            let fast = soa.to_attributed();
            let slow = resolve_round_reference(round, &cfg, &intents, &mut adv_ref, &mut rng_ref);

            prop_assert_eq!(fast.len(), slow.len());
            for (f, s) in fast.iter().zip(&slow) {
                prop_assert_eq!(f.node, s.node);
                prop_assert_eq!(f.collision, s.collision,
                    "round {}: detector mismatch at {}", round, f.node);
                prop_assert_eq!(&f.messages, &s.messages,
                    "round {}: reception mismatch at {}", round, f.node);
            }
            prop_assert_eq!(&rng_fast, &rng_ref, "round {}: RNG streams diverged", round);
        }
    }

    /// Engine-vs-spec differential: the real [`Engine`] (settled-node
    /// skip, mover dirty-set, cached topology, SoA receptions) and the
    /// naive round loop of [`spec_run`] produce byte-identical
    /// executions — stats, full traces, every process's observations —
    /// across mixed mobility, spawns, crashes, and a lossy adversary.
    /// Both draw from one seeded RNG, so a settled skip that is not
    /// RNG-free, or a mover the dirty-set misses, surfaces in a later
    /// round's receptions.
    #[test]
    fn engine_matches_reference_round_loop(
        nodes in arb_nodes(),
        seed in any::<u64>(),
        stabilize in 0u64..30,
        drop_p in 0.0f64..0.6,
        rounds in 5u64..30,
    ) {
        let engine = engine_run(&nodes, seed, stabilize, drop_p, rounds);
        let spec = spec_run(&nodes, seed, stabilize, drop_p, rounds);
        prop_assert_eq!(engine.2, spec.2, "stats diverged");
        prop_assert_eq!(&engine.1, &spec.1, "traces diverged");
        prop_assert_eq!(&engine.0, &spec.0, "process observations diverged");
    }

    /// Backoff capture: in a clique with a stable contender set, the
    /// tail of the execution is dominated by single-active rounds.
    #[test]
    fn backoff_converges(seed in any::<u64>(), n in 2usize..7) {
        let mut cm = BackoffCm::with_seed(seed);
        let slots: Vec<_> = (0..n).map(|_| cm.register()).collect();
        let mut single = 0;
        let total = 250u64;
        for round in 0..total {
            let advice: Vec<bool> = slots.iter()
                .map(|&s| cm.contend(s, round, Point::ORIGIN).is_active())
                .collect();
            let active = advice.iter().filter(|&&a| a).count();
            if round >= 150 && active == 1 {
                single += 1;
            }
            for (i, &s) in slots.iter().enumerate() {
                let fb = match (advice[i], active) {
                    (true, 1) => ChannelFeedback::TxSucceeded,
                    (true, _) => ChannelFeedback::TxCollided,
                    (false, 0) => ChannelFeedback::Quiet,
                    (false, 1) => ChannelFeedback::HeardOther,
                    (false, _) => ChannelFeedback::HeardCollision,
                };
                cm.observe(s, round, fb);
            }
        }
        prop_assert!(single as f64 / 100.0 > 0.85,
            "only {single}/100 tail rounds had a single leader");
    }
}
