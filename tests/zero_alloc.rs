//! The zero-allocation guarantee of the engine's round path: once
//! buffers have warmed up, a steady-state engine round over a static
//! topology (tracing off, null observers, non-allocating
//! processes) performs **zero** heap allocations. So does a churn
//! round of the medium — every position moved, the broadcaster
//! snapshot index rebuilt from scratch — and a re-anchor round — the
//! full-topology grid rebuilt and every receiver's cached neighborhood
//! refilled by a grid query — once their buffers have grown.
//!
//! Measured with a counting global allocator, so this file must hold
//! exactly one `#[test]` — a sibling test running on another thread
//! would pollute the counter.

mod counting_alloc;

use counting_alloc::allocations;
use rand::rngs::StdRng;
use rand::SeedableRng;
use virtual_infra::radio::adversary::NoAdversary;
use virtual_infra::radio::channel::{Medium, ReceptionBuffer, TopologyDelta, TxIntent};
use virtual_infra::radio::geometry::Point;
use virtual_infra::radio::mobility::Static;
use virtual_infra::radio::{
    Engine, EngineConfig, NodeId, NodeSpec, Process, RadioConfig, RoundCtx, RoundReception,
};
use virtual_infra::telemetry::Observers;

/// Broadcasts every third round; folds receptions into plain counters
/// (no heap use on either protocol path).
struct Counter {
    phase: u64,
    heard: u64,
    collisions: u64,
}

impl Process<u64> for Counter {
    fn transmit(&mut self, ctx: &RoundCtx) -> Option<u64> {
        (ctx.round + self.phase)
            .is_multiple_of(3)
            .then_some(self.phase)
    }
    fn deliver(&mut self, _ctx: &RoundCtx, rx: RoundReception<'_, u64>) {
        self.heard += rx.messages.len() as u64;
        if rx.collision {
            self.collisions += 1;
        }
    }
}

/// Nodes per deployment.
const N: usize = 400;

/// Where node `i` starts: a hash scatter at constant density.
fn home(i: usize) -> Point {
    let side = (N as f64).sqrt() * 15.0;
    let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    Point::new(
        (h % 10_000) as f64 / 10_000.0 * side,
        ((h >> 32) % 10_000) as f64 / 10_000.0 * side,
    )
}

/// 400 static nodes at constant density.
fn deployment(record_trace: bool) -> Engine<u64> {
    let mut engine: Engine<u64> = Engine::new(EngineConfig {
        radio: RadioConfig::reliable(10.0, 20.0),
        seed: 42,
        record_trace,
    });
    for i in 0..N {
        engine.add_node(NodeSpec::new(
            Box::new(Static::new(home(i))),
            Box::new(Counter {
                phase: i as u64,
                heard: 0,
                collisions: 0,
            }),
        ));
    }
    engine
}

#[test]
fn steady_state_rounds_allocate_nothing() {
    let mut engine = deployment(false);

    // The null observer set is part of the steady-state contract:
    // each of its per-round hooks must stay one branch with zero
    // allocations, so the silent windows below measure them alongside
    // the round path.
    engine.set_observers(Observers::default());

    // Warm-up: buffers grow to the working-set size (round 0 churns
    // the live set, round 1 anchors the topology cache, and the
    // broadcast pattern repeats with period 3).
    engine.run(30);

    let before = allocations();
    engine.run(120);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state fast-path rounds must not allocate"
    );

    // Sanity: the silent rounds above were real rounds.
    assert_eq!(engine.round(), 150);
    assert!(engine.stats().broadcasts > 0);

    // Churn rounds: every node steps back and forth (period 2) under a
    // broadcast pattern of period 3, and the caller reports `Rebuild`
    // every round, so each round counting-sorts that round's
    // broadcasters into the snapshot index and scans it once per
    // receiver. After one joint period every index geometry has been
    // seen and its buffers have grown.
    let mut medium = Medium::new(RadioConfig::reliable(10.0, 20.0));
    let mut intents: Vec<TxIntent<u64>> = (0..N)
        .map(|i| TxIntent {
            node: NodeId::from(i),
            pos: home(i),
            payload: None,
        })
        .collect();
    let (mut rng, mut out) = (StdRng::seed_from_u64(42), ReceptionBuffer::new());
    // Resolves `rounds` on `medium` with every node displaced by
    // `sway(round)` steps and the topology reported as `delta(round)`;
    // returns the messages delivered.
    let mut resolve = |medium: &mut Medium,
                       rounds: std::ops::Range<u64>,
                       sway: fn(u64) -> f64,
                       delta: fn(u64) -> TopologyDelta<'static>| {
        let mut heard = 0usize;
        for round in rounds {
            let step = sway(round);
            for (i, intent) in intents.iter_mut().enumerate() {
                let at = home(i);
                intent.pos = Point::new(at.x + 0.9 * step, at.y - 0.4 * step);
                intent.payload = (round as usize + i).is_multiple_of(3).then_some(i as u64);
            }
            medium.resolve_round_cached(
                round,
                &intents,
                delta(round),
                &mut NoAdversary,
                &mut rng,
                &mut out,
            );
            heard += (0..out.len()).map(|k| out.messages(k).len()).sum::<usize>();
        }
        heard
    };
    let back_and_forth = |round: u64| (round % 2) as f64;
    let mut heard = resolve(&mut medium, 0..12, back_and_forth, |_| {
        TopologyDelta::Rebuild
    });
    let before = allocations();
    heard += resolve(&mut medium, 12..132, back_and_forth, |_| {
        TopologyDelta::Rebuild
    });
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "churn rounds must not allocate once the snapshot index has grown"
    );
    assert!(heard > 0, "the churn rounds delivered messages");

    // Re-anchor rounds: nobody moves, but the caller reports `Rebuild`
    // every other round, so each `Unchanged` round in between finds the
    // cache invalidated and re-anchors — `SpatialGrid::rebuild` plus
    // one grid query per receiver, copied into its cached
    // neighborhood. A live observer handle confirms the round kind (and
    // rides inside the window: counting and phase timing allocate
    // nothing).
    let mut medium = Medium::new(RadioConfig::reliable(10.0, 20.0));
    let obs = Observers::new(false);
    medium.set_observers(obs.clone());
    let alternate = |round: u64| {
        if round.is_multiple_of(2) {
            TopologyDelta::Rebuild
        } else {
            TopologyDelta::Unchanged
        }
    };
    resolve(&mut medium, 0..12, |_| 0.0, alternate);
    let reanchors = || obs.counters().expect("live handle").rounds_reanchor;
    let (warm, before) = (reanchors(), allocations());
    let heard = resolve(&mut medium, 12..132, |_| 0.0, alternate);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "re-anchor rounds must not allocate once grid and neighborhoods have grown"
    );
    assert_eq!(
        (warm, reanchors()),
        (6, 66),
        "every second round re-anchors"
    );
    assert!(heard > 0, "the re-anchor rounds delivered messages");

    // The same deployment with tracing on allocates every round (the
    // exact-size `RoundRecord` clone) — the contrast proves the counter
    // actually measures the engine.
    let mut traced = deployment(true);
    traced.run(30);
    let before = allocations();
    traced.run(10);
    let after = allocations();
    assert!(
        after - before >= 10,
        "traced rounds are expected to allocate (got a silent counter instead)"
    );
}
