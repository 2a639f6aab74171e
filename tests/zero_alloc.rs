//! The zero-allocation guarantee of the engine's round path: once
//! buffers have warmed up, a steady-state engine round over a static
//! topology (tracing off, null observers, non-allocating
//! processes) performs **zero** heap allocations. So does a churn
//! round of the medium — every position moved, the cell index rebuilt
//! from scratch over the broadcasters — a re-anchor round — the cell
//! index rebuilt over every node and every receiver's cached
//! neighborhood refilled by a query — and a few-mover round — each
//! mover moved in the index and its neighborhood refreshed by one
//! query into a recycled buffer — once their buffers have grown.
//!
//! Measured with a counting global allocator, so this file must hold
//! exactly one `#[test]` — a sibling test running on another thread
//! would pollute the counter.

mod counting_alloc;

use counting_alloc::allocations;
use rand::rngs::StdRng;
use rand::SeedableRng;
use virtual_infra::radio::channel::{Medium, ReceptionBuffer, TopologyDelta, TxIntent};
use virtual_infra::radio::geometry::Point;
use virtual_infra::radio::{
    AdversaryKind, Engine, EngineConfig, NodeId, NodeSpec, Process, RadioConfig, RoundCtx,
    RoundReception,
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

/// The slots that move in the few-mover rounds: interior nodes, more
/// than `2 R2` apart, none of them within 0.28 m of `R2` from any
/// other node, so a nudge of [`NUDGE`] changes no neighbour set.
const MOVERS: [u32; 4] = [1, 2, 4, 6];

/// How far a mover sways, in steps of `(0.9, -0.4)` m.
const NUDGE: f64 = 0.05;

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
            Box::new(home(i)),
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
    // broadcasters into the cell index and scans it once per
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
    // Where slot `i` is when displaced by `step` steps.
    let at = |i: usize, step: f64| {
        let home = home(i);
        Point::new(home.x + 0.9 * step, home.y - 0.4 * step)
    };
    // Resolves `rounds` on `medium` with node `i` displaced by
    // `sway(round, i)` steps and the topology reported as
    // `delta(round)`; returns the messages delivered.
    let mut resolve = |medium: &mut Medium,
                       rounds: std::ops::Range<u64>,
                       sway: fn(u64, usize) -> f64,
                       delta: fn(u64) -> TopologyDelta<'static>| {
        let mut heard = 0usize;
        for round in rounds {
            for (i, intent) in intents.iter_mut().enumerate() {
                intent.pos = at(i, sway(round, i));
                intent.payload = (round as usize + i).is_multiple_of(3).then_some(i as u64);
            }
            medium.resolve_round_cached(
                round,
                &intents,
                delta(round),
                &mut AdversaryKind::None,
                &mut rng,
                &mut out,
            );
            heard += (0..out.len()).map(|k| out.messages(k).len()).sum::<usize>();
        }
        heard
    };
    let back_and_forth = |round: u64, _| (round % 2) as f64;
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
        "churn rounds must not allocate once the cell index has grown"
    );
    assert!(heard > 0, "the churn rounds delivered messages");

    // Re-anchor rounds: nobody moves, but the caller reports `Rebuild`
    // every other round, so each `Unchanged` round in between finds the
    // cache invalidated and re-anchors — `CellIndex::rebuild` over
    // every intent plus one query per receiver, copied into its cached
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
    resolve(&mut medium, 0..12, |_, _| 0.0, alternate);
    let reanchors = || obs.counters().expect("live handle").rounds_reanchor;
    let (warm, before) = (reanchors(), allocations());
    let heard = resolve(&mut medium, 12..132, |_, _| 0.0, alternate);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "re-anchor rounds must not allocate once index and neighborhoods have grown"
    );
    assert_eq!(
        (warm, reanchors()),
        (6, 66),
        "every second round re-anchors"
    );
    assert!(heard > 0, "the re-anchor rounds delivered messages");

    // Few-mover rounds: round 131 re-anchored the cache, and from then
    // on the `MOVERS` sway by `NUDGE` (period 2) inside the anchored
    // box and keep their neighbour sets, so every round takes the
    // surgical path — `CellIndex::move_point` for each mover, then one
    // query per mover into the scratch buffer, which swaps places with
    // the mover's old list. The buffers rotate through the movers'
    // lists, so after a few rounds each has the capacity of the
    // longest.
    let nudge = |round: u64, i: usize| {
        if MOVERS.contains(&(i as u32)) {
            NUDGE * (round % 2) as f64
        } else {
            0.0
        }
    };
    for m in MOVERS.map(|m| m as usize) {
        let near = |round: u64| {
            let pos = |i: usize| at(i, nudge(round, i));
            (0..N)
                .filter(|&j| j != m && pos(m).distance_sq(pos(j)) <= 20.0 * 20.0)
                .collect::<Vec<_>>()
        };
        assert_eq!(near(0), near(1), "mover {m} keeps its neighbours");
    }
    let moved = |_| TopologyDelta::Moved(&MOVERS);
    resolve(&mut medium, 132..144, nudge, moved);
    let mover_rounds = || obs.counters().expect("live handle").mover_rounds;
    let (warm, before) = (mover_rounds(), allocations());
    let heard = resolve(&mut medium, 144..264, nudge, moved);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "few-mover rounds must not allocate once the scratch buffer has grown"
    );
    assert_eq!(
        (warm, mover_rounds()),
        (12, 132),
        "every nudged round takes the few-mover path"
    );
    assert!(heard > 0, "the few-mover rounds delivered messages");

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
