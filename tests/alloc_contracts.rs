//! The allocation contracts: the paper's cost bounds held as heap
//! counts. A steady engine round, medium round and virtual round make
//! zero allocations (Theorem 14's constant per-round cost), and the
//! register check, an audited run, the CHA spec checker, a metro CHA
//! run and an uncollected CHAP window each stay within a bound on
//! their peak heap (Section 3.5's bounded resident state). Each bound
//! lives in its test's constants.
//!
//! Measured with the counting global allocator of `counting_alloc`,
//! which counts per thread: each test reads only its own thread's
//! allocations, so the tests run side by side in this one binary.

mod audited_register_run;
mod counting_alloc;
mod metro_cha_trace;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use audited_register_run::{heap_per_op, BYTES_PER_OP};
use counting_alloc::{allocations, peak_bytes, reset_peak};
use virtual_infra::audit::{check_register, synthetic_history, LinResult, NemesisSpec};
use virtual_infra::core::cha::{ChaOutput, ChaProtocol, Color};
use virtual_infra::radio::channel::{Medium, ReceptionBuffer, TopologyDelta, TxIntent};
use virtual_infra::radio::geometry::{Point, Rect};
use virtual_infra::radio::{AdversaryKind, NodeId, RadioConfig};
use virtual_infra::scenario::{
    CmSpec, MobilitySpec, PlacementSpec, PopulationSpec, ScenarioSpec, WorkloadSpec,
};
use virtual_infra::telemetry::Observers;

/// The counter sees only the calling thread: a helper thread that
/// allocates all through a window in which the test thread allocates
/// nothing lands none of it there, while its own count rises. A
/// process-wide counter fails this.
#[test]
fn another_threads_allocations_stay_out_of_the_window() {
    let stop = Arc::new(AtomicBool::new(false));
    let made = Arc::new(AtomicU64::new(0));
    let helper = {
        let (stop, made) = (Arc::clone(&stop), Arc::clone(&made));
        std::thread::spawn(move || {
            let mut held = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                held.push(vec![0u8; 64]);
                if held.len() == 1_000 {
                    held.clear();
                }
                made.fetch_add(1, Ordering::Relaxed);
            }
            allocations()
        })
    };
    while made.load(Ordering::Relaxed) == 0 {
        std::hint::spin_loop();
    }

    let (before, live) = (allocations(), reset_peak());
    let start = made.load(Ordering::Relaxed);
    while made.load(Ordering::Relaxed) < start + 10_000 {
        std::hint::spin_loop();
    }
    let (after, peak) = (allocations(), peak_bytes());

    stop.store(true, Ordering::Relaxed);
    let helpers = helper.join().expect("the helper thread ran");
    assert_eq!(
        after - before,
        0,
        "the helper's allocations landed in this thread's window"
    );
    assert_eq!(peak, live, "the helper's bytes raised this thread's peak");
    assert!(helpers > 10_000, "the helper counts its own allocations");
}

/// Fixtures of the engine and medium rounds of
/// [`steady_state_rounds_allocate_nothing`].
mod rounds {
    use virtual_infra::radio::geometry::Point;
    use virtual_infra::radio::{
        Engine, EngineConfig, NodeSpec, Process, RadioConfig, RoundCtx, RoundReception,
    };

    /// Broadcasts every third round; folds receptions into plain
    /// counters (no heap use on either protocol path).
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
    pub const N: usize = 400;

    /// The slots that move in the few-mover rounds: interior nodes,
    /// more than `2 R2` apart, none of them within 0.28 m of `R2` from
    /// any other node, so a nudge of [`NUDGE`] changes no neighbour
    /// set.
    pub const MOVERS: [u32; 4] = [1, 2, 4, 6];

    /// How far a mover sways, in steps of `(0.9, -0.4)` m.
    pub const NUDGE: f64 = 0.05;

    /// Where node `i` starts: a hash scatter at constant density.
    pub fn home(i: usize) -> Point {
        let side = (N as f64).sqrt() * 15.0;
        let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Point::new(
            (h % 10_000) as f64 / 10_000.0 * side,
            ((h >> 32) % 10_000) as f64 / 10_000.0 * side,
        )
    }

    /// 400 static nodes at constant density.
    pub fn deployment(record_trace: bool) -> Engine<u64> {
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
}

/// The zero-allocation guarantee of the engine's round path: once
/// buffers have warmed up, a steady-state engine round over a static
/// topology (tracing off, null observers, non-allocating processes)
/// performs **zero** heap allocations. So does a churn round of the
/// medium — every position moved, the cell index rebuilt from scratch
/// over the broadcasters — a re-anchor round — the cell index rebuilt
/// over every node and every receiver's cached neighborhood refilled by
/// a query — and a few-mover round — each mover moved in the index and
/// its neighborhood refreshed by one query into a recycled buffer —
/// once their buffers have grown.
#[test]
fn steady_state_rounds_allocate_nothing() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rounds::{deployment, home, MOVERS, N, NUDGE};

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

/// Fixtures of [`steady_state_virtual_rounds_stay_off_the_allocator`].
mod virtual_rounds {
    use virtual_infra::core::vi::VnLayout;
    use virtual_infra::radio::geometry::Point;
    use virtual_infra::radio::{AdversaryKind, RadioConfig};
    use virtual_infra::traffic::{
        build_service, AppKind, DevicePlan, OpClass, Request, Service, TrafficWorld,
    };

    /// Client devices (the first `CLIENTS` of the deployment run
    /// ports).
    pub const CLIENTS: usize = 4;
    /// Replica anchors that run no client.
    pub const ANCHORS: usize = 2;

    /// `register_audit`'s deployment — the catalog `mall_rush` without
    /// its arrival wave: one virtual node, four clients and two
    /// anchors, all static inside its region, reliable radio, no
    /// adversary.
    pub fn deployment() -> Box<dyn Service> {
        let vn = Point::new(50.0, 50.0);
        let devices = (0..CLIENTS + ANCHORS)
            .map(|i| {
                let start = Point::new(49.0 + 0.4 * i as f64, 50.2);
                DevicePlan {
                    start,
                    mobility: Box::new(start),
                    spawn_at: None,
                    crash_at: None,
                }
            })
            .collect();
        let world = TrafficWorld {
            radio: RadioConfig::reliable(10.0, 20.0),
            layout: VnLayout::new(vec![vn], 2.5),
            seed: 1,
            adversary: AdversaryKind::None,
            devices,
        };
        build_service(AppKind::Register, world, CLIENTS)
    }

    /// Runs `rounds` virtual rounds, submitting four requests every
    /// five (`register_audit`'s 0.8 req/vr, writes and reads
    /// alternating, clients in turn) when `loaded`; returns the
    /// operations completed.
    pub fn run(service: &mut dyn Service, next_id: &mut u64, rounds: u64, loaded: bool) -> usize {
        let mut completed = 0;
        for _ in 0..rounds {
            let vr = service.virtual_round();
            if loaded && !vr.is_multiple_of(5) {
                *next_id += 1;
                let class = if next_id.is_multiple_of(2) {
                    OpClass::Query
                } else {
                    OpClass::Mutate
                };
                let request = Request {
                    id: *next_id,
                    class,
                    issued_vr: vr,
                };
                service.submit((*next_id % CLIENTS as u64) as usize, &request);
            }
            completed += service.step_round().len();
        }
        completed
    }
}

/// Allocations a loaded virtual round may make. Measured: 11.8 (see
/// [`steady_state_virtual_rounds_stay_off_the_allocator`] for the
/// sites that remain).
const LOADED_BUDGET: f64 = 20.0;

/// The zero-allocation contract of
/// [`steady_state_rounds_allocate_nothing`], extended from
/// `Engine::step` up through vi-contention, vi-core and vi-traffic: on
/// a static one-virtual-node register deployment, once buffers have
/// warmed up, a whole virtual round with no client traffic — thirteen
/// slotted rounds at six devices, contention manager, CHAP instance,
/// checkpoint fold and the service adapter's drain included — performs
/// **zero** heap allocations, and one carrying client requests at
/// `register_audit`'s rate performs at most [`LOADED_BUDGET`] (it took
/// 85 with tree-backed CHA state and per-round buffers that were taken
/// and dropped).
#[test]
fn steady_state_virtual_rounds_stay_off_the_allocator() {
    use virtual_rounds::{deployment, run, ANCHORS, CLIENTS};

    let mut service = deployment();
    let mut next_id = 0;

    // Warm-up: the devices bootstrap the virtual node (all six hear
    // the same silent reset phase), and a loaded stretch grows every
    // buffer — the ports, the contender lists, the devices' client
    // receptions, the CHA window — to its
    // working size. The quiet tail lets the last requests complete.
    let warmed = run(service.as_mut(), &mut next_id, 200, true);
    assert!(warmed > 100, "the warm-up served requests ({warmed})");
    run(service.as_mut(), &mut next_id, 40, false);
    let totals = service.world_totals();
    assert_eq!(
        totals.resets + totals.joins,
        (CLIENTS + ANCHORS) as u64,
        "every device became a replica"
    );

    // Quiet virtual rounds: nobody submits, every instance decides an
    // empty proposal, every replica folds and garbage-collects it.
    const QUIET: u64 = 100;
    let decided_before = service.world_totals().decided;
    let before = allocations();
    let completed = run(service.as_mut(), &mut next_id, QUIET, false);
    let after = allocations();
    assert_eq!(completed, 0, "nothing was in flight");
    assert_eq!(
        service.world_totals().decided - decided_before,
        QUIET * (CLIENTS + ANCHORS) as u64,
        "every replica decided every quiet round"
    );
    assert_eq!(
        after - before,
        0,
        "a virtual round without client traffic must not allocate"
    );

    // Loaded virtual rounds. What still allocates moves bytes that
    // must stay where they are until the `stream_version` increment
    // (ROADMAP item 4): one clone of a non-empty ballot per receiver
    // in vi-radio's `resolve_receiver`, the leader's own ballot, the
    // adopted ballot each replica stores in `on_ballot_phase` (`Rc`
    // payloads retire all three) — and, in vi-traffic, the request
    // tables (`BTreeMap` nodes for pending requests and the register's
    // tag / nonce indexes) and the `Vec<Completion>` each
    // `Service::step_round` hands its caller.
    const LOADED: u64 = 200;
    let before = allocations();
    let completed = run(service.as_mut(), &mut next_id, LOADED, true);
    let after = allocations();
    assert!(
        completed as u64 >= LOADED / 2,
        "the loaded rounds served requests ({completed})"
    );
    let per_round = (after - before) as f64 / LOADED as f64;
    println!("loaded virtual round: {per_round:.1} allocations");
    assert!(
        per_round <= LOADED_BUDGET,
        "{per_round:.1} allocations per loaded virtual round (budget {LOADED_BUDGET})"
    );
}

/// The memory bound of the register's linearizability check: a legal
/// 100 000-operation history is checked in a few MiB of heap on top of
/// the input — one cluster per write, 1.1 MiB here — where a WGL search
/// memoising every visited state as a full 100 000-bit set took
/// 1.2 GB.
#[test]
fn checking_100k_ops_stays_within_16_mib_of_the_input() {
    let ops = synthetic_history(100_000, 7);
    let before = reset_peak();
    assert_eq!(check_register(&ops), LinResult::Ok);
    let above_input = peak_bytes() - before;
    assert!(
        above_input < 16 << 20,
        "checker peaked {above_input} bytes above its {}-op input",
        ops.len()
    );
}

/// The memory bound of an audited traffic run: the auditor consumes
/// the driver's events as they happen, so a 6 000-operation audited
/// register run shaped like vi-perf's `register_audit` raises the
/// heap's high-water mark by at most [`BYTES_PER_OP`] per operation —
/// engine, service, auditor and register check together.
#[test]
fn an_audited_register_run_stays_within_its_per_op_heap_bound() {
    let (report, per_op) = heap_per_op(6_000);
    assert!(report.ok(), "{}", report.verdict_summary());
    assert!(report.ops >= 5_900, "{} ops", report.ops);
    assert!(
        per_op <= BYTES_PER_OP,
        "the audited run peaked {per_op} bytes of heap per operation over {} ops",
        report.ops
    );
}

/// The release guard of
/// [`an_audited_register_run_stays_within_its_per_op_heap_bound`]: an
/// audited register run of 1 000 000 operations, end to end through
/// `ScenarioSpec::run` and the traffic driver, holds the same
/// per-operation heap bound — run length costs the audit its per-op
/// record and nothing more. About 13 s in a release build:
///
/// ```sh
/// cargo test --release --test alloc_contracts -- --include-ignored
/// ```
#[test]
#[ignore = "release-only guard: a 1 000 000-operation audited run"]
fn a_million_op_audited_register_run_stays_within_the_per_op_heap_bound() {
    let (report, per_op) = heap_per_op(1_000_000);
    assert!(report.ok(), "{}", report.verdict_summary());
    assert!(report.ops >= 990_000, "{} ops", report.ops);
    assert!(
        per_op <= BYTES_PER_OP,
        "the audited run peaked {per_op} bytes of heap per operation over {} ops",
        report.ops
    );
}

/// Peak heap per proposal while the metro run streams through the CHA
/// spec checker.
const BOUND_BYTES_PER_PROPOSAL: usize = 16;

/// The memory bound of the CHA spec checker as a run feeds it: a CHA
/// output holds ⊥ in 24 bytes, and streaming a 20 000-node run shaped
/// like vi-perf's metro workloads through the incremental checker
/// raises the heap's high-water mark by at most
/// [`BOUND_BYTES_PER_PROPOSAL`] bytes per proposal, at 10 instances
/// (200 000 proposals and outputs) and at 100 (2 million). Validity
/// keeps one value per distinct proposal (8 bytes here) and liveness 24
/// bytes per node; an output costs nothing once checked, where keeping
/// each would add at least its 24 bytes.
#[test]
fn streaming_the_metro_run_keeps_no_output() {
    const NODES: usize = 20_000;
    assert_eq!(std::mem::size_of::<ChaOutput<u64>>(), 24);
    for instances in [10, 100] {
        let before = reset_peak();
        let checker = metro_cha_trace::stream(NODES, instances);
        let proposals = NODES * instances as usize;
        let per_proposal = (peak_bytes() - before) / proposals;
        drop(checker);
        eprintln!("{instances} instances: {per_proposal} bytes per proposal");
        assert!(
            per_proposal <= BOUND_BYTES_PER_PROPOSAL,
            "streaming {proposals} proposals and outputs peaked at {per_proposal} bytes per proposal"
        );
    }
}

/// Peak heap per node of a metro CHA run, build to verdict.
const BOUND_BYTES_PER_NODE: usize = 632;

/// The per-node memory bound of a CHA run shaped like vi-perf's metro
/// workloads (uniform city, 2 % waypoints, randomized backoff, 10
/// instances), at n = 5 000 through `ScenarioSpec::run`: build, run and
/// spec check together peak at most [`BOUND_BYTES_PER_NODE`] bytes of
/// heap per node (586 measured). Handing the checker only the
/// proposals of broadcast ballots, holding each node's tagged proposer
/// by value, twelve bytes of backoff state per contender sized once,
/// dropping a settled node's mobility model and four-byte node and
/// slot ids took this from 721 (then bounded at 780). Keeping the CHA ballots of a node
/// sparse (one entry per adopted ballot, beside two bytes of status per
/// instance, where a 24-byte slot held both), boxing the outputs and
/// proposals only a node without a checker keeps, a plain `u64` crash
/// round per engine entry and an exactly sized tag table in the cell
/// index took this from 887 (then bounded at 950). The radio medium
/// keeping one cell index and slot-only neighbour lists, with its round
/// buffers reserved for the population, took it from 1 070 (then
/// bounded at 1 150). Each node handing its proposals and outputs to
/// the run's checker as it makes them, instead of keeping them for a
/// check after the run, took it from 1 514; storing each `ChaNode` in a
/// box and growing its outputs, proposals and instance window by
/// doubling, with the spec checker copying every proposal, peaked at
/// 1 979.
#[test]
fn a_metro_cha_run_peaks_below_its_per_node_bound() {
    const NODES: usize = 5_000;
    let per_node = metro_cha_heap_per_node(NODES);
    assert!(
        per_node <= BOUND_BYTES_PER_NODE,
        "a {NODES}-node CHA run peaked at {per_node} bytes per node"
    );
}

/// How far apart a city's heap per node may be at n and 2n.
const DOUBLING_SPREAD: f64 = 0.10;

/// A node costs the same however large the city (ROADMAP item 22): the
/// metro CHA run of [`a_metro_cha_run_peaks_below_its_per_node_bound`]
/// peaks at bytes per node within [`DOUBLING_SPREAD`] of each other at
/// n = 2 500 and 5 000 (589 and 586 measured).
#[test]
fn a_metro_cha_runs_heap_per_node_holds_as_the_city_doubles() {
    let (half, full) = (
        metro_cha_heap_per_node(2_500),
        metro_cha_heap_per_node(5_000),
    );
    let spread = half.abs_diff(full) as f64 / half.min(full) as f64;
    assert!(
        spread <= DOUBLING_SPREAD,
        "bytes per node moved {:.1} % from 2 500 nodes ({half}) to 5 000 ({full})",
        spread * 100.0
    );
}

/// Peak heap per node of a `nodes`-node CHA run shaped like vi-perf's
/// metro workloads (uniform city, 2 % waypoints, randomized backoff, 10
/// instances) through `ScenarioSpec::run`: build, run and spec check.
fn metro_cha_heap_per_node(nodes: usize) -> usize {
    let mobile = nodes / 50;
    let spec = ScenarioSpec {
        name: "metro_memory".into(),
        arena: Rect::square((nodes as f64).sqrt() * 15.0),
        radio: RadioConfig::reliable(10.0, 20.0),
        populations: vec![
            PopulationSpec::fixed(nodes - mobile, PlacementSpec::Uniform),
            PopulationSpec::fixed(mobile, PlacementSpec::Uniform)
                .with_mobility(MobilitySpec::Waypoint { speed: 0.5 }),
        ],
        adversary: AdversaryKind::None,
        nemesis: NemesisSpec::none(),
        cm: CmSpec::Backoff,
        workload: WorkloadSpec::ChaClique { instances: 10 },
    };
    spec.validate().expect("valid spec");
    let before = reset_peak();
    let out = spec.run(1);
    let per_node = (peak_bytes() - before) / nodes;
    eprintln!("{nodes} nodes: {per_node} bytes per node");
    assert_eq!(out.outputs_checked, nodes * 10);
    per_node
}

/// Instances the uncollected window runs.
const INSTANCES: u64 = 1_000;

/// Peak heap per instance run.
const BOUND_BYTES_PER_INSTANCE: usize = 10;

/// The per-instance memory bound of CHAP's state at a node that never
/// collects (plain CHAP, as each node of a metro CHA run): a
/// `ChaProtocol<u64>` that runs [`INSTANCES`] instances and adopts a
/// ballot in one of four (the share a 20 000-node city adopts) peaks at
/// most [`BOUND_BYTES_PER_INSTANCE`] bytes of heap per instance. Two
/// bytes of marks per instance and one 24-byte `(instance, ballot)`
/// entry per adopted ballot make 8; one 24-byte slot per instance,
/// holding a ballot or not, made 24.
#[test]
fn an_uncollected_window_peaks_below_its_per_instance_bound() {
    let before = reset_peak();
    let mut node = ChaProtocol::<u64>::new();
    for k in 1..=INSTANCES {
        let ballot = node.begin_instance(k);
        if k % 4 == 0 {
            node.on_ballot_phase(&[ballot], false);
        } else {
            node.on_ballot_phase(&[], true);
        }
        node.on_veto1_phase(false, false);
        node.finish_instance(false, false);
    }
    let per_instance = (peak_bytes() - before) / INSTANCES as usize;
    eprintln!("{INSTANCES} instances: {per_instance} bytes per instance");
    assert_eq!(
        node.resident_entries(),
        1_250,
        "every status, a ballot in four"
    );
    assert_eq!(node.color_of(INSTANCES), Some(Color::Green));
    assert_eq!(node.ballot_of(INSTANCES).map(|b| b.value), Some(INSTANCES));
    assert!(
        per_instance <= BOUND_BYTES_PER_INSTANCE,
        "{INSTANCES} uncollected instances peaked at {per_instance} bytes per instance"
    );
}
