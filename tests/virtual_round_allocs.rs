//! The zero-allocation contract of `tests/zero_alloc.rs`, extended
//! from `Engine::step` up through vi-contention, vi-core and
//! vi-traffic: on a static one-virtual-node register deployment, once
//! buffers have warmed up, a whole virtual round with no client
//! traffic — thirteen slotted rounds at six devices, contention
//! manager, CHAP instance, checkpoint fold and the service adapter's
//! drain included — performs **zero** heap allocations, and one
//! carrying client requests at `register_audit`'s rate performs at
//! most [`LOADED_BUDGET`] (it took 85 with tree-backed CHA state and
//! per-round buffers that were taken and dropped).
//!
//! Measured with a counting global allocator, so this file must hold
//! exactly one `#[test]` — a sibling test running on another thread
//! would pollute the counter.

mod counting_alloc;

use counting_alloc::allocations;
use virtual_infra::core::vi::VnLayout;
use virtual_infra::radio::geometry::Point;
use virtual_infra::radio::{AdversaryKind, RadioConfig};
use virtual_infra::traffic::{
    build_service, AppKind, DevicePlan, OpClass, Request, Service, TrafficWorld,
};

/// Client devices (the first `CLIENTS` of the deployment run ports).
const CLIENTS: usize = 4;
/// Replica anchors that run no client.
const ANCHORS: usize = 2;
/// Allocations a loaded virtual round may make. Measured: 11.8 (see
/// the test body for the sites that remain).
const LOADED_BUDGET: f64 = 20.0;

/// `register_audit`'s deployment — the catalog `mall_rush` without its
/// arrival wave: one virtual node, four clients and two anchors, all
/// static inside its region, reliable radio, no adversary.
fn deployment() -> Box<dyn Service> {
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

/// Runs `rounds` virtual rounds, submitting four requests every five
/// (`register_audit`'s 0.8 req/vr, writes and reads alternating,
/// clients in turn) when `loaded`; returns the operations completed.
fn run(service: &mut dyn Service, next_id: &mut u64, rounds: u64, loaded: bool) -> usize {
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

#[test]
fn steady_state_virtual_rounds_stay_off_the_allocator() {
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
