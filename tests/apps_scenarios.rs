//! End-to-end application scenarios across the full stack (radio →
//! contention → CHA → emulation → application).
//!
//! The register, mutex and tracking scenarios are traffic runs:
//! vi-traffic's app adapter is each app's one client, so each test
//! hands a `TrafficWorld` to `HistoryRecorder::record` and the
//! recorded history to `vi_audit::audit`. The routing test stays
//! World-level: the traffic georouting client always addresses the
//! virtual node nearest it, so it never routes over more than one hop,
//! and a three-hop packet needs a one-shot injector of its own.

use std::collections::{BTreeMap, BTreeSet};
use virtual_infra::apps::georouting::{quantize, GeoRouterVn, RouteMsg};
use virtual_infra::apps::tracking::{cell_of, Cell};
use virtual_infra::audit::{audit, History, HistoryRecorder};
use virtual_infra::core::vi::{
    ClientApp, RoundPlan, Schedule, VirtualInput, VnId, VnLayout, World, WorldConfig,
};
use virtual_infra::radio::geometry::{Point, Rect};
use virtual_infra::radio::mobility::MobilitySpec;
use virtual_infra::radio::{AdversaryKind, RadioConfig};
use virtual_infra::traffic::{AppKind, DevicePlan, OpDesc, OpOutcome, TrafficSpec, TrafficWorld};

/// A device parked at `at` from the first round on.
fn parked(at: Point) -> DevicePlan {
    let mobility = Box::new(at);
    DevicePlan {
        start: at,
        mobility,
        spawn_at: None,
        crash_at: None,
    }
}

/// A clean channel (R1 = 10, R2 = 20) over virtual nodes at `vns`.
fn clean_world(vns: Vec<Point>, seed: u64, devices: Vec<DevicePlan>) -> TrafficWorld {
    TrafficWorld {
        radio: RadioConfig::reliable(10.0, 20.0),
        layout: VnLayout::new(vns, 2.5),
        seed,
        adversary: AdversaryKind::None,
        devices,
    }
}

/// Runs `app` over `tw` under `traffic` and audits the history: the
/// verdicts must read `verdicts`.
fn audited(app: AppKind, tw: TrafficWorld, traffic: &TrafficSpec, verdicts: &str) -> History {
    let (_, history) = HistoryRecorder::record(app, tw, traffic);
    assert_eq!(audit(&history).verdict_summary(), verdicts);
    history
}

/// Two register clients with a read-heavy mix, so that reads follow
/// the last ack.
fn read_heavy(rounds: u64) -> TrafficSpec {
    TrafficSpec::closed(2, 1, 1, rounds).with_query_fraction(0.7)
}

/// Three clients contend for one lock server on a clean channel:
/// holding intervals never overlap, grants alternate with releases in
/// FIFO order, and every client is granted the lock (so there are at
/// least three grants).
#[test]
fn mutual_exclusion_holds() {
    let vn = Point::new(50.0, 50.0);
    let mut devices: Vec<DevicePlan> = (0..3)
        .map(|i| parked(Point::new(vn.x - 0.6 + 0.4 * f64::from(i), vn.y + 0.3)))
        .collect();
    devices.push(parked(Point::new(vn.x, vn.y - 0.6)));
    let tw = clean_world(vec![vn], 9, devices);
    let verdicts = "well_formed=ok mutual_exclusion=ok fifo_grants=ok";
    let history = audited(
        AppKind::Mutex,
        tw,
        &TrafficSpec::closed(3, 1, 1, 60),
        verdicts,
    );
    let granted: BTreeSet<u32> = history.completes().iter().map(|c| c.1).collect();
    assert_eq!(granted.len(), 3, "a client was never granted: {granted:?}");
}

/// Every write is acked (no op times out, and a well-formed history
/// answers a write only with `Acked`), and every read heard after the
/// last ack returns the last write: no acknowledged write is lost.
/// Tags count up in invocation order, so the last write holds the
/// highest tag.
fn assert_no_acked_write_lost(history: &History) {
    assert_eq!(history.timeouts(), vec![], "every op completes");
    let writes: Vec<u64> = history
        .invokes()
        .into_iter()
        .filter_map(|(.., op)| match op {
            OpDesc::Write { value } => Some(value),
            _ => None,
        })
        .collect();
    let last = OpOutcome::ReadValue {
        tag: writes.len() as u64,
        value: *writes.last().expect("writes"),
    };
    let completes = history.completes();
    let acked = completes.iter().filter(|c| c.3 == OpOutcome::Acked);
    let last_ack = acked.map(|c| c.2).max();
    let late: Vec<OpOutcome> = completes
        .iter()
        .filter(|c| Some(c.2) > last_ack && matches!(c.3, OpOutcome::ReadValue { .. }))
        .map(|c| c.3)
        .collect();
    assert!(!late.is_empty(), "no read completed after the last ack");
    assert!(
        late.iter().all(|&read| read == last),
        "{late:?} after {last:?}"
    );
}

/// Two clients write and read a register that a third device helps
/// emulate: the history is linearizable (so reads are tag-monotone),
/// every write is acked, and the final reads return the last write.
#[test]
fn register_run_is_linearizable() {
    let vn = Point::new(50.0, 50.0);
    let devices = vec![
        parked(Point::new(50.4, 50.0)),
        parked(Point::new(49.6, 50.0)),
        parked(Point::new(50.0, 50.6)),
    ];
    let tw = clean_world(vec![vn], 13, devices);
    let verdicts = "well_formed=ok linearizable=ok";
    let history = audited(AppKind::Register, tw, &read_heavy(30), verdicts);
    assert_no_acked_write_lost(&history);
}

/// The register survives replica churn without losing acknowledged
/// writes: three generations of relay devices, each overlapping the
/// next by four virtual rounds, come and go around two clients.
#[test]
fn register_survives_replica_rotation() {
    let vn = Point::new(50.0, 50.0);
    let layout = VnLayout::new(vec![vn], 2.5);
    let rpv = RoundPlan::new(Schedule::build(&layout, 10.0 + 2.0 * 20.0).len()).rounds_per_vr();
    let mut devices = vec![
        parked(Point::new(vn.x - 0.4, vn.y)),
        parked(Point::new(vn.x, vn.y + 0.5)),
    ];
    for gen in 0..3u64 {
        for d in 0..2u32 {
            devices.push(DevicePlan {
                spawn_at: Some(gen * 8 * rpv),
                crash_at: Some((gen * 8 + 12) * rpv),
                ..parked(Point::new(vn.x + 0.2 + 0.2 * f64::from(d), vn.y))
            });
        }
    }
    let tw = clean_world(vec![vn], 21, devices);
    let verdicts = "well_formed=ok linearizable=ok";
    let history = audited(AppKind::Register, tw, &read_heavy(26), verdicts);
    assert_no_acked_write_lost(&history);
}

/// The cells `querier`'s lookups of `object` were answered with, in
/// completion order.
fn answers(history: &History, querier: u32, object: u32) -> Vec<Option<Cell>> {
    let asked: BTreeSet<u64> = history
        .invokes()
        .into_iter()
        .filter(|&(_, client, _, op)| client == querier && op == OpDesc::Lookup { object })
        .map(|(id, ..)| id)
        .collect();
    history
        .completes()
        .into_iter()
        .filter_map(|(id, _, _, outcome)| match outcome {
            OpOutcome::Answered { cell } if asked.contains(&id) => Some(cell),
            _ => None,
        })
        .collect()
}

/// `object`'s broadcast reports as `(virtual rounds from invocation to
/// broadcast, cell)`.
fn reports(history: &History, object: u32) -> Vec<(u64, Cell)> {
    let sent: BTreeMap<u64, u64> = history
        .completes()
        .into_iter()
        .map(|(id, _, vr, _)| (id, vr))
        .collect();
    history
        .invokes()
        .into_iter()
        .filter_map(|(id, _, vr, op)| match op {
            OpDesc::Report { object: o, cell } if o == object => Some((sent.get(&id)? - vr, cell)),
            _ => None,
        })
        .collect()
}

/// A querier asks for a parked reporter's object and is answered with
/// the reporter's cell.
#[test]
fn query_answered_with_reported_cell() {
    let reporter = Point::new(50.5, 50.0);
    let devices = vec![
        parked(reporter),
        parked(Point::new(49.5, 50.0)),
        parked(Point::new(50.0, 50.7)),
    ];
    let tw = clean_world(vec![Point::new(50.0, 50.0)], 11, devices);
    let verdicts = "well_formed=ok monotone_freshness=ok";
    let history = audited(
        AppKind::Tracking,
        tw,
        &TrafficSpec::closed(2, 1, 1, 15),
        verdicts,
    );
    let got = answers(&history, 1, 0);
    assert_eq!(got.last(), Some(&Some(cell_of(reporter, 10.0))), "{got:?}");
}

/// A reporter patrols between two virtual-node regions 140 m apart,
/// and a querier is parked near each virtual node: each querier's last
/// lookup of the reporter's object is answered with a cell the
/// reporter reported, and both virtual nodes answer with a cell they
/// learned. Every client mixes reports and lookups at random, hence
/// the long run. The run is not audited: on two VNs,
/// `monotone_freshness` flags one VN's "unknown" after the other's
/// cell (ROADMAP item 13).
#[test]
fn tracking_across_regions() {
    let vns = vec![Point::new(30.0, 50.0), Point::new(170.0, 50.0)];
    let route = vec![Point::new(35.0, 55.0), Point::new(165.0, 55.0)];
    let mut devices = vec![
        DevicePlan {
            mobility: MobilitySpec::PatrolRoute {
                route: route.clone(),
                speed: 0.25,
            }
            .build(route[0], Rect::square(200.0)),
            ..parked(route[0])
        },
        parked(Point::new(32.0, 53.0)),
        parked(Point::new(168.0, 53.0)),
    ];
    for vn in &vns {
        devices.push(parked(Point::new(vn.x + 0.4, vn.y)));
        devices.push(parked(Point::new(vn.x - 0.4, vn.y)));
    }
    let tw = TrafficWorld {
        radio: RadioConfig::reliable(40.0, 60.0),
        ..clean_world(vns, 8, devices)
    };
    let (_, history) =
        HistoryRecorder::record(AppKind::Tracking, tw, &TrafficSpec::closed(3, 1, 1, 200));
    // An answer does not name its VN: the traffic client completes every
    // pending lookup of an object when any client hears an answer. But a
    // VN hears a report only while the reporter is within R1 = 40 m of
    // its emulators (x ≤ 71 for vn0, x ≥ 129 for vn1). At 0.25 m per
    // round and 14 rounds per virtual round, the reporter moves 28 m in
    // the ≤ 8 virtual rounds between the position a report's cell is
    // taken from and its broadcast, so it stays on that VN's side of
    // x = 100: a western cell was learned by vn0, an eastern one by vn1.
    let reports = reports(&history, 0);
    assert!(reports.iter().all(|&(delay, _)| delay <= 7), "{reports:?}");
    let mut sides = BTreeSet::new();
    for querier in [1, 2] {
        let got = answers(&history, querier, 0);
        assert!(matches!(got.last(), Some(Some(_))), "{querier}: {got:?}");
        for &cell in got.iter().flatten() {
            assert!(reports.iter().any(|&(_, c)| c == cell), "{cell:?}");
            sides.insert(cell.0 >= 10);
        }
    }
    assert_eq!(sides.len(), 2, "a virtual node never answered with a cell");
}

/// Sends one packet into the overlay at virtual round 5.
struct OneShot(Option<RouteMsg>);

impl ClientApp<RouteMsg> for OneShot {
    fn on_virtual_round(
        &mut self,
        vr: u64,
        _: Point,
        _: &VirtualInput<RouteMsg>,
    ) -> Option<RouteMsg> {
        self.0.take_if(|_| vr >= 5)
    }
}

/// The three-hop row of `georouting::tests::packet_routes_across_three_hops`
/// (three virtual nodes 18 m apart, two emulators each, a one-shot
/// injector near vn0 addressing payload 42 to vn2) under disruption
/// bursts: loop freedom and at-most-once delivery still hold even when
/// forwarding broadcasts are destroyed.
#[test]
fn routing_is_safe_under_bursts() {
    let locs = vec![
        Point::new(50.0, 50.0),
        Point::new(68.0, 50.0),
        Point::new(86.0, 50.0),
    ];
    let injector = OneShot(Some(RouteMsg::inject(quantize(locs[2]), 42)));
    let mut world = World::new(WorldConfig {
        radio: RadioConfig::stabilizing(40.0, 60.0, u64::MAX),
        layout: VnLayout::new(locs.clone(), 2.5),
        automaton: GeoRouterVn,
        seed: 30,
        record_trace: false,
    });
    world.set_adversary(Box::new(AdversaryKind::Burst(vec![300..400, 700..760])));
    for loc in &locs {
        world.add_device(Box::new(Point::new(loc.x + 0.5, loc.y)), None);
        world.add_device(Box::new(Point::new(loc.x - 0.5, loc.y)), None);
    }
    world.add_device(Box::new(Point::new(50.0, 51.0)), Some(Box::new(injector)));
    world.run_virtual_rounds(50);
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
