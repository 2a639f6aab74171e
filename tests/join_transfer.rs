//! Join-transfer accounting, pinned per app.
//!
//! A join-ack's `wire_size` is 8 bytes plus the JSON length of the
//! replica state it carries (Section 4.3's "entire current state"),
//! and through `max_message_bytes` that length reaches every outcome
//! digest. This test runs the catalog `robot_patrol` deployment — two
//! virtual nodes, three robots patrolling through both regions — under
//! each of the four apps, shaped as vi-perf's `apps_traffic` jobs, and
//! pins each run's largest message. A change to how the transfer is
//! carried or counted that moves a single byte turns it red.

use virtual_infra::scenario::{catalog, AppKind, ScenarioSpec, TrafficSpec, WorkloadSpec};

/// Admission window of each run, in virtual rounds.
const VIRTUAL_ROUNDS: u64 = 1_000;

/// `(app, max_message_bytes)` at seed 1, recorded when the join-ack
/// still carried the serialised state itself.
const PINNED: [(AppKind, usize); 4] = [
    (AppKind::Georouting, 3_961),
    (AppKind::Mutex, 690),
    (AppKind::Tracking, 196),
    (AppKind::Register, 220),
];

/// `robot_patrol` driven by `app`: register and tracking open-loop at
/// 0.5 req/vr, mutex and georouting closed-loop (one request in flight
/// per client, think time 2).
fn patrol(app: AppKind) -> ScenarioSpec {
    let base = catalog::scenario("robot_patrol").expect("catalog has robot_patrol");
    let WorkloadSpec::ViCounter { layout, .. } = base.workload.clone() else {
        panic!("robot_patrol is a virtual-node scenario");
    };
    let traffic = match app {
        AppKind::Register | AppKind::Tracking => TrafficSpec::open(2, 0.5, VIRTUAL_ROUNDS),
        AppKind::Mutex | AppKind::Georouting => TrafficSpec::closed(2, 1, 2, VIRTUAL_ROUNDS),
    };
    ScenarioSpec {
        name: format!("join_transfer_{}", app.name()),
        workload: WorkloadSpec::Traffic {
            app,
            layout,
            traffic,
            audit: false,
        },
        ..base
    }
}

#[test]
fn join_transfer_bytes_are_pinned_per_app() {
    let got: Vec<(AppKind, usize)> = PINNED
        .iter()
        .map(|&(app, _)| {
            let spec = patrol(app);
            spec.validate().expect("valid spec");
            let o = spec.run(1);
            assert!(o.vn_joins > 0, "{}: no join transfer ran", app.name());
            (app, o.max_message_bytes)
        })
        .collect();
    assert_eq!(got, PINNED, "join-transfer accounting moved");
}
