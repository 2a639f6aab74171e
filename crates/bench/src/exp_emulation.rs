//! Experiments on the virtual-infrastructure emulation (E7–E9, E11).

use crate::table::{f2, Table};
use vi_core::vi::{CounterAutomaton, Schedule, VnId, VnLayout, World, WorldConfig};
use vi_radio::geometry::Point;
use vi_radio::mobility::{DepartAt, Static};
use vi_radio::{NodeId, RadioConfig};

const R1: f64 = 10.0;
const R2: f64 = 20.0;
const REGION: f64 = 2.5; // R1/4

fn radio() -> RadioConfig {
    RadioConfig::reliable(R1, R2)
}

fn grid_world(
    rows: usize,
    cols: usize,
    spacing: f64,
    devices_per_vn: usize,
    seed: u64,
) -> (World<CounterAutomaton>, usize) {
    let layout = VnLayout::grid(rows, cols, spacing, Point::new(50.0, 50.0), REGION);
    let vns = layout.len();
    let locations: Vec<Point> = layout.iter().map(|(_, p)| p).collect();
    let mut world = World::new(WorldConfig {
        radio: radio(),
        layout,
        automaton: CounterAutomaton,
        seed,
        record_trace: false,
    });
    for loc in locations {
        for d in 0..devices_per_vn {
            let off = 0.4 * (d as f64 + 1.0) / devices_per_vn as f64;
            world.add_device(
                Box::new(Static::new(Point::new(loc.x + off, loc.y - off))),
                None,
            );
        }
    }
    (world, vns)
}

/// E7 — emulation overhead: real rounds per virtual round depend only
/// on the deployment *density* (via the schedule length `s`), never on
/// the number of devices — the emulation analogue of Theorem 14.
pub fn overhead() -> Table {
    let mut t = Table::new(
        "E7 / Section 4.3: emulation overhead (rounds per virtual round)",
        &[
            "vns",
            "spacing",
            "devices",
            "s",
            "rounds/vr",
            "green fraction",
            "max msg bytes",
        ],
    );
    // Density sweep: tighter grids force longer schedules.
    let configs = [
        (1usize, 1usize, 100.0f64, 3usize),
        (2, 2, 60.0, 3),
        (2, 2, 30.0, 3),
        (3, 3, 30.0, 3),
        // Device-count sweep at fixed density: rounds/vr must not move.
        (2, 2, 30.0, 6),
        (2, 2, 30.0, 12),
    ];
    let mut rounds_per_vr = Vec::new();
    for (rows, cols, spacing, devs) in configs {
        let (mut world, vns) = grid_world(rows, cols, spacing, devs, 23);
        let vrs = 12;
        world.run_virtual_rounds(vrs);
        let plan = world.plan();
        let r = world.report();
        let green = r.decided as f64 / (r.decided + r.bottom).max(1) as f64;
        rounds_per_vr.push(plan.rounds_per_vr());
        t.row(&[
            vns.to_string(),
            f2(spacing),
            (devs * vns).to_string(),
            plan.schedule_len().to_string(),
            plan.rounds_per_vr().to_string(),
            f2(green),
            world.stats().max_message_bytes.to_string(),
        ]);
    }
    // Rows 2, 4 and 5 share one layout with 12, 24 and 48 devices;
    // row 0 is the sparsest layout.
    let r = &rounds_per_vr;
    assert!(
        r[2] == r[4] && r[2] == r[5] && r[2] > r[0],
        "rounds/vr must grow with density only: {r:?}"
    );
    t.note("rounds/vr = s + 12: grows with density only; adding devices changes nothing");
    t
}

/// E8 — virtual-node availability under churn (Section 4.2): devices
/// stream through the region, each residing for a fixed number of
/// virtual rounds; the virtual node stays alive exactly as long as the
/// arrival stream keeps the region populated, and loses its state
/// (reset) whenever coverage gaps appear.
pub fn availability() -> Table {
    let mut t = Table::new(
        "E8 / Section 4.2: availability under churn (residence 3 vrs)",
        &[
            "arrival gap (vrs)",
            "live fraction",
            "state losses (resets)",
            "joins",
        ],
    );
    let residence = 3u64;
    let mut regimes = Vec::new();
    for gap in [1u64, 2, 3, 5, 8] {
        let vn_loc = Point::new(50.0, 50.0);
        let layout = VnLayout::new(vec![vn_loc], REGION);
        let mut world = World::new(WorldConfig {
            radio: radio(),
            layout,
            automaton: CounterAutomaton,
            seed: 31,
            record_trace: false,
        });
        let rpv = world.plan().rounds_per_vr();
        let total_vrs = 40u64;
        // A new device arrives every `gap` virtual rounds and walks out
        // of the region over `residence` virtual rounds.
        let mut arrivals = 0u64;
        let mut vr = 0;
        while vr < total_vrs {
            let spawn = vr * rpv;
            let speed = 3.2 / (residence * rpv) as f64;
            world.add_device_spec(
                Box::new(DepartAt::new(
                    Point::new(vn_loc.x + 0.1 * (arrivals % 5) as f64, vn_loc.y),
                    (1.0, 0.3),
                    speed,
                    spawn,
                )),
                None,
                Some(spawn),
                None,
            );
            arrivals += 1;
            vr += gap;
        }
        // Sample liveness once per virtual round.
        let mut live = 0u64;
        for _ in 0..total_vrs {
            world.run_virtual_rounds(1);
            if world.replica_count(VnId(0)) > 0 {
                live += 1;
            }
        }
        let (_, report) = world.vn_report(VnId(0));
        let live = live as f64 / total_vrs as f64;
        regimes.push((live, report.resets));
        t.row(&[
            gap.to_string(),
            f2(live),
            report.resets.to_string(),
            report.joins.to_string(),
        ]);
    }
    let (dense, sparse) = (regimes[0], regimes[regimes.len() - 1]);
    assert!(
        dense.0 > 0.9 && sparse.0 < dense.0 && sparse.1 > dense.1,
        "coverage gaps must cost availability and state (live, resets): {regimes:?}"
    );
    t.note("three regimes: ample overlap (gap 1) hands state over by join transfer; marginal overlap (gap ≈ residence) keeps the vn alive but loses state at handoff (reset); gap >> residence loses coverage itself");
    t
}

/// E9 — join and reset latency (Section 4.3): a fresh device entering
/// a live region becomes a replica via state transfer; the latency is
/// bounded by the schedule cycle (joins only run in scheduled rounds).
pub fn join_latency() -> Table {
    let mut t = Table::new(
        "E9 / Section 4.3: join latency vs schedule length",
        &["s", "join vr", "replica at vr", "latency (vrs)", "via"],
    );
    for vn_count in [1usize, 2, 3] {
        // Mutually conflicting virtual nodes (within R1 + 2 R2 = 50)
        // force s = vn_count.
        let locations: Vec<Point> = (0..vn_count)
            .map(|i| Point::new(50.0 + 20.0 * i as f64, 50.0))
            .collect();
        let layout = VnLayout::new(locations.clone(), REGION);
        let mut world = World::new(WorldConfig {
            radio: RadioConfig::reliable(45.0, 60.0),
            layout,
            automaton: CounterAutomaton,
            seed: 41,
            record_trace: false,
        });
        // Anchors keep vn0 alive from the start.
        world.add_device(Box::new(Static::new(Point::new(50.3, 50.0))), None);
        world.add_device(Box::new(Static::new(Point::new(49.7, 50.0))), None);
        let rpv = world.plan().rounds_per_vr();
        let s = world.plan().schedule_len();
        let join_vr = 6u64;
        let joiner: NodeId = world.add_device_spec(
            Box::new(Static::new(Point::new(50.0, 50.4))),
            None,
            Some((join_vr - 1) * rpv),
            None,
        );
        // Warm up, then watch the joiner round by round.
        world.run_virtual_rounds(join_vr - 1);
        let mut replica_at = None;
        for vr in join_vr..join_vr + 4 * s + 4 {
            world.run_virtual_rounds(1);
            if world.device(joiner).is_replica() == Some(VnId(0)) {
                replica_at = Some(vr);
                break;
            }
        }
        let replica_at = replica_at.expect("joiner must join");
        let (_, report) = world.device(joiner).emulator_report().expect("emulating");
        let via = if report.joins > 0 {
            "transfer"
        } else {
            "reset"
        };
        let latency = replica_at - join_vr;
        assert!(
            report.joins > 0 && latency <= 2 * s + 2,
            "a live vn is joined by transfer within a schedule cycle: {via} after {latency} vrs, s = {s}"
        );
        t.row(&[
            s.to_string(),
            join_vr.to_string(),
            replica_at.to_string(),
            latency.to_string(),
            via.to_string(),
        ]);
    }
    t.note("latency bounded by one schedule cycle; live virtual nodes are joined by transfer, never reset");
    t
}

/// E11 — schedule quality (Section 4.1): the greedy schedule is always
/// complete and non-conflicting, and its length tracks deployment
/// density, not count.
pub fn schedule_quality() -> Table {
    let mut t = Table::new(
        "E11 / Section 4.1: schedule length vs deployment density",
        &[
            "grid",
            "spacing",
            "max degree",
            "s",
            "complete",
            "non-conflicting",
        ],
    );
    let conflict = R1 + 2.0 * R2; // 50
    let mut lengths = Vec::new();
    for (rows, cols, spacing) in [
        (4usize, 4usize, 200.0f64),
        (4, 4, 60.0),
        (4, 4, 40.0),
        (4, 4, 25.0),
        (8, 8, 25.0),
    ] {
        let layout = VnLayout::grid(rows, cols, spacing, Point::ORIGIN, REGION);
        let schedule = Schedule::build(&layout, conflict);
        let max_degree = layout
            .iter()
            .map(|(vn, loc)| {
                layout
                    .iter()
                    .filter(|&(o, oloc)| o != vn && loc.distance(oloc) <= conflict)
                    .count()
            })
            .max()
            .unwrap_or(0);
        let (complete, non_conflicting) = (
            schedule.is_complete(&layout),
            schedule.is_non_conflicting(&layout, conflict),
        );
        assert!(
            complete && non_conflicting && schedule.len() <= max_degree as u64 + 1,
            "{rows}x{cols} at {spacing}: the greedy schedule must be valid with s <= degree + 1"
        );
        lengths.push(schedule.len());
        t.row(&[
            format!("{rows}x{cols}"),
            f2(spacing),
            max_degree.to_string(),
            schedule.len().to_string(),
            complete.to_string(),
            non_conflicting.to_string(),
        ]);
    }
    // Rows 3 and 4: one spacing, a 4x4 and an 8x8 grid.
    assert!(
        lengths[4] <= lengths[3] + 2,
        "density, not count, drives s: {lengths:?}"
    );
    t.note("greedy colouring: s ≤ max degree + 1; same density ⇒ same s regardless of grid size");
    t
}

/// Each experiment asserts its claim on typed values; these tests
/// check that the rendered table carries the same claim.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_constant_in_device_count() {
        let t = overhead();
        // Rows 2, 4, 5 share the same layout with 12/24/48 devices.
        assert_eq!(t.cell(2, 4), t.cell(4, 4));
        assert_eq!(t.cell(2, 4), t.cell(5, 4));
        // Denser layout (row 2 vs row 0) has more rounds/vr.
        let sparse: u64 = t.cell(0, 4).parse().unwrap();
        let dense: u64 = t.cell(2, 4).parse().unwrap();
        assert!(dense > sparse);
    }

    #[test]
    fn availability_degrades_with_arrival_gap() {
        let t = availability();
        let dense_live: f64 = t.cell(0, 1).parse().unwrap();
        let sparse_live: f64 = t.cell(t.len() - 1, 1).parse().unwrap();
        assert!(dense_live > 0.9, "continuous coverage keeps the vn live");
        assert!(
            sparse_live < dense_live,
            "coverage gaps must reduce availability ({dense_live} vs {sparse_live})"
        );
        let dense_resets: u64 = t.cell(0, 2).parse().unwrap();
        let sparse_resets: u64 = t.cell(t.len() - 1, 2).parse().unwrap();
        assert!(
            sparse_resets > dense_resets,
            "gaps cause state loss ({dense_resets} vs {sparse_resets})"
        );
    }

    #[test]
    fn joins_use_transfer_and_are_bounded() {
        let t = join_latency();
        for row in 0..t.len() {
            assert_eq!(t.cell(row, 4), "transfer", "live vn joined by transfer");
            let s: u64 = t.cell(row, 0).parse().unwrap();
            let latency: u64 = t.cell(row, 3).parse().unwrap();
            assert!(latency <= 2 * s + 2, "latency {latency} vs s {s}");
        }
    }

    #[test]
    fn schedules_always_valid() {
        let t = schedule_quality();
        for row in 0..t.len() {
            assert_eq!(t.cell(row, 4), "true");
            assert_eq!(t.cell(row, 5), "true");
            let deg: u64 = t.cell(row, 2).parse().unwrap();
            let s: u64 = t.cell(row, 3).parse().unwrap();
            assert!(s <= deg + 1, "greedy bound");
        }
        // Same spacing, bigger grid (rows 3 and 4): s within 1 of each
        // other... identical density should give identical bound class.
        let s_small: u64 = t.cell(3, 3).parse().unwrap();
        let s_large: u64 = t.cell(4, 3).parse().unwrap();
        assert!(s_large <= s_small + 2, "density, not count, drives s");
    }
}
