//! The per-node memory bound of a CHA run shaped like vi-perf's metro
//! workloads (uniform city, 2 % waypoints, randomized backoff, 10
//! instances), at n = 5 000 through `ScenarioSpec::run`: build, run
//! and spec check together peak at most 1 150 bytes of heap per node
//! (1 070 measured). Each node handing its proposals and outputs to
//! the run's checker as it makes them, instead of keeping them for a
//! check after the run, took this from 1 514; storing each `ChaNode`
//! in a box and growing its outputs, proposals and instance window by
//! doubling, with the spec checker copying every proposal, peaked at
//! 1 979.
//!
//! Measured with a global allocator that tracks live bytes and their
//! peak, so this file must hold exactly one `#[test]` — a sibling test
//! running on another thread would pollute the counters.

mod counting_alloc;

use counting_alloc::{peak_bytes, reset_peak};
use virtual_infra::audit::NemesisSpec;
use virtual_infra::radio::geometry::Rect;
use virtual_infra::radio::{AdversaryKind, RadioConfig};
use virtual_infra::scenario::{
    CmSpec, MobilitySpec, PlacementSpec, PopulationSpec, ScenarioSpec, WorkloadSpec,
};

const NODES: usize = 5_000;

/// Peak heap per node, build to verdict.
const BOUND_BYTES_PER_NODE: usize = 1_150;

#[test]
fn a_metro_cha_run_peaks_below_its_per_node_bound() {
    let mobile = NODES / 50;
    let spec = ScenarioSpec {
        name: "metro_memory".into(),
        arena: Rect::square((NODES as f64).sqrt() * 15.0),
        radio: RadioConfig::reliable(10.0, 20.0),
        populations: vec![
            PopulationSpec::fixed(NODES - mobile, PlacementSpec::Uniform),
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
    let per_node = (peak_bytes() - before) / NODES;
    eprintln!("{NODES} nodes: {per_node} bytes per node");
    assert_eq!(out.outputs_checked, NODES * 10);
    assert!(
        per_node <= BOUND_BYTES_PER_NODE,
        "a {NODES}-node CHA run peaked at {per_node} bytes per node"
    );
}
