//! The per-instance memory bound of CHAP's state at a node that never
//! collects (plain CHAP, as each node of a metro CHA run): a
//! `ChaProtocol<u64>` that runs 1 000 instances and adopts a ballot in
//! one of four (the share a 20 000-node city adopts) peaks at most 10
//! bytes of heap per instance. Two bytes of marks per instance and one
//! 24-byte `(instance, ballot)` entry per adopted ballot make 8; one
//! 24-byte slot per instance, holding a ballot or not, made 24.
//!
//! Measured with a global allocator that tracks live bytes and their
//! peak, so this file must hold exactly one `#[test]` — a sibling test
//! running on another thread would pollute the counters.

mod counting_alloc;

use counting_alloc::{peak_bytes, reset_peak};
use virtual_infra::core::cha::{ChaProtocol, Color};

const INSTANCES: u64 = 1_000;

/// Peak heap per instance run.
const BOUND_BYTES_PER_INSTANCE: usize = 10;

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
