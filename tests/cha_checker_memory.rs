//! The memory bound of the CHA spec checker as a run feeds it: a CHA
//! output holds ⊥ in 24 bytes, and streaming a 20 000-node run shaped
//! like vi-perf's metro workloads through the incremental checker
//! raises the heap's high-water mark by at most 16 bytes per proposal,
//! at 10 instances (200 000 proposals and outputs) and at 100 (2
//! million). Validity keeps one value per distinct proposal (8 bytes
//! here) and liveness 24 bytes per node; an output costs nothing once
//! checked, where keeping each would add at least its 24 bytes.
//!
//! Measured with a global allocator that tracks live bytes and their
//! peak, so this file must hold exactly one `#[test]` — a sibling test
//! running on another thread would pollute the counters.

mod counting_alloc;
mod metro_cha_trace;

use counting_alloc::{peak_bytes, reset_peak};
use virtual_infra::core::cha::ChaOutput;

const NODES: usize = 20_000;

/// Peak heap per proposal while the run streams through the checker.
const BOUND_BYTES_PER_PROPOSAL: usize = 16;

#[test]
fn streaming_the_metro_run_keeps_no_output() {
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
