//! The memory bound of the CHA spec checker: a CHA output holds ⊥ in
//! 24 bytes, and checking a 20 000-node, 10-instance run shaped like
//! vi-perf's metro workloads (200 000 outputs) raises the heap's
//! high-water mark by at most 6 MiB — the checker borrows the outputs
//! where they lie (4.8 MiB measured). Copying each output into the
//! checker, as it did before, peaked 14.0 MiB above the outputs, and
//! an unboxed history made an output 56 bytes.
//!
//! Measured with a global allocator that tracks live bytes and their
//! peak, so this file must hold exactly one `#[test]` — a sibling test
//! running on another thread would pollute the counters.

mod counting_alloc;
mod metro_cha_trace;

use counting_alloc::{peak_bytes, reset_peak};
use virtual_infra::core::cha::ChaOutput;

#[test]
fn checking_the_metro_run_stays_within_6_mib_of_its_outputs() {
    assert_eq!(std::mem::size_of::<ChaOutput<u64>>(), 24);
    let outputs = metro_cha_trace::outputs(20_000);
    let before = reset_peak();
    metro_cha_trace::check(&outputs);
    let above_outputs = peak_bytes() - before;
    assert!(
        above_outputs <= 6 << 20,
        "checking {} nodes' outputs peaked {above_outputs} bytes above them",
        outputs.len()
    );
}
