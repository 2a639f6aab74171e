//! The memory bound of the CHA spec checker: a CHA output holds ⊥ in
//! 24 bytes, and checking a 20 000-node, 10-instance run shaped like
//! vi-perf's metro workloads (200 000 proposals and outputs) raises the
//! heap's high-water mark by at most 3.5 MiB — the checker borrows each
//! node's proposals and outputs where they lie (2.8 MiB measured: its
//! run entries and one sort key per proposal; the margin is 25 %).
//! Copying each proposal into the checker peaked at 4.8 MiB, copying
//! each output too at 14.0 MiB, and an unboxed history made an output
//! 56 bytes.
//!
//! Measured with a global allocator that tracks live bytes and their
//! peak, so this file must hold exactly one `#[test]` — a sibling test
//! running on another thread would pollute the counters.

mod counting_alloc;
mod metro_cha_trace;

use counting_alloc::{peak_bytes, reset_peak};
use virtual_infra::core::cha::ChaOutput;

#[test]
fn checking_the_metro_run_stays_within_3_5_mib_of_what_it_borrows() {
    assert_eq!(std::mem::size_of::<ChaOutput<u64>>(), 24);
    let proposals = metro_cha_trace::proposals(20_000);
    let outputs = metro_cha_trace::outputs(20_000);
    let before = reset_peak();
    metro_cha_trace::check(&proposals, &outputs);
    let rise = peak_bytes() - before;
    assert!(
        rise <= 7 << 19,
        "checking {} nodes' proposals and outputs peaked {rise} bytes above them",
        outputs.len()
    );
}
