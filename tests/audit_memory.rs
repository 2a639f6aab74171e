//! The memory bound of the register's linearizability check: a legal
//! 100 000-operation history is checked in a few MiB of heap on top
//! of the input — one cluster per write, 1.1 MiB here — where a WGL
//! search memoising every visited state as a full 100 000-bit set took
//! 1.2 GB.
//!
//! Measured with a global allocator that tracks live bytes and their
//! peak, so this file must hold exactly one `#[test]` — a sibling test
//! running on another thread would pollute the counters.

mod counting_alloc;

use counting_alloc::{peak_bytes, reset_peak};
use virtual_infra::audit::{check_register, synthetic_history, LinResult};

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
