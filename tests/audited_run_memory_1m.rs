//! The release guard of `audited_run_memory.rs`: an audited register
//! run of 1 000 000 operations, end to end through `ScenarioSpec::run`
//! and the traffic driver, holds the same per-operation heap bound —
//! run length costs the audit its per-op record and nothing more.
//! About 10 s in a release build:
//!
//! ```sh
//! cargo test --release --test audited_run_memory_1m -- --ignored
//! ```
//!
//! Measured with a global allocator that tracks live bytes and their
//! peak, so this file must hold exactly one `#[test]` — a sibling test
//! running on another thread would pollute the counters.

mod audited_register_run;
mod counting_alloc;

use audited_register_run::{heap_per_op, BYTES_PER_OP};

#[test]
#[ignore = "release-only guard: a 1 000 000-operation audited run"]
fn a_million_op_audited_register_run_stays_within_the_per_op_heap_bound() {
    let (report, per_op) = heap_per_op(1_000_000);
    assert!(report.ok(), "{}", report.verdict_summary());
    assert!(report.ops >= 990_000, "{} ops", report.ops);
    assert!(
        per_op <= BYTES_PER_OP,
        "the audited run peaked {per_op} bytes of heap per operation over {} ops",
        report.ops
    );
}
