//! The memory bound of an audited traffic run: the auditor consumes
//! the driver's events as they happen, so a 6 000-operation audited
//! register run shaped like vi-perf's `register_audit` raises the
//! heap's high-water mark by at most `BYTES_PER_OP` per operation —
//! engine, service, auditor and register check together.
//!
//! Measured with a global allocator that tracks live bytes and their
//! peak, so this file must hold exactly one `#[test]` — a sibling test
//! running on another thread would pollute the counters.

mod audited_register_run;
mod counting_alloc;

use audited_register_run::{heap_per_op, BYTES_PER_OP};

#[test]
fn an_audited_register_run_stays_within_its_per_op_heap_bound() {
    let (report, per_op) = heap_per_op(6_000);
    assert!(report.ok(), "{}", report.verdict_summary());
    assert!(report.ops >= 5_900, "{} ops", report.ops);
    assert!(
        per_op <= BYTES_PER_OP,
        "the audited run peaked {per_op} bytes of heap per operation over {} ops",
        report.ops
    );
}
