//! The audited register run both per-operation memory contracts of
//! `alloc_contracts.rs` drive (at 6 000 operations, and at 1 000 000 in
//! its release guard): the shape of vi-perf's
//! `register_audit` workload — the catalog `mall_rush` register
//! without its arrival wave, open loop at 0.8 req/vr, audited.

use virtual_infra::scenario::{catalog, AuditReport, LoadMode, ScenarioSpec, WorkloadSpec};

use crate::counting_alloc::{peak_bytes, reset_peak};

/// The bound on a whole audited run's peak heap rise, per invoked
/// operation: 68 bytes measured at 6 000 operations (one `RegOp` and
/// one client per operation, at the capacity their vectors grew to,
/// then the zone test's one cluster per write), with 47 % headroom.
/// Buffering the run's events and auditing the stored history peaked
/// at 282.
pub const BYTES_PER_OP: u64 = 100;

/// The run, sized to admit `ops` operations.
fn spec(ops: u64) -> ScenarioSpec {
    let mut spec = catalog::scenario("mall_rush").expect("catalog has mall_rush");
    spec.populations.truncate(2);
    let WorkloadSpec::Traffic { traffic, audit, .. } = &mut spec.workload else {
        panic!("mall_rush is a traffic scenario");
    };
    traffic.mode = LoadMode::Open {
        rate_per_round: 0.8,
        phases: Vec::new(),
    };
    traffic.virtual_rounds = ops * 5 / 4;
    *audit = true;
    spec
}

/// Runs `spec(ops)` and returns its audit report with the run's peak
/// heap rise above the bytes live at its start, per invoked operation.
pub fn heap_per_op(ops: u64) -> (AuditReport, u64) {
    let spec = spec(ops);
    let before = reset_peak();
    let out = spec.run(7);
    let rise = (peak_bytes() - before) as u64;
    let report = out.audit.expect("an audited run carries its report");
    let per_op = rise / report.ops.max(1);
    (report, per_op)
}
