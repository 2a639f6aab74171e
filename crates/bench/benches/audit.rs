//! Criterion bench for the WGL linearizability checker hot path: a
//! full memoized search over legal histories of 1k, 10k and 100k
//! operations (forced-cut segments, a window-compact memo key and the
//! dancing-links frontier keep each visited node O(width), so the
//! happy path is linear in history length).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vi_audit::{check_register, synthetic_history, LinResult};

fn wgl_check(c: &mut Criterion) {
    let mut g = c.benchmark_group("audit_wgl_check");
    g.sample_size(10);
    for n in [1_000usize, 10_000, 100_000] {
        let ops = synthetic_history(n, 7);
        g.bench_with_input(BenchmarkId::from_parameter(n), &ops, |b, ops| {
            b.iter(|| {
                let verdict = check_register(criterion::black_box(ops));
                assert!(matches!(verdict, LinResult::Ok), "bench history is legal");
                verdict
            })
        });
    }
    g.finish();
}

fn wgl_witness_minimization(c: &mut Criterion) {
    // A failing history: legal 1k-op prefix plus a stale-read pair —
    // the witness search must shrink it to the contradiction.
    let mut ops = synthetic_history(1_000, 11);
    let t = ops.last().map(|o| o.inv + 100).unwrap_or(0);
    ops.push(vi_audit::RegOp {
        id: 999_990,
        kind: vi_audit::RegOpKind::Write { value: 7 },
        inv: t,
        ret: t + 2,
    });
    ops.push(vi_audit::RegOp {
        id: 999_991,
        kind: vi_audit::RegOpKind::Read { returned: 0 },
        inv: t + 5,
        ret: t + 6,
    });
    let mut g = c.benchmark_group("audit_wgl_witness");
    g.sample_size(10);
    g.bench_function(BenchmarkId::from_parameter(ops.len()), |b| {
        b.iter(|| {
            let verdict = check_register(criterion::black_box(&ops));
            assert!(matches!(verdict, LinResult::Violation { .. }));
            verdict
        })
    });
    g.finish();
}

criterion_group!(benches, wgl_check, wgl_witness_minimization);
criterion_main!(benches);
