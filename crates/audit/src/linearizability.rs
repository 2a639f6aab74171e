//! Linearizability checking for the atomic register: the cluster and
//! zone test of Gibbons & Korach ("Testing shared memories", SIAM J.
//! Comput. 26(4), 1997), exact in O(n log n) when every write writes
//! a value of its own.
//!
//! Operation `p` precedes `o` iff `p` returned strictly before `o` was
//! invoked; otherwise they are concurrent and may linearize either
//! way. An operation that never returned (a timeout — Jepsen's
//! `:info`) returns at +∞, so it is concurrent with everything invoked
//! after it. A timed-out write may or may not have taken effect; one
//! that linearizes after every other operation is one that did not, so
//! +∞ covers both. A timed-out read constrains nothing and is skipped.
//!
//! With unique write values every read names its write. A *cluster* is
//! a write with the reads that returned its value; the initial value
//! is written by a virtual write at −∞. In any linearization a cluster
//! is a contiguous block, its write first. Its *zone* runs between its
//! earliest response `lo` and its latest invocation `hi`:
//!
//! * **forward**, `(lo, hi)`, when `lo < hi`: one of its ops precedes
//!   another, so its block spans the whole zone;
//! * **backward**, `[hi, lo]`, otherwise: all its ops are concurrent
//!   somewhere in the zone, and the block can sit there.
//!
//! The history is linearizable iff every read returns a written value,
//! no read returns before its write is invoked, no two forward zones
//! overlap, and no backward zone lies strictly inside a forward one.
//! Sorting the zones finds an overlap between neighbours and the one
//! forward zone a backward zone could lie in. The initial cluster's
//! zone `(−∞, hi)` meets every other cluster whose `lo` is below `hi`.
//!
//! A history in which two writes write the same value, or one writes
//! [`INITIAL_VALUE`], is outside the theorem (the general problem is
//! NP-complete), so the check is [`LinResult::Inconclusive`] and names
//! the value. No producer writes one: vi-traffic writes the request
//! id, the `MajorityRegister` baseline `1000 + tag`, one tag a window.
//!
//! On a violation the witness is each conflicting cluster's write and
//! the ops that set its zone's ends — at most six operations, which
//! are already a violating history. A stale read of the initial value
//! needs only the write and `lo` op of the cluster it conflicts with.
//!
//! The check holds one 24-byte cluster per write and nothing per read.
//! On `synthetic_history(n, 7)` (release, 2 vCPU, shared box) it took
//! 1.4 ms at 10 000 operations, 20 ms at 100 000 and 0.3 s at
//! 1 000 000, at a heap peak of 12 bytes per operation.

/// The register's initial value (reads before any write return it).
pub const INITIAL_VALUE: u64 = 0;

/// `ret` value of an operation that never returned.
pub const PENDING: u64 = u64::MAX;

/// What a register operation did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegOpKind {
    /// A write of `value`.
    Write {
        /// The written value.
        value: u64,
    },
    /// A read that returned `returned`.
    Read {
        /// The value the read observed.
        returned: u64,
    },
}

/// One register operation with its closed real-time interval
/// `[inv, ret]` in virtual rounds (`ret == PENDING` if it never
/// returned).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegOp {
    /// Request id (for witness labelling).
    pub id: u64,
    /// Write or read.
    pub kind: RegOpKind,
    /// Invocation round.
    pub inv: u64,
    /// Response round, or [`PENDING`].
    pub ret: u64,
}

impl RegOp {
    /// The value written or read: the op's cluster.
    fn value(&self) -> u64 {
        match self.kind {
            RegOpKind::Write { value } | RegOpKind::Read { returned: value } => value,
        }
    }

    fn is_read(&self) -> bool {
        matches!(self.kind, RegOpKind::Read { .. })
    }

    fn describe(&self) -> String {
        let span = if self.ret == PENDING {
            format!("[{}, ∞)", self.inv)
        } else {
            format!("[{}, {}]", self.inv, self.ret)
        };
        match self.kind {
            RegOpKind::Write { value } => format!("#{} W({value}) {span}", self.id),
            RegOpKind::Read { returned } => format!("#{} R→{returned} {span}", self.id),
        }
    }
}

/// Outcome of a linearizability check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinResult {
    /// A legal linearization exists.
    Ok,
    /// No legal linearization; `witness` is a subset of the operations
    /// that is already contradictory.
    Violation {
        /// Human-readable description of the witness ops.
        witness: Vec<String>,
    },
    /// The history is outside what the check decides: a value is
    /// written twice, or the initial value is written.
    Inconclusive {
        /// Which value, and why that leaves the check without a
        /// verdict.
        reason: String,
    },
}

/// A cluster as the ops that witness its zone: its write, the op with
/// the earliest response (`lo`) and the one invoked last (`hi`).
#[derive(Clone, Copy)]
struct Cluster {
    write: usize,
    lo: usize,
    hi: usize,
}

impl Cluster {
    fn ops(self) -> impl Iterator<Item = usize> {
        [self.write, self.lo, self.hi].into_iter()
    }
}

/// The violation the ops at `at` (indices into `ops`) witness.
fn violation(ops: &[RegOp], at: impl IntoIterator<Item = usize>) -> LinResult {
    let mut at: Vec<usize> = at.into_iter().collect();
    at.sort_unstable();
    at.dedup();
    LinResult::Violation {
        witness: at.iter().map(|&i| ops[i].describe()).collect(),
    }
}

/// Checks `ops` for linearizability against the sequential register
/// with initial value [`INITIAL_VALUE`].
pub fn check_register(ops: &[RegOp]) -> LinResult {
    let value = |i: usize| ops[i].value();
    // One cluster per write, by value.
    let writes = (0..ops.len()).filter(|&i| !ops[i].is_read());
    let mut clusters = Vec::with_capacity(writes.clone().count());
    clusters.extend(writes.map(|i| Cluster {
        write: i,
        lo: i,
        hi: i,
    }));
    clusters.sort_unstable_by_key(|c| (value(c.write), c.write));
    let mut written = None;
    for c in &clusters {
        let v = value(c.write);
        if v == INITIAL_VALUE || written == Some(v) {
            return LinResult::Inconclusive {
                reason: format!(
                    "value {v} is written more than once (the initial value is \
                     {INITIAL_VALUE}); the zone test needs unique write values"
                ),
            };
        }
        written = Some(v);
    }

    // Each returned read joins its write's cluster; the reads of the
    // initial value only need the one invoked last.
    let mut initial: Option<usize> = None;
    for (r, read) in ops.iter().enumerate() {
        let RegOpKind::Read { returned } = read.kind else {
            continue;
        };
        if read.ret == PENDING {
            continue;
        }
        if returned == INITIAL_VALUE {
            if initial.is_none_or(|i| ops[i].inv < read.inv) {
                initial = Some(r);
            }
            continue;
        }
        let Ok(k) = clusters.binary_search_by_key(&returned, |c| value(c.write)) else {
            return violation(ops, [r]); // a value nobody wrote
        };
        let c = &mut clusters[k];
        if read.ret < ops[c.write].inv {
            return violation(ops, [c.write, r]); // returned before its write
        }
        if read.ret < ops[c.lo].ret {
            c.lo = r;
        }
        if read.inv > ops[c.hi].inv {
            c.hi = r;
        }
    }

    let lo = |c: &Cluster| ops[c.lo].ret;
    let hi = |c: &Cluster| ops[c.hi].inv;
    let forward = |c: &Cluster| lo(c) < hi(c);
    // Forward zones first, each half in order of `lo`.
    clusters.sort_unstable_by_key(|c| (!forward(c), lo(c), c.write));
    if let Some(read) = initial {
        // Its `lo` op returned before the read was invoked, and its
        // write comes no later: the zone's `hi` plays no part.
        if let Some(c) = clusters.iter().find(|c| lo(c) < ops[read].inv) {
            return violation(ops, [c.write, c.lo, read]);
        }
    }
    let (fwd, bwd) = clusters.split_at(clusters.partition_point(forward));
    // Forward zones that overlap at all include a pair of neighbours.
    if let Some(p) = fwd.windows(2).find(|p| lo(&p[1]) < hi(&p[0])) {
        return violation(ops, p[0].ops().chain(p[1].ops()));
    }
    // Now disjoint: the only one a backward zone can lie in is the last
    // to start before it.
    for b in bwd {
        let before = &fwd[..fwd.partition_point(|f| lo(f) < hi(b))];
        if let Some(f) = before.last().filter(|f| lo(b) < hi(f)) {
            return violation(ops, f.ops().chain(b.ops()));
        }
    }
    LinResult::Ok
}

/// Generates a legal register history of `len` operations — writes of
/// unique values interleaved with reads of the then-current value,
/// with seeded interval jitter producing bounded overlap (generation
/// order is always a valid linearization: invocations strictly
/// increase, so no later op ever precedes an earlier one in real
/// time). Shared by the checker bench and the tests.
pub fn synthetic_history(len: usize, seed: u64) -> Vec<RegOp> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(len);
    let mut current = INITIAL_VALUE;
    let mut t = 0u64;
    for i in 0..len as u64 {
        let inv = t + rng.random_range(0..2u64);
        let ret = inv + 1 + rng.random_range(0..3u64);
        t = inv + 1;
        if rng.random_bool(0.5) {
            let value = 1000 + i;
            ops.push(RegOp {
                id: i,
                kind: RegOpKind::Write { value },
                inv,
                ret,
            });
            current = value;
        } else {
            ops.push(RegOp {
                id: i,
                kind: RegOpKind::Read { returned: current },
                inv,
                ret,
            });
        }
    }
    ops
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::check_register_reference;
    use super::*;

    fn w(id: u64, value: u64, inv: u64, ret: u64) -> RegOp {
        RegOp {
            id,
            kind: RegOpKind::Write { value },
            inv,
            ret,
        }
    }

    fn r(id: u64, returned: u64, inv: u64, ret: u64) -> RegOp {
        RegOp {
            id,
            kind: RegOpKind::Read { returned },
            inv,
            ret,
        }
    }

    #[test]
    fn empty_and_sequential_histories_pass() {
        assert_eq!(check_register(&[]), LinResult::Ok);
        let ops = [
            w(1, 10, 0, 2),
            r(2, 10, 3, 4),
            w(3, 20, 5, 6),
            r(4, 20, 7, 8),
        ];
        assert_eq!(check_register(&ops), LinResult::Ok);
    }

    #[test]
    fn initial_value_reads_pass() {
        let ops = [r(1, INITIAL_VALUE, 0, 1), w(2, 5, 2, 3), r(3, 5, 4, 5)];
        assert_eq!(check_register(&ops), LinResult::Ok);
    }

    #[test]
    fn concurrent_operations_may_reorder() {
        // R→7 overlaps W(7): legal (read linearizes after the write).
        let ops = [w(1, 7, 0, 10), r(2, 7, 2, 3)];
        assert_eq!(check_register(&ops), LinResult::Ok);
        // R→0 also overlaps W(7): legal the other way around.
        let ops = [w(1, 7, 0, 10), r(2, 0, 2, 3)];
        assert_eq!(check_register(&ops), LinResult::Ok);
    }

    #[test]
    fn stale_read_after_acknowledged_write_fails() {
        let ops = [w(1, 7, 0, 2), r(2, 0, 5, 6)];
        let LinResult::Violation { witness } = check_register(&ops) else {
            panic!("stale read must fail");
        };
        assert_eq!(witness.len(), 2, "minimal witness is the pair: {witness:?}");
        assert!(witness.iter().any(|l| l.contains("W(7)")), "{witness:?}");
        assert!(witness.iter().any(|l| l.contains("R→0")), "{witness:?}");
    }

    #[test]
    fn read_of_never_written_value_fails() {
        let ops = [w(1, 7, 0, 2), r(2, 999, 5, 6)];
        assert!(matches!(check_register(&ops), LinResult::Violation { .. }));
    }

    #[test]
    fn pending_write_may_or_may_not_have_happened() {
        // The timed-out W(9) explains the read...
        let ops = [w(1, 9, 0, PENDING), r(2, 9, 5, 6)];
        assert_eq!(check_register(&ops), LinResult::Ok);
        // ...and its absence explains a 0 read *after* another op.
        let ops = [w(1, 9, 0, PENDING), r(2, 0, 5, 6), r(3, 0, 7, 8)];
        assert_eq!(check_register(&ops), LinResult::Ok);
        // But once a read observed it, later reads cannot unsee it.
        let ops = [w(1, 9, 0, PENDING), r(2, 9, 5, 6), r(3, 0, 7, 8)];
        assert!(matches!(check_register(&ops), LinResult::Violation { .. }));
    }

    #[test]
    fn value_must_trace_to_the_latest_possible_write() {
        // W(1) then W(2) sequentially; a read after both returning 1
        // is stale.
        let ops = [w(1, 1, 0, 1), w(2, 2, 2, 3), r(3, 1, 4, 5)];
        assert!(matches!(check_register(&ops), LinResult::Violation { .. }));
        // If W(2) overlaps the read, 1 is fine.
        let ops = [w(1, 1, 0, 1), w(2, 2, 2, 10), r(3, 1, 4, 5)];
        assert_eq!(check_register(&ops), LinResult::Ok);
    }

    #[test]
    fn witness_is_minimized_to_the_contradiction() {
        // Long legal prefix, then the stale-read pair.
        let mut ops: Vec<RegOp> = (0..40)
            .map(|i| {
                if i % 2 == 0 {
                    w(i, 100 + i, 4 * i, 4 * i + 2)
                } else {
                    r(i, 100 + i - 1, 4 * i, 4 * i + 2)
                }
            })
            .collect();
        ops.push(w(90, 7, 400, 402));
        ops.push(r(91, 0, 405, 406));
        let LinResult::Violation { witness } = check_register(&ops) else {
            panic!("must fail");
        };
        assert!(
            witness.len() <= 3,
            "witness must shrink past the legal prefix: {witness:?}"
        );
    }

    #[test]
    fn a_stale_initial_read_is_witnessed_without_the_zone_end() {
        // The minimized majority-register fuzz finding: #1 returned
        // 1001 before #6 was invoked, so #6's 0 is stale. #3, the op
        // invoked last in 1001's cluster, adds nothing to that.
        let ops = [
            w(0, 1001, 0, PENDING),
            r(1, 1001, 1, 1),
            r(3, 1001, 5, 5),
            r(6, INITIAL_VALUE, 5, 5),
        ];
        let LinResult::Violation { witness } = check_register(&ops) else {
            panic!("must fail");
        };
        assert_eq!(
            witness,
            ["#0 W(1001) [0, ∞)", "#1 R→1001 [1, 1]", "#6 R→0 [5, 5]"]
        );
    }

    #[test]
    fn long_low_concurrency_history_is_fast_and_passes() {
        // The bench shape: 10k ops, writes of unique values with
        // occasional overlap.
        let ops = synthetic_history(10_000, 42);
        assert_eq!(check_register(&ops), LinResult::Ok);
    }

    #[test]
    fn unobserved_info_writes_cost_nothing() {
        // 40 timed-out writes nobody read, open across a sequential
        // run: each is a backward zone `[inv, ∞]`, inside nothing.
        let mut ops: Vec<RegOp> = (0..40).map(|i| w(i, 500 + i, i, PENDING)).collect();
        for i in 0..50 {
            ops.push(w(100 + 2 * i, i + 1, 40 + 4 * i, 41 + 4 * i));
            ops.push(r(101 + 2 * i, i + 1, 42 + 4 * i, 43 + 4 * i));
        }
        assert_eq!(check_register(&ops), LinResult::Ok);
        // A timed-out write a read did observe has a zone that counts.
        ops.push(r(300, 507, 300, 301));
        assert_eq!(check_register(&ops), LinResult::Ok);
        ops.push(r(301, 50, 302, 303));
        assert!(matches!(check_register(&ops), LinResult::Violation { .. }));
    }

    #[test]
    fn zones_conflict_as_the_theorem_says() {
        // Two forward zones, (2, 5) and (3, 7), overlap: the witness is
        // both clusters, each its write and the ops setting its ends.
        let ops = [w(1, 1, 0, 2), w(2, 2, 1, 3), r(3, 1, 5, 6), r(4, 2, 7, 8)];
        let LinResult::Violation { witness } = check_register(&ops) else {
            panic!("overlapping forward zones must fail");
        };
        assert_eq!(witness.len(), 4, "{witness:?}");
        // Touching forward zones, (2, 5) and (5, 8), do not overlap.
        let ops = [w(1, 1, 0, 2), r(2, 1, 5, 6), w(3, 2, 3, 5), r(4, 2, 8, 9)];
        assert_eq!(check_register(&ops), LinResult::Ok);
        // A backward zone [3, 4] strictly inside the forward (2, 6)...
        let ops = [w(1, 1, 0, 2), w(2, 2, 3, 4), r(3, 1, 6, 7)];
        assert!(matches!(check_register(&ops), LinResult::Violation { .. }));
        // ...but not one that reaches its end, [3, 6].
        let ops = [w(1, 1, 0, 2), w(2, 2, 3, 6), r(3, 1, 6, 7)];
        assert_eq!(check_register(&ops), LinResult::Ok);
    }

    #[test]
    fn a_read_cannot_return_before_its_write_is_invoked() {
        let ops = [r(1, 7, 0, 1), w(2, 7, 2, 3)];
        let LinResult::Violation { witness } = check_register(&ops) else {
            panic!("a read from the future must fail");
        };
        assert_eq!(witness, ["#1 R→7 [0, 1]", "#2 W(7) [2, 3]"]);
        // Sharing the round is concurrency.
        let ops = [r(1, 7, 0, 2), w(2, 7, 2, 3)];
        assert_eq!(check_register(&ops), LinResult::Ok);
    }

    #[test]
    fn repeated_write_values_are_inconclusive() {
        let twice = [w(1, 5, 0, 1), w(2, 5, 2, 3), r(3, 6, 4, 5)];
        let initial = [w(1, INITIAL_VALUE, 0, 1)];
        for ops in [&twice[..], &initial[..]] {
            let LinResult::Inconclusive { reason } = check_register(ops) else {
                panic!("a repeated value is outside the zone test: {ops:?}");
            };
            assert!(reason.starts_with("value "), "{reason}");
        }
    }

    #[test]
    fn synthetic_histories_agree_with_the_reference_search() {
        for seed in 0..20 {
            let mut ops = synthetic_history(60, seed);
            assert_eq!(check_register(&ops), check_register_reference(&ops));
            // After an acknowledged W(77), a read of an older value —
            // one some write wrote, or one nobody did.
            let t = ops.last().map_or(0, |o| o.inv + 10);
            ops.push(w(900, 77, t, t + 1));
            ops.push(r(901, 1000 + seed % 60, t + 3, t + 4));
            let (zones, reference) = (check_register(&ops), check_register_reference(&ops));
            assert!(matches!(zones, LinResult::Violation { .. }), "{zones:?}");
            assert!(
                matches!(reference, LinResult::Violation { .. }),
                "{reference:?}"
            );
        }
    }
}
