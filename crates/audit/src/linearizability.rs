//! Wing–Gong / WGL linearizability checking for the atomic register.
//!
//! The checker searches for a legal sequential order of the recorded
//! operations that respects real-time precedence: operation `p`
//! precedes `o` iff `p` returned strictly before `o` was invoked;
//! otherwise they are concurrent and may linearize either way. An
//! operation that never returned (a timeout — Jepsen's `:info`) is
//! concurrent with everything after its invocation and *optional*: a
//! timed-out write may or may not have taken effect, so the search may
//! linearize it or leave it out, whichever makes the history legal.
//! Timed-out reads impose no constraint and are excluded up front by
//! the extractor.
//!
//! The search is the classic memoized DFS (Wing–Gong, with the
//! Lowe-style state cache): the frontier of linearizable candidates is
//! the set of unlinearized operations invoked no later than the
//! earliest unlinearized response; applying one yields a new
//! `(linearized-set, register-value)` state, and states already proven
//! dead are never revisited. Candidate and minimum-response tracking
//! use dancing-links lists over invocation- and response-sorted
//! orders, so each visited node costs O(concurrency width), not O(n).
//!
//! Three reductions keep time and memory linear in the history on
//! bounded-concurrency inputs. All three are exact — they change
//! neither verdict nor witness — and unconditional: each is derived
//! from the history itself, none has a knob.
//!
//! * **Unobserved `:info` writes are dropped.** A timed-out write
//!   whose value no read returned is optional, and in any legal
//!   linearization that contains it no read sits between it and the
//!   next write (such a read would have to return its value). Deleting
//!   it from that linearization leaves a legal one, and a legal
//!   linearization without it is already one for the full history, so
//!   the verdict is the same with the write removed. Without this an
//!   overloaded run (thousands of timed-out writes, each doubling the
//!   state space) exhausts the budget.
//! * **Forced cuts split the history into segments.** In invocation
//!   order, a point where every earlier operation returned strictly
//!   before every later one was invoked is *quiescent*: every
//!   linearization is an order of the earlier operations followed by
//!   an order of the later ones. If moreover the register value there
//!   is the same in every linearization — the operations since the
//!   previous cut wrote nothing, or their last-invoked write was
//!   invoked after every other write among them had returned, so it is
//!   last among the writes in any legal order — the two sides share
//!   nothing but that value and are searched one after the other, each
//!   with memo, stack and link arrays of its own size, dropped when it
//!   is done. A quiescent point whose value is *not* forced (two
//!   overlapping writes, then quiet) is not a cut: which write won is
//!   only decided by later reads. A timed-out operation never returns,
//!   so no cut follows one.
//! * **The memo key is the window of the linearized set that can
//!   differ.** With operations indexed by invocation rank, every rank
//!   below the first unlinearized operation is set and every rank
//!   above the highest linearized one is clear, so `(value, index of
//!   the first word, the words from there to the highest linearized
//!   rank)` determines the whole set. A visited state costs
//!   O(concurrency width) to store and hash instead of O(n).
//!
//! Measured on `synthetic_history(n, 7)` (release, 2 vCPU; E17's
//! volume rows in `BENCH_audit.json` track these): 10 000 operations
//! in 1.8 ms, 100 000 in 18 ms and 0.84 MiB of peak-RSS rise,
//! 1 000 000 in 190 ms and 9.3 MiB — about 190 ns and 10 bytes per
//! operation at every size, the bytes being the invocation order. The
//! full-bitset search this replaced, kept as the test-only `reference`
//! module, took 18 ms at 10 000 and 9.7 s and 1.2 GB at 100 000.
//!
//! On failure the checker produces a **minimized witness**: the
//! earliest truncation of the history that is already non-linearizable
//! (violations are monotone under truncation, so the cutoff is found
//! by binary search), greedily shrunk by removing every operation the
//! contradiction does not need.

use std::collections::HashSet;

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
    /// No legal linearization; `witness` is a minimized operation
    /// subset that is already contradictory.
    Violation {
        /// Human-readable description of the minimized witness ops.
        witness: Vec<String>,
    },
    /// The search budget ran out before a verdict. The search is
    /// exponential in the number of operations that are mutually
    /// concurrent, so this happens on histories where many *observed*
    /// timed-out writes stay open at once (an overloaded open-loop
    /// run, before unobserved `:info` writes were pruned, hit it with
    /// 8 225 of 10 200 operations timed out); the bounded-concurrency
    /// histories of a healthy run stay orders of magnitude below it.
    BudgetExhausted,
}

/// Default budget of applied search nodes, shared by all segments of
/// one check. A legal bounded-concurrency history costs little more
/// than one node per operation; the budget bounds the time spent on a
/// history too concurrent to decide.
pub const DEFAULT_BUDGET: u64 = 5_000_000;

/// Checks `ops` for linearizability against the sequential register
/// with initial value [`INITIAL_VALUE`].
pub fn check_register(ops: &[RegOp]) -> LinResult {
    let mut budget = DEFAULT_BUDGET;
    match linearizable(ops, &mut budget) {
        None => LinResult::BudgetExhausted,
        Some(true) => LinResult::Ok,
        Some(false) => LinResult::Violation {
            witness: minimize(ops),
        },
    }
}

/// Bit helpers over the linearized set.
#[inline]
fn set_bit(set: &mut [u64], i: usize) {
    set[i / 64] |= 1 << (i % 64);
}

#[inline]
fn clear_bit(set: &mut [u64], i: usize) {
    set[i / 64] &= !(1 << (i % 64));
}

/// Doubly-linked list over a fixed visit order, with O(1) unlink and
/// exact-reverse relink (dancing links).
struct Links {
    /// `next[i]`/`prev[i]` use `n` as the head/tail sentinel.
    next: Vec<usize>,
    prev: Vec<usize>,
    n: usize,
}

impl Links {
    /// Builds the list threading `order` (a permutation of `0..n`).
    fn new(order: impl IntoIterator<Item = usize>, n: usize) -> Self {
        let mut next = vec![n; n + 1];
        let mut prev = vec![n; n + 1];
        let mut at = n; // sentinel
        for i in order {
            next[at] = i;
            prev[i] = at;
            at = i;
        }
        next[at] = n;
        prev[n] = at;
        Links { next, prev, n }
    }

    fn head(&self) -> usize {
        self.next[self.n]
    }

    fn unlink(&mut self, i: usize) {
        let (p, q) = (self.prev[i], self.next[i]);
        self.next[p] = q;
        self.prev[q] = p;
    }

    fn relink(&mut self, i: usize) {
        let (p, q) = (self.prev[i], self.next[i]);
        self.next[p] = i;
        self.prev[q] = i;
    }
}

/// The values of timed-out writes that no read returned: such a write
/// can be left out of the search without changing the verdict (module
/// docs, first reduction). Used for membership only, so hash order
/// never reaches a verdict.
fn unobserved_pending_values(ops: &[RegOp]) -> HashSet<u64> {
    let mut unobserved: HashSet<u64> = ops
        .iter()
        .filter(|o| o.ret == PENDING)
        .filter_map(|o| match o.kind {
            RegOpKind::Write { value } => Some(value),
            RegOpKind::Read { .. } => None,
        })
        .collect();
    if !unobserved.is_empty() {
        for o in ops {
            if let RegOpKind::Read { returned } = o.kind {
                unobserved.remove(&returned);
            }
        }
    }
    unobserved
}

/// The writes of the segment being accumulated, as far as the
/// forced-value test needs them.
#[derive(Default)]
struct SegmentWrites {
    /// `(inv, ret, value)` of the last-invoked write.
    last: Option<(u64, u64, u64)>,
    /// Latest response among the writes before it.
    earlier_max_ret: Option<u64>,
}

impl SegmentWrites {
    fn push(&mut self, inv: u64, ret: u64, value: u64) {
        if let Some((_, last_ret, _)) = self.last {
            self.earlier_max_ret = self.earlier_max_ret.max(Some(last_ret));
        }
        self.last = Some((inv, ret, value));
    }

    /// The register value after the segment if it is the same in every
    /// linearization, given `incoming` before it: unchanged if nothing
    /// was written, the last-invoked write's if every other write had
    /// returned before that one was invoked.
    fn forced_value(&self, incoming: u64) -> Option<u64> {
        match self.last {
            None => Some(incoming),
            Some((inv, _, value)) => self
                .earlier_max_ret
                .is_none_or(|r| r < inv)
                .then_some(value),
        }
    }
}

/// Exact WGL check. Returns `None` if `budget` applied nodes were
/// exhausted, otherwise whether a legal linearization exists. Drops
/// unobserved `:info` writes, then walks the rest once in invocation
/// order, searching each forced-cut segment as it closes.
fn linearizable(ops: &[RegOp], budget: &mut u64) -> Option<bool> {
    let unobserved = unobserved_pending_values(ops);
    let mut order: Vec<usize> = (0..ops.len())
        .filter(|&i| match ops[i].kind {
            RegOpKind::Write { value } => ops[i].ret != PENDING || !unobserved.contains(&value),
            RegOpKind::Read { .. } => true,
        })
        .collect();
    drop(unobserved);
    order.sort_unstable_by_key(|&i| (ops[i].inv, i));

    let mut value = INITIAL_VALUE;
    let mut start = 0;
    // Latest response among `order[..at]`; `PENDING` once a timed-out
    // op is behind us, so no later point is quiescent.
    let mut max_ret = 0;
    let mut writes = SegmentWrites::default();
    for (at, &i) in order.iter().enumerate() {
        let op = &ops[i];
        if at > start && max_ret < op.inv {
            if let Some(forced) = writes.forced_value(value) {
                if !search_segment(ops, &order[start..at], value, budget)? {
                    return Some(false);
                }
                value = forced;
                start = at;
                writes = SegmentWrites::default();
            }
        }
        max_ret = max_ret.max(op.ret);
        if let RegOpKind::Write { value: w } = op.kind {
            writes.push(op.inv, op.ret, w);
        }
    }
    search_segment(ops, &order[start..], value, budget)
}

/// One DFS path entry: the op applied and the state needed to undo it.
struct Frame {
    chosen: usize,
    prev_value: u64,
    prev_top: usize,
}

/// Memoized WGL search over one segment — `segment` indexes `ops` in
/// invocation order — starting from register value `value`. All state
/// is local to the call and sized to the segment.
fn search_segment(
    ops: &[RegOp],
    segment: &[usize],
    mut value: u64,
    budget: &mut u64,
) -> Option<bool> {
    let seg: Vec<RegOp> = segment.iter().map(|&i| ops[i]).collect();
    let n = seg.len();
    let mut remaining_required = seg.iter().filter(|o| o.ret != PENDING).count();
    if remaining_required == 0 {
        return Some(true); // nothing observable happened
    }
    // Ranks are invocation order already; responses need sorting.
    let mut by_ret: Vec<usize> = (0..n).collect();
    by_ret.sort_unstable_by_key(|&k| (seg[k].ret, k));
    let mut inv_list = Links::new(0..n, n);
    let mut ret_list = Links::new(by_ret, n);

    // The linearized set, one bit per invocation rank, and the highest
    // word of it holding a set bit.
    let mut linearized = vec![0u64; n.div_ceil(64)];
    let mut top = 0;
    // Dead states, window-compact: `[value, first word, words..]`.
    let mut memo: HashSet<Box<[u64]>> = HashSet::new();
    let mut key: Vec<u64> = Vec::new();
    let mut stack: Vec<Frame> = Vec::new();
    // The candidate under consideration at the current level;
    // `usize::MAX` when the scan must (re)start from the head of the
    // invocation list.
    let mut cand = usize::MAX;

    loop {
        // Earliest unlinearized response bounds the frontier.
        let min_ret = match ret_list.head() {
            h if h == n => PENDING,
            h => seg[h].ret,
        };
        // Scan for the next applicable candidate.
        if cand == usize::MAX {
            cand = inv_list.head();
        }
        let mut applied = false;
        while cand != n && seg[cand].inv <= min_ret {
            let legal = match seg[cand].kind {
                RegOpKind::Write { .. } => true,
                RegOpKind::Read { returned } => returned == value,
            };
            if legal {
                if *budget == 0 {
                    return None;
                }
                *budget -= 1;
                // Apply.
                let (prev_value, prev_top) = (value, top);
                if let RegOpKind::Write { value: w } = seg[cand].kind {
                    value = w;
                }
                set_bit(&mut linearized, cand);
                top = top.max(cand / 64);
                if seg[cand].ret != PENDING {
                    remaining_required -= 1;
                    if remaining_required == 0 {
                        return Some(true);
                    }
                }
                // Every word below the first unlinearized rank's is
                // full and every word above `top` is empty.
                let first = match inv_list.head() {
                    h if h == cand => inv_list.next[cand],
                    h => h,
                } / 64;
                key.clear();
                key.extend([value, first as u64]);
                key.extend(&linearized[first..(top + 1).max(first)]);
                if memo.insert(key.as_slice().into()) {
                    inv_list.unlink(cand);
                    ret_list.unlink(cand);
                    stack.push(Frame {
                        chosen: cand,
                        prev_value,
                        prev_top,
                    });
                    cand = usize::MAX; // restart scan in the new state
                    applied = true;
                    break;
                }
                // State already proven dead: undo and keep scanning.
                clear_bit(&mut linearized, cand);
                if seg[cand].ret != PENDING {
                    remaining_required += 1;
                }
                value = prev_value;
                top = prev_top;
            }
            cand = inv_list.next[cand];
        }
        if applied {
            continue;
        }
        // Exhausted the frontier at this level: backtrack.
        let Some(frame) = stack.pop() else {
            return Some(false);
        };
        let i = frame.chosen;
        inv_list.relink(i);
        ret_list.relink(i);
        clear_bit(&mut linearized, i);
        if seg[i].ret != PENDING {
            remaining_required += 1;
        }
        value = frame.prev_value;
        top = frame.prev_top;
        cand = inv_list.next[i]; // resume after the undone choice
    }
}

/// Truncates the history at response-time `cut`: operations invoked
/// after `cut` disappear, responses after `cut` become pending.
fn truncate(ops: &[RegOp], cut: u64) -> Vec<RegOp> {
    ops.iter()
        .filter(|o| o.inv <= cut)
        .map(|o| {
            let mut o = *o;
            if o.ret > cut {
                o.ret = PENDING;
            }
            o
        })
        // A truncated-to-pending read constrains nothing; drop it like
        // the extractor drops timed-out reads.
        .filter(|o| !(o.ret == PENDING && matches!(o.kind, RegOpKind::Read { .. })))
        .collect()
}

fn fails(ops: &[RegOp]) -> bool {
    let mut budget = DEFAULT_BUDGET;
    linearizable(ops, &mut budget) == Some(false)
}

/// Minimizes a failing history to a small contradictory core: find the
/// earliest failing truncation (failure is monotone in the cut round),
/// then greedily drop every op the contradiction survives without.
fn minimize(ops: &[RegOp]) -> Vec<String> {
    let mut cuts: Vec<u64> = ops
        .iter()
        .map(|o| o.ret)
        .filter(|&r| r != PENDING)
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    // Binary search the earliest failing cut.
    let (mut lo, mut hi) = (0usize, cuts.len().saturating_sub(1));
    while lo < hi {
        let mid = (lo + hi) / 2;
        if fails(&truncate(ops, cuts[mid])) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let mut core = truncate(ops, cuts[lo]);
    // Greedy shrink (deterministic order: latest ops first, so the
    // early context ops a violation depends on survive).
    let mut i = core.len();
    while i > 0 {
        i -= 1;
        let mut without = core.clone();
        without.remove(i);
        if fails(&without) {
            core = without;
        }
    }
    core.iter().map(RegOp::describe).collect()
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
    fn long_low_concurrency_history_is_fast_and_passes() {
        // The bench shape: 10k ops, writes of unique values with
        // occasional overlap.
        let ops = synthetic_history(10_000, 42);
        assert_eq!(check_register(&ops), LinResult::Ok);
    }

    #[test]
    fn unobserved_info_writes_cost_nothing() {
        // 40 timed-out writes nobody read, open across a sequential
        // run: 2^40 subsets for a search that keeps them.
        let mut ops: Vec<RegOp> = (0..40).map(|i| w(i, 500 + i, i, PENDING)).collect();
        for i in 0..50 {
            ops.push(w(100 + 2 * i, i + 1, 40 + 4 * i, 41 + 4 * i));
            ops.push(r(101 + 2 * i, i + 1, 42 + 4 * i, 43 + 4 * i));
        }
        let mut budget = 100;
        assert_eq!(linearizable(&ops, &mut budget), Some(true));
        assert_eq!(budget, 0, "one node per returned op, none for the rest");
        // A timed-out write a read did observe stays in the search.
        ops.push(r(300, 507, 300, 301));
        assert_eq!(check_register(&ops), LinResult::Ok);
        ops.push(r(301, 50, 302, 303));
        assert!(matches!(check_register(&ops), LinResult::Violation { .. }));
    }

    #[test]
    fn segments_draw_on_one_budget() {
        let ops: Vec<RegOp> = (0..100).map(|i| w(i, i, 2 * i, 2 * i + 1)).collect();
        assert_eq!(linearizable(&ops, &mut 100), Some(true));
        assert_eq!(linearizable(&ops, &mut 99), None);
    }

    #[test]
    fn memo_key_keeps_the_word_offset() {
        // Each op overlaps the next, so nothing is ever quiescent and
        // the 200 ops are one segment; with two recurring values the
        // states "first k linearized" and "first 64 + k linearized"
        // agree on value and window bits and differ only in where the
        // window starts.
        let chain: Vec<RegOp> = (0..200)
            .map(|i| match i % 4 {
                0 => w(i, 1, 2 * i, 2 * i + 3),
                2 => w(i, 2, 2 * i, 2 * i + 3),
                _ => r(i, 1 + (i % 4) / 2, 2 * i, 2 * i + 3),
            })
            .collect();
        assert_eq!(check_register(&chain), LinResult::Ok);
        // Take away the W(2) that read #151 returns: the W(2) before
        // it was overwritten by a W(1) that had returned, so the read
        // is stale — same witness as the reference.
        let mut stale = chain.clone();
        stale[150] = w(150, 3, 300, 303);
        let verdict = check_register(&stale);
        assert!(matches!(verdict, LinResult::Violation { .. }));
        assert_eq!(verdict, check_register_reference(&stale));
    }

    #[test]
    fn links_unlink_relink_restore_exactly() {
        let mut l = Links::new([2, 0, 1], 3);
        assert_eq!(l.head(), 2);
        l.unlink(0);
        assert_eq!(l.next[2], 1);
        l.relink(0);
        assert_eq!(l.next[2], 0);
        assert_eq!(l.next[0], 1);
    }
}
