//! A memoized Wing–Gong/WGL search, the register check before the
//! zone test in the parent module, kept as the differential oracle
//! (the way `resolve_round_reference` serves the channel). It decides
//! any history, repeated write values included, by searching the
//! orders that respect real time, and memoises every visited state as
//! an `n`-bit set — exponential time, `n²/8` bytes a check — so it is
//! compiled into tests only: vi-audit's unit tests declare it under
//! `#[cfg(test)]`, and `tests/audit_properties.rs` includes this file
//! by path. It therefore uses nothing but the parent module's public
//! items.

use super::{LinResult, RegOp, RegOpKind, INITIAL_VALUE, PENDING};
use std::collections::HashSet;

/// Applied search nodes before the search gives up.
const BUDGET: u64 = 5_000_000;

/// The reference verdict. It does not minimise: a violation's witness
/// is the whole history. A search that runs out of [`BUDGET`] is
/// inconclusive.
pub fn check_register_reference(ops: &[RegOp]) -> LinResult {
    let mut budget = BUDGET;
    match linearizable(ops, &mut budget) {
        None => LinResult::Inconclusive {
            reason: "search budget exhausted".into(),
        },
        Some(true) => LinResult::Ok,
        Some(false) => LinResult::Violation {
            witness: ops.iter().map(describe).collect(),
        },
    }
}

fn set_bit(set: &mut [u64], i: usize) {
    set[i / 64] |= 1 << (i % 64);
}

fn clear_bit(set: &mut [u64], i: usize) {
    set[i / 64] &= !(1 << (i % 64));
}

/// Doubly-linked list over a fixed visit order (dancing links);
/// `next[i]`/`prev[i]` use `n` as the head/tail sentinel.
struct Links {
    next: Vec<usize>,
    prev: Vec<usize>,
    n: usize,
}

impl Links {
    fn new(order: &[usize]) -> Self {
        let n = order.len();
        let mut next = vec![n; n + 1];
        let mut prev = vec![n; n + 1];
        let mut at = n;
        for &i in order {
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

struct Frame {
    chosen: usize,
    prev_value: u64,
}

fn linearizable(ops: &[RegOp], budget: &mut u64) -> Option<bool> {
    let n = ops.len();
    if n == 0 {
        return Some(true);
    }
    let mut by_inv: Vec<usize> = (0..n).collect();
    by_inv.sort_by_key(|&i| (ops[i].inv, i));
    let mut by_ret: Vec<usize> = (0..n).collect();
    by_ret.sort_by_key(|&i| (ops[i].ret, i));
    let mut inv_list = Links::new(&by_inv);
    let mut ret_list = Links::new(&by_ret);

    let words = n.div_ceil(64);
    let mut linearized = vec![0u64; words];
    let mut value = INITIAL_VALUE;
    let mut remaining_required = ops.iter().filter(|o| o.ret != PENDING).count();
    if remaining_required == 0 {
        return Some(true);
    }
    let mut memo: HashSet<(Box<[u64]>, u64)> = HashSet::new();
    let mut stack: Vec<Frame> = Vec::new();
    let mut cand = usize::MAX;

    loop {
        let min_ret = {
            let h = ret_list.head();
            if h == n {
                PENDING
            } else {
                ops[h].ret
            }
        };
        if cand == usize::MAX {
            cand = inv_list.head();
        }
        let mut applied = false;
        while cand != n && ops[cand].inv <= min_ret {
            let legal = match ops[cand].kind {
                RegOpKind::Write { .. } => true,
                RegOpKind::Read { returned } => returned == value,
            };
            if legal {
                if *budget == 0 {
                    return None;
                }
                *budget -= 1;
                let prev_value = value;
                if let RegOpKind::Write { value: w } = ops[cand].kind {
                    value = w;
                }
                set_bit(&mut linearized, cand);
                if ops[cand].ret != PENDING {
                    remaining_required -= 1;
                    if remaining_required == 0 {
                        return Some(true);
                    }
                }
                if memo.insert((linearized.clone().into_boxed_slice(), value)) {
                    inv_list.unlink(cand);
                    ret_list.unlink(cand);
                    stack.push(Frame {
                        chosen: cand,
                        prev_value,
                    });
                    cand = usize::MAX;
                    applied = true;
                    break;
                }
                clear_bit(&mut linearized, cand);
                if ops[cand].ret != PENDING {
                    remaining_required += 1;
                }
                value = prev_value;
            }
            cand = inv_list.next[cand];
        }
        if applied {
            continue;
        }
        let Some(frame) = stack.pop() else {
            return Some(false);
        };
        let i = frame.chosen;
        inv_list.relink(i);
        ret_list.relink(i);
        clear_bit(&mut linearized, i);
        if ops[i].ret != PENDING {
            remaining_required += 1;
        }
        value = frame.prev_value;
        cand = inv_list.next[i];
    }
}

fn describe(op: &RegOp) -> String {
    let span = if op.ret == PENDING {
        format!("[{}, ∞)", op.inv)
    } else {
        format!("[{}, {}]", op.inv, op.ret)
    };
    match op.kind {
        RegOpKind::Write { value } => format!("#{} W({value}) {span}", op.id),
        RegOpKind::Read { returned } => format!("#{} R→{returned} {span}", op.id),
    }
}
