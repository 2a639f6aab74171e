//! Trace checker for the CHA problem definition (Section 3.2) and
//! Property 4.
//!
//! The checker collects every proposal, output, and final color from
//! an execution and verifies:
//!
//! * **Validity** — every value included in any output history was
//!   proposed for the corresponding instance by some node;
//! * **Agreement** — any two output histories coincide (values *and*
//!   ⊥-placement) on the prefix up to the smaller output instance;
//! * **Liveness** — there is an instance `kst` from which every
//!   non-failed node outputs a history including every instance in
//!   `[kst, k]`;
//! * **Property 4** — for each instance, the colors chosen by
//!   different nodes differ by at most one shade.
//!
//! Agreement is checked in `O(m · len)` by exploiting transitivity:
//! prefix-agreement between histories sorted by output instance is
//! equivalent to pairwise agreement (an exhaustive quadratic checker
//! is provided for cross-validation in property tests). The other
//! three checks are likewise linear, times a log, in what was
//! recorded; the quadratic checker all of this replaced is the
//! test-only `reference` module.
//!
//! Recording copies nothing: the checker borrows each node's proposals
//! and outputs where they lie. Checking a 20 000-node, 10-instance run
//! (vi-perf's metro workloads: 200 000 outputs, 99 in 100 of them ⊥)
//! raises the heap's high-water mark by about 2.8 MiB — its run
//! entries and one sort key per proposal — where copying the proposals
//! took 4.8 MiB and copying the outputs too 14 MiB
//! (`tests/cha_checker_memory.rs` holds it under 3.5 MiB).

use crate::cha::history::{Color, History};
use crate::cha::protocol::ChaOutput;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A violation of the CHA specification found in a trace.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecViolation {
    /// An output history contains a value nobody proposed.
    Validity {
        /// Node whose output is invalid.
        node: usize,
        /// Output instance.
        output_instance: u64,
        /// History entry containing the foreign value.
        entry_instance: u64,
    },
    /// Two output histories disagree on their common prefix.
    Agreement {
        /// First (node, output instance).
        a: (usize, u64),
        /// Second (node, output instance).
        b: (usize, u64),
        /// First instance at which they disagree.
        at: u64,
    },
    /// No stabilization instance `kst` exists.
    Liveness,
    /// Colors for one instance span more than one shade.
    ColorSpread {
        /// The instance in question.
        instance: u64,
        /// The distinct colors observed.
        colors: Vec<Color>,
    },
}

impl fmt::Display for SpecViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecViolation::Validity {
                node,
                output_instance,
                entry_instance,
            } => write!(
                f,
                "validity: node {node}'s output at instance {output_instance} contains an unproposed value for instance {entry_instance}"
            ),
            SpecViolation::Agreement { a, b, at } => write!(
                f,
                "agreement: outputs of node {} (instance {}) and node {} (instance {}) differ at instance {at}",
                a.0, a.1, b.0, b.1
            ),
            SpecViolation::Liveness => write!(f, "liveness: no stabilization instance exists"),
            SpecViolation::ColorSpread { instance, colors } => write!(
                f,
                "property 4: instance {instance} has colors spanning more than one shade: {colors:?}"
            ),
        }
    }
}

/// The lowest `kst` an output admits: the start of the unbroken run of
/// included instances that ends at its own instance, or one past its
/// instance if it is ⊥ or omits its own instance.
fn lowest_kst<V>(out: &ChaOutput<V>) -> u64 {
    let k = out.instance;
    let mut run: Option<(u64, u64)> = None;
    for (i, _) in out.history.iter().flat_map(|h| h.iter()) {
        if i > k {
            break;
        }
        run = match run {
            Some((start, end)) if end + 1 == i => Some((start, i)),
            _ => Some((i, i)),
        };
    }
    match run {
        Some((start, end)) if end == k => start,
        _ => k + 1,
    }
}

/// Collects an execution's CHA events and checks the specification.
///
/// The checker borrows the proposals and outputs it checks where they
/// lie — one slice per recording, typically a node's whole
/// [`ChaNode::proposals`](crate::cha::ChaNode::proposals) and
/// [`ChaNode::outputs`](crate::cha::ChaNode::outputs) — and copies
/// none. Every check is one pass (plus a sort) over what was recorded,
/// so checking a 20 000-node run's 200 000 outputs costs the heap its
/// 40 000 run entries and, while validity runs, one sort key per
/// proposal.
#[derive(Clone, Debug, Default)]
pub struct ChaSpecChecker<'a, V> {
    /// Proposals recorded one at a time.
    owned_proposals: Vec<(u64, V)>,
    /// Every recorded run of one node's proposals.
    proposal_runs: Vec<&'a [(u64, V)]>,
    /// Every recorded run of one node's outputs, in recording order.
    runs: Vec<(usize, &'a [ChaOutput<V>])>,
    crashed: BTreeSet<usize>,
}

impl<'a, V: Clone + Ord + fmt::Debug> ChaSpecChecker<'a, V> {
    /// Creates an empty checker.
    pub fn new() -> Self {
        ChaSpecChecker {
            owned_proposals: Vec::new(),
            proposal_runs: Vec::new(),
            runs: Vec::new(),
            crashed: BTreeSet::new(),
        }
    }

    /// Records that some node proposed `value` for `instance`.
    pub fn record_proposal(&mut self, instance: u64, value: V) {
        self.owned_proposals.push((instance, value));
    }

    /// Records proposals as `(instance, value)` pairs, in any order —
    /// typically one node's whole
    /// [`ChaNode::proposals`](crate::cha::ChaNode::proposals).
    pub fn record_proposals(&mut self, proposals: &'a [(u64, V)]) {
        self.proposal_runs.push(proposals);
    }

    /// Records outputs (and final colors) `node` produced, one per
    /// instance, in any order. Recording a `(node, instance)` pair
    /// again — in this run or a later one — adds a second output for
    /// validity, agreement and Property 4; liveness judges the node by
    /// the later one.
    pub fn record_outputs(&mut self, node: usize, outs: &'a [ChaOutput<V>]) {
        self.runs.push((node, outs));
    }

    /// [`record_outputs`](Self::record_outputs) for a single output.
    pub fn record_output(&mut self, node: usize, out: &'a ChaOutput<V>) {
        self.record_outputs(node, std::slice::from_ref(out));
    }

    /// Marks `node` as crashed (excluded from liveness requirements).
    pub fn mark_crashed(&mut self, node: usize) {
        self.crashed.insert(node);
    }

    /// Every proposal as `(instance, value)`.
    fn proposals(&self) -> impl Iterator<Item = &(u64, V)> + '_ {
        self.owned_proposals
            .iter()
            .chain(self.proposal_runs.iter().flat_map(|run| run.iter()))
    }

    /// Every output as `(node, output)`, in recording order.
    fn outputs(&self) -> impl Iterator<Item = (usize, &'a ChaOutput<V>)> + '_ {
        self.runs
            .iter()
            .flat_map(|&(node, run)| run.iter().map(move |o| (node, o)))
    }

    /// The decided outputs as `(node, instance, history)`, in recording
    /// order.
    fn decided(&self) -> impl Iterator<Item = (usize, u64, &'a History<V>)> + '_ {
        self.outputs()
            .filter_map(|(node, o)| o.history.as_deref().map(|h| (node, o.instance, h)))
    }

    /// Validity: every included history entry was proposed by someone.
    pub fn check_validity(&self) -> Vec<SpecViolation> {
        // Each instance's proposals sorted once, so an entry costs a
        // binary search instead of a scan of every node's proposal.
        // Counted first, so each instance's keys take exactly their
        // room.
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        for &(instance, _) in self.proposals() {
            *counts.entry(instance).or_default() += 1;
        }
        let mut sorted: BTreeMap<u64, Vec<&V>> = counts
            .into_iter()
            .map(|(instance, n)| (instance, Vec::with_capacity(n)))
            .collect();
        for (instance, value) in self.proposals() {
            if let Some(values) = sorted.get_mut(instance) {
                values.push(value);
            }
        }
        for values in sorted.values_mut() {
            values.sort_unstable();
        }
        let mut violations = Vec::new();
        for (node, output_instance, h) in self.decided() {
            for (entry_instance, value) in h.iter() {
                let proposed = sorted
                    .get(&entry_instance)
                    .is_some_and(|values| values.binary_search(&value).is_ok());
                if !proposed {
                    violations.push(SpecViolation::Validity {
                        node,
                        output_instance,
                        entry_instance,
                    });
                }
            }
        }
        violations
    }

    /// Agreement, in `O(m · len)` via sorted adjacent comparison.
    pub fn check_agreement(&self) -> Vec<SpecViolation> {
        let mut decided: Vec<_> = self.decided().collect();
        decided.sort_by_key(|&(_, k, _)| k);
        let mut violations = Vec::new();
        for w in decided.windows(2) {
            let (na, ka, ha) = w[0];
            let (nb, kb, hb) = w[1];
            if let Some(at) = first_disagreement(ha, hb, ka) {
                violations.push(SpecViolation::Agreement {
                    a: (na, ka),
                    b: (nb, kb),
                    at,
                });
            }
        }
        violations
    }

    /// Agreement by exhaustive pairwise comparison (quadratic; used to
    /// cross-validate [`ChaSpecChecker::check_agreement`] on small
    /// traces).
    pub fn check_agreement_exhaustive(&self) -> Vec<SpecViolation> {
        let decided: Vec<_> = self.decided().collect();
        let mut violations = Vec::new();
        for i in 0..decided.len() {
            for j in (i + 1)..decided.len() {
                let (na, ka, ha) = decided[i];
                let (nb, kb, hb) = decided[j];
                let upto = ka.min(kb);
                if let Some(at) = first_disagreement(ha, hb, upto) {
                    violations.push(SpecViolation::Agreement {
                        a: (na, ka),
                        b: (nb, kb),
                        at,
                    });
                }
            }
        }
        violations
    }

    /// Liveness: returns the smallest stabilization instance `kst`
    /// such that from `kst` on, every non-crashed node decided every
    /// instance and included all of `[kst, k]` in its output at `k`.
    /// `None` if no such instance exists among the completed ones.
    ///
    /// A node constrains `kst` only up to its last output, and an
    /// output at `k` that admits no `kst` below `l` (the start of the
    /// unbroken run of included instances ending at `k`, or `k + 1`)
    /// rules out exactly the candidates below `l`. So the answer is the largest such `l` over
    /// every live node's outputs and the instances it skipped.
    pub fn liveness_kst(&self) -> Option<u64> {
        let last = self.outputs().map(|(_, o)| o.instance).max()?;
        // Runs grouped by node and each node's outputs by instance,
        // both by stable sorts, so the later recording of a repeated
        // (node, instance) pair comes last of its pair.
        let mut runs: Vec<&(usize, &[ChaOutput<V>])> = self.runs.iter().collect();
        runs.sort_by_key(|&&(node, _)| node);
        let mut outs: Vec<&ChaOutput<V>> = Vec::new();
        let mut kst = 1;
        for node_runs in runs.chunk_by(|a, b| a.0 == b.0) {
            if self.crashed.contains(&node_runs[0].0) {
                continue;
            }
            outs.clear();
            outs.extend(node_runs.iter().flat_map(|&&(_, run)| run));
            outs.sort_by_key(|o| o.instance);
            // The node may have joined late, but instances before its
            // first output count as skipped like any other gap.
            let mut covered = 0;
            for (i, out) in outs.iter().enumerate() {
                if outs.get(i + 1).is_some_and(|o| o.instance == out.instance) {
                    continue;
                }
                if out.instance - covered > 1 {
                    kst = kst.max(out.instance);
                }
                kst = kst.max(lowest_kst(out));
                covered = out.instance;
            }
        }
        (kst <= last).then_some(kst)
    }

    /// Property 4: per-instance color spread is at most one shade.
    pub fn check_color_spread(&self) -> Vec<SpecViolation> {
        const BY_SHADE: [Color; 4] = [Color::Red, Color::Orange, Color::Yellow, Color::Green];
        // Bit `s` of an instance's mask: some node finished it in shade `s`.
        let mut seen: BTreeMap<u64, u8> = BTreeMap::new();
        for (_, out) in self.outputs() {
            *seen.entry(out.instance).or_default() |= 1 << out.color.shade();
        }
        let mut violations = Vec::new();
        for (instance, mask) in seen {
            let spread = mask.ilog2() - mask.trailing_zeros();
            if spread > 1 {
                violations.push(SpecViolation::ColorSpread {
                    instance,
                    colors: BY_SHADE
                        .into_iter()
                        .filter(|c| mask & (1 << c.shade()) != 0)
                        .collect(),
                });
            }
        }
        violations
    }

    /// Runs every safety check, plus liveness if `expect_liveness`.
    pub fn check_all(&self, expect_liveness: bool) -> Vec<SpecViolation> {
        let mut v = self.check_validity();
        v.extend(self.check_agreement());
        v.extend(self.check_color_spread());
        if expect_liveness && self.liveness_kst().is_none() {
            v.push(SpecViolation::Liveness);
        }
        v
    }

    /// Number of recorded outputs.
    pub fn output_count(&self) -> usize {
        self.runs.iter().map(|(_, run)| run.len()).sum()
    }
}

/// First instance `<= upto` where the two histories differ (in value
/// or in ⊥-placement), if any. Their included entries are walked in
/// step: up to the first unequal pair both hold the same instances.
fn first_disagreement<V: Eq>(a: &History<V>, b: &History<V>, upto: u64) -> Option<u64> {
    let (mut ia, mut ib) = (a.iter(), b.iter());
    loop {
        let at = match (ia.next(), ib.next()) {
            (None, None) => return None,
            (Some(ea), Some(eb)) if ea == eb => {
                if ea.0 >= upto {
                    return None;
                }
                continue;
            }
            (Some((ka, _)), Some((kb, _))) => ka.min(kb),
            (Some((k, _)), None) | (None, Some((k, _))) => k,
        };
        return (at <= upto).then_some(at);
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cha::history::{calculate_history, Ballot};
    use std::collections::BTreeMap;

    fn history(entries: &[(u64, u32)], len: u64) -> History<u32> {
        let mut h = History::new(len);
        for &(k, v) in entries {
            h.insert(k, v);
        }
        h
    }

    fn out(instance: u64, h: Option<History<u32>>, color: Color) -> ChaOutput<u32> {
        ChaOutput {
            instance,
            history: h.map(Box::new),
            color,
        }
    }

    #[test]
    fn clean_trace_passes() {
        let outs: Vec<_> = (1..=3u64)
            .map(|k| {
                let h = history(&(1..=k).map(|i| (i, i as u32 * 10)).collect::<Vec<_>>(), k);
                out(k, Some(h), Color::Green)
            })
            .collect();
        let mut c = ChaSpecChecker::new();
        for k in 1..=3 {
            c.record_proposal(k, k as u32 * 10);
        }
        for node in 0..3 {
            c.record_outputs(node, &outs);
        }
        assert!(c.check_all(true).is_empty());
        assert_eq!(c.liveness_kst(), Some(1));
    }

    #[test]
    fn detects_validity_violation() {
        let o = out(1, Some(history(&[(1, 99)], 1)), Color::Green); // 99 was never proposed
        let mut c = ChaSpecChecker::new();
        c.record_proposal(1, 10);
        c.record_output(0, &o);
        let v = c.check_validity();
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            SpecViolation::Validity {
                entry_instance: 1,
                ..
            }
        ));
    }

    #[test]
    fn detects_agreement_violation_on_values() {
        let a = out(1, Some(history(&[(1, 10)], 1)), Color::Green);
        let b = out(1, Some(history(&[(1, 20)], 1)), Color::Green);
        let mut c = ChaSpecChecker::new();
        c.record_proposal(1, 10);
        c.record_proposal(1, 20);
        c.record_output(0, &a);
        c.record_output(1, &b);
        assert!(!c.check_agreement().is_empty());
        assert!(!c.check_agreement_exhaustive().is_empty());
    }

    #[test]
    fn detects_agreement_violation_on_bottom_placement() {
        // One history includes instance 1, the other outputs ⊥ there:
        // the definition requires h(k) equality including ⊥.
        let a = out(2, Some(history(&[(1, 10), (2, 20)], 2)), Color::Green);
        let b = out(2, Some(history(&[(2, 20)], 2)), Color::Green);
        let mut c = ChaSpecChecker::new();
        c.record_proposal(1, 10);
        c.record_proposal(2, 20);
        c.record_output(0, &a);
        c.record_output(1, &b);
        assert!(!c.check_agreement().is_empty());
    }

    #[test]
    fn bottom_outputs_do_not_constrain_agreement() {
        let a = out(1, Some(history(&[(1, 10)], 1)), Color::Green);
        let b = out(1, None, Color::Yellow);
        let mut c = ChaSpecChecker::new();
        c.record_proposal(1, 10);
        c.record_output(0, &a);
        c.record_output(1, &b);
        assert!(c.check_agreement().is_empty());
    }

    #[test]
    fn adjacent_checker_matches_exhaustive_on_chained_histories() {
        // Build protocol-shaped histories via calculate_history and
        // confirm both checkers accept, then corrupt one and confirm
        // both reject.
        let mut ballots = BTreeMap::new();
        for k in 1..=5u64 {
            ballots.insert(k, Ballot::new(k as u32, k - 1));
        }
        let outs: Vec<_> = (2..=5u64)
            .map(|k| out(k, Some(calculate_history(k, k, &ballots, 0)), Color::Green))
            .collect();
        let corrupt = out(3, Some(history(&[(3, 99)], 3)), Color::Green);
        let mut c = ChaSpecChecker::new();
        for k in 1..=5u64 {
            c.record_proposal(k, k as u32);
        }
        for node in 0..4usize {
            c.record_outputs(node, &outs);
        }
        assert!(c.check_agreement().is_empty());
        assert!(c.check_agreement_exhaustive().is_empty());

        c.record_output(9, &corrupt);
        c.record_proposal(3, 99);
        assert!(!c.check_agreement().is_empty());
        assert!(!c.check_agreement_exhaustive().is_empty());
    }

    #[test]
    fn liveness_found_after_unstable_prefix() {
        // Instance 1 undecided everywhere; 2..4 decided and include
        // everything from 2 on.
        let mut outs = vec![out(1, None, Color::Red)];
        for k in 2..=4u64 {
            let entries: Vec<(u64, u32)> = (2..=k).map(|i| (i, i as u32)).collect();
            outs.push(out(k, Some(history(&entries, k)), Color::Green));
        }
        let mut c = ChaSpecChecker::new();
        for k in 1..=4u64 {
            c.record_proposal(k, k as u32);
        }
        for node in 0..2 {
            c.record_outputs(node, &outs);
        }
        assert_eq!(c.liveness_kst(), Some(2));
        assert!(c.check_all(true).is_empty());
    }

    #[test]
    fn liveness_fails_when_holes_persist() {
        // Node 0 never decides instance 2.
        let outs = [
            out(1, Some(history(&[(1, 1)], 1)), Color::Green),
            out(2, None, Color::Orange),
        ];
        let mut c = ChaSpecChecker::new();
        c.record_proposal(1, 1);
        c.record_proposal(2, 2);
        c.record_outputs(0, &outs);
        assert_eq!(c.liveness_kst(), None);
        assert!(c.check_all(true).contains(&SpecViolation::Liveness));
    }

    #[test]
    fn crashed_nodes_excluded_from_liveness() {
        let a = out(1, Some(history(&[(1, 1)], 1)), Color::Green);
        let b = out(1, None, Color::Red);
        let mut c = ChaSpecChecker::new();
        c.record_proposal(1, 1);
        c.record_output(0, &a);
        c.record_output(1, &b);
        c.mark_crashed(1);
        assert_eq!(c.liveness_kst(), Some(1));
    }

    #[test]
    fn detects_color_spread_violation() {
        let (a, b) = (out(1, None, Color::Red), out(1, None, Color::Yellow));
        let mut c = ChaSpecChecker::new();
        c.record_output(0, &a);
        c.record_output(1, &b);
        let v = c.check_color_spread();
        assert_eq!(v.len(), 1);
        assert!(matches!(
            &v[0],
            SpecViolation::ColorSpread { instance: 1, .. }
        ));
    }

    #[test]
    fn adjacent_shades_pass_property4() {
        let a = out(1, None, Color::Yellow);
        let b = out(1, Some(history(&[], 1)), Color::Green);
        let mut c = ChaSpecChecker::new();
        c.record_output(0, &a);
        c.record_output(1, &b);
        assert!(c.check_color_spread().is_empty());
    }

    /// The irregular recordings the linear passes treat specially,
    /// each against the retained map-of-maps checker (random traces:
    /// `tests/cha_properties.rs`).
    #[test]
    fn matches_reference_on_irregular_traces() {
        type Trace = Vec<(usize, ChaOutput<u32>)>;
        let full = |k: u64| {
            Some(history(
                &(1..=k).map(|i| (i, i as u32)).collect::<Vec<_>>(),
                k,
            ))
        };
        let traces: Vec<(&str, Trace, Option<usize>)> =
            vec![
            (
                "a repeated (node, instance) pair: liveness judges the later one",
                vec![
                    (0, out(1, full(1), Color::Green)),
                    (0, out(2, None, Color::Red)),
                    (0, out(2, full(2), Color::Green)),
                    (1, out(2, full(2), Color::Green)),
                    (1, out(2, None, Color::Orange)),
                ],
                None,
            ),
            (
                "a late joiner and a gap both count as skipped instances",
                vec![
                    (0, out(3, full(3), Color::Green)),
                    (0, out(6, full(6), Color::Green)),
                    (1, out(7, full(7), Color::Green)),
                ],
                None,
            ),
            (
                "a crashed node constrains nothing but still sets the last instance",
                vec![
                    (0, out(1, full(1), Color::Green)),
                    (0, out(2, None, Color::Yellow)),
                    (1, out(3, None, Color::Red)),
                ],
                Some(1),
            ),
            (
                "histories that omit their own instance, or break the run, or hold foreign values",
                vec![
                    (0, out(4, Some(history(&[(1, 1), (2, 2), (3, 3)], 4)), Color::Green)),
                    (1, out(4, Some(history(&[(1, 1), (3, 3), (4, 4)], 4)), Color::Green)),
                    (2, out(4, Some(history(&[(2, 9), (4, 4)], 4)), Color::Red)),
                    (2, out(0, Some(history(&[], 0)), Color::Green)),
                ],
                None,
            ),
        ];
        for (what, trace, crashed) in traces {
            let mut new = ChaSpecChecker::new();
            let mut old = reference::ChaSpecCheckerReference::new();
            for k in 1..=7u64 {
                new.record_proposal(k, k as u32);
                old.record_proposal(k, k as u32);
            }
            for (node, o) in &trace {
                new.record_output(*node, o);
                old.record_output(*node, o);
            }
            if let Some(node) = crashed {
                new.mark_crashed(node);
                old.mark_crashed(node);
            }
            reference::assert_same_verdicts(&new, &old, what);
        }
    }

    #[test]
    fn violations_display_readably() {
        let v = SpecViolation::Agreement {
            a: (0, 3),
            b: (1, 4),
            at: 2,
        };
        let s = v.to_string();
        assert!(s.contains("agreement"));
        assert!(s.contains("instance 2"));
    }
}
