//! Trace checker for the CHA problem definition (Section 3.2) and
//! Property 4.
//!
//! The checker is fed every proposal and output of an execution and
//! verifies:
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
//! Each check exists once, in [`ChaSpecStream`], which is fed a run's
//! outputs in instance order as the nodes make them and keeps only each
//! instance's proposed values (a later history may carry any earlier
//! instance), the last decided history (prefix agreement is transitive
//! in instance order), one `kst` bound per node and one shade mask per
//! instance (`tests/cha_checker_memory.rs`). [`ChaSpecChecker`] checks
//! recorded outputs by borrowing them and feeding them, stably sorted
//! by instance, to one; the map-of-maps checker both replaced is the
//! test-only `reference` module.

use crate::cha::history::{Color, History};
use crate::cha::protocol::ChaOutput;
use std::borrow::Cow;
use std::cell::{OnceCell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

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

/// Liveness of one node: its latest output's instance and lowest `kst`,
/// and the bound its earlier instances and gaps set.
#[derive(Clone, Copy, Debug, Default)]
struct NodeKst {
    at: u64,
    low: u64,
    below: u64,
}

/// A run's checker, shared by its nodes (`ChaNode::with_checker`) the
/// way [`vi_contention::SharedCm`] shares the contention manager.
pub type SharedChaSpec<V> = Rc<RefCell<ChaSpecStream<'static, V>>>;

/// The incremental CHA checker: fed proposals and outputs as a run
/// makes them, it keeps only what each check needs, and its verdicts
/// can be read at any point. Outputs must come in instance order (a
/// node's repeated output for an instance counts for liveness by the
/// later one), and each proposal before any output that includes its
/// instance; a run's rounds give both.
#[derive(Clone, Debug)]
pub struct ChaSpecStream<'a, V: Clone> {
    /// Each instance's proposed values, sorted, one per distinct value.
    proposed: BTreeMap<u64, Vec<V>>,
    validity: Vec<SpecViolation>,
    agreement: Vec<SpecViolation>,
    /// The last decided output checked: node, instance and history.
    prev: Option<(usize, u64, Cow<'a, History<V>>)>,
    liveness: Vec<NodeKst>,
    /// Bit `s` of an instance's mask: some node finished it in shade
    /// `s`. Its last key is the largest instance checked.
    shades: BTreeMap<u64, u8>,
    crashed: BTreeSet<usize>,
    joiners: BTreeSet<usize>,
    checked: usize,
    outputs: usize,
    decided: usize,
    kept: Option<Vec<Vec<ChaOutput<V>>>>,
}

impl<'a, V: Clone + Ord> ChaSpecStream<'a, V> {
    /// An empty checker for a run of `nodes` nodes (its per-node state
    /// is sized once; a node beyond them grows it).
    pub fn new(nodes: usize) -> Self {
        ChaSpecStream {
            proposed: BTreeMap::new(),
            validity: Vec::new(),
            agreement: Vec::new(),
            prev: None,
            liveness: Vec::with_capacity(nodes),
            shades: BTreeMap::new(),
            crashed: BTreeSet::new(),
            joiners: BTreeSet::new(),
            checked: 0,
            outputs: 0,
            decided: 0,
            kept: None,
        }
    }

    /// This checker also keeping each output it is handed, for
    /// [`take_outputs`](Self::take_outputs).
    pub fn keeping_outputs(mut self) -> Self {
        self.kept = Some(Vec::new());
        self
    }

    /// Marks `node` as crashed (excluded from liveness requirements).
    pub fn mark_crashed(&mut self, node: usize) {
        self.crashed.insert(node);
    }

    /// Marks `node` as a checkpoint joiner, outside the Section 3
    /// participant set: no check reads its outputs (they summarize the
    /// pre-join prefix as ⊥), but they count for `decided_fraction`.
    pub fn mark_joiner(&mut self, node: usize) {
        self.joiners.insert(node);
    }

    /// Some node proposed `value` for `instance`.
    pub fn propose(&mut self, instance: u64, value: V) {
        // A new instance is sized like the one before it.
        let room = self.proposed.last_key_value().map_or(0, |(_, vs)| vs.len());
        let values = self
            .proposed
            .entry(instance)
            .or_insert_with(|| Vec::with_capacity(room));
        if let Err(at) = values.binary_search(&value) {
            values.insert(at, value);
        }
    }

    /// `node` produced `out`.
    pub fn output(&mut self, node: usize, out: ChaOutput<V>) {
        if let Some(kept) = &mut self.kept {
            kept.resize_with(kept.len().max(node + 1), Vec::new);
            kept[node].push(out.clone());
        }
        self.observe(node, Cow::Owned(out));
    }

    /// Every check, on one output.
    fn observe(&mut self, node: usize, out: Cow<'a, ChaOutput<V>>) {
        self.outputs += 1;
        self.decided += usize::from(out.decided());
        if self.joiners.contains(&node) {
            return;
        }
        let k = out.instance;
        debug_assert!(
            self.shades.keys().next_back().is_none_or(|&last| last <= k),
            "outputs arrive in instance order"
        );
        self.checked += 1;
        *self.shades.entry(k).or_default() |= 1 << out.color.shade();

        let len = self.liveness.len().max(node + 1);
        self.liveness.resize(len, NodeKst::default());
        let live = &mut self.liveness[node];
        if k != live.at {
            live.below = live.below.max(live.low);
            if k - live.at > 1 {
                live.below = live.below.max(k);
            }
            live.at = k;
        }
        live.low = lowest_kst(&out);

        let history = match out {
            Cow::Borrowed(o) => o.history.as_deref().map(Cow::Borrowed),
            Cow::Owned(o) => o.history.map(|h| Cow::Owned(*h)),
        };
        let Some(h) = history else { return };
        self.validity
            .extend(unproposed(&self.proposed, node, k, &h));
        if let Some((pn, pk, ph)) = &self.prev {
            if let Some(at) = first_disagreement(ph, &h, *pk) {
                self.agreement.push(SpecViolation::Agreement {
                    a: (*pn, *pk),
                    b: (node, k),
                    at,
                });
            }
        }
        self.prev = Some((node, k, h));
    }

    /// Validity violations so far, in the order their outputs came.
    pub fn validity(&self) -> &[SpecViolation] {
        &self.validity
    }

    /// Agreement violations so far: each decided output against the last.
    pub fn agreement(&self) -> &[SpecViolation] {
        &self.agreement
    }

    /// Property 4: each instance whose colors span more than one shade.
    pub fn color_spread(&self) -> Vec<SpecViolation> {
        const BY_SHADE: [Color; 4] = [Color::Red, Color::Orange, Color::Yellow, Color::Green];
        let mut violations = Vec::new();
        for (&instance, &mask) in &self.shades {
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

    /// Liveness: the smallest stabilization instance `kst` such that
    /// from `kst` on, every non-crashed node decided every instance and
    /// included all of `[kst, k]` in its output at `k`; `None` if no
    /// such instance exists among the completed ones.
    ///
    /// An output at `k` that admits no `kst` below `l` (the start of
    /// the unbroken run of included instances ending at `k`, or
    /// `k + 1`) rules out exactly the candidates below `l`, and so does
    /// an instance a node skipped, even before it joined: the answer is
    /// the largest such bound over the live nodes.
    pub fn liveness_kst(&self) -> Option<u64> {
        let (&last, _) = self.shades.last_key_value()?;
        let kst = (self.liveness.iter().enumerate())
            .filter(|(node, _)| !self.crashed.contains(node))
            .map(|(_, live)| live.below.max(live.low))
            .fold(1, u64::max);
        (kst <= last).then_some(kst)
    }

    /// Number of outputs checked (a joiner's are not).
    pub fn output_count(&self) -> usize {
        self.checked
    }

    /// The share of every output handed over, joiners' included, that
    /// decided (0 if there were none).
    pub fn decided_fraction(&self) -> f64 {
        self.decided as f64 / self.outputs.max(1) as f64
    }

    /// The outputs kept so far, indexed by node (none unless
    /// [`keeping_outputs`](Self::keeping_outputs)).
    pub fn take_outputs(&mut self) -> Vec<Vec<ChaOutput<V>>> {
        self.kept.as_mut().map(std::mem::take).unwrap_or_default()
    }
}

/// Records an execution's CHA events and checks them with a
/// [`ChaSpecStream`]: proposals go straight in, and outputs are borrowed
/// where they lie, one slice per recording, until the first check feeds
/// them to a copy of the stream, stably sorted by instance.
#[derive(Clone, Debug)]
pub struct ChaSpecChecker<'a, V: Clone> {
    /// Every proposal and crash recorded, and no output.
    fed: ChaSpecStream<'a, V>,
    /// Every recorded run of one node's outputs, in recording order.
    runs: Vec<(usize, &'a [ChaOutput<V>])>,
    replay: OnceCell<ChaSpecStream<'a, V>>,
}

impl<'a, V: Clone + Ord + fmt::Debug> Default for ChaSpecChecker<'a, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a, V: Clone + Ord + fmt::Debug> ChaSpecChecker<'a, V> {
    /// Creates an empty checker.
    pub fn new() -> Self {
        ChaSpecChecker {
            fed: ChaSpecStream::new(0),
            runs: Vec::new(),
            replay: OnceCell::new(),
        }
    }

    /// Records that some node proposed `value` for `instance`.
    pub fn record_proposal(&mut self, instance: u64, value: V) {
        self.replay.take();
        self.fed.propose(instance, value);
    }

    /// Records outputs (and final colors) `node` produced, one per
    /// instance, in any order. Recording a `(node, instance)` pair
    /// again — in this run or a later one — adds a second output for
    /// validity, agreement and Property 4; liveness judges the node by
    /// the later one.
    pub fn record_outputs(&mut self, node: usize, outs: &'a [ChaOutput<V>]) {
        self.replay.take();
        self.runs.push((node, outs));
    }

    /// [`record_outputs`](Self::record_outputs) for a single output.
    pub fn record_output(&mut self, node: usize, out: &'a ChaOutput<V>) {
        self.record_outputs(node, std::slice::from_ref(out));
    }

    /// Marks `node` as crashed (excluded from liveness requirements).
    pub fn mark_crashed(&mut self, node: usize) {
        self.replay.take();
        self.fed.mark_crashed(node);
    }

    /// Every output as `(node, output)`, in recording order.
    fn outputs(&self) -> impl Iterator<Item = (usize, &'a ChaOutput<V>)> + '_ {
        self.runs
            .iter()
            .flat_map(|&(node, run)| run.iter().map(move |o| (node, o)))
    }

    /// The recorded proposals, crashes and outputs, fed to one stream.
    fn replayed(&self) -> &ChaSpecStream<'a, V> {
        self.replay.get_or_init(|| {
            let mut stream = self.fed.clone();
            let mut order: Vec<_> = self.outputs().collect();
            order.sort_by_key(|&(_, o)| o.instance);
            for (node, o) in order {
                stream.observe(node, Cow::Borrowed(o));
            }
            stream
        })
    }

    /// Validity: every included history entry was proposed by someone.
    /// Violations come in recording order.
    pub fn check_validity(&self) -> Vec<SpecViolation> {
        let decided = self
            .outputs()
            .filter_map(|(node, o)| o.history.as_deref().map(|h| (node, o.instance, h)));
        decided
            .flat_map(|(node, k, h)| unproposed(&self.fed.proposed, node, k, h))
            .collect()
    }

    /// Agreement, in `O(m · len)` via sorted adjacent comparison.
    pub fn check_agreement(&self) -> Vec<SpecViolation> {
        self.replayed().agreement().to_vec()
    }

    /// Liveness: see [`ChaSpecStream::liveness_kst`].
    pub fn liveness_kst(&self) -> Option<u64> {
        self.replayed().liveness_kst()
    }

    /// Property 4: per-instance color spread is at most one shade.
    pub fn check_color_spread(&self) -> Vec<SpecViolation> {
        self.replayed().color_spread()
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

/// The entries of `h`, node `node`'s output at instance `k`, whose
/// value nobody proposed for their instance.
fn unproposed<'s, V: Ord>(
    proposed: &'s BTreeMap<u64, Vec<V>>,
    node: usize,
    k: u64,
    h: &'s History<V>,
) -> impl Iterator<Item = SpecViolation> + 's {
    h.iter()
        .filter(|(i, v)| {
            proposed
                .get(i)
                .is_none_or(|vs| vs.binary_search(v).is_err())
        })
        .map(move |(entry_instance, _)| SpecViolation::Validity {
            node,
            output_instance: k,
            entry_instance,
        })
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
        let mut exhaustive = reference::ChaSpecCheckerReference::new();
        exhaustive.record_output(0, &a);
        exhaustive.record_output(1, &b);
        assert!(!exhaustive.check_agreement_exhaustive().is_empty());
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
        let mut exhaustive = reference::ChaSpecCheckerReference::new();
        for k in 1..=5u64 {
            c.record_proposal(k, k as u32);
        }
        for node in 0..4usize {
            c.record_outputs(node, &outs);
            for o in &outs {
                exhaustive.record_output(node, o);
            }
        }
        assert!(c.check_agreement().is_empty());
        assert!(exhaustive.check_agreement_exhaustive().is_empty());

        c.record_output(9, &corrupt);
        c.record_proposal(3, 99);
        exhaustive.record_output(9, &corrupt);
        assert!(!c.check_agreement().is_empty());
        assert!(!exhaustive.check_agreement_exhaustive().is_empty());
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
