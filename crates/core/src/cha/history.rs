//! Colors, ballots, histories, and the `calculate-history` function
//! (Figure 1, lines 46–54 of the paper).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The status a node assigns to an agreement instance.
///
/// "There are four possible colors: red < orange < yellow < green.
/// The color reflects each node's local knowledge about the other
/// nodes' knowledge regarding the status of the instance." An
/// instance is *good* at a node if it is yellow or green there.
///
/// The ordering is derived so that [`Ord::min`] yields the *worse*
/// color, matching the pseudocode's `min(orange, status)` downgrades.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Color {
    /// No ballot received (or a collision in the ballot phase).
    Red,
    /// Ballot received, but a veto/collision in the veto-1 phase.
    Orange,
    /// Clean through veto-1, but a veto/collision in the veto-2 phase.
    Yellow,
    /// Clean through all three phases: the node outputs a history.
    Green,
}

impl Color {
    /// An instance is *good* if yellow or green; good instances update
    /// the node's `prev-instance` pointer.
    pub fn is_good(self) -> bool {
        matches!(self, Color::Yellow | Color::Green)
    }

    /// Numeric shade, for Property 4's "differ by at most one shade".
    pub fn shade(self) -> u8 {
        match self {
            Color::Red => 0,
            Color::Orange => 1,
            Color::Yellow => 2,
            Color::Green => 3,
        }
    }
}

impl fmt::Display for Color {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Color::Red => "red",
            Color::Orange => "orange",
            Color::Yellow => "yellow",
            Color::Green => "green",
        };
        f.write_str(s)
    }
}

/// A ballot: the proposal for the current instance together with the
/// proposer's `prev-instance` pointer (Figure 1, line 16).
///
/// This is the *entire* variable-length content of a CHAP message —
/// one value plus one instance index — which is how the protocol
/// achieves Theorem 14's constant message size (the paper treats an
/// array index as constant size).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Ballot<V> {
    /// The proposed value for this instance.
    pub value: V,
    /// The proposer's most recent *good* instance (0 = none).
    pub prev: u64,
}

impl<V> Ballot<V> {
    /// Creates a ballot.
    pub fn new(value: V, prev: u64) -> Self {
        Ballot { value, prev }
    }
}

impl<V: Ord> Ballot<V> {
    /// The minimum of the ballots `heard`, as the one-element (or
    /// empty) slice `ChaProtocol::on_ballot_phase` takes. Only the
    /// minimum is ever adopted, so receivers fold it by reference
    /// instead of collecting (and cloning) every ballot heard.
    pub fn min_heard<'a>(heard: impl Iterator<Item = &'a Self>) -> &'a [Self]
    where
        V: 'a,
    {
        heard.min().map_or(&[], std::slice::from_ref)
    }
}

/// A history: a mapping from instances `1..=len` to either a value or
/// ⊥ (absent).
///
/// Histories are what CHA instances output. Instance `k` is *included*
/// in the history if `h(k) != ⊥`; included instances carry the value
/// agreed for that instance, and excluded ones denote virtual rounds
/// in which the virtual node detects a collision.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct History<V> {
    len: u64,
    entries: BTreeMap<u64, V>,
}

impl<V> History<V> {
    /// Creates the all-⊥ history over instances `1..=len`.
    pub fn new(len: u64) -> Self {
        History {
            len,
            entries: BTreeMap::new(),
        }
    }

    /// The largest instance this history covers.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` if the history covers no instances at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `h(k)`: the value at instance `k`, or `None` for ⊥ (also
    /// `None` beyond `len`).
    pub fn get(&self, k: u64) -> Option<&V> {
        self.entries.get(&k)
    }

    /// Whether instance `k` is included (`h(k) != ⊥`).
    pub fn includes(&self, k: u64) -> bool {
        self.entries.contains_key(&k)
    }

    /// Number of included instances.
    pub fn included_count(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over `(instance, value)` for included instances, in
    /// instance order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.entries.iter().map(|(&k, v)| (k, v))
    }

    /// Inserts an included entry (used by `calculate-history` and by
    /// checkpoint reconstruction).
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or beyond the history length.
    pub fn insert(&mut self, k: u64, value: V) {
        assert!(
            k >= 1 && k <= self.len,
            "instance {k} out of 1..={}",
            self.len
        );
        self.entries.insert(k, value);
    }
}

impl<V: PartialEq> History<V> {
    /// Checks the Agreement relation on the common prefix: for every
    /// `k <= upto`, `self(k) == other(k)` (both values *and* ⊥-ness
    /// must match).
    pub fn agrees_with(&self, other: &History<V>, upto: u64) -> bool {
        for k in 1..=upto {
            if self.get(k) != other.get(k) {
                return false;
            }
        }
        true
    }
}

/// The `calculate-history` function (Figure 1, lines 46–54), extended
/// with a checkpoint `floor` for the Section 3.5 garbage-collected
/// variant (pass `floor = 0` for the plain protocol).
///
/// Starting from `prev` (the caller's most recent good instance), the
/// chain of `prev` pointers is followed backward through the ballot
/// array; every instance on the chain is included with its ballot
/// value and every other instance maps to ⊥. With a nonzero `floor`,
/// the walk stops at the checkpoint: instances `<= floor` are
/// summarized by the checkpoint and excluded from the returned
/// history.
///
/// Under the paper's model the chain always resolves: Lemma 5's
/// one-shade spread guarantees every non-red node stores the ballots
/// the chain visits, and Lemma 9 guarantees the chain passes through
/// every green (checkpointed) instance. If state is nevertheless
/// missing — possible only *outside* the model, e.g. under the broken
/// collision detectors of the E13 necessity ablation — the walk stops
/// and the unreachable prefix resolves to ⊥, so the damage surfaces as
/// checker-visible disagreement rather than a crash.
///
/// No production path calls this: a
/// [`ChaProtocol`](crate::cha::ChaProtocol) keeps its ballots in a
/// flat, sparse list, not a tree, and walks the chain there. This
/// function is the **executable specification** that window is tested
/// against (`window_matches_the_tree_model` in `cha/protocol.rs`), as
/// `resolve_round_reference` is for vi-radio's `Medium`.
///
/// # Example
///
/// ```
/// use std::collections::BTreeMap;
/// use vi_core::cha::{calculate_history, Ballot};
///
/// // Chain 3 -> 1 (instance 2 never became good anywhere).
/// let mut ballots = BTreeMap::new();
/// ballots.insert(1, Ballot::new("a", 0));
/// ballots.insert(3, Ballot::new("c", 1));
/// let h = calculate_history(3, 3, &ballots, 0);
/// assert_eq!(h.get(1), Some(&"a"));
/// assert_eq!(h.get(2), None); // ⊥
/// assert_eq!(h.get(3), Some(&"c"));
/// ```
pub fn calculate_history<V: Clone>(
    instance: u64,
    prev: u64,
    ballots: &BTreeMap<u64, Ballot<V>>,
    floor: u64,
) -> History<V> {
    let mut history = History::new(instance);
    walk_prev_chain(prev, floor, |k| {
        let ballot = ballots.get(&k)?;
        history.insert(k, ballot.value.clone());
        Some(ballot.prev)
    });
    history
}

/// Walks the `prev` chain from `prev` down to `floor`, newest first:
/// the one walk behind [`calculate_history`] and, over
/// [`ChaProtocol`](crate::cha::ChaProtocol)'s ballot list,
/// `current_history` and `fold_decided`. `visit(k)` is called once per
/// chain instance `k > floor` and returns the `prev` pointer of the
/// ballot stored for `k`, or `None` if there is none — a missing
/// ballot is unreachable under the model and ends the walk (see
/// [`calculate_history`]).
pub(crate) fn walk_prev_chain(prev: u64, floor: u64, mut visit: impl FnMut(u64) -> Option<u64>) {
    let mut cursor = prev;
    while cursor > floor {
        let Some(ballot_prev) = visit(cursor) else {
            return;
        };
        // A `prev` pointer that fails to decrease can only come from
        // mixing ballots of nodes with inconsistent instance numbering
        // (e.g. a node spawned mid-run with a fresh counter instead of
        // a checkpoint) — outside the model, where every adopted
        // ballot's `prev` precedes the instance it was heard in. Stop
        // after this instance rather than chase a cycle; the truncated
        // prefix resolves to ⊥ and surfaces as checker-visible
        // disagreement.
        cursor = if ballot_prev < cursor {
            ballot_prev
        } else {
            floor
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn color_order_matches_paper() {
        assert!(Color::Red < Color::Orange);
        assert!(Color::Orange < Color::Yellow);
        assert!(Color::Yellow < Color::Green);
        // min() is the downgrade operator.
        assert_eq!(Color::Orange.min(Color::Green), Color::Orange);
        assert_eq!(Color::Red.min(Color::Orange), Color::Red);
    }

    #[test]
    fn goodness() {
        assert!(!Color::Red.is_good());
        assert!(!Color::Orange.is_good());
        assert!(Color::Yellow.is_good());
        assert!(Color::Green.is_good());
    }

    #[test]
    fn shades_are_adjacent_ranks() {
        let shades: Vec<u8> = [Color::Red, Color::Orange, Color::Yellow, Color::Green]
            .iter()
            .map(|c| c.shade())
            .collect();
        assert_eq!(shades, vec![0, 1, 2, 3]);
    }

    fn ballots(entries: &[(u64, u32, u64)]) -> BTreeMap<u64, Ballot<u32>> {
        entries
            .iter()
            .map(|&(k, v, prev)| (k, Ballot::new(v, prev)))
            .collect()
    }

    #[test]
    fn calculate_follows_chain() {
        // Chain: 5 -> 3 -> 1 -> 0. Instances 2 and 4 are ⊥.
        let b = ballots(&[(1, 10, 0), (2, 20, 1), (3, 30, 1), (4, 40, 3), (5, 50, 3)]);
        let h = calculate_history(5, 5, &b, 0);
        assert_eq!(h.len(), 5);
        assert_eq!(h.get(5), Some(&50));
        assert_eq!(h.get(4), None);
        assert_eq!(h.get(3), Some(&30));
        assert_eq!(h.get(2), None);
        assert_eq!(h.get(1), Some(&10));
        assert_eq!(h.included_count(), 3);
    }

    #[test]
    fn calculate_with_stale_prev_excludes_current() {
        // Current instance 6 was bad; prev points to 3.
        let b = ballots(&[(1, 10, 0), (3, 30, 1), (6, 60, 3)]);
        let h = calculate_history(6, 3, &b, 0);
        assert_eq!(h.len(), 6);
        assert!(!h.includes(6));
        assert!(h.includes(3));
        assert!(h.includes(1));
    }

    #[test]
    fn calculate_with_floor_stops_at_checkpoint() {
        let b = ballots(&[(4, 40, 3), (5, 50, 4)]);
        let h = calculate_history(5, 5, &b, 3);
        assert!(h.includes(5) && h.includes(4));
        assert!(!h.includes(3), "at/below floor is summarized elsewhere");
    }

    #[test]
    fn calculate_stops_at_missing_chain_ballot() {
        // A broken chain (impossible under the model, reachable in the
        // E13 ablation) resolves the unreachable prefix to ⊥.
        let b = ballots(&[(5, 50, 3)]);
        let h = calculate_history(5, 5, &b, 0);
        assert!(h.includes(5));
        assert!(!h.includes(3), "unreachable prefix is ⊥");
        assert_eq!(h.included_count(), 1);
    }

    #[test]
    fn calculate_terminates_on_cyclic_prev_chain() {
        // A `prev` pointer that does not decrease (self-loop 4 -> 4 or
        // back-edge 3 -> 4) can only arise when nodes with
        // inconsistent instance numbering exchange ballots — outside
        // the model. The walk must terminate instead of spinning.
        let b = ballots(&[(5, 50, 4), (4, 40, 4)]);
        let h = calculate_history(5, 5, &b, 0);
        assert!(h.includes(5) && h.includes(4));
        assert_eq!(h.included_count(), 2, "cycle truncates the prefix");

        let b = ballots(&[(5, 50, 3), (3, 30, 4), (4, 40, 3)]);
        let h = calculate_history(5, 5, &b, 0);
        assert!(h.includes(5) && h.includes(3));
        assert!(!h.includes(4), "back-edge stops the walk");
    }

    #[test]
    fn calculate_stops_below_skipped_floor() {
        // Chain 5 -> 2 skips floor 3 (contradicting Lemma 9 — again
        // only reachable outside the model): the walk stops at the
        // first at-or-below-floor pointer.
        let b = ballots(&[(5, 50, 2), (2, 20, 0)]);
        let h = calculate_history(5, 5, &b, 3);
        assert!(h.includes(5));
        assert!(!h.includes(2), "below-floor instances stay excluded");
    }

    #[test]
    fn empty_history() {
        let h = History::<u32>::new(0);
        assert!(h.is_empty());
        assert_eq!(h.get(1), None);
    }

    #[test]
    fn agreement_relation() {
        let b = ballots(&[(1, 10, 0), (3, 30, 1), (5, 50, 3)]);
        let h5 = calculate_history(5, 5, &b, 0);
        let h3 = calculate_history(3, 3, &b, 0);
        assert!(h5.agrees_with(&h3, 3));
        assert!(h3.agrees_with(&h5, 3));

        let mut divergent = History::new(3);
        divergent.insert(2, 99);
        assert!(!h5.agrees_with(&divergent, 3));
    }

    #[test]
    #[should_panic(expected = "out of 1..=")]
    fn insert_rejects_out_of_range() {
        let mut h = History::new(2);
        h.insert(3, 1u32);
    }

    #[test]
    fn ballot_ordering_is_lexicographic() {
        // min(M) ballot adoption relies on the derived Ord.
        let a = Ballot::new(1u32, 7);
        let b = Ballot::new(2u32, 0);
        assert!(a < b, "value dominates");
        let c = Ballot::new(1u32, 3);
        assert!(c < a, "prev breaks ties");
    }
}
