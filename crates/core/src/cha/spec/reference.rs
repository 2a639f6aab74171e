//! The map-of-maps CHA trace checker the linear one in the parent
//! module replaced, kept verbatim as the differential oracle (the way
//! `linearizability/reference.rs` serves the register check). Recording
//! clones every history twice, validity scans every proposal of an
//! instance per entry and liveness is a `kst × node × k × k2` loop, so
//! it is compiled into tests only: vi-core's unit tests declare it
//! under `#[cfg(test)]`, and `tests/cha_properties.rs` includes this
//! file by path. It therefore uses nothing but what the parent module
//! has in scope from the crate's public items. Both compare through
//! [`assert_same_verdicts`].

use super::{ChaOutput, ChaSpecChecker, Color, History, SpecViolation};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// [`super::ChaSpecChecker`] as it was before the rewrite, same method
/// names and signatures (recording still copies: it owns its inputs).
#[derive(Clone, Debug, Default)]
pub struct ChaSpecCheckerReference<V> {
    proposals: BTreeMap<u64, Vec<V>>,
    outputs: Vec<(usize, u64, Option<History<V>>)>,
    colors: BTreeMap<u64, Vec<Color>>,
    crashed: BTreeSet<usize>,
    /// Outputs per live node, keyed by instance, for liveness.
    by_node: BTreeMap<usize, BTreeMap<u64, Option<History<V>>>>,
}

impl<V: Clone + Eq + fmt::Debug> ChaSpecCheckerReference<V> {
    /// Creates an empty checker.
    pub fn new() -> Self {
        ChaSpecCheckerReference {
            proposals: BTreeMap::new(),
            outputs: Vec::new(),
            colors: BTreeMap::new(),
            crashed: BTreeSet::new(),
            by_node: BTreeMap::new(),
        }
    }

    /// Records that `node` proposed `value` for `instance`.
    pub fn record_proposal(&mut self, instance: u64, value: V) {
        self.proposals.entry(instance).or_default().push(value);
    }

    /// Records the output (and final color) `node` produced for one
    /// instance.
    pub fn record_output(&mut self, node: usize, out: &ChaOutput<V>) {
        let history = out.history.as_deref().cloned();
        self.outputs.push((node, out.instance, history.clone()));
        self.colors.entry(out.instance).or_default().push(out.color);
        self.by_node
            .entry(node)
            .or_default()
            .insert(out.instance, history);
    }

    /// Marks `node` as crashed (excluded from liveness requirements).
    pub fn mark_crashed(&mut self, node: usize) {
        self.crashed.insert(node);
    }

    /// Validity: every included history entry was proposed by someone.
    pub fn check_validity(&self) -> Vec<SpecViolation> {
        let mut violations = Vec::new();
        for (node, output_instance, history) in &self.outputs {
            let Some(h) = history else { continue };
            for (entry_instance, value) in h.iter() {
                let proposed = self
                    .proposals
                    .get(&entry_instance)
                    .is_some_and(|vs| vs.contains(value));
                if !proposed {
                    violations.push(SpecViolation::Validity {
                        node: *node,
                        output_instance: *output_instance,
                        entry_instance,
                    });
                }
            }
        }
        violations
    }

    /// Agreement, in `O(m · len)` via sorted adjacent comparison.
    pub fn check_agreement(&self) -> Vec<SpecViolation> {
        let mut decided: Vec<(usize, u64, &History<V>)> = self
            .outputs
            .iter()
            .filter_map(|(n, k, h)| h.as_ref().map(|h| (*n, *k, h)))
            .collect();
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
    /// cross-validate [`ChaSpecCheckerReference::check_agreement`] on
    /// small traces).
    pub fn check_agreement_exhaustive(&self) -> Vec<SpecViolation> {
        let decided: Vec<(usize, u64, &History<V>)> = self
            .outputs
            .iter()
            .filter_map(|(n, k, h)| h.as_ref().map(|h| (*n, *k, h)))
            .collect();
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
    pub fn liveness_kst(&self) -> Option<u64> {
        let last = self.outputs.iter().map(|(_, k, _)| *k).max()?;
        'candidate: for kst in 1..=last {
            for (node, outs) in &self.by_node {
                if self.crashed.contains(node) {
                    continue;
                }
                // The node may have joined late; only require instances
                // it actually ran.
                let node_last = *outs.keys().max().expect("nonempty");
                for k in kst..=node_last {
                    let Some(h) = outs.get(&k).and_then(|o| o.as_ref()) else {
                        continue 'candidate;
                    };
                    for k2 in kst..=k {
                        if !h.includes(k2) {
                            continue 'candidate;
                        }
                    }
                }
            }
            return Some(kst);
        }
        None
    }

    /// Property 4: per-instance color spread is at most one shade.
    pub fn check_color_spread(&self) -> Vec<SpecViolation> {
        let mut violations = Vec::new();
        for (&instance, colors) in &self.colors {
            let max = colors.iter().map(|c| c.shade()).max().unwrap_or(0);
            let min = colors.iter().map(|c| c.shade()).min().unwrap_or(0);
            if max - min > 1 {
                let mut distinct: Vec<Color> = colors.clone();
                distinct.sort();
                distinct.dedup();
                violations.push(SpecViolation::ColorSpread {
                    instance,
                    colors: distinct,
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
        self.outputs.len()
    }
}

/// First instance `<= upto` where the two histories differ, if any.
fn first_disagreement<V: Eq>(a: &History<V>, b: &History<V>, upto: u64) -> Option<u64> {
    (1..=upto).find(|&k| a.get(k) != b.get(k))
}

/// Panics unless the two checkers — fed the same events — return the
/// same verdicts: every violation list equal element for element, the
/// same `kst`.
pub fn assert_same_verdicts<V: Clone + Ord + fmt::Debug>(
    new: &ChaSpecChecker<'_, V>,
    old: &ChaSpecCheckerReference<V>,
    what: &str,
) {
    assert_eq!(new.output_count(), old.output_count(), "{what}");
    assert_eq!(new.check_validity(), old.check_validity(), "{what}");
    assert_eq!(new.check_agreement(), old.check_agreement(), "{what}");
    assert_eq!(new.check_color_spread(), old.check_color_spread(), "{what}");
    assert_eq!(new.liveness_kst(), old.liveness_kst(), "{what}");
    assert_eq!(new.check_all(true), old.check_all(true), "{what}");
}
