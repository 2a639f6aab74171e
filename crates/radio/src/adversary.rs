//! Adversarial network misbehaviour.
//!
//! The paper's channel misbehaves before stabilization: "Communication
//! is prone to collisions, which can occur for arbitrary and
//! unpredictable reasons. As a result ... each node can fail to
//! receive an arbitrary subset of messages ... collisions may affect
//! nodes in a non-uniform way." Likewise collision detectors may emit
//! false positives before the accuracy round `racc`.
//!
//! An [`Adversary`] decides, per round, which otherwise-deliverable
//! messages to destroy (consulted only for rounds before
//! [`RadioConfig::rcf`](crate::RadioConfig)) and which nodes receive
//! spurious collision indications (consulted only before
//! [`RadioConfig::racc`](crate::RadioConfig)). The channel enforces
//! these scoping rules itself, so no adversary implementation can
//! violate the model's eventual guarantees; completeness (Property 1)
//! is likewise enforced structurally and is out of the adversary's
//! reach.

use crate::engine::NodeId;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::ops::Range;

/// Decides pre-stabilization message drops and spurious collision
/// indications.
pub trait Adversary {
    /// Returns `true` to destroy the delivery of the message broadcast
    /// by `src` to receiver `dst` in `round`. Only consulted for
    /// `round < rcf`.
    fn drop_message(&mut self, round: u64, src: NodeId, dst: NodeId, rng: &mut StdRng) -> bool;

    /// Returns `true` to make `node`'s collision detector report a
    /// (possibly false) collision in `round`. Only consulted for
    /// `round < racc`.
    fn spurious_collision(&mut self, round: u64, node: NodeId, rng: &mut StdRng) -> bool;

    /// **Model-violation hook** for the detector-necessity ablation
    /// (experiment E13): returns `true` to *suppress* a collision
    /// report that Property 1 would otherwise force at `node`. The
    /// paper's model guarantees completeness unconditionally — and
    /// consensus is impossible without it (Section 1.1, refs [7, 8]) —
    /// so every normal adversary keeps the default `false`; only
    /// [`AdversaryKind::BrokenDetector`] overrides it, to demonstrate
    /// empirically why the guarantee is load-bearing.
    fn suppress_detection(&mut self, _round: u64, _node: NodeId, _rng: &mut StdRng) -> bool {
        false
    }
}

/// The channel adversary of a run, as data: usable in scenario specs
/// and experiment configs, mutated by the fuzzer, composed by nemesis
/// schedules, and itself the [`Adversary`] the engine consults.
///
/// A deserialized description bypasses every constructor, so call
/// [`AdversaryKind::validate`] before installing one from outside the
/// program ([`AdversaryKind::build`] panics on what it rejects).
///
/// The draw contract (README "Determinism rules", rule 2, pinned by
/// `each_kind_draws_a_fixed_number_of_values_per_call`): every call
/// draws a fixed number of values whatever its verdict, so a run's RNG
/// stream depends on the queries alone.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum AdversaryKind {
    /// No misbehaviour: never drops, never lies, draws nothing.
    None,
    /// Random loss: `(drop probability, spurious-collision
    /// probability)`, one draw per delivery and per (node, round).
    Random(f64, f64),
    /// Total loss, and a collision indication at every node, during
    /// the given round ranges — the paper's "alternating periods of
    /// stability and instability". Draws nothing.
    Burst(Vec<Range<u64>>),
    /// Random loss `(drop_p)` **plus a broken collision detector**
    /// that misses forced reports with probability `miss_p` — a
    /// deliberate model violation for the E13 necessity ablation.
    /// Draws once per delivery, once per spurious check (with
    /// probability 0) and once per forced report.
    BrokenDetector {
        /// Per-delivery drop probability.
        drop_p: f64,
        /// Per-(node, round) detection-suppression probability.
        miss_p: f64,
    },
    /// Random loss scoped to round windows: outside every window the
    /// channel behaves perfectly and draws no randomness, so prefixing
    /// a quiet run with an empty schedule never perturbs it. The
    /// building block nemesis fault schedules compile
    /// detector-corruption windows into.
    WindowedRandom {
        /// Rounds during which the loss probabilities apply.
        windows: Vec<Range<u64>>,
        /// Per-delivery drop probability inside a window.
        drop_p: f64,
        /// Per-node-per-round spurious collision probability inside a
        /// window.
        spurious_p: f64,
    },
    /// The union of several adversaries: a delivery is destroyed if
    /// *any* member drops it, and a node sees a spurious indication if
    /// *any* member injects one (empty behaves like `None`). Every
    /// member is always consulted, so the RNG stream is independent of
    /// the individual verdicts. Nemesis fault schedules compile to a
    /// composition over the scenario's base adversary.
    Compose(Vec<AdversaryKind>),
}

impl AdversaryKind {
    /// Checks every probability lies in `[0, 1]` and every window is
    /// non-empty, recursively through [`AdversaryKind::Compose`].
    pub fn validate(&self) -> Result<(), String> {
        let probs = |ps: [f64; 2]| {
            ps.iter()
                .all(|p| (0.0..=1.0).contains(p))
                .then_some(())
                .ok_or_else(|| String::from("adversary probability outside [0, 1]"))
        };
        let windows = |ws: &[Range<u64>]| {
            ws.iter()
                .all(|w| w.start < w.end)
                .then_some(())
                .ok_or_else(|| String::from("adversary window inverted or empty (end <= start)"))
        };
        match self {
            AdversaryKind::None => Ok(()),
            AdversaryKind::Random(d, s) => probs([*d, *s]),
            AdversaryKind::Burst(ws) => windows(ws),
            AdversaryKind::BrokenDetector { drop_p, miss_p } => probs([*drop_p, *miss_p]),
            AdversaryKind::WindowedRandom {
                windows: ws,
                drop_p,
                spurious_p,
            } => probs([*drop_p, *spurious_p]).and_then(|()| windows(ws)),
            AdversaryKind::Compose(members) => members.iter().try_for_each(AdversaryKind::validate),
        }
    }

    /// A fresh boxed copy of the described adversary.
    ///
    /// # Panics
    ///
    /// Panics with the [`AdversaryKind::validate`] message if the
    /// description is invalid.
    pub fn build(&self) -> Box<dyn Adversary> {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        Box::new(self.clone())
    }
}

/// Returns `true` if `round` falls inside one of `windows`.
fn active(windows: &[Range<u64>], round: u64) -> bool {
    windows.iter().any(|w| w.contains(&round))
}

// `Compose` folds with `|`, not `||`: every member is consulted (and
// draws) whatever the earlier members said. The trait fixes the
// signatures; only `Compose` passes the endpoints on, to its members.
#[allow(clippy::only_used_in_recursion)]
impl Adversary for AdversaryKind {
    fn drop_message(&mut self, round: u64, src: NodeId, dst: NodeId, rng: &mut StdRng) -> bool {
        match self {
            AdversaryKind::None => false,
            AdversaryKind::Random(p, _) | AdversaryKind::BrokenDetector { drop_p: p, .. } => {
                rng.random_bool(*p)
            }
            AdversaryKind::Burst(windows) => active(windows, round),
            AdversaryKind::WindowedRandom {
                windows, drop_p, ..
            } => active(windows, round) && rng.random_bool(*drop_p),
            AdversaryKind::Compose(members) => members
                .iter_mut()
                .fold(false, |any, m| any | m.drop_message(round, src, dst, rng)),
        }
    }

    fn spurious_collision(&mut self, round: u64, node: NodeId, rng: &mut StdRng) -> bool {
        match self {
            AdversaryKind::None => false,
            AdversaryKind::Random(_, p) => rng.random_bool(*p),
            // A broken detector is random loss with no spurious
            // indications; its zero-probability draw stays in the
            // stream.
            AdversaryKind::BrokenDetector { .. } => rng.random_bool(0.0),
            AdversaryKind::Burst(windows) => active(windows, round),
            AdversaryKind::WindowedRandom {
                windows,
                spurious_p,
                ..
            } => active(windows, round) && rng.random_bool(*spurious_p),
            AdversaryKind::Compose(members) => members
                .iter_mut()
                .fold(false, |any, m| any | m.spurious_collision(round, node, rng)),
        }
    }

    fn suppress_detection(&mut self, round: u64, node: NodeId, rng: &mut StdRng) -> bool {
        match self {
            AdversaryKind::BrokenDetector { miss_p, .. } => rng.random_bool(*miss_p),
            AdversaryKind::Compose(members) => members
                .iter_mut()
                .fold(false, |any, m| any | m.suppress_detection(round, node, rng)),
            _ => false,
        }
    }
}

/// A fully scripted adversary: exact (round, src, dst) drops and
/// (round, node) spurious indications.
///
/// Used by the E12 ablation's lossy pre-commit, the majority-register
/// workload's partition, the footnote-2 scenario of
/// `tests/footnote2.rs` and the `audit_demo` example.
#[derive(Clone, Debug, Default)]
pub struct ScriptedAdversary {
    drops: HashSet<(u64, NodeId, NodeId)>,
    drops_to: HashSet<(u64, NodeId)>,
    spurious: HashSet<(u64, NodeId)>,
}

impl ScriptedAdversary {
    /// Creates an empty script (equivalent to [`AdversaryKind::None`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules the drop of the message from `src` to `dst` in
    /// `round`.
    pub fn drop(&mut self, round: u64, src: NodeId, dst: NodeId) -> &mut Self {
        self.drops.insert((round, src, dst));
        self
    }

    /// Schedules the drop of *every* message addressed to `dst` in
    /// `round` (regardless of sender).
    pub fn drop_all_to(&mut self, round: u64, dst: NodeId) -> &mut Self {
        self.drops_to.insert((round, dst));
        self
    }

    /// Schedules a spurious collision indication at `node` in `round`.
    pub fn inject_collision(&mut self, round: u64, node: NodeId) -> &mut Self {
        self.spurious.insert((round, node));
        self
    }
}

impl Adversary for ScriptedAdversary {
    fn drop_message(&mut self, round: u64, src: NodeId, dst: NodeId, _rng: &mut StdRng) -> bool {
        self.drops.contains(&(round, src, dst)) || self.drops_to.contains(&(round, dst))
    }

    fn spurious_collision(&mut self, round: u64, node: NodeId, _rng: &mut StdRng) -> bool {
        self.spurious.contains(&(round, node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn no_adversary_is_benign() {
        let mut a = AdversaryKind::None;
        let mut rng = rng();
        assert!(!a.drop_message(0, NodeId::from(0), NodeId::from(1), &mut rng));
        assert!(!a.spurious_collision(0, NodeId::from(0), &mut rng));
    }

    #[test]
    fn random_loss_extremes() {
        let mut always = AdversaryKind::Random(1.0, 1.0);
        let mut never = AdversaryKind::Random(0.0, 0.0);
        let mut rng = rng();
        for _ in 0..32 {
            assert!(always.drop_message(0, NodeId::from(0), NodeId::from(1), &mut rng));
            assert!(always.spurious_collision(0, NodeId::from(0), &mut rng));
            assert!(!never.drop_message(0, NodeId::from(0), NodeId::from(1), &mut rng));
            assert!(!never.spurious_collision(0, NodeId::from(0), &mut rng));
        }
    }

    #[test]
    fn random_loss_rate_is_approximate() {
        let mut a = AdversaryKind::Random(0.3, 0.0);
        let mut rng = rng();
        let n = 10_000;
        let dropped = (0..n)
            .filter(|_| a.drop_message(0, NodeId::from(0), NodeId::from(1), &mut rng))
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate} far from 0.3");
    }

    #[test]
    #[should_panic(expected = "adversary probability outside [0, 1]")]
    fn random_loss_rejects_bad_probability() {
        let _ = AdversaryKind::Random(1.5, 0.0).build();
    }

    #[test]
    fn burst_is_active_only_in_ranges() {
        let mut a = AdversaryKind::Burst(vec![5..10, 20..21]);
        let mut rng = rng();
        let src = NodeId::from(0);
        let dst = NodeId::from(1);
        assert!(!a.drop_message(4, src, dst, &mut rng));
        assert!(a.drop_message(5, src, dst, &mut rng));
        assert!(a.drop_message(9, src, dst, &mut rng));
        assert!(!a.drop_message(10, src, dst, &mut rng));
        assert!(a.spurious_collision(20, src, &mut rng));
        assert!(!a.spurious_collision(21, src, &mut rng));
    }

    #[test]
    fn adversary_kind_round_trips_and_builds() {
        let kinds = vec![
            AdversaryKind::None,
            AdversaryKind::Random(0.4, 0.1),
            AdversaryKind::Burst(vec![3..9, 20..21]),
            AdversaryKind::BrokenDetector {
                drop_p: 0.35,
                miss_p: 0.7,
            },
        ];
        let round: Vec<AdversaryKind> =
            Deserialize::from_value(&Serialize::to_value(&kinds)).unwrap();
        assert_eq!(round, kinds);
        let mut rng = rng();
        // The burst description builds a burst adversary with the same
        // active windows.
        let mut built = kinds[2].build();
        assert!(built.drop_message(3, NodeId::from(0), NodeId::from(1), &mut rng));
        assert!(!built.drop_message(9, NodeId::from(0), NodeId::from(1), &mut rng));
        // The broken-detector description is the only one that can
        // suppress forced reports.
        let mut faulty = kinds[3].build();
        let suppressed = (0..200)
            .filter(|_| faulty.suppress_detection(0, NodeId::from(0), &mut rng))
            .count();
        assert!(suppressed > 0);
        let mut benign = kinds[0].build();
        assert!(!benign.suppress_detection(0, NodeId::from(0), &mut rng));
    }

    #[test]
    fn windowed_random_is_quiet_outside_windows() {
        let mut a = AdversaryKind::WindowedRandom {
            windows: vec![10..20, 30..31],
            drop_p: 1.0,
            spurious_p: 1.0,
        };
        let mut rng = rng();
        let src = NodeId::from(0);
        let dst = NodeId::from(1);
        assert!(!a.drop_message(9, src, dst, &mut rng));
        assert!(a.drop_message(10, src, dst, &mut rng));
        assert!(a.drop_message(19, src, dst, &mut rng));
        assert!(!a.drop_message(20, src, dst, &mut rng));
        assert!(a.spurious_collision(15, src, &mut rng));
        assert!(!a.spurious_collision(25, src, &mut rng));
    }

    #[test]
    fn compose_is_the_union_of_its_members() {
        let kind = AdversaryKind::Compose(vec![
            AdversaryKind::Burst(vec![3..5, 40..41]),
            AdversaryKind::WindowedRandom {
                windows: vec![8..9, 50..51],
                drop_p: 1.0,
                spurious_p: 0.0,
            },
        ]);
        let mut a = kind.build();
        let mut rng = rng();
        let src = NodeId::from(0);
        let dst = NodeId::from(1);
        assert!(a.drop_message(3, src, dst, &mut rng), "first member");
        assert!(a.drop_message(8, src, dst, &mut rng), "second member");
        assert!(!a.drop_message(6, src, dst, &mut rng), "neither member");
        assert!(a.spurious_collision(4, src, &mut rng), "burst injects");
        assert!(!a.spurious_collision(8, src, &mut rng), "window drop-only");
        // Empty composition is benign.
        let mut none = AdversaryKind::Compose(vec![]).build();
        assert!(!none.drop_message(0, src, dst, &mut rng));
        assert!(!none.suppress_detection(0, src, &mut rng));
    }

    #[test]
    fn new_kinds_round_trip_through_serde() {
        let kinds = vec![
            AdversaryKind::WindowedRandom {
                windows: vec![5..10, 30..31],
                drop_p: 0.4,
                spurious_p: 0.2,
            },
            AdversaryKind::Compose(vec![
                AdversaryKind::None,
                AdversaryKind::Burst(vec![1..2, 7..8]),
                AdversaryKind::Compose(vec![AdversaryKind::Random(0.1, 0.0)]),
            ]),
        ];
        let round: Vec<AdversaryKind> =
            Deserialize::from_value(&Serialize::to_value(&kinds)).unwrap();
        assert_eq!(round, kinds);
    }

    /// How many values each call draws, `[drop, spurious, suppress]`:
    /// the generator after the call is compared against a fresh one
    /// advanced one `next_u64` at a time.
    fn draws(kind: &AdversaryKind, round: u64) -> [usize; 3] {
        use rand::Rng;
        let (src, dst) = (NodeId::from(0), NodeId::from(1));
        [0, 1, 2].map(|call| {
            let mut a = kind.build();
            let mut after = rng();
            match call {
                0 => a.drop_message(round, src, dst, &mut after),
                1 => a.spurious_collision(round, src, &mut after),
                _ => a.suppress_detection(round, src, &mut after),
            };
            let mut expected = rng();
            let mut n = 0;
            while expected != after {
                assert!(n < 16, "{kind:?} drew more than 16 values");
                expected.next_u64();
                n += 1;
            }
            n
        })
    }

    /// The draw contract (README "Determinism rules", rule 2): each
    /// kind draws a fixed number of values per call, whatever its
    /// verdict, so a run's RNG stream depends on the queries alone.
    #[test]
    fn each_kind_draws_a_fixed_number_of_values_per_call() {
        let burst = AdversaryKind::Burst(vec![5..10, 20..21]);
        let windowed = AdversaryKind::WindowedRandom {
            windows: vec![5..10, 20..21],
            drop_p: 1.0,
            spurious_p: 1.0,
        };
        let broken = |p| AdversaryKind::BrokenDetector {
            drop_p: p,
            miss_p: p,
        };
        // Every member after the burst is consulted although the burst
        // (in a window) or an earlier p = 1 member already said yes.
        let compose = AdversaryKind::Compose(vec![
            burst.clone(),
            windowed.clone(),
            broken(1.0),
            AdversaryKind::Random(1.0, 1.0),
            broken(0.5),
        ]);
        // (kind, round, draws per drop / spurious / suppress call)
        let cases = [
            (AdversaryKind::None, 7, [0, 0, 0]),
            (burst.clone(), 7, [0, 0, 0]),
            (burst, 2, [0, 0, 0]),
            (AdversaryKind::Random(0.5, 0.5), 7, [1, 1, 0]),
            (broken(0.5), 7, [1, 1, 1]),
            (windowed.clone(), 2, [0, 0, 0]),
            (windowed, 7, [1, 1, 0]),
            (AdversaryKind::Compose(vec![]), 7, [0, 0, 0]),
            (compose.clone(), 7, [4, 4, 2]),
            (compose, 2, [3, 3, 2]),
        ];
        for (kind, round, expected) in cases {
            assert_eq!(draws(&kind, round), expected, "{kind:?} at round {round}");
        }
    }

    #[test]
    fn scripted_targets_exact_tuples() {
        let mut a = ScriptedAdversary::new();
        a.drop(3, NodeId::from(0), NodeId::from(1))
            .drop_all_to(4, NodeId::from(2))
            .inject_collision(5, NodeId::from(1));
        let mut rng = rng();
        assert!(a.drop_message(3, NodeId::from(0), NodeId::from(1), &mut rng));
        assert!(!a.drop_message(3, NodeId::from(0), NodeId::from(2), &mut rng));
        assert!(!a.drop_message(2, NodeId::from(0), NodeId::from(1), &mut rng));
        assert!(a.drop_message(4, NodeId::from(9), NodeId::from(2), &mut rng));
        assert!(a.spurious_collision(5, NodeId::from(1), &mut rng));
        assert!(!a.spurious_collision(5, NodeId::from(0), &mut rng));
    }
}
