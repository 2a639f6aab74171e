//! An idealized contention manager that realizes Property 3 exactly.
//!
//! The paper's liveness proofs assume a contention manager that, from
//! some point onwards, advises exactly one (contending, correct) node
//! to be active in every round. [`OracleCm`] provides precisely that
//! from a configurable `stabilize_at` round, with scriptable
//! misbehaviour before it — letting experiments separate "what does
//! CHAP guarantee once the CM stabilizes" (Theorems 10–14) from "how
//! fast does a real backoff scheme stabilize" (see
//! [`BackoffCm`](crate::BackoffCm)).

use crate::manager::{roll_contenders, Advice, ChannelFeedback, CmSlot, ContentionManager};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use vi_radio::geometry::Point;

/// How the oracle behaves before its stabilization round.
///
/// Serializable so scenario specs (`vi-scenario`) can describe oracle
/// misbehaviour declaratively.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum PreStability {
    /// Everyone who contends is told to broadcast — maximal contention
    /// (the worst case for the protocol under test).
    AllActive,
    /// Nobody is told to broadcast — a silent, leaderless channel.
    NoneActive,
    /// Each contender is independently active with the given
    /// probability.
    Random(f64),
}

impl PreStability {
    /// Checks the one parameter: a `Random` probability lies in
    /// `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns what is wrong.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            PreStability::Random(p) if !(0.0..=1.0).contains(p) => {
                Err("pre-stability probability must lie in [0, 1]".into())
            }
            _ => Ok(()),
        }
    }
}

/// Deterministic leader-election contention manager (Property 3).
///
/// From `stabilize_at` onwards, the leader for round `r` is the
/// lowest-numbered slot that contended in round `r - 1` (or the first
/// contender of round `r` if nobody contended in `r - 1`). Once the
/// contender set is stable this advises the same single node every
/// round, which is exactly the paper's Property 3.
#[derive(Debug)]
pub struct OracleCm {
    stabilize_at: u64,
    pre: PreStability,
    slots: usize,
    rng: StdRng,
    /// Contenders seen in the previous round (sorted by slot).
    prev_contenders: Vec<CmSlot>,
    /// Contenders seen so far in the current round.
    cur_contenders: Vec<CmSlot>,
    cur_round: u64,
    /// Leader chosen for the current round, if any.
    cur_leader: Option<CmSlot>,
}

impl OracleCm {
    /// Creates an oracle that behaves per `pre` before `stabilize_at`
    /// and realizes Property 3 from `stabilize_at` onwards.
    ///
    /// # Panics
    ///
    /// Panics if `pre` fails [`PreStability::validate`].
    pub fn new(stabilize_at: u64, pre: PreStability, seed: u64) -> Self {
        if let Err(e) = pre.validate() {
            panic!("{e}");
        }
        OracleCm {
            stabilize_at,
            pre,
            slots: 0,
            rng: StdRng::seed_from_u64(seed),
            prev_contenders: Vec::new(),
            cur_contenders: Vec::new(),
            cur_round: 0,
            cur_leader: None,
        }
    }

    /// An oracle that is perfect from round 0 — the common choice for
    /// post-stabilization experiments.
    pub fn perfect() -> Self {
        OracleCm::new(0, PreStability::NoneActive, 0)
    }

    fn roll_round(&mut self, round: u64) {
        if round != self.cur_round {
            roll_contenders(
                &mut self.prev_contenders,
                &mut self.cur_contenders,
                round == self.cur_round + 1,
            );
            self.cur_round = round;
            self.cur_leader = None;
        }
    }
}

impl ContentionManager for OracleCm {
    fn register(&mut self) -> CmSlot {
        let s = CmSlot::of(self.slots);
        self.slots += 1;
        s
    }

    fn contend(&mut self, slot: CmSlot, round: u64, _pos: Point) -> Advice {
        self.roll_round(round);
        if !self.cur_contenders.contains(&slot) {
            self.cur_contenders.push(slot);
        }

        if round < self.stabilize_at {
            return match self.pre {
                PreStability::AllActive => Advice::Active,
                PreStability::NoneActive => Advice::Passive,
                PreStability::Random(p) => {
                    if self.rng.random_bool(p) {
                        Advice::Active
                    } else {
                        Advice::Passive
                    }
                }
            };
        }

        // Stable regime: elect the lowest slot that contended last
        // round; if last round was empty, the first contender this
        // round wins (keeps liveness without ever advising two).
        let leader = match self.cur_leader {
            Some(l) => l,
            None => {
                let l = self.prev_contenders.iter().copied().min().unwrap_or(slot);
                self.cur_leader = Some(l);
                l
            }
        };
        if slot == leader {
            Advice::Active
        } else {
            Advice::Passive
        }
    }

    fn observe(&mut self, _slot: CmSlot, _round: u64, _feedback: ChannelFeedback) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contend_all(cm: &mut OracleCm, slots: &[CmSlot], round: u64) -> Vec<Advice> {
        slots
            .iter()
            .map(|&s| cm.contend(s, round, Point::ORIGIN))
            .collect()
    }

    #[test]
    fn perfect_oracle_elects_exactly_one() {
        let mut cm = OracleCm::perfect();
        let slots: Vec<CmSlot> = (0..5).map(|_| cm.register()).collect();
        for round in 0..20 {
            let advice = contend_all(&mut cm, &slots, round);
            let active = advice.iter().filter(|a| a.is_active()).count();
            assert_eq!(active, 1, "round {round}: exactly one active");
        }
    }

    #[test]
    fn leader_is_stable_across_rounds() {
        let mut cm = OracleCm::perfect();
        let slots: Vec<CmSlot> = (0..4).map(|_| cm.register()).collect();
        let mut leaders = Vec::new();
        for round in 0..10 {
            let advice = contend_all(&mut cm, &slots, round);
            let leader = advice.iter().position(|a| a.is_active()).unwrap();
            leaders.push(leader);
        }
        // After the first round (bootstrap), the lowest slot leads.
        assert!(leaders[1..].iter().all(|&l| l == 0));
    }

    #[test]
    fn leader_crash_triggers_reelection() {
        let mut cm = OracleCm::perfect();
        let slots: Vec<CmSlot> = (0..3).map(|_| cm.register()).collect();
        for round in 0..3 {
            contend_all(&mut cm, &slots, round);
        }
        // Slot 0 stops contending (crashed): slot 1 takes over after
        // one transition round.
        for round in 3..6 {
            let advice: Vec<Advice> = slots[1..]
                .iter()
                .map(|&s| cm.contend(s, round, Point::ORIGIN))
                .collect();
            let active = advice.iter().filter(|a| a.is_active()).count();
            assert!(active <= 1, "never two active");
            if round >= 4 {
                assert_eq!(advice[0], Advice::Active, "slot 1 leads from round 4");
            }
        }
    }

    #[test]
    fn pre_stability_all_active() {
        let mut cm = OracleCm::new(5, PreStability::AllActive, 0);
        let slots: Vec<CmSlot> = (0..3).map(|_| cm.register()).collect();
        let advice = contend_all(&mut cm, &slots, 0);
        assert!(advice.iter().all(|a| a.is_active()), "chaos before rst");
        for round in 1..5 {
            contend_all(&mut cm, &slots, round);
        }
        let advice = contend_all(&mut cm, &slots, 6);
        assert_eq!(advice.iter().filter(|a| a.is_active()).count(), 1);
    }

    #[test]
    fn pre_stability_none_active() {
        let mut cm = OracleCm::new(3, PreStability::NoneActive, 0);
        let slots: Vec<CmSlot> = (0..3).map(|_| cm.register()).collect();
        for round in 0..3 {
            let advice = contend_all(&mut cm, &slots, round);
            assert!(advice.iter().all(|a| !a.is_active()));
        }
    }

    #[test]
    fn round_gap_clears_history() {
        let mut cm = OracleCm::perfect();
        let a = cm.register();
        let b = cm.register();
        contend_all(&mut cm, &[a, b], 0);
        contend_all(&mut cm, &[a, b], 1);
        // Rounds 2-4 nobody contends; at round 5 the first asker (b) wins.
        assert_eq!(cm.contend(b, 5, Point::ORIGIN), Advice::Active);
        assert_eq!(cm.contend(a, 5, Point::ORIGIN), Advice::Passive);
    }

    #[test]
    #[should_panic(expected = "probability must lie in [0, 1]")]
    fn rejects_bad_probability() {
        let _ = OracleCm::new(0, PreStability::Random(2.0), 0);
    }
}
