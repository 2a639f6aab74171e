//! Randomized exponential backoff with leader capture.
//!
//! The practical contention manager the paper appeals to: "In
//! practice, contention managers are typically implemented using
//! randomized back-off protocols ... we believe even a simple
//! exponential back-off scheme to be sufficient."
//!
//! Each contender broadcasts with probability `1/w` where `w` is its
//! backoff window. Collisions double `w`; a successful own broadcast
//! resets `w` to 1 (the winner *captures* the channel and keeps
//! winning); hearing another's success makes a contender *defer*
//! (stop competing) until the channel has been quiet for a patience
//! period, which doubles as leader-failure detection.
//!
//! Under a stable contender set this converges rapidly to a single
//! persistent leader — Property 3 empirically (see the tests, which
//! measure convergence over seed sweeps).

use crate::manager::{Advice, ChannelFeedback, CmSlot, ContentionManager};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vi_radio::geometry::Point;

/// Tuning parameters for [`BackoffCm`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BackoffConfig {
    /// Initial backoff window (must be ≥ 1).
    pub initial_window: u64,
    /// Maximum backoff window.
    pub max_window: u64,
    /// Rounds of silence after which a deferring contender rejoins the
    /// competition (leader presumed dead).
    pub patience: u64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            initial_window: 2,
            max_window: 64,
            patience: 3,
        }
    }
}

impl BackoffConfig {
    fn validate(&self) {
        assert!(self.initial_window >= 1, "initial window must be >= 1");
        assert!(
            self.max_window >= self.initial_window,
            "max window must be >= initial window"
        );
    }
}

#[derive(Clone, Copy, Debug)]
struct SlotState {
    window: u64,
    deferring: bool,
    quiet_rounds: u64,
}

/// Randomized exponential backoff contention manager.
#[derive(Debug)]
pub struct BackoffCm {
    config: BackoffConfig,
    rng: StdRng,
    slots: Vec<SlotState>,
    /// Whether each slot was advised active in the round it last
    /// contended (needed to interpret feedback).
    last_active: Vec<bool>,
}

impl BackoffCm {
    /// Creates a backoff manager with the given tuning and seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`BackoffConfig`]).
    pub fn new(config: BackoffConfig, seed: u64) -> Self {
        config.validate();
        BackoffCm {
            config,
            rng: StdRng::seed_from_u64(seed),
            slots: Vec::new(),
            last_active: Vec::new(),
        }
    }

    /// Creates a backoff manager with default tuning.
    pub fn with_seed(seed: u64) -> Self {
        BackoffCm::new(BackoffConfig::default(), seed)
    }

    /// The current backoff window of `slot` (for tests/diagnostics).
    pub fn window(&self, slot: CmSlot) -> u64 {
        self.slots[slot.0].window
    }
}

impl ContentionManager for BackoffCm {
    fn register(&mut self) -> CmSlot {
        let s = CmSlot(self.slots.len());
        self.slots.push(SlotState {
            window: self.config.initial_window,
            deferring: false,
            quiet_rounds: 0,
        });
        self.last_active.push(false);
        s
    }

    fn contend(&mut self, slot: CmSlot, _round: u64, _pos: Point) -> Advice {
        let st = &mut self.slots[slot.0];
        let advice = if st.deferring {
            Advice::Passive
        } else if st.window <= 1 || self.rng.random_ratio(1, st.window as u32) {
            Advice::Active
        } else {
            Advice::Passive
        };
        self.last_active[slot.0] = advice.is_active();
        advice
    }

    fn observe(&mut self, slot: CmSlot, _round: u64, feedback: ChannelFeedback) {
        let cfg = self.config;
        let st = &mut self.slots[slot.0];
        match feedback {
            ChannelFeedback::TxSucceeded => {
                // Captured the channel: keep broadcasting every round.
                st.window = 1;
                st.deferring = false;
                st.quiet_rounds = 0;
            }
            ChannelFeedback::TxCollided => {
                st.window = (st.window * 2).min(cfg.max_window);
                st.quiet_rounds = 0;
            }
            ChannelFeedback::HeardOther => {
                // Someone else holds the channel: defer to them.
                st.deferring = true;
                st.quiet_rounds = 0;
            }
            ChannelFeedback::HeardCollision => {
                st.window = (st.window * 2).min(cfg.max_window);
                st.quiet_rounds = 0;
            }
            ChannelFeedback::Quiet => {
                st.quiet_rounds += 1;
                if st.quiet_rounds > cfg.patience {
                    // Leader presumed gone: rejoin with a fresh window.
                    st.deferring = false;
                    st.window = cfg.initial_window.max(2);
                    st.quiet_rounds = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulates a single-hop clique of `n` contenders over `rounds`
    /// rounds and returns, per round, how many were active.
    ///
    /// Channel abstraction: if exactly one contender is active, its
    /// broadcast succeeds and everyone else hears it; if several are
    /// active, everyone observes a collision; if none, the channel is
    /// quiet.
    fn active_counts(n: usize, rounds: u64, seed: u64) -> Vec<usize> {
        let mut cm = BackoffCm::with_seed(seed);
        let slots: Vec<CmSlot> = (0..n).map(|_| cm.register()).collect();
        let mut counts = Vec::new();
        for round in 0..rounds {
            let advice: Vec<bool> = slots
                .iter()
                .map(|&s| cm.contend(s, round, Point::ORIGIN).is_active())
                .collect();
            let active = advice.iter().filter(|&&a| a).count();
            counts.push(active);
            for (i, &s) in slots.iter().enumerate() {
                let fb = match (advice[i], active) {
                    (true, 1) => ChannelFeedback::TxSucceeded,
                    (true, _) => ChannelFeedback::TxCollided,
                    (false, 0) => ChannelFeedback::Quiet,
                    (false, 1) => ChannelFeedback::HeardOther,
                    (false, _) => ChannelFeedback::HeardCollision,
                };
                cm.observe(s, round, fb);
            }
        }
        counts
    }

    #[test]
    fn converges_to_single_leader() {
        // Property 3, empirically: after a convergence prefix, every
        // round has exactly one active node.
        for seed in 0..20 {
            let counts = active_counts(8, 200, seed);
            let tail = &counts[100..];
            let good = tail.iter().filter(|&&c| c == 1).count();
            assert!(
                good as f64 / tail.len() as f64 > 0.95,
                "seed {seed}: leader not captured ({good}/{} single-active rounds)",
                tail.len()
            );
        }
    }

    #[test]
    fn capture_is_stable_once_won() {
        // Once some round has exactly one active contender, that
        // contender keeps the channel for a long stretch.
        let counts = active_counts(5, 300, 42);
        let first_win = counts.iter().position(|&c| c == 1).expect("some win");
        let after = &counts[first_win..(first_win + 50).min(counts.len())];
        let disruptions = after.iter().filter(|&&c| c != 1).count();
        assert!(
            disruptions <= 5,
            "capture should be nearly uninterrupted, got {disruptions} disruptions"
        );
    }

    #[test]
    fn lone_contender_wins_immediately_with_window_one() {
        let mut cm = BackoffCm::new(
            BackoffConfig {
                initial_window: 1,
                max_window: 8,
                patience: 2,
            },
            0,
        );
        let s = cm.register();
        assert!(cm.contend(s, 0, Point::ORIGIN).is_active());
    }

    #[test]
    fn deferring_contender_stays_passive_until_patience() {
        let mut cm = BackoffCm::with_seed(1);
        let s = cm.register();
        cm.observe(s, 0, ChannelFeedback::HeardOther);
        // While the leader is audible, remain passive.
        for round in 1..=3 {
            assert!(!cm.contend(s, round, Point::ORIGIN).is_active());
            cm.observe(s, round, ChannelFeedback::HeardOther);
        }
        // Leader goes silent: after `patience` quiet rounds we rejoin.
        let mut rejoined = false;
        for round in 4..30 {
            let advice = cm.contend(s, round, Point::ORIGIN);
            if advice.is_active() {
                rejoined = true;
                break;
            }
            cm.observe(s, round, ChannelFeedback::Quiet);
        }
        assert!(rejoined, "should rejoin after leader silence");
    }

    #[test]
    fn collision_doubles_window_up_to_max() {
        let mut cm = BackoffCm::new(
            BackoffConfig {
                initial_window: 2,
                max_window: 16,
                patience: 3,
            },
            0,
        );
        let s = cm.register();
        for _ in 0..10 {
            cm.observe(s, 0, ChannelFeedback::TxCollided);
        }
        assert_eq!(cm.window(s), 16, "window capped at max");
    }

    #[test]
    fn success_resets_window() {
        let mut cm = BackoffCm::with_seed(3);
        let s = cm.register();
        cm.observe(s, 0, ChannelFeedback::TxCollided);
        cm.observe(s, 1, ChannelFeedback::TxCollided);
        assert!(cm.window(s) > 1);
        cm.observe(s, 2, ChannelFeedback::TxSucceeded);
        assert_eq!(cm.window(s), 1);
    }

    #[test]
    fn two_contenders_eventually_separate() {
        for seed in 0..10 {
            let counts = active_counts(2, 100, seed);
            assert!(
                counts[60..].iter().filter(|&&c| c == 1).count() > 35,
                "seed {seed}: two contenders should separate"
            );
        }
    }

    #[test]
    #[should_panic(expected = "initial window must be >= 1")]
    fn rejects_zero_window() {
        let _ = BackoffCm::new(
            BackoffConfig {
                initial_window: 0,
                max_window: 8,
                patience: 1,
            },
            0,
        );
    }
}
