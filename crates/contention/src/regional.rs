//! Regional contention managers with temporary-leader leases
//! (Section 4.2 of the paper).
//!
//! Each virtual node at location ℓ has its own "regional" contention
//! manager `Cℓ` that reduces contention among contenders *close to ℓ*
//! (within `R1/4`, the radius of the virtual node's emulation region).
//! Because mobile nodes move, no leader can be permanent; the manager
//! elects **temporary leaders** that hold the channel for a lease of
//! `2(s+10)` rounds — long enough for a node moving away at `vmax` to
//! still complete the virtual rounds it leads.

use crate::manager::{roll_contenders, Advice, ChannelFeedback, CmSlot, ContentionManager};
use vi_radio::geometry::Point;

/// Parameters of a [`RegionalCm`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RegionalConfig {
    /// The virtual node location ℓ this manager serves.
    pub location: Point,
    /// Region radius: only contenders within this distance of ℓ are
    /// eligible (the paper uses `R1/4` for virtual-node emulation).
    pub radius: f64,
    /// Lease length in rounds; the paper uses `2(s+10)` where `s` is
    /// the virtual-node schedule length.
    pub lease: u64,
    /// Round before which the manager advises nobody (models the
    /// manager's own stabilization time); 0 for a perfect manager.
    pub stabilize_at: u64,
}

impl RegionalConfig {
    /// Creates a config with the paper's lease rule `2(s+10)` for
    /// schedule length `s`, perfect from round 0.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not positive and finite.
    pub fn for_schedule(location: Point, radius: f64, schedule_len: u64) -> Self {
        assert!(
            radius.is_finite() && radius > 0.0,
            "region radius must be positive and finite"
        );
        RegionalConfig {
            location,
            radius,
            lease: 2 * (schedule_len + 10),
            stabilize_at: 0,
        }
    }
}

/// A leader-election contention manager scoped to one virtual-node
/// region, electing temporary leaders with bounded leases.
///
/// Election rule: the lowest-numbered slot that contended *from inside
/// the region* in the previous round becomes leader and holds the
/// channel until its lease expires, it leaves the region, or it stops
/// contending — whichever comes first. This realizes the Section 4.2
/// guarantee: a virtual node makes progress whenever some correct node
/// stays near ℓ for a lease-length interval.
#[derive(Debug)]
pub struct RegionalCm {
    config: RegionalConfig,
    slots: usize,
    prev_contenders: Vec<CmSlot>,
    cur_contenders: Vec<CmSlot>,
    cur_round: u64,
    leader: Option<Lease>,
}

#[derive(Clone, Copy, Debug)]
struct Lease {
    slot: CmSlot,
    expires: u64,
    /// Last round the leader was seen contending from in-region.
    last_seen: u64,
}

impl RegionalCm {
    /// Creates a regional manager.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not positive and finite.
    pub fn new(config: RegionalConfig) -> Self {
        assert!(
            config.radius.is_finite() && config.radius > 0.0,
            "region radius must be positive and finite"
        );
        RegionalCm {
            config,
            slots: 0,
            prev_contenders: Vec::new(),
            cur_contenders: Vec::new(),
            cur_round: 0,
            leader: None,
        }
    }

    /// The current leader's slot, if a lease is in force.
    pub fn leader(&self) -> Option<CmSlot> {
        self.leader.map(|l| l.slot)
    }

    fn roll_round(&mut self, round: u64) {
        if round != self.cur_round {
            roll_contenders(
                &mut self.prev_contenders,
                &mut self.cur_contenders,
                round == self.cur_round + 1,
            );
            self.cur_round = round;
            // Depose a leader that is absent or expired.
            if let Some(l) = self.leader {
                let absent = round > l.last_seen + 1;
                if round >= l.expires || absent {
                    self.leader = None;
                }
            }
        }
    }
}

impl ContentionManager for RegionalCm {
    fn register(&mut self) -> CmSlot {
        let s = CmSlot(self.slots);
        self.slots += 1;
        s
    }

    fn contend(&mut self, slot: CmSlot, round: u64, pos: Point) -> Advice {
        self.roll_round(round);
        if !pos.within(self.config.location, self.config.radius) {
            // Out-of-region contenders are ineligible (Section 2: the
            // contention-management region is smaller than the
            // broadcast radius).
            return Advice::Passive;
        }
        if !self.cur_contenders.contains(&slot) {
            self.cur_contenders.push(slot);
        }
        if round < self.config.stabilize_at {
            return Advice::Passive;
        }

        match self.leader {
            Some(mut l) if l.slot == slot => {
                l.last_seen = round;
                self.leader = Some(l);
                Advice::Active
            }
            Some(_) => Advice::Passive,
            None => {
                // Elect: lowest in-region contender from the previous
                // round, or the first asker if there were none.
                let winner = self.prev_contenders.iter().copied().min().unwrap_or(slot);
                self.leader = Some(Lease {
                    slot: winner,
                    expires: round + self.config.lease,
                    last_seen: round,
                });
                if winner == slot {
                    Advice::Active
                } else {
                    Advice::Passive
                }
            }
        }
    }

    fn observe(&mut self, _slot: CmSlot, _round: u64, _feedback: ChannelFeedback) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cm(lease: u64) -> RegionalCm {
        RegionalCm::new(RegionalConfig {
            location: Point::new(50.0, 50.0),
            radius: 2.5,
            lease,
            stabilize_at: 0,
        })
    }

    const INSIDE: Point = Point::new(50.0, 51.0);
    const OUTSIDE: Point = Point::new(60.0, 50.0);

    #[test]
    fn for_schedule_applies_paper_lease_rule() {
        let c = RegionalConfig::for_schedule(Point::ORIGIN, 2.5, 6);
        assert_eq!(c.lease, 32, "2(s+10) with s=6");
    }

    #[test]
    fn elects_single_in_region_leader() {
        let mut cm = cm(100);
        let slots: Vec<CmSlot> = (0..4).map(|_| cm.register()).collect();
        for round in 0..10 {
            let active: usize = slots
                .iter()
                .filter(|&&s| cm.contend(s, round, INSIDE).is_active())
                .count();
            assert_eq!(active, 1);
        }
        assert_eq!(cm.leader(), Some(slots[0]));
    }

    #[test]
    fn out_of_region_contenders_are_passive() {
        let mut cm = cm(100);
        let a = cm.register();
        let b = cm.register();
        for round in 0..5 {
            assert!(!cm.contend(a, round, OUTSIDE).is_active());
            assert!(cm.contend(b, round, INSIDE).is_active() || round == 0);
        }
        assert_eq!(cm.leader(), Some(b));
    }

    #[test]
    fn leader_departure_triggers_reelection() {
        let mut cm = cm(1000);
        let a = cm.register();
        let b = cm.register();
        for round in 0..3 {
            cm.contend(a, round, INSIDE);
            cm.contend(b, round, INSIDE);
        }
        assert_eq!(cm.leader(), Some(a));
        // Leader a wanders out of the region.
        for round in 3..7 {
            cm.contend(a, round, OUTSIDE);
            cm.contend(b, round, INSIDE);
        }
        assert_eq!(cm.leader(), Some(b), "b takes over after a leaves");
    }

    #[test]
    fn lease_expiry_reelects() {
        let mut cm = cm(4);
        let a = cm.register();
        let b = cm.register();
        let mut a_active_rounds = Vec::new();
        for round in 0..12 {
            if cm.contend(a, round, INSIDE).is_active() {
                a_active_rounds.push(round);
            }
            cm.contend(b, round, INSIDE);
        }
        // `a` is re-elected after each expiry (still the lowest slot),
        // but the lease mechanism must have cycled: leadership is not
        // one unbroken lease.
        assert!(!a_active_rounds.is_empty());
        assert!(
            a_active_rounds.windows(2).all(|w| w[1] - w[0] <= 2),
            "re-election is prompt after expiry"
        );
    }

    #[test]
    fn crashed_leader_is_deposed() {
        let mut cm = cm(1000);
        let a = cm.register();
        let b = cm.register();
        for round in 0..3 {
            cm.contend(a, round, INSIDE);
            cm.contend(b, round, INSIDE);
        }
        assert_eq!(cm.leader(), Some(a));
        // `a` crashes (stops contending). After one transition round,
        // `b` is elected.
        let mut b_leads = false;
        for round in 3..8 {
            if cm.contend(b, round, INSIDE).is_active() {
                b_leads = true;
            }
        }
        assert!(b_leads, "b should take over from the crashed leader");
    }

    #[test]
    fn stabilization_delay_suppresses_advice() {
        let mut cm = RegionalCm::new(RegionalConfig {
            location: Point::new(50.0, 50.0),
            radius: 2.5,
            lease: 100,
            stabilize_at: 5,
        });
        let a = cm.register();
        for round in 0..5 {
            assert!(!cm.contend(a, round, INSIDE).is_active());
        }
        assert!(cm.contend(a, 5, INSIDE).is_active());
    }

    #[test]
    #[should_panic(expected = "region radius must be positive")]
    fn rejects_bad_radius() {
        let _ = RegionalCm::new(RegionalConfig {
            location: Point::ORIGIN,
            radius: 0.0,
            lease: 1,
            stabilize_at: 0,
        });
    }
}
