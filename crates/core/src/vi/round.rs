//! The structure of one virtual round (Section 4.3).
//!
//! "The virtual infrastructure emulation consists of four parts with a
//! total of eleven phases: (1) the message sub-protocol ... (2) the
//! scheduled agreement instance ... (3) the unscheduled agreement
//! instance ... and (4) the join/reset sub-protocol."
//!
//! In [`VirtualPhase`] terms, in order:
//!
//! 1. the message sub-protocol: [`Client`](VirtualPhase::Client), then
//!    [`Vn`](VirtualPhase::Vn);
//! 2. the scheduled agreement instance: the three CHAP steps of
//!    Figure 1 ([`Phase::Ballot`], [`Phase::Veto1`], [`Phase::Veto2`]),
//!    each a [`Cha`](VirtualPhase::Cha) with `scheduled: true`;
//! 3. the unscheduled agreement instance: the same three steps with
//!    `scheduled: false`;
//! 4. the join/reset sub-protocol: [`Join`](VirtualPhase::Join),
//!    [`JoinAck`](VirtualPhase::JoinAck), [`Reset`](VirtualPhase::Reset).
//!
//! Every phase occupies one real round except the *unscheduled ballot
//! phase*, which is stretched to `s + 2` rounds so that emulators of
//! nearby unscheduled virtual nodes broadcast their ballots in
//! schedule-separated slots instead of colliding ("the ballot phase is
//! instantiated using s + 2 rounds"); each of its rounds carries its
//! slot. One virtual round therefore takes `s + 12` real rounds — a
//! constant depending only on the deployment density, never on the
//! number of devices (the emulation analogue of Theorem 14).

use crate::cha::protocol::Phase;
use serde::{Deserialize, Serialize};

/// The phase of the emulation a given real round belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum VirtualPhase {
    /// Clients broadcast their messages for this virtual round.
    Client,
    /// Replicas broadcast on behalf of their virtual nodes.
    Vn,
    /// One step of a CHAP instance (Figure 1), run by the replicas of
    /// the virtual nodes that are `scheduled` this virtual round, or by
    /// those that are not. `slot` is `Some` only on the unscheduled
    /// ballot: the slot index in `0..s+2`. Emulators of an unscheduled
    /// virtual node with schedule slot `c` broadcast in ballot slot
    /// `c + 1` (slots `0` and `s + 1` are guard slots).
    Cha {
        /// Which of the two instances this step belongs to.
        scheduled: bool,
        /// Ballot, veto-1 or veto-2.
        step: Phase,
        /// The unscheduled ballot's slot.
        slot: Option<u64>,
    },
    /// New emulators request to join.
    Join,
    /// An existing replica answers with a state transfer.
    JoinAck,
    /// Replicas assert liveness; silence here authorizes a reset.
    Reset,
}

/// Maps real rounds to `(virtual round, phase)` for a deployment with
/// schedule length `s`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundPlan {
    s: u64,
}

impl RoundPlan {
    /// Creates the plan for schedule length `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s == 0`.
    pub fn new(s: u64) -> Self {
        assert!(s >= 1, "schedule length must be at least 1");
        RoundPlan { s }
    }

    /// The schedule length this plan was built for.
    pub fn schedule_len(&self) -> u64 {
        self.s
    }

    /// Real rounds per virtual round: `s + 12`.
    pub fn rounds_per_vr(&self) -> u64 {
        self.s + 12
    }

    /// The `(virtual round, phase)` of real round `round`. Virtual
    /// rounds are 1-based.
    pub fn phase(&self, round: u64) -> (u64, VirtualPhase) {
        let t = self.rounds_per_vr();
        let vr = round / t + 1;
        let off = round % t;
        let cha = |scheduled, step, slot| VirtualPhase::Cha {
            scheduled,
            step,
            slot,
        };
        let phase = match off {
            0 => VirtualPhase::Client,
            1 => VirtualPhase::Vn,
            2 => cha(true, Phase::Ballot, None),
            3 => cha(true, Phase::Veto1, None),
            4 => cha(true, Phase::Veto2, None),
            o if o < 5 + self.s + 2 => cha(false, Phase::Ballot, Some(o - 5)),
            o if o == 5 + self.s + 2 => cha(false, Phase::Veto1, None),
            o if o == 6 + self.s + 2 => cha(false, Phase::Veto2, None),
            o if o == 7 + self.s + 2 => VirtualPhase::Join,
            o if o == 8 + self.s + 2 => VirtualPhase::JoinAck,
            _ => VirtualPhase::Reset,
        };
        (vr, phase)
    }

    /// The first real round of virtual round `vr` (1-based).
    pub fn start_of(&self, vr: u64) -> u64 {
        assert!(vr >= 1, "virtual rounds are 1-based");
        (vr - 1) * self.rounds_per_vr()
    }

    /// The ballot slot in which an unscheduled virtual node with
    /// schedule slot `c` broadcasts (guard slots surround the
    /// schedule).
    pub fn unsched_ballot_slot(&self, schedule_slot: u64) -> u64 {
        assert!(schedule_slot < self.s, "slot {schedule_slot} out of range");
        schedule_slot + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_cover_one_virtual_round() {
        let plan = RoundPlan::new(3);
        assert_eq!(plan.rounds_per_vr(), 15);
        let phases: Vec<(u64, VirtualPhase)> = (0..15).map(|r| plan.phase(r)).collect();
        assert!(phases.iter().all(|&(vr, _)| vr == 1));
        let cha = |scheduled, step, slot| VirtualPhase::Cha {
            scheduled,
            step,
            slot,
        };
        assert_eq!(phases[0].1, VirtualPhase::Client);
        assert_eq!(phases[1].1, VirtualPhase::Vn);
        assert_eq!(phases[2].1, cha(true, Phase::Ballot, None));
        assert_eq!(phases[3].1, cha(true, Phase::Veto1, None));
        assert_eq!(phases[4].1, cha(true, Phase::Veto2, None));
        for (i, p) in phases[5..10].iter().enumerate() {
            assert_eq!(p.1, cha(false, Phase::Ballot, Some(i as u64)));
        }
        assert_eq!(phases[10].1, cha(false, Phase::Veto1, None));
        assert_eq!(phases[11].1, cha(false, Phase::Veto2, None));
        assert_eq!(phases[12].1, VirtualPhase::Join);
        assert_eq!(phases[13].1, VirtualPhase::JoinAck);
        assert_eq!(phases[14].1, VirtualPhase::Reset);
    }

    #[test]
    fn eleven_distinct_phase_kinds() {
        // The paper's "total of eleven phases": count phase kinds,
        // collapsing the stretched unscheduled ballot into one.
        let plan = RoundPlan::new(4);
        let mut kinds = std::collections::BTreeSet::new();
        for r in 0..plan.rounds_per_vr() {
            let k = match plan.phase(r).1 {
                VirtualPhase::Cha {
                    scheduled, step, ..
                } => format!("cha {scheduled} {step:?}"),
                p => format!("{p:?}"),
            };
            kinds.insert(k);
        }
        assert_eq!(kinds.len(), 11);
    }

    #[test]
    fn virtual_rounds_advance() {
        let plan = RoundPlan::new(2);
        let t = plan.rounds_per_vr();
        assert_eq!(plan.phase(0).0, 1);
        assert_eq!(plan.phase(t - 1).0, 1);
        assert_eq!(plan.phase(t).0, 2);
        assert_eq!(plan.phase(t).1, VirtualPhase::Client);
        assert_eq!(plan.start_of(2), t);
        assert_eq!(plan.start_of(1), 0);
    }

    #[test]
    fn unsched_slots_have_guards() {
        let plan = RoundPlan::new(4);
        assert_eq!(plan.unsched_ballot_slot(0), 1);
        assert_eq!(plan.unsched_ballot_slot(3), 4);
        // Slots 0 and 5 are guards nobody broadcasts in.
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unsched_slot_bounds_checked() {
        let plan = RoundPlan::new(4);
        let _ = plan.unsched_ballot_slot(4);
    }

    #[test]
    #[should_panic(expected = "schedule length must be at least 1")]
    fn rejects_zero_schedule() {
        let _ = RoundPlan::new(0);
    }
}
