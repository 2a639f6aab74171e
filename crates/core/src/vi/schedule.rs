//! The virtual-node broadcast schedule (Section 4.1).
//!
//! "Let `schedule[0..s−1]` be an array in which each entry is a subset
//! of the virtual nodes ... The schedule is *non-conflicting* if no
//! two neighbouring virtual nodes are scheduled to broadcast at the
//! same time: for all `i`, `v ≠ v'` in `schedule[i]`, `|ℓv − ℓv'| >
//! R1 + 2·R2`. The schedule is *complete* if every virtual node is
//! scheduled for exactly one round."
//!
//! Virtual nodes are static and known in advance, so the schedule is
//! computed centrally, up front, by greedy colouring of the conflict
//! graph; its length depends only on the *density* of the deployment
//! (the maximum conflict degree plus one), never on the number of
//! mobile nodes — the key to Theorem 14's constant emulation overhead.

use crate::vi::automaton::VnId;
use crate::vi::layout::VnLayout;
use serde::{Deserialize, Serialize};

/// A complete, non-conflicting broadcast schedule.
///
/// # Example
///
/// ```
/// use vi_core::vi::{Schedule, VnLayout};
/// use vi_radio::geometry::Point;
///
/// // Two virtual nodes 30 m apart conflict under a 70 m rule, so the
/// // schedule gives them distinct slots.
/// let layout = VnLayout::grid(1, 2, 30.0, Point::ORIGIN, 2.5);
/// let schedule = Schedule::build(&layout, 70.0);
/// assert_eq!(schedule.len(), 2);
/// assert!(schedule.is_complete(&layout));
/// assert!(schedule.is_non_conflicting(&layout, 70.0));
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Schedule {
    slots: Vec<Vec<VnId>>,
    slot_of: Vec<usize>,
}

impl Schedule {
    /// Builds a schedule for `layout` by greedy colouring of the
    /// conflict graph with edge rule `distance <= conflict_dist`
    /// (Section 4.1 prescribes `conflict_dist = R1 + 2·R2`).
    pub fn build(layout: &VnLayout, conflict_dist: f64) -> Self {
        let n = layout.len();
        let mut adj = vec![Vec::new(); n];
        for (a, b) in layout.conflicts(conflict_dist) {
            adj[a.index()].push(b.index());
            adj[b.index()].push(a.index());
        }
        let mut slot_of = vec![usize::MAX; n];
        for v in 0..n {
            let used: Vec<usize> = adj[v]
                .iter()
                .map(|&u| slot_of[u])
                .filter(|&s| s != usize::MAX)
                .collect();
            let mut color = 0;
            while used.contains(&color) {
                color += 1;
            }
            slot_of[v] = color;
        }
        let s = slot_of.iter().map(|&c| c + 1).max().unwrap_or(1);
        let mut slots = vec![Vec::new(); s];
        for (v, &c) in slot_of.iter().enumerate() {
            slots[c].push(VnId(v));
        }
        Schedule { slots, slot_of }
    }

    /// Schedule length `s`.
    pub fn len(&self) -> u64 {
        self.slots.len() as u64
    }

    /// `true` if the schedule has no slots (never for a built
    /// schedule).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slot assigned to `vn`.
    pub fn slot_of(&self, vn: VnId) -> u64 {
        self.slot_of[vn.index()] as u64
    }

    /// Whether `vn` is scheduled to broadcast in virtual round `vr`
    /// (1-based): the schedule repeats cyclically, `vn ∈
    /// schedule[(vr - 1) mod s]`.
    pub fn is_scheduled(&self, vn: VnId, vr: u64) -> bool {
        assert!(vr >= 1, "virtual rounds are 1-based");
        self.slot_of(vn) == (vr - 1) % self.len()
    }

    /// Verifies completeness: every virtual node in exactly one slot.
    pub fn is_complete(&self, layout: &VnLayout) -> bool {
        if self.slot_of.len() != layout.len() {
            return false;
        }
        let mut seen = vec![0usize; layout.len()];
        for slot in &self.slots {
            for vn in slot {
                seen[vn.index()] += 1;
            }
        }
        seen.iter().all(|&c| c == 1)
    }

    /// Verifies non-conflict: no slot contains two virtual nodes
    /// within `conflict_dist` of each other.
    pub fn is_non_conflicting(&self, layout: &VnLayout, conflict_dist: f64) -> bool {
        for slot in &self.slots {
            for i in 0..slot.len() {
                for j in (i + 1)..slot.len() {
                    let d = layout.location(slot[i]).distance(layout.location(slot[j]));
                    if d <= conflict_dist {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_radio::geometry::Point;

    fn grid_layout(rows: usize, cols: usize, spacing: f64) -> VnLayout {
        VnLayout::grid(rows, cols, spacing, Point::ORIGIN, 2.5)
    }

    #[test]
    fn isolated_nodes_share_one_slot() {
        // Spacing far beyond the conflict distance: chromatic number 1.
        let layout = grid_layout(2, 2, 1000.0);
        let s = Schedule::build(&layout, 70.0);
        assert_eq!(s.len(), 1);
        assert!(s.is_complete(&layout));
        assert!(s.is_non_conflicting(&layout, 70.0));
    }

    #[test]
    fn dense_grid_needs_more_slots_but_stays_valid() {
        let layout = grid_layout(3, 3, 30.0);
        let conflict = 70.0; // R1=10, R2=30 ⇒ R1 + 2·R2 = 70
        let s = Schedule::build(&layout, conflict);
        assert!(s.is_complete(&layout));
        assert!(s.is_non_conflicting(&layout, conflict));
        assert!(s.len() > 1, "dense deployments cannot share one slot");
    }

    #[test]
    fn schedule_length_tracks_density_not_count() {
        // Same density (spacing), more virtual nodes: s must not grow
        // with the count — this is the Section 4.1 claim that the
        // schedule depends only on density.
        let conflict = 70.0;
        let small = Schedule::build(&grid_layout(2, 2, 80.0), conflict);
        let large = Schedule::build(&grid_layout(6, 6, 80.0), conflict);
        assert_eq!(small.len(), large.len());
    }

    #[test]
    fn is_scheduled_cycles() {
        let layout = grid_layout(1, 2, 30.0);
        let s = Schedule::build(&layout, 70.0);
        assert_eq!(s.len(), 2);
        let a = VnId(0);
        let b = VnId(1);
        // Exactly one of a, b scheduled per virtual round, alternating.
        for vr in 1..=6u64 {
            assert_ne!(s.is_scheduled(a, vr), s.is_scheduled(b, vr));
            assert_eq!(s.is_scheduled(a, vr), s.is_scheduled(a, vr + 2));
        }
    }

    #[test]
    fn every_vn_scheduled_exactly_once_per_cycle() {
        let layout = grid_layout(3, 3, 30.0);
        let s = Schedule::build(&layout, 70.0);
        for (vn, _) in layout.iter() {
            let times: Vec<u64> = (1..=s.len()).filter(|&vr| s.is_scheduled(vn, vr)).collect();
            assert_eq!(times.len(), 1, "{vn} scheduled once per cycle");
        }
    }

    #[test]
    #[should_panic(expected = "virtual rounds are 1-based")]
    fn round_zero_rejected() {
        let layout = grid_layout(1, 1, 10.0);
        let s = Schedule::build(&layout, 70.0);
        let _ = s.is_scheduled(VnId(0), 0);
    }
}
