//! Deterministic per-run counters.
//!
//! Every field is a plain `u64` incremented at the point where a
//! resolver-mode decision is made, on the one thread that steps the
//! engine. That makes the whole struct part of the determinism
//! contract: for a fixed `(spec, seed)` the counters are
//! byte-identical however many sweep workers share the jobs, and the
//! 1-vs-N sweep identity tests assert exactly that.

use serde::{Deserialize, Serialize};

/// Deterministic totals for one run. All fields are public and plain
/// `u64` so the increment sites compile to a single add — no atomics,
/// no allocation, no indirection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Rounds resolved, across every path (= sum of the per-mode
    /// round counters below).
    pub rounds_total: u64,
    /// Rounds on the settled fast path: cache valid, movers applied
    /// surgically (or no movers at all), full receiver scan.
    pub rounds_steady: u64,
    /// Rounds that took the scatter shortcut: few enough broadcasters
    /// that per-broadcaster range queries beat a full receiver scan.
    pub rounds_scatter: u64,
    /// Rounds that rebuilt the spatial index from scratch (stale
    /// cache or anchor drift; mass moves and participant churn are
    /// churn rounds).
    pub rounds_reanchor: u64,
    /// Rounds resolved by the broadcaster-only churn index.
    pub rounds_churn: u64,
    /// Rounds where the mover dirty-set was applied surgically.
    pub mover_rounds: u64,
    /// Total mover slots across all surgical rounds (dirty-set mass;
    /// divide by `mover_rounds` for the mean dirty-set size).
    pub mover_slots: u64,
    /// Rebuilds forced because the participant set changed.
    pub fallback_participant_churn: u64,
    /// Rebuilds forced because too many nodes moved in one round.
    pub fallback_mass_move: u64,
    /// Rebuilds forced because the cache was stale (first round after
    /// construction, or the slot count changed).
    pub fallback_stale_cache: u64,
    /// Rebuilds forced because a mover left the anchored grid region.
    pub fallback_anchor_drift: u64,
    /// Neighborhood queries issued against the spatial index (zero on
    /// steady cached rounds — that is the whole point of the cache).
    pub grid_queries: u64,
    /// Messages delivered to receivers.
    pub receptions: u64,
    /// Collisions detected at receivers.
    pub collisions: u64,
    /// Adversary consultations (drop/spurious/suppress calls).
    pub adversary_checks: u64,
    /// Traffic requests that exceeded their deadline.
    pub traffic_timeouts: u64,
    /// Operations captured by the audit history recorder.
    pub audit_ops: u64,
}

impl Counters {
    /// Adds every count of `other` into `self`. Plain field-wise sums,
    /// so merging per-seed counters in job order is itself
    /// deterministic.
    pub fn merge(&mut self, other: &Counters) {
        let rhs = other.rows();
        for (slot, (_, v)) in self.rows_mut().into_iter().zip(rhs) {
            *slot += v;
        }
    }

    /// The field-wise difference `self - earlier`, saturating at zero.
    /// This is the snapshot-delta operation: counters only ever grow,
    /// so for any two snapshots of the same run `later.delta(&earlier)`
    /// is the exact activity between them, and merging consecutive
    /// deltas in order reconstructs the totals
    /// (`delta`/[`Counters::merge`] are inverse by construction).
    pub fn delta(&self, earlier: &Counters) -> Counters {
        let mut d = *self;
        let rhs = earlier.rows();
        for (slot, (_, v)) in d.rows_mut().into_iter().zip(rhs) {
            *slot = slot.saturating_sub(v);
        }
        d
    }

    /// The counters as `(name, value)` rows in declaration order —
    /// the single source of truth for table/demo output so a new
    /// field can't be silently dropped from reports.
    pub fn rows(&self) -> [(&'static str, u64); 17] {
        [
            ("rounds_total", self.rounds_total),
            ("rounds_steady", self.rounds_steady),
            ("rounds_scatter", self.rounds_scatter),
            ("rounds_reanchor", self.rounds_reanchor),
            ("rounds_churn", self.rounds_churn),
            ("mover_rounds", self.mover_rounds),
            ("mover_slots", self.mover_slots),
            (
                "fallback_participant_churn",
                self.fallback_participant_churn,
            ),
            ("fallback_mass_move", self.fallback_mass_move),
            ("fallback_stale_cache", self.fallback_stale_cache),
            ("fallback_anchor_drift", self.fallback_anchor_drift),
            ("grid_queries", self.grid_queries),
            ("receptions", self.receptions),
            ("collisions", self.collisions),
            ("adversary_checks", self.adversary_checks),
            ("traffic_timeouts", self.traffic_timeouts),
            ("audit_ops", self.audit_ops),
        ]
    }

    /// Mutable field slots in the same order as [`Counters::rows`].
    fn rows_mut(&mut self) -> [&mut u64; 17] {
        [
            &mut self.rounds_total,
            &mut self.rounds_steady,
            &mut self.rounds_scatter,
            &mut self.rounds_reanchor,
            &mut self.rounds_churn,
            &mut self.mover_rounds,
            &mut self.mover_slots,
            &mut self.fallback_participant_churn,
            &mut self.fallback_mass_move,
            &mut self.fallback_stale_cache,
            &mut self.fallback_anchor_drift,
            &mut self.grid_queries,
            &mut self.receptions,
            &mut self.collisions,
            &mut self.adversary_checks,
            &mut self.traffic_timeouts,
            &mut self.audit_ops,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_every_field() {
        // A Counters with every field distinct; rows() must surface
        // each value exactly once, in declaration order.
        let mut c = Counters::default();
        let fields: Vec<&mut u64> = vec![
            &mut c.rounds_total,
            &mut c.rounds_steady,
            &mut c.rounds_scatter,
            &mut c.rounds_reanchor,
            &mut c.rounds_churn,
            &mut c.mover_rounds,
            &mut c.mover_slots,
            &mut c.fallback_participant_churn,
            &mut c.fallback_mass_move,
            &mut c.fallback_stale_cache,
            &mut c.fallback_anchor_drift,
            &mut c.grid_queries,
            &mut c.receptions,
            &mut c.collisions,
            &mut c.adversary_checks,
            &mut c.traffic_timeouts,
            &mut c.audit_ops,
        ];
        for (i, f) in fields.into_iter().enumerate() {
            *f = (i + 1) as u64;
        }
        let rows = c.rows();
        for (i, (name, v)) in rows.iter().enumerate() {
            assert_eq!(*v, (i + 1) as u64, "row {name} out of order");
        }
    }

    /// Drift guard: a newly added `Counters` field that is not wired
    /// into `rows()` must fail this test, not silently vanish from
    /// every table and report. Two independent reflections are
    /// checked — the struct's size (all fields are `u64`, so
    /// `size_of` counts them exactly) and its serde field names.
    #[test]
    fn rows_cover_every_field_by_reflection() {
        let c = Counters::default();
        let rows = c.rows();
        assert_eq!(
            std::mem::size_of::<Counters>(),
            rows.len() * std::mem::size_of::<u64>(),
            "a Counters field is missing from rows()"
        );
        let serde::Value::Map(fields) = serde::Serialize::to_value(&c) else {
            panic!("Counters serializes as a field map");
        };
        assert_eq!(fields.len(), rows.len(), "serde/rows field count drift");
        for ((name, _), (field, _)) in rows.iter().zip(&fields) {
            assert_eq!(name, field, "rows() order diverged from the fields");
        }
    }

    #[test]
    fn merge_is_field_wise_addition() {
        let mut a = Counters {
            rounds_total: 10,
            rounds_steady: 7,
            grid_queries: 100,
            ..Counters::default()
        };
        let b = Counters {
            rounds_total: 5,
            rounds_scatter: 2,
            grid_queries: 1,
            audit_ops: 9,
            ..Counters::default()
        };
        a.merge(&b);
        assert_eq!(a.rounds_total, 15);
        assert_eq!(a.rounds_steady, 7);
        assert_eq!(a.rounds_scatter, 2);
        assert_eq!(a.grid_queries, 101);
        assert_eq!(a.audit_ops, 9);
    }

    #[test]
    fn delta_inverts_merge() {
        let a = Counters {
            rounds_total: 10,
            rounds_steady: 7,
            grid_queries: 100,
            ..Counters::default()
        };
        let b = Counters {
            rounds_total: 5,
            rounds_scatter: 2,
            grid_queries: 1,
            audit_ops: 9,
            ..Counters::default()
        };
        let mut total = a;
        total.merge(&b);
        assert_eq!(total.delta(&a), b, "(a ⊕ b) ⊖ a == b");
        assert_eq!(total.delta(&b), a, "(a ⊕ b) ⊖ b == a");
        assert_eq!(a.delta(&a), Counters::default(), "a ⊖ a == 0");
    }

    #[test]
    fn delta_saturates_instead_of_panicking() {
        let small = Counters {
            rounds_total: 1,
            ..Counters::default()
        };
        let big = Counters {
            rounds_total: 5,
            receptions: 3,
            ..Counters::default()
        };
        let d = small.delta(&big);
        assert_eq!(d, Counters::default());
    }

    #[test]
    fn merge_is_associative_over_deltas() {
        // Merging consecutive snapshot deltas in any grouping yields
        // the same totals — the property the monitor's reconciliation
        // check leans on.
        let mk = |seed: u64| {
            let mut c = Counters::default();
            for (i, slot) in c.rows_mut().into_iter().enumerate() {
                *slot = seed.wrapping_mul(31).wrapping_add(i as u64) % 97;
            }
            c
        };
        let (a, b, c) = (mk(3), mk(11), mk(29));
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right, "(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)");
    }

    #[test]
    fn counters_round_trip_through_json() {
        let c = Counters {
            rounds_total: 42,
            fallback_anchor_drift: 3,
            adversary_checks: 7,
            ..Counters::default()
        };
        let json = serde_json::to_string(&c).unwrap();
        let back: Counters = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
