//! Virtual-node placement.
//!
//! Virtual nodes reside at fixed, well-known locations. Each is
//! emulated by the devices within distance `R1/4` of its location
//! (Section 4: "we replicate the virtual node at every device within
//! distance R1/4 of location ℓv"). `R1/4` keeps all replicas of one
//! virtual node pairwise within `R1/2` — a clique, which is what the
//! Section 3 analysis of CHAP assumes.

use crate::vi::automaton::VnId;
use serde::{Deserialize, Serialize};
use vi_radio::geometry::Point;

/// The fixed deployment of virtual nodes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct VnLayout {
    locations: Vec<Point>,
    region_radius: f64,
}

impl VnLayout {
    /// Creates a layout from explicit locations and the emulation
    /// region radius (use `R1/4` of your radio config for the paper's
    /// deployment rule).
    ///
    /// # Panics
    ///
    /// Panics if `locations` is empty or the radius is not positive
    /// and finite.
    pub fn new(locations: Vec<Point>, region_radius: f64) -> Self {
        assert!(!locations.is_empty(), "layout must contain a virtual node");
        assert!(
            region_radius.is_finite() && region_radius > 0.0,
            "region radius must be positive and finite"
        );
        VnLayout {
            locations,
            region_radius,
        }
    }

    /// A `rows × cols` grid with the given spacing, anchored so the
    /// first virtual node sits at `origin`.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate grid (`rows == 0 || cols == 0`) or bad
    /// radius.
    pub fn grid(rows: usize, cols: usize, spacing: f64, origin: Point, region_radius: f64) -> Self {
        assert!(rows > 0 && cols > 0, "grid must be non-degenerate");
        let mut locations = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                locations.push(Point::new(
                    origin.x + c as f64 * spacing,
                    origin.y + r as f64 * spacing,
                ));
            }
        }
        VnLayout::new(locations, region_radius)
    }

    /// Number of virtual nodes.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// `true` if the layout is empty (never: construction forbids it,
    /// but the method completes the collection-like API).
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// The emulation region radius.
    pub fn region_radius(&self) -> f64 {
        self.region_radius
    }

    /// Location of virtual node `vn`.
    ///
    /// # Panics
    ///
    /// Panics if `vn` is out of range.
    pub fn location(&self, vn: VnId) -> Point {
        self.locations[vn.index()]
    }

    /// Iterates over all `(VnId, location)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VnId, Point)> + '_ {
        self.locations
            .iter()
            .enumerate()
            .map(|(i, &p)| (VnId(i), p))
    }

    /// The virtual node whose emulation region contains `pos`, if any.
    /// Regions never overlap in valid deployments (spacing > 2 ·
    /// radius); if they do, the lowest id wins deterministically.
    pub fn region_of(&self, pos: Point) -> Option<VnId> {
        self.iter()
            .find(|&(_, loc)| pos.within(loc, self.region_radius))
            .map(|(vn, _)| vn)
    }

    /// Pairs of virtual nodes closer than `conflict_dist` — the
    /// conflict graph edges for schedule construction (Section 4.1
    /// uses `R1 + 2·R2`).
    pub fn conflicts(&self, conflict_dist: f64) -> Vec<(VnId, VnId)> {
        let mut edges = Vec::new();
        for i in 0..self.locations.len() {
            for j in (i + 1)..self.locations.len() {
                if self.locations[i].distance(self.locations[j]) <= conflict_dist {
                    edges.push((VnId(i), VnId(j)));
                }
            }
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_lays_out_row_major() {
        let l = VnLayout::grid(2, 3, 10.0, Point::new(5.0, 5.0), 2.5);
        assert_eq!(l.len(), 6);
        assert_eq!(l.location(VnId(0)), Point::new(5.0, 5.0));
        assert_eq!(l.location(VnId(2)), Point::new(25.0, 5.0));
        assert_eq!(l.location(VnId(3)), Point::new(5.0, 15.0));
    }

    #[test]
    fn region_lookup() {
        let l = VnLayout::grid(1, 2, 20.0, Point::ORIGIN, 2.5);
        assert_eq!(l.region_of(Point::new(1.0, 1.0)), Some(VnId(0)));
        assert_eq!(l.region_of(Point::new(21.0, 0.0)), Some(VnId(1)));
        assert_eq!(l.region_of(Point::new(10.0, 10.0)), None);
        assert_eq!(l.region_of(Point::new(0.0, 2.5)), Some(VnId(0)));
        assert_eq!(l.region_of(Point::new(0.0, 2.6)), None);
    }

    #[test]
    fn conflict_edges_by_distance() {
        // Three colinear nodes 10 apart: adjacent pairs conflict at
        // dist 15, all pairs at dist 25.
        let l = VnLayout::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(20.0, 0.0),
            ],
            2.0,
        );
        let near = l.conflicts(15.0);
        assert_eq!(near, vec![(VnId(0), VnId(1)), (VnId(1), VnId(2))]);
        let far = l.conflicts(25.0);
        assert_eq!(far.len(), 3);
    }

    #[test]
    fn iter_yields_all() {
        let l = VnLayout::grid(2, 2, 5.0, Point::ORIGIN, 1.0);
        let ids: Vec<VnId> = l.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![VnId(0), VnId(1), VnId(2), VnId(3)]);
    }

    #[test]
    #[should_panic(expected = "layout must contain")]
    fn rejects_empty_layout() {
        let _ = VnLayout::new(vec![], 1.0);
    }

    #[test]
    #[should_panic(expected = "region radius must be positive")]
    fn rejects_bad_radius() {
        let _ = VnLayout::new(vec![Point::ORIGIN], f64::NAN);
    }
}
