//! Planar geometry primitives used by the simulator.
//!
//! The paper's model places every node at a location in the plane; the
//! quasi-unit-disk channel and the virtual-node regions are all defined
//! in terms of Euclidean distance.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A location in the plane, in meters.
///
/// ```
/// use vi_radio::geometry::Point;
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// X coordinate in meters.
    pub x: f64,
    /// Y coordinate in meters.
    pub y: f64,
}

impl Point {
    /// Creates a point from coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point::new(0.0, 0.0);

    /// Euclidean distance to `other`.
    pub fn distance(self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (cheaper than
    /// [`Point::distance`]; use for comparisons).
    pub fn distance_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Returns `true` if `other` lies within `radius` of `self`
    /// (inclusive).
    pub fn within(self, other: Point, radius: f64) -> bool {
        self.distance_sq(other) <= radius * radius
    }

    /// Linear interpolation from `self` towards `target` by `t ∈ [0,1]`.
    pub fn lerp(self, target: Point, t: f64) -> Point {
        Point::new(
            self.x + (target.x - self.x) * t,
            self.y + (target.y - self.y) * t,
        )
    }

    /// Moves from `self` towards `target` by at most `max_step`,
    /// stopping exactly at `target` if it is closer than `max_step`.
    ///
    /// This is the primitive by which mobility models enforce the
    /// paper's bounded velocity `vmax` (one round = one time slot, so a
    /// per-round step bound is a velocity bound).
    pub fn step_towards(self, target: Point, max_step: f64) -> Point {
        let d = self.distance(target);
        if d <= max_step || d == 0.0 {
            target
        } else {
            self.lerp(target, max_step / d)
        }
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

/// An axis-aligned rectangle, used to bound mobility models.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    /// Minimum corner (inclusive).
    pub min: Point,
    /// Maximum corner (inclusive).
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two corner points.
    ///
    /// # Panics
    ///
    /// Panics if `min` is not component-wise `<= max`.
    pub fn new(min: Point, max: Point) -> Self {
        assert!(
            min.x <= max.x && min.y <= max.y,
            "Rect min must be <= max (got min={min}, max={max})"
        );
        Rect { min, max }
    }

    /// A square of side `side` anchored at the origin.
    pub fn square(side: f64) -> Self {
        Rect::new(Point::ORIGIN, Point::new(side, side))
    }

    /// Width of the rectangle.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Returns `true` if `p` lies inside the rectangle (inclusive).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Clamps `p` into the rectangle.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }

    /// Center of the rectangle.
    pub fn center(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

/// The anchored cell geometry of a uniform grid: origin, cell size and
/// dimensions, fixed by the bounding box of the points it was last
/// anchored to. [`SpatialGrid`] and [`SnapshotIndex`] both bucket and
/// query through one of these, so the anchoring rule and the
/// cell-range arithmetic exist once.
#[derive(Clone, Copy, Debug, Default)]
struct CellFrame {
    origin: Point,
    /// Maximum corner of the anchored bounding box.
    anchor_max: Point,
    /// Cell size in use (the nominal size, possibly coarsened).
    cell: f64,
    cols: usize,
    rows: usize,
}

impl CellFrame {
    /// Upper bound on cells per axis; beyond this the cell size is
    /// coarsened so sparse, far-flung populations cannot make a grid
    /// allocate quadratically in the coordinate spread.
    const MAX_CELLS_PER_AXIS: usize = 1024;

    /// A nominal cell size an index may be created with.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not positive and finite.
    fn checked_nominal(cell: f64) -> f64 {
        assert!(
            cell.is_finite() && cell > 0.0,
            "grid cell size must be positive and finite (got {cell})"
        );
        cell
    }

    /// Anchors a frame with nominal cell size `nominal` to the bounding
    /// box of `points` (no columns and no rows if there are none).
    fn anchor(nominal: f64, points: impl ExactSizeIterator<Item = Point>) -> CellFrame {
        let len = points.len();
        if len == 0 {
            return CellFrame::default();
        }
        let (mut min_x, mut min_y, mut max_x, mut max_y) = (
            f64::INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
        );
        for p in points {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        let span_x = (max_x - min_x).max(0.0);
        let span_y = (max_y - min_y).max(0.0);
        let max_axis = Self::MAX_CELLS_PER_AXIS as f64;
        let mut cell = nominal.max(span_x / max_axis).max(span_y / max_axis);
        // Rebuild cost is O(cells), so also cap the cell count relative
        // to the population: a few far-flung points must not make every
        // round re-clear a huge, almost-empty grid.
        let cell_budget = (16 * len.max(16)) as f64;
        let cells_at = |cell: f64| ((span_x / cell) + 1.0) * ((span_y / cell) + 1.0);
        if cells_at(cell) > cell_budget {
            cell *= (cells_at(cell) / cell_budget).sqrt();
        }
        CellFrame {
            origin: Point::new(min_x, min_y),
            anchor_max: Point::new(max_x, max_y),
            cell,
            cols: (span_x / cell) as usize + 1,
            rows: (span_y / cell) as usize + 1,
        }
    }

    fn cells(&self) -> usize {
        self.cols * self.rows
    }

    /// The row-major cell `p` falls into; points outside the anchored
    /// bounding box are clamped into the nearest edge cell.
    fn cell_of(&self, p: Point) -> usize {
        let cx = (((p.x - self.origin.x) / self.cell) as usize).min(self.cols - 1);
        let cy = (((p.y - self.origin.y) / self.cell) as usize).min(self.rows - 1);
        cy * self.cols + cx
    }

    /// The block of cells a disk of `radius` around `center` can touch,
    /// as inclusive `(columns, rows)` bounds clamped into the frame.
    /// The `f64 -> usize` cast truncates toward zero and saturates, and
    /// negatives are raised to zero first, so no `floor` is needed.
    fn cell_range(&self, center: Point, radius: f64) -> ((usize, usize), (usize, usize)) {
        let clamp = |v: f64, n: usize| (v.max(0.0) as usize).min(n - 1);
        let along = |c: f64, o: f64, n: usize| {
            (
                clamp((c - radius - o) / self.cell, n),
                clamp((c + radius - o) / self.cell, n),
            )
        };
        (
            along(center.x, self.origin.x, self.cols),
            along(center.y, self.origin.y, self.rows),
        )
    }
}

/// A uniform-grid spatial index over a set of points, queried for "all
/// points within `radius` of here".
///
/// The channel [`Medium`](crate::channel::Medium) keeps one of these
/// over node positions: with cell size `R2`, a range query for an
/// interference radius touches at most a 3×3 block of cells, turning
/// the naive all-pairs scan into a near-linear sweep.
///
/// Internally a bucket per cell (each bucket sorted by point index).
/// The grid supports two maintenance regimes:
///
/// * [`SpatialGrid::rebuild`] reindexes a whole point set, recomputing
///   the geometry (origin, cell size, dimensions) from the data. All
///   buffers are reused, so steady-state rebuilds allocate nothing
///   once capacities have grown to the working-set size.
/// * [`SpatialGrid::move_point`] updates the index incrementally
///   under the geometry *anchored* by the last rebuild. Points that
///   drift outside the anchored bounding box are clamped into edge
///   cells — queries stay **correct** (every candidate is
///   distance-filtered), only the edge buckets grow; callers can
///   consult [`SpatialGrid::covers`] and trigger a rebuild when drift
///   degrades the anchor.
///
/// Queries return indices in **ascending index order** regardless of
/// maintenance history, so an incrementally-updated grid is
/// query-for-query byte-identical to one rebuilt from scratch over the
/// same points (a property the grid proptests assert).
///
/// A point set that is replaced wholesale every round and only ever
/// queried for a summary is better served by [`SnapshotIndex`].
#[derive(Clone, Debug, Default)]
pub struct SpatialGrid {
    /// Nominal cell size requested at construction.
    cell: f64,
    /// Geometry anchored by the last rebuild.
    frame: CellFrame,
    /// Point indices bucketed by cell, each bucket sorted ascending.
    cells: Vec<Vec<u32>>,
    /// Copy of the indexed positions (for distance filtering).
    positions: Vec<Point>,
}

impl SpatialGrid {
    /// Creates an empty grid with the given nominal cell size.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not positive and finite.
    pub fn new(cell: f64) -> Self {
        SpatialGrid {
            cell: CellFrame::checked_nominal(cell),
            ..SpatialGrid::default()
        }
    }

    /// Number of points currently indexed.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` if no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The current position of point `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn position(&self, idx: u32) -> Point {
        self.positions[idx as usize]
    }

    /// `true` if `p` lies inside the bounding box the geometry was
    /// anchored to at the last rebuild. Points outside are still
    /// indexed correctly (clamped into edge cells); this is purely a
    /// performance hint for deciding when to re-anchor.
    pub fn covers(&self, p: Point) -> bool {
        let f = &self.frame;
        f.cols > 0
            && p.x >= f.origin.x
            && p.y >= f.origin.y
            && p.x <= f.anchor_max.x
            && p.y <= f.anchor_max.y
    }

    /// Reindexes `points`, recomputing the anchored geometry and
    /// reusing all internal buffers.
    pub fn rebuild(&mut self, points: &[Point]) {
        self.positions.clear();
        self.positions.extend_from_slice(points);
        self.reindex();
    }

    /// Recomputes geometry and buckets from `self.positions`.
    fn reindex(&mut self) {
        self.frame = CellFrame::anchor(self.cell, self.positions.iter().copied());
        let cells = self.frame.cells();
        if self.cells.len() < cells {
            self.cells.resize_with(cells, Vec::new);
        }
        // Clear the whole active range (stale buckets from an earlier,
        // larger geometry must never leak into queries).
        for bucket in &mut self.cells[..cells] {
            bucket.clear();
        }
        for (i, &p) in self.positions.iter().enumerate() {
            // Indices arrive ascending, so pushing keeps buckets sorted.
            self.cells[self.frame.cell_of(p)].push(i as u32);
        }
    }

    /// Moves point `idx` to `to`, updating only the affected buckets.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn move_point(&mut self, idx: u32, to: Point) {
        let from = self.positions[idx as usize];
        self.positions[idx as usize] = to;
        let cf = self.frame.cell_of(from);
        let ct = self.frame.cell_of(to);
        if cf != ct {
            Self::bucket_remove(&mut self.cells[cf], idx);
            Self::bucket_insert(&mut self.cells[ct], idx);
        }
    }

    fn bucket_remove(bucket: &mut Vec<u32>, idx: u32) {
        let at = bucket
            .binary_search(&idx)
            .expect("grid bucket must contain the point");
        bucket.remove(at);
    }

    fn bucket_insert(bucket: &mut Vec<u32>, idx: u32) {
        let at = bucket
            .binary_search(&idx)
            .expect_err("grid bucket already contains the point");
        bucket.insert(at, idx);
    }

    /// Appends to `out` every point within `radius` of `center`
    /// (inclusive, matching [`Point::within`]) as `(index, squared
    /// distance from center)`, in **ascending index order** — the
    /// canonical order, independent of how the grid was maintained.
    pub fn query_within_d2(&self, center: Point, radius: f64, out: &mut Vec<(u32, f64)>) {
        if self.positions.is_empty() {
            return;
        }
        let base = out.len();
        let r_sq = radius * radius;
        let ((cx0, cx1), (cy0, cy1)) = self.frame.cell_range(center, radius);
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                for &idx in &self.cells[cy * self.frame.cols + cx] {
                    let d2 = self.positions[idx as usize].distance_sq(center);
                    if d2 <= r_sq {
                        out.push((idx, d2));
                    }
                }
            }
        }
        out[base..].sort_unstable_by_key(|&(idx, _)| idx);
    }
}

/// What a receiver hears of one round's broadcasters under the
/// quasi-unit-disk rule — everything the delivery rule reads, and
/// nothing it does not: with two or more broadcasters inside `R2` the
/// receiver gets nothing but the `±` indication, so neither who they
/// are, nor where, nor in which order matters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Heard {
    /// No other broadcaster within `R2`.
    Silence,
    /// Exactly one, at intent slot `slot` and squared distance `d2`.
    One {
        /// The broadcaster's tag (its intent slot).
        slot: u32,
        /// Its exact squared distance from the receiver.
        d2: f64,
    },
    /// Two or more: they destroy each other at this receiver.
    Many,
}

impl Heard {
    /// Folds the `(slot, d²)` hits inside `R2` of one receiver (itself
    /// excluded) into the summary.
    pub fn of(hits: impl IntoIterator<Item = (u32, f64)>) -> Heard {
        hits.into_iter()
            .fold(HeardFold::default(), |f, (slot, d2)| f.push(true, slot, d2))
            .finish()
    }
}

/// The branch-free fold every round kind builds a [`Heard`] with. No
/// minimum: one hit's `d2` is the last hit's, and two or more are
/// only counted.
#[derive(Clone, Copy, Default)]
pub(crate) struct HeardFold {
    count: usize,
    last: u32,
    last_d2: f64,
}

impl HeardFold {
    /// Folds in candidate `slot` at squared distance `d2`; it counts iff `hit`.
    #[inline(always)]
    pub(crate) fn push(mut self, hit: bool, slot: u32, d2: f64) -> Self {
        // Masks, not a branch on `hit`: about a third of the churn
        // scan's candidates hit, in no order a predictor can learn.
        let keep = u64::from(hit).wrapping_neg();
        self.count += usize::from(hit);
        self.last = (slot & keep as u32) | (self.last & !keep as u32);
        self.last_d2 = f64::from_bits((d2.to_bits() & keep) | (self.last_d2.to_bits() & !keep));
        self
    }

    /// The summary of everything folded in.
    pub(crate) fn finish(self) -> Heard {
        match self.count {
            0 => Heard::Silence,
            1 => Heard::One {
                slot: self.last,
                d2: self.last_d2,
            },
            _ => Heard::Many,
        }
    }
}

/// A read-only index over one round's tagged points, rebuilt from
/// scratch each round and queried only for a [`Heard`] summary.
///
/// Where [`SpatialGrid`] keeps a bucket per cell and an anchored,
/// incrementally maintained topology, this is a counting sort: one
/// contiguous `entries` array in row-major cell order with the position
/// and tag inline, plus `starts[cell]` offsets. A receiver's block of
/// cells is then one linear range per cell row — no per-candidate
/// indirection, no list to build, sort or prune. It is never moved,
/// inserted into or removed from; it shares the anchoring rule and the
/// cell-range arithmetic with [`SpatialGrid`].
///
/// ```
/// use vi_radio::geometry::{Heard, Point, SnapshotIndex};
/// let mut index = SnapshotIndex::new(20.0);
/// index.rebuild([(Point::new(0.0, 0.0), 7), (Point::new(50.0, 0.0), 9)]);
/// // Slot 7 is the only broadcaster within 20 m of (5, 0) ...
/// let heard = index.scan(Point::new(5.0, 0.0), 20.0, u32::MAX);
/// assert_eq!(heard, Heard::One { slot: 7, d2: 25.0 });
/// // ... and hears nothing but itself.
/// assert_eq!(index.scan(Point::new(0.0, 0.0), 20.0, 7), Heard::Silence);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SnapshotIndex {
    /// Nominal cell size requested at construction.
    cell: f64,
    /// Geometry anchored by the last rebuild.
    frame: CellFrame,
    /// `entries[starts[c]..starts[c + 1]]` is cell `c` (one more offset
    /// than cells).
    starts: Vec<u32>,
    /// Every point with its tag, grouped by cell in row-major order.
    entries: Vec<(Point, u32)>,
    /// Rebuild scratch: the points in arrival order.
    staged: Vec<(Point, u32)>,
}

impl SnapshotIndex {
    /// Creates an empty index with the given nominal cell size (the
    /// radius it will be scanned with, for a 3×3-cell block per scan).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not positive and finite.
    pub fn new(cell: f64) -> Self {
        SnapshotIndex {
            cell: CellFrame::checked_nominal(cell),
            ..SnapshotIndex::default()
        }
    }

    /// Number of points indexed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Replaces the indexed set with `points` (position, tag), anchoring
    /// the geometry to their bounding box. All buffers are reused, so
    /// rebuilds allocate nothing once capacities have grown to the
    /// working-set size.
    pub fn rebuild(&mut self, points: impl IntoIterator<Item = (Point, u32)>) {
        self.staged.clear();
        self.staged.extend(points);
        self.frame = CellFrame::anchor(self.cell, self.staged.iter().map(|&(p, _)| p));
        // Counting sort by cell: tally, prefix-sum into end offsets,
        // then place back to front, which leaves `starts[c]` at the
        // start of cell `c` and keeps arrival order within a cell.
        let cells = self.frame.cells();
        self.starts.clear();
        self.starts.resize(cells + 1, 0);
        for &(p, _) in &self.staged {
            self.starts[self.frame.cell_of(p)] += 1;
        }
        let mut end = 0u32;
        for start in &mut self.starts {
            end += *start;
            *start = end;
        }
        // Every slot is overwritten below, so only the length matters.
        self.entries.resize(self.staged.len(), (Point::ORIGIN, 0));
        for &(p, tag) in self.staged.iter().rev() {
            let start = &mut self.starts[self.frame.cell_of(p)];
            *start -= 1;
            self.entries[*start as usize] = (p, tag);
        }
    }

    /// What a receiver at `center` hears of the indexed points: those
    /// within `r2` (inclusive), except the one tagged `exclude` — the
    /// receiver's own slot when it broadcasts itself.
    ///
    /// One fused pass over the block's cell rows: hits are counted, not
    /// listed, and every candidate goes through the branch-free fold.
    pub fn scan(&self, center: Point, r2: f64, exclude: u32) -> Heard {
        if self.entries.is_empty() {
            return Heard::Silence;
        }
        let r2_sq = r2 * r2;
        let ((cx0, cx1), (cy0, cy1)) = self.frame.cell_range(center, r2);
        let mut fold = HeardFold::default();
        for cy in cy0..=cy1 {
            let row = cy * self.frame.cols;
            let lo = self.starts[row + cx0] as usize;
            let hi = self.starts[row + cx1 + 1] as usize;
            for &(p, tag) in &self.entries[lo..hi] {
                let d2 = p.distance_sq(center);
                fold = fold.push((d2 <= r2_sq) & (tag != exclude), tag, d2);
            }
        }
        fold.finish()
    }
}

#[cfg(test)]
impl Heard {
    /// The min-based fold [`HeardFold`] replaced, kept as the reference
    /// the fold is held against: it keeps the nearest hit's distance,
    /// which is the one hit's when there is one.
    pub(crate) fn reference(hits: impl IntoIterator<Item = (u32, f64)>) -> Heard {
        let (mut count, mut nearest, mut last) = (0usize, f64::INFINITY, 0u32);
        for (slot, d2) in hits {
            count += 1;
            nearest = nearest.min(d2);
            last = slot;
        }
        match count {
            0 => Heard::Silence,
            1 => Heard::One {
                slot: last,
                d2: nearest,
            },
            _ => Heard::Many,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(-3.0, 7.5);
        assert_eq!(a.distance(b), b.distance(a));
    }

    #[test]
    fn distance_triangle_inequality() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(5.0, 1.0);
        let c = Point::new(2.0, 9.0);
        assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-12);
    }

    #[test]
    fn within_is_inclusive() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!(a.within(b, 5.0));
        assert!(!a.within(b, 4.999));
    }

    #[test]
    fn step_towards_respects_bound() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        let stepped = a.step_towards(b, 3.0);
        assert!((a.distance(stepped) - 3.0).abs() < 1e-12);
        // Stops at the target when close enough.
        let close = Point::new(1.0, 0.0);
        assert_eq!(close.step_towards(b, 100.0), b);
    }

    #[test]
    fn step_towards_zero_distance() {
        let a = Point::new(2.0, 2.0);
        assert_eq!(a.step_towards(a, 1.0), a);
    }

    #[test]
    fn rect_contains_and_clamp() {
        let r = Rect::square(10.0);
        assert!(r.contains(Point::new(5.0, 5.0)));
        assert!(r.contains(Point::new(0.0, 10.0)));
        assert!(!r.contains(Point::new(-0.1, 5.0)));
        assert_eq!(r.clamp(Point::new(-3.0, 12.0)), Point::new(0.0, 10.0));
    }

    #[test]
    #[should_panic(expected = "Rect min must be <= max")]
    fn rect_rejects_inverted_corners() {
        let _ = Rect::new(Point::new(1.0, 0.0), Point::new(0.0, 1.0));
    }

    #[test]
    fn rect_center() {
        let r = Rect::new(Point::new(2.0, 2.0), Point::new(6.0, 10.0));
        assert_eq!(r.center(), Point::new(4.0, 6.0));
    }

    #[test]
    fn lerp_endpoints() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(4.0, 8.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(2.0, 4.0));
    }

    /// The indices `query_within_d2` reports, in the order it reports
    /// them.
    fn query_within(grid: &SpatialGrid, center: Point, radius: f64) -> Vec<u32> {
        let mut hits = Vec::new();
        grid.query_within_d2(center, radius, &mut hits);
        hits.into_iter().map(|(idx, _)| idx).collect()
    }

    /// Brute-force oracle for grid queries.
    fn naive_within(points: &[Point], center: Point, radius: f64) -> Vec<u32> {
        (0..points.len() as u32)
            .filter(|&i| points[i as usize].within(center, radius))
            .collect()
    }

    #[test]
    fn grid_matches_naive_queries() {
        // Deterministic pseudo-random scatter (no RNG dependency here).
        let points: Vec<Point> = (0..200u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
                Point::new((h % 1000) as f64 / 7.0, ((h >> 32) % 1000) as f64 / 7.0)
            })
            .collect();
        let mut grid = SpatialGrid::new(20.0);
        grid.rebuild(&points);
        assert_eq!(grid.len(), points.len());
        for (qi, &center) in points.iter().enumerate().step_by(17) {
            for radius in [0.5, 5.0, 20.0, 75.0] {
                assert_eq!(
                    query_within(&grid, center, radius),
                    naive_within(&points, center, radius),
                    "query {qi} radius {radius}"
                );
            }
        }
    }

    #[test]
    fn grid_rebuild_reuses_and_resizes() {
        let mut grid = SpatialGrid::new(10.0);
        grid.rebuild(&[Point::new(1.0, 1.0), Point::new(2.0, 2.0)]);
        assert_eq!(grid.len(), 2);
        assert_eq!(query_within(&grid, Point::new(1.0, 1.0), 5.0).len(), 2);

        // Shrink to empty and grow again: queries must stay consistent.
        grid.rebuild(&[]);
        assert!(grid.is_empty());
        assert!(query_within(&grid, Point::ORIGIN, 100.0).is_empty());

        let far = vec![Point::new(0.0, 0.0), Point::new(1e6, 1e6)];
        grid.rebuild(&far);
        assert_eq!(
            query_within(&grid, Point::new(1e6, 1e6), 1.0),
            vec![1],
            "coarsened grid still answers correctly"
        );
    }

    #[test]
    fn grid_query_is_inclusive_like_within() {
        let points = vec![Point::new(0.0, 0.0), Point::new(3.0, 4.0)];
        let mut grid = SpatialGrid::new(20.0);
        grid.rebuild(&points);
        assert_eq!(
            query_within(&grid, Point::ORIGIN, 5.0),
            vec![0, 1],
            "boundary point included"
        );
        assert_eq!(query_within(&grid, Point::ORIGIN, 4.999), vec![0]);
    }

    /// The shared cell-range helper dropped the four `floor` calls of
    /// the formula it replaced (kept here): truncation and saturation
    /// of the `f64 -> usize` cast already do that work.
    #[test]
    fn cell_range_equals_the_floored_formula() {
        let frame = CellFrame::anchor(
            10.0,
            [Point::new(5.0, -20.0), Point::new(95.0, 40.0)].into_iter(),
        );
        assert_eq!((frame.cols, frame.rows), (10, 7));
        let floored = |center: Point, radius: f64| {
            let lo_x = ((center.x - radius - frame.origin.x) / frame.cell).floor();
            let hi_x = ((center.x + radius - frame.origin.x) / frame.cell).floor();
            let lo_y = ((center.y - radius - frame.origin.y) / frame.cell).floor();
            let hi_y = ((center.y + radius - frame.origin.y) / frame.cell).floor();
            let clamp = |v: f64, hi: usize| (v.max(0.0) as usize).min(hi - 1);
            (
                (clamp(lo_x, frame.cols), clamp(hi_x, frame.cols)),
                (clamp(lo_y, frame.rows), clamp(hi_y, frame.rows)),
            )
        };
        // Left of / below the anchor, beyond `anchor_max`, on exact
        // cell boundaries (centre, centre ± radius, or both), inside.
        let xs = [-1e9, -30.0, 4.999, 5.0, 15.0, 25.0, 52.5, 95.0, 105.0, 1e9];
        let ys = [-1e9, -45.0, -20.0, -10.0, 0.0, 13.7, 40.0, 50.0, 1e9];
        for &x in &xs {
            for &y in &ys {
                for radius in [0.0, 0.5, 10.0, 20.0, 1e3] {
                    let center = Point::new(x, y);
                    assert_eq!(
                        frame.cell_range(center, radius),
                        floored(center, radius),
                        "centre {center} radius {radius}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "grid cell size")]
    fn grid_rejects_bad_cell() {
        let _ = SpatialGrid::new(0.0);
    }

    #[test]
    fn grid_queries_are_in_ascending_index_order() {
        // Points scattered so cell order differs from index order.
        let points = vec![
            Point::new(90.0, 90.0),
            Point::new(1.0, 1.0),
            Point::new(50.0, 50.0),
            Point::new(2.0, 2.0),
        ];
        let mut grid = SpatialGrid::new(10.0);
        grid.rebuild(&points);
        assert_eq!(
            query_within(&grid, Point::new(45.0, 45.0), 100.0),
            vec![0, 1, 2, 3],
            "canonical ascending order"
        );
        let mut d2 = Vec::new();
        grid.query_within_d2(Point::new(1.0, 1.0), 2.0, &mut d2);
        assert_eq!(d2.len(), 2);
        assert_eq!((d2[0].0, d2[1].0), (1, 3));
        assert_eq!(d2[0].1, 0.0);
    }

    #[test]
    fn grid_incremental_ops_track_positions() {
        let mut grid = SpatialGrid::new(5.0);
        grid.rebuild(&[Point::new(0.0, 0.0), Point::new(20.0, 0.0)]);
        assert!(grid.covers(Point::new(10.0, 0.0)));
        assert!(!grid.covers(Point::new(30.0, 5.0)));

        // Move point 0 across cells; queries follow it.
        grid.move_point(0, Point::new(19.0, 0.0));
        assert_eq!(grid.position(0), Point::new(19.0, 0.0));
        assert_eq!(query_within(&grid, Point::new(20.0, 0.0), 1.5), vec![0, 1]);

        // Moving outside the anchor stays correct (clamped edge cell).
        grid.move_point(0, Point::new(45.0, 3.0));
        assert_eq!(query_within(&grid, Point::new(45.0, 3.0), 1.0), vec![0]);
    }
}
