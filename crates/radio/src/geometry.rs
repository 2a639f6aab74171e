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
/// anchored to. [`CellIndex`] buckets and queries through one of these.
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

    /// Anchors a frame with nominal cell size `nominal` to the bounding
    /// box of `points`, padded by `nominal` on every side (no columns
    /// and no rows if there are none). The padding keeps a point that
    /// steps just past the hull [covered](CellIndex::covers): a medium
    /// whose movers circle on its edge moves them surgically instead
    /// of re-anchoring every round.
    fn anchor(nominal: f64, points: impl Iterator<Item = Point>) -> CellFrame {
        let (mut min_x, mut min_y, mut max_x, mut max_y) = (
            f64::INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
        );
        let mut len = 0usize;
        for p in points {
            len += 1;
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        if len == 0 {
            return CellFrame::default();
        }
        let (min_x, min_y) = (min_x - nominal, min_y - nominal);
        let (max_x, max_y) = (max_x + nominal, max_y + nominal);
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

/// What a receiver hears of one round's broadcasters under the
/// quasi-unit-disk rule — everything the delivery rule reads, and
/// nothing it does not: with two or more broadcasters inside `R2` the
/// receiver gets nothing but the `±` indication, so neither who they
/// are, nor where, nor in which order matters. A lone broadcaster's
/// distance is the delivery rule's to compute, from the round's
/// positions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Heard {
    /// No other broadcaster within `R2`.
    Silence,
    /// Exactly one, at intent slot `slot`.
    One {
        /// The broadcaster's tag (its intent slot).
        slot: u32,
    },
    /// Two or more: they destroy each other at this receiver.
    Many,
}

impl Heard {
    /// Folds the slots of the hits inside `R2` of one receiver (itself
    /// excluded) into the summary.
    pub fn of(hits: impl IntoIterator<Item = u32>) -> Heard {
        hits.into_iter()
            .fold(HeardFold::default(), |f, slot| f.push(true, slot))
            .finish()
    }
}

/// The branch-free fold every round kind builds a [`Heard`] with: a
/// hit count and the last hit's slot, which is the one hit's when
/// there is one.
#[derive(Clone, Copy, Default)]
pub(crate) struct HeardFold {
    count: usize,
    last: u32,
}

impl HeardFold {
    /// Folds in candidate `slot`; it counts iff `hit`.
    #[inline(always)]
    pub(crate) fn push(mut self, hit: bool, slot: u32) -> Self {
        // A mask, not a branch on `hit`: about a third of the churn
        // scan's candidates hit, in no order a predictor can learn.
        let keep = u32::from(hit).wrapping_neg();
        self.count += usize::from(hit);
        self.last = (slot & keep) | (self.last & !keep);
        self
    }

    /// The summary of everything folded in.
    pub(crate) fn finish(self) -> Heard {
        match self.count {
            0 => Heard::Silence,
            1 => Heard::One { slot: self.last },
            _ => Heard::Many,
        }
    }
}

/// A uniform-grid index over tagged points, queried for the points
/// within a radius of a centre.
///
/// A counting sort: one contiguous `entries` array in row-major cell
/// order with the position and tag inline, plus `starts[cell]`
/// offsets. A centre's block of cells is then one linear range per cell
/// row — no per-candidate indirection.
///
/// * [`CellIndex::rebuild`] indexes a whole point set, anchoring the
///   geometry (origin, cell size, dimensions) to its bounding box. All
///   buffers are reused, so steady-state rebuilds allocate nothing
///   once capacities have grown to the working-set size.
/// * [`CellIndex::move_point`] moves one point under the anchored
///   geometry. Points that drift outside the anchored bounding box are
///   clamped into edge cells — queries stay **correct** (every
///   candidate is distance-filtered), only the edge cells grow; callers
///   can consult [`CellIndex::covers`] and rebuild when drift degrades
///   the anchor.
///
/// [`CellIndex::query_within`] lists the tags within a radius in
/// **ascending order** whatever the maintenance history, so a moved
/// index answers query for query like one rebuilt from scratch over the
/// same points; [`CellIndex::scan`] only counts them.
///
/// ```
/// use vi_radio::geometry::{CellIndex, Heard, Point};
/// let mut index = CellIndex::new(20.0);
/// index.rebuild([(Point::new(0.0, 0.0), 7), (Point::new(50.0, 0.0), 9)].into_iter());
/// // Slot 7 is the only point within 20 m of (5, 0) ...
/// assert_eq!(index.scan(Point::new(5.0, 0.0), 20.0, u32::MAX), Heard::One { slot: 7 });
/// // ... and hears nothing but itself.
/// assert_eq!(index.scan(Point::new(0.0, 0.0), 20.0, 7), Heard::Silence);
/// // Moved next to slot 9, it is listed with it.
/// index.move_point(7, Point::new(45.0, 0.0));
/// let mut near = Vec::new();
/// index.query_within(Point::new(48.0, 0.0), 5.0, u32::MAX, &mut near);
/// assert_eq!(near, [7, 9]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CellIndex {
    /// Nominal cell size requested at construction.
    cell: f64,
    /// Geometry anchored by the last rebuild.
    frame: CellFrame,
    /// `entries[starts[c]..starts[c + 1]]` is cell `c` (one more offset
    /// than cells).
    starts: Vec<u32>,
    /// Every point with its tag, grouped by cell in row-major order.
    entries: Vec<(Point, u32)>,
    /// The cell of every indexed tag, where `move_point` finds it.
    tag_cell: Vec<u32>,
}

impl CellIndex {
    /// Creates an empty index with the given nominal cell size (the
    /// radius it will be queried with, for a 3×3-cell block per query).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not positive and finite.
    pub fn new(cell: f64) -> Self {
        assert!(
            cell.is_finite() && cell > 0.0,
            "grid cell size must be positive and finite (got {cell})"
        );
        CellIndex {
            cell,
            ..CellIndex::default()
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

    /// `true` if `p` lies inside the bounding box the geometry was
    /// anchored to at the last rebuild, padded by one nominal cell on
    /// every side. Points outside are still
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

    /// Replaces the indexed set with `points` (position, distinct tag),
    /// anchoring the geometry to their bounding box. The points are
    /// walked three times — bounding box, cell tally, placement — and
    /// copied nowhere else.
    pub fn rebuild<I>(&mut self, points: I)
    where
        I: DoubleEndedIterator<Item = (Point, u32)> + Clone,
    {
        let mut tags = 0;
        let positions = points.clone().map(|(p, tag)| {
            tags = tags.max(tag as usize + 1);
            p
        });
        self.frame = CellFrame::anchor(self.cell, positions);
        if self.tag_cell.len() < tags {
            // Exact: `resize` alone may double the buffer, and the
            // tags of one medium stay below its population.
            self.tag_cell.reserve_exact(tags - self.tag_cell.len());
            self.tag_cell.resize(tags, 0);
        }
        // Counting sort by cell: tally, prefix-sum into end offsets,
        // then place back to front, which leaves `starts[c]` at the
        // start of cell `c` and keeps arrival order within a cell.
        self.starts.clear();
        self.starts.resize(self.frame.cells() + 1, 0);
        for (p, tag) in points.clone() {
            let cell = self.frame.cell_of(p);
            self.starts[cell] += 1;
            self.tag_cell[tag as usize] = cell as u32;
        }
        let mut end = 0u32;
        for start in &mut self.starts {
            end += *start;
            *start = end;
        }
        // Every slot is overwritten below, so only the length matters.
        self.entries.resize(end as usize, (Point::ORIGIN, 0));
        for (p, tag) in points.rev() {
            let start = &mut self.starts[self.tag_cell[tag as usize] as usize];
            *start -= 1;
            self.entries[*start as usize] = (p, tag);
        }
    }

    /// Moves the point tagged `tag` to `to` under the anchored
    /// geometry. Between its old cell and its new one the entry is
    /// rotated one cell boundary at a time: swapped to the edge of the
    /// cell it is in, which then gives up that position to its
    /// neighbour. Only the moved point's cell and the boundaries it
    /// crosses change.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is not indexed.
    pub fn move_point(&mut self, tag: u32, to: Point) {
        let from = self.tag_cell[tag as usize] as usize;
        let dest = self.frame.cell_of(to);
        let (lo, hi) = (self.starts[from] as usize, self.starts[from + 1] as usize);
        let mut at = lo
            + self.entries[lo..hi]
                .iter()
                .position(|&(_, t)| t == tag)
                .expect("the index must hold the moved tag");
        self.entries[at].0 = to;
        self.tag_cell[tag as usize] = dest as u32;
        for cell in from..dest {
            // To the end of `cell`, which the next cell then starts at.
            let last = self.starts[cell + 1] as usize - 1;
            self.entries.swap(at, last);
            self.starts[cell + 1] -= 1;
            at = last;
        }
        for cell in (dest + 1..=from).rev() {
            // To the start of `cell`, which the previous cell then ends at.
            let first = self.starts[cell] as usize;
            self.entries.swap(at, first);
            self.starts[cell] += 1;
            at = first;
        }
    }

    /// The entries of the cells a disk of `radius` around `center` can
    /// touch, as one contiguous slice per cell row.
    fn block(&self, center: Point, radius: f64) -> impl Iterator<Item = &[(Point, u32)]> {
        let ((cx0, cx1), (cy0, cy1)) = if self.entries.is_empty() {
            // An empty range of rows: the frame has no cells.
            ((0, 0), (1, 0))
        } else {
            self.frame.cell_range(center, radius)
        };
        (cy0..=cy1).map(move |cy| {
            let row = cy * self.frame.cols;
            let lo = self.starts[row + cx0] as usize;
            let hi = self.starts[row + cx1 + 1] as usize;
            &self.entries[lo..hi]
        })
    }

    /// Replaces `out` with the tags of every point within `radius` of
    /// `center` (inclusive, matching [`Point::within`]) except
    /// `exclude`, in **ascending tag order** — the canonical order,
    /// independent of how the index was maintained.
    pub fn query_within(&self, center: Point, radius: f64, exclude: u32, out: &mut Vec<u32>) {
        out.clear();
        let r_sq = radius * radius;
        for row in self.block(center, radius) {
            for &(p, tag) in row {
                if p.distance_sq(center) <= r_sq && tag != exclude {
                    out.push(tag);
                }
            }
        }
        out.sort_unstable();
    }

    /// What a receiver at `center` hears of the indexed points: those
    /// within `r2` (inclusive), except the one tagged `exclude` — the
    /// receiver's own slot when it broadcasts itself.
    ///
    /// One fused pass over the block's cell rows: hits are counted, not
    /// listed, and every candidate goes through the branch-free fold.
    pub fn scan(&self, center: Point, r2: f64, exclude: u32) -> Heard {
        let r2_sq = r2 * r2;
        let mut fold = HeardFold::default();
        for row in self.block(center, r2) {
            for &(p, tag) in row {
                fold = fold.push((p.distance_sq(center) <= r2_sq) & (tag != exclude), tag);
            }
        }
        fold.finish()
    }
}

#[cfg(test)]
impl Heard {
    /// The obviously correct summary [`HeardFold`] is held against:
    /// the hits listed, then matched on their number.
    pub(crate) fn reference(hits: impl IntoIterator<Item = u32>) -> Heard {
        match hits.into_iter().collect::<Vec<_>>()[..] {
            [] => Heard::Silence,
            [slot] => Heard::One { slot },
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

    /// Indexes `points`, tagged by their index.
    fn index_of(cell: f64, points: &[Point]) -> CellIndex {
        let mut index = CellIndex::new(cell);
        index.rebuild(points.iter().copied().zip(0..points.len() as u32));
        index
    }

    /// The tags `query_within` reports, in the order it reports them.
    fn query_within(index: &CellIndex, center: Point, radius: f64) -> Vec<u32> {
        let mut hits = Vec::new();
        index.query_within(center, radius, u32::MAX, &mut hits);
        hits
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
        let index = index_of(20.0, &points);
        assert_eq!(index.len(), points.len());
        for (qi, &center) in points.iter().enumerate().step_by(17) {
            for radius in [0.5, 5.0, 20.0, 75.0] {
                assert_eq!(
                    query_within(&index, center, radius),
                    naive_within(&points, center, radius),
                    "query {qi} radius {radius}"
                );
            }
        }
    }

    #[test]
    fn grid_rebuild_reuses_and_resizes() {
        let mut index = index_of(10.0, &[Point::new(1.0, 1.0), Point::new(2.0, 2.0)]);
        assert_eq!(index.len(), 2);
        assert_eq!(query_within(&index, Point::new(1.0, 1.0), 5.0).len(), 2);

        // Shrink to empty and grow again: queries must stay consistent.
        index.rebuild(std::iter::empty());
        assert!(index.is_empty());
        assert!(query_within(&index, Point::ORIGIN, 100.0).is_empty());
        assert_eq!(index.scan(Point::ORIGIN, 100.0, u32::MAX), Heard::Silence);

        let far = [Point::new(0.0, 0.0), Point::new(1e6, 1e6)];
        index.rebuild(far.into_iter().zip(0..2));
        assert_eq!(
            query_within(&index, Point::new(1e6, 1e6), 1.0),
            vec![1],
            "coarsened grid still answers correctly"
        );
    }

    #[test]
    fn grid_query_is_inclusive_like_within() {
        let index = index_of(20.0, &[Point::new(0.0, 0.0), Point::new(3.0, 4.0)]);
        assert_eq!(
            query_within(&index, Point::ORIGIN, 5.0),
            vec![0, 1],
            "boundary point included"
        );
        assert_eq!(query_within(&index, Point::ORIGIN, 4.999), vec![0]);
        let mut hits = Vec::new();
        index.query_within(Point::ORIGIN, 5.0, 0, &mut hits);
        assert_eq!(hits, [1], "the excluded tag is left out");
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
        assert_eq!((frame.cols, frame.rows), (12, 9));
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
        let _ = CellIndex::new(0.0);
    }

    #[test]
    fn grid_queries_are_in_ascending_index_order() {
        // Points scattered so cell order differs from index order.
        let points = [
            Point::new(90.0, 90.0),
            Point::new(1.0, 1.0),
            Point::new(50.0, 50.0),
            Point::new(2.0, 2.0),
        ];
        let index = index_of(10.0, &points);
        assert_eq!(
            query_within(&index, Point::new(45.0, 45.0), 100.0),
            vec![0, 1, 2, 3],
            "canonical ascending order"
        );
        assert_eq!(query_within(&index, Point::new(1.0, 1.0), 2.0), vec![1, 3]);
    }

    /// Moves forward and backward across cells (within a row and
    /// across rows), within one cell, and out of the anchored box: after
    /// each, every query answers like an index rebuilt from the moved
    /// points, and the cell offsets still partition the entries.
    #[test]
    fn grid_incremental_ops_track_positions() {
        let mut points: Vec<Point> = (0..12)
            .map(|i| Point::new(f64::from(i % 4) * 10.0 + 1.0, f64::from(i / 4) * 10.0 + 1.0))
            .collect();
        let mut index = index_of(5.0, &points);
        assert!(index.covers(Point::new(10.0, 10.0)));
        assert!(!index.covers(Point::new(40.0, 5.0)));
        let moves = [
            (0, Point::new(29.0, 1.0)),  // forward along a row
            (0, Point::new(2.0, 1.5)),   // backward along it
            (0, Point::new(3.0, 2.0)),   // within one cell
            (5, Point::new(11.0, 31.0)), // forward across rows
            (11, Point::new(1.0, 0.5)),  // backward across rows
            (7, Point::new(45.0, 3.0)),  // outside the anchor (clamped)
            (7, Point::new(-9.0, 40.0)), // and out the other side
        ];
        for (tag, to) in moves {
            index.move_point(tag, to);
            points[tag as usize] = to;
            let rebuilt = index_of(5.0, &points);
            assert_eq!(index.len(), points.len());
            assert_eq!(index.starts.last().copied(), Some(points.len() as u32));
            assert!(index.starts.windows(2).all(|w| w[0] <= w[1]));
            for center in points.iter().copied().chain([Point::new(20.0, 20.0)]) {
                for radius in [1.0, 5.0, 12.0, 60.0] {
                    assert_eq!(
                        query_within(&index, center, radius),
                        query_within(&rebuilt, center, radius),
                        "after moving {tag} to {to}: centre {center} radius {radius}"
                    );
                    assert_eq!(
                        query_within(&index, center, radius),
                        naive_within(&points, center, radius)
                    );
                }
            }
        }
    }
}
