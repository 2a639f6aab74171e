//! Mobility with bounded velocity.
//!
//! The paper's model: "At any given time, a node resides at a location
//! in the plane, and its velocity is bounded by `vmax`." One simulator
//! round is one time slot, so the velocity bound becomes a bound on
//! per-round displacement.
//!
//! A [`MobilitySpec`] describes how a node moves: it validates itself
//! and [builds](MobilitySpec::build) the model, and a static node's
//! model is its [`Point`]. The engine calls [`MobilityModel::advance`]
//! once per round *before* collecting transmissions, and delivers the
//! position to the process through [`RoundCtx`](crate::RoundCtx): the
//! paper's GPS / location service.

use crate::geometry::{Point, Rect};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// A trajectory generator with bounded per-round displacement.
pub trait MobilityModel {
    /// Returns the node's position for round `round`.
    ///
    /// Implementations must move at most [`MobilityModel::vmax`] per
    /// round; the engine debug-asserts this invariant.
    fn advance(&mut self, round: u64, rng: &mut StdRng) -> Point;

    /// Maximum displacement per round, in meters.
    fn vmax(&self) -> f64;

    /// `true` once this model is *settled*: every future
    /// [`MobilityModel::advance`] call would return the position of the
    /// last call (or the construction position, if never advanced) and
    /// would draw **nothing** from the RNG.
    ///
    /// This is the engine's static-node fast-path contract: for a
    /// placed, settled node `Engine::step` skips the `advance` call
    /// entirely, so a wrong `true` would corrupt positions or the
    /// shared RNG stream. Settling is permanent — a model must never
    /// report `true` and later move or draw randomness. The
    /// conservative default is `false` (always advanced).
    fn is_settled(&self) -> bool {
        false
    }
}

/// A static node is its position: it never moves and is settled.
impl MobilityModel for Point {
    fn advance(&mut self, _round: u64, _rng: &mut StdRng) -> Point {
        *self
    }

    fn vmax(&self) -> f64 {
        0.0
    }

    fn is_settled(&self) -> bool {
        true
    }
}

/// How a node moves, given its start position and the arena bounds.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum MobilitySpec {
    /// Never moves.
    Static,
    /// Random waypoint: walk towards a uniform target in the arena,
    /// and draw a new one (x, then y) on arrival. The standard
    /// ad-hoc-network model, and the churn experiments' default.
    Waypoint {
        /// Speed in meters per round.
        speed: f64,
    },
    /// Constant velocity, reflecting off the arena bounds: it leaves a
    /// virtual-node region as fast as the velocity bound allows (the
    /// temporary-leader lease analysis of Section 4.2).
    Billiard {
        /// X velocity in meters per round.
        vel_x: f64,
        /// Y velocity in meters per round.
        vel_y: f64,
    },
    /// Cyclic patrol through explicit waypoints (the robots of the
    /// robot-coordination example); starts at the first waypoint, so
    /// the start position is ignored.
    PatrolRoute {
        /// Waypoints, visited cyclically.
        route: Vec<Point>,
        /// Speed in meters per round.
        speed: f64,
    },
    /// Stationary until round `depart_at`, then a straight-line walk
    /// along the (normalised) direction: a replica scripted to leave a
    /// virtual node's region.
    DepartAt {
        /// X component of the departure direction.
        dir_x: f64,
        /// Y component of the departure direction.
        dir_y: f64,
        /// Speed in meters per round.
        speed: f64,
        /// Round at which the node departs.
        depart_at: u64,
    },
}

/// Euclidean length of `(x, y)`.
fn norm(x: f64, y: f64) -> f64 {
    (x * x + y * y).sqrt()
}

impl MobilitySpec {
    /// Checks what [`build`](Self::build) needs: a finite,
    /// non-negative speed, a finite velocity, a non-empty route, a
    /// non-zero departure direction.
    ///
    /// # Errors
    ///
    /// Returns what is wrong, naming the kind.
    pub fn validate(&self) -> Result<(), String> {
        let speed_ok = |kind: &str, speed: f64| {
            if speed.is_finite() && speed >= 0.0 {
                Ok(())
            } else {
                Err(format!("{kind} speed must be finite and non-negative"))
            }
        };
        match self {
            MobilitySpec::Static => Ok(()),
            MobilitySpec::Waypoint { speed } => speed_ok("waypoint", *speed),
            MobilitySpec::Billiard { vel_x, vel_y } if vel_x.is_finite() && vel_y.is_finite() => {
                Ok(())
            }
            MobilitySpec::Billiard { .. } => Err("billiard velocity must be finite".into()),
            MobilitySpec::PatrolRoute { route, .. } if route.is_empty() => {
                Err("patrol route must not be empty".into())
            }
            MobilitySpec::PatrolRoute { speed, .. } => speed_ok("patrol", *speed),
            MobilitySpec::DepartAt {
                dir_x,
                dir_y,
                speed,
                ..
            } if norm(*dir_x, *dir_y) > 0.0 => speed_ok("departure", *speed),
            MobilitySpec::DepartAt { .. } => Err("departure direction must be non-zero".into()),
        }
    }

    /// Builds the model of a node starting at `start` inside `arena`
    /// (a patrol starts at its first waypoint instead).
    ///
    /// # Panics
    ///
    /// Panics if [`validate`](Self::validate) fails, or if a waypoint
    /// or billiard node starts outside `arena`.
    pub fn build(&self, start: Point, arena: Rect) -> Box<dyn MobilityModel> {
        if let Err(e) = self.validate() {
            panic!("invalid mobility: {e}");
        }
        let mut spec = self.clone();
        let (pos, next) = match &mut spec {
            MobilitySpec::Static => return Box::new(start),
            MobilitySpec::Waypoint { .. } | MobilitySpec::Billiard { .. } => {
                assert!(
                    arena.contains(start),
                    "{self:?} start {start} outside bounds {arena}"
                );
                (start, 0)
            }
            MobilitySpec::PatrolRoute { route, .. } => (route[0], 1 % route.len()),
            MobilitySpec::DepartAt { dir_x, dir_y, .. } => {
                let n = norm(*dir_x, *dir_y);
                (*dir_x, *dir_y) = (*dir_x / n, *dir_y / n);
                (start, 0)
            }
        };
        Box::new(Moving {
            pos,
            target: pos,
            next,
            spec,
            arena,
        })
    }
}

/// Every moving kind's runtime. `spec` is the node's description, and
/// it steps in place: [`MobilitySpec::build`] stores a departure's
/// direction normalised, and a billiard's velocity reflects off the
/// arena's walls.
struct Moving {
    pos: Point,
    /// A waypoint walker's target.
    target: Point,
    /// A patrol's next stop, as an index into its route.
    next: usize,
    spec: MobilitySpec,
    arena: Rect,
}

/// One billiard axis: steps `x` by `v` and, past `[lo, hi]`, reverses
/// `v` and clamps.
fn reflect(x: f64, v: &mut f64, lo: f64, hi: f64) -> f64 {
    let x = x + *v;
    if x < lo || x > hi {
        *v = -*v;
        return x.clamp(lo, hi);
    }
    x
}

impl MobilityModel for Moving {
    fn advance(&mut self, round: u64, rng: &mut StdRng) -> Point {
        let Rect { min, max } = self.arena;
        match &mut self.spec {
            MobilitySpec::Static => {}
            MobilitySpec::Waypoint { speed } => {
                if self.pos == self.target {
                    self.target = Point::new(
                        rng.random_range(min.x..=max.x),
                        rng.random_range(min.y..=max.y),
                    );
                }
                self.pos = self.pos.step_towards(self.target, *speed);
            }
            MobilitySpec::Billiard { vel_x, vel_y } => {
                let x = reflect(self.pos.x, vel_x, min.x, max.x);
                let y = reflect(self.pos.y, vel_y, min.y, max.y);
                self.pos = Point::new(x, y);
            }
            MobilitySpec::PatrolRoute { route, speed } => {
                let target = route[self.next];
                self.pos = self.pos.step_towards(target, *speed);
                if self.pos == target {
                    self.next = (self.next + 1) % route.len();
                }
            }
            MobilitySpec::DepartAt {
                dir_x,
                dir_y,
                speed,
                depart_at,
            } => {
                if round >= *depart_at {
                    self.pos =
                        Point::new(self.pos.x + *dir_x * *speed, self.pos.y + *dir_y * *speed);
                }
            }
        }
        self.pos
    }

    fn vmax(&self) -> f64 {
        match self.spec {
            MobilitySpec::Static => 0.0,
            MobilitySpec::Billiard { vel_x, vel_y } => norm(vel_x, vel_y),
            MobilitySpec::Waypoint { speed }
            | MobilitySpec::PatrolRoute { speed, .. }
            | MobilitySpec::DepartAt { speed, .. } => speed,
        }
    }

    fn is_settled(&self) -> bool {
        match &self.spec {
            MobilitySpec::Static => true,
            // A zero-speed walker that has drawn a (distinct) target
            // never reaches it, so it neither moves nor redraws; while
            // `pos == target` the next advance draws a target.
            MobilitySpec::Waypoint { speed } => *speed == 0.0 && self.pos != self.target,
            MobilitySpec::Billiard { vel_x, vel_y } => (*vel_x, *vel_y) == (0.0, 0.0),
            // A one-stop circuit pins the patroller to its start; a
            // zero-speed patroller never reaches a distinct next stop.
            MobilitySpec::PatrolRoute { route, speed } => {
                route.len() == 1 || (*speed == 0.0 && self.pos != route[self.next])
            }
            // Settling is permanent, so a node that has not departed
            // yet does not count; only a zero-speed departure stays.
            MobilitySpec::DepartAt { speed, .. } => *speed == 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    /// Runs a model for `rounds` rounds and asserts the per-round
    /// displacement bound.
    fn assert_vmax_respected(mut m: Box<dyn MobilityModel>, rounds: u64) {
        let mut rng = rng();
        let mut prev = m.advance(0, &mut rng);
        for r in 1..rounds {
            let next = m.advance(r, &mut rng);
            let moved = prev.distance(next);
            assert!(
                moved <= m.vmax() + 1e-9,
                "moved {moved} > vmax {} at round {r}",
                m.vmax()
            );
            prev = next;
        }
    }

    #[test]
    fn static_never_moves() {
        let p = Point::new(3.0, 4.0);
        let mut m = p;
        let mut rng = rng();
        for r in 0..10 {
            assert_eq!(m.advance(r, &mut rng), p);
        }
    }

    #[test]
    fn waypoint_respects_vmax() {
        let m =
            MobilitySpec::Waypoint { speed: 1.5 }.build(Point::new(5.0, 5.0), Rect::square(100.0));
        assert_vmax_respected(m, 500);
    }

    #[test]
    fn waypoint_stays_in_bounds() {
        let bounds = Rect::square(50.0);
        let mut m = MobilitySpec::Waypoint { speed: 3.0 }.build(Point::new(5.0, 5.0), bounds);
        let mut rng = rng();
        for r in 0..1000 {
            let p = m.advance(r, &mut rng);
            assert!(bounds.contains(p), "escaped bounds at round {r}: {p}");
        }
    }

    #[test]
    fn billiard_respects_vmax_and_bounds() {
        let bounds = Rect::square(20.0);
        let spec = MobilitySpec::Billiard {
            vel_x: 0.7,
            vel_y: 1.1,
        };
        let m = spec.build(Point::new(1.0, 1.0), bounds);
        let vmax = m.vmax();
        assert!((vmax - (0.49f64 + 1.21).sqrt()).abs() < 1e-12);
        let mut m2 = spec.build(Point::new(1.0, 1.0), bounds);
        let mut rng = rng();
        for r in 0..1000 {
            let p = m2.advance(r, &mut rng);
            assert!(bounds.contains(p));
        }
        assert_vmax_respected(m, 1000);
    }

    #[test]
    fn billiard_bounces() {
        let bounds = Rect::square(5.0);
        let mut m = MobilitySpec::Billiard {
            vel_x: 1.0,
            vel_y: 0.0,
        }
        .build(Point::new(4.5, 2.0), bounds);
        let mut rng = rng();
        let p1 = m.advance(0, &mut rng);
        assert_eq!(p1, Point::new(5.0, 2.0));
        let p2 = m.advance(1, &mut rng);
        assert!(p2.x < 5.0, "should have reversed direction");
    }

    /// A patrol through `route` at `speed` (its start position is
    /// ignored).
    fn patrol(route: Vec<Point>, speed: f64) -> MobilitySpec {
        MobilitySpec::PatrolRoute { route, speed }
    }

    #[test]
    fn patrol_visits_waypoints_in_order() {
        let route = vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
        ];
        let mut m = patrol(route.clone(), 2.0).build(Point::ORIGIN, Rect::square(10.0));
        let mut rng = rng();
        let mut visited = vec![route[0]];
        for r in 0..20 {
            let p = m.advance(r, &mut rng);
            if route.contains(&p) && *visited.last().unwrap() != p {
                visited.push(p);
            }
        }
        assert!(visited.len() >= 3, "should reach several waypoints");
        assert_eq!(visited[1], route[1]);
        assert_eq!(visited[2], route[2]);
    }

    /// A node at `home` that departs at `depart_at` along `dir`.
    fn depart(home: Point, dir: (f64, f64), speed: f64, depart_at: u64) -> Box<dyn MobilityModel> {
        let spec = MobilitySpec::DepartAt {
            dir_x: dir.0,
            dir_y: dir.1,
            speed,
            depart_at,
        };
        spec.build(home, Rect::square(100.0))
    }

    #[test]
    fn depart_at_waits_then_leaves() {
        let home = Point::new(10.0, 10.0);
        let mut m = depart(home, (1.0, 0.0), 2.0, 5);
        let mut rng = rng();
        for r in 0..5 {
            assert_eq!(m.advance(r, &mut rng), home);
        }
        let p = m.advance(5, &mut rng);
        assert_eq!(p, Point::new(12.0, 10.0));
        let p = m.advance(6, &mut rng);
        assert_eq!(p, Point::new(14.0, 10.0));
    }

    #[test]
    #[should_panic(expected = "patrol route must not be empty")]
    fn patrol_rejects_empty_route() {
        let _ = patrol(vec![], 1.0).build(Point::ORIGIN, Rect::square(10.0));
    }

    /// Replays a model built twice from identical seeds and asserts the
    /// two position streams match (determinism), returning one of them.
    fn positions(build: impl Fn() -> Box<dyn MobilityModel>, rounds: u64) -> Vec<Point> {
        let run = |mut m: Box<dyn MobilityModel>| -> Vec<Point> {
            let mut rng = rng();
            (0..rounds).map(|r| m.advance(r, &mut rng)).collect()
        };
        let a = run(build());
        let b = run(build());
        assert_eq!(a, b, "mobility must be deterministic per seed");
        a
    }

    #[test]
    fn patrol_with_single_waypoint_pins_the_node() {
        let p = Point::new(3.0, 7.0);
        let build = || patrol(vec![p], 2.5).build(p, Rect::square(10.0));
        for (r, pos) in positions(build, 50).into_iter().enumerate() {
            assert_eq!(pos, p, "round {r}: a 1-stop patrol never leaves it");
        }
    }

    #[test]
    fn zero_speed_waypoint_never_moves_and_stays_in_bounds() {
        let bounds = Rect::square(30.0);
        let start = Point::new(12.0, 8.0);
        let build = || MobilitySpec::Waypoint { speed: 0.0 }.build(start, bounds);
        assert_eq!(build().vmax(), 0.0);
        for (r, pos) in positions(build, 100).into_iter().enumerate() {
            assert_eq!(pos, start, "round {r}: zero speed pins the walker");
            assert!(bounds.contains(pos));
        }
    }

    #[test]
    fn depart_at_in_the_past_departs_immediately() {
        let home = Point::new(5.0, 5.0);
        let ps = positions(|| depart(home, (0.0, 1.0), 1.5, 0), 20);
        // Already moving in round 0: no stationary prefix.
        assert_eq!(ps[0], Point::new(5.0, 6.5));
        for (r, pos) in ps.iter().enumerate() {
            let expected = Point::new(5.0, 5.0 + 1.5 * (r as f64 + 1.0));
            assert!(
                pos.distance(expected) < 1e-9,
                "round {r}: {pos} vs {expected}"
            );
        }
    }

    /// FNV-1a over 64-bit words.
    fn fold(h: u64, word: u64) -> u64 {
        (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
    }

    #[test]
    fn trajectories_are_pinned() {
        // Each kind runs 300 rounds from one seed and one start: the
        // waypoint walker arrives and redraws many times, the billiard
        // reflects off the walls, the patrol wraps round its circuit,
        // and the departure waits 100 rounds. Pinned per kind: a digest
        // of every position's bits and `is_settled` answer, and the
        // RNG's next draw (what the model left of the shared stream).
        let (start, arena) = (Point::new(5.0, 5.0), Rect::square(20.0));
        let route = vec![Point::ORIGIN, Point::new(4.0, 0.0), Point::new(4.0, 4.0)];
        let specs = [
            MobilitySpec::Static,
            MobilitySpec::Waypoint { speed: 1.5 },
            MobilitySpec::Billiard {
                vel_x: 0.7,
                vel_y: -1.1,
            },
            MobilitySpec::PatrolRoute { route, speed: 1.5 },
            MobilitySpec::DepartAt {
                dir_x: 3.0,
                dir_y: 4.0,
                speed: 0.5,
                depart_at: 100,
            },
        ];
        let pinned = [
            (0xac68d9cf7cdc68f0, 0xd0764d4f4476689f),
            (0x485ae374a8131b83, 0xa9bdb423b1db1f6d),
            (0x61c34212696578d0, 0xd0764d4f4476689f),
            (0xdfe823be5c584f6f, 0xd0764d4f4476689f),
            (0x2925116481fe1567, 0xd0764d4f4476689f),
        ];
        for (kind, (spec, pin)) in specs.into_iter().zip(pinned).enumerate() {
            let mut m = spec.build(start, arena);
            let mut rng = rng();
            let mut h = fold(0xcbf2_9ce4_8422_2325, m.is_settled() as u64);
            for r in 0..300 {
                let p = m.advance(r, &mut rng);
                h = fold(fold(h, p.x.to_bits()), p.y.to_bits());
                h = fold(h, m.is_settled() as u64);
            }
            assert_eq!((h, rng.next_u64()), pin, "kind {kind}");
        }
    }

    #[test]
    #[should_panic(expected = "outside bounds")]
    fn waypoint_rejects_start_outside_bounds() {
        let _ =
            MobilitySpec::Waypoint { speed: 1.0 }.build(Point::new(-1.0, 0.0), Rect::square(10.0));
    }
}
