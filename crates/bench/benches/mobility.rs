//! Criterion benches for the mobility fast path: raw `advance` cost
//! per model (static vs waypoint vs billiard vs patrol), and engine
//! rounds on a static deployment (settled-node skip, cached
//! neighborhoods). Tracked alongside the channel benches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use vi_radio::geometry::{Point, Rect};
use vi_radio::mobility::{Billiard, MobilityModel, PatrolRoute, Static, Waypoint};
use vi_radio::{Engine, EngineConfig, NodeSpec, Process, RadioConfig, RoundCtx, RoundReception};

const ROUNDS: u64 = 10_000;

fn advance_rounds(mut model: Box<dyn MobilityModel>) -> f64 {
    let mut rng = StdRng::seed_from_u64(7);
    let mut acc = 0.0;
    for round in 0..ROUNDS {
        acc += model.advance(round, &mut rng).x;
    }
    acc
}

/// Raw `advance` throughput per mobility model, 10k rounds per
/// iteration. `Static` is the settled baseline the engine's fast path
/// skips entirely.
fn mobility_advance(c: &mut Criterion) {
    let bounds = Rect::square(100.0);
    let start = Point::new(50.0, 50.0);
    let mut g = c.benchmark_group("mobility_advance_10k");
    g.sample_size(20);
    g.bench_with_input(BenchmarkId::from_parameter("static"), &(), |b, ()| {
        b.iter(|| advance_rounds(Box::new(Static::new(start))))
    });
    g.bench_with_input(BenchmarkId::from_parameter("waypoint"), &(), |b, ()| {
        b.iter(|| advance_rounds(Box::new(Waypoint::new(start, 0.5, bounds))))
    });
    g.bench_with_input(BenchmarkId::from_parameter("billiard"), &(), |b, ()| {
        b.iter(|| advance_rounds(Box::new(Billiard::new(start, (0.4, 0.3), bounds))))
    });
    g.bench_with_input(BenchmarkId::from_parameter("patrol"), &(), |b, ()| {
        b.iter(|| {
            advance_rounds(Box::new(PatrolRoute::new(
                vec![start, Point::new(60.0, 50.0), Point::new(55.0, 60.0)],
                0.5,
            )))
        })
    });
    g.finish();
}

/// Broadcasts every third round, listens otherwise; never allocates.
struct Chatty(u64);

impl Process<u64> for Chatty {
    fn transmit(&mut self, ctx: &RoundCtx) -> Option<u64> {
        (ctx.round + self.0).is_multiple_of(3).then_some(self.0)
    }
    fn deliver(&mut self, _ctx: &RoundCtx, _rx: RoundReception<'_, u64>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn static_engine(n: usize) -> Engine<u64> {
    let side = (n as f64).sqrt() * 15.0;
    let mut engine: Engine<u64> = Engine::new(EngineConfig {
        radio: RadioConfig::reliable(10.0, 20.0),
        seed: 1,
        record_trace: false,
    });
    for i in 0..n {
        let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let x = (h % 10_000) as f64 / 10_000.0 * side;
        let y = ((h >> 32) % 10_000) as f64 / 10_000.0 * side;
        engine.add_node(NodeSpec::new(
            Box::new(Static::new(Point::new(x, y))),
            Box::new(Chatty(i as u64)),
        ));
    }
    engine
}

/// 50 engine rounds over an all-static constant-density deployment:
/// the settled-node skip, cached neighborhoods, zero-alloc SoA rounds.
fn static_rounds(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_static_50_rounds");
    g.sample_size(10);
    for n in [1000usize, 5000] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut e = static_engine(n);
                e.run(50);
                e.stats().deliveries
            })
        });
    }
    g.finish();
}

criterion_group!(benches, mobility_advance, static_rounds);
criterion_main!(benches);
