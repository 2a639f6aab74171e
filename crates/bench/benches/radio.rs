//! Criterion benches for the radio substrate: channel-resolution
//! throughput as the node population grows (the simulator's own
//! scalability, independent of any protocol).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::any::Any;
use vi_radio::geometry::{Point, Rect};
use vi_radio::mobility::Waypoint;
use vi_radio::{Engine, EngineConfig, NodeSpec, Process, RadioConfig, RoundCtx, RoundReception};

/// Broadcasts every third round, listens otherwise.
struct Chatty {
    phase: u64,
}

impl Process<u64> for Chatty {
    fn transmit(&mut self, ctx: &RoundCtx) -> Option<u64> {
        (ctx.round + self.phase)
            .is_multiple_of(3)
            .then_some(ctx.round)
    }
    fn deliver(&mut self, _ctx: &RoundCtx, _rx: RoundReception<'_, u64>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn rounds_by_population(c: &mut Criterion) {
    let mut g = c.benchmark_group("radio_100_rounds");
    g.sample_size(20);
    for n in [10usize, 100, 300] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut engine: Engine<u64> = Engine::new(EngineConfig {
                    radio: RadioConfig::reliable(10.0, 20.0),
                    seed: 1,
                    record_trace: false,
                });
                for i in 0..n {
                    let x = (i % 20) as f64 * 10.0;
                    let y = (i / 20) as f64 * 10.0;
                    engine.add_node(NodeSpec::new(
                        Box::new(Waypoint::new(
                            Point::new(x, y),
                            0.5,
                            Rect::new(Point::ORIGIN, Point::new(200.0, 200.0)),
                        )),
                        Box::new(Chatty { phase: i as u64 }),
                    ));
                }
                engine.run(100);
                engine.stats().deliveries
            })
        });
    }
    g.finish();
}

/// Channel-resolution scaling: the `Medium` re-indexed every round
/// (`TopologyDelta::Rebuild`) vs the naive reference resolver on
/// identical constant-density inputs (the acceptance benchmark for the
/// spatial-index refactor).
fn medium_vs_reference(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vi_bench::exp_radio::{make_intents, radio};
    use vi_radio::adversary::NoAdversary;
    use vi_radio::channel::{resolve_round_reference, Medium, ReceptionBuffer, TopologyDelta};

    let mut g = c.benchmark_group("radio_scale_medium");
    g.sample_size(10);
    for n in [500usize, 1000, 2000, 5000] {
        let intents = make_intents(n, 42);
        let mut medium = Medium::new(radio());
        let mut out = ReceptionBuffer::new();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| {
                medium.resolve_round_cached(
                    0,
                    &intents,
                    TopologyDelta::Rebuild,
                    &mut NoAdversary,
                    &mut rng,
                    &mut out,
                );
                out.len()
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("radio_scale_reference");
    g.sample_size(10);
    for n in [500usize, 1000, 2000, 5000] {
        let intents = make_intents(n, 42);
        let cfg = radio();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| resolve_round_reference(0, &cfg, &intents, &mut NoAdversary, &mut rng).len())
        });
    }
    g.finish();
}

criterion_group!(benches, rounds_by_population, medium_vs_reference);
criterion_main!(benches);
