//! Property-based tests for the traffic subsystem: workload specs are
//! lossless data, and traffic metrics are sweep-worker invariant.

use proptest::prelude::*;
use virtual_infra::core::vi::VnLayout;
use virtual_infra::radio::geometry::{Point, Rect};
use virtual_infra::radio::mobility::Static;
use virtual_infra::radio::{AdversaryKind, RadioConfig};
use virtual_infra::scenario::{
    CmSpec, LayoutSpec, PlacementSpec, PopulationSpec, ScenarioSpec, SweepRunner, WorkloadSpec,
};
use virtual_infra::telemetry::monitor::outcome_digest;
use virtual_infra::telemetry::Observers;
use virtual_infra::traffic::{
    run_traffic, AppKind, DevicePlan, LoadMode, RatePhase, TrafficSpec, TrafficWorld,
};

fn arb_app() -> impl Strategy<Value = AppKind> {
    (0u8..4).prop_map(|i| AppKind::all()[i as usize])
}

fn arb_mode() -> impl Strategy<Value = LoadMode> {
    (
        any::<bool>(),
        0.0f64..2.0,
        proptest::collection::vec((1u64..40, 0.0f64..2.0), 0..3),
        1usize..3,
        0u64..5,
    )
        .prop_map(|(open, rate, mut phases, k, think)| {
            if open {
                phases.sort_by_key(|&(vr, _)| vr);
                LoadMode::Open {
                    rate_per_round: rate,
                    phases: phases
                        .into_iter()
                        .map(|(from_vr, rate_per_round)| RatePhase {
                            from_vr,
                            rate_per_round,
                        })
                        .collect(),
                }
            } else {
                LoadMode::Closed {
                    outstanding_per_client: k,
                    think_rounds: think,
                }
            }
        })
}

fn arb_traffic() -> impl Strategy<Value = TrafficSpec> {
    (arb_mode(), 1usize..4, 0.0f64..=1.0, 1u64..40, 1u64..30).prop_map(
        |(mode, clients, query_fraction, timeout_rounds, virtual_rounds)| TrafficSpec {
            clients,
            mode,
            query_fraction,
            timeout_rounds,
            virtual_rounds,
        },
    )
}

/// A minimal valid scenario wrapping the generated traffic workload.
fn wrap(app: AppKind, traffic: TrafficSpec) -> ScenarioSpec {
    let vn = Point::new(50.0, 50.0);
    ScenarioSpec {
        name: "prop_traffic".into(),
        arena: Rect::square(100.0),
        radio: RadioConfig::reliable(10.0, 20.0),
        populations: vec![PopulationSpec::fixed(
            traffic.clients.max(3),
            PlacementSpec::Cluster {
                center: vn,
                radius: 0.5,
            },
        )],
        adversary: AdversaryKind::None,
        nemesis: virtual_infra::audit::NemesisSpec::none(),
        cm: CmSpec::perfect(),
        workload: WorkloadSpec::Traffic {
            app,
            layout: LayoutSpec::Explicit {
                locations: vec![vn],
                region_radius: 2.5,
            },
            traffic,
            audit: false,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite requirement: the workload spec JSON round-trip is
    /// lossless — bare and embedded in a full scenario spec.
    #[test]
    fn workload_spec_json_round_trip_is_lossless(
        app in arb_app(),
        traffic in arb_traffic(),
    ) {
        let json = serde_json::to_string(&traffic).expect("serialize");
        let back: TrafficSpec = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(&back, &traffic);

        let spec = wrap(app, traffic);
        let json = serde_json::to_string(&spec.workload).expect("serialize workload");
        let back: WorkloadSpec = serde_json::from_str(&json).expect("deserialize workload");
        prop_assert_eq!(&back, &spec.workload);

        let json = serde_json::to_string(&spec).expect("serialize scenario");
        let back: ScenarioSpec = serde_json::from_str(&json).expect("deserialize scenario");
        prop_assert_eq!(back, spec);
    }
}

proptest! {
    // Each case runs four full deployments; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite requirement: the same `(spec, seed)` yields
    /// byte-identical metrics — histograms included — whether the
    /// sweep runs on 1 worker or 4.
    #[test]
    fn histograms_are_byte_identical_across_worker_counts(
        app in arb_app(),
        seed in 0u64..1_000,
    ) {
        let traffic = TrafficSpec::open(2, 0.5, 12);
        let spec = wrap(app, traffic);
        spec.validate().expect("generated spec must be valid");
        let jobs = vec![(spec.clone(), seed), (spec, seed.wrapping_add(1))];
        let one = SweepRunner::new(1).run(&jobs);
        let four = SweepRunner::new(4).run(&jobs);
        prop_assert_eq!(
            serde_json::to_string(&one).expect("serialize"),
            serde_json::to_string(&four).expect("serialize"),
            "worker count changed the metrics"
        );
        for o in &one {
            let t = o.traffic.as_ref().expect("traffic summary");
            prop_assert_eq!(t.latency.count(), t.completed);
        }
    }
}

/// Two virtual nodes, three static clients by the first and two
/// emulators by the second, over a channel that drops and fakes
/// collisions until `rcf` (never reached within the run).
fn lossy_world(seed: u64) -> TrafficWorld {
    let vns = vec![Point::new(50.0, 50.0), Point::new(58.0, 50.0)];
    let starts = [
        Point::new(49.4, 50.2),
        Point::new(49.8, 50.2),
        Point::new(50.2, 50.2),
        Point::new(57.8, 49.8),
        Point::new(58.2, 49.8),
    ];
    TrafficWorld {
        radio: RadioConfig::stabilizing(10.0, 20.0, u64::MAX),
        layout: VnLayout::new(vns, 2.5),
        seed,
        adversary: AdversaryKind::Random(0.07, 0.03),
        devices: starts
            .into_iter()
            .map(|start| DevicePlan {
                start,
                mobility: Box::new(Static::new(start)),
                spawn_at: None,
                crash_at: None,
            })
            .collect(),
    }
}

/// Golden digests of `(TrafficSummary, Vec<TrafficEvent>)` per app ×
/// {open, closed} over [`lossy_world`], captured on the commit before
/// the four service adapters became one. Retransmits, timeouts,
/// `forget`, late grants and stale echoes all occur in these runs, so
/// the table pins completion order, every event, every port-entry id
/// and every backoff draw.
const GOLDEN: [(&str, &str, u64); 8] = [
    ("register", "open", 4_499_668_495_273_303_573),
    ("register", "closed", 14_540_893_925_073_926_836),
    ("mutex", "open", 4_320_803_625_754_660_418),
    ("mutex", "closed", 15_557_538_726_721_695_819),
    ("tracking", "open", 5_166_176_283_857_190_921),
    ("tracking", "closed", 12_945_572_489_164_527_368),
    ("georouting", "open", 12_648_554_129_133_780_999),
    ("georouting", "closed", 2_898_364_749_549_790_259),
];

#[test]
fn lossy_traffic_histories_match_the_golden_table() {
    let mut got = Vec::new();
    for app in AppKind::all() {
        for mut spec in [
            TrafficSpec::open(3, 0.4, 240),
            TrafficSpec::closed(3, 2, 1, 240),
        ] {
            spec.timeout_rounds = 12;
            let (out, events) = run_traffic(app, lossy_world(17), &spec, &Observers::default());
            let s = &out.summary;
            assert!(
                s.completed > 0 && s.timed_out > 0,
                "{} {}: the golden must see completions and timeouts: {s:?}",
                s.app,
                s.mode
            );
            let json = serde_json::to_vec(&(s, &events)).expect("serialize");
            got.push((s.app.clone(), s.mode.clone(), outcome_digest(&json)));
        }
    }
    let want: Vec<(String, String, u64)> = GOLDEN
        .iter()
        .map(|&(app, mode, digest)| (app.to_string(), mode.to_string(), digest))
        .collect();
    assert_eq!(got, want, "traffic histories moved");
}
