//! The library of named scenarios.
//!
//! Each scenario is a ready-to-run [`ScenarioSpec`] covering one of
//! the execution regimes the paper argues about. The E15
//! `scenario_matrix` experiment sweeps all of them across seeds; any
//! of them can also serve as a template — serialize one to JSON, edit
//! it, and load it back (see `examples/scenarios.json`).

use crate::spec::{
    CmSpec, LayoutSpec, MobilitySpec, PlacementSpec, PopulationSpec, ScenarioSpec, WorkloadSpec,
};
use vi_audit::{NemesisFault, NemesisSpec};
use vi_contention::PreStability;
use vi_radio::geometry::{Point, Rect};
use vi_radio::{AdversaryKind, RadioConfig};
use vi_traffic::{AppKind, LoadMode, RatePhase, TrafficSpec};

const R1: f64 = 10.0;
const R2: f64 = 20.0;
const REGION: f64 = 2.5;

fn line(n: usize) -> PopulationSpec {
    PopulationSpec::fixed(
        n,
        PlacementSpec::Line {
            start: Point::ORIGIN,
            step_x: 0.1,
            step_y: 0.0,
        },
    )
}

fn cluster(n: usize, center: Point) -> PopulationSpec {
    PopulationSpec::fixed(
        n,
        PlacementSpec::Cluster {
            center,
            radius: 0.4,
        },
    )
}

/// `clique` — the paper's base case: a reliable single region, perfect
/// contention manager, CHA deciding every instance.
fn clique() -> ScenarioSpec {
    ScenarioSpec {
        name: "clique".into(),
        arena: Rect::square(10.0),
        radio: RadioConfig::reliable(R1, R2),
        populations: vec![line(5)],
        adversary: AdversaryKind::None,
        nemesis: NemesisSpec::none(),
        cm: CmSpec::perfect(),
        workload: WorkloadSpec::ChaClique { instances: 30 },
    }
}

/// `sparse_grid` — a 2×2 virtual-node grid with static device
/// clusters, measuring emulation overhead on a quiet network.
fn sparse_grid() -> ScenarioSpec {
    let origin = Point::new(50.0, 50.0);
    let spacing = 60.0;
    let locations: Vec<Point> = (0..2)
        .flat_map(|r| {
            (0..2).map(move |c| {
                Point::new(origin.x + c as f64 * spacing, origin.y + r as f64 * spacing)
            })
        })
        .collect();
    ScenarioSpec {
        name: "sparse_grid".into(),
        arena: Rect::square(200.0),
        radio: RadioConfig::reliable(R1, R2),
        populations: locations.iter().map(|&loc| cluster(3, loc)).collect(),
        adversary: AdversaryKind::None,
        nemesis: NemesisSpec::none(),
        cm: CmSpec::perfect(),
        workload: WorkloadSpec::ViCounter {
            layout: LayoutSpec::Grid {
                rows: 2,
                cols: 2,
                spacing,
                origin,
                region_radius: REGION,
            },
            virtual_rounds: 8,
        },
    }
}

/// `flash_crowd` — a small core joined by a staggered arrival wave on
/// a still-misbehaving channel (ad hoc deployment, Section 1).
fn flash_crowd() -> ScenarioSpec {
    ScenarioSpec {
        name: "flash_crowd".into(),
        arena: Rect::square(10.0),
        radio: RadioConfig::stabilizing(R1, R2, 60),
        populations: vec![
            line(3),
            PopulationSpec::fixed(
                6,
                PlacementSpec::Line {
                    start: Point::new(0.3, 0.0),
                    step_x: 0.1,
                    step_y: 0.0,
                },
            )
            .spawning(30, 6),
        ],
        adversary: AdversaryKind::Random(0.3, 0.1),
        nemesis: NemesisSpec::none(),
        cm: CmSpec::Oracle {
            stabilize_at: 60,
            pre: PreStability::Random(0.5),
        },
        workload: WorkloadSpec::ChaClique { instances: 40 },
    }
}

/// `partition_heal` — the paper's "alternating periods of stability
/// and instability": total-loss bursts before `rcf`, then the channel
/// heals and liveness resumes with O(1) lag (Theorem 12).
fn partition_heal() -> ScenarioSpec {
    ScenarioSpec {
        name: "partition_heal".into(),
        arena: Rect::square(10.0),
        radio: RadioConfig::stabilizing(R1, R2, 120),
        populations: vec![line(5)],
        adversary: AdversaryKind::Burst(vec![30..60, 90..120]),
        nemesis: NemesisSpec::none(),
        cm: CmSpec::perfect(),
        workload: WorkloadSpec::ChaClique { instances: 50 },
    }
}

/// `robot_patrol` — robots patrolling a fixed circuit through two
/// virtual-node regions while static anchors keep both regions alive.
fn robot_patrol() -> ScenarioSpec {
    let a = Point::new(50.0, 50.0);
    let b = Point::new(70.0, 50.0);
    ScenarioSpec {
        name: "robot_patrol".into(),
        arena: Rect::square(120.0),
        radio: RadioConfig::reliable(R1, R2),
        populations: vec![
            cluster(2, a),
            cluster(2, b),
            PopulationSpec::fixed(3, PlacementSpec::Uniform).with_mobility(
                MobilitySpec::PatrolRoute {
                    route: vec![a, b, Point::new(60.0, 60.0)],
                    speed: 1.0,
                },
            ),
        ],
        adversary: AdversaryKind::None,
        nemesis: NemesisSpec::none(),
        cm: CmSpec::perfect(),
        workload: WorkloadSpec::ViCounter {
            layout: LayoutSpec::Explicit {
                locations: vec![a, b],
                region_radius: REGION,
            },
            virtual_rounds: 10,
        },
    }
}

/// `commuter_wave` — churn at a single virtual node: anchored
/// replicas plus commuter populations that depart in scripted waves
/// (the Section 4.2 availability regime).
fn commuter_wave() -> ScenarioSpec {
    let vn = Point::new(50.0, 50.0);
    let commuters = |depart_at: u64| {
        cluster(4, vn).with_mobility(MobilitySpec::DepartAt {
            dir_x: 1.0,
            dir_y: 0.3,
            speed: 0.5,
            depart_at,
        })
    };
    ScenarioSpec {
        name: "commuter_wave".into(),
        arena: Rect::square(200.0),
        radio: RadioConfig::reliable(R1, R2),
        populations: vec![cluster(2, vn), commuters(40), commuters(80)],
        adversary: AdversaryKind::None,
        nemesis: NemesisSpec::none(),
        cm: CmSpec::perfect(),
        workload: WorkloadSpec::ViCounter {
            layout: LayoutSpec::Explicit {
                locations: vec![vn],
                region_radius: REGION,
            },
            virtual_rounds: 12,
        },
    }
}

/// `broken_detector` — the E13 ablation as a scenario: a detector
/// that violates completeness (Property 1), demonstrating why the
/// guarantee is load-bearing.
fn broken_detector() -> ScenarioSpec {
    ScenarioSpec {
        name: "broken_detector".into(),
        arena: Rect::square(10.0),
        radio: RadioConfig::stabilizing(R1, R2, u64::MAX),
        populations: vec![line(4)],
        adversary: AdversaryKind::BrokenDetector {
            drop_p: 0.35,
            miss_p: 0.7,
        },
        nemesis: NemesisSpec::none(),
        cm: CmSpec::Oracle {
            stabilize_at: u64::MAX,
            pre: PreStability::Random(0.5),
        },
        workload: WorkloadSpec::ChaClique { instances: 40 },
    }
}

/// `broken_majority` — the majority-acked register with quorum-free
/// local reads, partitioned so the bug fires: from round 6 the last
/// replica is cut off while the leader keeps completing writes with
/// the remaining majority, so the cut replica's local reads go stale
/// and the register audit reports a **deterministic linearizability
/// violation**. The incident-bundle pipeline (flight recorder, causal
/// slice, `vi-bench --replay`) is exercised against this scenario.
fn broken_majority() -> ScenarioSpec {
    ScenarioSpec {
        name: "broken_majority".into(),
        arena: Rect::square(10.0),
        radio: RadioConfig::stabilizing(R1, R2, u64::MAX),
        populations: vec![PopulationSpec::fixed(
            4,
            PlacementSpec::Line {
                start: Point::ORIGIN,
                step_x: 0.2,
                step_y: 0.0,
            },
        )],
        adversary: AdversaryKind::None,
        nemesis: NemesisSpec::none(),
        cm: CmSpec::perfect(),
        workload: WorkloadSpec::MajorityRegister {
            writes: 8,
            rounds: 24,
            partition_from: Some(6),
        },
    }
}

/// `city_scale` — 2000 nodes (a quarter of them mobile) at constant
/// density across a ~670 m square: the throughput regime the
/// spatially-indexed medium exists for.
fn city_scale() -> ScenarioSpec {
    let side = (2000.0f64).sqrt() * 15.0;
    ScenarioSpec {
        name: "city_scale".into(),
        arena: Rect::square(side),
        radio: RadioConfig::reliable(R1, R2),
        populations: vec![
            PopulationSpec::fixed(1500, PlacementSpec::Uniform),
            PopulationSpec::fixed(500, PlacementSpec::Uniform)
                .with_mobility(MobilitySpec::Waypoint { speed: 0.5 }),
        ],
        adversary: AdversaryKind::None,
        nemesis: NemesisSpec::none(),
        cm: CmSpec::perfect(),
        workload: WorkloadSpec::ChaClique { instances: 4 },
    }
}

/// `mall_rush` — a flash crowd hammering the register: four anchored
/// clients under an open-loop schedule that bursts to the service
/// capacity mid-run, while an arrival wave of extra devices churns
/// the region. The latency histogram shows the queue build-up and
/// drain.
fn mall_rush() -> ScenarioSpec {
    let vn = Point::new(50.0, 50.0);
    ScenarioSpec {
        name: "mall_rush".into(),
        arena: Rect::square(100.0),
        radio: RadioConfig::reliable(R1, R2),
        populations: vec![
            // Clients first: deployment order assigns the ports.
            cluster(4, vn),
            // Replica anchors.
            cluster(2, vn),
            // The rush: extra devices joining the region mid-run.
            PopulationSpec::fixed(
                6,
                PlacementSpec::Cluster {
                    center: vn,
                    radius: 0.8,
                },
            )
            .spawning(200, 40),
        ],
        adversary: AdversaryKind::None,
        nemesis: NemesisSpec::none(),
        cm: CmSpec::perfect(),
        workload: WorkloadSpec::Traffic {
            app: AppKind::Register,
            layout: LayoutSpec::Explicit {
                locations: vec![vn],
                region_radius: REGION,
            },
            traffic: TrafficSpec {
                clients: 4,
                mode: LoadMode::Open {
                    rate_per_round: 0.25,
                    phases: vec![
                        RatePhase {
                            from_vr: 20,
                            rate_per_round: 1.0,
                        },
                        RatePhase {
                            from_vr: 40,
                            rate_per_round: 0.25,
                        },
                    ],
                },
                query_fraction: 0.5,
                timeout_rounds: 30,
                virtual_rounds: 60,
            },
            audit: false,
        },
    }
}

/// `courier_fleet` — mobile couriers streaming tracking updates: a
/// closed loop of position reports and lookups from waypoint-moving
/// clients, against two anchored virtual-node regions.
fn courier_fleet() -> ScenarioSpec {
    let a = Point::new(50.0, 50.0);
    let b = Point::new(110.0, 50.0);
    ScenarioSpec {
        name: "courier_fleet".into(),
        arena: Rect::square(160.0),
        radio: RadioConfig::reliable(R1, R2),
        populations: vec![
            // The couriers (clients) roam the arena.
            PopulationSpec::fixed(
                4,
                PlacementSpec::Cluster {
                    center: a,
                    radius: 2.0,
                },
            )
            .with_mobility(MobilitySpec::Waypoint { speed: 0.4 }),
            // Anchors keep both regions alive.
            cluster(2, a),
            cluster(2, b),
        ],
        adversary: AdversaryKind::None,
        nemesis: NemesisSpec::none(),
        cm: CmSpec::perfect(),
        workload: WorkloadSpec::Traffic {
            app: AppKind::Tracking,
            layout: LayoutSpec::Explicit {
                locations: vec![a, b],
                region_radius: REGION,
            },
            traffic: TrafficSpec {
                clients: 4,
                mode: LoadMode::Closed {
                    outstanding_per_client: 1,
                    think_rounds: 2,
                },
                query_fraction: 0.3,
                timeout_rounds: 25,
                virtual_rounds: 50,
            },
            audit: false,
        },
    }
}

/// `blackout_market` — the register **audited** through a Jepsen-style
/// nemesis schedule: a mid-run total radio blackout (requests retry or
/// time out; timed-out ops are `:info`, maybe-applied), then a replica
/// crash burst after the channel heals. The linearizability checker
/// certifies that whatever completed is an atomic register — the
/// blackout may cost liveness, never consistency. (Traffic runs ~13
/// real rounds per virtual round: the jam covers ≈ vr 20–30 of the
/// 40-round admission window, inside the radio's `rcf = 400`.)
fn blackout_market() -> ScenarioSpec {
    let vn = Point::new(50.0, 50.0);
    ScenarioSpec {
        name: "blackout_market".into(),
        arena: Rect::square(100.0),
        radio: RadioConfig::stabilizing(R1, R2, 400),
        populations: vec![
            // Clients first: deployment order assigns the ports (and
            // shields them from the crash burst, which takes victims
            // from the deployment tail).
            cluster(3, vn),
            // Replica anchors — the crash burst's victims.
            cluster(4, vn),
        ],
        adversary: AdversaryKind::None,
        nemesis: NemesisSpec {
            faults: vec![
                NemesisFault::Jam { window: 260..390 },
                NemesisFault::CrashBurst {
                    at_round: 520,
                    victims: 2,
                },
            ],
        },
        cm: CmSpec::perfect(),
        workload: WorkloadSpec::Traffic {
            app: AppKind::Register,
            layout: LayoutSpec::Explicit {
                locations: vec![vn],
                region_radius: REGION,
            },
            traffic: TrafficSpec {
                clients: 3,
                mode: LoadMode::Open {
                    rate_per_round: 0.3,
                    phases: vec![],
                },
                query_fraction: 0.5,
                timeout_rounds: 30,
                virtual_rounds: 40,
            },
            audit: true,
        },
    }
}

/// `quake_drill` — the tracking service **audited** under detector
/// corruption and infrastructure loss: collision detectors lie for a
/// third of the run (partition-style corruption window), then half the
/// anchor replicas crash, while patrol clients keep streaming position
/// reports and lookups. The monotone-freshness checker certifies that
/// lookups never travel back in time through an object's report
/// sequence.
fn quake_drill() -> ScenarioSpec {
    let vn = Point::new(25.0, 25.0);
    ScenarioSpec {
        name: "quake_drill".into(),
        arena: Rect::square(50.0),
        radio: RadioConfig::stabilizing(R1, R2, 400),
        populations: vec![
            // Patrol clients circle the virtual node, crossing
            // tracking cells while staying in broadcast range.
            PopulationSpec::fixed(3, PlacementSpec::Uniform).with_mobility(
                MobilitySpec::PatrolRoute {
                    route: vec![
                        Point::new(25.0, 20.0),
                        Point::new(30.0, 25.0),
                        Point::new(25.0, 30.0),
                        Point::new(20.0, 25.0),
                    ],
                    speed: 0.5,
                },
            ),
            // Anchor replicas — two fall to the crash burst.
            cluster(4, vn),
        ],
        adversary: AdversaryKind::None,
        nemesis: NemesisSpec {
            faults: vec![
                NemesisFault::DetectorChaos {
                    window: 130..390,
                    spurious_p: 0.25,
                },
                NemesisFault::CrashBurst {
                    at_round: 390,
                    victims: 2,
                },
            ],
        },
        cm: CmSpec::perfect(),
        workload: WorkloadSpec::Traffic {
            app: AppKind::Tracking,
            layout: LayoutSpec::Explicit {
                locations: vec![vn],
                region_radius: REGION,
            },
            traffic: TrafficSpec {
                clients: 3,
                mode: LoadMode::Closed {
                    outstanding_per_client: 1,
                    think_rounds: 2,
                },
                query_fraction: 0.4,
                timeout_rounds: 25,
                virtual_rounds: 40,
            },
            audit: true,
        },
    }
}

/// `fuzz_scatter_clique` — **promoted from a vi-fuzz finding**: the
/// E22 campaign (seed 5) mutated the clean `fuzz_cha` ancestor's
/// placement to `Uniform` (mobility mutator, iteration 121) and the
/// CHA safety checker fired under run seed 2384762200; delta
/// debugging shrank it to 3 scattered nodes running a single
/// instance. The bug it demonstrates: CHA assumes a single-hop clique,
/// and uniform placement over a 20 m² arena with `r2 = 20` can seat
/// nodes out of mutual range, splitting the "clique" into
/// independently-deciding fragments that disagree. Scenario-level
/// validation cannot catch this (placement is seed-dependent), which
/// is exactly why the fuzzer owns this regime.
fn fuzz_scatter_clique() -> ScenarioSpec {
    ScenarioSpec {
        name: "fuzz_scatter_clique".into(),
        arena: Rect::square(20.0),
        radio: RadioConfig::reliable(R1, R2),
        populations: vec![PopulationSpec::fixed(3, PlacementSpec::Uniform)],
        adversary: AdversaryKind::None,
        nemesis: NemesisSpec::none(),
        cm: CmSpec::perfect(),
        workload: WorkloadSpec::ChaClique { instances: 1 },
    }
}

/// `fuzz_split_quorum` — **promoted from a vi-fuzz finding**: the E22
/// campaign (seed 5) rediscovered the `broken_majority` bug *without*
/// the scripted partition — a placement mutation (iteration 138, run
/// seed 199129263) scattered the replicas, and delta debugging shrank
/// the repro to 2 uniformly-placed nodes, a single write, 6 rounds,
/// `partition_from: None`. Same root cause as `broken_majority`
/// (quorum-free local reads go stale on a disconnected replica), but
/// reached through geometry instead of a nemesis schedule: with 2
/// replicas out of mutual range, the writer self-acks a "majority" of
/// its own partition while the other replica's reads serve the stale
/// initial value.
fn fuzz_split_quorum() -> ScenarioSpec {
    ScenarioSpec {
        name: "fuzz_split_quorum".into(),
        arena: Rect::square(20.0),
        radio: RadioConfig::reliable(R1, R2),
        populations: vec![PopulationSpec::fixed(2, PlacementSpec::Uniform)],
        adversary: AdversaryKind::None,
        nemesis: NemesisSpec::none(),
        cm: CmSpec::perfect(),
        workload: WorkloadSpec::MajorityRegister {
            writes: 1,
            rounds: 6,
            partition_from: None,
        },
    }
}

/// All named scenarios, in catalog order.
pub fn catalog() -> Vec<ScenarioSpec> {
    vec![
        clique(),
        sparse_grid(),
        flash_crowd(),
        partition_heal(),
        robot_patrol(),
        commuter_wave(),
        broken_detector(),
        broken_majority(),
        city_scale(),
        mall_rush(),
        courier_fleet(),
        blackout_market(),
        quake_drill(),
        fuzz_scatter_clique(),
        fuzz_split_quorum(),
    ]
}

/// Looks up a named scenario from the catalog.
pub fn scenario(name: &str) -> Option<ScenarioSpec> {
    catalog().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalog_scenario_validates_and_round_trips() {
        let all = catalog();
        assert!(all.len() >= 12, "catalog must stay ≥ 12 scenarios");
        for spec in &all {
            spec.validate().expect("catalog scenario must be valid");
            let json = serde_json::to_string(spec).unwrap();
            let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, spec, "{} JSON round-trip", spec.name);
        }
        let mut names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "names must be unique");
    }

    #[test]
    fn lookup_by_name() {
        assert!(scenario("clique").is_some());
        assert!(scenario("city_scale").is_some());
        assert!(scenario("nope").is_none());
    }

    #[test]
    fn partition_heal_stabilizes_late_but_safely() {
        let out = scenario("partition_heal").unwrap().run(1);
        assert_eq!(out.safety_violations(), 0);
        let kst = out.stabilized_kst.expect("must converge after healing");
        assert!(kst > 30, "bursts must delay stabilization (kst {kst})");
    }

    #[test]
    fn mall_rush_burst_shows_in_the_latency_tail() {
        let out = scenario("mall_rush").unwrap().run(1);
        let t = out.traffic.as_ref().expect("traffic summary");
        assert!(t.issued >= 30, "burst admits plenty of requests: {t:?}");
        assert!(t.completed > 0, "{t:?}");
        assert!(t.p99 >= t.p50, "burst shows up as a latency tail: {t:?}");
    }

    #[test]
    fn courier_fleet_streams_updates() {
        let out = scenario("courier_fleet").unwrap().run(2);
        let t = out.traffic.as_ref().expect("traffic summary");
        assert_eq!(t.app, "tracking");
        assert_eq!(t.mode, "closed");
        assert!(t.completed > 10, "couriers stream updates: {t:?}");
    }

    #[test]
    fn blackout_market_audits_clean_and_jam_hurts() {
        let out = scenario("blackout_market").unwrap().run(1);
        let report = out.audit.as_ref().expect("audited scenario");
        assert!(report.ok(), "{:?}", report.violations());
        assert_eq!(report.app, "register");
        let t = out.traffic.as_ref().expect("traffic summary");
        assert!(t.completed > 0, "service recovers after the jam: {t:?}");
        assert!(
            t.timed_out > 0 || t.p99 > t.p50,
            "the blackout must show up in timeouts or tail latency: {t:?}"
        );
    }

    #[test]
    fn quake_drill_audits_clean_under_chaos() {
        let out = scenario("quake_drill").unwrap().run(2);
        let report = out.audit.as_ref().expect("audited scenario");
        assert!(report.ok(), "{:?}", report.violations());
        assert_eq!(report.app, "tracking");
        assert!(report.ops > 0);
        let t = out.traffic.as_ref().expect("traffic summary");
        assert!(t.completed > 0, "{t:?}");
    }

    #[test]
    fn broken_majority_violates_and_dumps_an_incident_bundle() {
        use crate::compile::EngineTuning;
        let spec = scenario("broken_majority").unwrap();
        // Plain run: the audit catches the stale reads, no bundle.
        let plain = spec.run(1);
        let report = plain.audit.as_ref().expect("always audited");
        assert!(!report.ok(), "the partition must expose the bug");
        assert_eq!(report.app, "majority_register");
        assert!(plain.incident.is_none(), "no flight recorder, no bundle");
        // Traced + flight-recorded run: same verdict, plus a bundle
        // carrying the retained window and the causal summary.
        let tuned = spec.run_with(1, EngineTuning::DEFAULT.with_tracing().with_flight(6));
        assert_eq!(tuned.audit, plain.audit, "tracing is zero-perturbation");
        assert_eq!(tuned.broadcasts, plain.broadcasts);
        assert_eq!(tuned.deliveries, plain.deliveries);
        let bundle = tuned.incident.as_ref().expect("violation dumps a bundle");
        assert_eq!(bundle.flight.len(), 6, "window retains the last 6 rounds");
        assert!(bundle.causal.is_some(), "causal summary rides along");
    }

    /// The promoted fuzz findings reproduce under their discovery
    /// seeds: the scattered clique violates CHA safety, the split
    /// quorum fails the register audit — and both are clean little specs
    /// that scenario validation rightly accepts.
    #[test]
    fn promoted_fuzz_findings_reproduce_under_their_discovery_seeds() {
        let scatter = scenario("fuzz_scatter_clique").unwrap();
        let out = scatter.run(2384762200);
        assert!(
            out.safety_violations() > 0,
            "fuzz_scatter_clique must reproduce its CHA safety violation"
        );

        let split = scenario("fuzz_split_quorum").unwrap();
        let out = split.run(199129263);
        let report = out.audit.as_ref().expect("majority register is audited");
        assert!(
            !report.ok(),
            "fuzz_split_quorum must reproduce its linearizability violation"
        );
        assert_eq!(report.app, "majority_register");
    }

    #[test]
    fn clique_is_all_green() {
        let out = scenario("clique").unwrap().run(2);
        assert!(out.decided_fraction > 0.9);
        assert_eq!(out.safety_violations(), 0);
    }
}
