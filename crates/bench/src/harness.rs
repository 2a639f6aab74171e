//! Shared experiment runners.

use vi_contention::{OracleCm, PreStability, SharedCm};
use vi_core::cha::{ChaMessage, ChaNode, ChaOutput, ChaSpecChecker, TaggedProposer};
use vi_radio::geometry::Point;
use vi_radio::mobility::Static;
use vi_radio::trace::ChannelStats;
use vi_radio::{AdversaryKind, Engine, EngineConfig, NodeId, NodeSpec, RadioConfig};
use vi_scenario::{EngineTuning, ScenarioOutcome, ScenarioSpec, SweepRunner};

/// Configuration for a Section 3 single-region CHAP run.
#[derive(Clone, Debug)]
pub struct CliqueConfig {
    /// Number of nodes (all within `R1/2` of one location).
    pub n: usize,
    /// Agreement instances to run (3 rounds each).
    pub instances: u64,
    /// Radio parameters (set `rcf`/`racc` for stabilization studies).
    pub radio: RadioConfig,
    /// Simulation seed.
    pub seed: u64,
    /// Round from which the contention manager realizes Property 3.
    pub cm_stabilize: u64,
    /// Contention-manager behaviour before stabilization.
    pub cm_pre: PreStability,
    /// The channel adversary.
    pub adversary: AdversaryKind,
    /// Scripted crashes: `(node index, round)`.
    pub crashes: Vec<(usize, u64)>,
}

impl CliqueConfig {
    /// A well-behaved clique: reliable channel, perfect contention
    /// manager.
    pub fn reliable(n: usize, instances: u64, seed: u64) -> Self {
        CliqueConfig {
            n,
            instances,
            radio: RadioConfig::reliable(10.0, 20.0),
            seed,
            cm_stabilize: 0,
            cm_pre: PreStability::NoneActive,
            adversary: AdversaryKind::None,
            crashes: Vec::new(),
        }
    }
}

/// The result of a clique run.
#[derive(Debug)]
pub struct CliqueRun {
    /// Per-node per-instance outputs.
    pub outputs: Vec<Vec<ChaOutput<u64>>>,
    /// Per-node proposals `(instance, value)`.
    pub proposals: Vec<Vec<(u64, u64)>>,
    /// Channel statistics.
    pub stats: ChannelStats,
    /// Indices of nodes that crashed.
    pub crashed: Vec<usize>,
}

impl CliqueRun {
    /// Builds a specification checker loaded with this run's events.
    pub fn checker(&self) -> ChaSpecChecker<'_, u64> {
        let mut c = ChaSpecChecker::new();
        for props in &self.proposals {
            for &(k, v) in props {
                c.record_proposal(k, v);
            }
        }
        for (node, outs) in self.outputs.iter().enumerate() {
            c.record_outputs(node, outs);
        }
        for &node in &self.crashed {
            c.mark_crashed(node);
        }
        c
    }

    /// Fraction of (node, instance) outcomes that decided.
    pub fn decided_fraction(&self) -> f64 {
        let total: usize = self.outputs.iter().map(Vec::len).sum();
        if total == 0 {
            return 0.0;
        }
        let decided: usize = self
            .outputs
            .iter()
            .flat_map(|o| o.iter())
            .filter(|o| o.decided())
            .count();
        decided as f64 / total as f64
    }

    /// First instance from which every surviving node decided every
    /// instance (measured stabilization; `None` if never).
    pub fn all_green_from(&self) -> Option<u64> {
        let last = self
            .outputs
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.crashed.contains(i))
            .filter_map(|(_, o)| o.last().map(|out| out.instance))
            .min()?;
        'cand: for kst in 1..=last {
            for (i, outs) in self.outputs.iter().enumerate() {
                if self.crashed.contains(&i) {
                    continue;
                }
                for out in outs.iter().filter(|o| o.instance >= kst) {
                    if !out.decided() {
                        continue 'cand;
                    }
                }
            }
            return Some(kst);
        }
        None
    }
}

/// Runs CHAP in a single region per `cfg`.
///
/// The engine is built through [`Engine::new`], so every clique run —
/// and every experiment layered on this harness — resolves its rounds
/// through the grid-indexed [`vi_radio::Medium`] rather than the naive
/// reference resolver.
pub fn run_clique(cfg: CliqueConfig) -> CliqueRun {
    let mut engine: Engine<ChaMessage<u64>> = Engine::new(EngineConfig {
        radio: cfg.radio,
        seed: cfg.seed,
        record_trace: false,
    });
    engine.set_adversary(cfg.adversary.build());
    let cm = SharedCm::new(OracleCm::new(cfg.cm_stabilize, cfg.cm_pre, cfg.seed));
    let ids: Vec<NodeId> = (0..cfg.n)
        .map(|i| {
            // All nodes within R1/2 of the region center.
            let pos = Point::new((i as f64 * 0.1) % 2.0, 0.0);
            let mut spec = NodeSpec::new(
                Box::new(Static::new(pos)),
                Box::new(ChaNode::<u64>::new(
                    Box::new(TaggedProposer::new(i as u64)),
                    cm.clone(),
                )) as Box<dyn vi_radio::Process<ChaMessage<u64>>>,
            );
            if let Some(&(_, round)) = cfg.crashes.iter().find(|&&(node, _)| node == i) {
                spec = spec.crash_at(round);
            }
            engine.add_node(spec)
        })
        .collect();

    engine.run(cfg.instances * 3);

    let outputs = ids
        .iter()
        .map(|&id| {
            engine
                .process::<ChaNode<u64>>(id)
                .expect("node")
                .outputs()
                .to_vec()
        })
        .collect();
    let proposals = ids
        .iter()
        .map(|&id| {
            engine
                .process::<ChaNode<u64>>(id)
                .expect("node")
                .proposals()
                .to_vec()
        })
        .collect();
    CliqueRun {
        outputs,
        proposals,
        stats: *engine.stats(),
        crashed: cfg.crashes.iter().map(|&(node, _)| node).collect(),
    }
}

/// Runs `jobs` under `tuning` with 1 sweep worker and with `workers`
/// (at least two, so the cross-check always exercises real
/// concurrency), asserts the serialized outcome tables are
/// byte-identical, and returns the outcomes in job order.
///
/// # Panics
///
/// Panics if the sweeps disagree: a determinism bug in the runner, or
/// something — a recorder, a checker, a service adapter — running on
/// a parallel code path.
pub fn paired_sweep(
    jobs: &[(ScenarioSpec, u64)],
    tuning: EngineTuning,
    workers: usize,
) -> Vec<ScenarioOutcome> {
    let sequential = SweepRunner::new(1).run_with(jobs, tuning);
    let parallel = SweepRunner::new(workers.max(2)).run_with(jobs, tuning);
    assert_eq!(
        serde_json::to_string(&sequential).expect("serializable outcomes"),
        serde_json::to_string(&parallel).expect("serializable outcomes"),
        "sweep outcomes must not depend on the worker count"
    );
    parallel
}

/// What the `#[ignore]`d release guards of E19 and E21 share. vi-bench
/// reports no wall-clock number (that is vi-perf's job, `bash
/// bench/run.sh`); the guards time themselves and report into no
/// table.
#[cfg(test)]
pub(crate) mod guards {
    use std::time::Instant;
    use vi_radio::geometry::Rect;
    use vi_radio::{AdversaryKind, RadioConfig};
    use vi_scenario::{
        CmSpec, EngineTuning, MobilitySpec, NemesisSpec, PlacementSpec, PopulationSpec,
        ScenarioSpec, WorkloadSpec,
    };

    /// A constant-density metropolis (15 m spacing: each `R2` disk
    /// holds a handful of nodes regardless of `n`): `n` nodes uniform
    /// over a square growing with `sqrt(n)`, of which `mobile_fraction`
    /// roam as random waypoints and the rest never move. The workload
    /// is CHA under the randomized backoff contention manager, so
    /// pre-capture rounds keep genuine broadcast contention on the
    /// channel. (vi-perf's `metro_static` / `metro_churn` are this
    /// spec at n = 20 000.)
    pub(crate) fn metropolis_spec(
        name: &str,
        n: usize,
        mobile_fraction: f64,
        instances: u64,
    ) -> ScenarioSpec {
        let side = (n as f64).sqrt() * 15.0;
        let mobile = ((n as f64) * mobile_fraction).round() as usize;
        let mut populations = vec![PopulationSpec::fixed(n - mobile, PlacementSpec::Uniform)];
        if mobile > 0 {
            populations.push(
                PopulationSpec::fixed(mobile, PlacementSpec::Uniform)
                    .with_mobility(MobilitySpec::Waypoint { speed: 0.5 }),
            );
        }
        ScenarioSpec {
            name: name.into(),
            arena: Rect::square(side),
            radio: RadioConfig::reliable(10.0, 20.0),
            populations,
            adversary: AdversaryKind::None,
            nemesis: NemesisSpec::none(),
            cm: CmSpec::Backoff,
            workload: WorkloadSpec::ChaClique { instances },
        }
    }

    /// Asserts that an instrument costs at most 1.3× on a
    /// metropolis-scale run (n = 5 000, 2 % mobile): ms/round under
    /// `on` against ms/round under `off`, as interleaved min-of-pairs
    /// (scheduler noise only inflates), three attempts.
    ///
    /// # Panics
    ///
    /// Panics if the ratio is above 1.3 on every attempt.
    pub(crate) fn assert_on_overhead_is_bounded(what: &str, off: EngineTuning, on: EngineTuning) {
        let spec = metropolis_spec(&format!("{what}_overhead_5000"), 5000, 0.02, 10);
        let run_ms = |tuning: EngineTuning| -> f64 {
            let t0 = Instant::now();
            let out = spec.run_with(1, tuning);
            t0.elapsed().as_secs_f64() * 1000.0 / out.rounds.max(1) as f64
        };
        let mut failure = String::new();
        for attempt in 0..3 {
            let mut off_ms = f64::INFINITY;
            let mut on_ms = f64::INFINITY;
            for _ in 0..2 {
                off_ms = off_ms.min(run_ms(off));
                on_ms = on_ms.min(run_ms(on));
            }
            let ratio = on_ms / off_ms.max(f64::MIN_POSITIVE);
            if ratio <= 1.3 {
                eprintln!(
                    "{what} overhead n=5000: {off_ms:.3} -> {on_ms:.3} ms/round ({ratio:.2}x)"
                );
                return;
            }
            failure = format!(
                "attempt {attempt}: {off_ms:.3} -> {on_ms:.3} ms/round, {ratio:.2}x (want <= 1.3x)"
            );
        }
        panic!("{what} overhead above 1.3x on every attempt; last: {failure}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_run_is_fully_green_after_bootstrap() {
        let run = run_clique(CliqueConfig::reliable(4, 20, 1));
        assert!(run.decided_fraction() > 0.9);
        assert!(run.all_green_from().unwrap_or(u64::MAX) <= 2);
        assert!(run.checker().check_all(true).is_empty());
    }

    #[test]
    fn lossy_run_stays_safe() {
        let mut cfg = CliqueConfig::reliable(5, 50, 3);
        cfg.radio = RadioConfig::stabilizing(10.0, 20.0, 90);
        cfg.cm_stabilize = 90;
        cfg.cm_pre = PreStability::Random(0.4);
        cfg.adversary = AdversaryKind::Random(0.4, 0.2);
        cfg.crashes = vec![(4, 77)];
        let run = run_clique(cfg);
        let violations = run.checker().check_all(true);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
