//! Shared experiment runners.

use std::time::Instant;
use vi_contention::{OracleCm, PreStability, SharedCm};
use vi_core::cha::{ChaMessage, ChaNode, ChaOutput, ChaSpecChecker, TaggedProposer};
use vi_radio::geometry::Point;
use vi_radio::mobility::Static;
use vi_radio::trace::ChannelStats;
use vi_radio::{Engine, EngineConfig, NodeId, NodeSpec, RadioConfig};
use vi_scenario::{EngineTuning, ScenarioOutcome, ScenarioSpec, SweepRunner};

// `AdversaryKind` began life here and moved to `vi-radio::adversary`
// (serde-derived) so scenario specs can describe adversaries
// declaratively; re-exported so existing call sites keep compiling.
pub use vi_radio::adversary::AdversaryKind;

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
    pub fn checker(&self) -> ChaSpecChecker<u64> {
        let mut c = ChaSpecChecker::new();
        for props in &self.proposals {
            for &(k, v) in props {
                c.record_proposal(k, v);
            }
        }
        for (node, outs) in self.outputs.iter().enumerate() {
            for out in outs {
                c.record_output(node, out);
            }
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

/// One job list swept twice — by 1 sweep worker and by `workers` —
/// with byte-identity of the two outcome tables already asserted.
pub struct PairedSweep {
    /// The outcomes, in job order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Wall-clock of the 1-worker sweep.
    pub single_secs: f64,
    /// Wall-clock of the multi-worker sweep.
    pub multi_secs: f64,
    /// Sweep workers of the multi-worker sweep.
    pub workers: usize,
}

/// Runs `jobs` under `tuning` with 1 sweep worker and with `workers`
/// (at least two, so the cross-check always exercises real
/// concurrency), asserting the serialized outcome tables are
/// byte-identical.
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
) -> PairedSweep {
    let workers = workers.max(2);
    let t0 = Instant::now();
    let sequential = SweepRunner::new(1).run_with(jobs, tuning);
    let single_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let parallel = SweepRunner::new(workers).run_with(jobs, tuning);
    let multi_secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        serde_json::to_string(&sequential).expect("serializable outcomes"),
        serde_json::to_string(&parallel).expect("serializable outcomes"),
        "sweep outcomes must not depend on the worker count"
    );
    PairedSweep {
        outcomes: parallel,
        single_secs,
        multi_secs,
        workers,
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
