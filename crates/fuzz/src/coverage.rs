//! Coverage signatures: the feedback half of the fuzz loop.
//!
//! A [`Signature`] buckets one run's *observable behaviour* — not its
//! spec — so two different specs that drive the stack through the
//! same regime collide, and a mutation only earns corpus space by
//! reaching behaviour nobody reached before. The ingredients are the
//! ones the observability PRs made deterministic:
//!
//! * the resolver-mode counter profile from vi-telemetry (which round
//!   paths fired, log2-bucketed);
//! * channel bands (broadcasts / deliveries / collision reports,
//!   log2-bucketed);
//! * checker verdicts (safety, audit, liveness stall);
//! * liveness `kst` (stabilization instance, log2-bucketed) and the
//!   decided fraction (decile-bucketed);
//! * traffic bands (completions / timeouts / p99, log2-bucketed).
//!
//! Log2 bucketing is the point: exact counters would make every run
//! "new coverage" and the corpus would never converge, while verdict
//! bits alone would collapse the space to a handful of buckets.

use serde::{Deserialize, Serialize};
use vi_scenario::{ScenarioOutcome, TrafficSummary};

/// Floor-log2 bucket of a counter, with 0 kept distinct from 1.
fn bucket(v: u64) -> u8 {
    match v {
        0 => 0,
        v => (64 - v.leading_zeros()) as u8,
    }
}

/// The coverage key of one run. `Ord` so the corpus can live in a
/// `BTreeMap` (deterministic iteration order — the campaign's parent
/// selection must not depend on hash order).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Signature {
    /// Workload family tag (the behaviour spaces are disjoint).
    pub family: String,
    /// The run found a CHA safety violation.
    pub safety: bool,
    /// Audit verdict: `None` = not audited, `Some(true)` = clean.
    pub audit_ok: Option<bool>,
    /// Traffic was issued but nothing ever completed.
    pub stall: bool,
    /// Resolver-mode round profile, log2-bucketed: steady, scatter,
    /// re-anchor, churn.
    pub resolver: [u8; 4],
    /// Channel bands, log2-bucketed: broadcasts, deliveries,
    /// collision reports.
    pub channel: [u8; 3],
    /// Liveness: log2 bucket of the stabilization instance `kst`
    /// (`255` = never stabilized / not a CHA run).
    pub kst: u8,
    /// Decided fraction, in deciles.
    pub decided: u8,
    /// Traffic bands, log2-bucketed: completed, timed out, p99
    /// (zeros when the run drove no traffic).
    pub traffic: [u8; 3],
}

impl Signature {
    /// Buckets `outcome` into its signature. Telemetry-blind runs
    /// (no counters) get an all-zero resolver profile, which is its
    /// own bucket — the campaign always runs with telemetry on.
    pub fn of(outcome: &ScenarioOutcome) -> Signature {
        let resolver = outcome
            .telemetry
            .as_ref()
            .map(|t| {
                [
                    bucket(t.counters.rounds_steady),
                    bucket(t.counters.rounds_scatter),
                    bucket(t.counters.rounds_reanchor),
                    bucket(t.counters.rounds_churn),
                ]
            })
            .unwrap_or_default();
        let traffic = outcome
            .traffic
            .as_ref()
            .map(|t| [bucket(t.completed), bucket(t.timed_out), bucket(t.p99)])
            .unwrap_or_default();
        let stall = outcome
            .traffic
            .as_ref()
            .is_some_and(TrafficSummary::stalled);
        Signature {
            family: outcome
                .scenario
                .split('~')
                .next()
                .unwrap_or(&outcome.scenario)
                .to_string(),
            safety: outcome.safety_violations() > 0,
            audit_ok: outcome.audit.as_ref().map(|r| r.ok()),
            stall,
            resolver,
            channel: [
                bucket(outcome.broadcasts),
                bucket(outcome.deliveries),
                bucket(outcome.collision_reports),
            ],
            kst: outcome.stabilized_kst.map_or(255, bucket),
            decided: (outcome.decided_fraction.clamp(0.0, 1.0) * 10.0) as u8,
            traffic,
        }
    }

    /// A compact rendering without spaces, used for bench rows and
    /// (through `vi_scenario::file_stem`) corpus entry file names.
    pub fn key(&self) -> String {
        let b = |v: bool| u8::from(v);
        format!(
            "{}-s{}a{}l{}-r{}.{}.{}.{}-c{}.{}.{}-k{}-d{}-t{}.{}.{}",
            self.family,
            b(self.safety),
            self.audit_ok.map_or(2, b),
            b(self.stall),
            self.resolver[0],
            self.resolver[1],
            self.resolver[2],
            self.resolver[3],
            self.channel[0],
            self.channel[1],
            self.channel[2],
            self.kst,
            self.decided,
            self.traffic[0],
            self.traffic[1],
            self.traffic[2],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::seed_corpus;
    use vi_scenario::EngineTuning;

    #[test]
    fn buckets_are_log2_with_zero_distinct() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(1024), 11);
    }

    #[test]
    fn signatures_are_deterministic_and_family_distinct() {
        let corpus = seed_corpus();
        let tuning = EngineTuning::DEFAULT.with_telemetry();
        let sigs: Vec<Signature> = corpus
            .iter()
            .map(|s| Signature::of(&s.run_with(5, tuning)))
            .collect();
        for (spec, sig) in corpus.iter().zip(&sigs) {
            assert_eq!(sig.family, spec.name);
            assert_eq!(
                *sig,
                Signature::of(&spec.run_with(5, tuning)),
                "signatures are a pure function of (spec, seed)"
            );
            let json = serde_json::to_string(sig).unwrap();
            let back: Signature = serde_json::from_str(&json).unwrap();
            assert_eq!(back, *sig, "signatures round-trip");
            assert!(!sig.key().contains(' '), "keys are filesystem-safe");
        }
        // Distinct families never collide (the family tag partitions
        // the space).
        for i in 0..sigs.len() {
            for j in i + 1..sigs.len() {
                assert_ne!(sigs[i], sigs[j]);
            }
        }
    }
}
