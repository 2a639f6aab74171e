//! Self-contained incident bundles: the flight recorder's crash dump.
//!
//! When a run ends badly — an audit checker finds a violation, client
//! traffic stalls completely, or the compiler panics mid-run — the
//! last-K-rounds flight window, the causal summary, and everything
//! needed to re-execute the run byte-identically are dumped into one
//! JSON [`IncidentBundle`]. `vi-bench --replay bundle.json` (or
//! [`IncidentBundle::replay`] programmatically) re-runs the bundled
//! `(scenario, seed, tuning)` and must reproduce the identical
//! [`ScenarioOutcome`], audit verdict included, at any worker count.

use std::fmt::Write as _;
use std::path::Path;

use serde::{Deserialize, Serialize};
use vi_audit::AuditReport;
use vi_telemetry::{CausalSummary, RoundWindow};

use crate::compile::{EngineTuning, ScenarioOutcome};
use crate::spec::ScenarioSpec;

/// Bundle format version (bumped on incompatible schema changes).
pub const BUNDLE_VERSION: u64 = 1;

/// Why the bundle was dumped.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum IncidentReason {
    /// A safety violation: an audit checker reported a consistency
    /// violation, or the CHA checker a validity, agreement or
    /// color-spread violation.
    Violation,
    /// Clients issued operations but none ever completed
    /// ([`TrafficSummary::stalled`](vi_traffic::TrafficSummary::stalled)).
    LivenessStall,
    /// The run panicked.
    Panic {
        /// The panic payload, if it was a string.
        message: String,
    },
}

/// A self-contained crash/violation dump: the scenario, the seed, the
/// telemetry tuning that was active, the retained flight window, the
/// causal summary with the witness's span slice, and the audit report
/// that triggered the dump. Everything is plain serializable data, so
/// a bundle written on one machine replays anywhere.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IncidentBundle {
    /// Format version ([`BUNDLE_VERSION`]).
    pub version: u64,
    /// The full scenario that produced the incident.
    pub scenario: ScenarioSpec,
    /// The run seed.
    pub seed: u64,
    /// Whether causal tracing was on (replay re-enables it).
    pub tracing: bool,
    /// Flight-recorder window size in rounds (replay re-enables it).
    pub flight_rounds: u64,
    /// Why the dump fired.
    pub reason: IncidentReason,
    /// The retained last-K-rounds event window.
    pub flight: Vec<RoundWindow>,
    /// The causal DAG + decision timelines, when tracing was on.
    pub causal: Option<CausalSummary>,
    /// Causal span ids of the operations implicated by the audit
    /// witness (the "causal slice": join the audit's `witness_ops`
    /// against the summary's `op_spans`). Empty without tracing or
    /// without a violation witness.
    pub witness_spans: Vec<u64>,
    /// The audit report that triggered the dump, if any.
    pub audit: Option<AuditReport>,
}

impl IncidentBundle {
    /// Assembles a bundle from a finished (or panicking) run. The
    /// witness slice is computed here: every op id named by a failed
    /// check's witness is joined against the causal op→span table.
    pub fn assemble(
        scenario: &ScenarioSpec,
        seed: u64,
        tuning: EngineTuning,
        reason: IncidentReason,
        flight: Vec<RoundWindow>,
        causal: Option<CausalSummary>,
        audit: Option<AuditReport>,
    ) -> Self {
        let witness_spans = match (&causal, &audit) {
            (Some(c), Some(report)) => report
                .checks
                .iter()
                .flat_map(|check| check.witness_ops.iter())
                .filter_map(|op| c.op_spans.get(op).copied())
                .collect(),
            _ => Vec::new(),
        };
        IncidentBundle {
            version: BUNDLE_VERSION,
            scenario: scenario.clone(),
            seed,
            tracing: tuning.tracing,
            flight_rounds: tuning.flight_rounds as u64,
            reason,
            flight,
            causal,
            witness_spans,
            audit,
        }
    }

    /// The engine tuning a replay must run under.
    pub fn replay_tuning(&self) -> EngineTuning {
        EngineTuning {
            tracing: self.tracing,
            flight_rounds: self.flight_rounds as usize,
            ..EngineTuning::DEFAULT
        }
    }

    /// Re-executes the bundled `(scenario, seed)` under the bundled
    /// telemetry tuning and returns the outcome. A faithful bundle
    /// reproduces the original incident byte-identically: same audit
    /// verdict, same flight window, same causal summary.
    pub fn replay(&self) -> ScenarioOutcome {
        self.scenario.run_with(self.seed, self.replay_tuning())
    }

    /// Serializes the bundle to JSON.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (bundles are plain finite data,
    /// so it cannot).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("incident bundles serialize")
    }

    /// Parses a bundle from JSON.
    ///
    /// # Errors
    ///
    /// Returns a description of the parse failure, of a version skew,
    /// or of the first problem [`ScenarioSpec::validate`] finds in the
    /// bundled scenario (a replay would otherwise panic on it).
    pub fn from_json(json: &str) -> Result<Self, String> {
        let bundle: IncidentBundle =
            serde_json::from_str(json).map_err(|e| format!("incident bundle: {e}"))?;
        if bundle.version != BUNDLE_VERSION {
            return Err(format!(
                "incident bundle: version {} (this build reads {BUNDLE_VERSION})",
                bundle.version
            ));
        }
        bundle
            .scenario
            .validate()
            .map_err(|e| format!("incident bundle: {e}"))?;
        Ok(bundle)
    }

    /// Writes the bundle as JSON to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Loads a bundle from a JSON file.
    ///
    /// # Errors
    ///
    /// Returns a description of the I/O or parse failure.
    pub fn load(path: &Path) -> Result<Self, String> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| format!("incident bundle {}: {e}", path.display()))?;
        Self::from_json(&json)
    }
}

/// `name` as a path-safe file-name component: ASCII letters, digits,
/// `-`, `_`, `~` and a `.` after the first byte stay, and every other
/// byte becomes `%XX`. The mapping is one-to-one, so distinct names
/// never share a file, and a scenario name such as
/// `robot_patrol/register/open` names a file in the directory it is
/// written to, not in a subdirectory that does not exist.
pub fn file_stem(name: &str) -> String {
    let mut stem = String::with_capacity(name.len());
    for (i, b) in name.bytes().enumerate() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'~') || (b == b'.' && i > 0) {
            stem.push(char::from(b));
        } else {
            write!(stem, "%{b:02X}").expect("writing to a String cannot fail");
        }
    }
    stem
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn violating_bundle() -> IncidentBundle {
        let spec = catalog::scenario("broken_majority").expect("catalog scenario");
        let tuning = EngineTuning::DEFAULT.with_tracing().with_flight(8);
        let out = spec.run_with(1, tuning);
        out.incident.expect("violation must dump a bundle")
    }

    #[test]
    fn file_stems_are_one_path_component_and_one_to_one() {
        // Names made of safe bytes keep their file names.
        for name in ["clique", "fuzz_majority~3", "mall_rush-s1a2l0-r1.2.3.4"] {
            assert_eq!(file_stem(name), name);
        }
        assert_eq!(
            file_stem("robot_patrol/register/open"),
            "robot_patrol%2Fregister%2Fopen"
        );
        assert_eq!(file_stem(".."), "%2E.");
        assert_eq!(file_stem(r"a\b:c d"), "a%5Cb%3Ac%20d");
        assert_eq!(file_stem("50%"), "50%25");
        assert_eq!(file_stem("né"), "n%C3%A9");
        assert_eq!(file_stem(""), "");
        // Escaping `%` itself keeps distinct names apart.
        let names = ["a/b", "a_b", "a%2Fb", "a%b", ".a", "%2Ea"];
        for (i, x) in names.iter().enumerate() {
            for y in &names[i + 1..] {
                assert_ne!(file_stem(x), file_stem(y), "{x} and {y}");
            }
        }
        for name in names {
            let stem = file_stem(name);
            let path = Path::new(&stem);
            assert_eq!(path.components().count(), 1, "{name} -> {stem}");
            assert!(!stem.starts_with('.'), "{name} -> {stem}");
        }
    }

    #[test]
    fn bundle_round_trips_and_replays_identically() {
        let bundle = violating_bundle();
        assert_eq!(bundle.version, BUNDLE_VERSION);
        assert_eq!(bundle.reason, IncidentReason::Violation);
        assert!(!bundle.flight.is_empty(), "flight window retained");
        assert!(bundle.causal.is_some(), "tracing was on");
        let report = bundle.audit.as_ref().expect("audit triggered the dump");
        assert!(!report.ok());
        let json = bundle.to_json();
        let back = IncidentBundle::from_json(&json).expect("parses");
        assert_eq!(back, bundle);
        let replay = back.replay();
        assert_eq!(replay.audit, bundle.audit, "same verdict on replay");
        assert_eq!(
            replay.incident.as_ref().expect("replay re-dumps"),
            &bundle,
            "replay reproduces the bundle byte-identically"
        );
    }

    #[test]
    fn version_skew_is_rejected() {
        let mut bundle = violating_bundle();
        bundle.version = BUNDLE_VERSION + 1;
        let err = IncidentBundle::from_json(&bundle.to_json()).unwrap_err();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn invalid_scenario_is_rejected() {
        let mut bundle = violating_bundle();
        bundle.scenario.adversary = vi_radio::AdversaryKind::Random(1.5, 0.0);
        let err = IncidentBundle::from_json(&bundle.to_json()).unwrap_err();
        assert!(err.contains("probability outside [0, 1]"), "{err}");
    }
}
