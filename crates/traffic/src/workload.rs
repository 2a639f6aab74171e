//! The declarative workload description: which app is driven, by how
//! many clients, under which arrival discipline.
//!
//! A [`TrafficSpec`] is plain serializable data, embedded in a
//! `vi_scenario::ScenarioSpec` workload the same way populations and
//! adversaries are — traffic runs are data like everything else, and
//! identical `(spec, seed)` pairs replay identical request streams.

use serde::{Deserialize, Serialize};

/// Which vi-app the workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AppKind {
    /// Single-writer register: `Mutate` = write, `Query` = read.
    Register,
    /// FIFO lock server: every op is an acquire→release cycle.
    Mutex,
    /// Tracking service: `Mutate` = position report, `Query` = lookup.
    Tracking,
    /// Greedy georouting: every op sends a packet to the nearest
    /// virtual node and completes when that node delivers it.
    Georouting,
}

impl AppKind {
    /// Lower-case app name for report rows.
    pub fn name(&self) -> &'static str {
        match self {
            AppKind::Register => "register",
            AppKind::Mutex => "mutex",
            AppKind::Tracking => "tracking",
            AppKind::Georouting => "georouting",
        }
    }

    /// All apps, in report order.
    pub fn all() -> [AppKind; 4] {
        [
            AppKind::Register,
            AppKind::Mutex,
            AppKind::Tracking,
            AppKind::Georouting,
        ]
    }
}

/// A rate change point of an open-loop schedule: from virtual round
/// `from_vr` (inclusive) the arrival rate is `rate_per_round`.
/// Sequences of phases express ramps and bursts.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RatePhase {
    /// First virtual round the rate applies to (1-based).
    pub from_vr: u64,
    /// Mean request arrivals per virtual round from then on.
    pub rate_per_round: f64,
}

/// The arrival discipline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum LoadMode {
    /// Open loop: requests arrive on a fixed schedule regardless of
    /// completions (the service-benchmark discipline that exposes
    /// queueing collapse). Arrivals per round follow a deterministic
    /// fractional accumulator over the active rate, so the schedule
    /// is exact; request classes and client assignment come from the
    /// seeded RNG stream.
    Open {
        /// Base arrival rate (requests per virtual round).
        rate_per_round: f64,
        /// Rate ramps/bursts overriding the base rate from their
        /// `from_vr` on (must be sorted by `from_vr`).
        phases: Vec<RatePhase>,
    },
    /// Closed loop: each client keeps up to `outstanding_per_client`
    /// requests in flight and waits `think_rounds` after a completion
    /// before reissuing that slot.
    Closed {
        /// In-flight requests per client.
        outstanding_per_client: usize,
        /// Virtual rounds between a completion and the next issue.
        think_rounds: u64,
    },
}

impl LoadMode {
    /// `open` / `closed`, for report rows.
    pub fn name(&self) -> &'static str {
        match self {
            LoadMode::Open { .. } => "open",
            LoadMode::Closed { .. } => "closed",
        }
    }
}

/// A full traffic workload: clients, arrival discipline, op mix, and
/// measurement window.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrafficSpec {
    /// Number of client endpoints. The first `clients` devices of the
    /// deployment (population order) run a traffic port alongside
    /// their emulator.
    pub clients: usize,
    /// Arrival discipline.
    pub mode: LoadMode,
    /// Fraction of requests that are `Query`-class (reads/lookups);
    /// the remainder are `Mutate`-class. Apps without a read op
    /// (mutex, georouting) ignore this.
    pub query_fraction: f64,
    /// A request unanswered for more than this many virtual rounds is
    /// dropped and counted as timed out.
    pub timeout_rounds: u64,
    /// Virtual rounds during which requests are admitted. After the
    /// window the driver keeps stepping for `timeout_rounds + 1` more
    /// rounds so every late request either completes or times out.
    pub virtual_rounds: u64,
}

impl TrafficSpec {
    /// A small open-loop workload (useful default for experiments).
    pub fn open(clients: usize, rate_per_round: f64, virtual_rounds: u64) -> Self {
        TrafficSpec {
            clients,
            mode: LoadMode::Open {
                rate_per_round,
                phases: Vec::new(),
            },
            query_fraction: 0.5,
            timeout_rounds: 30,
            virtual_rounds,
        }
    }

    /// A closed-loop workload with `k` outstanding per client.
    pub fn closed(clients: usize, k: usize, think_rounds: u64, virtual_rounds: u64) -> Self {
        TrafficSpec {
            clients,
            mode: LoadMode::Closed {
                outstanding_per_client: k,
                think_rounds,
            },
            query_fraction: 0.5,
            timeout_rounds: 30,
            virtual_rounds,
        }
    }

    /// Sets the query (read) fraction.
    pub fn with_query_fraction(mut self, q: f64) -> Self {
        self.query_fraction = q;
        self
    }

    /// Checks the spec for parameters the driver would panic on or
    /// silently misbehave under.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.clients == 0 {
            return Err("traffic needs at least one client".into());
        }
        if self.virtual_rounds == 0 {
            return Err("traffic needs at least one virtual round".into());
        }
        if self.timeout_rounds == 0 {
            return Err("timeout must be at least one round".into());
        }
        if !(0.0..=1.0).contains(&self.query_fraction) {
            return Err(format!(
                "query fraction {} outside [0, 1]",
                self.query_fraction
            ));
        }
        let Some(total_rounds) = self.total_rounds() else {
            return Err(format!(
                "virtual_rounds {} plus timeout_rounds {} overflow the run length",
                self.virtual_rounds, self.timeout_rounds
            ));
        };
        match &self.mode {
            LoadMode::Open {
                rate_per_round,
                phases,
            } => {
                let good = |r: f64| r.is_finite() && r >= 0.0;
                if !good(*rate_per_round) {
                    return Err(format!("invalid open-loop rate {rate_per_round}"));
                }
                for p in phases {
                    if !good(p.rate_per_round) {
                        return Err(format!("invalid phase rate {}", p.rate_per_round));
                    }
                }
                if phases.windows(2).any(|w| w[0].from_vr > w[1].from_vr) {
                    return Err("rate phases must be sorted by from_vr".into());
                }
            }
            LoadMode::Closed {
                outstanding_per_client,
                think_rounds,
            } => {
                if *outstanding_per_client == 0 {
                    return Err("closed loop needs outstanding_per_client >= 1".into());
                }
                // A slot freed in the last round thinks until
                // `total_rounds + 1 + think_rounds`.
                if total_rounds
                    .checked_add(1)
                    .and_then(|t| t.checked_add(*think_rounds))
                    .is_none()
                {
                    return Err(format!(
                        "think_rounds {think_rounds} overflow the run length"
                    ));
                }
            }
        }
        Ok(())
    }

    /// How many virtual rounds the driver runs: the admission window
    /// plus a drain tail long enough for every late request to either
    /// complete or time out (a request admitted in the final window
    /// round needs `timeout_rounds + 1` more sweeps to cross the strict
    /// `> timeout_rounds` threshold). `None` if that overflows `u64`.
    pub fn total_rounds(&self) -> Option<u64> {
        self.virtual_rounds
            .checked_add(self.timeout_rounds)?
            .checked_add(1)
    }

    /// The open-loop arrival rate active in virtual round `vr` (the
    /// base rate overridden by the last phase whose `from_vr <= vr`);
    /// closed-loop specs have no rate.
    pub fn rate_at(&self, vr: u64) -> Option<f64> {
        match &self.mode {
            LoadMode::Open {
                rate_per_round,
                phases,
            } => {
                let mut rate = *rate_per_round;
                for p in phases {
                    if p.from_vr <= vr {
                        rate = p.rate_per_round;
                    }
                }
                Some(rate)
            }
            LoadMode::Closed { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_phases_override_in_order() {
        let spec = TrafficSpec {
            mode: LoadMode::Open {
                rate_per_round: 0.2,
                phases: vec![
                    RatePhase {
                        from_vr: 10,
                        rate_per_round: 1.0,
                    },
                    RatePhase {
                        from_vr: 20,
                        rate_per_round: 0.1,
                    },
                ],
            },
            ..TrafficSpec::open(2, 0.2, 30)
        };
        assert_eq!(spec.rate_at(1), Some(0.2));
        assert_eq!(spec.rate_at(10), Some(1.0));
        assert_eq!(spec.rate_at(19), Some(1.0));
        assert_eq!(spec.rate_at(25), Some(0.1));
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        assert!(TrafficSpec::open(0, 1.0, 10).validate().is_err());
        assert!(TrafficSpec::open(1, -1.0, 10).validate().is_err());
        assert!(TrafficSpec::open(1, f64::NAN, 10).validate().is_err());
        assert!(TrafficSpec::open(1, 1.0, 0).validate().is_err());
        assert!(TrafficSpec::closed(1, 0, 1, 10).validate().is_err());
        let mut bad = TrafficSpec::open(1, 1.0, 10);
        bad.query_fraction = 1.5;
        assert!(bad.validate().is_err());
        let mut unsorted = TrafficSpec::open(1, 1.0, 10);
        unsorted.mode = LoadMode::Open {
            rate_per_round: 1.0,
            phases: vec![
                RatePhase {
                    from_vr: 20,
                    rate_per_round: 1.0,
                },
                RatePhase {
                    from_vr: 10,
                    rate_per_round: 2.0,
                },
            ],
        };
        assert!(unsorted.validate().is_err());
        assert!(TrafficSpec::closed(3, 2, 0, 10).validate().is_ok());
    }

    #[test]
    fn app_names_are_stable() {
        let names: Vec<&str> = AppKind::all().iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["register", "mutex", "tracking", "georouting"]);
    }
}
