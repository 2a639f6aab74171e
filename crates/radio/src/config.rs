//! Radio model parameters.

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Parameters of the quasi-unit-disk radio model (Section 2 of the
/// paper).
///
/// * `r1` — the broadcast radius: two nodes within `r1` of each other
///   are able to communicate.
/// * `r2` — the interference radius: a broadcaster within `r2` of a
///   receiver interferes with any other reception (`r2 >= r1`).
/// * `rcf` — the *collision-freedom* stabilization round: from `rcf`
///   onwards, every message broadcast within `r1` of a listening,
///   interference-free receiver is delivered. Before `rcf`, an
///   [`Adversary`](crate::Adversary) may drop any message.
/// * `racc` — the *detector accuracy* stabilization round: from `racc`
///   onwards the collision detector reports a collision only if some
///   message broadcast within `r2` was actually lost (Property 2).
///   Before `racc` the adversary may inject spurious collision
///   indications.
///
/// The collision detector is the strongest one Properties 1–2 allow:
/// it reports exactly when a message broadcast within `r2` was lost
/// (so every loss within `r1` too, Property 1), plus, before `racc`,
/// whatever spurious reports the adversary adds.
///
/// Eventual properties in the paper hold "from some point onwards" as a
/// formal convention; the simulator makes the stabilization points
/// explicit parameters so experiments can sweep them.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RadioConfig {
    /// Broadcast radius `R1` in meters.
    pub r1: f64,
    /// Interference radius `R2` in meters (`r2 >= r1`).
    pub r2: f64,
    /// First round of collision freedom (the paper's `rcf`).
    pub rcf: u64,
    /// First round of collision-detector accuracy (the paper's `racc`).
    pub racc: u64,
}

impl RadioConfig {
    /// A network that is well behaved from round 0: no adversarial
    /// loss and an accurate detector throughout.
    ///
    /// # Panics
    ///
    /// Panics if the radii are invalid (see [`RadioConfig::validate`]).
    pub fn reliable(r1: f64, r2: f64) -> Self {
        let cfg = RadioConfig {
            r1,
            r2,
            rcf: 0,
            racc: 0,
        };
        cfg.validate().expect("invalid radio config");
        cfg
    }

    /// A network that misbehaves (arbitrary loss, inaccurate
    /// detectors) until round `stabilize_at`, then is well behaved.
    ///
    /// # Panics
    ///
    /// Panics if the radii are invalid (see [`RadioConfig::validate`]).
    pub fn stabilizing(r1: f64, r2: f64, stabilize_at: u64) -> Self {
        let cfg = RadioConfig {
            r1,
            r2,
            rcf: stabilize_at,
            racc: stabilize_at,
        };
        cfg.validate().expect("invalid radio config");
        cfg
    }

    /// Sets distinct stabilization points for collision freedom and
    /// detector accuracy.
    pub fn with_stabilization(mut self, rcf: u64, racc: u64) -> Self {
        self.rcf = rcf;
        self.racc = racc;
        self
    }

    /// Checks the model constraints: `0 < r1 <= r2`, both finite.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.r1.is_finite() || !self.r2.is_finite() {
            return Err(ConfigError::NonFiniteRadius);
        }
        if self.r1 <= 0.0 {
            return Err(ConfigError::NonPositiveBroadcastRadius(self.r1));
        }
        if self.r2 < self.r1 {
            return Err(ConfigError::InterferenceSmallerThanBroadcast {
                r1: self.r1,
                r2: self.r2,
            });
        }
        Ok(())
    }
}

/// Error returned when a [`RadioConfig`] violates the model
/// constraints.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// A radius was NaN or infinite.
    NonFiniteRadius,
    /// The broadcast radius must be strictly positive.
    NonPositiveBroadcastRadius(f64),
    /// The interference radius must be at least the broadcast radius.
    InterferenceSmallerThanBroadcast {
        /// Broadcast radius supplied.
        r1: f64,
        /// Interference radius supplied.
        r2: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NonFiniteRadius => write!(f, "radio radius must be finite"),
            ConfigError::NonPositiveBroadcastRadius(r1) => {
                write!(f, "broadcast radius must be positive (got {r1})")
            }
            ConfigError::InterferenceSmallerThanBroadcast { r1, r2 } => write!(
                f,
                "interference radius {r2} must be at least broadcast radius {r1}"
            ),
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_config_is_valid() {
        let cfg = RadioConfig::reliable(10.0, 20.0);
        assert_eq!(cfg.rcf, 0);
        assert_eq!(cfg.racc, 0);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn rejects_inverted_radii() {
        let cfg = RadioConfig {
            r1: 20.0,
            r2: 10.0,
            rcf: 0,
            racc: 0,
        };
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::InterferenceSmallerThanBroadcast { r1: 20.0, r2: 10.0 })
        );
    }

    #[test]
    fn rejects_zero_radius() {
        let cfg = RadioConfig {
            r1: 0.0,
            r2: 1.0,
            rcf: 0,
            racc: 0,
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::NonPositiveBroadcastRadius(_))
        ));
    }

    #[test]
    fn rejects_nan_radius() {
        let cfg = RadioConfig {
            r1: f64::NAN,
            r2: 1.0,
            rcf: 0,
            racc: 0,
        };
        assert_eq!(cfg.validate(), Err(ConfigError::NonFiniteRadius));
    }

    #[test]
    fn stabilizing_sets_both_points() {
        let cfg = RadioConfig::stabilizing(5.0, 10.0, 42);
        assert_eq!(cfg.rcf, 42);
        assert_eq!(cfg.racc, 42);
        let cfg = cfg.with_stabilization(10, 20);
        assert_eq!((cfg.rcf, cfg.racc), (10, 20));
    }

    #[test]
    fn error_messages_are_lowercase_and_informative() {
        let msg = ConfigError::InterferenceSmallerThanBroadcast { r1: 2.0, r2: 1.0 }.to_string();
        assert!(msg.contains("interference radius"));
        assert!(msg.starts_with(char::is_lowercase));
    }
}
