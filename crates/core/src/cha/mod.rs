//! Convergent history agreement (Section 3 of the paper).
//!
//! * [`history`] — colors, ballots, histories, `calculate-history`.
//! * [`protocol`] — the pure CHAP state machine (Figure 1), with the
//!   Section 3.5 checkpoint fold and garbage collection
//!   ([`ChaProtocol::fold_decided`]).
//! * [`process`] — the radio adapter running CHAP on the simulator.
//! * [`spec`] — a trace checker for the Section 3.2 problem
//!   definition (Validity, Agreement, Liveness) and Property 4.

pub mod history;
pub mod process;
pub mod protocol;
pub mod spec;

pub use history::{calculate_history, Ballot, Color, History};
pub use process::{ChaNode, Proposer, TaggedProposer};
pub use protocol::{ChaMessage, ChaOutput, ChaProtocol, Phase};
pub use spec::{ChaSpecChecker, SpecViolation};
