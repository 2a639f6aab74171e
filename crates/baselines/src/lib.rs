//! # vi-baselines
//!
//! Baseline replication protocols run on the same simulated channel as
//! CHAP, implementing the comparison points the paper argues against:
//!
//! * [`full_history`] — the "naïve solution" of Section 3.4: the
//!   leader re-broadcasts the *entire* history each instance, so
//!   message size grows linearly with execution length (vs. CHAP's
//!   constant, Theorem 14).
//! * [`majority`] — a majority-acknowledgement consensus in the style
//!   of classic replicated-state-machine protocols (Section 1.5: "most
//!   such protocols require at least a majority of the nodes to send
//!   messages; in a wireless network this creates unacceptable channel
//!   contention and long delays") — Θ(n) rounds per decision.
//! * [`three_phase_commit`] — the classic 3PC pattern CHAP is
//!   "inspired by", used in the recovery-behaviour ablation (E12): on
//!   a coordinator failure mid-protocol, plain 3PC *blocks*, while
//!   CHAP converges by resolving instances to ⊥.
//! * [`majority_register`] — a majority-acked register with
//!   quorum-free **local reads**: the deliberately broken baseline the
//!   `vi-audit` linearizability checker catches red-handed under a
//!   partition (see `examples/audit_demo.rs`).

#![forbid(unsafe_code)]

pub mod full_history;
pub mod majority;
pub mod majority_register;
pub mod three_phase_commit;

pub use full_history::{FullHistoryMessage, FullHistoryNode};
pub use majority::{MajorityConsensus, MajorityMessage};
pub use majority_register::{
    collect_register_ops, MajRegMessage, MajorityRegister, ReadRecord, WriteRecord,
};
pub use three_phase_commit::{ThreePhaseCommit, TpcDecision, TpcMessage};
