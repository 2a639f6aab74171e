//! # vi-contention
//!
//! Contention managers for collision-prone wireless channels, per
//! Section 1.1 and Property 3 of *Chockler, Gilbert, Lynch (PODC
//! 2008)*.
//!
//! The paper deliberately **decouples contention management from the
//! agreement protocol**: the contention manager designates nodes as
//! *active* (enabled to broadcast) or *passive*, and guarantees that
//! eventually there is exactly one active node among a stable set of
//! contenders (leader election, Property 3). This separates liveness
//! concerns (handled here) from safety concerns (handled by the CHA
//! protocol in `vi-core`, which is safe no matter how the contention
//! manager misbehaves).
//!
//! Three managers are provided:
//!
//! * [`OracleCm`] — realizes Property 3 *exactly* from a configurable
//!   stabilization round, with scriptable misbehaviour before it. The
//!   paper's proofs quantify over such a manager ("from some point
//!   onwards"), so experiments that measure post-stabilization
//!   behaviour use this one.
//! * [`BackoffCm`] — a randomized exponential backoff scheme with
//!   leader capture, the practical implementation the paper says
//!   suffices ("we believe even a simple exponential back-off scheme
//!   to be sufficient"). Achieves Property 3 empirically; see the
//!   convergence tests.
//! * [`RegionalCm`] — the Section 4.2 manager: one per virtual-node
//!   location ℓ, admitting only contenders within a region around ℓ
//!   and electing *temporary leaders* with leases of `2(s+10)` rounds.
//!
//! All managers are driven through the [`ContentionManager`] trait and
//! shared between co-located processes via [`SharedCm`].

#![forbid(unsafe_code)]

pub mod backoff;
pub mod manager;
pub mod oracle;
pub mod regional;

pub use backoff::{BackoffCm, BackoffConfig};
pub use manager::{Advice, ChannelFeedback, CmSlot, ContentionManager, SharedCm};
pub use oracle::{OracleCm, PreStability};
pub use regional::{RegionalCm, RegionalConfig};
