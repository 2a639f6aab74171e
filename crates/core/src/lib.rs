//! # vi-core
//!
//! The primary contribution of *Chockler, Gilbert, Lynch: "Virtual
//! Infrastructure for Collision-Prone Wireless Networks"* (PODC 2008):
//!
//! * [`cha`] — **convergent history agreement** (Section 3): the
//!   problem definition, the three-phase CHAP protocol of Figure 1
//!   with the checkpoint fold and garbage collection of Section 3.5
//!   as one operation on it, and a trace checker for the Validity /
//!   Agreement / Liveness specification.
//! * [`vi`] — **virtual infrastructure emulation** (Section 4):
//!   deterministic virtual-node automata, the non-conflicting
//!   broadcast schedule, the eleven-phase virtual round, the
//!   join/join-ack/reset sub-protocol, and the client runtime.

#![forbid(unsafe_code)]

pub mod cha;
pub mod vi;
