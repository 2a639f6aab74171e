//! Virtual infrastructure emulation (Section 4 of the paper).
//!
//! * [`automaton`] — the deterministic virtual-node programs clients
//!   interact with.
//! * [`layout`] — virtual-node placement and the conflict graph.
//! * [`schedule`] — the non-conflicting, complete broadcast schedule
//!   (Section 4.1).
//! * [`round`] — the eleven-phase structure of one virtual round
//!   (Section 4.3).
//! * [`message`] — the emulation's wire format.
//! * [`emulator`] — the replica process run by mobile devices,
//!   including the join/join-ack/reset sub-protocol.
//! * [`client`] — the client-side runtime that makes virtual nodes
//!   look like reliable, immobile devices.
//! * [`world`] — a builder that assembles engine + virtual nodes +
//!   emulators + clients into a runnable deployment.

pub mod automaton;
pub mod client;
pub mod emulator;
pub mod layout;
pub mod message;
pub mod round;
pub mod schedule;
pub mod world;

pub use automaton::{
    CounterAutomaton, CounterState, VirtualAutomaton, VirtualInput, VnCtx, VnId, VnMessage, VnState,
};
pub use client::{ClientApp, CollectorClient};
pub use emulator::{Deployment, Device, EmulatorReport, TransferState};
pub use layout::VnLayout;
pub use message::{Transfer, Wire};
pub use round::{RoundPlan, VirtualPhase};
pub use schedule::Schedule;
pub use world::{World, WorldConfig};
