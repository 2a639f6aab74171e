//! # vi-radio
//!
//! A deterministic, slotted, collision-prone wireless network simulator
//! implementing the system model of *Chockler, Gilbert, Lynch: "Virtual
//! Infrastructure for Collision-Prone Wireless Networks"* (PODC 2008),
//! which in turn derives from the model of Chockler et al., "Consensus
//! and collision detectors in radio networks".
//!
//! The simulator provides:
//!
//! * **Slotted synchronous rounds** — in every round each node either
//!   broadcasts one message or listens ([`Process`]).
//! * **Quasi-unit-disk communication** — nodes within the broadcast
//!   radius `R1` can communicate; broadcasters within the interference
//!   radius `R2` of a receiver destroy reception ([`RadioConfig`]).
//!   Rounds are resolved by the [`Medium`], a spatially-indexed
//!   ([`CellIndex`]) path with reusable buffers that is
//!   differentially tested against the naive
//!   [`resolve_round_reference`] specification.
//! * **Collision detectors in class 3A-C** — *complete* (no false
//!   negatives, Property 1 of the paper) and *eventually accurate*
//!   (eventually no false positives, Property 2). See [`channel`].
//! * **Adversarial misbehaviour** before the stabilization rounds
//!   `rcf` (arbitrary message loss) and `racc` (spurious collision
//!   indications): an [`AdversaryKind`] value is both the serializable
//!   description and the [`Adversary`] the engine consults
//!   ([`adversary`]).
//! * **Mobility** with bounded velocity `vmax` ([`mobility`]) and a
//!   location service (every process learns its own position each
//!   round, as the paper's GPS assumption provides).
//! * **Fault injection** — crash failures and dynamic arrivals
//!   ([`engine::NodeSpec`]).
//!
//! Executions are fully deterministic given a seed, which makes every
//! experiment in the reproduction replayable.
//!
//! ## Example
//!
//! ```
//! use vi_radio::{Engine, EngineConfig, NodeSpec, Process, RadioConfig, RoundCtx,
//!                RoundReception, WireSized};
//! use vi_radio::geometry::Point;
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u64);
//! impl WireSized for Ping {
//!     fn wire_size(&self) -> usize { 8 }
//! }
//!
//! /// Broadcasts its round number once, then listens forever.
//! struct Beacon { sent: bool, heard: usize }
//! impl Process<Ping> for Beacon {
//!     fn transmit(&mut self, ctx: &RoundCtx) -> Option<Ping> {
//!         if self.sent { None } else { self.sent = true; Some(Ping(ctx.round)) }
//!     }
//!     fn deliver(&mut self, _ctx: &RoundCtx, rx: RoundReception<'_, Ping>) {
//!         self.heard += rx.messages.len();
//!     }
//! }
//!
//! // Every node runs a `Beacon`, stored by value.
//! let mut engine: Engine<Ping, Beacon> = Engine::new(EngineConfig {
//!     radio: RadioConfig::reliable(10.0, 20.0),
//!     seed: 7,
//!     record_trace: false,
//! });
//! engine.add_node(NodeSpec::by_value(
//!     Box::new(Point::new(0.0, 0.0)),
//!     Beacon { sent: false, heard: 0 },
//! ));
//! let listener = engine.add_node(NodeSpec::by_value(
//!     Box::new(Point::new(1.0, 0.0)),
//!     Beacon { sent: true, heard: 0 },
//! ));
//! engine.run(3);
//! assert_eq!(engine.process_at(listener).heard, 1);
//! ```

#![forbid(unsafe_code)]

pub mod adversary;
pub mod audit;
pub mod channel;
pub mod config;
pub mod engine;
pub mod geometry;
pub mod mobility;
pub mod trace;

pub use adversary::{Adversary, AdversaryKind, ScriptedAdversary};
pub use audit::{audit_trace, ChannelViolation};
pub use channel::{
    resolve_round, resolve_round_reference, Medium, ReceptionBuffer, RoundReception, TopologyDelta,
    TxIntent,
};
pub use config::{ConfigError, RadioConfig};
pub use engine::{AsAny, Engine, EngineConfig, NodeId, NodeSpec, Process, RoundCtx};
pub use geometry::{CellIndex, Point};
pub use trace::{ChannelStats, RoundRecord, Trace};

/// Abstract on-the-wire size of a message, in bytes.
///
/// The paper's efficiency claims (Theorem 14) are about *message size*:
/// every CHAP message is constant sized, independent of the number of
/// nodes and the length of the execution. Rather than serializing,
/// protocol crates implement this trait with a documented abstract
/// accounting (e.g. an instance index counts as 8 bytes — the paper
/// treats array indices as constant size). The engine aggregates these
/// sizes into [`ChannelStats`] so experiments can plot message-size
/// growth.
pub trait WireSized {
    /// Returns the abstract serialized size of this message in bytes.
    fn wire_size(&self) -> usize;
}

impl WireSized for () {
    fn wire_size(&self) -> usize {
        0
    }
}

impl WireSized for u8 {
    fn wire_size(&self) -> usize {
        1
    }
}

impl WireSized for bool {
    fn wire_size(&self) -> usize {
        1
    }
}

impl WireSized for u32 {
    fn wire_size(&self) -> usize {
        4
    }
}

impl WireSized for u64 {
    fn wire_size(&self) -> usize {
        8
    }
}

impl WireSized for i64 {
    fn wire_size(&self) -> usize {
        8
    }
}

impl WireSized for f64 {
    fn wire_size(&self) -> usize {
        8
    }
}

impl WireSized for String {
    fn wire_size(&self) -> usize {
        8 + self.len()
    }
}

impl<A: WireSized, B: WireSized> WireSized for (A, B) {
    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size()
    }
}

impl<T: WireSized> WireSized for Option<T> {
    fn wire_size(&self) -> usize {
        1 + self.as_ref().map_or(0, WireSized::wire_size)
    }
}

impl<T: WireSized> WireSized for Vec<T> {
    fn wire_size(&self) -> usize {
        8 + self.iter().map(WireSized::wire_size).sum::<usize>()
    }
}
