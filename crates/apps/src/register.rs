//! A single-writer register hosted on a virtual node.
//!
//! The GeoQuorums motivation (reference \[13\] in the paper): an atomic object
//! anchored at a geographic focal point, implemented by whatever
//! devices are nearby. Here the focal point object is one virtual
//! node; the replication and fault tolerance come entirely from the
//! virtual-infrastructure layer, so the register logic itself is a
//! dozen lines — precisely the programming-simplification argument of
//! the paper's introduction.
//!
//! Consistency: writes carry monotonically increasing tags; the
//! virtual node adopts the largest tag seen. Readers observe a
//! *regular* register on the decided prefix: every read returns a
//! value no older than the last acknowledged write (tag-monotone reads
//! — asserted in the tests).

use serde::{Deserialize, Serialize};
use vi_core::vi::{ClientApp, VirtualAutomaton, VirtualInput, VirtualReception, VnCtx};
use vi_radio::geometry::Point;
use vi_radio::WireSized;

/// Messages of the register service.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RegMsg {
    /// Write request: store `value` under `tag`.
    Write {
        /// Writer's tag (monotone per writer).
        tag: u64,
        /// The value.
        value: u64,
    },
    /// The virtual node acknowledges the write with this tag.
    Ack {
        /// The acknowledged tag.
        tag: u64,
    },
    /// Read request, identified by a client nonce.
    Read {
        /// The reader's nonce.
        nonce: u64,
    },
    /// The virtual node's read reply.
    Value {
        /// Echoes the read nonce.
        nonce: u64,
        /// Tag of the returned value.
        tag: u64,
        /// The register contents.
        value: u64,
    },
}

impl WireSized for RegMsg {
    fn wire_size(&self) -> usize {
        match self {
            RegMsg::Write { .. } => 17,
            RegMsg::Ack { .. } => 9,
            RegMsg::Read { .. } => 9,
            RegMsg::Value { .. } => 25,
        }
    }
}

/// A queued reply awaiting the virtual node's broadcast slot.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PendingReply {
    /// Acknowledge a write tag.
    Ack(u64),
    /// Answer a read nonce.
    Value(u64),
}

/// The register automaton.
#[derive(Clone, Copy, Debug, Default)]
pub struct RegisterVn;

/// State of [`RegisterVn`].
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegisterState {
    /// Current tag (0 = never written).
    pub tag: u64,
    /// Current value.
    pub value: u64,
    /// Replies awaiting broadcast, FIFO.
    pub pending: Vec<PendingReply>,
}

impl VirtualAutomaton for RegisterVn {
    type Msg = RegMsg;
    type State = RegisterState;

    fn init(&self) -> RegisterState {
        RegisterState::default()
    }

    fn step(
        &self,
        state: &mut RegisterState,
        ctx: VnCtx,
        input: &VirtualInput<RegMsg>,
    ) -> Option<RegMsg> {
        for m in &input.messages {
            match m {
                RegMsg::Write { tag, value } => {
                    if *tag > state.tag {
                        state.tag = *tag;
                        state.value = *value;
                    }
                    state.pending.push(PendingReply::Ack(*tag));
                }
                RegMsg::Read { nonce } => state.pending.push(PendingReply::Value(*nonce)),
                RegMsg::Ack { .. } | RegMsg::Value { .. } => {}
            }
        }
        if ctx.next_scheduled && !state.pending.is_empty() {
            return Some(match state.pending.remove(0) {
                PendingReply::Ack(tag) => RegMsg::Ack { tag },
                PendingReply::Value(nonce) => RegMsg::Value {
                    nonce,
                    tag: state.tag,
                    value: state.value,
                },
            });
        }
        None
    }
}

/// A single writer: issues `Write(tag, base + tag)` and advances the
/// tag once the matching ack arrives (retrying meanwhile).
pub struct WriterClient {
    base: u64,
    tag: u64,
    acked: u64,
    writes_total: u64,
    /// Tags acknowledged so far, in arrival order.
    pub ack_log: Vec<u64>,
}

impl WriterClient {
    /// Creates a writer producing values `base + tag`, issuing
    /// `writes_total` writes in total.
    pub fn new(base: u64, writes_total: u64) -> Self {
        WriterClient {
            base,
            tag: 1,
            acked: 0,
            writes_total,
            ack_log: Vec::new(),
        }
    }
}

impl ClientApp<RegMsg> for WriterClient {
    fn on_virtual_round(
        &mut self,
        _vr: u64,
        _pos: Point,
        prev: &VirtualReception<RegMsg>,
    ) -> Option<RegMsg> {
        for m in &prev.messages {
            if let RegMsg::Ack { tag } = m {
                if *tag == self.tag && self.acked < self.tag {
                    self.acked = self.tag;
                    self.ack_log.push(*tag);
                    self.tag += 1;
                }
            }
        }
        (self.tag <= self.writes_total).then_some(RegMsg::Write {
            tag: self.tag,
            value: self.base + self.tag,
        })
    }
}

/// A reader: issues `Read` every `period` rounds and logs the replies.
pub struct ReaderClient {
    period: u64,
    next_nonce: u64,
    /// `(tag, value)` pairs observed, in arrival order.
    pub read_log: Vec<(u64, u64)>,
}

impl ReaderClient {
    /// Creates a reader.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(period: u64) -> Self {
        assert!(period > 0, "period must be positive");
        ReaderClient {
            period,
            next_nonce: 1,
            read_log: Vec::new(),
        }
    }
}

impl ClientApp<RegMsg> for ReaderClient {
    fn on_virtual_round(
        &mut self,
        vr: u64,
        _pos: Point,
        prev: &VirtualReception<RegMsg>,
    ) -> Option<RegMsg> {
        for m in &prev.messages {
            if let RegMsg::Value { tag, value, .. } = m {
                self.read_log.push((*tag, *value));
            }
        }
        (vr.is_multiple_of(self.period)).then(|| {
            let nonce = self.next_nonce;
            self.next_nonce += 1;
            RegMsg::Read { nonce }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_core::vi::{VnLayout, World, WorldConfig};
    use vi_radio::mobility::Static;
    use vi_radio::RadioConfig;

    fn register_world() -> (World<RegisterVn>, vi_radio::NodeId, vi_radio::NodeId) {
        let layout = VnLayout::new(vec![Point::new(50.0, 50.0)], 2.5);
        let mut world = World::new(WorldConfig {
            radio: RadioConfig::reliable(10.0, 20.0),
            layout,
            automaton: RegisterVn,
            seed: 13,
            record_trace: false,
        });
        let writer = world.add_device(
            Box::new(Static::new(Point::new(50.4, 50.0))),
            Some(Box::new(WriterClient::new(1000, 3))),
        );
        let reader = world.add_device(
            Box::new(Static::new(Point::new(49.6, 50.0))),
            Some(Box::new(ReaderClient::new(2))),
        );
        world.add_device(Box::new(Static::new(Point::new(50.0, 50.6))), None);
        (world, writer, reader)
    }

    #[test]
    fn writes_are_acked_and_read_back() {
        let (mut world, writer, reader) = register_world();
        world.run_virtual_rounds(30);
        let w: &WriterClient = world.device(writer).client::<WriterClient>().unwrap();
        assert_eq!(w.ack_log, vec![1, 2, 3], "all writes acknowledged in order");
        let r: &ReaderClient = world.device(reader).client::<ReaderClient>().unwrap();
        assert!(!r.read_log.is_empty(), "reader got replies");
        assert_eq!(
            r.read_log.last(),
            Some(&(3, 1003)),
            "final read returns the last write"
        );
    }

    #[test]
    fn reads_are_tag_monotone() {
        let (mut world, _, reader) = register_world();
        world.run_virtual_rounds(30);
        let r: &ReaderClient = world.device(reader).client::<ReaderClient>().unwrap();
        let tags: Vec<u64> = r.read_log.iter().map(|&(t, _)| t).collect();
        assert!(
            tags.windows(2).all(|w| w[0] <= w[1]),
            "regular register: tags never go backward: {tags:?}"
        );
    }

    #[test]
    fn stale_tag_does_not_overwrite() {
        let a = RegisterVn;
        let mut st = a.init();
        let ctx = VnCtx {
            vn: vi_core::vi::VnId(0),
            loc: Point::ORIGIN,
            vr: 1,
            scheduled: true,
            next_scheduled: false,
        };
        a.step(
            &mut st,
            ctx,
            &VirtualInput {
                messages: vec![RegMsg::Write { tag: 5, value: 50 }],
                collision: false,
            },
        );
        a.step(
            &mut st,
            ctx,
            &VirtualInput {
                messages: vec![RegMsg::Write { tag: 3, value: 30 }],
                collision: false,
            },
        );
        assert_eq!((st.tag, st.value), (5, 50), "stale write ignored");
    }
}
