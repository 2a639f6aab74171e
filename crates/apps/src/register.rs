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
//! — the audited traffic runs in `tests/apps_scenarios.rs` check them
//! with the linearizability checker).

use serde::{Deserialize, Serialize};
use vi_core::vi::{VirtualAutomaton, VirtualInput, VnCtx};
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

#[cfg(test)]
mod tests {
    use super::*;
    use vi_core::vi::{ClientApp, VirtualInput, VnLayout, World, WorldConfig};
    use vi_radio::geometry::Point;
    use vi_radio::NodeId;
    use vi_radio::RadioConfig;

    /// Writes tags `1..=writes` (value `1000 + tag`), each until it is
    /// acked; with `writes == 0` it reads every other round instead.
    #[derive(Clone, Default)]
    struct TestClient {
        writes: u64,
        acks: Vec<u64>,
        reads: Vec<(u64, u64)>,
    }

    impl ClientApp<RegMsg> for TestClient {
        fn on_virtual_round(
            &mut self,
            vr: u64,
            _: Point,
            prev: &VirtualInput<RegMsg>,
        ) -> Option<RegMsg> {
            for m in &prev.messages {
                match *m {
                    RegMsg::Ack { tag } if tag == self.acks.len() as u64 + 1 => self.acks.push(tag),
                    RegMsg::Value { tag, value, .. } => self.reads.push((tag, value)),
                    _ => {}
                }
            }
            let tag = self.acks.len() as u64 + 1;
            if self.writes == 0 {
                return vr.is_multiple_of(2).then_some(RegMsg::Read { nonce: vr });
            }
            (tag <= self.writes).then_some(RegMsg::Write {
                tag,
                value: 1000 + tag,
            })
        }
    }

    /// One virtual node, a writer of 3 tags, a reader and an emulator,
    /// run for 30 virtual rounds; returns the writer's and reader's logs.
    fn register_run() -> (TestClient, TestClient) {
        let layout = VnLayout::new(vec![Point::new(50.0, 50.0)], 2.5);
        let mut world = World::new(WorldConfig {
            radio: RadioConfig::reliable(10.0, 20.0),
            layout,
            automaton: RegisterVn,
            seed: 13,
            record_trace: false,
        });
        let mut add = |at: Point, writes: u64| {
            let client = TestClient {
                writes,
                ..TestClient::default()
            };
            world.add_device(Box::new(at), Some(Box::new(client)))
        };
        let writer = add(Point::new(50.4, 50.0), 3);
        let reader = add(Point::new(49.6, 50.0), 0);
        world.add_device(Box::new(Point::new(50.0, 50.6)), None);
        world.run_virtual_rounds(30);
        let log = |id: NodeId| world.device(id).client::<TestClient>().unwrap().clone();
        (log(writer), log(reader))
    }

    #[test]
    fn writes_are_acked_and_read_back() {
        let (writer, reader) = register_run();
        assert_eq!(
            writer.acks,
            vec![1, 2, 3],
            "all writes acknowledged in order"
        );
        assert!(!reader.reads.is_empty(), "reader got replies");
        assert_eq!(
            reader.reads.last(),
            Some(&(3, 1003)),
            "final read returns the last write"
        );
    }

    #[test]
    fn reads_are_tag_monotone() {
        let (_, reader) = register_run();
        let tags: Vec<u64> = reader.reads.iter().map(|&(t, _)| t).collect();
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
