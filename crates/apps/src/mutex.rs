//! Distributed mutual exclusion on a virtual node.
//!
//! The robot-coordination motivation (paper references \[4, 27\])
//! reduces to coordination primitives; the simplest is a lock. A
//! virtual node makes an ideal lock server: it is a single reliable
//! authority at a known location, so the service is a FIFO queue and
//! mutual exclusion follows from the virtual node's determinism —
//! replicas never disagree about who holds the lock, because the
//! holder is a function of the agreed history.
//!
//! Clients request the lock, hold it for a fixed number of virtual
//! rounds after the grant arrives, and release it. The tests assert
//! the safety property end-to-end: no two clients' holding intervals
//! ever overlap.

use serde::{Deserialize, Serialize};
use vi_core::vi::{ClientApp, VirtualAutomaton, VirtualInput, VirtualReception, VnCtx};
use vi_radio::geometry::Point;
use vi_radio::WireSized;

/// Messages of the lock service.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LockMsg {
    /// A client asks for the lock.
    Request {
        /// The requesting client's application-level id.
        client: u32,
    },
    /// The holder gives the lock back.
    Release {
        /// The releasing client.
        client: u32,
    },
    /// The virtual node grants the lock.
    Grant {
        /// The new holder.
        client: u32,
    },
}

impl LockMsg {
    /// The client a `Grant` names, if this is a grant (the response
    /// matcher load generators key completions on).
    pub fn granted_client(&self) -> Option<u32> {
        match self {
            LockMsg::Grant { client } => Some(*client),
            _ => None,
        }
    }
}

impl WireSized for LockMsg {
    fn wire_size(&self) -> usize {
        5
    }
}

/// The lock-server automaton.
#[derive(Clone, Copy, Debug, Default)]
pub struct LockVn;

/// State of [`LockVn`].
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LockState {
    /// The current holder, if any.
    pub holder: Option<u32>,
    /// Waiting clients, FIFO.
    pub queue: Vec<u32>,
    /// Complete grant history (client ids in grant order), for audits.
    pub grant_log: Vec<u32>,
}

impl VirtualAutomaton for LockVn {
    type Msg = LockMsg;
    type State = LockState;

    fn init(&self) -> LockState {
        LockState::default()
    }

    fn step(
        &self,
        state: &mut LockState,
        ctx: VnCtx,
        input: &VirtualInput<LockMsg>,
    ) -> Option<LockMsg> {
        for m in &input.messages {
            match m {
                LockMsg::Request { client } => {
                    let queued = state.queue.contains(client);
                    let holding = state.holder == Some(*client);
                    if !queued && !holding {
                        state.queue.push(*client);
                    }
                }
                LockMsg::Release { client } => {
                    if state.holder == Some(*client) {
                        state.holder = None;
                    }
                }
                LockMsg::Grant { .. } => {}
            }
        }
        // Grant to the head of the queue when free. The grant message
        // goes out in the next vn phase; the holder is committed *now*
        // (deterministically, as part of the agreed history), so
        // replicas can never disagree about ownership.
        if ctx.next_scheduled && state.holder.is_none() {
            if let Some(&next) = state.queue.first() {
                state.queue.remove(0);
                state.holder = Some(next);
                state.grant_log.push(next);
                return Some(LockMsg::Grant { client: next });
            }
        }
        None
    }
}

/// The client's protocol phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ClientPhase {
    /// Not holding; requesting (on stagger slots) until granted.
    Requesting,
    /// In the critical section until the given virtual round.
    Holding {
        /// First virtual round after the critical section.
        until: u64,
    },
    /// Retrying the release on stagger slots (a single release
    /// broadcast can be lost to a client-phase collision, which would
    /// wedge the lock forever — retries make release reliable).
    Releasing {
        /// Remaining retry budget.
        retries: u8,
    },
    /// All wanted acquisitions completed.
    Done,
}

/// A client that repeatedly acquires the lock, holds it for
/// `hold_for` virtual rounds, and releases it.
pub struct LockClient {
    id: u32,
    hold_for: u64,
    rounds_wanted: u64,
    phase: ClientPhase,
    /// Completed holding intervals as `(acquired_vr, released_vr)`.
    pub held: Vec<(u64, u64)>,
}

impl LockClient {
    /// Creates a client that keeps contending for the lock until it
    /// has completed `rounds_wanted` acquisitions.
    pub fn new(id: u32, hold_for: u64, rounds_wanted: u64) -> Self {
        LockClient {
            id,
            hold_for,
            rounds_wanted,
            phase: ClientPhase::Requesting,
            held: Vec::new(),
        }
    }

    /// Broadcasts collide if two clients speak in the same client
    /// phase; stagger by client id.
    fn my_slot(&self, vr: u64) -> bool {
        vr % 3 == u64::from(self.id % 3)
    }
}

impl ClientApp<LockMsg> for LockClient {
    fn on_virtual_round(
        &mut self,
        vr: u64,
        _pos: Point,
        prev: &VirtualReception<LockMsg>,
    ) -> Option<LockMsg> {
        match self.phase {
            ClientPhase::Requesting => {
                let granted = prev
                    .messages
                    .iter()
                    .any(|m| matches!(m, LockMsg::Grant { client } if *client == self.id));
                if granted {
                    self.phase = ClientPhase::Holding {
                        until: vr + self.hold_for,
                    };
                    return None;
                }
                self.my_slot(vr)
                    .then_some(LockMsg::Request { client: self.id })
            }
            ClientPhase::Holding { until } if vr >= until => {
                self.held.push((until - self.hold_for, vr));
                self.phase = ClientPhase::Releasing { retries: 3 };
                // First release attempt happens on the next stagger
                // slot (falls through below on later rounds).
                self.on_virtual_round(vr, _pos, prev)
            }
            ClientPhase::Holding { .. } => None, // in the critical section
            ClientPhase::Releasing { retries } => {
                if !self.my_slot(vr) {
                    return None;
                }
                let retries = retries - 1;
                self.phase = if retries == 0 {
                    if self.held.len() as u64 >= self.rounds_wanted {
                        ClientPhase::Done
                    } else {
                        ClientPhase::Requesting
                    }
                } else {
                    ClientPhase::Releasing { retries }
                };
                Some(LockMsg::Release { client: self.id })
            }
            ClientPhase::Done => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_core::vi::{VnId, VnLayout, World, WorldConfig};
    use vi_radio::mobility::Static;
    use vi_radio::{NodeId, RadioConfig};

    fn lock_world(clients: u32) -> (World<LockVn>, Vec<NodeId>) {
        let vn = Point::new(50.0, 50.0);
        let layout = VnLayout::new(vec![vn], 2.5);
        let mut world = World::new(WorldConfig {
            radio: RadioConfig::reliable(10.0, 20.0),
            layout,
            automaton: LockVn,
            seed: 9,
            record_trace: false,
        });
        world.add_device(Box::new(Static::new(Point::new(vn.x, vn.y - 0.6))), None);
        let ids = (0..clients)
            .map(|i| {
                world.add_device(
                    Box::new(Static::new(Point::new(
                        vn.x - 0.6 + 0.4 * i as f64,
                        vn.y + 0.3,
                    ))),
                    Some(Box::new(LockClient::new(i, 2, 2))),
                )
            })
            .collect();
        (world, ids)
    }

    #[test]
    fn mutual_exclusion_holds() {
        let (mut world, ids) = lock_world(3);
        world.run_virtual_rounds(60);
        // Collect completed holding intervals from every client.
        let mut intervals: Vec<(u32, u64, u64)> = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let c: &LockClient = world.device(id).client::<LockClient>().unwrap();
            assert!(
                !c.held.is_empty(),
                "client {i} never acquired the lock: starvation"
            );
            for &(a, r) in &c.held {
                intervals.push((i as u32, a, r));
            }
        }
        // No two clients' intervals overlap.
        for (i, &(ca, a1, r1)) in intervals.iter().enumerate() {
            for &(cb, a2, r2) in intervals.iter().skip(i + 1) {
                if ca == cb {
                    continue;
                }
                assert!(
                    r1 < a2 || r2 < a1,
                    "clients {ca} and {cb} overlapped: [{a1},{r1}] vs [{a2},{r2}]"
                );
            }
        }
    }

    #[test]
    fn grants_are_fifo_per_queue_order() {
        let (mut world, _) = lock_world(2);
        world.run_virtual_rounds(40);
        let (state, _) = world.vn_state(VnId(0)).expect("lock server alive");
        assert!(state.grant_log.len() >= 3, "several grants happened");
        // Consecutive grants never go to the client that still holds
        // the lock: every re-grant is separated by a release.
        for w in state.grant_log.windows(2) {
            assert!(
                w[0] != w[1],
                "double grant to client {} without a release between",
                w[0]
            );
        }
    }

    #[test]
    fn lock_automaton_dedupes_requests() {
        let a = LockVn;
        let mut st = a.init();
        let ctx = VnCtx {
            vn: VnId(0),
            loc: Point::ORIGIN,
            vr: 1,
            scheduled: true,
            next_scheduled: false,
        };
        let input = VirtualInput {
            messages: vec![
                LockMsg::Request { client: 1 },
                LockMsg::Request { client: 1 },
                LockMsg::Request { client: 2 },
            ],
            collision: false,
        };
        a.step(&mut st, ctx, &input);
        assert_eq!(st.queue, vec![1, 2]);
    }

    #[test]
    fn release_by_non_holder_is_ignored() {
        let a = LockVn;
        let mut st = LockState {
            holder: Some(7),
            queue: vec![],
            grant_log: vec![7],
        };
        let ctx = VnCtx {
            vn: VnId(0),
            loc: Point::ORIGIN,
            vr: 2,
            scheduled: true,
            next_scheduled: true,
        };
        let input = VirtualInput {
            messages: vec![LockMsg::Release { client: 3 }],
            collision: false,
        };
        let out = a.step(&mut st, ctx, &input);
        assert_eq!(st.holder, Some(7), "stranger cannot release");
        assert_eq!(out, None);
    }
}
