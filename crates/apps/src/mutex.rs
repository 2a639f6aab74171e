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
//! Clients request the lock and release it once the grant arrives
//! (vi-traffic's mutex client). The audited traffic run in
//! `tests/apps_scenarios.rs` asserts the safety property end-to-end:
//! no two clients' holding intervals ever overlap.

use serde::{Deserialize, Serialize};
use vi_core::vi::{VirtualAutomaton, VirtualInput, VnCtx};
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

#[cfg(test)]
mod tests {
    use super::*;
    use vi_core::vi::VnId;
    use vi_radio::geometry::Point;

    /// One scheduled step of `a` over `messages`.
    fn step(a: &LockVn, st: &mut LockState, messages: Vec<LockMsg>) -> Option<LockMsg> {
        let ctx = VnCtx {
            vn: VnId(0),
            loc: Point::ORIGIN,
            vr: 1,
            scheduled: true,
            next_scheduled: true,
        };
        let input = VirtualInput {
            messages,
            collision: false,
        };
        a.step(st, ctx, &input)
    }

    /// Two clients take turns: the holder asks again (a retransmit of
    /// its granted request), the other client asks, then the holder
    /// releases. The holder's request queues nothing, and every
    /// re-grant is separated by a release.
    #[test]
    fn grants_are_fifo_per_queue_order() {
        let a = LockVn;
        let mut st = a.init();
        let first = step(&a, &mut st, vec![LockMsg::Request { client: 1 }]);
        assert_eq!(first, Some(LockMsg::Grant { client: 1 }));
        for _ in 0..5 {
            let holder = st.holder.expect("held");
            let other = 3 - holder;
            let requests = vec![
                LockMsg::Request { client: holder },
                LockMsg::Request { client: other },
            ];
            let out = step(&a, &mut st, requests);
            assert_ne!(
                out,
                Some(LockMsg::Grant { client: other }),
                "the lock is held"
            );
            assert_eq!(st.queue, vec![other], "the holder's request queues nothing");
            let out = step(&a, &mut st, vec![LockMsg::Release { client: holder }]);
            assert_eq!(
                out,
                Some(LockMsg::Grant { client: other }),
                "FIFO hand-over"
            );
        }
        assert_eq!(st.grant_log, vec![1, 2, 1, 2, 1, 2]);
        for w in st.grant_log.windows(2) {
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
