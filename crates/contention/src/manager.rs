//! The contention-manager abstraction (Property 3 of the paper).

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use vi_radio::geometry::Point;

/// A contention-manager registration token.
///
/// Slots are *not* protocol-visible identities: they play the role of
/// the transient, local state any backoff implementation keeps per
/// contender (the paper's model has no unique node identifiers, and no
/// protocol message ever carries a slot). Four bytes: a contender
/// holds one, and a city holds tens of thousands of contenders.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CmSlot(pub(crate) u32);

impl CmSlot {
    /// The slot of registration number `index`.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX` registrations.
    pub(crate) fn of(index: usize) -> Self {
        CmSlot(u32::try_from(index).expect("contention slots fit in u32"))
    }

    /// The underlying registration index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CmSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The manager's per-round advice to one contender.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Advice {
    /// Enabled to broadcast this round.
    Active,
    /// Must listen this round.
    Passive,
}

impl Advice {
    /// `true` if the advice is [`Advice::Active`].
    pub fn is_active(self) -> bool {
        matches!(self, Advice::Active)
    }
}

/// What a contender observed on the channel at the end of a round;
/// feedback that drives adaptive managers such as
/// [`BackoffCm`](crate::BackoffCm).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelFeedback {
    /// The contender broadcast and its detector reported no collision.
    TxSucceeded,
    /// The contender broadcast and its detector reported a collision.
    TxCollided,
    /// The contender listened and received a message cleanly.
    HeardOther,
    /// The contender listened and its detector reported a collision.
    HeardCollision,
    /// The contender listened and the channel was silent.
    Quiet,
}

impl ChannelFeedback {
    /// What a contender reports for a round in which it was advised
    /// `active` (so it broadcast), its detector reported `collision`,
    /// and it `heard` at least one message. A broadcaster's own
    /// message tells it nothing, and a collision outranks whatever
    /// else arrived.
    pub fn of(active: bool, collision: bool, heard: bool) -> Self {
        match (active, collision, heard) {
            (true, true, _) => ChannelFeedback::TxCollided,
            (true, false, _) => ChannelFeedback::TxSucceeded,
            (false, true, _) => ChannelFeedback::HeardCollision,
            (false, false, true) => ChannelFeedback::HeardOther,
            (false, false, false) => ChannelFeedback::Quiet,
        }
    }
}

/// Rolls a manager's contender lists into a new round: the round just
/// ended becomes `prev` — emptied when the new round is not
/// `consecutive`, since only the immediately preceding round's
/// contenders count — and `cur` starts empty. The two buffers trade
/// places and keep their capacity, so a steady stream of rounds never
/// reaches the allocator.
pub(crate) fn roll_contenders(prev: &mut Vec<CmSlot>, cur: &mut Vec<CmSlot>, consecutive: bool) {
    std::mem::swap(prev, cur);
    cur.clear();
    if !consecutive {
        prev.clear();
    }
}

/// A contention manager for one broadcast region (Property 3).
///
/// Contract, mirroring the paper:
///
/// 1. *(Eventual uniqueness)* eventually at most one contender is
///    advised `Active` per round;
/// 2. *(Eventual liveness)* if some correct contender contends in
///    every round, eventually some correct contender is advised
///    `Active` in every round;
/// 3. *(No spontaneous activation)* a contender is advised `Active` in
///    round `r` only if it contended in round `r` — guaranteed
///    structurally, since advice is only produced by
///    [`ContentionManager::contend`].
///
/// [`OracleCm`](crate::OracleCm) satisfies 1–2 exactly from its
/// stabilization round; [`BackoffCm`](crate::BackoffCm) satisfies them
/// empirically (with capture, violations become vanishingly rare).
pub trait ContentionManager {
    /// Registers a new contender and returns its slot.
    fn register(&mut self) -> CmSlot;

    /// Makes room for `additional` more registrations, for a caller
    /// that knows how many contenders will register: a manager that
    /// keeps state per contender sizes it once. Does nothing by
    /// default.
    fn reserve(&mut self, additional: usize) {
        let _ = additional;
    }

    /// Requests advice for `round`. Calling this is what it means to
    /// *contend* in `round`. `pos` is the contender's current location
    /// (used by regional managers; global managers ignore it).
    fn contend(&mut self, slot: CmSlot, round: u64, pos: Point) -> Advice;

    /// Reports what the contender observed at the end of `round`.
    /// Adaptive managers use this to adjust backoff; others ignore it.
    fn observe(&mut self, slot: CmSlot, round: u64, feedback: ChannelFeedback);
}

/// A shareable handle to a contention manager, for the co-located
/// processes of one region (the simulator is single-threaded, so
/// `Rc<RefCell<_>>` suffices and keeps executions deterministic).
pub struct SharedCm {
    inner: Rc<RefCell<dyn ContentionManager>>,
}

impl SharedCm {
    /// Wraps a manager for sharing.
    pub fn new<C: ContentionManager + 'static>(cm: C) -> Self {
        SharedCm {
            inner: Rc::new(RefCell::new(cm)),
        }
    }

    /// Registers a new contender.
    pub fn register(&self) -> CmSlot {
        self.inner.borrow_mut().register()
    }

    /// Makes room for `additional` more contenders (see
    /// [`ContentionManager::reserve`]).
    pub fn reserve(&self, additional: usize) {
        self.inner.borrow_mut().reserve(additional)
    }

    /// Requests advice for `round` (this is contending).
    pub fn contend(&self, slot: CmSlot, round: u64, pos: Point) -> Advice {
        self.inner.borrow_mut().contend(slot, round, pos)
    }

    /// Reports end-of-round channel feedback.
    pub fn observe(&self, slot: CmSlot, round: u64, feedback: ChannelFeedback) {
        self.inner.borrow_mut().observe(slot, round, feedback)
    }
}

impl Clone for SharedCm {
    fn clone(&self) -> Self {
        SharedCm {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl fmt::Debug for SharedCm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedCm").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AlwaysActive {
        slots: usize,
    }

    impl ContentionManager for AlwaysActive {
        fn register(&mut self) -> CmSlot {
            let s = CmSlot::of(self.slots);
            self.slots += 1;
            s
        }
        fn contend(&mut self, _slot: CmSlot, _round: u64, _pos: Point) -> Advice {
            Advice::Active
        }
        fn observe(&mut self, _slot: CmSlot, _round: u64, _feedback: ChannelFeedback) {}
    }

    #[test]
    fn shared_cm_is_shared_state() {
        let cm = SharedCm::new(AlwaysActive { slots: 0 });
        let cm2 = cm.clone();
        let a = cm.register();
        let b = cm2.register();
        assert_ne!(a, b, "registrations visible across clones");
        assert!(cm.contend(a, 0, Point::ORIGIN).is_active());
    }

    #[test]
    fn advice_helpers() {
        assert!(Advice::Active.is_active());
        assert!(!Advice::Passive.is_active());
    }

    #[test]
    fn feedback_for_every_active_collision_heard_case() {
        use ChannelFeedback::*;
        let cases = [
            // (active, collision, heard) → feedback
            ((true, false, false), TxSucceeded),
            ((true, false, true), TxSucceeded),
            ((true, true, false), TxCollided),
            ((true, true, true), TxCollided),
            ((false, false, false), Quiet),
            ((false, false, true), HeardOther),
            ((false, true, false), HeardCollision),
            ((false, true, true), HeardCollision),
        ];
        for ((active, collision, heard), want) in cases {
            let got = ChannelFeedback::of(active, collision, heard);
            assert_eq!(
                got, want,
                "active {active} collision {collision} heard {heard}"
            );
        }
    }

    #[test]
    fn slot_display() {
        assert_eq!(CmSlot(3).to_string(), "s3");
        assert_eq!(CmSlot(3).index(), 3);
    }
}
