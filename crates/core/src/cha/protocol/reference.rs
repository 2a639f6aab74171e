//! The tree-backed CHAP state — `ChaProtocol` as it was before the
//! instance window — kept as the test-only reference model the window
//! is held against: two `BTreeMap`s, the derived serde form (the
//! join-transfer bytes the window's hand-written form must reproduce),
//! histories through [`calculate_history`], and Section 3.5's fold
//! spelled as its specification — read the current history instance by
//! instance, then garbage-collect.

use crate::cha::history::{calculate_history, Ballot, Color, History};
use crate::cha::protocol::ChaOutput;
use serde::Serialize;
use std::collections::BTreeMap;

#[derive(Clone, Serialize)]
pub(super) struct TreeProtocol<V> {
    pub(super) instance: u64,
    pub(super) prev_instance: u64,
    pub(super) floor: u64,
    pub(super) status: BTreeMap<u64, Color>,
    pub(super) ballots: BTreeMap<u64, Ballot<V>>,
}

impl<V: Clone + Ord> TreeProtocol<V> {
    pub(super) fn from_checkpoint(checkpoint: u64, next_instance: u64) -> Self {
        TreeProtocol {
            instance: next_instance,
            prev_instance: checkpoint,
            floor: checkpoint,
            status: BTreeMap::new(),
            ballots: BTreeMap::new(),
        }
    }

    pub(super) fn resident_entries(&self) -> usize {
        self.status.len() + self.ballots.len()
    }

    fn color(&self) -> Color {
        self.status[&self.instance]
    }

    pub(super) fn begin_instance(&mut self, proposal: V) -> Ballot<V> {
        self.instance += 1;
        self.status.insert(self.instance, Color::Green);
        Ballot::new(proposal, self.prev_instance)
    }

    pub(super) fn on_ballot_phase(&mut self, received: &[Ballot<V>], collision: bool) {
        if received.is_empty() || collision {
            self.status.insert(self.instance, Color::Red);
        } else {
            let adopted = received.iter().min().expect("nonempty").clone();
            self.ballots.insert(self.instance, adopted);
        }
    }

    pub(super) fn on_veto1_phase(&mut self, veto_heard: bool, collision: bool) {
        if veto_heard || collision {
            let downgraded = self.color().min(Color::Orange);
            self.status.insert(self.instance, downgraded);
        }
    }

    pub(super) fn on_veto2_phase(&mut self, veto_heard: bool, collision: bool) -> ChaOutput<V> {
        if veto_heard || collision {
            let downgraded = self.color().min(Color::Yellow);
            self.status.insert(self.instance, downgraded);
        }
        let color = self.color();
        if color.is_good() {
            self.prev_instance = self.instance;
        }
        ChaOutput {
            instance: self.instance,
            history: (color == Color::Green).then(|| Box::new(self.current_history())),
            color,
        }
    }

    pub(super) fn current_history(&self) -> History<V> {
        calculate_history(self.instance, self.prev_instance, &self.ballots, self.floor)
    }

    fn garbage_collect(&mut self, checkpoint: u64) {
        self.floor = checkpoint;
        self.status = self.status.split_off(&(checkpoint + 1));
        self.ballots = self.ballots.split_off(&(checkpoint + 1));
    }

    pub(super) fn fold_decided(&mut self, upto: u64, mut apply: impl FnMut(u64, Option<&V>)) {
        let history = self.current_history();
        for k in self.floor + 1..=upto {
            apply(k, history.get(k));
        }
        self.garbage_collect(upto);
    }
}
