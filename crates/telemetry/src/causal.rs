//! Deterministic causal tracing for the protocol layer.
//!
//! Every client operation and protocol broadcast gets a *trace span*
//! whose id is minted from a dedicated deterministic generator (a
//! SplitMix64 stream seeded from the run seed — deliberately *not* the
//! simulation RNG, so enabling tracing cannot perturb the simulated
//! randomness). Receptions become *causal edges* from the sender's
//! broadcast span to the receiver, and the CHA propose/decide chain
//! plus the traffic invoke/complete chain become parent links between
//! spans. The result is a per-run causal DAG that explains *why* a
//! decision happened, and per-app invoke→decide latency histograms
//! (the "decision timeline").
//!
//! The recorder is a plain struct inside a run's [`crate::Observers`]
//! state, fed only on the sequential control path, so the summary is
//! byte-identical at any worker count.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::histogram::LatencyHistogram;

/// Spans retained before further recordings only bump the drop
/// counter (bounds memory on metropolis-scale traced runs).
pub const MAX_SPANS: usize = 65_536;

/// Causal edges retained before further recordings only bump the drop
/// counter.
pub const MAX_EDGES: usize = 131_072;

/// What a causal span represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// A client operation (traffic invoke → complete).
    Op,
    /// A protocol broadcast (one transmit intent).
    Broadcast,
    /// A CHA proposal (Ballot phase of an instance).
    Propose,
    /// A CHA decision (Veto2 phase closing an instance).
    Decide,
}

/// One node in the causal DAG. Compact and numeric: no per-span
/// allocation beyond the containing `Vec` growth.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CausalSpan {
    /// Trace id (never 0; 0 means "no parent").
    pub id: u64,
    /// Parent span id, or 0 for a root.
    pub parent: u64,
    /// What the span represents.
    pub kind: SpanKind,
    /// Node (or client) index the span belongs to.
    pub node: u64,
    /// Engine round (CHA) or virtual round (traffic) of the event.
    pub round: u64,
    /// Kind-specific tag: CHA instance, traffic op id, or 0.
    pub tag: u64,
}

/// A reception: the sender's broadcast span reached `dst`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CausalEdge {
    /// The sender's broadcast span id this round (0 if the sender was
    /// not traced, e.g. an adversary-injected spurious frame).
    pub span: u64,
    /// Sending node index.
    pub src: u64,
    /// Receiving node index.
    pub dst: u64,
    /// Engine round of the reception.
    pub round: u64,
}

/// Decision-latency quantiles for one app (rounds, not wall-clock —
/// fully deterministic).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionStats {
    /// Completed decision samples.
    pub samples: u64,
    /// Median latency in rounds.
    pub p50: u64,
    /// 95th-percentile latency in rounds.
    pub p95: u64,
    /// 99th-percentile latency in rounds.
    pub p99: u64,
    /// Maximum latency in rounds.
    pub max: u64,
}

/// Everything one traced run recorded: the causal DAG (bounded, with
/// drop counters), the op→span link table for audit witnesses, and
/// per-app decision-latency quantiles. Fully deterministic, so it
/// participates in byte-identity comparisons via plain `PartialEq`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CausalSummary {
    /// All retained spans, in recording order.
    pub spans: Vec<CausalSpan>,
    /// All retained reception edges, in recording order.
    pub edges: Vec<CausalEdge>,
    /// Spans dropped past [`MAX_SPANS`].
    pub dropped_spans: u64,
    /// Edges dropped past [`MAX_EDGES`].
    pub dropped_edges: u64,
    /// Traffic op id → its op span id (links audit witnesses to the
    /// causal DAG).
    pub op_spans: BTreeMap<u64, u64>,
    /// Per-app invoke→decide latency quantiles, in rounds.
    pub decision: BTreeMap<String, DecisionStats>,
}

impl CausalSummary {
    /// Looks up a span by id (linear; summaries are bounded).
    pub fn span(&self, id: u64) -> Option<&CausalSpan> {
        self.spans.iter().find(|s| s.id == id)
    }
}

/// SplitMix64 trace-id generator. Seeded from the run seed but
/// entirely separate from the simulation RNG stream: minting ids
/// cannot perturb the simulated randomness. Never yields 0 (0 is the
/// "no id / no parent" sentinel).
#[derive(Clone, Debug)]
pub struct TraceIdGen {
    state: u64,
}

impl TraceIdGen {
    /// A generator for the given run seed.
    pub(crate) fn new(seed: u64) -> Self {
        // Salt so trace ids differ from any raw-seed-derived stream.
        TraceIdGen {
            state: seed ^ 0x7ace_1d5e_ed0f_f1ce,
        }
    }

    /// The next trace id; never 0.
    pub fn next_id(&mut self) -> u64 {
        loop {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            if z != 0 {
                return z;
            }
        }
    }
}

/// The causal recorder of one run: spans, reception edges and decision
/// timelines, bounded by [`MAX_SPANS`] / [`MAX_EDGES`].
#[derive(Debug)]
pub struct CausalRecorder {
    ids: TraceIdGen,
    round: u64,
    spans: Vec<CausalSpan>,
    edges: Vec<CausalEdge>,
    dropped_spans: u64,
    dropped_edges: u64,
    /// op id → (span id, invoke virtual round).
    open_ops: BTreeMap<u64, (u64, u64)>,
    /// op id → span id, kept after completion for audit linking.
    op_spans: BTreeMap<u64, u64>,
    /// node → (propose span id, propose round).
    last_propose: BTreeMap<u64, (u64, u64)>,
    /// node → last decide span id (the prev-chain anchor).
    last_decide: BTreeMap<u64, u64>,
    /// node → broadcast span id minted this round (reset per round).
    round_tx: BTreeMap<u64, u64>,
    /// app name → invoke→decide latency histogram (rounds).
    decision: BTreeMap<String, LatencyHistogram>,
}

impl CausalRecorder {
    /// A recorder whose trace-id stream derives from `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        CausalRecorder {
            ids: TraceIdGen::new(seed),
            round: 0,
            spans: Vec::new(),
            edges: Vec::new(),
            dropped_spans: 0,
            dropped_edges: 0,
            open_ops: BTreeMap::new(),
            op_spans: BTreeMap::new(),
            last_propose: BTreeMap::new(),
            last_decide: BTreeMap::new(),
            round_tx: BTreeMap::new(),
            decision: BTreeMap::new(),
        }
    }

    fn push_span(&mut self, span: CausalSpan) {
        if self.spans.len() >= MAX_SPANS {
            self.dropped_spans += 1;
        } else {
            self.spans.push(span);
        }
    }

    /// Marks the start of engine round `round`; clears the per-round
    /// broadcast-span table.
    pub(crate) fn begin_round(&mut self, round: u64) {
        self.round = round;
        self.round_tx.clear();
    }

    /// Records a broadcast by `node` this round (receptions reference
    /// its span via [`CausalRecorder::reception`]).
    pub fn broadcast(&mut self, node: u64) {
        let id = self.ids.next_id();
        let parent = self.last_propose.get(&node).map_or(0, |&(span, _)| span);
        self.push_span(CausalSpan {
            id,
            parent,
            kind: SpanKind::Broadcast,
            node,
            round: self.round,
            tag: 0,
        });
        self.round_tx.insert(node, id);
    }

    /// Records that `dst` received `src`'s broadcast this round. The
    /// edge carries the sender's broadcast span id of this round (0 if
    /// the sender did not broadcast under tracing, e.g. a spurious
    /// frame).
    pub fn reception(&mut self, src: u64, dst: u64) {
        if self.edges.len() >= MAX_EDGES {
            self.dropped_edges += 1;
        } else {
            self.edges.push(CausalEdge {
                span: self.round_tx.get(&src).copied().unwrap_or(0),
                src,
                dst,
                round: self.round,
            });
        }
    }

    /// Records a client op invocation (traffic layer; `round` is the
    /// virtual round of admission).
    pub fn invoke(&mut self, op: u64, client: u64, round: u64) {
        let id = self.ids.next_id();
        self.push_span(CausalSpan {
            id,
            parent: 0,
            kind: SpanKind::Op,
            node: client,
            round,
            tag: op,
        });
        self.open_ops.insert(op, (id, round));
        self.op_spans.insert(op, id);
    }

    /// Records a client op completion at virtual round `round` and
    /// feeds the invoke→complete latency into `app`'s decision
    /// timeline.
    pub fn complete(&mut self, app: &str, op: u64, round: u64) {
        if let Some((_, invoked)) = self.open_ops.remove(&op) {
            let latency = round.saturating_sub(invoked);
            self.decision
                .entry(app.to_string())
                .or_default()
                .record(latency);
        }
    }

    /// Records a CHA proposal by `node` for `instance` this round.
    /// Its parent is the node's previous decide span (the prev-chain).
    pub fn propose(&mut self, node: u64, instance: u64) {
        let id = self.ids.next_id();
        let parent = self.last_decide.get(&node).copied().unwrap_or(0);
        self.push_span(CausalSpan {
            id,
            parent,
            kind: SpanKind::Propose,
            node,
            round: self.round,
            tag: instance,
        });
        self.last_propose.insert(node, (id, self.round));
    }

    /// Records a CHA decision by `node` closing `instance` this
    /// round; its parent is the node's propose span, and the
    /// propose→decide distance feeds the `cha` decision timeline.
    pub fn decide(&mut self, node: u64, instance: u64) {
        let id = self.ids.next_id();
        let (parent, proposed) = self.last_propose.get(&node).copied().unwrap_or((0, 0));
        self.push_span(CausalSpan {
            id,
            parent,
            kind: SpanKind::Decide,
            node,
            round: self.round,
            tag: instance,
        });
        self.last_decide.insert(node, id);
        if parent != 0 {
            let latency = self.round.saturating_sub(proposed);
            self.decision
                .entry("cha".to_string())
                .or_default()
                .record(latency);
        }
    }

    /// Snapshots the recording into a serializable summary.
    pub(crate) fn summary(&self) -> CausalSummary {
        let decision = self
            .decision
            .iter()
            .map(|(app, h)| {
                (
                    app.clone(),
                    DecisionStats {
                        samples: h.count(),
                        p50: h.p50(),
                        p95: h.p95(),
                        p99: h.p99(),
                        max: h.max(),
                    },
                )
            })
            .collect();
        CausalSummary {
            spans: self.spans.clone(),
            edges: self.edges.clone(),
            dropped_spans: self.dropped_spans,
            dropped_edges: self.dropped_edges,
            op_spans: self.op_spans.clone(),
            decision,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Observers;

    #[test]
    fn trace_ids_are_deterministic_nonzero_and_distinct() {
        let mut a = TraceIdGen::new(7);
        let mut b = TraceIdGen::new(7);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..10_000 {
            let id = a.next_id();
            assert_eq!(id, b.next_id(), "same seed, same stream");
            assert_ne!(id, 0, "0 is the no-id sentinel");
            assert!(seen.insert(id), "ids repeat within a short stream");
        }
        let mut c = TraceIdGen::new(8);
        assert_ne!(a.next_id(), c.next_id(), "different seeds diverge");
    }

    /// A run with no causal part records nothing, on a null handle or
    /// on a live one.
    #[test]
    fn disabled_recorder_is_inert() {
        for obs in [Observers::default(), Observers::new(false)] {
            obs.begin_round(1);
            obs.causal(|_| panic!("no causal part to reach"));
            assert!(obs.causal_summary().is_none());
        }
    }

    #[test]
    fn propose_decide_chain_links_parents_and_times_decisions() {
        let mut r = CausalRecorder::new(3);
        r.begin_round(0);
        r.propose(0, 1);
        r.broadcast(0);
        r.begin_round(2);
        r.decide(0, 1);
        r.begin_round(3);
        r.propose(0, 2);
        let s = r.summary();
        assert_eq!(s.spans.len(), 4);
        let propose1 = s.spans[0];
        let tx = s.spans[1];
        let decide1 = s.spans[2];
        let propose2 = s.spans[3];
        assert_eq!(propose1.kind, SpanKind::Propose);
        assert_eq!(propose1.parent, 0, "first proposal is a root");
        assert_eq!(tx.parent, propose1.id, "broadcast hangs off the proposal");
        assert_eq!(decide1.parent, propose1.id, "decide closes the proposal");
        assert_eq!(
            propose2.parent, decide1.id,
            "prev-chain: next proposal hangs off the decide"
        );
        let cha = s.decision.get("cha").expect("cha timeline");
        assert_eq!(cha.samples, 1);
        assert_eq!(cha.max, 2, "proposed at round 0, decided at round 2");
    }

    #[test]
    fn receptions_carry_the_senders_round_span() {
        let mut r = CausalRecorder::new(5);
        r.begin_round(4);
        r.broadcast(2);
        r.reception(2, 0);
        r.reception(9, 0); // untraced sender: span id 0
        r.begin_round(5);
        r.reception(2, 1); // stale: node 2 did not broadcast this round
        let s = r.summary();
        assert_eq!(s.edges.len(), 3);
        assert_eq!(s.edges[0].span, s.spans[0].id);
        assert_eq!(s.edges[0].round, 4);
        assert_eq!(s.edges[1].span, 0);
        assert_eq!(s.edges[2].span, 0, "round_tx resets every round");
    }

    #[test]
    fn op_lifecycle_feeds_per_app_decision_timelines() {
        let mut r = CausalRecorder::new(11);
        r.invoke(100, 0, 2);
        r.invoke(101, 1, 2);
        r.complete("register", 100, 5);
        r.complete("register", 101, 2);
        r.complete("register", 999, 9); // unknown op: ignored
        let s = r.summary();
        let reg = s.decision.get("register").expect("register timeline");
        assert_eq!(reg.samples, 2);
        assert_eq!(reg.max, 3);
        assert_eq!(s.op_spans.len(), 2, "op links survive completion");
        assert_eq!(
            s.op_spans.get(&100),
            Some(&s.spans[0].id),
            "op 100 links to its invoke span"
        );
    }

    #[test]
    fn span_and_edge_caps_count_drops_instead_of_growing() {
        let mut r = CausalRecorder::new(1);
        r.begin_round(0);
        for node in 0..(MAX_SPANS as u64 + 10) {
            r.broadcast(node);
        }
        for dst in 0..(MAX_EDGES as u64 + 10) {
            r.reception(0, dst);
        }
        let s = r.summary();
        assert_eq!(s.spans.len(), MAX_SPANS);
        assert_eq!(s.dropped_spans, 10);
        assert_eq!(s.edges.len(), MAX_EDGES);
        assert_eq!(s.dropped_edges, 10);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let mut r = CausalRecorder::new(2);
        r.begin_round(0);
        r.propose(0, 1);
        r.broadcast(0);
        r.reception(0, 1);
        r.begin_round(2);
        r.decide(0, 1);
        r.invoke(7, 1, 0);
        r.complete("mutex", 7, 4);
        let s = r.summary();
        let json = serde_json::to_string(&s).unwrap();
        let back: CausalSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert!(s.span(s.spans[0].id).is_some());
        assert!(s.span(0).is_none());
    }
}
