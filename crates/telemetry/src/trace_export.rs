//! Perfetto/Chrome trace-event export, as a monitor sink.
//!
//! [`TraceSink`] renders the monitor events it is given into the
//! Chrome trace-event JSON format (`{"traceEvents": [...]}`, complete
//! events and flow endpoints, microsecond units), which opens directly
//! in `ui.perfetto.dev`. `VI_TRACE=out.json` adds one to the
//! environment's sinks, which every sweep starts with (see
//! [`crate::monitor::env`]).
//!
//! * `pid` [`PID_SWEEP`], on the wall clock: one `scenario#seed` span
//!   per `Started` → `Finished` pair of a [`JobEvent`], and per sweep
//!   one `sweep-worker` span for each worker that ran a job, from its
//!   first `Started` to its last `Finished`; `tid` = worker index.
//! * `pid` [`PID_PROTO`], on a synthetic round clock (round `r` at
//!   `r·1000` µs): one span per span of a [`MonitorEvent::Causal`]
//!   summary and one flow pair per traced reception; `tid` = node.
//!
//! The sink keeps everything it has seen (past [`MAX_EVENTS`], events
//! are counted in the file's `truncated_events` instead), and every
//! flush rewrites the file with all of it.

use crate::causal::{CausalSummary, SpanKind};
use crate::monitor::{JobEvent, JobState, MonitorEvent, MonitorSink};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// `pid` for sweep-runner spans (workers and jobs).
pub const PID_SWEEP: u64 = 1;
/// `pid` for protocol-level causal spans and flows.
pub const PID_PROTO: u64 = 3;

/// Events one sink keeps; events past this are dropped (and counted).
pub const MAX_EVENTS: usize = 100_000;

/// Synthetic duration of one round on the [`PID_PROTO`] lane.
const ROUND_US: u64 = 1000;

/// Name of a worker's per-sweep span.
const WORKER: &str = "sweep-worker";

/// One Chrome trace event: a complete span (`ph:"X"`) or a flow
/// endpoint (`ph:"s"` / `ph:"f"`). Microsecond units, as the format
/// requires.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Span name (e.g. `"clique#3"`, `"sweep-worker"`).
    pub name: String,
    /// Category (e.g. `"sweep"`, `"protocol"`).
    pub cat: String,
    /// Event phase: `"X"` (complete span), `"s"` (flow start), or
    /// `"f"` (flow finish).
    pub ph: String,
    /// Start timestamp in µs.
    pub ts: u64,
    /// Duration in µs (0 for flow endpoints).
    pub dur: u64,
    /// Process lane ([`PID_SWEEP`] or [`PID_PROTO`]).
    pub pid: u64,
    /// Thread lane — the worker or node index.
    pub tid: u64,
    /// Flow id tying an `"s"` event to its `"f"` partner; 0 on
    /// complete spans (flow ids start at 1).
    pub id: u64,
}

impl TraceEvent {
    fn span(name: String, cat: &str, pid: u64, tid: u64, ts: u64, dur: u64) -> Self {
        TraceEvent {
            name,
            cat: cat.to_string(),
            ph: "X".to_string(),
            ts,
            dur,
            pid,
            tid,
            id: 0,
        }
    }

    fn worker(tid: u64, (start, end): (u64, u64)) -> Self {
        TraceEvent::span(WORKER.into(), "sweep", PID_SWEEP, tid, start, end - start)
    }
}

/// The file's top-level JSON object.
#[derive(Serialize, Deserialize)]
#[allow(non_snake_case)]
pub struct TraceFile {
    /// Every event (the field name is fixed by the trace format).
    pub traceEvents: Vec<TraceEvent>,
    /// Events dropped past the cap (viewers ignore the field): 0
    /// means the trace is complete.
    pub truncated_events: u64,
}

#[derive(Default)]
struct TraceState {
    events: Vec<TraceEvent>,
    truncated: u64,
    /// Start of every running job, by `(worker, "scenario#seed")`: the
    /// name keeps two sweeps sharing the sink (and worker indices)
    /// apart.
    jobs: BTreeMap<(u64, String), u64>,
    /// First start and last finish of each worker of the current sweep.
    workers: BTreeMap<u64, (u64, u64)>,
    /// The last flow id handed out.
    flows: u64,
}

impl TraceState {
    /// Keeps `ev` unless `cap` events are kept already; the first drop
    /// warns on stderr — a truncated trace is never a silent surprise.
    fn push(&mut self, ev: TraceEvent, cap: usize) {
        if self.events.len() < cap {
            self.events.push(ev);
        } else {
            if self.truncated == 0 {
                eprintln!("vi-telemetry: trace sink full ({cap} events); dropping the rest");
            }
            self.truncated += 1;
        }
    }
}

/// The Perfetto export: a [`MonitorSink`] turning sweep job events and
/// causal summaries into Chrome trace events.
pub struct TraceSink {
    path: String,
    epoch: Instant,
    cap: usize,
    state: Mutex<TraceState>,
}

impl TraceSink {
    /// A sink writing to `path`; writes an empty trace there at once,
    /// so an unwritable path fails here rather than at the first flush.
    pub fn create(path: &str) -> std::io::Result<Self> {
        let sink = TraceSink {
            path: path.to_string(),
            epoch: Instant::now(),
            cap: MAX_EVENTS,
            state: Mutex::default(),
        };
        sink.write(&sink.lock())?;
        Ok(sink)
    }

    /// Microseconds since the sink was created.
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Locks the state, recovering from poisoning: a thread panicking
    /// mid-emit must not take the events gathered so far down with it.
    fn lock(&self) -> MutexGuard<'_, TraceState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn job(&self, s: &mut TraceState, j: &JobEvent) {
        let (ts, name) = (self.now_us(), format!("{}#{}", j.scenario, j.seed));
        match j.state {
            // A sweep queues its jobs up front, job 0 first: the
            // previous sweep's workers are done.
            JobState::Queued if j.job == 0 => {
                for (tid, lane) in std::mem::take(&mut s.workers) {
                    s.push(TraceEvent::worker(tid, lane), self.cap);
                }
            }
            JobState::Queued => {}
            JobState::Started { worker } => {
                s.jobs.insert((worker, name), ts);
                s.workers.entry(worker).or_insert((ts, ts));
            }
            JobState::Finished { worker, .. } => {
                let start = s.jobs.remove(&(worker, name.clone())).unwrap_or(ts);
                s.workers.entry(worker).or_insert((start, ts)).1 = ts;
                let span = TraceEvent::span(name, "sweep", PID_SWEEP, worker, start, ts - start);
                s.push(span, self.cap);
            }
        }
    }

    fn causal(&self, s: &mut TraceState, c: &CausalSummary) {
        for span in &c.spans {
            let (name, cat) = match span.kind {
                SpanKind::Op => ("op", "traffic"),
                SpanKind::Broadcast => ("broadcast", "protocol"),
                SpanKind::Propose => ("propose", "cha"),
                SpanKind::Decide => ("decide", "cha"),
            };
            let ts = span.round * ROUND_US;
            let ev = TraceEvent::span(name.into(), cat, PID_PROTO, span.node, ts, ROUND_US / 2);
            s.push(ev, self.cap);
        }
        // One flow per traced reception, sender to receiver within its
        // round; per-edge ids keep Perfetto from chaining the arrows.
        for edge in c.edges.iter().filter(|e| e.span != 0) {
            s.flows += 1;
            let ts = edge.round * ROUND_US;
            for (ph, tid, ts) in [("s", edge.src, ts), ("f", edge.dst, ts + ROUND_US / 2)] {
                let mut end = TraceEvent::span("rx".into(), "protocol", PID_PROTO, tid, ts, 0);
                (end.ph, end.id) = (ph.into(), s.flows);
                s.push(end, self.cap);
            }
        }
    }

    /// Writes every kept event, plus the current sweep's worker spans
    /// so far.
    fn write(&self, s: &TraceState) -> std::io::Result<()> {
        let open = s
            .workers
            .iter()
            .map(|(&tid, &lane)| TraceEvent::worker(tid, lane));
        let file = TraceFile {
            traceEvents: s.events.iter().cloned().chain(open).collect(),
            truncated_events: s.truncated,
        };
        let json = serde_json::to_string(&file).map_err(std::io::Error::other)?;
        std::fs::write(&self.path, json)
    }
}

impl MonitorSink for TraceSink {
    fn emit(&self, event: &MonitorEvent) {
        let mut s = self.lock();
        match event {
            MonitorEvent::Job(j) => self.job(&mut s, j),
            MonitorEvent::Causal(c) => self.causal(&mut s, c),
            MonitorEvent::Snapshot(_) => {}
        }
    }

    /// Rewrites the file with everything seen so far.
    fn flush(&self) {
        if let Err(e) = self.write(&self.lock()) {
            eprintln!("vi-telemetry: failed to write trace to {}: {e}", self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CausalRecorder;

    fn sink(name: &str) -> (TraceSink, String) {
        let dir = std::env::temp_dir().join("vi_telemetry_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name).to_str().unwrap().to_string();
        (TraceSink::create(&path).unwrap(), path)
    }

    fn read(path: &str) -> TraceFile {
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn job(job: u64, seed: u64, state: JobState) -> MonitorEvent {
        let scenario = "clique".to_string();
        MonitorEvent::Job(JobEvent {
            job,
            scenario,
            seed,
            state,
        })
    }

    /// `n` broadcasts by node 1 in round 2, each heard by node 2.
    fn dag(n: u64) -> MonitorEvent {
        let mut r = CausalRecorder::new(1);
        r.begin_round(2);
        for _ in 0..n {
            r.broadcast(1);
            r.reception(1, 2);
        }
        MonitorEvent::Causal(Box::new(r.summary()))
    }

    #[test]
    fn collector_records_flushes_and_round_trips() {
        let (sink, path) = sink("round_trip.json");
        assert!(read(&path).traceEvents.is_empty(), "created empty");
        let (worker, digest) = (3, 1);
        sink.emit(&job(0, 7, JobState::Queued));
        sink.emit(&job(0, 7, JobState::Started { worker }));
        sink.emit(&job(0, 7, JobState::Finished { worker, digest }));
        sink.emit(&dag(1));
        sink.flush();
        let back = read(&path);
        assert_eq!(back.truncated_events, 0, "nothing was dropped");
        let ev = &back.traceEvents;
        let names: Vec<(&str, &str)> = ev.iter().map(|e| (&*e.name, &*e.ph)).collect();
        let expect = [
            ("clique#7", "X"),
            ("broadcast", "X"),
            ("rx", "s"),
            ("rx", "f"),
        ];
        assert_eq!(names[..4], expect);
        assert_eq!(names[4], ("sweep-worker", "X"), "the open worker span");
        assert_eq!((ev[0].pid, ev[0].tid, ev[0].id), (PID_SWEEP, 3, 0));
        assert_eq!((ev[4].pid, ev[4].tid, ev[4].ts), (PID_SWEEP, 3, ev[0].ts));
        assert_eq!((ev[2].pid, ev[2].tid, ev[2].ts), (PID_PROTO, 1, 2000));
        assert_eq!((ev[3].tid, ev[3].ts, ev[3].id), (2, 2500, ev[2].id));

        // A flush keeps what it wrote: the next sweep closes the first
        // one's worker span, a second DAG lands beside the first, and
        // flow ids never repeat.
        sink.emit(&job(0, 8, JobState::Queued));
        sink.emit(&dag(1));
        sink.flush();
        let again = read(&path).traceEvents;
        assert_eq!((again.len(), &*again[0].name), (8, "clique#7"));
        let flows: Vec<u64> = again.iter().filter(|e| e.ph == "s").map(|e| e.id).collect();
        assert_eq!(flows, [1, 2]);
    }

    #[test]
    fn event_cap_truncates_at_the_exact_boundary() {
        let (mut sink, path) = sink("cap.json");
        sink.cap = 5;
        sink.emit(&dag(4)); // 4 spans + 4 flow pairs = 12 events
        sink.flush();
        let back = read(&path);
        assert_eq!((back.traceEvents.len(), back.truncated_events), (5, 7));
        assert_eq!(back.traceEvents[4].ph, "s", "the first flow start fits");
        // The production cap behaves identically at its boundary.
        let ev = || TraceEvent::span("x".into(), "test", PID_SWEEP, 0, 0, 1);
        let mut s = TraceState {
            events: vec![ev(); MAX_EVENTS - 1],
            ..TraceState::default()
        };
        s.push(ev(), MAX_EVENTS);
        assert_eq!((s.events.len(), s.truncated), (MAX_EVENTS, 0));
        s.push(ev(), MAX_EVENTS);
        assert_eq!((s.events.len(), s.truncated), (MAX_EVENTS, 1));
    }

    /// A panic while holding the sink's lock must not poison the trace:
    /// recording and flushing go on with the pre-panic contents intact.
    #[test]
    fn poisoned_lock_recovers_with_contents_intact() {
        let (sink, path) = sink("poison.json");
        sink.emit(&dag(1));
        let poisoned = std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = sink.state.lock().unwrap();
                panic!("poison the trace lock");
            });
            holder.join().is_err()
        });
        assert!(poisoned && sink.state.lock().is_err(), "lock is poisoned");
        sink.emit(&dag(1));
        sink.flush();
        assert_eq!(read(&path).traceEvents.len(), 6, "both DAGs kept");
    }

    #[test]
    fn timestamps_are_monotone() {
        let (sink, _) = sink("clock.json");
        let a = sink.now_us();
        assert!(sink.now_us() >= a);
    }
}
