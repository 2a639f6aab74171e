//! Live monitoring: periodic telemetry snapshots streamed to sinks.
//!
//! PRs 7–8 made runs explainable *after the fact*; this module adds
//! the streaming half. A [`Monitor`] rides in a run's
//! [`crate::Observers`] state and every K rounds packages the activity
//! since the previous sample into a [`TelemetrySnapshot`] — counter
//! deltas ([`Counters::delta`]), phase-histogram deltas
//! ([`crate::PhaseTimers::subtracting`]), and the in-flight traffic
//! picture ([`TrafficProgress`]) — then fans it out through the run's
//! [`SinkSet`], a value: a sweep carries its own sinks (see
//! `vi_scenario::SweepRunner::with_sinks`), which start as the sinks
//! the environment opened ([`env`](fn@env), read once per process):
//!
//! * [`JsonlSink`] — one JSON event per line, line-buffered so each
//!   snapshot is durable the moment it is sampled
//!   (`VI_MONITOR_LOG=out.jsonl`).
//! * [`RingSink`] — a bounded in-memory ring for programmatic
//!   inspection (tests, embedders).
//! * [`PrometheusExporter`] — a background `std::net::TcpListener`
//!   serving the text exposition format on `GET /metrics`
//!   (`VI_MONITOR_ADDR=127.0.0.1:9464`). The metric set is generated
//!   from [`Counters::rows`], so it can never drift from the counter
//!   registry.
//! * [`TraceSink`] — the Perfetto/Chrome trace export of sweep jobs
//!   and causal DAGs (`VI_TRACE=out.json`; module
//!   [`crate::trace_export`]).
//!
//! The PR 7 contract holds throughout: snapshots live on the
//! wall-clock side (sampling never feeds back into simulation state),
//! the counters *inside* them are byte-identical at any worker count
//! (they are read on the sequential path at deterministic round
//! boundaries), and a run without a monitor pays nothing beyond the
//! observer handle's one branch per hook.

use crate::causal::CausalSummary;
use crate::counters::Counters;
use crate::phases::{PhaseSummary, PhaseTimers};
use crate::trace_export::TraceSink;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, LineWriter, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

/// Default sampling period (rounds between snapshots) when monitoring
/// is requested without an explicit `VI_MONITOR_EVERY`.
pub const DEFAULT_EVERY: u64 = 64;

/// The in-flight traffic picture at a snapshot: cumulative totals plus
/// the live latency quantiles of every request completed so far.
/// Quantiles are 0 until the first completion (the histogram's empty
/// sentinel never leaks into exported snapshots).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficProgress {
    /// Requests issued so far.
    pub issued: u64,
    /// Requests completed so far.
    pub completed: u64,
    /// Requests that exceeded their deadline so far.
    pub timed_out: u64,
    /// Requests currently outstanding.
    pub in_flight: u64,
    /// Live median completion latency (virtual rounds).
    pub p50: u64,
    /// Live 95th-percentile completion latency (virtual rounds).
    pub p95: u64,
}

/// One periodic sample of a running scenario.
///
/// `counters_delta` is the deterministic activity since the previous
/// snapshot and `counters_total` the running total; merging the deltas
/// of a run in `seq` order reconstructs the final totals exactly (the
/// E21 experiment and the reconciliation proptest assert this).
/// `phases_delta` is wall-clock and therefore noise; everything else
/// is deterministic at any worker count.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Scenario name.
    pub scenario: String,
    /// Simulation seed.
    pub seed: u64,
    /// Snapshot sequence number within the run (1-based).
    pub seq: u64,
    /// The round at which the sample was taken.
    pub round: u64,
    /// Whether this is the run's final snapshot (emitted by
    /// [`crate::Observers::finish`] after the checker phase).
    pub last: bool,
    /// Deterministic counter activity since the previous snapshot.
    pub counters_delta: Counters,
    /// Deterministic running totals at `round`.
    pub counters_total: Counters,
    /// Wall-clock phase activity since the previous snapshot.
    pub phases_delta: PhaseSummary,
    /// In-flight traffic summary (traffic workloads only).
    pub traffic: Option<TrafficProgress>,
}

/// Sweep job lifecycle states, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// The job is in the sweep's work list.
    Queued,
    /// A worker picked the job up.
    Started {
        /// Index of the sweep worker running the job.
        worker: u64,
    },
    /// The job produced its outcome.
    Finished {
        /// Index of the sweep worker that ran the job.
        worker: u64,
        /// FNV-1a digest of the outcome's JSON serialization —
        /// deterministic for a fixed `(spec, seed)`, so digests can be
        /// compared across worker counts and across runs.
        digest: u64,
    },
}

/// One sweep-progress event. Workers interleave in wall-clock order,
/// but every event carries its deterministic `job` index (position in
/// the sweep's job list), so consumers that order by `(job, state)`
/// see the same sequence at any worker count (which `worker` takes a
/// job is a race, so that field is wall-clock-side).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobEvent {
    /// Index of the job in the sweep's job list.
    pub job: u64,
    /// Scenario name of the job.
    pub scenario: String,
    /// Seed of the job.
    pub seed: u64,
    /// Lifecycle state reached.
    pub state: JobState,
}

/// Anything a sink can receive.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum MonitorEvent {
    /// A periodic scenario sample (boxed: snapshots dwarf job
    /// events, and events are moved through sinks by reference).
    Snapshot(Box<TelemetrySnapshot>),
    /// A sweep job lifecycle transition.
    Job(JobEvent),
    /// A run's causal DAG, for sinks that render it (the
    /// [`TraceSink`] draws it as flow arrows).
    Causal(Box<CausalSummary>),
}

/// A streaming consumer of [`MonitorEvent`]s. Sinks are shared across
/// sweep workers, so they must be `Send + Sync`; `emit` must never
/// block the simulation for long (buffer, don't wait).
pub trait MonitorSink: Send + Sync {
    /// Receives one event.
    fn emit(&self, event: &MonitorEvent);
    /// Flushes buffered output (end of run / sweep).
    fn flush(&self) {}
}

/// An immutable, cheaply clonable set of sinks — the fan-out target a
/// [`Monitor`] holds for the duration of one run.
#[derive(Clone, Default)]
pub struct SinkSet {
    sinks: Arc<Vec<Arc<dyn MonitorSink>>>,
}

impl SinkSet {
    /// A set over the given sinks.
    pub fn new(sinks: Vec<Arc<dyn MonitorSink>>) -> Self {
        SinkSet {
            sinks: Arc::new(sinks),
        }
    }

    /// This set's sinks followed by `other`'s.
    pub fn and(&self, other: &SinkSet) -> Self {
        let sinks = self.sinks.iter().chain(other.sinks.iter());
        SinkSet::new(sinks.cloned().collect())
    }

    /// Whether the set has no sinks.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }

    /// Fans `event` out to every sink.
    pub fn emit(&self, event: &MonitorEvent) {
        for sink in self.sinks.iter() {
            sink.emit(event);
        }
    }

    /// Flushes every sink.
    pub fn flush(&self) {
        for sink in self.sinks.iter() {
            sink.flush();
        }
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// JSONL event log: one [`MonitorEvent`] as one JSON object per line.
/// The writer is line-buffered ([`LineWriter`]), so every line reaches
/// the OS as soon as it is complete — a crash loses at most the event
/// being written, never the log.
pub struct JsonlSink {
    out: Mutex<LineWriter<std::fs::File>>,
}

impl JsonlSink {
    /// Creates (truncates) the log file at `path`.
    pub fn create(path: &str) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink {
            out: Mutex::new(LineWriter::new(file)),
        })
    }
}

impl MonitorSink for JsonlSink {
    fn emit(&self, event: &MonitorEvent) {
        if let Ok(json) = serde_json::to_string(event) {
            let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
            let _ = writeln!(out, "{json}");
        }
    }

    fn flush(&self) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let _ = out.flush();
    }
}

/// Bounded in-memory ring of the most recent events, for programmatic
/// inspection. Past `cap`, the oldest events are evicted.
pub struct RingSink {
    cap: usize,
    buf: Mutex<VecDeque<MonitorEvent>>,
}

impl RingSink {
    /// A ring retaining at most `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        RingSink {
            cap: cap.max(1),
            buf: Mutex::new(VecDeque::new()),
        }
    }

    /// A copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<MonitorEvent> {
        let buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        buf.iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl MonitorSink for RingSink {
    fn emit(&self, event: &MonitorEvent) {
        let mut buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        if buf.len() >= self.cap {
            buf.pop_front();
        }
        buf.push_back(event.clone());
    }
}

/// The live state a [`PrometheusExporter`] renders: the latest sample
/// per `(scenario, seed)` plus sweep job tallies.
#[derive(Default)]
struct ExportState {
    /// Latest `(round, totals, traffic)` per scenario run.
    scenarios: BTreeMap<(String, u64), (u64, Counters, Option<TrafficProgress>)>,
    jobs_queued: u64,
    jobs_started: u64,
    jobs_finished: u64,
}

/// Prometheus text-format `/metrics` exporter on a background thread,
/// built on `std::net::TcpListener` only (no new dependencies). The
/// exporter is itself a [`MonitorSink`]: snapshots update its state,
/// and every `GET` renders the current state in the text exposition
/// format (version 0.0.4). Counter metric names are generated from
/// [`Counters::rows`], so the exposition can never drift from the
/// counter registry.
pub struct PrometheusExporter {
    state: Arc<Mutex<ExportState>>,
    addr: std::net::SocketAddr,
}

impl PrometheusExporter {
    /// Binds `addr` (e.g. `"127.0.0.1:9464"`, or port 0 for an
    /// ephemeral port — see [`PrometheusExporter::addr`]) and starts
    /// the accept loop on a detached background thread. The thread
    /// serves for the rest of the process; scrapes are cheap reads of
    /// shared state.
    pub fn bind(addr: &str) -> std::io::Result<Arc<Self>> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let exporter = Arc::new(PrometheusExporter {
            state: Arc::new(Mutex::new(ExportState::default())),
            addr,
        });
        let state = Arc::clone(&exporter.state);
        std::thread::Builder::new()
            .name("vi-monitor-exporter".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    let Ok(stream) = stream else { continue };
                    let _ = serve_one(stream, &state);
                }
            })?;
        Ok(exporter)
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Renders the current state as Prometheus text exposition.
    fn render(state: &ExportState) -> String {
        let mut out = String::new();
        let labels: Vec<String> = state
            .scenarios
            .keys()
            .map(|(scenario, seed)| {
                format!("scenario=\"{}\",seed=\"{seed}\"", escape_label(scenario))
            })
            .collect();
        let runs = || labels.iter().zip(state.scenarios.values());
        // Counter metrics, one family per Counters row. Families are
        // emitted even when no scenario reported yet, so a scrape
        // right after startup is still well-formed.
        let names: Vec<&'static str> = Counters::default()
            .rows()
            .iter()
            .map(|&(name, _)| name)
            .collect();
        for (i, name) in names.iter().enumerate() {
            out.push_str(&format!("# TYPE vi_{name} counter\n"));
            for (labels, (_, counters, _)) in runs() {
                let value = counters.rows()[i].1;
                out.push_str(&format!("vi_{name}{{{labels}}} {value}\n"));
            }
        }
        // Per-run gauges: current round and the traffic picture.
        out.push_str("# TYPE vi_round gauge\n");
        for (labels, (round, _, _)) in runs() {
            out.push_str(&format!("vi_round{{{labels}}} {round}\n"));
        }
        for (metric, pick) in [
            ("vi_traffic_issued", 0usize),
            ("vi_traffic_completed", 1),
            ("vi_traffic_timed_out", 2),
            ("vi_traffic_in_flight", 3),
            ("vi_traffic_p50_rounds", 4),
            ("vi_traffic_p95_rounds", 5),
        ] {
            out.push_str(&format!("# TYPE {metric} gauge\n"));
            for (labels, (_, _, traffic)) in runs() {
                let Some(t) = traffic else { continue };
                let value = [
                    t.issued,
                    t.completed,
                    t.timed_out,
                    t.in_flight,
                    t.p50,
                    t.p95,
                ][pick];
                out.push_str(&format!("{metric}{{{labels}}} {value}\n"));
            }
        }
        // Sweep progress gauges.
        out.push_str(&format!(
            "# TYPE vi_sweep_jobs_queued gauge\nvi_sweep_jobs_queued {}\n",
            state.jobs_queued
        ));
        out.push_str(&format!(
            "# TYPE vi_sweep_jobs_started gauge\nvi_sweep_jobs_started {}\n",
            state.jobs_started
        ));
        out.push_str(&format!(
            "# TYPE vi_sweep_jobs_finished gauge\nvi_sweep_jobs_finished {}\n",
            state.jobs_finished
        ));
        out
    }
}

impl MonitorSink for PrometheusExporter {
    fn emit(&self, event: &MonitorEvent) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        match event {
            MonitorEvent::Snapshot(s) => {
                state.scenarios.insert(
                    (s.scenario.clone(), s.seed),
                    (s.round, s.counters_total, s.traffic),
                );
            }
            MonitorEvent::Job(j) => match j.state {
                JobState::Queued => state.jobs_queued += 1,
                JobState::Started { .. } => state.jobs_started += 1,
                JobState::Finished { .. } => state.jobs_finished += 1,
            },
            MonitorEvent::Causal(_) => {}
        }
    }
}

/// A label value as text format 0.0.4 requires: `\`, `"` and a
/// newline escaped as `\\`, `\"` and `\n`.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Serves one HTTP exchange: reads the request line (any path is
/// answered with the metrics — the exporter serves nothing else),
/// writes an HTTP/1.0 response, closes.
fn serve_one(stream: TcpStream, state: &Mutex<ExportState>) -> std::io::Result<()> {
    stream.set_read_timeout(Some(std::time::Duration::from_secs(2)))?;
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain the remaining headers so the peer sees a clean exchange.
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let body = {
        let state = state.lock().unwrap_or_else(|e| e.into_inner());
        PrometheusExporter::render(&state)
    };
    let mut stream = reader.into_inner();
    write!(
        stream,
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )?;
    stream.flush()
}

/// Scrapes `GET /metrics` from an exporter at `addr` and returns the
/// response body — the client half used by `repro monitor` and the CI
/// smoke, built on `std::net::TcpStream` only.
pub fn scrape_metrics(addr: &str) -> std::io::Result<String> {
    let target = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "no address"))?;
    let mut stream = TcpStream::connect_timeout(&target, std::time::Duration::from_secs(2))?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(2)))?;
    write!(
        stream,
        "GET /metrics HTTP/1.0\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "malformed HTTP response",
        )),
    }
}

// ---------------------------------------------------------------------------
// The environment, read once
// ---------------------------------------------------------------------------

/// What the side-output environment asks for, read once per process
/// by [`env`](fn@env): opening its file sinks and binding its port must happen
/// once, and a run built anywhere must see the same sinks.
pub struct Env {
    /// The sinks the environment opened. Every sweep's sinks start as
    /// these, and a run outside a sweep samples into them.
    pub sinks: SinkSet,
    /// `VI_INCIDENT_DIR`: where incident bundles and minimized fuzz
    /// repros are written (unset: nowhere).
    pub incident_dir: Option<PathBuf>,
    /// The sampling period the environment asked for (0 = none).
    every: u64,
}

impl Env {
    /// The sampling period of a run whose tuning asks for `explicit`
    /// (0 = "not set on the tuning"): an explicit period wins;
    /// otherwise the environment's, when `VI_MONITOR_LOG` or
    /// `VI_MONITOR_ADDR` asked for sampling; else 0 (off).
    pub fn every(&self, explicit: u64) -> u64 {
        if explicit == 0 {
            self.every
        } else {
            explicit
        }
    }
}

/// The environment, read on first use (one `OnceLock` probe after
/// that, so the unmonitored path stays effectively free).
pub fn env() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(|| read_env(|key| std::env::var(key).ok()))
}

/// The one reader of the side-output environment, over a variable
/// lookup: `VI_MONITOR_LOG=out.jsonl` opens a [`JsonlSink`] and
/// `VI_MONITOR_ADDR=host:port` binds a [`PrometheusExporter`] — both
/// request snapshot sampling, at `VI_MONITOR_EVERY=K` rounds (default
/// [`DEFAULT_EVERY`]). `VI_TRACE=out.json` opens a [`TraceSink`] and
/// requests nothing: span export alone turns on neither the counters
/// nor the monitor. `VI_INCIDENT_DIR` names the incident directory.
/// Failures warn on stderr and leave that sink out rather than failing
/// the run.
fn read_env(var: impl Fn(&str) -> Option<String>) -> Env {
    let incident_dir = var("VI_INCIDENT_DIR").map(PathBuf::from);
    let var = |key: &str| var(key).filter(|v| !v.is_empty());
    let mut sinks: Vec<Arc<dyn MonitorSink>> = Vec::new();
    let mut requested = false;
    if let Some(path) = var("VI_MONITOR_LOG") {
        match JsonlSink::create(&path) {
            Ok(sink) => {
                sinks.push(Arc::new(sink));
                requested = true;
            }
            Err(e) => eprintln!("vi-monitor: cannot open {path}: {e}"),
        }
    }
    if let Some(addr) = var("VI_MONITOR_ADDR") {
        match PrometheusExporter::bind(&addr) {
            Ok(exporter) => {
                eprintln!("vi-monitor: serving /metrics on {}", exporter.addr());
                sinks.push(exporter);
                requested = true;
            }
            Err(e) => eprintln!("vi-monitor: cannot bind {addr}: {e}"),
        }
    }
    if let Some(path) = var("VI_TRACE") {
        match TraceSink::create(&path) {
            Ok(sink) => sinks.push(Arc::new(sink)),
            Err(e) => eprintln!("vi-monitor: cannot open {path}: {e}"),
        }
    }
    let every = var("VI_MONITOR_EVERY")
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(DEFAULT_EVERY);
    Env {
        sinks: SinkSet::new(sinks),
        incident_dir,
        every: if requested { every } else { 0 },
    }
}

/// FNV-1a digest of `bytes` — the deterministic outcome digest carried
/// by [`JobState::Finished`].
pub fn outcome_digest(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// The per-run Monitor
// ---------------------------------------------------------------------------

/// The snapshot sampler of one run, sampling the counters and phase
/// timers of the [`crate::Observers`] state it rides in every `every`
/// rounds into `sinks`. Only the *sinks* cross threads.
pub struct Monitor {
    scenario: String,
    seed: u64,
    every: u64,
    sinks: SinkSet,
    last_counters: Counters,
    last_phases: PhaseTimers,
    /// The traffic driver's latest in-flight picture.
    pub(crate) traffic: Option<TrafficProgress>,
    seq: u64,
    last_round: u64,
}

impl Monitor {
    /// A monitor for run `(scenario, seed)` sampling every `every`
    /// rounds into `sinks`.
    pub fn new(scenario: &str, seed: u64, every: u64, sinks: SinkSet) -> Self {
        Monitor {
            scenario: scenario.to_string(),
            seed,
            every: every.max(1),
            sinks,
            last_counters: Counters::default(),
            last_phases: PhaseTimers::default(),
            traffic: None,
            seq: 0,
            last_round: 0,
        }
    }

    /// Packages the delta since the previous sample and emits it.
    fn snap(&mut self, round: u64, last: bool, total: &Counters, phases: &PhaseTimers) {
        self.seq += 1;
        let snapshot = TelemetrySnapshot {
            scenario: self.scenario.clone(),
            seed: self.seed,
            seq: self.seq,
            round,
            last,
            counters_delta: total.delta(&self.last_counters),
            counters_total: *total,
            phases_delta: phases.subtracting(&self.last_phases).summary(),
            traffic: self.traffic,
        };
        self.last_counters = *total;
        self.last_phases = phases.clone();
        self.last_round = round;
        self.sinks.emit(&MonitorEvent::Snapshot(Box::new(snapshot)));
    }

    /// Round `round` (an engine round, or a traffic run's virtual
    /// round) has resolved: samples every `every`-th one.
    pub(crate) fn on_round(&mut self, round: u64, total: &Counters, phases: &PhaseTimers) {
        self.last_round = round;
        if round.is_multiple_of(self.every) {
            self.snap(round, false, total, phases);
        }
    }

    /// Emits the run's final snapshot (marked `last: true`, at the
    /// last observed round) and flushes the sinks.
    pub(crate) fn finish(&mut self, total: &Counters, phases: &PhaseTimers) {
        self.snap(self.last_round, true, total, phases);
        self.sinks.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::Phase;

    /// A run without a monitor never builds the traffic picture: on a
    /// null handle and on a live one alike.
    #[test]
    fn null_monitor_is_inert() {
        for obs in [crate::Observers::default(), crate::Observers::new(true)] {
            obs.end_round(64, 0, 0);
            obs.traffic_round(64, || panic!("must not evaluate progress"));
            obs.finish();
        }
    }

    #[test]
    fn snapshots_sample_on_the_period_and_deltas_reconcile() {
        let ring = Arc::new(RingSink::with_capacity(64));
        let mut m = Monitor::new("t", 7, 4, SinkSet::new(vec![ring.clone()]));
        let (mut total, mut phases) = (Counters::default(), PhaseTimers::default());
        for round in 1..=10u64 {
            total.rounds_total += 1;
            total.grid_queries += round;
            phases.record(Phase::Advance, round);
            m.on_round(round, &total, &phases);
        }
        m.finish(&total, &phases);
        let events = ring.events();
        // Rounds 4 and 8 sample, finish adds the last snapshot at 10.
        let snaps: Vec<&TelemetrySnapshot> = events
            .iter()
            .filter_map(|e| match e {
                MonitorEvent::Snapshot(s) => Some(s.as_ref()),
                _ => None,
            })
            .collect();
        assert_eq!(snaps.len(), 3);
        assert_eq!(
            snaps.iter().map(|s| s.round).collect::<Vec<_>>(),
            vec![4, 8, 10]
        );
        assert_eq!(
            snaps.iter().map(|s| s.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(snaps[2].last && !snaps[0].last && !snaps[1].last);
        // Deltas merge back into the final totals, exactly.
        let mut merged = Counters::default();
        for s in &snaps {
            merged.merge(&s.counters_delta);
        }
        assert_eq!(merged, snaps[2].counters_total);
        assert_eq!(merged, total);
        assert_eq!(merged.rounds_total, 10);
        assert_eq!(merged.grid_queries, 55);
        let advance = |s: &TelemetrySnapshot| s.phases_delta.get(Phase::Advance).unwrap().samples;
        assert_eq!(
            snaps.iter().map(|s| advance(s)).collect::<Vec<_>>(),
            [4, 4, 2]
        );
    }

    #[test]
    fn ring_sink_evicts_oldest_past_capacity() {
        let ring = RingSink::with_capacity(2);
        for job in 0..4u64 {
            ring.emit(&MonitorEvent::Job(JobEvent {
                job,
                scenario: "s".to_string(),
                seed: 0,
                state: JobState::Queued,
            }));
        }
        let events = ring.events();
        assert_eq!(events.len(), 2);
        let jobs: Vec<u64> = events
            .iter()
            .map(|e| match e {
                MonitorEvent::Job(j) => j.job,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(jobs, vec![2, 3], "oldest evicted first");
    }

    #[test]
    fn jsonl_sink_writes_one_valid_json_object_per_line() {
        let dir = std::env::temp_dir().join("vi_monitor_jsonl_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        let sink = JsonlSink::create(&path_str).unwrap();
        sink.emit(&MonitorEvent::Job(JobEvent {
            job: 0,
            scenario: "a".to_string(),
            seed: 1,
            state: JobState::Queued,
        }));
        sink.emit(&MonitorEvent::Job(JobEvent {
            job: 0,
            scenario: "a".to_string(),
            seed: 1,
            state: JobState::Finished {
                worker: 0,
                digest: 42,
            },
        }));
        sink.flush();
        let raw = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = raw.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let back: MonitorEvent = serde_json::from_str(line).expect("line is valid JSON");
            match back {
                MonitorEvent::Job(j) => assert_eq!(j.scenario, "a"),
                _ => panic!("unexpected event"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn exporter_serves_prometheus_text_from_counters_rows() {
        let exporter = PrometheusExporter::bind("127.0.0.1:0").expect("ephemeral bind");
        let addr = exporter.addr().to_string();
        let mut m = Monitor::new("metro", 3, 64, SinkSet::new(vec![exporter.clone()]));
        let total = Counters {
            rounds_total: 128,
            rounds_steady: 128,
            ..Counters::default()
        };
        m.on_round(128, &total, &PhaseTimers::default());
        exporter.emit(&MonitorEvent::Job(JobEvent {
            job: 0,
            scenario: "metro".to_string(),
            seed: 3,
            state: JobState::Queued,
        }));
        let body = scrape_metrics(&addr).expect("scrape");
        assert!(
            body.contains("# TYPE vi_rounds_total counter"),
            "{body:.200}"
        );
        assert!(body.contains("vi_rounds_total{scenario=\"metro\",seed=\"3\"} 128"));
        assert!(body.contains("vi_round{scenario=\"metro\",seed=\"3\"} 128"));
        assert!(body.contains("vi_sweep_jobs_queued 1"));
        // Every Counters row has a metric family — generated, so a new
        // counter field is exported automatically.
        for (name, _) in Counters::default().rows() {
            assert!(
                body.contains(&format!("# TYPE vi_{name} counter")),
                "{name}"
            );
        }
    }

    /// A scenario name from spec JSON may hold any character; the
    /// three text format 0.0.4 reserves inside a label value come out
    /// escaped, so the exposition stays one sample per line.
    #[test]
    fn label_values_are_escaped() {
        let mut state = ExportState::default();
        let name = "a\"b\\c\n".to_string();
        state
            .scenarios
            .insert((name, 1), (5, Counters::default(), None));
        let body = PrometheusExporter::render(&state);
        assert!(
            body.contains("vi_round{scenario=\"a\\\"b\\\\c\\n\",seed=\"1\"} 5\n"),
            "{body}"
        );
        assert_eq!(
            body.lines().filter(|l| l.starts_with("vi_round{")).count(),
            1
        );
    }

    #[test]
    fn outcome_digest_is_stable_fnv1a() {
        assert_eq!(outcome_digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(outcome_digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(outcome_digest(b"a"), outcome_digest(b"b"));
    }

    #[test]
    fn monitor_events_round_trip_through_json() {
        let ev = MonitorEvent::Snapshot(Box::new(TelemetrySnapshot {
            scenario: "s".to_string(),
            seed: 9,
            seq: 2,
            round: 128,
            last: true,
            counters_delta: Counters {
                rounds_total: 64,
                ..Counters::default()
            },
            counters_total: Counters {
                rounds_total: 128,
                ..Counters::default()
            },
            phases_delta: PhaseTimers::default().summary(),
            traffic: Some(TrafficProgress {
                issued: 10,
                completed: 8,
                timed_out: 1,
                in_flight: 1,
                p50: 3,
                p95: 7,
            }),
        }));
        let json = serde_json::to_string(&ev).unwrap();
        let back: MonitorEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ev);
        let job = MonitorEvent::Job(JobEvent {
            job: 4,
            scenario: "s".to_string(),
            seed: 9,
            state: JobState::Finished {
                worker: 1,
                digest: 77,
            },
        });
        let json = serde_json::to_string(&job).unwrap();
        let back: MonitorEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, job);
    }

    /// `VI_TRACE` alone opens its sink and requests no sampling, so a
    /// run under it builds no monitor and, through one, no live
    /// observer handle (`every(0)` stays 0); beside `VI_MONITOR_LOG`
    /// it only adds its sink.
    #[test]
    fn vi_trace_alone_turns_on_no_sampling() {
        let dir = std::env::temp_dir().join("vi_monitor_env_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (trace, log) = (path("trace.json"), path("log.jsonl"));
        let env = |vars: &[(&str, &str)]| {
            let lookup = |key: &str| vars.iter().find(|v| v.0 == key).map(|v| v.1.to_string());
            let env = read_env(lookup);
            (env.every(0), env.sinks.sinks.len())
        };
        assert_eq!(env(&[("VI_TRACE", &trace)]), (0, 1));
        assert!(std::fs::read_to_string(&trace)
            .unwrap()
            .contains("traceEvents"));
        let both = [
            ("VI_TRACE", &*trace),
            ("VI_MONITOR_LOG", &log),
            ("VI_MONITOR_EVERY", "16"),
        ];
        assert_eq!(env(&both), (16, 2));
        assert_eq!(env(&[("VI_TRACE", "")]), (0, 0), "empty is unset");
    }
}
