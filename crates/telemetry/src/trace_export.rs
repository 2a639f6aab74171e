//! Perfetto/Chrome trace-event export.
//!
//! A process-global, thread-safe span collector writing the Chrome
//! trace-event JSON format (`{"traceEvents": [...]}`, complete
//! events, microsecond units) — the file opens directly in
//! `ui.perfetto.dev` or `chrome://tracing`.
//!
//! Tracing is off unless the `VI_TRACE=out.json` environment variable
//! is set (checked once, cached) or [`enable_tracing`] is called
//! explicitly. When off, [`record_span`] is one relaxed atomic load.
//! The collector is bounded ([`MAX_EVENTS`]); spans past the cap are
//! counted in [`dropped_spans`] rather than silently lost.
//!
//! Span conventions used by the stack:
//! * `pid` [`PID_SWEEP`]: sweep-level spans — one `sweep-worker`
//!   lifetime span per worker plus one `job` span per `(spec, seed)`,
//!   with `tid` = sweep worker index.
//! * `pid` [`PID_PROTO`]: protocol-level causal spans and flows on a
//!   synthetic round clock, with `tid` = node index.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// `pid` for sweep-runner spans (workers and jobs).
pub const PID_SWEEP: u64 = 1;
/// `pid` for protocol-level causal spans and flows: synthetic
/// round-based timestamps (round `r` at `r·1000` µs), `tid` = node
/// index. See `vi_telemetry::causal::export_flows`.
pub const PID_PROTO: u64 = 3;

/// Collector capacity; spans past this are dropped (and counted).
pub const MAX_EVENTS: usize = 100_000;

/// One Chrome trace event: a complete span (`ph:"X"`) or a flow
/// endpoint (`ph:"s"` / `ph:"f"`). Microsecond units, as the format
/// requires.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Span name (e.g. `"job"`, `"sweep-worker"`).
    pub name: String,
    /// Category (e.g. `"sweep"`, `"protocol"`).
    pub cat: String,
    /// Event phase: `"X"` (complete span), `"s"` (flow start), or
    /// `"f"` (flow finish).
    pub ph: String,
    /// Start timestamp in µs since the trace epoch.
    pub ts: u64,
    /// Duration in µs (0 for flow endpoints).
    pub dur: u64,
    /// Process lane ([`PID_SWEEP`] or [`PID_PROTO`]).
    pub pid: u64,
    /// Thread lane — the worker or node index.
    pub tid: u64,
    /// Flow id tying an `"s"` event to its `"f"` partner; 0 on
    /// complete spans (flow ids minted by the causal layer are never
    /// 0, so 0 unambiguously means "not a flow").
    pub id: u64,
}

/// Top-level JSON object; `traceEvents` is fixed by the trace format,
/// `truncated_events` is this collector's metadata (viewers ignore
/// unknown top-level fields): how many spans the bounded collector
/// dropped past [`MAX_EVENTS`] before this flush. 0 means the trace
/// is complete.
#[derive(Serialize, Deserialize)]
#[allow(non_snake_case)]
struct TraceFile {
    traceEvents: Vec<TraceEvent>,
    truncated_events: u64,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
static ENABLED: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static DROP_WARNED: AtomicBool = AtomicBool::new(false);
static ENV_PATH: OnceLock<Option<String>> = OnceLock::new();

/// Microseconds since the first telemetry event of the process —
/// every span shares this epoch so lanes line up in the viewer.
pub fn now_us() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// The `VI_TRACE` output path, if set (read once and cached so the
/// hot path never touches the environment).
pub fn env_trace_path() -> Option<&'static str> {
    ENV_PATH
        .get_or_init(|| std::env::var("VI_TRACE").ok().filter(|p| !p.is_empty()))
        .as_deref()
}

/// Whether spans are currently collected.
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) || env_trace_path().is_some()
}

/// Turns span collection on for the rest of the process (tests and
/// embedders that don't use `VI_TRACE`).
pub fn enable_tracing() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Spans dropped because the collector was full.
pub fn dropped_spans() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Locks `events`, recovering from poisoning: a panicking tracer
/// thread must never take the whole collector down with it — the
/// spans gathered before the panic are exactly what a post-mortem
/// needs. Factored out so the recovery branch is directly testable.
fn recover(events: &Mutex<Vec<TraceEvent>>) -> std::sync::MutexGuard<'_, Vec<TraceEvent>> {
    events.lock().unwrap_or_else(|e| e.into_inner())
}

/// Pushes `ev` onto `events` unless it already holds `cap` entries;
/// returns whether the event was kept. Factored out so the cap
/// branch is directly testable against a local buffer.
fn push_bounded(events: &mut Vec<TraceEvent>, ev: TraceEvent, cap: usize) -> bool {
    if events.len() >= cap {
        return false;
    }
    events.push(ev);
    true
}

/// Records one event into the global collector, bumping the drop
/// counter past the cap. The first drop of the process warns once on
/// stderr — a truncated trace should never be a silent surprise.
fn record_event(ev: TraceEvent) {
    if !push_bounded(&mut recover(&EVENTS), ev, MAX_EVENTS) {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        if !DROP_WARNED.swap(true, Ordering::Relaxed) {
            eprintln!(
                "vi-telemetry: trace collector full ({MAX_EVENTS} spans) — \
                 further spans are dropped and counted as truncated_events"
            );
        }
    }
}

/// Records one complete span. No-op unless tracing is enabled; never
/// blocks the simulation on a full buffer (drops + counts instead).
pub fn record_span(name: &str, cat: &str, pid: u64, tid: u64, ts_us: u64, dur_us: u64) {
    if !tracing_enabled() {
        return;
    }
    record_event(TraceEvent {
        name: name.to_string(),
        cat: cat.to_string(),
        ph: "X".to_string(),
        ts: ts_us,
        dur: dur_us,
        pid,
        tid,
        id: 0,
    });
}

/// Records one flow endpoint (`ph` `"s"` or `"f"`; `id` ties the two
/// ends together). No-op unless tracing is enabled; same bounded
/// buffer as [`record_span`].
pub fn record_flow(name: &str, cat: &str, ph: &str, pid: u64, tid: u64, ts_us: u64, id: u64) {
    if !tracing_enabled() {
        return;
    }
    record_event(TraceEvent {
        name: name.to_string(),
        cat: cat.to_string(),
        ph: ph.to_string(),
        ts: ts_us,
        dur: 0,
        pid,
        tid,
        id,
    });
}

/// Drains every collected span (primarily for tests; flushing uses it
/// internally so repeated flushes don't duplicate spans).
pub fn take_events() -> Vec<TraceEvent> {
    std::mem::take(&mut *recover(&EVENTS))
}

/// Writes all collected spans to `path` as Chrome trace JSON and
/// clears the collector (including the drop counter, which is emitted
/// in the file's `truncated_events` metadata — each flush accounts
/// for its own truncation). Returns the number of spans written.
pub fn flush_to_path(path: &str) -> std::io::Result<usize> {
    let events = take_events();
    let truncated = DROPPED.swap(0, Ordering::Relaxed);
    let n = events.len();
    let json = serde_json::to_string(&TraceFile {
        traceEvents: events,
        truncated_events: truncated,
    })
    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, json)?;
    Ok(n)
}

/// Flushes to the `VI_TRACE` path if that variable is set; reports
/// the destination and span count on stderr so batch runs leave a
/// breadcrumb. Returns the span count written (0 when unset).
pub fn flush_env() -> usize {
    let Some(path) = env_trace_path() else {
        return 0;
    };
    match flush_to_path(path) {
        Ok(n) => {
            eprintln!("vi-telemetry: wrote {n} trace span(s) to {path}");
            n
        }
        Err(e) => {
            eprintln!("vi-telemetry: failed to write trace to {path}: {e}");
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector is process-global, so exercise it in ONE test to
    // avoid cross-test interference under the parallel test runner.
    #[test]
    fn collector_records_flushes_and_round_trips() {
        enable_tracing();
        assert!(tracing_enabled());
        take_events(); // isolate from any earlier spans

        let t0 = now_us();
        record_span("job", "sweep", PID_SWEEP, 0, t0, 150);
        record_span("sweep-worker", "sweep", PID_SWEEP, 3, t0 + 10, 40);
        record_flow("rx", "protocol", "s", PID_PROTO, 1, 2000, 77);
        record_flow("rx", "protocol", "f", PID_PROTO, 2, 2500, 77);

        let dir = std::env::temp_dir().join("vi_telemetry_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let path_str = path.to_str().unwrap();
        let written = flush_to_path(path_str).unwrap();
        assert_eq!(written, 4);

        let raw = std::fs::read_to_string(&path).unwrap();
        let back: TraceFile = serde_json::from_str(&raw).unwrap();
        assert_eq!(back.traceEvents.len(), 4);
        assert_eq!(
            back.truncated_events, 0,
            "nothing was dropped, so the metadata says so"
        );
        let job = &back.traceEvents[0];
        assert_eq!(job.name, "job");
        assert_eq!(job.ph, "X");
        assert_eq!(job.pid, PID_SWEEP);
        assert_eq!(job.dur, 150);
        assert_eq!(job.id, 0, "plain spans carry no flow id");
        let worker = &back.traceEvents[1];
        assert_eq!(worker.tid, 3);
        assert_eq!(worker.pid, PID_SWEEP);
        // Flow endpoints keep their pairing id through the round trip.
        let start = &back.traceEvents[2];
        let finish = &back.traceEvents[3];
        assert_eq!(start.ph, "s");
        assert_eq!(finish.ph, "f");
        assert_eq!(start.id, 77);
        assert_eq!(start.id, finish.id);

        // Flushing drained the collector.
        assert_eq!(take_events().len(), 0);
        std::fs::remove_file(&path).ok();
    }

    fn ev(name: &str) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            cat: "test".to_string(),
            ph: "X".to_string(),
            ts: 0,
            dur: 1,
            pid: PID_SWEEP,
            tid: 0,
            id: 0,
        }
    }

    /// Satellite edge path: the event cap truncates instead of
    /// growing, and the boundary is exact. Exercised against a local
    /// buffer so the process-global collector stays untouched.
    #[test]
    fn event_cap_truncates_at_the_exact_boundary() {
        let mut events = Vec::new();
        for i in 0..5 {
            assert!(push_bounded(&mut events, ev(&format!("e{i}")), 5));
        }
        assert!(!push_bounded(&mut events, ev("overflow"), 5));
        assert_eq!(events.len(), 5);
        assert_eq!(events.last().unwrap().name, "e4", "overflow dropped");
        // The production cap behaves identically at its boundary.
        let mut full = vec![ev("x"); MAX_EVENTS];
        assert!(!push_bounded(&mut full, ev("overflow"), MAX_EVENTS));
        assert_eq!(full.len(), MAX_EVENTS);
        full.pop();
        assert!(push_bounded(&mut full, ev("fits"), MAX_EVENTS));
    }

    /// Satellite edge path: a panic while holding the collector lock
    /// must not poison tracing for the rest of the process — the
    /// recovery branch hands back the pre-panic contents.
    #[test]
    fn poisoned_lock_recovers_with_contents_intact() {
        let events: Mutex<Vec<TraceEvent>> = Mutex::new(vec![ev("before")]);
        let poisoned = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = events.lock().unwrap();
                panic!("poison the collector lock");
            })
            .join()
            .is_err()
        });
        assert!(poisoned, "the helper thread must have panicked");
        assert!(events.lock().is_err(), "lock is poisoned");
        let mut guard = recover(&events);
        assert_eq!(guard.len(), 1);
        assert_eq!(guard[0].name, "before");
        assert!(push_bounded(&mut guard, ev("after"), MAX_EVENTS));
        assert_eq!(guard.len(), 2, "recording continues after recovery");
    }

    #[test]
    fn timestamps_are_monotone() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }
}
