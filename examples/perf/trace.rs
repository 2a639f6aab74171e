//! In-memory spans for the traced run.
//!
//! A span is `(name, start, end, parent, run)`; the spans of one
//! mirrored job share a run id. They stay in memory and are written
//! once, at exit, as Chrome trace-event JSON (opens in Perfetto). A
//! layer's *self time* is its span minus the part its direct children
//! cover.
//!
//! Calls that happen hundreds of thousands of times per run
//! (`Process::transmit`, `MobilityModel::advance`, …) do not get a
//! span each: their wrappers add into an [`Acc`], and the enclosing
//! round span turns the accumulated time into one `aggregated` child
//! before it closes.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

/// One recorded interval.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    run: u32,
    /// Sum of many short calls inside the parent rather than one
    /// contiguous interval; its position in the parent is synthetic.
    aggregated: bool,
}

struct Inner {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last, each with the nanoseconds of
    /// aggregated children already laid out inside it.
    open: Vec<(usize, u64)>,
    run: u32,
}

/// Shared handle to the span store (the simulation is single-threaded
/// per job, so `Rc<RefCell<_>>` suffices — the idiom of the repo's own
/// `Probe`).
#[derive(Clone)]
pub struct Tracer(Rc<RefCell<Inner>>);

impl Tracer {
    pub fn new() -> Self {
        Tracer(Rc::new(RefCell::new(Inner {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        })))
    }

    /// Starts a new run: later spans carry this id.
    pub fn begin_run(&self, run: u32) {
        self.0.borrow_mut().run = run;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&self, name: &'static str) -> usize {
        let mut t = self.0.borrow_mut();
        let now = t.epoch.elapsed().as_nanos() as u64;
        let id = t.spans.len();
        let parent = t.open.last().map(|&(p, _)| p);
        let run = t.run;
        t.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            run,
            aggregated: false,
        });
        t.open.push((id, 0));
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&self, id: usize) {
        let mut t = self.0.borrow_mut();
        let now = t.epoch.elapsed().as_nanos() as u64;
        let (top, _) = t.open.pop().expect("exit without enter");
        assert_eq!(top, id, "spans must nest");
        t.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Drains `acc` into one aggregated child of the innermost open
    /// span (nothing is recorded for an empty accumulator).
    pub fn aggregate(&self, name: &'static str, acc: &Acc) {
        let ns = acc.ns.replace(0);
        if ns == 0 {
            return;
        }
        let mut t = self.0.borrow_mut();
        let run = t.run;
        let (parent, used) = *t.open.last().expect("aggregate needs an open span");
        let start_ns = t.spans[parent].start_ns + used;
        t.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + ns,
            parent: Some(parent),
            run,
            aggregated: true,
        });
        t.open.last_mut().expect("checked above").1 += ns;
    }

    /// Total and self nanoseconds by span name over the spans recorded
    /// since the store held `first` of them (whole runs: a span's
    /// parent is then never older than the span).
    pub fn times_from(&self, first: usize) -> BTreeMap<&'static str, SpanTimes> {
        let t = self.0.borrow();
        let spans = &t.spans[first..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p - first] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTimes> = BTreeMap::new();
        for (s, &children) in spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(children);
            e.spans += 1;
        }
        out
    }

    /// Number of spans held.
    pub fn len(&self) -> usize {
        self.0.borrow().spans.len()
    }

    /// Writes every span as a Chrome trace-event `X` event; `pid` is
    /// the run id, `args` carries the parent span and the flag for
    /// aggregated children.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let t = self.0.borrow();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"traceEvents\":[")?;
        for (id, s) in t.spans.iter().enumerate() {
            if id > 0 {
                write!(w, ",")?;
            }
            write!(
                w,
                "\n{{\"name\":\"{}\",\"cat\":\"perf\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{},\"tid\":0,\"args\":{{\"id\":{},\"parent\":{},\"aggregated\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.run,
                id,
                s.parent.map_or(-1, |p| p as i64),
                s.aggregated,
            )?;
        }
        writeln!(w, "\n],\"displayTimeUnit\":\"ms\"}}")?;
        w.flush()
    }
}

/// Total and self time of the spans sharing one name.
#[derive(Clone, Copy, Default)]
pub struct SpanTimes {
    pub total_ns: u64,
    pub self_ns: u64,
    pub spans: u64,
}

/// A time-and-count accumulator shared between a timing wrapper and
/// the code that owns the enclosing span.
#[derive(Default)]
pub struct Acc {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl Acc {
    /// Runs `f`, adding its wall-clock time and one call.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.ns.set(self.ns.get() + t0.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        r
    }

    /// Nanoseconds accumulated since the last drain.
    pub fn ns(&self) -> u64 {
        self.ns.get()
    }

    /// Removes `ns` from the accumulated time (time a nested wrapper
    /// has already claimed).
    pub fn discount(&self, ns: u64) {
        self.ns.set(self.ns.get().saturating_sub(ns));
    }

    /// Calls seen so far (never reset).
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}
