//! The workload driver: turns a [`TrafficSpec`] plus a [`Service`]
//! into a measured run.
//!
//! Open loop: a deterministic fractional accumulator over the active
//! rate admits requests on a fixed schedule, regardless of how the
//! service keeps up — the discipline that exposes queueing collapse.
//! Closed loop: each client keeps `k` requests in flight with a think
//! pause after each completion. Open-loop arrivals are assigned to
//! clients round-robin; request classes are drawn from an RNG stream
//! salted off the run seed — identical `(spec, seed)` pairs replay
//! identical request streams no matter which sweep worker executes
//! them.
//!
//! Entry points: [`run_traffic`] builds the app service over a
//! [`TrafficWorld`] and runs it under the run's observer handle,
//! handing each [`TrafficEvent`] to the caller's sink as it happens;
//! [`drive`] and [`drive_recorded`] drive a service the caller built
//! (unobserved), without and with the operation history.

use crate::metrics::{LatencyHistogram, TrafficSummary};
use crate::service::{
    build_observed, AuditRecord, Completion, OpClass, OpDesc, OpOutcome, Request, Service,
    TrafficWorld,
};
use crate::workload::{AppKind, LoadMode, TrafficSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vi_core::vi::EmulatorReport;
use vi_radio::trace::ChannelStats;
use vi_telemetry::{Observers, TrafficProgress};

/// Salt separating the traffic RNG stream from the engine's seed
/// stream (request mix never perturbs channel resolution).
const TRAFFIC_SALT: u64 = 0x5bd1_e995_9e37_79b9;

/// What one traffic run produced, beyond the client-visible summary:
/// the channel and emulation counters the scenario outcome reports.
#[derive(Clone, Debug)]
pub struct TrafficOutcome {
    /// The client-visible metrics.
    pub summary: TrafficSummary,
    /// Channel statistics of the underlying run.
    pub stats: ChannelStats,
    /// The emulation counters summed over every virtual node.
    pub emulation: EmulatorReport,
}

/// One entry of the operation history a traffic run leaves behind.
///
/// Events are appended in driver order — admission before the round's
/// step, completions in service order, timeouts last — which is a
/// deterministic function of `(spec, seed)`. Every admitted request
/// resolves exactly once: a `Complete`, or a `Timeout` (the Jepsen
/// `:info` case — the operation may or may not have taken effect, and
/// consistency checkers must treat it as concurrent with everything
/// after its invocation). A completion arriving *after* the timeout
/// sweep already resolved its request is not recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrafficEvent {
    /// A request entered the system.
    Invoke {
        /// The request id.
        id: u64,
        /// The issuing client.
        client: u32,
        /// Virtual round of admission.
        vr: u64,
        /// The concrete operation the adapter issued.
        op: OpDesc,
    },
    /// A request completed with a response.
    Complete {
        /// The request id.
        id: u64,
        /// The issuing client.
        client: u32,
        /// Virtual round the response was heard.
        vr: u64,
        /// What the response said.
        outcome: OpOutcome,
    },
    /// A request was dropped unresolved after its timeout.
    Timeout {
        /// The request id.
        id: u64,
        /// The issuing client.
        client: u32,
        /// Virtual round of the timeout sweep.
        vr: u64,
    },
    /// A protocol-level service observation (grants, releases, raw
    /// deliveries).
    Protocol {
        /// The observation.
        record: AuditRecord,
    },
}

/// A closed-loop request slot.
enum Slot {
    /// Waiting for the in-flight request with this id.
    InFlight(u64),
    /// Thinking; reissue at this virtual round.
    ThinkUntil(u64),
}

/// Runs `spec` against the app service built over `tw`, and returns
/// the outcome.
///
/// Each operation-history event goes to `sink` the moment the driver
/// produces it, in driver order — the input of the `vi-audit`
/// consistency checkers, which consume it as the run goes. Without a
/// sink nothing is recorded: the run keeps no history.
///
/// The world is built holding a clone of `obs`. Its causal recorder
/// traces every invocation/completion here and every
/// broadcast/reception in the world's engine; its flight recorder
/// retains the engine's last K rounds of channel events; its monitor
/// samples the driver's in-flight picture every K virtual rounds. The
/// engine of a traffic run feeds no counter, timer or monitor sample:
/// the handle's owner says so when it builds it
/// ([`Observers::new`]). Observers never perturb: summary, events and
/// stats are byte-identical under `Observers::default()`.
///
/// # Panics
///
/// Panics if the spec is invalid (callers validate up front) or the
/// deployment has fewer devices than `spec.clients`.
pub fn run_traffic(
    app: AppKind,
    tw: TrafficWorld,
    spec: &TrafficSpec,
    obs: &Observers,
    sink: Option<&mut dyn FnMut(TrafficEvent)>,
) -> TrafficOutcome {
    spec.validate().expect("invalid traffic spec");
    let seed = tw.seed;
    let mut service = build_observed(app, tw, spec.clients, obs.clone());
    let summary = drive_inner(service.as_mut(), spec, seed, sink, obs);
    TrafficOutcome {
        summary,
        stats: service.stats(),
        emulation: service.world_totals(),
    }
}

/// Drives `service` under `spec`, measuring completions. Exposed so
/// tests and benches can drive hand-built services. Records nothing:
/// the unaudited hot path stays free of per-request event pushes.
pub fn drive(service: &mut dyn Service, spec: &TrafficSpec, seed: u64) -> TrafficSummary {
    drive_inner(service, spec, seed, None, &Observers::default())
}

/// [`drive`], additionally recording the complete operation history.
pub fn drive_recorded(
    service: &mut dyn Service,
    spec: &TrafficSpec,
    seed: u64,
) -> (TrafficSummary, Vec<TrafficEvent>) {
    let mut events = Vec::new();
    let summary = drive_inner(
        service,
        spec,
        seed,
        Some(&mut |e| events.push(e)),
        &Observers::default(),
    );
    (summary, events)
}

fn drive_inner(
    service: &mut dyn Service,
    spec: &TrafficSpec,
    seed: u64,
    sink: Option<&mut dyn FnMut(TrafficEvent)>,
    obs: &Observers,
) -> TrafficSummary {
    let clients = spec.clients;
    let app_name = service.app().name();
    let mut run = Run {
        has_reads: matches!(service.app(), AppKind::Register | AppKind::Tracking),
        service,
        rng: StdRng::seed_from_u64(seed ^ TRAFFIC_SALT),
        query_fraction: spec.query_fraction,
        obs,
        next_id: 0,
        outstanding: BTreeMap::new(),
        sink,
    };
    let mut hist = LatencyHistogram::new();
    let mut completed = 0u64;
    let mut timed_out = 0u64;
    let mut peak = 0u64;

    // Open-loop arrival accumulator; closed-loop slot tables.
    let mut acc = 0.0f64;
    let mut rr_client = 0usize;
    let mut slots: Vec<Vec<Slot>> = match spec.mode {
        LoadMode::Closed {
            outstanding_per_client,
            ..
        } => (0..clients)
            .map(|_| {
                (0..outstanding_per_client)
                    .map(|_| Slot::ThinkUntil(1))
                    .collect()
            })
            .collect(),
        LoadMode::Open { .. } => Vec::new(),
    };

    let total_rounds = spec
        .total_rounds()
        .expect("run length overflows u64, which TrafficSpec::validate rejects");
    for vr in 1..=total_rounds {
        if vr <= spec.virtual_rounds {
            match &spec.mode {
                LoadMode::Open { .. } => {
                    acc += spec.rate_at(vr).expect("open mode has a rate");
                    while acc >= 1.0 {
                        acc -= 1.0;
                        let client = rr_client % clients;
                        rr_client += 1;
                        run.issue(client, vr);
                    }
                }
                LoadMode::Closed { .. } => {
                    for (client, client_slots) in slots.iter_mut().enumerate() {
                        for slot in client_slots.iter_mut() {
                            if let Slot::ThinkUntil(at) = *slot {
                                if vr >= at {
                                    *slot = Slot::InFlight(run.issue(client, vr));
                                }
                            }
                        }
                    }
                }
            }
        }

        let completions: Vec<Completion> = run.service.step_round();
        let mut this_round = 0u64;
        for c in completions {
            let Some((issued_vr, client)) = run.outstanding.remove(&c.id) else {
                continue; // late completion of a timed-out request
            };
            obs.causal(|r| r.complete(app_name, c.id, c.completed_vr));
            run.record(TrafficEvent::Complete {
                id: c.id,
                client: client as u32,
                vr: c.completed_vr,
                outcome: c.outcome,
            });
            hist.record(c.completed_vr.saturating_sub(issued_vr));
            completed += 1;
            this_round += 1;
            free_slot(&mut slots, client, c.id, vr, &spec.mode);
        }
        peak = peak.max(this_round);
        // Drain the service's audit records every round — they would
        // accumulate for the whole run otherwise — but hand them on
        // only when there is a sink.
        for record in run.service.drain_audit() {
            run.record(TrafficEvent::Protocol { record });
        }

        // Timeout sweep.
        let dead: Vec<u64> = run
            .outstanding
            .iter()
            .filter(|(_, &(issued_vr, _))| vr.saturating_sub(issued_vr) > spec.timeout_rounds)
            .map(|(&id, _)| id)
            .collect();
        for id in dead {
            let (_, client) = run.outstanding.remove(&id).expect("just listed");
            run.record(TrafficEvent::Timeout {
                id,
                client: client as u32,
                vr,
            });
            timed_out += 1;
            run.service.forget(id);
            free_slot(&mut slots, client, id, vr, &spec.mode);
        }

        // Live-monitoring sample point: the progress closure is only
        // evaluated on a live monitor, so the unmonitored hot path
        // pays one branch here and computes no quantiles.
        obs.traffic_round(vr, || {
            let q = |v: u64| if hist.count() == 0 { 0 } else { v };
            TrafficProgress {
                issued: run.next_id,
                completed,
                timed_out,
                in_flight: run.outstanding.len() as u64,
                p50: q(hist.p50()),
                p95: q(hist.p95()),
            }
        });
    }

    // Quantiles of an empty histogram are the EMPTY_QUANTILE sentinel;
    // a run that completed nothing reports inert zeros instead.
    let q = |v: u64| if hist.count() == 0 { 0 } else { v };
    TrafficSummary {
        app: app_name.to_string(),
        mode: spec.mode.name().to_string(),
        issued: run.next_id,
        completed,
        timed_out,
        in_flight_at_end: run.outstanding.len() as u64,
        p50: q(hist.p50()),
        p95: q(hist.p95()),
        p99: q(hist.p99()),
        max: hist.max(),
        mean: hist.mean(),
        throughput_per_round: completed as f64 / spec.virtual_rounds as f64,
        peak_round_completions: peak,
        latency: hist,
    }
}

/// The run state every admission touches: the service, the request
/// stream (ids and classes), the outstanding table and the event sink.
struct Run<'a, 's> {
    service: &'a mut dyn Service,
    rng: StdRng,
    has_reads: bool,
    query_fraction: f64,
    obs: &'a Observers,
    next_id: u64,
    /// id → (issued vr, client).
    outstanding: BTreeMap<u64, (u64, usize)>,
    /// Where the operation history goes, when anything wants it.
    sink: Option<&'s mut dyn FnMut(TrafficEvent)>,
}

impl Run<'_, '_> {
    /// Admits the next request of `client` at virtual round `vr`.
    fn issue(&mut self, client: usize, vr: u64) -> u64 {
        self.next_id += 1;
        self.obs
            .causal(|r| r.invoke(self.next_id, client as u64, vr));
        let class = if self.has_reads && self.rng.random_bool(self.query_fraction) {
            OpClass::Query
        } else {
            OpClass::Mutate
        };
        let req = Request {
            id: self.next_id,
            class,
            issued_vr: vr,
        };
        self.outstanding.insert(req.id, (vr, client));
        let op = self.service.submit(client, &req);
        self.record(TrafficEvent::Invoke {
            id: req.id,
            client: client as u32,
            vr,
            op,
        });
        self.next_id
    }

    /// Hands `event` to the sink, if there is one.
    fn record(&mut self, event: TrafficEvent) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink(event);
        }
    }
}

/// Returns a closed-loop slot to thinking after its request resolved.
fn free_slot(slots: &mut [Vec<Slot>], client: usize, id: u64, vr: u64, mode: &LoadMode) {
    if let LoadMode::Closed { think_rounds, .. } = mode {
        if let Some(slot) = slots[client]
            .iter_mut()
            .find(|s| matches!(s, Slot::InFlight(e) if *e == id))
        {
            *slot = Slot::ThinkUntil(vr + 1 + think_rounds);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::DevicePlan;
    use vi_core::vi::VnLayout;
    use vi_radio::geometry::Point;
    use vi_radio::mobility::MobilityModel;
    use vi_radio::{AdversaryKind, RadioConfig};

    /// [`run_traffic`] with no observer, collecting the events.
    fn run(
        app: AppKind,
        tw: TrafficWorld,
        spec: &TrafficSpec,
    ) -> (TrafficOutcome, Vec<TrafficEvent>) {
        let mut events = Vec::new();
        let out = run_traffic(
            app,
            tw,
            spec,
            &Observers::default(),
            Some(&mut |e| events.push(e)),
        );
        (out, events)
    }

    fn small_world(n: usize, seed: u64) -> TrafficWorld {
        let vn = Point::new(50.0, 50.0);
        let devices = (0..n)
            .map(|i| {
                let start = Point::new(49.4 + 0.4 * i as f64, 50.2);
                DevicePlan {
                    start,
                    mobility: Box::new(start) as Box<dyn MobilityModel>,
                    spawn_at: None,
                    crash_at: None,
                }
            })
            .collect();
        TrafficWorld {
            radio: RadioConfig::reliable(10.0, 20.0),
            layout: VnLayout::new(vec![vn], 2.5),
            seed,
            adversary: AdversaryKind::None,
            devices,
        }
    }

    #[test]
    fn open_loop_register_completes_most_requests() {
        let spec = TrafficSpec::open(2, 0.25, 40);
        let out = run(AppKind::Register, small_world(3, 3), &spec).0;
        let s = &out.summary;
        assert_eq!(s.app, "register");
        assert_eq!(s.mode, "open");
        assert_eq!(s.issued, 10, "0.25/vr over 40 rounds (binary-exact rate)");
        assert!(s.completed >= s.issued / 2, "most requests complete: {s:?}");
        assert_eq!(
            s.completed + s.timed_out + s.in_flight_at_end,
            s.issued,
            "every request is accounted for: {s:?}"
        );
        assert_eq!(s.latency.count(), s.completed);
        assert!(s.p50 >= 1, "latency is at least one virtual round");
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        assert!(out.stats.broadcasts > 0);
        assert!(out.emulation.decided > 0, "the virtual node made progress");
    }

    #[test]
    fn closed_loop_keeps_bounded_outstanding() {
        let spec = TrafficSpec::closed(2, 1, 2, 30);
        let out = run(AppKind::Tracking, small_world(3, 5), &spec).0;
        let s = &out.summary;
        assert_eq!(s.mode, "closed");
        assert!(s.issued > 0);
        assert!(
            s.in_flight_at_end <= 2,
            "at most k per client outstanding: {s:?}"
        );
        assert_eq!(s.completed + s.timed_out + s.in_flight_at_end, s.issued);
    }

    #[test]
    fn runs_are_deterministic_per_seed_and_distinct_across_seeds() {
        let spec = TrafficSpec::open(2, 0.4, 30);
        let a = run(AppKind::Register, small_world(3, 8), &spec).0.summary;
        let b = run(AppKind::Register, small_world(3, 8), &spec).0.summary;
        assert_eq!(a, b, "same (spec, seed) must reproduce exactly");
        let c = run(AppKind::Register, small_world(3, 9), &spec).0.summary;
        // Identical schedule, but the channel RNG differs; the runs
        // must at minimum not be byte-identical in latency.
        assert_eq!(a.issued, c.issued, "arrival schedule is seed-independent");
    }

    #[test]
    fn overload_times_out_instead_of_hanging() {
        // 2 requests per round at a service rate of ~1 reply per
        // round: the queue grows without bound, and the excess must
        // surface as timeouts, not lost accounting.
        let mut spec = TrafficSpec::open(2, 2.0, 30);
        spec.timeout_rounds = 10;
        let out = run(AppKind::Register, small_world(3, 4), &spec).0;
        let s = &out.summary;
        assert_eq!(s.issued, 60);
        assert!(s.timed_out > 0, "overload must produce timeouts: {s:?}");
        assert_eq!(s.completed + s.timed_out + s.in_flight_at_end, s.issued);
    }

    #[test]
    fn adversary_reaches_the_traffic_channel() {
        // A total-loss burst across the whole admission window must
        // hurt: the same workload that completes cleanly on a quiet
        // channel times out under the adversary.
        let mut spec = TrafficSpec::open(2, 0.5, 20);
        spec.timeout_rounds = 8;
        let clean = run(AppKind::Register, small_world(3, 2), &spec).0;
        let mut jammed_world = small_world(3, 2);
        jammed_world.radio = RadioConfig::stabilizing(10.0, 20.0, u64::MAX);
        jammed_world.adversary = vi_radio::AdversaryKind::Burst(vec![0..5_000, 5_000..10_000]);
        let jammed = run(AppKind::Register, jammed_world, &spec).0;
        assert!(clean.summary.completed > 0);
        assert_eq!(
            jammed.summary.completed, 0,
            "nothing completes through a total-loss burst: {:?}",
            jammed.summary
        );
        assert_eq!(
            jammed.summary.timed_out, jammed.summary.issued,
            "every request must resolve to a timeout within the drain tail"
        );
        assert_eq!(jammed.summary.in_flight_at_end, 0);
    }

    #[test]
    fn recorded_history_resolves_every_request_exactly_once() {
        // A jammed channel forces timeouts; the history must surface
        // them as `Timeout` events, one per unresolved request.
        let mut spec = TrafficSpec::open(2, 0.5, 20);
        spec.timeout_rounds = 8;
        let mut world = small_world(3, 2);
        world.radio = RadioConfig::stabilizing(10.0, 20.0, u64::MAX);
        world.adversary = vi_radio::AdversaryKind::Burst(vec![0..5_000, 5_000..10_000]);
        let (out, events) = run(AppKind::Register, world, &spec);
        let s = &out.summary;
        assert!(s.timed_out > 0, "jam must time requests out: {s:?}");
        use std::collections::BTreeMap;
        let mut resolved: BTreeMap<u64, u32> = BTreeMap::new();
        let mut invoked: BTreeMap<u64, u64> = BTreeMap::new();
        for e in &events {
            match e {
                TrafficEvent::Invoke { id, vr, .. } => {
                    assert!(invoked.insert(*id, *vr).is_none(), "double invoke of {id}");
                }
                TrafficEvent::Complete { id, vr, .. } | TrafficEvent::Timeout { id, vr, .. } => {
                    assert!(
                        invoked.get(id).is_some_and(|inv| inv <= vr),
                        "resolution of {id} precedes its invocation"
                    );
                    *resolved.entry(*id).or_default() += 1;
                }
                TrafficEvent::Protocol { .. } => {}
            }
        }
        assert_eq!(invoked.len() as u64, s.issued);
        assert!(resolved.values().all(|&n| n == 1), "one resolution per id");
        let timeouts = events
            .iter()
            .filter(|e| matches!(e, TrafficEvent::Timeout { .. }))
            .count() as u64;
        assert_eq!(timeouts, s.timed_out, "timeouts surface as events");
    }

    #[test]
    fn recorded_history_is_deterministic() {
        let spec = TrafficSpec::open(2, 0.4, 25);
        let (_, a) = run(AppKind::Mutex, small_world(3, 6), &spec);
        let (_, b) = run(AppKind::Mutex, small_world(3, 6), &spec);
        assert_eq!(a, b, "identical (spec, seed) must replay the history");
        assert!(
            a.iter().any(|e| matches!(e, TrafficEvent::Protocol { .. })),
            "mutex histories carry grant/release protocol events"
        );
    }

    #[test]
    fn traced_runs_match_untraced_and_record_op_spans() {
        let spec = TrafficSpec::open(2, 0.4, 25);
        let (a, ea) = run(AppKind::Register, small_world(3, 6), &spec);
        let obs = Observers::new(true).with_causal(6).with_flight(8);
        let mut eb = Vec::new();
        let b = run_traffic(
            AppKind::Register,
            small_world(3, 6),
            &spec,
            &obs,
            Some(&mut |e| eb.push(e)),
        );
        assert_eq!(a.summary, b.summary, "tracing must not perturb the run");
        assert_eq!(ea, eb, "histories must be identical under tracing");
        let s = obs.causal_summary().expect("recorder was enabled");
        assert_eq!(
            s.op_spans.len() as u64,
            b.summary.issued,
            "every admitted op minted a span"
        );
        let d = s.decision.get("register").expect("decision stats");
        assert_eq!(d.samples, b.summary.completed);
        assert!(d.p50 >= 1, "latencies are at least one virtual round");
        let window = obs.flight_window();
        assert!(!window.is_empty(), "the flight recorder retained rounds");
        assert!(window.len() <= 8, "the window is bounded");
    }

    #[test]
    fn all_apps_drive_end_to_end() {
        for app in AppKind::all() {
            let spec = TrafficSpec::open(2, 0.2, 30).with_query_fraction(0.4);
            let out = run(app, small_world(3, 6), &spec).0;
            let s = &out.summary;
            assert_eq!(s.app, app.name());
            assert!(s.issued > 0, "{}: issued", app.name());
            assert!(
                s.completed > 0,
                "{}: at least some requests complete: {s:?}",
                app.name()
            );
        }
    }
}
