//! Property tests for the audit subsystem: recorded-legal histories
//! are accepted by every checker, seeded mutations (drop an
//! invocation / swap invocation-response rounds / forge a response)
//! are rejected, and dropping a *response* — which merely turns the
//! op into a Jepsen `:info` maybe-op — keeps the history legal. The
//! online auditor is checked against the batch checkers it replaced,
//! and the register's zone test on its own against a brute-force
//! permutation oracle and against the WGL search it replaced.

use check_reference::audit_reference;
use proptest::prelude::*;
use rand::rngs::StdRng;
use reference::check_register_reference;
use virtual_infra::audit::linearizability::{
    check_register, LinResult, RegOp, RegOpKind, INITIAL_VALUE, PENDING,
};
use virtual_infra::audit::{
    audit, audit_register_ops, drop_response, mutate, AuditReport, CheckResult, History,
    HistoryRecorder, Mutation, NemesisFault, NemesisSpec, Verdict,
};
use virtual_infra::core::vi::VnLayout;
use virtual_infra::radio::geometry::Point;
use virtual_infra::radio::mobility::MobilityModel;
use virtual_infra::radio::{AdversaryKind, RadioConfig};
use virtual_infra::traffic::{
    AppKind, AuditRecord, DevicePlan, OpDesc, OpOutcome, TrafficEvent, TrafficSpec, TrafficWorld,
};

/// vi-audit's test-only reference search (the WGL search the zone
/// test replaced), compiled in from the crate's sources; it resolves
/// its imports through this file's.
#[path = "../crates/audit/src/linearizability/reference.rs"]
mod reference;

/// vi-audit's test-only batch checkers (the ones the online auditor
/// replaced), compiled in the same way.
#[path = "../crates/audit/src/check/reference.rs"]
mod check_reference;

fn arb_app() -> impl Strategy<Value = AppKind> {
    (0u8..4).prop_map(|i| AppKind::all()[i as usize])
}

/// One virtual node at (50, 50) with `n` static devices close by.
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

proptest! {
    // Every case runs a full deployment plus up to five audits; keep
    // the count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Satellite requirement: each checker accepts the history its
    /// app actually recorded and rejects every applicable seeded
    /// mutation of it.
    #[test]
    fn checkers_accept_recorded_histories_and_reject_mutations(
        app in arb_app(),
        seed in 0u64..1_000,
        mutation_seed in 0u64..1_000,
    ) {
        let spec = TrafficSpec::open(2, 0.4, 25).with_query_fraction(0.5);
        let (out, history) = HistoryRecorder::record(app, small_world(3, seed), &spec);
        prop_assert!(out.summary.issued > 0);
        let report = audit(&history);
        prop_assert!(
            report.ok(),
            "{}: recorded history must pass: {:?}",
            app.name(),
            report.violations()
        );

        let mut applied = 0;
        for m in Mutation::all() {
            if let Some(broken) = mutate(&history, m, mutation_seed) {
                applied += 1;
                let verdict = audit(&broken);
                prop_assert!(
                    !verdict.ok(),
                    "{}: {m:?} mutation must be rejected",
                    app.name()
                );
            }
        }
        // Histories with any completion always admit Drop and Swap.
        if out.summary.completed > 0 {
            prop_assert!(applied >= 2, "{}: mutations must apply", app.name());
        }

        // Removing a response is NOT a corruption: the op becomes
        // concurrent-forever and the history stays legal.
        if let Some(looser) = drop_response(&history, mutation_seed) {
            let verdict = audit(&looser);
            prop_assert!(
                verdict.ok(),
                "{}: dropping a response must stay legal: {:?}",
                app.name(),
                verdict.violations()
            );
        }
    }
}

/// The fault schedules the oracle test records under: none, and one
/// of each kind, inside the first 600 of the 728 rounds a
/// `small_world` run of 25 virtual rounds takes. The jam and the
/// detector chaos time requests out.
fn nemesis(kind: usize) -> NemesisSpec {
    let faults = match kind {
        0 => Vec::new(),
        1 => vec![NemesisFault::CrashBurst {
            at_round: 300,
            victims: 1,
        }],
        2 => vec![NemesisFault::Jam { window: 200..500 }],
        _ => vec![NemesisFault::DetectorChaos {
            window: 100..600,
            spurious_p: 0.3,
        }],
    };
    NemesisSpec { faults }
}

/// `small_world` with a fourth device (the crash victim; the two
/// client ports are protected) under `nemesis`, on a radio that
/// stabilises after the faults.
fn nemesis_world(nemesis: &NemesisSpec, seed: u64) -> TrafficWorld {
    let mut world = small_world(4, seed);
    world.radio = RadioConfig::stabilizing(10.0, 20.0, 600);
    nemesis.apply_crashes(&mut world.devices, 2);
    world.adversary = nemesis.compile_adversary(&world.adversary);
    world
}

/// Malformed variants of a recorded history, which no driver produces,
/// built at a seeded op: a completion of an id nobody invoked, after
/// the run; a lost protocol record (a grant, release or delivery); a
/// second resolution of a resolved op, by the other client and before
/// its invocation round; and a completion repeated after the run, a
/// read's with a different value (the last one counts).
fn malformed(history: &History, seed: u64) -> Vec<History> {
    let resolutions: Vec<TrafficEvent> = history
        .events
        .iter()
        .filter(|e| {
            matches!(
                e,
                TrafficEvent::Complete { .. } | TrafficEvent::Timeout { .. }
            )
        })
        .copied()
        .collect();
    let end = history.events.iter().fold(0, |vr, e| match *e {
        TrafficEvent::Invoke { vr: v, .. }
        | TrafficEvent::Complete { vr: v, .. }
        | TrafficEvent::Timeout { vr: v, .. } => vr.max(v),
        TrafficEvent::Protocol { .. } => vr,
    });
    let with = |event: TrafficEvent| {
        let mut h = history.clone();
        h.events.push(event);
        h
    };
    let mut out = vec![with(TrafficEvent::Complete {
        id: u64::MAX,
        client: 0,
        vr: end + 1,
        outcome: OpOutcome::Acked,
    })];
    let records: Vec<usize> = (0..history.events.len())
        .filter(|&i| matches!(history.events[i], TrafficEvent::Protocol { .. }))
        .collect();
    if !records.is_empty() {
        let mut lost = history.clone();
        lost.events.remove(records[seed as usize % records.len()]);
        out.push(lost);
    }
    if resolutions.is_empty() {
        return out;
    }
    let victim = resolutions[seed as usize % resolutions.len()];
    let (TrafficEvent::Complete { id, client, .. } | TrafficEvent::Timeout { id, client, .. }) =
        victim
    else {
        unreachable!("filtered to resolutions")
    };
    out.push(with(TrafficEvent::Timeout {
        id,
        client: client ^ 1,
        vr: 0,
    }));
    if let TrafficEvent::Complete { outcome, .. } = victim {
        let outcome = match outcome {
            OpOutcome::ReadValue { tag, value } => OpOutcome::ReadValue {
                tag: tag + 1,
                value: value + 1,
            },
            other => other,
        };
        out.push(with(TrafficEvent::Complete {
            id,
            client,
            vr: end + 2,
            outcome,
        }));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The online auditor's report equals the batch checkers' — every
    /// verdict, witness text, implicated op and count — on recorded
    /// runs of every app under each kind of nemesis, on every seeded
    /// mutation and dropped response of them, and on malformed
    /// variants of them.
    #[test]
    fn the_auditor_reports_what_the_batch_checkers_report(
        app in arb_app(),
        kind in 0usize..4,
        seed in 0u64..1_000,
        mutation_seed in 0u64..1_000,
    ) {
        let spec = TrafficSpec::open(2, 0.4, 25).with_query_fraction(0.5);
        let world = nemesis_world(&nemesis(kind), seed);
        let (out, history) = HistoryRecorder::record(app, world, &spec);
        prop_assert!(out.summary.issued > 0);
        let mut histories = vec![history.clone()];
        histories.extend(Mutation::all().into_iter().filter_map(|m| mutate(&history, m, mutation_seed)));
        histories.extend(drop_response(&history, mutation_seed));
        histories.extend(malformed(&history, mutation_seed));
        for h in &histories {
            prop_assert_eq!(audit(h), audit_reference(h), "{} under nemesis {}", app.name(), kind);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The register check passes every synthetic legal history and
    /// catches a planted stale read in any of them.
    #[test]
    fn wgl_accepts_legal_and_catches_planted_staleness(
        len in 10usize..200,
        seed in 0u64..1_000,
    ) {
        use virtual_infra::audit::synthetic_history;
        let mut ops = synthetic_history(len, seed);
        prop_assert_eq!(check_register(&ops), LinResult::Ok);
        // Plant a write + stale read after the end of the history.
        let t = ops.last().map(|o| o.inv + 10).unwrap_or(0);
        ops.push(RegOp { id: 900_000, kind: RegOpKind::Write { value: 77 }, inv: t, ret: t + 1 });
        ops.push(RegOp { id: 900_001, kind: RegOpKind::Read { returned: 0 }, inv: t + 3, ret: t + 4 });
        prop_assert!(matches!(
            check_register(&ops),
            LinResult::Violation { .. }
        ));
    }
}

fn w(id: u64, value: u64, inv: u64, ret: u64) -> RegOp {
    RegOp {
        id,
        kind: RegOpKind::Write { value },
        inv,
        ret,
    }
}

fn r(id: u64, returned: u64, inv: u64, ret: u64) -> RegOp {
    RegOp {
        id,
        kind: RegOpKind::Read { returned },
        inv,
        ret,
    }
}

/// A random register history of `n` operations. Each takes effect at
/// a linearization point inside its interval, points never decrease,
/// and a read returns the value current at its point — so the history
/// is legal until `noise` (none, or on average a quarter of a read or
/// one read per history) makes a read return something else. The
/// shapes a check could get wrong are all reachable: timed-out writes
/// that did or did not take effect, `max_slack == 0` (`ret == inv`),
/// and, when `allow_full_overlap`, a stride of zero (every interval
/// contains the one shared point). Half the histories are shuffled,
/// since input position breaks invocation ties.
///
/// With `repeats`, writes draw from a domain of one to three values
/// that includes [`INITIAL_VALUE`], so values repeat. Without, write
/// `id` writes `id + 1`, and a noise read returns any of `0..=n + 1`:
/// the initial value, a written value, or one nobody wrote.
fn random_history(
    n: usize,
    allow_full_overlap: bool,
    repeats: bool,
    mut rng: StdRng,
) -> Vec<RegOp> {
    let values = rng.random_range(1..=3u64);
    let noise_values = if repeats { values } else { n as u64 + 1 };
    let max_slack = rng.random_range(0..=3u64);
    let max_stride = rng.random_range(u64::from(!allow_full_overlap)..=3);
    let noise = ([0.0, 0.5, 2.0][rng.random_range(0..3usize)] / n.max(1) as f64).min(1.0);
    let mut current = INITIAL_VALUE;
    let mut point = 0u64;
    let mut ops = Vec::with_capacity(n);
    for id in 0..n as u64 {
        point += rng.random_range(0..=max_stride);
        let inv = point.saturating_sub(rng.random_range(0..=max_slack));
        let ret = point + rng.random_range(0..=max_slack);
        if rng.random_bool(0.5) {
            let value = if repeats {
                rng.random_range(0..=values)
            } else {
                id + 1
            };
            let timed_out = rng.random_bool(0.2);
            if !timed_out || rng.random_bool(0.5) {
                current = value;
            }
            ops.push(w(id, value, inv, if timed_out { PENDING } else { ret }));
        } else {
            let returned = if rng.random_bool(noise) {
                rng.random_range(0..=noise_values)
            } else {
                current
            };
            ops.push(r(id, returned, inv, ret));
        }
    }
    if rng.random_bool(0.5) {
        for i in (1..ops.len()).rev() {
            ops.swap(i, rng.random_range(0..=i));
        }
    }
    ops
}

/// Does some value have two writes, or one write of [`INITIAL_VALUE`]?
fn repeats_a_value(ops: &[RegOp]) -> bool {
    let mut written = vec![INITIAL_VALUE];
    ops.iter().any(|o| match o.kind {
        RegOpKind::Write { value } if written.contains(&value) => true,
        RegOpKind::Write { value } => {
            written.push(value);
            false
        }
        RegOpKind::Read { .. } => false,
    })
}

/// Linearizability by definition, sharing nothing with either search:
/// some subset of the timed-out writes, together with every returned
/// operation, has a permutation in which no operation comes after one
/// it precedes in real time and every read returns the latest write.
fn brute_force_linearizable(ops: &[RegOp]) -> bool {
    let optional: Vec<usize> = (0..ops.len()).filter(|&i| ops[i].ret == PENDING).collect();
    (0u32..1 << optional.len()).any(|mask| {
        let chosen: Vec<RegOp> = (0..ops.len())
            .filter(|i| match optional.iter().position(|o| o == i) {
                Some(bit) => mask >> bit & 1 == 1,
                None => true,
            })
            .map(|i| ops[i])
            .collect();
        has_legal_order(&chosen, &mut Vec::new(), INITIAL_VALUE)
    })
}

/// Extends `placed` (indices into `chosen`) to a full legal order.
fn has_legal_order(chosen: &[RegOp], placed: &mut Vec<usize>, value: u64) -> bool {
    if placed.len() == chosen.len() {
        return true;
    }
    for next in 0..chosen.len() {
        let op = &chosen[next];
        // `op` would follow every placed op: illegal if it precedes one.
        if placed.contains(&next) || placed.iter().any(|&p| op.ret < chosen[p].inv) {
            continue;
        }
        let value = match op.kind {
            RegOpKind::Write { value } => value,
            RegOpKind::Read { returned } if returned == value => value,
            RegOpKind::Read { .. } => continue,
        };
        placed.push(next);
        let found = has_legal_order(chosen, placed, value);
        placed.pop();
        if found {
            return true;
        }
    }
    false
}

/// The ops of `ops` a witness names, one per line, by the `#id` each
/// line starts with (ids are unique in these histories).
fn witness_ops(ops: &[RegOp], witness: &[String]) -> Vec<RegOp> {
    witness
        .iter()
        .map(|line| {
            let id: u64 = line[1..]
                .split_whitespace()
                .next()
                .unwrap()
                .parse()
                .unwrap();
            *ops.iter()
                .find(|o| o.id == id)
                .expect("a witness names input ops")
        })
        .collect()
}

/// `n` ops with no shape at all: any kind, a value below 4, rounds
/// from `0, 1, 2, 5, PENDING - 1, PENDING`, ids repeating too.
fn arbitrary_ops(n: usize, mut rng: StdRng) -> Vec<RegOp> {
    const ROUNDS: [u64; 6] = [0, 1, 2, 5, PENDING - 1, PENDING];
    (0..n as u64)
        .map(|id| {
            let value = rng.random_range(0..4);
            let kind = if rng.random_bool(0.5) {
                RegOpKind::Write { value }
            } else {
                RegOpKind::Read { returned: value }
            };
            let inv = ROUNDS[rng.random_range(0..ROUNDS.len())];
            let ret = ROUNDS[rng.random_range(0..ROUNDS.len())];
            RegOp {
                id: id % 3,
                kind,
                inv,
                ret,
            }
        })
        .collect()
}

/// The verdict without its witness or reason.
fn verdict(result: &LinResult) -> std::mem::Discriminant<LinResult> {
    std::mem::discriminant(result)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Tiny unique-valued histories against the definition: the
    /// check's verdict is the brute-force one, and a witness is at
    /// most six of the input's operations that brute force rejects on
    /// their own.
    #[test]
    fn wgl_agrees_with_brute_force_on_tiny_histories(
        ops in (0usize..=8).prop_perturb(|n, rng| random_history(n, true, false, rng)),
    ) {
        let legal = brute_force_linearizable(&ops);
        match check_register(&ops) {
            LinResult::Ok => prop_assert!(legal, "accepted an illegal history: {ops:?}"),
            LinResult::Violation { witness } => {
                prop_assert!(!legal, "rejected a legal history: {ops:?}");
                prop_assert!((1..=6).contains(&witness.len()), "{witness:?}");
                let core = witness_ops(&ops, &witness);
                prop_assert!(
                    !brute_force_linearizable(&core),
                    "the witness {witness:?} of {ops:?} is legal on its own"
                );
            }
            LinResult::Inconclusive { reason } => {
                prop_assert!(false, "unique values are decided: {reason}")
            }
        }
    }

    /// Tiny histories over a one-to-three-value domain: one that writes
    /// a value twice, or writes the initial value, is inconclusive,
    /// never passed or failed; one that does not is decided as brute
    /// force decides it.
    #[test]
    fn repeated_values_are_inconclusive(
        ops in (0usize..=8).prop_perturb(|n, rng| random_history(n, true, true, rng)),
    ) {
        let result = check_register(&ops);
        if repeats_a_value(&ops) {
            prop_assert!(matches!(result, LinResult::Inconclusive { .. }), "{result:?} on {ops:?}");
        } else {
            prop_assert_eq!(
                matches!(result, LinResult::Ok),
                brute_force_linearizable(&ops),
                "{:?} on {:?}",
                result,
                ops
            );
        }
    }

    /// Larger unique-valued histories against the search this one
    /// replaced: the same verdict wherever the reference concludes.
    #[test]
    fn wgl_matches_the_reference_search(
        ops in (0usize..=60).prop_perturb(|n, rng| random_history(n, n <= 12, false, rng)),
    ) {
        let expected = check_register_reference(&ops);
        if !matches!(expected, LinResult::Inconclusive { .. }) {
            let result = check_register(&ops);
            prop_assert_eq!(verdict(&result), verdict(&expected), "{:?} on {:?}", result, ops);
        }
    }

    /// Any slice of ops gets a verdict without panicking: values and
    /// rounds drawn from a small range and the extremes, including
    /// responses before invocations.
    #[test]
    fn no_op_slice_panics(ops in (0usize..12).prop_perturb(arbitrary_ops)) {
        let _ = check_register(&ops);
    }
}

/// A quiescent point is a cut only if the register value there is
/// forced. Here W(1) and W(2) overlap, everything returns by round 3,
/// and the reads start at round 5: which write won is decided by the
/// reads, so either is legal on its own — including the earlier-
/// invoked one a cut-at-every-quiescent-point checker would rule out —
/// but not both.
#[test]
fn wgl_does_not_cut_at_an_unforced_quiescent_point() {
    let writes = [w(1, 1, 0, 3), w(2, 2, 1, 2)];
    for winner in [1, 2] {
        let ops = [writes[0], writes[1], r(3, winner, 5, 6), r(4, winner, 7, 8)];
        assert_eq!(check_register(&ops), LinResult::Ok, "winner {winner}");
        assert_eq!(check_register_reference(&ops), LinResult::Ok);
    }
    let both = [writes[0], writes[1], r(3, 1, 5, 6), r(4, 2, 7, 8)];
    let verdict = check_register(&both);
    assert!(
        matches!(verdict, LinResult::Violation { .. }),
        "{verdict:?}"
    );
    assert_eq!(verdict, check_register_reference(&both));
    // With the overlap gone the value *is* forced: W(2) is last.
    let sequential = [w(1, 1, 0, 1), w(2, 2, 2, 3), r(3, 1, 5, 6)];
    assert!(matches!(
        check_register(&sequential),
        LinResult::Violation { .. }
    ));
}

/// An overloaded run must still get a verdict. The catalog
/// `mall_rush` register without its arrival wave carries 1.0 req/vr;
/// at 1.02 the queue grows without bound and four operations in five
/// time out. Every timed-out write is optional: a search over the
/// orders doubles its state space per write, but to the zone test an
/// unread timed-out write is a zone `[inv, ∞]` that nothing contains
/// (`linearizable=INCONCLUSIVE` would fail `ok()`, and vi-fuzz would
/// file it as an audit finding).
#[test]
fn overloaded_register_run_audits_conclusively() {
    use virtual_infra::scenario::{catalog, LoadMode, WorkloadSpec};
    let mut spec = catalog::scenario("mall_rush").expect("catalog has mall_rush");
    spec.populations.truncate(2);
    let WorkloadSpec::Traffic { traffic, audit, .. } = &mut spec.workload else {
        panic!("mall_rush is a traffic scenario");
    };
    traffic.mode = LoadMode::Open {
        rate_per_round: 1.02,
        phases: Vec::new(),
    };
    traffic.virtual_rounds = 1_000;
    *audit = true;
    let out = spec.run(1);
    let report = out.audit.expect("audited run");
    assert!(
        report.timeouts * 2 > report.ops,
        "the run must be overloaded: {} of {} timed out",
        report.timeouts,
        report.ops
    );
    assert!(report.ok(), "{}", report.verdict_summary());
    // The timed-out writes count as checked.
    let lin = &report.checks[1];
    assert_eq!(lin.name, "linearizable");
    assert!(lin.checked > report.ops - report.timeouts, "{lin:?}");
}
