//! Per-app consistency checkers, run by the [`Auditor`] over a
//! traffic run's operation history as the run produces it.
//!
//! The auditor takes one event at a time — `vi_traffic::run_traffic`
//! hands each to its sink the moment the driver produces it — and keeps
//! only what its checks need, never the history itself:
//!
//! * `well_formed` (every app): each invoked op's client, invocation
//!   round and description, and whether it has resolved; a resolution
//!   is checked against its invocation when it arrives.
//! * `linearizable` (register): one [`RegOp`] per write or read, in
//!   invocation order, resolved in place — a read that never returned
//!   a value is dropped at the end — plus each op's client. The zone
//!   test runs over them in [`Auditor::finish`].
//! * `mutual_exclusion` and `fifo_grants` (mutex): each client's
//!   grant/release intervals, the grant/release alternation as the
//!   records arrive, and each client's acquire and completion order.
//! * `monotone_freshness` (tracking): the reports and every answered
//!   lookup.
//! * `delivery_once` (georouting): the sends, every delivery record
//!   and every completed send.
//!
//! [`audit`] feeds a stored [`History`] through an auditor. A report is
//! the one the batch checkers this replaced (the test-only `reference`
//! module) give the same history, whenever the history invokes each id
//! at most once and before any resolution of it — as the driver does.
//!
//! All checkers share two conventions:
//!
//! * **Timeouts are information-free.** A timed-out operation may or
//!   may not have taken effect (Jepsen's `:info`); checkers treat it
//!   as concurrent with everything after its invocation and never
//!   require it to have happened — but also never assume it didn't.
//! * **Determinism.** Verdicts and witnesses are pure functions of the
//!   event sequence; no hash-order or wall-clock state leaks in, so
//!   audit reports are byte-identical across sweep workers.

use crate::history::History;
use crate::linearizability::{self, LinResult, RegOp, RegOpKind, INITIAL_VALUE, PENDING};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use vi_traffic::{AppKind, AuditRecord, OpDesc, OpOutcome, TrafficEvent};

/// A checker's verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// The property holds over the recorded history.
    Pass,
    /// The property is violated; the result carries a witness.
    Violation,
    /// The checker could not reach a verdict: the register history
    /// writes a value twice, which the zone test does not decide.
    /// Distinct from [`Verdict::Violation`]: nothing was proven wrong
    /// — but audits gate conservatively, so it still fails
    /// [`AuditReport::ok`].
    Inconclusive,
}

impl Verdict {
    /// Upper-case table label (`ok` / `VIOLATION` / `INCONCLUSIVE`).
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Pass => "ok",
            Verdict::Violation => "VIOLATION",
            Verdict::Inconclusive => "INCONCLUSIVE",
        }
    }
}

/// One checker's result.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CheckResult {
    /// Checker name (`linearizable`, `mutual_exclusion`, …).
    pub name: String,
    /// The verdict.
    pub verdict: Verdict,
    /// How many operations/records the checker examined.
    pub checked: u64,
    /// On violation: a minimized, human-readable counterexample.
    pub witness: Option<String>,
    /// Operation ids implicated by the witness (empty when the
    /// checker's counterexample has no per-op structure). Causal
    /// tracing joins these against its op spans to carve the causal
    /// slice of an incident bundle.
    pub witness_ops: Vec<u64>,
}

impl CheckResult {
    fn pass(name: &str, checked: u64) -> Self {
        CheckResult {
            name: name.to_string(),
            verdict: Verdict::Pass,
            checked,
            witness: None,
            witness_ops: Vec::new(),
        }
    }

    fn violation(name: &str, checked: u64, witness: String) -> Self {
        CheckResult {
            name: name.to_string(),
            verdict: Verdict::Violation,
            checked,
            witness: Some(witness),
            witness_ops: Vec::new(),
        }
    }

    fn violation_with_ops(name: &str, checked: u64, witness: String, ops: Vec<u64>) -> Self {
        CheckResult {
            witness_ops: ops,
            ..CheckResult::violation(name, checked, witness)
        }
    }

    fn inconclusive(name: &str, checked: u64, note: String) -> Self {
        CheckResult {
            name: name.to_string(),
            verdict: Verdict::Inconclusive,
            checked,
            witness: Some(note),
            witness_ops: Vec::new(),
        }
    }

    /// `true` if the property held.
    pub fn ok(&self) -> bool {
        self.verdict == Verdict::Pass
    }
}

/// The audit verdicts of one run: one [`CheckResult`] per checker the
/// app answers to.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AuditReport {
    /// The audited app (`register`, `mutex`, …).
    pub app: String,
    /// Operations invoked in the audited history.
    pub ops: u64,
    /// Operations that timed out (`:info` ops).
    pub timeouts: u64,
    /// Per-checker results.
    pub checks: Vec<CheckResult>,
}

impl AuditReport {
    /// `true` if every checker passed.
    pub fn ok(&self) -> bool {
        self.checks.iter().all(CheckResult::ok)
    }

    /// The failed checks, if any.
    pub fn violations(&self) -> Vec<&CheckResult> {
        self.checks.iter().filter(|c| !c.ok()).collect()
    }

    /// `name → verdict` in check order, for table rows.
    pub fn verdict_summary(&self) -> String {
        self.checks
            .iter()
            .map(|c| format!("{}={}", c.name, c.verdict.label()))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Runs every checker `history.app` answers to: feeds the stored
/// events to an [`Auditor`] and finishes it.
pub fn audit(history: &History) -> AuditReport {
    let mut auditor = Auditor::new(history.app);
    for event in &history.events {
        auditor.observe(event);
    }
    auditor.finish()
}

/// Does `outcome` answer `op`? (A `Write` must be `Acked`, a `Read`
/// must carry a value, and so on.)
fn outcome_matches(op: &OpDesc, outcome: &OpOutcome) -> bool {
    matches!(
        (op, outcome),
        (OpDesc::Write { .. }, OpOutcome::Acked)
            | (OpDesc::Read, OpOutcome::ReadValue { .. })
            | (OpDesc::Acquire, OpOutcome::Granted)
            | (OpDesc::Report { .. }, OpOutcome::Reported)
            | (OpDesc::Lookup { .. }, OpOutcome::Answered { .. })
            | (OpDesc::Send { .. }, OpOutcome::Delivered)
    )
}

/// The op ids a register witness names. Every witness line starts
/// with `#<id> ` (see `RegOp::describe`).
fn witness_op_ids(witness: &[String]) -> Vec<u64> {
    witness
        .iter()
        .filter_map(|w| {
            w.strip_prefix('#')
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|id| id.parse().ok())
        })
        .collect()
}

/// Runs the zone test over `ops` and wraps the verdict.
fn linearizable_result(ops: &[RegOp]) -> CheckResult {
    let checked = ops.len() as u64;
    match linearizability::check_register(ops) {
        LinResult::Ok => CheckResult::pass("linearizable", checked),
        LinResult::Violation { witness } => {
            let ids = witness_op_ids(&witness);
            CheckResult::violation_with_ops("linearizable", checked, witness.join("; "), ids)
        }
        LinResult::Inconclusive { reason } => {
            CheckResult::inconclusive("linearizable", checked, reason)
        }
    }
}

/// Audits a bag of pre-extracted register operations directly —
/// the entry point for workloads (like the stale-read
/// `MajorityRegister` baseline) that produce [`RegOp`]s without going
/// through the traffic driver's events.
pub fn audit_register_ops(app: &str, ops: &[RegOp]) -> AuditReport {
    let pending = ops.iter().filter(|o| o.ret == PENDING).count() as u64;
    AuditReport {
        app: app.to_string(),
        ops: ops.len() as u64,
        timeouts: pending,
        checks: vec![linearizable_result(ops)],
    }
}

/// An invoked op not kept as a [`RegOp`] (all but a register run's
/// writes and reads), as `well_formed` and the mutex, tracking and
/// georouting checks need it.
#[derive(Clone, Copy, Debug)]
struct Invoked {
    id: u64,
    client: u32,
    /// Invocation round.
    inv: u64,
    /// Round of its latest completion, [`PENDING`] before one.
    ret: u64,
    op: OpDesc,
    resolved: bool,
}

/// Where an invoked op is kept: an index into [`Auditor::register`]
/// or [`Auditor::other`].
#[derive(Clone, Copy)]
enum At {
    Register(usize),
    Other(usize),
}

/// A client's lock-holding interval: grant heard at `granted`,
/// release broadcast at `released` ([`PENDING`] if never released —
/// the server then never grants again, so an open interval can only
/// conflict with a *later* grant, which would be a real violation).
#[derive(Clone, Copy, Debug)]
struct HoldInterval {
    client: u32,
    granted: u64,
    released: u64,
}

/// The protocol-record half of `fifo_grants`, checked as the records
/// arrive: per client, grants and releases alternate.
#[derive(Default)]
struct Alternation {
    holding: BTreeMap<u32, bool>,
    grants: BTreeMap<u32, u64>,
    checked: u64,
    /// The first break, which ends the check.
    failure: Option<CheckResult>,
}

impl Alternation {
    fn observe(&mut self, record: AuditRecord) {
        if self.failure.is_some() {
            return;
        }
        let problem = match record {
            AuditRecord::Granted { client, vr } => {
                self.checked += 1;
                *self.grants.entry(client).or_default() += 1;
                (self.holding.insert(client, true) == Some(true)).then(|| {
                    format!("client {client} re-granted at vr {vr} without a release between")
                })
            }
            AuditRecord::Released { client, vr } => (self.holding.insert(client, false)
                != Some(true))
            .then(|| format!("client {client} released at vr {vr} without holding the lock")),
            _ => None,
        };
        self.failure = problem.map(|msg| CheckResult::violation("fifo_grants", self.checked, msg));
    }
}

/// A lookup answer, for `monotone_freshness`.
#[derive(Clone, Copy, Debug)]
struct Answer {
    id: u64,
    object: u32,
    vr: u64,
    cell: Option<(u32, u32)>,
}

/// What the app's own checks keep beyond the invoked ops.
enum AppLog {
    /// The register's ops live in [`Auditor::register`].
    Register,
    Mutex {
        /// Each client's holding intervals, in grant order.
        holds: BTreeMap<u32, Vec<HoldInterval>>,
        alternation: Alternation,
        /// Per completing client, the ids it completed, in order.
        completed: BTreeMap<u32, Vec<u64>>,
    },
    Tracking {
        /// Answered lookups, in completion order.
        answers: Vec<Answer>,
    },
    Georouting {
        /// Delivery records in arrival order: `(vn, payload, vr)`.
        deliveries: Vec<(usize, u32, u64)>,
        /// Sends completed as delivered, in completion order: `(id,
        /// payload)`.
        completed: Vec<(u64, u32)>,
    },
}

/// Runs every checker an app answers to over its operation history,
/// one event at a time: [`Auditor::observe`] each event in driver
/// order, then [`Auditor::finish`] for the report. What it keeps per
/// app is listed in the [module docs](self); for the register that is
/// one [`RegOp`] and one client per write or read.
pub struct Auditor {
    app: AppKind,
    /// Invoked operations.
    ops: u64,
    /// Timed-out operations.
    timeouts: u64,
    /// Latest invoked id.
    last_id: Option<u64>,
    /// Every invoked id exceeded the one before (as in every driver
    /// history): ops are found by binary search, not by a scan.
    increasing: bool,
    /// `well_formed`: events examined, and its first four problems.
    examined: u64,
    problems: Vec<String>,
    /// Ids resolved with no invocation of them before.
    orphans: BTreeSet<u64>,
    /// Register runs: each write and read, in invocation order.
    register: Vec<RegOp>,
    /// Per `register` entry: its client and whether it has resolved.
    register_clients: Vec<(u32, bool)>,
    /// Every other invoked op, in invocation order.
    other: Vec<Invoked>,
    log: AppLog,
}

/// The position of op `id` among `items` (in invocation order, keyed
/// by `key`): binary search while ids have increased, else the latest
/// match of a scan.
fn find<T>(items: &[T], id: u64, increasing: bool, key: impl Fn(&T) -> u64) -> Option<usize> {
    if increasing {
        items.binary_search_by_key(&id, key).ok()
    } else {
        items.iter().rposition(|t| key(t) == id)
    }
}

impl Auditor {
    /// An auditor for a run of `app`.
    pub fn new(app: AppKind) -> Self {
        let log = match app {
            AppKind::Register => AppLog::Register,
            AppKind::Mutex => AppLog::Mutex {
                holds: BTreeMap::new(),
                alternation: Alternation::default(),
                completed: BTreeMap::new(),
            },
            AppKind::Tracking => AppLog::Tracking {
                answers: Vec::new(),
            },
            AppKind::Georouting => AppLog::Georouting {
                deliveries: Vec::new(),
                completed: Vec::new(),
            },
        };
        Auditor {
            app,
            ops: 0,
            timeouts: 0,
            last_id: None,
            increasing: true,
            examined: 0,
            problems: Vec::new(),
            orphans: BTreeSet::new(),
            register: Vec::new(),
            register_clients: Vec::new(),
            other: Vec::new(),
            log,
        }
    }

    /// Takes the run's next event.
    pub fn observe(&mut self, event: &TrafficEvent) {
        match *event {
            TrafficEvent::Invoke { id, client, vr, op } => self.invoke(id, client, vr, op),
            TrafficEvent::Complete {
                id,
                client,
                vr,
                outcome,
            } => self.complete(id, client, vr, outcome),
            TrafficEvent::Timeout { id, client, vr } => self.time_out(id, client, vr),
            TrafficEvent::Protocol { record } => self.protocol(record),
        }
    }

    /// Notes a `well_formed` problem; the first four make the witness.
    fn problem(&mut self, problem: String) {
        if self.problems.len() < 4 {
            self.problems.push(problem);
        }
    }

    fn locate(&self, id: u64) -> Option<At> {
        find(&self.register, id, self.increasing, |o| o.id)
            .map(At::Register)
            .or_else(|| find(&self.other, id, self.increasing, |o| o.id).map(At::Other))
    }

    /// The invocation at `at`: client, round and op.
    fn invocation(&self, at: At) -> (u32, u64, OpDesc) {
        match at {
            At::Register(i) => {
                let o = &self.register[i];
                let op = match o.kind {
                    RegOpKind::Write { value } => OpDesc::Write { value },
                    RegOpKind::Read { .. } => OpDesc::Read,
                };
                (self.register_clients[i].0, o.inv, op)
            }
            At::Other(i) => {
                let o = &self.other[i];
                (o.client, o.inv, o.op)
            }
        }
    }

    /// Whether the op at `at` has resolved.
    fn resolved(&mut self, at: At) -> &mut bool {
        match at {
            At::Register(i) => &mut self.register_clients[i].1,
            At::Other(i) => &mut self.other[i].resolved,
        }
    }

    fn invoke(&mut self, id: u64, client: u32, inv: u64, op: OpDesc) {
        self.ops += 1;
        self.examined += 1;
        // While ids increase, a new highest id was never invoked before.
        let fresh = self.last_id.is_none_or(|last| last < id);
        let earlier = if self.increasing && fresh {
            None
        } else {
            self.locate(id)
        };
        let resolved = match earlier {
            Some(at) => {
                self.problem(format!("op #{id} invoked twice"));
                *self.resolved(at)
            }
            None => self.orphans.remove(&id),
        };
        self.increasing &= fresh;
        self.last_id = Some(id);
        let kind = match op {
            OpDesc::Write { value } => Some(RegOpKind::Write { value }),
            OpDesc::Read => Some(RegOpKind::Read {
                returned: INITIAL_VALUE,
            }),
            _ => None,
        };
        match kind.filter(|_| self.app == AppKind::Register) {
            // A read's `ret` stays PENDING until a value answers it.
            Some(kind) => {
                self.register.push(RegOp {
                    id,
                    kind,
                    inv,
                    ret: PENDING,
                });
                self.register_clients.push((client, resolved));
            }
            None => self.other.push(Invoked {
                id,
                client,
                inv,
                ret: PENDING,
                op,
                resolved,
            }),
        }
    }

    /// The `well_formed` checks of a resolution of `id` by `client` at
    /// `vr` — a completion with `outcome`, or a timeout — against its
    /// invocation. Returns where the op is kept and what it was, if it
    /// was invoked.
    fn resolution(
        &mut self,
        id: u64,
        client: u32,
        vr: u64,
        outcome: Option<OpOutcome>,
    ) -> Option<(At, OpDesc)> {
        let (noun, verb, by) = match outcome {
            Some(_) => ("completion", "completed", "completed by"),
            None => ("timeout", "timed out", "timed out at"),
        };
        let Some(at) = self.locate(id) else {
            self.problem(format!("{noun} of #{id} without invocation"));
            if !self.orphans.insert(id) {
                self.problem(format!("op #{id} resolved twice"));
            }
            return None;
        };
        let (c, inv, op) = self.invocation(at);
        if c != client {
            self.problem(format!("#{id} invoked by client {c} but {by} {client}"));
        }
        if vr < inv {
            self.problem(format!(
                "#{id} {verb} at vr {vr} before its invocation at {inv}"
            ));
        }
        if let Some(outcome) = outcome.filter(|o| !outcome_matches(&op, o)) {
            self.problem(format!("#{id}: outcome {outcome:?} does not answer {op:?}"));
        }
        if std::mem::replace(self.resolved(at), true) {
            self.problem(format!("op #{id} resolved twice"));
        }
        Some((at, op))
    }

    fn complete(&mut self, id: u64, client: u32, vr: u64, outcome: OpOutcome) {
        self.examined += 1;
        if let AppLog::Mutex { completed, .. } = &mut self.log {
            completed.entry(client).or_default().push(id);
        }
        let Some((at, op)) = self.resolution(id, client, vr, Some(outcome)) else {
            return;
        };
        match at {
            // The latest completion decides: a write returned then, a
            // read counts only if it carries a value.
            At::Register(i) => {
                let o = &mut self.register[i];
                o.ret = vr;
                if let RegOpKind::Read { returned } = &mut o.kind {
                    match outcome {
                        OpOutcome::ReadValue { value, .. } => *returned = value,
                        _ => o.ret = PENDING,
                    }
                }
            }
            At::Other(i) => {
                self.other[i].ret = vr;
                match (&mut self.log, op, outcome) {
                    (
                        AppLog::Tracking { answers },
                        OpDesc::Lookup { object },
                        OpOutcome::Answered { cell },
                    ) => answers.push(Answer {
                        id,
                        object,
                        vr,
                        cell,
                    }),
                    (
                        AppLog::Georouting { completed, .. },
                        OpDesc::Send { payload, .. },
                        OpOutcome::Delivered,
                    ) => completed.push((id, payload)),
                    _ => {}
                }
            }
        }
    }

    fn time_out(&mut self, id: u64, client: u32, vr: u64) {
        self.timeouts += 1;
        self.examined += 1;
        self.resolution(id, client, vr, None);
    }

    fn protocol(&mut self, record: AuditRecord) {
        match &mut self.log {
            AppLog::Mutex {
                holds, alternation, ..
            } => {
                alternation.observe(record);
                match record {
                    // A grant opens an interval, the client's next
                    // release closes its most recent open one.
                    AuditRecord::Granted { client, vr } => {
                        holds.entry(client).or_default().push(HoldInterval {
                            client,
                            granted: vr,
                            released: PENDING,
                        });
                    }
                    AuditRecord::Released { client, vr } => {
                        if let Some(open) = holds
                            .entry(client)
                            .or_default()
                            .iter_mut()
                            .rev()
                            .find(|iv| iv.released == PENDING)
                        {
                            open.released = vr;
                        }
                    }
                    _ => {}
                }
            }
            AppLog::Georouting { deliveries, .. } => {
                if let AuditRecord::Delivered { vn, payload, vr } = record {
                    deliveries.push((vn, payload, vr));
                }
            }
            AppLog::Register | AppLog::Tracking { .. } => {}
        }
    }

    /// Runs the checks over what the events left and reports.
    pub fn finish(self) -> AuditReport {
        let well_formed = if self.problems.is_empty() {
            CheckResult::pass("well_formed", self.examined)
        } else {
            CheckResult::violation("well_formed", self.examined, self.problems.join("; "))
        };
        let mut checks = vec![well_formed];
        match self.log {
            AppLog::Register => {
                // Freed before the search, whose peak it would raise.
                drop(self.register_clients);
                let mut ops = self.register;
                ops.retain(|o| o.ret != PENDING || matches!(o.kind, RegOpKind::Write { .. }));
                checks.push(linearizable_result(&ops));
            }
            AppLog::Mutex {
                holds,
                alternation,
                completed,
            } => {
                checks.push(check_mutual_exclusion(holds));
                checks.push(check_fifo_grants(alternation, &self.other, &completed));
            }
            AppLog::Tracking { answers } => {
                checks.push(check_monotone_freshness(&self.other, &answers));
            }
            AppLog::Georouting {
                deliveries,
                completed,
            } => checks.push(check_delivery_once(&self.other, &deliveries, &completed)),
        }
        AuditReport {
            app: self.app.name().to_string(),
            ops: self.ops,
            timeouts: self.timeouts,
            checks,
        }
    }
}

/// Mutual exclusion: no two clients' holding intervals strictly
/// overlap. Touching is legal — the server can process a release and
/// emit the next grant within the same virtual round, so client B's
/// grant may be heard in the round client A's release hit the channel.
fn check_mutual_exclusion(holds: BTreeMap<u32, Vec<HoldInterval>>) -> CheckResult {
    let mut intervals: Vec<HoldInterval> = holds.into_values().flatten().collect();
    intervals.sort_by_key(|iv| (iv.granted, iv.client));
    let checked = intervals.len() as u64;
    let mut max_end: u64 = 0;
    let mut owner: u32 = u32::MAX;
    for iv in &intervals {
        if iv.granted < max_end && iv.client != owner {
            return CheckResult::violation(
                "mutual_exclusion",
                checked,
                format!(
                    "client {} granted at vr {} while client {} still held the lock (until {})",
                    iv.client,
                    iv.granted,
                    owner,
                    if max_end == PENDING {
                        "∞".to_string()
                    } else {
                        max_end.to_string()
                    }
                ),
            );
        }
        if iv.released > max_end {
            max_end = iv.released;
            owner = iv.client;
        }
    }
    CheckResult::pass("mutual_exclusion", checked)
}

/// FIFO-grant discipline, client-observably: per client, grants and
/// releases alternate (no re-grant without a release between), no
/// client receives more grants than it invoked acquires, and each
/// client's acquires complete in invocation order.
fn check_fifo_grants(
    alternation: Alternation,
    invoked: &[Invoked],
    completed: &BTreeMap<u32, Vec<u64>>,
) -> CheckResult {
    if let Some(failure) = alternation.failure {
        return failure;
    }
    let checked = alternation.checked;
    let mut asked: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for o in invoked.iter().filter(|o| o.op == OpDesc::Acquire) {
        asked.entry(o.client).or_default().push(o.id);
    }
    // Grants never exceed invoked acquires.
    for (&client, &granted) in &alternation.grants {
        let acquires = asked.get(&client).map_or(0, Vec::len) as u64;
        if granted > acquires {
            return CheckResult::violation(
                "fifo_grants",
                checked,
                format!("client {client} got {granted} grants for {acquires} acquires"),
            );
        }
    }
    // Per-client completion order == invocation order.
    for (client, done) in completed {
        let done_ids: BTreeSet<u64> = done.iter().copied().collect();
        let asked = asked.get(client).map_or(&[][..], Vec::as_slice);
        let in_order = asked.iter().filter(|id| done_ids.contains(id));
        if !in_order.eq(done) {
            return CheckResult::violation(
                "fifo_grants",
                checked,
                format!("client {client} completed acquires out of invocation order: {done:?}"),
            );
        }
    }
    CheckResult::pass("fifo_grants", checked)
}

/// One object's candidate reports: `(round, cell)` in round order.
type ReportSeq = Vec<(u64, (u32, u32))>;

/// Monotone freshness for the tracking service: every answered lookup
/// returns a cell some report for that object actually carried, the
/// report predates the answer, and successive answers never step
/// backwards through the object's report sequence (the virtual node's
/// state only moves forward). `None` answers are legal only before the
/// first `Some` — the node never forgets an object.
fn check_monotone_freshness(invoked: &[Invoked], answers: &[Answer]) -> CheckResult {
    // Candidate reports per object: completed (cell, send round) and
    // timed-out (cell, invocation round — the broadcast, if it ever
    // happened, came no earlier) reports, in round order.
    let mut reports: BTreeMap<u32, ReportSeq> = BTreeMap::new();
    for o in invoked {
        if let OpDesc::Report { object, cell } = o.op {
            let vr = if o.ret == PENDING { o.inv } else { o.ret };
            reports.entry(object).or_default().push((vr, cell));
        }
    }
    for seq in reports.values_mut() {
        seq.sort_unstable();
    }
    // Answers per object, in completion (chronological) order.
    let mut checked = 0u64;
    let mut floor: BTreeMap<u32, usize> = BTreeMap::new();
    let mut seen_some: BTreeMap<u32, bool> = BTreeMap::new();
    for &Answer {
        id,
        object,
        vr,
        cell,
    } in answers
    {
        checked += 1;
        match cell {
            None => {
                if seen_some.get(&object).copied().unwrap_or(false) {
                    return CheckResult::violation(
                        "monotone_freshness",
                        checked,
                        format!(
                            "lookup #{id} of object {object} answered unknown at vr {vr} \
                             after an earlier lookup already saw a cell"
                        ),
                    );
                }
            }
            Some(c) => {
                let seq = reports.get(&object).map(Vec::as_slice).unwrap_or(&[]);
                let p = floor.get(&object).copied().unwrap_or(0);
                match seq[p.min(seq.len())..]
                    .iter()
                    .position(|&(rvr, rcell)| rcell == c && rvr < vr)
                {
                    Some(offset) => {
                        floor.insert(object, p + offset);
                        seen_some.insert(object, true);
                    }
                    None => {
                        return CheckResult::violation(
                            "monotone_freshness",
                            checked,
                            format!(
                                "lookup #{id} of object {object} answered {c:?} at vr {vr}, \
                                 which no report at or after the last answered one justifies"
                            ),
                        );
                    }
                }
            }
        }
    }
    CheckResult::pass("monotone_freshness", checked)
}

/// Delivery soundness for georouting: every packet is delivered at
/// most once, only at the virtual node it was addressed to, never
/// before it was sent, and every completed send is backed by a raw
/// delivery record.
fn check_delivery_once(
    invoked: &[Invoked],
    deliveries: &[(usize, u32, u64)],
    completed: &[(u64, u32)],
) -> CheckResult {
    let sends: BTreeMap<u32, (u64, usize, u64)> = invoked
        .iter()
        .filter_map(|o| match o.op {
            OpDesc::Send { vn, payload } => Some((payload, (o.id, vn, o.inv))),
            _ => None,
        })
        .collect();
    let mut delivered: BTreeMap<u32, u64> = BTreeMap::new();
    let mut checked = 0u64;
    for &(vn, payload, vr) in deliveries {
        checked += 1;
        if let Some(first) = delivered.insert(payload, vr) {
            return CheckResult::violation(
                "delivery_once",
                checked,
                format!("payload {payload} delivered twice (vr {first} and vr {vr})"),
            );
        }
        match sends.get(&payload) {
            None => {
                return CheckResult::violation(
                    "delivery_once",
                    checked,
                    format!("payload {payload} delivered at vn {vn} but never sent"),
                );
            }
            Some(&(id, dst, inv)) => {
                if dst != vn {
                    return CheckResult::violation(
                        "delivery_once",
                        checked,
                        format!("send #{id} addressed vn {dst} but payload surfaced at vn {vn}"),
                    );
                }
                if vr < inv {
                    return CheckResult::violation(
                        "delivery_once",
                        checked,
                        format!("payload {payload} delivered at vr {vr} before its send at {inv}"),
                    );
                }
            }
        }
    }
    // Every completed send is backed by a delivery record.
    for &(id, payload) in completed {
        if !delivered.contains_key(&payload) {
            return CheckResult::violation(
                "delivery_once",
                checked,
                format!("send #{id} completed but payload {payload} was never delivered"),
            );
        }
    }
    CheckResult::pass("delivery_once", checked)
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::Event;

    fn h(app: AppKind, events: Vec<Event>) -> History {
        History::from_events(app, events)
    }

    /// The named check of `history`'s audit, whose report must be the
    /// batch checkers'.
    fn check(history: &History, name: &str) -> CheckResult {
        let report = audit(history);
        assert_eq!(report, reference::audit_reference(history));
        report
            .checks
            .into_iter()
            .find(|c| c.name == name)
            .expect("the app answers to the check")
    }

    fn inv(id: u64, client: u32, vr: u64, op: OpDesc) -> Event {
        Event::Invoke { id, client, vr, op }
    }

    fn done(id: u64, client: u32, vr: u64, outcome: OpOutcome) -> Event {
        Event::Complete {
            id,
            client,
            vr,
            outcome,
        }
    }

    fn proto(record: AuditRecord) -> Event {
        Event::Protocol { record }
    }

    #[test]
    fn well_formed_accepts_clean_and_rejects_orphans() {
        let good = h(
            AppKind::Register,
            vec![
                inv(1, 0, 1, OpDesc::Write { value: 1 }),
                done(1, 0, 3, OpOutcome::Acked),
                inv(2, 1, 4, OpDesc::Read),
                Event::Timeout {
                    id: 2,
                    client: 1,
                    vr: 30,
                },
            ],
        );
        assert!(check(&good, "well_formed").ok());
        let orphan = h(AppKind::Register, vec![done(9, 0, 3, OpOutcome::Acked)]);
        let res = check(&orphan, "well_formed");
        assert!(!res.ok());
        assert!(res.witness.unwrap().contains("without invocation"));
    }

    #[test]
    fn well_formed_rejects_mismatched_outcome_shape() {
        let bad = h(
            AppKind::Register,
            vec![
                inv(1, 0, 1, OpDesc::Write { value: 1 }),
                done(1, 0, 3, OpOutcome::ReadValue { tag: 1, value: 1 }),
            ],
        );
        assert!(!check(&bad, "well_formed").ok());
    }

    /// Malformed histories the driver never produces still get the
    /// batch checkers' report, witness text and counts included: an
    /// orphan completion completed again, a double resolution that
    /// breaks every rule at once (its fifth problem is cut), a read
    /// completed twice (the later, stale value wins), and ids invoked
    /// out of order (found by a scan, not a binary search).
    #[test]
    fn malformed_histories_audit_like_the_batch_checkers() {
        let base = vec![
            inv(1, 0, 1, OpDesc::Write { value: 1 }),
            done(1, 0, 3, OpOutcome::Acked),
            inv(2, 1, 4, OpDesc::Read),
            done(2, 1, 6, OpOutcome::ReadValue { tag: 1, value: 1 }),
        ];
        let mut orphan = base.clone();
        orphan.push(done(7, 0, 8, OpOutcome::Acked));
        orphan.push(done(7, 1, 9, OpOutcome::Acked));
        let mut double = base.clone();
        double.push(done(2, 0, 2, OpOutcome::Acked));
        double.push(Event::Timeout {
            id: 1,
            client: 0,
            vr: 9,
        });
        let mut twice = base.clone();
        twice.push(done(2, 1, 7, OpOutcome::ReadValue { tag: 0, value: 0 }));
        let shuffled = vec![
            inv(5, 0, 1, OpDesc::Write { value: 5 }),
            inv(3, 1, 2, OpDesc::Read),
            done(3, 1, 4, OpOutcome::ReadValue { tag: 1, value: 5 }),
            done(5, 0, 5, OpOutcome::Acked),
        ];
        for (events, name, needle) in [
            (orphan, "well_formed", "op #7 resolved twice"),
            (
                double,
                "well_formed",
                "#2: outcome Acked does not answer Read",
            ),
            (twice, "linearizable", "R→0"),
            (shuffled, "linearizable", ""),
        ] {
            let res = check(&h(AppKind::Register, events), name);
            assert!(
                res.witness.as_deref().unwrap_or("").contains(needle),
                "{needle}: {res:?}"
            );
        }
    }

    #[test]
    fn register_audit_passes_clean_and_fails_stale() {
        let clean = h(
            AppKind::Register,
            vec![
                inv(1, 0, 1, OpDesc::Write { value: 1 }),
                done(1, 0, 3, OpOutcome::Acked),
                inv(2, 1, 4, OpDesc::Read),
                done(2, 1, 6, OpOutcome::ReadValue { tag: 1, value: 1 }),
            ],
        );
        assert!(audit(&clean).ok(), "{:?}", audit(&clean));
        let stale = h(
            AppKind::Register,
            vec![
                inv(1, 0, 1, OpDesc::Write { value: 1 }),
                done(1, 0, 3, OpOutcome::Acked),
                inv(2, 1, 4, OpDesc::Read),
                done(2, 1, 6, OpOutcome::ReadValue { tag: 0, value: 0 }),
            ],
        );
        let report = audit(&stale);
        assert!(!report.ok());
        let bad = &report.violations()[0];
        assert_eq!(bad.name, "linearizable");
        assert!(bad.witness.as_ref().unwrap().contains("R→0"));
        assert!(
            bad.witness_ops.contains(&2),
            "stale read #2 must be implicated: {:?}",
            bad.witness_ops
        );
    }

    #[test]
    fn direct_register_op_audit_matches_history_audit() {
        use crate::linearizability::{RegOp, RegOpKind};
        let ops = vec![
            RegOp {
                id: 1,
                kind: RegOpKind::Write { value: 7 },
                inv: 1,
                ret: 3,
            },
            RegOp {
                id: 2,
                kind: RegOpKind::Read { returned: 0 },
                inv: 4,
                ret: 6,
            },
        ];
        let report = audit_register_ops("majority_register", &ops);
        assert_eq!(report.app, "majority_register");
        assert_eq!(report.ops, 2);
        assert!(!report.ok());
        assert_eq!(report.violations()[0].name, "linearizable");
        assert!(report.violations()[0].witness_ops.contains(&2));
        let clean = vec![ops[0]];
        assert!(audit_register_ops("majority_register", &clean).ok());
    }

    #[test]
    fn exclusion_allows_touching_and_rejects_overlap() {
        let touching = h(
            AppKind::Mutex,
            vec![
                proto(AuditRecord::Granted { client: 0, vr: 5 }),
                proto(AuditRecord::Released { client: 0, vr: 8 }),
                proto(AuditRecord::Granted { client: 1, vr: 8 }),
                proto(AuditRecord::Released { client: 1, vr: 10 }),
            ],
        );
        assert!(check(&touching, "mutual_exclusion").ok());
        let overlap = h(
            AppKind::Mutex,
            vec![
                proto(AuditRecord::Granted { client: 0, vr: 5 }),
                proto(AuditRecord::Granted { client: 1, vr: 6 }),
                proto(AuditRecord::Released { client: 0, vr: 8 }),
                proto(AuditRecord::Released { client: 1, vr: 9 }),
            ],
        );
        let res = check(&overlap, "mutual_exclusion");
        assert!(!res.ok());
        assert!(res.witness.unwrap().contains("still held"));
    }

    #[test]
    fn open_interval_blocks_later_grants() {
        let hist = h(
            AppKind::Mutex,
            vec![
                proto(AuditRecord::Granted { client: 0, vr: 5 }),
                proto(AuditRecord::Granted { client: 1, vr: 9 }),
            ],
        );
        assert!(!check(&hist, "mutual_exclusion").ok());
    }

    #[test]
    fn fifo_rejects_double_grant_and_counts_acquires() {
        let double = h(
            AppKind::Mutex,
            vec![
                inv(1, 0, 1, OpDesc::Acquire),
                proto(AuditRecord::Granted { client: 0, vr: 5 }),
                proto(AuditRecord::Granted { client: 0, vr: 7 }),
            ],
        );
        let res = check(&double, "fifo_grants");
        assert!(!res.ok());
        assert!(res.witness.unwrap().contains("re-granted"));
        let phantom = h(
            AppKind::Mutex,
            vec![
                proto(AuditRecord::Granted { client: 3, vr: 5 }),
                proto(AuditRecord::Released { client: 3, vr: 6 }),
            ],
        );
        let res = check(&phantom, "fifo_grants");
        assert!(!res.ok(), "grant without any acquire must fail");
    }

    #[test]
    fn fifo_requires_completions_in_invocation_order() {
        // One client, 5 000 acquires (a size the quadratic membership
        // scan this replaced spent seconds on), every other one timing
        // out: the completed ones are a subsequence of the invoked.
        let mut events = Vec::new();
        for i in 0..5_000u64 {
            events.push(inv(i, 0, 4 * i, OpDesc::Acquire));
            if i % 2 == 0 {
                events.push(done(i, 0, 4 * i + 2, OpOutcome::Granted));
            }
        }
        assert!(check(&h(AppKind::Mutex, events.clone()), "fifo_grants").ok());
        // #3 was invoked before #4 but completes after it.
        events.push(done(3, 0, 20_001, OpOutcome::Granted));
        let res = check(&h(AppKind::Mutex, events), "fifo_grants");
        assert!(!res.ok());
        let witness = res.witness.unwrap();
        assert!(
            witness.starts_with("client 0 completed acquires out of invocation order: [0, 2, 4,"),
            "{witness}"
        );
    }

    #[test]
    fn freshness_accepts_forward_and_rejects_backward() {
        let fwd = h(
            AppKind::Tracking,
            vec![
                inv(
                    1,
                    0,
                    1,
                    OpDesc::Report {
                        object: 0,
                        cell: (1, 1),
                    },
                ),
                done(1, 0, 2, OpOutcome::Reported),
                inv(
                    2,
                    0,
                    5,
                    OpDesc::Report {
                        object: 0,
                        cell: (2, 2),
                    },
                ),
                done(2, 0, 6, OpOutcome::Reported),
                inv(3, 1, 7, OpDesc::Lookup { object: 0 }),
                done(3, 1, 9, OpOutcome::Answered { cell: Some((2, 2)) }),
            ],
        );
        assert!(check(&fwd, "monotone_freshness").ok());
        // A later lookup must not go back to the older cell.
        let mut events = fwd.events.clone();
        events.push(inv(4, 1, 10, OpDesc::Lookup { object: 0 }));
        events.push(done(4, 1, 12, OpOutcome::Answered { cell: Some((1, 1)) }));
        let back = h(AppKind::Tracking, events.clone());
        assert!(!check(&back, "monotone_freshness").ok());
        // Nor forget the object entirely.
        events.pop();
        events.push(done(4, 1, 12, OpOutcome::Answered { cell: None }));
        let amnesia = h(AppKind::Tracking, events);
        assert!(!check(&amnesia, "monotone_freshness").ok());
    }

    #[test]
    fn freshness_rejects_never_reported_cells_and_time_travel() {
        let bogus = h(
            AppKind::Tracking,
            vec![
                inv(1, 1, 1, OpDesc::Lookup { object: 0 }),
                done(1, 1, 3, OpOutcome::Answered { cell: Some((9, 9)) }),
            ],
        );
        assert!(!check(&bogus, "monotone_freshness").ok());
        // Answer predating the report's send round.
        let early = h(
            AppKind::Tracking,
            vec![
                inv(
                    1,
                    0,
                    1,
                    OpDesc::Report {
                        object: 0,
                        cell: (1, 1),
                    },
                ),
                done(1, 0, 8, OpOutcome::Reported),
                inv(2, 1, 2, OpDesc::Lookup { object: 0 }),
                done(2, 1, 4, OpOutcome::Answered { cell: Some((1, 1)) }),
            ],
        );
        assert!(!check(&early, "monotone_freshness").ok());
    }

    #[test]
    fn delivery_once_rejects_duplicates_wrong_vn_and_phantoms() {
        let clean = h(
            AppKind::Georouting,
            vec![
                inv(1, 0, 1, OpDesc::Send { vn: 2, payload: 1 }),
                proto(AuditRecord::Delivered {
                    vn: 2,
                    payload: 1,
                    vr: 7,
                }),
                done(1, 0, 7, OpOutcome::Delivered),
            ],
        );
        assert!(check(&clean, "delivery_once").ok());
        for (bad, needle) in [
            (
                vec![
                    inv(1, 0, 1, OpDesc::Send { vn: 2, payload: 1 }),
                    proto(AuditRecord::Delivered {
                        vn: 2,
                        payload: 1,
                        vr: 7,
                    }),
                    proto(AuditRecord::Delivered {
                        vn: 2,
                        payload: 1,
                        vr: 9,
                    }),
                ],
                "twice",
            ),
            (
                vec![
                    inv(1, 0, 1, OpDesc::Send { vn: 2, payload: 1 }),
                    proto(AuditRecord::Delivered {
                        vn: 0,
                        payload: 1,
                        vr: 7,
                    }),
                ],
                "addressed",
            ),
            (
                vec![proto(AuditRecord::Delivered {
                    vn: 0,
                    payload: 9,
                    vr: 7,
                })],
                "never sent",
            ),
            (
                vec![
                    inv(1, 0, 1, OpDesc::Send { vn: 2, payload: 1 }),
                    done(1, 0, 7, OpOutcome::Delivered),
                ],
                "never delivered",
            ),
        ] {
            let res = check(&h(AppKind::Georouting, bad), "delivery_once");
            assert!(!res.ok());
            assert!(
                res.witness.as_ref().unwrap().contains(needle),
                "{needle}: {res:?}"
            );
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = audit(&h(
            AppKind::Register,
            vec![
                inv(1, 0, 1, OpDesc::Write { value: 1 }),
                done(1, 0, 3, OpOutcome::Acked),
            ],
        ));
        let json = serde_json::to_string(&report).unwrap();
        let back: AuditReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(report.verdict_summary().contains("linearizable=ok"));
    }
}
