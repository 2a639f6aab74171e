//! Per-app consistency checkers over recorded histories, and the
//! [`audit`] dispatcher that runs every checker an app answers to.
//!
//! All checkers share two conventions:
//!
//! * **Timeouts are information-free.** A timed-out operation may or
//!   may not have taken effect (Jepsen's `:info`); checkers treat it
//!   as concurrent with everything after its invocation and never
//!   require it to have happened — but also never assume it didn't.
//! * **Determinism.** Verdicts and witnesses are pure functions of the
//!   event list; no hash-order or wall-clock state leaks in, so audit
//!   reports are byte-identical across sweep workers.

use crate::history::History;
use crate::linearizability::{self, LinResult, RegOp, RegOpKind, PENDING};
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
    /// The checker could not reach a verdict (search budget ran out).
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

/// Runs every checker `history.app` answers to.
pub fn audit(history: &History) -> AuditReport {
    let mut checks = vec![check_well_formed(history)];
    match history.app {
        AppKind::Register => checks.push(check_register_linearizable(history)),
        AppKind::Mutex => {
            checks.push(check_mutual_exclusion(history));
            checks.push(check_fifo_grants(history));
        }
        AppKind::Tracking => checks.push(check_monotone_freshness(history)),
        AppKind::Georouting => checks.push(check_delivery_once(history)),
    }
    let (mut ops, mut timeouts) = (0, 0);
    for e in &history.events {
        match e {
            TrafficEvent::Invoke { .. } => ops += 1,
            TrafficEvent::Timeout { .. } => timeouts += 1,
            _ => {}
        }
    }
    AuditReport {
        app: history.app.name().to_string(),
        ops,
        timeouts,
        checks,
    }
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

/// Structural sanity of the history itself: every resolution names an
/// operation that was invoked earlier, by the same client, resolves it
/// at most once, never before its invocation, and with an outcome of
/// the right shape. Every semantic checker builds on this.
pub fn check_well_formed(history: &History) -> CheckResult {
    let mut invoked: BTreeMap<u64, (u32, u64, OpDesc)> = BTreeMap::new();
    let mut resolved: BTreeMap<u64, u64> = BTreeMap::new();
    let mut examined = 0u64;
    let mut problems: Vec<String> = Vec::new();
    for e in &history.events {
        match e {
            TrafficEvent::Invoke { id, client, vr, op } => {
                examined += 1;
                if invoked.insert(*id, (*client, *vr, *op)).is_some() {
                    problems.push(format!("op #{id} invoked twice"));
                }
            }
            TrafficEvent::Complete {
                id,
                client,
                vr,
                outcome,
            } => {
                examined += 1;
                match invoked.get(id) {
                    None => problems.push(format!("completion of #{id} without invocation")),
                    Some((c, inv, op)) => {
                        if c != client {
                            problems.push(format!(
                                "#{id} invoked by client {c} but completed by {client}"
                            ));
                        }
                        if vr < inv {
                            problems.push(format!(
                                "#{id} completed at vr {vr} before its invocation at {inv}"
                            ));
                        }
                        if !outcome_matches(op, outcome) {
                            problems
                                .push(format!("#{id}: outcome {outcome:?} does not answer {op:?}"));
                        }
                    }
                }
                if resolved.insert(*id, *vr).is_some() {
                    problems.push(format!("op #{id} resolved twice"));
                }
            }
            TrafficEvent::Timeout { id, client, vr } => {
                examined += 1;
                match invoked.get(id) {
                    None => problems.push(format!("timeout of #{id} without invocation")),
                    Some((c, inv, _)) => {
                        if c != client {
                            problems.push(format!(
                                "#{id} invoked by client {c} but timed out at {client}"
                            ));
                        }
                        if vr < inv {
                            problems.push(format!(
                                "#{id} timed out at vr {vr} before its invocation at {inv}"
                            ));
                        }
                    }
                }
                if resolved.insert(*id, *vr).is_some() {
                    problems.push(format!("op #{id} resolved twice"));
                }
            }
            TrafficEvent::Protocol { .. } => {}
        }
    }
    if problems.is_empty() {
        CheckResult::pass("well_formed", examined)
    } else {
        problems.truncate(4);
        CheckResult::violation("well_formed", examined, problems.join("; "))
    }
}

/// Extracts the register operations a WGL check runs over: acked and
/// pending writes, plus returned reads (timed-out reads constrain
/// nothing and are dropped).
pub fn register_ops(history: &History) -> Vec<RegOp> {
    let completes: BTreeMap<u64, (u64, OpOutcome)> = history
        .completes()
        .into_iter()
        .map(|(id, _, vr, outcome)| (id, (vr, outcome)))
        .collect();
    let mut ops = Vec::new();
    for (id, _, inv, op) in history.invokes() {
        match op {
            OpDesc::Write { value } => {
                let ret = completes.get(&id).map_or(PENDING, |&(vr, _)| vr);
                ops.push(RegOp {
                    id,
                    kind: RegOpKind::Write { value },
                    inv,
                    ret,
                });
            }
            OpDesc::Read => {
                if let Some(&(vr, OpOutcome::ReadValue { value, .. })) = completes.get(&id) {
                    ops.push(RegOp {
                        id,
                        kind: RegOpKind::Read { returned: value },
                        inv,
                        ret: vr,
                    });
                }
            }
            _ => {}
        }
    }
    ops
}

/// The op ids a minimized witness names. Every witness line the
/// minimizer emits starts with `#<id> ` (see `RegOp::describe`).
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

/// Runs the WGL search over `ops` and wraps the verdict.
fn linearizable_result(ops: &[RegOp]) -> CheckResult {
    let checked = ops.len() as u64;
    match linearizability::check_register(ops) {
        LinResult::Ok => CheckResult::pass("linearizable", checked),
        LinResult::Violation { witness } => {
            let ids = witness_op_ids(&witness);
            CheckResult::violation_with_ops("linearizable", checked, witness.join("; "), ids)
        }
        LinResult::BudgetExhausted => CheckResult::inconclusive(
            "linearizable",
            checked,
            "search budget exhausted before a verdict".into(),
        ),
    }
}

/// The atomic-register checker: WGL search for a legal linearization.
pub fn check_register_linearizable(history: &History) -> CheckResult {
    linearizable_result(&register_ops(history))
}

/// Audits a bag of pre-extracted register operations directly —
/// the entry point for workloads (like the stale-read
/// `MajorityRegister` baseline) that produce [`RegOp`]s without going
/// through the traffic driver's event history.
pub fn audit_register_ops(app: &str, ops: &[RegOp]) -> AuditReport {
    let pending = ops.iter().filter(|o| o.ret == PENDING).count() as u64;
    AuditReport {
        app: app.to_string(),
        ops: ops.len() as u64,
        timeouts: pending,
        checks: vec![linearizable_result(ops)],
    }
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

/// Pairs each client's grant/release protocol records into holding
/// intervals, in grant order: a grant opens an interval, the client's
/// next release closes its most recent open one.
fn hold_intervals(history: &History) -> Vec<HoldInterval> {
    let mut per_client: BTreeMap<u32, Vec<HoldInterval>> = BTreeMap::new();
    for record in history.protocol() {
        match record {
            AuditRecord::Granted { client, vr } => {
                per_client.entry(client).or_default().push(HoldInterval {
                    client,
                    granted: vr,
                    released: PENDING,
                });
            }
            AuditRecord::Released { client, vr } => {
                if let Some(open) = per_client
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
    let mut all: Vec<HoldInterval> = per_client.into_values().flatten().collect();
    all.sort_by_key(|iv| (iv.granted, iv.client));
    all
}

/// Mutual exclusion: no two clients' holding intervals strictly
/// overlap. Touching is legal — the server can process a release and
/// emit the next grant within the same virtual round, so client B's
/// grant may be heard in the round client A's release hit the channel.
pub fn check_mutual_exclusion(history: &History) -> CheckResult {
    let intervals = hold_intervals(history);
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
pub fn check_fifo_grants(history: &History) -> CheckResult {
    let mut checked = 0u64;
    // (a) alternation per client, in protocol-record order.
    let mut holding: BTreeMap<u32, bool> = BTreeMap::new();
    let mut grants: BTreeMap<u32, u64> = BTreeMap::new();
    for record in history.protocol() {
        let problem = match record {
            AuditRecord::Granted { client, vr } => {
                checked += 1;
                *grants.entry(client).or_default() += 1;
                (holding.insert(client, true) == Some(true)).then(|| {
                    format!("client {client} re-granted at vr {vr} without a release between")
                })
            }
            AuditRecord::Released { client, vr } => (holding.insert(client, false) != Some(true))
                .then(|| format!("client {client} released at vr {vr} without holding the lock")),
            _ => None,
        };
        if let Some(msg) = problem {
            return CheckResult::violation("fifo_grants", checked, msg);
        }
    }
    // (b) grants never exceed invoked acquires.
    let mut acquires: BTreeMap<u32, u64> = BTreeMap::new();
    for (_, client, _, op) in history.invokes() {
        if op == OpDesc::Acquire {
            *acquires.entry(client).or_default() += 1;
        }
    }
    for (&client, &granted) in &grants {
        let asked = acquires.get(&client).copied().unwrap_or(0);
        if granted > asked {
            return CheckResult::violation(
                "fifo_grants",
                checked,
                format!("client {client} got {granted} grants for {asked} acquires"),
            );
        }
    }
    // (c) per-client completion order == invocation order.
    let mut invoked: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for (id, client, _, op) in history.invokes() {
        if op == OpDesc::Acquire {
            invoked.entry(client).or_default().push(id);
        }
    }
    let mut completed: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for (id, client, _, _) in history.completes() {
        completed.entry(client).or_default().push(id);
    }
    for (client, done) in &completed {
        let done_ids: BTreeSet<u64> = done.iter().copied().collect();
        let asked = invoked.get(client).map_or(&[][..], Vec::as_slice);
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
pub fn check_monotone_freshness(history: &History) -> CheckResult {
    // Candidate reports per object: completed (cell, send round) and
    // timed-out (cell, invocation round — the broadcast, if it ever
    // happened, came no earlier) reports, in round order.
    let completes: BTreeMap<u64, (u64, OpOutcome)> = history
        .completes()
        .into_iter()
        .map(|(id, _, vr, outcome)| (id, (vr, outcome)))
        .collect();
    let mut reports: BTreeMap<u32, ReportSeq> = BTreeMap::new();
    for (id, _, inv, op) in history.invokes() {
        if let OpDesc::Report { object, cell } = op {
            let vr = completes.get(&id).map_or(inv, |&(vr, _)| vr);
            reports.entry(object).or_default().push((vr, cell));
        }
    }
    for seq in reports.values_mut() {
        seq.sort_unstable();
    }
    // Answers per object, in completion (chronological) order.
    let invokes: BTreeMap<u64, OpDesc> = history
        .invokes()
        .into_iter()
        .map(|(id, _, _, op)| (id, op))
        .collect();
    let mut checked = 0u64;
    let mut floor: BTreeMap<u32, usize> = BTreeMap::new();
    let mut seen_some: BTreeMap<u32, bool> = BTreeMap::new();
    for (id, _, vr, outcome) in history.completes() {
        let Some(OpDesc::Lookup { object }) = invokes.get(&id) else {
            continue;
        };
        let OpOutcome::Answered { cell } = outcome else {
            continue;
        };
        checked += 1;
        match cell {
            None => {
                if seen_some.get(object).copied().unwrap_or(false) {
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
                let seq = reports.get(object).map(Vec::as_slice).unwrap_or(&[]);
                let p = floor.get(object).copied().unwrap_or(0);
                match seq[p.min(seq.len())..]
                    .iter()
                    .position(|&(rvr, rcell)| rcell == c && rvr < vr)
                {
                    Some(offset) => {
                        floor.insert(*object, p + offset);
                        seen_some.insert(*object, true);
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
pub fn check_delivery_once(history: &History) -> CheckResult {
    let sends: BTreeMap<u32, (u64, usize, u64)> = history
        .invokes()
        .into_iter()
        .filter_map(|(id, _, inv, op)| match op {
            OpDesc::Send { vn, payload } => Some((payload, (id, vn, inv))),
            _ => None,
        })
        .collect();
    let mut delivered: BTreeMap<u32, u64> = BTreeMap::new();
    let mut checked = 0u64;
    for record in history.protocol() {
        let AuditRecord::Delivered { vn, payload, vr } = record else {
            continue;
        };
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
    let invokes: BTreeMap<u64, OpDesc> = history
        .invokes()
        .into_iter()
        .map(|(id, _, _, op)| (id, op))
        .collect();
    for (id, _, _, outcome) in history.completes() {
        if outcome != OpOutcome::Delivered {
            continue;
        }
        if let Some(OpDesc::Send { payload, .. }) = invokes.get(&id) {
            if !delivered.contains_key(payload) {
                return CheckResult::violation(
                    "delivery_once",
                    checked,
                    format!("send #{id} completed but payload {payload} was never delivered"),
                );
            }
        }
    }
    CheckResult::pass("delivery_once", checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::Event;

    fn h(app: AppKind, events: Vec<Event>) -> History {
        History::from_events(app, events)
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
        assert!(check_well_formed(&good).ok());
        let orphan = h(AppKind::Register, vec![done(9, 0, 3, OpOutcome::Acked)]);
        let res = check_well_formed(&orphan);
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
        assert!(!check_well_formed(&bad).ok());
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
        assert!(check_mutual_exclusion(&touching).ok());
        let overlap = h(
            AppKind::Mutex,
            vec![
                proto(AuditRecord::Granted { client: 0, vr: 5 }),
                proto(AuditRecord::Granted { client: 1, vr: 6 }),
                proto(AuditRecord::Released { client: 0, vr: 8 }),
                proto(AuditRecord::Released { client: 1, vr: 9 }),
            ],
        );
        let res = check_mutual_exclusion(&overlap);
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
        assert!(!check_mutual_exclusion(&hist).ok());
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
        let res = check_fifo_grants(&double);
        assert!(!res.ok());
        assert!(res.witness.unwrap().contains("re-granted"));
        let phantom = h(
            AppKind::Mutex,
            vec![
                proto(AuditRecord::Granted { client: 3, vr: 5 }),
                proto(AuditRecord::Released { client: 3, vr: 6 }),
            ],
        );
        let res = check_fifo_grants(&phantom);
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
        assert!(check_fifo_grants(&h(AppKind::Mutex, events.clone())).ok());
        // #3 was invoked before #4 but completes after it.
        events.push(done(3, 0, 20_001, OpOutcome::Granted));
        let res = check_fifo_grants(&h(AppKind::Mutex, events));
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
        assert!(check_monotone_freshness(&fwd).ok());
        // A later lookup must not go back to the older cell.
        let mut events = fwd.events.clone();
        events.push(inv(4, 1, 10, OpDesc::Lookup { object: 0 }));
        events.push(done(4, 1, 12, OpOutcome::Answered { cell: Some((1, 1)) }));
        let back = h(AppKind::Tracking, events.clone());
        assert!(!check_monotone_freshness(&back).ok());
        // Nor forget the object entirely.
        events.pop();
        events.push(done(4, 1, 12, OpOutcome::Answered { cell: None }));
        let amnesia = h(AppKind::Tracking, events);
        assert!(!check_monotone_freshness(&amnesia).ok());
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
        assert!(!check_monotone_freshness(&bogus).ok());
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
        assert!(!check_monotone_freshness(&early).ok());
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
        assert!(check_delivery_once(&clean).ok());
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
            let res = check_delivery_once(&h(AppKind::Georouting, bad));
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
