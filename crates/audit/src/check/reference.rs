//! The batch checkers the online [`super::Auditor`] replaced, kept
//! as the differential oracle (the way `linearizability/reference.rs`
//! serves the zone test): each walks a whole stored [`History`],
//! building its own invocation and completion tables. vi-audit's unit
//! tests declare it under `#[cfg(test)]`, and `tests/audit_properties.rs`
//! includes this file by path, so it uses nothing but the parent
//! module's public items.

use super::{
    audit_register_ops, AppKind, AuditRecord, AuditReport, CheckResult, History, OpDesc, OpOutcome,
    RegOp, RegOpKind, TrafficEvent, Verdict, PENDING,
};
use std::collections::{BTreeMap, BTreeSet};

/// `audit` as it was: every checker `history.app` answers to, each
/// over the whole history.
pub fn audit_reference(history: &History) -> AuditReport {
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

fn pass(name: &str, checked: u64) -> CheckResult {
    CheckResult {
        name: name.to_string(),
        verdict: Verdict::Pass,
        checked,
        witness: None,
        witness_ops: Vec::new(),
    }
}

fn violation(name: &str, checked: u64, witness: String) -> CheckResult {
    CheckResult {
        witness: Some(witness),
        verdict: Verdict::Violation,
        ..pass(name, checked)
    }
}

/// The atomic-register checker: the register check over
/// [`register_ops`].
pub fn check_register_linearizable(history: &History) -> CheckResult {
    audit_register_ops("register", &register_ops(history))
        .checks
        .remove(0)
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
        pass("well_formed", examined)
    } else {
        problems.truncate(4);
        violation("well_formed", examined, problems.join("; "))
    }
}

/// Extracts the register operations the register check runs over: acked and
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
            return violation(
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
    pass("mutual_exclusion", checked)
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
            return violation("fifo_grants", checked, msg);
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
            return violation(
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
            return violation(
                "fifo_grants",
                checked,
                format!("client {client} completed acquires out of invocation order: {done:?}"),
            );
        }
    }
    pass("fifo_grants", checked)
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
                    return violation(
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
                        return violation(
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
    pass("monotone_freshness", checked)
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
            return violation(
                "delivery_once",
                checked,
                format!("payload {payload} delivered twice (vr {first} and vr {vr})"),
            );
        }
        match sends.get(&payload) {
            None => {
                return violation(
                    "delivery_once",
                    checked,
                    format!("payload {payload} delivered at vn {vn} but never sent"),
                );
            }
            Some(&(id, dst, inv)) => {
                if dst != vn {
                    return violation(
                        "delivery_once",
                        checked,
                        format!("send #{id} addressed vn {dst} but payload surfaced at vn {vn}"),
                    );
                }
                if vr < inv {
                    return violation(
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
                return violation(
                    "delivery_once",
                    checked,
                    format!("send #{id} completed but payload {payload} was never delivered"),
                );
            }
        }
    }
    pass("delivery_once", checked)
}
