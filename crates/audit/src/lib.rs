//! # vi-audit
//!
//! Operation-history capture and consistency checking for the vi-apps
//! — a Jepsen-style oracle for the virtual-infrastructure stack.
//!
//! The paper's claim is not just that services over virtual nodes are
//! *fast enough*; it is that they are **correct**: the emulation layer
//! turns a collision-prone radio into a substrate on which an atomic
//! register, a lock server, a tracking service, and a routing overlay
//! keep their sequential specifications under crashes, adversaries,
//! and churn. This crate closes the measurement gap: `vi-traffic`
//! times the apps, `vi-audit` *certifies* them.
//!
//! * The **checkers** (module [`check`]) — per-app oracles over a
//!   run's operation history: a memoized Wing–Gong/WGL
//!   linearizability search for the register (module
//!   [`linearizability`], with minimized counterexample witnesses),
//!   mutual exclusion + FIFO-grant discipline for the mutex, monotone
//!   freshness for tracking lookups, and delivery/no-duplication for
//!   georouting. An [`Auditor`] runs everything an app answers to and
//!   returns an [`AuditReport`]. It is the sink of
//!   `vi_traffic::run_traffic`: it takes each event as the driver
//!   produces it and keeps only what its checks need, so an audited
//!   run buffers no history. A run given no sink records nothing.
//! * [`History`] / [`HistoryRecorder`] (module [`history`]) — a
//!   stored, serializable operation history: invocations, responses,
//!   timeouts (`:info` ops — maybe-happened, concurrent-forever), and
//!   protocol-level observations, in deterministic driver order, for
//!   callers that keep one (tests, mutations, the examples); [`audit`]
//!   feeds one through an auditor.
//! * [`NemesisSpec`] (module [`nemesis`]) — declarative timed fault
//!   schedules (crash bursts, jam windows, detector-corruption
//!   windows) that compile onto the simulator's existing churn and
//!   adversary machinery, so scenarios can be *stressed while
//!   audited*.
//! * The **mutation helper** (module [`mutate`](mod@mutate)) — seeded history
//!   corruptions (drop/swap/forge) the property tests use to prove
//!   the checkers actually reject what they claim to reject.

#![forbid(unsafe_code)]

pub mod check;
pub mod history;
pub mod linearizability;
pub mod mutate;
pub mod nemesis;

pub use check::{audit, audit_register_ops, AuditReport, Auditor, CheckResult, Verdict};
pub use history::{Event, History, HistoryRecorder};
pub use linearizability::{check_register, synthetic_history, LinResult, RegOp, RegOpKind};
pub use mutate::{drop_response, mutate, pick, Mutation};
pub use nemesis::{NemesisFault, NemesisSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use vi_core::vi::VnLayout;
    use vi_radio::geometry::Point;
    use vi_radio::mobility::MobilityModel;
    use vi_radio::{AdversaryKind, RadioConfig};
    use vi_traffic::{AppKind, DevicePlan, TrafficSpec, TrafficWorld};

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

    /// Acceptance slice: every app's *recorded* history passes its own
    /// checkers on a quiet channel.
    #[test]
    fn recorded_histories_pass_their_checkers() {
        for (app, seed) in [
            (AppKind::Register, 3),
            (AppKind::Mutex, 5),
            (AppKind::Tracking, 7),
            (AppKind::Georouting, 9),
        ] {
            let spec = TrafficSpec::open(2, 0.3, 30).with_query_fraction(0.4);
            let (out, history) = HistoryRecorder::record(app, small_world(3, seed), &spec);
            assert!(out.summary.completed > 0, "{}: completions", app.name());
            assert_eq!(history.app, app);
            assert_eq!(history.invocations(), out.summary.issued);
            let report = audit(&history);
            assert!(
                report.ok(),
                "{}: recorded history must pass: {:?}",
                app.name(),
                report.violations()
            );
            assert!(report.checks.len() >= 2, "well-formed + semantic checks");
        }
    }

    /// Timeouts under a jam stay `:info`: the history still audits
    /// clean (unacked ops are concurrent-forever, not violations).
    #[test]
    fn jammed_histories_audit_clean() {
        let mut spec = TrafficSpec::open(2, 0.5, 20);
        spec.timeout_rounds = 8;
        let mut world = small_world(3, 2);
        world.radio = RadioConfig::stabilizing(10.0, 20.0, u64::MAX);
        world.adversary = AdversaryKind::Burst(vec![0..5_000, 5_000..10_000]);
        let (out, history) = HistoryRecorder::record(AppKind::Register, world, &spec);
        assert!(out.summary.timed_out > 0);
        let report = audit(&history);
        assert!(report.ok(), "{:?}", report.violations());
        assert_eq!(report.timeouts, out.summary.timed_out);
    }

    /// Audits are a pure function of `(spec, seed)`.
    #[test]
    fn audits_are_deterministic() {
        let spec = TrafficSpec::open(2, 0.4, 25);
        let (_, a) = HistoryRecorder::record(AppKind::Tracking, small_world(3, 11), &spec);
        let (_, b) = HistoryRecorder::record(AppKind::Tracking, small_world(3, 11), &spec);
        assert_eq!(a, b);
        assert_eq!(audit(&a), audit(&b));
        let json = serde_json::to_string(&audit(&a)).unwrap();
        let back: AuditReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, audit(&a));
    }
}
