//! Prints the reproduction tables for the paper's figures and
//! quantitative claims.
//!
//! ```sh
//! cargo run -p vi-bench --bin repro                        # everything
//! cargo run -p vi-bench --bin repro -- fig2                # one experiment
//! cargo run -p vi-bench --bin repro -- list                # experiment index
//! cargo run -p vi-bench --bin repro -- --replay dump.json  # replay an incident
//! cargo run -p vi-bench --bin repro -- --monitor safety    # stream snapshots
//! cargo run -p vi-bench --bin repro -- monitor 127.0.0.1:9464   # tail /metrics
//! cargo run -p vi-bench --bin repro -- fuzz --iters 400 --seed 7 --corpus-dir corpus/
//! cargo run -p vi-bench --bin repro -- fuzz --minimize failing_spec.json
//! ```
//!
//! `--replay` loads an incident bundle dumped by the flight recorder
//! (see `vi_scenario::IncidentBundle`), re-executes the bundled
//! `(scenario, seed, tuning)`, and exits 0 iff the replay reproduces
//! the recorded audit verdict and re-dumps the identical bundle.
//!
//! `--monitor` turns live monitoring on for the selected experiments:
//! it sets `VI_MONITOR_LOG=monitor.jsonl` when neither `VI_MONITOR_LOG`
//! nor `VI_MONITOR_ADDR` is set.
//! `monitor <addr>` is the matching client: it polls an exporter's
//! `/metrics` and prints a one-line-per-run progress view.
//!
//! Every experiment that runs also writes a machine-readable copy of
//! its table to `BENCH_<id>.json`. No experiment reads a clock, so the
//! file is a pure function of the code: CI `cmp`s it against the
//! committed `crates/bench/expected/<id>.json`, and a change that
//! moves a table re-pins that file with its reason stated.

use std::io::{self, Write};
use std::path::Path;
use vi_bench::all_experiments;
use vi_bench::harness::write_file;
use vi_telemetry::monitor;

/// Replays an incident bundle and reports whether it reproduces.
///
/// Exit codes: 0 — the replay re-dumps the identical bundle (verdict
/// included); 1 — the replay diverged; 2 — the bundle could not be
/// loaded.
fn replay_incident(path: &str) -> ! {
    let bundle = match vi_scenario::IncidentBundle::load(std::path::Path::new(path)) {
        Ok(bundle) => bundle,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "replaying incident: scenario '{}' seed {} reason {:?} ({} flight rounds, tracing {})",
        bundle.scenario.name,
        bundle.seed,
        bundle.reason,
        bundle.flight.len(),
        if bundle.tracing { "on" } else { "off" },
    );
    let out = bundle.replay();
    let verdict_matches = out.audit == bundle.audit;
    let bundle_matches = out.incident.as_ref() == Some(&bundle);
    match (verdict_matches, bundle_matches) {
        (true, true) => {
            println!("replay: incident reproduced byte-identically (audit verdict included)");
            std::process::exit(0);
        }
        (true, false) => {
            eprintln!("replay: audit verdict reproduced, but the re-dumped bundle differs");
            std::process::exit(1);
        }
        _ => {
            eprintln!(
                "replay: DIVERGED — recorded {:?}, replay {:?}",
                bundle.audit.as_ref().map(|r| r.ok()),
                out.audit.as_ref().map(|r| r.ok()),
            );
            std::process::exit(1);
        }
    }
}

/// Prints `fuzz: <what>` and exits 2: a usage or I/O error, or a spec
/// that does not parse or validate.
fn fuzz_error(what: impl std::fmt::Display) -> ! {
    eprintln!("fuzz: {what}");
    std::process::exit(2)
}

/// Parses `flag`'s `value` as a number, or exits 2.
fn number<T: std::str::FromStr>(flag: &str, value: String) -> T
where
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .unwrap_or_else(|e| fuzz_error(format_args!("{flag}: {e}")))
}

/// `repro fuzz`: run a coverage-guided fuzz campaign, or (with
/// `--minimize <spec.json>`) shrink one failing spec.
///
/// Exit codes: 0 — campaign ran (findings are *results*, not
/// failures) or minimization reproduced and shrank; 1 — the spec
/// passed to `--minimize` does not fail; 2 — see [`fuzz_error`].
fn fuzz_cmd(args: &[String]) -> ! {
    let mut config = vi_fuzz::FuzzConfig::default();
    let mut minimize_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut want = |flag: &str| -> String {
            it.next()
                .cloned()
                .unwrap_or_else(|| fuzz_error(format_args!("{flag} needs a value")))
        };
        match a.as_str() {
            "--iters" => config.iters = number("--iters", want("--iters")),
            "--seed" => config.seed = number("--seed", want("--seed")),
            "--workers" => config.workers = number("--workers", want("--workers")),
            "--corpus-dir" => config.corpus_dir = Some(want("--corpus-dir").into()),
            "--minimize" => minimize_path = Some(want("--minimize")),
            other => {
                eprintln!(
                    "usage: repro fuzz [--iters N] [--seed S] [--workers W] \
                     [--corpus-dir DIR] [--minimize spec.json]   (got '{other}')"
                );
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = minimize_path {
        // Minimize-only mode: the failure must already reproduce.
        let spec = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|json| {
                serde_json::from_str::<vi_scenario::ScenarioSpec>(&json).map_err(|e| e.to_string())
            })
            .and_then(|spec| spec.validate().map(|()| spec))
            .unwrap_or_else(|e| fuzz_error(format_args!("{path}: {e}")));
        let Some(class) = vi_fuzz::campaign::classify_run(&spec, config.seed) else {
            eprintln!(
                "fuzz: '{}' does not fail under seed {} — nothing to minimize",
                spec.name, config.seed
            );
            std::process::exit(1);
        };
        let min = vi_fuzz::minimize(&spec, config.seed, class, config.minimize_budget);
        let out_path = format!("{path}.min.json");
        let json = serde_json::to_string(&min.spec).expect("a spec serializes");
        if let Err(e) = std::fs::write(&out_path, json) {
            fuzz_error(format_args!("{out_path}: {e}"));
        }
        println!(
            "minimized '{}' ({}) in {} runs / {} accepted shrinks -> {out_path}",
            spec.name,
            class.label(),
            min.runs,
            min.accepted,
        );
        std::process::exit(0);
    }

    let report = vi_fuzz::run_campaign(&config).unwrap_or_else(|e| fuzz_error(e));
    println!(
        "fuzz: {} iters -> {} executed, {} rejected, {} buckets ({} new), {} finding(s)",
        report.iters,
        report.executed,
        report.rejected,
        report.corpus.len(),
        report.new_buckets,
        report.findings.len(),
    );
    for f in &report.findings {
        println!(
            "  [{}] {} (discovered as '{}' at iter {}, seed {}, minimized in {} runs)",
            f.class.label(),
            f.spec.name,
            f.discovered_as,
            f.iteration,
            f.seed,
            f.minimize_runs,
        );
    }
    std::process::exit(0);
}

/// `repro monitor <addr>`: polls an exporter's `/metrics` once a
/// second and prints a one-line-per-run progress view. Exits 0 when a
/// previously reachable exporter goes away (the run ended), 1 when the
/// exporter never answered.
fn monitor_tail(addr: &str) -> ! {
    let mut reached = false;
    let mut failures = 0u32;
    loop {
        match monitor::scrape_metrics(addr) {
            Ok(body) => {
                reached = true;
                failures = 0;
                let pick = |metric: &str| -> Vec<(String, String)> {
                    body.lines()
                        .filter_map(|l| l.strip_prefix(&format!("{metric}{{")))
                        .filter_map(|l| l.split_once("} "))
                        .map(|(labels, value)| (labels.to_string(), value.to_string()))
                        .collect()
                };
                let gauge = |metric: &str| -> String {
                    body.lines()
                        .filter_map(|l| l.strip_prefix(&format!("{metric} ")))
                        .next_back()
                        .unwrap_or("0")
                        .to_string()
                };
                println!(
                    "jobs queued {} / started {} / finished {}",
                    gauge("vi_sweep_jobs_queued"),
                    gauge("vi_sweep_jobs_started"),
                    gauge("vi_sweep_jobs_finished"),
                );
                let completed = pick("vi_traffic_completed");
                for (labels, round) in pick("vi_round") {
                    let traffic = completed
                        .iter()
                        .find(|(l, _)| *l == labels)
                        .map(|(_, v)| format!("  completed {v}"))
                        .unwrap_or_default();
                    println!("  {labels} round {round}{traffic}");
                }
            }
            Err(e) => {
                failures += 1;
                if reached && failures >= 3 {
                    println!("monitor: exporter at {addr} gone — run finished");
                    std::process::exit(0);
                }
                if !reached && failures >= 10 {
                    eprintln!("monitor: no exporter at {addr}: {e}");
                    std::process::exit(1);
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_secs(1));
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let experiments = all_experiments();

    // `--monitor` composes with experiment selection: strip the flag
    // and, when the environment configured no snapshot sink, ask it for
    // a JSONL log — before anything reads the environment. (A
    // `VI_TRACE` sink alone requests no snapshots.)
    if let Some(pos) = args.iter().position(|a| a == "--monitor") {
        args.remove(pos);
        let set = |key: &str| std::env::var_os(key).is_some_and(|v| !v.is_empty());
        if set("VI_MONITOR_LOG") || set("VI_MONITOR_ADDR") {
            eprintln!("monitoring on (environment-configured sinks)");
        } else {
            std::env::set_var("VI_MONITOR_LOG", "monitor.jsonl");
            eprintln!("monitoring on: streaming snapshots to monitor.jsonl");
        }
    }

    if args.first().map(String::as_str) == Some("monitor") {
        match args.get(1) {
            Some(addr) => monitor_tail(addr),
            None => {
                eprintln!("usage: repro monitor <host:port>");
                std::process::exit(2);
            }
        }
    }

    if args.first().map(String::as_str) == Some("fuzz") {
        fuzz_cmd(&args[1..]);
    }

    if args.first().map(String::as_str) == Some("--replay") {
        match args.get(1) {
            Some(path) => replay_incident(path),
            None => {
                eprintln!("usage: repro --replay <bundle.json>");
                std::process::exit(2);
            }
        }
    }

    if args.first().map(String::as_str) == Some("list") {
        let mut out = io::stdout().lock();
        let mut list = || -> io::Result<()> {
            writeln!(out, "available experiments:")?;
            for (id, desc, _) in &experiments {
                writeln!(out, "  {id:<16} {desc}")?;
            }
            out.flush()
        };
        match list() {
            // A reader that stops early (`repro list | head -1`) is done
            // with the list, not failed.
            Ok(()) => return,
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => return,
            Err(e) => {
                eprintln!("repro list: {e}");
                std::process::exit(1);
            }
        }
    }

    let selected: Vec<&str> = if args.is_empty() {
        experiments.iter().map(|(id, _, _)| *id).collect()
    } else {
        args.iter().map(String::as_str).collect()
    };

    for want in selected {
        match experiments.iter().find(|(id, _, _)| *id == want) {
            Some((id, _, run)) => {
                eprintln!("running {id} ...");
                let table = run();
                println!("{table}");
                let json = serde_json::to_string(&table).expect("a table serializes");
                write_file(Path::new(&format!("BENCH_{id}.json")), &json);
            }
            None => {
                eprintln!("unknown experiment '{want}' — try `repro list`");
                std::process::exit(2);
            }
        }
    }

    // `VI_MONITOR_HOLD_MS=N` keeps the process — and with it any
    // `VI_MONITOR_ADDR` exporter thread — alive N ms after the last
    // experiment, so scripted scrapers (the CI monitor smoke) get a
    // deterministic window instead of racing a fast run.
    if let Some(ms) = std::env::var("VI_MONITOR_HOLD_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        eprintln!("holding {ms} ms for /metrics scrapes");
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}
