//! vi-perf — the repo's benchmark.
//!
//! Four `ScenarioSpec` workloads, six end-to-end metrics taken with
//! every instrument off, and a separate traced run that attributes the
//! time to layers. The kind of system is "deterministic simulator":
//! *host* time and memory are what is measured, *simulated* statistics
//! are compared exactly, and a speed-up must leave them identical.
//! `BENCHMARK.json` names the workloads and metrics; `bench/README.md`
//! defines them.
//!
//! ```sh
//! bench/run.sh                      # every workload, end to end
//! bench/run.sh --trace              # every workload, per layer
//! bench/run.sh --quick              # smoke-run the harness itself
//! bench/run.sh --aa                 # two sets on one binary, compared
//! bench/run.sh --spread             # ten seeds: is the benchmark steady?
//! bench/run.sh compare A.json B.json
//! bench/run.sh --workload metro_static --seed 3 --seconds 20 --trace 0
//! ```
//!
//! The last form is what the driver calls: one workload in this
//! process, the result as one JSON object on the last line. Without
//! `--workload` the program starts itself once per workload, so peak
//! memory and set-up time are per workload.

mod compare;
mod layers;
mod measure;
mod mirror;
mod report;
mod trace;
mod workloads;

use measure::{median, quantile, sorted, supported_tail, timed};
use report::{Fingerprint, Manifest, Metric, ResultLine, Results, RunRecord, Table};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use virtual_infra::scenario::{EngineTuning, ScenarioOutcome, SweepRunner};
use workloads::Jobs;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Untimed warm-up repeats inside every set-up.
const WARM_UPS: usize = 2;
/// Timed repeats a run makes even when `--seconds` is already over.
const MIN_REPEATS: usize = 5;
/// Above this machine-wide steal share wall-clock rows are `noisy`.
pub const NOISY_STEAL: f64 = 0.05;

/// A workload after set-up: parsed jobs, the runner of the default
/// path, and the outcomes every later repeat must reproduce.
pub struct Prepared {
    pub jobs: Jobs,
    pub runner: SweepRunner,
    /// Outcomes of the first default-path run, which the
    /// `EngineTuning::with_workers(1)` run has been checked to equal.
    pub reference: Vec<ScenarioOutcome>,
    /// Peak RSS right after that first run, in MiB.
    first_run_rss_mib: f64,
    /// Digest of the outcome JSON — the simulated statistics in one word.
    pub digest: u64,
    /// `(attempted, failed)` operations of one repeat.
    pub ops: (u64, u64),
    /// `flash_crowd` safety violations the gate saw (reported only).
    pub flash_crowd_violations: usize,
}

impl Prepared {
    /// Says what the gate saw (set-up has already failed if it failed).
    fn print_gate(&self, seed: u64) {
        println!(
            "gate passed on seeds {seed}..{}: clique and partition_heal safe and stabilised, \
             blackout_market and quake_drill audit clean; flash_crowd: {} safety violations \
             (reported, not gated)",
            seed.wrapping_add(2),
            self.flash_crowd_violations
        );
    }

    /// Fails unless `outcomes` serialise to the reference digest.
    pub fn same_digest(&self, outcomes: &[ScenarioOutcome], what: &str) -> Result<(), String> {
        let d = digest_of(outcomes);
        if d == self.digest {
            Ok(())
        } else {
            Err(format!(
                "{what}: outcome digest {d:#x} differs from the reference {:#x} \
                 (the byte-identity contract is broken)",
                self.digest
            ))
        }
    }
}

/// Digest of the outcomes' JSON.
pub fn digest_of(outcomes: &[ScenarioOutcome]) -> u64 {
    let json = serde_json::to_string(&outcomes.to_vec()).expect("outcomes serialise");
    measure::digest(json.as_bytes())
}

/// Everything between process start and the first timed repeat: spec
/// generation, the JSON round-trip, validation, the correctness gate,
/// the warm-up repeats and the one-worker run they must equal, each
/// output check fatal.
fn setup(workload: &str, seed: u64, quick: bool) -> Result<Prepared, String> {
    let jobs = workloads::generate(workload, seed, quick)?;
    let flash_crowd_violations = workloads::gate(seed)?;
    let runner = SweepRunner::auto();
    // The default path goes first: in a fresh process the peak-RSS
    // mark it leaves is what one run of the workload needs.
    let reference = runner.run(&jobs);
    let first_run_rss_mib = measure::peak_rss_mib();
    workloads::check_outcomes(&jobs, &reference)?;
    let prepared = Prepared {
        digest: digest_of(&reference),
        ops: workloads::ops(&reference),
        jobs,
        runner,
        reference,
        first_run_rss_mib,
        flash_crowd_violations,
    };
    for _ in 1..WARM_UPS {
        let warm = prepared.runner.run(&prepared.jobs);
        prepared.same_digest(&warm, "warm-up repeat")?;
    }
    let one_worker = SweepRunner::new(1).run_with(&prepared.jobs, EngineTuning::with_workers(1));
    prepared.same_digest(&one_worker, "one-worker run")?;
    Ok(prepared)
}

/// The timed repeats of one run, every instrument off.
pub struct Repeats {
    /// Wall-clock seconds of each repeat.
    pub wall: Vec<f64>,
    /// Process CPU seconds of each repeat (its digest excluded).
    pub cpu: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Machine-wide steal share while the repeats ran.
    pub steal_share: f64,
}

/// Repeats `SweepRunner::auto().run(&jobs)` for `seconds`. A repeat
/// whose outcome digest drifts from the reference has failed as a
/// whole: all its operations count as failed.
fn timed_repeats(prepared: &Prepared, seconds: f64) -> Repeats {
    let mut r = Repeats {
        wall: Vec::new(),
        cpu: Vec::new(),
        attempted: 0,
        failed: 0,
        steal_share: 0.0,
    };
    let ticks = measure::machine_ticks();
    let started = Instant::now();
    while r.wall.len() < MIN_REPEATS || started.elapsed().as_secs_f64() < seconds {
        let cpu = measure::cpu_seconds();
        let (wall, outcomes) = timed(|| prepared.runner.run(&prepared.jobs));
        r.cpu.push(measure::cpu_seconds() - cpu);
        r.wall.push(wall);
        let (attempted, failed) = workloads::ops(&outcomes);
        r.attempted += attempted;
        r.failed += if digest_of(&outcomes) == prepared.digest {
            failed
        } else {
            attempted
        };
    }
    r.steal_share = measure::steal_share(ticks);
    r
}

/// The `bench.*` statistics of a set of timed repeats.
fn harness_stats(prepared: &Prepared, r: &Repeats) -> Table<f64> {
    let s = sorted(&r.wall);
    let (tail_pct, tail) = supported_tail(&r.wall);
    let stats = [
        ("bench.run_s_p50", quantile(&s, 0.5)),
        ("bench.run_s_tail", tail),
        ("bench.tail_pct", tail_pct),
        ("bench.samples", r.wall.len() as f64),
        ("bench.run_s_iqr", quantile(&s, 0.75) - quantile(&s, 0.25)),
        ("bench.steal_share", r.steal_share),
        ("bench.workers", prepared.runner.workers() as f64),
        ("bench.digest", prepared.digest as f64),
    ];
    Table(stats.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// One workload, end to end: `SETUPS` set-ups, then timed repeats.
fn run_end_to_end(
    manifest: &Manifest,
    args: &Args,
    workload: &str,
    process_start: Instant,
) -> Result<RunRecord, String> {
    let mut setup_s = Vec::new();
    let mut first_run_rss_mib = None;
    let mut prepared = None;
    for i in 0..if args.quick { 1 } else { SETUPS } {
        // The first set-up is clocked from process start.
        let start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let p = setup(workload, args.seed, args.quick)?;
        setup_s.push(start.elapsed().as_secs_f64());
        // Only the first set-up ran in a fresh process.
        first_run_rss_mib.get_or_insert(p.first_run_rss_mib);
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up");
    prepared.print_gate(args.seed);
    let r = timed_repeats(&prepared, args.seconds);

    let run_s_p05 = quantile(&sorted(&r.wall), 0.05);
    let ok_per_repeat = (prepared.ops.0 - prepared.ops.1) as f64;
    let values: BTreeMap<String, f64> = [
        ("run_s_p05", run_s_p05),
        (
            "cpu_s_per_run",
            measure::mean_over_fastest_quarter(&r.wall, &r.cpu),
        ),
        ("ops_per_s", ok_per_repeat / run_s_p05),
        (
            "peak_rss_mb",
            first_run_rss_mib.expect("at least one set-up"),
        ),
        ("setup_s", median(&setup_s)),
        (
            "ok_share",
            (r.attempted - r.failed) as f64 / r.attempted as f64,
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let listed = manifest
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()));
    let metrics = manifest.with_units(listed, values)?;
    Ok(run_record(args, workload, false, &prepared, r, metrics))
}

/// The record of one single-workload run.
fn run_record(
    args: &Args,
    workload: &str,
    traced: bool,
    prepared: &Prepared,
    r: Repeats,
    metrics: Table<Metric>,
) -> RunRecord {
    RunRecord {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        traced,
        result: ResultLine {
            correct: r.failed == 0,
            attempted: r.attempted,
            failed: r.failed,
            metrics,
        },
        harness: harness_stats(prepared, &r),
        wall_s: r.wall,
    }
}

/// One workload, per layer: untraced repeats for half of `--seconds`
/// (the base the traced numbers are compared with), then the side
/// runs, the mirror and the probes of `layers::measure`.
fn run_traced(manifest: &Manifest, args: &Args, workload: &str) -> Result<RunRecord, String> {
    let prepared = setup(workload, args.seed, args.quick)?;
    prepared.print_gate(args.seed);
    let r = timed_repeats(&prepared, args.seconds / 2.0);
    let tracer = trace::Tracer::new();
    let mut values = layers::measure(&prepared, &tracer)?;
    values.extend(harness_stats(&prepared, &r).0);

    let path = std::path::Path::new("bench/out").join(format!("trace_{workload}.json"));
    std::fs::create_dir_all("bench/out")
        .and_then(|()| tracer.write_chrome(&path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {} spans to {}", tracer.len(), path.display());

    let listed = manifest
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()));
    let metrics = manifest.with_units(listed, values)?;
    Ok(run_record(args, workload, true, &prepared, r, metrics))
}

/// Prints one run as `name value unit` lines.
fn print_record(record: &RunRecord) {
    println!(
        "== {} (seed {}, {} s{}{})",
        record.workload,
        record.seed,
        record.seconds,
        if record.quick { ", quick" } else { "" },
        if record.traced { ", traced" } else { "" },
    );
    for (name, m) in &record.result.metrics.0 {
        println!("{name:<36} {:>16.6} {}", m.value, m.unit);
    }
    if !record.traced {
        for (name, value) in &record.harness.0 {
            println!("{name:<36} {value:>16.6}");
        }
    }
    let noisy = record
        .harness
        .0
        .get("bench.steal_share")
        .copied()
        .unwrap_or(0.0)
        > NOISY_STEAL;
    println!(
        "{:<36} attempted {} failed {}{}",
        if record.result.correct {
            "checks passed"
        } else {
            "CHECKS FAILED"
        },
        record.result.attempted,
        record.result.failed,
        if noisy {
            "  [noisy: steal share above 0.05, wall-clock rows are suspect]"
        } else {
            ""
        },
    );
}

#[derive(Clone, Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    aa: bool,
    spread: bool,
}

fn parse_args(argv: &[String], manifest: &Manifest) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: manifest.run_seconds as f64,
        trace: false,
        quick: false,
        aa: false,
        spread: false,
    };
    let mut seconds_given = false;
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            // `--trace` alone (the person's form) or `--trace 0|1`
            // (the driver's).
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => args.quick = true,
            "--aa" => args.aa = true,
            "--spread" => args.spread = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    if args.quick && !seconds_given {
        args.seconds = 1.0;
    }
    Ok(args)
}

fn fingerprint(workers: usize, steal_share: f64) -> Fingerprint {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    Fingerprint {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model: read("/proc/cpuinfo")
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or_else(|| "unknown".into(), |(_, m)| m.trim().to_string()),
        kernel: read("/proc/sys/kernel/osrelease").trim().to_string(),
        rustc: env("PERF_RUSTC"),
        commit: env("PERF_COMMIT"),
        workers,
        steal_share,
    }
}

/// Runs one workload in a process of its own — so that peak memory and
/// set-up time are that workload's — and reads its `detail` line back.
fn run_child(args: &Args, workload: &str, seed: u64) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(&exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let record = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or_else(|| format!("{workload}: no result ({})", output.status))
        .and_then(|json| {
            serde_json::from_str::<RunRecord>(json).map_err(|e| format!("{workload}: {e}"))
        })?;
    print_record(&record);
    if output.status.success() {
        Ok(record)
    } else {
        Err(format!("{workload}: {}", output.status))
    }
}

/// Runs every workload of the manifest and stores the set in `out`.
fn run_suite(manifest: &Manifest, args: &Args, out: &str) -> Result<Results, String> {
    let ticks = measure::machine_ticks();
    let mut runs = Vec::new();
    for w in &manifest.workloads {
        eprintln!("running {}: {}", w.name, w.why);
        runs.push(run_child(args, &w.name, args.seed)?);
    }
    let workers = SweepRunner::auto().workers();
    let results = Results {
        fingerprint: fingerprint(workers, measure::steal_share(ticks)),
        runs,
    };
    results.save(std::path::Path::new(out))?;
    println!("wrote {out}");
    Ok(results)
}

/// The steadiness check the benchmark itself must pass: every workload
/// on ten seeds, and for each end-to-end metric the distance between
/// the first and third quartile of its ten values as a share of their
/// median, next to the metric's bound. Quartiles as Python's
/// `statistics.quantiles(values, n=4)` gives them, which is what the
/// driver uses. `Ok(false)` when a spread exceeds its bound (`setup_s`
/// is shown but, as in the driver, not held to it).
fn run_spread(manifest: &Manifest, args: &Args) -> Result<bool, String> {
    const SEEDS: u64 = 10;
    let mut ok = true;
    let mut table = Vec::new();
    for w in &manifest.workloads {
        let runs = (0..SEEDS)
            .map(|i| run_child(args, &w.name, args.seed.wrapping_add(i)))
            .collect::<Result<Vec<_>, _>>()?;
        for entry in &manifest.end_to_end {
            let values: Vec<f64> = runs
                .iter()
                .map(|r| r.result.metrics.0[&entry.name].value)
                .collect();
            let (q1, q2, q3) = measure::quartiles_exclusive(&values);
            let spread = (q3 - q1) / q2;
            let verdict = if spread <= entry.bound / 3.0 {
                "steady"
            } else if spread <= entry.bound || entry.name == "setup_s" {
                "within the bound, above a third of it"
            } else {
                ok = false;
                "ABOVE THE BOUND"
            };
            table.push(format!(
                "{:<16} {:<14} median {:>16.6} {:<6} spread {:>7.4}  bound {:>6.3}  {verdict}",
                w.name, entry.name, q2, entry.unit, spread, entry.bound
            ));
        }
    }
    println!(
        "\n== spread over seeds {}..{}",
        args.seed,
        args.seed.wrapping_add(SEEDS - 1)
    );
    for row in table {
        println!("{row}");
    }
    Ok(ok)
}

fn real_main(process_start: Instant) -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let manifest = Manifest::load()?;
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            return Err("usage: compare A.json B.json".into());
        };
        return compare::compare(&manifest, &Results::load(a)?, &Results::load(b)?);
    }
    let args = parse_args(&argv, &manifest)?;
    if let Some(workload) = args.workload.clone() {
        let record = if args.trace {
            run_traced(&manifest, &args, &workload)?
        } else {
            run_end_to_end(&manifest, &args, &workload, process_start)?
        };
        print_record(&record);
        let detail = serde_json::to_string(&record).map_err(|e| e.to_string())?;
        let result = serde_json::to_string(&record.result).map_err(|e| e.to_string())?;
        println!("detail {detail}\n{result}");
        return Ok(record.result.correct);
    }
    if args.spread {
        return run_spread(&manifest, &args);
    }
    let stem = if args.trace { "layers" } else { "results" };
    if args.aa {
        let a = run_suite(&manifest, &args, &format!("bench/out/{stem}_a.json"))?;
        let b = run_suite(&manifest, &args, &format!("bench/out/{stem}_b.json"))?;
        return compare::compare(&manifest, &a, &b);
    }
    let results = run_suite(&manifest, &args, &format!("bench/out/{stem}.json"))?;
    Ok(results.runs.iter().all(|r| r.result.correct))
}

fn main() -> ExitCode {
    match real_main(Instant::now()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}
