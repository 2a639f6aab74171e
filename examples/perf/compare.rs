//! `compare A.json B.json`: per workload and end-to-end metric, both
//! values, the ratio with its base, the bound, and a verdict.
//!
//! The verdict follows the rule the benchmark's bounds are written
//! for: B is `worse` (`better`) when its value is beyond A's by more
//! than the metric's bound, `same` when within it — and `unresolved`,
//! whichever way the values fall, when a wall-clock metric was taken
//! on a run whose own spread (inter-quartile range of its repeats over
//! their median) exceeds the bound or whose steal share says the
//! machine was not ours.

use crate::report::{EndToEndEntry, Manifest, Results, RunRecord};
use crate::NOISY_STEAL;

/// Metrics the host's scheduling noise reaches. Peak memory and the
/// share of successful operations repeat regardless.
fn wall_clock(metric: &str) -> bool {
    matches!(
        metric,
        "run_s_p05" | "cpu_s_per_run" | "ops_per_s" | "setup_s"
    )
}

/// Spread the run itself reports, as a share of its median repeat.
fn spread(run: &RunRecord) -> f64 {
    let stat = |name: &str| run.harness.0.get(name).copied().unwrap_or(0.0);
    match stat("bench.run_s_p50") {
        p50 if p50 > 0.0 => stat("bench.run_s_iqr") / p50,
        _ => 0.0,
    }
}

fn steal(run: &RunRecord) -> f64 {
    run.harness
        .0
        .get("bench.steal_share")
        .copied()
        .unwrap_or(0.0)
}

fn verdict(entry: &EndToEndEntry, a: &RunRecord, b: &RunRecord, va: f64, vb: f64) -> &'static str {
    if wall_clock(&entry.name)
        && [a, b]
            .iter()
            .any(|r| spread(r) > entry.bound || steal(r) > NOISY_STEAL)
    {
        return "unresolved";
    }
    // Positive when B is worse than A, as a share of A.
    let worse_by = match entry.better.as_str() {
        "higher" => (va - vb) / va,
        _ => (vb - va) / va,
    };
    if worse_by > entry.bound {
        "worse"
    } else if -worse_by > entry.bound {
        "better"
    } else {
        "same"
    }
}

/// Prints the comparison; `Ok(false)` when B is worse than A anywhere
/// or the simulated statistics changed.
pub fn compare(manifest: &Manifest, a: &Results, b: &Results) -> Result<bool, String> {
    println!(
        "A: {} ({}, {} workers, steal {:.3})\nB: {} ({}, {} workers, steal {:.3})",
        a.fingerprint.commit,
        a.fingerprint.cpu_model,
        a.fingerprint.workers,
        a.fingerprint.steal_share,
        b.fingerprint.commit,
        b.fingerprint.cpu_model,
        b.fingerprint.workers,
        b.fingerprint.steal_share,
    );
    let mut ok = true;
    for ra in a.runs.iter().filter(|r| !r.traced) {
        let Some(rb) = b
            .runs
            .iter()
            .find(|r| !r.traced && r.workload == ra.workload)
        else {
            return Err(format!("{} is missing from B", ra.workload));
        };
        if (ra.seed, ra.quick) != (rb.seed, rb.quick) {
            return Err(format!(
                "{}: A and B ran different inputs (seed {} vs {}, quick {} vs {})",
                ra.workload, ra.seed, rb.seed, ra.quick, rb.quick
            ));
        }
        println!(
            "\n== {}  (spread A {:.3} B {:.3}, steal A {:.3} B {:.3})",
            ra.workload,
            spread(ra),
            spread(rb),
            steal(ra),
            steal(rb)
        );
        println!(
            "{:<16} {:>14} {:>14} {:>12} {:>7}  verdict",
            "metric", "A", "B", "B/A", "bound"
        );
        for entry in &manifest.end_to_end {
            let value = |r: &RunRecord| {
                r.result
                    .metrics
                    .0
                    .get(&entry.name)
                    .map(|m| m.value)
                    .ok_or_else(|| format!("{}: no {}", r.workload, entry.name))
            };
            let (va, vb) = (value(ra)?, value(rb)?);
            let v = verdict(entry, ra, rb, va, vb);
            ok &= v != "worse";
            println!(
                "{:<16} {:>14.6} {:>14.6} {:>10.4}×A {:>7.3}  {v} ({}, {} is better)",
                entry.name,
                va,
                vb,
                vb / va,
                entry.bound,
                entry.unit,
                entry.better,
            );
        }
        let digest = |r: &RunRecord| r.harness.0.get("bench.digest").copied();
        if digest(ra) == digest(rb) {
            println!("bench.digest     unchanged: the simulated statistics are identical");
        } else {
            ok = false;
            println!(
                "bench.digest     CHANGED {:?} -> {:?}: behaviour changed, not only speed",
                digest(ra),
                digest(rb)
            );
        }
        if ra.result.failed != rb.result.failed {
            ok = false;
            println!(
                "failed ops       CHANGED {} -> {}",
                ra.result.failed, rb.result.failed
            );
        }
    }
    Ok(ok)
}
