//! The observability layer, end to end: run a catalog scenario with
//! telemetry enabled and print what its observers saw — the
//! deterministic counter table (round-mode split, cache behaviour,
//! channel totals) and the wall-clock phase histograms (p50/p95/p99
//! per pipeline stage).
//!
//! ```sh
//! cargo run --example telemetry_demo --release
//! ```
//!
//! Set `VI_TRACE=trace.json` to additionally export a Perfetto/Chrome
//! trace of sweep-worker and job spans (open it in `ui.perfetto.dev`).

use virtual_infra::scenario::{catalog, EngineTuning, SweepRunner};

fn main() {
    let names = ["city_scale", "commuter_wave"];
    let specs: Vec<_> = names
        .iter()
        .map(|n| catalog::scenario(n).expect("catalog scenario"))
        .collect();
    let tuning = EngineTuning::DEFAULT.with_telemetry();
    let outcomes = SweepRunner::auto().run_matrix_with(&specs, &[1], tuning);

    for out in &outcomes {
        let tele = out
            .telemetry
            .as_ref()
            .expect("telemetry was enabled via EngineTuning");

        println!("== {} (seed {}) ==\n", out.scenario, out.seed);
        println!("deterministic counters:");
        for (name, value) in tele.counters.rows() {
            if value > 0 {
                println!("  {name:<24} {value:>12}");
            }
        }

        println!("\nphase timings (wall-clock µs, excluded from determinism):");
        println!(
            "  {:<10} {:>8} {:>10} {:>8} {:>8} {:>8} {:>8}",
            "phase", "samples", "total", "p50", "p95", "p99", "max"
        );
        for p in &tele.phases.phases {
            if p.samples == 0 {
                continue;
            }
            println!(
                "  {:<10} {:>8} {:>10} {:>8} {:>8} {:>8} {:>8}",
                p.phase, p.samples, p.total_us, p.p50_us, p.p95_us, p.p99_us, p.max_us
            );
        }
        println!();
    }

    println!("rounds are counted once per mode: steady (cached fast path), scatter");
    println!("(few broadcasters), reanchor (cache rebuild), churn (membership change).");
    println!("Re-run with VI_TRACE=trace.json for a Perfetto span export of the same sweep.");
}
