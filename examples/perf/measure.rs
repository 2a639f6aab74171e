//! Host-side clocks and order statistics. Everything here reads the
//! *host* (wall clock, `/proc`), never the simulation: simulated
//! statistics come out of `ScenarioOutcome` and are compared exactly.

use std::time::Instant;

/// `sysconf(_SC_CLK_TCK)` is 100 on every Linux this runs on; the
/// wrapper script exports the real value so a different kernel
/// configuration cannot silently skew CPU seconds.
fn clock_ticks_per_second() -> f64 {
    std::env::var("PERF_CLK_TCK")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(100.0)
}

fn read_proc(path: &str) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("the benchmark needs Linux procfs: cannot read {path}: {e}"))
}

/// User + system CPU seconds of this process, all threads, exited
/// ones included (`utime + stime` of `/proc/self/stat`).
pub fn cpu_seconds() -> f64 {
    let stat = read_proc("/proc/self/stat");
    // The command name (field 2) may contain spaces; fields resume
    // after its closing parenthesis, `state` being field 3.
    let rest = stat.rsplit_once(')').map_or(stat.as_str(), |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .expect("utime/stime in /proc/self/stat")
    };
    (tick() + tick()) / clock_ticks_per_second()
}

fn status_kib(key: &str) -> f64 {
    read_proc("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or_else(|| panic!("{key} missing from /proc/self/status"))
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// Resets the kernel's peak-RSS mark to the current RSS, so a later
/// [`peak_rss_mib`] shows the rise caused by one call. Returns whether
/// the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `(steal, total)` CPU ticks of the whole machine since boot.
pub fn machine_ticks() -> (u64, u64) {
    let stat = read_proc("/proc/stat");
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice.
    let total = ticks.iter().take(8).sum();
    (ticks.get(7).copied().unwrap_or(0), total)
}

/// Share of machine CPU time stolen by the hypervisor since `since`.
pub fn steal_share(since: (u64, u64)) -> f64 {
    let (steal, total) = machine_ticks();
    let dt = total.saturating_sub(since.1);
    if dt == 0 {
        0.0
    } else {
        steal.saturating_sub(since.0) as f64 / dt as f64
    }
}

/// Seconds `f` took on the wall clock, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// `num / den`, or 0 when there is nothing to divide by (a workload
/// the metric does not apply to).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The value at fractional index `pos` of `sorted` (ascending),
/// linearly interpolated and clamped to the ends.
fn at(sorted: &[f64], pos: f64) -> f64 {
    assert!(!sorted.is_empty(), "order statistic of no samples");
    let pos = pos.clamp(0.0, (sorted.len() - 1) as f64);
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The `q`-quantile of `sorted` (ascending), linearly interpolated.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    at(sorted, q * (sorted.len() - 1) as f64)
}

/// Ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// Mean of `values` over the quarter of the repeats with the smallest
/// `wall` (at least one): a figure for the undisturbed part of a run
/// that, unlike a single sample, averages out the 10 ms tick `values`
/// may be counted in.
pub fn mean_over_fastest_quarter(wall: &[f64], values: &[f64]) -> f64 {
    assert_eq!(wall.len(), values.len(), "one value per repeat");
    let mut order: Vec<usize> = (0..wall.len()).collect();
    order.sort_by(|&a, &b| wall[a].total_cmp(&wall[b]));
    let fastest = &order[..(wall.len() / 4).max(1)];
    fastest.iter().map(|&i| values[i]).sum::<f64>() / fastest.len() as f64
}

/// `(Q1, median, Q3)` by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns and the driver uses to
/// judge run-to-run spread.
pub fn quartiles_exclusive(samples: &[f64]) -> (f64, f64, f64) {
    let s = sorted(samples);
    let q = |q: f64| at(&s, q * (s.len() + 1) as f64 - 1.0);
    (q(0.25), q(0.5), q(0.75))
}

/// The tail a sample supports: the highest of p99 / p95 / p90 / p75
/// with at least ten samples beyond it, else the maximum (reported as
/// percentile 100). Returns `(percentile, value)`.
pub fn supported_tail(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    for pct in [99.0, 95.0, 90.0, 75.0] {
        if s.len() as f64 * (1.0 - pct / 100.0) >= 10.0 {
            return (pct, quantile(&s, pct / 100.0));
        }
    }
    (100.0, s[s.len() - 1])
}

/// FNV-1a over `bytes`, folded to 52 bits so the value survives a
/// trip through a JSON number unchanged.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h ^ (h >> 52)) & ((1 << 52) - 1)
}
