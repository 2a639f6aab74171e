//! Bench-artifact diffing: compare two `BENCH_*.json` tables with a
//! noise tolerance, or structurally validate a single artifact.
//!
//! The `repro bench-diff` subcommand is built on this module and
//! replaces the ad-hoc `test -s` / `grep` guards CI used to apply to
//! bench artifacts:
//!
//! * [`diff_tables`] aligns rows of two runs of the same experiment by
//!   their identity cells, compares the performance columns
//!   (recognized by unit keywords in the header), and classifies a
//!   change as a regression only when it moves in the *bad* direction
//!   by more than the tolerance — wall-clock numbers jitter, so exact
//!   equality is the wrong gate.
//! * [`check_table`] validates one artifact: parseable as a [`Table`],
//!   at least one data row, and every required needle present
//!   somewhere in the table (title, headers, cells, or notes).

use crate::table::Table;

/// Which way a performance column is allowed to move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (latencies, ms/round, overhead ratios).
    LowerBetter,
    /// Larger is better (speedups, throughput).
    HigherBetter,
}

/// Classifies a column header: `Some(direction)` for performance
/// columns (gated with tolerance), `None` for identity/informational
/// columns (used as the row key).
///
/// Recognition is keyword-based on the lowercased header: speedup and
/// throughput columns improve upward; time units, ns per operation,
/// memory in MiB, overhead, and ratio columns improve downward.
/// Deterministic counts (rounds, receptions, seeds) carry no unit
/// keyword and stay identity columns — a change there is a behavior
/// change, not noise, and shows up as a removed/added row pair.
pub fn perf_direction(header: &str) -> Option<Direction> {
    let h = header.to_lowercase();
    if ["speedup", "throughput", "ops/s"]
        .iter()
        .any(|k| h.contains(k))
    {
        return Some(Direction::HigherBetter);
    }
    if [
        "ms", "µs", "usec", " us", "sec", "ns/op", "mib", "overhead", "ratio", "time",
    ]
    .iter()
    .any(|k| h.contains(k))
    {
        return Some(Direction::LowerBetter);
    }
    None
}

/// The outcome of a table diff: a human-readable report plus the
/// subset of lines that are tolerance-exceeding regressions.
#[derive(Debug, Default)]
pub struct DiffOutcome {
    /// Every comparison line (improvements, small drifts, row churn).
    pub report: Vec<String>,
    /// Lines where a perf column moved in the bad direction by more
    /// than the tolerance.
    pub regressions: Vec<String>,
}

impl DiffOutcome {
    /// Whether the diff is within tolerance.
    pub fn clean(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Loads a bench artifact.
pub fn load_table(path: &str) -> Result<Table, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if raw.trim().is_empty() {
        return Err(format!("{path}: empty artifact"));
    }
    serde_json::from_str(&raw).map_err(|e| format!("{path}: not a bench table: {e}"))
}

/// The identity key of a row: its cells in non-perf columns, joined.
/// Deterministic numeric columns (seeds, round counts) are part of the
/// key on purpose — see [`perf_direction`].
fn row_key(headers: &[String], row: &[String]) -> String {
    headers
        .iter()
        .zip(row)
        .filter(|(h, _)| perf_direction(h).is_none())
        .map(|(_, c)| c.as_str())
        .collect::<Vec<_>>()
        .join(" | ")
}

/// Diffs `new` against `old` with a relative `tolerance` (0.30 =
/// a perf cell may move 30% in the bad direction before it counts as
/// a regression). Rows are aligned by identity key; perf cells that
/// fail to parse as numbers (e.g. `-` placeholders) are skipped.
pub fn diff_tables(old: &Table, new: &Table, tolerance: f64) -> DiffOutcome {
    let mut out = DiffOutcome::default();
    if old.headers() != new.headers() {
        out.report.push(format!(
            "schema changed: {} columns -> {} columns (perf gating skipped)",
            old.headers().len(),
            new.headers().len()
        ));
        return out;
    }
    let headers = old.headers();
    let old_rows: Vec<(String, &Vec<String>)> = old
        .rows()
        .iter()
        .map(|r| (row_key(headers, r), r))
        .collect();
    let new_rows: Vec<(String, &Vec<String>)> = new
        .rows()
        .iter()
        .map(|r| (row_key(headers, r), r))
        .collect();

    for (key, _) in &old_rows {
        if !new_rows.iter().any(|(k, _)| k == key) {
            out.report.push(format!("row removed: [{key}]"));
        }
    }
    for (key, new_row) in &new_rows {
        let Some((_, old_row)) = old_rows.iter().find(|(k, _)| k == key) else {
            out.report.push(format!("row added:   [{key}]"));
            continue;
        };
        for (i, header) in headers.iter().enumerate() {
            let Some(direction) = perf_direction(header) else {
                continue;
            };
            let (Ok(a), Ok(b)) = (old_row[i].parse::<f64>(), new_row[i].parse::<f64>()) else {
                continue;
            };
            if a == b {
                continue;
            }
            // Relative movement in the *bad* direction.
            let base = a.abs().max(f64::MIN_POSITIVE);
            let worse = match direction {
                Direction::LowerBetter => (b - a) / base,
                Direction::HigherBetter => (a - b) / base,
            };
            let line = format!(
                "[{key}] {header}: {a} -> {b} ({:+.1}% {})",
                (b - a) / base * 100.0,
                if worse > 0.0 { "worse" } else { "better" }
            );
            if worse > tolerance {
                out.regressions.push(line.clone());
            }
            if worse.abs() > tolerance {
                out.report.push(line);
            }
        }
    }
    out
}

/// Validates one artifact: parses as a [`Table`], has at least one
/// data row, and contains every `needle` somewhere (title, headers,
/// cells, or notes). Returns a one-line summary on success.
pub fn check_table(path: &str, needles: &[String]) -> Result<String, String> {
    let table = load_table(path)?;
    if table.is_empty() {
        return Err(format!("{path}: table has no data rows"));
    }
    let haystack: Vec<&str> = std::iter::once(table.title())
        .chain(table.headers().iter().map(String::as_str))
        .chain(table.rows().iter().flatten().map(String::as_str))
        .chain(table.notes().iter().map(String::as_str))
        .collect();
    for needle in needles {
        if !haystack.iter().any(|cell| cell.contains(needle.as_str())) {
            return Err(format!("{path}: expected content '{needle}' not found"));
        }
    }
    Ok(format!(
        "{path}: ok ({} rows, {} checks)",
        table.len(),
        needles.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(title: &str, rows: &[(&str, &str, &str)]) -> Table {
        let mut t = Table::new(title, &["scenario", "rounds", "ms/round", "speedup"]);
        for (name, ms, speedup) in rows {
            t.row(&[
                name.to_string(),
                "120".to_string(),
                ms.to_string(),
                speedup.to_string(),
            ]);
        }
        t
    }

    #[test]
    fn classifies_columns_by_unit_keywords() {
        assert_eq!(perf_direction("ms/round"), Some(Direction::LowerBetter));
        assert_eq!(
            perf_direction("phase p95 µs (adv)"),
            Some(Direction::LowerBetter)
        );
        assert_eq!(
            perf_direction("overhead ratio"),
            Some(Direction::LowerBetter)
        );
        assert_eq!(perf_direction("ns/op"), Some(Direction::LowerBetter));
        assert_eq!(perf_direction("hwm rise MiB"), Some(Direction::LowerBetter));
        assert_eq!(perf_direction("speedup"), Some(Direction::HigherBetter));
        assert_eq!(perf_direction("scenario"), None);
        assert_eq!(perf_direction("rounds"), None);
        assert_eq!(perf_direction("seed"), None);
    }

    #[test]
    fn tolerated_jitter_is_not_a_regression() {
        let old = table("t", &[("clique", "1.00", "2.0")]);
        let new = table("t", &[("clique", "1.10", "1.9")]);
        let d = diff_tables(&old, &new, 0.30);
        assert!(d.clean(), "{:?}", d.regressions);
    }

    #[test]
    fn bad_direction_past_tolerance_is_a_regression() {
        let old = table("t", &[("clique", "1.00", "2.0")]);
        // ms/round up 2x: regression. speedup up: improvement.
        let new = table("t", &[("clique", "2.00", "4.0")]);
        let d = diff_tables(&old, &new, 0.30);
        assert_eq!(d.regressions.len(), 1);
        assert!(d.regressions[0].contains("ms/round"), "{:?}", d.regressions);
        // The speedup doubling is reported but not a regression.
        assert!(d.report.iter().any(|l| l.contains("speedup")));
    }

    #[test]
    fn good_direction_never_gates() {
        let old = table("t", &[("clique", "2.00", "1.0")]);
        let new = table("t", &[("clique", "0.50", "9.0")]);
        assert!(diff_tables(&old, &new, 0.30).clean());
    }

    #[test]
    fn row_churn_is_reported_not_gated() {
        let old = table("t", &[("clique", "1.0", "2.0")]);
        let new = table("t", &[("mesh", "1.0", "2.0")]);
        let d = diff_tables(&old, &new, 0.30);
        assert!(d.clean());
        assert!(d.report.iter().any(|l| l.contains("row removed")));
        assert!(d.report.iter().any(|l| l.contains("row added")));
    }

    #[test]
    fn identity_cells_include_deterministic_counts() {
        // A change in a deterministic count (rounds) re-keys the row
        // instead of being averaged away as noise.
        let old = table("t", &[("clique", "1.0", "2.0")]);
        let mut new = Table::new("t", &["scenario", "rounds", "ms/round", "speedup"]);
        new.row(&[
            "clique".to_string(),
            "121".to_string(),
            "1.0".to_string(),
            "2.0".to_string(),
        ]);
        let d = diff_tables(&old, &new, 0.30);
        assert!(d.report.iter().any(|l| l.contains("row removed")));
    }

    #[test]
    fn check_validates_artifacts_round_trip() {
        let dir = std::env::temp_dir().join("vi_bench_diff_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_demo.json");
        let path_str = path.to_str().unwrap();
        let t = table("demo", &[("clique", "1.0", "2.0")]);
        std::fs::write(&path, serde_json::to_string(&t).unwrap()).unwrap();
        check_table(path_str, &["clique".to_string(), "ms/round".to_string()])
            .expect("valid artifact");
        let err = check_table(path_str, &["absent-needle".to_string()]).unwrap_err();
        assert!(err.contains("absent-needle"));
        std::fs::write(&path, "").unwrap();
        assert!(check_table(path_str, &[]).is_err(), "empty file rejected");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn loaded_tables_round_trip_through_serde() {
        let t = table("demo", &[("clique", "1.0", "2.0")]);
        let json = serde_json::to_string(&t).unwrap();
        let back: Table = serde_json::from_str(&json).unwrap();
        assert_eq!(back.title(), "demo");
        assert_eq!(back.headers(), t.headers());
        assert_eq!(back.rows(), t.rows());
    }
}
