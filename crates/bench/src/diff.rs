//! Bench-artifact validation: structurally check one `BENCH_*.json`
//! table.
//!
//! `repro bench-diff --check` is built on this module and is the gate
//! CI applies to every artifact instead of ad-hoc `test -s` / `grep`
//! guards: [`check_table`] parses the file as a [`Table`], requires at
//! least one data row, and requires every needle to be present
//! somewhere in the table (title, headers, cells, or notes). Comparing
//! two runs is vi-perf's job (`bench/run.sh compare`).

use crate::table::Table;

/// Loads a bench artifact.
fn load_table(path: &str) -> Result<Table, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if raw.trim().is_empty() {
        return Err(format!("{path}: empty artifact"));
    }
    serde_json::from_str(&raw).map_err(|e| format!("{path}: not a bench table: {e}"))
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
