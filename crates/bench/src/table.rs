//! Plain-text tables, one per reproduced figure/claim.

use serde::Serialize;
use std::fmt;

/// A printable experiment table.
///
/// Serializes to JSON (`{"title", "headers", "rows", "notes"}`) for the
/// machine-readable `BENCH_<id>.json` artifacts the `repro` binary
/// emits and `expected/<id>.json` pins.
#[derive(Clone, Debug, Serialize)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Appends a footnote printed under the table.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The cell at `(row, col)` (for assertions in tests).
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, " {c:>w$} |", w = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{}|", "-".repeat(w + 2))?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(f, row)?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

/// Formats a float with 2 decimals (helper for table cells).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["n", "rounds"]);
        t.row(&["2".into(), "3".into()]);
        t.row(&["256".into(), "3".into()]);
        t.note("constant");
        let s = t.to_string();
        assert!(s.contains("## demo"));
        assert!(s.contains("|   n | rounds |"));
        assert!(s.contains("note: constant"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.cell(1, 0), "256");
    }

    #[test]
    #[should_panic(expected = "row width must match")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["1".into()]);
    }

    #[test]
    fn f2_formats() {
        assert_eq!(f2(1.0 / 3.0), "0.33");
    }
}
