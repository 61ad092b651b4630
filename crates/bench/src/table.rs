//! Result tables: aligned console output plus CSV artifacts.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// A rectangular result table with a title and column headers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table {
    /// Human-readable experiment title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows (each the same length as `columns`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub(crate) fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the header's.
    pub(crate) fn push(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width {} != column count {}",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Renders the table as a CSV document (header + rows, `\n` line
    /// endings on every host) — the exact bytes [`Table::write_csv`]
    /// writes, and the unit the golden-output tests byte-compare.
    pub fn to_csv_string(&self) -> String {
        fn quote(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        let cols: Vec<String> = self.columns.iter().map(|c| quote(c)).collect();
        out.push_str(&cols.join(","));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|c| quote(c)).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the table as CSV to `path`, creating parent directories
    /// (so a fresh checkout without `results/` works out of the box).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_csv_string())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        writeln!(f, "  {}", header.join(" | "))?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        writeln!(f, "  {}", rule.join("-+-"))?;
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            writeln!(f, "  {}", cells.join(" | "))?;
        }
        Ok(())
    }
}

/// Formats a float with `prec` fixed decimal places in a canonical,
/// host-stable form — the one float→text path every table cell goes
/// through, so golden CSV comparisons are byte-exact:
///
/// * fixed precision (never shortest-roundtrip `Display`, whose digit
///   count depends on the value);
/// * anything that rounds to zero prints as positive zero (`-0.0` and
///   tiny negatives would otherwise leak `-0.00` into the bytes);
/// * non-finite values render as `NaN` / `inf` / `-inf` regardless of
///   how the platform spells them elsewhere.
pub(crate) fn fstable(x: f64, prec: usize) -> String {
    if x.is_nan() {
        return "NaN".into();
    }
    if x.is_infinite() {
        return if x > 0.0 { "inf" } else { "-inf" }.into();
    }
    let s = format!("{x:.prec$}");
    match s.strip_prefix('-') {
        Some(mag) if mag.chars().all(|c| c == '0' || c == '.') => mag.to_string(),
        _ => s,
    }
}

/// Formats a float with 3 decimal places (table cell helper).
pub(crate) fn f3(x: f64) -> String {
    fstable(x, 3)
}

/// Formats a float with 2 decimal places (table cell helper).
pub(crate) fn f2(x: f64) -> String {
    fstable(x, 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_render() {
        let mut t = Table::new("demo", &["n", "mean"]);
        t.push(vec!["1".into(), f2(2.0)]);
        t.push(vec!["10".into(), f3(1.25)]);
        let s = t.to_string();
        assert!(s.contains("== demo =="));
        assert!(s.contains("1.250"));
        assert!(s.contains("mean"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(vec!["1".into()]);
    }

    #[test]
    fn fstable_is_canonical() {
        assert_eq!(fstable(-0.0, 2), "0.00");
        assert_eq!(fstable(0.0, 3), "0.000");
        assert_eq!(fstable(1.0 / 3.0, 3), "0.333");
        assert_eq!(fstable(f64::NAN, 2), "NaN");
        assert_eq!(fstable(f64::INFINITY, 2), "inf");
        assert_eq!(fstable(f64::NEG_INFINITY, 2), "-inf");
        // Tiny negatives that round to zero must not print "-0.00".
        assert_eq!(fstable(-1e-9, 2), "0.00");
        assert_eq!(fstable(-0.004, 2), "0.00");
        assert_eq!(fstable(-0.006, 2), "-0.01");
    }

    #[test]
    fn csv_roundtrip() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(vec!["1".into(), "2".into()]);
        let dir = std::env::temp_dir().join("nc_bench_test");
        let path = dir.join("t.csv");
        t.write_csv(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "a,b\n1,2\n");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn csv_quotes_commas_and_quotes() {
        let mut t = Table::new("demo", &["name", "v"]);
        t.push(vec!["2/3,4/3".into(), "say \"hi\"".into()]);
        let dir = std::env::temp_dir().join("nc_bench_test_q");
        let path = dir.join("t.csv");
        t.write_csv(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "name,v\n\"2/3,4/3\",\"say \"\"hi\"\"\"\n");
        let _ = std::fs::remove_dir_all(dir);
    }
}
