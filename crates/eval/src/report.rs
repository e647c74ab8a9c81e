//! Plain-text and CSV rendering of experiment results.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A titled table of strings — what every experiment driver produces.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table {
    /// Table/figure title (e.g. `"Figure 5 — MCAR"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (each the same length as `headers`). Numbers pushed by
    /// [`Table::push_values`] are held in their shortest round-trip form,
    /// which is what [`Table::to_csv`] writes.
    pub rows: Vec<Vec<String>>,
    /// Per row: whether its cells after the label are numbers, which
    /// [`Table::render`] rounds to 4 decimals.
    pub numeric: Vec<bool>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            numeric: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        self.push(row, false);
    }

    /// Convenience for numeric rows: a label followed by values, kept at
    /// full precision and rendered at 4 decimals.
    pub fn push_values(&mut self, label: &str, values: &[f64]) {
        let mut row = vec![label.to_string()];
        row.extend(values.iter().map(|v| format!("{v}")));
        self.push(row, true);
    }

    fn push(&mut self, row: Vec<String>, numeric: bool) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch in '{}'", self.title);
        self.rows.push(row);
        self.numeric.push(numeric);
    }

    /// The rendered text of each row: numbers at 4 decimals, other cells as
    /// they are.
    fn display_rows(&self) -> Vec<Vec<String>> {
        let numeric = |r: usize| self.numeric.get(r).copied().unwrap_or(false);
        let cell_text = |r: usize, c: usize, cell: &String| match cell.parse::<f64>() {
            Ok(v) if numeric(r) && c > 0 => format!("{v:.4}"),
            _ => cell.clone(),
        };
        self.rows
            .iter()
            .enumerate()
            .map(|(r, row)| row.iter().enumerate().map(|(c, cell)| cell_text(r, c, cell)).collect())
            .collect()
    }

    /// Renders an aligned, boxed plain-text table.
    pub fn render(&self) -> String {
        let rows = self.display_rows();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String| {
            let _ = write!(out, "+");
            for w in &widths {
                let _ = write!(out, "{}+", "-".repeat(w + 2));
            }
            let _ = writeln!(out);
        };
        line(&mut out);
        let _ = write!(out, "|");
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(out, " {h:w$} |");
        }
        let _ = writeln!(out);
        line(&mut out);
        for row in &rows {
            let _ = write!(out, "|");
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(out, " {cell:w$} |");
            }
            let _ = writeln!(out);
        }
        line(&mut out);
        out
    }

    /// Renders RFC-4180-ish CSV (quotes cells containing commas or quotes).
    pub fn to_csv(&self) -> String {
        let quote = |s: &str| {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(|h| quote(h)).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
        }
        out
    }

    /// Cell at `(row, col)` parsed as f64, if possible.
    pub fn value(&self, row: usize, col: usize) -> Option<f64> {
        self.rows.get(row)?.get(col)?.parse().ok()
    }

    /// Column index of a header.
    pub fn col(&self, header: &str) -> Option<usize> {
        self.headers.iter().position(|h| h == header)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["method", "MAE"]);
        t.push_values("CDRec", &[0.1234]);
        t.push_values("DeepMVI", &[0.05]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("| CDRec"));
        assert!(s.contains("0.0500"));
    }

    #[test]
    fn csv_cells_round_trip_while_the_render_rounds() {
        let x = 0.1 + 0.2;
        let mut t = Table::new("p", &["m", "x", "y"]);
        t.push_values("a", &[x, f64::NAN]);
        let csv = t.to_csv();
        let cell = csv.lines().nth(1).unwrap().split(',').nth(1).unwrap();
        assert_eq!(cell.parse::<f64>().unwrap().to_bits(), x.to_bits());
        assert_eq!(t.value(0, 1), Some(x));
        let text = t.render();
        assert!(text.contains("| 0.3000 |") && text.contains("NaN"), "{text}");
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = Table::new("q", &["a", "b"]);
        t.push_row(vec!["x,y".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn value_parses_numeric_cells() {
        let mut t = Table::new("v", &["m", "x"]);
        t.push_values("a", &[1.5]);
        assert_eq!(t.value(0, 1), Some(1.5));
        assert_eq!(t.value(0, 0), None);
        assert_eq!(t.col("x"), Some(1));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_validated() {
        let mut t = Table::new("w", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }
}
