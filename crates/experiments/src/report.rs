//! Plain-text rendering of experiment results: aligned tables for the
//! terminal and CSV for plotting.

use std::fmt::Write as _;

/// A simple column-aligned table with a title, used by every experiment
/// binary to print the paper-figure data series.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Convenience: a row of formatted floats after a label.
    pub fn row_fmt(&mut self, label: impl Into<String>, values: &[f64]) {
        let mut cells = vec![label.into()];
        cells.extend(values.iter().map(|v| format!("{v:.3}")));
        self.row(&cells);
    }

    /// Renders the aligned table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Renders the table as CSV (headers + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats bits/s as Mbps with two decimals.
pub fn mbps(bps: f64) -> String {
    format!("{:.2}", bps / 1e6)
}

/// Formats a ratio as a percentage gain, e.g. `+77.5%`.
pub fn gain_pct(new: f64, base: f64) -> String {
    if base <= 0.0 {
        return "n/a".to_string();
    }
    format!("{:+.1}%", (new / base - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["x", "goodput"]);
        t.row(&["1".into(), "5.00".into()]);
        t.row(&["20".into(), "10.25".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("goodput"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["x,y".into(), "z\"w".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"z\"\"w\""));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_width_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(mbps(5.5e6), "5.50");
        assert_eq!(gain_pct(1.775e6, 1.0e6), "+77.5%");
        assert_eq!(gain_pct(1.0, 0.0), "n/a");
    }
}
