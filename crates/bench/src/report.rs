//! Plain-text tables and JSON result records.

use std::fs;
use std::path::Path;

use serde_json::Value;

/// A simple aligned text table.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with column headers.
    pub(crate) fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Render to a string.
    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&line(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }

    /// Print to stdout with a title.
    pub(crate) fn print(&self, title: &str) {
        println!("\n== {title} ==");
        print!("{}", self.render());
    }
}

/// Format seconds as milliseconds with one decimal, or pass an error marker
/// through ("OOM", "X", "-").
pub(crate) fn ms(v: &Result<f64, String>) -> String {
    match v {
        Ok(s) => format!("{:.1}", s * 1e3),
        Err(e) => e.split(' ').next().unwrap_or("-").to_string(),
    }
}

/// Write `value` to `results/<name>.json`, replacing the file. Panics,
/// naming the path, when the directory or the file cannot be written: a
/// silent failure would leave a stale result in place.
pub(crate) fn save_json(name: &str, value: &Value) {
    let dir = Path::new("results");
    fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    let path = dir.join(format!("{name}.json"));
    let s = serde_json::to_string_pretty(value).expect("a JSON value serialises");
    fs::write(&path, s).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "metric"]);
        t.row(vec!["1".into(), "2.5".into()]);
        t.row(vec!["1000".into(), "x".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].contains('1'));
    }

    #[test]
    fn ms_formats_and_passes_markers() {
        assert_eq!(ms(&Ok(1.2345)), "1234.5");
        assert_eq!(ms(&Err("OOM".into())), "OOM");
        assert_eq!(ms(&Err("X (bad depth)".into())), "X");
    }
}
