//! Minimal CSV writing for experiment series.
//!
//! The harness emits both a human-readable table and a CSV file (under
//! `results/`) so the figures can be re-plotted with any tool.
//! Hand-rolled on purpose: the offline dependency set has no CSV crate,
//! and RFC-4180 quoting for numeric series is ~40 lines.

use std::fmt::Write as _;

/// An in-memory CSV document.
///
/// # Example
///
/// ```
/// use astriflash_stats::CsvDoc;
/// let mut doc = CsvDoc::new(&["load", "p99"]);
/// doc.row(&["0.5", "12.3"]);
/// assert_eq!(doc.render(), "load,p99\n0.5,12.3\n");
/// ```
#[derive(Debug, Clone)]
pub struct CsvDoc {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

fn escape(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

impl CsvDoc {
    /// Creates a document with the given column names.
    pub fn new(header: &[&str]) -> Self {
        CsvDoc {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row(&mut self, fields: &[&str]) {
        let mut r: Vec<String> = fields
            .iter()
            .take(self.header.len())
            .map(|s| s.to_string())
            .collect();
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
    }

    /// Appends a row of owned strings.
    pub fn row_owned(&mut self, fields: Vec<String>) {
        let mut r = fields;
        r.truncate(self.header.len());
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders RFC-4180-style CSV text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| escape(c)).collect();
            let _ = writeln!(out, "{}", line.join(","));
        };
        write_row(&mut out, &self.header);
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows() {
        let mut d = CsvDoc::new(&["a", "b"]);
        d.row(&["1", "2"]);
        d.row_owned(vec!["3".into(), "4".into()]);
        assert_eq!(d.render(), "a,b\n1,2\n3,4\n");
        assert_eq!(d.num_rows(), 2);
    }

    #[test]
    fn quotes_special_fields() {
        let mut d = CsvDoc::new(&["x"]);
        d.row(&["has,comma"]);
        d.row(&["has\"quote"]);
        assert_eq!(d.render(), "x\n\"has,comma\"\n\"has\"\"quote\"\n");
    }

    #[test]
    fn pads_and_truncates() {
        let mut d = CsvDoc::new(&["a", "b"]);
        d.row(&["only"]);
        d.row(&["1", "2", "extra"]);
        assert_eq!(d.render(), "a,b\nonly,\n1,2\n");
    }
}
