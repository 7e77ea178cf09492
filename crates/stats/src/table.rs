//! Plain-text table rendering for figure/table harness output.
//!
//! The bench binaries print the paper's rows and series as aligned text
//! tables; this keeps the output diff-able and dependency-free.

use std::fmt::Write as _;

/// An aligned text table builder.
///
/// # Example
///
/// ```
/// use astriflash_stats::TextTable;
/// let mut t = TextTable::new(&["config", "norm_tput"]);
/// t.row(&["AstriFlash", "0.95"]);
/// t.row(&["OS-Swap", "0.58"]);
/// let s = t.render();
/// assert!(s.contains("AstriFlash"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Short rows are padded with empty cells; long rows
    /// are truncated to the header width.
    pub fn row(&mut self, cells: &[&str]) {
        let mut r: Vec<String> = cells
            .iter()
            .take(self.headers.len())
            .map(|s| s.to_string())
            .collect();
        r.resize(self.headers.len(), String::new());
        self.rows.push(r);
    }

    /// Appends a row of already-owned strings (for formatted values).
    pub fn row_owned(&mut self, cells: Vec<String>) {
        let mut r = cells;
        r.truncate(self.headers.len());
        r.resize(self.headers.len(), String::new());
        self.rows.push(r);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table with a header separator line.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (c, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{cell:<width$}", width = widths[c]);
                if c + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
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
    fn renders_aligned_columns() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(&["a", "1"]);
        t.row(&["longer", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Columns align: "value" column starts at the same offset.
        let off0 = lines[0].find("value").unwrap();
        assert_eq!(&lines[2][off0..off0 + 1], "1");
    }

    #[test]
    fn pads_and_truncates_rows() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["only"]);
        t.row(&["x", "y", "extra"]);
        assert_eq!(t.num_rows(), 2);
        let s = t.render();
        assert!(!s.contains("extra"));
    }
}
