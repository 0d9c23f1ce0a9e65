//! Plain-text table rendering for the experiment reports.

use crate::json::{arr_at, str_at, Json};

/// A simple aligned text table with a header row.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with space-padded, `|`-separated columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str(" | ");
                }
                line.push_str(&format!("{:width$}", cells[i], width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        out.push_str(&fmt_row(&sep, &widths));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// The Figure 6/7 layout: one line per element of `report`'s `rows`, its
/// `row_key` under `key_header`, then one `cell` per measurement of its
/// `strategies`, under the measured strategies' names.
pub fn strategy_table(
    report: &Json,
    key_header: &str,
    row_key: impl Fn(&Json) -> String,
    cell: impl Fn(&Json) -> String,
) -> TextTable {
    let rows = arr_at(report, "rows");
    let mut header = vec![key_header];
    if let Some(first) = rows.first() {
        let strategies = arr_at(first, "strategies").iter();
        header.extend(strategies.map(|m| str_at(m, "strategy")));
    }
    let mut t = TextTable::new(&header);
    for row in rows {
        let mut cells = vec![row_key(row)];
        cells.extend(arr_at(row, "strategies").iter().map(&cell));
        t.row(cells);
    }
    t
}

/// Formats a product size the way Table 1 does (`9.1 × 10^7`).
pub fn fmt_scientific(n: u64) -> String {
    if n < 1000 {
        return n.to_string();
    }
    let exp = (n as f64).log10().floor() as u32;
    let mantissa = n as f64 / 10f64.powi(exp as i32);
    format!("{mantissa:.1}e{exp}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("----"));
        assert!(lines[3].starts_with("longer | 22"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        TextTable::new(&["a"]).row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn scientific_format() {
        assert_eq!(fmt_scientific(12), "12");
        assert_eq!(fmt_scientific(2_500_000), "2.5e6");
        assert_eq!(fmt_scientific(91_000_000), "9.1e7");
    }
}
