//! Plain-text table rendering for the experiment harness.
//!
//! Each harness figure prints the rows/series of one paper figure or
//! table; this module provides the shared column-aligned renderer and the
//! CSV writer for its per-run records.

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells, long rows
    /// are rejected.
    ///
    /// # Panics
    /// Panics if the row has more cells than there are headers.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert!(
            cells.len() <= self.headers.len(),
            "row has {} cells but table has {} columns",
            cells.len(),
            self.headers.len()
        );
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Renders with aligned columns and a header separator.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| -> String {
            let mut s = String::new();
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                s.push_str(&format!("{cell:<w$}"));
            }
            s.trim_end().to_string()
        };
        let mut out = line(&self.headers);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }

    /// Renders as CSV (naive quoting: cells containing commas are quoted).
    pub fn to_csv(&self) -> String {
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let mut out = self
            .headers
            .iter()
            .map(|h| esc(h))
            .collect::<Vec<_>>()
            .join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(vec!["algo", "time"]);
        t.row(vec!["SEQ", "1.0"]);
        t.row(vec!["LSH_ps0", "0.5"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("algo"));
        assert!(lines[2].starts_with("SEQ"));
        // Column 2 aligned: "time" starts at same offset in all rows.
        let col = lines[0].find("time").unwrap();
        assert_eq!(&lines[2][col..col + 3], "1.0");
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["x"]);
        assert!(t.render().contains('x'));
    }

    #[test]
    #[should_panic]
    fn long_rows_rejected() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["x", "y"]);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new(vec!["name", "vals"]);
        t.row(vec!["x", "1,2"]);
        assert!(t.to_csv().contains("\"1,2\""));
    }
}
