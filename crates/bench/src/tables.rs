//! Minimal fixed-width table rendering for the experiment harnesses.

/// A simple table with a header row.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for c in 0..cols {
            width[c] = self.header[c].len();
            for r in &self.rows {
                width[c] = width[c].max(r[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:>w$}", w = width[c]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &width));
        let total: usize = width.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &width));
        }
        out
    }
}

/// Render a `u128` with thousands separators.
pub fn fmt_u(n: u128) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "12345".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("12345"));
    }

    #[test]
    fn thousands_separators() {
        assert_eq!(fmt_u(0), "0");
        assert_eq!(fmt_u(999), "999");
        assert_eq!(fmt_u(1000), "1,000");
        assert_eq!(fmt_u(1234567890), "1,234,567,890");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        Table::new(&["a", "b"]).row(&["x".into()]);
    }
}
