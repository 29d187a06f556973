//! ASCII table rendering.

/// A rectangular table with a title.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    /// Caption printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows; ragged rows are padded with empty cells on render.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of owned strings.
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Table {
        self.rows.push(cells);
        self
    }

    fn column_count(&self) -> usize {
        self.rows
            .iter()
            .map(Vec::len)
            .chain([self.headers.len()])
            .max()
            .unwrap_or(0)
    }

    fn widths(&self) -> Vec<usize> {
        let cols = self.column_count();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        widths
    }

    /// Render as a boxed ASCII table.
    pub fn render(&self) -> String {
        let widths = self.widths();
        if widths.is_empty() {
            return format!("{}\n(empty)\n", self.title);
        }
        let sep = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s
        };
        let render_row = |cells: &[String]| {
            let mut line = String::from("|");
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                // Right-align numeric-looking cells.
                let numeric = !cell.is_empty()
                    && cell
                        .chars()
                        .all(|c| c.is_ascii_digit() || ",.%-+".contains(c));
                if numeric {
                    line.push_str(&format!(" {cell:>w$} |", w = w));
                } else {
                    line.push_str(&format!(" {cell:<w$} |", w = w));
                }
            }
            line
        };

        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        if !self.headers.is_empty() {
            out.push_str(&render_row(&self.headers));
            out.push('\n');
            out.push_str(&sep);
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out.push_str(&sep);
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Table 2: Dataset", &["Dataset", "No. of apps"]);
        t.row_owned(vec![
            "Play Store apps in Androzoo".into(),
            "6,507,222".into(),
        ]);
        t.row_owned(vec!["Apps successfully analyzed".into(), "146,558".into()]);
        t
    }

    #[test]
    fn ascii_render_alignment() {
        let r = sample().render();
        assert!(r.contains("Table 2"));
        assert!(r.contains("| Play Store apps in Androzoo |"));
        // Numeric right-aligned: ends just before the closing pipe.
        assert!(r.contains("6,507,222 |"));
        // Separators present.
        assert!(r.matches('+').count() >= 9);
    }

    #[test]
    fn ragged_rows_padded() {
        let mut t = Table::new("t", &["a", "b", "c"]);
        t.row_owned(vec!["only-one".into()]);
        let r = t.render();
        assert!(r.contains("| only-one |   |   |"), "{r}");
    }

    #[test]
    fn empty_table_renders() {
        let t = Table::new("empty", &[]);
        assert!(t.render().contains("empty"));
    }
}
