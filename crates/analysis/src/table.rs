//! Fixed-width text tables for the experiment binaries.

/// A simple fixed-width text table with a title, a header row and data rows.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row of already-formatted cells.
    ///
    /// # Panics
    /// Panics if the number of cells does not match the header.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} does not match header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Adds a row of displayable values.
    pub fn row_display<T: std::fmt::Display>(&mut self, cells: &[T]) -> &mut Self {
        let formatted: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&formatted)
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("== {} ==\n", self.title));
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, &width) in widths.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:<width$}"));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a float with 2 decimal places (the convention of the experiment tables).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a ratio as a percentage with one decimal place.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["short".to_string(), "1".to_string()]);
        t.row(&["a-much-longer-name".to_string(), "12345".to_string()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // title, header, rule, 2 rows.
        assert_eq!(lines.len(), 5);
        // Header columns aligned to the widest cell.
        assert!(lines[1].starts_with("name"));
        assert!(lines[3].starts_with("short"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn row_display_formats_values() {
        let mut t = Table::new("", &["a", "b", "c"]);
        t.row_display(&[1, 2, 3]);
        assert_eq!(t.len(), 1);
        let s = t.render();
        assert!(!s.contains("=="), "empty title is omitted");
        assert!(s.contains('1') && s.contains('3'));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".to_string()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.234567), "1.23");
        assert_eq!(pct(0.4567), "45.7%");
    }
}
