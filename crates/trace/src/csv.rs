//! Minimal CSV writing (hand-rolled — the values are all numeric or simple
//! identifiers, so no quoting/escaping machinery is needed; fields
//! containing commas/quotes/newlines are rejected loudly instead).

use crate::series::Series;
use std::io::{self, Write};
use std::path::Path;

/// A rectangular table headed by column names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CsvTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> CsvTable {
        CsvTable { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the arity differs from the header or a field contains a
    /// CSV metacharacter.
    pub fn push_row<S: Into<String>>(&mut self, row: impl IntoIterator<Item = S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        for f in &row {
            assert!(
                !f.contains(',') && !f.contains('"') && !f.contains('\n'),
                "CSV field needs quoting, which this writer deliberately does not do: {f:?}"
            );
        }
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Serializes to CSV text.
    pub fn to_string_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes to any sink.
    pub fn write_to(&self, mut w: impl Write) -> io::Result<()> {
        w.write_all(self.to_string_csv().as_bytes())
    }

    /// Writes to a file path, creating parent directories.
    pub fn write_file(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        self.write_to(std::fs::File::create(path)?)
    }
}

/// Writes several series sharing an x axis as one CSV: columns
/// `x, <name1>, <name2>, ...`. Series are sampled at the union of x
/// values; missing y values are left empty.
pub fn write_csv(x_label: &str, series: &[Series]) -> CsvTable {
    let mut xs: Vec<f64> = series.iter().flat_map(|s| s.points().iter().map(|p| p.0)).collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup();
    let mut headers = vec![x_label.to_string()];
    headers.extend(series.iter().map(|s| s.name().to_string()));
    let mut table = CsvTable::new(headers);
    for &x in &xs {
        let mut row = vec![format!("{x}")];
        for s in series {
            match s.points().iter().find(|p| p.0 == x) {
                Some(&(_, y)) => row.push(format!("{y}")),
                None => row.push(String::new()),
            }
        }
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = CsvTable::new(["iter", "cost"]);
        t.push_row(["0", "10.5"]);
        t.push_row(["1", "9.25"]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.to_string_csv(), "iter,cost\n0,10.5\n1,9.25\n");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = CsvTable::new(["a", "b"]);
        t.push_row(["only one"]);
    }

    #[test]
    #[should_panic(expected = "quoting")]
    fn metacharacters_rejected() {
        let mut t = CsvTable::new(["a"]);
        t.push_row(["has,comma"]);
    }

    #[test]
    fn multi_series_union() {
        let a = Series::from_points("se", vec![(0.0, 5.0), (2.0, 3.0)]);
        let b = Series::from_points("ga", vec![(0.0, 6.0), (1.0, 4.0)]);
        let t = write_csv("t", &[a, b]);
        let s = t.to_string_csv();
        assert_eq!(s, "t,se,ga\n0,5,6\n1,,4\n2,3,\n");
    }

    #[test]
    fn write_file_creates_dirs() {
        let dir = std::env::temp_dir().join("mshc_trace_test").join("nested");
        let path = dir.join("out.csv");
        let _ = std::fs::remove_file(&path);
        let mut t = CsvTable::new(["x"]);
        t.push_row(["1"]);
        t.write_file(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, "x\n1\n");
        std::fs::remove_dir_all(std::env::temp_dir().join("mshc_trace_test")).unwrap();
    }
}
