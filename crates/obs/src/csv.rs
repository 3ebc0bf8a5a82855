//! Minimal CSV emission (RFC 4180 quoting) for time-series exports.

use std::fmt::Display;

/// Incremental CSV document builder.
///
/// ```
/// use hemu_obs::Csv;
/// let mut csv = Csv::new(&["t_seconds", "pcm_write_mbs"]);
/// csv.row(&[&0.5, &123.4]);
/// assert_eq!(csv.finish(), "t_seconds,pcm_write_mbs\n0.5,123.4\n");
/// ```
#[derive(Debug, Default)]
pub struct Csv {
    out: String,
    columns: usize,
}

impl Csv {
    /// Starts a document with a header row.
    pub fn new(header: &[&str]) -> Self {
        let mut csv = Csv {
            out: String::new(),
            columns: header.len(),
        };
        csv.raw_row(header.iter().map(|s| s.to_string()));
        csv
    }

    /// Appends one data row; each cell is rendered with `Display`.
    ///
    /// # Panics
    ///
    /// Panics if the number of cells differs from the header width.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.columns, "CSV row width mismatch");
        self.raw_row(cells.iter().map(|c| c.to_string()));
    }

    fn raw_row(&mut self, cells: impl Iterator<Item = String>) {
        let mut first = true;
        for cell in cells {
            if !first {
                self.out.push(',');
            }
            first = false;
            push_csv_field(&mut self.out, &cell);
        }
        self.out.push('\n');
    }

    /// Returns the finished document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Appends one field, quoting it if it contains a comma, quote, or newline.
pub(crate) fn push_csv_field(out: &mut String, field: &str) {
    if field.contains(['"', ',', '\n', '\r']) {
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_fields_pass_through() {
        let mut csv = Csv::new(&["a", "b"]);
        csv.row(&[&1u64, &2.5f64]);
        assert_eq!(csv.finish(), "a,b\n1,2.5\n");
    }

    #[test]
    fn special_fields_are_quoted() {
        let mut out = String::new();
        push_csv_field(&mut out, "x,y");
        out.push(' ');
        push_csv_field(&mut out, "say \"hi\"");
        out.push(' ');
        push_csv_field(&mut out, "two\nlines");
        assert_eq!(out, "\"x,y\" \"say \"\"hi\"\"\" \"two\nlines\"");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut csv = Csv::new(&["a", "b"]);
        csv.row(&[&1u64]);
    }

    /// RFC 4180 end-to-end at the document level: commas, quotes, CR/LF,
    /// and combinations must all arrive quoted (and quotes doubled), in
    /// header and data rows alike.
    #[test]
    fn document_escapes_special_fields_rfc4180() {
        let mut csv = Csv::new(&["key", "note"]);
        csv.row(&[&"lusearch,KG-N,1,emulation", &"plain"]);
        csv.row(&[&"say \"hi\"", &"two\nlines"]);
        csv.row(&[&"crlf\r\nrow", &"both,\"and\"\nmore"]);
        assert_eq!(
            csv.finish(),
            "key,note\n\
             \"lusearch,KG-N,1,emulation\",plain\n\
             \"say \"\"hi\"\"\",\"two\nlines\"\n\
             \"crlf\r\nrow\",\"both,\"\"and\"\"\nmore\"\n"
        );
    }

    #[test]
    fn header_fields_are_escaped_too() {
        let csv = Csv::new(&["a,b", "plain"]);
        assert_eq!(csv.finish(), "\"a,b\",plain\n");
    }
}
