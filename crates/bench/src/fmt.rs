//! Plain-text table rendering for the harness output.

/// Renders an aligned text table. The first row is the header.
pub(crate) fn table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (ri, row) in rows.iter().enumerate() {
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            if i == 0 {
                out.push_str(&format!("{:<width$}", cell, width = widths[i]));
            } else {
                out.push_str(&format!("{:>width$}", cell, width = widths[i]));
            }
        }
        out.push('\n');
        if ri == 0 {
            for (i, w) in widths.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&"-".repeat(*w));
            }
            out.push('\n');
        }
    }
    out
}

/// Formats a ratio with two decimals, using `-` for non-finite values.
pub(crate) fn ratio(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.2}")
    } else {
        "-".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(&[
            vec!["name".into(), "value".into()],
            vec!["a".into(), "1".into()],
            vec!["long-name".into(), "22".into()],
        ]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("----"));
        // Right-aligned numbers line up.
        assert!(lines[2].ends_with("1"));
        assert!(lines[3].ends_with("22"));
    }

    #[test]
    fn ratio_handles_infinities() {
        assert_eq!(ratio(1.234), "1.23");
        assert_eq!(ratio(f64::INFINITY), "-");
    }
}
