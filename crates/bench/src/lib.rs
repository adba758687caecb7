//! Shared helpers for the table/figure regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper (see DESIGN.md's experiment index); this library holds the
//! text-table formatting they share and the scoped-thread [`pool`]
//! that fans sweep jobs out across cores.

pub mod pool;

/// Renders a simple aligned text table.
///
/// # Examples
///
/// ```
/// let t = eve_bench::render_table(
///     &["sys", "speedup"],
///     &[vec!["IO".into(), "1.00".into()]],
/// );
/// assert!(t.contains("IO"));
/// ```
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, c) in cells.iter().enumerate().take(cols) {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{c:>w$}", w = widths[i]));
        }
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|s| (*s).to_string()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Formats a ratio like `"3.42x"`.
#[must_use]
pub fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a percentage like `"12.3%"`.
#[must_use]
pub fn fmt_pct(v: f64) -> String {
    format!("{v:.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = render_table(
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with('-'));
        assert!(lines[2].ends_with('2'));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_x(3.456), "3.46x");
        assert_eq!(fmt_pct(12.34), "12.3%");
    }
}
