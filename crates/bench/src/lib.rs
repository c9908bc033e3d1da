//! Shared helpers for the benchmark binaries that regenerate the paper's
//! tables and figures.
//!
//! Each binary under `src/bin/` reproduces one table or figure (see
//! DESIGN.md's experiment index). This library holds the common pieces:
//! CLI parsing for the `--scale`/`--seed` knobs, suite loading, and table
//! formatting.

pub mod campaign;
pub mod harness;
pub mod json;

use matraptor_sparse::gen::suite::{table2, MatrixSpec};
use matraptor_sparse::Csr;

/// Common options shared by all experiment binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Divisor applied to Table II dimensions (1 = paper-scale, slow).
    pub scale: usize,
    /// Generator seed.
    pub seed: u64,
    /// Emit machine-readable JSON alongside the table.
    pub json: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options { scale: 64, seed: 7, json: false }
    }
}

impl Options {
    /// Parses `--scale N`, `--seed N` and `--json` from `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn from_args() -> Self {
        let mut opts = Options::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => {
                    opts.scale = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("--scale needs a positive integer"));
                }
                "--seed" => {
                    opts.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("--seed needs an integer"));
                }
                "--json" => opts.json = true,
                other => panic!("unknown argument {other}; supported: --scale N --seed N --json"),
            }
        }
        assert!(opts.scale > 0, "--scale must be positive");
        opts
    }
}

/// Parses a numeric command-line value: decimal, or hex after `0x`/`0X`.
pub fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// A generated benchmark matrix with its Table II identity.
#[derive(Debug, Clone)]
pub struct SuiteMatrix {
    /// The Table II row this matrix reproduces.
    pub spec: MatrixSpec,
    /// The generated matrix.
    pub matrix: Csr<f64>,
}

/// Generates the full Table II suite at the requested scale.
pub fn load_suite(opts: &Options) -> Vec<SuiteMatrix> {
    table2()
        .into_iter()
        .map(|spec| SuiteMatrix { spec, matrix: spec.generate(opts.scale, opts.seed) })
        .collect()
}

/// Geometric mean of a non-empty slice.
///
/// # Panics
///
/// Panics if `xs` is empty or contains non-positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean requires positive values, got {x}");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

/// Renders a simple aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_u64_takes_decimal_and_either_hex_prefix() {
        assert_eq!(parse_u64("42"), Some(42));
        assert_eq!(parse_u64("0xA7"), Some(0xA7));
        assert_eq!(parse_u64("0XCAFE"), Some(0xCAFE));
        assert_eq!(parse_u64("0x"), None);
        assert_eq!(parse_u64("-1"), None);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[4.0, 16.0]) - 8.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    fn suite_loads_at_small_scale() {
        let suite = load_suite(&Options { scale: 512, seed: 1, json: false });
        assert_eq!(suite.len(), 14);
        assert!(suite.iter().all(|m| m.matrix.nnz() > 0));
    }
}
