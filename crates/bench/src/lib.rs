//! Experiment harness: shared plumbing for the binaries that regenerate
//! every table and figure of MIT-LCS-TM-322.
//!
//! Each `src/bin/*.rs` target regenerates one artifact (see DESIGN.md's
//! per-experiment index); this library holds the shared measurement and
//! formatting code so the binaries stay declarative.

use std::fmt::Display;

use serde_json::{ToJson, Value};

pub mod grids;
pub mod render;

/// Least-squares slope of `log y` against `log x` — the measured growth
/// exponent to compare with the paper's `Θ(n^e)` claims.
///
/// ```
/// let xs: [f64; 4] = [16.0, 64.0, 256.0, 1024.0];
/// let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x.powf(1.5)).collect();
/// let e = bench::fit_exponent(&xs, &ys);
/// assert!((e - 1.5).abs() < 1e-9);
/// ```
pub fn fit_exponent(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2, "need at least two points to fit a slope");
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    let n = lx.len() as f64;
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    assert!(
        var > 0.0,
        "exponent fit needs at least two distinct x values"
    );
    cov / var
}

/// `lg n` as f64.
pub fn lg(n: usize) -> f64 {
    (n as f64).log2()
}

/// A plain-text table printer with right-aligned columns.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row; each cell is formatted with `Display`.
    pub fn row<I: IntoIterator<Item = V>, V: Display>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(|c| c.to_string()).collect();
        assert_eq!(row.len(), self.header.len(), "row width must match header");
        self.rows.push(row);
        self
    }

    /// Render to a string.
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
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cells[i], width = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Banner for experiment output, tying it back to the paper artifact.
pub fn banner(experiment: &str, paper_ref: &str) {
    println!("==========================================================================");
    println!("{experiment}");
    println!("reproduces: {paper_ref}");
    println!("==========================================================================");
}

/// Version of the `BENCH_*.json` layout under [`bench_header`]; raise it
/// when a key that readers rely on moves or changes meaning.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// The header a `BENCH_*.json` file leads with: which benchmark wrote
/// it, the commit it ran from (`git describe --always --dirty`, so a
/// tree with uncommitted changes reads `<parent>-dirty`), the host's
/// cores, whether it ran in quick mode, and [`BENCH_SCHEMA_VERSION`].
pub fn bench_header(benchmark: &str, quick: bool) -> Vec<(&'static str, Value)> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("benchmark", Value::String(benchmark.into())),
        ("commit", Value::String(commit())),
        ("host_cores", (cores as u64).to_json()),
        ("quick", Value::Bool(quick)),
        ("schema_version", BENCH_SCHEMA_VERSION.to_json()),
    ]
}

/// The repository's commit as `git describe` names it, or `"unknown"`
/// where git or the repository is missing.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["-C", concat!(env!("CARGO_MANIFEST_DIR"), "/../..")])
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |text| text.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_fit_recovers_power_laws() {
        let xs = [4.0, 16.0, 64.0, 256.0];
        for e in [0.5, 1.0, 1.75] {
            let ys: Vec<f64> = xs.iter().map(|x: &f64| 7.0 * x.powf(e)).collect();
            assert!((fit_exponent(&xs, &ys) - e).abs() < 1e-9);
        }
    }

    #[test]
    fn text_table_renders_aligned() {
        let mut t = TextTable::new(["n", "value"]);
        t.row([16.to_string(), "abc".to_string()]);
        t.row([1024.to_string(), "z".to_string()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("value"));
        assert!(lines[3].ends_with("z"));
    }

    #[test]
    fn bench_header_names_every_field() {
        let header = bench_header("tiers", false);
        let keys: Vec<_> = header.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            [
                "benchmark",
                "commit",
                "host_cores",
                "quick",
                "schema_version"
            ]
        );
        assert_eq!(header[0].1, Value::String("tiers".into()));
        assert_eq!(header[3].1, Value::Bool(false));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only one"]);
    }
}
