//! Experiment harness: regenerates every table and figure of
//! *Modeling and Analyzing Latency in the Memcached system* (ICDCS 2017).
//!
//! Each experiment lives in [`experiments`] as a function returning an
//! [`ExpResult`] (named columns + rows + notes); the `src/bin/*` binaries
//! are thin wrappers that print the ASCII table and write a CSV under
//! `results/`. `cargo run --release -p memlat-experiments --bin all`
//! regenerates everything.
//!
//! Two run profiles control cost:
//!
//! * default — publication-quality sample counts (seconds per figure in
//!   release mode);
//! * `MEMLAT_QUICK=1` — ~10× cheaper, used by the test suite and the
//!   scaled-down Criterion benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use memlat_cluster::SimScratch;

pub mod ablations;
pub mod delayed_hits;
pub mod emergent_r;
pub mod experiments;
pub mod fault;

/// One regenerated table/figure: a column-labeled numeric table plus
/// free-form notes (what the paper shows, how to compare).
#[derive(Debug, Clone, PartialEq)]
pub struct ExpResult {
    /// Short identifier, e.g. `"fig07"`.
    pub id: String,
    /// Human title, e.g. `"Fig. 7 — E[T_S(N)] vs arrival rate"`.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows (one `f64` per column).
    pub rows: Vec<Vec<f64>>,
    /// Notes printed under the table (paper comparison, caveats).
    pub notes: Vec<String>,
}

impl ExpResult {
    /// Creates an empty result with headers.
    #[must_use]
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the headers.
    pub fn push_row(&mut self, row: Vec<f64>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width mismatch in {}",
            self.id
        );
        self.rows.push(row);
    }

    /// Appends a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Renders the ASCII table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let widths: Vec<usize> = self.columns.iter().map(|c| c.len().max(12)).collect();
        for (c, w) in self.columns.iter().zip(&widths) {
            let _ = write!(out, "{c:>w$} ", w = w);
        }
        let _ = writeln!(out);
        for row in &self.rows {
            for (v, w) in row.iter().zip(&widths) {
                let _ = write!(out, "{} ", format_cell(*v, *w));
            }
            let _ = writeln!(out);
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }

    /// Renders CSV content.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = self.columns.join(",");
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV under `results/<id>.csv` (relative to the workspace
    /// root when run via cargo) and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_csv(&self) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.csv", self.id));
        fs::write(&path, self.to_csv())?;
        Ok(path)
    }

    /// Prints the table and saves the CSV (the standard binary epilogue).
    pub fn emit(&self) {
        println!("{}", self.render());
        match self.save_csv() {
            Ok(p) => println!("  csv: {}", p.display()),
            Err(e) => eprintln!("  csv write failed: {e}"),
        }
    }

    /// A column's values, by header name.
    #[must_use]
    pub fn column(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.columns.iter().position(|c| c == name)?;
        Some(self.rows.iter().map(|r| r[idx]).collect())
    }
}

fn format_cell(v: f64, w: usize) -> String {
    let s = if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    };
    format!("{s:>w$}")
}

/// The `results/` directory: workspace-root-relative when available.
#[must_use]
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/experiments → ../../results.
    let base = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .map(|p| p.join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."));
    base.join("results")
}

/// Whether the cheap profile is requested (`MEMLAT_QUICK=1`).
#[must_use]
pub fn quick_mode() -> bool {
    std::env::var("MEMLAT_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Simulated seconds per sweep point for the current profile.
#[must_use]
pub fn sim_duration() -> f64 {
    if quick_mode() {
        0.4
    } else {
        4.0
    }
}

/// Synthetic requests to assemble per point for the current profile.
#[must_use]
pub fn request_count() -> usize {
    if quick_mode() {
        5_000
    } else {
        60_000
    }
}

/// Runs sweep points on [`memlat_cluster::pool`], at most one worker per
/// point, preserving input order. Each worker owns one [`SimScratch`]
/// and passes it to every point it runs, so simulation sweeps allocate
/// their per-key buffers once per worker; a point's replications and
/// servers run inline on its worker. Every point is a fixed-seed
/// simulation written back by input position, so the thread count
/// changes wall-clock only.
pub fn parallel_sweep<I: Send, O: Send>(
    inputs: Vec<I>,
    f: impl Fn(&mut SimScratch, I) -> O + Sync,
) -> Vec<O> {
    let threads = memlat_cluster::pool::threads(0).clamp(1, inputs.len().max(1));
    let mut scratches: Vec<SimScratch> = (0..threads).map(|_| SimScratch::new()).collect();
    let mut outputs: Vec<Option<O>> = inputs.iter().map(|_| None).collect();
    let Ok(()) = memlat_cluster::pool::for_each(
        &mut scratches,
        inputs.into_iter().zip(outputs.iter_mut()),
        |scratch, _, (input, slot)| {
            *slot = Some(f(scratch, input));
            Ok::<(), std::convert::Infallible>(())
        },
    );
    outputs
        .into_iter()
        .map(|o| o.expect("sweep slot unfilled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_table_round_trip() {
        let mut r = ExpResult::new("t", "Test", &["a", "b"]);
        r.push_row(vec![1.0, 2.0]);
        r.push_row(vec![3.5, 4.25]);
        r.note("hello");
        let rendered = r.render();
        assert!(rendered.contains("Test"));
        assert!(rendered.contains("hello"));
        let csv = r.to_csv();
        assert!(csv.starts_with("a,b\n"));
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(r.column("b"), Some(vec![2.0, 4.25]));
        assert_eq!(r.column("missing"), None);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut r = ExpResult::new("t", "Test", &["a", "b"]);
        r.push_row(vec![1.0]);
    }

    #[test]
    fn parallel_sweep_preserves_order() {
        let out = parallel_sweep((0..32).collect(), |_, i: i32| i * i);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }
}
