//! Shared experiment harness for the table/figure reproduction binaries.
//!
//! Every `src/bin/figN.rs` / `src/bin/tableN.rs` binary regenerates one
//! exhibit of the paper. They share this crate's [`Harness`] — the standard
//! substrate stack (space, simulated Xavier, accuracy oracle, trained MLP
//! predictor, LUT baseline) — and its plain-text rendering helpers.
//!
//! Set `LIGHTNAS_QUICK=1` to shrink the predictor-training corpus and the
//! search schedules (used by the integration tests; the printed numbers are
//! then indicative only).

pub mod plot;

use std::time::Instant;

use lightnas::SearchConfig;
use lightnas_eval::AccuracyOracle;
use lightnas_hw::Xavier;
use lightnas_predictor::{LutPredictor, Metric, MetricDataset, MlpPredictor, TrainConfig};
use lightnas_space::SearchSpace;

/// The standard substrate stack shared by all experiment binaries.
#[derive(Debug)]
pub struct Harness {
    /// The paper's search space (224 × 224, width 1.0).
    pub space: SearchSpace,
    /// The simulated Jetson AGX Xavier (MAXN, batch 8).
    pub device: Xavier,
    /// The ImageNet accuracy oracle.
    pub oracle: AccuracyOracle,
    /// The MLP latency predictor, trained on the sampled corpus.
    pub predictor: MlpPredictor,
    /// The look-up-table baseline.
    pub lut: LutPredictor,
    /// The held-out validation fold of the predictor corpus.
    pub valid: MetricDataset,
    /// Whether the harness runs in quick (CI) mode.
    pub quick: bool,
}

/// `true` when `LIGHTNAS_QUICK=1` (or any non-empty value) is set.
pub fn quick_mode() -> bool {
    std::env::var("LIGHTNAS_QUICK")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// Worker-thread count for the scheduler-driven harnesses: the
/// `LIGHTNAS_WORKERS` variable when set to a positive integer, otherwise
/// the machine's available parallelism (capped at 8).
pub fn sweep_workers() -> usize {
    std::env::var("LIGHTNAS_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8)
        })
}

impl Harness {
    /// Builds the standard stack: samples the latency corpus (10,000
    /// architectures as in the paper; 1,500 in quick mode), trains the MLP
    /// predictor on the 80% fold and builds the LUT.
    pub fn standard() -> Self {
        let quick = quick_mode();
        let threads = lightnas_tensor::kernels::init_threads_from_env();
        if threads > 1 {
            eprintln!("[harness] tensor kernels on {threads} threads (bit-identical to serial)");
        }
        let space = SearchSpace::standard();
        let device = Xavier::maxn();
        let oracle = AccuracyOracle::imagenet();
        let n = if quick { 1500 } else { 10_000 };
        let epochs = if quick { 40 } else { 150 };
        let started = Instant::now();
        let data = MetricDataset::sample_diverse(&device, &space, Metric::LatencyMs, n, 0);
        let (train, valid) = data.split(0.8);
        eprintln!(
            "[harness] sampled {n} architectures in {:.1?}",
            started.elapsed()
        );
        let started = Instant::now();
        let predictor = MlpPredictor::train(
            &train,
            &TrainConfig {
                epochs,
                batch_size: 256,
                lr: 1e-3,
                seed: 0,
            },
        );
        eprintln!(
            "[harness] trained MLP predictor ({epochs} epochs) in {:.1?}; validation RMSE {:.3} ms",
            started.elapsed(),
            predictor.rmse(&valid)
        );
        let lut = LutPredictor::build(&device, &space);
        Self {
            space,
            device,
            oracle,
            predictor,
            lut,
            valid,
            quick,
        }
    }

    /// The search schedule appropriate for the mode: the paper's 90-epoch
    /// schedule, or the shortened one in quick mode.
    pub fn search_config(&self) -> SearchConfig {
        if self.quick {
            SearchConfig::fast()
        } else {
            SearchConfig::paper()
        }
    }

    /// Trains an **energy** predictor on a fresh corpus (Fig. 8).
    pub fn energy_predictor(&self) -> (MlpPredictor, MetricDataset) {
        let n = if self.quick { 1500 } else { 10_000 };
        let epochs = if self.quick { 40 } else { 150 };
        let data = MetricDataset::sample_diverse(&self.device, &self.space, Metric::EnergyMj, n, 1);
        let (train, valid) = data.split(0.8);
        let predictor = MlpPredictor::train(
            &train,
            &TrainConfig {
                epochs,
                batch_size: 256,
                lr: 1e-3,
                seed: 1,
            },
        );
        (predictor, valid)
    }
}

/// Saves an SVG chart under `results/<name>.svg` (creating the directory)
/// and prints where it went. I/O failures are reported, not fatal — the
/// text output is the primary artifact.
pub fn save_figure(name: &str, chart: &plot::SvgPlot) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("[plot] cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.svg"));
    match chart.save(&path) {
        Ok(()) => eprintln!("[plot] wrote {}", path.display()),
        Err(e) => eprintln!("[plot] failed to write {}: {e}", path.display()),
    }
}

/// Prints one acceptance verdict line (`  label ..... YES (detail)`) and
/// returns `pass`, so an exhibit can fold its bars with `pass &= …`.
pub fn verdict(label: &str, pass: bool, detail: &str) -> bool {
    let dots = ".".repeat(44usize.saturating_sub(label.len()));
    let word = if pass { "YES" } else { "NO" };
    if detail.is_empty() {
        println!("  {label} {dots} {word}");
    } else {
        println!("  {label} {dots} {word} ({detail})");
    }
    pass
}

/// Renders an aligned plain-text table.
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    for (i, r) in rows.iter().enumerate() {
        assert_eq!(
            r.len(),
            cols,
            "row {i} has {} cells, expected {cols}",
            r.len()
        );
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (w, cell) in widths.iter_mut().zip(r) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    out.push('|');
    for (h, w) in headers.iter().zip(&widths) {
        out.push_str(&format!(" {h:<w$} |"));
    }
    out.push('\n');
    sep(&mut out);
    for r in rows {
        out.push('|');
        for (cell, w) in r.iter().zip(&widths) {
            out.push_str(&format!(" {cell:<w$} |"));
        }
        out.push('\n');
    }
    sep(&mut out);
    out
}

/// Renders an ASCII scatter/line chart of `(x, y)` points.
///
/// Used by the figure binaries: not publication graphics, but enough to see
/// the shape (monotonicity, convergence, gaps) the paper's figures show.
pub fn ascii_chart(title: &str, points: &[(f64, f64)], width: usize, height: usize) -> String {
    if points.is_empty() {
        return format!("{title}\n(no data)\n");
    }
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in points {
        xmin = xmin.min(x);
        xmax = xmax.max(x);
        ymin = ymin.min(y);
        ymax = ymax.max(y);
    }
    if (xmax - xmin).abs() < 1e-12 {
        xmax = xmin + 1.0;
    }
    if (ymax - ymin).abs() < 1e-12 {
        ymax = ymin + 1.0;
    }
    let mut grid = vec![vec![b' '; width]; height];
    for &(x, y) in points {
        let cx = (((x - xmin) / (xmax - xmin)) * (width - 1) as f64).round() as usize;
        let cy = (((y - ymin) / (ymax - ymin)) * (height - 1) as f64).round() as usize;
        grid[height - 1 - cy][cx] = b'*';
    }
    let mut out = format!("{title}\n");
    out.push_str(&format!("y: [{ymin:.2}, {ymax:.2}]\n"));
    for row in grid {
        out.push('|');
        out.push_str(std::str::from_utf8(&row).expect("ascii"));
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!("x: [{xmin:.2}, {xmax:.2}]\n"));
    out
}

/// Pearson correlation of two equal-length series.
///
/// # Panics
///
/// Panics if the series differ in length or have fewer than 2 points.
pub fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "series lengths differ");
    assert!(xs.len() >= 2, "need at least two points");
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let cov: f64 = xs
        .iter()
        .zip(ys)
        .map(|(a, b)| (a - mx) * (b - my))
        .sum::<f64>();
    let sx: f64 = xs.iter().map(|a| (a - mx) * (a - mx)).sum::<f64>().sqrt();
    let sy: f64 = ys.iter().map(|b| (b - my) * (b - my)).sum::<f64>().sqrt();
    cov / (sx * sy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns_columns() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer-name".into(), "2".into()],
            ],
        );
        assert!(t.contains("| name        | value |") || t.contains("| name"));
        let line_lens: Vec<usize> = t.lines().map(|l| l.len()).collect();
        assert!(
            line_lens.windows(2).all(|w| w[0] == w[1]),
            "ragged table:\n{t}"
        );
    }

    #[test]
    #[should_panic(expected = "expected 2")]
    fn render_table_rejects_ragged_rows() {
        let _ = render_table(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn ascii_chart_contains_points() {
        let c = ascii_chart("t", &[(0.0, 0.0), (1.0, 1.0)], 20, 5);
        assert_eq!(c.matches('*').count(), 2);
    }

    #[test]
    fn correlation_of_identical_series_is_one() {
        let xs = vec![1.0, 2.0, 3.0, 5.0];
        assert!((correlation(&xs, &xs) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((correlation(&xs, &neg) + 1.0).abs() < 1e-12);
    }
}
