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

use std::io;
use std::path::Path;
use std::process::ExitCode;
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
/// the machine's available parallelism capped at `cap`.
pub fn sweep_workers(cap: usize) -> usize {
    std::env::var("LIGHTNAS_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| hardware_threads().min(cap))
}

/// The machine's available parallelism: the figure every timing artifact
/// records, because its thread-count bars cannot be read without it.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
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

/// Saves an SVG chart under `results/<name>.svg` through
/// [`write_artifact`]. I/O failures are reported, not fatal — the text
/// output is the primary artifact.
pub fn save_figure(name: &str, chart: &plot::SvgPlot) {
    let _ = write_artifact(format!("results/{name}.svg"), chart.render());
}

/// Writes one exhibit artifact (a `BENCH_*.json`, a results file, a
/// chart), creating its parent directory, and logs the outcome on stderr.
/// The result is returned so a driver can count a failed write; exhibits
/// ignore it, because their stdout is the primary record.
pub fn write_artifact(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> io::Result<()> {
    let path = path.as_ref();
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, contents));
    match &written {
        Ok(()) => eprintln!("[artifact] wrote {}", path.display()),
        Err(e) => eprintln!("[artifact] failed to write {}: {e}", path.display()),
    }
    written
}

/// The exhibits' one timing rule. Each of `lanes` lanes is one
/// configuration; `pass(lane)` runs it once and returns the span it
/// measured itself (microseconds, or any unit where lower is better), so
/// set-up it does before starting its clock stays untimed. Round 0 runs
/// every lane as a warm-up (pools grow, caches fill) and is
/// discarded; then `rounds` rounds run every lane once, lane by lane, and
/// each lane keeps its lowest reading. Interleaving makes slow machine
/// drift (frequency, co-tenants) land on every lane instead of whichever
/// ran during a quiet window.
pub fn best_of(rounds: usize, lanes: usize, mut pass: impl FnMut(usize) -> f64) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; lanes];
    for round in 0..=rounds {
        for (lane, b) in best.iter_mut().enumerate() {
            let span = pass(lane);
            if round > 0 {
                *b = b.min(span);
            }
        }
    }
    best
}

/// Wall time of one call of `f`, in microseconds; the result goes through
/// [`std::hint::black_box`] so the work cannot be optimized away.
pub fn span_us<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed().as_secs_f64() * 1e6
}

/// FNV-1a over the bits of `data`: the exhibits' bit-identity fingerprint.
pub fn fnv_f32(data: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A `BENCH_*.json` document in the one layout every committed file
/// shares: a 2-space-indented object whose array values hold one inline
/// object per line. It owns the layout only — each value arrives already
/// rendered, because each file fixes its keys' precision.
#[derive(Debug, Default)]
pub struct BenchJson {
    fields: Vec<String>,
}

impl BenchJson {
    /// Appends `"key": value`, with `value` already rendered as JSON.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.fields.push(format!("\"{key}\": {value}"));
        self
    }

    /// Appends `"key": [...]` with one inline object per row, each row a
    /// list of `(key, rendered value)` pairs.
    #[must_use]
    pub fn rows(mut self, key: &str, rows: &[Vec<(&str, String)>]) -> Self {
        let lines: Vec<String> = rows
            .iter()
            .map(|row| {
                let pairs: Vec<String> = row.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
                format!("    {{{}}}", pairs.join(", "))
            })
            .collect();
        self.fields
            .push(format!("\"{key}\": [\n{}\n  ]", lines.join(",\n")));
        self
    }

    /// The document, ending in a newline.
    pub fn render(&self) -> String {
        format!("{{\n  {}\n}}\n", self.fields.join(",\n  "))
    }
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
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

/// Turns an exhibit's folded [`verdict`]s into its exit code. A failure
/// says so on stdout, after the verdict lines that explain it; callers
/// write their artifacts first, so a failing run still leaves its
/// evidence.
pub fn exit_code(exhibit: &str, pass: bool) -> ExitCode {
    if pass {
        return ExitCode::SUCCESS;
    }
    println!();
    println!("{exhibit}: FAILED — at least one acceptance bar missed");
    ExitCode::FAILURE
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
    fn bench_json_renders_the_committed_layout() {
        let rows = vec![
            vec![
                ("device", json_str("phone-a76")),
                ("generation", "2".into()),
            ],
            vec![("device", json_str("edge-tpu")), ("generation", "1".into())],
        ];
        let json = BenchJson::default()
            .field("seed", 990951)
            .field("quick", false)
            .rows("devices", &rows)
            .field("warm_samples_to_promote", "null")
            .field("worst_rmse_ratio", format!("{:.6}", 0.487095))
            .field("label", json_str("a \"quoted\" name"))
            .render();
        assert_eq!(
            json,
            r#"{
  "seed": 990951,
  "quick": false,
  "devices": [
    {"device": "phone-a76", "generation": 2},
    {"device": "edge-tpu", "generation": 1}
  ],
  "warm_samples_to_promote": null,
  "worst_rmse_ratio": 0.487095,
  "label": "a \"quoted\" name"
}
"#
        );
    }

    #[test]
    fn best_of_interleaves_lanes_and_discards_the_warm_up_round() {
        // Round 0 reads 1 on every lane, lower than anything after it, so
        // it would win if it counted.
        let mut calls = Vec::new();
        let best = best_of(3, 2, |lane| {
            let round = calls.iter().filter(|&&l| l == lane).count();
            calls.push(lane);
            if round == 0 {
                1.0
            } else {
                10.0 * (lane + 1) as f64 + round as f64
            }
        });
        assert_eq!(calls, [0, 1, 0, 1, 0, 1, 0, 1]);
        assert_eq!(best, [11.0, 21.0]);
    }

    #[test]
    fn write_artifact_creates_a_missing_parent_directory() {
        let dir = std::env::temp_dir().join(format!("lightnas-artifact-{}", std::process::id()));
        let path = dir.join("nested").join("BENCH_test.json");
        let _ = std::fs::remove_dir_all(&dir);
        write_artifact(&path, "{}\n").expect("write under a fresh directory");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn correlation_of_identical_series_is_one() {
        let xs = vec![1.0, 2.0, 3.0, 5.0];
        assert!((correlation(&xs, &xs) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((correlation(&xs, &neg) + 1.0).abs() < 1e-12);
    }
}
