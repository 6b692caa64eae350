//! Kernel-throughput exhibit: the blocked/parallel compute kernels against
//! the retained naive references, at MBConv-representative shapes.
//!
//! For each shape the fast path is timed serial and at 4 kernel threads
//! beside the naive reference, and every fast output is checked
//! bit-for-bit against the reference before any number is reported — a
//! speedup that broke the determinism invariant would be worthless. Every
//! lane of a row is timed on the shared rule ([`lightnas_bench::best_of`]:
//! a warm-up round, then the best of 15 interleaved rounds). The table and
//! the verdicts go to stdout (`results/kernels.txt` is that stdout), the raw
//! numbers to `BENCH_kernels.json` at the repo root (schema: one record per
//! row with best wall times in microseconds and the serial speedup factor).
//!
//! ```text
//! cargo run --release -p lightnas-bench --bin kernels > results/kernels.txt
//! ```
//!
//! Timing is machine-dependent; the JSON is evidence from the machine that
//! produced it, not a golden file. The acceptance bar (≥ 3× on conv2d
//! forward vs the naive kernel) is asserted here so regressions fail loudly.
//!
//! The opt-in **fast tier** (`LIGHTNAS_KERNEL_MODE=fast`) is measured
//! alongside: each row also reports the fast-mode 1- and 4-thread times,
//! the fast-vs-strict max relative error (against the exact per-element
//! `Σ|terms|` scale), and how much of the documented tolerance bound that
//! error consumes (`bound util`, asserted ≤ 1). Strict rows keep their
//! bit-identity gate; fast rows are gated by `lightnas_tensor::tolerance`.

use std::process::ExitCode;

use lightnas_bench::{
    best_of, exit_code, fnv_f32, hardware_threads, json_str, render_table, span_us, verdict,
    write_artifact, BenchJson,
};
use lightnas_predictor::{Metric, MetricDataset, MlpPredictor, TrainConfig};
use lightnas_space::SearchSpace;
use lightnas_tensor::tolerance::ReductionBound;
use lightnas_tensor::{kernels, set_kernel_mode, Conv2dSpec, KernelMode, Tensor};

struct Row {
    name: String,
    naive_us: f64,
    fast_us: f64,
    fast4_us: f64,
    /// Fast-tier timings and error accounting (`LIGHTNAS_KERNEL_MODE=fast`).
    tier: FastTier,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.naive_us / self.fast_us
    }
}

/// Fast-tier measurements for one row: wall times, the max relative error
/// against the strict oracle (scaled by the exact per-element `Σ|terms|`),
/// and the fraction of the documented tolerance bound that error consumes.
struct FastTier {
    t1_us: f64,
    t4_us: f64,
    max_rel_err: f64,
    bound_util: f64,
}

impl FastTier {
    fn parity(&self) -> f64 {
        self.t1_us / self.t4_us
    }
}

fn abs_tensor(t: &Tensor) -> Tensor {
    Tensor::from_vec(
        t.as_slice().iter().map(|v| v.abs()).collect(),
        t.shape().dims(),
    )
}

/// Max fast-vs-strict error relative to each element's `Σ|terms|` scale,
/// plus the fraction of `bound` it consumes.
fn tier_error(fast: &[f32], strict: &[f32], scale: &[f32], bound: ReductionBound) -> (f64, f64) {
    let mut rel = 0.0f64;
    let mut util = 0.0f64;
    for ((&f, &s), &sc) in fast.iter().zip(strict).zip(scale) {
        let diff = f64::from((f - s).abs());
        rel = rel.max(diff / f64::from(sc.abs().max(1e-20)));
        util = util.max(diff / f64::from(bound.allowance(sc)));
    }
    (rel, util)
}

/// Times one row's five lanes on the shared rule: the naive reference, the
/// strict path at 1 and 4 threads, and the fast tier at 1 and 4 threads.
/// `tier` is the fast tier's `(max_rel_err, bound_util)`, checked before
/// timing. Leaves strict mode at one thread.
fn time_row<N, F>(
    name: &str,
    rounds: usize,
    naive: impl Fn() -> N,
    fast: impl Fn() -> F,
    (max_rel_err, bound_util): (f64, f64),
) -> Row {
    const LANES: [(KernelMode, usize); 5] = [
        (KernelMode::Strict, 1),
        (KernelMode::Strict, 1),
        (KernelMode::Strict, 4),
        (KernelMode::Fast, 1),
        (KernelMode::Fast, 4),
    ];
    let us = best_of(rounds, LANES.len(), |lane| {
        let (mode, threads) = LANES[lane];
        set_kernel_mode(mode);
        kernels::set_num_threads(threads);
        if lane == 0 {
            span_us(&naive)
        } else {
            span_us(&fast)
        }
    });
    set_kernel_mode(KernelMode::Strict);
    kernels::set_num_threads(1);
    Row {
        name: name.to_string(),
        naive_us: us[0],
        fast_us: us[1],
        fast4_us: us[2],
        tier: FastTier {
            t1_us: us[3],
            t4_us: us[4],
            max_rel_err,
            bound_util,
        },
    }
}

/// Benchmarks one binary operator (a conv or a GEMM) against its naive
/// reference; panics if the strict path's bits diverge at 1 or 4 threads.
fn op_row(
    name: &str,
    rounds: usize,
    a: &Tensor,
    b: &Tensor,
    naive: impl Fn(&Tensor, &Tensor) -> Tensor,
    fast: impl Fn(&Tensor, &Tensor) -> Tensor,
    bound: ReductionBound,
) -> Row {
    let reference = naive(a, b);
    for threads in [1usize, 4] {
        kernels::set_num_threads(threads);
        assert_eq!(
            fnv_f32(fast(a, b).as_slice()),
            fnv_f32(reference.as_slice()),
            "{name}: the strict path at {threads} threads diverged from the naive reference"
        );
    }
    kernels::set_num_threads(1);
    let scale = fast(&abs_tensor(a), &abs_tensor(b));
    set_kernel_mode(KernelMode::Fast);
    let out = fast(a, b);
    set_kernel_mode(KernelMode::Strict);
    let tier = tier_error(
        out.as_slice(),
        reference.as_slice(),
        scale.as_slice(),
        bound,
    );
    time_row(name, rounds, || naive(a, b), || fast(a, b), tier)
}

fn main() -> ExitCode {
    let rounds = 15;
    let mut rows: Vec<Row> = Vec::new();

    // MBConv-representative convs: stem / mid-network / late-network shapes
    // of the paper's supernet at batch 8.
    let cases = [
        (
            "conv 8x16x56x56 k3 s1 -> 16",
            [8usize, 16, 56, 56],
            [16usize, 16, 3, 3],
            1usize,
        ),
        (
            "conv 8x32x28x28 k3 s2 -> 64",
            [8, 32, 28, 28],
            [64, 32, 3, 3],
            2,
        ),
        (
            "conv 8x96x14x14 k3 s1 -> 96",
            [8, 96, 14, 14],
            [96, 96, 3, 3],
            1,
        ),
    ];
    for (i, (name, xs, ws, stride)) in cases.iter().enumerate() {
        let spec = Conv2dSpec {
            kernel: 3,
            stride: *stride,
            padding: 1,
        };
        let x = Tensor::uniform(xs, -1.0, 1.0, 10 + i as u64);
        let w = Tensor::uniform(ws, -0.5, 0.5, 20 + i as u64);
        rows.push(op_row(
            name,
            rounds,
            &x,
            &w,
            |x, w| lightnas_tensor::conv2d_forward_ref(x, w, spec),
            |x, w| lightnas_tensor::conv2d_forward(x, w, spec),
            ReductionBound::conv2d(xs[1], spec.kernel, spec.kernel),
        ));
    }

    // GEMM at a supernet-classifier-like shape.
    rows.push(op_row(
        "matmul 512x320x256",
        rounds,
        &Tensor::uniform(&[512, 320], -1.0, 1.0, 30),
        &Tensor::uniform(&[320, 256], -1.0, 1.0, 31),
        lightnas_tensor::matmul_ref,
        |a, b| a.matmul(b),
        ReductionBound::matmul(320),
    ));

    // Predictor inference: 256 rows per-query vs one batched GEMM. The
    // "naive" column is the per-row path (the pre-change interface), so the
    // speedup is what batching buys the sweep runner.
    {
        let space = SearchSpace::standard();
        let device = lightnas_hw::Xavier::maxn();
        let data = MetricDataset::sample(&device, &space, Metric::LatencyMs, 512, 6);
        let predictor = MlpPredictor::train(
            &data,
            &TrainConfig {
                epochs: 10,
                batch_size: 128,
                lr: 2e-3,
                seed: 0,
            },
        );
        let encodings: Vec<Vec<f32>> = data.encodings().iter().take(256).cloned().collect();
        let batched = predictor.predict_batch(&encodings);
        for (enc, b) in encodings.iter().zip(&batched) {
            assert_eq!(
                b.to_bits(),
                predictor.predict_encoding(enc).to_bits(),
                "batched prediction diverged from the per-row path"
            );
        }
        // Σ|terms| is not observable through the frozen network, so the
        // honest scale for end-to-end predictions is |prediction| + 1 and
        // the bound is the summed layer depth (as the serve tier test pins).
        let as_f32 = |preds: Vec<f64>| preds.iter().map(|&v| v as f32).collect::<Vec<f32>>();
        let strict_preds = as_f32(batched);
        let scale: Vec<f32> = strict_preds.iter().map(|p| p.abs() + 1.0).collect();
        set_kernel_mode(KernelMode::Fast);
        let fast_preds = as_f32(predictor.predict_batch(&encodings));
        set_kernel_mode(KernelMode::Strict);
        let tier = tier_error(
            &fast_preds,
            &strict_preds,
            &scale,
            ReductionBound::matmul(154 + 128 + 64),
        );
        rows.push(time_row(
            "mlp predict x256",
            rounds,
            || {
                encodings
                    .iter()
                    .map(|e| predictor.predict_encoding(e))
                    .collect::<Vec<f64>>()
            },
            || predictor.predict_batch(&encodings),
            tier,
        ));
    }

    let table = render_table(
        &[
            "kernel",
            "naive (us)",
            "strict 1t (us)",
            "strict 4t (us)",
            "speedup 1t",
            "fastmode 1t (us)",
            "fastmode 4t (us)",
            "max rel err",
            "bound util",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    format!("{:.0}", r.naive_us),
                    format!("{:.0}", r.fast_us),
                    format!("{:.0}", r.fast4_us),
                    format!("{:.1}x", r.speedup()),
                    format!("{:.0}", r.tier.t1_us),
                    format!("{:.0}", r.tier.t4_us),
                    format!("{:.1e}", r.tier.max_rel_err),
                    format!("{:.2}", r.tier.bound_util),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("Kernel throughput: blocked/parallel vs naive reference, plus the opt-in fast tier\n(strict rows bit-identity-verified; fast rows tolerance-verified before timing;\nbest of {rounds} interleaved rounds)\n");
    println!("{table}");

    let conv_rows: Vec<&Row> = rows.iter().filter(|r| r.name.starts_with("conv")).collect();
    let min_conv = conv_rows
        .iter()
        .map(|r| r.speedup())
        .fold(f64::INFINITY, f64::min);
    // Persistent-pool dividend: dispatching to 4 workers must never cost
    // real throughput, even on a single hardware core (where the old
    // spawn-per-call path paid thread-creation on every conv). Parity is
    // speedup_4t / speedup_1t == fast_1t / fast_4t.
    let min_parity = conv_rows
        .iter()
        .map(|r| r.fast_us / r.fast4_us)
        .fold(f64::INFINITY, f64::min);
    let tier_max_util = rows
        .iter()
        .map(|r| r.tier.bound_util)
        .fold(0.0f64, f64::max);
    let tier_min_parity = rows
        .iter()
        .map(|r| r.tier.parity())
        .fold(f64::INFINITY, f64::min);
    let threads = hardware_threads();

    let rows_json: Vec<Vec<(&str, String)>> = rows
        .iter()
        .map(|r| {
            vec![
                ("kernel", json_str(&r.name)),
                ("naive_us", format!("{:.1}", r.naive_us)),
                ("fast_1t_us", format!("{:.1}", r.fast_us)),
                ("fast_4t_us", format!("{:.1}", r.fast4_us)),
                ("speedup_1t", format!("{:.2}", r.speedup())),
                ("speedup_4t", format!("{:.2}", r.naive_us / r.fast4_us)),
                ("fastmode_1t_us", format!("{:.1}", r.tier.t1_us)),
                ("fastmode_4t_us", format!("{:.1}", r.tier.t4_us)),
                (
                    "fastmode_max_rel_err",
                    format!("{:.3e}", r.tier.max_rel_err),
                ),
                ("fastmode_bound_util", format!("{:.3}", r.tier.bound_util)),
                ("fastmode_parity_4t", format!("{:.3}", r.tier.parity())),
            ]
        })
        .collect();
    let json = BenchJson::default()
        .rows("rows", &rows_json)
        .field("min_conv_forward_speedup_1t", format!("{min_conv:.2}"))
        .field("min_conv_parallel_parity", format!("{min_parity:.3}"))
        .field("fastmode_max_bound_util", format!("{tier_max_util:.3}"))
        .field("fastmode_min_parity_4t", format!("{tier_min_parity:.3}"))
        .field("hardware_threads", threads)
        .field("bit_identity_verified", true);
    let _ = write_artifact("BENCH_kernels.json", json.render());

    println!("kernels verdicts ({threads} hardware threads):");
    let mut pass = true;
    pass &= verdict(
        "serial conv2d forward speedup >= 3.0x",
        min_conv >= 3.0,
        &format!("min {min_conv:.1}x"),
    );
    pass &= verdict(
        "conv2d 4-thread/serial parity >= 0.95",
        min_parity >= 0.95,
        &format!("min {min_parity:.2}"),
    );
    // The fast tier must stay within 1.0x of its documented tolerance
    // bound (lightnas_tensor::tolerance).
    pass &= verdict(
        "fast-tier error within its tolerance bound",
        tier_max_util <= 1.0,
        &format!("max {tier_max_util:.2} of the bound"),
    );
    // Per-thread partial sums must not cost real throughput.
    pass &= verdict(
        "fast-tier 4-thread/serial parity >= 0.90",
        tier_min_parity >= 0.90,
        &format!("min {tier_min_parity:.2}"),
    );
    exit_code("kernels", pass)
}
