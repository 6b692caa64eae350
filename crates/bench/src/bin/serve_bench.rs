//! Predictor serving throughput: QPS per serving tier against a
//! dgemm-style per-row baseline.
//!
//! The paper's search queries the latency predictor millions of times; the
//! serving layer's job is to answer those queries fast without betraying
//! the numbers the search was validated on. This exhibit publishes the QPS
//! ladder the two-tier contract buys, on a 256-query burst of real
//! architecture encodings:
//!
//! * **per-row strict** — the dgemm-style baseline: one `[1, 154]` GEMM per
//!   query through [`MlpPredictor::predict_encoding`], strict kernels. This
//!   is what a naive caller loop costs.
//! * **batched strict** — the same queries coalesced into one `[256, 154]`
//!   GEMM per layer ([`predict_batch`]), still bit-identical to the per-row
//!   answers.
//! * **batched fast** — [`ServingTier::Fast`]: the FMA fast tier, verified
//!   against the strict answers within the predictor-depth
//!   [`ReductionBound`] before any timing.
//! * **batched fast+f16** — [`ServingTier::FastF16`]: fast kernels over
//!   f16-stored weights (half the deployed bytes), verified within the
//!   documented `2⁻⁸ · scale` quantization bound.
//! * **service fast** — the whole [`PredictorService`] pipeline (admission
//!   queue, batch coalescing, telemetry) under the fast tier, showing what
//!   the serving machinery costs on top of the raw batched path.
//!
//! ```text
//! cargo run --release -p lightnas-bench --bin serve_bench > results/serve_bench.txt
//! ```
//!
//! The table and the verdicts go to stdout (`results/serve_bench.txt` is
//! that stdout), raw numbers to `BENCH_serve.json` at the repo root —
//! evidence from the machine that produced it, not a golden file. Every
//! lane is timed on the shared rule ([`lightnas_bench::best_of`]). Bars
//! asserted here are modest on purpose (timing on shared boxes wobbles):
//! batching ≥ 2× the per-row baseline, the fast tier ≥ 1.1× batched
//! strict, and the full service pipeline — admission, per-request
//! bookkeeping and all — still ≥ 1.5× the naive per-row loop.

use std::process::ExitCode;

use lightnas_bench::{
    best_of, exit_code, hardware_threads, json_str, render_table, span_us, verdict, write_artifact,
    BenchJson,
};
use lightnas_hw::Xavier;
use lightnas_predictor::{
    BatchPredictor, LutPredictor, Metric, MetricDataset, MlpPredictor, TrainConfig,
};
use lightnas_serve::{PredictorService, Request, ServiceConfig, ServingTier, VirtualClock};
use lightnas_space::SearchSpace;
use lightnas_tensor::tolerance::ReductionBound;
use lightnas_tensor::{set_kernel_mode, KernelMode};

const QUERIES: usize = 256;
/// Stay under the service's default admission watermark.
const WAVE: usize = 32;

fn serve_burst(
    tier: ServingTier,
    deployed: &MlpPredictor,
    lut: &LutPredictor,
    encs: &[Vec<f32>],
) -> Vec<f64> {
    tier.activate();
    let clock = VirtualClock::new();
    let service = PredictorService::new(deployed, lut, &clock, ServiceConfig::default());
    for wave in encs.chunks(WAVE) {
        for e in wave {
            service
                .submit(Request::new(e.clone()))
                .expect("burst stays under the admission watermark");
        }
        while service.pump() > 0 {}
    }
    let mut served = service.take_responses();
    served.sort_by_key(|s| s.id);
    set_kernel_mode(KernelMode::Strict);
    served
        .into_iter()
        .map(|s| s.outcome.expect("no deadlines in the burst").value)
        .collect()
}

/// The timed lanes, in [`best_of`] lane order.
const LANES: [&str; 5] = [
    "per-row strict (dgemm-style baseline)",
    "batched strict",
    "batched fast",
    "batched fast+f16",
    "service fast (queue + coalescing)",
];

fn main() -> ExitCode {
    let space = SearchSpace::standard();
    let device = Xavier::maxn();
    let data = MetricDataset::sample(&device, &space, Metric::LatencyMs, 1200, 23);
    let mlp = MlpPredictor::train(
        &data,
        &TrainConfig {
            epochs: 20,
            batch_size: 128,
            lr: 2e-3,
            seed: 9,
        },
    );
    let lut = LutPredictor::build(&device, &space);
    let encs: Vec<Vec<f32>> = data.encodings()[..QUERIES].to_vec();

    // --- correctness gates before any timing.
    set_kernel_mode(KernelMode::Strict);
    let strict: Vec<f64> = encs.iter().map(|e| mlp.predict_encoding(e)).collect();
    let batched = mlp.predict_encodings(&encs);
    assert!(
        strict
            .iter()
            .zip(&batched)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "batched strict serving must be bit-identical to the per-row loop"
    );
    let strict32: Vec<f32> = strict.iter().map(|&v| v as f32).collect();
    let scale: Vec<f32> = strict32.iter().map(|p| p.abs() + 1.0).collect();
    let depth_bound = ReductionBound::matmul(154 + 128 + 64);
    let fast_model = ServingTier::Fast.prepare(&mlp);
    ServingTier::Fast.activate();
    let fast_answers: Vec<f32> = fast_model
        .predict_encodings(&encs)
        .iter()
        .map(|&v| v as f32)
        .collect();
    set_kernel_mode(KernelMode::Strict);
    if let Err(v) = depth_bound.check(&fast_answers, &strict32, &scale) {
        eprintln!("error: fast tier broke the predictor-depth bound: {v}");
        return ExitCode::FAILURE;
    }
    let f16_model = ServingTier::FastF16.prepare(&mlp);
    ServingTier::FastF16.activate();
    let f16_answers: Vec<f32> = f16_model
        .predict_encodings(&encs)
        .iter()
        .map(|&v| v as f32)
        .collect();
    set_kernel_mode(KernelMode::Strict);
    for (i, (got, want)) in f16_answers.iter().zip(&strict32).enumerate() {
        if (got - want).abs() > 2.0f32.powi(-8) * scale[i] {
            eprintln!("error: f16 tier answer {i} drifted {got} vs {want}");
            return ExitCode::FAILURE;
        }
    }
    let service_answers = serve_burst(ServingTier::Fast, &fast_model, &lut, &encs);
    let service32: Vec<f32> = service_answers.iter().map(|&v| v as f32).collect();
    if let Err(v) = depth_bound.check(&service32, &strict32, &scale) {
        eprintln!("error: service answers broke the predictor-depth bound: {v}");
        return ExitCode::FAILURE;
    }

    // --- timing, on the shared rule. Each lane switches its tier before
    // its span starts; the service lane's tier switch is part of the
    // service's own work.
    let rounds = 15;
    let best = best_of(rounds, LANES.len(), |lane| match lane {
        0 => {
            set_kernel_mode(KernelMode::Strict);
            span_us(|| {
                for e in &encs {
                    std::hint::black_box(mlp.predict_encoding(e));
                }
            })
        }
        1 => {
            set_kernel_mode(KernelMode::Strict);
            span_us(|| mlp.predict_encodings(&encs))
        }
        2 => {
            ServingTier::Fast.activate();
            let us = span_us(|| fast_model.predict_encodings(&encs));
            set_kernel_mode(KernelMode::Strict);
            us
        }
        3 => {
            ServingTier::FastF16.activate();
            let us = span_us(|| f16_model.predict_encodings(&encs));
            set_kernel_mode(KernelMode::Strict);
            us
        }
        _ => span_us(|| serve_burst(ServingTier::Fast, &fast_model, &lut, &encs)),
    });
    let qps: Vec<f64> = best.iter().map(|us| QUERIES as f64 / (us / 1e6)).collect();

    let table = render_table(
        &["serving lane", "burst (us)", "QPS", "vs per-row"],
        &LANES
            .iter()
            .zip(&best)
            .zip(&qps)
            .map(|((name, us), q)| {
                vec![
                    name.to_string(),
                    format!("{us:.0}"),
                    format!("{q:.0}"),
                    format!("{:.2}x", q / qps[0]),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "Predictor serving QPS by tier, {QUERIES}-query burst\n\
         (strict lanes bit-identity-verified; fast lanes tolerance-verified before timing;\n\
         best of {rounds} interleaved rounds)\n"
    );
    println!("{table}");

    let batch_gain = qps[1] / qps[0];
    let fast_gain = qps[2] / qps[1];
    let service_ratio = qps[4] / qps[2];
    let service_gain = qps[4] / qps[0];
    let threads = hardware_threads();
    println!("service pipeline vs raw fast path: {service_ratio:.2} (informational)");

    let rows_json: Vec<Vec<(&str, String)>> = LANES
        .iter()
        .zip(&best)
        .zip(&qps)
        .map(|((name, us), q)| {
            vec![
                ("lane", json_str(name)),
                ("burst_us", format!("{us:.1}")),
                ("qps", format!("{q:.1}")),
                ("speedup_vs_per_row", format!("{:.2}", q / qps[0])),
            ]
        })
        .collect();
    let json = BenchJson::default()
        .rows("rows", &rows_json)
        .field("queries_per_burst", QUERIES)
        .field("batching_gain", format!("{batch_gain:.2}"))
        .field("fast_tier_gain", format!("{fast_gain:.2}"))
        .field("service_over_fast_ratio", format!("{service_ratio:.3}"))
        .field("service_gain_vs_per_row", format!("{service_gain:.2}"))
        .field("hardware_threads", threads)
        .field("strict_bit_identity_verified", true)
        .field("fast_tolerance_verified", true);
    let _ = write_artifact("BENCH_serve.json", json.render());

    println!("serve_bench verdicts ({threads} hardware threads):");
    let mut pass = true;
    pass &= verdict(
        "batching gain over per-row >= 2.0x",
        batch_gain >= 2.0,
        &format!("{batch_gain:.2}x"),
    );
    pass &= verdict(
        "fast tier gain over batched strict >= 1.1x",
        fast_gain >= 1.1,
        &format!("{fast_gain:.2}x"),
    );
    // Below it, the queue/coalescing machinery ate the batching win.
    pass &= verdict(
        "service pipeline gain over per-row >= 1.5x",
        service_gain >= 1.5,
        &format!("{service_gain:.2}x"),
    );
    exit_code("serve_bench", pass)
}
