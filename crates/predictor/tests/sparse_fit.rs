//! The predictor fit end to end over the zero-skipping GEMM.
//!
//! A one-hot input batch takes the strict zero-skipping kernel in the fit's
//! forward product (`x·W1`, on each participant's rows) and in its first
//! layer's weight gradient (`xᵀ·g`, over all rows), while the ReLU hidden
//! layers stay on the packed kernel. Training and querying must land on the
//! same bytes with SIMD on and off and at 1 and 4 kernel threads, the
//! kernel threads running inside each of the fit's participants. This
//! binary holds the one test that flips those process-wide switches, so
//! nothing runs beside it.

use lightnas_hw::Xavier;
use lightnas_predictor::{Metric, MetricDataset, MlpPredictor, TrainConfig};
use lightnas_space::SearchSpace;
use lightnas_tensor::kernels::{num_threads, set_num_threads};
use lightnas_tensor::{set_simd_enabled, simd_enabled};

#[test]
fn one_hot_fit_is_byte_identical_across_simd_and_thread_counts() {
    let space = SearchSpace::standard();
    let data = MetricDataset::sample(&Xavier::maxn(), &space, Metric::LatencyMs, 1100, 3);
    let (train, valid) = data.split(0.96);
    // 1056 training rows: one 1024-row batch, enough nonzero multiply-adds
    // for the 4-thread runs to split the sparse products, and a 32-row
    // remainder batch per epoch.
    let config = TrainConfig {
        epochs: 2,
        batch_size: 1024,
        lr: 2e-3,
        seed: 5,
    };
    let run = |simd: bool, threads: usize| {
        set_simd_enabled(simd);
        set_num_threads(threads);
        let predictor = MlpPredictor::train(&train, &config);
        let batched = predictor.predict_all(&valid);
        let single: Vec<f64> = valid
            .encodings()
            .iter()
            .map(|e| predictor.predict_encoding(e))
            .collect();
        let gradient = predictor.gradient(&valid.encodings()[0]);
        (
            batched.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            single.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            gradient.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        )
    };
    let (simd_before, threads_before) = (simd_enabled(), num_threads());
    let baseline = run(true, 1);
    let others = [(false, 1), (true, 4), (false, 4)].map(|(s, t)| ((s, t), run(s, t)));
    set_simd_enabled(simd_before);
    set_num_threads(threads_before);
    assert_eq!(
        baseline.0, baseline.1,
        "batched and single-row predictions must agree"
    );
    for ((simd, threads), got) in others {
        assert_eq!(
            got, baseline,
            "simd={simd} threads={threads} moved the fit's output bits"
        );
    }
}
