//! The MLP metric predictor (three FC layers: 128, 64, 1 — paper Sec. 3.2).

use lightnas_nn::layers::Mlp;
use lightnas_nn::optim::Adam;
use lightnas_nn::{Bindings, ParamStore};
use lightnas_space::{Architecture, NUM_OPS, TOTAL_LAYERS};
use lightnas_tensor::{Graph, Tensor};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::MetricDataset;

/// Input width of the predictor: the flattened `ᾱ` encoding.
pub const INPUT_WIDTH: usize = TOTAL_LAYERS * NUM_OPS;

thread_local! {
    /// Scratch tape reused by the frozen-network query paths (predict /
    /// gradient). [`Graph::reset`] keeps the node and pool storage warm. The
    /// graph copies each query's encoding into its own pool and drops the
    /// caller's buffer, so the pool holds one query's working set however
    /// many queries the thread has run, and a query costs the same on the
    /// first call and the millionth.
    static SCRATCH: std::cell::RefCell<(Graph, Bindings)> =
        std::cell::RefCell::new((Graph::new(), Bindings::new()));
}

/// Runs `f` with the thread-local scratch graph, reset and ready to record.
fn with_scratch<R>(f: impl FnOnce(&mut Graph, &mut Bindings) -> R) -> R {
    SCRATCH.with(|cell| {
        let (g, bind) = &mut *cell.borrow_mut();
        g.reset();
        bind.clear();
        f(g, bind)
    })
}

/// This thread's scratch tape pool, read after a reset so that every
/// buffer the last query used is back in it.
#[cfg(test)]
fn scratch_pool_stats() -> lightnas_tensor::PoolStats {
    with_scratch(|g, _| g.pool_stats())
}

/// Training hyper-parameters of the predictor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Passes over the training fold.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Initialization / shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 120,
            batch_size: 256,
            lr: 1e-3,
            seed: 0,
        }
    }
}

/// The trained MLP predictor.
///
/// Targets are standardized internally (zero mean, unit variance over the
/// training fold); predictions are returned in the original unit. The
/// trained network is frozen: prediction and input-gradient queries do not
/// mutate it — and it is `Clone`, so cross-device transfer can fork a proxy
/// predictor and [`fine_tune`](Self::fine_tune) the copy.
#[derive(Debug, Clone)]
pub struct MlpPredictor {
    pub(crate) store: ParamStore,
    pub(crate) mlp: Mlp,
    pub(crate) mean: f64,
    pub(crate) std: f64,
}

/// Runs the standard Adam/mini-batch loop over `train` against standardized
/// targets, mutating `store` in place (shared by [`MlpPredictor::train`] and
/// [`MlpPredictor::fine_tune`]).
fn fit(
    store: &mut ParamStore,
    mlp: &Mlp,
    train: &MetricDataset,
    config: &TrainConfig,
    mean: f64,
    std: f64,
) {
    let n = train.len();
    let mut opt = Adam::new(config.lr, 1e-5);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5eed);
    let mut order: Vec<usize> = (0..n).collect();
    // One tape and one input-batch buffer for the whole run: `reset` keeps
    // the tape's node and pooled buffer capacity, and the batch is refilled
    // in place (the tape copies it into pooled storage), so a steady-state
    // step allocates no tensor storage. It still allocates the target
    // vector (one `f32` per row) and a small shape vector for each tensor
    // it creates: the batch and target wrappers and every node value and
    // gradient on the tape.
    let mut g = Graph::new();
    let mut bind = Bindings::new();
    let mut x = Vec::with_capacity(config.batch_size.min(n) * INPUT_WIDTH);
    for _ in 0..config.epochs {
        // Fisher-Yates shuffle per epoch.
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        for chunk in order.chunks(config.batch_size) {
            let b = chunk.len();
            x.clear();
            let mut y = Vec::with_capacity(b);
            for &i in chunk {
                x.extend_from_slice(&train.encodings()[i]);
                y.push(((train.targets()[i] - mean) / std) as f32);
            }
            g.reset();
            bind.clear();
            let batch = Tensor::from_vec(std::mem::take(&mut x), &[b, INPUT_WIDTH]);
            let xv = g.input_ref(&batch);
            x = batch.into_vec();
            let pred = mlp.forward(&mut g, &mut bind, store, xv);
            let loss = g.mse_loss(pred, Tensor::from_vec(y, &[b, 1]));
            g.backward(loss);
            opt.step(store, &g, &bind);
        }
    }
}

impl MlpPredictor {
    /// Fits the 128/64/1 MLP on `train` with Adam (the paper's protocol).
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty.
    pub fn train(train: &MetricDataset, config: &TrainConfig) -> Self {
        assert!(!train.is_empty(), "cannot train on an empty dataset");
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            "predictor",
            &[INPUT_WIDTH, 128, 64, 1],
            config.seed,
        );
        let mean = train.target_mean();
        let std = train.target_std().max(1e-6);
        fit(&mut store, &mlp, train, config, mean, std);
        Self {
            store,
            mlp,
            mean,
            std,
        }
    }

    /// Continues training **from this predictor's weights** on a (typically
    /// small) dataset from another device — the few-shot transfer step of
    /// cross-device latency estimation.
    ///
    /// The returned predictor re-standardizes against `train`'s own
    /// mean/std (devices differ in scale far more than in shape), keeps the
    /// proxy's learned feature structure as the initialization, and runs the
    /// same deterministic Adam loop as [`train`](Self::train). `self` is
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty.
    pub fn fine_tune(&self, train: &MetricDataset, config: &TrainConfig) -> Self {
        assert!(!train.is_empty(), "cannot fine-tune on an empty dataset");
        let mut store = self.store.clone();
        let mlp = self.mlp.clone();
        let mean = train.target_mean();
        let std = train.target_std().max(1e-6);
        fit(&mut store, &mlp, train, config, mean, std);
        Self {
            store,
            mlp,
            mean,
            std,
        }
    }

    /// Continues training from this predictor's weights **keeping its
    /// output standardization** — the online-adaptation entry point.
    ///
    /// [`fine_tune`](Self::fine_tune) re-standardizes against the new fold,
    /// which is right for cross-*device* transfer (scales genuinely differ)
    /// but wrong for a small drift window from the *same* device: a few
    /// dozen rows mis-estimate mean/std badly, and re-anchoring to them
    /// makes successive shadow generations wander even on a stationary
    /// stream. Keeping the incumbent's (mean, std) turns drift adaptation
    /// into pure weight refinement — the linear output head absorbs any
    /// genuine scale shift — and keeps every generation's predictions
    /// directly comparable in the monitor's residual statistics.
    ///
    /// `self` is untouched; the returned predictor is the shadow candidate.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty.
    pub fn fine_tune_incremental(&self, train: &MetricDataset, config: &TrainConfig) -> Self {
        assert!(!train.is_empty(), "cannot fine-tune on an empty dataset");
        let mut store = self.store.clone();
        let mlp = self.mlp.clone();
        fit(&mut store, &mlp, train, config, self.mean, self.std);
        Self {
            store,
            mlp,
            mean: self.mean,
            std: self.std,
        }
    }

    /// Predicts the metric for a flattened encoding.
    ///
    /// # Panics
    ///
    /// Panics if `encoding.len() != 154`.
    pub fn predict_encoding(&self, encoding: &[f32]) -> f64 {
        assert_eq!(
            encoding.len(),
            INPUT_WIDTH,
            "encoding must have {INPUT_WIDTH} values"
        );
        with_scratch(|g, bind| {
            let x = g.input(Tensor::from_vec(encoding.to_vec(), &[1, INPUT_WIDTH]));
            let out = self.mlp.forward(g, bind, &self.store, x);
            g.value(out).as_slice()[0] as f64 * self.std + self.mean
        })
    }

    /// Predicts the metric for an architecture.
    pub fn predict(&self, arch: &Architecture) -> f64 {
        self.predict_encoding(&arch.encode())
    }

    /// Predicts the metric for every encoding in one batched GEMM pass.
    ///
    /// Bit-identical to calling [`MlpPredictor::predict_encoding`] per row:
    /// rows of a matmul are independent and each output element keeps its
    /// per-row accumulation order regardless of the batch size, so batching
    /// changes throughput, never results.
    ///
    /// # Panics
    ///
    /// Panics if any encoding's length differs from 154.
    pub fn predict_batch(&self, encodings: &[Vec<f32>]) -> Vec<f64> {
        if encodings.is_empty() {
            return Vec::new();
        }
        let b = encodings.len();
        let mut x = Vec::with_capacity(b * INPUT_WIDTH);
        for enc in encodings {
            assert_eq!(
                enc.len(),
                INPUT_WIDTH,
                "encoding must have {INPUT_WIDTH} values"
            );
            x.extend_from_slice(enc);
        }
        with_scratch(|g, bind| {
            let xv = g.input(Tensor::from_vec(x, &[b, INPUT_WIDTH]));
            let out = self.mlp.forward(g, bind, &self.store, xv);
            g.value(out)
                .as_slice()
                .iter()
                .map(|&v| v as f64 * self.std + self.mean)
                .collect()
        })
    }

    /// Gradient of the prediction w.r.t. the encoding — the `∂LAT/∂ᾱ` term
    /// of Eq. 12, obtained "through a one-time backward propagation".
    ///
    /// Returned in the metric's original unit per unit encoding change.
    ///
    /// # Panics
    ///
    /// Panics if `encoding.len() != 154`.
    pub fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
        assert_eq!(
            encoding.len(),
            INPUT_WIDTH,
            "encoding must have {INPUT_WIDTH} values"
        );
        with_scratch(|g, bind| {
            // The input is registered as a parameter so backward reaches it.
            let x = g.parameter(Tensor::from_vec(encoding.to_vec(), &[1, INPUT_WIDTH]));
            let out = self.mlp.forward(g, bind, &self.store, x);
            let scalar = g.sum(out);
            g.backward(scalar);
            g.grad(x)
                .as_slice()
                .iter()
                .map(|&v| v * self.std as f32)
                .collect()
        })
    }

    /// Root-mean-square error over a dataset, in the metric's unit.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn rmse(&self, data: &MetricDataset) -> f64 {
        assert!(!data.is_empty(), "rmse over empty dataset");
        let se: f64 = self
            .predict_batch(data.encodings())
            .iter()
            .zip(data.targets())
            .map(|(p, &y)| (p - y) * (p - y))
            .sum();
        (se / data.len() as f64).sqrt()
    }

    /// Predictions for every row of a dataset (for scatter plots, Fig. 5).
    ///
    /// Runs as one batched GEMM; see [`MlpPredictor::predict_batch`].
    pub fn predict_all(&self, data: &MetricDataset) -> Vec<f64> {
        self.predict_batch(data.encodings())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metric;
    use lightnas_hw::Xavier;
    use lightnas_space::SearchSpace;

    fn train_small() -> (MlpPredictor, MetricDataset, MetricDataset) {
        let space = SearchSpace::standard();
        let device = Xavier::maxn();
        let data = MetricDataset::sample(&device, &space, Metric::LatencyMs, 1200, 1);
        let (train, valid) = data.split(0.8);
        let config = TrainConfig {
            epochs: 40,
            batch_size: 128,
            lr: 2e-3,
            seed: 0,
        };
        (MlpPredictor::train(&train, &config), train, valid)
    }

    #[test]
    fn predictor_beats_the_mean_baseline_by_a_wide_margin() {
        let (p, _, valid) = train_small();
        let rmse = p.rmse(&valid);
        let baseline = valid.target_std();
        assert!(
            rmse < baseline / 4.0,
            "predictor RMSE {rmse:.3} ms should be ≪ mean-baseline {baseline:.3} ms"
        );
    }

    #[test]
    fn predictions_track_targets_in_rank() {
        let (p, _, valid) = train_small();
        // Spearman-ish check: correlation of prediction and target > 0.9.
        let preds = p.predict_all(&valid);
        let ys = valid.targets();
        let n = preds.len() as f64;
        let (mp, my) = (preds.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
        let cov: f64 = preds
            .iter()
            .zip(ys)
            .map(|(a, b)| (a - mp) * (b - my))
            .sum::<f64>()
            / n;
        let sp = (preds.iter().map(|a| (a - mp) * (a - mp)).sum::<f64>() / n).sqrt();
        let sy = (ys.iter().map(|b| (b - my) * (b - my)).sum::<f64>() / n).sqrt();
        let corr = cov / (sp * sy);
        assert!(corr > 0.9, "correlation {corr:.3} too weak");
    }

    #[test]
    fn gradient_has_input_shape_and_is_nonzero() {
        let (p, _, _) = train_small();
        let space = SearchSpace::standard();
        let arch = Architecture::random(&space, 5);
        let grad = p.gradient(&arch.encode());
        assert_eq!(grad.len(), INPUT_WIDTH);
        assert!(grad.iter().any(|&g| g.abs() > 1e-6), "gradient is all zero");
    }

    #[test]
    fn gradient_points_towards_heavier_operators() {
        // Flipping a slot from Skip to MBConv-K7E6 must increase predicted
        // latency; the input gradient should reflect that direction on
        // average across slots.
        let (p, _, _) = train_small();
        let space = SearchSpace::standard();
        let arch = Architecture::random(&space, 9);
        let grad = p.gradient(&arch.encode());
        let mut heavy_minus_skip = 0.0f32;
        for l in 1..TOTAL_LAYERS {
            // index 5 = K7E6, index 6 = Skip in the canonical order.
            heavy_minus_skip += grad[l * NUM_OPS + 5] - grad[l * NUM_OPS + 6];
        }
        assert!(
            heavy_minus_skip > 0.0,
            "K7E6 direction should raise latency vs Skip (sum {heavy_minus_skip})"
        );
    }

    #[test]
    fn predict_matches_predict_encoding() {
        let (p, _, _) = train_small();
        let space = SearchSpace::standard();
        let arch = Architecture::random(&space, 3);
        assert_eq!(p.predict(&arch), p.predict_encoding(&arch.encode()));
    }

    #[test]
    fn fine_tune_adapts_to_a_shifted_metric_scale() {
        // Simulate a second device as an affine re-scale of the first: a
        // few-shot fine-tune from the proxy weights must track the new
        // scale far better than the untouched proxy does.
        let (proxy, train, valid) = train_small();
        let rescale = |d: &MetricDataset| {
            MetricDataset::from_rows(
                d.metric(),
                d.archs().to_vec(),
                d.targets().iter().map(|t| 3.5 * t + 40.0).collect(),
            )
        };
        let shifted_valid = rescale(&valid);
        let few_shot = rescale(&train).take(100);
        let arch = Architecture::random(&SearchSpace::standard(), 1);
        let before = proxy.predict(&arch);
        let tuned = proxy.fine_tune(
            &few_shot,
            &TrainConfig {
                epochs: 60,
                batch_size: 32,
                lr: 1e-3,
                seed: 0,
            },
        );
        let proxy_rmse = proxy.rmse(&shifted_valid);
        let tuned_rmse = tuned.rmse(&shifted_valid);
        assert!(
            tuned_rmse < proxy_rmse / 5.0,
            "fine-tuned RMSE {tuned_rmse:.3} should be far below the raw proxy's {proxy_rmse:.3}"
        );
        // The source predictor is frozen: fine-tuning forked a copy.
        assert_eq!(proxy.predict(&arch).to_bits(), before.to_bits());
        assert_ne!(tuned.predict(&arch).to_bits(), before.to_bits());
    }

    #[test]
    fn fine_tune_is_deterministic() {
        let (proxy, train, _) = train_small();
        let few = train.take(64);
        let cfg = TrainConfig {
            epochs: 10,
            batch_size: 32,
            lr: 1e-3,
            seed: 4,
        };
        let a = proxy.fine_tune(&few, &cfg);
        let b = proxy.fine_tune(&few, &cfg);
        let arch = Architecture::random(&SearchSpace::standard(), 7);
        assert_eq!(a.predict(&arch).to_bits(), b.predict(&arch).to_bits());
    }

    #[test]
    fn incremental_fine_tune_tracks_drift_and_keeps_the_scale_anchor() {
        // A +30% multiplicative drift on the same device: the incremental
        // path must adapt on a small window while keeping the incumbent's
        // standardization (so residual statistics stay comparable).
        let (incumbent, train, valid) = train_small();
        let drift = |d: &MetricDataset| {
            MetricDataset::from_rows(
                d.metric(),
                d.archs().to_vec(),
                d.targets().iter().map(|t| 1.3 * t).collect(),
            )
        };
        let window = drift(&train).take(128);
        let drifted_valid = drift(&valid);
        let cfg = TrainConfig {
            epochs: 40,
            batch_size: 32,
            lr: 1e-3,
            seed: 2,
        };
        let shadow = incumbent.fine_tune_incremental(&window, &cfg);
        let stale_rmse = incumbent.rmse(&drifted_valid);
        let shadow_rmse = shadow.rmse(&drifted_valid);
        assert!(
            shadow_rmse < stale_rmse / 3.0,
            "shadow RMSE {shadow_rmse:.3} should be far below the stale {stale_rmse:.3}"
        );
        // Determinism + frozen source.
        let again = incumbent.fine_tune_incremental(&window, &cfg);
        let arch = Architecture::random(&SearchSpace::standard(), 13);
        assert_eq!(
            shadow.predict(&arch).to_bits(),
            again.predict(&arch).to_bits()
        );
        assert_eq!(
            incumbent.rmse(&valid).to_bits(),
            train_small().0.rmse(&valid).to_bits(),
            "incremental fine-tune must not mutate the incumbent"
        );
    }

    #[test]
    #[should_panic(expected = "154")]
    fn wrong_input_width_rejected() {
        let (p, _, _) = train_small();
        let _ = p.predict_encoding(&[0.0; 10]);
    }

    #[test]
    fn scratch_pool_occupancy_is_fixed_across_queries() {
        let space = SearchSpace::standard();
        let data = MetricDataset::sample(&Xavier::maxn(), &space, Metric::LatencyMs, 64, 3);
        let config = TrainConfig {
            epochs: 1,
            batch_size: 32,
            lr: 1e-3,
            seed: 0,
        };
        let p = MlpPredictor::train(&data, &config);
        let encodings = data.encodings();
        let query = |i: usize| {
            let enc = &encodings[i % encodings.len()];
            match i % 3 {
                0 => {
                    let _ = p.gradient(enc);
                }
                1 => {
                    let _ = p.predict_encoding(enc);
                }
                _ => {
                    let _ = p.predict_batch(&encodings[..8]);
                }
            }
        };
        let occupancy = || {
            let s = scratch_pool_stats();
            (s.buffers, s.retained_bytes)
        };
        for i in 0..3 {
            query(i);
        }
        let warm = occupancy();
        for i in 3..10_000 {
            query(i);
            if i % 1000 == 0 {
                assert_eq!(occupancy(), warm, "call {i}: scratch pool occupancy moved");
            }
        }
        assert_eq!(occupancy(), warm, "scratch pool occupancy moved");
    }

    #[test]
    fn batched_prediction_is_bit_identical_to_per_row() {
        let (p, _, valid) = train_small();
        let batched = p.predict_batch(valid.encodings());
        assert_eq!(batched.len(), valid.len());
        for (enc, b) in valid.encodings().iter().zip(&batched) {
            assert_eq!(
                b.to_bits(),
                p.predict_encoding(enc).to_bits(),
                "batched prediction diverged from the per-row path"
            );
        }
        assert!(p.predict_batch(&[]).is_empty());
    }
}
