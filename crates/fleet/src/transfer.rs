//! The proxy→target transfer path: a deterministic monotone recalibration
//! of a proxy device's predictor, optionally composed with a few-shot
//! fine-tune of the proxy weights.
//!
//! "One Proxy Device Is Enough" observes that latency is strongly monotone
//! *across* devices: if architecture A is slower than B on the proxy, it is
//! almost always slower on the target too. So instead of sampling another
//! 10k-architecture corpus per target, the fleet measures a small budget
//! (≤ 100 samples) on the target and fits a **monotone piecewise-linear
//! map** from proxy predictions to target measurements — isotonic
//! regression by pool-adjacent-violators, then strictified so the map never
//! collapses ranks. The map is closed-form and deterministic: same pairs
//! in, same breakpoints out, bit for bit.
//!
//! When devices differ in *shape* (compute- vs memory-bound operators
//! reorder), rank transfer alone saturates; [`TransferOptions::fine_tune`]
//! first adapts the proxy MLP's weights on the same ≤ 100 samples (the
//! PR 5 fast training step makes this cheap) and the monotone map then
//! recalibrates the fine-tuned predictor's residual scale.

use lightnas_predictor::{BatchPredictor, MetricDataset, MlpPredictor, Predictor, TrainConfig};

/// Minimum separation enforced between consecutive fitted values, as a
/// fraction of the fitted range: keeps the map *strictly* increasing so it
/// preserves the proxy's ranking exactly (Kendall τ = 1 on training pairs).
const STRICT_EPS: f64 = 1e-9;

/// A strictly increasing piecewise-linear map `proxy prediction → target
/// metric`, fit by isotonic regression (pool-adjacent-violators).
///
/// Outside the fitted breakpoint range the map extrapolates linearly with
/// the slope of the nearest segment, so it stays strictly increasing on all
/// of ℝ — the property the search relies on: optimizing the mapped
/// prediction optimizes the proxy prediction's ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct MonotoneMap {
    /// Breakpoint inputs, strictly increasing.
    xs: Vec<f64>,
    /// Fitted outputs, strictly increasing.
    ys: Vec<f64>,
}

impl MonotoneMap {
    /// The identity map (`y = x`): wraps a predictor in a
    /// [`TransferredPredictor`] without recalibrating it — how the proxy
    /// device itself enters a fleet of transferred predictors with one
    /// uniform model type.
    pub fn identity() -> Self {
        Self::fit(&[(0.0, 0.0), (1.0, 1.0)])
    }

    /// Fits the map on `(proxy prediction, target measurement)` pairs.
    ///
    /// Duplicate inputs are pooled (weighted mean target) before the PAV
    /// pass; after PAV the fitted values are nudged apart by a relative
    /// epsilon so the map is strictly — not just weakly — increasing.
    ///
    /// # Panics
    ///
    /// Panics with fewer than 2 pairs of distinct finite inputs.
    pub fn fit(pairs: &[(f64, f64)]) -> Self {
        assert!(
            pairs.iter().all(|(x, y)| x.is_finite() && y.is_finite()),
            "monotone map requires finite pairs"
        );
        let mut sorted: Vec<(f64, f64)> = pairs.to_vec();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        // Pool exact-duplicate inputs: one (x, mean y, weight) per distinct x.
        let mut xs: Vec<f64> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        let mut ws: Vec<f64> = Vec::new();
        for &(x, y) in &sorted {
            if xs.last() == Some(&x) {
                let w = ws.last_mut().expect("parallel");
                let m = ys.last_mut().expect("parallel");
                *m += (y - *m) / (*w + 1.0);
                *w += 1.0;
            } else {
                xs.push(x);
                ys.push(y);
                ws.push(1.0);
            }
        }
        assert!(xs.len() >= 2, "monotone map needs >= 2 distinct inputs");
        // Pool-adjacent-violators: merge neighbouring blocks until the
        // weighted block means are non-decreasing. `blocks` holds
        // (last distinct-x index, weight, mean).
        let mut blocks: Vec<(usize, f64, f64)> = Vec::with_capacity(xs.len());
        for i in 0..xs.len() {
            blocks.push((i, ws[i], ys[i]));
            while blocks.len() >= 2 {
                let (_, w2, m2) = blocks[blocks.len() - 1];
                let (_, w1, m1) = blocks[blocks.len() - 2];
                if m1 <= m2 {
                    break;
                }
                let merged = (
                    blocks[blocks.len() - 1].0,
                    w1 + w2,
                    (w1 * m1 + w2 * m2) / (w1 + w2),
                );
                blocks.pop();
                *blocks.last_mut().expect("non-empty") = merged;
            }
        }
        // Expand the block means back to one fitted value per distinct x,
        // then strictify with a range-relative epsilon.
        let mut fitted = Vec::with_capacity(xs.len());
        let mut start = 0;
        for &(end, _, mean) in &blocks {
            for _ in start..=end {
                fitted.push(mean);
            }
            start = end + 1;
        }
        let span = (fitted[fitted.len() - 1] - fitted[0]).abs().max(1.0);
        let eps = span * STRICT_EPS;
        for i in 1..fitted.len() {
            if fitted[i] <= fitted[i - 1] {
                fitted[i] = fitted[i - 1] + eps;
            }
        }
        Self { xs, ys: fitted }
    }

    /// The fitted breakpoints `(input, output)`, strictly increasing in
    /// both coordinates.
    pub fn breakpoints(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.xs.iter().copied().zip(self.ys.iter().copied())
    }

    /// Evaluates the map: piecewise-linear between breakpoints, linear
    /// extrapolation (nearest segment's slope) outside them.
    pub fn apply(&self, x: f64) -> f64 {
        let n = self.xs.len();
        let seg = match self.xs.binary_search_by(|p| p.total_cmp(&x)) {
            Ok(i) => return self.ys[i],
            // Clamp to the edge segments for extrapolation.
            Err(i) => i.clamp(1, n - 1),
        };
        let (x0, x1) = (self.xs[seg - 1], self.xs[seg]);
        let (y0, y1) = (self.ys[seg - 1], self.ys[seg]);
        y0 + (x - x0) * (y1 - y0) / (x1 - x0)
    }

    /// The map's slope at `x` (the segment slope; edge-segment slope
    /// outside the breakpoint range). Always positive — the chain-rule
    /// factor for [`TransferredPredictor`]'s gradients.
    pub fn slope_at(&self, x: f64) -> f64 {
        let n = self.xs.len();
        let seg = match self.xs.binary_search_by(|p| p.total_cmp(&x)) {
            Ok(i) => i.clamp(1, n - 1),
            Err(i) => i.clamp(1, n - 1),
        };
        (self.ys[seg] - self.ys[seg - 1]) / (self.xs[seg] - self.xs[seg - 1])
    }
}

/// How a proxy predictor is adapted to a target device.
#[derive(Debug, Clone)]
pub struct TransferOptions {
    /// Maximum target-device samples the transfer may consume (the paper
    /// protocol measures 10,000 per device; the fleet budget is ≤ 100).
    pub budget: usize,
    /// When set, first fine-tune the proxy MLP's weights on the budget
    /// samples ([`MlpPredictor::fine_tune`]); the monotone map then
    /// recalibrates the fine-tuned predictor. `None` maps the raw proxy.
    pub fine_tune: Option<TrainConfig>,
}

impl Default for TransferOptions {
    /// The calibrated few-shot recipe: a *short, gentle* fine-tune. With
    /// only 100 target samples the proxy's weights are the regularizer —
    /// long or aggressive fine-tunes overfit the budget fold and transfer
    /// *worse* (measured in the `fleet_pareto` exhibit's grid: ratios
    /// degrade monotonically with epochs beyond ~100 at lr 1e-3).
    fn default() -> Self {
        Self {
            budget: 100,
            fine_tune: Some(TrainConfig {
                epochs: 100,
                batch_size: 32,
                lr: 3e-4,
                seed: 0,
            }),
        }
    }
}

/// A proxy predictor composed with a fitted [`MonotoneMap`]: predicts in
/// the *target* device's latency scale while ranking architectures exactly
/// as its base predictor does.
#[derive(Debug, Clone)]
pub struct TransferredPredictor<P> {
    base: P,
    map: MonotoneMap,
}

impl<P: Predictor> TransferredPredictor<P> {
    /// Composes an already-fitted map over a base predictor.
    pub fn new(base: P, map: MonotoneMap) -> Self {
        Self { base, map }
    }

    /// The base predictor.
    pub fn base(&self) -> &P {
        &self.base
    }

    /// The fitted recalibration map.
    pub fn map(&self) -> &MonotoneMap {
        &self.map
    }
}

impl<P: Predictor> Predictor for TransferredPredictor<P> {
    fn predict_encoding(&self, encoding: &[f32]) -> f64 {
        self.map.apply(self.base.predict_encoding(encoding))
    }

    fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
        // Chain rule through the piecewise-linear map: the segment slope
        // scales the base gradient.
        let slope = self.map.slope_at(self.base.predict_encoding(encoding)) as f32;
        self.base
            .gradient(encoding)
            .into_iter()
            .map(|g| g * slope)
            .collect()
    }
}

impl<P: Predictor> BatchPredictor for TransferredPredictor<P> {}

/// Adapts `proxy` to the device that produced `target_samples`: takes the
/// first [`TransferOptions::budget`] rows, optionally fine-tunes the proxy
/// weights on them, and fits the monotone recalibration map from the
/// (possibly fine-tuned) predictions to the measured targets.
///
/// Fully deterministic: prefix budget, seeded fine-tune, closed-form map.
///
/// # Panics
///
/// Panics if the budget cuts fewer than 2 samples.
pub fn transfer_predictor(
    proxy: &MlpPredictor,
    target_samples: &MetricDataset,
    opts: &TransferOptions,
) -> TransferredPredictor<MlpPredictor> {
    let fold = target_samples.take(opts.budget);
    let base = match &opts.fine_tune {
        Some(cfg) => proxy.fine_tune(&fold, cfg),
        None => proxy.clone(),
    };
    let pairs: Vec<(f64, f64)> = base
        .predict_all(&fold)
        .into_iter()
        .zip(fold.targets().iter().copied())
        .collect();
    TransferredPredictor::new(base, MonotoneMap::fit(&pairs))
}

/// Root-mean-square error of any [`Predictor`] over a dataset, in the
/// metric's unit (the trait-level counterpart of [`MlpPredictor::rmse`]).
///
/// # Panics
///
/// Panics on an empty dataset.
pub fn predictor_rmse<P: Predictor>(predictor: &P, data: &MetricDataset) -> f64 {
    assert!(!data.is_empty(), "rmse over empty dataset");
    let se: f64 = data
        .encodings()
        .iter()
        .zip(data.targets())
        .map(|(e, &y)| {
            let p = predictor.predict_encoding(e);
            (p - y) * (p - y)
        })
        .sum();
    (se / data.len() as f64).sqrt()
}

/// Kendall rank correlation τ between two equal-length sequences: the
/// normalized excess of concordant over discordant pairs (ties count as
/// neither). 1.0 means identical ranking.
///
/// # Panics
///
/// Panics on length mismatch or fewer than 2 items.
pub fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "kendall_tau length mismatch");
    assert!(a.len() >= 2, "kendall_tau needs >= 2 items");
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..a.len() {
        for j in i + 1..a.len() {
            let da = a[j] - a[i];
            let db = b[j] - b[i];
            let s = da * db;
            if s > 0.0 {
                concordant += 1;
            } else if s < 0.0 {
                discordant += 1;
            }
        }
    }
    let pairs = (a.len() * (a.len() - 1) / 2) as f64;
    (concordant - discordant) as f64 / pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spearman;

    #[test]
    fn fit_recovers_a_monotone_relation_exactly() {
        let pairs: Vec<(f64, f64)> = (0..20).map(|i| (i as f64, 2.0 * i as f64 + 5.0)).collect();
        let map = MonotoneMap::fit(&pairs);
        for &(x, y) in &pairs {
            assert!((map.apply(x) - y).abs() < 1e-12);
        }
        // Interpolation and extrapolation follow the line.
        assert!((map.apply(3.5) - 12.0).abs() < 1e-12);
        assert!((map.apply(-2.0) - 1.0).abs() < 1e-12);
        assert!((map.apply(25.0) - 55.0).abs() < 1e-12);
        assert!((map.slope_at(7.3) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pav_pools_violators_to_the_weighted_mean() {
        // A decreasing middle: isotonic fit must pool it.
        let pairs = [(0.0, 1.0), (1.0, 3.0), (2.0, 2.0), (3.0, 4.0)];
        let map = MonotoneMap::fit(&pairs);
        // Block {3.0, 2.0} pools to 2.5 at both x=1 and x=2 (then the
        // strictness epsilon separates them infinitesimally).
        assert!((map.apply(1.0) - 2.5).abs() < 1e-6);
        assert!((map.apply(2.0) - 2.5).abs() < 1e-6);
        assert!(map.apply(2.0) > map.apply(1.0), "strictly increasing");
    }

    #[test]
    fn duplicate_inputs_are_pooled_not_rejected() {
        let pairs = [(1.0, 2.0), (1.0, 4.0), (2.0, 5.0)];
        let map = MonotoneMap::fit(&pairs);
        assert!((map.apply(1.0) - 3.0).abs() < 1e-9, "mean of duplicates");
        assert!((map.apply(2.0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn map_is_strictly_increasing_even_on_anti_monotone_data() {
        let pairs: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, -(i as f64))).collect();
        let map = MonotoneMap::fit(&pairs);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..10 {
            let y = map.apply(i as f64);
            assert!(y > prev, "x={i}: {y} <= {prev}");
            prev = y;
        }
    }

    #[test]
    fn fit_is_deterministic_under_input_order() {
        let mut pairs: Vec<(f64, f64)> = (0..30)
            .map(|i| ((i * 7 % 30) as f64, (i % 5) as f64))
            .collect();
        let a = MonotoneMap::fit(&pairs);
        pairs.reverse();
        let b = MonotoneMap::fit(&pairs);
        assert_eq!(a, b);
    }

    #[test]
    fn rank_statistics_agree_on_clean_orderings() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let up = [10.0, 20.0, 30.0, 40.0, 50.0];
        let down = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert!((kendall_tau(&a, &up) - 1.0).abs() < 1e-12);
        assert!((kendall_tau(&a, &down) + 1.0).abs() < 1e-12);
        assert!((spearman(&a, &up) - 1.0).abs() < 1e-12);
        assert!((spearman(&a, &down) + 1.0).abs() < 1e-12);
        // One adjacent swap on five items: τ = 0.8, ρ = 0.9.
        let swapped = [1.0, 2.0, 4.0, 3.0, 5.0];
        assert!((kendall_tau(&a, &swapped) - 0.8).abs() < 1e-12);
        assert!((spearman(&a, &swapped) - 0.9).abs() < 1e-12);
    }
}
