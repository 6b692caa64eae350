//! The FBNet-style baseline: fixed trade-off coefficient λ, multi-path
//! relaxation, LUT-based latency (paper Sec. 2.2, Eq. 3).
//!
//! This is the engine the paper's motivational experiment (Fig. 3) drives:
//! because λ is a *constant*, hitting a specific latency target requires
//! re-running the search over a hand-tuned λ grid — the "implicit search
//! cost" LightNAS eliminates.

use lightnas_eval::AccuracyOracle;
use lightnas_predictor::LutPredictor;
use lightnas_space::{Architecture, SearchSpace, NUM_OPS, SEARCHABLE_LAYERS};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::optimizer::AlphaAdam;
use crate::{ArchParams, EpochRecord, SearchConfig, SearchOutcome, SearchTrace};

/// FBNet-style search: `minimize L_valid + λ·LAT(α)` with constant λ.
///
/// Differences from [`crate::LightNas`], mirroring the published method:
///
/// * **multi-path**: the loss is the expectation over the relaxed operator
///   distribution `P̂` (all `K` candidates active), so the gradient touches
///   every path — the memory-hungry regime of Sec. 3.3;
/// * **LUT latency**: the penalty uses the per-op look-up table, not the
///   MLP predictor;
/// * **fixed λ**: nothing adapts; the achieved latency is whatever the
///   chosen λ yields.
#[derive(Debug)]
pub struct FbnetSearch<'a> {
    space: &'a SearchSpace,
    oracle: &'a AccuracyOracle,
    lut: &'a LutPredictor,
    lambda: f64,
    config: SearchConfig,
}

impl<'a> FbnetSearch<'a> {
    /// Assembles an engine with a fixed trade-off coefficient `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative.
    pub fn new(
        space: &'a SearchSpace,
        oracle: &'a AccuracyOracle,
        lut: &'a LutPredictor,
        lambda: f64,
        config: SearchConfig,
    ) -> Self {
        assert!(lambda >= 0.0, "λ must be non-negative, got {lambda}");
        Self {
            space,
            oracle,
            lut,
            lambda,
            config,
        }
    }

    /// The fixed trade-off coefficient.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The space this engine searches over.
    pub fn space(&self) -> &SearchSpace {
        self.space
    }

    /// Runs the search and returns the outcome.
    pub fn search(&self, seed: u64) -> SearchOutcome {
        let c = &self.config;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfb2e_7001);
        let mut params = ArchParams::new();
        let mut adam = AlphaAdam::new(c.alpha_lr, c.alpha_weight_decay);
        let mut trace = SearchTrace::new();
        let total_steps = c.total_steps().max(1) as f64;
        let mut global_step = 0usize;

        for epoch in 0..c.epochs {
            let tau = c.tau_at(epoch);
            let mut sampled_sum = 0.0;
            let mut loss_sum = 0.0;
            let mut count = 0.0;
            for _ in 0..c.steps_per_epoch {
                let progress = global_step as f64 / total_steps;
                global_step += 1;
                if epoch < c.warmup_epochs {
                    continue;
                }
                let (context, relaxed, probs) = params.sample(tau, &mut rng);
                // Multi-path expectation: ∂L/∂P̂[l][k] is the loss marginal
                // of candidate k at slot l (every path contributes).
                let acc_marginals = self.oracle.loss_marginals(&context, progress);
                let mut g = [[0.0f64; NUM_OPS]; SEARCHABLE_LAYERS];
                for l in 0..SEARCHABLE_LAYERS {
                    for (k, slot) in g[l].iter_mut().enumerate() {
                        // Eq. 3: λ·LAT, unnormalized; the latency gradient
                        // through the expectation is the LUT entry itself.
                        *slot = acc_marginals[l][k]
                            + self.lambda
                                * self.lut.entry(l, lightnas_space::Operator::from_index(k));
                    }
                }
                let grad_alpha = params.backward(&g, &relaxed, &probs, tau);
                adam.step(params.alpha_mut(), &grad_alpha);
                sampled_sum += self.lut.predict(&context);
                loss_sum += self.oracle.valid_loss(&context, progress);
                count += 1.0;
            }
            let argmax_metric = self.lut.predict(&params.strongest());
            trace.push(EpochRecord {
                epoch,
                sampled_metric: if count > 0.0 {
                    sampled_sum / count
                } else {
                    argmax_metric
                },
                argmax_metric,
                lambda: self.lambda,
                tau,
                valid_loss: if count > 0.0 {
                    loss_sum / count
                } else {
                    self.oracle.valid_loss(&params.strongest(), 0.0)
                },
            });
        }
        SearchOutcome {
            architecture: params.strongest(),
            trace,
            lambda: self.lambda,
        }
    }

    /// Convenience: searches and returns only the architecture.
    pub fn search_architecture(&self, seed: u64) -> Architecture {
        self.search(seed).architecture
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::fixture;

    #[test]
    fn zero_lambda_ignores_latency() {
        let f = fixture();
        let free = FbnetSearch::new(&f.space, &f.oracle, &f.lut, 0.0, SearchConfig::fast())
            .search_architecture(1);
        // Accuracy-only search drifts to heavy operators: latency well above
        // the space median.
        let lat = f.device.true_latency_ms(&free, &f.space);
        assert!(lat > 24.0, "unconstrained search gave only {lat:.2} ms");
    }

    #[test]
    fn huge_lambda_collapses_to_skip_connections() {
        let f = fixture();
        let arch = FbnetSearch::new(&f.space, &f.oracle, &f.lut, 1.0, SearchConfig::fast())
            .search_architecture(1);
        // The paper observes λ > 0.25 yields architectures that "only
        // consist of SkipConnect".
        let skips = arch.ops().iter().filter(|o| o.is_skip()).count();
        assert!(skips > SEARCHABLE_LAYERS / 2, "only {skips} skips at λ = 1");
    }

    #[test]
    fn latency_is_monotone_decreasing_in_lambda() {
        let f = fixture();
        let lat_for = |lambda: f64| {
            let a = FbnetSearch::new(&f.space, &f.oracle, &f.lut, lambda, SearchConfig::fast())
                .search_architecture(2);
            f.device.true_latency_ms(&a, &f.space)
        };
        let lo = lat_for(0.003);
        let hi = lat_for(0.2);
        assert!(lo > hi, "λ=0.003 gave {lo:.2} ms, λ=0.2 gave {hi:.2} ms");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_lambda_rejected() {
        let f = fixture();
        let _ = FbnetSearch::new(&f.space, &f.oracle, &f.lut, -0.1, SearchConfig::fast());
    }
}
