//! ProxylessNAS-style two-path baseline (Cai et al., ICLR 2019).
//!
//! ProxylessNAS reduces the multi-path memory blow-up by *binarizing* the
//! architecture distribution and activating only **two** sampled paths per
//! update; their relative performance reweights the distribution. Latency
//! enters as a fixed-λ penalty (Eq. 3 regime) through per-op expectations —
//! the engine can optimize latency but, like FBNet, cannot *target* one
//! (the "Specified Latency ✗ / O(2²)" row of Table 1).

use lightnas_eval::AccuracyOracle;
use lightnas_predictor::LutPredictor;
use lightnas_space::{Architecture, Operator, SearchSpace, NUM_OPS, SEARCHABLE_LAYERS};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::optimizer::AlphaAdam;
use crate::{ArchParams, EpochRecord, SearchConfig, SearchOutcome, SearchTrace};

/// Two-path sampled differentiable search with a fixed latency coefficient.
#[derive(Debug)]
pub struct ProxylessSearch<'a> {
    space: &'a SearchSpace,
    oracle: &'a AccuracyOracle,
    lut: &'a LutPredictor,
    lambda: f64,
    config: SearchConfig,
}

impl<'a> ProxylessSearch<'a> {
    /// Assembles the engine with the fixed trade-off coefficient `lambda`.
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
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2a7_05e5);
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
                let marginals = self.oracle.loss_marginals(&context, progress);
                // Two-path update: per slot, compare the sampled op against
                // one alternative drawn from the current distribution; only
                // those two coordinates receive gradient.
                let mut g = [[0.0f64; NUM_OPS]; SEARCHABLE_LAYERS];
                for l in 0..SEARCHABLE_LAYERS {
                    let a = context.ops()[l].index();
                    let mut b = rng.random_range(0..NUM_OPS);
                    if b == a {
                        b = (b + 1 + rng.random_range(0..NUM_OPS - 1)) % NUM_OPS;
                    }
                    let score = |k: usize| {
                        marginals[l][k] + self.lambda * self.lut.entry(l, Operator::from_index(k))
                    };
                    // Centering (the REINFORCE baseline ProxylessNAS's
                    // binarized update implies): the better of the two paths
                    // gains exactly what the worse loses; unsampled
                    // operators stay neutral.
                    let (sa, sb) = (score(a), score(b));
                    let mean = 0.5 * (sa + sb);
                    g[l][a] = sa - mean;
                    g[l][b] = sb - mean;
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
    fn two_path_search_improves_over_uniform_start() {
        let f = fixture();
        let engine = ProxylessSearch::new(&f.space, &f.oracle, &f.lut, 0.0, SearchConfig::fast());
        let arch = engine.search_architecture(1);
        let random = Architecture::random(&f.space, 1);
        assert!(
            f.oracle.asymptotic_top1(&arch) > f.oracle.asymptotic_top1(&random),
            "two-path search should beat a random architecture"
        );
    }

    #[test]
    fn lambda_still_trades_accuracy_for_latency() {
        let f = fixture();
        let lat_for = |lambda: f64| {
            let engine =
                ProxylessSearch::new(&f.space, &f.oracle, &f.lut, lambda, SearchConfig::fast());
            f.device
                .true_latency_ms(&engine.search_architecture(2), &f.space)
        };
        assert!(lat_for(0.002) > lat_for(0.5));
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let f = fixture();
        let engine = ProxylessSearch::new(&f.space, &f.oracle, &f.lut, 0.01, SearchConfig::fast());
        assert_eq!(engine.search_architecture(4), engine.search_architecture(4));
    }
}
