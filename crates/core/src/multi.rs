//! Multi-constraint search: several hardware budgets, one learned
//! multiplier each.
//!
//! The paper notes LightNAS "can be effortlessly plugged into various
//! scenarios, in which we only need to replace the latency predictor with
//! the predictor of the target scenario" (Sec. 3.5). This module takes the
//! natural next step the formulation already supports: *simultaneous*
//! constraints, one learned multiplier per metric —
//!
//! ```text
//! minimize_α  L_valid + Σ_i λ_i · (M_i(α)/T_i − 1)
//! λ_i ← λ_i + η_λ · (M_i(α)/T_i − 1)
//! ```
//!
//! Unlike the single-constraint engine (which treats `LAT = T` as an
//! equality and lets λ go negative to pull the architecture *up* to the
//! target), multiple budgets are treated as **inequalities** `M_i ≤ T_i`
//! with KKT-style projected ascent: `λ_i = max(0, λ_i + η_λ·residual)`.
//! A slack budget's multiplier rests at zero — with several correlated
//! metrics, a negative multiplier on a slack budget would push the
//! architecture heavier and fight the binding constraint. Accuracy
//! maximization alone drives the search up to whichever budget binds.

use lightnas_eval::AccuracyOracle;
use lightnas_predictor::MlpPredictor;
use lightnas_space::{SearchSpace, NUM_OPS, SEARCHABLE_LAYERS};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::optimizer::AlphaAdam;
use crate::{ArchParams, EpochRecord, SearchConfig, SearchOutcome, SearchTrace};

/// One hardware budget: a trained predictor plus its target value.
#[derive(Debug)]
pub struct Budget<'a> {
    /// Predictor of the constrained metric.
    pub predictor: &'a MlpPredictor,
    /// The target value `T_i` (same unit as the predictor's corpus).
    pub target: f64,
    /// Display label (used in traces and reports).
    pub label: &'a str,
}

/// The outcome of a multi-constraint search: the shared outcome plus the
/// final multiplier of every budget.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiOutcome {
    /// Architecture, trace (tracking the FIRST budget's metric) and the
    /// first budget's λ, for drop-in compatibility with single-constraint
    /// consumers.
    pub outcome: SearchOutcome,
    /// Final multiplier per budget, in input order.
    pub lambdas: Vec<f64>,
}

/// Multi-constraint LightNAS engine.
#[derive(Debug)]
pub struct MultiConstraintSearch<'a> {
    space: &'a SearchSpace,
    oracle: &'a AccuracyOracle,
    budgets: Vec<Budget<'a>>,
    config: SearchConfig,
}

impl<'a> MultiConstraintSearch<'a> {
    /// Assembles the engine.
    ///
    /// # Panics
    ///
    /// Panics if `budgets` is empty or any target is non-positive.
    pub fn new(
        space: &'a SearchSpace,
        oracle: &'a AccuracyOracle,
        budgets: Vec<Budget<'a>>,
        config: SearchConfig,
    ) -> Self {
        assert!(!budgets.is_empty(), "need at least one budget");
        for b in &budgets {
            assert!(
                b.target > 0.0,
                "budget {:?} must have a positive target",
                b.label
            );
        }
        Self {
            space,
            oracle,
            budgets,
            config,
        }
    }

    /// The space this engine searches over.
    pub fn space(&self) -> &SearchSpace {
        self.space
    }

    /// Runs one search satisfying all budgets simultaneously.
    pub fn search(&self, seed: u64) -> MultiOutcome {
        let c = &self.config;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0b1e_5eedu64);
        let mut params = ArchParams::new();
        let mut adam = AlphaAdam::new(c.alpha_lr, c.alpha_weight_decay);
        let mut lambdas = vec![0.0f64; self.budgets.len()];
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
                let (arch, relaxed, probs) = params.sample(tau, &mut rng);
                // ∂L_valid/∂P̄, then each budget's (λ_i/T_i)·∂M_i/∂P̄ on top.
                let mut g = self.oracle.loss_marginals(&arch, progress);
                let encoding = arch.encode();
                let strongest = params.strongest();
                for (i, b) in self.budgets.iter().enumerate() {
                    let metric_grad = b.predictor.gradient(&encoding);
                    for l in 0..SEARCHABLE_LAYERS {
                        for k in 0..NUM_OPS {
                            g[l][k] +=
                                lambdas[i] / b.target * metric_grad[(l + 1) * NUM_OPS + k] as f64;
                        }
                    }
                    let metric = b.predictor.predict(&strongest);
                    // Projected ascent: inequality multipliers stay ≥ 0.
                    lambdas[i] = (lambdas[i] + c.lambda_lr * (metric / b.target - 1.0)).max(0.0);
                }
                let grad_alpha = params.backward(&g, &relaxed, &probs, tau);
                adam.step(params.alpha_mut(), &grad_alpha);
                sampled_sum += self.budgets[0].predictor.predict(&arch);
                loss_sum += self.oracle.valid_loss(&arch, progress);
                count += 1.0;
            }
            let argmax_metric = self.budgets[0].predictor.predict(&params.strongest());
            trace.push(EpochRecord {
                epoch,
                sampled_metric: if count > 0.0 {
                    sampled_sum / count
                } else {
                    argmax_metric
                },
                argmax_metric,
                lambda: lambdas[0],
                tau,
                valid_loss: if count > 0.0 {
                    loss_sum / count
                } else {
                    self.oracle.valid_loss(&params.strongest(), 0.0)
                },
            });
        }
        MultiOutcome {
            outcome: SearchOutcome {
                architecture: params.strongest(),
                trace,
                lambda: lambdas[0],
            },
            lambdas,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::fixture;
    use lightnas_predictor::{Metric, MetricDataset, MlpPredictor, TrainConfig};
    use std::sync::OnceLock;

    fn energy_predictor() -> &'static MlpPredictor {
        static P: OnceLock<MlpPredictor> = OnceLock::new();
        P.get_or_init(|| {
            let f = fixture();
            let data =
                MetricDataset::sample_diverse(&f.device, &f.space, Metric::EnergyMj, 1500, 99);
            let (train, _) = data.split(0.9);
            MlpPredictor::train(
                &train,
                &TrainConfig {
                    epochs: 50,
                    batch_size: 128,
                    lr: 2e-3,
                    seed: 9,
                },
            )
        })
    }

    #[test]
    fn single_budget_reduces_to_lightnas_behaviour() {
        let f = fixture();
        let engine = MultiConstraintSearch::new(
            &f.space,
            &f.oracle,
            vec![Budget {
                predictor: &f.predictor,
                target: 22.0,
                label: "latency",
            }],
            crate::SearchConfig::paper(),
        );
        let out = engine.search(5);
        let lat = f
            .device
            .true_latency_ms(&out.outcome.architecture, &f.space);
        assert!(
            (lat - 22.0).abs() < 1.5,
            "single-budget multi search landed at {lat:.2}"
        );
        assert_eq!(out.lambdas.len(), 1);
    }

    #[test]
    fn conflicting_budgets_respect_the_tighter_one() {
        // A tight latency budget with a loose energy budget: latency binds,
        // the energy multiplier goes slack (≤ 0).
        let f = fixture();
        let energy = energy_predictor();
        let engine = MultiConstraintSearch::new(
            &f.space,
            &f.oracle,
            vec![
                Budget {
                    predictor: &f.predictor,
                    target: 21.0,
                    label: "latency",
                },
                Budget {
                    predictor: energy,
                    target: 900.0,
                    label: "energy",
                },
            ],
            crate::SearchConfig::paper(),
        );
        let out = engine.search(7);
        let arch = &out.outcome.architecture;
        let lat = f.device.true_latency_ms(arch, &f.space);
        let e = f.device.true_energy_mj(arch, &f.space);
        assert!(
            (lat - 21.0).abs() < 1.5,
            "latency {lat:.2} should bind at 21 ms"
        );
        assert!(e < 900.0, "slack energy budget violated: {e:.0} mJ");
        assert!(
            out.lambdas[1] <= 1e-9,
            "slack budget's multiplier should rest at zero, got {:.3}",
            out.lambdas[1]
        );
        assert!(
            out.lambdas[0] > 0.0,
            "binding budget's multiplier should engage"
        );
    }

    #[test]
    fn both_budgets_bind_when_mutually_tight() {
        let f = fixture();
        let energy = energy_predictor();
        // 24 ms and 450 mJ are close on the frontier: both multipliers engage.
        let engine = MultiConstraintSearch::new(
            &f.space,
            &f.oracle,
            vec![
                Budget {
                    predictor: &f.predictor,
                    target: 24.0,
                    label: "latency",
                },
                Budget {
                    predictor: energy,
                    target: 450.0,
                    label: "energy",
                },
            ],
            crate::SearchConfig::paper(),
        );
        let out = engine.search(3);
        let arch = &out.outcome.architecture;
        let lat = f.device.true_latency_ms(arch, &f.space);
        let e = f.device.true_energy_mj(arch, &f.space);
        assert!(
            lat < 25.5,
            "latency {lat:.2} exceeds 24 ms budget by too much"
        );
        assert!(e < 500.0, "energy {e:.0} exceeds 450 mJ budget by too much");
    }

    #[test]
    #[should_panic(expected = "at least one budget")]
    fn empty_budget_list_rejected() {
        let f = fixture();
        let _ =
            MultiConstraintSearch::new(&f.space, &f.oracle, vec![], crate::SearchConfig::fast());
    }
}
