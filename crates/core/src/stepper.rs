//! The resumable search stepper: [`LightNas::search`](crate::LightNas::search)
//! decomposed into explicit state plus an epoch-granular step function.
//!
//! A one-shot search call cannot survive a killed process. The stepper makes
//! every piece of search state explicit in [`SearchState`] — `{epoch,
//! global_step, α, λ, Adam moments, RNG position, trace}` — so a runtime can
//! snapshot it after any epoch, serialize it (see `lightnas-runtime`'s
//! checkpoint format), and later continue **bit-identically**: a resumed
//! search produces exactly the trajectory an uninterrupted run would have.

use lightnas_eval::AccuracyOracle;
use lightnas_predictor::Predictor;
use lightnas_space::{NUM_OPS, SEARCHABLE_LAYERS};
use rand::rngs::StdRng;
use rand::SeedableRng;

use std::fmt;

use crate::optimizer::{AdamState, AlphaAdam};
use crate::{ArchParams, DivergencePolicy, EpochRecord, SearchConfig, SearchOutcome, SearchTrace};

/// A search trajectory left the finite numbers — the typed form of "this
/// job diverged", surfaced by [`SearchStepper::try_step_epoch`].
///
/// A diverged stepper is **torn**: the failing epoch may have applied part
/// of its updates, no trace record was pushed, and the epoch counter did not
/// advance. Do not keep stepping it — rebuild from the last good checkpoint
/// (what `lightnas-runtime`'s supervisor does) or restart the job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SearchError {
    /// A loss/metric value entering the update was non-finite (a NaN/∞ from
    /// the predictor or oracle).
    NonFiniteLoss {
        /// Epoch that hit the value.
        epoch: usize,
        /// The offending value.
        value: f64,
    },
    /// An architecture parameter went non-finite. Never recoverable: the
    /// search direction itself is corrupt.
    NonFiniteAlpha {
        /// Epoch that detected the corruption.
        epoch: usize,
        /// Searchable-slot row of the bad entry.
        layer: usize,
        /// Operator column of the bad entry.
        op: usize,
    },
    /// The trade-off multiplier λ went non-finite during the ascent.
    NonFiniteLambda {
        /// Epoch that detected the divergence.
        epoch: usize,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SearchError::NonFiniteLoss { epoch, value } => {
                write!(f, "non-finite loss/metric {value} at epoch {epoch}")
            }
            SearchError::NonFiniteAlpha { epoch, layer, op } => {
                write!(f, "non-finite alpha[{layer}][{op}] at epoch {epoch}")
            }
            SearchError::NonFiniteLambda { epoch, value } => {
                write!(f, "non-finite lambda {value} at epoch {epoch}")
            }
        }
    }
}

impl std::error::Error for SearchError {}

/// The complete, serializable state of a LightNAS search between epochs.
///
/// Everything the next epoch depends on is here; the substrates (space,
/// oracle, predictor) and the immutable run parameters (config, target,
/// seed) live outside and must be re-supplied on resume.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchState {
    /// Index of the next epoch to execute (`== config.epochs` when done).
    pub epoch: usize,
    /// Optimization steps taken so far (drives the `w*(α)` progress proxy).
    pub global_step: usize,
    /// The architecture parameters `α`, one row per searchable slot.
    pub alpha: Vec<[f64; NUM_OPS]>,
    /// The learned trade-off multiplier λ (Eq. 11).
    pub lambda: f64,
    /// Adam moment estimates for `α`.
    pub adam: AdamState,
    /// The PRNG position (xoshiro256++ words), so sampling continues the
    /// exact stream.
    pub rng: [u64; 4],
    /// Per-epoch telemetry accumulated so far.
    pub trace: SearchTrace,
}

impl SearchState {
    /// The state a fresh search starts from (same seeding as
    /// [`LightNas::search`](crate::LightNas::search)).
    pub fn fresh(seed: u64) -> Self {
        Self {
            epoch: 0,
            global_step: 0,
            alpha: vec![[0.0; NUM_OPS]; SEARCHABLE_LAYERS],
            lambda: 0.0,
            adam: AdamState::fresh(),
            rng: StdRng::seed_from_u64(seed ^ 0x11c9_7a5b).state(),
            trace: SearchTrace::new(),
        }
    }
}

/// An epoch-granular LightNAS search over borrowed substrates.
///
/// Drive it with [`step_epoch`](Self::step_epoch) until `None`, or
/// [`run`](Self::run) to completion; snapshot [`state`](Self::state) between
/// epochs for checkpointing.
#[derive(Debug)]
pub struct SearchStepper<'a, P> {
    oracle: &'a AccuracyOracle,
    predictor: &'a P,
    config: SearchConfig,
    target: f64,
    params: ArchParams,
    adam: AlphaAdam,
    rng: StdRng,
    lambda: f64,
    epoch: usize,
    global_step: usize,
    trace: SearchTrace,
    divergence: DivergencePolicy,
    recoveries: u64,
}

impl<'a, P: Predictor> SearchStepper<'a, P> {
    /// A stepper at the start of a fresh search.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not positive or `config` fails
    /// [`SearchConfig::validate`].
    pub fn new(
        oracle: &'a AccuracyOracle,
        predictor: &'a P,
        config: SearchConfig,
        target: f64,
        seed: u64,
    ) -> Self {
        Self::from_state(oracle, predictor, config, target, SearchState::fresh(seed))
    }

    /// A stepper continuing from a checkpointed [`SearchState`].
    ///
    /// # Panics
    ///
    /// Panics if `target` is not positive, `config` fails validation, or the
    /// state's dimensions do not match the search space.
    pub fn from_state(
        oracle: &'a AccuracyOracle,
        predictor: &'a P,
        config: SearchConfig,
        target: f64,
        state: SearchState,
    ) -> Self {
        assert!(target > 0.0, "target must be positive, got {target}");
        if let Err(e) = config.validate() {
            panic!("invalid search config: {e}");
        }
        assert_eq!(state.alpha.len(), SEARCHABLE_LAYERS, "alpha row count");
        assert_eq!(state.adam.m.len(), SEARCHABLE_LAYERS, "adam moment rows");
        assert!(state.epoch <= config.epochs, "state epoch beyond schedule");
        assert_eq!(
            state.trace.records().len(),
            state.epoch,
            "trace must hold one record per completed epoch"
        );
        let mut params = ArchParams::new();
        params.alpha_mut().copy_from_slice(&state.alpha);
        Self {
            oracle,
            predictor,
            adam: AlphaAdam::from_state(config.alpha_lr, config.alpha_weight_decay, state.adam),
            config,
            target,
            params,
            rng: StdRng::from_state(state.rng),
            lambda: state.lambda,
            epoch: state.epoch,
            global_step: state.global_step,
            trace: state.trace,
            divergence: DivergencePolicy::Abort,
            recoveries: 0,
        }
    }

    /// Sets what [`try_step_epoch`](Self::try_step_epoch) does when a
    /// divergence guard trips (default: [`DivergencePolicy::Abort`]). The
    /// policy never affects a healthy trajectory — the guards are read-only
    /// on finite values — so it is not part of the job's identity.
    pub fn set_divergence_policy(&mut self, policy: DivergencePolicy) {
        self.divergence = policy;
    }

    /// Builder form of [`set_divergence_policy`](Self::set_divergence_policy).
    #[must_use]
    pub fn with_divergence_policy(mut self, policy: DivergencePolicy) -> Self {
        self.divergence = policy;
        self
    }

    /// How many poisoned updates the [`DivergencePolicy::ResetLambda`]
    /// policy absorbed so far (0 under `Abort`, which errors instead).
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// A snapshot of the complete mutable state (cheap relative to an epoch).
    pub fn state(&self) -> SearchState {
        SearchState {
            epoch: self.epoch,
            global_step: self.global_step,
            alpha: self.params.alpha().to_vec(),
            lambda: self.lambda,
            adam: self.adam.state().clone(),
            rng: self.rng.state(),
            trace: self.trace.clone(),
        }
    }

    /// The constraint target `T`.
    pub fn target(&self) -> f64 {
        self.target
    }

    /// The schedule being run.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Index of the next epoch to execute.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// `true` once every epoch has run.
    pub fn is_complete(&self) -> bool {
        self.epoch >= self.config.epochs
    }

    /// Handles a tripped divergence guard: under `ResetLambda` the poisoned
    /// update is skipped and λ restarts from 0; under `Abort` the typed
    /// error surfaces.
    fn diverged(&mut self, error: SearchError) -> Result<(), SearchError> {
        match self.divergence {
            DivergencePolicy::Abort => Err(error),
            DivergencePolicy::ResetLambda => {
                self.lambda = 0.0;
                self.recoveries += 1;
                Ok(())
            }
        }
    }

    /// Runs one epoch of the bi-level loop (paper Sec. 3.3–3.4) and returns
    /// its record, or `Ok(None)` if the schedule is already complete.
    ///
    /// Every epoch runs under divergence guards: λ is checked before it
    /// feeds the α gradient and again after the ascent, predictor/oracle
    /// values are checked before they enter an update, and the α matrix and
    /// epoch record are checked at epoch end. On finite trajectories the
    /// guards are read-only, so guarded and unguarded runs are
    /// bit-identical.
    ///
    /// # Errors
    ///
    /// Returns a [`SearchError`] when a guard trips and the policy is
    /// [`DivergencePolicy::Abort`] — and for non-finite α or a non-finite
    /// epoch record under *any* policy (resetting λ cannot repair those).
    /// The stepper is then torn mid-epoch: rebuild it from a checkpoint
    /// instead of stepping further.
    pub fn try_step_epoch(&mut self) -> Result<Option<EpochRecord>, SearchError> {
        if self.is_complete() {
            return Ok(None);
        }
        let c = self.config;
        let epoch = self.epoch;
        let t = self.target;
        let total_steps = c.total_steps().max(1) as f64;
        let tau = c.tau_at(epoch);
        let mut sampled_sum = 0.0;
        let mut loss_sum = 0.0;
        let mut count = 0.0;
        for _ in 0..c.steps_per_epoch {
            // `w*(α)` training progress stands in for the supernet weight
            // updates (see DESIGN.md §2).
            let progress = self.global_step as f64 / total_steps;
            self.global_step += 1;
            // Warmup: only w trains; α and λ stay frozen (Sec. 4.1).
            if epoch < c.warmup_epochs {
                continue;
            }
            // Guard: λ feeds the α gradient below, so a non-finite value
            // must be caught *before* it can poison the whole α matrix.
            if !self.lambda.is_finite() {
                let value = self.lambda;
                self.diverged(SearchError::NonFiniteLambda { epoch, value })?;
            }
            // Single-path sample (Eq. 7-9): one architecture active.
            let (arch, relaxed, probs) = self.params.sample(tau, &mut self.rng);
            // ∂L_valid/∂P̄ — the supernet's validation-loss marginals.
            let acc_marginals = self.oracle.loss_marginals(&arch, progress);
            // ∂LAT/∂P̄ — one predictor backward at the sampled path.
            let metric_grad = self.predictor.gradient(&arch.encode());
            // LAT(α): the paper encodes α by its argmax (Eq. 4), so the
            // constraint residual is evaluated on the derived architecture,
            // not the noisy sample.
            let metric = self.predictor.predict(&self.params.strongest());
            // Guard: a NaN/∞ from the predictor or oracle would corrupt α
            // and λ in one step; skip (or abort) before applying anything.
            let inputs_finite = metric.is_finite()
                && metric_grad.iter().all(|v| v.is_finite())
                && acc_marginals.iter().flatten().all(|v| v.is_finite());
            if !inputs_finite {
                self.diverged(SearchError::NonFiniteLoss {
                    epoch,
                    value: metric,
                })?;
                continue;
            }
            // Combine per Eq. 12: g = ∂L_valid/∂P̄ + (λ/T)·∂LAT/∂P̄.
            let mut g = [[0.0f64; NUM_OPS]; SEARCHABLE_LAYERS];
            for l in 0..SEARCHABLE_LAYERS {
                for k in 0..NUM_OPS {
                    // Row l+1 of the encoding: row 0 is the fixed block.
                    let lat_g = metric_grad[(l + 1) * NUM_OPS + k] as f64;
                    g[l][k] = acc_marginals[l][k] + self.lambda / t * lat_g;
                }
            }
            let grad_alpha = self.params.backward(&g, &relaxed, &probs, tau);
            self.adam.step(self.params.alpha_mut(), &grad_alpha);
            // λ ascends the constraint residual (Eq. 11). It may go
            // negative: when LAT < T the penalty becomes a reward for
            // latency, pushing the architecture up towards T.
            self.lambda += c.lambda_lr * (metric / t - 1.0);
            let sampled = self.predictor.predict(&arch);
            let loss = self.oracle.valid_loss(&arch, progress);
            if sampled.is_finite() && loss.is_finite() {
                sampled_sum += sampled;
                loss_sum += loss;
                count += 1.0;
            } else {
                // A poisoned measurement must not reach the epoch means.
                self.diverged(SearchError::NonFiniteLoss {
                    epoch,
                    value: if sampled.is_finite() { loss } else { sampled },
                })?;
            }
        }
        // Guard: α corruption is fatal under every policy — once the
        // parameters themselves are non-finite there is no sound direction
        // to continue in.
        for (layer, row) in self.params.alpha().iter().enumerate() {
            for (op, v) in row.iter().enumerate() {
                if !v.is_finite() {
                    return Err(SearchError::NonFiniteAlpha { epoch, layer, op });
                }
            }
        }
        // Guard: λ again, so a divergence in the epoch's *last* step is
        // caught here rather than one epoch late.
        if !self.lambda.is_finite() {
            let value = self.lambda;
            self.diverged(SearchError::NonFiniteLambda { epoch, value })?;
        }
        let argmax_metric = self.predictor.predict(&self.params.strongest());
        let record = EpochRecord {
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
                self.oracle.valid_loss(&self.params.strongest(), 0.0)
            },
        };
        // A non-finite record would poison the trace (and the checkpoint
        // it is serialized into); persistent predictor failure cannot be
        // repaired by resetting λ, so this is fatal under every policy.
        if !(record.sampled_metric.is_finite()
            && record.argmax_metric.is_finite()
            && record.valid_loss.is_finite())
        {
            return Err(SearchError::NonFiniteLoss {
                epoch,
                value: record.argmax_metric,
            });
        }
        self.trace.push(record);
        self.epoch += 1;
        Ok(Some(record))
    }

    /// [`try_step_epoch`](Self::try_step_epoch) for infallible call sites.
    ///
    /// # Panics
    ///
    /// Panics if the search diverges (see [`SearchError`]); callers that
    /// want to recover should use [`try_step_epoch`](Self::try_step_epoch).
    pub fn step_epoch(&mut self) -> Option<EpochRecord> {
        self.try_step_epoch()
            .unwrap_or_else(|e| panic!("search diverged: {e}"))
    }

    /// Runs every remaining epoch.
    pub fn run(&mut self) {
        while self.step_epoch().is_some() {}
    }

    /// The search result so far: derived architecture, trace, λ. Meaningful
    /// once [`is_complete`](Self::is_complete); callable any time (the
    /// derived architecture is simply the current `argmax α`).
    pub fn outcome(&self) -> SearchOutcome {
        SearchOutcome {
            architecture: self.params.strongest(),
            trace: self.trace.clone(),
            lambda: self.lambda,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::fixture;
    use crate::LightNas;

    #[test]
    fn stepper_matches_the_one_shot_search() {
        let f = fixture();
        let config = SearchConfig::fast();
        let engine = LightNas::new(&f.space, &f.oracle, &f.predictor, config);
        let one_shot = engine.search(22.0, 3);
        let mut stepper = SearchStepper::new(&f.oracle, &f.predictor, config, 22.0, 3);
        stepper.run();
        assert_eq!(stepper.outcome(), one_shot);
    }

    #[test]
    fn snapshot_resume_is_bit_identical() {
        let f = fixture();
        let config = SearchConfig::fast();
        // Uninterrupted reference run.
        let mut reference = SearchStepper::new(&f.oracle, &f.predictor, config, 20.0, 5);
        reference.run();
        // Interrupted run: snapshot at an arbitrary epoch, drop the stepper,
        // rebuild from the snapshot, finish.
        let mut first = SearchStepper::new(&f.oracle, &f.predictor, config, 20.0, 5);
        for _ in 0..7 {
            first.step_epoch();
        }
        let snapshot = first.state();
        drop(first);
        let mut resumed =
            SearchStepper::from_state(&f.oracle, &f.predictor, config, 20.0, snapshot);
        resumed.run();
        let a = reference.outcome();
        let b = resumed.outcome();
        assert_eq!(a.architecture, b.architecture);
        assert_eq!(
            a.lambda.to_bits(),
            b.lambda.to_bits(),
            "λ must match bit-for-bit"
        );
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn state_counts_epochs_and_steps() {
        let f = fixture();
        let config = SearchConfig::fast();
        let mut s = SearchStepper::new(&f.oracle, &f.predictor, config, 24.0, 0);
        assert_eq!(s.state().epoch, 0);
        s.step_epoch();
        let st = s.state();
        assert_eq!(st.epoch, 1);
        assert_eq!(st.global_step, config.steps_per_epoch);
        assert_eq!(st.trace.records().len(), 1);
        s.run();
        assert!(s.is_complete());
        assert_eq!(s.state().epoch, config.epochs);
        assert!(s.step_epoch().is_none(), "stepping past the end is a no-op");
    }

    #[test]
    #[should_panic(expected = "invalid search config")]
    fn invalid_config_rejected() {
        let f = fixture();
        let config = SearchConfig {
            warmup_epochs: 99,
            ..SearchConfig::fast()
        };
        let _ = SearchStepper::new(&f.oracle, &f.predictor, config, 24.0, 0);
    }

    /// A predictor whose every answer is NaN — the degenerate failure the
    /// divergence guards exist for.
    struct NanPredictor;
    impl lightnas_predictor::Predictor for NanPredictor {
        fn predict_encoding(&self, _encoding: &[f32]) -> f64 {
            f64::NAN
        }
        fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
            vec![f32::NAN; encoding.len()]
        }
    }

    #[test]
    fn nan_predictor_aborts_with_typed_error() {
        let f = fixture();
        let mut s = SearchStepper::new(&f.oracle, &NanPredictor, SearchConfig::fast(), 24.0, 0);
        let err = loop {
            match s.try_step_epoch() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("a NaN predictor must not complete"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, SearchError::NonFiniteLoss { .. }), "{err}");
    }

    #[test]
    fn nan_predictor_is_fatal_even_under_reset_lambda() {
        // Persistent predictor failure poisons the epoch record itself;
        // resetting λ cannot repair that, so the guard must still error.
        let f = fixture();
        let mut s = SearchStepper::new(&f.oracle, &NanPredictor, SearchConfig::fast(), 24.0, 0)
            .with_divergence_policy(DivergencePolicy::ResetLambda);
        let err = loop {
            match s.try_step_epoch() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("a NaN predictor must not complete"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, SearchError::NonFiniteLoss { .. }), "{err}");
    }

    #[test]
    fn non_finite_lambda_aborts_by_default() {
        let f = fixture();
        let mut state = SearchState::fresh(3);
        state.lambda = f64::NAN;
        let mut s =
            SearchStepper::from_state(&f.oracle, &f.predictor, SearchConfig::fast(), 22.0, state);
        let err = s.try_step_epoch().unwrap_err();
        assert!(matches!(err, SearchError::NonFiniteLambda { .. }), "{err}");
    }

    #[test]
    fn reset_lambda_policy_recovers_a_diverged_multiplier() {
        let f = fixture();
        let config = SearchConfig::fast();
        // Take a healthy run past warmup, then poison λ — the recovery
        // policy must absorb it and finish the schedule with finite state.
        let mut healthy = SearchStepper::new(&f.oracle, &f.predictor, config, 22.0, 9);
        for _ in 0..config.warmup_epochs + 2 {
            healthy.step_epoch();
        }
        let mut poisoned = healthy.state();
        poisoned.lambda = f64::INFINITY;
        let mut s = SearchStepper::from_state(&f.oracle, &f.predictor, config, 22.0, poisoned)
            .with_divergence_policy(DivergencePolicy::ResetLambda);
        while let Ok(Some(_)) = s.try_step_epoch() {}
        assert!(s.is_complete(), "recovery policy must finish the schedule");
        assert!(s.recoveries() > 0, "the guard must have fired");
        let outcome = s.outcome();
        assert!(outcome.lambda.is_finite());
        assert!(outcome.trace.records().iter().all(|r| r.lambda.is_finite()));
    }

    #[test]
    fn non_finite_alpha_is_fatal_under_every_policy() {
        let f = fixture();
        for policy in [DivergencePolicy::Abort, DivergencePolicy::ResetLambda] {
            let mut state = SearchState::fresh(0);
            state.alpha[0][0] = f64::NAN;
            let mut s = SearchStepper::from_state(
                &f.oracle,
                &f.predictor,
                SearchConfig::fast(),
                24.0,
                state,
            )
            .with_divergence_policy(policy);
            let err = s.try_step_epoch().unwrap_err();
            assert_eq!(
                err,
                SearchError::NonFiniteAlpha {
                    epoch: 0,
                    layer: 0,
                    op: 0
                },
                "{policy:?}"
            );
        }
    }

    #[test]
    fn guards_do_not_perturb_a_healthy_trajectory() {
        let f = fixture();
        let config = SearchConfig::fast();
        let mut plain = SearchStepper::new(&f.oracle, &f.predictor, config, 20.0, 5);
        plain.run();
        let mut guarded = SearchStepper::new(&f.oracle, &f.predictor, config, 20.0, 5)
            .with_divergence_policy(DivergencePolicy::ResetLambda);
        while let Ok(Some(_)) = guarded.try_step_epoch() {}
        assert_eq!(guarded.recoveries(), 0);
        let a = plain.outcome();
        let b = guarded.outcome();
        assert_eq!(a.architecture, b.architecture);
        assert_eq!(a.lambda.to_bits(), b.lambda.to_bits());
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    #[should_panic(expected = "trace must hold one record per completed epoch")]
    fn inconsistent_state_rejected() {
        let f = fixture();
        let mut state = SearchState::fresh(0);
        state.epoch = 3; // claims three epochs ran, but the trace is empty
        let _ =
            SearchStepper::from_state(&f.oracle, &f.predictor, SearchConfig::fast(), 24.0, state);
    }
}
