//! Online adaptation: keep the serving model honest while the device drifts.
//!
//! A latency predictor is trained once against a device model that then
//! keeps aging — thermals, DVFS policy changes, driver updates. This module
//! closes the loop at serving time:
//!
//! 1. **Observe.** Every live (architecture → observed latency) sample is
//!    paired with the deployed model's own prediction and pushed into a
//!    [`DriftMonitor`] — a bounded window of residuals.
//! 2. **Detect.** The monitor flags *staleness* when the windowed RMSE
//!    breaches a calibrated multiple of the baseline RMSE, or when the
//!    Spearman rank correlation between predictions and observations
//!    collapses ([`AdaptConfig::rmse_ratio_bar`] /
//!    [`AdaptConfig::spearman_bar`]).
//! 3. **Retrain.** On a flag, the [`AdaptationController`] parks in
//!    `awaiting_retrain`. The caller fits a *shadow* candidate on the
//!    recent sample window
//!    ([`retrain_window`](AdaptationController::retrain_window),
//!    canonically through `MlpPredictor::fine_tune_incremental`) and
//!    hands it back through
//!    [`install_shadow`](AdaptationController::install_shadow).
//!    A single device installs straight after the `ingest` that parked; a
//!    fleet queues it behind a shared retrain pool. Either way the control
//!    loop stays a pure function of the sample sequence.
//! 4. **Validate.** The shadow rides along for
//!    [`AdaptConfig::validation_pairs`] live samples, predicting in
//!    parallel but **never serving**; it is promoted only if its paired
//!    RMSE beats the incumbent's by [`AdaptConfig::promote_margin`].
//! 5. **Promote / roll back.** Promotion swaps the [`ModelSlot`] the
//!    service reads through and starts a probation window; a probation
//!    regression restores the previous generation and trips the
//!    [`CircuitBreaker`] (`"rolled_back"`), so traffic rides the LUT
//!    fallback for one cool-down while the restored model warms back up.
//!
//! The baseline RMSE has a deliberate lifecycle. It self-calibrates from
//! the first full live window (or [`AdaptationController::with_baseline_rmse`])
//! and then *carries across promotions and rollbacks* — it is the healthy
//! residual floor, not a per-generation quantity — so a shadow that only
//! partially corrects a drift re-flags and adaptation iterates toward the
//! floor. The brake is the validation margin: when a retrain attempt
//! *fails* validation in a stable regime (the incumbent's freshly measured
//! live RMSE is commensurate with the flag-time window), improvement is
//! exhausted and the baseline re-anchors to that measured residual — the
//! system quiesces at the best reachable model instead of flagging forever.
//!
//! Every step appends a typed [`AdaptEvent`] to an in-order audit trail
//! (pinned by [`audit_is_well_formed`]: a generation can only start serving
//! after a *passing* validation verdict) and emits an `adapt_*` telemetry
//! line from the shared catalogue, so same-seed chaos soaks byte-compare.
//!
//! Chaos hooks: [`ModelSlot::inject_bias`] ages the deployed model in place
//! (the `StalePredictor` fault), and
//! [`AdaptationController::arm_bad_deploy`] corrupts the *next* promotion
//! after validation passes (the `BadDeploy` fault) — the failure mode where
//! a good candidate is mangled on the way into production, which is exactly
//! what probation + rollback exist to catch.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};
use std::time::Duration;

use lightnas_predictor::{BatchPredictor, Predictor};
use lightnas_runtime::{events, Field, Telemetry};

use crate::breaker::CircuitBreaker;
use crate::clock::Clock;

fn us(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// A failed validation re-anchors the baseline only when the incumbent's
/// fresh live RMSE is within this factor of the flag-time windowed RMSE —
/// i.e. the regime held still through the attempt. A larger measured
/// residual means the surface moved mid-validation, and the old baseline
/// must survive so the next flag still fires.
const REANCHOR_SLACK: f64 = 1.25;

/// Default retention cap on the in-memory audit trail. Generous for any
/// bounded soak, small enough that a week-long deployment flagging every
/// cool-down cannot grow memory without bound; see
/// [`AdaptationController::with_audit_cap`].
pub const DEFAULT_AUDIT_CAP: usize = 4096;

/// Spearman rank correlation between two equal-length samples, with
/// average ranks for ties (Pearson correlation of the rank vectors).
///
/// Returns `NaN` when either side has zero rank variance (fewer than two
/// distinct values) — callers must treat a non-finite coefficient as "no
/// evidence", not as a collapse. Values are ranked in [`f64::total_cmp`]
/// order, so no input panics it; a `NaN` ties with nothing.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "spearman over mismatched samples");
    let n = xs.len();
    if n < 2 {
        return f64::NAN;
    }
    let ranks = |vs: &[f64]| -> Vec<f64> {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| vs[a].total_cmp(&vs[b]));
        let mut ranks = vec![0.0f64; n];
        let mut i = 0;
        while i < n {
            let mut j = i;
            while j + 1 < n && vs[order[j + 1]] == vs[order[i]] {
                j += 1;
            }
            // Tied run [i, j] shares the average rank (1-based).
            let avg = (i + j) as f64 / 2.0 + 1.0;
            for &k in &order[i..=j] {
                ranks[k] = avg;
            }
            i = j + 1;
        }
        ranks
    };
    let (rx, ry) = (ranks(xs), ranks(ys));
    let mean = (n as f64 + 1.0) / 2.0;
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for k in 0..n {
        let (dx, dy) = (rx[k] - mean, ry[k] - mean);
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return f64::NAN;
    }
    sxy / (sxx * syy).sqrt()
}

/// Staleness-detection and promote/rollback thresholds.
#[derive(Debug, Clone)]
pub struct AdaptConfig {
    /// Residual window size (also the retraining window). Default: 64.
    pub window: usize,
    /// Samples required in the window before staleness checks run (the
    /// first eligible check self-calibrates the baseline instead of
    /// flagging). Default: 32.
    pub min_samples: usize,
    /// Stale when windowed RMSE exceeds this multiple of the calibrated
    /// baseline RMSE. Default: 1.5.
    pub rmse_ratio_bar: f64,
    /// Stale when the windowed Spearman rank correlation (prediction vs
    /// observation) drops below this, provided it is finite. Default: 0.5.
    pub spearman_bar: f64,
    /// A shadow is promoted only if its paired-validation RMSE is at most
    /// this fraction of the incumbent's. Default: 0.95.
    pub promote_margin: f64,
    /// Live samples a shadow must ride along (predicting, never serving)
    /// before the promotion verdict. Default: 32.
    pub validation_pairs: usize,
    /// Samples a freshly promoted generation is watched after promotion.
    /// Default: 48.
    pub probation: usize,
    /// Roll back when probation RMSE exceeds this multiple of the RMSE the
    /// shadow validated at. Default: 1.4.
    pub rollback_ratio: f64,
    /// Samples to sit out after a verdict (promotion, rejection, or
    /// rollback) before the next staleness flag. Default: 32.
    pub cooldown: usize,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        Self {
            window: 64,
            min_samples: 32,
            rmse_ratio_bar: 1.5,
            spearman_bar: 0.5,
            promote_margin: 0.95,
            validation_pairs: 32,
            probation: 48,
            rollback_ratio: 1.4,
            cooldown: 32,
        }
    }
}

/// Why the monitor flagged the model as stale.
#[derive(Debug, Clone, PartialEq)]
pub struct StalenessReport {
    /// Pairs in the window at flag time.
    pub samples: usize,
    /// Windowed residual RMSE (ms).
    pub windowed_rmse: f64,
    /// The calibrated baseline RMSE (ms).
    pub baseline_rmse: f64,
    /// `windowed_rmse / baseline_rmse`.
    pub rmse_ratio: f64,
    /// Windowed Spearman rank correlation (may be `NaN` — degenerate).
    pub spearman: f64,
}

/// A bounded window of (predicted, observed) pairs with windowed residual
/// statistics — the staleness detector.
#[derive(Debug)]
pub struct DriftMonitor {
    pairs: VecDeque<(f64, f64)>,
    capacity: usize,
    baseline_rmse: Option<f64>,
}

impl DriftMonitor {
    /// An empty, uncalibrated monitor holding at most `capacity` pairs.
    /// The first check with enough samples calibrates the baseline from
    /// the window itself.
    pub fn new(capacity: usize) -> Self {
        Self {
            pairs: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            baseline_rmse: None,
        }
    }

    /// Pre-calibrates the baseline (e.g. from the incumbent's validation
    /// RMSE at deploy time) instead of self-calibrating.
    pub fn with_baseline(mut self, rmse: f64) -> Self {
        self.baseline_rmse = Some(rmse);
        self
    }

    /// The calibrated baseline RMSE, if any.
    pub fn baseline(&self) -> Option<f64> {
        self.baseline_rmse
    }

    /// Pairs currently in the window.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when the window is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Records one live pair, evicting the oldest past capacity.
    pub fn push(&mut self, predicted: f64, observed: f64) {
        if self.pairs.len() == self.capacity {
            self.pairs.pop_front();
        }
        self.pairs.push_back((predicted, observed));
    }

    /// Drops the window and re-anchors the baseline — called on every model
    /// swap, because the old pairs describe the old generation.
    pub fn reset(&mut self, baseline_rmse: Option<f64>) {
        self.pairs.clear();
        self.baseline_rmse = baseline_rmse;
    }

    /// RMSE of the windowed residuals (`NaN` on an empty window).
    pub fn windowed_rmse(&self) -> f64 {
        if self.pairs.is_empty() {
            return f64::NAN;
        }
        let se: f64 = self.pairs.iter().map(|(p, o)| (p - o) * (p - o)).sum();
        (se / self.pairs.len() as f64).sqrt()
    }

    /// Spearman rank correlation of the windowed pairs.
    pub fn spearman(&self) -> f64 {
        let (xs, ys): (Vec<f64>, Vec<f64>) = self.pairs.iter().copied().unzip();
        spearman(&xs, &ys)
    }

    /// Runs the staleness check: `Some(report)` when the model looks stale.
    ///
    /// Needs at least `min_samples` pairs; the first eligible check with no
    /// baseline calibrates it from the current window and reports healthy
    /// (deterministic self-calibration — no separate warm-up API).
    pub fn check(&mut self, config: &AdaptConfig) -> Option<StalenessReport> {
        if self.pairs.len() < config.min_samples.max(2) {
            return None;
        }
        let windowed = self.windowed_rmse();
        let baseline = match self.baseline_rmse {
            Some(b) => b,
            None => {
                self.baseline_rmse = Some(windowed);
                return None;
            }
        };
        // A zero baseline (perfect residuals at calibration time) only
        // signals drift once actual error appears.
        let ratio = if baseline > 0.0 {
            windowed / baseline
        } else if windowed == 0.0 {
            1.0
        } else {
            f64::INFINITY
        };
        let rho = self.spearman();
        let stale = ratio > config.rmse_ratio_bar || (rho.is_finite() && rho < config.spearman_bar);
        stale.then_some(StalenessReport {
            samples: self.pairs.len(),
            windowed_rmse: windowed,
            baseline_rmse: baseline,
            rmse_ratio: ratio,
            spearman: rho,
        })
    }
}

#[derive(Debug)]
struct Slotted<P> {
    current: P,
    previous: Option<P>,
}

/// The swappable model the service actually reads through: a
/// [`BatchPredictor`] whose current generation can be atomically promoted
/// or rolled back while requests are in flight.
///
/// Generations count *deployments*: the initial model is generation 0 and
/// every swap — promotion or rollback — bumps the counter, so telemetry can
/// attribute each prediction to exactly one deployment event.
///
/// The bias hooks model an aging or mangled deployment for chaos testing:
/// [`inject_bias`](Self::inject_bias) adds a fixed offset to the next `n`
/// predictions (or all of them, until cleared), through both the scalar and
/// the batched path.
#[derive(Debug)]
pub struct ModelSlot<P> {
    inner: RwLock<Slotted<P>>,
    generation: AtomicU64,
    bias_bits: AtomicU64,
    /// Remaining biased predictions; `u64::MAX` means "until cleared".
    bias_left: AtomicU64,
}

impl<P> ModelSlot<P> {
    /// A slot serving `initial` as generation 0.
    pub fn new(initial: P) -> Self {
        Self {
            inner: RwLock::new(Slotted {
                current: initial,
                previous: None,
            }),
            generation: AtomicU64::new(0),
            bias_bits: AtomicU64::new(0.0f64.to_bits()),
            bias_left: AtomicU64::new(0),
        }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Slotted<P>> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Slotted<P>> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The deployment generation currently serving.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Runs `f` against the current generation (e.g. to fine-tune from it).
    pub fn with_current<R>(&self, f: impl FnOnce(&P) -> R) -> R {
        f(&self.read().current)
    }

    /// Deploys `candidate` as the new current generation, retaining the old
    /// one for [`rollback`](Self::rollback). Returns the new generation.
    ///
    /// `sabotage_bias_ms` is the chaos `BadDeploy` hook: the validated
    /// candidate itself is untouched, but every prediction *served* by the
    /// new deployment carries the bias until the slot is rolled back.
    pub fn promote(&self, candidate: P, sabotage_bias_ms: Option<f64>) -> u64 {
        let mut inner = self.write();
        inner.previous = Some(std::mem::replace(&mut inner.current, candidate));
        match sabotage_bias_ms {
            Some(bias) => {
                self.bias_bits.store(bias.to_bits(), Ordering::Release);
                self.bias_left.store(u64::MAX, Ordering::Release);
            }
            None => self.clear_bias(),
        }
        self.generation.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Restores the previous generation (clearing any deployment bias) and
    /// returns the new generation number, or `None` when there is nothing
    /// to roll back to.
    pub fn rollback(&self) -> Option<u64> {
        let mut inner = self.write();
        let previous = inner.previous.take()?;
        inner.current = previous;
        self.clear_bias();
        Some(self.generation.fetch_add(1, Ordering::AcqRel) + 1)
    }

    /// Adds `bias_ms` to the next `samples` predictions (`u64::MAX` =
    /// until [`clear_bias`](Self::clear_bias)). The chaos `StalePredictor`
    /// fault: the deployed model ages in place without its weights changing.
    pub fn inject_bias(&self, bias_ms: f64, samples: u64) {
        self.bias_bits.store(bias_ms.to_bits(), Ordering::Release);
        self.bias_left.store(samples, Ordering::Release);
    }

    /// Removes any injected or sabotage bias.
    pub fn clear_bias(&self) {
        self.bias_left.store(0, Ordering::Release);
        self.bias_bits.store(0.0f64.to_bits(), Ordering::Release);
    }

    /// Consumes one biased prediction from the budget, returning the bias
    /// to apply (0.0 when the budget is spent).
    fn consume_bias(&self) -> f64 {
        let mut left = self.bias_left.load(Ordering::Acquire);
        loop {
            if left == 0 {
                return 0.0;
            }
            if left == u64::MAX {
                break; // sticky until cleared
            }
            match self.bias_left.compare_exchange_weak(
                left,
                left - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(current) => left = current,
            }
        }
        f64::from_bits(self.bias_bits.load(Ordering::Acquire))
    }
}

impl<P: Predictor> Predictor for ModelSlot<P> {
    fn predict_encoding(&self, encoding: &[f32]) -> f64 {
        self.read().current.predict_encoding(encoding) + self.consume_bias()
    }

    fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
        self.read().current.gradient(encoding)
    }
}

impl<P: BatchPredictor> BatchPredictor for ModelSlot<P> {
    fn predict_encodings(&self, encodings: &[Vec<f32>]) -> Vec<f64> {
        let rows = self.read().current.predict_encodings(encodings);
        // Bias is consumed per row, exactly as the scalar path would.
        rows.into_iter().map(|v| v + self.consume_bias()).collect()
    }
}

/// Lock-free adaptation counters the service reads for health: wire the
/// same instance into both the [`AdaptationController`] and
/// [`PredictorService::with_adapt_status`](crate::PredictorService::with_adapt_status).
#[derive(Debug, Default)]
pub struct AdaptStatus {
    generation: AtomicU64,
    samples_since_promotion: AtomicU64,
    promoted_at_us: AtomicU64,
}

impl AdaptStatus {
    /// Fresh counters: generation 0, promoted at the epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The deployment generation currently serving.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Live samples ingested since the last model swap.
    pub fn samples_since_promotion(&self) -> u64 {
        self.samples_since_promotion.load(Ordering::Acquire)
    }

    /// Service-clock time of the last model swap.
    pub fn promoted_at(&self) -> Duration {
        Duration::from_micros(self.promoted_at_us.load(Ordering::Acquire))
    }

    fn note_sample(&self) {
        self.samples_since_promotion.fetch_add(1, Ordering::AcqRel);
    }

    fn note_swap(&self, generation: u64, now: Duration) {
        self.generation.store(generation, Ordering::Release);
        self.samples_since_promotion.store(0, Ordering::Release);
        self.promoted_at_us.store(us(now), Ordering::Release);
    }
}

/// One entry of the typed promote/rollback audit trail, in event order.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptEvent {
    /// The monitor flagged the serving model (see [`StalenessReport`]).
    StalenessDetected {
        /// Ingested-sample index at flag time.
        at_sample: u64,
        /// Windowed-RMSE / baseline-RMSE ratio.
        rmse_ratio: f64,
        /// Windowed Spearman rank correlation (`NaN` = degenerate).
        spearman: f64,
    },
    /// A shadow fine-tuned on the recent window was installed and started
    /// validation.
    RetrainStarted {
        /// Ingested-sample index.
        at_sample: u64,
        /// Rows in the retraining window.
        window: usize,
    },
    /// The shadow's paired live-traffic verdict.
    ShadowValidated {
        /// Ingested-sample index of the verdict.
        at_sample: u64,
        /// Shadow RMSE over the paired window.
        shadow_rmse: f64,
        /// Incumbent RMSE over the same pairs.
        incumbent_rmse: f64,
        /// Whether the shadow beat the incumbent by the margin.
        passed: bool,
    },
    /// A validated shadow started serving.
    Promoted {
        /// Ingested-sample index.
        at_sample: u64,
        /// The new deployment generation.
        generation: u64,
    },
    /// A promoted generation regressed on probation and was rolled back.
    RolledBack {
        /// Ingested-sample index.
        at_sample: u64,
        /// The generation taken out of service.
        demoted: u64,
        /// The generation now serving (the restored model's new
        /// deployment number).
        generation: u64,
        /// Probation RMSE that triggered the rollback.
        probation_rmse: f64,
        /// The RMSE the shadow validated at.
        validated_rmse: f64,
    },
}

/// The state-machine summary of audit events dropped at the retention cap —
/// the drop-accounting side of the bounded audit trail, in the same spirit
/// as the telemetry layer's dropped-events counter.
///
/// Truncating an audit trail can orphan the retained suffix: a `Promoted`
/// whose passing `ShadowValidated` fell off the front looks unvalidated, a
/// `RolledBack` whose `Promoted` was dropped looks spurious. The carry holds
/// exactly the checker state at the cut, so
/// [`audit_is_well_formed_with`] can verify the suffix as if the prefix were
/// still there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditCarry {
    /// Events dropped at the cap so far.
    pub dropped: u64,
    /// Promotions among the dropped events.
    pub promotions: u64,
    /// Rollbacks among the dropped events.
    pub rollbacks: u64,
    /// Whether the last dropped verdict passed with no promotion yet — the
    /// checker state a retained `Promoted` at the cut boundary leans on.
    pub passed_verdict_pending: bool,
}

impl AuditCarry {
    /// Advances the checker state by one event and reports whether the
    /// event was allowed there: a promotion needs a pending passing
    /// verdict, a rollback an earlier promotion not yet rolled back. The
    /// state advances either way. [`audit_is_well_formed_with`] is this
    /// step folded over a trail; `dropped` is left to the caller.
    pub fn step(&mut self, event: &AdaptEvent) -> bool {
        match event {
            AdaptEvent::StalenessDetected { .. } | AdaptEvent::RetrainStarted { .. } => true,
            AdaptEvent::ShadowValidated { passed, .. } => {
                self.passed_verdict_pending = *passed;
                true
            }
            AdaptEvent::Promoted { .. } => {
                let allowed = self.passed_verdict_pending;
                self.passed_verdict_pending = false;
                self.promotions += 1;
                allowed
            }
            AdaptEvent::RolledBack { .. } => {
                let allowed = self.rollbacks < self.promotions;
                self.rollbacks += 1;
                allowed
            }
        }
    }
}

/// Checks the audit-trail safety invariant: a promotion may only follow a
/// *passing* validation verdict (with no other verdict in between), and a
/// rollback may only follow a promotion that has not already been rolled
/// back. This is the machine-checkable form of "an unvalidated shadow is
/// never served".
pub fn audit_is_well_formed(audit: &[AdaptEvent]) -> bool {
    audit_is_well_formed_with(&AuditCarry::default(), audit)
}

/// [`audit_is_well_formed`] for a capped trail: `carry` seeds the checker
/// with the state of the events dropped at the retention cap
/// ([`AdaptationController::audit_carry`]), so well-formedness keeps holding
/// across the cap boundary instead of failing on an orphaned suffix.
pub fn audit_is_well_formed_with(carry: &AuditCarry, audit: &[AdaptEvent]) -> bool {
    let mut state = *carry;
    audit.iter().all(|event| state.step(event))
}

#[derive(Debug)]
enum Phase<P> {
    Monitoring,
    /// A retrain was flagged (or requested); the shadow is trained
    /// *outside* the controller and handed back through
    /// [`AdaptationController::install_shadow`]. Pairs keep accumulating
    /// while the controller waits, so a queued retrain trains on a fresher
    /// window than the flag-time one.
    AwaitingRetrain {
        /// Windowed RMSE when the retrain was flagged/requested — the
        /// re-anchoring yardstick validation carries.
        flag_windowed: f64,
    },
    Validating {
        shadow: P,
        incumbent_sq: f64,
        shadow_sq: f64,
        pairs: usize,
        /// Windowed RMSE at flag time — the yardstick for deciding whether
        /// a failed validation happened in a stable regime (re-anchor the
        /// baseline) or mid-transition (keep it).
        flag_windowed: f64,
    },
    Probation {
        left: usize,
        sq: f64,
        n: usize,
        validated_rmse: f64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PhaseKind {
    Monitoring,
    AwaitingRetrain,
    Validating,
    Probation,
}

impl<P> Phase<P> {
    fn kind(&self) -> PhaseKind {
        match self {
            Phase::Monitoring => PhaseKind::Monitoring,
            Phase::AwaitingRetrain { .. } => PhaseKind::AwaitingRetrain,
            Phase::Validating { .. } => PhaseKind::Validating,
            Phase::Probation { .. } => PhaseKind::Probation,
        }
    }

    fn name(&self) -> &'static str {
        match self.kind() {
            PhaseKind::Monitoring => "monitoring",
            PhaseKind::AwaitingRetrain => "awaiting_retrain",
            PhaseKind::Validating => "validating",
            PhaseKind::Probation => "probation",
        }
    }
}

/// The detect → retrain → validate → promote/rollback state machine.
///
/// Feed it every live sample via [`ingest`](Self::ingest); it pairs each
/// with the deployed model's prediction (through the [`ModelSlot`], so
/// chaos bias is observed exactly as served traffic sees it), watches the
/// [`DriftMonitor`], and drives the slot. A staleness flag parks it until
/// the caller trains a shadow from [`retrain_window`](Self::retrain_window)
/// and hands it back through [`install_shadow`](Self::install_shadow). All
/// decisions are functions of the sample sequence and the injected clock —
/// no wall time, no threads — which is what lets the drift soak
/// byte-compare two same-seed runs.
pub struct AdaptationController<'a, P: BatchPredictor> {
    slot: &'a ModelSlot<P>,
    clock: &'a dyn Clock,
    config: AdaptConfig,
    breaker: Option<&'a CircuitBreaker>,
    status: Option<&'a AdaptStatus>,
    telemetry: Option<&'a Telemetry>,
    monitor: DriftMonitor,
    recent: VecDeque<(Vec<f32>, f64)>,
    phase: Phase<P>,
    audit: Vec<AdaptEvent>,
    audit_cap: usize,
    carry: AuditCarry,
    samples: u64,
    rejected: u64,
    cooldown_until: u64,
    pending_bad_deploy: Option<f64>,
}

impl<P: BatchPredictor> std::fmt::Debug for AdaptationController<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptationController")
            .field("phase", &self.phase.name())
            .field("samples", &self.samples)
            .field("rejected", &self.rejected)
            .field("generation", &self.slot.generation())
            .finish_non_exhaustive()
    }
}

impl<'a, P: BatchPredictor> AdaptationController<'a, P> {
    /// A controller over `slot`, telling time through `clock`.
    pub fn new(slot: &'a ModelSlot<P>, clock: &'a dyn Clock, config: AdaptConfig) -> Self {
        let monitor = DriftMonitor::new(config.window);
        Self {
            slot,
            clock,
            config,
            breaker: None,
            status: None,
            telemetry: None,
            monitor,
            recent: VecDeque::new(),
            phase: Phase::Monitoring,
            audit: Vec::new(),
            audit_cap: DEFAULT_AUDIT_CAP,
            carry: AuditCarry::default(),
            samples: 0,
            rejected: 0,
            cooldown_until: 0,
            pending_bad_deploy: None,
        }
    }

    /// Trips `breaker` (`"rolled_back"`) whenever a promotion is rolled
    /// back — wire the service's own breaker here so a rollback routes
    /// traffic to the LUT fallback for one cool-down.
    pub fn with_breaker(mut self, breaker: &'a CircuitBreaker) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Publishes generation/staleness counters for health (share the
    /// instance with
    /// [`PredictorService::with_adapt_status`](crate::PredictorService::with_adapt_status)).
    pub fn with_status(mut self, status: &'a AdaptStatus) -> Self {
        self.status = Some(status);
        self
    }

    /// Narrates every staleness flag, retrain, verdict, promotion, and
    /// rollback as `adapt_*` telemetry events.
    pub fn with_telemetry(mut self, telemetry: &'a Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Pre-calibrates the drift monitor's baseline RMSE. The baseline must
    /// be the *live* healthy residual — model error plus the stream's own
    /// measurement noise — which generally sits above the incumbent's
    /// offline validation RMSE. When in doubt, omit this and let the first
    /// full window of live traffic self-calibrate.
    pub fn with_baseline_rmse(mut self, rmse: f64) -> Self {
        self.monitor.reset(Some(rmse));
        self
    }

    /// Caps the in-memory audit trail at `cap` events (default
    /// [`DEFAULT_AUDIT_CAP`], clamped to at least 4). When the cap is hit,
    /// the oldest half is dropped in one amortized chunk and folded into
    /// the [`AuditCarry`], so [`audit_is_well_formed_with`] keeps holding
    /// on the retained suffix.
    pub fn with_audit_cap(mut self, cap: usize) -> Self {
        self.audit_cap = cap.max(4);
        self
    }

    /// The chaos `BadDeploy` hook: the *next* promotion deploys with
    /// `bias_ms` added to every served prediction (the validated candidate
    /// itself is untouched). Probation is expected to catch it.
    pub fn arm_bad_deploy(&mut self, bias_ms: f64) {
        self.pending_bad_deploy = Some(bias_ms);
    }

    /// The retained audit trail, in event order. Under the retention cap
    /// this is a *suffix* of the full history; pair it with
    /// [`audit_carry`](Self::audit_carry) and [`audit_is_well_formed_with`]
    /// once events have been dropped.
    pub fn audit(&self) -> &[AdaptEvent] {
        &self.audit
    }

    /// The drop-accounting summary of audit events evicted at the cap.
    pub fn audit_carry(&self) -> AuditCarry {
        self.carry
    }

    /// Audit events dropped at the retention cap so far.
    pub fn audit_dropped(&self) -> u64 {
        self.carry.dropped
    }

    fn push_audit(&mut self, event: AdaptEvent) {
        if self.audit.len() >= self.audit_cap {
            // Drop the oldest half in one chunk (amortized O(1) per push),
            // folding each evicted event into the carry so the retained
            // suffix still checks out against the full-history invariant.
            for dropped in self.audit.drain(..self.audit_cap / 2) {
                self.carry.step(&dropped);
                self.carry.dropped += 1;
            }
        }
        self.audit.push(event);
    }

    /// Total samples ingested.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Samples [`ingest`](Self::ingest) rejected for a non-finite latency.
    pub fn rejected_samples(&self) -> u64 {
        self.rejected
    }

    /// The drift monitor (for inspection).
    pub fn monitor(&self) -> &DriftMonitor {
        &self.monitor
    }

    /// Current phase as a stable lowercase tag
    /// (`monitoring`/`awaiting_retrain`/`validating`/`probation`).
    pub fn phase(&self) -> &'static str {
        self.phase.name()
    }

    fn emit(&self, event: &str, fields: &[(&str, Field)]) {
        if let Some(t) = self.telemetry {
            let mut all = vec![("t_us", Field::U(us(self.clock.now())))];
            all.extend_from_slice(fields);
            t.emit(event, &all);
        }
    }

    /// Ingests one live sample: the architecture encoding that was served
    /// and the latency the device actually exhibited for it. Returns the
    /// deployed model's paired prediction (what the monitor recorded).
    ///
    /// A non-finite `observed_ms` is no latency: the sample is rejected
    /// before it touches the controller's state (no sample count, no drift
    /// or retrain window entry, no phase step) and counted in
    /// [`rejected_samples`](Self::rejected_samples). The served prediction
    /// is still returned.
    pub fn ingest(&mut self, encoding: &[f32], observed_ms: f64) -> f64 {
        let predicted = self.slot.predict_encoding(encoding);
        if !observed_ms.is_finite() {
            self.rejected += 1;
            return predicted;
        }
        self.samples += 1;
        if let Some(s) = self.status {
            s.note_sample();
        }
        self.monitor.push(predicted, observed_ms);
        self.recent.push_back((encoding.to_vec(), observed_ms));
        if self.recent.len() > self.config.window {
            self.recent.pop_front();
        }
        match self.phase.kind() {
            PhaseKind::Monitoring => self.step_monitoring(),
            // Parked for a retrain: the window keeps rolling (fresher data
            // at install time) but no phase transition happens until
            // install_shadow hands the trained candidate back.
            PhaseKind::AwaitingRetrain => {}
            PhaseKind::Validating => self.step_validating(encoding, predicted, observed_ms),
            PhaseKind::Probation => self.step_probation(predicted, observed_ms),
        }
        predicted
    }

    fn step_monitoring(&mut self) {
        if self.samples < self.cooldown_until {
            return;
        }
        let Some(report) = self.monitor.check(&self.config) else {
            return;
        };
        self.push_audit(AdaptEvent::StalenessDetected {
            at_sample: self.samples,
            rmse_ratio: report.rmse_ratio,
            spearman: report.spearman,
        });
        self.emit(
            events::ADAPT_STALENESS,
            &[
                ("sample", Field::U(self.samples)),
                ("generation", Field::U(self.slot.generation())),
                ("windowed_rmse", Field::F(report.windowed_rmse)),
                ("baseline_rmse", Field::F(report.baseline_rmse)),
                ("rmse_ratio", Field::F(report.rmse_ratio)),
                ("spearman", Field::F(report.spearman)),
            ],
        );
        // Park: no RetrainStarted yet — that is audited when the trained
        // shadow is installed.
        self.phase = Phase::AwaitingRetrain {
            flag_windowed: report.windowed_rmse,
        };
    }

    /// `true` when the controller has flagged (or was asked to retrain) and
    /// is parked waiting for a trained shadow via
    /// [`install_shadow`](Self::install_shadow).
    pub fn awaiting_retrain(&self) -> bool {
        matches!(self.phase, Phase::AwaitingRetrain { .. })
    }

    /// Current windowed-RMSE / baseline ratio, once the window holds
    /// `min_samples` pairs and a baseline has been calibrated. `None`
    /// before that — callers must treat absence as "no evidence".
    pub fn staleness_ratio(&self) -> Option<f64> {
        if self.monitor.len() < self.config.min_samples.max(2) {
            return None;
        }
        let baseline = self.monitor.baseline()?;
        let windowed = self.monitor.windowed_rmse();
        // Same zero-baseline semantics as the staleness check: perfect
        // residuals at calibration only signal drift once error appears.
        Some(if baseline > 0.0 {
            windowed / baseline
        } else if windowed == 0.0 {
            1.0
        } else {
            f64::INFINITY
        })
    }

    /// Warm-start early trigger: parks a monitoring controller in
    /// `AwaitingRetrain` without waiting for its own staleness flag, on
    /// external evidence (a correlated device flagged). Honors the
    /// cool-down and requires an armed window (`min_samples` pairs with a
    /// calibrated baseline) so the retrain has data to learn from. Returns
    /// `true` when the controller actually parked.
    ///
    /// No `StalenessDetected` event is audited — the device's own monitor
    /// never flagged; the fleet layer records the cross-device trigger in
    /// its own audit instead.
    pub fn request_retrain(&mut self) -> bool {
        if !matches!(self.phase, Phase::Monitoring)
            || self.samples < self.cooldown_until
            || self.staleness_ratio().is_none()
        {
            return false;
        }
        self.phase = Phase::AwaitingRetrain {
            flag_windowed: self.monitor.windowed_rmse(),
        };
        true
    }

    /// Snapshot of the rolling retrain window (encodings, observations),
    /// freshest data included — taken when the retrain actually starts,
    /// which for a fleet device queued behind the pool may be ticks after
    /// the flag.
    pub fn retrain_window(&self) -> (Vec<Vec<f32>>, Vec<f64>) {
        self.recent.iter().cloned().unzip()
    }

    /// Hands a trained shadow to a parked controller: audits
    /// `RetrainStarted` and enters validation. The shadow predicts in
    /// parallel from the next sample on and never serves before its
    /// verdict.
    ///
    /// # Panics
    ///
    /// Panics unless the controller is in `AwaitingRetrain` (i.e.
    /// [`awaiting_retrain`](Self::awaiting_retrain) is `true`).
    pub fn install_shadow(&mut self, shadow: P) {
        let Phase::AwaitingRetrain { flag_windowed } = &self.phase else {
            panic!("install_shadow on a controller that is not awaiting a retrain");
        };
        let flag_windowed = *flag_windowed;
        self.push_audit(AdaptEvent::RetrainStarted {
            at_sample: self.samples,
            window: self.recent.len(),
        });
        self.emit(
            events::ADAPT_RETRAIN,
            &[
                ("sample", Field::U(self.samples)),
                ("window", Field::U(self.recent.len() as u64)),
            ],
        );
        self.phase = Phase::Validating {
            shadow,
            incumbent_sq: 0.0,
            shadow_sq: 0.0,
            pairs: 0,
            flag_windowed,
        };
    }

    fn step_validating(&mut self, encoding: &[f32], incumbent_pred: f64, observed_ms: f64) {
        let Phase::Validating {
            shadow,
            incumbent_sq,
            shadow_sq,
            pairs,
            flag_windowed,
        } = &mut self.phase
        else {
            unreachable!("step_validating outside Validating");
        };
        let flag_windowed = *flag_windowed;
        // The shadow predicts in parallel but its answer goes nowhere near
        // the slot — it is never served before the verdict.
        let shadow_pred = shadow.predict_encoding(encoding);
        *incumbent_sq += (incumbent_pred - observed_ms) * (incumbent_pred - observed_ms);
        *shadow_sq += (shadow_pred - observed_ms) * (shadow_pred - observed_ms);
        *pairs += 1;
        if *pairs < self.config.validation_pairs {
            return;
        }
        let n = *pairs as f64;
        let incumbent_rmse = (*incumbent_sq / n).sqrt();
        let shadow_rmse = (*shadow_sq / n).sqrt();
        let passed = shadow_rmse <= self.config.promote_margin * incumbent_rmse;
        self.push_audit(AdaptEvent::ShadowValidated {
            at_sample: self.samples,
            shadow_rmse,
            incumbent_rmse,
            passed,
        });
        self.emit(
            events::ADAPT_VALIDATED,
            &[
                ("sample", Field::U(self.samples)),
                ("shadow_rmse", Field::F(shadow_rmse)),
                ("incumbent_rmse", Field::F(incumbent_rmse)),
                ("passed", Field::B(passed)),
            ],
        );
        if !passed {
            // Improvement is exhausted: retraining could not beat the
            // incumbent by the margin. If the regime held still through the
            // attempt (the incumbent's fresh live RMSE is commensurate with
            // the flag-time window), that residual is the best available —
            // re-anchor the baseline to it so the monitor stops re-flagging
            // a floor no retrain can reach. A mid-validation regime change
            // (incumbent far above the flag-time window) keeps the old
            // baseline, so the next flag still fires and adaptation
            // retries.
            if incumbent_rmse <= REANCHOR_SLACK * flag_windowed {
                self.monitor.reset(Some(incumbent_rmse));
            }
            self.phase = Phase::Monitoring;
            self.cooldown_until = self.samples + self.config.cooldown as u64;
            return;
        }
        let Phase::Validating { shadow, .. } =
            std::mem::replace(&mut self.phase, Phase::Monitoring)
        else {
            unreachable!("phase changed underfoot");
        };
        let generation = self.slot.promote(shadow, self.pending_bad_deploy.take());
        if let Some(s) = self.status {
            s.note_swap(generation, self.clock.now());
        }
        self.push_audit(AdaptEvent::Promoted {
            at_sample: self.samples,
            generation,
        });
        self.emit(
            events::ADAPT_PROMOTED,
            &[
                ("sample", Field::U(self.samples)),
                ("generation", Field::U(generation)),
                ("validated_rmse", Field::F(shadow_rmse)),
            ],
        );
        // The window described the demoted generation, so drop it — but
        // KEEP the baseline: it is the healthy residual floor, not a
        // per-generation quantity. A shadow that only partially corrects
        // the drift (its window straddled the regime change) re-flags
        // after the cool-down and adaptation iterates toward the floor.
        let floor = self.monitor.baseline();
        self.monitor.reset(floor);
        self.phase = Phase::Probation {
            left: self.config.probation.max(1),
            sq: 0.0,
            n: 0,
            validated_rmse: shadow_rmse,
        };
    }

    fn step_probation(&mut self, predicted: f64, observed_ms: f64) {
        let Phase::Probation {
            left,
            sq,
            n,
            validated_rmse,
        } = &mut self.phase
        else {
            unreachable!("step_probation outside Probation");
        };
        *sq += (predicted - observed_ms) * (predicted - observed_ms);
        *n += 1;
        *left -= 1;
        if *left > 0 {
            return;
        }
        let probation_rmse = (*sq / *n as f64).sqrt();
        // Rolling back needs two strikes: the promotion broke its validated
        // promise (RMSE estimates over a few dozen pairs fluctuate — one
        // lucky validation window must not doom a good model), AND the
        // deployed generation is unhealthy in absolute terms — worse than
        // the staleness bar over the accepted baseline, i.e. the monitor
        // itself would flag it.
        let unhealthy = match self.monitor.baseline() {
            Some(b) if b > 0.0 => probation_rmse > self.config.rmse_ratio_bar * b,
            _ => true,
        };
        let regressed = unhealthy && probation_rmse > self.config.rollback_ratio * *validated_rmse;
        let validated_rmse = *validated_rmse;
        self.phase = Phase::Monitoring;
        self.cooldown_until = self.samples + self.config.cooldown as u64;
        if !regressed {
            return;
        }
        let demoted = self.slot.generation();
        let Some(generation) = self.slot.rollback() else {
            return; // nothing to restore — keep serving, monitor will re-flag
        };
        if let Some(s) = self.status {
            s.note_swap(generation, self.clock.now());
        }
        if let Some(b) = self.breaker {
            b.trip(self.clock.now(), "rolled_back");
        }
        self.push_audit(AdaptEvent::RolledBack {
            at_sample: self.samples,
            demoted,
            generation,
            probation_rmse,
            validated_rmse,
        });
        self.emit(
            events::ADAPT_ROLLBACK,
            &[
                ("sample", Field::U(self.samples)),
                ("demoted", Field::U(demoted)),
                ("generation", Field::U(generation)),
                ("probation_rmse", Field::F(probation_rmse)),
                ("validated_rmse", Field::F(validated_rmse)),
            ],
        );
        // Drop the failed generation's pairs; the healthy floor carries
        // over to the restored model.
        let floor = self.monitor.baseline();
        self.monitor.reset(floor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::{BreakerConfig, BreakerState};
    use crate::clock::VirtualClock;

    /// A linear fake: predicts `scale * encoding[0]`. "Retraining" refits
    /// `scale` by least squares over the window — deterministic and instant.
    #[derive(Debug, Clone)]
    struct LinearModel {
        scale: f64,
    }
    impl Predictor for LinearModel {
        fn predict_encoding(&self, e: &[f32]) -> f64 {
            self.scale * f64::from(e[0])
        }
        fn gradient(&self, e: &[f32]) -> Vec<f32> {
            vec![0.0; e.len()]
        }
    }
    impl BatchPredictor for LinearModel {}

    fn refit(_m: &LinearModel, encs: &[Vec<f32>], obs: &[f64]) -> LinearModel {
        let (mut num, mut den) = (0.0, 0.0);
        for (e, o) in encs.iter().zip(obs) {
            let x = f64::from(e[0]);
            num += x * o;
            den += x * x;
        }
        LinearModel { scale: num / den }
    }

    type Trainer = fn(&LinearModel, &[Vec<f32>], &[f64]) -> LinearModel;

    /// Ingests one sample and, if that parked the controller, trains a
    /// shadow with `train` on the retrain window and installs it at once —
    /// the single-device retrain path.
    fn ingest_and_retrain(
        ctl: &mut AdaptationController<'_, LinearModel>,
        slot: &ModelSlot<LinearModel>,
        train: Trainer,
        e: &[f32],
        observed_ms: f64,
    ) {
        ctl.ingest(e, observed_ms);
        if ctl.awaiting_retrain() {
            let (encs, obs) = ctl.retrain_window();
            ctl.install_shadow(slot.with_current(|m| train(m, &encs, &obs)));
        }
    }

    fn quick_config() -> AdaptConfig {
        AdaptConfig {
            window: 16,
            min_samples: 8,
            rmse_ratio_bar: 1.5,
            spearman_bar: 0.5,
            promote_margin: 0.95,
            validation_pairs: 8,
            probation: 8,
            rollback_ratio: 1.4,
            cooldown: 8,
        }
    }

    /// Deterministic pseudo-random encoding stream (first lane in [1, 2]).
    fn enc(i: u64) -> Vec<f32> {
        let x = 1.0 + (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f32 / 16_777_216.0;
        vec![x, 0.0]
    }

    #[test]
    fn spearman_matches_hand_computed_values() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [2.0, 4.0, 6.0, 8.0, 10.0];
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12, "monotone = 1");
        let rev: Vec<f64> = ys.iter().rev().copied().collect();
        assert!((spearman(&xs, &rev) + 1.0).abs() < 1e-12, "reversed = -1");
        assert!(spearman(&xs, &[7.0; 5]).is_nan(), "constant side = NaN");
        // Ties get average ranks: classic worked example.
        let a = [1.0, 2.0, 2.0, 3.0];
        let b = [1.0, 3.0, 2.0, 4.0];
        let rho = spearman(&a, &b);
        assert!(
            rho > 0.8 && rho < 1.0,
            "ties keep rho in (0.8, 1), got {rho}"
        );
    }

    #[test]
    fn spearman_ranks_non_finite_values_without_panicking() {
        let xs = [1.0, f64::NAN, 3.0, f64::INFINITY, -f64::NAN, 2.0, 2.0];
        let ys = [f64::NEG_INFINITY, 2.0, f64::NAN, 4.0, 5.0, 6.0, 7.0];
        let rho = spearman(&xs, &ys);
        assert!((-1.0..=1.0).contains(&rho), "rho {rho}");
        let rho = spearman(&[f64::NAN; 4], &[1.0, 2.0, 3.0, 4.0]);
        assert!(rho.is_nan() || (-1.0..=1.0).contains(&rho), "rho {rho}");
        // A monitor that was handed one NaN observation checks without
        // panicking at every later sample.
        let cfg = quick_config();
        let mut monitor = DriftMonitor::new(32);
        for i in 0..40u64 {
            let x = f64::from(enc(i)[0]);
            monitor.push(10.0 * x, if i == 20 { f64::NAN } else { 10.0 * x });
            let _ = monitor.check(&cfg);
        }
    }

    #[test]
    fn stationary_stream_never_flags() {
        let cfg = quick_config();
        let mut monitor = DriftMonitor::new(cfg.window);
        for i in 0..500u64 {
            let x = f64::from(enc(i)[0]);
            // Honest model + bounded deterministic noise.
            let noise = ((i % 7) as f64 - 3.0) * 0.05;
            monitor.push(10.0 * x, 10.0 * x + noise);
            assert!(
                monitor.check(&cfg).is_none(),
                "stationary stream flagged at sample {i}"
            );
        }
    }

    #[test]
    fn monotone_ramp_flags_within_budget() {
        let cfg = quick_config();
        let mut monitor = DriftMonitor::new(cfg.window);
        let mut flagged_at = None;
        for i in 0..1000u64 {
            let x = f64::from(enc(i)[0]);
            let scale = 1.0 + 0.002 * i as f64; // monotone multiplicative drift
            monitor.push(10.0 * x, 10.0 * x * scale);
            if monitor.check(&cfg).is_some() {
                flagged_at = Some(i);
                break;
            }
        }
        let at = flagged_at.expect("ramp must flag");
        assert!(at < 8 * cfg.window as u64, "flagged too late: {at}");
    }

    #[test]
    fn slot_swaps_are_generation_counted_and_bias_is_per_row() {
        let slot = ModelSlot::new(LinearModel { scale: 1.0 });
        assert_eq!(slot.generation(), 0);
        assert_eq!(slot.predict_encoding(&[2.0]), 2.0);
        slot.inject_bias(5.0, 2);
        let rows = slot.predict_encodings(&[vec![1.0], vec![1.0], vec![1.0]]);
        assert_eq!(rows, vec![6.0, 6.0, 1.0], "bias budget spent per row");
        let g = slot.promote(LinearModel { scale: 3.0 }, None);
        assert_eq!(g, 1);
        assert_eq!(slot.predict_encoding(&[2.0]), 6.0);
        let g = slot.promote(LinearModel { scale: 4.0 }, Some(100.0));
        assert_eq!(g, 2);
        assert_eq!(slot.predict_encoding(&[1.0]), 104.0, "sabotaged deploy");
        let g = slot.rollback().expect("previous retained");
        assert_eq!(g, 3);
        assert_eq!(
            slot.predict_encoding(&[2.0]),
            6.0,
            "bias gone, scale 3 back"
        );
        assert!(slot.rollback().is_none(), "only one generation retained");
    }

    #[test]
    fn drift_triggers_retrain_validate_promote() {
        let clock = VirtualClock::new();
        let slot = ModelSlot::new(LinearModel { scale: 10.0 });
        let status = AdaptStatus::new();
        let mut ctl = AdaptationController::new(&slot, &clock, quick_config()).with_status(&status);
        // Stationary warm-up: self-calibrates, never promotes.
        for i in 0..40u64 {
            let e = enc(i);
            let truth = 10.0 * f64::from(e[0]);
            ingest_and_retrain(&mut ctl, &slot, refit, &e, truth);
            clock.advance(Duration::from_millis(1));
        }
        assert_eq!(ctl.phase(), "monitoring");
        assert_eq!(slot.generation(), 0, "stationary stream never promotes");
        // 1.6× drift burst. The first shadow trains on a window straddling
        // the regime change, so adaptation may need more than one
        // promotion cycle to reach the new regime.
        let mut promoted_at = None;
        for i in 40..440u64 {
            let e = enc(i);
            let truth = 16.0 * f64::from(e[0]);
            ingest_and_retrain(&mut ctl, &slot, refit, &e, truth);
            clock.advance(Duration::from_millis(1));
            if promoted_at.is_none() && slot.generation() > 0 {
                promoted_at = Some(i);
                assert_eq!(status.generation(), slot.generation());
                assert_eq!(status.samples_since_promotion(), 0, "swap resets staleness");
            }
        }
        let at = promoted_at.expect("drift must cause a promotion");
        assert!(at < 200, "first promotion too late: {at}");
        assert!(audit_is_well_formed(ctl.audit()), "{:?}", ctl.audit());
        assert!(ctl
            .audit()
            .iter()
            .any(|e| matches!(e, AdaptEvent::Promoted { generation: 1, .. })));
        assert!(
            !ctl.audit()
                .iter()
                .any(|e| matches!(e, AdaptEvent::RolledBack { .. })),
            "honest shadows are never rolled back"
        );
        assert!(
            (slot.with_current(|m| m.scale) - 16.0).abs() < 0.01,
            "adaptation converges to the drifted regime, got {}",
            slot.with_current(|m| m.scale)
        );
    }

    #[test]
    fn bad_deploy_is_rolled_back_and_trips_the_breaker() {
        let clock = VirtualClock::new();
        let slot = ModelSlot::new(LinearModel { scale: 10.0 });
        let breaker = CircuitBreaker::new(BreakerConfig::default());
        let mut ctl =
            AdaptationController::new(&slot, &clock, quick_config()).with_breaker(&breaker);
        for i in 0..40u64 {
            let e = enc(i);
            ingest_and_retrain(&mut ctl, &slot, refit, &e, 10.0 * f64::from(e[0]));
        }
        ctl.arm_bad_deploy(50.0);
        let mut i = 40u64;
        while slot.generation() < 1 && i < 400 {
            let e = enc(i);
            ingest_and_retrain(&mut ctl, &slot, refit, &e, 16.0 * f64::from(e[0]));
            i += 1;
        }
        assert_eq!(slot.generation(), 1, "sabotaged promotion deployed");
        // Probation sees the +50 ms deployment bias and must roll back.
        while ctl.phase() == "probation" {
            let e = enc(i);
            ingest_and_retrain(&mut ctl, &slot, refit, &e, 16.0 * f64::from(e[0]));
            i += 1;
        }
        assert_eq!(slot.generation(), 2, "rollback is a new deployment");
        assert!(
            (slot.with_current(|m| m.scale) - 10.0).abs() < 1e-9,
            "incumbent restored"
        );
        assert_eq!(
            breaker.state(clock.now()),
            BreakerState::Open,
            "breaker tripped"
        );
        let reasons: Vec<&str> = breaker
            .take_transitions()
            .iter()
            .map(|t| t.reason)
            .collect();
        assert_eq!(reasons, ["rolled_back"]);
        assert!(audit_is_well_formed(ctl.audit()), "{:?}", ctl.audit());
        assert!(ctl.audit().iter().any(|e| matches!(
            e,
            AdaptEvent::RolledBack {
                demoted: 1,
                generation: 2,
                ..
            }
        )));
    }

    #[test]
    fn failed_validation_discards_the_shadow_quietly() {
        let clock = VirtualClock::new();
        let slot = ModelSlot::new(LinearModel { scale: 10.0 });
        // A trainer that always produces garbage: validation must reject it.
        let garbage: Trainer = |_m, _e, _o| LinearModel { scale: 1000.0 };
        let mut ctl = AdaptationController::new(&slot, &clock, quick_config());
        for i in 0..40u64 {
            let e = enc(i);
            ingest_and_retrain(&mut ctl, &slot, garbage, &e, 10.0 * f64::from(e[0]));
        }
        for i in 40..400u64 {
            let e = enc(i);
            ingest_and_retrain(&mut ctl, &slot, garbage, &e, 16.0 * f64::from(e[0]));
        }
        assert_eq!(slot.generation(), 0, "garbage shadow never serves");
        assert!(ctl
            .audit()
            .iter()
            .any(|e| matches!(e, AdaptEvent::ShadowValidated { passed: false, .. })));
        assert!(!ctl
            .audit()
            .iter()
            .any(|e| matches!(e, AdaptEvent::Promoted { .. })));
        assert!(audit_is_well_formed(ctl.audit()));
    }

    #[test]
    fn audit_well_formedness_rejects_unvalidated_promotions() {
        assert!(audit_is_well_formed(&[]));
        assert!(!audit_is_well_formed(&[AdaptEvent::Promoted {
            at_sample: 1,
            generation: 1,
        }]));
        assert!(!audit_is_well_formed(&[
            AdaptEvent::ShadowValidated {
                at_sample: 1,
                shadow_rmse: 2.0,
                incumbent_rmse: 1.0,
                passed: false,
            },
            AdaptEvent::Promoted {
                at_sample: 2,
                generation: 1,
            },
        ]));
        assert!(!audit_is_well_formed(&[AdaptEvent::RolledBack {
            at_sample: 1,
            demoted: 1,
            generation: 2,
            probation_rmse: 9.0,
            validated_rmse: 1.0,
        }]));
        assert!(audit_is_well_formed(&[
            AdaptEvent::StalenessDetected {
                at_sample: 1,
                rmse_ratio: 2.0,
                spearman: 0.9,
            },
            AdaptEvent::RetrainStarted {
                at_sample: 1,
                window: 16,
            },
            AdaptEvent::ShadowValidated {
                at_sample: 9,
                shadow_rmse: 0.5,
                incumbent_rmse: 1.0,
                passed: true,
            },
            AdaptEvent::Promoted {
                at_sample: 9,
                generation: 1,
            },
            AdaptEvent::RolledBack {
                at_sample: 17,
                demoted: 1,
                generation: 2,
                probation_rmse: 9.0,
                validated_rmse: 0.5,
            },
        ]));
    }

    #[test]
    fn audit_stays_well_formed_across_the_retention_cap() {
        let clock = VirtualClock::new();
        let slot = ModelSlot::new(LinearModel { scale: 10.0 });
        // Tiny cap so a long alternating-drift soak crosses the boundary
        // many times; every fourth sample re-checks the suffix invariant.
        let mut ctl = AdaptationController::new(&slot, &clock, quick_config()).with_audit_cap(8);
        let mut scale = 10.0;
        for i in 0..4000u64 {
            // Flip the regime every 100 samples so the controller keeps
            // flagging, retraining, and promoting — a busy audit trail.
            if i % 100 == 0 {
                scale = if scale == 10.0 { 16.0 } else { 10.0 };
            }
            let e = enc(i);
            ingest_and_retrain(&mut ctl, &slot, refit, &e, scale * f64::from(e[0]));
            if i % 4 == 0 {
                assert!(ctl.audit().len() <= 8, "cap respected at sample {i}");
                assert!(
                    audit_is_well_formed_with(&ctl.audit_carry(), ctl.audit()),
                    "suffix invariant broke at sample {i}: carry {:?}, audit {:?}",
                    ctl.audit_carry(),
                    ctl.audit()
                );
            }
        }
        assert!(ctl.audit_dropped() > 0, "soak must actually cross the cap");
        assert!(slot.generation() > 2, "soak must actually promote");
        // Every deployment (promotion or rollback) bumps the generation, so
        // carry + suffix together still account for all of them.
        let carry = ctl.audit_carry();
        let suffix_swaps = ctl
            .audit()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    AdaptEvent::Promoted { .. } | AdaptEvent::RolledBack { .. }
                )
            })
            .count() as u64;
        assert_eq!(
            carry.promotions + carry.rollbacks + suffix_swaps,
            slot.generation(),
            "carry + suffix still account for every deployment"
        );
    }

    #[test]
    fn parked_controller_accepts_a_delayed_install() {
        let clock = VirtualClock::new();
        let slot = ModelSlot::new(LinearModel { scale: 10.0 });
        let mut ctl = AdaptationController::new(&slot, &clock, quick_config());
        // Stationary warm-up calibrates the baseline.
        for i in 0..40u64 {
            let e = enc(i);
            ctl.ingest(&e, 10.0 * f64::from(e[0]));
        }
        assert!(!ctl.awaiting_retrain());
        // Drift: the controller parks and waits for a shadow.
        let mut i = 40u64;
        while !ctl.awaiting_retrain() && i < 400 {
            let e = enc(i);
            ctl.ingest(&e, 16.0 * f64::from(e[0]));
            i += 1;
        }
        assert!(ctl.awaiting_retrain(), "drift must park the controller");
        assert_eq!(ctl.phase(), "awaiting_retrain");
        assert_eq!(slot.generation(), 0, "nothing trained, nothing served");
        // The window keeps rolling while parked.
        let before = ctl.retrain_window().0.len();
        for _ in 0..4 {
            let e = enc(i);
            ctl.ingest(&e, 16.0 * f64::from(e[0]));
            i += 1;
        }
        assert!(ctl.retrain_window().0.len() >= before.min(quick_config().window));
        // A late install trains on the rolled window; the first window
        // straddles the regime change, so adaptation may need more than one
        // park → install → promote cycle.
        let (encs, obs) = ctl.retrain_window();
        let shadow = slot.with_current(|m| refit(m, &encs, &obs));
        ctl.install_shadow(shadow);
        assert_eq!(ctl.phase(), "validating");
        while i < 800 {
            let e = enc(i);
            ingest_and_retrain(&mut ctl, &slot, refit, &e, 16.0 * f64::from(e[0]));
            i += 1;
        }
        assert!(slot.generation() >= 1, "late shadow promotes normally");
        assert!(audit_is_well_formed(ctl.audit()), "{:?}", ctl.audit());
        assert!(
            (slot.with_current(|m| m.scale) - 16.0).abs() < 0.2,
            "late-installed shadow converged, got {}",
            slot.with_current(|m| m.scale)
        );
    }

    #[test]
    fn request_retrain_needs_evidence_and_an_idle_controller() {
        let clock = VirtualClock::new();
        let slot = ModelSlot::new(LinearModel { scale: 10.0 });
        let mut ctl = AdaptationController::new(&slot, &clock, quick_config());
        assert!(
            !ctl.request_retrain(),
            "no window, no baseline — no evidence to park on"
        );
        for i in 0..40u64 {
            let e = enc(i);
            ctl.ingest(&e, 10.0 * f64::from(e[0]));
        }
        assert!(ctl.staleness_ratio().is_some());
        assert!(ctl.request_retrain(), "armed window parks on request");
        assert!(ctl.awaiting_retrain());
        assert!(!ctl.request_retrain(), "already parked");
    }
}
