//! Property-based invariants of the adaptation layer (proptest).
//!
//! Three contract clauses the drift soak leans on, hammered over arbitrary
//! signal scales, noise shapes, drift rates, and fault placements:
//!
//! * a stationary stream — honest model, bounded noise — **never** flags
//!   staleness;
//! * a monotone multiplicative drift ramp **always** flags, within a
//!   window-scaled sample budget;
//! * the promote/rollback state machine never serves an unvalidated
//!   shadow: the deployment generation moves only through audited
//!   promotions (each behind a passing verdict) and rollbacks, no matter
//!   where chaos bias or a bad deploy lands, or how long the retrained
//!   shadow takes to arrive;
//! * a non-finite latency reading is rejected before it touches the
//!   controller, wherever it lands, so it can neither panic the drift check
//!   nor enter a window;
//! * the audit checker is one state machine: cutting a trail anywhere and
//!   carrying the prefix's [`AuditCarry`] into the suffix gives the whole
//!   trail's verdict.

use proptest::prelude::*;

use lightnas_predictor::{BatchPredictor, Predictor};
use lightnas_serve::{
    audit_is_well_formed, audit_is_well_formed_with, AdaptConfig, AdaptEvent, AdaptationController,
    AuditCarry, DriftMonitor, ModelSlot, VirtualClock,
};

/// Deterministic per-index value in [1, 2) — the "architecture" signal.
fn lane(i: u64) -> f64 {
    1.0 + (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f64 / 16_777_216.0
}

/// Smooth bounded noise with a stable RMS — adversarial amplitudes are
/// allowed, adversarial *windows* (quiet calibration, loud afterwards) are
/// not what "stationary" means.
fn noise(i: u64, amplitude: f64, phase: f64) -> f64 {
    amplitude * (0.7 * i as f64 + phase).sin()
}

fn config() -> AdaptConfig {
    AdaptConfig {
        window: 32,
        min_samples: 16,
        ..AdaptConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Stationary stream, honest model, noise up to 5% of signal: the
    /// detector must stay quiet forever (well, for 600 samples).
    #[test]
    fn stationary_stream_never_flags(
        scale in 5.0f64..40.0,
        noise_frac in 0.0f64..0.05,
        phase in 0.0f64..std::f64::consts::TAU,
    ) {
        let cfg = config();
        let mut monitor = DriftMonitor::new(cfg.window);
        for i in 0..600u64 {
            let truth = scale * lane(i);
            let observed = truth + noise(i, noise_frac * scale, phase);
            monitor.push(truth, observed);
            prop_assert!(
                monitor.check(&cfg).is_none(),
                "stationary stream flagged at sample {} (scale {scale}, frac {noise_frac})",
                i
            );
        }
    }

    /// A monotone multiplicative ramp must flag within a window-scaled
    /// budget — the detector is allowed latency, not blindness.
    #[test]
    fn monotone_ramp_always_flags_within_budget(
        scale in 5.0f64..40.0,
        ramp in 0.002f64..0.02,
        noise_frac in 0.0f64..0.05,
        phase in 0.0f64..std::f64::consts::TAU,
    ) {
        let cfg = config();
        let mut monitor = DriftMonitor::new(cfg.window);
        let budget = 1000u64;
        let mut flagged = None;
        for i in 0..budget {
            let truth = scale * lane(i);
            let drifted = truth * (1.0 + ramp * i as f64);
            let observed = drifted + noise(i, noise_frac * scale, phase);
            monitor.push(truth, observed);
            if monitor.check(&cfg).is_some() {
                flagged = Some(i);
                break;
            }
        }
        prop_assert!(
            flagged.is_some(),
            "ramp {ramp}/sample never flagged within {budget} samples"
        );
    }
}

/// A linear fake model and a least-squares refit trainer — instant,
/// deterministic, and good enough for the state machine to exercise every
/// transition.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drive the full controller through arbitrary regime changes with a
    /// stale-bias fault and a bad deploy landing at arbitrary points, and
    /// the shadow installed `retrain_delay` samples after each park (a
    /// fleet device queued behind the pool). At every single sample: the
    /// audit trail stays well-formed (promotions only behind passing
    /// verdicts) and the serving generation equals exactly the audited
    /// deployments — an unvalidated shadow has no path into the slot.
    #[test]
    fn generation_moves_only_through_audited_deployments(
        seg_lens in proptest::collection::vec(20usize..60, 4),
        seg_scales in proptest::collection::vec(5.0f64..30.0, 4),
        bias_at in 0usize..150,
        bias_ms in 1.0f64..30.0,
        bias_n in 1u64..40,
        bad_deploy_at in 0usize..150,
        bad_bias in 20.0f64..80.0,
        retrain_delay in 0usize..20,
    ) {
        let regimes: Vec<(usize, f64)> =
            seg_lens.iter().copied().zip(seg_scales.iter().copied()).collect();
        let clock = VirtualClock::new();
        let slot = ModelSlot::new(LinearModel { scale: regimes[0].1 });
        let mut ctl = AdaptationController::new(
            &slot,
            &clock,
            AdaptConfig {
                window: 16,
                min_samples: 8,
                validation_pairs: 8,
                probation: 8,
                cooldown: 8,
                ..AdaptConfig::default()
            },
        );
        let mut i = 0u64;
        let mut parked = 0usize;
        for &(len, scale) in &regimes {
            for _ in 0..len {
                if i as usize == bias_at {
                    slot.inject_bias(bias_ms, bias_n);
                }
                if i as usize == bad_deploy_at {
                    ctl.arm_bad_deploy(bad_bias);
                }
                let e = vec![lane(i) as f32, 0.0];
                ctl.ingest(&e, scale * lane(i));
                if ctl.awaiting_retrain() {
                    if parked == retrain_delay {
                        let (encs, obs) = ctl.retrain_window();
                        ctl.install_shadow(slot.with_current(|m| refit(m, &encs, &obs)));
                        parked = 0;
                    } else {
                        parked += 1;
                    }
                }
                let audit = ctl.audit();
                prop_assert!(audit_is_well_formed(audit), "{audit:?}");
                let promotions = audit
                    .iter()
                    .filter(|e| matches!(e, AdaptEvent::Promoted { .. }))
                    .count() as u64;
                let rollbacks = audit
                    .iter()
                    .filter(|e| matches!(e, AdaptEvent::RolledBack { .. }))
                    .count() as u64;
                prop_assert_eq!(
                    slot.generation(),
                    promotions + rollbacks,
                    "generation moved outside the audited promote/rollback path"
                );
                i += 1;
            }
        }
    }
}

/// The three readings no latency can be.
const NON_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

/// A controller over `slot` with the small windows the state-machine
/// properties use.
fn small_controller<'a>(
    slot: &'a ModelSlot<LinearModel>,
    clock: &'a VirtualClock,
) -> AdaptationController<'a, LinearModel> {
    AdaptationController::new(
        slot,
        clock,
        AdaptConfig {
            window: 16,
            min_samples: 8,
            validation_pairs: 8,
            probation: 8,
            cooldown: 8,
            ..AdaptConfig::default()
        },
    )
}

/// NaN, +∞ and −∞ after every ordinary sample of a stream that drifts,
/// flags, retrains and promotes: each is counted and leaves the sample
/// count, the drift window, the retrain window, the phase and the audit as
/// they were, and the served prediction is still returned.
#[test]
fn non_finite_readings_leave_the_controller_unchanged() {
    let clock = VirtualClock::new();
    let slot = ModelSlot::new(LinearModel { scale: 10.0 });
    let mut ctl = small_controller(&slot, &clock);
    let mut rejected = 0;
    for i in 0..200u64 {
        let e = vec![lane(i) as f32, 0.0];
        let scale = if i < 60 { 10.0 } else { 25.0 };
        ctl.ingest(&e, scale * lane(i));
        if ctl.awaiting_retrain() {
            let (encs, obs) = ctl.retrain_window();
            ctl.install_shadow(slot.with_current(|m| refit(m, &encs, &obs)));
        }
        for bad in NON_FINITE {
            let before = (
                ctl.samples(),
                ctl.monitor().len(),
                ctl.phase(),
                ctl.audit().to_vec(),
                ctl.retrain_window(),
            );
            let served = ctl.ingest(&e, bad);
            rejected += 1;
            assert_eq!(served, slot.with_current(|m| m.predict_encoding(&e)));
            let after = (
                ctl.samples(),
                ctl.monitor().len(),
                ctl.phase(),
                ctl.audit().to_vec(),
                ctl.retrain_window(),
            );
            assert_eq!(after, before, "a {bad} reading at sample {i} moved state");
            assert_eq!(ctl.rejected_samples(), rejected);
        }
    }
    assert!(
        ctl.audit()
            .iter()
            .any(|e| matches!(e, AdaptEvent::Promoted { .. })),
        "the stream must drive the controller through a promotion: {:?}",
        ctl.audit()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Non-finite readings at arbitrary positions of a stream with regime
    /// changes never panic the controller; the audit stays well-formed and
    /// every one of them is counted, none as a sample.
    #[test]
    fn non_finite_readings_never_panic_the_controller(
        seg_scales in proptest::collection::vec(5.0f64..30.0, 4),
        bad_at in proptest::collection::vec(0u64..320, 24),
        bad_kind in proptest::collection::vec(0usize..3, 24),
        retrain_delay in 0usize..10,
    ) {
        // About half the 24 positions fall inside the 160-sample stream.
        let bad: Vec<(u64, usize)> = bad_at.into_iter().zip(bad_kind).filter(|&(at, _)| at < 160).collect();
        let clock = VirtualClock::new();
        let slot = ModelSlot::new(LinearModel { scale: seg_scales[0] });
        let mut ctl = small_controller(&slot, &clock);
        let mut parked = 0usize;
        for i in 0..160u64 {
            let e = vec![lane(i) as f32, 0.0];
            for &(_, kind) in bad.iter().filter(|&&(at, _)| at == i) {
                ctl.ingest(&e, NON_FINITE[kind]);
            }
            ctl.ingest(&e, seg_scales[i as usize / 40] * lane(i));
            if ctl.awaiting_retrain() {
                if parked == retrain_delay {
                    let (encs, obs) = ctl.retrain_window();
                    ctl.install_shadow(slot.with_current(|m| refit(m, &encs, &obs)));
                    parked = 0;
                } else {
                    parked += 1;
                }
            }
            prop_assert!(audit_is_well_formed(ctl.audit()), "{:?}", ctl.audit());
        }
        prop_assert_eq!(ctl.samples(), 160);
        prop_assert_eq!(ctl.rejected_samples(), bad.len() as u64);
    }
}

/// One audit event from a code in `0..6`: staleness, retrain, a passing
/// verdict, a failing verdict, a promotion, a rollback.
fn audit_event(code: u8, at_sample: u64) -> AdaptEvent {
    match code {
        0 => AdaptEvent::StalenessDetected {
            at_sample,
            rmse_ratio: 2.0,
            spearman: 0.5,
        },
        1 => AdaptEvent::RetrainStarted {
            at_sample,
            window: 32,
        },
        2 | 3 => AdaptEvent::ShadowValidated {
            at_sample,
            shadow_rmse: 1.0,
            incumbent_rmse: 2.0,
            passed: code == 2,
        },
        4 => AdaptEvent::Promoted {
            at_sample,
            generation: at_sample,
        },
        _ => AdaptEvent::RolledBack {
            at_sample,
            demoted: at_sample,
            generation: at_sample + 1,
            probation_rmse: 3.0,
            validated_rmse: 1.0,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Seeded random trails, well-formed or not: at every cut whose prefix
    /// passes, the carry after the prefix checks the suffix to the whole
    /// trail's verdict.
    #[test]
    fn carried_prefix_checks_the_suffix_to_the_whole_verdict(
        codes in proptest::collection::vec(0u8..6, 24),
        len in 0usize..=24,
    ) {
        let trail: Vec<AdaptEvent> = codes[..len]
            .iter()
            .enumerate()
            .map(|(i, &c)| audit_event(c, i as u64))
            .collect();
        let whole = audit_is_well_formed(&trail);
        for cut in 0..=trail.len() {
            let (prefix, suffix) = trail.split_at(cut);
            if !audit_is_well_formed(prefix) {
                continue;
            }
            let mut carry = AuditCarry::default();
            for event in prefix {
                prop_assert!(carry.step(event));
            }
            prop_assert_eq!(audit_is_well_formed_with(&carry, suffix), whole, "cut {}", cut);
        }
    }
}
