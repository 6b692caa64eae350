//! Property-based invariants of fleet-wide adaptation (proptest).
//!
//! Three contract clauses the fleet drift soak leans on, hammered over
//! arbitrary signal scales, drift magnitudes, noise shapes, and pool
//! budgets:
//!
//! * a correlated drift ramp on devices {A, B} **never** promotes an
//!   unvalidated shadow on a stationary bystander C — warm hints lower the
//!   trigger bar, they never bypass a device's own evidence or its
//!   validation gate;
//! * saturating the retrain pool (more simultaneous flags than workers,
//!   plus a chaos starvation window) never deadlocks: the queue drains and
//!   every admission wait stays bounded;
//! * a warm-started retrain and a cold one converge to rank-compatible
//!   predictors (Spearman ≥ 0.9 over a probe set) — the warm start is a
//!   head start, not a different answer;
//! * the fleet audit checker, which steps one carry per device, agrees
//!   with checking each device's projected event stream on its own, on
//!   random traces with out-of-range devices and admissions past the
//!   queued count.

use proptest::prelude::*;

use lightnas_predictor::{BatchPredictor, Predictor};
use lightnas_serve::{audit_is_well_formed, AdaptConfig, AdaptEvent, ModelSlot, VirtualClock};

use lightnas_fleet::{
    fleet_audit_is_well_formed, spearman, FleetAdaptEvent, FleetAdaptOptions, FleetAdaptation,
};

/// Deterministic per-index value in [1, 2) — the "architecture" signal.
fn lane(i: u64) -> f64 {
    1.0 + (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f64 / 16_777_216.0
}

/// Smooth bounded noise with a stable RMS.
fn noise(i: u64, amplitude: f64, phase: f64) -> f64 {
    amplitude * (0.7 * i as f64 + phase).sin()
}

/// Linear fake: `scale * enc[0]`; retraining refits by least squares.
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

fn refit(encs: &[Vec<f32>], obs: &[f64]) -> LinearModel {
    let (mut num, mut den) = (0.0, 0.0);
    for (e, o) in encs.iter().zip(obs) {
        let x = f64::from(e[0]);
        num += x * o;
        den += x * x;
    }
    LinearModel { scale: num / den }
}

fn enc(i: u64) -> Vec<f32> {
    vec![lane(i) as f32, 0.0]
}

fn quick_options() -> FleetAdaptOptions {
    FleetAdaptOptions {
        adapt: AdaptConfig {
            window: 16,
            min_samples: 8,
            rmse_ratio_bar: 1.5,
            spearman_bar: 0.5,
            promote_margin: 0.95,
            validation_pairs: 8,
            probation: 8,
            rollback_ratio: 1.4,
            cooldown: 8,
        },
        max_concurrent_retrains: 1,
        correlated: Vec::new(),
        warm_starts: true,
        warm_ratio_bar: 1.15,
    }
}

/// The count of deployment-moving events (promotions + rollbacks) in the
/// fleet audit, projected on one device.
fn audited_deployments(audit: &[FleetAdaptEvent], device: usize) -> u64 {
    audit
        .iter()
        .filter(|e| {
            matches!(
                e,
                FleetAdaptEvent::Device { device: d, event, .. }
                    if *d == device
                        && matches!(
                            event,
                            lightnas_serve::AdaptEvent::Promoted { .. }
                                | lightnas_serve::AdaptEvent::RolledBack { .. }
                        )
            )
        })
        .count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Devices A and B ramp together; C stays stationary (honest model,
    /// bounded noise). A→C and B→C warm hints are armed on purpose — the
    /// adversarial wiring — and still C must never retrain, never promote,
    /// and keep generation 0. A and B must both adapt.
    #[test]
    fn correlated_ramp_never_promotes_an_unvalidated_bystander(
        base_a in 5.0f64..40.0,
        base_b in 5.0f64..40.0,
        base_c in 5.0f64..40.0,
        drift in 1.4f64..2.0,
        noise_frac in 0.0f64..0.04,
        phase in 0.0f64..std::f64::consts::TAU,
    ) {
        let clock = VirtualClock::new();
        let slots = [
            ModelSlot::new(LinearModel { scale: base_a }),
            ModelSlot::new(LinearModel { scale: base_b }),
            ModelSlot::new(LinearModel { scale: base_c }),
        ];
        let mut options = quick_options();
        // Adversarial: everything correlates with the bystander.
        options.correlated = vec![(0, 1), (1, 0), (0, 2), (1, 2)];
        let mut fleet = FleetAdaptation::new(
            &slots,
            vec!["a".into(), "b".into(), "c".into()],
            &clock,
            options,
            |_d, _m: &LinearModel, encs, obs| refit(encs, obs),
        )
        .with_warm_trainer(|_s, _sm: &LinearModel, _t, _inc: &LinearModel, encs, obs| {
            refit(encs, obs)
        });
        let bases = [base_a, base_b, base_c];
        for t in 0..360u64 {
            let samples: Vec<(Vec<f32>, f64)> = (0..3usize)
                .map(|i| {
                    let e = enc(t.wrapping_mul(3) + i as u64);
                    let scale = if i < 2 && t >= 60 { bases[i] * drift } else { bases[i] };
                    let truth = scale * f64::from(e[0]);
                    let obs = truth + noise(t * 3 + i as u64, noise_frac * bases[i], phase);
                    (e, obs)
                })
                .collect();
            fleet.ingest_tick(&samples);
            // The bystander's generation can only ever move through audited
            // deployments — checked every tick, not just at the end.
            prop_assert_eq!(
                slots[2].generation(),
                audited_deployments(fleet.audit(), 2),
                "bystander generation moved without an audited deployment at tick {}", t
            );
        }
        prop_assert!(fleet_audit_is_well_formed(3, fleet.audit()));
        prop_assert_eq!(slots[2].generation(), 0, "stationary bystander must stay on gen 0");
        prop_assert!(
            !fleet.audit().iter().any(|e| matches!(
                e,
                FleetAdaptEvent::RetrainQueued { device: 2, .. }
            )),
            "a healthy window must not cross even the lowered warm bar"
        );
        prop_assert!(slots[0].generation() >= 1, "drifted A adapts");
        prop_assert!(slots[1].generation() >= 1, "drifted B adapts");
        // Every device's generation equals its audited deployments.
        for (d, slot) in slots.iter().enumerate() {
            prop_assert_eq!(slot.generation(), audited_deployments(fleet.audit(), d));
        }
    }

    /// All devices flag at once against a 1-worker pool, with a chaos
    /// starvation window on top: the queue must drain, waits must stay
    /// bounded, and every device must still converge.
    #[test]
    fn pool_saturation_never_deadlocks(
        devices in 2usize..6,
        drift in 1.4f64..2.0,
        starve in 0u64..60,
    ) {
        let clock = VirtualClock::new();
        let slots: Vec<ModelSlot<LinearModel>> = (0..devices)
            .map(|i| ModelSlot::new(LinearModel { scale: 10.0 + 5.0 * i as f64 }))
            .collect();
        let mut options = quick_options();
        options.max_concurrent_retrains = 1;
        let mut fleet = FleetAdaptation::new(
            &slots,
            (0..devices).map(|i| format!("d{i}")).collect(),
            &clock,
            options,
            |_d, _m: &LinearModel, encs, obs| refit(encs, obs),
        );
        for t in 0..40u64 {
            let samples: Vec<(Vec<f32>, f64)> = (0..devices)
                .map(|i| {
                    let e = enc(t.wrapping_mul(devices as u64) + i as u64);
                    let obs = (10.0 + 5.0 * i as f64) * f64::from(e[0]);
                    (e, obs)
                })
                .collect();
            fleet.ingest_tick(&samples);
        }
        fleet.starve_pool(starve);
        for t in 40..400u64 {
            let samples: Vec<(Vec<f32>, f64)> = (0..devices)
                .map(|i| {
                    let e = enc(t.wrapping_mul(devices as u64) + i as u64);
                    let obs = (10.0 + 5.0 * i as f64) * drift * f64::from(e[0]);
                    (e, obs)
                })
                .collect();
            fleet.ingest_tick(&samples);
        }
        prop_assert_eq!(fleet.queue_len(), 0, "queue must drain — no deadlock");
        for (i, slot) in slots.iter().enumerate() {
            prop_assert!(slot.generation() >= 1, "device {} starved forever", i);
        }
        // Bounded wait: starvation window + one pool round per queued
        // device ahead, with validation/cooldown slack.
        let bound = starve + 64 + 48 * devices as u64;
        prop_assert!(
            fleet.max_admission_wait() <= bound,
            "admission wait {} exceeds bound {}",
            fleet.max_admission_wait(),
            bound
        );
        prop_assert!(fleet_audit_is_well_formed(devices, fleet.audit()));
    }

    /// Warm and cold retrains see the same window and must land on
    /// rank-compatible predictors: Spearman ≥ 0.9 across a probe set.
    /// (With the linear fake the ranks are identical; the property pins
    /// the *contract* the MLP-backed soak asserts statistically.)
    #[test]
    fn warm_and_cold_starts_converge_rank_compatibly(
        base in 5.0f64..40.0,
        drift in 1.4f64..2.0,
        source_excess in 0.9f64..1.1,
        noise_frac in 0.0f64..0.04,
        phase in 0.0f64..std::f64::consts::TAU,
    ) {
        let run = |warm_starts: bool| -> Vec<f64> {
            let clock = VirtualClock::new();
            let slots = [
                ModelSlot::new(LinearModel { scale: base }),
                ModelSlot::new(LinearModel { scale: base * 2.0 }),
            ];
            let mut options = quick_options();
            options.correlated = vec![(0, 1)];
            options.warm_starts = warm_starts;
            let mut fleet = FleetAdaptation::new(
                &slots,
                vec!["src".into(), "tgt".into()],
                &clock,
                options,
                |_d, _m: &LinearModel, encs, obs| refit(encs, obs),
            )
            .with_warm_trainer(move |_s, sm: &LinearModel, _t, inc: &LinearModel, _e, _o| {
                // Transfer the source's corrected drift factor, imperfectly
                // (source_excess models transfer error); validation and any
                // follow-up retrains polish it on the target's own traffic.
                LinearModel { scale: inc.scale * (sm.scale / base) * source_excess }
            });
            for t in 0..420u64 {
                let samples: Vec<(Vec<f32>, f64)> = (0..2usize)
                    .map(|i| {
                        let e = enc(t.wrapping_mul(2) + i as u64);
                        let b = if i == 0 { base } else { base * 2.0 };
                        let scale = if t >= 60 { b * drift } else { b };
                        let truth = scale * f64::from(e[0]);
                        let obs = truth + noise(t * 2 + i as u64, noise_frac * b, phase);
                        (e, obs)
                    })
                    .collect();
                fleet.ingest_tick(&samples);
            }
            // Probe the target's final model over a fixed encoding set.
            (0..64u64)
                .map(|i| slots[1].with_current(|m| m.predict_encoding(&enc(i * 7))))
                .collect()
        };
        let warm = run(true);
        let cold = run(false);
        let rho = spearman(&warm, &cold);
        prop_assert!(
            rho >= 0.9,
            "warm and cold predictors disagree on ranks: rho = {}",
            rho
        );
    }
}

/// The fleet checker as it first stood, kept as the oracle: project every
/// device's events into its own trail, then check each trail whole.
fn projected_oracle(devices: usize, audit: &[FleetAdaptEvent]) -> bool {
    let mut queued = vec![0u64; devices];
    let mut admitted = vec![0u64; devices];
    let mut per_device: Vec<Vec<AdaptEvent>> = vec![Vec::new(); devices];
    for entry in audit {
        match entry {
            FleetAdaptEvent::Device { device, event, .. } => {
                if *device >= devices {
                    return false;
                }
                per_device[*device].push(event.clone());
            }
            FleetAdaptEvent::RetrainQueued { device, .. } => {
                if *device >= devices {
                    return false;
                }
                queued[*device] += 1;
            }
            FleetAdaptEvent::RetrainAdmitted { device, .. } => {
                if *device >= devices || admitted[*device] >= queued[*device] {
                    return false;
                }
                admitted[*device] += 1;
            }
            FleetAdaptEvent::WarmStartArmed { source, target, .. } => {
                if *source >= devices || *target >= devices {
                    return false;
                }
            }
            FleetAdaptEvent::PoolStarved { .. } => {}
        }
    }
    per_device.iter().all(|a| audit_is_well_formed(a))
}

/// One fleet audit entry. `kind` picks the variant, `code` the device
/// event (staleness, retrain, passing verdict, failing verdict,
/// promotion, rollback), and `dev` the device: `dev == 15` names the
/// first device past the fleet, so about one entry in sixteen is out of
/// range. A warm start's target is `code`'s device, or past the fleet
/// when `code` is 5.
fn fleet_entry(devices: usize, kind: u8, dev: usize, code: u8, at_tick: u64) -> FleetAdaptEvent {
    let device = if dev == 15 { devices } else { dev % devices };
    let event = match code {
        0 => AdaptEvent::StalenessDetected {
            at_sample: at_tick,
            rmse_ratio: 2.0,
            spearman: 0.5,
        },
        1 => AdaptEvent::RetrainStarted {
            at_sample: at_tick,
            window: 16,
        },
        2 | 3 => AdaptEvent::ShadowValidated {
            at_sample: at_tick,
            shadow_rmse: 1.0,
            incumbent_rmse: 2.0,
            passed: code == 2,
        },
        4 => AdaptEvent::Promoted {
            at_sample: at_tick,
            generation: at_tick,
        },
        _ => AdaptEvent::RolledBack {
            at_sample: at_tick,
            demoted: at_tick,
            generation: at_tick + 1,
            probation_rmse: 3.0,
            validated_rmse: 1.0,
        },
    };
    match kind {
        // Device events are the most common entries in a real trail.
        0..=3 => FleetAdaptEvent::Device {
            device,
            at_tick,
            event,
        },
        4 => FleetAdaptEvent::RetrainQueued { device, at_tick },
        5 => FleetAdaptEvent::RetrainAdmitted {
            device,
            at_tick,
            waited_ticks: 1,
        },
        6 => FleetAdaptEvent::WarmStartArmed {
            source: device,
            target: if code == 5 {
                devices
            } else {
                usize::from(code) % devices
            },
            at_tick,
        },
        _ => FleetAdaptEvent::PoolStarved { at_tick, queued: 1 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random fleet traces, every prefix length: the per-device carries
    /// give the projection oracle's verdict.
    #[test]
    fn fleet_checker_matches_the_per_device_projection(
        devices in 1usize..4,
        kinds in proptest::collection::vec(0u8..8, 24),
        devs in proptest::collection::vec(0usize..16, 24),
        codes in proptest::collection::vec(0u8..6, 24),
    ) {
        let trace: Vec<FleetAdaptEvent> = (0..kinds.len())
            .map(|i| fleet_entry(devices, kinds[i], devs[i], codes[i], i as u64))
            .collect();
        for len in 0..=trace.len() {
            let prefix = &trace[..len];
            prop_assert_eq!(
                fleet_audit_is_well_formed(devices, prefix),
                projected_oracle(devices, prefix),
                "devices {}, prefix {}",
                devices,
                len
            );
        }
    }
}
