//! Fleet-wide drift adaptation: one adaptation loop per device, one
//! bounded retrain pool, cross-device warm starts.
//!
//! PR 7's [`AdaptationController`] keeps a *single* device honest. A fleet
//! breaks that design in two ways:
//!
//! * **Drift is correlated.** A thermal event on the Xavier proxy predicts
//!   one on the phone-class target (the same physics, the same datacenter,
//!   the same DVFS policy push). Waiting for each device to independently
//!   re-derive the same conclusion wastes exactly the evidence the
//!   proxy→target structure of One-Proxy-Device-Is-Enough provides.
//! * **Retraining is a shared resource.** N devices flagging at once must
//!   not spawn N simultaneous retrains (the thundering herd); they queue
//!   against a bounded worker pool and are admitted under a retrain budget.
//!
//! [`FleetAdaptation`] owns one controller per device: a staleness flag
//! parks the device in `awaiting_retrain`, and this layer queues it,
//! snapshots the device's sample window when the shared [`JobScheduler`]
//! pool admits it, trains the shadow there, and hands it back through
//! `install_shadow` — the same three calls a single device makes without
//! a queue. Everything downstream of the handoff — paired
//! validation, promotion, probation, rollback — is the unchanged PR 7
//! machinery, per device: **a shadow still never serves before its
//! verdict, and one device's rollback never touches another's slot.**
//!
//! Warm starts are an *evidence* transfer, not a gate bypass. When device S
//! flags (or promotes a corrected model), each correlated target T gets a
//! warm hint: T's retrain may be requested **early**, as soon as T's own
//! windowed-RMSE ratio exceeds [`FleetAdaptOptions::warm_ratio_bar`] — a
//! lower bar than T's own staleness flag, justified by S's corroborating
//! flag — and T's shadow is fit by the *warm trainer* (canonically the
//! PR 6 transfer path: S's adapted model through a refit [`MonotoneMap`],
//! with T's window as the recalibration fold) instead of a cold fine-tune.
//! A stationary target never crosses even the lowered bar, and every warm
//! candidate must still win its paired validation on the target's own live
//! traffic before serving.
//!
//! Every cross-device decision is a typed [`FleetAdaptEvent`]; the
//! per-device [`AdaptEvent`] streams are folded into the same trail (tagged
//! with their device), so [`fleet_audit_is_well_formed`] can check that
//! each device's projected audit obeys the single-device invariant *and*
//! that pool admissions never exceed queue entries. All control flow is a
//! pure function of the ingested sample sequence — the fleet soak
//! byte-compares two same-seed runs.
//!
//! [`MonotoneMap`]: crate::MonotoneMap

use std::collections::VecDeque;

use lightnas_predictor::BatchPredictor;
use lightnas_runtime::{events, Field, JobScheduler, Telemetry};
use lightnas_serve::{
    AdaptConfig, AdaptEvent, AdaptationController, AuditCarry, Clock, DeviceGeneration, ModelSlot,
};

fn us(d: std::time::Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// Fleet-level adaptation policy.
#[derive(Debug, Clone)]
pub struct FleetAdaptOptions {
    /// Per-device detection/validation thresholds (shared by all devices).
    pub adapt: AdaptConfig,
    /// Retrain-pool budget: at most this many retrains are admitted per
    /// tick (and run concurrently on the pool). Clamped to ≥ 1.
    pub max_concurrent_retrains: usize,
    /// Directed correlation pairs `(source, target)` by fleet index: a
    /// flag or promotion on `source` arms a warm start on `target`.
    pub correlated: Vec<(usize, usize)>,
    /// Master switch for warm starts (off = every retrain is cold; the
    /// soak's control arm).
    pub warm_starts: bool,
    /// Early-trigger bar for a warm-hinted device: its retrain is
    /// requested once its own windowed-RMSE ratio reaches this, without
    /// waiting for the full [`AdaptConfig::rmse_ratio_bar`]. Must sit
    /// below the flag bar to buy any head start. Default: 1.15.
    pub warm_ratio_bar: f64,
}

impl Default for FleetAdaptOptions {
    fn default() -> Self {
        Self {
            adapt: AdaptConfig::default(),
            max_concurrent_retrains: 2,
            correlated: Vec::new(),
            warm_starts: true,
            warm_ratio_bar: 1.15,
        }
    }
}

/// One entry in the cross-device audit trail.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetAdaptEvent {
    /// A per-device [`AdaptEvent`], tagged with its fleet index. The fleet
    /// folds every controller's audit into this trail in tick order, so
    /// projecting on `device` recovers each device's full history.
    Device {
        /// Fleet index of the device the event belongs to.
        device: usize,
        /// Fleet tick at which the fleet absorbed the event.
        at_tick: u64,
        /// The device-level event.
        event: AdaptEvent,
    },
    /// `source`'s flag/promotion armed a warm start on `target`.
    WarmStartArmed {
        /// Device whose evidence armed the hint.
        source: usize,
        /// Device that will retrain warm (and possibly early).
        target: usize,
        /// Fleet tick of the arming.
        at_tick: u64,
    },
    /// A device joined the retrain-pool queue.
    RetrainQueued {
        /// Queued device.
        device: usize,
        /// Fleet tick it queued at.
        at_tick: u64,
    },
    /// The pool admitted a queued device's retrain.
    RetrainAdmitted {
        /// Admitted device.
        device: usize,
        /// Fleet tick of admission.
        at_tick: u64,
        /// Ticks spent waiting in the queue.
        waited_ticks: u64,
    },
    /// The pool admitted nothing this tick despite a non-empty queue
    /// (starved by chaos).
    PoolStarved {
        /// Fleet tick of the starvation.
        at_tick: u64,
        /// Devices left waiting.
        queued: usize,
    },
}

/// Checks the cross-device audit invariants:
///
/// 1. each device's projected [`AdaptEvent`] stream satisfies the
///    single-device [`audit_is_well_formed`] contract (no generation ever
///    serves without a passing verdict, no rollback without a promotion),
///    checked as it goes by one [`AuditCarry`] per device;
/// 2. per device, pool admissions never exceed queue entries (nothing
///    trains that never queued).
///
/// [`audit_is_well_formed`]: lightnas_serve::audit_is_well_formed
pub fn fleet_audit_is_well_formed(devices: usize, audit: &[FleetAdaptEvent]) -> bool {
    let mut queued = vec![0u64; devices];
    let mut admitted = vec![0u64; devices];
    let mut carries = vec![AuditCarry::default(); devices];
    audit.iter().all(|entry| match *entry {
        FleetAdaptEvent::Device {
            device, ref event, ..
        } => device < devices && carries[device].step(event),
        FleetAdaptEvent::RetrainQueued { device, .. } if device < devices => {
            queued[device] += 1;
            true
        }
        FleetAdaptEvent::RetrainAdmitted { device, .. }
            if device < devices && admitted[device] < queued[device] =>
        {
            admitted[device] += 1;
            true
        }
        FleetAdaptEvent::WarmStartArmed { source, target, .. } => {
            source < devices && target < devices
        }
        FleetAdaptEvent::PoolStarved { .. } => true,
        // An out-of-range device, or an admission past the queued count.
        _ => false,
    })
}

/// The cold trainer: `(device, incumbent, window encodings, window
/// observations) → shadow`. Canonically a fine-tune of the incumbent on
/// the device's own recent window.
pub type ColdTrainer<'a, P> = Box<dyn Fn(usize, &P, &[Vec<f32>], &[f64]) -> P + Sync + 'a>;

/// The warm trainer: `(source device, source's current model, target
/// device, target incumbent, window encodings, window observations) →
/// shadow`. Canonically the PR 6 transfer path: the source's *already
/// corrected* model recalibrated onto the target's window.
pub type WarmTrainer<'a, P> =
    Box<dyn Fn(usize, &P, usize, &P, &[Vec<f32>], &[f64]) -> P + Sync + 'a>;

/// One [`AdaptationController`] per fleet device, a shared bounded retrain
/// pool, and the warm-start wiring between them. See the module docs for
/// the control loop; drive it with [`ingest_tick`](Self::ingest_tick).
pub struct FleetAdaptation<'a, P: BatchPredictor + Clone + Send + Sync> {
    controllers: Vec<AdaptationController<'a, P>>,
    slots: &'a [ModelSlot<P>],
    names: Vec<String>,
    clock: &'a dyn Clock,
    options: FleetAdaptOptions,
    pool: JobScheduler,
    cold: ColdTrainer<'a, P>,
    warm: Option<WarmTrainer<'a, P>>,
    telemetry: Option<&'a Telemetry>,
    audit: Vec<FleetAdaptEvent>,
    /// Absolute per-device audit cursor: events absorbed so far, counting
    /// ones the controller itself has since dropped at its cap.
    audit_seen: Vec<u64>,
    queue: VecDeque<usize>,
    in_queue: Vec<bool>,
    queued_at: Vec<u64>,
    /// Armed warm hint per device: the source whose evidence armed it.
    warm_from: Vec<Option<usize>>,
    last_generation: Vec<u64>,
    samples_since_swap: Vec<u64>,
    tick: u64,
    starved_until: u64,
    max_wait: u64,
}

impl<'a, P: BatchPredictor + Clone + Send + Sync> FleetAdaptation<'a, P> {
    /// A fleet over `slots` (one serving slot per device, caller-owned),
    /// retraining cold with `cold` on a pool of
    /// [`FleetAdaptOptions::max_concurrent_retrains`] workers.
    pub fn new(
        slots: &'a [ModelSlot<P>],
        names: Vec<String>,
        clock: &'a dyn Clock,
        options: FleetAdaptOptions,
        cold: impl Fn(usize, &P, &[Vec<f32>], &[f64]) -> P + Sync + 'a,
    ) -> Self {
        assert_eq!(slots.len(), names.len(), "one name per device slot");
        let n = slots.len();
        let controllers = slots
            .iter()
            .map(|slot| AdaptationController::new(slot, clock, options.adapt.clone()))
            .collect();
        let pool = JobScheduler::new(options.max_concurrent_retrains.max(1));
        Self {
            controllers,
            slots,
            names,
            clock,
            options,
            pool,
            cold: Box::new(cold),
            warm: None,
            telemetry: None,
            audit: Vec::new(),
            audit_seen: vec![0; n],
            queue: VecDeque::new(),
            in_queue: vec![false; n],
            queued_at: vec![0; n],
            warm_from: vec![None; n],
            last_generation: vec![0; n],
            samples_since_swap: vec![0; n],
            tick: 0,
            starved_until: 0,
            max_wait: 0,
        }
    }

    /// Wires the warm trainer — without one, armed hints still lower the
    /// trigger bar but the shadow is fit cold.
    pub fn with_warm_trainer(
        mut self,
        warm: impl Fn(usize, &P, usize, &P, &[Vec<f32>], &[f64]) -> P + Sync + 'a,
    ) -> Self {
        self.warm = Some(Box::new(warm));
        self
    }

    /// Narrates device-tagged `adapt_*` and `fleet_*` telemetry events.
    /// (Per-device controllers stay silent; the fleet re-emits their audit
    /// events with the device index attached, keeping one deterministic
    /// interleaving.)
    pub fn with_telemetry(mut self, telemetry: &'a Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Pre-calibrates each device's healthy live-residual baseline
    /// (index-aligned with the slots).
    pub fn with_baselines(mut self, baselines: &[f64]) -> Self {
        assert_eq!(baselines.len(), self.controllers.len());
        self.controllers = self
            .controllers
            .drain(..)
            .zip(baselines)
            .map(|(c, &b)| c.with_baseline_rmse(b))
            .collect();
        self
    }

    /// Devices in the fleet.
    pub fn len(&self) -> usize {
        self.controllers.len()
    }

    /// `true` for an empty fleet.
    pub fn is_empty(&self) -> bool {
        self.controllers.is_empty()
    }

    /// Fleet ticks ingested so far.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// The cross-device audit trail (see [`fleet_audit_is_well_formed`]).
    pub fn audit(&self) -> &[FleetAdaptEvent] {
        &self.audit
    }

    /// Device `i`'s controller, for inspection.
    pub fn controller(&self, i: usize) -> &AdaptationController<'a, P> {
        &self.controllers[i]
    }

    /// Devices currently waiting for pool admission.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The longest any retrain has waited between queueing and admission,
    /// in ticks — the bounded-wait quantity the no-deadlock property pins.
    pub fn max_admission_wait(&self) -> u64 {
        self.max_wait
    }

    /// Chaos `PoolStarvation`: the pool admits nothing for the next
    /// `ticks` ticks. Queued devices keep waiting (and keep serving their
    /// incumbents); nothing is dropped.
    pub fn starve_pool(&mut self, ticks: u64) {
        self.starved_until = self.tick + ticks;
    }

    /// Chaos `BadDeploy` against one device: its *next* promotion deploys
    /// corrupted. Other devices' promotions are untouched — the
    /// independence the fleet soak proves.
    pub fn arm_bad_deploy(&mut self, device: usize, bias_ms: f64) {
        self.controllers[device].arm_bad_deploy(bias_ms);
    }

    /// The per-device generation/staleness rollup for a fleet-level
    /// [`HealthSnapshot`](lightnas_serve::HealthSnapshot) (its `fleet`
    /// field).
    pub fn device_generations(&self) -> Vec<DeviceGeneration> {
        (0..self.len())
            .map(|i| DeviceGeneration {
                device: self.names[i].clone(),
                model_generation: self.slots[i].generation(),
                staleness_samples: self.samples_since_swap[i],
            })
            .collect()
    }

    fn emit(&self, event: &str, fields: &[(&str, Field)]) {
        if let Some(t) = self.telemetry {
            let mut all = vec![("t_us", Field::U(us(self.clock.now())))];
            all.extend_from_slice(fields);
            t.emit(event, &all);
        }
    }

    fn emit_device_event(&self, device: usize, event: &AdaptEvent) {
        let d = ("device", Field::U(device as u64));
        match event {
            AdaptEvent::StalenessDetected {
                at_sample,
                rmse_ratio,
                spearman,
            } => self.emit(
                events::ADAPT_STALENESS,
                &[
                    d,
                    ("sample", Field::U(*at_sample)),
                    ("rmse_ratio", Field::F(*rmse_ratio)),
                    ("spearman", Field::F(*spearman)),
                ],
            ),
            AdaptEvent::RetrainStarted { at_sample, window } => self.emit(
                events::ADAPT_RETRAIN,
                &[
                    d,
                    ("sample", Field::U(*at_sample)),
                    ("window", Field::U(*window as u64)),
                ],
            ),
            AdaptEvent::ShadowValidated {
                at_sample,
                shadow_rmse,
                incumbent_rmse,
                passed,
            } => self.emit(
                events::ADAPT_VALIDATED,
                &[
                    d,
                    ("sample", Field::U(*at_sample)),
                    ("shadow_rmse", Field::F(*shadow_rmse)),
                    ("incumbent_rmse", Field::F(*incumbent_rmse)),
                    ("passed", Field::B(*passed)),
                ],
            ),
            AdaptEvent::Promoted {
                at_sample,
                generation,
            } => self.emit(
                events::ADAPT_PROMOTED,
                &[
                    d,
                    ("sample", Field::U(*at_sample)),
                    ("generation", Field::U(*generation)),
                ],
            ),
            AdaptEvent::RolledBack {
                at_sample,
                demoted,
                generation,
                probation_rmse,
                validated_rmse,
            } => self.emit(
                events::ADAPT_ROLLBACK,
                &[
                    d,
                    ("sample", Field::U(*at_sample)),
                    ("demoted", Field::U(*demoted)),
                    ("generation", Field::U(*generation)),
                    ("probation_rmse", Field::F(*probation_rmse)),
                    ("validated_rmse", Field::F(*validated_rmse)),
                ],
            ),
        }
    }

    /// Folds each controller's newly appended audit events into the fleet
    /// trail (device-tagged, registry order) and returns, per device,
    /// whether it flagged and whether it promoted in this batch.
    fn absorb_audits(&mut self) -> (Vec<bool>, Vec<bool>) {
        let n = self.len();
        let (mut flagged, mut promoted) = (vec![false; n], vec![false; n]);
        for i in 0..n {
            let ctl = &self.controllers[i];
            let total = ctl.audit_dropped() + ctl.audit().len() as u64;
            let new = (total - self.audit_seen[i]) as usize;
            debug_assert!(
                new <= ctl.audit().len(),
                "audit events dropped before the fleet absorbed them"
            );
            let fresh: Vec<AdaptEvent> = ctl.audit()[ctl.audit().len() - new..].to_vec();
            self.audit_seen[i] = total;
            for event in fresh {
                match &event {
                    AdaptEvent::StalenessDetected { .. } => flagged[i] = true,
                    AdaptEvent::Promoted { .. } => promoted[i] = true,
                    _ => {}
                }
                self.emit_device_event(i, &event);
                self.audit.push(FleetAdaptEvent::Device {
                    device: i,
                    at_tick: self.tick,
                    event,
                });
            }
        }
        (flagged, promoted)
    }

    /// Ingests one fleet tick: one live `(encoding, observed latency)`
    /// sample per device, index-aligned with the slots. Returns each
    /// device's served prediction.
    ///
    /// Order within the tick is fixed (and is what the same-seed soak
    /// byte-compares): every device ingests, warm hints arm off fresh
    /// flags/promotions, hinted devices early-trigger, awaiting devices
    /// queue, then the pool admits up to the budget in FIFO order, trains
    /// the admitted shadows concurrently, and installs them in admission
    /// order.
    pub fn ingest_tick(&mut self, samples: &[(Vec<f32>, f64)]) -> Vec<f64> {
        assert_eq!(samples.len(), self.len(), "one sample per device");
        let served: Vec<f64> = samples
            .iter()
            .enumerate()
            .map(|(i, (enc, obs))| self.controllers[i].ingest(enc, *obs))
            .collect();
        for i in 0..self.len() {
            self.samples_since_swap[i] += 1;
            let gen = self.slots[i].generation();
            if gen != self.last_generation[i] {
                self.last_generation[i] = gen;
                self.samples_since_swap[i] = 0;
            }
        }
        let (flagged, promoted) = self.absorb_audits();

        // Arm warm hints: a source's flag (it sees drift) or promotion (it
        // has a corrected model worth transferring) is evidence for every
        // correlated target that is not already mid-cycle.
        if self.options.warm_starts {
            let pairs = self.options.correlated.clone();
            for (source, target) in pairs {
                if (flagged[source] || promoted[source])
                    && self.warm_from[target].is_none()
                    && !self.in_queue[target]
                    && !self.controllers[target].awaiting_retrain()
                {
                    self.warm_from[target] = Some(source);
                    self.audit.push(FleetAdaptEvent::WarmStartArmed {
                        source,
                        target,
                        at_tick: self.tick,
                    });
                    self.emit(
                        events::FLEET_WARM_START,
                        &[
                            ("source", Field::U(source as u64)),
                            ("target", Field::U(target as u64)),
                        ],
                    );
                }
            }
        }

        // Early trigger: a hinted device retrains as soon as its own window
        // shows elevated (not yet flag-worthy) error. The hint never
        // triggers a device whose window looks healthy — that is what keeps
        // bystanders out of the pool.
        for i in 0..self.len() {
            if self.warm_from[i].is_some()
                && !self.controllers[i].awaiting_retrain()
                && self.controllers[i]
                    .staleness_ratio()
                    .is_some_and(|r| r >= self.options.warm_ratio_bar)
            {
                self.controllers[i].request_retrain();
            }
        }

        // Queue every freshly parked device, FIFO.
        for i in 0..self.len() {
            if self.controllers[i].awaiting_retrain() && !self.in_queue[i] {
                self.in_queue[i] = true;
                self.queued_at[i] = self.tick;
                self.queue.push_back(i);
                self.audit.push(FleetAdaptEvent::RetrainQueued {
                    device: i,
                    at_tick: self.tick,
                });
                self.emit(
                    events::FLEET_RETRAIN_QUEUED,
                    &[
                        ("device", Field::U(i as u64)),
                        ("queued", Field::U(self.queue.len() as u64)),
                    ],
                );
            }
        }

        // Pool round: admit up to the budget (zero while starved), snapshot
        // the admitted windows, train concurrently, install in admission
        // order. Controllers keep serving their incumbents throughout.
        let budget = if self.tick < self.starved_until {
            0
        } else {
            self.options.max_concurrent_retrains.max(1)
        };
        if budget == 0 && !self.queue.is_empty() {
            self.audit.push(FleetAdaptEvent::PoolStarved {
                at_tick: self.tick,
                queued: self.queue.len(),
            });
            self.emit(
                events::FLEET_POOL_STARVED,
                &[("queued", Field::U(self.queue.len() as u64))],
            );
        } else if !self.queue.is_empty() {
            struct Job<P> {
                device: usize,
                incumbent: P,
                encs: Vec<Vec<f32>>,
                obs: Vec<f64>,
                warm: Option<(usize, P)>,
            }
            let mut jobs: Vec<Job<P>> = Vec::new();
            while jobs.len() < budget {
                let Some(device) = self.queue.pop_front() else {
                    break;
                };
                let (encs, obs) = self.controllers[device].retrain_window();
                let warm = self.warm_from[device].take().and_then(|source| {
                    self.warm.as_ref()?;
                    Some((source, self.slots[source].with_current(P::clone)))
                });
                jobs.push(Job {
                    device,
                    incumbent: self.slots[device].with_current(P::clone),
                    encs,
                    obs,
                    warm,
                });
            }
            let shadows: Vec<P> = self.pool.run(jobs.len(), |k| {
                let job = &jobs[k];
                match (&job.warm, &self.warm) {
                    (Some((source, source_model)), Some(warm)) => warm(
                        *source,
                        source_model,
                        job.device,
                        &job.incumbent,
                        &job.encs,
                        &job.obs,
                    ),
                    _ => (self.cold)(job.device, &job.incumbent, &job.encs, &job.obs),
                }
            });
            for (job, shadow) in jobs.iter().zip(shadows) {
                let device = job.device;
                self.controllers[device].install_shadow(shadow);
                self.in_queue[device] = false;
                let waited_ticks = self.tick - self.queued_at[device];
                self.max_wait = self.max_wait.max(waited_ticks);
                self.audit.push(FleetAdaptEvent::RetrainAdmitted {
                    device,
                    at_tick: self.tick,
                    waited_ticks,
                });
                self.emit(
                    events::FLEET_RETRAIN_ADMITTED,
                    &[
                        ("device", Field::U(device as u64)),
                        ("waited_ticks", Field::U(waited_ticks)),
                    ],
                );
            }
            // install_shadow audited RetrainStarted on each admitted device.
            self.absorb_audits();
        }
        self.tick += 1;
        served
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightnas_predictor::Predictor;
    use lightnas_serve::VirtualClock;

    /// The same linear fake the serve-side tests use: `scale * enc[0]`,
    /// refit by least squares.
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
            correlated: vec![(0, 1)],
            warm_starts: true,
            warm_ratio_bar: 1.15,
        }
    }

    fn enc(i: u64) -> Vec<f32> {
        let x = 1.0 + (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f32 / 16_777_216.0;
        vec![x, 0.0]
    }

    #[test]
    fn correlated_drift_adapts_both_devices_through_one_worker_pool() {
        let clock = VirtualClock::new();
        let slots = [
            ModelSlot::new(LinearModel { scale: 10.0 }),
            ModelSlot::new(LinearModel { scale: 20.0 }),
            ModelSlot::new(LinearModel { scale: 30.0 }),
        ];
        let mut fleet = FleetAdaptation::new(
            &slots,
            vec!["a".into(), "b".into(), "c".into()],
            &clock,
            quick_options(),
            |_d, _m: &LinearModel, encs, obs| refit(encs, obs),
        )
        .with_warm_trainer(
            |_s, source: &LinearModel, _t, incumbent: &LinearModel, _e, _o| {
                // Transfer the source's corrected drift factor onto the target.
                LinearModel {
                    scale: incumbent.scale * (source.scale / 10.0),
                }
            },
        );
        let scale_at = |i: usize, t: u64| -> f64 {
            let base = [10.0, 20.0, 30.0][i];
            // Devices 0 and 1 drift together ×1.6 at tick 60; device 2
            // stays stationary.
            if i < 2 && t >= 60 {
                base * 1.6
            } else {
                base
            }
        };
        for t in 0..400u64 {
            let samples: Vec<(Vec<f32>, f64)> = (0..3)
                .map(|i| {
                    let e = enc(t.wrapping_mul(3) + i as u64);
                    let obs = scale_at(i, t) * f64::from(e[0]);
                    (e, obs)
                })
                .collect();
            fleet.ingest_tick(&samples);
        }
        assert!(slots[0].generation() >= 1, "drifted device 0 promotes");
        assert!(slots[1].generation() >= 1, "drifted device 1 promotes");
        assert_eq!(slots[2].generation(), 0, "stationary bystander untouched");
        assert!(fleet_audit_is_well_formed(3, fleet.audit()));
        assert!(
            fleet.audit().iter().any(|e| matches!(
                e,
                FleetAdaptEvent::WarmStartArmed {
                    source: 0,
                    target: 1,
                    ..
                }
            )),
            "correlated flag must arm the warm start"
        );
        assert!(
            (slots[0].with_current(|m| m.scale) - 16.0).abs() < 0.5,
            "device 0 converged, got {}",
            slots[0].with_current(|m| m.scale)
        );
        assert!(
            (slots[1].with_current(|m| m.scale) - 32.0).abs() < 1.0,
            "device 1 converged, got {}",
            slots[1].with_current(|m| m.scale)
        );
        let gens = fleet.device_generations();
        assert_eq!(gens.len(), 3);
        assert_eq!(gens[2].device, "c");
        assert_eq!(gens[2].model_generation, 0);
    }

    #[test]
    fn starved_pool_queues_without_deadlock_and_never_serves_unvalidated() {
        let clock = VirtualClock::new();
        let slots = [
            ModelSlot::new(LinearModel { scale: 10.0 }),
            ModelSlot::new(LinearModel { scale: 20.0 }),
        ];
        let mut options = quick_options();
        options.correlated = vec![];
        let mut fleet = FleetAdaptation::new(
            &slots,
            vec!["a".into(), "b".into()],
            &clock,
            options,
            |_d, _m: &LinearModel, encs, obs| refit(encs, obs),
        );
        for t in 0..40u64 {
            let samples: Vec<(Vec<f32>, f64)> = (0..2)
                .map(|i| {
                    let e = enc(t.wrapping_mul(2) + i as u64);
                    ([10.0, 20.0][i] * f64::from(e[0]), e)
                })
                .map(|(obs, e)| (e, obs))
                .collect();
            fleet.ingest_tick(&samples);
        }
        fleet.starve_pool(50);
        for t in 40..300u64 {
            let samples: Vec<(Vec<f32>, f64)> = (0..2)
                .map(|i| {
                    let e = enc(t.wrapping_mul(2) + i as u64);
                    let obs = [10.0, 20.0][i] * 1.6 * f64::from(e[0]);
                    (e, obs)
                })
                .collect();
            fleet.ingest_tick(&samples);
        }
        assert!(
            fleet
                .audit()
                .iter()
                .any(|e| matches!(e, FleetAdaptEvent::PoolStarved { .. })),
            "starvation window must be audited"
        );
        assert_eq!(fleet.queue_len(), 0, "queue drains once the pool recovers");
        assert!(slots[0].generation() >= 1 && slots[1].generation() >= 1);
        assert!(
            fleet.max_admission_wait() >= 1,
            "someone must actually have waited"
        );
        assert!(
            fleet.max_admission_wait() < 120,
            "waits stay bounded, got {}",
            fleet.max_admission_wait()
        );
        assert!(fleet_audit_is_well_formed(2, fleet.audit()));
    }
}
