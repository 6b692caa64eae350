//! `fleet_drift_soak` — fleet-wide drift adaptation under correlated chaos:
//! five devices, one bounded retrain pool, cross-device warm starts.
//!
//! The single-device `drift_soak` proves one adaptation loop honest. This
//! exhibit proves the *fleet* layer (DESIGN.md §15) honest when drift is
//! correlated and retraining is a shared resource. Every device serves a
//! [`TransferredPredictor`] — the proxy's MLP through a [`MonotoneMap`]
//! (the proxy itself through the identity map) — and one [`FleetAdaptation`]
//! drives all five controllers through a scripted list of fleet events on
//! a shared [`VirtualClock`]:
//!
//! * **A — stationary warm-up.** All five monitors self-calibrate; zero
//!   staleness flags anywhere.
//! * **B — correlated burst.** A `CorrelatedDriftBurst` hits the Xavier
//!   proxy ×1.35 and the phone with a burst *below* the phone's own
//!   detection bar. The proxy flags on its own evidence and arms warm
//!   hints on its correlated targets; the phone — whose drift is real but
//!   solo-undetectable — early-triggers at the lowered warm bar and
//!   retrains through the PR 6 transfer path (proxy's corrected base,
//!   map refit on the phone's freshest window). A control run with
//!   `warm_starts` off shows the cold loop never catches it: warm
//!   strictly beats cold on samples-to-promote.
//! * **C — thundering herd, starved pool.** Three devices burst ×1.25 at
//!   once while a `PoolStarvation` fault freezes the retrain pool. The
//!   queue backs up (audited `PoolStarved`), nothing deadlocks, waits stay
//!   bounded, and every device still converges once the pool recovers.
//! * **D — bad deploy during a neighbour's promotion.** The proxy and the
//!   server burst together; a `BadDeploy` fault corrupts the *server's*
//!   next deployment. Probation rolls the server back and its next clean
//!   retrain heals it — while the proxy's concurrent promotion lands
//!   untouched. Promotions and rollbacks are independent per device.
//!
//! At the end, every device's serving model must sit within 1.10× the RMSE
//! of a freshly trained per-device oracle on its *current* (drifted)
//! surface, the cross-device audit must satisfy
//! [`fleet_audit_is_well_formed`], and each device's slot generation must
//! equal its audited deployments — zero unvalidated predictions served,
//! fleet-wide. Everything is a function of the seed and the virtual clock,
//! so two runs write byte-identical telemetry to
//! `results/runs/fleet_drift_soak.jsonl` (CI `cmp`s them). Raw numbers land
//! in `BENCH_fleet_drift.json`. `LIGHTNAS_QUICK=1` shrinks the harness and
//! the oracles, not the scenario. Timings go to stderr; stdout is
//! deterministic.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use lightnas_bench::{
    exit_code, json_str, render_table, verdict, write_artifact, BenchJson, Harness,
};
use lightnas_fleet::{
    fleet_audit_is_well_formed, predictor_rmse, spearman, transfer_predictor, DeviceFleet,
    DeviceSpec, FleetAdaptEvent, FleetAdaptOptions, FleetAdaptation, MonotoneMap, TransferOptions,
    TransferredPredictor,
};
use lightnas_hw::{DriftSchedule, DriftStream};
use lightnas_predictor::{Metric, MetricDataset, MlpPredictor, Predictor, TrainConfig};
use lightnas_runtime::Telemetry;
use lightnas_serve::{
    AdaptConfig, AdaptEvent, BreakerState, Clock, HealthSnapshot, ModelSlot, VirtualClock,
};

/// The fleet's serving-model type: one shape for proxy and targets alike.
type Tp = TransferredPredictor<MlpPredictor>;

/// Live-stream seed; each device salts it with its registry name.
const SEED: u64 = 0xF1EE7;
/// Oracle profiling seed — a different pass, not the live stream.
const ORACLE_SEED: u64 = SEED ^ 0x5EED;
/// Virtual time between fleet ticks (one sample per device per tick).
const TICK: Duration = Duration::from_millis(5);

/// Phase lengths, in fleet ticks. Identical in quick mode — adaptation
/// windows are sample-counted, so shrinking the scenario would change the
/// claim, not just the cost.
const WARMUP: u64 = 96;
const B_PHASE: u64 = 320;
const C_PHASE: u64 = 288;
const D_PHASE: u64 = 288;

/// Fleet registry indices (see [`DeviceFleet::standard`]).
const PHONE: usize = 0;
const EDGE: usize = 1;
const NANO: usize = 2;
const PROXY: usize = 3;
const SERVER: usize = 4;

/// Phase B: the proxy's burst is flag-worthy on its own; the phone's sits
/// *below* its solo detection bar (ratio ≈ 1.3× baseline — elevated, never
/// 1.5×) so only the warm path catches it.
const PROXY_BURST: f64 = 1.35;
const PHONE_BURST: f64 = 1.05;
/// Phase C: herd burst on the three remaining targets, pool frozen.
const HERD_BURST: f64 = 1.25;
const STARVE_TICKS: u64 = 40;
/// Phase D: simultaneous proxy/server burst; the server's deployment is
/// corrupted by this bias.
const SECOND_BURST: f64 = 1.20;
const BAD_DEPLOY_BIAS_MS: f64 = 9.0;

/// How many freshest window samples the warm transfer refits its map on —
/// few-shot by design (the map is two-parameter-ish; the cold fine-tune
/// needs the whole window).
const WARM_FOLD: usize = 32;

/// Acceptance bar: every device's final RMSE vs its fresh oracle.
const RMSE_RATIO_BAR: f64 = 1.10;

/// One scripted fleet event.
enum Event {
    /// Every device whose index bit is set in `mask` steps its latency
    /// surface by `scale` (a heat wave on the rack, a fleet-wide DVFS push).
    CorrelatedDriftBurst { mask: u64, scale: f64 },
    /// The retrain pool admits nothing for this many ticks (workers seized
    /// by a competing tenant).
    PoolStarvation(u64),
    /// The device's next promotion deploys with this bias (ms) on every
    /// served prediction.
    BadDeploy(usize, f64),
}

/// Cross-device audit counts over a tick range.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    flags: u64,
    retrains: u64,
    promotions: u64,
    rollbacks: u64,
    queued: u64,
    starved: u64,
}

fn tally_range(audit: &[FleetAdaptEvent], lo: u64, hi: u64) -> Tally {
    let mut t = Tally::default();
    for e in audit {
        let (tick, bump): (u64, &mut u64) = match e {
            FleetAdaptEvent::Device { at_tick, event, .. } => match event {
                AdaptEvent::StalenessDetected { .. } => (*at_tick, &mut t.flags),
                AdaptEvent::RetrainStarted { .. } => (*at_tick, &mut t.retrains),
                AdaptEvent::Promoted { .. } => (*at_tick, &mut t.promotions),
                AdaptEvent::RolledBack { .. } => (*at_tick, &mut t.rollbacks),
                AdaptEvent::ShadowValidated { .. } => continue,
            },
            FleetAdaptEvent::RetrainQueued { at_tick, .. } => (*at_tick, &mut t.queued),
            FleetAdaptEvent::PoolStarved { at_tick, .. } => (*at_tick, &mut t.starved),
            _ => continue,
        };
        if tick >= lo && tick < hi {
            *bump += 1;
        }
    }
    t
}

/// First promotion on `device` at or after `tick`, as ticks-from-`tick`.
fn samples_to_promote(audit: &[FleetAdaptEvent], device: usize, tick: u64) -> Option<u64> {
    audit.iter().find_map(|e| match e {
        FleetAdaptEvent::Device {
            device: d,
            at_tick,
            event: AdaptEvent::Promoted { .. },
        } if *d == device && *at_tick >= tick => Some(*at_tick - tick),
        _ => None,
    })
}

/// Deployment-moving events (promotions + rollbacks) audited for `device`.
fn audited_deployments(audit: &[FleetAdaptEvent], device: usize) -> u64 {
    audit
        .iter()
        .filter(|e| {
            matches!(e, FleetAdaptEvent::Device { device: d, event, .. }
                if *d == device
                    && matches!(event, AdaptEvent::Promoted { .. } | AdaptEvent::RolledBack { .. }))
        })
        .count() as u64
}

fn device_event_in<F: Fn(&AdaptEvent) -> bool>(
    audit: &[FleetAdaptEvent],
    device: usize,
    lo: u64,
    hi: u64,
    pred: F,
) -> bool {
    audit.iter().any(|e| {
        matches!(e, FleetAdaptEvent::Device { device: d, at_tick, event }
            if *d == device && *at_tick >= lo && *at_tick < hi && pred(event))
    })
}

/// Everything main needs back from one soak run (slots and controllers are
/// run-local, so the run returns values, not borrows).
struct SoakResult {
    audit: Vec<FleetAdaptEvent>,
    generations: Vec<u64>,
    models: Vec<Tp>,
    schedules: Vec<DriftSchedule>,
    now: Duration,
    max_wait: u64,
    queue_len: usize,
    rollup_json: String,
}

/// One scripted soak over the standard fleet. `total` ticks (the control
/// arm stops after phase B), warm starts on or off, telemetry optional
/// (only the primary run narrates — the control arm must not pollute the
/// byte-compared stream).
fn run_soak(
    h: &Harness,
    fleet: &DeviceFleet,
    initial: &[Tp],
    warm_starts: bool,
    total: u64,
    telemetry: Option<&Telemetry>,
) -> SoakResult {
    let clock = VirtualClock::new();
    let slots: Vec<ModelSlot<Tp>> = initial.iter().cloned().map(ModelSlot::new).collect();
    let names: Vec<String> = fleet.devices().iter().map(|d| d.name.clone()).collect();

    // Cold retrain: fine-tune the incumbent's base on the device's own
    // window (the fast training step, incumbent standardization kept), then
    // refit the map over the new base so the *composition* tracks the
    // window. Gradient-hungry — it needs the whole window.
    let retrain_cfg = TrainConfig {
        epochs: 400,
        batch_size: 32,
        lr: 1e-3,
        seed: 0,
    };
    let cold = |_d: usize, incumbent: &Tp, encs: &[Vec<f32>], obs: &[f64]| {
        let window = MetricDataset::from_encoding_rows(Metric::LatencyMs, encs, obs);
        let base = incumbent
            .base()
            .fine_tune_incremental(&window, &retrain_cfg);
        let pairs: Vec<(f64, f64)> = window
            .encodings()
            .iter()
            .map(|e| base.predict_encoding(e))
            .zip(obs.iter().copied())
            .collect();
        TransferredPredictor::new(base, MonotoneMap::fit(&pairs))
    };
    // Warm retrain: the PR 6 transfer path. The source's contribution is
    // the *evidence* — its flag licensed acting this early — while the
    // shadow keeps the target's own (device-fine-tuned) base and refits
    // only the monotone map, on only the freshest few window samples:
    // closed-form, few-shot, and exactly the move that absorbs a
    // correlated multiplicative drift. (Drift magnitudes differ across
    // devices, so the source's correction factor itself must not be
    // copied — each target recalibrates on its own traffic.)
    let warm = |_s: usize, _src: &Tp, _t: usize, inc: &Tp, encs: &[Vec<f32>], obs: &[f64]| {
        // Least-squares drift factor over the freshest fold: how much the
        // device's observations have scaled relative to the incumbent.
        let skip = encs.len().saturating_sub(WARM_FOLD);
        let (mut num, mut den) = (0.0, 0.0);
        for (e, o) in encs[skip..].iter().zip(&obs[skip..]) {
            let p = inc.predict_encoding(e);
            num += p * o;
            den += p * p;
        }
        let c = num / den;
        // Rescale the incumbent's calibration by that factor over the whole
        // window's prediction range (not just the fold), so the refit map
        // keeps the incumbent's shape — and its sane extrapolation slope —
        // everywhere a live request can land.
        let base = inc.base().clone();
        let pairs: Vec<(f64, f64)> = encs
            .iter()
            .map(|e| {
                let bp = base.predict_encoding(e);
                (bp, c * inc.map().apply(bp))
            })
            .collect();
        TransferredPredictor::new(base, MonotoneMap::fit(&pairs))
    };

    let options = FleetAdaptOptions {
        adapt: AdaptConfig {
            promote_margin: 0.90,
            ..AdaptConfig::default()
        },
        max_concurrent_retrains: 2,
        // Directed proxy→target edges: the proxy's evidence warms every
        // target; nothing warms the proxy.
        correlated: vec![
            (PROXY, PHONE),
            (PROXY, EDGE),
            (PROXY, NANO),
            (PROXY, SERVER),
        ],
        warm_starts,
        // Above the windowed-ratio noise floor of the transferred
        // predictors (±~0.2 on a 64-window), below the 1.5 solo flag bar.
        warm_ratio_bar: 1.3,
    };
    let fa = FleetAdaptation::new(&slots, names, &clock, options, cold).with_warm_trainer(warm);
    let mut fa = match telemetry {
        Some(t) => fa.with_telemetry(t),
        None => fa,
    };

    let b_start = WARMUP;
    let c_start = WARMUP + B_PHASE;
    let d_start = c_start + C_PHASE;
    // Same-tick events run in list order.
    let script = [
        (
            b_start,
            Event::CorrelatedDriftBurst {
                mask: 1 << PROXY,
                scale: PROXY_BURST,
            },
        ),
        (
            b_start,
            Event::CorrelatedDriftBurst {
                mask: 1 << PHONE,
                scale: PHONE_BURST,
            },
        ),
        (
            c_start,
            Event::CorrelatedDriftBurst {
                mask: (1 << EDGE) | (1 << NANO) | (1 << SERVER),
                scale: HERD_BURST,
            },
        ),
        (c_start, Event::PoolStarvation(STARVE_TICKS)),
        (
            d_start,
            Event::CorrelatedDriftBurst {
                mask: (1 << PROXY) | (1 << SERVER),
                scale: SECOND_BURST,
            },
        ),
        (d_start, Event::BadDeploy(SERVER, BAD_DEPLOY_BIAS_MS)),
    ];

    let boards: Vec<_> = fleet.devices().iter().map(DeviceSpec::device).collect();
    let mut streams: Vec<DriftStream> = fleet
        .devices()
        .iter()
        .zip(&boards)
        .map(|(spec, board)| {
            DriftStream::new(
                board,
                &h.space,
                DriftSchedule::stationary(),
                SEED ^ spec.seed_salt(),
            )
        })
        .collect();

    for i in 0..total {
        for (_, event) in script.iter().filter(|(at, _)| *at == i) {
            match *event {
                Event::CorrelatedDriftBurst { mask, scale } => {
                    for (d, stream) in streams.iter_mut().enumerate() {
                        if mask & (1 << d) != 0 {
                            stream.apply_burst(clock.now(), scale);
                        }
                    }
                }
                Event::PoolStarvation(ticks) => fa.starve_pool(ticks),
                Event::BadDeploy(device, bias_ms) => fa.arm_bad_deploy(device, bias_ms),
            }
        }
        let samples: Vec<(Vec<f32>, f64)> = streams
            .iter_mut()
            .map(|s| {
                let sample = s.next_sample(clock.now());
                (sample.encoding, sample.observed_ms)
            })
            .collect();
        fa.ingest_tick(&samples);
        clock.advance(TICK);

        if i + 1 == b_start || i + 1 == c_start || i + 1 == d_start || i + 1 == total {
            let ratios: Vec<String> = (0..fa.len())
                .map(|d| match fa.controller(d).staleness_ratio() {
                    Some(r) => format!("{r:.2}"),
                    None => "-".into(),
                })
                .collect();
            eprintln!(
                "[fleet_drift_soak] tick {:>4} (warm={warm_starts}): ratios [{}], gens {:?}, queue {}",
                i + 1,
                ratios.join(" "),
                slots.iter().map(ModelSlot::generation).collect::<Vec<_>>(),
                fa.queue_len(),
            );
        }
    }

    // The fleet-level health rollup (DESIGN.md §15): one snapshot
    // aggregating every device's generation and staleness. The service
    // counters stay zero — this exhibit drives controllers directly, not
    // a request path.
    let snapshot = HealthSnapshot {
        ready: true,
        draining: false,
        queue_depth: 0,
        breaker: BreakerState::Closed,
        submitted: 0,
        served: 0,
        degraded: 0,
        rejected_overloaded: 0,
        rejected_draining: 0,
        rejected_malformed: 0,
        deadline_expired: 0,
        batches: 0,
        model_generation: 0,
        staleness_samples: 0,
        staleness_age: Duration::ZERO,
        fleet: fa.device_generations(),
        cache_hits: 0,
        cache_misses: 0,
        cache_shards: Vec::new(),
    };
    SoakResult {
        generations: slots.iter().map(ModelSlot::generation).collect(),
        models: slots
            .iter()
            .map(|s| s.with_current(|m: &Tp| m.clone()))
            .collect(),
        schedules: streams.iter().map(|s| s.schedule().clone()).collect(),
        now: clock.now(),
        max_wait: fa.max_admission_wait(),
        queue_len: fa.queue_len(),
        rollup_json: snapshot.to_json(),
        audit: fa.audit().to_vec(),
    }
}

/// Scores one device's final serving model against a freshly trained
/// per-device oracle, both on the device's *current* drifted surface.
///
/// The oracle is the "pause this device and re-profile from scratch"
/// alternative: an MLP trained on a separate profiling pass (different
/// seed, same drifted device). The eval fold's targets are scaled to the
/// schedule's current drift — drift multiplies the board, so scaling is
/// exactly what re-measuring would report.
fn eval_device(
    h: &Harness,
    spec: &DeviceSpec,
    schedule: &DriftSchedule,
    now: Duration,
    model: &Tp,
) -> (f64, f64, f64) {
    let started = Instant::now();
    let scale = schedule.scale_at(now);
    let eval_n = if h.quick { 128 } else { 256 };
    let raw = MetricDataset::sample_diverse(&spec.device(), &h.space, Metric::LatencyMs, eval_n, 1);
    let targets: Vec<f64> = raw.targets().iter().map(|t| t * scale).collect();
    let eval = MetricDataset::from_encoding_rows(Metric::LatencyMs, raw.encodings(), &targets);

    let (oracle_n, oracle_epochs) = if h.quick { (192, 50) } else { (384, 100) };
    let board = spec.device();
    let mut probe = DriftStream::resume_at(
        &board,
        &h.space,
        schedule.clone(),
        ORACLE_SEED ^ spec.seed_salt(),
        0,
    )
    .expect("index 0 is always in range");
    let mut encs = Vec::with_capacity(oracle_n);
    let mut obs = Vec::with_capacity(oracle_n);
    for _ in 0..oracle_n {
        let s = probe.next_sample(now);
        encs.push(s.encoding);
        obs.push(s.observed_ms);
    }
    let corpus = MetricDataset::from_encoding_rows(Metric::LatencyMs, &encs, &obs);
    let oracle = MlpPredictor::train(
        &corpus,
        &TrainConfig {
            epochs: oracle_epochs,
            batch_size: 64,
            lr: 1e-3,
            seed: 0,
        },
    );

    let model_rmse = predictor_rmse(model, &eval);
    let oracle_rmse = oracle.rmse(&eval);
    let preds: Vec<f64> = eval
        .encodings()
        .iter()
        .map(|e| model.predict_encoding(e))
        .collect();
    let rho = spearman(&preds, eval.targets());
    eprintln!(
        "[fleet_drift_soak] {} oracle ({oracle_n} rows, {oracle_epochs} epochs) scored in {:.1?}",
        spec.name,
        started.elapsed()
    );
    (model_rmse, oracle_rmse, rho)
}

fn main() -> ExitCode {
    let wall = Instant::now();
    lightnas_tensor::kernels::init_threads_from_env();
    let h = Harness::standard();
    let fleet = DeviceFleet::standard();
    eprintln!("[fleet_drift_soak] harness ready in {:.1?}", wall.elapsed());

    // Initial serving models: the proxy serves its own MLP through the
    // identity map; every target gets the PR 6 transfer (budget-capped
    // few-shot fine-tune + isotonic recalibration).
    let setup = Instant::now();
    let opts = TransferOptions::default();
    let initial: Vec<Tp> = fleet
        .devices()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            if i == PROXY {
                TransferredPredictor::new(h.predictor.clone(), MonotoneMap::identity())
            } else {
                let corpus = MetricDataset::sample_diverse(
                    &spec.device(),
                    &h.space,
                    Metric::LatencyMs,
                    opts.budget,
                    0,
                );
                transfer_predictor(&h.predictor, &corpus, &opts)
            }
        })
        .collect();
    eprintln!(
        "[fleet_drift_soak] {} transferred serving models built in {:.1?}",
        fleet.devices().len(),
        setup.elapsed()
    );

    let b_start = WARMUP;
    let c_start = WARMUP + B_PHASE;
    let d_start = c_start + C_PHASE;
    let total = d_start + D_PHASE;

    let telemetry = Telemetry::create("results/runs", "fleet_drift_soak").ok();
    let soak = Instant::now();
    let primary = run_soak(&h, &fleet, &initial, true, total, telemetry.as_ref());
    eprintln!(
        "[fleet_drift_soak] primary soak ({total} ticks x {} devices) in {:.1?}",
        fleet.devices().len(),
        soak.elapsed()
    );
    // Control arm: same fleet, same chaos, warm starts off; it only has to
    // reach the end of phase B for the samples-to-promote comparison.
    let control = Instant::now();
    let cold_arm = run_soak(&h, &fleet, &initial, false, c_start, None);
    eprintln!(
        "[fleet_drift_soak] cold control arm ({c_start} ticks) in {:.1?}",
        control.elapsed()
    );

    let t_a = tally_range(&primary.audit, 0, b_start);
    let t_b = tally_range(&primary.audit, b_start, c_start);
    let t_c = tally_range(&primary.audit, c_start, d_start);
    let t_d = tally_range(&primary.audit, d_start, total);
    let t_all = tally_range(&primary.audit, 0, total);

    let evals: Vec<(f64, f64, f64)> = fleet
        .devices()
        .iter()
        .zip(&primary.schedules)
        .zip(&primary.models)
        .map(|((spec, schedule), model)| eval_device(&h, spec, schedule, primary.now, model))
        .collect();

    let warm_stp = samples_to_promote(&primary.audit, PHONE, b_start);
    let cold_stp = samples_to_promote(&cold_arm.audit, PHONE, b_start);
    let cold_censored = cold_stp.unwrap_or(B_PHASE);

    println!("fleet drift soak — correlated drift, one retrain pool, warm starts across devices");
    println!(
        "(seed {SEED:#06x}, {total} ticks x {} devices @ {}ms; proxy burst x{PROXY_BURST}, sub-bar phone burst x{PHONE_BURST}, herd x{HERD_BURST} with {STARVE_TICKS}-tick pool freeze, x{SECOND_BURST} + bad deploy)",
        fleet.devices().len(),
        TICK.as_millis()
    );
    println!();
    let mut rows = Vec::new();
    for (name, len, t) in [
        ("A stationary", WARMUP, t_a),
        ("B correlated burst", B_PHASE, t_b),
        ("C herd + starved pool", C_PHASE, t_c),
        ("D bad deploy", D_PHASE, t_d),
    ] {
        rows.push(vec![
            name.to_string(),
            len.to_string(),
            t.flags.to_string(),
            t.queued.to_string(),
            t.retrains.to_string(),
            t.promotions.to_string(),
            t.rollbacks.to_string(),
            t.starved.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "phase",
                "ticks",
                "flags",
                "queued",
                "retrains",
                "promotions",
                "rollbacks",
                "starved ticks"
            ],
            &rows,
        )
    );
    println!();

    let mut rows = Vec::new();
    for (i, (spec, (model_rmse, oracle_rmse, rho))) in
        fleet.devices().iter().zip(&evals).enumerate()
    {
        rows.push(vec![
            spec.name.clone(),
            primary.generations[i].to_string(),
            format!("{model_rmse:.3}"),
            format!("{oracle_rmse:.3}"),
            format!("{:.2}x", model_rmse / oracle_rmse),
            format!("{rho:.3}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "device",
                "generation",
                "final RMSE (ms)",
                "oracle RMSE (ms)",
                "ratio",
                "Spearman"
            ],
            &rows,
        )
    );
    println!();
    println!(
        "phone samples-to-promote after the correlated burst: warm {} vs cold {}",
        warm_stp.map_or("never".into(), |t| t.to_string()),
        cold_stp.map_or_else(|| format!("censored@{B_PHASE}"), |t| t.to_string()),
    );
    println!("fleet health rollup: {}", primary.rollup_json);
    println!();

    let worst_ratio = evals
        .iter()
        .map(|(m, o, _)| m / o)
        .fold(f64::NEG_INFINITY, f64::max);
    let audited_ok = fleet_audit_is_well_formed(fleet.devices().len(), &primary.audit);
    let generations_ok = (0..fleet.devices().len())
        .all(|d| primary.generations[d] == audited_deployments(&primary.audit, d));
    let server_rolled_back = device_event_in(&primary.audit, SERVER, d_start, total, |e| {
        matches!(e, AdaptEvent::RolledBack { .. })
    });
    let server_healed = device_event_in(&primary.audit, SERVER, d_start, total, |e| {
        matches!(e, AdaptEvent::Promoted { .. })
    });
    let proxy_clean_promotion =
        device_event_in(&primary.audit, PROXY, d_start, total, |e| {
            matches!(e, AdaptEvent::Promoted { .. })
        }) && !device_event_in(&primary.audit, PROXY, d_start, total, |e| {
            matches!(e, AdaptEvent::RolledBack { .. })
        });
    let warm_armed = primary
        .audit
        .iter()
        .any(|e| matches!(e, FleetAdaptEvent::WarmStartArmed { source: PROXY, .. }));

    println!("fleet_drift_soak verdicts:");
    let mut pass = true;
    pass &= verdict("stationary warm-up stayed quiet", t_a.flags == 0, "");
    pass &= verdict(
        "correlated burst adapted proxy and phone",
        t_b.promotions >= 2
            && warm_armed
            && samples_to_promote(&primary.audit, PROXY, b_start).is_some_and(|t| t < B_PHASE)
            && warm_stp.is_some_and(|t| t < B_PHASE),
        &format!("{} promotions in B", t_b.promotions),
    );
    pass &= verdict(
        "warm start beat cold on samples-to-promote",
        warm_stp.is_some_and(|w| w < cold_censored),
        &format!(
            "warm {} < cold {}",
            warm_stp.map_or("never".into(), |t| t.to_string()),
            cold_stp.map_or_else(|| format!("censored@{B_PHASE}"), |t| t.to_string()),
        ),
    );
    pass &= verdict(
        "starved pool queued, drained, stayed bounded",
        t_c.starved > 0 && primary.queue_len == 0 && primary.max_wait >= STARVE_TICKS.min(1),
        &format!(
            "{} starved ticks, max wait {}",
            t_c.starved, primary.max_wait
        ),
    );
    pass &= verdict(
        "herd converged after the freeze",
        [EDGE, NANO, SERVER].iter().all(|&d| {
            device_event_in(&primary.audit, d, c_start, d_start, |e| {
                matches!(e, AdaptEvent::Promoted { .. })
            })
        }),
        "",
    );
    pass &= verdict(
        "bad deploy rolled back only its own device",
        server_rolled_back && server_healed && proxy_clean_promotion,
        "server rollback + heal, proxy untouched",
    );
    pass &= verdict(
        &format!("every device within {RMSE_RATIO_BAR:.2}x fresh oracle"),
        worst_ratio <= RMSE_RATIO_BAR,
        &format!("worst {worst_ratio:.2}x"),
    );
    pass &= verdict(
        "no unvalidated shadow served, fleet-wide",
        audited_ok && generations_ok,
        "per-device generation = audited deployments",
    );

    let per_device: Vec<Vec<(&str, String)>> = fleet
        .devices()
        .iter()
        .zip(&evals)
        .enumerate()
        .map(|(i, (spec, (m, o, rho)))| {
            vec![
                ("device", json_str(&spec.name)),
                ("generation", primary.generations[i].to_string()),
                ("final_rmse_ms", format!("{m:.6}")),
                ("oracle_rmse_ms", format!("{o:.6}")),
                ("rmse_ratio", format!("{:.6}", m / o)),
                ("spearman", format!("{rho:.6}")),
            ]
        })
        .collect();
    let json = BenchJson::default()
        .field("seed", SEED)
        .field("quick", h.quick)
        .field("ticks", total)
        .rows("devices", &per_device)
        .field(
            "warm_samples_to_promote",
            warm_stp.map_or("null".into(), |t| t.to_string()),
        )
        .field("cold_samples_to_promote", cold_censored)
        .field("cold_censored", cold_stp.is_none())
        .field("staleness_flags", t_all.flags)
        .field("retrains", t_all.retrains)
        .field("promotions", t_all.promotions)
        .field("rollbacks", t_all.rollbacks)
        .field("pool_starved_ticks", t_all.starved)
        .field("max_admission_wait", primary.max_wait)
        .field("worst_rmse_ratio", format!("{worst_ratio:.6}"))
        .field("pass", pass);
    let _ = write_artifact("BENCH_fleet_drift.json", json.render());
    exit_code("fleet_drift_soak", pass)
}
