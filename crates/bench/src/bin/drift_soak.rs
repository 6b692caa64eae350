//! `drift_soak` — the drift-safe serving exhibit: a predictor service kept
//! honest, on-line, against a device whose latency surface moves under it.
//!
//! One seeded soak drives the full adaptation loop of DESIGN.md §13 through
//! four scripted regimes on a shared [`VirtualClock`]:
//!
//! * **A — stationary warm-up.** Honest model, honest board. The drift
//!   monitor must stay quiet: zero staleness flags.
//! * **B — drift burst.** A scripted `DriftBurst` steps the device's
//!   latency surface ×1.35 (thermal throttle). The service must *detect*
//!   staleness from windowed residuals, *retrain* a shadow on the live
//!   window, *validate* it on paired traffic, and *promote* it — and the
//!   promoted model must be within 1.10× the RMSE of a freshly trained
//!   oracle (from-scratch MLP given an 8×-larger live corpus), with
//!   Spearman rank correlation ≥ 0.90 against live latency.
//! * **C — stale predictor.** The serving model silently gains a constant
//!   bias (weight corruption) with *no* device drift. Same loop, opposite
//!   cause: the monitor flags, a clean shadow wins validation, and the
//!   promotion heals the corruption.
//! * **D — bad deploy.** A second drift burst provokes a retrain, and a
//!   scripted `BadDeploy` corrupts the *deployed copy* of the validated
//!   shadow. Probation must catch it: an audited rollback, the service
//!   breaker tripped (`rolled_back`) so traffic routes to the LUT for one
//!   cool-down, and — the invariant the whole audit trail exists for —
//!   zero unvalidated predictions ever served.
//!
//! Everything is a function of the seed and the virtual clock, so two runs
//! write byte-identical telemetry to `results/runs/drift_soak.jsonl` (CI
//! `cmp`s them). Raw numbers land in `BENCH_drift.json` at the repo root.
//! Each verdict prints YES/NO and the process exits non-zero below any bar.
//! `LIGHTNAS_QUICK=1` shrinks the harness corpus and oracle, not the
//! scenario. Timings go to stderr; stdout is deterministic.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use lightnas_bench::{exit_code, render_table, verdict, write_artifact, BenchJson, Harness};
use lightnas_hw::{DriftSchedule, DriftStream};
use lightnas_predictor::{Metric, MetricDataset, MlpPredictor, TrainConfig};
use lightnas_runtime::Telemetry;
use lightnas_serve::{
    audit_is_well_formed, spearman, AdaptConfig, AdaptEvent, AdaptStatus, AdaptationController,
    Clock, ModelSlot, PredictorService, Request, ServiceConfig, VirtualClock,
};

/// Stream seed: architectures and measurement noise both derive from it.
const SEED: u64 = 0xD81F;
/// Oracle corpus seed — a *different* profiling pass, not the live stream.
const ORACLE_SEED: u64 = SEED ^ 0x5EED;
/// Virtual time between live samples.
const TICK: Duration = Duration::from_millis(5);

/// Phase lengths, in samples. The scenario is the same in quick mode —
/// adaptation windows are sample-counted, so shrinking it would change the
/// claim, not just the cost.
const WARMUP: u64 = 96;
const DRIFT_PHASE: u64 = 256;
const STALE_PHASE: u64 = 160;
const DEPLOY_PHASE: u64 = 192;

/// Phase-B thermal-throttle burst.
const DRIFT_SCALE: f64 = 1.35;
/// Phase-C serving-model corruption: bias and how many sample ticks it
/// lasts (promotion clears it earlier).
const STALE_BIAS_MS: f64 = 6.0;
const STALE_TICKS: u64 = 200;
/// Phase-D: second burst plus a corrupted deployment of the next shadow.
const SECOND_DRIFT_SCALE: f64 = 1.25;
const BAD_DEPLOY_BIAS_MS: f64 = 9.0;

/// Acceptance bars (ISSUE / EXPERIMENTS.md).
const RMSE_RATIO_BAR: f64 = 1.10;
const SPEARMAN_BAR: f64 = 0.90;

/// One scripted scenario step.
enum Event {
    /// The device's latency surface steps by this factor (thermal
    /// throttle, power-mode flip) — the drift the monitor must detect.
    DriftBurst(f64),
    /// The serving model silently gains `bias_ms` for `ticks` sample ticks
    /// (weight corruption) — staleness with no device drift at all.
    StalePredictor { bias_ms: f64, ticks: u64 },
    /// The next promotion deploys a copy of the validated shadow whose
    /// predictions gain this bias (ms) — the failure rollback exists for.
    BadDeploy(f64),
}

/// Cumulative audit-trail counts at a phase boundary.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    flags: u64,
    retrains: u64,
    promotions: u64,
    rollbacks: u64,
}

fn tally(audit: &[AdaptEvent]) -> Tally {
    let mut t = Tally::default();
    for e in audit {
        match e {
            AdaptEvent::StalenessDetected { .. } => t.flags += 1,
            AdaptEvent::RetrainStarted { .. } => t.retrains += 1,
            AdaptEvent::ShadowValidated { .. } => {}
            AdaptEvent::Promoted { .. } => t.promotions += 1,
            AdaptEvent::RolledBack { .. } => t.rollbacks += 1,
        }
    }
    t
}

fn main() -> ExitCode {
    let wall = Instant::now();
    let h = Harness::standard();
    let incumbent_rmse = h.predictor.rmse(&h.valid);
    eprintln!(
        "[drift_soak] harness ready in {:.1?}; incumbent validation RMSE {incumbent_rmse:.3} ms",
        wall.elapsed()
    );

    let clock = VirtualClock::new();
    let telemetry = Telemetry::create("results/runs", "drift_soak").ok();
    let slot = ModelSlot::new(h.predictor.clone());
    let status = AdaptStatus::new();

    let svc = PredictorService::new(&slot, &h.lut, &clock, ServiceConfig::default())
        .with_adapt_status(&status);
    let svc = match telemetry.as_ref() {
        Some(t) => svc.with_telemetry(t),
        None => svc,
    };

    // The shadow trainer: fine-tune the incumbent on the live window via
    // the fast training step (keeps the incumbent's input standardization —
    // the window is far too small to re-estimate it).
    let retrain_cfg = TrainConfig {
        epochs: 400,
        batch_size: 32,
        lr: 1e-3,
        seed: 0,
    };
    let trainer = |incumbent: &MlpPredictor, encs: &[Vec<f32>], obs: &[f64]| {
        let window = MetricDataset::from_encoding_rows(Metric::LatencyMs, encs, obs);
        incumbent.fine_tune_incremental(&window, &retrain_cfg)
    };
    // No pre-set baseline: the stationary warm-up self-calibrates the
    // monitor from the first full live window. (The incumbent's *validation*
    // RMSE is not the right floor — live samples carry independent
    // measurement noise, so the healthy live residual sits well above it.)
    // The tightened promote margin makes marginal retrains fail validation,
    // which is what re-anchors the baseline and quiesces the loop once the
    // shadow is as good as a 64-sample window can make it.
    let adapt_cfg = AdaptConfig {
        promote_margin: 0.85,
        ..AdaptConfig::default()
    };
    let ctl = AdaptationController::new(&slot, &clock, adapt_cfg)
        .with_breaker(svc.breaker())
        .with_status(&status);
    let mut ctl = match telemetry.as_ref() {
        Some(t) => ctl.with_telemetry(t),
        None => ctl,
    };

    let c_start = WARMUP + DRIFT_PHASE;
    let d_start = c_start + STALE_PHASE;
    let total = d_start + DEPLOY_PHASE;
    // Same-tick steps run in list order.
    let script = [
        (WARMUP, Event::DriftBurst(DRIFT_SCALE)),
        (
            c_start,
            Event::StalePredictor {
                bias_ms: STALE_BIAS_MS,
                ticks: STALE_TICKS,
            },
        ),
        (d_start, Event::BadDeploy(BAD_DEPLOY_BIAS_MS)),
        (d_start, Event::DriftBurst(SECOND_DRIFT_SCALE)),
    ];

    let mut stream = DriftStream::new(&h.device, &h.space, DriftSchedule::stationary(), SEED);
    let soak = Instant::now();
    let (mut t_a, mut t_b, mut t_c) = (Tally::default(), Tally::default(), Tally::default());
    let mut b_eval: Option<(f64, f64, f64)> = None; // (promoted, oracle, spearman)

    for i in 0..total {
        for (_, event) in script.iter().filter(|(at, _)| *at == i) {
            match *event {
                Event::DriftBurst(scale) => stream.apply_burst(clock.now(), scale),
                // Each tick consumes two slot predictions (serve + ingest),
                // so a tick budget is twice that many predictions.
                Event::StalePredictor { bias_ms, ticks } => {
                    slot.inject_bias(bias_ms, ticks.saturating_mul(2));
                }
                Event::BadDeploy(bias_ms) => ctl.arm_bad_deploy(bias_ms),
            }
        }
        let s = stream.next_sample(clock.now());
        svc.submit(Request::new(s.encoding.clone()))
            .expect("soak never exceeds the admission watermark");
        svc.pump();
        ctl.ingest(&s.encoding, s.observed_ms);
        // A flag parks the controller: retrain on the live window and
        // install the shadow at the same sample and clock instant.
        if ctl.awaiting_retrain() {
            let (encs, obs) = ctl.retrain_window();
            ctl.install_shadow(slot.with_current(|m| trainer(m, &encs, &obs)));
        }
        clock.advance(TICK);

        if i + 1 == WARMUP {
            t_a = tally(ctl.audit());
        } else if i + 1 == c_start {
            t_b = tally(ctl.audit());
            b_eval = Some(eval_promoted_vs_oracle(&h, &slot, &stream, &clock));
        } else if i + 1 == d_start {
            t_c = tally(ctl.audit());
        }
    }
    let t_final = tally(ctl.audit());
    let report = svc.drain();
    eprintln!(
        "[drift_soak] {total} samples soaked in {:.1?} ({} retrains)",
        soak.elapsed(),
        t_final.retrains
    );

    let (promoted_rmse, oracle_rmse, rho) = b_eval.expect("phase B completed");
    let rmse_ratio = promoted_rmse / oracle_rmse;
    let health = svc.health();
    let routed = svc.fallback().degraded_routed();

    println!("drift soak — online adaptation under scripted drift, staleness, and a bad deploy");
    println!(
        "(seed {SEED:#06x}, {total} samples @ {}ms ticks; bursts ×{DRIFT_SCALE} and ×{SECOND_DRIFT_SCALE}, stale bias {STALE_BIAS_MS} ms, bad-deploy bias {BAD_DEPLOY_BIAS_MS} ms)",
        TICK.as_millis()
    );
    println!();
    let span = |hi: Tally, lo: Tally| {
        vec![
            (hi.flags - lo.flags).to_string(),
            (hi.retrains - lo.retrains).to_string(),
            (hi.promotions - lo.promotions).to_string(),
            (hi.rollbacks - lo.rollbacks).to_string(),
        ]
    };
    let mut rows = Vec::new();
    for (name, samples, hi, lo) in [
        ("A stationary", WARMUP, t_a, Tally::default()),
        ("B drift burst", DRIFT_PHASE, t_b, t_a),
        ("C stale model", STALE_PHASE, t_c, t_b),
        ("D bad deploy", DEPLOY_PHASE, t_final, t_c),
    ] {
        let mut row = vec![name.to_string(), samples.to_string()];
        row.extend(span(hi, lo));
        rows.push(row);
    }
    println!(
        "{}",
        render_table(
            &[
                "phase",
                "samples",
                "flags",
                "retrains",
                "promotions",
                "rollbacks"
            ],
            &rows,
        )
    );
    println!();
    println!(
        "post-burst eval: promoted RMSE {promoted_rmse:.3} ms vs oracle {oracle_rmse:.3} ms (ratio {rmse_ratio:.2}×), Spearman {rho:.3}"
    );
    println!(
        "health: generation {}, {} samples since promotion, breaker {}, {} requests routed to LUT",
        health.model_generation, health.staleness_samples, health.breaker, routed
    );
    println!();

    let audited_ok = audit_is_well_formed(ctl.audit());
    let generation_ok = slot.generation() == t_final.promotions + t_final.rollbacks;
    println!("drift_soak verdicts:");
    let mut pass = true;
    pass &= verdict("stationary warm-up stayed quiet", t_a.flags == 0, "");
    pass &= verdict(
        "drift burst detected and promoted",
        t_b.flags > t_a.flags && t_b.promotions > 0 && t_b.rollbacks == 0,
        &format!("{} flags, {} promotions", t_b.flags, t_b.promotions),
    );
    pass &= verdict(
        &format!("post-promotion RMSE <= {RMSE_RATIO_BAR:.2}x oracle"),
        rmse_ratio <= RMSE_RATIO_BAR,
        &format!("{rmse_ratio:.2}x"),
    );
    pass &= verdict(
        &format!("post-promotion Spearman >= {SPEARMAN_BAR:.2}"),
        rho >= SPEARMAN_BAR,
        &format!("{rho:.3}"),
    );
    pass &= verdict(
        "stale predictor healed by promotion",
        t_c.flags > t_b.flags && t_c.promotions > t_b.promotions && t_c.rollbacks == t_b.rollbacks,
        "",
    );
    pass &= verdict(
        "bad deploy rolled back and routed to LUT",
        t_final.rollbacks > t_c.rollbacks && routed > 0,
        &format!("{} rollback(s), {} routed", t_final.rollbacks, routed),
    );
    pass &= verdict(
        "no unvalidated shadow ever served",
        audited_ok && generation_ok,
        &format!("generation {} = audited deployments", slot.generation()),
    );
    pass &= verdict(
        "drain fully accounted",
        report.fully_accounted(),
        &format!("{} served", report.served),
    );

    let json = BenchJson::default()
        .field("seed", SEED)
        .field("quick", h.quick)
        .field("samples", total)
        .field("incumbent_rmse_ms", format!("{incumbent_rmse:.6}"))
        .field("promoted_rmse_ms", format!("{promoted_rmse:.6}"))
        .field("oracle_rmse_ms", format!("{oracle_rmse:.6}"))
        .field("rmse_ratio", format!("{rmse_ratio:.6}"))
        .field("spearman", format!("{rho:.6}"))
        .field("staleness_flags", t_final.flags)
        .field("retrains", t_final.retrains)
        .field("promotions", t_final.promotions)
        .field("rollbacks", t_final.rollbacks)
        .field("final_generation", slot.generation())
        .field("degraded_routed", routed)
        .field("served", report.served)
        .field("pass", pass);
    let _ = write_artifact("BENCH_drift.json", json.render());
    exit_code("drift_soak", pass)
}

/// The phase-B bar: how close is the adapted serving model to a freshly
/// trained oracle, on the *drifted* validation surface?
///
/// The oracle is an MLP trained from scratch on a separate live profiling
/// pass (different seed, same drifted device, 8× the adaptation window) —
/// the "pause production and re-profile" alternative the adaptation layer
/// exists to avoid. Both models are scored on the harness validation fold
/// with targets scaled to the current drift (drift multiplies the board, so
/// scaling targets is exactly what re-measuring would report).
fn eval_promoted_vs_oracle(
    h: &Harness,
    slot: &ModelSlot<MlpPredictor>,
    stream: &DriftStream,
    clock: &VirtualClock,
) -> (f64, f64, f64) {
    let started = Instant::now();
    let now = clock.now();
    let scale = stream.schedule().scale_at(now);
    let targets: Vec<f64> = h.valid.targets().iter().map(|t| t * scale).collect();
    let eval = MetricDataset::from_encoding_rows(Metric::LatencyMs, h.valid.encodings(), &targets);

    let (oracle_n, oracle_epochs) = if h.quick { (256, 60) } else { (512, 150) };
    let mut probe = DriftStream::resume_at(
        &h.device,
        &h.space,
        stream.schedule().clone(),
        ORACLE_SEED,
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

    let promoted_rmse = slot.with_current(|m| m.rmse(&eval));
    let oracle_rmse = oracle.rmse(&eval);
    let preds = slot.with_current(|m| m.predict_all(&eval));
    let rho = spearman(&preds, eval.targets());
    eprintln!(
        "[drift_soak] oracle ({oracle_n} rows, {oracle_epochs} epochs) trained and scored in {:.1?}",
        started.elapsed()
    );
    (promoted_rmse, oracle_rmse, rho)
}
