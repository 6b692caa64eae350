//! `drift_adapt`: a five-device `FleetAdaptation` fed by `DriftStream`
//! ticks on a `VirtualClock`, through scripted correlated drift bursts, a
//! starved retrain pool and a bad deploy — the only workload that reaches
//! `serve::adapt`, `fleet` and `hw::drift`.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use lightnas_fleet::{
    fleet_audit_is_well_formed, transfer_predictor, DeviceFleet, DeviceSpec, FleetAdaptEvent,
    FleetAdaptOptions, FleetAdaptation, MonotoneMap, TransferOptions, TransferredPredictor,
};
use lightnas_hw::{DriftSchedule, DriftStream};
use lightnas_predictor::{Metric, MetricDataset, MlpPredictor, Predictor, TrainConfig};
use lightnas_serve::{AdaptConfig, AdaptEvent, Clock, ModelSlot, VirtualClock};

use crate::report::{fingerprint, Report};
use crate::stats;
use crate::substrate::{Substrate, WORKERS};
use crate::trace;

type Tp = TransferredPredictor<MlpPredictor>;

/// Fleet registry indices (see `DeviceFleet::standard`).
const PHONE: usize = 0;
const EDGE: usize = 1;
const NANO: usize = 2;
const PROXY: usize = 3;
const SERVER: usize = 4;

/// Fleet ticks per repetition (one sample per device per tick).
const TICKS: u64 = 600;

/// Ticks between scripted bursts.
const BURST_EVERY: u64 = 150;

/// Ticks between the proxy's burst and the targets'.
const TARGET_LAG: u64 = 60;

/// Drift step of a burst (alternately applied and undone).
const BURST: f64 = 1.6;

/// Virtual time between ticks.
const TICK: Duration = Duration::from_millis(5);

/// Freshest window samples the warm transfer refits its map on.
const WARM_FOLD: usize = 32;

/// One scripted event.
enum Event {
    /// Multiply the drift of every device in the mask by `scale`.
    Burst { mask: u32, scale: f64 },
    /// Freeze the retrain pool for this many ticks.
    Starve(u64),
    /// Corrupt the device's next deployment by this bias (ms).
    BadDeploy(usize, f64),
}

/// The script, the same for every seed (the seed varies the sampled
/// architectures and noise). Every [`BURST_EVERY`] ticks the fleet drifts,
/// alternately slowing down and recovering: the proxy first, the four
/// targets [`TARGET_LAG`] ticks later, so the proxy's own flag has armed
/// warm starts by the time the targets' windows show the drift. Each burst
/// thus costs one cold retrain (the proxy) and four warm ones. One pool
/// starvation and one bad server deploy ride along.
fn script() -> Vec<(u64, Event)> {
    let mut plan = Vec::new();
    for k in 1..TICKS / BURST_EVERY {
        let scale = if k % 2 == 1 { BURST } else { 1.0 / BURST };
        plan.push((
            k * BURST_EVERY,
            Event::Burst {
                mask: 1 << PROXY,
                scale,
            },
        ));
        let targets = 0b11111 & !(1 << PROXY);
        plan.push((
            k * BURST_EVERY + TARGET_LAG,
            Event::Burst {
                mask: targets,
                scale,
            },
        ));
    }
    plan.push((2 * BURST_EVERY, Event::Starve(40)));
    plan.push((3 * BURST_EVERY, Event::BadDeploy(SERVER, 9.0)));
    plan
}

/// Promotions plus rollbacks audited for `device`: each moves its slot's
/// generation by one.
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

/// Runs one trainer call on a fresh thread, inside a span. The pool runs a
/// lone retrain inline on the ticking thread, and a thread's predictor
/// scratch grows with every fit and query it has run (the growth
/// `predictor.query_growth` exposes on the other workloads); a fresh thread
/// gives every retrain the same starting state, so neither the retrain
/// cost nor the later ticks depend on how many fits happened to land on
/// the ticking thread.
fn isolated<R: Send>(name: &'static str, parent: u32, f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| {
        s.spawn(|| trace::span(name, parent, 1, |_| f()))
            .join()
            .expect("a trainer closure never panics")
    })
}

fn count_events(audit: &[FleetAdaptEvent], pred: impl Fn(&AdaptEvent) -> bool) -> usize {
    audit
        .iter()
        .filter(|e| matches!(e, FleetAdaptEvent::Device { event, .. } if pred(event)))
        .count()
}

pub fn drift_adapt(seed: u64, setup_only: bool, r: &mut Report) {
    let t = Instant::now();
    let sub = Substrate::build();
    let fleet = DeviceFleet::standard();
    let proxy = sub.prefit(seed);
    let opts = TransferOptions::default();
    let initial: Vec<Tp> = fleet
        .devices()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            if i == PROXY {
                TransferredPredictor::new(proxy.clone(), MonotoneMap::identity())
            } else {
                let corpus = MetricDataset::sample_diverse(
                    &spec.device(),
                    &sub.space,
                    Metric::LatencyMs,
                    opts.budget,
                    seed,
                );
                transfer_predictor(&proxy, &corpus, &opts)
            }
        })
        .collect();
    r.metric("setup_s", t.elapsed().as_secs_f64());
    if setup_only {
        return;
    }

    let clock = VirtualClock::new();
    let slots: Vec<ModelSlot<Tp>> = initial.into_iter().map(ModelSlot::new).collect();
    let names: Vec<String> = fleet.devices().iter().map(|d| d.name.clone()).collect();
    let tick_span = AtomicU32::new(0);
    let retrain_cfg = TrainConfig {
        epochs: 100,
        batch_size: 32,
        lr: 1e-3,
        seed: 0,
    };
    // Cold retrain: fine-tune the incumbent's base on the device's window,
    // then refit the map over the new base.
    let cold = |_d: usize, incumbent: &Tp, encs: &[Vec<f32>], obs: &[f64]| {
        isolated(
            "adapt.retrain_cold",
            tick_span.load(Ordering::Relaxed),
            || {
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
            },
        )
    };
    // Warm retrain: rescale the incumbent's map by the drift factor seen on
    // the freshest fold (the fleet's transfer path).
    let warm = |_s: usize, _src: &Tp, _t: usize, inc: &Tp, encs: &[Vec<f32>], obs: &[f64]| {
        isolated(
            "adapt.retrain_warm",
            tick_span.load(Ordering::Relaxed),
            || {
                let skip = encs.len().saturating_sub(WARM_FOLD);
                let (mut num, mut den) = (0.0, 0.0);
                for (e, o) in encs[skip..].iter().zip(&obs[skip..]) {
                    let p = inc.predict_encoding(e);
                    num += p * o;
                    den += p * p;
                }
                let c = num / den;
                let base = inc.base().clone();
                let pairs: Vec<(f64, f64)> = encs
                    .iter()
                    .map(|e| {
                        let bp = base.predict_encoding(e);
                        (bp, c * inc.map().apply(bp))
                    })
                    .collect();
                TransferredPredictor::new(base, MonotoneMap::fit(&pairs))
            },
        )
    };
    let options = FleetAdaptOptions {
        adapt: AdaptConfig {
            promote_margin: 0.90,
            ..AdaptConfig::default()
        },
        max_concurrent_retrains: WORKERS,
        correlated: vec![
            (PROXY, PHONE),
            (PROXY, EDGE),
            (PROXY, NANO),
            (PROXY, SERVER),
        ],
        warm_starts: true,
        warm_ratio_bar: 1.3,
    };
    let mut fa = FleetAdaptation::new(&slots, names, &clock, options, cold).with_warm_trainer(warm);
    let boards: Vec<_> = fleet.devices().iter().map(DeviceSpec::device).collect();
    let mut streams: Vec<DriftStream> = fleet
        .devices()
        .iter()
        .zip(&boards)
        .map(|(spec, board)| {
            DriftStream::new(
                board,
                &sub.space,
                DriftSchedule::stationary(),
                seed ^ spec.seed_salt(),
            )
        })
        .collect();
    let plan = script();

    let root = trace::reserve();
    let (root_start, started) = (trace::now_ns(), Instant::now());
    let mut tick_us = Vec::with_capacity(TICKS as usize);
    for i in 0..TICKS {
        for (_, event) in plan.iter().filter(|(at, _)| *at == i) {
            match *event {
                Event::Burst { mask, scale } => {
                    for (d, stream) in streams.iter_mut().enumerate() {
                        if mask & (1 << d) != 0 {
                            stream.apply_burst(clock.now(), scale);
                        }
                    }
                }
                Event::Starve(ticks) => fa.starve_pool(ticks),
                Event::BadDeploy(device, bias) => fa.arm_bad_deploy(device, bias),
            }
        }
        let samples: Vec<(Vec<f32>, f64)> = streams
            .iter_mut()
            .map(|s| {
                let sample =
                    trace::span("hw.drift_sample", root, 1, |_| s.next_sample(clock.now()));
                (sample.encoding, sample.observed_ms)
            })
            .collect();
        let t = Instant::now();
        trace::span("adapt.ingest_tick", root, 1, |id| {
            tick_span.store(id, Ordering::Relaxed);
            fa.ingest_tick(&samples)
        });
        tick_us.push(t.elapsed().as_secs_f64() * 1e6);
        clock.advance(TICK);
    }
    let wall = started.elapsed().as_secs_f64();
    trace::record(root, "drift_adapt", 0, root_start, 1, 0);

    let audit = fa.audit();
    let n = fa.len();
    let generations_ok = (0..n).all(|d| slots[d].generation() == audited_deployments(audit, d));
    r.gate(
        "fleet_audit",
        fleet_audit_is_well_formed(n, audit),
        "fleet_audit_is_well_formed",
    );
    r.gate(
        "generations_match_audit",
        generations_ok,
        format!(
            "slot generations {:?}",
            slots.iter().map(ModelSlot::generation).collect::<Vec<_>>()
        ),
    );
    r.fingerprints
        .push(fingerprint(format!("{audit:?}").as_bytes()));
    r.count(TICKS, 0);
    r.work(TICKS as f64, wall);
    r.op_latencies("fleet tick (ingest_tick)", &tick_us);
    let worst = (0..n)
        .filter_map(|d| fa.controller(d).staleness_ratio())
        .fold(0.0, f64::max);
    let promotions = count_events(audit, |e| matches!(e, AdaptEvent::Promoted { .. }));
    let rollbacks = count_events(audit, |e| matches!(e, AdaptEvent::RolledBack { .. }));
    let retrains = count_events(audit, |e| matches!(e, AdaptEvent::RetrainStarted { .. }));
    r.info(format!("adapt_ticks_per_s = {:.3}", TICKS as f64 / wall));
    r.info(format!("adapt_worst_staleness = {worst:.4}"));
    r.info(format!(
        "{retrains} retrains, {promotions} promotions, {rollbacks} rollbacks, max pool wait {} ticks",
        fa.max_admission_wait()
    ));

    if trace::enabled() {
        let spans = trace::snapshot();
        let durations = |name: &str| -> Vec<f64> {
            trace::per_thread_us(&spans, name)
                .into_values()
                .flatten()
                .collect()
        };
        let draws = stats::sorted(&durations("hw.drift_sample"));
        if !draws.is_empty() {
            r.metric("hw.drift_sample_us_p50", stats::percentile(&draws, 50.0));
        }
        let ticks = stats::sorted(&tick_us);
        r.metric("adapt.tick_us_p50", stats::percentile(&ticks, 50.0));
        r.metric("adapt.tick_us_p99", stats::percentile(&ticks, 99.0));
        let mut retrain_ms: Vec<f64> = durations("adapt.retrain_cold");
        retrain_ms.extend(durations("adapt.retrain_warm"));
        let retrain_ms: Vec<f64> = stats::sorted(&retrain_ms)
            .iter()
            .map(|us| us * 1e-3)
            .collect();
        r.metric("adapt.retrains", retrain_ms.len() as f64);
        if !retrain_ms.is_empty() {
            r.metric("adapt.retrain_ms_p50", stats::percentile(&retrain_ms, 50.0));
            r.metric("adapt.retrain_ms_p99", stats::percentile(&retrain_ms, 99.0));
        }
        let b = trace::breakdown(&spans, root);
        let retrain_s = b.stages.get("adapt.retrain_cold").unwrap_or(&0.0)
            + b.stages.get("adapt.retrain_warm").unwrap_or(&0.0);
        r.metric("adapt.retrain_share", retrain_s / b.wall_s);
        r.metric("adapt.promotions", promotions as f64);
        r.metric("adapt.rollbacks", rollbacks as f64);
        r.metric("adapt.pool_wait_ticks_max", fa.max_admission_wait() as f64);
        r.stages(&b);
    }
}
