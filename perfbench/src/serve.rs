//! `serve_open_loop`: the `PredictorService` front end under an open-loop
//! Poisson generator at fixed absolute rates, then one saturating phase.
//!
//! One generator thread sends on a seeded schedule regardless of how the
//! service keeps up; one service worker (`run_threaded(1)`) answers. Every
//! request is timed from the instant it was *due*, so a stall in the
//! service also charges the requests queued behind it, and a refused
//! request counts as a miss. The saturating phase keeps the queue at the
//! Normal watermark by resubmitting every refused request until admitted;
//! its served rate is the service's throughput ceiling. The service has no
//! predictor cache, so cache changes must not move anything here.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, PoisonError};

use lightnas_predictor::{BatchPredictor, MlpPredictor, Predictor};
use lightnas_runtime::splitmix64;
use lightnas_serve::{
    PredictorService, Priority, Request, ServeError, ServiceConfig, ServingTier, SystemClock,
};
use lightnas_space::Architecture;

use crate::report::{fingerprint, Report};
use crate::stats;
use crate::substrate::Substrate;
use crate::trace;

/// Fixed offered rates (requests/s) and how long each is held (s).
const PHASES: [(f64, f64); 3] = [(1_000.0, 0.1), (3_000.0, 0.1), (6_000.0, 0.4)];

/// Requests sent in the saturating phase.
const SATURATING: usize = 20_000;

/// How long (ns) the saturating generator backs off after a refusal before
/// resubmitting: short against the queue's drain time, long enough not to
/// hammer the queue lock the worker needs.
const BACKOFF_NS: u64 = 20_000;

/// Distinct request encodings the generator draws from.
const POOL: usize = 4096;

/// Served answers checked bit-for-bit against direct strict prediction.
const CHECKED: usize = 256;

/// A send that starts this late (ns) through the generator's own fault —
/// not because the previous `submit` was slow — counts as falling behind.
const OWN_LATE_NS: u64 = 1_000_000;

/// Share of fixed-rate sends allowed to fall behind before the repetition
/// counts as an invalid measurement.
const OWN_LATE_SHARE: f64 = 0.01;

/// The primary model, logging every batch pass's `(start, end)` so each
/// response can be given its completion time, and recording a span per
/// pass when tracing is on.
struct BatchClock<'a> {
    inner: &'a MlpPredictor,
    passes: Mutex<Vec<(u64, u64)>>,
    parent: AtomicU32,
}

impl Predictor for BatchClock<'_> {
    fn predict_encoding(&self, encoding: &[f32]) -> f64 {
        self.inner.predict_encoding(encoding)
    }
    fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
        self.inner.gradient(encoding)
    }
}

impl BatchPredictor for BatchClock<'_> {
    fn predict_encodings(&self, encodings: &[Vec<f32>]) -> Vec<f64> {
        let id = trace::reserve();
        let start = trace::now_ns();
        let out = self.inner.predict_encodings(encodings);
        let end = trace::now_ns();
        trace::record(
            id,
            "serve.model",
            self.parent.load(Ordering::Relaxed),
            start,
            1,
            0,
        );
        self.passes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((start, end));
        out
    }
}

/// One generator send.
#[derive(Debug, Clone, Copy)]
struct Sent {
    /// Phase index (`PHASES.len()` = saturating).
    phase: usize,
    /// Index into the encoding pool.
    encoding: usize,
    due_ns: u64,
    start_ns: u64,
    end_ns: u64,
    /// Service id when admitted.
    id: Option<u64>,
}

fn uniform(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn priority(state: &mut u64) -> Priority {
    match uniform(state) {
        u if u < 0.1 => Priority::High,
        u if u < 0.2 => Priority::Low,
        _ => Priority::Normal,
    }
}

/// Waits until `at` (trace ns): sleeps through long gaps, so the generator
/// leaves the CPU to the service, and spins through the last stretch,
/// which a sleep would overshoot.
fn wait_until(at: u64) {
    const SPIN_NS: u64 = 200_000;
    let now = trace::now_ns();
    if at > now + SPIN_NS {
        std::thread::sleep(std::time::Duration::from_nanos(at - now - SPIN_NS));
    }
    while trace::now_ns() < at {
        std::hint::spin_loop();
    }
}

/// The generator: the Poisson fixed-rate phases, then the saturating phase.
fn generate(
    service: &PredictorService<'_, BatchClock<'_>, lightnas_predictor::LutPredictor>,
    pool: &[Vec<f32>],
    seed: u64,
    root: u32,
) -> (Vec<Sent>, u64, u64) {
    let mut rng = seed;
    let mut sent = Vec::new();
    let mut due = trace::now_ns() + 1_000_000;
    for (phase, &(rate, secs)) in PHASES.iter().enumerate() {
        let end = due + (secs * 1e9) as u64;
        loop {
            due += (-(1.0 - uniform(&mut rng)).ln() / rate * 1e9) as u64;
            if due >= end {
                due = end;
                break;
            }
            let encoding = (splitmix64(&mut rng) % pool.len() as u64) as usize;
            let req = Request::new(pool[encoding].clone()).with_priority(priority(&mut rng));
            wait_until(due);
            let id = trace::reserve();
            let start_ns = trace::now_ns();
            let admitted = service.submit(req).ok();
            let end_ns = trace::now_ns();
            trace::record(id, "serve.submit", root, start_ns, 1, admitted.unwrap_or(0));
            sent.push(Sent {
                phase,
                encoding,
                due_ns: due,
                start_ns,
                end_ns,
                id: admitted,
            });
        }
    }
    let sat_start = trace::now_ns();
    let mut backpressure = 0u64;
    for _ in 0..SATURATING {
        let encoding = (splitmix64(&mut rng) % pool.len() as u64) as usize;
        let start_ns = trace::now_ns();
        let id = loop {
            match service.submit(Request::new(pool[encoding].clone())) {
                Ok(id) => break id,
                Err(ServeError::Overloaded { .. }) => {
                    backpressure += 1;
                    wait_until(trace::now_ns() + BACKOFF_NS);
                }
                Err(_) => unreachable!("an open service only refuses on overload"),
            }
        };
        sent.push(Sent {
            phase: PHASES.len(),
            encoding,
            due_ns: start_ns,
            start_ns,
            end_ns: trace::now_ns(),
            id: Some(id),
        });
    }
    (sent, sat_start, backpressure)
}

pub fn serve_open_loop(seed: u64, setup_only: bool, r: &mut Report) {
    let t = std::time::Instant::now();
    let sub = Substrate::build();
    ServingTier::Strict.activate();
    let mlp = sub.prefit(seed);
    let pool: Vec<Vec<f32>> = (0..POOL as u64)
        .map(|i| Architecture::random(&sub.space, seed ^ (i << 20)).encode())
        .collect();
    r.metric("setup_s", t.elapsed().as_secs_f64());
    if setup_only {
        return;
    }

    let clock = SystemClock::new();
    let model = BatchClock {
        inner: &mlp,
        passes: Mutex::new(Vec::new()),
        parent: AtomicU32::new(0),
    };
    let service = PredictorService::new(&model, &sub.lut, &clock, ServiceConfig::default());
    let root = trace::reserve();
    model.parent.store(root, Ordering::Relaxed);
    let root_start = trace::now_ns();
    let ((sent, sat_start, backpressure), drain) =
        service.run_threaded(1, |svc| generate(svc, &pool, seed, root));
    trace::record(root, "serve_open_loop", 0, root_start, 2, 0);
    let responses = service.take_responses();
    let passes = model
        .passes
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);

    // Responses arrive in batch order from the single worker, one batch
    // pass each: the k-th run of `batch` responses ends at pass k's end.
    let admitted = sent.iter().filter(|s| s.id.is_some()).count();
    let mut done_ns = vec![None; admitted];
    let mut answers = vec![None; admitted];
    let (mut queued_us, mut batches, mut degraded, mut pos) = (Vec::new(), 0usize, 0u64, 0usize);
    let mut stamped = true;
    while pos < responses.len() {
        let Ok(first) = &responses[pos].outcome else {
            stamped = false;
            break;
        };
        let n = first.batch.max(1);
        let Some(&(_, end)) = passes.get(batches) else {
            stamped = false;
            break;
        };
        for served in &responses[pos..(pos + n).min(responses.len())] {
            let Ok(resp) = &served.outcome else {
                stamped = false;
                continue;
            };
            let slot = served.id as usize;
            if slot < admitted {
                done_ns[slot] = Some(end);
                answers[slot] = Some(resp.value);
            }
            queued_us.push(resp.queued.as_secs_f64() * 1e6);
            degraded += u64::from(resp.degraded);
        }
        pos += n;
        batches += 1;
    }
    stamped &= batches == passes.len() && done_ns.iter().all(Option::is_some);

    // Gates.
    r.gate(
        "drain_accounted",
        drain.fully_accounted(),
        format!("{drain:?}"),
    );
    r.gate(
        "completion_stamps",
        stamped,
        format!(
            "{batches} response batches for {} model passes",
            passes.len()
        ),
    );
    r.gate(
        "no_degraded_answers",
        degraded == 0,
        format!("{degraded} degraded"),
    );
    let mut pick = seed ^ 0xC0FFEE;
    let mut mismatched = 0;
    let served: Vec<&Sent> = sent.iter().filter(|s| s.id.is_some()).collect();
    for _ in 0..CHECKED {
        let s = served[(splitmix64(&mut pick) % served.len() as u64) as usize];
        let got =
            s.id.and_then(|id| answers.get(id as usize).copied().flatten());
        let want = mlp.predict_encoding(&pool[s.encoding]);
        if got.map(f64::to_bits) != Some(want.to_bits()) {
            mismatched += 1;
        }
    }
    // The fingerprint covers the model's answers over the request pool,
    // which do not depend on scheduling.
    let bits: Vec<u8> = pool
        .iter()
        .step_by(POOL / CHECKED)
        .flat_map(|e| mlp.predict_encoding(e).to_bits().to_le_bytes())
        .collect();
    r.gate(
        "answers_bit_identical",
        mismatched == 0,
        format!("{mismatched} of {CHECKED} sampled answers differ from strict predict_encoding"),
    );
    r.fingerprints.push(fingerprint(&bits));

    // Fixed-rate phases: latency from due, refusals as misses.
    let mut own_late = 0usize;
    let mut fixed = 0usize;
    let mut prev_end = 0u64;
    for (phase, &(rate, _)) in PHASES.iter().enumerate() {
        let sends: Vec<&Sent> = sent.iter().filter(|s| s.phase == phase).collect();
        let due: Vec<f64> = sends.iter().map(|s| s.due_ns as f64 * 1e-3).collect();
        let done: Vec<Option<f64>> = sends
            .iter()
            .map(|s| {
                s.id.and_then(|id| done_ns[id as usize])
                    .map(|d| d as f64 * 1e-3)
            })
            .collect();
        let lat = stats::latencies_from_due(&due, &done);
        let refused = done.iter().filter(|d| d.is_none()).count();
        let late_max = sends
            .iter()
            .map(|s| s.start_ns.saturating_sub(s.due_ns))
            .max()
            .unwrap_or(0);
        for s in &sends {
            if s.start_ns.saturating_sub(s.due_ns.max(prev_end)) > OWN_LATE_NS {
                own_late += 1;
            }
            prev_end = s.end_ns;
        }
        fixed += sends.len();
        let p99 = stats::percentile(&stats::sorted(&lat), 99.0);
        r.info(format!(
            "rate {rate} rps: {} requests, p50 {:.1} us, p99 {p99:.1} us, refused {refused}, generator max lateness {:.1} us",
            sends.len(),
            stats::median(&lat),
            late_max as f64 * 1e-3
        ));
        if phase == PHASES.len() - 1 {
            r.op_latencies(&format!("request at {rate} rps, from due"), &lat);
            r.info(format!("serve_p50_us = {:.3}", stats::median(&lat)));
            r.info(format!("serve_p99_us = {p99:.3} (of {})", lat.len()));
            r.info(format!(
                "serve_refused_ratio = {:.6}",
                refused as f64 / sends.len().max(1) as f64
            ));
        }
    }
    r.gate(
        "measurement_generator_kept_up",
        (own_late as f64) <= OWN_LATE_SHARE * fixed as f64,
        format!(
            "{own_late} of {fixed} sends more than {} us late through the generator's own fault",
            OWN_LATE_NS / 1000
        ),
    );

    // Saturating phase.
    let sat: Vec<&Sent> = sent.iter().filter(|s| s.phase == PHASES.len()).collect();
    let sat_end = sat
        .iter()
        .filter_map(|s| s.id.and_then(|id| done_ns[id as usize]))
        .max()
        .unwrap_or(sat_start);
    let sat_s = (sat_end - sat_start) as f64 * 1e-9;
    let sat_rps = sat.len() as f64 / sat_s;
    r.work(sat.len() as f64, sat_s);
    r.info(format!(
        "serve_sat_rps = {sat_rps:.1} ({} requests in {sat_s:.4} s, {backpressure} refusals resubmitted)",
        sat.len()
    ));
    // Refusals are admission control shedding load, not failed operations:
    // they are counted as misses in the latencies and reported as
    // `serve_refused_ratio`. A failed operation is a degraded or wrong answer.
    r.count((fixed + sat.len()) as u64, degraded + mismatched);

    if trace::enabled() {
        let submit_us: Vec<f64> = sent
            .iter()
            .filter(|s| s.phase < PHASES.len())
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-3)
            .collect();
        let model_us: Vec<f64> = passes.iter().map(|&(a, b)| (b - a) as f64 * 1e-3).collect();
        let (submit, queued, model) = (
            stats::sorted(&submit_us),
            stats::sorted(&queued_us),
            stats::sorted(&model_us),
        );
        r.metric("serve.submit_us_p50", stats::percentile(&submit, 50.0));
        r.metric("serve.submit_us_p99", stats::percentile(&submit, 99.0));
        r.metric("serve.queue_wait_us_p50", stats::percentile(&queued, 50.0));
        r.metric("serve.queue_wait_us_p99", stats::percentile(&queued, 99.0));
        r.metric(
            "serve.batch_mean",
            queued_us.len() as f64 / batches.max(1) as f64,
        );
        r.metric("serve.model_us_p50", stats::percentile(&model, 50.0));
        r.metric("serve.model_us_p99", stats::percentile(&model, 99.0));
        let model_in_sat: f64 = passes
            .iter()
            .filter(|&&(a, _)| a >= sat_start)
            .map(|&(a, b)| (b - a) as f64 * 1e-9)
            .sum();
        r.metric("serve.frontend_share", 1.0 - model_in_sat / sat_s);
        // Per-row model cost along the worker's saturated passes, where
        // every batch is full and per-row cost compares like for like.
        let mut k = 0;
        let mut per_row = Vec::new();
        let mut pos = 0;
        while pos < responses.len() && k < passes.len() {
            let n = responses[pos]
                .outcome
                .as_ref()
                .map_or(1, |r| r.batch.max(1));
            if passes[k].0 >= sat_start {
                per_row.push((passes[k].1 - passes[k].0) as f64 * 1e-3 / n as f64);
            }
            pos += n;
            k += 1;
        }
        r.metric(
            "predictor.query_growth",
            stats::growth(&per_row).unwrap_or(0.0),
        );
        r.stages(&trace::breakdown(&trace::snapshot(), root));
    }
}
