//! The service: admission → bounded queue → coalesced batches → breaker-
//! guarded primary → typed responses, with graceful drain.
//!
//! [`PredictorService`] is the front door a search driver (or anything else
//! that wants latency estimates) talks to under load. The life of a request:
//!
//! 1. **Admission** ([`submit`](PredictorService::submit)): encodings that
//!    are no architecture's, past-due deadlines and over-watermark queues
//!    are rejected *at the door* with a typed [`ServeError`] — never
//!    silently dropped.
//! 2. **Coalescing**: a worker pulls up to `max_batch` queued requests and
//!    answers them in one [`BatchPredictor`] pass (bit-identical to the
//!    scalar path, so batching changes throughput, never values).
//! 3. **Guarding**: the [`CircuitBreaker`] decides whether the batch may
//!    touch the primary at all. Failed rows get a scalar retry budget, then
//!    degrade to the fallback via
//!    [`FallbackPredictor::degrade_encoding`] — which is what makes the
//!    service's degraded-count and the fallback's own counters agree by
//!    construction.
//! 4. **Drain** ([`drain`](PredictorService::drain) /
//!    [`run_threaded`](PredictorService::run_threaded)): admission closes,
//!    every already-admitted request is still answered, and the final
//!    telemetry line carries the full accounting.
//!
//! Two execution modes share all of that logic: the single-threaded
//! [`pump`](PredictorService::pump) loop (deterministic — the chaos soak
//! byte-compares its telemetry across runs) and a scoped worker pool
//! ([`run_threaded`](PredictorService::run_threaded)) for wall-clock
//! throughput.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use lightnas_predictor::{
    parse_encoding, BatchPredictor, DegradeCause, FallbackPredictor, Predictor,
};
use lightnas_runtime::{events, Field, Telemetry};

use crate::adapt::AdaptStatus;
use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::clock::Clock;
use crate::error::ServeError;
use crate::health::HealthSnapshot;
use crate::queue::{AdmissionPolicy, AdmissionQueue, Priority};

/// Knobs of one [`PredictorService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Queue bound and per-priority watermarks.
    pub admission: AdmissionPolicy,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Most requests coalesced into one predictor pass. Default: 8.
    pub max_batch: usize,
    /// Scalar primary retries a failed row gets before degrading to the
    /// fallback. Default: 1.
    pub retry_budget: usize,
    /// Deadline stamped on requests that carry none (relative to
    /// submission). `None` = such requests never expire. Default: `None`.
    pub default_deadline: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            admission: AdmissionPolicy::default(),
            breaker: BreakerConfig::default(),
            max_batch: 8,
            retry_budget: 1,
            default_deadline: None,
        }
    }
}

/// One latency query.
#[derive(Debug, Clone)]
pub struct Request {
    /// The architecture encoding `ᾱ` to predict for.
    pub encoding: Vec<f32>,
    /// Admission-control priority.
    pub priority: Priority,
    /// Absolute service-clock deadline; `None` falls back to
    /// [`ServiceConfig::default_deadline`].
    pub deadline: Option<Duration>,
}

impl Request {
    /// A normal-priority request with no explicit deadline.
    pub fn new(encoding: Vec<f32>) -> Self {
        Self {
            encoding,
            priority: Priority::Normal,
            deadline: None,
        }
    }

    /// Same request at `priority`.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Same request due at `deadline` (absolute service-clock time).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// A served answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The predicted metric.
    pub value: f64,
    /// Whether the fallback answered (any [`DegradeCause`]).
    pub degraded: bool,
    /// Size of the coalesced batch this request rode in.
    pub batch: usize,
    /// Time spent queued before processing began.
    pub queued: Duration,
}

/// The final word on one admitted request.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// The id [`submit`](PredictorService::submit) returned.
    pub id: u64,
    /// Answer, or a typed failure ([`ServeError::Deadline`] is the only
    /// post-admission failure — admission errors are returned by `submit`).
    pub outcome: Result<Response, ServeError>,
}

/// Final accounting of a drained service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests ever submitted.
    pub submitted: u64,
    /// Requests answered with a value.
    pub served: u64,
    /// Answers that came from the fallback.
    pub degraded: u64,
    /// Deadline expiries (admission + in-queue).
    pub deadline_expired: u64,
    /// Admission-control rejections.
    pub rejected_overloaded: u64,
    /// Rejections after the drain began.
    pub rejected_draining: u64,
    /// Requests refused because their encoding is no architecture's.
    pub rejected_malformed: u64,
}

impl DrainReport {
    /// Nothing silently dropped: every submission is in exactly one bucket.
    pub fn fully_accounted(&self) -> bool {
        self.submitted
            == self.served
                + self.deadline_expired
                + self.rejected_overloaded
                + self.rejected_draining
                + self.rejected_malformed
    }
}

#[derive(Debug)]
struct Ticket {
    id: u64,
    encoding: Vec<f32>,
    deadline: Option<Duration>,
    submitted: Duration,
}

#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    served: AtomicU64,
    degraded: AtomicU64,
    deadline_expired: AtomicU64,
    rejected_overloaded: AtomicU64,
    rejected_draining: AtomicU64,
    rejected_malformed: AtomicU64,
    batches: AtomicU64,
}

fn us(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// The overload-safe serving layer over a primary [`BatchPredictor`] and a
/// fallback [`Predictor`] (canonically the trained MLP and the closed-form
/// LUT).
#[derive(Debug)]
pub struct PredictorService<'a, P: Predictor, F: Predictor> {
    fb: FallbackPredictor<'a, P, F>,
    clock: &'a dyn Clock,
    config: ServiceConfig,
    queue: AdmissionQueue<Ticket>,
    breaker: CircuitBreaker,
    telemetry: Option<&'a Telemetry>,
    adapt: Option<&'a AdaptStatus>,
    next_id: AtomicU64,
    responses: Mutex<Vec<Served>>,
    counters: Counters,
}

impl<'a, P: BatchPredictor, F: Predictor> PredictorService<'a, P, F> {
    /// A service over `primary` with `fallback` as the degradation target,
    /// telling time through `clock`.
    pub fn new(
        primary: &'a P,
        fallback: &'a F,
        clock: &'a dyn Clock,
        config: ServiceConfig,
    ) -> Self {
        Self {
            fb: FallbackPredictor::new(primary, fallback),
            clock,
            queue: AdmissionQueue::new(config.admission.clone()),
            breaker: CircuitBreaker::new(config.breaker.clone()),
            config,
            telemetry: None,
            adapt: None,
            next_id: AtomicU64::new(0),
            responses: Mutex::new(Vec::new()),
            counters: Counters::default(),
        }
    }

    /// Narrates every admission, rejection, batch, breaker transition, and
    /// drain to `telemetry` (events from
    /// [`lightnas_runtime::events`]).
    pub fn with_telemetry(mut self, telemetry: &'a Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Surfaces the adaptation layer's generation/staleness counters in
    /// [`health`](Self::health) — share the [`AdaptStatus`] instance with
    /// the `AdaptationController` driving the model slot. Without this,
    /// the snapshot's adaptation fields stay at their (serialization-
    /// invisible) defaults.
    pub fn with_adapt_status(mut self, status: &'a AdaptStatus) -> Self {
        self.adapt = Some(status);
        self
    }

    /// The service's circuit breaker — exposed so the adaptation layer can
    /// force a cool-down (`CircuitBreaker::trip`) when it rolls a
    /// promotion back.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    fn emit(&self, event: &str, fields: &[(&str, Field)]) {
        if let Some(t) = self.telemetry {
            t.emit(event, fields);
        }
    }

    /// The wrapped fallback predictor — its per-cause degradation counters
    /// are the ground truth the service's own telemetry must (and does)
    /// match.
    pub fn fallback(&self) -> &FallbackPredictor<'a, P, F> {
        &self.fb
    }

    /// Offers one request for admission. `Ok(id)` means the service *will*
    /// answer it (value or typed deadline expiry) — admitted requests are
    /// never dropped, even across a drain.
    ///
    /// # Errors
    ///
    /// [`ServeError::Malformed`] when the encoding is no architecture's,
    /// [`ServeError::Overloaded`] past the priority's watermark,
    /// [`ServeError::Deadline`] when the request is already past due, and
    /// [`ServeError::Draining`] after [`drain`](Self::drain) began.
    pub fn submit(&self, req: Request) -> Result<u64, ServeError> {
        let now = self.clock.now();
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = parse_encoding(&req.encoding) {
            self.counters
                .rejected_malformed
                .fetch_add(1, Ordering::Relaxed);
            self.emit(
                events::SERVE_REJECTED,
                &[
                    ("t_us", Field::U(us(now))),
                    ("reason", Field::S("malformed".into())),
                    ("priority", Field::S(req.priority.tag().into())),
                ],
            );
            return Err(ServeError::Malformed(e));
        }
        let deadline = req
            .deadline
            .or_else(|| self.config.default_deadline.map(|d| now + d));
        if let Some(d) = deadline {
            if now > d {
                self.counters
                    .deadline_expired
                    .fetch_add(1, Ordering::Relaxed);
                self.emit(
                    events::SERVE_REJECTED,
                    &[
                        ("t_us", Field::U(us(now))),
                        ("reason", Field::S("deadline".into())),
                        ("priority", Field::S(req.priority.tag().into())),
                    ],
                );
                return Err(ServeError::Deadline { deadline: d, now });
            }
        }
        let mut id = 0;
        let priority = req.priority;
        let encoding = req.encoding;
        let admitted = self.queue.admit_with(priority, || {
            id = self.next_id.fetch_add(1, Ordering::Relaxed);
            Ticket {
                id,
                encoding,
                deadline,
                submitted: now,
            }
        });
        match admitted {
            Ok(depth) => {
                self.emit(
                    events::SERVE_ADMITTED,
                    &[
                        ("t_us", Field::U(us(now))),
                        ("id", Field::U(id)),
                        ("depth", Field::U(depth as u64)),
                        ("priority", Field::S(priority.tag().into())),
                    ],
                );
                Ok(id)
            }
            Err(e) => {
                match &e {
                    ServeError::Overloaded { .. } => self
                        .counters
                        .rejected_overloaded
                        .fetch_add(1, Ordering::Relaxed),
                    ServeError::Draining => self
                        .counters
                        .rejected_draining
                        .fetch_add(1, Ordering::Relaxed),
                    ServeError::Deadline { .. } | ServeError::Malformed(_) => {
                        unreachable!("admission returns only Overloaded or Draining")
                    }
                };
                self.emit(
                    events::SERVE_REJECTED,
                    &[
                        ("t_us", Field::U(us(now))),
                        ("reason", Field::S(e.tag().into())),
                        ("depth", Field::U(self.queue.depth() as u64)),
                        ("priority", Field::S(priority.tag().into())),
                    ],
                );
                Err(e)
            }
        }
    }

    /// Resolves one row of `encoding` given its batch-pass result (`None` =
    /// the batch panicked before producing values): scalar retries against
    /// the primary up to the budget, then a counted degradation.
    fn resolve_row(&self, encoding: &[f32], first: Option<f64>, now: Duration) -> (f64, bool) {
        let mut cause = match first {
            Some(v) if v.is_finite() => {
                self.breaker.record_success(now);
                return (v, false);
            }
            Some(_) => DegradeCause::NonFinite,
            None => DegradeCause::Panic,
        };
        for _ in 0..self.config.retry_budget {
            let retried = catch_unwind(AssertUnwindSafe(|| {
                self.fb.primary().predict_encoding(encoding)
            }));
            match retried {
                Ok(v) if v.is_finite() => {
                    self.breaker.record_success(now);
                    return (v, false);
                }
                Ok(_) => cause = DegradeCause::NonFinite,
                Err(_) => cause = DegradeCause::Panic,
            }
        }
        self.breaker.record_failure(now);
        self.counters.degraded.fetch_add(1, Ordering::Relaxed);
        (self.fb.degrade_encoding(encoding, cause), true)
    }

    fn process_batch(&self, tickets: Vec<Ticket>) {
        let now = self.clock.now();
        let mut served = Vec::with_capacity(tickets.len());
        let mut live = Vec::with_capacity(tickets.len());
        let mut encodings: Vec<Vec<f32>> = Vec::with_capacity(tickets.len());
        for mut t in tickets {
            match t.deadline {
                Some(d) if now > d => {
                    self.counters
                        .deadline_expired
                        .fetch_add(1, Ordering::Relaxed);
                    self.emit(
                        events::SERVE_DEADLINE,
                        &[
                            ("t_us", Field::U(us(now))),
                            ("id", Field::U(t.id)),
                            ("due_us", Field::U(us(d))),
                        ],
                    );
                    served.push(Served {
                        id: t.id,
                        outcome: Err(ServeError::Deadline { deadline: d, now }),
                    });
                }
                _ => {
                    encodings.push(std::mem::take(&mut t.encoding));
                    live.push(t);
                }
            }
        }
        if !live.is_empty() {
            let size = live.len();
            let primary_allowed = self.breaker.try_acquire(now);
            let mut degraded_rows = 0u64;
            let rows: Vec<(f64, bool)> = if primary_allowed {
                let batch_pass = catch_unwind(AssertUnwindSafe(|| {
                    self.fb.primary().predict_encodings(&encodings)
                }))
                .ok();
                encodings
                    .iter()
                    .enumerate()
                    .map(|(k, e)| self.resolve_row(e, batch_pass.as_ref().map(|vs| vs[k]), now))
                    .collect()
            } else {
                encodings
                    .iter()
                    .map(|e| {
                        self.counters.degraded.fetch_add(1, Ordering::Relaxed);
                        (self.fb.degrade_encoding(e, DegradeCause::Routed), true)
                    })
                    .collect()
            };
            self.counters.batches.fetch_add(1, Ordering::Relaxed);
            for (t, (value, degraded)) in live.iter().zip(&rows) {
                degraded_rows += u64::from(*degraded);
                self.counters.served.fetch_add(1, Ordering::Relaxed);
                self.emit(
                    events::SERVE_DONE,
                    &[
                        ("t_us", Field::U(us(now))),
                        ("id", Field::U(t.id)),
                        ("value", Field::F(*value)),
                        ("degraded", Field::B(*degraded)),
                        ("batch", Field::U(size as u64)),
                        ("queued_us", Field::U(us(now.saturating_sub(t.submitted)))),
                    ],
                );
                served.push(Served {
                    id: t.id,
                    outcome: Ok(Response {
                        value: *value,
                        degraded: *degraded,
                        batch: size,
                        queued: now.saturating_sub(t.submitted),
                    }),
                });
            }
            self.emit(
                events::SERVE_BATCH,
                &[
                    ("t_us", Field::U(us(now))),
                    ("size", Field::U(size as u64)),
                    ("degraded", Field::U(degraded_rows)),
                    ("primary", Field::B(primary_allowed)),
                ],
            );
        }
        for tr in self.breaker.take_transitions() {
            self.emit(
                events::BREAKER_TRANSITION,
                &[
                    ("t_us", Field::U(us(tr.at))),
                    ("from", Field::S(tr.from.to_string())),
                    ("to", Field::S(tr.to.to_string())),
                    ("reason", Field::S(tr.reason.into())),
                ],
            );
        }
        let mut out = self
            .responses
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        out.extend(served);
    }

    /// Serves one coalesced batch synchronously; returns how many requests
    /// it handled (0 = the queue was empty). A deterministic single-
    /// threaded pump loop is what the chaos soak byte-compares.
    pub fn pump(&self) -> usize {
        let batch = self.queue.pop_batch(self.config.max_batch);
        let n = batch.len();
        if n > 0 {
            self.process_batch(batch);
        }
        n
    }

    /// Completed outcomes accumulated since the last call, in completion
    /// order.
    pub fn take_responses(&self) -> Vec<Served> {
        std::mem::take(
            &mut *self
                .responses
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Point-in-time health/readiness.
    pub fn health(&self) -> HealthSnapshot {
        let draining = self.queue.is_draining();
        let now = self.clock.now();
        let (model_generation, staleness_samples, staleness_age) = match self.adapt {
            Some(s) => (
                s.generation(),
                s.samples_since_promotion(),
                now.saturating_sub(s.promoted_at()),
            ),
            None => (0, 0, Duration::ZERO),
        };
        HealthSnapshot {
            ready: !draining,
            draining,
            queue_depth: self.queue.depth(),
            breaker: self.breaker.state(now),
            model_generation,
            staleness_samples,
            staleness_age,
            // Single-device service: the fleet rollup is always empty here
            // (FleetAdaptation aggregates its own snapshots).
            fleet: Vec::new(),
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            served: self.counters.served.load(Ordering::Relaxed),
            degraded: self.counters.degraded.load(Ordering::Relaxed),
            rejected_overloaded: self.counters.rejected_overloaded.load(Ordering::Relaxed),
            rejected_draining: self.counters.rejected_draining.load(Ordering::Relaxed),
            rejected_malformed: self.counters.rejected_malformed.load(Ordering::Relaxed),
            deadline_expired: self.counters.deadline_expired.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
            // The query service answers through the breaker-guarded model
            // slot, not a predictor cache; the cache block stays invisible.
            cache_hits: 0,
            cache_misses: 0,
            cache_shards: Vec::new(),
        }
    }

    fn drain_report(&self) -> DrainReport {
        let report = DrainReport {
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            served: self.counters.served.load(Ordering::Relaxed),
            degraded: self.counters.degraded.load(Ordering::Relaxed),
            deadline_expired: self.counters.deadline_expired.load(Ordering::Relaxed),
            rejected_overloaded: self.counters.rejected_overloaded.load(Ordering::Relaxed),
            rejected_draining: self.counters.rejected_draining.load(Ordering::Relaxed),
            rejected_malformed: self.counters.rejected_malformed.load(Ordering::Relaxed),
        };
        let mut fields = vec![
            ("t_us", Field::U(us(self.clock.now()))),
            ("submitted", Field::U(report.submitted)),
            ("served", Field::U(report.served)),
            ("degraded", Field::U(report.degraded)),
            ("deadline_expired", Field::U(report.deadline_expired)),
            ("rejected_overloaded", Field::U(report.rejected_overloaded)),
            ("rejected_draining", Field::U(report.rejected_draining)),
        ];
        // Written only when nonzero, so a stream without malformed requests
        // keeps its bytes.
        if report.rejected_malformed > 0 {
            fields.push(("rejected_malformed", Field::U(report.rejected_malformed)));
        }
        self.emit(events::SERVE_DRAINED, &fields);
        report
    }

    /// Graceful shutdown in pump mode: closes admission, serves everything
    /// already queued, and returns (and emits) the final accounting.
    pub fn drain(&self) -> DrainReport {
        self.queue.drain();
        while self.pump() > 0 {}
        self.drain_report()
    }

    /// Runs `driver` with a scoped pool of `workers` threads serving the
    /// queue concurrently; when the driver returns, the service drains
    /// (admission closes, queued work finishes), workers exit, and the
    /// final accounting is returned alongside the driver's output.
    ///
    /// # Panics
    ///
    /// Propagates a worker-thread panic. Primary-predictor panics are *not*
    /// worker panics — they are caught, retried, and degraded per row.
    pub fn run_threaded<R>(
        &self,
        workers: usize,
        driver: impl FnOnce(&Self) -> R,
    ) -> (R, DrainReport)
    where
        P: Sync,
        F: Sync,
    {
        let out = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers.max(1))
                .map(|_| {
                    s.spawn(|| {
                        while let Some(batch) = self.queue.wait_batch(self.config.max_batch) {
                            self.process_batch(batch);
                        }
                    })
                })
                .collect();
            let out = driver(self);
            self.queue.drain();
            for h in handles {
                h.join().expect("serve worker must never crash");
            }
            out
        });
        (out, self.drain_report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerState;
    use crate::clock::VirtualClock;

    /// Primary answering 17.25, counting calls; optionally always-NaN.
    struct Probe {
        value: f64,
        calls: AtomicU64,
    }
    impl Probe {
        fn healthy() -> Self {
            Self {
                value: 17.25,
                calls: AtomicU64::new(0),
            }
        }
        fn broken() -> Self {
            Self {
                value: f64::NAN,
                calls: AtomicU64::new(0),
            }
        }
        fn calls(&self) -> u64 {
            self.calls.load(Ordering::Relaxed)
        }
    }
    impl Predictor for Probe {
        fn predict_encoding(&self, _e: &[f32]) -> f64 {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.value
        }
        fn gradient(&self, e: &[f32]) -> Vec<f32> {
            vec![0.0; e.len()]
        }
    }
    impl BatchPredictor for Probe {}

    struct Lut;
    impl Predictor for Lut {
        fn predict_encoding(&self, _e: &[f32]) -> f64 {
            42.0
        }
        fn gradient(&self, e: &[f32]) -> Vec<f32> {
            vec![0.0; e.len()]
        }
    }

    /// A well-formed request encoding.
    fn enc() -> Vec<f32> {
        lightnas_space::Architecture::homogeneous(lightnas_space::Operator::from_index(0)).encode()
    }

    fn tiny_config() -> ServiceConfig {
        ServiceConfig {
            admission: AdmissionPolicy {
                capacity: 4,
                normal_mark: 3,
                low_mark: 2,
            },
            breaker: BreakerConfig {
                trip_after: 2,
                open_for: Duration::from_millis(10),
                trial_successes: 1,
            },
            max_batch: 4,
            retry_budget: 0,
            default_deadline: None,
        }
    }

    #[test]
    fn healthy_requests_round_trip_batched() {
        let (primary, lut, clock) = (Probe::healthy(), Lut, VirtualClock::new());
        let svc = PredictorService::new(&primary, &lut, &clock, tiny_config());
        for _ in 0..3 {
            svc.submit(Request::new(enc())).expect("admitted");
        }
        assert_eq!(svc.pump(), 3, "one coalesced batch");
        let responses = svc.take_responses();
        assert_eq!(responses.len(), 3);
        for r in &responses {
            let resp = r.outcome.as_ref().expect("served");
            assert_eq!(resp.value, 17.25);
            assert!(!resp.degraded);
            assert_eq!(resp.batch, 3);
        }
        assert_eq!(svc.fallback().degraded(), 0);
    }

    #[test]
    fn overload_is_rejected_typed_at_the_door() {
        let (primary, lut, clock) = (Probe::healthy(), Lut, VirtualClock::new());
        let svc = PredictorService::new(&primary, &lut, &clock, tiny_config());
        for _ in 0..2 {
            svc.submit(Request::new(enc()).with_priority(Priority::Low))
                .expect("below low mark");
        }
        let err = svc
            .submit(Request::new(enc()).with_priority(Priority::Low))
            .expect_err("low mark reached");
        assert!(matches!(err, ServeError::Overloaded { depth: 2, limit: 2 }));
        svc.submit(Request::new(enc()).with_priority(Priority::High))
            .expect("high still admitted");
        assert_eq!(svc.health().rejected_overloaded, 1);
    }

    #[test]
    fn tripped_breaker_routes_around_the_primary_then_recovers() {
        let (primary, lut, clock) = (Probe::broken(), Lut, VirtualClock::new());
        let svc = PredictorService::new(&primary, &lut, &clock, tiny_config());
        // Two NaN rows trip the breaker (trip_after = 2, no retries).
        for _ in 0..2 {
            svc.submit(Request::new(enc())).expect("admitted");
        }
        svc.pump();
        assert_eq!(svc.health().breaker, BreakerState::Open);
        let before = primary.calls();
        svc.submit(Request::new(enc())).expect("admitted");
        svc.pump();
        assert_eq!(
            primary.calls(),
            before,
            "open breaker never touches primary"
        );
        let served = svc.take_responses();
        let last = served.last().expect("served");
        assert_eq!(
            last.outcome.as_ref().expect("value").value,
            42.0,
            "LUT answer"
        );
        assert_eq!(svc.fallback().degraded_routed(), 1);
        // After the cool-down the next batch probes the primary again.
        clock.advance(Duration::from_millis(10));
        svc.submit(Request::new(enc())).expect("admitted");
        svc.pump();
        assert!(primary.calls() > before, "half-open probe reached primary");
        assert_eq!(
            svc.health().degraded,
            svc.fallback().degraded(),
            "service and fallback counters agree"
        );
    }

    #[test]
    fn queued_deadline_expiry_is_typed_not_dropped() {
        let (primary, lut, clock) = (Probe::healthy(), Lut, VirtualClock::new());
        let svc = PredictorService::new(&primary, &lut, &clock, tiny_config());
        let id = svc
            .submit(Request::new(enc()).with_deadline(Duration::from_millis(5)))
            .expect("admitted");
        clock.advance(Duration::from_millis(6));
        svc.pump();
        let served = svc.take_responses();
        assert_eq!(served.len(), 1);
        assert_eq!(served[0].id, id);
        assert!(matches!(
            served[0].outcome,
            Err(ServeError::Deadline { .. })
        ));
        // Already-expired submissions are refused at the door.
        let err = svc
            .submit(Request::new(enc()).with_deadline(Duration::from_millis(1)))
            .expect_err("past due");
        assert!(matches!(err, ServeError::Deadline { .. }));
        assert_eq!(svc.health().deadline_expired, 2);
    }

    #[test]
    fn drain_answers_everything_admitted_then_refuses() {
        let (primary, lut, clock) = (Probe::healthy(), Lut, VirtualClock::new());
        let svc = PredictorService::new(&primary, &lut, &clock, tiny_config());
        for _ in 0..3 {
            svc.submit(Request::new(enc())).expect("admitted");
        }
        let report = svc.drain();
        assert_eq!(report.served, 3);
        assert!(report.fully_accounted(), "{report:?}");
        assert!(matches!(
            svc.submit(Request::new(enc())),
            Err(ServeError::Draining)
        ));
        assert!(!svc.health().ready);
    }

    #[test]
    fn threaded_mode_loses_nothing_on_drain() {
        let (primary, lut, clock) = (Probe::healthy(), Lut, VirtualClock::new());
        let mut config = tiny_config();
        config.admission = AdmissionPolicy {
            capacity: 1024,
            normal_mark: 1024,
            low_mark: 1024,
        };
        let svc = PredictorService::new(&primary, &lut, &clock, config);
        let (admitted, report) = svc.run_threaded(3, |svc| {
            let mut admitted = 0u64;
            std::thread::scope(|s| {
                let counts: Vec<_> = (0..4)
                    .map(|_| {
                        s.spawn(|| {
                            (0..100)
                                .filter(|_| svc.submit(Request::new(enc())).is_ok())
                                .count() as u64
                        })
                    })
                    .collect();
                for c in counts {
                    admitted += c.join().expect("producer");
                }
            });
            admitted
        });
        assert_eq!(admitted, 400, "queue was sized to admit everything");
        assert_eq!(report.served, 400, "zero dropped in flight");
        assert!(report.fully_accounted(), "{report:?}");
        assert_eq!(svc.take_responses().len(), 400);
    }
}
