//! Overload-safe serving for the latency predictor (the production face of
//! paper Sec. 3.2's MLP).
//!
//! A trained [`MlpPredictor`](lightnas_predictor::MlpPredictor) answering
//! one caller in a loop is easy; answering *many* callers under bursty
//! load, with the model occasionally misbehaving, without ever dropping a
//! request on the floor — that is a serving problem, and this crate is the
//! serving layer:
//!
//! * [`PredictorService`] — bounded admission queue with per-priority
//!   watermarks ([`AdmissionPolicy`]), deadline awareness, batch
//!   coalescing onto the predictor's one-GEMM batched path, and graceful
//!   drain. Every refusal is a typed [`ServeError`].
//! * [`SearchService`] — the multi-tenant *search* front door: whole
//!   [`SearchJob`](lightnas_runtime::SearchJob) sweeps from named tenants,
//!   per-tenant [`TenantQuota`]s layered on the same admission watermarks
//!   (typed, audited [`SearchServeError`] refusals), executed on the
//!   runtime scheduler over one shared **sharded** predictor cache — every
//!   tenant's results byte-identical to a private serial run (DESIGN.md
//!   §16).
//! * [`CircuitBreaker`] — Closed → Open → HalfOpen guarding of the
//!   primary; while open, requests are answered from the LUT fallback via
//!   [`FallbackPredictor::degrade_encoding`](lightnas_predictor::FallbackPredictor::degrade_encoding),
//!   and deterministic trial scheduling probes for recovery.
//! * [`Clock`] — all time is injected; with a [`VirtualClock`] the whole
//!   service is a pure function of the request sequence, which is how the
//!   chaos soak asserts byte-identical telemetry across same-seed runs.
//! * [`ChaosPlan`] / [`ChaosPredictor`] — seeded, one-shot fault schedules
//!   (NaN bursts, panics, slow responses) in the same idiom as the
//!   runtime's `FaultPlan`. Drift bursts, stale predictors and bad deploys
//!   are scenario steps the soak exhibits script themselves, through
//!   [`ModelSlot::inject_bias`] and [`AdaptationController::arm_bad_deploy`].
//! * [`ServingTier`] — deploy-time choice of kernel tier and weight
//!   precision: strict bit-reproducible serving (default), opt-in fast
//!   kernels (`LIGHTNAS_KERNEL_MODE=fast`), or fast kernels over
//!   f16-stored weights (`LIGHTNAS_SERVE_WEIGHTS=f16`).
//! * [`AdaptationController`] / [`ModelSlot`] / [`DriftMonitor`] — the
//!   drift-safe adaptation layer: live samples stream in, staleness is
//!   detected from windowed residuals (RMSE ratio + Spearman rank
//!   correlation), the controller parks until the caller installs a
//!   shadow fine-tuned on the live window, the shadow is validated on
//!   paired live traffic, and promotion/rollback is audited
//!   ([`AdaptEvent`]) with the breaker as the rollback blast door (see
//!   DESIGN.md §13).
//!
//! # Example
//!
//! ```no_run
//! use lightnas_hw::Xavier;
//! use lightnas_predictor::{LutPredictor, Metric, MetricDataset, MlpPredictor, TrainConfig};
//! use lightnas_serve::{PredictorService, Request, ServiceConfig, SystemClock};
//! use lightnas_space::SearchSpace;
//!
//! let space = SearchSpace::standard();
//! let device = Xavier::maxn();
//! let data = MetricDataset::sample(&device, &space, Metric::LatencyMs, 1000, 0);
//! let mlp = MlpPredictor::train(&data, &TrainConfig::default());
//! let lut = LutPredictor::build(&device, &space);
//! let clock = SystemClock::new();
//! let service = PredictorService::new(&mlp, &lut, &clock, ServiceConfig::default());
//! let id = service.submit(Request::new(data.encodings()[0].clone())).unwrap();
//! service.pump();
//! println!("{:?}", service.take_responses());
//! # let _ = id;
//! ```

mod adapt;
mod breaker;
mod chaos;
mod clock;
mod error;
mod health;
mod queue;
mod search;
mod service;
mod tier;

pub use adapt::{
    audit_is_well_formed, audit_is_well_formed_with, spearman, AdaptConfig, AdaptEvent,
    AdaptStatus, AdaptationController, AuditCarry, DriftMonitor, ModelSlot, StalenessReport,
    DEFAULT_AUDIT_CAP,
};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, Transition};
pub use chaos::{ChaosPlan, ChaosPredictor, ServeFault, ServeFaultKind};
pub use clock::{Clock, SystemClock, VirtualClock};
pub use error::ServeError;
pub use health::{DeviceGeneration, HealthSnapshot};
pub use queue::{AdmissionPolicy, AdmissionQueue, Priority};
pub use search::{
    search_audit_is_well_formed, SearchEvent, SearchServeError, SearchService, SearchServiceConfig,
    SweepTicket, TenantQuota, TenantSweepReport,
};
pub use service::{DrainReport, PredictorService, Request, Response, Served, ServiceConfig};
pub use tier::{ServingTier, WEIGHTS_ENV};
