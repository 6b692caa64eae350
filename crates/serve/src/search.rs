//! The multi-tenant search service: whole sweep jobs behind admission
//! control, one sharded predictor cache shared by every tenant.
//!
//! `PredictorService` serves single *queries*; this module serves whole
//! *searches*. A [`SearchService`] accepts [`SearchJob`] sweeps from named
//! tenants, queues them under the shared [`AdmissionPolicy`] watermarks
//! *plus* a per-tenant [`TenantQuota`], and executes everything queued on
//! the runtime's `JobScheduler`/supervisor substrate through one
//! [`CachedPredictor`] — the sharded cache is the scale-out asset: tenants
//! sweeping neighbouring targets hit each other's cached predictions, so
//! the fleet-wide cost of "search once per tenant" approaches the cost of
//! searching once, which is the paper's premise operationalized.
//!
//! Fairness is structural, not scheduled: a tenant's quota
//! ([`TenantQuota::max_queued_jobs`], default 24) is deliberately smaller
//! than the [`Priority::Normal`] watermark (48 of 64), so no single tenant
//! can occupy another tenant's admission headroom — the flooding tenant
//! hits its own (typed, audited) [`SearchServeError::QuotaExceeded`] wall
//! first. Execution is strictly FIFO in admission order, and results are
//! deterministic: the scheduler returns index-ordered statuses and the
//! shared cache never changes a value, so every tenant's sweep is
//! byte-identical to a serial run of the same jobs on a private predictor
//! (the `scale_bench` exhibit asserts exactly this).
//!
//! See DESIGN.md §16 for the full scale-out contract.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use lightnas_eval::AccuracyOracle;
use lightnas_predictor::{CacheSnapshot, CacheStats, CachedPredictor, Predictor};
use lightnas_runtime::{
    events, run_sweep_shared, FaultPlan, Field, JobStatus, SearchJob, SweepOptions, SweepReport,
    Telemetry,
};

use crate::breaker::BreakerState;
use crate::health::HealthSnapshot;
use crate::queue::{AdmissionPolicy, Priority};

/// How much of the service one tenant may occupy: the number of *jobs*
/// (not sweeps) it may have queued at once. Kept below the shared
/// [`Priority::Normal`] watermark by default so a flooding tenant runs
/// into its own quota before it can exhaust the queue for everyone else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum jobs this tenant may have queued at once.
    pub max_queued_jobs: usize,
}

impl Default for TenantQuota {
    fn default() -> Self {
        Self {
            max_queued_jobs: 24,
        }
    }
}

/// Knobs of a [`SearchService`].
#[derive(Debug, Clone, Default)]
pub struct SearchServiceConfig {
    /// Shared watermarks over the total queued-job depth (all tenants).
    pub admission: AdmissionPolicy,
    /// Quota applied to tenants without an explicit entry in `quotas`.
    pub default_quota: TenantQuota,
    /// Per-tenant quota overrides (e.g. a paying tenant gets more).
    pub quotas: HashMap<String, TenantQuota>,
    /// How each drained batch executes (workers, retries, checkpoints, …).
    pub sweep: SweepOptions,
}

impl SearchServiceConfig {
    /// The quota `tenant` is admitted under.
    pub fn quota_for(&self, tenant: &str) -> TenantQuota {
        self.quotas
            .get(tenant)
            .copied()
            .unwrap_or(self.default_quota)
    }
}

/// Why the search service refused a sweep. Every refusal is returned *and*
/// recorded in the audit trail — a rejected tenant can always reconstruct
/// what happened from either side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchServeError {
    /// The tenant's own quota is the binding constraint: it already had
    /// `queued` jobs in, submitted `submitted` more, and its quota is
    /// `limit`. Other tenants are unaffected — back off and resubmit after
    /// [`SearchService::run_queued`] drains the queue.
    QuotaExceeded {
        /// The tenant that hit its quota.
        tenant: String,
        /// Jobs the tenant already had queued.
        queued: usize,
        /// Jobs in the rejected submission.
        submitted: usize,
        /// The tenant's quota ([`TenantQuota::max_queued_jobs`]).
        limit: usize,
    },
    /// The *shared* queue is the binding constraint: total queued depth
    /// `depth` plus the submission would breach this priority's watermark
    /// `limit`.
    Overloaded {
        /// Total jobs queued (all tenants) at admission.
        depth: usize,
        /// The priority's watermark.
        limit: usize,
    },
    /// The service is draining for shutdown and admits nothing new.
    Draining,
    /// The submission contained no jobs.
    EmptySweep,
    /// A job of the submission could never run: its target is not finite
    /// and positive, or its schedule fails [`SearchConfig::validate`]
    /// (`lightnas::SearchConfig`). Nothing of the sweep was queued.
    InvalidJob {
        /// Position of the first such job in the submission.
        index: usize,
        /// Why it cannot run.
        reason: String,
    },
}

impl std::fmt::Display for SearchServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchServeError::QuotaExceeded {
                tenant,
                queued,
                submitted,
                limit,
            } => write!(
                f,
                "tenant {tenant:?} quota exceeded: {queued} queued + {submitted} submitted > {limit}"
            ),
            SearchServeError::Overloaded { depth, limit } => {
                write!(f, "overloaded: {depth} jobs queued at watermark {limit}")
            }
            SearchServeError::Draining => write!(f, "search service is draining"),
            SearchServeError::EmptySweep => write!(f, "sweep contains no jobs"),
            SearchServeError::InvalidJob { index, reason } => {
                write!(f, "job {index} of the sweep is invalid: {reason}")
            }
        }
    }
}

impl std::error::Error for SearchServeError {}

impl SearchServeError {
    /// Short machine-readable tag for telemetry and audit lines.
    pub fn tag(&self) -> &'static str {
        match self {
            SearchServeError::QuotaExceeded { .. } => "quota",
            SearchServeError::Overloaded { .. } => "overloaded",
            SearchServeError::Draining => "draining",
            SearchServeError::EmptySweep => "empty",
            SearchServeError::InvalidJob { .. } => "invalid_job",
        }
    }
}

/// The first job of `jobs` a search stepper would refuse, as
/// [`SearchServeError::InvalidJob`]: a target that is not finite and
/// positive, or a schedule that fails `SearchConfig::validate`.
fn first_invalid_job(jobs: &[SearchJob]) -> Option<SearchServeError> {
    jobs.iter().enumerate().find_map(|(index, job)| {
        let reason = if job.target.is_finite() && job.target > 0.0 {
            job.config.validate().err()?.to_string()
        } else {
            format!("target must be finite and positive, got {}", job.target)
        };
        Some(SearchServeError::InvalidJob { index, reason })
    })
}

/// One entry of the service's typed audit trail, in event order.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchEvent {
    /// A sweep entered the queue.
    SweepAdmitted {
        /// Service-assigned sweep id (monotonic across submissions).
        sweep: u64,
        /// Submitting tenant.
        tenant: String,
        /// Admission priority.
        priority: Priority,
        /// Jobs in the sweep.
        jobs: usize,
        /// Total queued jobs (all tenants) after admission.
        queued_jobs: usize,
    },
    /// A sweep was turned away, with the exact typed error it got.
    SweepRejected {
        /// Service-assigned sweep id.
        sweep: u64,
        /// Submitting tenant.
        tenant: String,
        /// Admission priority.
        priority: Priority,
        /// Jobs in the rejected submission.
        jobs: usize,
        /// The typed refusal the caller received.
        error: SearchServeError,
    },
    /// A sweep finished executing.
    SweepDone {
        /// Service-assigned sweep id.
        sweep: u64,
        /// Submitting tenant.
        tenant: String,
        /// Jobs that completed.
        completed: usize,
        /// Jobs that exhausted retries.
        failed: usize,
        /// Jobs interrupted by the epoch budget.
        interrupted: usize,
    },
}

/// A queued-but-not-yet-executed sweep's receipt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepTicket {
    /// Service-assigned sweep id; matches the audit trail and the eventual
    /// [`TenantSweepReport::sweep`].
    pub sweep: u64,
    /// Position in the execution queue at admission (0 = next to run).
    pub position: usize,
}

/// One tenant's finished sweep, as returned by
/// [`SearchService::run_queued`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSweepReport {
    /// Service-assigned sweep id (from the [`SweepTicket`]).
    pub sweep: u64,
    /// The tenant that submitted it.
    pub tenant: String,
    /// Admission priority it ran under.
    pub priority: Priority,
    /// Per-job statuses **re-indexed to the sweep's own job list** (status
    /// `index` fields count from 0 within this sweep, exactly as a private
    /// [`run_sweep`](lightnas_runtime::run_sweep) of the same jobs would
    /// report them).
    pub statuses: Vec<JobStatus>,
}

impl TenantSweepReport {
    /// `true` when every job completed.
    pub fn all_completed(&self) -> bool {
        self.statuses.iter().all(|s| s.completed().is_some())
    }
}

#[derive(Debug)]
struct QueuedSweep {
    sweep: u64,
    tenant: String,
    priority: Priority,
    jobs: Vec<SearchJob>,
}

#[derive(Debug, Default)]
struct ServiceState {
    queue: VecDeque<QueuedSweep>,
    /// Total queued jobs — the depth the watermarks police.
    queued_jobs: usize,
    /// Queued jobs per tenant — the depth the quotas police.
    per_tenant: HashMap<String, usize>,
    draining: bool,
    next_sweep: u64,
}

/// The multi-tenant search front door. See the module docs for the
/// fairness and determinism contracts.
#[derive(Debug)]
pub struct SearchService<'a, P: Predictor + Sync> {
    oracle: &'a AccuracyOracle,
    cached: CachedPredictor<'a, P>,
    config: SearchServiceConfig,
    telemetry: Option<&'a Telemetry>,
    state: Mutex<ServiceState>,
    audit: Mutex<Vec<SearchEvent>>,
    submitted_sweeps: AtomicU64,
    executed_sweeps: AtomicU64,
    rejected_sweeps: AtomicU64,
    rejected_draining: AtomicU64,
    rejected_invalid: AtomicU64,
}

impl<'a, P: Predictor + Sync> SearchService<'a, P> {
    /// A service over `predictor`, wrapped in a fresh sharded cache with
    /// [`DEFAULT_CACHE_SHARDS`](lightnas_predictor::DEFAULT_CACHE_SHARDS)
    /// shards.
    pub fn new(
        oracle: &'a AccuracyOracle,
        predictor: &'a P,
        config: SearchServiceConfig,
        telemetry: Option<&'a Telemetry>,
    ) -> Self {
        let cached = CachedPredictor::new(predictor);
        Self {
            oracle,
            cached,
            config,
            telemetry,
            state: Mutex::new(ServiceState::default()),
            audit: Mutex::new(Vec::new()),
            submitted_sweeps: AtomicU64::new(0),
            executed_sweeps: AtomicU64::new(0),
            rejected_sweeps: AtomicU64::new(0),
            rejected_draining: AtomicU64::new(0),
            rejected_invalid: AtomicU64::new(0),
        }
    }

    /// The service's configuration.
    pub fn config(&self) -> &SearchServiceConfig {
        &self.config
    }

    /// The shared cache's merged hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cached.stats()
    }

    /// A per-shard-consistent snapshot of the shared cache.
    pub fn cache_snapshot(&self) -> CacheSnapshot {
        self.cached.snapshot()
    }

    /// Total jobs currently queued, over all tenants.
    pub fn queued_jobs(&self) -> usize {
        self.lock_state().queued_jobs
    }

    /// Jobs currently queued by `tenant`.
    pub fn queued_jobs_for(&self, tenant: &str) -> usize {
        self.lock_state()
            .per_tenant
            .get(tenant)
            .copied()
            .unwrap_or(0)
    }

    /// The audit trail so far, in event order.
    pub fn audit(&self) -> Vec<SearchEvent> {
        self.audit
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Stops admission. Sweeps already queued still execute on the next
    /// [`run_queued`](Self::run_queued).
    pub fn drain(&self) {
        self.lock_state().draining = true;
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, ServiceState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn record(&self, event: SearchEvent) {
        self.audit
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event);
    }

    /// Submits one tenant sweep. On admission the sweep joins the FIFO
    /// execution queue and the returned [`SweepTicket`] names it; every
    /// refusal is typed, audited, and emitted to telemetry.
    ///
    /// Every job must be able to run: a sweep with a job whose target is
    /// not finite and positive, or whose schedule fails validation, is
    /// refused whole, before any capacity is charged. Admission is then
    /// two-gated, checked in this order: the tenant's own [`TenantQuota`]
    /// (its queued jobs plus this submission must fit), then the shared
    /// [`AdmissionPolicy`] watermark for `priority` (total queued jobs plus
    /// this submission must fit). Quota first, so a flooding tenant is told
    /// about *its* limit, not the shared one.
    ///
    /// # Errors
    ///
    /// [`SearchServeError::Draining`] after [`drain`](Self::drain);
    /// [`SearchServeError::EmptySweep`] for zero jobs;
    /// [`SearchServeError::InvalidJob`] for a job that cannot run;
    /// [`SearchServeError::QuotaExceeded`] /
    /// [`SearchServeError::Overloaded`] per the gates above.
    pub fn submit_sweep(
        &self,
        tenant: &str,
        priority: Priority,
        jobs: Vec<SearchJob>,
    ) -> Result<SweepTicket, SearchServeError> {
        self.submitted_sweeps.fetch_add(1, Ordering::Relaxed);
        let mut state = self.lock_state();
        let sweep = state.next_sweep;
        state.next_sweep += 1;
        let verdict = if state.draining {
            Err(SearchServeError::Draining)
        } else if jobs.is_empty() {
            Err(SearchServeError::EmptySweep)
        } else if let Some(invalid) = first_invalid_job(&jobs) {
            Err(invalid)
        } else {
            let queued = state.per_tenant.get(tenant).copied().unwrap_or(0);
            let quota = self.config.quota_for(tenant).max_queued_jobs;
            let depth = state.queued_jobs;
            let limit = self.config.admission.limit(priority);
            if queued + jobs.len() > quota {
                Err(SearchServeError::QuotaExceeded {
                    tenant: tenant.to_string(),
                    queued,
                    submitted: jobs.len(),
                    limit: quota,
                })
            } else if depth + jobs.len() > limit {
                Err(SearchServeError::Overloaded { depth, limit })
            } else {
                Ok(())
            }
        };
        match verdict {
            Ok(()) => {
                let n = jobs.len();
                let position = state.queue.len();
                state.queued_jobs += n;
                *state.per_tenant.entry(tenant.to_string()).or_insert(0) += n;
                let queued_jobs = state.queued_jobs;
                state.queue.push_back(QueuedSweep {
                    sweep,
                    tenant: tenant.to_string(),
                    priority,
                    jobs,
                });
                drop(state);
                self.record(SearchEvent::SweepAdmitted {
                    sweep,
                    tenant: tenant.to_string(),
                    priority,
                    jobs: n,
                    queued_jobs,
                });
                if let Some(t) = self.telemetry {
                    t.emit(
                        events::SEARCH_SWEEP_ADMITTED,
                        &[
                            ("sweep", Field::U(sweep)),
                            ("tenant", Field::S(tenant.to_string())),
                            ("priority", Field::S(priority.tag().to_string())),
                            ("jobs", Field::U(n as u64)),
                            ("queued_jobs", Field::U(queued_jobs as u64)),
                        ],
                    );
                }
                Ok(SweepTicket { sweep, position })
            }
            Err(error) => {
                drop(state);
                let counter = match error {
                    SearchServeError::Draining => &self.rejected_draining,
                    SearchServeError::InvalidJob { .. } => &self.rejected_invalid,
                    _ => &self.rejected_sweeps,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                self.record(SearchEvent::SweepRejected {
                    sweep,
                    tenant: tenant.to_string(),
                    priority,
                    jobs: jobs.len(),
                    error: error.clone(),
                });
                if let Some(t) = self.telemetry {
                    t.emit(
                        events::SEARCH_SWEEP_REJECTED,
                        &[
                            ("sweep", Field::U(sweep)),
                            ("tenant", Field::S(tenant.to_string())),
                            ("priority", Field::S(priority.tag().to_string())),
                            ("reason", Field::S(error.tag().to_string())),
                        ],
                    );
                }
                Err(error)
            }
        }
    }

    /// Executes everything queued, FIFO in admission order, as **one**
    /// scheduler run over the shared cache, and returns one report per
    /// sweep (admission order, statuses re-indexed per sweep).
    ///
    /// Flattening all tenants into one run is what makes the shared cache
    /// pay: a miss computed for tenant A is a hit for tenant B in the same
    /// batch. It never changes results — scheduler results are
    /// index-ordered regardless of worker interleaving, and memoization
    /// returns exactly the values a private predictor would — so each
    /// returned report is byte-identical to a serial, single-tenant
    /// [`run_sweep`](lightnas_runtime::run_sweep) of the same jobs.
    pub fn run_queued(&self) -> Vec<TenantSweepReport> {
        let batch: Vec<QueuedSweep> = {
            let mut state = self.lock_state();
            state.queued_jobs = 0;
            state.per_tenant.clear();
            state.queue.drain(..).collect()
        };
        if batch.is_empty() {
            return Vec::new();
        }
        let flat: Vec<SearchJob> = batch.iter().flat_map(|s| s.jobs.iter().copied()).collect();
        let report: SweepReport = run_sweep_shared(
            self.oracle,
            &self.cached,
            &flat,
            &self.config.sweep,
            self.telemetry,
            &FaultPlan::none(),
        );

        let mut out = Vec::with_capacity(batch.len());
        let mut offset = 0usize;
        for queued in batch {
            let n = queued.jobs.len();
            let statuses: Vec<JobStatus> = report.statuses[offset..offset + n]
                .iter()
                .cloned()
                .map(|mut s| {
                    // Re-index to the sweep's own job list so the report
                    // reads exactly like a private run of those jobs.
                    match &mut s {
                        JobStatus::Completed(r) => r.index -= offset,
                        JobStatus::Interrupted { index, .. } => *index -= offset,
                        JobStatus::Failed { index, .. } => *index -= offset,
                    }
                    s
                })
                .collect();
            offset += n;
            let completed = statuses.iter().filter(|s| s.completed().is_some()).count();
            let failed = statuses.iter().filter(|s| s.failed().is_some()).count();
            let interrupted = statuses.len() - completed - failed;
            self.executed_sweeps.fetch_add(1, Ordering::Relaxed);
            self.record(SearchEvent::SweepDone {
                sweep: queued.sweep,
                tenant: queued.tenant.clone(),
                completed,
                failed,
                interrupted,
            });
            if let Some(t) = self.telemetry {
                t.emit(
                    events::SEARCH_SWEEP_DONE,
                    &[
                        ("sweep", Field::U(queued.sweep)),
                        ("tenant", Field::S(queued.tenant.clone())),
                        ("completed", Field::U(completed as u64)),
                        ("failed", Field::U(failed as u64)),
                        ("interrupted", Field::U(interrupted as u64)),
                    ],
                );
            }
            out.push(TenantSweepReport {
                sweep: queued.sweep,
                tenant: queued.tenant,
                priority: queued.priority,
                statuses,
            });
        }
        if let Some(t) = self.telemetry {
            let snap = self.cached.snapshot();
            t.emit(
                events::SEARCH_CACHE_STATS,
                &[
                    ("cache_hits", Field::U(snap.stats.hits)),
                    ("cache_misses", Field::U(snap.stats.misses)),
                    ("cache_hit_rate", Field::F(snap.stats.hit_rate())),
                    ("cache_shards", Field::U(snap.shards.len() as u64)),
                    (
                        "cached_values",
                        Field::U((snap.predictions + snap.gradients) as u64),
                    ),
                ],
            );
        }
        out
    }

    /// Health/readiness snapshot. Sweep counters map onto the shared
    /// [`HealthSnapshot`] vocabulary (`submitted`/`served`/rejections count
    /// *sweeps*; `queue_depth` counts queued *jobs*), and the shared
    /// cache's counters and per-shard occupancy ride along in the cache
    /// fields — zero/empty (and serialization-invisible) for services
    /// without a cache, exactly like the adaptation and fleet blocks.
    pub fn health(&self) -> HealthSnapshot {
        let (queue_depth, draining) = {
            let state = self.lock_state();
            (state.queued_jobs, state.draining)
        };
        let snap = self.cached.snapshot();
        HealthSnapshot {
            ready: !draining,
            draining,
            queue_depth,
            breaker: BreakerState::Closed,
            submitted: self.submitted_sweeps.load(Ordering::Relaxed),
            served: self.executed_sweeps.load(Ordering::Relaxed),
            degraded: 0,
            rejected_overloaded: self.rejected_sweeps.load(Ordering::Relaxed),
            rejected_draining: self.rejected_draining.load(Ordering::Relaxed),
            rejected_malformed: self.rejected_invalid.load(Ordering::Relaxed),
            deadline_expired: 0,
            batches: 0,
            model_generation: 0,
            staleness_samples: 0,
            staleness_age: std::time::Duration::ZERO,
            fleet: Vec::new(),
            cache_hits: snap.stats.hits,
            cache_misses: snap.stats.misses,
            cache_shards: snap
                .shards
                .iter()
                .map(|s| (s.predictions + s.gradients) as u64)
                .collect(),
        }
    }
}

/// Audit well-formedness: every admitted sweep is eventually done (when
/// `expect_drained`), ids are unique per event kind, and every rejection
/// carries a matching typed error: a quota refusal's counts exceed its
/// limit and match the sweep's size, and an invalid job lies inside the
/// sweep. Returns a human-readable violation.
pub fn search_audit_is_well_formed(
    events: &[SearchEvent],
    expect_drained: bool,
) -> Result<(), String> {
    use std::collections::HashSet;
    let mut admitted = HashSet::new();
    let mut done = HashSet::new();
    let mut rejected = HashSet::new();
    for e in events {
        match e {
            SearchEvent::SweepAdmitted { sweep, .. } => {
                if !admitted.insert(*sweep) {
                    return Err(format!("sweep {sweep} admitted twice"));
                }
            }
            SearchEvent::SweepDone { sweep, .. } => {
                if !admitted.contains(sweep) {
                    return Err(format!("sweep {sweep} done but never admitted"));
                }
                if !done.insert(*sweep) {
                    return Err(format!("sweep {sweep} done twice"));
                }
            }
            SearchEvent::SweepRejected {
                sweep, error, jobs, ..
            } => {
                if admitted.contains(sweep) {
                    return Err(format!("sweep {sweep} both admitted and rejected"));
                }
                if !rejected.insert(*sweep) {
                    return Err(format!("sweep {sweep} rejected twice"));
                }
                match error {
                    SearchServeError::QuotaExceeded {
                        queued,
                        submitted,
                        limit,
                        ..
                    } if queued + submitted <= *limit => {
                        return Err(format!(
                            "sweep {sweep}: quota rejection with consistent-looking counts \
                             ({queued}+{submitted} <= {limit})"
                        ));
                    }
                    SearchServeError::QuotaExceeded { submitted, .. } if submitted != jobs => {
                        return Err(format!(
                            "sweep {sweep}: quota rejection of {submitted} jobs audited as {jobs}"
                        ));
                    }
                    SearchServeError::InvalidJob { index, .. } if index >= jobs => {
                        return Err(format!(
                            "sweep {sweep}: invalid job {index} past its {jobs} jobs"
                        ));
                    }
                    _ => {}
                }
            }
        }
    }
    if expect_drained {
        if let Some(pending) = admitted.difference(&done).next() {
            return Err(format!("sweep {pending} admitted but never done"));
        }
    }
    Ok(())
}
