//! End-to-end properties of the multi-tenant search service: byte-identity
//! of shared-cache execution against private serial runs, structural
//! fairness of the per-tenant quotas, and a deterministic chaos-style
//! admission storm with full audit accounting.

use std::sync::OnceLock;

use lightnas::SearchConfig;
use lightnas_eval::AccuracyOracle;
use lightnas_hw::Xavier;
use lightnas_predictor::{Metric, MetricDataset, MlpPredictor, TrainConfig, DEFAULT_CACHE_SHARDS};
use lightnas_runtime::{run_sweep, JobStatus, SearchJob, SweepOptions};
use lightnas_serve::{
    search_audit_is_well_formed, AdmissionPolicy, Priority, SearchEvent, SearchServeError,
    SearchService, SearchServiceConfig, TenantQuota,
};
use lightnas_space::SearchSpace;

struct Fixture {
    oracle: AccuracyOracle,
    predictor: MlpPredictor,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let space = SearchSpace::standard();
        let device = Xavier::maxn();
        let data = MetricDataset::sample_diverse(&device, &space, Metric::LatencyMs, 1200, 7);
        let predictor = MlpPredictor::train(
            &data,
            &TrainConfig {
                epochs: 30,
                batch_size: 128,
                lr: 2e-3,
                seed: 0,
            },
        );
        Fixture {
            oracle: AccuracyOracle::imagenet(),
            predictor,
        }
    })
}

/// Small enough for CI, long enough to exercise real search trajectories.
fn tiny_config() -> SearchConfig {
    SearchConfig {
        epochs: 6,
        steps_per_epoch: 8,
        warmup_epochs: 2,
        ..SearchConfig::fast()
    }
}

/// `(architecture spec, λ bits)` per job — the byte-level fingerprint.
fn fingerprints(statuses: &[JobStatus]) -> Vec<(String, u64)> {
    statuses
        .iter()
        .map(|s| {
            let r = s.completed().expect("job must complete");
            (r.outcome.architecture.to_spec(), r.outcome.lambda.to_bits())
        })
        .collect()
}

#[test]
fn multi_tenant_results_are_byte_identical_to_private_serial_runs() {
    let f = fixture();
    let config = tiny_config();
    // Three tenants, overlapping targets — the regime where the shared
    // cache pays (tenant B hits tenant A's misses).
    let sweeps: Vec<(&str, Vec<SearchJob>)> = vec![
        ("acme", SearchJob::grid(&[19.0, 25.0], &[0], config)),
        ("globex", SearchJob::grid(&[19.0], &[0, 3], config)),
        ("initech", SearchJob::grid(&[25.0, 21.0], &[3], config)),
    ];

    let service = SearchService::new(
        &f.oracle,
        &f.predictor,
        SearchServiceConfig {
            sweep: SweepOptions::with_workers(4),
            ..SearchServiceConfig::default()
        },
        None,
    );
    let mut tickets = Vec::new();
    for (tenant, jobs) in &sweeps {
        tickets.push(
            service
                .submit_sweep(tenant, Priority::Normal, jobs.clone())
                .expect("admitted"),
        );
    }
    assert_eq!(service.queued_jobs(), 6);
    let reports = service.run_queued();
    assert_eq!(reports.len(), 3);
    assert_eq!(service.queued_jobs(), 0, "queue drained by execution");

    for ((tenant, jobs), (report, ticket)) in sweeps.iter().zip(reports.iter().zip(&tickets)) {
        assert_eq!(report.tenant, *tenant);
        assert_eq!(report.sweep, ticket.sweep);
        assert!(report.all_completed(), "{tenant}: {:?}", report.statuses);
        // Ground truth: a private, serial, cold-cache run of the same jobs.
        let private = run_sweep(&f.oracle, &f.predictor, jobs, &SweepOptions::serial(), None);
        assert_eq!(
            fingerprints(&report.statuses),
            fingerprints(&private.statuses),
            "tenant {tenant}: shared-cache results diverged from a private serial run"
        );
        // Statuses are re-indexed to the sweep's own job list.
        for (i, s) in report.statuses.iter().enumerate() {
            assert_eq!(s.completed().expect("completed").index, i);
        }
    }

    // The shared cache actually coalesced across tenants: overlapping
    // targets mean real hits, and every shard invariant holds.
    let snap = service.cache_snapshot();
    assert!(
        snap.stats.hits > 0,
        "no cross-tenant cache traffic: {snap:?}"
    );
    assert_eq!(
        snap.stats.misses as usize,
        snap.predictions + snap.gradients
    );
    let audit = service.audit();
    search_audit_is_well_formed(&audit, true).expect("audit well-formed");

    // Health carries the shared-cache block: counters plus per-shard
    // occupancy, consistent with the snapshot.
    let health = service.health();
    assert_eq!(health.cache_hits, snap.stats.hits);
    assert_eq!(health.cache_misses, snap.stats.misses);
    assert_eq!(health.cache_shards.len(), snap.shards.len());
    assert_eq!(
        health.cache_shards.iter().sum::<u64>() as usize,
        snap.predictions + snap.gradients
    );
    assert!(health.to_json().contains("\"cache_hits\""));
}

#[test]
fn a_flooding_tenant_hits_its_quota_before_the_shared_watermark() {
    let f = fixture();
    let config = tiny_config();
    let service = SearchService::new(
        &f.oracle,
        &f.predictor,
        SearchServiceConfig::default(),
        None,
    );
    let quota = service.config().default_quota.max_queued_jobs;
    let normal_mark = service.config().admission.normal_mark;
    assert!(
        quota < normal_mark,
        "structural fairness requires quota ({quota}) < normal watermark ({normal_mark})"
    );

    // Tenant "flood" submits 4-job sweeps until its quota turns it away.
    let jobs4 = || SearchJob::grid(&[20.0], &[0, 1, 2, 3], config);
    let mut admitted = 0;
    let rejection = loop {
        match service.submit_sweep("flood", Priority::Normal, jobs4()) {
            Ok(_) => admitted += 4,
            Err(e) => break e,
        }
        assert!(admitted <= quota, "admitted past the quota");
    };
    match &rejection {
        SearchServeError::QuotaExceeded {
            tenant,
            queued,
            submitted,
            limit,
        } => {
            assert_eq!(tenant, "flood");
            assert_eq!(*queued, admitted);
            assert_eq!(*submitted, 4);
            assert_eq!(*limit, quota);
            assert!(queued + submitted > *limit);
        }
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    assert_eq!(rejection.tag(), "quota");

    // The flood never reached the shared watermark, so another tenant's
    // admission headroom is untouched: "patient" gets its full quota in.
    assert!(service.queued_jobs() < normal_mark);
    for _ in 0..quota / 4 {
        service
            .submit_sweep("patient", Priority::Normal, jobs4())
            .expect("an unrelated tenant must not be starved by the flood");
    }
    assert_eq!(service.queued_jobs_for("patient"), quota / 4 * 4);

    // The rejection is audited with the same typed error the caller got.
    let audit = service.audit();
    let rejected: Vec<_> = audit
        .iter()
        .filter_map(|e| match e {
            SearchEvent::SweepRejected {
                tenant,
                error,
                jobs,
                ..
            } => Some((tenant.clone(), error, *jobs)),
            _ => None,
        })
        .collect();
    assert_eq!(rejected.len(), 1);
    assert_eq!(rejected[0].0, "flood");
    assert_eq!(rejected[0].1, &rejection);
    assert_eq!(rejected[0].2, 4, "the refused sweep's size is recorded");
}

#[test]
fn draining_and_empty_sweeps_are_typed_rejections() {
    let f = fixture();
    let service = SearchService::new(
        &f.oracle,
        &f.predictor,
        SearchServiceConfig::default(),
        None,
    );
    assert_eq!(
        service.submit_sweep("t", Priority::Normal, Vec::new()),
        Err(SearchServeError::EmptySweep)
    );
    service.drain();
    assert_eq!(
        service
            .submit_sweep(
                "t",
                Priority::High,
                SearchJob::grid(&[20.0], &[0], tiny_config())
            )
            .unwrap_err(),
        SearchServeError::Draining
    );
    let health = service.health();
    assert!(health.draining);
    assert!(!health.ready);
    assert_eq!(health.rejected_draining, 1);
    let sizes: Vec<usize> = service
        .audit()
        .iter()
        .filter_map(|e| match e {
            SearchEvent::SweepRejected { jobs, .. } => Some(*jobs),
            _ => None,
        })
        .collect();
    assert_eq!(sizes, [0, 1], "each refusal records its sweep's size");
}

#[test]
fn a_sweep_with_a_nan_target_is_refused_at_admission() {
    // Before admission checked jobs, this 3-job sweep was admitted and
    // charged to the tenant's quota, and its middle job then failed all
    // three supervised attempts ("panicked: target must be positive, got
    // NaN") when the stepper was built.
    let f = fixture();
    let service = SearchService::new(
        &f.oracle,
        &f.predictor,
        SearchServiceConfig::default(),
        None,
    );
    let jobs = SearchJob::grid(&[19.0, f64::NAN, 25.0], &[0], tiny_config());
    let err = service
        .submit_sweep("acme", Priority::Normal, jobs)
        .expect_err("a NaN target must be refused");
    match &err {
        SearchServeError::InvalidJob { index, reason } => {
            assert_eq!(*index, 1);
            assert!(reason.contains("NaN"), "{reason}");
        }
        other => panic!("expected InvalidJob, got {other:?}"),
    }
    assert_eq!(err.tag(), "invalid_job");
    assert_eq!(service.queued_jobs_for("acme"), 0, "nothing charged");
    assert_eq!(service.queued_jobs(), 0);
    assert!(service.run_queued().is_empty(), "nothing runs");
    match service.audit().as_slice() {
        [SearchEvent::SweepRejected { jobs, error, .. }] => {
            assert_eq!(*jobs, 3);
            assert_eq!(error, &err);
        }
        other => panic!("expected one audited refusal, got {other:?}"),
    }
    let health = service.health();
    assert_eq!(health.rejected_malformed, 1);
    assert!(health.fully_accounted(), "{health:?}");
    search_audit_is_well_formed(&service.audit(), true).expect("audit well-formed");
}

/// A job's schedule and target with one seeded fault, or none: the target
/// becomes NaN, ±inf, zero, negative or tiny, or one schedule field breaks
/// (warm-up swallowing the schedule, zero steps, a learning rate or
/// temperature that is zero, negative, NaN or inverted).
fn mutated_job(next: &mut impl FnMut() -> u64) -> SearchJob {
    let mut job = SearchJob::new(20.0, next() % 4, tiny_config());
    let pick = |v: &[f64], r: u64| v[(r % v.len() as u64) as usize];
    let odd = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        -1.5,
        1e-300,
        3.0,
    ];
    match next() % 8 {
        0 => job.target = pick(&odd, next()),
        1 => job.config.warmup_epochs = (next() % 10) as usize,
        2 => job.config.steps_per_epoch = (next() % 3) as usize,
        3 => job.config.alpha_lr = pick(&odd, next()),
        4 => job.config.lambda_lr = pick(&odd, next()),
        5 => job.config.tau_end = pick(&odd, next()),
        6 => job.config.tau_start = pick(&odd, next()),
        _ => {}
    }
    job
}

#[test]
fn mutated_jobs_are_admitted_exactly_when_every_job_can_run() {
    // Admission only: 10,000+ jobs in sweeps of 1 to 5, each mutated or
    // not, under quotas and watermarks too large to refuse anything. No
    // submission may panic, and each must be admitted exactly when every
    // target is finite and positive and every schedule validates; a
    // refusal names the first job that cannot run.
    let f = fixture();
    let config = SearchServiceConfig {
        admission: AdmissionPolicy {
            capacity: usize::MAX,
            normal_mark: usize::MAX,
            low_mark: usize::MAX,
        },
        default_quota: TenantQuota {
            max_queued_jobs: usize::MAX,
        },
        ..SearchServiceConfig::default()
    };
    let service = SearchService::new(&f.oracle, &f.predictor, config, None);
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let runs =
        |j: &SearchJob| j.target.is_finite() && j.target > 0.0 && j.config.validate().is_ok();
    let (mut jobs_seen, mut admitted, mut refused) = (0usize, 0usize, 0usize);
    while jobs_seen < 10_000 {
        let jobs: Vec<SearchJob> = (0..1 + next() % 5)
            .map(|_| mutated_job(&mut next))
            .collect();
        jobs_seen += jobs.len();
        let first_bad = jobs.iter().position(|j| !runs(j));
        match (service.submit_sweep("t", Priority::Normal, jobs), first_bad) {
            (Ok(_), None) => admitted += 1,
            (Err(SearchServeError::InvalidJob { index, .. }), Some(bad)) => {
                assert_eq!(index, bad, "the refusal names the first bad job");
                refused += 1;
            }
            (verdict, bad) => panic!("verdict {verdict:?} for first bad job {bad:?}"),
        }
    }
    assert!(
        admitted > 100 && refused > 100,
        "{admitted} admitted, {refused} refused"
    );
    let health = service.health();
    assert_eq!(health.rejected_malformed, refused as u64);
    search_audit_is_well_formed(&service.audit(), false).expect("audit well-formed");
}

/// Deterministic chaos: a seeded storm of submissions from five tenants —
/// bursty sizes, mixed priorities, a greedy tenant with a raised quota,
/// interleaved partial drains — must (a) never admit past any quota or
/// watermark, (b) type every rejection, (c) keep the audit well-formed,
/// and (d) account for every submission exactly once.
#[test]
fn chaos_storm_of_tenant_submissions_is_fair_typed_and_fully_accounted() {
    let f = fixture();
    let config = tiny_config();
    let mut quotas = std::collections::HashMap::new();
    quotas.insert(
        "greedy".to_string(),
        TenantQuota {
            max_queued_jobs: 12,
        },
    );
    let service = SearchService::new(
        &f.oracle,
        &f.predictor,
        SearchServiceConfig {
            admission: AdmissionPolicy {
                capacity: 24,
                normal_mark: 18,
                low_mark: 12,
            },
            default_quota: TenantQuota { max_queued_jobs: 6 },
            quotas,
            sweep: SweepOptions::with_workers(2),
        },
        None,
    );
    let tenants = ["greedy", "a", "b", "c", "d"];
    let quota_of = |t: &str| service.config().quota_for(t).max_queued_jobs;

    // Seeded LCG — the whole storm is a pure function of this state.
    let mut rng_state = 0x5eed_cafe_u64;
    let mut rng = move |bound: u64| {
        rng_state = rng_state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (rng_state >> 33) % bound
    };

    let mut executed_jobs = 0usize;
    let mut admissions = 0u64;
    let mut rejections = 0u64;
    for round in 0..60 {
        let tenant = tenants[rng(tenants.len() as u64) as usize];
        let priority = match rng(3) {
            0 => Priority::Low,
            1 => Priority::Normal,
            _ => Priority::High,
        };
        let n_jobs = 1 + rng(6) as usize;
        let seeds: Vec<u64> = (0..n_jobs as u64).map(|k| rng(50) + k).collect();
        let jobs = SearchJob::grid(&[18.0 + rng(12) as f64], &seeds, config);

        let tenant_before = service.queued_jobs_for(tenant);
        let depth_before = service.queued_jobs();
        match service.submit_sweep(tenant, priority, jobs) {
            Ok(_) => {
                admissions += 1;
                let quota = quota_of(tenant);
                assert!(
                    service.queued_jobs_for(tenant) <= quota,
                    "round {round}: {tenant} admitted past quota {quota}"
                );
                assert!(
                    service.queued_jobs() <= service.config().admission.limit(priority),
                    "round {round}: depth past the {priority:?} watermark"
                );
            }
            Err(SearchServeError::QuotaExceeded {
                tenant: t,
                queued,
                submitted,
                limit,
            }) => {
                rejections += 1;
                assert_eq!(t, tenant);
                assert_eq!(queued, tenant_before, "round {round}");
                assert_eq!(limit, quota_of(tenant));
                assert!(
                    queued + submitted > limit,
                    "round {round}: spurious quota rejection"
                );
            }
            Err(SearchServeError::Overloaded { depth, limit }) => {
                rejections += 1;
                assert_eq!(depth, depth_before, "round {round}");
                assert_eq!(limit, service.config().admission.limit(priority));
                assert!(depth + n_jobs > limit, "round {round}: spurious overload");
            }
            Err(e) => panic!("round {round}: unexpected rejection {e:?}"),
        }

        // Periodically drain the queue through real execution so the storm
        // exercises refill, not just a full queue rejecting everything.
        if round % 20 == 19 {
            for report in service.run_queued() {
                assert!(report.all_completed(), "{:?}", report.statuses);
                executed_jobs += report.statuses.len();
            }
        }
    }
    for report in service.run_queued() {
        assert!(report.all_completed());
        executed_jobs += report.statuses.len();
    }

    // Exact accounting: every submission is admitted or typed-rejected,
    // every admitted sweep executed, and the health counters agree.
    assert!(
        admissions > 0 && rejections > 0,
        "storm must exercise both paths"
    );
    let audit = service.audit();
    search_audit_is_well_formed(&audit, true).expect("audit well-formed");
    let (mut adm, mut rej, mut done, mut audited_jobs) = (0u64, 0u64, 0u64, 0usize);
    for e in &audit {
        match e {
            SearchEvent::SweepAdmitted { jobs, .. } => {
                adm += 1;
                audited_jobs += jobs;
            }
            SearchEvent::SweepRejected { .. } => rej += 1,
            SearchEvent::SweepDone { .. } => done += 1,
        }
    }
    assert_eq!(adm, admissions);
    assert_eq!(rej, rejections);
    assert_eq!(done, admissions, "every admitted sweep must execute");
    assert_eq!(audited_jobs, executed_jobs, "every admitted job must run");
    let health = service.health();
    assert_eq!(health.submitted, admissions + rejections);
    assert_eq!(health.served, admissions);
    assert!(health.fully_accounted(), "{health:?}");
    assert_eq!(health.cache_shards.len(), DEFAULT_CACHE_SHARDS);
    assert!(
        health.cache_hits > 0,
        "a 60-round storm must produce cache hits"
    );
}
