//! The search workloads: `search_once` (the paper's headline cost, from
//! corpus to converged λ-search) and `tenant_sweeps` (multi-tenant sweeps
//! through one `SearchService`, with checkpoints and telemetry on).

use std::time::Instant;

use lightnas::{SearchConfig, SearchStepper};
use lightnas_predictor::{
    CacheStats, CachedPredictor, Metric, MetricDataset, MlpPredictor, Predictor, TrainConfig,
};
use lightnas_runtime::{run_sweep, Checkpoint, JobStatus, SearchJob, SweepOptions, Telemetry};
use lightnas_serve::{search_audit_is_well_formed, Priority, SearchService, SearchServiceConfig};
use lightnas_space::{Architecture, SearchSpace};

use crate::report::{fingerprint, Report};
use crate::stats;
use crate::substrate::{scratch_dir, Substrate, WORKERS};
use crate::trace::{self, Timed};

/// The paper's corpus: 10,000 architectures, 80% of them for training.
const CORPUS_ROWS: usize = 10_000;

/// The paper's predictor protocol.
const FIT: TrainConfig = TrainConfig {
    epochs: 150,
    batch_size: 256,
    lr: 1e-3,
    seed: 0,
};

/// `search_once`'s two latency targets, ms.
const TARGETS: [f64; 2] = [20.0, 26.0];

/// The largest |predicted LAT(arch) / T − 1| a converged search may leave,
/// in percent.
pub const LAT_ERR_BOUND_PCT: f64 = 10.0;

/// `search_once`'s set-up is only the substrate build, tens of µs: too
/// short to time once in a cold process, so it is timed this many times and
/// the median reported.
const SETUP_BUILDS: usize = 50;

/// Tenant-sweep rounds per repetition.
const ROUNDS: u64 = 2;

/// `(architecture spec, λ bits)` of every completed job, fingerprinted.
fn fingerprint_statuses<'a>(statuses: impl Iterator<Item = &'a JobStatus>) -> String {
    let mut bytes = Vec::new();
    for s in statuses {
        if let Some(r) = s.completed() {
            bytes.extend(r.outcome.architecture.to_spec().bytes());
            bytes.extend(r.outcome.lambda.to_bits().to_le_bytes());
        }
    }
    fingerprint(&bytes)
}

/// A predictor answering a constant, to time the cache's own hit path.
struct Constant;

impl Predictor for Constant {
    fn predict_encoding(&self, _encoding: &[f32]) -> f64 {
        1.0
    }
    fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
        vec![0.0; encoding.len()]
    }
}

/// Median time (µs) of a `CachedPredictor` hit at `occupancy` entries.
/// `run_sweep` owns its cache, so the hit path is timed on a cache of the
/// run's size right after the run rather than inside it.
fn cache_hit_us_p50(space: &SearchSpace, occupancy: usize, seed: u64) -> f64 {
    let inner = Constant;
    let cache = CachedPredictor::new(&inner);
    let encodings: Vec<Vec<f32>> = (0..occupancy.clamp(256, 20_000) as u64)
        .map(|i| Architecture::random(space, seed.wrapping_add(i)).encode())
        .collect();
    for e in &encodings {
        cache.predict_encoding(e);
    }
    let times: Vec<f64> = encodings
        .iter()
        .take(4096)
        .map(|e| {
            let t = Instant::now();
            std::hint::black_box(cache.predict_encoding(std::hint::black_box(e)));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&times)
}

/// What the per-layer split of a sweep needs.
struct SweepLayers {
    job_wall_s: f64,
    sweep_s: f64,
    cache: CacheStats,
}

/// Per-layer metrics of the predictor, cache, core and scheduler, from the
/// query spans recorded below the cache.
fn sweep_layers(r: &mut Report, space: &SearchSpace, seed: u64, s: &SweepLayers) {
    let spans = trace::snapshot();
    let per_thread = trace::per_thread_us(&spans, "predictor.query");
    let all: Vec<f64> = per_thread.values().flatten().copied().collect();
    let query_s = all.iter().sum::<f64>() * 1e-6;
    r.metric("predictor.query_calls", all.len() as f64);
    if !all.is_empty() {
        let sorted = stats::sorted(&all);
        r.metric("predictor.query_us_p50", stats::percentile(&sorted, 50.0));
        r.metric("predictor.query_us_p99", stats::percentile(&sorted, 99.0));
    }
    let growth = per_thread
        .values()
        .filter_map(|seq| stats::growth(seq))
        .fold(0.0, f64::max);
    r.metric("predictor.query_growth", growth);
    let lookups = s.cache.hits + s.cache.misses;
    let hit_us = cache_hit_us_p50(space, s.cache.misses as usize, seed);
    r.metric("predictor.cache_hit_ratio", s.cache.hit_rate());
    r.metric("predictor.cache_us_p50", hit_us);
    r.metric(
        "core.self_s",
        s.job_wall_s - query_s - lookups as f64 * hit_us * 1e-6,
    );
    r.metric("runtime.sweep_s", s.sweep_s);
    r.metric(
        "runtime.idle_share",
        1.0 - s.job_wall_s / (WORKERS as f64 * s.sweep_s),
    );
}

/// `search_once`: corpus → paper-protocol fit → two unequal paper-schedule
/// searches on two workers, cold cache, no checkpoints.
pub fn search_once(seed: u64, setup_only: bool, r: &mut Report) {
    let mut builds = Vec::with_capacity(SETUP_BUILDS);
    let sub = (0..SETUP_BUILDS)
        .map(|_| {
            let t = Instant::now();
            let sub = Substrate::build();
            builds.push(t.elapsed().as_secs_f64());
            sub
        })
        .last()
        .expect("at least one build");
    r.metric("setup_s", stats::median(&builds));
    if setup_only {
        return;
    }

    let root = trace::reserve();
    let (root_start, started) = (trace::now_ns(), Instant::now());
    let corpus = trace::span("hw.corpus", root, 1, |_| {
        MetricDataset::sample_diverse(
            &sub.device,
            &sub.space,
            Metric::LatencyMs,
            CORPUS_ROWS,
            seed,
        )
    });
    let corpus_s = started.elapsed().as_secs_f64();
    let (train, _) = corpus.split(0.8);
    let fit_started = Instant::now();
    let mlp = trace::span("predictor.fit", root, 1, |_| {
        MlpPredictor::train(&train, &TrainConfig { seed, ..FIT })
    });
    let fit_s = fit_started.elapsed().as_secs_f64();
    // Two unequal targets: the slower job sets the wall.
    let jobs = TARGETS.map(|t| SearchJob::new(t, seed ^ t.to_bits(), SearchConfig::paper()));
    let below = Timed::new(&mlp, "predictor.query");
    let report = trace::span("runtime.sweep", root, WORKERS as u32, |id| {
        below.set_parent(id);
        run_sweep(
            &sub.oracle,
            &below,
            &jobs,
            &SweepOptions::with_workers(WORKERS),
            None,
        )
    });
    let wall = started.elapsed().as_secs_f64();
    trace::record(root, "search_once", 0, root_start, 1, 0);

    let done = report.completed();
    let walls_us: Vec<f64> = done.iter().map(|j| j.wall.as_secs_f64() * 1e6).collect();
    let lat_err_pct = done
        .iter()
        .map(|j| (mlp.predict(&j.outcome.architecture) / j.job.target - 1.0).abs() * 100.0)
        .fold(0.0, f64::max);
    r.count(jobs.len() as u64, (jobs.len() - done.len()) as u64);
    r.gate(
        "jobs_completed",
        report.all_completed(),
        format!("{} of {} jobs converged", done.len(), jobs.len()),
    );
    r.gate(
        "search_lat_err",
        !done.is_empty() && lat_err_pct <= LAT_ERR_BOUND_PCT,
        format!("{lat_err_pct:.3}% <= {LAT_ERR_BOUND_PCT}%"),
    );
    r.fingerprints
        .push(fingerprint_statuses(report.statuses.iter()));
    // The unit a user waits for here is one whole search-once pass, the
    // ROADMAP's headline number; the job walls are noted.
    r.work(done.len() as f64, wall);
    r.op_latencies("search-once pass", &[wall * 1e6]);
    if !walls_us.is_empty() {
        r.info(format!(
            "job walls (JobResult.wall): {:?} us",
            walls_us.iter().map(|w| w.round()).collect::<Vec<_>>()
        ));
    }
    r.info(format!("search_once_s = {wall:.4} s"));
    r.info(format!("search_lat_err_pct = {lat_err_pct:.4} %"));
    r.info(format!(
        "targets {TARGETS:?} ms, corpus {corpus_s:.3} s, fit {fit_s:.3} s, sweep {:.3} s",
        report.wall.as_secs_f64()
    ));

    if trace::enabled() {
        r.metric("hw.corpus_s", corpus_s);
        r.metric("predictor.fit_s", fit_s);
        r.metric(
            "predictor.fit_rows_per_s",
            (train.len() * FIT.epochs) as f64 / fit_s,
        );
        sweep_layers(
            r,
            &sub.space,
            seed,
            &SweepLayers {
                job_wall_s: walls_us.iter().sum::<f64>() * 1e-6,
                sweep_s: report.wall.as_secs_f64(),
                cache: report.cache,
            },
        );
        r.stages(&trace::breakdown(&trace::snapshot(), root));
    }
}

/// Round `round`'s three tenant grids: targets shared across tenants (cache
/// hits) and fresh search seeds every round (cold misses).
fn tenant_grids(seed: u64, round: u64) -> [(&'static str, Vec<SearchJob>); 3] {
    let base = 20.0;
    let config = SearchConfig::fast();
    let s = seed.wrapping_mul(31).wrapping_add(round * 7);
    [
        ("acme", SearchJob::grid(&[base, base + 4.0], &[s], config)),
        (
            "globex",
            SearchJob::grid(&[base, base + 2.0], &[s + 3], config),
        ),
        (
            "initech",
            SearchJob::grid(&[base + 4.0], &[s, s + 5], config),
        ),
    ]
}

/// `tenant_sweeps`: three tenants submit overlapping fast grids to one
/// `SearchService` over several `submit_sweep` → `run_queued` rounds, with
/// checkpoints every epoch and telemetry JSONL on.
pub fn tenant_sweeps(seed: u64, setup_only: bool, r: &mut Report) {
    let t = Instant::now();
    let sub = Substrate::build();
    let mlp = sub.prefit(seed);
    r.metric("setup_s", t.elapsed().as_secs_f64());
    if setup_only {
        return;
    }

    let dir = scratch_dir("tenant_sweeps");
    let telemetry = match Telemetry::create(&dir, "tenant_sweeps") {
        Ok(t) => t,
        Err(e) => {
            r.gate("telemetry_opened", false, e.to_string());
            return;
        }
    };
    let below = Timed::new(&mlp, "predictor.query");
    let service = SearchService::new(
        &sub.oracle,
        &below,
        SearchServiceConfig {
            sweep: SweepOptions {
                workers: WORKERS,
                checkpoint_dir: Some(dir.join("ckpt")),
                checkpoint_every: 1,
                ..SweepOptions::default()
            },
            ..SearchServiceConfig::default()
        },
        Some(&telemetry),
    );

    let root = trace::reserve();
    let (root_start, started) = (trace::now_ns(), Instant::now());
    let mut submit_us = Vec::new();
    let mut admitted = true;
    let mut statuses = Vec::new();
    let mut sweeps_complete = true;
    let mut sweep_s = 0.0;
    for round in 0..ROUNDS {
        for (tenant, jobs) in tenant_grids(seed, round) {
            let t = Instant::now();
            let ticket = trace::span("serve.submit_sweep", root, 1, |_| {
                service.submit_sweep(tenant, Priority::Normal, jobs)
            });
            submit_us.push(t.elapsed().as_secs_f64() * 1e6);
            if let Err(e) = ticket {
                admitted = false;
                r.info(format!("round {round}: {tenant} refused: {e}"));
            }
        }
        let t = Instant::now();
        let reports = trace::span("runtime.run_queued", root, WORKERS as u32, |id| {
            below.set_parent(id);
            service.run_queued()
        });
        sweep_s += t.elapsed().as_secs_f64();
        for rep in reports {
            sweeps_complete &= rep.all_completed();
            statuses.extend(rep.statuses);
        }
    }
    let wall = started.elapsed().as_secs_f64();
    trace::record(root, "tenant_sweeps", 0, root_start, 1, 0);

    let walls_us: Vec<f64> = statuses
        .iter()
        .filter_map(JobStatus::completed)
        .map(|j| j.wall.as_secs_f64() * 1e6)
        .collect();
    let expected: usize = (0..ROUNDS)
        .map(|round| {
            tenant_grids(seed, round)
                .iter()
                .map(|(_, j)| j.len())
                .sum::<usize>()
        })
        .sum();
    let audit_ok = search_audit_is_well_formed(&service.audit(), true);
    r.count(expected as u64, (expected - walls_us.len()) as u64);
    r.gate(
        "sweeps_completed",
        admitted && sweeps_complete && walls_us.len() == expected,
        format!(
            "{} of {expected} jobs completed, all sweeps admitted: {admitted}",
            walls_us.len()
        ),
    );
    r.gate(
        "search_audit",
        audit_ok.is_ok(),
        audit_ok.err().unwrap_or_else(|| "well formed".into()),
    );
    r.fingerprints.push(fingerprint_statuses(statuses.iter()));
    r.work(walls_us.len() as f64, wall);
    if !walls_us.is_empty() {
        r.op_latencies("tenant job (JobResult.wall)", &walls_us);
    }
    let cache = service.cache_stats();
    r.info(format!(
        "tenant_jobs_per_s = {:.4} ({} jobs in {wall:.3} s, {ROUNDS} rounds, cache hit ratio {:.4})",
        walls_us.len() as f64 / wall,
        walls_us.len(),
        cache.hit_rate()
    ));

    if trace::enabled() {
        let text = std::fs::read_to_string(telemetry.path()).unwrap_or_default();
        let checkpoints = text
            .lines()
            .filter(|l| l.contains("\"event\":\"checkpoint\""))
            .count();
        // Completed jobs delete their checkpoints, so the bytes written are
        // counted as checkpoints × the size of one rendered checkpoint.
        let config = SearchConfig::fast();
        let one = Checkpoint::new(
            20.0,
            seed,
            config,
            SearchStepper::new(&sub.oracle, &mlp, config, 20.0, seed).state(),
        )
        .render()
        .len();
        r.metric("runtime.checkpoints", checkpoints as f64);
        r.metric("runtime.checkpoint_bytes", (checkpoints * one) as f64);
        r.metric("runtime.telemetry_bytes", text.len() as f64);
        r.metric("serve.sweep_submit_us_p50", stats::median(&submit_us));
        sweep_layers(
            r,
            &sub.space,
            seed,
            &SweepLayers {
                job_wall_s: walls_us.iter().sum::<f64>() * 1e-6,
                sweep_s,
                cache,
            },
        );
        r.stages(&trace::breakdown(&trace::snapshot(), root));
    }
    drop(telemetry);
    let _ = std::fs::remove_dir_all(&dir);
}
