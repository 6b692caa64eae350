//! Scale-out contention exhibit: the sharded single-flight predictor cache
//! versus the seed's single-lock layout, plus multi-tenant determinism.
//!
//! Three claims, three gates (DESIGN.md §16):
//!
//! 1. **Single-flight exactness** (always asserted, deterministic): a
//!    barrier-synchronized 8-thread miss storm over 64 distinct keys drives
//!    exactly 64 computes through the wrapped predictor — concurrent misses
//!    on one key compute once. The seed-layout replica (`LegacyCache`, two
//!    global `RwLock`s, no single-flight) is run on the same storm for
//!    comparison; its redundant-compute count is scheduling-dependent, so
//!    it is reported, not asserted.
//! 2. **Multi-tenant byte-identity** (always asserted, deterministic):
//!    three tenants' sweeps through one [`SearchService`] — shared sharded
//!    cache, concurrent workers — produce results byte-identical to
//!    private, serial, cold-cache [`run_sweep`] runs of the same jobs.
//!    The fingerprints (and the shared cache's exact counters, which
//!    single-flight makes schedule-independent) land in
//!    `results/scale_results.txt`; CI runs the exhibit twice and `cmp`s
//!    that file byte-for-byte.
//! 3. **Contention scaling** (hardware-gated): hit-heavy throughput of
//!    both layouts at 1/2/4/8 threads. On a machine with ≥ 8 hardware
//!    threads, the sharded cache must reach **≥ 4×** the single-lock
//!    baseline at 8 threads. Below 8 hardware threads the lock-contention
//!    regime physically cannot be expressed (threads time-slice instead of
//!    colliding), so the matrix is published as evidence and the asserted
//!    floor is the honest one: sharding must never *cost* throughput
//!    (≥ 0.75× baseline at every thread count, the slack covering shared-box
//!    timing wobble).
//!
//! ```text
//! cargo run --release -p lightnas-bench --bin scale_bench > results/scale_bench.txt
//! ```
//!
//! The timing table and the verdicts go to stdout (`results/scale_bench.txt`
//! is that stdout), raw numbers to `BENCH_scale.json`, deterministic results
//! to `results/scale_results.txt`.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, PoisonError, RwLock};

use lightnas::SearchConfig;
use lightnas_bench::{
    best_of, exit_code, hardware_threads, quick_mode, render_table, span_us, sweep_workers,
    verdict, write_artifact, BenchJson,
};
use lightnas_eval::AccuracyOracle;
use lightnas_hw::Xavier;
use lightnas_predictor::{
    architecture_key, CachedPredictor, Metric, MetricDataset, MlpPredictor, Predictor, TrainConfig,
};
use lightnas_runtime::{run_sweep, JobStatus, SearchJob, SweepOptions, Telemetry};
use lightnas_serve::{search_audit_is_well_formed, Priority, SearchService, SearchServiceConfig};
use lightnas_space::{Architecture, SearchSpace};

/// A faithful replica of the seed's cache layout — two *global* `RwLock`
/// maps, no shards, no single-flight — kept here as the honest baseline
/// the sharded cache is measured against.
struct LegacyCache<'a, P: Predictor> {
    inner: &'a P,
    predictions: RwLock<std::collections::HashMap<u64, f64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<'a, P: Predictor> LegacyCache<'a, P> {
    fn new(inner: &'a P) -> Self {
        Self {
            inner,
            predictions: RwLock::new(std::collections::HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn predict(&self, arch: &Architecture) -> f64 {
        let key = architecture_key(arch);
        if let Some(&v) = self
            .predictions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        // The seed behaviour: every missing thread computes, last insert
        // wins. No coalescing.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = self.inner.predict(arch);
        self.predictions
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, v);
        v
    }
}

/// Counts rows that genuinely reach the wrapped predictor.
struct Counting<'a> {
    inner: &'a MlpPredictor,
    computes: AtomicU64,
}

impl Predictor for Counting<'_> {
    fn predict_encoding(&self, encoding: &[f32]) -> f64 {
        self.computes.fetch_add(1, Ordering::Relaxed);
        self.inner.predict_encoding(encoding)
    }
    fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
        self.computes.fetch_add(1, Ordering::Relaxed);
        self.inner.gradient(encoding)
    }
    fn predict(&self, arch: &Architecture) -> f64 {
        self.computes.fetch_add(1, Ordering::Relaxed);
        self.inner.predict(arch)
    }
}

fn fingerprints(statuses: &[JobStatus]) -> Vec<(String, u64)> {
    statuses
        .iter()
        .map(|s| {
            let r = s.completed().expect("scale_bench jobs must complete");
            (r.outcome.architecture.to_spec(), r.outcome.lambda.to_bits())
        })
        .collect()
}

/// Hit-heavy run of one cache layout: `threads` threads, each looping
/// `iters` queries over `archs` (fully preloaded — every query is a hit),
/// from thread-distinct offsets and strides so threads do not walk in
/// lockstep. Returns the wall time from the release barrier to the last
/// join, in microseconds; thread start-up stays outside it.
fn hit_run_us(
    predict: &(dyn Fn(&Architecture) -> f64 + Sync),
    archs: &[Architecture],
    threads: usize,
    iters: usize,
) -> f64 {
    let barrier = Barrier::new(threads + 1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut k = t * 17;
                    barrier.wait();
                    for _ in 0..iters {
                        let a = &archs[k % archs.len()];
                        std::hint::black_box(predict(a));
                        k += 1 + t;
                    }
                })
            })
            .collect();
        barrier.wait();
        span_us(|| {
            for w in workers {
                w.join().expect("hit-heavy workers do not panic");
            }
        })
    })
}

fn main() -> ExitCode {
    let quick = quick_mode();
    let space = SearchSpace::standard();
    let device = Xavier::maxn();
    let oracle = AccuracyOracle::imagenet();
    let data = MetricDataset::sample(&device, &space, Metric::LatencyMs, 1200, 23);
    let mlp = MlpPredictor::train(
        &data,
        &TrainConfig {
            epochs: 20,
            batch_size: 128,
            lr: 2e-3,
            seed: 9,
        },
    );
    let parallelism = hardware_threads();
    let mut results = String::new(); // the deterministic artifact CI cmp's

    // --- gate 1: single-flight exactness under an 8-thread miss storm.
    const STORM_KEYS: usize = 64;
    const STORM_THREADS: usize = 8;
    let storm: Vec<Architecture> = (0..STORM_KEYS as u64)
        .map(|s| Architecture::random(&space, 1000 + s))
        .collect();
    let counting = Counting {
        inner: &mlp,
        computes: AtomicU64::new(0),
    };
    let sharded_storm = CachedPredictor::with_shards(&counting, 16);
    let barrier = Barrier::new(STORM_THREADS);
    std::thread::scope(|scope| {
        for t in 0..STORM_THREADS {
            let (storm, cached, barrier) = (&storm, &sharded_storm, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for k in 0..storm.len() {
                    let _ = Predictor::predict(cached, &storm[(k + t * 7) % storm.len()]);
                }
            });
        }
    });
    let sharded_computes = counting.computes.load(Ordering::Relaxed);
    if sharded_computes != STORM_KEYS as u64 {
        eprintln!(
            "error: single-flight must compute each of the {STORM_KEYS} distinct keys exactly \
             once under the miss storm; counted {sharded_computes}"
        );
        return ExitCode::FAILURE;
    }
    // Same storm through the seed layout: redundant computes are
    // scheduling-dependent, so this is evidence, not a gate.
    let legacy_counting = Counting {
        inner: &mlp,
        computes: AtomicU64::new(0),
    };
    let legacy_storm = LegacyCache::new(&legacy_counting);
    let barrier = Barrier::new(STORM_THREADS);
    std::thread::scope(|scope| {
        for t in 0..STORM_THREADS {
            let (storm, cached, barrier) = (&storm, &legacy_storm, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for k in 0..storm.len() {
                    let _ = cached.predict(&storm[(k + t * 7) % storm.len()]);
                }
            });
        }
    });
    let legacy_computes = legacy_counting.computes.load(Ordering::Relaxed);
    println!(
        "single-flight storm: {STORM_THREADS} threads x {STORM_KEYS} distinct keys -> \
         {sharded_computes} computes (exactly one per key); seed layout recomputed \
         {legacy_computes} (schedule-dependent)"
    );
    let _ = writeln!(
        results,
        "single_flight: threads={STORM_THREADS} distinct={STORM_KEYS} computes={sharded_computes}"
    );

    // --- gate 2: multi-tenant byte-identity against private serial runs.
    let config = if quick {
        SearchConfig {
            epochs: 6,
            steps_per_epoch: 8,
            warmup_epochs: 2,
            ..SearchConfig::fast()
        }
    } else {
        SearchConfig {
            epochs: 10,
            steps_per_epoch: 12,
            warmup_epochs: 2,
            ..SearchConfig::fast()
        }
    };
    // Overlapping targets across tenants — the cross-tenant cache-reuse
    // regime the service exists for.
    let sweeps: Vec<(&str, Vec<SearchJob>)> = vec![
        ("acme", SearchJob::grid(&[19.0, 25.0], &[0], config)),
        ("globex", SearchJob::grid(&[19.0, 21.0], &[3], config)),
        ("initech", SearchJob::grid(&[25.0], &[0, 5], config)),
    ];
    let telemetry = Telemetry::create("results/runs", "scale_service").ok();
    let service = SearchService::new(
        &oracle,
        &mlp,
        SearchServiceConfig {
            sweep: SweepOptions::with_workers(sweep_workers(8)),
            ..SearchServiceConfig::default()
        },
        telemetry.as_ref(),
    );
    for (tenant, jobs) in &sweeps {
        if let Err(e) = service.submit_sweep(tenant, Priority::Normal, jobs.clone()) {
            eprintln!("error: tenant {tenant} rejected at admission: {e}");
            return ExitCode::FAILURE;
        }
    }
    let reports = service.run_queued();
    let mut identical = true;
    for ((tenant, jobs), report) in sweeps.iter().zip(&reports) {
        let shared = fingerprints(&report.statuses);
        let private = run_sweep(&oracle, &mlp, jobs, &SweepOptions::serial(), None);
        let serial = fingerprints(&private.statuses);
        if shared != serial {
            eprintln!("error: tenant {tenant}: shared-cache results diverged from serial run");
            eprintln!("  shared: {shared:?}\n  serial: {serial:?}");
            identical = false;
        }
        let _ = writeln!(results, "tenant {tenant} ({} jobs):", jobs.len());
        for (spec, lambda) in &shared {
            let _ = writeln!(results, "  arch={spec} lambda_bits={lambda:016x}");
        }
    }
    if !identical {
        return ExitCode::FAILURE;
    }
    if let Err(v) = search_audit_is_well_formed(&service.audit(), true) {
        eprintln!("error: service audit is malformed: {v}");
        return ExitCode::FAILURE;
    }
    // Single-flight makes the shared counters schedule-independent (misses
    // == distinct keys regardless of worker interleaving), so the exact
    // numbers belong in the deterministic artifact.
    let snap = service.cache_snapshot();
    if snap.stats.misses as usize != snap.predictions + snap.gradients {
        eprintln!("error: cache invariant broke: {snap:?}");
        return ExitCode::FAILURE;
    }
    println!(
        "multi-tenant byte-identity: {} tenants, {} jobs, results identical to private serial \
         runs; shared cache {} hits / {} misses over {} shards",
        sweeps.len(),
        reports.iter().map(|r| r.statuses.len()).sum::<usize>(),
        snap.stats.hits,
        snap.stats.misses,
        snap.shards.len()
    );
    let _ = writeln!(
        results,
        "shared_cache: hits={} misses={} occupancy={} shards={}",
        snap.stats.hits,
        snap.stats.misses,
        snap.predictions + snap.gradients,
        snap.shards.len()
    );
    let _ = writeln!(results, "byte_identity: PASS");

    // --- gate 3: hit-heavy contention matrix, single-lock vs sharded.
    const HOT_KEYS: usize = 256;
    let hot: Vec<Architecture> = (0..HOT_KEYS as u64)
        .map(|s| Architecture::random(&space, 5000 + s))
        .collect();
    let iters = if quick { 150_000 } else { 400_000 };
    let rounds = if quick { 3 } else { 5 };
    let thread_counts = [1usize, 2, 4, 8];
    let legacy = LegacyCache::new(&mlp);
    let sharded = CachedPredictor::with_shards(&mlp, 16);
    for a in &hot {
        let _ = legacy.predict(a);
        let _ = Predictor::predict(&sharded, a);
    }
    let legacy_fn = |a: &Architecture| legacy.predict(a);
    let sharded_fn = |a: &Architecture| Predictor::predict(&sharded, a);
    // Lane 2i is the single lock at thread_counts[i], lane 2i + 1 the
    // sharded cache: both layouts interleave, so machine noise lands on
    // both.
    let best_us = best_of(rounds, 2 * thread_counts.len(), |lane| {
        let predict: &(dyn Fn(&Architecture) -> f64 + Sync) = if lane % 2 == 0 {
            &legacy_fn
        } else {
            &sharded_fn
        };
        hit_run_us(predict, &hot, thread_counts[lane / 2], iters)
    });
    let qps = |lane: usize| (thread_counts[lane / 2] * iters) as f64 / (best_us[lane] / 1e6);
    let legacy_qps: Vec<f64> = (0..thread_counts.len()).map(|i| qps(2 * i)).collect();
    let sharded_qps: Vec<f64> = (0..thread_counts.len()).map(|i| qps(2 * i + 1)).collect();

    let table = render_table(
        &[
            "threads",
            "single-lock Mq/s",
            "sharded Mq/s",
            "sharded/legacy",
            "sharded vs 1-thread",
        ],
        &thread_counts
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                vec![
                    format!("{t}"),
                    format!("{:.2}", legacy_qps[i] / 1e6),
                    format!("{:.2}", sharded_qps[i] / 1e6),
                    format!("{:.2}x", sharded_qps[i] / legacy_qps[i]),
                    format!("{:.2}x", sharded_qps[i] / sharded_qps[0]),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\nhit-heavy cache throughput, {HOT_KEYS} hot keys, best of {rounds} interleaved rounds \
         ({parallelism} hardware threads)\n"
    );
    println!("{table}");

    let speedup_at_8 = sharded_qps[3] / legacy_qps[3];
    let bar_armed = parallelism >= 8;

    // --- artifacts, written before the bars decide the exit code.
    let contention: Vec<Vec<(&str, String)>> = thread_counts
        .iter()
        .enumerate()
        .map(|(i, t)| {
            vec![
                ("threads", t.to_string()),
                ("single_lock_qps", format!("{:.0}", legacy_qps[i])),
                ("sharded_qps", format!("{:.0}", sharded_qps[i])),
                ("speedup", format!("{:.3}", sharded_qps[i] / legacy_qps[i])),
            ]
        })
        .collect();
    let json = BenchJson::default()
        .rows("contention", &contention)
        .field("hot_keys", HOT_KEYS)
        .field("iters_per_thread", iters)
        .field("hardware_threads", parallelism)
        .field("contention_bar_armed", bar_armed)
        .field("speedup_at_8_threads", format!("{speedup_at_8:.3}"))
        .field("single_flight_storm_computes", sharded_computes)
        .field("single_flight_storm_distinct", STORM_KEYS)
        .field("legacy_storm_computes", legacy_computes)
        .field("multi_tenant_byte_identity", true)
        .field("shared_cache_hits", snap.stats.hits)
        .field("shared_cache_misses", snap.stats.misses);
    let _ = write_artifact("results/scale_results.txt", &results);
    let _ = write_artifact("BENCH_scale.json", json.render());

    // --- bars.
    println!("scale_bench verdicts:");
    let mut pass = true;
    if bar_armed {
        pass &= verdict(
            "sharded >= 4x single-lock at 8 threads",
            speedup_at_8 >= 4.0,
            &format!("{speedup_at_8:.2}x on {parallelism} hw threads"),
        );
    } else {
        println!(
            "  contention bar NOT armed: {parallelism} hardware thread(s) < 8 — the lock-contention \
             regime cannot be expressed (threads time-slice instead of colliding); asserting the \
             no-regression floor (>= 0.75x at every thread count) instead"
        );
    }
    // 0.75 rather than 1.0: wall-clock on shared boxes wobbles ±20%, and
    // the claim is "sharding is never a tax", not "sharding wins without
    // parallel hardware".
    for (i, &t) in thread_counts.iter().enumerate() {
        let ratio = sharded_qps[i] / legacy_qps[i];
        pass &= verdict(
            &format!("sharded >= 0.75x single-lock at {t} threads"),
            ratio >= 0.75,
            &format!("{ratio:.2}x"),
        );
    }
    exit_code("scale_bench", pass)
}
