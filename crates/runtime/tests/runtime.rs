//! End-to-end properties of the runtime: worker-count-independent
//! determinism, cache transparency, and kill/resume bit-identity.

use std::path::PathBuf;
use std::sync::OnceLock;

use lightnas::{LightNas, SearchConfig};
use lightnas_eval::AccuracyOracle;
use lightnas_hw::Xavier;
use lightnas_predictor::{Metric, MetricDataset, MlpPredictor, TrainConfig};
use lightnas_runtime::{run_sweep, JobStatus, SearchJob, SweepOptions, Telemetry};
use lightnas_space::SearchSpace;

struct Fixture {
    space: SearchSpace,
    oracle: AccuracyOracle,
    predictor: MlpPredictor,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let space = SearchSpace::standard();
        let device = Xavier::maxn();
        let oracle = AccuracyOracle::imagenet();
        let data = MetricDataset::sample_diverse(&device, &space, Metric::LatencyMs, 1200, 7);
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 128,
            lr: 2e-3,
            seed: 0,
        };
        let predictor = MlpPredictor::train(&data, &cfg);
        Fixture {
            space,
            oracle,
            predictor,
        }
    })
}

/// A schedule small enough for CI but long enough to interrupt mid-way.
fn tiny_config() -> SearchConfig {
    SearchConfig {
        epochs: 10,
        steps_per_epoch: 12,
        warmup_epochs: 2,
        ..SearchConfig::fast()
    }
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lightnas-runtime-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `(architecture spec, λ bits)` per job — the byte-level fingerprint two
/// sweeps must share to count as identical.
fn fingerprints(report: &lightnas_runtime::SweepReport) -> Vec<(String, u64)> {
    report
        .statuses
        .iter()
        .map(|s| {
            let r = s.completed().expect("sweep must complete");
            (r.outcome.architecture.to_spec(), r.outcome.lambda.to_bits())
        })
        .collect()
}

#[test]
fn sweep_matches_serial_engine_under_any_worker_count() {
    let f = fixture();
    let config = tiny_config();
    let jobs = SearchJob::grid(&[19.0, 25.0], &[0, 3], config);

    // Ground truth: the plain engine, no scheduler, no cache.
    let engine = LightNas::new(&f.space, &f.oracle, &f.predictor, config);
    let expected: Vec<(String, u64)> = jobs
        .iter()
        .map(|j| {
            let o = engine.search(j.target, j.seed);
            (o.architecture.to_spec(), o.lambda.to_bits())
        })
        .collect();

    for workers in [1, 4] {
        let report = run_sweep(
            &f.oracle,
            &f.predictor,
            &jobs,
            &SweepOptions::with_workers(workers),
            None,
        );
        assert!(report.all_completed());
        assert_eq!(
            fingerprints(&report),
            expected,
            "{workers}-worker sweep must be byte-identical to serial searches"
        );
        // The shared cache must actually absorb repeat queries: every epoch
        // re-predicts the argmax architecture, which rarely changes.
        let stats = report.cache;
        assert!(stats.hits > stats.misses, "cache barely hit: {stats:?}");
    }
}

#[test]
fn sweep_with_kernel_threads_is_byte_identical_to_serial() {
    // The in-job tensor-kernel parallelism knob must change throughput only:
    // a sweep at 4 kernel threads lands on the same architectures and the
    // same λ bits as the plain serial engine.
    let f = fixture();
    let config = tiny_config();
    let jobs = SearchJob::grid(&[19.0, 25.0], &[0, 3], config);

    let engine = LightNas::new(&f.space, &f.oracle, &f.predictor, config);
    let expected: Vec<(String, u64)> = jobs
        .iter()
        .map(|j| {
            let o = engine.search(j.target, j.seed);
            (o.architecture.to_spec(), o.lambda.to_bits())
        })
        .collect();

    let before = lightnas_tensor::kernels::num_threads();
    let report = run_sweep(
        &f.oracle,
        &f.predictor,
        &jobs,
        &SweepOptions {
            workers: 2,
            kernel_threads: 4,
            ..SweepOptions::default()
        },
        None,
    );
    assert_eq!(lightnas_tensor::kernels::num_threads(), 4);
    lightnas_tensor::set_num_threads(before);
    assert!(report.all_completed());
    assert_eq!(
        fingerprints(&report),
        expected,
        "kernel-parallel sweep must be byte-identical to serial searches"
    );
}

#[test]
fn killed_sweep_resumes_to_identical_results() {
    let f = fixture();
    let config = tiny_config();
    let jobs = SearchJob::grid(&[21.0], &[1, 4, 8], config);
    let total_epochs: usize = jobs.len() * config.epochs;

    let uninterrupted = run_sweep(
        &f.oracle,
        &f.predictor,
        &jobs,
        &SweepOptions::serial(),
        None,
    );
    let expected = fingerprints(&uninterrupted);

    let dir = test_dir("resume");
    let killed = SweepOptions {
        workers: 2,
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 0,
        epoch_budget: Some(total_epochs / 2),
        ..SweepOptions::default()
    };
    let first = run_sweep(&f.oracle, &f.predictor, &jobs, &killed, None);
    assert!(
        !first.all_completed(),
        "the budget must interrupt the sweep"
    );
    let mut saw_checkpoint = false;
    for s in &first.statuses {
        if let JobStatus::Interrupted {
            epoch, checkpoint, ..
        } = s
        {
            assert!(*epoch < config.epochs);
            let path = checkpoint.as_ref().expect("dir configured, so a path");
            assert!(
                path.exists(),
                "interrupted job must leave {}",
                path.display()
            );
            saw_checkpoint = true;
        }
    }
    assert!(saw_checkpoint);

    // Same invocation again, unlimited: resumes the survivors.
    let second = run_sweep(
        &f.oracle,
        &f.predictor,
        &jobs,
        &SweepOptions {
            epoch_budget: None,
            ..killed
        },
        None,
    );
    assert!(second.all_completed());
    assert_eq!(
        fingerprints(&second),
        expected,
        "resumed results must be byte-identical to the uninterrupted run"
    );
    let resumed = second
        .statuses
        .iter()
        .filter(|s| s.completed().is_some_and(|r| r.resumed_from.is_some()))
        .count();
    assert!(
        resumed > 0,
        "at least one job must have come back from a checkpoint"
    );
    // Completed jobs clean up after themselves.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .map(|rd| rd.filter_map(Result::ok).map(|e| e.path()).collect())
        .unwrap_or_default();
    assert!(
        leftovers.is_empty(),
        "spent checkpoints must be removed: {leftovers:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn periodic_checkpoints_appear_while_running() {
    let f = fixture();
    let config = tiny_config();
    let jobs = vec![SearchJob::new(23.0, 2, config)];
    let dir = test_dir("periodic");
    // Budget stops the job right after several periodic checkpoints.
    let opts = SweepOptions {
        workers: 1,
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 2,
        epoch_budget: Some(7),
        ..SweepOptions::default()
    };
    let report = run_sweep(&f.oracle, &f.predictor, &jobs, &opts, None);
    assert!(!report.all_completed());
    let ck = lightnas_runtime::Checkpoint::load(&dir.join("job000.ckpt")).expect("checkpoint");
    assert_eq!(ck.seed, 2);
    assert_eq!(
        ck.state.epoch, 7,
        "budget of 7 epochs leaves a 7-epoch state"
    );
    assert_eq!(ck.state.trace.records().len(), 7);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_narrates_a_sweep_as_valid_jsonl() {
    let f = fixture();
    let config = tiny_config();
    let jobs = SearchJob::grid(&[20.0], &[0, 1], config);
    let dir = test_dir("telemetry");
    let telemetry = Telemetry::create(&dir, "itest").expect("sink");
    let report = run_sweep(
        &f.oracle,
        &f.predictor,
        &jobs,
        &SweepOptions::with_workers(2),
        Some(&telemetry),
    );
    assert!(report.all_completed());
    let text = std::fs::read_to_string(telemetry.path()).expect("jsonl");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() >= 2 + 2 * (2 + config.epochs),
        "events missing:\n{text}"
    );
    for line in &lines {
        assert!(
            line.starts_with("{\"event\":\"") && line.ends_with('}'),
            "bad line {line}"
        );
        assert!(line.contains("\"run\":\"itest\""));
    }
    let count = |ev: &str| {
        lines
            .iter()
            .filter(|l| l.contains(&format!("\"event\":\"{ev}\"")))
            .count()
    };
    assert_eq!(count("run_start"), 1);
    assert_eq!(count("job_start"), 2);
    assert_eq!(count("epoch"), 2 * config.epochs);
    assert_eq!(count("job_done"), 2);
    assert_eq!(count("run_end"), 1);
    // The job_done events carry parseable architecture specs.
    for line in lines
        .iter()
        .filter(|l| l.contains("\"event\":\"job_done\""))
    {
        let spec = line
            .split("\"arch\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("arch field");
        assert!(
            lightnas_space::Architecture::from_spec(spec).is_ok(),
            "bad spec {spec}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The optional `device` tag must appear on every run- and job-lifecycle
/// line when set, and be purely additive: stripping it from a tagged run's
/// telemetry must reproduce the untagged run's lines exactly (compared as a
/// sorted multiset with wall-clock fields masked, since worker interleaving
/// and timings are not deterministic across runs).
#[test]
fn device_tag_is_present_when_set_and_purely_additive() {
    let f = fixture();
    let jobs = SearchJob::grid(&[20.0], &[0, 1], tiny_config());
    let run = |device: Option<&str>, dir_name: &str| {
        let dir = test_dir(dir_name);
        let telemetry = Telemetry::create(&dir, "dev").expect("sink");
        let opts = SweepOptions {
            device: device.map(str::to_string),
            ..SweepOptions::with_workers(2)
        };
        let report = run_sweep(&f.oracle, &f.predictor, &jobs, &opts, Some(&telemetry));
        assert!(report.all_completed());
        let text = std::fs::read_to_string(telemetry.path()).expect("jsonl");
        let _ = std::fs::remove_dir_all(&dir);
        text
    };
    // Masks the wall-clock-dependent fields so two runs compare equal.
    fn mask_timing(line: &str) -> String {
        let mut out = String::with_capacity(line.len());
        for part in line.split(',') {
            if !out.is_empty() {
                out.push(',');
            }
            match part.split_once(':') {
                Some((key, _)) if key.contains("wall_ms") => {
                    out.push_str(key);
                    out.push_str(":#");
                    if part.ends_with('}') {
                        out.push('}');
                    }
                }
                _ => out.push_str(part),
            }
        }
        out
    }
    let plain = run(None, "device-tag-none");
    let tagged = run(Some("edge-tpu"), "device-tag-some");
    assert!(
        !plain.contains("\"device\""),
        "defaulted sweep must not emit a device field"
    );
    for line in tagged.lines() {
        assert!(
            line.contains("\"device\":\"edge-tpu\""),
            "untagged line in device sweep: {line}"
        );
    }
    let normalize = |text: &str, strip_device: bool| -> Vec<String> {
        let mut lines: Vec<String> = text
            .lines()
            .map(|l| {
                let l = if strip_device {
                    l.replace(",\"device\":\"edge-tpu\"", "")
                } else {
                    l.to_string()
                };
                mask_timing(&l)
            })
            .collect();
        lines.sort();
        lines
    };
    assert_eq!(
        normalize(&tagged, true),
        normalize(&plain, false),
        "device tag must be additive: stripping it must restore the untagged lines"
    );
}

/// Serving-style coalescing against the sweep predictor: a batch with
/// repeated architectures must hit the shared cache for every repeat, go
/// downstream once per distinct key, and stay bit-identical to the scalar
/// query path.
#[test]
fn cached_batch_path_coalesces_and_matches_scalar_queries() {
    use lightnas_predictor::{BatchPredictor, CachedPredictor, Predictor};
    let f = fixture();
    let cached = CachedPredictor::new(&f.predictor);
    // 16 rows over 6 distinct architectures (rows 6.. repeat the first six).
    let uniques: Vec<Vec<f32>> = (0..6)
        .map(|s| lightnas_space::Architecture::random(&f.space, 100 + s).encode())
        .collect();
    let batch: Vec<Vec<f32>> = (0..16).map(|i| uniques[i % 6].clone()).collect();
    let got = cached.predict_encodings(&batch);
    for (enc, got) in batch.iter().zip(&got) {
        assert_eq!(
            got.to_bits(),
            f.predictor.predict_encoding(enc).to_bits(),
            "cached batch diverged from the scalar path"
        );
    }
    let stats = cached.stats();
    assert_eq!(stats.misses, 6, "one downstream call per distinct key");
    assert_eq!(stats.hits, 10, "in-batch repeats served from the cache");
    // A follow-up batch is answered without touching the inner predictor,
    // and scalar queries agree with what the batch cached.
    let again = cached.predict_encodings(&batch);
    assert_eq!(again, got);
    assert_eq!(cached.stats().misses, 6);
    assert_eq!(cached.stats().hits, 26);
    for (enc, want) in batch.iter().zip(&got) {
        assert_eq!(cached.predict_encoding(enc).to_bits(), want.to_bits());
    }
    let total = cached.stats();
    assert!(
        total.hit_rate() > 0.85,
        "hit rate regressed: {:.3}",
        total.hit_rate()
    );
}

// ---------------------------------------------------------------------------
// Kernel-determinism goldens.
//
// `stepper.ckpt` and `micro.fnv` under `tests/golden/` were generated by
// `regenerate_kernel_goldens` (below) against the *reference* compute
// kernels, before the blocked/parallel rewrite of `lightnas-tensor`
// landed. They pin the exact bits a search trajectory produces, so any
// future kernel change that reorders floating-point accumulation — and
// would therefore silently break bit-identical checkpoint resume — fails
// here instead of in a weeks-old sweep. `engines.fnv` does the same for
// the four engines that have no checkpoint form (DARTS, FBNet,
// ProxylessNAS, multi-budget); it was written before the oracle's loss
// marginals became incremental, so it also pins that rewrite.
// ---------------------------------------------------------------------------

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The run the stepper golden captures: the shared MLP predictor (matmul
/// training + per-step gradient queries) driving a full tiny schedule.
fn golden_stepper_checkpoint() -> lightnas_runtime::Checkpoint {
    let f = fixture();
    let config = tiny_config();
    let mut stepper = lightnas::SearchStepper::new(&f.oracle, &f.predictor, config, 22.0, 11);
    stepper.run();
    lightnas_runtime::Checkpoint::new(22.0, 11, config, stepper.state())
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a 64 hash.
fn fold(h: u64, bytes: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a 64 fingerprint of a real conv-kernel training trajectory: the
/// micro supernet (im2col conv + depthwise conv + GEMM head, SGD) searched
/// end-to-end on the shapes dataset.
fn golden_micro_fingerprint() -> String {
    let out = lightnas::micro::bilevel_search(2, 8, 8, 0);
    let mut h = FNV_OFFSET;
    for row in &out.alpha {
        for v in row {
            h = fold(h, &v.to_bits().to_le_bytes());
        }
    }
    for &c in &out.chosen {
        h = fold(h, &(c as u64).to_le_bytes());
    }
    h = fold(h, &out.valid_accuracy.to_bits().to_le_bytes());
    for v in &out.valid_losses {
        h = fold(h, &v.to_bits().to_le_bytes());
    }
    format!("{h:016x}")
}

/// FNV-1a 64 of a search outcome: the architecture spec, the final λ's
/// bits, then every trace record field's bits, then `extra` λs' bits.
fn outcome_fingerprint(outcome: &lightnas::SearchOutcome, extra: &[f64]) -> u64 {
    let mut h = fold(FNV_OFFSET, outcome.architecture.to_spec().as_bytes());
    h = fold(h, &outcome.lambda.to_bits().to_le_bytes());
    for r in outcome.trace.records() {
        h = fold(h, &(r.epoch as u64).to_le_bytes());
        for v in [
            r.sampled_metric,
            r.argmax_metric,
            r.lambda,
            r.tau,
            r.valid_loss,
        ] {
            h = fold(h, &v.to_bits().to_le_bytes());
        }
    }
    for v in extra {
        h = fold(h, &v.to_bits().to_le_bytes());
    }
    h
}

/// One `engine fingerprint` line for each engine without a checkpoint form,
/// each run on `tiny_config()`: DARTS, FBNet and ProxylessNAS against the
/// device LUT, and the multi-budget engine with two budgets on the shared
/// MLP predictor (its per-budget λs are folded in too).
fn golden_engine_fingerprints() -> String {
    use lightnas::multi::{Budget, MultiConstraintSearch};
    use lightnas::{DartsSearch, FbnetSearch, ProxylessSearch};
    let f = fixture();
    let config = tiny_config();
    let lut = lightnas_predictor::LutPredictor::build(&Xavier::maxn(), &f.space);
    let darts = DartsSearch::new(&f.space, &f.oracle, config).search();
    let fbnet = FbnetSearch::new(&f.space, &f.oracle, &lut, 0.05, config).search(5);
    let proxyless = ProxylessSearch::new(&f.space, &f.oracle, &lut, 0.05, config).search(5);
    let budget = |target, label| Budget {
        predictor: &f.predictor,
        target,
        label,
    };
    let multi = MultiConstraintSearch::new(
        &f.space,
        &f.oracle,
        vec![budget(22.0, "loose"), budget(19.0, "tight")],
        config,
    )
    .search(5);
    let lines = [
        ("darts", outcome_fingerprint(&darts, &[])),
        ("fbnet", outcome_fingerprint(&fbnet, &[])),
        ("proxyless", outcome_fingerprint(&proxyless, &[])),
        ("multi", outcome_fingerprint(&multi.outcome, &multi.lambdas)),
    ];
    lines
        .iter()
        .map(|(name, h)| format!("{name} {h:016x}\n"))
        .collect()
}

#[test]
fn stepper_over_current_kernels_matches_golden_checkpoint() {
    let golden = std::fs::read_to_string(golden_path("stepper.ckpt"))
        .expect("golden stepper checkpoint (run `regenerate_kernel_goldens` if missing)");
    let current = golden_stepper_checkpoint().render();
    assert_eq!(
        current, golden,
        "SearchStepper trajectory drifted from the pre-change golden \
         checkpoint: the tensor kernels are no longer bit-identical"
    );
}

#[test]
fn micro_supernet_training_matches_golden_fingerprint() {
    let golden = std::fs::read_to_string(golden_path("micro.fnv"))
        .expect("golden micro fingerprint (run `regenerate_kernel_goldens` if missing)");
    let current = golden_micro_fingerprint();
    assert_eq!(
        current,
        golden.trim(),
        "micro-supernet (conv kernel) trajectory drifted from the golden fingerprint"
    );
}

#[test]
fn engines_match_golden_fingerprints() {
    let golden = std::fs::read_to_string(golden_path("engines.fnv"))
        .expect("golden engine fingerprints (run `regenerate_kernel_goldens` if missing)");
    assert_eq!(
        golden_engine_fingerprints(),
        golden,
        "a search engine's outcome drifted from the golden fingerprint"
    );
}

#[test]
#[ignore = "rewrites the golden kernel fixtures; only run when a kernel-bit change is intended"]
fn regenerate_kernel_goldens() {
    let dir = golden_path("");
    std::fs::create_dir_all(&dir).expect("golden dir");
    std::fs::write(
        golden_path("stepper.ckpt"),
        golden_stepper_checkpoint().render(),
    )
    .expect("write stepper golden");
    std::fs::write(
        golden_path("micro.fnv"),
        format!("{}\n", golden_micro_fingerprint()),
    )
    .expect("write micro golden");
    std::fs::write(golden_path("engines.fnv"), golden_engine_fingerprints())
        .expect("write engine golden");
}
