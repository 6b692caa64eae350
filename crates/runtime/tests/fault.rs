//! Fault-injection integration tests: the supervised sweep must turn
//! injected panics, checkpoint corruption, and predictor poison into
//! telemetry + retries — and still produce results byte-identical to a
//! fault-free run.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

use lightnas::SearchConfig;
use lightnas_eval::AccuracyOracle;
use lightnas_hw::Xavier;
use lightnas_predictor::{Metric, MetricDataset, MlpPredictor, TrainConfig};
use lightnas_runtime::{
    apply_corruption, run_sweep, run_sweep_with_faults, Checkpoint, CheckpointError,
    CheckpointStore, CorruptionMode, Fault, FaultKind, FaultPlan, JobStatus, SearchJob,
    SweepOptions, Telemetry,
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
        let oracle = AccuracyOracle::imagenet();
        let data = MetricDataset::sample_diverse(&device, &space, Metric::LatencyMs, 1200, 7);
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 128,
            lr: 2e-3,
            seed: 0,
        };
        let predictor = MlpPredictor::train(&data, &cfg);
        Fixture { oracle, predictor }
    })
}

fn tiny_config() -> SearchConfig {
    SearchConfig {
        epochs: 10,
        steps_per_epoch: 12,
        warmup_epochs: 2,
        ..SearchConfig::fast()
    }
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lightnas-fault-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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

/// Fast-retry options with checkpointing, for fault runs.
fn supervised_opts(dir: PathBuf) -> SweepOptions {
    SweepOptions {
        workers: 2,
        checkpoint_dir: Some(dir),
        checkpoint_every: 1,
        retry_backoff: Duration::from_millis(1),
        ..SweepOptions::default()
    }
}

fn event_count(text: &str, event: &str) -> usize {
    text.lines()
        .filter(|l| l.contains(&format!("\"event\":\"{event}\"")))
        .count()
}

#[test]
fn panicking_job_is_retried_to_byte_identical_results() {
    let f = fixture();
    let jobs = SearchJob::grid(&[20.0, 26.0], &[0, 5], tiny_config());
    let expected = fingerprints(&run_sweep(
        &f.oracle,
        &f.predictor,
        &jobs,
        &SweepOptions::serial(),
        None,
    ));

    let dir = test_dir("panic-retry");
    let telem_dir = test_dir("panic-retry-telemetry");
    let telemetry = Telemetry::create(&telem_dir, "panic").expect("sink");
    let faults = FaultPlan::new(vec![
        Fault {
            job: 1,
            kind: FaultKind::Panic { epoch: 4 },
        },
        Fault {
            job: 2,
            kind: FaultKind::Panic { epoch: 7 },
        },
    ]);
    let report = run_sweep_with_faults(
        &f.oracle,
        &f.predictor,
        &jobs,
        &supervised_opts(dir.clone()),
        Some(&telemetry),
        &faults,
    );
    assert!(
        report.all_completed(),
        "panics must be recovered, not fatal"
    );
    assert_eq!(
        fingerprints(&report),
        expected,
        "recovered sweep must be byte-identical to the fault-free run"
    );
    assert_eq!(faults.fired(), 2, "both scheduled panics must fire");
    // Retried jobs resume from the epoch-boundary checkpoint, never from
    // 0 — the panic at epoch N fires after the save at N, so nothing from
    // before the crash is re-run.
    let resumed: Vec<usize> = report
        .statuses
        .iter()
        .filter_map(|s| s.completed().and_then(|r| r.resumed_from))
        .collect();
    assert_eq!(resumed, vec![4, 7], "resume from the last good epoch");
    let text = std::fs::read_to_string(telemetry.path()).expect("jsonl");
    assert_eq!(event_count(&text, "job_failed"), 2);
    assert_eq!(event_count(&text, "job_retried"), 2);
    assert!(text.contains("injected fault: panic at epoch 4"));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&telem_dir);
}

#[test]
fn corrupted_checkpoint_is_quarantined_with_fallback_to_previous_generation() {
    let f = fixture();
    let jobs = vec![SearchJob::new(22.0, 3, tiny_config())];
    let expected = fingerprints(&run_sweep(
        &f.oracle,
        &f.predictor,
        &jobs,
        &SweepOptions::serial(),
        None,
    ));

    let dir = test_dir("quarantine");
    let telem_dir = test_dir("quarantine-telemetry");
    let telemetry = Telemetry::create(&telem_dir, "quarantine").expect("sink");
    // Corrupt the save at epoch 5, crash at the next panic check: recovery
    // must quarantine the torn file and fall back to the epoch-4 snapshot.
    let faults = FaultPlan::new(vec![
        Fault {
            job: 0,
            kind: FaultKind::CorruptCheckpoint {
                after_epoch: 5,
                mode: CorruptionMode::Truncate,
            },
        },
        Fault {
            job: 0,
            kind: FaultKind::Panic { epoch: 5 },
        },
    ]);
    let report = run_sweep_with_faults(
        &f.oracle,
        &f.predictor,
        &jobs,
        &supervised_opts(dir.clone()),
        Some(&telemetry),
        &faults,
    );
    assert!(report.all_completed());
    assert_eq!(fingerprints(&report), expected);
    assert_eq!(
        report.statuses[0].completed().unwrap().resumed_from,
        Some(4),
        "must fall back one generation, not restart from scratch"
    );
    let corrupt = dir.join("job000.ckpt.corrupt");
    assert!(
        corrupt.exists(),
        "the damaged file must be kept as evidence at {}",
        corrupt.display()
    );
    let text = std::fs::read_to_string(telemetry.path()).expect("jsonl");
    assert_eq!(event_count(&text, "checkpoint_quarantined"), 1);
    assert!(text.contains("job000.ckpt.corrupt"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&telem_dir);
}

#[test]
fn injected_predictor_nan_degrades_one_call_and_changes_nothing() {
    let f = fixture();
    let jobs = SearchJob::grid(&[24.0], &[1, 6], tiny_config());
    let expected = fingerprints(&run_sweep(
        &f.oracle,
        &f.predictor,
        &jobs,
        &SweepOptions::serial(),
        None,
    ));

    let telem_dir = test_dir("nan-telemetry");
    let telemetry = Telemetry::create(&telem_dir, "nan").expect("sink");
    let faults = FaultPlan::new(vec![
        Fault {
            job: 0,
            kind: FaultKind::PredictorNan { call: 3 },
        },
        Fault {
            job: 1,
            kind: FaultKind::PredictorNan { call: 40 },
        },
    ]);
    let report = run_sweep_with_faults(
        &f.oracle,
        &f.predictor,
        &jobs,
        &SweepOptions::with_workers(2),
        Some(&telemetry),
        &faults,
    );
    assert!(report.all_completed());
    assert_eq!(
        fingerprints(&report),
        expected,
        "a degraded-then-recovered query must not perturb the trajectory"
    );
    assert_eq!(faults.fired(), 2);
    let text = std::fs::read_to_string(telemetry.path()).expect("jsonl");
    assert_eq!(event_count(&text, "predictor_degraded"), 2);
    assert!(text.contains("\"recovered\":true"), "{text}");
    assert_eq!(
        event_count(&text, "job_failed"),
        0,
        "a recovered NaN is not a job failure"
    );
    let _ = std::fs::remove_dir_all(&telem_dir);
}

#[test]
fn a_job_that_keeps_crashing_fails_alone() {
    let f = fixture();
    let jobs = SearchJob::grid(&[21.0], &[0, 2, 9], tiny_config());
    // Job 1 panics on every attempt (initial + 2 retries = 3 one-shot
    // faults at successive panic checks, one per attempt).
    let faults = FaultPlan::new(vec![
        Fault {
            job: 1,
            kind: FaultKind::Panic { epoch: 2 },
        },
        Fault {
            job: 1,
            kind: FaultKind::Panic { epoch: 2 },
        },
        Fault {
            job: 1,
            kind: FaultKind::Panic { epoch: 2 },
        },
    ]);
    let telem_dir = test_dir("exhausted-telemetry");
    let telemetry = Telemetry::create(&telem_dir, "exhausted").expect("sink");
    let opts = SweepOptions {
        workers: 2,
        retry_backoff: Duration::from_millis(1),
        ..SweepOptions::default()
    };
    let report = run_sweep_with_faults(
        &f.oracle,
        &f.predictor,
        &jobs,
        &opts,
        Some(&telemetry),
        &faults,
    );
    assert!(!report.all_completed());
    match &report.statuses[1] {
        JobStatus::Failed {
            index,
            attempts,
            error,
        } => {
            assert_eq!(*index, 1);
            assert_eq!(*attempts, 3, "initial attempt + max_retries");
            assert!(error.contains("injected fault"), "{error}");
        }
        other => panic!("job 1 should have failed, got {other:?}"),
    }
    for i in [0, 2] {
        assert!(
            report.statuses[i].completed().is_some(),
            "job {i} must be unaffected by its neighbour's crash loop"
        );
    }
    let text = std::fs::read_to_string(telemetry.path()).expect("jsonl");
    assert_eq!(event_count(&text, "job_failed"), 3, "one per attempt");
    assert_eq!(event_count(&text, "job_retried"), 2, "max_retries");
    assert!(text.contains("\"failed\":1"), "run_end counts the failure");
    let _ = std::fs::remove_dir_all(&telem_dir);
}

/// Satellite 4: every corruption mode maps to the right `CheckpointError`
/// variant and is quarantined (not deleted) by recovery.
#[test]
fn corruption_matrix_yields_typed_errors_and_quarantine() {
    let f = fixture();
    // Materialize a real mid-search checkpoint to corrupt.
    let dir = test_dir("matrix");
    let job = SearchJob::new(23.0, 2, tiny_config());
    let opts = SweepOptions {
        workers: 1,
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 2,
        epoch_budget: Some(5),
        ..SweepOptions::default()
    };
    let report = run_sweep(&f.oracle, &f.predictor, &[job], &opts, None);
    assert!(!report.all_completed(), "budget must leave a checkpoint");
    let pristine = std::fs::read_to_string(dir.join("job000.ckpt")).expect("checkpoint text");

    type ErrMatcher = fn(&CheckpointError) -> bool;
    let cases: [(CorruptionMode, ErrMatcher); 3] = [
        (CorruptionMode::Truncate, |e| {
            matches!(e, CheckpointError::Malformed { .. })
        }),
        (CorruptionMode::FlipBits, |e| {
            matches!(e, CheckpointError::ChecksumMismatch { .. })
        }),
        (CorruptionMode::WrongVersion, |e| {
            matches!(e, CheckpointError::UnsupportedVersion(_))
        }),
    ];
    for (mode, matches_expected) in cases {
        let case_dir = test_dir(&format!("matrix-{mode:?}"));
        std::fs::create_dir_all(&case_dir).expect("case dir");
        let path = case_dir.join("job000.ckpt");
        std::fs::write(&path, &pristine).expect("seed checkpoint");
        apply_corruption(&path, mode);
        let err = Checkpoint::load(&path).expect_err("corruption must be detected");
        assert!(
            matches_expected(&err),
            "{mode:?} should map to its own variant, got: {err}"
        );
        // Recovery quarantines rather than deletes, and reports the error.
        let store = CheckpointStore::new(&case_dir, 0);
        let mut seen = Vec::new();
        let recovered = store.recover(job.target, job.seed, &job.config, |jail, e| {
            seen.push((jail.to_path_buf(), e.to_string()));
        });
        assert!(recovered.is_none(), "{mode:?}: nothing valid to recover");
        assert_eq!(seen.len(), 1);
        assert!(seen[0].0.ends_with("job000.ckpt.corrupt"));
        assert!(seen[0].0.exists(), "quarantined file must survive");
        assert!(!path.exists(), "the bad file must be moved out of the way");
        let _ = std::fs::remove_dir_all(&case_dir);
    }

    // Identity mismatch: a checkpoint from a *different job* under this
    // job's name is refused and quarantined the same way — both the
    // current and the previous generation.
    let store = CheckpointStore::new(&dir, 0);
    let mut seen = Vec::new();
    let recovered = store.recover(job.target, 999, &job.config, |_, e| {
        seen.push(e.to_string());
    });
    assert!(recovered.is_none());
    assert_eq!(seen.len(), 2, "current and previous generation");
    for e in &seen {
        assert!(e.contains("different job"), "{e}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint whose records each parse, stamped with a valid checksum,
/// but whose state the stepper cannot resume — an epoch past the schedule,
/// or a trace shorter than its epoch — is quarantined like any corrupt
/// file: the job resumes from `.prev`, and its result equals an
/// uninterrupted run. (Were the file accepted, every retry would re-read
/// it and the job would fail.)
#[test]
fn unresumable_checkpoint_is_quarantined_and_the_job_resumes_from_prev() {
    let f = fixture();
    let job = SearchJob::new(21.0, 6, tiny_config());
    let expected = fingerprints(&run_sweep(
        &f.oracle,
        &f.predictor,
        &[job],
        &SweepOptions::serial(),
        None,
    ));
    type Tamper = fn(&mut Checkpoint);
    let cases: [(&str, Tamper); 2] = [
        ("unresumable-epoch", |ck| ck.state.epoch = 999),
        ("unresumable-trace", |ck| {
            let mut trace = lightnas::SearchTrace::new();
            for r in &ck.state.trace.records()[..3] {
                trace.push(*r);
            }
            ck.state.trace = trace;
        }),
    ];
    for (name, tamper) in cases {
        let dir = test_dir(name);
        let opts = |epoch_budget| SweepOptions {
            workers: 1,
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 2,
            epoch_budget,
            retry_backoff: Duration::from_millis(1),
            ..SweepOptions::default()
        };
        // Saves at epochs 2 and 4, then the budget's save at 5: `.prev`
        // holds epoch 4.
        let first = run_sweep(&f.oracle, &f.predictor, &[job], &opts(Some(5)), None);
        assert!(!first.all_completed(), "{name}: budget must interrupt");
        let path = dir.join("job000.ckpt");
        let mut ck = Checkpoint::load(&path).expect("interrupted job's checkpoint");
        assert_eq!(ck.state.epoch, 5);
        tamper(&mut ck);
        ck.save(&path).expect("tampered checkpoint");
        assert!(
            matches!(
                Checkpoint::load(&path),
                Err(CheckpointError::Malformed { .. })
            ),
            "{name}: a valid checksum must not carry an unresumable state"
        );

        let second = run_sweep(&f.oracle, &f.predictor, &[job], &opts(None), None);
        assert!(second.all_completed(), "{name}: {:?}", second.statuses);
        assert_eq!(fingerprints(&second), expected, "{name}");
        assert_eq!(
            second.statuses[0].completed().unwrap().resumed_from,
            Some(4),
            "{name}: must resume from `.prev`"
        );
        assert!(
            dir.join("job000.ckpt.corrupt").exists(),
            "{name}: the tampered file must be kept as evidence"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Retention is bounded — saves rotate within `keep` generations — and
/// `prune` removes stale generations while **never** touching quarantined
/// `*.corrupt` evidence.
#[test]
fn prune_bounds_generations_and_never_touches_quarantine() {
    let f = fixture();
    let dir = test_dir("prune");
    let job = SearchJob::new(22.0, 3, tiny_config());
    let opts = SweepOptions {
        workers: 1,
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 2,
        checkpoint_keep: 3,
        epoch_budget: Some(5),
        ..SweepOptions::default()
    };
    let report = run_sweep(&f.oracle, &f.predictor, &[job], &opts, None);
    assert!(!report.all_completed(), "budget must leave checkpoints");
    let ck = Checkpoint::load(&dir.join("job000.ckpt")).expect("loadable checkpoint");

    // Drive the store well past its retention: generations stay bounded.
    let store = CheckpointStore::with_keep(&dir, 0, 3);
    for _ in 0..6 {
        store.save(&ck).expect("save");
    }
    for suffix in ["", ".prev", ".prev2"] {
        assert!(
            dir.join(format!("job000.ckpt{suffix}")).exists(),
            "generation {suffix:?} must exist"
        );
    }
    assert!(
        !dir.join("job000.ckpt.prev3").exists(),
        "rotation must stay within keep=3"
    );

    // Corrupt the current generation: recovery quarantines it and falls
    // back to `.prev`.
    apply_corruption(store.current(), CorruptionMode::Truncate);
    let mut jails = Vec::new();
    let recovered = store.recover(job.target, job.seed, &job.config, |jail, _| {
        jails.push(jail.to_path_buf());
    });
    assert!(recovered.is_some(), "previous generation is still healthy");
    assert_eq!(jails.len(), 1);
    assert!(jails[0].ends_with("job000.ckpt.corrupt"));

    // prune(1) sweeps every older generation — but quarantined evidence
    // is never inventory.
    let removed = store.prune(1);
    assert_eq!(removed, 2, ".prev and .prev2 go; .corrupt stays");
    assert!(!store.previous().exists());
    assert!(!dir.join("job000.ckpt.prev2").exists());
    assert!(
        jails[0].exists(),
        "pruning must never delete quarantined evidence"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_plan_drives_a_full_recovery_story() {
    let f = fixture();
    let config = tiny_config();
    let jobs = SearchJob::grid(&[19.0, 24.0, 29.0], &[0, 1, 2], config);
    let expected = fingerprints(&run_sweep(
        &f.oracle,
        &f.predictor,
        &jobs,
        &SweepOptions::serial(),
        None,
    ));
    let dir = test_dir("seeded");
    let faults = FaultPlan::seeded(42, jobs.len(), config.epochs);
    let report = run_sweep_with_faults(
        &f.oracle,
        &f.predictor,
        &jobs,
        &supervised_opts(dir.clone()),
        None,
        &faults,
    );
    assert!(report.all_completed());
    assert_eq!(fingerprints(&report), expected);
    assert_eq!(
        faults.fired(),
        faults.faults().len(),
        "every scheduled fault must actually fire"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
