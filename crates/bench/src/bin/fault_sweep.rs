//! The robustness acceptance exhibit: the same 3-target × 3-seed sweep as
//! `runtime_sweep`, but run under a seeded [`FaultPlan`] that injects a
//! worker panic, an on-disk checkpoint corruption (with its forced re-read)
//! and a predictor NaN mid-flight. The supervisor must absorb every fault —
//! retrying from checkpoints, quarantining the corrupt generation, and
//! degrading the poisoned predictor call — and still finish **byte-identical**
//! to a fault-free run. Telemetry for the faulted run lands under
//! `results/runs/fault_sweep.jsonl`.
//!
//! ```text
//! cargo run --release -p lightnas-bench --bin fault_sweep
//! ```

use std::process::ExitCode;
use std::time::Duration;

use lightnas_bench::{render_table, sweep_workers, Harness};
use lightnas_runtime::{
    run_sweep, run_sweep_with_faults, FaultPlan, SearchJob, SweepOptions, SweepReport, Telemetry,
};

/// `(architecture spec, λ bits)` per job: the byte-level fingerprint two
/// sweeps must share to count as identical.
fn fingerprints(report: &SweepReport) -> Vec<(String, u64)> {
    report
        .statuses
        .iter()
        .map(|s| {
            let r = s.completed().expect("sweep completed");
            (r.outcome.architecture.to_spec(), r.outcome.lambda.to_bits())
        })
        .collect()
}

fn main() -> ExitCode {
    let h = Harness::standard();
    let config = h.search_config();
    let targets = [19.0, 24.0, 29.0];
    let seeds = [0, 1, 2];
    let jobs = SearchJob::grid(&targets, &seeds, config);
    let workers = sweep_workers(8);
    println!(
        "Fault sweep: {} jobs ({} targets x {} seeds), {} epochs each, {workers} workers.\n",
        jobs.len(),
        targets.len(),
        seeds.len(),
        config.epochs
    );

    // 1. Ground truth: the identical sweep with no faults and no supervisor
    //    intervention needed.
    let clean = run_sweep(
        &h.oracle,
        &h.predictor,
        &jobs,
        &SweepOptions::with_workers(workers),
        None,
    );
    assert!(clean.all_completed(), "fault-free reference must complete");
    let expected = fingerprints(&clean);

    // 2. The seeded fault schedule: a panic, a checkpoint corruption with a
    //    companion panic that forces the corrupt file to be read, and a
    //    predictor NaN — each on a distinct job.
    let plan = FaultPlan::seeded(2022, jobs.len(), config.epochs);
    println!("injected fault plan (seed 2022):");
    for f in plan.faults() {
        println!("  job {:>2}: {}", f.job, f.kind);
    }

    let ckpt_dir = std::path::PathBuf::from("results/runs/fault_sweep_ckpt");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let opts = SweepOptions {
        workers,
        checkpoint_dir: Some(ckpt_dir.clone()),
        checkpoint_every: 1,
        retry_backoff: Duration::from_millis(1),
        ..SweepOptions::default()
    };
    let telemetry = Telemetry::create("results/runs", "fault_sweep").ok();
    let faulted = run_sweep_with_faults(
        &h.oracle,
        &h.predictor,
        &jobs,
        &opts,
        telemetry.as_ref(),
        &plan,
    );
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    let rows: Vec<Vec<String>> = jobs
        .iter()
        .zip(&faulted.statuses)
        .map(|(j, s)| {
            let r = s.completed().expect("faulted sweep completed");
            vec![
                format!("{:.1}", j.target),
                format!("{}", j.seed),
                r.outcome.architecture.to_spec(),
                format!("{:+.4}", r.outcome.lambda),
                r.resumed_from
                    .map(|e| format!("epoch {e}"))
                    .unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    println!(
        "\n{}",
        render_table(
            &[
                "target (ms)",
                "seed",
                "derived architecture",
                "final λ",
                "resumed from"
            ],
            &rows
        )
    );

    // 3. The verdicts: every fault consumed, every job completed, results
    //    byte-identical, and every recovery narrated in the telemetry.
    let all_fired = plan.fired() == plan.faults().len();
    let completed = faulted.all_completed();
    let identical = completed && fingerprints(&faulted) == expected;
    println!(
        "faults fired: {}/{} | all jobs completed: {} | byte-identical to fault-free run: {}",
        plan.fired(),
        plan.faults().len(),
        if completed { "YES" } else { "NO" },
        if identical { "YES" } else { "NO" }
    );

    let mut narrated = true;
    if let Some(t) = &telemetry {
        let text = std::fs::read_to_string(t.path()).unwrap_or_default();
        let count = |ev: &str| {
            text.lines()
                .filter(|l| l.contains(&format!("\"event\":\"{ev}\"")))
                .count()
        };
        println!("\ntelemetry ({}):", t.path().display());
        for ev in [
            "job_failed",
            "job_retried",
            "checkpoint_quarantined",
            "predictor_degraded",
        ] {
            let n = count(ev);
            println!("  {ev:>22}: {n}");
            narrated &= n > 0;
        }
    }

    if all_fired && identical && narrated {
        println!("\nevery injected fault was absorbed and narrated; results unchanged.");
        ExitCode::SUCCESS
    } else {
        eprintln!("[fault_sweep] fault-recovery check FAILED");
        ExitCode::FAILURE
    }
}
