//! The runtime subsystem's acceptance exhibit: a 3-target × 3-seed search
//! sweep driven through [`JobScheduler`] worker pools, checked byte-for-byte
//! against serial `LightNas::search`, timed at 1 vs 4 workers, then killed
//! mid-sweep by an epoch budget and resumed from checkpoints to the
//! identical result. Telemetry for the concurrent run lands under
//! `results/runs/runtime_sweep.jsonl`.
//!
//! Stdout holds only what the code decides, so two runs print the same
//! bytes. The wall-clock line and how many jobs the shared epoch budget
//! interrupted (which depends on how far the 4-worker schedule got) go to
//! stderr.
//!
//! ```text
//! cargo run --release -p lightnas-bench --bin runtime_sweep
//! ```

use std::process::ExitCode;
use std::time::Instant;

use lightnas::LightNas;
use lightnas_bench::{hardware_threads, render_table, Harness};
use lightnas_runtime::{run_sweep, SearchJob, SweepOptions, SweepReport, Telemetry};

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
    println!(
        "Runtime sweep: {} jobs ({} targets x {} seeds), {} epochs each.\n",
        jobs.len(),
        targets.len(),
        seeds.len(),
        config.epochs
    );

    // 1. Ground truth: plain serial engine calls, no scheduler, no cache.
    let engine = LightNas::new(&h.space, &h.oracle, &h.predictor, config);
    let started = Instant::now();
    let serial: Vec<(String, u64)> = jobs
        .iter()
        .map(|j| {
            let o = engine.search(j.target, j.seed);
            (o.architecture.to_spec(), o.lambda.to_bits())
        })
        .collect();
    let serial_wall = started.elapsed();

    // 2. The same jobs through the runtime at 1 and 4 workers.
    let one = run_sweep(
        &h.oracle,
        &h.predictor,
        &jobs,
        &SweepOptions::with_workers(1),
        None,
    );
    let telemetry = Telemetry::create("results/runs", "runtime_sweep").ok();
    let four = run_sweep(
        &h.oracle,
        &h.predictor,
        &jobs,
        &SweepOptions::with_workers(4),
        telemetry.as_ref(),
    );

    let rows: Vec<Vec<String>> = jobs
        .iter()
        .zip(&serial)
        .map(|(j, (spec, lambda_bits))| {
            vec![
                format!("{:.1}", j.target),
                format!("{}", j.seed),
                spec.clone(),
                format!("{:+.4}", f64::from_bits(*lambda_bits)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["target (ms)", "seed", "derived architecture", "final λ"],
            &rows
        )
    );

    let one_ok = fingerprints(&one) == serial;
    let four_ok = fingerprints(&four) == serial;
    println!(
        "scheduler(1 worker)  == serial searches: {}",
        if one_ok { "YES" } else { "NO" }
    );
    println!(
        "scheduler(4 workers) == serial searches: {}",
        if four_ok { "YES" } else { "NO" }
    );
    eprintln!(
        "wall-clock: serial {:.2?} | 1 worker {:.2?} | 4 workers {:.2?} (speedup vs 1 worker: {:.2}x on {} cpus)",
        serial_wall,
        one.wall,
        four.wall,
        one.wall.as_secs_f64() / four.wall.as_secs_f64().max(1e-9),
        hardware_threads(),
    );
    println!(
        "\nshared predictor cache (4-worker run): {} hits / {} misses ({:.1}% hit rate, {} jobs)",
        four.cache.hits,
        four.cache.misses,
        100.0 * four.cache.hit_rate(),
        jobs.len()
    );

    // 3. Kill/resume: an epoch budget interrupts the sweep half-way; the
    //    second invocation resumes each survivor from its checkpoint.
    let ckpt_dir = std::path::PathBuf::from("results/runs/runtime_sweep_ckpt");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let budget = jobs.len() * config.epochs / 2;
    let killed_opts = SweepOptions {
        workers: 4,
        checkpoint_dir: Some(ckpt_dir.clone()),
        checkpoint_every: 0,
        epoch_budget: Some(budget),
        ..SweepOptions::default()
    };
    let killed = run_sweep(&h.oracle, &h.predictor, &jobs, &killed_opts, None);
    let interrupted = killed.statuses.len() - killed.completed().len();
    eprintln!(
        "kill/resume: budget of {budget} epochs interrupted {interrupted}/{} jobs mid-sweep",
        jobs.len()
    );
    let resumed = run_sweep(
        &h.oracle,
        &h.predictor,
        &jobs,
        &SweepOptions {
            epoch_budget: None,
            ..killed_opts
        },
        None,
    );
    // A budget that interrupted nothing would check no resume at all.
    let resume_ok = interrupted > 0 && resumed.all_completed() && fingerprints(&resumed) == serial;
    println!(
        "\nkill/resume (budget of {budget} epochs): resumed sweep == uninterrupted serial results: {}",
        if resume_ok { "YES" } else { "NO" }
    );
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    if let Some(t) = &telemetry {
        println!("telemetry: {}", t.path().display());
    }

    if one_ok && four_ok && resume_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("[runtime_sweep] determinism check FAILED");
        ExitCode::FAILURE
    }
}
