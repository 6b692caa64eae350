//! Convenience driver: regenerates every exhibit, writing each binary's
//! stdout to `results/<name>.txt`. Equivalent to running the individual
//! `figN` / `tableN` / ablation binaries by hand — but the subprocesses are
//! driven through the runtime's [`JobScheduler`], so independent exhibits
//! overlap (`LIGHTNAS_WORKERS` picks the pool size) while the summary stays
//! in deterministic exhibit order.
//!
//! The timing exhibits `kernels`, `train_step` and `serve_bench` are left
//! out on purpose: their bars are ratios of wall times, which exhibits
//! running beside them would skew. Run them alone, redirecting stdout to
//! their results file.
//!
//! ```text
//! cargo run --release -p lightnas-bench --bin repro_all [-- --out results]
//! ```
//!
//! Honors `LIGHTNAS_QUICK=1` like every other harness.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use lightnas_bench::{sweep_workers, write_artifact};
use lightnas_runtime::JobScheduler;

const EXHIBITS: &[&str] = &[
    "fig2",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "table1",
    "table2",
    "table3",
    "table4",
    "ablation_predictor",
    "ablation_lambda",
    "ablation_temperature",
    "ablation_ensemble",
    "engines",
    "pareto",
    "anatomy",
    "runtime_sweep",
    "fault_sweep",
    "serve_overload",
    "fleet_pareto",
    "drift_soak",
    "fleet_drift_soak",
    "scale_bench",
];

enum Status {
    Ok(std::time::Duration, PathBuf),
    Failed(String),
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    let self_path = std::env::current_exe().expect("own path");
    let bin_dir = self_path.parent().expect("bin dir");

    // Every exhibit builds its own harness, so they are heavyweight but
    // fully independent — ideal scheduler jobs. Default to 2 workers: the
    // subprocesses are CPU-bound, and oversubscription only adds noise to
    // their printed timings.
    let workers = sweep_workers(2);
    eprintln!(
        "[repro_all] {} exhibits on {workers} workers",
        EXHIBITS.len()
    );

    let statuses = JobScheduler::new(workers).run(EXHIBITS.len(), |i| {
        let name = EXHIBITS[i];
        let started = Instant::now();
        eprintln!("[repro_all] {name} ...");
        match Command::new(bin_dir.join(name)).output() {
            Ok(out) if out.status.success() => {
                let path = out_dir.join(format!("{name}.txt"));
                match write_artifact(&path, &out.stdout) {
                    Ok(()) => Status::Ok(started.elapsed(), path),
                    Err(e) => Status::Failed(format!("write failed: {e}")),
                }
            }
            Ok(out) => Status::Failed(format!(
                "status {}\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            )),
            Err(e) => Status::Failed(format!("failed to launch: {e}")),
        }
    });

    let mut failures = 0;
    for (name, status) in EXHIBITS.iter().zip(&statuses) {
        match status {
            Status::Ok(took, path) => {
                eprintln!("[repro_all] {name} ok ({took:.1?}) -> {}", path.display())
            }
            Status::Failed(why) => {
                eprintln!("[repro_all] {name} FAILED: {why}");
                failures += 1;
            }
        }
    }
    if failures == 0 {
        eprintln!("[repro_all] all {} exhibits regenerated.", EXHIBITS.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("[repro_all] {failures} exhibit(s) failed.");
        ExitCode::FAILURE
    }
}
