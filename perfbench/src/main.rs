//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <search_once|tenant_sweeps|serve_open_loop|drift_adapt> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The command runs repetitions of one
//! workload, each in a fresh child process (thread-local predictor state
//! would otherwise carry from one repetition to the next), until `--seconds`
//! have passed, then prints notes and, as its last line, one JSON object:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run alternates untraced and traced repetitions so
//! the tracing overhead can be read off the same run. Every repetition runs
//! the workload's correctness gates; any failure makes the result
//! `"correct": false` and the exit code 1. Spans and run scratch land under
//! `.perfbench/`. See `perfbench/README.md` for what each metric means.

mod calib;
mod drift;
mod report;
mod search;
mod serve;
mod stats;
mod substrate;
mod trace;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use calib::Speed;
use report::Report;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "search_once",
    "tenant_sweeps",
    "serve_open_loop",
    "drift_adapt",
];

/// End-to-end metrics, their units, and how each moves with the machine's
/// speed: printed with `--trace 0`, each as the median over the run of its
/// values scaled by [`calib::at_nominal`].
const END_TO_END: [(&str, &str, Speed); 4] = [
    ("setup_s", "s", Speed::Time),
    ("peak_rss_mib", "MiB", Speed::Neutral),
    ("work_per_s", "1/s", Speed::Rate),
    ("op_p50_us", "us", Speed::Time),
];

/// Per-layer metrics and their units: printed with `--trace 1`. A layer a
/// workload never calls reports 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("hw.corpus_s", "s"),
    ("hw.drift_sample_us_p50", "us"),
    ("predictor.fit_s", "s"),
    ("predictor.fit_rows_per_s", "1/s"),
    ("predictor.query_calls", "count"),
    ("predictor.query_us_p50", "us"),
    ("predictor.query_us_p99", "us"),
    ("predictor.query_growth", "ratio"),
    ("predictor.cache_hit_ratio", "ratio"),
    ("predictor.cache_us_p50", "us"),
    ("core.self_s", "s"),
    ("runtime.sweep_s", "s"),
    ("runtime.idle_share", "ratio"),
    ("runtime.checkpoints", "count"),
    ("runtime.checkpoint_bytes", "bytes"),
    ("runtime.telemetry_bytes", "bytes"),
    ("serve.submit_us_p50", "us"),
    ("serve.submit_us_p99", "us"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_p99", "us"),
    ("serve.batch_mean", "count"),
    ("serve.model_us_p50", "us"),
    ("serve.model_us_p99", "us"),
    ("serve.frontend_share", "ratio"),
    ("serve.sweep_submit_us_p50", "us"),
    ("adapt.tick_us_p50", "us"),
    ("adapt.tick_us_p99", "us"),
    ("adapt.retrains", "count"),
    ("adapt.retrain_ms_p50", "ms"),
    ("adapt.retrain_ms_p99", "ms"),
    ("adapt.retrain_share", "ratio"),
    ("adapt.promotions", "count"),
    ("adapt.rollbacks", "count"),
    ("adapt.pool_wait_ticks_max", "count"),
    ("trace.overhead_pct", "%"),
];

/// The metric each child reports its reference reading (ms) under.
const REFERENCE: &str = "reference_ms";

/// Setups measured per untraced run at least, for a steady `setup_s`.
const MIN_SETUPS: usize = 15;

/// After the repetitions, set-up-only children keep running for this long
/// (s), up to [`MAX_SETUPS`] setups in all, so that a set-up of tens of µs
/// (search_once's) is folded over many processes rather than a few.
const SETUP_CHILDREN_S: f64 = 1.0;
const MAX_SETUPS: usize = 200;

/// Untraced repetitions per run at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Repetitions per run at most, whatever `--seconds` allows, counting the
/// discarded ones.
const MAX_REPS: u64 = 64;

/// No repetition starts once this long (s) has passed, however many were
/// discarded, so a run ends well inside three minutes.
const MAX_RUN_S: f64 = 120.0;

/// Where runs keep scratch files and spans, relative to the working
/// directory.
pub const SCRATCH: &str = ".perfbench";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in child processes: `rep` or `setup`.
    child: Option<String>,
    /// The child's repetition index, and which input set it runs.
    rep: u64,
    input: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        child: None,
        rep: 0,
        input: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--child" => args.child = Some(value()?),
            "--rep" => args.rep = value()?.parse().map_err(|e| format!("--rep: {e}"))?,
            "--input" => args.input = value()?.parse().map_err(|e| format!("--input: {e}"))?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// Every `LIGHTNAS_*` knob would change what is measured, so the benchmark
/// refuses to run with any of them set.
fn refuse_knobs() -> Result<(), String> {
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("LIGHTNAS_"))
        .collect();
    if knobs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark pins every LIGHTNAS_* knob to its default",
            knobs.join(", ")
        ))
    }
}

/// The checked-out revision, read from `.git` without running git; `none`
/// outside a git checkout.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The stamp every output carries.
pub fn stamp(workload: &str, seed: u64, traced: bool) -> String {
    format!(
        "workload={workload} seed={seed} trace={} git_rev={} nproc={} kernel_mode={:?}",
        u8::from(traced),
        git_rev(),
        nproc(),
        lightnas_tensor::kernel_mode()
    )
}

/// Peak resident set size of this process (VmHWM), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The seed of input set `input` of a run seeded `seed`. Repetitions draw
/// different input sets, so a run's figure spans several inputs rather
/// than resting on one; a traced run gives each traced repetition the
/// inputs of the untraced one before it, so the pair does identical work.
fn input_seed(seed: u64, input: u64) -> u64 {
    let mut s = seed ^ input.rotate_left(32);
    lightnas_runtime::splitmix64(&mut s)
}

/// Which input set repetition `rep` runs.
fn input_of(rep: u64, traced_run: bool) -> u64 {
    if traced_run {
        rep / 2
    } else {
        rep
    }
}

fn child(args: &Args) -> ExitCode {
    let setup_only = args.child.as_deref() == Some("setup");
    if args.trace {
        trace::enable();
    }
    let seed = input_seed(args.seed, args.input);
    let mut r = Report::default();
    // Read before any program code runs in this process, so nothing the
    // program leaves behind (threads, pools) can move the reading.
    let reference_ms = calib::reference_ms();
    r.metric(REFERENCE, reference_ms);
    match args.workload.as_str() {
        "search_once" => search::search_once(seed, setup_only, &mut r),
        "tenant_sweeps" => search::tenant_sweeps(seed, setup_only, &mut r),
        "serve_open_loop" => serve::serve_open_loop(seed, setup_only, &mut r),
        _ => drift::drift_adapt(seed, setup_only, &mut r),
    }
    if !setup_only {
        r.metric("peak_rss_mib", peak_rss_mib());
        if args.trace {
            let spans = trace::take();
            let dir = std::path::Path::new(SCRATCH);
            let path = dir.join(format!(
                "{}-seed{}-rep{}.spans.jsonl",
                args.workload, args.seed, args.rep
            ));
            let written =
                std::fs::create_dir_all(dir).and_then(|()| trace::write_jsonl(&path, &spans));
            match written {
                Ok(()) => r.info(format!("{} spans -> {}", spans.len(), path.display())),
                Err(e) => r.info(format!("spans not written to {}: {e}", path.display())),
            }
        }
    }
    print!("{}", r.to_lines());
    ExitCode::SUCCESS
}

fn run_child(
    exe: &std::path::Path,
    args: &Args,
    rep: u64,
    traced: bool,
    mode: &str,
) -> Result<Report, String> {
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--rep", &rep.to_string()])
        .args(["--input", &input_of(rep, args.trace).to_string()])
        .args(["--child", mode])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!("repetition {rep} ({mode}) failed: {}", out.status));
    }
    Ok(Report::from_lines(&String::from_utf8_lossy(&out.stdout)))
}

/// The median of `v`, if any.
fn median_of(v: &[f64]) -> Option<f64> {
    (!v.is_empty()).then(|| stats::median(v))
}

/// `name` in `report`, scaled by the report's reference reading.
fn scaled(report: &Report, name: &str, speed: Speed) -> Option<f64> {
    Some(calib::at_nominal(
        report.get(name)?,
        report.get(REFERENCE)?,
        speed,
    ))
}

/// The median of `name` over repetitions, scaled.
fn median_over<'a>(
    reports: impl Iterator<Item = &'a Report>,
    name: &str,
    speed: Speed,
) -> Option<f64> {
    median_of(
        &reports
            .filter_map(|r| scaled(r, name, speed))
            .collect::<Vec<_>>(),
    )
}

/// A finite JSON number (JSON has no infinity; a +∞ latency, which only
/// refusals produce, is written as the largest double).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

/// One finished repetition.
struct Rep {
    index: u64,
    traced: bool,
    report: Report,
}

/// Whether `reps` hold the valid repetitions a run needs.
fn enough_reps(reps: &[Rep], traced_run: bool) -> bool {
    if traced_run {
        reps.iter().any(|r| r.traced) && reps.iter().any(|r| !r.traced)
    } else {
        reps.len() >= MIN_REPS
    }
}

/// Runs repetitions until `--seconds` have passed (and at least the
/// minimum count ran), each in a fresh child process. A repetition whose
/// measurement was invalid — a `measurement_*` gate failed, e.g. the load
/// generator fell behind — is discarded and re-run, until [`MAX_REPS`]
/// repetitions or [`MAX_RUN_S`] seconds; a run left without enough valid
/// repetitions then fails.
/// A child's `setup_s` and reference reading (ms).
type Setup = (f64, f64);

fn setup_of(report: &Report) -> Option<Setup> {
    Some((report.get("setup_s")?, report.get(REFERENCE)?))
}

fn run_reps(exe: &std::path::Path, args: &Args) -> Result<(Vec<Rep>, Vec<Setup>), String> {
    let started = Instant::now();
    let (mut reps, mut setups) = (Vec::<Rep>::new(), Vec::new());
    let mut last = 0.0f64;
    for index in 0..MAX_REPS {
        let elapsed = started.elapsed().as_secs_f64();
        if enough_reps(&reps, args.trace) && elapsed + last / 2.0 >= args.seconds {
            break;
        }
        if elapsed + last >= MAX_RUN_S {
            break;
        }
        let is_traced = args.trace && index % 2 == 1;
        let t = Instant::now();
        let report = run_child(exe, args, index, is_traced, "rep")?;
        last = t.elapsed().as_secs_f64();
        setups.extend(setup_of(&report));
        let tag = if is_traced { " traced" } else { "" };
        for line in &report.info {
            println!("rep {index}{tag} | {line}");
        }
        let invalid: Vec<&str> = report
            .gates
            .iter()
            .filter(|(g, pass, _)| !pass && g.starts_with("measurement_"))
            .map(|(_, _, detail)| detail.as_str())
            .collect();
        if !invalid.is_empty() {
            println!(
                "rep {index}{tag} discarded as an invalid measurement: {}",
                invalid.join("; ")
            );
            continue;
        }
        reps.push(Rep {
            index,
            traced: is_traced,
            report,
        });
    }
    let (mut index, extra) = (MAX_REPS, Instant::now());
    while !args.trace
        && (setups.len() < MIN_SETUPS
            || (setups.len() < MAX_SETUPS && extra.elapsed().as_secs_f64() < SETUP_CHILDREN_S))
    {
        setups.extend(setup_of(&run_child(exe, args, index, false, "setup")?));
        index += 1;
    }
    Ok((reps, setups))
}

fn parent(args: &Args) -> Result<bool, String> {
    refuse_knobs()?;
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
    println!("stamp {}", stamp(&args.workload, args.seed, args.trace));
    let (reps, setups) = run_reps(&exe, args)?;
    if !setups.is_empty() {
        let ms: Vec<String> = setups
            .iter()
            .map(|&(s, ms)| format!("{:.4}@{ms:.2}", s * 1e3))
            .collect();
        println!("setup_s samples (ms@reference ms): {}", ms.join(" "));
    }
    let plain = || reps.iter().filter(|r| !r.traced).map(|r| &r.report);
    let traced = || reps.iter().filter(|r| r.traced).map(|r| &r.report);

    let mut correct = enough_reps(&reps, args.trace);
    if !correct {
        println!(
            "FAILED: only {} valid repetitions after {MAX_REPS} or {MAX_RUN_S} s",
            reps.len()
        );
    }
    for r in &reps {
        for (gate, pass, detail) in &r.report.gates {
            correct &= *pass;
            if !pass {
                println!("GATE FAILED rep {} {gate}: {detail}", r.index);
            }
        }
    }
    let gates: Vec<&str> = reps
        .first()
        .map(|r| r.report.gates.iter().map(|(g, _, _)| g.as_str()).collect())
        .unwrap_or_default();
    println!(
        "gates ({} repetitions): {} -> {}",
        reps.len(),
        gates.join(", "),
        if correct { "all passed" } else { "FAILED" }
    );
    // Repetitions that ran the same inputs must derive the same outputs.
    let mut by_input = std::collections::BTreeMap::new();
    let mut repeatable = true;
    for r in &reps {
        let input = input_of(r.index, args.trace);
        let prints = &r.report.fingerprints;
        println!(
            "fingerprint rep {} (input {input}): {}",
            r.index,
            prints.join(" ")
        );
        repeatable &= *by_input.entry(input).or_insert(prints) == prints;
    }
    println!("fingerprints repeat on repeated inputs: {repeatable}");
    correct &= repeatable;
    let attempted: u64 = reps.iter().map(|r| r.report.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.report.failed).sum();

    let mut metrics = Vec::new();
    if args.trace {
        // Unscaled: the traced and untraced repetitions alternate, so the
        // machine's phases load both sides alike, while a single child's
        // reference reading can catch a momentary stall.
        let (p, t) = (
            median_over(plain(), "work_per_s", Speed::Neutral),
            median_over(traced(), "work_per_s", Speed::Neutral),
        );
        let overhead = match (p, t) {
            (Some(p), Some(t)) if t > 0.0 => (p / t - 1.0) * 100.0,
            _ => 0.0,
        };
        println!(
            "tracing overhead: untraced work_per_s {p:?} vs traced {t:?} -> {overhead:.2}% more time per unit of work"
        );
        println!(
            "leak watch: peak_rss_mib traced {:?}, untraced {:?}",
            median_over(traced(), "peak_rss_mib", Speed::Neutral),
            median_over(plain(), "peak_rss_mib", Speed::Neutral)
        );
        for (name, unit) in PER_LAYER {
            let v = if name == "trace.overhead_pct" {
                Some(overhead)
            } else {
                median_over(traced(), name, Speed::Neutral)
            };
            metrics.push((name, unit, v.unwrap_or(0.0)));
        }
    } else {
        let references: Vec<f64> = setups.iter().map(|&(_, ms)| ms).collect();
        println!(
            "reference kernel: median {} ms over {} children, scaled to {} ms",
            median_of(&references).unwrap_or(0.0),
            references.len(),
            calib::NOMINAL_MS
        );
        for (name, unit, speed) in END_TO_END {
            let (raw, v) = if name == "setup_s" {
                let raw: Vec<f64> = setups.iter().map(|&(s, _)| s).collect();
                let at: Vec<f64> = setups
                    .iter()
                    .map(|&(s, ms)| calib::at_nominal(s, ms, speed))
                    .collect();
                (median_of(&raw), median_of(&at))
            } else {
                (
                    median_over(plain(), name, Speed::Neutral),
                    median_over(plain(), name, speed),
                )
            };
            println!("unscaled median {name} = {} {unit}", raw.unwrap_or(0.0));
            metrics.push((name, unit, v.unwrap_or(0.0)));
        }
    }
    for (name, unit, v) in &metrics {
        println!("metric {name} = {v} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child.is_some() {
        return child(&args);
    }
    match parent(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
