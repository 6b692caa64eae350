//! The full accuracy/latency frontier, traced by one-time searches.
//!
//! An extension beyond the paper's discrete constraint set: because each
//! LightNAS run lands on its target, sweeping the target traces the whole
//! Pareto frontier at one search per point — the λ-sweep methods would pay
//! an extra tuning multiplier per point.

use lightnas::pareto::{pareto_indices, FrontierPoint};
use lightnas_bench::plot::{SeriesStyle, SvgPlot};
use lightnas_bench::{ascii_chart, render_table, save_figure, Harness};
use lightnas_eval::TrainingProtocol;
use lightnas_runtime::{run_sweep, SearchJob, SweepOptions};
use lightnas_space::reference_architectures;

fn main() {
    let h = Harness::standard();
    let targets: Vec<f64> = (0..10).map(|i| 18.0 + 1.5 * i as f64).collect();
    let workers = lightnas_bench::sweep_workers(8);
    eprintln!(
        "[pareto] tracing {} frontier points on {workers} workers ...",
        targets.len()
    );
    // One search job per target, through the runtime scheduler: results are
    // index-ordered and byte-identical to serial `trace_frontier`, but the
    // points land concurrently behind one shared predictor cache.
    let jobs = SearchJob::grid(&targets, &[0], h.search_config());
    let report = run_sweep(
        &h.oracle,
        &h.predictor,
        &jobs,
        &SweepOptions::with_workers(workers),
        None,
    );
    let points: Vec<FrontierPoint> = report
        .completed()
        .into_iter()
        .map(|r| {
            let architecture = r.outcome.architecture.clone();
            FrontierPoint {
                target: r.job.target,
                predicted: h.predictor.predict(&architecture),
                top1: h
                    .oracle
                    .top1(&architecture, TrainingProtocol::full(), r.job.seed),
                architecture,
            }
        })
        .collect();
    eprintln!(
        "[pareto] sweep cache: {} hits / {} misses ({:.1}% hit rate)",
        report.cache.hits,
        report.cache.misses,
        100.0 * report.cache.hit_rate()
    );

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.1}", p.target),
                format!("{:.2}", h.device.true_latency_ms(&p.architecture, &h.space)),
                format!("{:.2}", p.top1),
            ]
        })
        .collect();
    println!("LightNAS frontier (one search per point):");
    println!(
        "{}",
        render_table(&["target (ms)", "measured (ms)", "top-1 (%)"], &rows)
    );

    let pairs: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (h.device.true_latency_ms(&p.architecture, &h.space), p.top1))
        .collect();
    let front = pareto_indices(&pairs);
    println!(
        "{}/{} traced points are Pareto-optimal among themselves.",
        front.len(),
        points.len()
    );

    // Where do the published baselines sit relative to this frontier?
    let mut dominated = 0;
    let mut total = 0;
    for r in reference_architectures() {
        if r.extra_techniques {
            continue;
        }
        let lat = h.device.true_latency_ms(&r.arch, &h.space);
        let top1 = h.oracle.top1(&r.arch, TrainingProtocol::full(), 0);
        total += 1;
        if pairs
            .iter()
            .any(|&(l, a)| l <= lat + 0.05 && a >= top1 - 0.05)
        {
            dominated += 1;
        }
    }
    println!("{dominated}/{total} non-† baselines are dominated by the traced frontier.");

    let mut chart = SvgPlot::new(
        "LightNAS frontier vs baselines",
        "latency (ms)",
        "top-1 (%)",
    );
    chart.add_series("LightNAS frontier", pairs.clone(), SeriesStyle::Line);
    let base_pts: Vec<(f64, f64)> = reference_architectures()
        .into_iter()
        .map(|r| {
            (
                h.device.true_latency_ms(&r.arch, &h.space),
                h.oracle.top1(&r.arch, TrainingProtocol::full(), 0),
            )
        })
        .collect();
    chart.add_series("published baselines", base_pts, SeriesStyle::Scatter);
    save_figure("pareto", &chart);
    let mut all = pairs.clone();
    for r in reference_architectures() {
        let lat = h.device.true_latency_ms(&r.arch, &h.space);
        let top1 = h.oracle.top1(&r.arch, TrainingProtocol::full(), 0);
        all.push((lat, top1));
    }
    println!(
        "{}",
        ascii_chart(
            "latency (ms) vs top-1 (%): frontier + baselines",
            &all,
            70,
            16
        )
    );
}
