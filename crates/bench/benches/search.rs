//! Criterion benches for the search engines.
//!
//! `lightnas_search_short` measures a complete (shortened) one-time search;
//! `oracle_loss_marginals` is the per-step gradient surrogate, 147 swap
//! losses from one incremental pass over the sampled architecture (about
//! 5 µs on a 2-vCPU Xeon VM, against about 53 µs when every swapped
//! architecture was scored from scratch); together they bound the cost of
//! the paper-scale 90-epoch schedule.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use lightnas::{DartsSearch, FbnetSearch, LightNas, SearchConfig};
use lightnas_eval::AccuracyOracle;
use lightnas_hw::Xavier;
use lightnas_predictor::{LutPredictor, Metric, MetricDataset, MlpPredictor, TrainConfig};
use lightnas_space::{Architecture, SearchSpace};

fn bench_search(c: &mut Criterion) {
    let space = SearchSpace::standard();
    let device = Xavier::maxn();
    let oracle = AccuracyOracle::imagenet();
    let data = MetricDataset::sample_diverse(&device, &space, Metric::LatencyMs, 1200, 0);
    let (train, _) = data.split(0.9);
    let predictor = MlpPredictor::train(
        &train,
        &TrainConfig {
            epochs: 30,
            batch_size: 128,
            lr: 2e-3,
            seed: 0,
        },
    );
    let lut = LutPredictor::build(&device, &space);
    let arch = Architecture::random(&space, 5);

    c.bench_function("oracle_loss_marginals", |b| {
        b.iter(|| black_box(oracle.loss_marginals(black_box(&arch), 0.5)))
    });
    c.bench_function("oracle_quality", |b| {
        b.iter(|| black_box(oracle.quality(black_box(&arch))))
    });

    let short = SearchConfig {
        epochs: 6,
        steps_per_epoch: 10,
        warmup_epochs: 1,
        ..SearchConfig::paper()
    };
    c.bench_function("lightnas_search_short", |b| {
        let engine = LightNas::new(&space, &oracle, &predictor, short);
        b.iter(|| black_box(engine.search(22.0, 0)))
    });
    c.bench_function("fbnet_search_short", |b| {
        let engine = FbnetSearch::new(&space, &oracle, &lut, 0.01, short);
        b.iter(|| black_box(engine.search(0)))
    });
    c.bench_function("darts_search_short", |b| {
        let engine = DartsSearch::new(&space, &oracle, short);
        b.iter(|| black_box(engine.search()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_search
}
criterion_main!(benches);
