//! The set-up every workload shares: search space, simulated device,
//! accuracy oracle and LUT, plus the small predictor fit the workloads
//! that do not measure fitting start from.

use std::path::PathBuf;

use lightnas_eval::AccuracyOracle;
use lightnas_hw::Xavier;
use lightnas_predictor::{LutPredictor, Metric, MetricDataset, MlpPredictor, TrainConfig};
use lightnas_space::SearchSpace;

/// Worker threads for sweeps, serving pools and retrain pools: the
/// benchmark's whole load fits on two hardware threads.
pub const WORKERS: usize = 2;

/// The shared substrate.
#[derive(Debug)]
pub struct Substrate {
    /// The paper's search space.
    pub space: SearchSpace,
    /// The simulated Jetson AGX Xavier (MAXN).
    pub device: Xavier,
    /// The ImageNet accuracy oracle.
    pub oracle: AccuracyOracle,
    /// The look-up-table predictor (the serving fallback).
    pub lut: LutPredictor,
}

impl Substrate {
    /// Builds space, device, oracle and LUT.
    pub fn build() -> Self {
        let space = SearchSpace::standard();
        let device = Xavier::maxn();
        let oracle = AccuracyOracle::imagenet();
        let lut = LutPredictor::build(&device, &space);
        Self {
            space,
            device,
            oracle,
            lut,
        }
    }

    /// The pre-fit latency predictor: 1,200 diverse rows, 40 epochs.
    pub fn prefit(&self, seed: u64) -> MlpPredictor {
        let data =
            MetricDataset::sample_diverse(&self.device, &self.space, Metric::LatencyMs, 1200, seed);
        MlpPredictor::train(
            &data,
            &TrainConfig {
                epochs: 40,
                batch_size: 128,
                lr: 2e-3,
                seed,
            },
        )
    }
}

/// A fresh per-process scratch directory under [`crate::SCRATCH`]; the
/// caller removes it when done.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(crate::SCRATCH).join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
