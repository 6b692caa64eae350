//! Hardware-metric prediction (paper Sec. 3.2, Fig. 5, Fig. 8-left).
//!
//! Measuring every candidate on-device is impossible over a `7²¹` space, so
//! LightNAS trains a small MLP — three fully-connected layers of 128, 64 and
//! 1 neurons — that maps the sparse architecture encoding `ᾱ` (Eq. 4) to the
//! measured metric. The paper samples 10,000 random architectures, measures
//! each on the Jetson AGX Xavier, and fits the predictor on an 80/20 split,
//! reaching 0.04 ms RMSE versus 0.41 ms (plus an ≈ 11.48 ms constant gap)
//! for a per-operator look-up table.
//!
//! This crate reproduces that pipeline against the simulated device:
//!
//! * [`MetricDataset`] — seeded sampling of (encoding, measurement) pairs
//!   for latency **or** energy (the predictor "is generalizable to other
//!   hardware metrics", Sec. 3.2).
//! * [`MlpPredictor`] — the 128/64/1 MLP trained with Adam on standardized
//!   targets; exposes [`MlpPredictor::gradient`], the `∂LAT/∂ᾱ` term of
//!   Eq. 12 that makes the latency objective differentiable.
//! * [`LutPredictor`] — the look-up-table baseline built from isolated
//!   per-operator measurements, with an optional bias-corrected variant.
//!
//! # Example
//!
//! ```no_run
//! use lightnas_hw::Xavier;
//! use lightnas_predictor::{Metric, MetricDataset, MlpPredictor, TrainConfig};
//! use lightnas_space::SearchSpace;
//!
//! let space = SearchSpace::standard();
//! let device = Xavier::maxn();
//! let data = MetricDataset::sample(&device, &space, Metric::LatencyMs, 1000, 0);
//! let (train, valid) = data.split(0.8);
//! let predictor = MlpPredictor::train(&train, &TrainConfig::default());
//! println!("validation RMSE: {:.3} ms", predictor.rmse(&valid));
//! ```

mod batch;
mod cache;
mod checkpoint;
mod dataset;
mod ensemble;
mod fallback;
mod lut;
mod mlp;

pub use batch::BatchPredictor;
pub use cache::{
    architecture_key, encoding_key, CacheSnapshot, CacheStats, CachedPredictor, Predictor,
    ShardOccupancy, DEFAULT_CACHE_SHARDS,
};
pub use checkpoint::{CheckpointError, WeightPrecision};
pub use dataset::{Metric, MetricDataset};
pub use ensemble::EnsemblePredictor;
pub use fallback::{DegradeCause, FallbackPredictor};
/// The encoding parser [`encoding_key`] keys by, for callers that take
/// encodings from outside (the serving front door).
pub use lightnas_space::{parse_encoding, DecodeError};
pub use lut::LutPredictor;
pub use mlp::{MlpPredictor, TrainConfig};
