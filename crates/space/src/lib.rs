//! The LightNAS search space (paper Sec. 3.1, Fig. 4).
//!
//! A layer-wise, MobileNetV2-based architecture space: a fixed stem and first
//! bottleneck, `L = 22` operator slots of which 21 are searchable, and a
//! fixed head. Each searchable slot chooses among `K = 7` candidates —
//! `MBConv` blocks with kernel ∈ {3, 5, 7} × expansion ∈ {3, 6} plus
//! `SkipConnect` — giving `|A| = 7²¹ ≈ 5.6 × 10¹⁷` architectures.
//!
//! This crate is pure description: operators ([`Operator`]), the macro
//! structure ([`SearchSpace`], [`LayerSpec`]), concrete architectures
//! ([`Architecture`]) with their sparse one-hot encoding (Eq. 4), analytic
//! cost counters (FLOPs, parameters, activation sizes), MobileNetV2
//! width/resolution scaling (Fig. 9 baseline) and the reference
//! architectures used in the paper's comparison tables. Simulation of
//! hardware behaviour lives in `lightnas-hw`; accuracy modelling in
//! `lightnas-eval`.
//!
//! # Example
//!
//! ```
//! use lightnas_space::{Architecture, SearchSpace};
//!
//! let space = SearchSpace::standard();
//! let arch = Architecture::random(&space, 42);
//! assert_eq!(arch.ops().len(), lightnas_space::SEARCHABLE_LAYERS);
//! let enc = arch.encode();
//! assert_eq!(enc.len(), lightnas_space::TOTAL_LAYERS * lightnas_space::NUM_OPS);
//! ```

mod arch;
mod config;
mod cost;
mod operator;
mod reference;
mod scaling;

pub use arch::{parse_encoding, Architecture, DecodeError, ParseArchitectureError, ParseSpecError};
pub use config::{LayerSpec, SearchSpace, SpaceConfig};
pub use cost::{fixed_cost, layer_cost, network_cost, LayerCost, NetworkCost};
pub use operator::{Expansion, Kernel, Operator, ParseOperatorError};
pub use reference::{reference_architectures, ReferenceArch, SearchMethod};
pub use scaling::{mobilenet_v2, scaled_variants, ScaledVariant, ScalingAxis};

/// Number of searchable operator slots (the paper's `7^21`).
pub const SEARCHABLE_LAYERS: usize = 21;

/// Total operator slots including the fixed first bottleneck (`L = 22`).
pub const TOTAL_LAYERS: usize = 22;

/// Number of operator candidates per slot (`K = 7`).
pub const NUM_OPS: usize = 7;
