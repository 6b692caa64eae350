//! Serving-tier selection: which kernel tier and weight precision the
//! service answers queries with.
//!
//! The serving layer itself is tier-agnostic — [`crate::PredictorService`]
//! coalesces onto whatever [`BatchPredictor`](lightnas_predictor::BatchPredictor)
//! it is handed. This module is the one place that choice is made:
//!
//! * [`ServingTier::Strict`] — the default. Kernels run the strict
//!   bit-reproducible path; predictions are byte-identical across runs,
//!   thread counts and batch splits.
//! * [`ServingTier::Fast`] — opt-in (`LIGHTNAS_KERNEL_MODE=fast`).
//!   FMA-contracted kernels on the strict size rule's tiles; predictions
//!   carry the documented reduction-depth tolerance
//!   (`lightnas_tensor::tolerance`) instead of bit-identity.
//! * [`ServingTier::FastF16`] — fast kernels plus binary16 weight
//!   *storage* (`LIGHTNAS_SERVE_WEIGHTS=f16`): the deployed predictor is
//!   quantized exactly as an f16 checkpoint round trip would, halving
//!   weight bytes. Arithmetic stays `f32`.
//!
//! The tier is decided once at deploy time: [`ServingTier::activate`] flips
//! the process kernel mode, and [`ServingTier::prepare`] produces the
//! predictor the service should own for that tier.

use lightnas_predictor::MlpPredictor;
use lightnas_tensor::KernelMode;

/// Environment knob selecting the served weight precision (`"f16"` or
/// `"f32"`; anything else is ignored).
pub const WEIGHTS_ENV: &str = "LIGHTNAS_SERVE_WEIGHTS";

/// The kernel tier + weight precision a deployment serves with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServingTier {
    /// Strict kernels, f32 weights: bit-reproducible serving (default).
    #[default]
    Strict,
    /// Fast kernels, f32 weights: tolerance-bounded serving.
    Fast,
    /// Fast kernels, f16-stored weights widened on load.
    FastF16,
}

impl ServingTier {
    /// Reads the tier from the environment: `LIGHTNAS_KERNEL_MODE=fast`
    /// selects the fast tier, and `LIGHTNAS_SERVE_WEIGHTS=f16` additionally
    /// selects half-precision weight storage. f16 storage without fast
    /// kernels is not a tier — the point of strict serving is bit-identity
    /// with the searched checkpoint, which quantization would break.
    pub fn from_env() -> Self {
        let fast = std::env::var(lightnas_tensor::MODE_ENV)
            .map(|v| v.trim().eq_ignore_ascii_case("fast"))
            .unwrap_or(false);
        if !fast {
            return Self::Strict;
        }
        let f16 = std::env::var(WEIGHTS_ENV)
            .map(|v| v.trim().eq_ignore_ascii_case("f16"))
            .unwrap_or(false);
        if f16 {
            Self::FastF16
        } else {
            Self::Fast
        }
    }

    /// The kernel mode this tier runs.
    pub fn kernel_mode(self) -> KernelMode {
        match self {
            Self::Strict => KernelMode::Strict,
            Self::Fast | Self::FastF16 => KernelMode::Fast,
        }
    }

    /// Applies the tier's kernel mode to the process.
    pub fn activate(self) {
        lightnas_tensor::set_kernel_mode(self.kernel_mode());
    }

    /// The predictor the service should deploy for this tier: the trained
    /// weights as-is for f32 tiers, or the f16-quantized clone — exactly
    /// what loading an f16 checkpoint produces — for [`Self::FastF16`].
    pub fn prepare(self, trained: &MlpPredictor) -> MlpPredictor {
        match self {
            Self::Strict | Self::Fast => trained.clone(),
            Self::FastF16 => trained.quantize_f16(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tier_is_strict() {
        assert_eq!(ServingTier::default(), ServingTier::Strict);
        assert_eq!(ServingTier::Strict.kernel_mode(), KernelMode::Strict);
        assert_eq!(ServingTier::Fast.kernel_mode(), KernelMode::Fast);
        assert_eq!(ServingTier::FastF16.kernel_mode(), KernelMode::Fast);
    }
}
