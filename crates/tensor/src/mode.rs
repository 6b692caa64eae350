//! The two-tier performance contract: **strict** vs **fast** kernel mode.
//!
//! Strict mode (the default) is the repo's historical contract: every kernel
//! obeys the deterministic-reduction rule in [`crate::kernels`] and produces
//! bits identical to the naive reference loops, at every thread count, on
//! every instruction set. Fast mode is an *opt-in* second tier that trades
//! that bit-identity for throughput: FMA-contracted micro-kernels (AVX2+FMA
//! and AVX-512F tiles in [`crate::simd`], chosen by the strict tier's own
//! size rule in [`crate::kernels`]) and per-thread partial-sum reductions
//! over the `k` dimension. Fast results are *tolerance-verified* against the
//! strict oracle — the bounds live in [`crate::tolerance`] and are asserted
//! by the differential proptest suite — never fingerprinted.
//!
//! The mode is a process-wide knob like the thread count: it can change
//! wall-clock and low-order result bits (within documented bounds), so it is
//! deliberately not part of any checkpoint or job identity. Strict mode is
//! pinned as the default by the regression suite; nothing in the workspace
//! flips it implicitly.

use std::sync::atomic::{AtomicU8, Ordering};

/// Environment variable selecting the kernel mode. `fast` (case-insensitive)
/// opts into the fast tier; every other value — including unset — means
/// strict.
pub const MODE_ENV: &str = "LIGHTNAS_KERNEL_MODE";

/// The process-wide kernel execution mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Bit-exact: byte-identical to the naive references, thread-count and
    /// instruction-set invariant. The oracle tier.
    Strict,
    /// Tolerance-verified: FMA contraction and per-thread partial sums
    /// allowed, on the kernels the strict tier's size rule picks. Bounded
    /// divergence from strict, per [`crate::tolerance`]; the bits depend on
    /// the CPU, the thread count and the SIMD switch, never on a timing.
    Fast,
}

const UNKNOWN: u8 = 0;
const STRICT: u8 = 1;
const FAST: u8 = 2;

/// Cached mode; `UNKNOWN` until the first kernel call resolves the env knob.
static MODE_STATE: AtomicU8 = AtomicU8::new(UNKNOWN);

fn env_requests_fast() -> bool {
    std::env::var(MODE_ENV).is_ok_and(|v| v.trim().eq_ignore_ascii_case("fast"))
}

/// The current kernel mode. The first call resolves `LIGHTNAS_KERNEL_MODE`;
/// later calls are one relaxed load.
pub fn kernel_mode() -> KernelMode {
    match MODE_STATE.load(Ordering::Relaxed) {
        STRICT => KernelMode::Strict,
        FAST => KernelMode::Fast,
        _ => init_mode_from_env(),
    }
}

/// Re-reads `LIGHTNAS_KERNEL_MODE` and installs the result, returning it.
pub fn init_mode_from_env() -> KernelMode {
    let mode = if env_requests_fast() {
        KernelMode::Fast
    } else {
        KernelMode::Strict
    };
    set_kernel_mode(mode);
    mode
}

/// Sets the kernel mode in-process (tests, benchmarks, services that want
/// the fast tier without touching the environment).
pub fn set_kernel_mode(mode: KernelMode) {
    let state = match mode {
        KernelMode::Strict => STRICT,
        KernelMode::Fast => FAST,
    };
    MODE_STATE.store(state, Ordering::Relaxed);
}

/// `true` when the fast tier is both requested and *usable*: fast kernels
/// require the SIMD dispatch to be on and an FMA-capable CPU. With SIMD
/// forced off (`LIGHTNAS_KERNEL_SIMD=off`) or on pre-FMA hardware, fast mode
/// degrades to the strict kernels — bit-identical, never half-fast.
pub(crate) fn fast_active() -> bool {
    kernel_mode() == KernelMode::Fast && crate::simd::simd_enabled() && crate::simd::fma_available()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_read_round_trips() {
        let before = kernel_mode();
        set_kernel_mode(KernelMode::Fast);
        assert_eq!(kernel_mode(), KernelMode::Fast);
        set_kernel_mode(KernelMode::Strict);
        assert_eq!(kernel_mode(), KernelMode::Strict);
        set_kernel_mode(before);
    }

    #[test]
    fn env_parser_only_accepts_fast() {
        for v in ["fast", "FAST", " Fast "] {
            assert!(v.trim().eq_ignore_ascii_case("fast"), "{v:?} should opt in");
        }
        for v in ["strict", "", "1", "on", "faster"] {
            assert!(
                !v.trim().eq_ignore_ascii_case("fast"),
                "{v:?} must stay strict"
            );
        }
    }
}
