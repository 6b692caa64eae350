//! The fast tier's kernel choice: FMA tiles and per-shape autotuning.
//!
//! Reached only when [`crate::mode::fast_active`] holds (fast mode requested
//! *and* the SIMD dispatch is on *and* the CPU has FMA), from the one GEMM,
//! [`crate::kernels::matmul_into`], which also serves `a·bᵀ` and `aᵀ·b`
//! after transposing. Three liberties the strict tier forbids, all of which
//! change low-order result bits and are therefore covered by the
//! differential tolerance suite instead of fingerprints:
//!
//! 1. **FMA contraction** — the micro-tiles in [`crate::simd`] accumulate
//!    with `vfmadd` (one rounding per term instead of two), on AVX2 4×16
//!    tiles or AVX-512F 8×32 tiles.
//! 2. **Per-thread partial sums** — when the output is too short to give
//!    every thread a full row block, the shared tiling loop in
//!    [`crate::kernels`] splits the reduction dimension instead: each thread
//!    produces a private `m×n` partial product over its `k`-range and the
//!    partials are summed in ascending range order. Thread counts finally
//!    *scale* on skinny outputs, at the price of a reduction tree whose
//!    error is bounded (and tested) rather than zero. Only a fused tile
//!    takes that split.
//! 3. **Per-shape kernel autotuning** — when a shape has more than one
//!    candidate, the first call for a `(m, k, n)` runs each candidate twice
//!    back-to-back on the live operands, an untimed warm-up and then a
//!    timed call, keeps the fastest, and caches the choice for the process
//!    lifetime (bounded map, no eviction). The
//!    candidates are the tiles the CPU has and, when the left operand is
//!    sparse enough for the strict tier's sparse dispatch, the strict
//!    zero-skipping kernel ([`crate::kernels`]); sparse and dense operands
//!    of one shape are tuned apart. Which kernel wins is shape-dependent:
//!    the 8×32 tile amortizes better on wide outputs, the 4×16 tile wastes
//!    less on narrow ones, and the zero-skipping kernel beats both on wide
//!    outputs of a sparse operand but loses to them on narrow ones.
//!
//! Within one process, shape and sparsity class the fast path is
//! deterministic after the first (tuning) call; across processes, CPUs,
//! thread counts or modes only the tolerance contract in
//! [`crate::tolerance`] holds.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{LazyLock, Mutex};
use std::time::Instant;

use crate::simd::Tile;

/// Fast-tier GEMM micro-tile shapes (output rows × packed panel width).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastTile {
    /// AVX2+FMA 4×16 — the hardware floor of the fast tier.
    Avx2Fma4x16,
    /// AVX-512F 8×32 — sixteen `zmm` accumulators.
    Avx512f8x32,
}

impl From<FastTile> for Tile {
    fn from(tile: FastTile) -> Self {
        match tile {
            FastTile::Avx2Fma4x16 => Tile::Fma,
            FastTile::Avx512f8x32 => Tile::Avx512,
        }
    }
}

/// A kernel the autotuner can pick: an FMA tile, or the strict
/// zero-skipping kernel, offered only for a sparse left operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Candidate {
    Tile(FastTile),
    Sparse,
}

/// Autotune cache entries are bounded; past the cap new shapes use the
/// preferred candidate untimed. Real workloads see a handful of shapes.
const TUNE_CAP: usize = 1024;

const OVERRIDE_NONE: u8 = 0;
const OVERRIDE_FMA: u8 = 1;
const OVERRIDE_AVX512: u8 = 2;

/// Test hook: pins the micro-tile, bypassing autotuning, so the tolerance
/// suite can exercise each tile deterministically.
static TILE_OVERRIDE: AtomicU8 = AtomicU8::new(OVERRIDE_NONE);

/// Autotune cache key: the (m, k, n) of a GEMM call and whether its left
/// operand was offered the zero-skipping kernel.
type TuneKey = (usize, usize, usize, bool);

/// Per-shape kernel choices made by the first (timed) call.
static TUNE: LazyLock<Mutex<HashMap<TuneKey, Candidate>>> =
    LazyLock::new(|| Mutex::new(HashMap::new()));

/// Pins (or unpins) the fast-tier micro-tile for the whole process. A pinned
/// tile the CPU lacks silently falls back to tiles it has; intended for the
/// differential tests, not production tuning.
pub fn set_fast_tile_override(tile: Option<FastTile>) {
    let state = match tile {
        None => OVERRIDE_NONE,
        Some(FastTile::Avx2Fma4x16) => OVERRIDE_FMA,
        Some(FastTile::Avx512f8x32) => OVERRIDE_AVX512,
    };
    TILE_OVERRIDE.store(state, Ordering::Relaxed);
}

/// The currently pinned micro-tile, if any.
pub fn fast_tile_override() -> Option<FastTile> {
    match TILE_OVERRIDE.load(Ordering::Relaxed) {
        OVERRIDE_FMA => Some(FastTile::Avx2Fma4x16),
        OVERRIDE_AVX512 => Some(FastTile::Avx512f8x32),
        _ => None,
    }
}

/// Runs `run` with the kernel chosen for this shape: the pinned tile if
/// usable, the cached autotune winner, or — on the first sight of a shape
/// with more than one candidate — each candidate twice, caching the one
/// whose second call was fastest (the output keeps the *last* candidate's
/// bits; all satisfy the tolerance contract). The first call is an untimed
/// warm-up: timed cold, whichever candidate runs first pays for the
/// operands' and its code's first touch and loses to slower kernels.
/// `sparse` adds the zero-skipping kernel to the candidates.
pub(crate) fn with_tuned_kernel(
    m: usize,
    k: usize,
    n: usize,
    sparse: bool,
    mut run: impl FnMut(Candidate),
) {
    if let Some(t) = fast_tile_override() {
        if Tile::from(t).available() {
            run(Candidate::Tile(t));
            return;
        }
    }
    let candidates: Vec<Candidate> = [FastTile::Avx512f8x32, FastTile::Avx2Fma4x16]
        .into_iter()
        .filter(|&t| Tile::from(t).available())
        .map(Candidate::Tile)
        .chain(sparse.then_some(Candidate::Sparse))
        .collect();
    debug_assert!(!candidates.is_empty(), "fast path dispatched without FMA");
    if candidates.len() == 1 {
        run(candidates[0]);
        return;
    }
    let key = (m, k, n, sparse);
    let cached = {
        let map = TUNE.lock().unwrap_or_else(|e| e.into_inner());
        map.get(&key).copied()
    };
    if let Some(t) = cached {
        run(t);
        return;
    }
    let mut best = candidates[0];
    let mut best_elapsed = None;
    for &t in &candidates {
        run(t);
        let start = Instant::now();
        run(t);
        let elapsed = start.elapsed();
        if best_elapsed.is_none_or(|prev| elapsed < prev) {
            best = t;
            best_elapsed = Some(elapsed);
        }
    }
    let mut map = TUNE.lock().unwrap_or_else(|e| e.into_inner());
    if map.len() < TUNE_CAP {
        map.insert(key, best);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that pin or depend on the process-wide tile
    /// override.
    static OVERRIDE: Mutex<()> = Mutex::new(());

    #[test]
    fn override_round_trips() {
        let _guard = OVERRIDE.lock().unwrap_or_else(|e| e.into_inner());
        let before = fast_tile_override();
        set_fast_tile_override(Some(FastTile::Avx512f8x32));
        assert_eq!(fast_tile_override(), Some(FastTile::Avx512f8x32));
        set_fast_tile_override(Some(FastTile::Avx2Fma4x16));
        assert_eq!(fast_tile_override(), Some(FastTile::Avx2Fma4x16));
        set_fast_tile_override(None);
        assert_eq!(fast_tile_override(), None);
        set_fast_tile_override(before);
    }

    #[test]
    fn sparse_operands_add_the_zero_skipping_kernel_and_tune_apart() {
        let _guard = OVERRIDE.lock().unwrap_or_else(|e| e.into_inner());
        if !crate::simd::fma_available() {
            return;
        }
        // A shape no other test uses, so its first sight tunes here.
        let (m, k, n) = (5, 3, 1_000_003);
        // On first sight each candidate runs exactly twice, warm-up then
        // timed, back to back; once cached, the winner runs once.
        let tiles: Vec<Candidate> = [FastTile::Avx512f8x32, FastTile::Avx2Fma4x16]
            .into_iter()
            .filter(|&t| Tile::from(t).available())
            .map(Candidate::Tile)
            .collect();
        let twice = |cs: &[Candidate]| cs.iter().flat_map(|&c| [c, c]).collect::<Vec<_>>();
        let mut ran = Vec::new();
        with_tuned_kernel(m, k, n, false, |c| ran.push(c));
        if tiles.len() > 1 {
            assert_eq!(ran, twice(&tiles), "dense operand");
        } else {
            assert_eq!(ran, tiles, "a lone candidate runs untimed");
        }
        ran.clear();
        with_tuned_kernel(m, k, n, false, |c| ran.push(c));
        assert_eq!(ran.len(), 1, "the dense class's winner is cached");
        ran.clear();
        with_tuned_kernel(m, k, n, true, |c| ran.push(c));
        let sparse: Vec<Candidate> = tiles.iter().copied().chain([Candidate::Sparse]).collect();
        assert_eq!(
            ran,
            twice(&sparse),
            "sparse operand: the tiles and the sparse kernel"
        );
        ran.clear();
        with_tuned_kernel(m, k, n, true, |c| ran.push(c));
        assert_eq!(ran.len(), 1, "the sparse class's winner is cached");
    }

    #[test]
    fn tile_geometry() {
        let geometry = |t: FastTile| (Tile::from(t).mr(), Tile::from(t).width());
        assert_eq!(geometry(FastTile::Avx2Fma4x16), (4, 16));
        assert_eq!(geometry(FastTile::Avx512f8x32), (8, 32));
        assert!(
            Tile::from(FastTile::Avx2Fma4x16).fused() && Tile::from(FastTile::Avx512f8x32).fused()
        );
    }
}
