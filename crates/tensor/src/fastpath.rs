//! The fast-tier GEMM driver: FMA tiles, per-thread partial sums, per-shape
//! tile autotuning.
//!
//! Reached only when [`crate::mode::fast_active`] holds (fast mode requested
//! *and* the SIMD dispatch is on *and* the CPU has FMA). Three liberties the
//! strict tier forbids, all of which change low-order result bits and are
//! therefore covered by the differential tolerance suite instead of
//! fingerprints:
//!
//! 1. **FMA contraction** — the micro-tiles in [`crate::simd`] accumulate
//!    with `vfmadd` (one rounding per term instead of two), on AVX2 4×16
//!    tiles or AVX-512F 8×32 tiles.
//! 2. **Per-thread partial sums** — when the output is too short to give
//!    every thread a full row block, the reduction dimension is split
//!    instead: each thread produces a private `m×n` partial product over its
//!    `k`-range and the partials are summed in ascending range order. Thread
//!    counts finally *scale* on skinny outputs, at the price of a reduction
//!    tree whose error is bounded (and tested) rather than zero.
//! 3. **Per-shape kernel autotuning** — when a shape has more than one
//!    candidate, the first call for a `(m, k, n)` runs each candidate once
//!    back-to-back on the live operands, keeps the fastest, and caches the
//!    choice for the process lifetime (bounded map, no eviction). The
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

use crate::kernels::{
    gemm_sparse, num_threads, par_chunks, sparse_nonzeros, with_pool, PAR_MIN_FLOPS,
};

/// Fast-tier GEMM micro-tile shapes (output rows × packed panel width).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastTile {
    /// AVX2+FMA 4×16 — the hardware floor of the fast tier.
    Avx2Fma4x16,
    /// AVX-512F 8×32 — sixteen `zmm` accumulators.
    Avx512f8x32,
}

impl FastTile {
    fn mr(self) -> usize {
        match self {
            FastTile::Avx2Fma4x16 => 4,
            FastTile::Avx512f8x32 => 8,
        }
    }

    fn width(self) -> usize {
        match self {
            FastTile::Avx2Fma4x16 => 16,
            FastTile::Avx512f8x32 => 32,
        }
    }

    fn available(self) -> bool {
        match self {
            FastTile::Avx2Fma4x16 => crate::simd::fma_available(),
            FastTile::Avx512f8x32 => crate::simd::avx512_available(),
        }
    }
}

/// A kernel the autotuner can pick: an FMA tile, or the strict
/// zero-skipping kernel, offered only for a sparse left operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Candidate {
    Tile(FastTile),
    Sparse,
}

/// Scratch tile large enough for either micro-tile (8 rows × 32 columns).
const SCRATCH_LEN: usize = 8 * 32;

/// Fast products with fewer LHS rows than the smallest tile fall back to the
/// strict driver's axpy loop (which uses the FMA row update in fast mode).
const MIN_FAST_ROWS: usize = 4;

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
/// with more than one candidate — each candidate once, timed, caching the
/// fastest (the output keeps the *last* candidate's bits; all satisfy the
/// tolerance contract). `sparse` adds the zero-skipping kernel to the
/// candidates.
fn with_tuned_kernel(m: usize, k: usize, n: usize, sparse: bool, mut run: impl FnMut(Candidate)) {
    if let Some(t) = fast_tile_override() {
        if t.available() {
            run(Candidate::Tile(t));
            return;
        }
    }
    let candidates: Vec<Candidate> = [FastTile::Avx512f8x32, FastTile::Avx2Fma4x16]
        .into_iter()
        .filter(|t| t.available())
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

/// Fast `out = a · b` (`[m, k] × [k, n]`). Returns `false` when the fast
/// tier declines (caller runs the strict driver).
pub(crate) fn matmul_fast(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) -> bool {
    if !crate::mode::fast_active() || m < MIN_FAST_ROWS {
        return false;
    }
    let sparse = sparse_nonzeros(a, n).map(|nonzeros| (b, nonzeros));
    fast_gemm(a, m, k, n, out, sparse, |width, packed| {
        crate::kernels::pack_panels(b, k, n, width, true, packed);
    });
    true
}

/// Fast `out = a · bᵀ` for `b` stored `[n, d]`: the transpose fuses into
/// packing exactly as on the strict tier.
pub(crate) fn matmul_nt_fast(
    a: &[f32],
    b: &[f32],
    m: usize,
    d: usize,
    n: usize,
    out: &mut [f32],
) -> bool {
    if !crate::mode::fast_active() || m < MIN_FAST_ROWS {
        return false;
    }
    fast_gemm(a, m, d, n, out, None, |width, packed| {
        crate::kernels::pack_panels_t(b, d, n, width, true, packed);
    });
    true
}

/// Fast `out = aᵀ · b` for `a` stored `[d, m]`. Materializes `aᵀ` (one pass
/// over `a`, pooled buffer) and runs the standard fast driver — the
/// transpose is `O(d·m)` against the product's `O(d·m·n)`, and a contiguous
/// LHS is what the wide tiles want anyway.
pub(crate) fn matmul_tn_fast(
    a: &[f32],
    b: &[f32],
    d: usize,
    m: usize,
    n: usize,
    out: &mut [f32],
) -> bool {
    if !crate::mode::fast_active() || m < MIN_FAST_ROWS {
        return false;
    }
    let mut at = with_pool(|pool| pool.take_filled(d * m));
    crate::kernels::transpose_into(a, d, m, &mut at);
    let sparse = sparse_nonzeros(a, n).map(|nonzeros| (b, nonzeros));
    fast_gemm(&at, m, d, n, out, sparse, |width, packed| {
        crate::kernels::pack_panels(b, d, n, width, true, packed);
    });
    with_pool(|pool| pool.recycle(at));
    true
}

/// The shared fast driver: packs B at the tile's width, then partitions —
/// over output rows when every thread can own full row blocks, over the
/// reduction dimension (per-thread partial sums) when the output is too
/// short, serial below the parallel threshold. `sparse` holds the
/// row-major `[k, n]` right operand and the left operand's nonzero count
/// when the left operand qualifies for the zero-skipping kernel.
fn fast_gemm(
    a: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    sparse: Option<(&[f32], usize)>,
    pack: impl Fn(usize, &mut Vec<f32>),
) {
    with_tuned_kernel(m, k, n, sparse.is_some(), |candidate| {
        let tile = match (candidate, sparse) {
            (Candidate::Tile(tile), _) => tile,
            (Candidate::Sparse, Some((b, nonzeros))) => {
                gemm_sparse(a, b, k, n, nonzeros, true, out);
                return;
            }
            (Candidate::Sparse, None) => unreachable!("zero-skipping kernel without a sparse lhs"),
        };
        let (mr, width) = (tile.mr(), tile.width());
        let mut packed = with_pool(|pool| pool.take(k * n.next_multiple_of(width)));
        pack(width, &mut packed);
        let threads = if m * k * n < PAR_MIN_FLOPS {
            1
        } else {
            num_threads().clamp(1, m * k * n)
        };
        if threads <= 1 {
            gemm_fast(a, k, 0, 0, k, k, &packed, n, tile, out);
        } else if m >= threads * mr {
            let rows_per = m.div_ceil(threads);
            par_chunks(out, rows_per * n, threads, |gi, chunk| {
                gemm_fast(a, k, gi * rows_per, 0, k, k, &packed, n, tile, chunk);
            });
        } else {
            // k-split: each participant computes a private m×n partial
            // product over its k-range; the partials are then summed in
            // ascending range order. This is the one place a fast-tier
            // output element is touched by more than one accumulator.
            let splits = threads.min(k);
            let k_per = k.div_ceil(splits);
            let splits = k.div_ceil(k_per);
            let mut partials = with_pool(|pool| pool.take_filled(splits * m * n));
            par_chunks(&mut partials, m * n, splits, |gi, chunk| {
                let k_off = gi * k_per;
                let k_len = k_per.min(k - k_off);
                gemm_fast(a, k, 0, k_off, k_len, k, &packed, n, tile, chunk);
            });
            out.copy_from_slice(&partials[..m * n]);
            for s in 1..splits {
                let part = &partials[s * m * n..(s + 1) * m * n];
                if !crate::simd::axpy_row_fma(out, part, 1.0) {
                    for (o, &p) in out.iter_mut().zip(part) {
                        *o += p;
                    }
                }
            }
            with_pool(|pool| pool.recycle(partials));
        }
        with_pool(|pool| pool.recycle(packed));
    });
}

/// The packed fast GEMM over the output rows covered by `out` (row
/// `first_row` onward), restricted to reduction range
/// `k_off .. k_off + k_len` of a packing done for full depth `k_total`.
///
/// Full row blocks and full-width panels run the micro-tile straight into
/// `out`; short row blocks gather into a zero-padded LHS strip and narrow
/// trailing panels land in a scratch tile first (padded lanes multiply the
/// packed zeros and are never stored) — so the micro-tiles never see an
/// edge.
#[allow(clippy::too_many_arguments)]
fn gemm_fast(
    a: &[f32],
    a_stride: usize,
    first_row: usize,
    k_off: usize,
    k_len: usize,
    k_total: usize,
    packed: &[f32],
    n: usize,
    tile: FastTile,
    out: &mut [f32],
) {
    let (mr, width) = (tile.mr(), tile.width());
    let rows = out.len() / n;
    let mut strip: Vec<f32> = Vec::new();
    let mut r = 0;
    while r < rows {
        let h = mr.min(rows - r);
        let (abuf, a_base, stride) = if h == mr {
            (a, (first_row + r) * a_stride + k_off, a_stride)
        } else {
            if strip.is_empty() {
                strip = with_pool(|pool| pool.take_zeroed(mr * k_len));
            }
            for ir in 0..h {
                let src = &a[(first_row + r + ir) * a_stride + k_off..][..k_len];
                strip[ir * k_len..(ir + 1) * k_len].copy_from_slice(src);
            }
            for ir in h..mr {
                strip[ir * k_len..(ir + 1) * k_len].fill(0.0);
            }
            (strip.as_slice(), 0, k_len)
        };
        let mut j0 = 0;
        let mut panel_off = k_off * width;
        while j0 < n {
            let w = width.min(n - j0);
            let panel = &packed[panel_off..panel_off + k_len * width];
            if h == mr && w == width {
                run_tile(tile, abuf, a_base, stride, k_len, panel, out, r, n, j0);
            } else {
                let mut scratch = [0.0f32; SCRATCH_LEN];
                run_tile(
                    tile,
                    abuf,
                    a_base,
                    stride,
                    k_len,
                    panel,
                    &mut scratch[..mr * width],
                    0,
                    width,
                    0,
                );
                for ir in 0..h {
                    out[(r + ir) * n + j0..(r + ir) * n + j0 + w]
                        .copy_from_slice(&scratch[ir * width..ir * width + w]);
                }
            }
            panel_off += k_total * width;
            j0 += w;
        }
        r += h;
    }
    if !strip.is_empty() {
        with_pool(|pool| pool.recycle(strip));
    }
}

#[allow(clippy::too_many_arguments)]
#[inline]
fn run_tile(
    tile: FastTile,
    a: &[f32],
    a_base: usize,
    a_stride: usize,
    k_len: usize,
    panel: &[f32],
    out: &mut [f32],
    r: usize,
    n: usize,
    j0: usize,
) {
    match tile {
        FastTile::Avx2Fma4x16 => {
            crate::simd::tile_4x16_fma(a, a_base, a_stride, k_len, panel, out, r, n, j0)
        }
        FastTile::Avx512f8x32 => {
            crate::simd::tile_8x32_avx512(a, a_base, a_stride, k_len, panel, out, r, n, j0)
        }
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
        let mut ran = Vec::new();
        with_tuned_kernel(m, k, n, false, |c| ran.push(c));
        assert!(!ran.contains(&Candidate::Sparse), "dense operand: {ran:?}");
        ran.clear();
        with_tuned_kernel(m, k, n, true, |c| ran.push(c));
        assert!(ran.contains(&Candidate::Sparse), "sparse operand: {ran:?}");
        assert!(ran.len() >= 2, "a tile and the sparse kernel are timed");
        ran.clear();
        with_tuned_kernel(m, k, n, true, |c| ran.push(c));
        assert_eq!(ran.len(), 1, "the sparse class's winner is cached");
    }

    #[test]
    fn tile_geometry() {
        assert_eq!(
            (FastTile::Avx2Fma4x16.mr(), FastTile::Avx2Fma4x16.width()),
            (4, 16)
        );
        assert_eq!(
            (FastTile::Avx512f8x32.mr(), FastTile::Avx512f8x32.width()),
            (8, 32)
        );
    }
}
