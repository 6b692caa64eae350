//! Runtime-dispatched SIMD micro-kernels (AVX2 / AVX-512 on x86-64).
//!
//! **One body per kernel family.** The GEMM micro-tile, the zero-skipping
//! GEMM, the axpy row update and Adam are each written once, as a macro
//! over `madd(acc, x, y)`, and stamped once per instruction set ×
//! contraction: the strict `madd` is `add(acc, mul(x, y))`, the fused one
//! `fmadd(x, y, acc)`. Every stamp carries its own `#[target_feature]`, so
//! none relies on being inlined, and each family has one safe wrapper
//! ([`tile`], [`sparse_gather`] and [`sparse_scatter`], [`axpy_row`],
//! [`adam_rows`]) that checks with `assert!`, in release builds too, every
//! bound its bodies read and write through.
//!
//! **Strict tier.** Vectorization widens across **output columns** only. Each
//! output element still owns a single accumulator that consumes its
//! `a[i][p]·b[p][j]` terms in ascending `p` — lane `j` of one
//! `_mm256_add_ps(acc, _mm256_mul_ps(a, b))` performs exactly the scalar
//! kernel's `acc + a*b`: the multiply rounds, then the add rounds, per IEEE
//! 754 single precision. FMA is deliberately **never** emitted on this tier
//! (the `target_feature` enables only `avx2`, and the intrinsics used are
//! plain mul/add): contracting the two roundings into one would change bits
//! and break the strict determinism contract. The strict tiles are the AVX2
//! 4×16 and, on CPUs with AVX-512F, an 8×32 stamp of the same body with
//! `_mm512_add_ps(acc, _mm512_mul_ps(x, y))`: one accumulator per element
//! either way, so both store the portable tile's bits. A tile reads its
//! left operand through two strides, one per output row and one per
//! reduction step, so it runs on a row-major operand and on the transpose
//! of one alike. The zero-skipping GEMM behind the sparse dispatch in
//! [`crate::kernels`] has the same two strict stamps, AVX2 and AVX-512F
//! ([`SparseStamp`]), and two forms: the gather form keeps an output row's
//! accumulators in registers, and the scatter form, for the transpose of
//! a stored operand, keeps a row of `b` in registers and adds it into the
//! output rows its nonzeros name. Either way each output element starts at
//! `+0.0` and adds only the nonzero terms in ascending `p`, so both store
//! the packed tiles' bits.
//!
//! **Fast tier** ([`crate::mode`]). The `fma` stamps and the fused AVX-512
//! 8×32 tile *do* contract with `vfmadd`, which changes low-order bits — they
//! are reachable only when `LIGHTNAS_KERNEL_MODE=fast`, where the one
//! kernel-choice list in [`crate::kernels`] runs the fused stamp of the tile
//! the strict tier would run, and are verified against the strict oracle by
//! the differential tolerance suite instead of fingerprints.
//!
//! Because the compile baseline is SSE2 (no `-C target-cpu` anywhere in the
//! workspace), AVX2/FMA/AVX-512F/F16C availability is detected at runtime
//! and cached in atomics; the portable scalar kernels in [`crate::kernels`]
//! remain the fallback and the oracle. `LIGHTNAS_KERNEL_SIMD=off` (or `0` /
//! `portable`) forces the fallback — in *both* modes — and
//! [`set_simd_enabled`] flips the path in-process so the byte-identity suite
//! can diff the two implementations directly.

use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};

/// Environment variable: set to `0`, `off` or `portable` to force the
/// portable scalar kernels even when AVX2 is available.
pub const SIMD_ENV: &str = "LIGHTNAS_KERNEL_SIMD";

const UNKNOWN: u8 = 0;
const ENABLED: u8 = 1;
const DISABLED: u8 = 2;

/// Cached dispatch decision; `UNKNOWN` until the first kernel call.
static SIMD_STATE: AtomicU8 = AtomicU8::new(UNKNOWN);

/// Whether the CPU has AVX2, the floor of every SIMD kernel.
pub(crate) fn detect() -> bool {
    cached_probe(&AVX2_STATE, || {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

fn env_forces_portable() -> bool {
    std::env::var(SIMD_ENV).is_ok_and(|v| {
        matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "0" | "off" | "portable"
        )
    })
}

/// Whether the SIMD micro-kernels are active. The first call resolves the
/// env knob and CPU feature detection; later calls are one relaxed load.
pub fn simd_enabled() -> bool {
    match SIMD_STATE.load(Ordering::Relaxed) {
        ENABLED => true,
        DISABLED => false,
        _ => {
            let on = !env_forces_portable() && detect();
            SIMD_STATE.store(if on { ENABLED } else { DISABLED }, Ordering::Relaxed);
            on
        }
    }
}

/// Forces the SIMD kernels on or off. `true` is a no-op on CPUs without
/// AVX2. Either setting computes identical bits — the knob exists so tests
/// and benchmarks can compare the two paths, not to change results.
pub fn set_simd_enabled(on: bool) {
    let state = if on && detect() { ENABLED } else { DISABLED };
    SIMD_STATE.store(state, Ordering::Relaxed);
}

/// Cached CPU-feature probes (the tile wrapper checks one per tile).
/// Unlike [`simd_enabled`] these are pure hardware facts — no env knob — so
/// they never need a setter; `LIGHTNAS_KERNEL_SIMD=off` gates the
/// *dispatch*, not these.
static AVX2_STATE: AtomicU8 = AtomicU8::new(UNKNOWN);
static FMA_STATE: AtomicU8 = AtomicU8::new(UNKNOWN);
static AVX512_STATE: AtomicU8 = AtomicU8::new(UNKNOWN);
static F16C_STATE: AtomicU8 = AtomicU8::new(UNKNOWN);

#[inline]
fn cached_probe(state: &AtomicU8, probe: fn() -> bool) -> bool {
    match state.load(Ordering::Relaxed) {
        ENABLED => true,
        DISABLED => false,
        _ => {
            let on = probe();
            state.store(if on { ENABLED } else { DISABLED }, Ordering::Relaxed);
            on
        }
    }
}

/// Whether the CPU can run the AVX2+FMA fast kernels. Hardware floor for
/// the fast tier: without it, fast mode degrades to the strict kernels.
pub(crate) fn fma_available() -> bool {
    cached_probe(&FMA_STATE, || {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Whether the CPU can run the AVX-512F 8×32 GEMM tile.
pub(crate) fn avx512_available() -> bool {
    cached_probe(&AVX512_STATE, || {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx512f")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Whether the CPU has hardware f16 ⇄ f32 conversion (`vcvtph2ps` /
/// `vcvtps2ph`). Bit-identical to the scalar conversions in [`crate::f16`],
/// so this is a throughput knob only.
pub(crate) fn f16c_available() -> bool {
    cached_probe(&F16C_STATE, || {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("f16c")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// A GEMM micro-tile: output rows × packed panel width, instruction set and
/// contraction. The tiling loop in [`crate::kernels`] runs every tile; each
/// SIMD tile is one stamp of the body in [`gemm_tile!`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tile {
    /// Strict portable 4×8, run by the caller: the only tile off x86-64.
    Portable,
    /// Strict AVX2 4×16: multiply, then add. Two `f32x8` registers per row
    /// give eight independent accumulator chains, which hide the vector-add
    /// latency one chain per row cannot; the width never touches an
    /// element's accumulation order, so it stores the 4×8 tile's bits.
    Avx2,
    /// Strict AVX-512F 8×32: multiply, then add, sixteen `zmm`
    /// accumulators, two per output row. Stores the 4×8 tile's bits.
    Avx512Strict,
    /// Fast AVX2+FMA 4×16.
    Fma,
    /// Fast AVX-512F 8×32 with FMA.
    Avx512,
}

impl Tile {
    /// Output rows per tile.
    pub(crate) fn mr(self) -> usize {
        if matches!(self, Tile::Avx512Strict | Tile::Avx512) {
            8
        } else {
            4
        }
    }

    /// Packed panel width: output columns per tile.
    pub(crate) fn width(self) -> usize {
        match self {
            Tile::Portable => 8,
            Tile::Avx2 | Tile::Fma => 16,
            Tile::Avx512Strict | Tile::Avx512 => 32,
        }
    }

    /// Whether the tile contracts each multiply and add into one rounding,
    /// which only the fast tier allows.
    pub(crate) fn fused(self) -> bool {
        matches!(self, Tile::Fma | Tile::Avx512)
    }

    /// Whether this CPU can run the tile.
    #[inline]
    pub(crate) fn available(self) -> bool {
        match self {
            Tile::Portable => true,
            Tile::Avx2 => detect(),
            Tile::Fma => fma_available(),
            Tile::Avx512Strict | Tile::Avx512 => avx512_available(),
        }
    }
}

/// The signature every [`gemm_tile!`] stamp shares.
#[cfg(target_arch = "x86_64")]
type TileBody =
    unsafe fn(&[f32], usize, usize, usize, usize, &[f32], &mut [f32], usize, usize, usize);

/// One `tile.mr() × tile.width()` GEMM micro-tile over a packed B panel of
/// `k_len` rows: the LHS entry of tile row `i` and reduction step `p` is
/// `a[a_base + i·a_stride + p·a_depth]`, and the output tile starts at row
/// `r`, column `j0` of a row-major output with row stride `n`. Returns
/// `false` for [`Tile::Portable`], which the caller runs itself.
///
/// # Panics
///
/// Panics if the panel, the LHS entries or the output tile reach past their
/// slices, or if the CPU lacks the tile's instruction set.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn tile(
    tile: Tile,
    a: &[f32],
    a_base: usize,
    a_stride: usize,
    a_depth: usize,
    k_len: usize,
    panel: &[f32],
    out: &mut [f32],
    r: usize,
    n: usize,
    j0: usize,
) -> bool {
    let (mr, width) = (tile.mr(), tile.width());
    assert!(panel.len() >= k_len * width, "panel must hold k rows");
    assert!(
        a.len() > a_base + (mr - 1) * a_stride + k_len.saturating_sub(1) * a_depth,
        "lhs rows out of bounds"
    );
    assert!(
        out.len() >= (r + mr - 1) * n + j0 + width,
        "output tile out of bounds"
    );
    assert!(
        tile.available(),
        "{tile:?} tile without its instruction set"
    );
    #[cfg(target_arch = "x86_64")]
    {
        let body: TileBody = match tile {
            Tile::Portable => return false,
            Tile::Avx2 => avx2::tile,
            Tile::Avx512Strict => avx512_strict::tile,
            Tile::Fma => fma::tile,
            Tile::Avx512 => avx512::tile,
        };
        // SAFETY: the asserts above establish the tile's instruction set and
        // cover every panel, LHS and output access the stamp makes.
        unsafe { body(a, a_base, a_stride, a_depth, k_len, panel, out, r, n, j0) };
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (a, a_base, a_stride, a_depth, k_len, panel, out, r, n, j0);
        false
    }
}

/// Adam update over the 8-lane-aligned prefix of the slices: AVX2 lanes
/// with every multiply and add rounded apart, or with `fused` set (fast
/// tier only) AVX2+FMA lanes that contract them. Returns `false` when the
/// SIMD path is off (caller runs the scalar loop over the whole range); on
/// `true` the caller handles the `len % 8` tail.
///
/// # Panics
///
/// Panics if the four slices differ in length.
pub(crate) fn adam_rows(
    use_simd: bool,
    fused: bool,
    w: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    h: &crate::kernels::AdamUpdate,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        let len = w.len();
        assert!(
            g.len() == len && m.len() == len && v.len() == len,
            "adam slices must match"
        );
        type AdamBody =
            unsafe fn(&mut [f32], &[f32], &mut [f32], &mut [f32], &crate::kernels::AdamUpdate);
        let body: AdamBody = if fused && fma_available() {
            fma::adam_rows
        } else {
            avx2::adam_rows
        };
        // SAFETY: AVX2 availability is established by `use_simd` (set only
        // after `detect()`), FMA by the probe above; the slice lengths were
        // asserted equal.
        unsafe { body(w, g, m, v, h) };
        return true;
    }
    let _ = (use_simd, fused, w, g, m, v, h);
    false
}

/// AVX2 blocked transpose of row-major `src` (`[m, n]`) into `dst`
/// (`[n, m]`): 8×8 register micro-transposes over the full blocks, scalar
/// edges. A transpose is a pure permutation — no arithmetic, so the SIMD
/// shuffle network produces exactly the scalar loop's bits and both tiers
/// may use it. Returns `false` when the SIMD path is off.
///
/// # Panics
///
/// Panics if `use_simd` is set and `src` or `dst` does not hold exactly
/// `m * n` elements.
pub(crate) fn transpose(use_simd: bool, src: &[f32], m: usize, n: usize, dst: &mut [f32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        assert_eq!(src.len(), m * n, "transpose src length");
        assert_eq!(dst.len(), m * n, "transpose dst length");
        let (m8, n8) = (m - m % 8, n - n % 8);
        for i0 in (0..m8).step_by(8) {
            for j0 in (0..n8).step_by(8) {
                // SAFETY: AVX availability is established by `use_simd`;
                // i0+8 ≤ m and j0+8 ≤ n keep every strided 8-lane load and
                // store inside the asserted `m * n` buffers.
                unsafe {
                    avx2::transpose_8x8(
                        src.as_ptr().add(i0 * n + j0),
                        n,
                        dst.as_mut_ptr().add(j0 * m + i0),
                        m,
                    );
                }
            }
            for j in n8..n {
                for i in i0..i0 + 8 {
                    dst[j * m + i] = src[i * n + j];
                }
            }
        }
        for i in m8..m {
            for j in 0..n {
                dst[j * m + i] = src[i * n + j];
            }
        }
        return true;
    }
    let _ = (use_simd, src, m, n, dst);
    false
}

/// `o[j] += av * b[j]` row update (the axpy GEMM inner loop): AVX2 lanes
/// that round the multiply and the add apart, or with `fused` set (fast
/// tier only) AVX2+FMA lanes that contract them. Returns `false` when the
/// SIMD path is off; the caller runs the scalar loop.
///
/// # Panics
///
/// Panics if the rows differ in length.
#[inline]
pub(crate) fn axpy_row(use_simd: bool, fused: bool, o: &mut [f32], b: &[f32], av: f32) -> bool {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        assert_eq!(o.len(), b.len(), "axpy rows must match");
        let body: unsafe fn(&mut [f32], &[f32], f32) = if fused && fma_available() {
            fma::axpy_row
        } else {
            avx2::axpy_row
        };
        // SAFETY: AVX2 availability is established by `use_simd` (set only
        // after `detect()`), FMA by the probe above; the lengths are equal,
        // so every lane load and store is in bounds.
        unsafe { body(o, b, av) };
        return true;
    }
    let _ = (use_simd, fused, o, b, av);
    false
}

/// A stamp of the strict zero-skipping GEMM body ([`sparse_gemm!`]): its
/// instruction set, and so the widest column block one scan of a row of
/// `a` serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SparseStamp {
    /// AVX2: column blocks of up to 64 in eight `ymm` registers.
    Avx2,
    /// AVX-512F: column blocks of up to 128 in eight `zmm` registers.
    Avx512,
}

impl SparseStamp {
    /// The widest stamp this CPU runs, or `None` with SIMD off, where the
    /// caller runs the portable axpy loop.
    pub(crate) fn widest(use_simd: bool) -> Option<Self> {
        match (use_simd, avx512_available()) {
            (false, _) => None,
            (true, true) => Some(Self::Avx512),
            (true, false) => Some(Self::Avx2),
        }
    }

    /// Whether this CPU can run the stamp.
    pub(crate) fn available(self) -> bool {
        match self {
            Self::Avx2 => detect(),
            Self::Avx512 => avx512_available(),
        }
    }
}

/// The strict zero-skipping GEMM `out = a · b`, gather form, for `a`
/// row-major `[rows, k]`, `b` row-major `[k, n]` and `out` row-major
/// `[rows, n]`: each output row's accumulators sit in registers, start at
/// `+0.0` and add `a[i][p]·b[p][j]`, multiply and add rounded apart (never
/// FMA), for each nonzero `a[i][p]` in ascending `p`. That is the packed
/// kernel's chain minus its `±0.0` terms, which cannot move an accumulator
/// that started at `+0.0` while `b` is finite. A row's nonzero entries are
/// found 64 at a time, one vector compare per register, and walked as a
/// bitmask. The rows of `b` are read in blocks of [`SPARSE_BLOCK_FLOATS`],
/// one pass over `a` each, and an output row's accumulators carry from one
/// block to the next through `out`, which moves no bit.
///
/// # Panics
///
/// Panics if `k` or `n` is 0, if the slice lengths disagree with `k` and
/// `n`, or if the CPU lacks the stamp's instruction set.
pub(crate) fn sparse_gather(
    stamp: SparseStamp,
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    assert!(k > 0 && n > 0, "sparse gather needs k, n > 0");
    assert_eq!(b.len(), k * n, "sparse gather rhs length");
    assert!(
        a.len().is_multiple_of(k) && out.len().is_multiple_of(n),
        "sparse gather lengths must be whole rows"
    );
    assert_eq!(a.len() / k, out.len() / n, "sparse gather row count");
    assert!(
        stamp.available(),
        "{stamp:?} sparse stamp without its instruction set"
    );
    #[cfg(target_arch = "x86_64")]
    {
        let body: unsafe fn(&[f32], usize, &[f32], usize, &mut [f32]) = match stamp {
            SparseStamp::Avx2 => avx2::sparse_gather,
            SparseStamp::Avx512 => avx512_strict::sparse_gather,
        };
        // SAFETY: the asserts above establish the stamp's instruction set
        // and every length the body reads or writes through.
        unsafe { body(a, k, b, n, out) };
    }
}

/// Output rows `cols` of the strict zero-skipping GEMM `out = aᵀ · b`,
/// scatter form, for `a` stored row-major `[d, m]`, `b` row-major `[d, n]`
/// and `out` row-major `[cols.len(), n]`: the output starts at `+0.0`,
/// and for each row `r` of `a` in ascending order, a row of `b` held in
/// registers is added, times `a[r][p]`, into output row `p` for each
/// nonzero `a[r][p]` with `p` in `cols`. So output row `p` adds
/// `a[r][p]·b[r][j]`, multiply and add rounded apart, over the nonzero
/// `a[r][p]` in ascending `r` — the gather form's chain on `aᵀ`, with no
/// transpose made. The output rows are filled in blocks of
/// [`SPARSE_BLOCK_FLOATS`], one pass over `a` each.
///
/// # Panics
///
/// Panics if `m` or `n` is 0, if the slice lengths disagree with `m`, `n`
/// and `cols`, if `cols` reaches past `m`, or if the CPU lacks the stamp's
/// instruction set.
pub(crate) fn sparse_scatter(
    stamp: SparseStamp,
    a: &[f32],
    m: usize,
    cols: Range<usize>,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    assert!(m > 0 && n > 0, "sparse scatter needs m, n > 0");
    assert!(
        a.len().is_multiple_of(m),
        "sparse scatter lhs must be whole rows"
    );
    assert_eq!(b.len(), a.len() / m * n, "sparse scatter rhs length");
    assert!(
        cols.start <= cols.end && cols.end <= m,
        "sparse scatter columns out of range"
    );
    assert_eq!(out.len(), cols.len() * n, "sparse scatter output length");
    assert!(
        stamp.available(),
        "{stamp:?} sparse stamp without its instruction set"
    );
    #[cfg(target_arch = "x86_64")]
    {
        type ScatterBody = unsafe fn(&[f32], usize, Range<usize>, &[f32], usize, &mut [f32]);
        let body: ScatterBody = match stamp {
            SparseStamp::Avx2 => avx2::sparse_scatter,
            SparseStamp::Avx512 => avx512_strict::sparse_scatter,
        };
        // SAFETY: the asserts above establish the stamp's instruction set
        // and every length and column the body reads or writes through.
        unsafe { body(a, m, cols, b, n, out) };
    }
}

/// Stamps the GEMM micro-tile body, `tile`, for one instruction set
/// (`$feature`) and contraction (`$madd`): `$mr` output rows × two
/// `$lanes`-wide registers per row, one accumulator per output element fed
/// `madd(acc, a[i][p], b[p][j])` in ascending `p`. With the strict `madd`
/// (multiply, then add) every live lane runs the scalar reference's chain.
macro_rules! gemm_tile {
    ($feature:literal, $mr:literal, $lanes:literal, $zero:ident, $load:ident, $splat:ident, $store:ident) => {
        /// The GEMM micro-tile (see [`super::tile`]) for this module's
        /// instruction set and contraction.
        ///
        /// # Safety
        ///
        /// The instruction set named in `target_feature` must be available;
        /// `panel` must hold `k_len` rows of two registers; `a` must cover
        /// `a_base + row·a_stride + p·a_depth` for every tile row and
        /// `p < k_len`; `out` must cover the tile at `(r, j0)` with row
        /// stride `n`.
        #[allow(clippy::too_many_arguments)]
        #[target_feature(enable = $feature)]
        pub unsafe fn tile(
            a: &[f32],
            a_base: usize,
            a_stride: usize,
            a_depth: usize,
            k_len: usize,
            panel: &[f32],
            out: &mut [f32],
            r: usize,
            n: usize,
            j0: usize,
        ) {
            let mut acc = [[$zero(); 2]; $mr];
            let (ap, pp) = (a.as_ptr(), panel.as_ptr());
            for p in 0..k_len {
                let lo = $load(pp.add(2 * p * $lanes));
                let hi = $load(pp.add((2 * p + 1) * $lanes));
                for (row, acc) in acc.iter_mut().enumerate() {
                    let x = $splat(*ap.add(a_base + row * a_stride + p * a_depth));
                    acc[0] = madd(acc[0], x, lo);
                    acc[1] = madd(acc[1], x, hi);
                }
            }
            let op = out.as_mut_ptr();
            for (row, acc) in acc.iter().enumerate() {
                $store(op.add((r + row) * n + j0), acc[0]);
                $store(op.add((r + row) * n + j0 + $lanes), acc[1]);
            }
        }
    };
}

/// Entries of the matrix the zero-skipping GEMM indexes by `a`'s nonzeros —
/// `b` in the gather form, the output in the scatter form — per pass over
/// `a` and column block: 32 KiB, two thirds of the 48 KiB L1 data cache of
/// the AVX-512 host the repo is measured on, so the block stays cached
/// between the rows of `a` that touch it. 16 KiB blocks measured within
/// the host's noise of it; a 48 KiB block, the whole L1, ran slower.
const SPARSE_BLOCK_FLOATS: usize = 8192;

/// Stamps the strict zero-skipping GEMM body, `sparse_gather` and
/// `sparse_scatter`, for one instruction set (`$feature`) with `$lanes`-wide
/// registers. Both forms walk the output's column blocks of 8, 4, 2 and 1
/// registers, then the last `n % $lanes` columns in one register whose off
/// lanes load zeros and are never stored, each block over every row of `a`;
/// per row the nonzero entries are found with one compare per register and
/// walked as a bitmask. The gather form holds the block of an output row
/// and adds rows of `b` into it; the scatter form holds the block of a row
/// of `b` and adds it into output rows. Each `madd(acc, a, b)` is the strict
/// multiply-then-add. The module supplies `madd`, `tail_mask`, `load_lanes`,
/// `store_lanes` and `nonzero_lanes`.
macro_rules! sparse_gemm {
    ($feature:literal, $lanes:literal, $mask:ty, $zero:ident, $splat:ident) => {
        /// The gather form (see [`super::sparse_gather`]) at this module's
        /// width.
        ///
        /// # Safety
        ///
        /// The instruction set named in `target_feature` must be available;
        /// `a` must hold whole rows of `k > 0`, `b` must hold `k` rows of
        /// `n > 0`, and `out` as many rows of `n` as `a` has of `k`.
        #[target_feature(enable = $feature)]
        pub unsafe fn sparse_gather(a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
            // Rows of `b` in blocks whose widest column block stays in L1
            // while every row of `a` reads it; an output row's accumulators
            // carry from one block to the next through `out`, which moves
            // no bit.
            let per_block = super::SPARSE_BLOCK_FLOATS / n.min(8 * $lanes);
            for p0 in (0..k).step_by(per_block) {
                let rows = p0..k.min(p0 + per_block);
                columns::<false>(
                    a,
                    k,
                    rows,
                    b.as_ptr().add(p0 * n),
                    out.as_mut_ptr(),
                    n,
                    p0 > 0,
                );
            }
        }

        /// The scatter form (see [`super::sparse_scatter`]) at this
        /// module's width.
        ///
        /// # Safety
        ///
        /// The instruction set named in `target_feature` must be available;
        /// `a` must hold whole rows of `m > 0` and `cols` must lie in `0..m`;
        /// `b` must hold as many rows of `n > 0` as `a` has of `m`, and `out`
        /// `cols.len()` rows of `n`.
        #[target_feature(enable = $feature)]
        pub unsafe fn sparse_scatter(
            a: &[f32],
            m: usize,
            cols: std::ops::Range<usize>,
            b: &[f32],
            n: usize,
            out: &mut [f32],
        ) {
            // Output rows in blocks whose widest column block stays in L1
            // while every row of `a` adds into it.
            let per_block = super::SPARSE_BLOCK_FLOATS / n.min(8 * $lanes);
            for (block, rows) in out.chunks_mut(per_block * n).enumerate() {
                rows.fill(0.0);
                let first = cols.start + block * per_block;
                let block_cols = first..first + rows.len() / n;
                columns::<true>(a, m, block_cols, b.as_ptr(), rows.as_mut_ptr(), n, false);
            }
        }

        /// Walks an `n`-wide output's column blocks, each over every row of
        /// `a` (entries `cols` of each `stride`-long row); the gather form
        /// starts from the accumulators in `out` when `resume` is set.
        ///
        /// # Safety
        ///
        /// As the form calling it.
        #[inline]
        #[target_feature(enable = $feature)]
        unsafe fn columns<const SCATTER: bool>(
            a: &[f32],
            stride: usize,
            cols: std::ops::Range<usize>,
            b: *const f32,
            out: *mut f32,
            n: usize,
            resume: bool,
        ) {
            let last = tail_mask(n % $lanes);
            let mut j0 = 0;
            while j0 + 8 * $lanes <= n {
                block::<8, SCATTER>(a, stride, &cols, b, out, n, j0, resume, None);
                j0 += 8 * $lanes;
            }
            if j0 + 4 * $lanes <= n {
                block::<4, SCATTER>(a, stride, &cols, b, out, n, j0, resume, None);
                j0 += 4 * $lanes;
            }
            if j0 + 2 * $lanes <= n {
                block::<2, SCATTER>(a, stride, &cols, b, out, n, j0, resume, None);
                j0 += 2 * $lanes;
            }
            if j0 + $lanes <= n {
                block::<1, SCATTER>(a, stride, &cols, b, out, n, j0, resume, None);
                j0 += $lanes;
            }
            if j0 < n {
                block::<1, SCATTER>(a, stride, &cols, b, out, n, j0, resume, Some(last));
            }
        }

        /// `V` registers of one column block from column `j0`, the last of
        /// them limited to the lanes of `last` when given, over every row of
        /// `a`.
        ///
        /// # Safety
        ///
        /// As [`columns`], with `j0 + $lanes·(V − 1)` plus the lanes of the
        /// last register at most `n`.
        #[allow(clippy::too_many_arguments)]
        #[inline]
        #[target_feature(enable = $feature)]
        unsafe fn block<const V: usize, const SCATTER: bool>(
            a: &[f32],
            stride: usize,
            cols: &std::ops::Range<usize>,
            b: *const f32,
            out: *mut f32,
            n: usize,
            j0: usize,
            resume: bool,
            last: Option<$mask>,
        ) {
            // The row of `b` (scatter) or the carried accumulators (a
            // resumed gather) load at a row's first nonzero, so a row with
            // none in this block loads and stores nothing, unless it is a
            // gather row's first block, which stores `+0.0`.
            let fixed = if SCATTER { b } else { out.cast_const() };
            for (r, arow) in a.chunks_exact(stride).enumerate() {
                let arow = &arow[cols.clone()];
                let mut regs = [$zero(); V];
                let mut live = !SCATTER && !resume;
                for (w, stretch) in arow.chunks(64).enumerate() {
                    let mut bits = nonzero_bits(stretch);
                    if bits != 0 && !live {
                        for (v, reg) in regs.iter_mut().enumerate() {
                            let lanes = if v + 1 == V { last } else { None };
                            *reg = load_lanes(fixed.add(r * n + j0 + v * $lanes), lanes);
                        }
                        live = true;
                    }
                    while bits != 0 {
                        let p = 64 * w + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let x = $splat(arow[p]);
                        for (v, reg) in regs.iter_mut().enumerate() {
                            let lanes = if v + 1 == V { last } else { None };
                            if SCATTER {
                                let o = out.add(p * n + j0 + v * $lanes);
                                store_lanes(o, madd(load_lanes(o, lanes), x, *reg), lanes);
                            } else {
                                let row = b.add(p * n + j0 + v * $lanes);
                                *reg = madd(*reg, x, load_lanes(row, lanes));
                            }
                        }
                    }
                }
                if !SCATTER && live {
                    for (v, reg) in regs.iter().enumerate() {
                        let lanes = if v + 1 == V { last } else { None };
                        store_lanes(out.add(r * n + j0 + v * $lanes), *reg, lanes);
                    }
                }
            }
        }

        /// Bit `t` set for each nonzero `stretch[t]` (`NaN` included), for a
        /// stretch of at most 64 entries: one compare per register.
        #[inline]
        #[target_feature(enable = $feature)]
        fn nonzero_bits(stretch: &[f32]) -> u64 {
            debug_assert!(stretch.len() <= 64, "a stretch spans one u64");
            let mut bits = 0u64;
            let mut chunks = stretch.chunks_exact($lanes);
            for (c, chunk) in chunks.by_ref().enumerate() {
                // SAFETY: `chunk` holds exactly one register's entries.
                bits |= unsafe { nonzero_lanes(chunk.as_ptr()) } << ($lanes * c);
            }
            let base = stretch.len() - chunks.remainder().len();
            for (t, &v) in chunks.remainder().iter().enumerate() {
                bits |= u64::from(v != 0.0) << (base + t);
            }
            bits
        }
    };
}

/// Stamps `axpy_row`, `o[j] = madd(o[j], av, b[j])`, for one contraction
/// on AVX2 lanes: eight lanes at a time, then a scalar tail rounded the
/// same way (`$madd1`).
macro_rules! axpy_row {
    ($feature:literal, $madd1:expr) => {
        /// The axpy row update (see [`super::axpy_row`]) for this module's
        /// contraction.
        ///
        /// # Safety
        ///
        /// The instruction set named in `target_feature` must be available
        /// and `o.len() == b.len()`.
        #[target_feature(enable = $feature)]
        pub unsafe fn axpy_row(o: &mut [f32], b: &[f32], av: f32) {
            let madd1: fn(f32, f32, f32) -> f32 = $madd1;
            let n = o.len();
            let va = _mm256_set1_ps(av);
            let (op, bp) = (o.as_mut_ptr(), b.as_ptr());
            let mut j = 0;
            while j + 8 <= n {
                let cur = _mm256_loadu_ps(op.add(j));
                _mm256_storeu_ps(op.add(j), madd(cur, va, _mm256_loadu_ps(bp.add(j))));
                j += 8;
            }
            while j < n {
                *op.add(j) = madd1(*op.add(j), av, *bp.add(j));
                j += 1;
            }
        }
    };
}

/// Stamps `adam_rows` for one contraction on AVX2 lanes. Every `madd` of
/// the strict stamp is the scalar update's multiply-then-add (addition
/// commutes, so adding the decayed moment second moves no bit); the vector
/// `sqrt` and `div` are correctly rounded per lane like the scalar ones, so
/// that stamp stores the scalar loop's bits.
macro_rules! adam_rows {
    ($feature:literal) => {
        /// Adam over the 8-aligned prefix (see [`super::adam_rows`]) for
        /// this module's contraction; the caller finishes the tail.
        ///
        /// # Safety
        ///
        /// The instruction set named in `target_feature` must be available
        /// and all four slices must share one length.
        #[target_feature(enable = $feature)]
        pub unsafe fn adam_rows(
            w: &mut [f32],
            g: &[f32],
            m: &mut [f32],
            v: &mut [f32],
            h: &crate::kernels::AdamUpdate,
        ) {
            let (vb1, vb2) = (_mm256_set1_ps(h.beta1), _mm256_set1_ps(h.beta2));
            let (vc1, vc2) = (_mm256_set1_ps(1.0 - h.beta1), _mm256_set1_ps(1.0 - h.beta2));
            let (vs1, vs2) = (_mm256_set1_ps(h.s1), _mm256_set1_ps(h.s2));
            let veps = _mm256_set1_ps(h.eps);
            let vnlr = _mm256_set1_ps(-h.lr);
            let vwd = _mm256_set1_ps(h.weight_decay);
            let wd = h.weight_decay != 0.0;
            let (wp, gp) = (w.as_mut_ptr(), g.as_ptr());
            let (mp, vp) = (m.as_mut_ptr(), v.as_mut_ptr());
            let mut i = 0;
            while i + 8 <= w.len() {
                let wv = _mm256_loadu_ps(wp.add(i));
                let gv = _mm256_loadu_ps(gp.add(i));
                let gd = if wd { madd(gv, wv, vwd) } else { gv };
                let mv = madd(_mm256_mul_ps(gd, vc1), _mm256_loadu_ps(mp.add(i)), vb1);
                let gd2 = _mm256_mul_ps(_mm256_mul_ps(gd, gd), vc2);
                let vv = madd(gd2, _mm256_loadu_ps(vp.add(i)), vb2);
                _mm256_storeu_ps(mp.add(i), mv);
                _mm256_storeu_ps(vp.add(i), vv);
                let m_hat = _mm256_mul_ps(mv, vs1);
                let v_hat = _mm256_mul_ps(vv, vs2);
                let denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), veps);
                let step = _mm256_div_ps(m_hat, denom);
                _mm256_storeu_ps(wp.add(i), madd(wv, step, vnlr));
                i += 8;
            }
        }
    };
}

/// Fast-tier stamps: every `madd` contracts into one `vfmadd` rounding,
/// which changes low-order bits against the strict tier.
#[cfg(target_arch = "x86_64")]
mod fma {
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_div_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_mul_ps,
        _mm256_set1_ps, _mm256_setzero_ps, _mm256_sqrt_ps, _mm256_storeu_ps,
    };

    gemm_tile!(
        "avx2,fma",
        4,
        8,
        _mm256_setzero_ps,
        _mm256_loadu_ps,
        _mm256_set1_ps,
        _mm256_storeu_ps
    );
    axpy_row!("avx2,fma", |acc, x, y| x.mul_add(y, acc));
    adam_rows!("avx2,fma");

    /// `acc + x·y` with one rounding.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn madd(acc: __m256, x: __m256, y: __m256) -> __m256 {
        _mm256_fmadd_ps(x, y, acc)
    }
}

/// Strict AVX-512F stamps: the 8×32 tile, sixteen `zmm` accumulators, two
/// per output row, and the zero-skipping GEMM; each multiply and add
/// rounded on its own.
#[cfg(target_arch = "x86_64")]
mod avx512_strict {
    use std::arch::x86_64::{
        __m512, __mmask16, _mm512_add_ps, _mm512_cmp_ps_mask, _mm512_loadu_ps,
        _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_mul_ps, _mm512_set1_ps,
        _mm512_setzero_ps, _mm512_storeu_ps, _CMP_NEQ_UQ,
    };

    gemm_tile!(
        "avx512f",
        8,
        16,
        _mm512_setzero_ps,
        _mm512_loadu_ps,
        _mm512_set1_ps,
        _mm512_storeu_ps
    );
    sparse_gemm!("avx512f", 16, __mmask16, _mm512_setzero_ps, _mm512_set1_ps);

    /// The lanes below `tail` of one register.
    #[inline]
    fn tail_mask(tail: usize) -> __mmask16 {
        ((1u32 << tail) - 1) as __mmask16
    }

    /// One register from `p`: every lane, or only those of `lanes` (the
    /// others read as zero and touch no memory).
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load_lanes(p: *const f32, lanes: Option<__mmask16>) -> __m512 {
        match lanes {
            Some(mask) => _mm512_maskz_loadu_ps(mask, p),
            None => _mm512_loadu_ps(p),
        }
    }

    /// Stores `v` at `p`: every lane, or only those of `lanes`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn store_lanes(p: *mut f32, v: __m512, lanes: Option<__mmask16>) {
        match lanes {
            Some(mask) => _mm512_mask_storeu_ps(p, mask, v),
            None => _mm512_storeu_ps(p, v),
        }
    }

    /// Bit `t` set for each nonzero `p[t]` of one register (`NaN`
    /// included).
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn nonzero_lanes(p: *const f32) -> u64 {
        u64::from(_mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(
            _mm512_loadu_ps(p),
            _mm512_setzero_ps(),
        ))
    }

    /// `acc + x·y` rounded twice: multiply, then add.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn madd(acc: __m512, x: __m512, y: __m512) -> __m512 {
        _mm512_add_ps(acc, _mm512_mul_ps(x, y))
    }
}

/// The fast tier's AVX-512F 8×32 tile: sixteen `zmm` accumulators, two per
/// output row, contracted with `vfmadd`.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::{
        __m512, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_storeu_ps,
    };

    gemm_tile!(
        "avx512f",
        8,
        16,
        _mm512_setzero_ps,
        _mm512_loadu_ps,
        _mm512_set1_ps,
        _mm512_storeu_ps
    );

    /// `acc + x·y` with one rounding.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn madd(acc: __m512, x: __m512, y: __m512) -> __m512 {
        _mm512_fmadd_ps(x, y, acc)
    }
}

/// Strict stamps and kernels: every multiply and add rounds on its own.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256, __m256i, _mm256_add_ps, _mm256_cmp_ps, _mm256_cmpgt_epi32, _mm256_div_ps,
        _mm256_loadu_ps, _mm256_maskload_ps, _mm256_maskstore_ps, _mm256_movemask_ps,
        _mm256_mul_ps, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32, _mm256_setzero_ps,
        _mm256_sqrt_ps, _mm256_storeu_ps, _CMP_NEQ_UQ,
    };

    gemm_tile!(
        "avx2",
        4,
        8,
        _mm256_setzero_ps,
        _mm256_loadu_ps,
        _mm256_set1_ps,
        _mm256_storeu_ps
    );
    sparse_gemm!("avx2", 8, __m256i, _mm256_setzero_ps, _mm256_set1_ps);
    axpy_row!("avx2", |acc, x, y| acc + x * y);
    adam_rows!("avx2");

    /// The lanes below `tail` of one register.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn tail_mask(tail: usize) -> __m256i {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(tail as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }

    /// One register from `p`: every lane, or only those of `lanes` (the
    /// others read as zero and touch no memory).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_lanes(p: *const f32, lanes: Option<__m256i>) -> __m256 {
        match lanes {
            Some(mask) => _mm256_maskload_ps(p, mask),
            None => _mm256_loadu_ps(p),
        }
    }

    /// Stores `v` at `p`: every lane, or only those of `lanes`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_lanes(p: *mut f32, v: __m256, lanes: Option<__m256i>) {
        match lanes {
            Some(mask) => _mm256_maskstore_ps(p, mask, v),
            None => _mm256_storeu_ps(p, v),
        }
    }

    /// Bit `t` set for each nonzero `p[t]` of one register (`NaN`
    /// included).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn nonzero_lanes(p: *const f32) -> u64 {
        let nz = _mm256_cmp_ps::<_CMP_NEQ_UQ>(_mm256_loadu_ps(p), _mm256_setzero_ps());
        u64::from(_mm256_movemask_ps(nz) as u8)
    }

    /// In-register 8×8 transpose: loads eight rows of `src` (row stride
    /// `n`), runs the unpack/shuffle/permute network, stores eight rows of
    /// `dst` (row stride `m`). Pure data movement — bit-identical to the
    /// scalar permutation.
    ///
    /// # Safety
    ///
    /// AVX must be available; `src` must be readable for 8 rows × stride
    /// `n` and `dst` writable for 8 rows × stride `m` from the given
    /// pointers.
    #[target_feature(enable = "avx")]
    pub unsafe fn transpose_8x8(src: *const f32, n: usize, dst: *mut f32, m: usize) {
        use std::arch::x86_64::{
            _mm256_permute2f128_ps, _mm256_shuffle_ps, _mm256_unpackhi_ps, _mm256_unpacklo_ps,
        };
        let r0 = _mm256_loadu_ps(src);
        let r1 = _mm256_loadu_ps(src.add(n));
        let r2 = _mm256_loadu_ps(src.add(2 * n));
        let r3 = _mm256_loadu_ps(src.add(3 * n));
        let r4 = _mm256_loadu_ps(src.add(4 * n));
        let r5 = _mm256_loadu_ps(src.add(5 * n));
        let r6 = _mm256_loadu_ps(src.add(6 * n));
        let r7 = _mm256_loadu_ps(src.add(7 * n));
        let t0 = _mm256_unpacklo_ps(r0, r1);
        let t1 = _mm256_unpackhi_ps(r0, r1);
        let t2 = _mm256_unpacklo_ps(r2, r3);
        let t3 = _mm256_unpackhi_ps(r2, r3);
        let t4 = _mm256_unpacklo_ps(r4, r5);
        let t5 = _mm256_unpackhi_ps(r4, r5);
        let t6 = _mm256_unpacklo_ps(r6, r7);
        let t7 = _mm256_unpackhi_ps(r6, r7);
        let s0 = _mm256_shuffle_ps(t0, t2, 0b01_00_01_00);
        let s1 = _mm256_shuffle_ps(t0, t2, 0b11_10_11_10);
        let s2 = _mm256_shuffle_ps(t1, t3, 0b01_00_01_00);
        let s3 = _mm256_shuffle_ps(t1, t3, 0b11_10_11_10);
        let s4 = _mm256_shuffle_ps(t4, t6, 0b01_00_01_00);
        let s5 = _mm256_shuffle_ps(t4, t6, 0b11_10_11_10);
        let s6 = _mm256_shuffle_ps(t5, t7, 0b01_00_01_00);
        let s7 = _mm256_shuffle_ps(t5, t7, 0b11_10_11_10);
        _mm256_storeu_ps(dst, _mm256_permute2f128_ps(s0, s4, 0x20));
        _mm256_storeu_ps(dst.add(m), _mm256_permute2f128_ps(s1, s5, 0x20));
        _mm256_storeu_ps(dst.add(2 * m), _mm256_permute2f128_ps(s2, s6, 0x20));
        _mm256_storeu_ps(dst.add(3 * m), _mm256_permute2f128_ps(s3, s7, 0x20));
        _mm256_storeu_ps(dst.add(4 * m), _mm256_permute2f128_ps(s0, s4, 0x31));
        _mm256_storeu_ps(dst.add(5 * m), _mm256_permute2f128_ps(s1, s5, 0x31));
        _mm256_storeu_ps(dst.add(6 * m), _mm256_permute2f128_ps(s2, s6, 0x31));
        _mm256_storeu_ps(dst.add(7 * m), _mm256_permute2f128_ps(s3, s7, 0x31));
    }

    /// `acc + x·y` rounded twice: multiply, then add. Never an FMA
    /// contraction (intrinsics are not subject to `fast-math`-style fusion).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn madd(acc: __m256, x: __m256, y: __m256) -> __m256 {
        _mm256_add_ps(acc, _mm256_mul_ps(x, y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_spelling_variants_force_portable() {
        for v in ["0", "off", "OFF", " portable "] {
            assert!(
                matches!(
                    v.trim().to_ascii_lowercase().as_str(),
                    "0" | "off" | "portable"
                ),
                "{v:?} should force the portable path"
            );
        }
    }

    /// A seeded stream of uniform values in `[0, 1)`.
    fn uniform(seed: u64) -> impl FnMut() -> f32 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 40) as f32 / (1u64 << 24) as f32
        }
    }

    /// `rows × cols` entries, 60% `+0.0`, 20% `−0.0`, the rest nonzero.
    fn sparse_operand(rows: usize, cols: usize, next: &mut impl FnMut() -> f32) -> Vec<f32> {
        (0..rows * cols)
            .map(|_| match next() {
                u if u < 0.6 => 0.0,
                u if u < 0.8 => -0.0,
                u => 2.0 * u - 1.5,
            })
            .collect()
    }

    /// `rows × cols` values in `[−1, 1)`, a tenth of them `−0.0`.
    fn dense_operand(rows: usize, cols: usize, next: &mut impl FnMut() -> f32) -> Vec<f32> {
        (0..rows * cols)
            .map(|_| {
                if next() < 0.1 {
                    -0.0
                } else {
                    2.0 * next() - 1.0
                }
            })
            .collect()
    }

    /// The scalar chain both forms must store: `Σ lhs(i, p)·b[p][j]` from
    /// `+0.0`, skipping zero `lhs(i, p)`, multiply then add, ascending `p`.
    fn scalar_chain(
        lhs: impl Fn(usize, usize) -> f32,
        rows: usize,
        k: usize,
        b: &[f32],
        n: usize,
    ) -> Vec<f32> {
        let mut want = vec![0.0f32; rows * n];
        for i in 0..rows {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    let av = lhs(i, p);
                    if av != 0.0 {
                        acc += av * b[p * n + j];
                    }
                }
                want[i * n + j] = acc;
            }
        }
        want
    }

    /// Both forms of `stamp` against the scalar chain, over widths off and
    /// on every column-block edge of either width and depths across 64-entry
    /// stretches; the scatter form over all of `aᵀ`'s rows and over a range
    /// that starts and ends off a stretch edge. Vacuous where the CPU lacks
    /// the stamp.
    fn assert_sparse_stamp_stores_the_scalar_chains(stamp: SparseStamp) {
        if !stamp.available() {
            return;
        }
        let mut next = uniform(0x9e37_79b9_7f4a_7c15);
        for (k, n) in [
            (1, 1),
            (7, 5),
            (64, 16),
            (65, 17),
            (154, 128),
            (154, 100),
            (300, 137),
            (129, 250),
            (70, 271),
        ] {
            let rows = 3;
            let a = sparse_operand(rows, k, &mut next);
            let b = dense_operand(k, n, &mut next);
            let want = scalar_chain(|i, p| a[i * k + p], rows, k, &b, n);
            let mut got = vec![f32::NAN; rows * n];
            sparse_gather(stamp, &a, k, &b, n, &mut got);
            for (idx, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "gather at {idx}, k={k} n={n}");
            }
            // Scatter: `aᵀ·b` for `a` stored `[k, m]`, output rows `cols`.
            let m = rows + k;
            let a = sparse_operand(k, m, &mut next);
            let want = scalar_chain(|i, p| a[p * m + i], m, k, &b, n);
            for cols in [0..m, m / 3..m - 1] {
                let mut got = vec![f32::NAN; cols.len() * n];
                sparse_scatter(stamp, &a, m, cols.clone(), &b, n, &mut got);
                let want = &want[cols.start * n..cols.end * n];
                for (idx, (g, w)) in got.iter().zip(want).enumerate() {
                    let what = format!("scatter at {idx}, k={k} m={m} n={n} cols={cols:?}");
                    assert_eq!(g.to_bits(), w.to_bits(), "{what}");
                }
            }
        }
    }

    #[test]
    fn sparse_avx2_stamp_stores_the_scalar_chains_bits() {
        assert_sparse_stamp_stores_the_scalar_chains(SparseStamp::Avx2);
    }

    #[test]
    fn sparse_avx512_stamp_stores_the_scalar_chains_bits() {
        assert_sparse_stamp_stores_the_scalar_chains(SparseStamp::Avx512);
    }

    #[test]
    fn sparse_stamps_skip_only_zero_terms_from_positive_zero() {
        // A nonzero `a` entry times an all-(−0.0) column of `b` adds −0.0,
        // and +0.0 + −0.0 = +0.0; a form that seeded its accumulator with
        // the first product, or left an output row unwritten, would not
        // store +0.0. NaN entries of `a` count as nonzero.
        for stamp in [SparseStamp::Avx2, SparseStamp::Avx512] {
            if !stamp.available() {
                continue;
            }
            let (k, n) = (20, 33);
            let mut a = vec![0.0f32; 2 * k];
            a[3] = 2.0;
            a[k + 7] = f32::NAN;
            let b = vec![-0.0f32; k * n];
            let mut got = vec![f32::NAN; 2 * n];
            sparse_gather(stamp, &a, k, &b, n, &mut got);
            assert!(
                got[..n].iter().all(|v| v.to_bits() == 0),
                "{stamp:?} gather"
            );
            assert!(got[n..].iter().all(|v| v.is_nan()), "{stamp:?} gather NaN");
            // The same `a` read as `[k, 2]` stored `[2, k]`: the transpose.
            let mut got = vec![f32::NAN; k * n];
            sparse_scatter(stamp, &a, k, 0..k, &b[..2 * n], n, &mut got);
            for (p, row) in got.chunks_exact(n).enumerate() {
                match p {
                    7 => assert!(row.iter().all(|v| v.is_nan()), "{stamp:?} scatter NaN"),
                    _ => assert!(row.iter().all(|v| v.to_bits() == 0), "{stamp:?} row {p}"),
                }
            }
        }
    }

    /// What [`sparse_gather_with`] and [`sparse_scatter_with`] break: one
    /// operand one element or row short, a zero dimension, or a column
    /// range past the end.
    #[derive(Clone, Copy, PartialEq)]
    enum Fault {
        Empty,
        Lhs,
        Rhs,
        Output,
        Columns,
    }

    /// Runs the gather form of `stamp` on 3 rows of depth 10 into 20
    /// columns, with `fault` breaking one operand.
    fn sparse_gather_with(stamp: SparseStamp, fault: Fault) {
        let (rows, k, n) = (3, if fault == Fault::Empty { 0 } else { 10 }, 20);
        let less = |f: Fault, by: usize| if fault == f { by } else { 0 };
        let a = vec![1.0f32; rows * k - less(Fault::Lhs, 1)];
        let b = vec![1.0f32; k * n - less(Fault::Rhs, 1)];
        let mut out = vec![0.0f32; (rows - less(Fault::Output, 1)) * n];
        sparse_gather(stamp, &a, k, &b, n, &mut out);
    }

    /// Runs the scatter form of `stamp` on `a` stored `[10, 12]` with 20
    /// output columns, with `fault` breaking one operand.
    fn sparse_scatter_with(stamp: SparseStamp, fault: Fault) {
        let (d, m, n) = (10, if fault == Fault::Empty { 0 } else { 12 }, 20);
        let less = |f: Fault, by: usize| if fault == f { by } else { 0 };
        let a = vec![1.0f32; d * m - less(Fault::Lhs, 1)];
        let b = vec![1.0f32; d * n - less(Fault::Rhs, 1)];
        let cols = 0..m + usize::from(fault == Fault::Columns);
        let mut out = vec![0.0f32; cols.len() * n - less(Fault::Output, 1)];
        sparse_scatter(stamp, &a, m, cols, &b, n, &mut out);
    }

    /// One `#[should_panic]` test per zero-skipping stamp, form and bounds
    /// assert. The wrappers check bounds before the instruction set, so
    /// each holds on every x86-64 CPU, and no stamp runs.
    macro_rules! sparse_bounds_tests {
        ($($name:ident: $form:ident, $stamp:ident, $fault:ident, $msg:literal;)*) => {$(
            #[test]
            #[should_panic(expected = $msg)]
            fn $name() {
                $form(SparseStamp::$stamp, Fault::$fault);
            }
        )*};
    }

    sparse_bounds_tests! {
        sparse_avx2_gather_rejects_a_zero_depth: sparse_gather_with, Avx2, Empty, "needs k, n > 0";
        sparse_avx2_gather_rejects_an_rhs_one_short: sparse_gather_with, Avx2, Rhs, "rhs length";
        sparse_avx2_gather_rejects_a_partial_lhs_row: sparse_gather_with, Avx2, Lhs, "whole rows";
        sparse_avx2_gather_rejects_an_output_row_short: sparse_gather_with, Avx2, Output, "row count";
        sparse_avx2_scatter_rejects_zero_columns: sparse_scatter_with, Avx2, Empty, "needs m, n > 0";
        sparse_avx2_scatter_rejects_a_partial_lhs_row: sparse_scatter_with, Avx2, Lhs, "whole rows";
        sparse_avx2_scatter_rejects_an_rhs_one_short: sparse_scatter_with, Avx2, Rhs, "rhs length";
        sparse_avx2_scatter_rejects_columns_past_the_end: sparse_scatter_with, Avx2, Columns, "columns out of range";
        sparse_avx2_scatter_rejects_an_output_one_short: sparse_scatter_with, Avx2, Output, "output length";
        sparse_avx512_gather_rejects_a_zero_depth: sparse_gather_with, Avx512, Empty, "needs k, n > 0";
        sparse_avx512_gather_rejects_an_rhs_one_short: sparse_gather_with, Avx512, Rhs, "rhs length";
        sparse_avx512_gather_rejects_a_partial_lhs_row: sparse_gather_with, Avx512, Lhs, "whole rows";
        sparse_avx512_gather_rejects_an_output_row_short: sparse_gather_with, Avx512, Output, "row count";
        sparse_avx512_scatter_rejects_zero_columns: sparse_scatter_with, Avx512, Empty, "needs m, n > 0";
        sparse_avx512_scatter_rejects_a_partial_lhs_row: sparse_scatter_with, Avx512, Lhs, "whole rows";
        sparse_avx512_scatter_rejects_an_rhs_one_short: sparse_scatter_with, Avx512, Rhs, "rhs length";
        sparse_avx512_scatter_rejects_columns_past_the_end: sparse_scatter_with, Avx512, Columns, "columns out of range";
        sparse_avx512_scatter_rejects_an_output_one_short: sparse_scatter_with, Avx512, Output, "output length";
    }

    #[test]
    fn sparse_stamp_widest_follows_the_switch_and_the_cpu() {
        assert_eq!(SparseStamp::widest(false), None);
        if detect() {
            let want = if avx512_available() {
                SparseStamp::Avx512
            } else {
                SparseStamp::Avx2
            };
            assert_eq!(SparseStamp::widest(true), Some(want));
        }
    }

    /// The `i`-th operand value [`run`] feeds a tile. Not dyadic, so
    /// products round and a fused chain differs from a strict one.
    fn operand(i: usize) -> f32 {
        ((i * 7919 % 257) as f32 - 128.0) / 61.0
    }

    /// Which operand [`run`] makes too short.
    #[derive(Clone, Copy, PartialEq)]
    enum Short {
        Nothing,
        Panel,
        Lhs,
        Output,
    }

    /// Runs `t` at output row 1, column 3 of an output with row stride
    /// `width + 5`, over an LHS from offset 2: tile rows `k + 2` apart and
    /// steps adjacent, or with `transposed` rows adjacent and steps
    /// `mr + 3` apart, as the transpose of a stored matrix lies. Every
    /// operand is exactly as long as the call needs, unless `short` takes
    /// one panel row, one stored LHS row or one output element off. Returns
    /// the output
    /// and the scalar chains it must store: multiply-then-add for a strict
    /// tile, one `mul_add` rounding per term for a fused one.
    fn run(t: Tile, short: Short, transposed: bool) -> (Vec<f32>, Vec<f32>) {
        let (mr, width, k) = (t.mr(), t.width(), 37);
        let (a_base, r, j0, n) = (2, 1, 3, t.width() + 5);
        let (stride, depth) = if transposed { (1, mr + 3) } else { (k + 2, 1) };
        let less = |s: Short, by: usize| if short == s { by } else { 0 };
        let stored_row = stride.max(depth);
        let a_len = a_base + (mr - 1) * stride + (k - 1) * depth + 1 - less(Short::Lhs, stored_row);
        let a: Vec<f32> = (0..a_len).map(operand).collect();
        let panel: Vec<f32> = (0..(k - less(Short::Panel, 1)) * width)
            .map(|i| operand(i + 1000))
            .collect();
        let mut out = vec![f32::NAN; (r + mr - 1) * n + j0 + width - less(Short::Output, 1)];
        let mut want = out.clone();
        assert!(tile(
            t, &a, a_base, stride, depth, k, &panel, &mut out, r, n, j0
        ));
        for row in 0..mr {
            for c in 0..width {
                let mut acc = 0.0f32;
                for p in 0..k {
                    let (x, y) = (a[a_base + row * stride + p * depth], panel[p * width + c]);
                    acc = if t.fused() {
                        x.mul_add(y, acc)
                    } else {
                        acc + x * y
                    };
                }
                want[(r + row) * n + j0 + c] = acc;
            }
        }
        (out, want)
    }

    #[test]
    fn tile_geometry() {
        // (rows, width, fused): each fused tile has its strict twin's shape,
        // so the size rule picks one shape for both tiers.
        let geometry = |t: Tile| (t.mr(), t.width(), t.fused());
        assert_eq!(geometry(Tile::Portable), (4, 8, false));
        assert_eq!(geometry(Tile::Avx2), (4, 16, false));
        assert_eq!(geometry(Tile::Fma), (4, 16, true));
        assert_eq!(geometry(Tile::Avx512Strict), (8, 32, false));
        assert_eq!(geometry(Tile::Avx512), (8, 32, true));
    }

    #[test]
    fn tiles_in_bounds_store_their_chains_bits() {
        for t in [Tile::Avx2, Tile::Avx512Strict, Tile::Fma, Tile::Avx512] {
            for transposed in [false, true] {
                if t.available() {
                    let (got, want) = run(t, Short::Nothing, transposed);
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(g.to_bits(), w.to_bits(), "{t:?} {transposed} at {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn tile_operands_separate_fused_from_strict_chains() {
        // Otherwise the test above could not tell a strict stamp that
        // contracts from one that does not.
        let differ = (0..32)
            .filter(|&c| {
                let (mut strict, mut fused) = (0.0f32, 0.0f32);
                for p in 0..37 {
                    let (x, y) = (operand(2 + p), operand(1000 + p * 32 + c));
                    strict += x * y;
                    fused = x.mul_add(y, fused);
                }
                strict.to_bits() != fused.to_bits()
            })
            .count();
        assert!(differ > 0, "no column separates the two chains");
    }

    /// One `#[should_panic]` test per SIMD tile and short operand, on the
    /// strided layout of a transposed LHS. The wrapper checks bounds before
    /// the instruction set, so each holds on every CPU, and no stamp runs.
    macro_rules! bounds_tests {
        ($($name:ident: $tile:ident, $short:ident, $msg:literal;)*) => {$(
            #[test]
            #[should_panic(expected = $msg)]
            fn $name() {
                run(Tile::$tile, Short::$short, true);
            }
        )*};
    }

    bounds_tests! {
        avx2_tile_rejects_a_panel_one_row_short: Avx2, Panel, "panel";
        avx2_tile_rejects_an_lhs_one_row_short: Avx2, Lhs, "lhs";
        avx2_tile_rejects_an_output_past_the_end: Avx2, Output, "output";
        avx512_strict_tile_rejects_a_panel_one_row_short: Avx512Strict, Panel, "panel";
        avx512_strict_tile_rejects_an_lhs_one_row_short: Avx512Strict, Lhs, "lhs";
        avx512_strict_tile_rejects_an_output_past_the_end: Avx512Strict, Output, "output";
        fma_tile_rejects_a_panel_one_row_short: Fma, Panel, "panel";
        fma_tile_rejects_an_lhs_one_row_short: Fma, Lhs, "lhs";
        fma_tile_rejects_an_output_past_the_end: Fma, Output, "output";
        avx512_tile_rejects_a_panel_one_row_short: Avx512, Panel, "panel";
        avx512_tile_rejects_an_lhs_one_row_short: Avx512, Lhs, "lhs";
        avx512_tile_rejects_an_output_past_the_end: Avx512, Output, "output";
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    #[should_panic(expected = "axpy rows must match")]
    fn axpy_row_rejects_rows_of_unequal_length() {
        axpy_row(true, false, &mut [0.0; 9], &[1.0; 8], 2.0);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    #[should_panic(expected = "transpose src length")]
    fn transpose_rejects_a_src_one_element_short() {
        transpose(true, &[0.0; 8 * 9 - 1], 8, 9, &mut [0.0; 8 * 9]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    #[should_panic(expected = "transpose dst length")]
    fn transpose_rejects_a_dst_one_element_short() {
        transpose(true, &[0.0; 8 * 9], 8, 9, &mut [0.0; 8 * 9 - 1]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    #[should_panic(expected = "adam slices must match")]
    fn adam_rows_reject_slices_of_unequal_length() {
        let h = crate::kernels::AdamUpdate {
            weight_decay: 0.0,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            lr: 1e-3,
            s1: 10.0,
            s2: 1000.0,
        };
        let (mut w, mut m, mut v) = ([0.0; 9], [0.0; 8], [0.0; 9]);
        adam_rows(true, true, &mut w, &[0.0; 9], &mut m, &mut v, &h);
    }

    #[test]
    fn forcing_simd_respects_hardware() {
        let before = simd_enabled();
        set_simd_enabled(true);
        // `true` only sticks when the CPU actually has AVX2.
        assert_eq!(simd_enabled(), detect());
        set_simd_enabled(false);
        assert!(!simd_enabled());
        set_simd_enabled(before);
    }
}
