//! Runtime-dispatched SIMD micro-kernels (AVX2 / AVX-512 on x86-64).
//!
//! **Strict tier.** Vectorization widens across **output columns** only. Each
//! output element still owns a single accumulator that consumes its
//! `a[i][p]·b[p][j]` terms in ascending `p` — lane `j` of one
//! `_mm256_add_ps(acc, _mm256_mul_ps(a, b))` performs exactly the scalar
//! kernel's `acc + a*b`: the multiply rounds, then the add rounds, per IEEE
//! 754 single precision. FMA is deliberately **never** emitted on this tier
//! (the `target_feature` enables only `avx2`, and the intrinsics used are
//! plain mul/add): contracting the two roundings into one would change bits
//! and break the strict determinism contract. Every strict kernel is AVX2,
//! the zero-skipping row kernel ([`sparse_rows`]) behind the sparse dispatch
//! in [`crate::kernels`] included: it keeps one register accumulator per
//! output element that starts at `+0.0` and adds only the nonzero terms in
//! ascending `p`, so it stores the packed 4×16 tile's bits.
//!
//! **Fast tier** ([`crate::mode`]). The `*_fma` kernels and the AVX-512
//! 8×32 tile *do* contract with `vfmadd`, which changes low-order bits —
//! they are reachable only through [`crate::fastpath`] when
//! `LIGHTNAS_KERNEL_MODE=fast`, and are verified against the strict oracle
//! by the differential tolerance suite instead of fingerprints.
//!
//! Because the compile baseline is SSE2 (no `-C target-cpu` anywhere in the
//! workspace), AVX2/FMA/AVX-512F/F16C availability is detected at runtime
//! and cached in atomics; the portable scalar kernels in [`crate::kernels`]
//! remain the fallback and the oracle. `LIGHTNAS_KERNEL_SIMD=off` (or `0` /
//! `portable`) forces the fallback — in *both* modes — and
//! [`set_simd_enabled`] flips the path in-process so the byte-identity suite
//! can diff the two implementations directly.

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
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
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

/// Cached CPU-feature probes for the fast tier. Unlike [`simd_enabled`]
/// these are pure hardware facts — no env knob — so they never need a
/// setter; `LIGHTNAS_KERNEL_SIMD=off` gates the *dispatch*, not these.
static FMA_STATE: AtomicU8 = AtomicU8::new(UNKNOWN);
static AVX512_STATE: AtomicU8 = AtomicU8::new(UNKNOWN);
static F16C_STATE: AtomicU8 = AtomicU8::new(UNKNOWN);

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

/// AVX2 4×16 GEMM micro-tile over a packed B panel (two `f32x8` registers
/// per output row — eight independent accumulator chains, enough to hide
/// the vector-add latency a 4×8 tile cannot). Returns `false` when the SIMD
/// path is off, in which case the caller must run the portable kernel.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn tile_4x16(
    use_simd: bool,
    a: &[f32],
    a_base: usize,
    k: usize,
    panel: &[f32],
    out: &mut [f32],
    r: usize,
    n: usize,
    j0: usize,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        debug_assert!(panel.len() >= k * 16, "panel must hold k rows of 16");
        debug_assert!(a.len() >= a_base + 4 * k, "lhs rows out of bounds");
        debug_assert!(out.len() >= (r + 3) * n + j0 + 16, "output tile oob");
        // SAFETY: AVX2 availability is established by `use_simd` (set only
        // after `detect()`), and the bounds above cover every access.
        unsafe { avx2::micro_tile_4x16(a, a_base, k, panel, out, r, n, j0) };
        return true;
    }
    let _ = (use_simd, a, a_base, k, panel, out, r, n, j0);
    false
}

/// AVX2 Adam update over the 8-lane-aligned prefix of the slices. Returns
/// `false` when the SIMD path is off (caller runs the scalar loop over the
/// whole range); on `true` the caller handles the `len % 8` tail.
pub(crate) fn adam_rows(
    use_simd: bool,
    w: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    h: &crate::kernels::AdamUpdate,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        // SAFETY: AVX2 availability is established by `use_simd`; the
        // caller asserts equal slice lengths.
        unsafe { avx2::adam_rows(w, g, m, v, h) };
        return true;
    }
    let _ = (use_simd, w, g, m, v, h);
    false
}

/// AVX2 blocked transpose of row-major `src` (`[m, n]`) into `dst`
/// (`[n, m]`): 8×8 register micro-transposes over the full blocks, scalar
/// edges. A transpose is a pure permutation — no arithmetic, so the SIMD
/// shuffle network produces exactly the scalar loop's bits and both tiers
/// may use it. Returns `false` when the SIMD path is off.
pub(crate) fn transpose(use_simd: bool, src: &[f32], m: usize, n: usize, dst: &mut [f32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        debug_assert_eq!(src.len(), m * n, "transpose src length");
        debug_assert_eq!(dst.len(), m * n, "transpose dst length");
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

/// AVX2 `o[j] += av * b[j]` row update (the axpy GEMM inner loop). Returns
/// `false` when the SIMD path is off; the caller runs the scalar loop.
#[inline]
pub(crate) fn axpy_row(use_simd: bool, o: &mut [f32], b: &[f32], av: f32) -> bool {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        debug_assert_eq!(o.len(), b.len(), "axpy rows must match");
        // SAFETY: AVX2 availability is established by `use_simd`; lengths
        // are equal so every lane load/store is in bounds.
        unsafe { avx2::axpy_row(o, b, av) };
        return true;
    }
    let _ = (use_simd, o, b, av);
    false
}

/// Output rows of the strict zero-skipping GEMM: `out[i][j] = Σₚ a[i][p]·b[p][j]`
/// over the nonzero `a[i][p]` in ascending `p`, for `a` row-major
/// `[rows, k]`, `b` row-major `[k, n]` and `out` row-major `[rows, n]`.
/// Returns `false` when the SIMD path is off, in which case the caller runs
/// the portable kernel.
///
/// Each output element is one register accumulator that starts at `+0.0`
/// and adds `a[i][p]·b[p][j]` with the multiply and the add rounded
/// separately (never FMA): the packed kernel's chain minus its `±0.0`
/// terms, which cannot move an accumulator that started at `+0.0` while
/// `b` is finite. The nonzero entries of each 64-wide stretch of a row are
/// found with one vector compare per register and walked as a bitmask.
///
/// # Panics
///
/// Panics if `use_simd` is set on a CPU without AVX2, or if the slice
/// lengths disagree with `k` and `n`.
#[inline]
pub(crate) fn sparse_rows(
    use_simd: bool,
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        assert!(detect(), "sparse rows dispatched without AVX2");
        assert!(k > 0 && n > 0, "sparse rows need k, n > 0");
        assert_eq!(b.len(), k * n, "sparse rows rhs length");
        assert_eq!(a.len() / k, out.len() / n, "sparse rows row count");
        assert!(
            a.len().is_multiple_of(k) && out.len().is_multiple_of(n),
            "sparse rows lengths must be whole rows"
        );
        // SAFETY: AVX2 and every length the body reads or writes through
        // were asserted above.
        unsafe { avx2::sparse_rows(a, k, b, n, out) };
        return true;
    }
    let _ = (use_simd, a, k, b, n, out);
    false
}

/// Fast-tier FMA 4×16 GEMM micro-tile over a packed B panel. Like
/// [`tile_4x16`] but contracted with `vfmadd231ps` and generalized with an
/// explicit LHS row stride so the caller can feed a `k`-subrange (the
/// per-thread partial-sum split). **Changes low-order bits vs strict** —
/// callable only from [`crate::fastpath`].
///
/// # Panics (debug)
///
/// Debug-asserts panel/LHS/output bounds.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn tile_4x16_fma(
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
    #[cfg(target_arch = "x86_64")]
    {
        debug_assert!(fma_available(), "fast tile dispatched without FMA");
        debug_assert!(panel.len() >= k_len * 16, "panel must hold k rows of 16");
        debug_assert!(
            a.len() >= a_base + 3 * a_stride + k_len,
            "lhs rows out of bounds"
        );
        debug_assert!(out.len() >= (r + 3) * n + j0 + 16, "output tile oob");
        // SAFETY: the dispatcher only reaches this wrapper when
        // `fma_available()`; the bounds above cover every access.
        unsafe { fma::micro_tile_4x16_fma(a, a_base, a_stride, k_len, panel, out, r, n, j0) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (a, a_base, a_stride, k_len, panel, out, r, n, j0);
        unreachable!("fast tile dispatched on non-x86_64");
    }
}

/// Fast-tier AVX-512F 8×32 GEMM micro-tile (16 zmm accumulators) over a
/// packed B panel of width 32. FMA-contracted; fast tier only.
///
/// # Panics (debug)
///
/// Debug-asserts panel/LHS/output bounds.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn tile_8x32_avx512(
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
    #[cfg(target_arch = "x86_64")]
    {
        debug_assert!(
            avx512_available(),
            "AVX-512 tile dispatched without avx512f"
        );
        debug_assert!(panel.len() >= k_len * 32, "panel must hold k rows of 32");
        debug_assert!(
            a.len() >= a_base + 7 * a_stride + k_len,
            "lhs rows out of bounds"
        );
        debug_assert!(out.len() >= (r + 7) * n + j0 + 32, "output tile oob");
        // SAFETY: dispatch requires `avx512_available()`; bounds above.
        unsafe { avx512::micro_tile_8x32(a, a_base, a_stride, k_len, panel, out, r, n, j0) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (a, a_base, a_stride, k_len, panel, out, r, n, j0);
        unreachable!("fast tile dispatched on non-x86_64");
    }
}

/// Fast-tier FMA `o[j] += av * b[j]` row update. Returns `false` when the
/// fast path cannot run (caller falls back to the strict row update).
#[inline]
pub(crate) fn axpy_row_fma(o: &mut [f32], b: &[f32], av: f32) -> bool {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        debug_assert_eq!(o.len(), b.len(), "axpy rows must match");
        // SAFETY: FMA availability just checked; lengths are equal.
        unsafe { fma::axpy_row_fma(o, b, av) };
        return true;
    }
    let _ = (o, b, av);
    false
}

/// Fast-tier FMA Adam update over the 8-aligned prefix. Returns `false`
/// when the fast path cannot run; on `true` the caller handles the tail.
pub(crate) fn adam_rows_fma(
    w: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    h: &crate::kernels::AdamUpdate,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: FMA availability just checked; the caller asserts equal
        // slice lengths.
        unsafe { fma::adam_rows_fma(w, g, m, v, h) };
        return true;
    }
    let _ = (w, g, m, v, h);
    false
}

#[cfg(target_arch = "x86_64")]
mod fma {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_div_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_mul_ps,
        _mm256_set1_ps, _mm256_setzero_ps, _mm256_sqrt_ps, _mm256_storeu_ps,
    };

    /// The strict 4×16 tile with `vfmadd` contraction and an explicit LHS
    /// row stride (`a_stride`), so a caller can run it over a `k`-subrange
    /// of a wider matrix for per-thread partial sums.
    ///
    /// # Safety
    ///
    /// AVX2+FMA must be available; `panel` must hold `k_len` rows of 16;
    /// `a` must cover `a_base + r·a_stride + p` for `r < 4`, `p < k_len`;
    /// `out` must cover the 4×16 tile at `(r, j0)` with row stride `n`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn micro_tile_4x16_fma(
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
        let mut acc0l = _mm256_setzero_ps();
        let mut acc0h = _mm256_setzero_ps();
        let mut acc1l = _mm256_setzero_ps();
        let mut acc1h = _mm256_setzero_ps();
        let mut acc2l = _mm256_setzero_ps();
        let mut acc2h = _mm256_setzero_ps();
        let mut acc3l = _mm256_setzero_ps();
        let mut acc3h = _mm256_setzero_ps();
        let ap = a.as_ptr();
        let pp = panel.as_ptr();
        for p in 0..k_len {
            let bl = _mm256_loadu_ps(pp.add(p * 16));
            let bh = _mm256_loadu_ps(pp.add(p * 16 + 8));
            let a0 = _mm256_set1_ps(*ap.add(a_base + p));
            let a1 = _mm256_set1_ps(*ap.add(a_base + a_stride + p));
            let a2 = _mm256_set1_ps(*ap.add(a_base + 2 * a_stride + p));
            let a3 = _mm256_set1_ps(*ap.add(a_base + 3 * a_stride + p));
            acc0l = _mm256_fmadd_ps(a0, bl, acc0l);
            acc0h = _mm256_fmadd_ps(a0, bh, acc0h);
            acc1l = _mm256_fmadd_ps(a1, bl, acc1l);
            acc1h = _mm256_fmadd_ps(a1, bh, acc1h);
            acc2l = _mm256_fmadd_ps(a2, bl, acc2l);
            acc2h = _mm256_fmadd_ps(a2, bh, acc2h);
            acc3l = _mm256_fmadd_ps(a3, bl, acc3l);
            acc3h = _mm256_fmadd_ps(a3, bh, acc3h);
        }
        let op = out.as_mut_ptr();
        _mm256_storeu_ps(op.add(r * n + j0), acc0l);
        _mm256_storeu_ps(op.add(r * n + j0 + 8), acc0h);
        _mm256_storeu_ps(op.add((r + 1) * n + j0), acc1l);
        _mm256_storeu_ps(op.add((r + 1) * n + j0 + 8), acc1h);
        _mm256_storeu_ps(op.add((r + 2) * n + j0), acc2l);
        _mm256_storeu_ps(op.add((r + 2) * n + j0 + 8), acc2h);
        _mm256_storeu_ps(op.add((r + 3) * n + j0), acc3l);
        _mm256_storeu_ps(op.add((r + 3) * n + j0 + 8), acc3h);
    }

    /// `o[j] += av * b[j]` with `vfmadd`, eight lanes at a time plus a
    /// scalar `mul_add` tail (also contracted).
    ///
    /// # Safety
    ///
    /// AVX2+FMA must be available and `o.len() == b.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy_row_fma(o: &mut [f32], b: &[f32], av: f32) {
        let n = o.len();
        let va = _mm256_set1_ps(av);
        let op = o.as_mut_ptr();
        let bp = b.as_ptr();
        let mut j = 0;
        while j + 8 <= n {
            let cur = _mm256_loadu_ps(op.add(j));
            let bv = _mm256_loadu_ps(bp.add(j));
            _mm256_storeu_ps(op.add(j), _mm256_fmadd_ps(va, bv, cur));
            j += 8;
        }
        while j < n {
            *op.add(j) = av.mul_add(*bp.add(j), *op.add(j));
            j += 1;
        }
    }

    /// Vectorized Adam with FMA contraction of the moment updates, the
    /// optional weight-decay term and the final step. Low-order bits differ
    /// from the strict [`super::avx2::adam_rows`]; the trajectory bound is
    /// property-tested in the tolerance suite.
    ///
    /// # Safety
    ///
    /// AVX2+FMA must be available and all four slices must share one length.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn adam_rows_fma(
        w: &mut [f32],
        g: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        h: &crate::kernels::AdamUpdate,
    ) {
        unsafe {
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
                let gd = if wd { _mm256_fmadd_ps(wv, vwd, gv) } else { gv };
                let mv = _mm256_fmadd_ps(_mm256_loadu_ps(mp.add(i)), vb1, _mm256_mul_ps(gd, vc1));
                let vv = _mm256_fmadd_ps(
                    _mm256_loadu_ps(vp.add(i)),
                    vb2,
                    _mm256_mul_ps(_mm256_mul_ps(gd, gd), vc2),
                );
                _mm256_storeu_ps(mp.add(i), mv);
                _mm256_storeu_ps(vp.add(i), vv);
                let m_hat = _mm256_mul_ps(mv, vs1);
                let v_hat = _mm256_mul_ps(vv, vs2);
                let denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), veps);
                let step = _mm256_div_ps(m_hat, denom);
                _mm256_storeu_ps(wp.add(i), _mm256_fmadd_ps(step, vnlr, wv));
                i += 8;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::{
        _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps,
    };

    /// The 8×32 AVX-512 micro-tile: sixteen `zmm` accumulators, two per
    /// output row. Measured ~2.5× the strict AVX2 4×16 tile on this class
    /// of hardware (wider registers + FMA + deeper ILP); fast tier only.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available; `panel` must hold `k_len` rows of 32;
    /// `a` must cover `a_base + r·a_stride + p` for `r < 8`, `p < k_len`;
    /// `out` must cover the 8×32 tile at `(r, j0)` with row stride `n`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn micro_tile_8x32(
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
        let mut acc = [_mm512_setzero_ps(); 16];
        let ap = a.as_ptr();
        let pp = panel.as_ptr();
        for p in 0..k_len {
            let bl = _mm512_loadu_ps(pp.add(p * 32));
            let bh = _mm512_loadu_ps(pp.add(p * 32 + 16));
            for row in 0..8 {
                let av = _mm512_set1_ps(*ap.add(a_base + row * a_stride + p));
                acc[2 * row] = _mm512_fmadd_ps(av, bl, acc[2 * row]);
                acc[2 * row + 1] = _mm512_fmadd_ps(av, bh, acc[2 * row + 1]);
            }
        }
        let op = out.as_mut_ptr();
        for row in 0..8 {
            _mm512_storeu_ps(op.add((r + row) * n + j0), acc[2 * row]);
            _mm512_storeu_ps(op.add((r + row) * n + j0 + 16), acc[2 * row + 1]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256, __m256i, _mm256_add_ps, _mm256_cmp_ps, _mm256_cmpgt_epi32, _mm256_div_ps,
        _mm256_loadu_ps, _mm256_maskload_ps, _mm256_maskstore_ps, _mm256_movemask_ps,
        _mm256_mul_ps, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32, _mm256_setzero_ps,
        _mm256_sqrt_ps, _mm256_storeu_ps, _CMP_NEQ_UQ,
    };

    /// Vectorized Adam over the 8-aligned prefix; the caller finishes the
    /// tail with the scalar loop. `vmulps`/`vaddps`/`vsqrtps`/`vdivps` are
    /// all IEEE-754 correctly rounded per lane, and the operation sequence
    /// mirrors the scalar update exactly, so the bits match it.
    ///
    /// # Safety
    ///
    /// AVX2 must be available and all four slices must share one length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn adam_rows(
        w: &mut [f32],
        g: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        h: &crate::kernels::AdamUpdate,
    ) {
        unsafe {
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
                let gd = if wd {
                    _mm256_add_ps(gv, _mm256_mul_ps(wv, vwd))
                } else {
                    gv
                };
                let mv = _mm256_add_ps(
                    _mm256_mul_ps(_mm256_loadu_ps(mp.add(i)), vb1),
                    _mm256_mul_ps(gd, vc1),
                );
                let vv = _mm256_add_ps(
                    _mm256_mul_ps(_mm256_loadu_ps(vp.add(i)), vb2),
                    _mm256_mul_ps(_mm256_mul_ps(gd, gd), vc2),
                );
                _mm256_storeu_ps(mp.add(i), mv);
                _mm256_storeu_ps(vp.add(i), vv);
                let m_hat = _mm256_mul_ps(mv, vs1);
                let v_hat = _mm256_mul_ps(vv, vs2);
                let denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), veps);
                let step = _mm256_mul_ps(_mm256_div_ps(m_hat, denom), vnlr);
                _mm256_storeu_ps(wp.add(i), _mm256_add_ps(wv, step));
                i += 8;
            }
        }
    }

    /// The 4×16 micro-tile: eight `__m256` accumulators, two per output row.
    /// The doubled width buys instruction-level parallelism only — each
    /// lane still owns one accumulator consuming its terms in ascending
    /// `p` with separate mul and add roundings, so the stored bits match
    /// the 4×8 tile and the portable path exactly.
    ///
    /// # Safety
    ///
    /// AVX2 must be available; `panel` must hold `k` rows of 16; `a` must
    /// cover rows `a_base .. a_base + 4k`; `out` must cover the 4×16 tile at
    /// `(r, j0)` with row stride `n`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn micro_tile_4x16(
        a: &[f32],
        a_base: usize,
        k: usize,
        panel: &[f32],
        out: &mut [f32],
        r: usize,
        n: usize,
        j0: usize,
    ) {
        let mut acc0l = _mm256_setzero_ps();
        let mut acc0h = _mm256_setzero_ps();
        let mut acc1l = _mm256_setzero_ps();
        let mut acc1h = _mm256_setzero_ps();
        let mut acc2l = _mm256_setzero_ps();
        let mut acc2h = _mm256_setzero_ps();
        let mut acc3l = _mm256_setzero_ps();
        let mut acc3h = _mm256_setzero_ps();
        let ap = a.as_ptr();
        let pp = panel.as_ptr();
        for p in 0..k {
            let bl = _mm256_loadu_ps(pp.add(p * 16));
            let bh = _mm256_loadu_ps(pp.add(p * 16 + 8));
            let a0 = _mm256_set1_ps(*ap.add(a_base + p));
            let a1 = _mm256_set1_ps(*ap.add(a_base + k + p));
            let a2 = _mm256_set1_ps(*ap.add(a_base + 2 * k + p));
            let a3 = _mm256_set1_ps(*ap.add(a_base + 3 * k + p));
            acc0l = madd(acc0l, a0, bl);
            acc0h = madd(acc0h, a0, bh);
            acc1l = madd(acc1l, a1, bl);
            acc1h = madd(acc1h, a1, bh);
            acc2l = madd(acc2l, a2, bl);
            acc2h = madd(acc2h, a2, bh);
            acc3l = madd(acc3l, a3, bl);
            acc3h = madd(acc3h, a3, bh);
        }
        let op = out.as_mut_ptr();
        _mm256_storeu_ps(op.add(r * n + j0), acc0l);
        _mm256_storeu_ps(op.add(r * n + j0 + 8), acc0h);
        _mm256_storeu_ps(op.add((r + 1) * n + j0), acc1l);
        _mm256_storeu_ps(op.add((r + 1) * n + j0 + 8), acc1h);
        _mm256_storeu_ps(op.add((r + 2) * n + j0), acc2l);
        _mm256_storeu_ps(op.add((r + 2) * n + j0 + 8), acc2h);
        _mm256_storeu_ps(op.add((r + 3) * n + j0), acc3l);
        _mm256_storeu_ps(op.add((r + 3) * n + j0 + 8), acc3h);
    }

    /// Strict sparse rows (see [`super::sparse_rows`]): per output row,
    /// columns in blocks of 64, 32, 16 and 8 held in `ymm` accumulators,
    /// then the last `n % 8` in one masked vector whose off lanes load
    /// zeros and are never stored.
    ///
    /// # Safety
    ///
    /// AVX2 must be available; `a` must hold whole rows of `k > 0`, `b` must
    /// hold `k` rows of `n > 0`, and `out` as many rows of `n` as `a` has of
    /// `k`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sparse_rows(a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
        let (bp, op) = (b.as_ptr(), out.as_mut_ptr());
        let tail = n % 8;
        let last = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(tail as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        for (i, arow) in a.chunks_exact(k).enumerate() {
            let orow = op.add(i * n);
            let mut j0 = 0;
            while j0 + 64 <= n {
                block::<8>(arow, bp, n, orow, j0, None);
                j0 += 64;
            }
            if n - j0 >= 32 {
                block::<4>(arow, bp, n, orow, j0, None);
                j0 += 32;
            }
            if n - j0 >= 16 {
                block::<2>(arow, bp, n, orow, j0, None);
                j0 += 16;
            }
            if n - j0 >= 8 {
                block::<1>(arow, bp, n, orow, j0, None);
                j0 += 8;
            }
            if tail > 0 {
                block::<1>(arow, bp, n, orow, j0, Some(last));
            }
        }
    }

    /// `V` vectors of one output row from column `j0`, the last of them
    /// limited to the lanes of `last` when given: the accumulators start at
    /// `+0.0` and add `arow[p]·b[p][j]` for each nonzero `arow[p]` in
    /// ascending `p`.
    ///
    /// # Safety
    ///
    /// As [`sparse_rows`] for this row, with `j0 + 8·(V − 1)` plus the
    /// lanes of the last vector at most `n`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn block<const V: usize>(
        arow: &[f32],
        bp: *const f32,
        n: usize,
        orow: *mut f32,
        j0: usize,
        last: Option<__m256i>,
    ) {
        let mut acc: [__m256; V] = [_mm256_setzero_ps(); V];
        for (w, stretch) in arow.chunks(64).enumerate() {
            let mut bits = nonzero_bits(stretch);
            while bits != 0 {
                let p = 64 * w + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let va = _mm256_set1_ps(arow[p]);
                let row = bp.add(p * n + j0);
                for (v, a) in acc.iter_mut().enumerate() {
                    let bv = match last {
                        Some(lanes) if v + 1 == V => _mm256_maskload_ps(row.add(8 * v), lanes),
                        _ => _mm256_loadu_ps(row.add(8 * v)),
                    };
                    *a = madd(*a, va, bv);
                }
            }
        }
        for (v, a) in acc.iter().enumerate() {
            match last {
                Some(lanes) if v + 1 == V => _mm256_maskstore_ps(orow.add(j0 + 8 * v), lanes, *a),
                _ => _mm256_storeu_ps(orow.add(j0 + 8 * v), *a),
            }
        }
    }

    /// Bit `t` set for each nonzero `stretch[t]` (`NaN` included), for a
    /// stretch of at most 64 entries: one compare and move-mask per 8.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn nonzero_bits(stretch: &[f32]) -> u64 {
        debug_assert!(stretch.len() <= 64, "a stretch spans one u64");
        let mut bits = 0u64;
        let mut chunks = stretch.chunks_exact(8);
        for (c, chunk) in chunks.by_ref().enumerate() {
            // SAFETY: `chunk` holds exactly eight elements.
            let v = unsafe { _mm256_loadu_ps(chunk.as_ptr()) };
            let nz = _mm256_cmp_ps::<_CMP_NEQ_UQ>(v, _mm256_setzero_ps());
            bits |= u64::from(_mm256_movemask_ps(nz) as u8) << (8 * c);
        }
        let base = stretch.len() - chunks.remainder().len();
        for (t, &v) in chunks.remainder().iter().enumerate() {
            bits |= u64::from(v != 0.0) << (base + t);
        }
        bits
    }

    /// Separately rounded multiply-then-add; never an FMA contraction
    /// (intrinsics are not subject to `fast-math`-style fusion).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn madd(acc: __m256, a: __m256, b: __m256) -> __m256 {
        _mm256_add_ps(acc, _mm256_mul_ps(a, b))
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

    /// `o[j] += av * b[j]`, eight lanes at a time with a scalar tail. Lane
    /// and tail both round multiply-then-add, matching the scalar loop.
    ///
    /// # Safety
    ///
    /// AVX2 must be available and `o.len() == b.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_row(o: &mut [f32], b: &[f32], av: f32) {
        let n = o.len();
        let va = _mm256_set1_ps(av);
        let op = o.as_mut_ptr();
        let bp = b.as_ptr();
        let mut j = 0;
        while j + 8 <= n {
            let cur = _mm256_loadu_ps(op.add(j));
            let bv = _mm256_loadu_ps(bp.add(j));
            _mm256_storeu_ps(op.add(j), _mm256_add_ps(cur, _mm256_mul_ps(va, bv)));
            j += 8;
        }
        while j < n {
            *op.add(j) += av * *bp.add(j);
            j += 1;
        }
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

    #[test]
    fn sparse_rows_store_the_scalar_chains_bits() {
        // The AVX2 body against the scalar chain (start at +0.0, skip ±0.0,
        // mul then add in ascending p), over widths off and on every block
        // edge and depths across 64-entry stretches. Vacuous without AVX2.
        #[cfg(target_arch = "x86_64")]
        if detect() {
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            let mut next = move || {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 40) as f32 / (1u64 << 24) as f32
            };
            for (k, n) in [
                (1, 1),
                (7, 5),
                (64, 16),
                (65, 17),
                (154, 128),
                (154, 100),
                (300, 137),
                (129, 250),
            ] {
                let rows = 3;
                let a: Vec<f32> = (0..rows * k)
                    .map(|_| match next() {
                        u if u < 0.6 => 0.0,
                        u if u < 0.8 => -0.0,
                        u => 2.0 * u - 1.5,
                    })
                    .collect();
                let b: Vec<f32> = (0..k * n)
                    .map(|_| {
                        if next() < 0.1 {
                            -0.0
                        } else {
                            2.0 * next() - 1.0
                        }
                    })
                    .collect();
                let mut want = vec![0.0f32; rows * n];
                for i in 0..rows {
                    for j in 0..n {
                        let mut acc = 0.0f32;
                        for p in 0..k {
                            let av = a[i * k + p];
                            if av != 0.0 {
                                acc += av * b[p * n + j];
                            }
                        }
                        want[i * n + j] = acc;
                    }
                }
                let mut got = vec![f32::NAN; rows * n];
                assert!(sparse_rows(true, &a, k, &b, n, &mut got));
                for (idx, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "at {idx}, k={k} n={n}");
                }
            }
        }
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
