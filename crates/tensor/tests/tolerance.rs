//! Differential tolerance suite: fast tier vs strict oracle.
//!
//! Every fast kernel (matmul NN/NT/TN, conv2d forward+backward, dwconv
//! forward+backward, Adam) is property-tested against the strict path under
//! random shapes and thread counts (1/2/4 — covering the row-partitioned and
//! the k-split per-thread partial-sum drivers). The fast tier runs the fused
//! stamp of the tile the strict size rule picks, and the matmul shape ranges
//! (m 4..32, n 1..40) straddle its 8-row and 32-column thresholds, so both
//! fused tiles (AVX2+FMA 4×16 and, on AVX-512F CPUs, 8×32) are covered
//! without a pin. The bounds come from
//! [`lightnas_tensor::tolerance`]: per-element
//! `|fast − strict| ≤ rel_tol(depth) · Σ|terms|`, where the scale is
//! computed *exactly* by running the strict kernel on absolute-valued
//! operands. With SIMD forced off, fast mode must degrade to bit-identity.
//!
//! Tests here flip process-wide knobs (mode, threads, SIMD), so
//! every test holds one mutex and restores strict defaults on drop — panics
//! included.

use std::sync::Mutex;

use proptest::prelude::*;

use lightnas_tensor::kernels::{self, AdamUpdate};
use lightnas_tensor::tolerance::ReductionBound;
use lightnas_tensor::{
    conv2d_backward, conv2d_forward, dwconv2d_backward, dwconv2d_forward, set_kernel_mode,
    set_num_threads, set_simd_enabled, Conv2dSpec, KernelMode, Tensor,
};

static KNOB: Mutex<()> = Mutex::new(());

/// Holds the knob mutex and guarantees strict defaults before and after a
/// test body, no matter how it exits.
struct KnobLab<'a> {
    _guard: std::sync::MutexGuard<'a, ()>,
}

impl KnobLab<'_> {
    fn new() -> Self {
        let guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
        restore_defaults();
        Self { _guard: guard }
    }
}

impl Drop for KnobLab<'_> {
    fn drop(&mut self) {
        restore_defaults();
    }
}

fn restore_defaults() {
    set_kernel_mode(KernelMode::Strict);
    set_num_threads(1);
    set_simd_enabled(true);
}

/// Enters the fast tier with the given thread count.
fn enter_fast(threads: usize) {
    set_kernel_mode(KernelMode::Fast);
    set_num_threads(threads);
}

fn abs_all(v: &[f32]) -> Vec<f32> {
    v.iter().map(|x| x.abs()).collect()
}

fn abs_tensor(t: &Tensor) -> Tensor {
    Tensor::from_vec(abs_all(t.as_slice()), t.shape().dims())
}

fn threads_from_index(i: usize) -> usize {
    [1, 2, 4][i % 3]
}

/// Strict output, fast output and exact absolute-term scale for one of the
/// three matmul variants.
fn matmul_triple(
    run: impl Fn(&[f32], &[f32], &mut [f32]),
    a: &[f32],
    b: &[f32],
    out_len: usize,
    threads: usize,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut strict = vec![0.0f32; out_len];
    run(a, b, &mut strict);
    let mut scale = vec![0.0f32; out_len];
    run(&abs_all(a), &abs_all(b), &mut scale);
    enter_fast(threads);
    let mut fast = vec![0.0f32; out_len];
    run(a, b, &mut fast);
    restore_defaults();
    (strict, fast, scale)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_fast_within_depth_bound(
        m in 4usize..32, k in 1usize..64, n in 1usize..40,
        ti in 0usize..3, seed in 0u64..100_000,
    ) {
        let _lab = KnobLab::new();
        let threads = threads_from_index(ti);
        let a = Tensor::uniform(&[m, k], -2.0, 2.0, seed);
        let b = Tensor::uniform(&[k, n], -2.0, 2.0, seed + 1);
        let (strict, fast, scale) = matmul_triple(
            |a, b, out| kernels::matmul_into(a, b, m, k, n, out),
            a.as_slice(), b.as_slice(), m * n, threads,
        );
        if let Err(v) = ReductionBound::matmul(k).check(&fast, &strict, &scale) {
            prop_assert!(false, "matmul {m}x{k}x{n} t={threads}: {v}");
        }
    }

    #[test]
    fn matmul_nt_fast_within_depth_bound(
        m in 4usize..32, d in 1usize..64, n in 1usize..40,
        ti in 0usize..3, seed in 0u64..100_000,
    ) {
        let _lab = KnobLab::new();
        let threads = threads_from_index(ti);
        let a = Tensor::uniform(&[m, d], -2.0, 2.0, seed);
        let bt = Tensor::uniform(&[n, d], -2.0, 2.0, seed + 1);
        let (strict, fast, scale) = matmul_triple(
            |a, b, out| kernels::matmul_nt_into(a, b, m, d, n, out),
            a.as_slice(), bt.as_slice(), m * n, threads,
        );
        if let Err(v) = ReductionBound::matmul(d).check(&fast, &strict, &scale) {
            prop_assert!(false, "matmul_nt {m}x{d}x{n} t={threads}: {v}");
        }
    }

    #[test]
    fn matmul_tn_fast_within_depth_bound(
        m in 4usize..32, d in 1usize..64, n in 1usize..40,
        ti in 0usize..3, seed in 0u64..100_000,
    ) {
        let _lab = KnobLab::new();
        let threads = threads_from_index(ti);
        let at = Tensor::uniform(&[d, m], -2.0, 2.0, seed);
        let b = Tensor::uniform(&[d, n], -2.0, 2.0, seed + 1);
        let (strict, fast, scale) = matmul_triple(
            |a, b, out| kernels::matmul_tn_into(a, b, d, m, n, out),
            at.as_slice(), b.as_slice(), m * n, threads,
        );
        if let Err(v) = ReductionBound::matmul(d).check(&fast, &strict, &scale) {
            prop_assert!(false, "matmul_tn {d}x{m}x{n} t={threads}: {v}");
        }
    }
}

/// A left operand at most a quarter nonzero runs the strict zero-skipping
/// kernel on both tiers when the output is at least 32 columns wide, so
/// `matmul_into`, `matmul_tn_into` and `matmul_nt_into` store the strict
/// bits there at every thread count, on one-hot rows and on scattered
/// nonzeros. A narrower output runs the fused tile and stays within the
/// depth bound.
#[test]
fn sparse_lhs_fast_matmul_within_depth_bound() {
    let _lab = KnobLab::new();
    for (m, k, n) in [(256, 154, 128), (64, 154, 32), (37, 70, 45), (64, 154, 16)] {
        // One-hot rows over 22 groups of 7 when k = 154, else every fifth
        // entry nonzero.
        let dense = Tensor::uniform(&[m, k], -2.0, 2.0, (m * k + n) as u64);
        let a: Vec<f32> = (0..m * k)
            .map(|idx| {
                let (i, p) = (idx / k, idx % k);
                let keep = if k == 154 {
                    p % 7 == (i + p / 7) % 7
                } else {
                    idx % 5 == 0
                };
                if keep {
                    dense.as_slice()[idx]
                } else {
                    0.0
                }
            })
            .collect();
        // The same operand read as aᵀ for `matmul_tn_into`: [k, m] stored,
        // so the product is [m, n] again with depth k.
        let mut at = vec![0.0f32; m * k];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let b = Tensor::uniform(&[k, n], -2.0, 2.0, (m + k * n) as u64);
        // `matmul_nt_into` takes b stored as bᵀ ([n, k]).
        let b_t = b.transpose();
        for threads in [1, 2, 4] {
            let runs = [
                (
                    "matmul",
                    matmul_triple(
                        |a, b, out| kernels::matmul_into(a, b, m, k, n, out),
                        &a,
                        b.as_slice(),
                        m * n,
                        threads,
                    ),
                ),
                (
                    "matmul_tn",
                    matmul_triple(
                        |a, b, out| kernels::matmul_tn_into(a, b, k, m, n, out),
                        &at,
                        b.as_slice(),
                        m * n,
                        threads,
                    ),
                ),
                (
                    "matmul_nt",
                    matmul_triple(
                        |a, b, out| kernels::matmul_nt_into(a, b, m, k, n, out),
                        &a,
                        b_t.as_slice(),
                        m * n,
                        threads,
                    ),
                ),
            ];
            for (what, (strict, fast, scale)) in runs {
                if n >= 32 {
                    let equal = strict
                        .iter()
                        .zip(&fast)
                        .all(|(s, f)| s.to_bits() == f.to_bits());
                    assert!(equal, "sparse {what} {m}x{k}x{n} t={threads}: bits differ");
                } else if let Err(v) = ReductionBound::matmul(k).check(&fast, &strict, &scale) {
                    panic!("sparse {what} {m}x{k}x{n} t={threads}: {v}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conv2d_fast_within_depth_bound(
        n in 1usize..3, cin in 1usize..4, cout in 1usize..5, hw in 5usize..9,
        ti in 0usize..3, seed in 0u64..100_000,
    ) {
        let _lab = KnobLab::new();
        let threads = threads_from_index(ti);
        let spec = Conv2dSpec { kernel: 3, stride: 1, padding: 1 };
        let ho = spec.out_size(hw);
        let tx = Tensor::uniform(&[n, cin, hw, hw], -2.0, 2.0, seed);
        let tw = Tensor::uniform(&[cout, cin, 3, 3], -2.0, 2.0, seed + 1);
        let tg = Tensor::uniform(&[n, cout, ho, ho], -2.0, 2.0, seed + 2);
        let (ax, aw, ag) = (abs_tensor(&tx), abs_tensor(&tw), abs_tensor(&tg));

        let strict_y = conv2d_forward(&tx, &tw, spec);
        let (strict_gx, strict_gw) = conv2d_backward(&tx, &tw, spec, &tg);
        let scale_y = conv2d_forward(&ax, &aw, spec);
        let (scale_gx, scale_gw) = conv2d_backward(&ax, &aw, spec, &ag);

        enter_fast(threads);
        let fast_y = conv2d_forward(&tx, &tw, spec);
        let (fast_gx, fast_gw) = conv2d_backward(&tx, &tw, spec, &tg);
        restore_defaults();

        // Reduction depths: forward cin·kh·kw; grad-input cout·kh·kw;
        // grad-weight n·ho·wo (the whole batch of output positions).
        let checks = [
            ("forward", ReductionBound::conv2d(cin, 3, 3), &fast_y, &strict_y, &scale_y),
            ("grad_input", ReductionBound::conv2d(cout, 3, 3), &fast_gx, &strict_gx, &scale_gx),
            ("grad_weight", ReductionBound::for_depth(n * ho * ho), &fast_gw, &strict_gw, &scale_gw),
        ];
        for (what, bound, fast, strict, scale) in checks {
            if let Err(v) = bound.check(fast.as_slice(), strict.as_slice(), scale.as_slice()) {
                prop_assert!(
                    false,
                    "conv2d {what} n={n} cin={cin} cout={cout} hw={hw} t={threads}: {v}"
                );
            }
        }
    }

    #[test]
    fn dwconv_fast_within_depth_bound(
        n in 1usize..3, c in 1usize..6, hw in 5usize..10,
        ti in 0usize..3, seed in 0u64..1000,
    ) {
        let _lab = KnobLab::new();
        let threads = threads_from_index(ti);
        let spec = Conv2dSpec { kernel: 3, stride: 1, padding: 1 };
        let ho = spec.out_size(hw);
        let tx = Tensor::uniform(&[n, c, hw, hw], -2.0, 2.0, seed);
        let tw = Tensor::uniform(&[c, 1, 3, 3], -2.0, 2.0, seed + 7);
        let tg = Tensor::uniform(&[n, c, ho, ho], -2.0, 2.0, seed + 13);
        let (ax, aw, ag) = (abs_tensor(&tx), abs_tensor(&tw), abs_tensor(&tg));

        let strict_y = dwconv2d_forward(&tx, &tw, spec);
        let (strict_gx, strict_gw) = dwconv2d_backward(&tx, &tw, spec, &tg);
        let scale_y = dwconv2d_forward(&ax, &aw, spec);
        let (scale_gx, scale_gw) = dwconv2d_backward(&ax, &aw, spec, &ag);

        enter_fast(threads);
        let fast_y = dwconv2d_forward(&tx, &tw, spec);
        let (fast_gx, fast_gw) = dwconv2d_backward(&tx, &tw, spec, &tg);
        restore_defaults();

        let checks = [
            ("forward", ReductionBound::dwconv(3, 3), &fast_y, &strict_y, &scale_y),
            ("grad_input", ReductionBound::dwconv(3, 3), &fast_gx, &strict_gx, &scale_gx),
            ("grad_weight", ReductionBound::for_depth(n * ho * ho), &fast_gw, &strict_gw, &scale_gw),
        ];
        for (what, bound, fast, strict, scale) in checks {
            if let Err(v) = bound.check(fast.as_slice(), strict.as_slice(), scale.as_slice()) {
                prop_assert!(false, "dwconv {what} n={n} c={c} hw={hw} t={threads}: {v}");
            }
        }
    }

    #[test]
    fn adam_fast_within_elementwise_bound(
        len in 1usize..200,
        seed in 0u64..1000,
        wdi in 0usize..2,
    ) {
        let _lab = KnobLab::new();
        let wd = [0.0f32, 0.01][wdi];
        let mk = |s| Tensor::uniform(&[len], -1.0, 1.0, s).as_slice().to_vec();
        let (w0, g) = (mk(seed), mk(seed + 1));
        let m0: Vec<f32> = mk(seed + 2).iter().map(|x| x * 0.1).collect();
        let v0: Vec<f32> = mk(seed + 3).iter().map(|x| x.abs() * 0.01).collect();
        let h = AdamUpdate {
            weight_decay: wd,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            lr: 1e-3,
            s1: 1.0 / (1.0 - 0.9f32.powi(5)),
            s2: 1.0 / (1.0 - 0.999f32.powi(5)),
        };
        let (mut ws, mut ms, mut vs) = (w0.clone(), m0.clone(), v0.clone());
        kernels::adam_update(&mut ws, &g, &mut ms, &mut vs, &h);

        enter_fast(1);
        let (mut wf, mut mf, mut vf) = (w0.clone(), m0, v0);
        kernels::adam_update(&mut wf, &g, &mut mf, &mut vf, &h);
        restore_defaults();

        // Scale: the parameter magnitude plus the biggest step Adam can
        // take (|m̂|/(√v̂+ε) ≈ 1 in steady state, so ≈ lr).
        let scale: Vec<f32> = ws.iter().map(|w| w.abs() + 10.0 * h.lr).collect();
        if let Err(v) = ReductionBound::elementwise().check(&wf, &ws, &scale) {
            prop_assert!(false, "adam len={len} wd={wd}: {v}");
        }
    }
}

/// The k-split per-thread partial-sum driver engages when the output has
/// fewer rows than `threads × tile rows` and the product is above the
/// parallel threshold — pin that for each fused tile: 6 rows run the 4×16,
/// 16 rows by 48 columns the 8×32 where the CPU has AVX-512F.
#[test]
fn ksplit_partial_sums_within_bound() {
    let _lab = KnobLab::new();
    for (m, k, n) in [(6usize, 8192usize, 48usize), (16, 4608, 48)] {
        assert!(
            m * k * n >= 1 << 21,
            "shape must cross the parallel threshold"
        );
        let a = Tensor::uniform(&[m, k], -1.0, 1.0, 42);
        let b = Tensor::uniform(&[k, n], -1.0, 1.0, 43);
        let (strict, fast, scale) = matmul_triple(
            |a, b, out| kernels::matmul_into(a, b, m, k, n, out),
            a.as_slice(),
            b.as_slice(),
            m * n,
            4,
        );
        if let Err(v) = ReductionBound::matmul(k).check(&fast, &strict, &scale) {
            panic!("k-split {m}x{k}x{n}: {v}");
        }
    }
}

/// Row-partitioned threading (every thread owns full row blocks) above the
/// parallel threshold, for each fused tile: 64 columns run the 8×32 where
/// the CPU has AVX-512F, 16 columns the 4×16.
#[test]
fn row_partitioned_threads_within_bound() {
    let _lab = KnobLab::new();
    for (m, k, n) in [(256usize, 256usize, 64usize), (512, 320, 16)] {
        assert!(m * k * n >= 1 << 21);
        let a = Tensor::uniform(&[m, k], -1.0, 1.0, 44);
        let b = Tensor::uniform(&[k, n], -1.0, 1.0, 45);
        let (strict, fast, scale) = matmul_triple(
            |a, b, out| kernels::matmul_into(a, b, m, k, n, out),
            a.as_slice(),
            b.as_slice(),
            m * n,
            4,
        );
        if let Err(v) = ReductionBound::matmul(k).check(&fast, &strict, &scale) {
            panic!("row-partitioned {m}x{k}x{n}: {v}");
        }
    }
}

/// With the SIMD dispatch forced off, fast mode has no FMA hardware path to
/// take: it must degrade to the strict kernels, bit for bit.
#[test]
fn fast_mode_with_simd_off_is_bit_identical_to_strict() {
    let _lab = KnobLab::new();
    let (m, k, n) = (32usize, 48usize, 24usize);
    let a = Tensor::uniform(&[m, k], -1.0, 1.0, 7);
    let b = Tensor::uniform(&[k, n], -1.0, 1.0, 8);
    set_simd_enabled(false);
    let mut strict = vec![0.0f32; m * n];
    kernels::matmul_into(a.as_slice(), b.as_slice(), m, k, n, &mut strict);
    set_kernel_mode(KernelMode::Fast);
    let mut fast = vec![0.0f32; m * n];
    kernels::matmul_into(a.as_slice(), b.as_slice(), m, k, n, &mut fast);
    for (i, (s, f)) in strict.iter().zip(&fast).enumerate() {
        assert_eq!(
            s.to_bits(),
            f.to_bits(),
            "fast mode must be bit-identical with SIMD off (element {i})"
        );
    }
}

/// The satellite contract in words: shrinking any shape dimension shrinks
/// the allowed divergence.
#[test]
fn bounds_tighten_monotonically_with_depth() {
    let mut last = f32::INFINITY;
    for k in [4096usize, 512, 64, 8, 1] {
        let b = ReductionBound::matmul(k);
        assert!(
            b.rel_tol < last,
            "rel_tol must shrink with k (k={k}: {} !< {last})",
            b.rel_tol
        );
        last = b.rel_tol;
    }
    assert!(ReductionBound::dwconv(3, 3).rel_tol < ReductionBound::conv2d(8, 3, 3).rel_tol);
}
