//! Property-based invariants of the tensor algebra (proptest).

use std::sync::{Mutex, PoisonError};

use proptest::prelude::*;

use lightnas_tensor::{kernels, Conv2dSpec, Graph, Tensor};

fn arb_vec(n: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn add_is_commutative(a in arb_vec(12), b in arb_vec(12)) {
        let ta = Tensor::from_vec(a, &[3, 4]);
        let tb = Tensor::from_vec(b, &[3, 4]);
        prop_assert_eq!(ta.add(&tb), tb.add(&ta));
    }

    #[test]
    fn sub_then_add_round_trips(a in arb_vec(8), b in arb_vec(8)) {
        let ta = Tensor::from_vec(a, &[8]);
        let tb = Tensor::from_vec(b, &[8]);
        let back = ta.sub(&tb).add(&tb);
        for (x, y) in back.as_slice().iter().zip(ta.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn scale_distributes_over_add(a in arb_vec(6), b in arb_vec(6), s in -5.0f32..5.0) {
        let ta = Tensor::from_vec(a, &[6]);
        let tb = Tensor::from_vec(b, &[6]);
        let left = ta.add(&tb).scale(s);
        let right = ta.scale(s).add(&tb.scale(s));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn matmul_transpose_identity(a in arb_vec(12), b in arb_vec(20)) {
        // (A B)^T = B^T A^T
        let ta = Tensor::from_vec(a, &[3, 4]);
        let tb = Tensor::from_vec(b, &[4, 5]);
        let left = ta.matmul(&tb).transpose();
        let right = tb.transpose().matmul(&ta.transpose());
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-2);
        }
    }

    #[test]
    fn matmul_is_linear_in_lhs(a in arb_vec(6), b in arb_vec(6), c in arb_vec(9)) {
        // (A + B) C = A C + B C
        let ta = Tensor::from_vec(a, &[2, 3]);
        let tb = Tensor::from_vec(b, &[2, 3]);
        let tc = Tensor::from_vec(c, &[3, 3]);
        let left = ta.add(&tb).matmul(&tc);
        let right = ta.matmul(&tc).add(&tb.matmul(&tc));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-2);
        }
    }

    #[test]
    fn sum_matches_mean_times_len(a in arb_vec(16)) {
        let t = Tensor::from_vec(a, &[16]);
        prop_assert!((t.sum() - t.mean() * 16.0).abs() < 1e-3);
    }

    #[test]
    fn conv_is_linear_in_input(x1 in arb_vec(32), x2 in arb_vec(32), w in arb_vec(18)) {
        let spec = Conv2dSpec { kernel: 3, stride: 1, padding: 1 };
        let t1 = Tensor::from_vec(x1, &[1, 2, 4, 4]);
        let t2 = Tensor::from_vec(x2, &[1, 2, 4, 4]);
        let tw = Tensor::from_vec(w, &[1, 2, 3, 3]);
        let left = lightnas_tensor::conv2d_forward(&t1.add(&t2), &tw, spec);
        let right = lightnas_tensor::conv2d_forward(&t1, &tw, spec)
            .add(&lightnas_tensor::conv2d_forward(&t2, &tw, spec));
        for (a, b) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((a - b).abs() < 1e-2);
        }
    }

    #[test]
    fn relu_output_is_nonnegative_and_idempotent(a in arb_vec(10)) {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(a, &[10]));
        let y = g.relu(x);
        let z = g.relu(y);
        prop_assert!(g.value(y).as_slice().iter().all(|&v| v >= 0.0));
        prop_assert_eq!(g.value(y).as_slice(), g.value(z).as_slice());
    }

    #[test]
    fn softmax_ce_loss_is_nonnegative(a in arb_vec(15), t in 0usize..5) {
        let mut g = Graph::new();
        let logits = g.input(Tensor::from_vec(a, &[3, 5]));
        let loss = g.softmax_cross_entropy(logits, &[t, (t + 1) % 5, (t + 2) % 5]);
        prop_assert!(g.value(loss).item() >= 0.0);
    }

    #[test]
    fn backward_is_linear_in_loss_scaling(a in arb_vec(8), s in 0.5f32..4.0) {
        // grad(s * L) = s * grad(L)
        let base = {
            let mut g = Graph::new();
            let w = g.parameter(Tensor::from_vec(a.clone(), &[8]));
            let sq = g.mul(w, w);
            let loss = g.sum(sq);
            g.backward(loss);
            g.grad(w).clone()
        };
        let scaled = {
            let mut g = Graph::new();
            let w = g.parameter(Tensor::from_vec(a, &[8]));
            let sq = g.mul(w, w);
            let sum = g.sum(sq);
            let loss = g.scale(sum, s);
            g.backward(loss);
            g.grad(w).clone()
        };
        for (b, sc) in base.as_slice().iter().zip(scaled.as_slice()) {
            prop_assert!((b * s - sc).abs() < 1e-2 * (1.0 + b.abs() * s));
        }
    }

    #[test]
    fn reshape_preserves_reductions(a in arb_vec(24)) {
        let t = Tensor::from_vec(a, &[2, 3, 4]);
        let r = t.reshape(&[6, 4]);
        prop_assert!((t.sum() - r.sum()).abs() < 1e-3);
        prop_assert_eq!(t.argmax(), r.argmax());
    }
}

// ---------------------------------------------------------------------------
// Differential kernel equivalence: the optimized compute kernels must agree
// with the retained naive reference kernels within 0 ULP — i.e. bit-for-bit.
// Shapes (batch, channels, spatial size, kernel, stride, padding) are all
// randomized; data comes from seeded uniform init so failures replay exactly.
// ---------------------------------------------------------------------------

/// Asserts two tensors are bit-identical (0 ULP), reporting the first diff.
fn assert_bits_eq(fast: &Tensor, reference: &Tensor) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.shape().dims(), reference.shape().dims());
    for (i, (f, r)) in fast.as_slice().iter().zip(reference.as_slice()).enumerate() {
        prop_assert_eq!(
            f.to_bits(),
            r.to_bits(),
            "bit mismatch at flat index {}: fast {} vs reference {}",
            i,
            f,
            r
        );
    }
    Ok(())
}

/// A `[rows, cols]` left operand: uniform data with about `zero_pct`% of
/// its entries zeroed (half of them as `-0.0`), or — when `one_hot` is set —
/// `rows` one-hot encodings of the search's width, 22 layers of 7 ops
/// (`cols` is then 154). Low densities with outputs of 32 columns or more
/// route `matmul_into` and `matmul_tn_into` through the zero-skipping
/// kernel.
fn lhs(rows: usize, cols: usize, zero_pct: u32, one_hot: bool, seed: u64) -> Tensor {
    let mix = |i: usize| {
        let mut z = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^ (z >> 29)
    };
    if one_hot {
        let width = 22 * 7;
        let mut data = vec![0.0f32; rows * width];
        for i in 0..rows {
            for layer in 0..22 {
                data[i * width + layer * 7 + (mix(i * 22 + layer) % 7) as usize] = 1.0;
            }
        }
        return Tensor::from_vec(data, &[rows, width]);
    }
    let mut a = Tensor::uniform(&[rows, cols], -2.0, 2.0, seed);
    for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
        let h = mix(i);
        if (h % 100) < u64::from(zero_pct) {
            *v = if h & (1 << 40) == 0 { 0.0 } else { -0.0 };
        }
    }
    a
}

/// Runs `check` with the SIMD kernels on (where the CPU has them) and then
/// forced off, holding a lock so no other case in this binary flips the
/// process-wide switch in between; restores the switch afterwards.
fn with_each_simd_mode(
    mut check: impl FnMut() -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    static SIMD_LOCK: Mutex<()> = Mutex::new(());
    let _guard = SIMD_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let before = lightnas_tensor::simd_enabled();
    let mut result = Ok(());
    for on in [true, false] {
        lightnas_tensor::set_simd_enabled(on);
        result = check();
        if result.is_err() {
            break;
        }
    }
    lightnas_tensor::set_simd_enabled(before);
    result
}

fn conv_out_dim(size: usize, spec: Conv2dSpec) -> usize {
    (size + 2 * spec.padding - spec.kernel) / spec.stride + 1
}

/// Random conv problem built from independently drawn parameters; `dh`/`dw`
/// pad the spatial size above the kernel so the output is non-empty for any
/// padding. Returns `(x, weight, grad_out, spec)`.
fn conv_case(
    (n, ci, co): (usize, usize, usize),
    (k, s, p): (usize, usize, usize),
    (dh, dw): (usize, usize),
    seed: u64,
) -> (Tensor, Tensor, Tensor, Conv2dSpec) {
    let spec = Conv2dSpec {
        kernel: k,
        stride: s,
        padding: p,
    };
    let (h, w) = (k + dh, k + dw);
    let x = Tensor::uniform(&[n, ci, h, w], -1.0, 1.0, seed);
    let wt = Tensor::uniform(&[co, ci, k, k], -0.5, 0.5, seed.wrapping_add(1));
    let g = Tensor::uniform(
        &[n, co, conv_out_dim(h, spec), conv_out_dim(w, spec)],
        -1.0,
        1.0,
        seed.wrapping_add(2),
    );
    (x, wt, g, spec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_matches_reference_bits(
        m in 1usize..40, k in 1usize..48, n in 1usize..80,
        zero_pct in 0u32..=100, one_hot in 0u32..4, seed in 1u64..1_000_000,
    ) {
        let a = lhs(m, k, zero_pct, one_hot == 0, seed);
        let k = a.shape().dim(1);
        let b = Tensor::uniform(&[k, n], -2.0, 2.0, seed.wrapping_add(1));
        let want = lightnas_tensor::matmul_ref(&a, &b);
        with_each_simd_mode(|| assert_bits_eq(&a.matmul(&b), &want))?;
    }

    #[test]
    fn matmul_tn_nt_match_transpose_then_reference_bits(
        d in 1usize..48, m in 1usize..40, n in 1usize..80,
        zero_pct in 0u32..=100, one_hot in 0u32..4, seed in 1u64..1_000_000,
    ) {
        // TN: `aᵀ · b` for `a` stored `[d, m]`; one-hot rows make `aᵀ` the
        // input-batch transpose of the predictor's weight gradient.
        let a = lhs(d, m, zero_pct, one_hot == 0, seed);
        let m = a.shape().dim(1);
        let b = Tensor::uniform(&[d, n], -2.0, 2.0, seed.wrapping_add(1));
        let tn_want = lightnas_tensor::matmul_ref(&a.transpose(), &b);
        // NT: `x · yᵀ` for a sparse `x` (`[d, m]`) and `y` stored `[n, m]`.
        let y = Tensor::uniform(&[n, m], -2.0, 2.0, seed.wrapping_add(2));
        let nt_want = lightnas_tensor::matmul_ref(&a, &y.transpose());
        with_each_simd_mode(|| {
            let mut tn = vec![f32::NAN; m * n];
            kernels::matmul_tn_into(a.as_slice(), b.as_slice(), d, m, n, &mut tn);
            assert_bits_eq(&Tensor::from_vec(tn, &[m, n]), &tn_want)?;
            let mut nt = vec![f32::NAN; d * n];
            kernels::matmul_nt_into(a.as_slice(), y.as_slice(), d, m, n, &mut nt);
            assert_bits_eq(&Tensor::from_vec(nt, &[d, n]), &nt_want)
        })?;
    }

    #[test]
    fn conv_forward_matches_reference_bits(
        n in 1usize..=3, ci in 1usize..=5, co in 1usize..=6,
        k in 1usize..=4, s in 1usize..=2, p in 0usize..=2,
        dh in 0usize..8, dw in 0usize..8, seed in 1u64..1_000_000,
    ) {
        let (x, wt, _, spec) = conv_case((n, ci, co), (k, s, p), (dh, dw), seed);
        assert_bits_eq(
            &lightnas_tensor::conv2d_forward(&x, &wt, spec),
            &lightnas_tensor::conv2d_forward_ref(&x, &wt, spec),
        )?;
    }

    #[test]
    fn conv_backward_matches_reference_bits(
        n in 1usize..=3, ci in 1usize..=5, co in 1usize..=6,
        k in 1usize..=4, s in 1usize..=2, p in 0usize..=2,
        dh in 0usize..8, dw in 0usize..8, seed in 1u64..1_000_000,
    ) {
        let (x, wt, g, spec) = conv_case((n, ci, co), (k, s, p), (dh, dw), seed);
        let (gx, gw) = lightnas_tensor::conv2d_backward(&x, &wt, spec, &g);
        let (gx_ref, gw_ref) = lightnas_tensor::conv2d_backward_ref(&x, &wt, spec, &g);
        assert_bits_eq(&gx, &gx_ref)?;
        assert_bits_eq(&gw, &gw_ref)?;
    }

    #[test]
    fn dwconv_matches_reference_bits(
        n in 1usize..=3, c in 1usize..=6,
        k in 1usize..=4, s in 1usize..=2, p in 0usize..=2,
        dh in 0usize..8, dw in 0usize..8, seed in 1u64..1_000_000,
    ) {
        // Depthwise: one [1, k, k] filter per channel.
        let spec = Conv2dSpec { kernel: k, stride: s, padding: p };
        let (h, w) = (k + dh, k + dw);
        let x = Tensor::uniform(&[n, c, h, w], -1.0, 1.0, seed);
        let wt = Tensor::uniform(&[c, 1, k, k], -0.5, 0.5, seed.wrapping_add(1));
        let g = Tensor::uniform(
            &[n, c, conv_out_dim(h, spec), conv_out_dim(w, spec)],
            -1.0,
            1.0,
            seed.wrapping_add(2),
        );
        assert_bits_eq(
            &lightnas_tensor::dwconv2d_forward(&x, &wt, spec),
            &lightnas_tensor::dwconv2d_forward_ref(&x, &wt, spec),
        )?;
        let (gx, gw) = lightnas_tensor::dwconv2d_backward(&x, &wt, spec, &g);
        let (gx_ref, gw_ref) = lightnas_tensor::dwconv2d_backward_ref(&x, &wt, spec, &g);
        assert_bits_eq(&gx, &gx_ref)?;
        assert_bits_eq(&gw, &gw_ref)?;
    }
}
