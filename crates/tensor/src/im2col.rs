//! im2col-based convolution: the fast path used by the autograd engine.
//!
//! The naive loops in [`crate::tensor`] (`*_ref`) are the *reference*
//! implementation; these functions compute the same convolutions by
//! materializing the patch matrix and reducing to the blocked GEMM in
//! [`crate::kernels`], which is substantially faster at training scale.
//! All scratch matrices (patch matrix, transposed weight, GEMM product)
//! come from the thread-local [`crate::kernels::TensorPool`], and the
//! lowering/scatter passes are distributed over batch entries with
//! [`crate::kernels::par_chunks`] — each batch entry is written by exactly
//! one thread in a fixed order, so results are byte-identical to the
//! reference kernels (for finite inputs) at any thread count. Equality is
//! enforced by unit tests here and bit-exact property tests in
//! `tests/proptests.rs`.

use crate::kernels::{self, with_pool};
use crate::tensor::Conv2dSpec;
use crate::Tensor;

/// Elements below which the memory-bound lowering passes stay serial.
const LOWER_PAR_MIN: usize = 1 << 16;

fn lower_threads(total: usize) -> usize {
    if total < LOWER_PAR_MIN {
        1
    } else {
        kernels::num_threads()
    }
}

/// Fills the patch-matrix rows of batch entry `b` into `chunk`
/// (`[ho·wo, c·k·k]`, already zeroed — padding positions stay zero).
fn im2col_fill(
    x: &[f32],
    chunk: &mut [f32],
    b: usize,
    c: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
) {
    let k = spec.kernel;
    let (ho, wo) = (spec.out_size(h), spec.out_size(w));
    let cols = c * k * k;
    for oy in 0..ho {
        for ox in 0..wo {
            let row = (oy * wo + ox) * cols;
            for ci in 0..c {
                for ky in 0..k {
                    let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let x_base = ((b * c + ci) * h + iy as usize) * w;
                    let o_base = row + (ci * k + ky) * k;
                    for kx in 0..k {
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        chunk[o_base + kx] = x[x_base + ix as usize];
                    }
                }
            }
        }
    }
}

/// Scatters batch entry `b`'s patch-matrix gradient rows (`rows`, laid out
/// `[ho·wo, c·k·k]`) into that entry's input-gradient plane `chunk`
/// (`[c, h, w]`), accumulating in the serial reference order.
fn col2im_fill(rows: &[f32], chunk: &mut [f32], c: usize, h: usize, w: usize, spec: Conv2dSpec) {
    let k = spec.kernel;
    let (ho, wo) = (spec.out_size(h), spec.out_size(w));
    let cols = c * k * k;
    for oy in 0..ho {
        for ox in 0..wo {
            let row = (oy * wo + ox) * cols;
            for ci in 0..c {
                for ky in 0..k {
                    let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let o_base = (ci * h + iy as usize) * w;
                    let g_base = row + (ci * k + ky) * k;
                    for kx in 0..k {
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        chunk[o_base + ix as usize] += rows[g_base + kx];
                    }
                }
            }
        }
    }
}

/// Lowers `input` (`[n, c, h, w]`) into `out` — the patch matrix of shape
/// `[n·h_out·w_out, c·k·k]` (rows are output positions, columns are the
/// receptive-field elements, zero-padded out of bounds). `out` must be
/// zeroed and exactly that long.
fn im2col_into(input: &Tensor, spec: Conv2dSpec, out: &mut [f32]) {
    let (n, c, h, w) = dims4(input);
    let k = spec.kernel;
    let (ho, wo) = (spec.out_size(h), spec.out_size(w));
    let per_batch = ho * wo * c * k * k;
    assert_eq!(out.len(), n * per_batch, "im2col output length mismatch");
    let x = input.as_slice();
    kernels::par_chunks(out, per_batch, lower_threads(n * per_batch), |b, chunk| {
        im2col_fill(x, chunk, b, c, h, w, spec);
    });
}

/// Lowers `input` (`[n, c, h, w]`) to the patch matrix of shape
/// `[n·h_out·w_out, c·k·k]` (rows are output positions, columns are the
/// receptive-field elements, zero-padded out of bounds).
pub fn im2col(input: &Tensor, spec: Conv2dSpec) -> Tensor {
    let (n, c, h, w) = dims4(input);
    let k = spec.kernel;
    let (ho, wo) = (spec.out_size(h), spec.out_size(w));
    let mut out = Tensor::zeros(&[n * ho * wo, c * k * k]);
    im2col_into(input, spec, out.as_mut_slice());
    out
}

/// Inverse scatter of [`im2col`]: accumulates a patch-matrix gradient back
/// into input space (`[n, c, h, w]`).
pub fn col2im(
    cols_grad: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
) -> Tensor {
    let k = spec.kernel;
    let (ho, wo) = (spec.out_size(h), spec.out_size(w));
    let cols = c * k * k;
    assert_eq!(
        cols_grad.shape().dims(),
        [n * ho * wo, cols],
        "col2im gradient shape mismatch"
    );
    let mut out = Tensor::zeros(&[n, c, h, w]);
    let g = cols_grad.as_slice();
    let per_in = c * h * w;
    let per_rows = ho * wo * cols;
    kernels::par_chunks(
        out.as_mut_slice(),
        per_in,
        lower_threads(n * per_rows),
        |b, chunk| {
            col2im_fill(&g[b * per_rows..(b + 1) * per_rows], chunk, c, h, w, spec);
        },
    );
    out
}

/// im2col-backed full convolution; byte-identical to
/// [`crate::conv2d_forward_ref`] for finite inputs.
pub fn conv2d_forward_fast(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> Tensor {
    let (n, _, h, w) = dims4(input);
    let (c_out, _, _, _) = dims4(weight);
    let (ho, wo) = (spec.out_size(h), spec.out_size(w));
    let mut out = Tensor::zeros(&[n, c_out, ho, wo]);
    conv2d_forward_into(input, weight, spec, out.as_mut_slice());
    out
}

/// [`conv2d_forward_fast`] writing into a caller-provided buffer of exactly
/// `n · c_out · h_out · w_out` elements (every element is overwritten). Used
/// by the autograd tape to target pooled storage.
pub(crate) fn conv2d_forward_into(
    input: &Tensor,
    weight: &Tensor,
    spec: Conv2dSpec,
    out: &mut [f32],
) {
    let (n, c_in, h, w) = dims4(input);
    let (c_out, c_in_w, kh, kw) = dims4(weight);
    assert_eq!(
        c_in, c_in_w,
        "conv2d channel mismatch: input {c_in} vs weight {c_in_w}"
    );
    assert_eq!(
        kh, spec.kernel,
        "weight kernel {kh} != spec {}",
        spec.kernel
    );
    assert_eq!(
        kw, spec.kernel,
        "weight kernel {kw} != spec {}",
        spec.kernel
    );
    let (ho, wo) = (spec.out_size(h), spec.out_size(w));
    let (hw, ck2) = (ho * wo, c_in * kh * kw);
    let rows = n * hw;
    assert_eq!(out.len(), n * c_out * hw, "conv2d output length mismatch");
    // [n·ho·wo, cin·k·k] x [cin·k·k, cout] = [n·ho·wo, cout]. Pool borrows
    // are short-lived — the GEMM takes its own scratch from the same pool.
    let mut cols = with_pool(|pool| pool.take_zeroed(rows * ck2));
    im2col_into(input, spec, &mut cols);
    // prod = cols · weightᵀ; the weight is already the [cout, cin·k·k]
    // matrix, which the NT variant transposes into a pooled buffer.
    // The GEMM overwrites every element of `prod`: no zeroing needed.
    let mut prod = with_pool(|pool| pool.take_filled(rows * c_out));
    kernels::matmul_nt_into(&cols, weight.as_slice(), rows, ck2, c_out, &mut prod);
    // Transpose the channel axis into NCHW order, one batch entry per chunk.
    let p = &prod;
    kernels::par_chunks(out, c_out * hw, lower_threads(rows * c_out), |b, chunk| {
        for pos in 0..hw {
            let row = (b * hw + pos) * c_out;
            for co in 0..c_out {
                chunk[co * hw + pos] = p[row + co];
            }
        }
    });
    with_pool(|pool| {
        pool.recycle(cols);
        pool.recycle(prod);
    });
}

/// im2col-backed backward pass; byte-identical to
/// [`crate::conv2d_backward_ref`] for finite inputs. Returns
/// `(grad_input, grad_weight)`.
pub fn conv2d_backward_fast(
    input: &Tensor,
    weight: &Tensor,
    spec: Conv2dSpec,
    grad_out: &Tensor,
) -> (Tensor, Tensor) {
    let (n, c_in, h, w) = dims4(input);
    let (c_out, _, kh, kw) = dims4(weight);
    let mut gx = Tensor::zeros(&[n, c_in, h, w]);
    let mut gw = Tensor::zeros(&[c_out, c_in, kh, kw]);
    conv2d_backward_into(
        input,
        weight,
        spec,
        grad_out,
        gx.as_mut_slice(),
        gw.as_mut_slice(),
    );
    (gx, gw)
}

/// [`conv2d_backward_fast`] writing into caller-provided **zeroed** buffers
/// (`gx` accumulates scattered contributions; `gw` is fully overwritten by
/// the GEMM). Used by the autograd tape to target pooled storage.
pub(crate) fn conv2d_backward_into(
    input: &Tensor,
    weight: &Tensor,
    spec: Conv2dSpec,
    grad_out: &Tensor,
    gx: &mut [f32],
    gw: &mut [f32],
) {
    let (n, c_in, h, w) = dims4(input);
    let (c_out, _, kh, kw) = dims4(weight);
    let (gn, gc, ho, wo) = dims4(grad_out);
    assert_eq!(
        (gn, gc),
        (n, c_out),
        "conv2d grad_out batch/channel mismatch"
    );
    let (hw, ck2) = (ho * wo, c_in * kh * kw);
    let rows = n * hw;
    assert_eq!(gx.len(), n * c_in * h * w, "grad_input length mismatch");
    assert_eq!(gw.len(), c_out * ck2, "grad_weight length mismatch");
    // grad_out in [n·ho·wo, cout] layout, one batch entry per chunk. Pool
    // borrows are short-lived — the GEMMs take their own scratch.
    // Fully overwritten by the scatter below: no zeroing needed.
    let mut g_mat = with_pool(|pool| pool.take_filled(rows * c_out));
    {
        let g = grad_out.as_slice();
        kernels::par_chunks(
            &mut g_mat,
            hw * c_out,
            lower_threads(rows * c_out),
            |b, chunk| {
                for co in 0..c_out {
                    for pos in 0..hw {
                        chunk[pos * c_out + co] = g[(b * c_out + co) * hw + pos];
                    }
                }
            },
        );
    }
    let mut cols = with_pool(|pool| pool.take_zeroed(rows * ck2));
    im2col_into(input, spec, &mut cols);
    // grad_weight = g_mat^T · cols  -> [cout, cin·k·k]; the TN variant
    // reads g_mat's columns in place, so no transpose materializes.
    kernels::matmul_tn_into(&g_mat, &cols, rows, c_out, ck2, gw);
    // grad_cols = g_mat · w_mat    -> [n·ho·wo, cin·k·k]; the weight is
    // already laid out as the [cout, cin·k·k] matrix.
    let mut g_cols = with_pool(|pool| pool.take_filled(rows * ck2));
    kernels::matmul_into(&g_mat, weight.as_slice(), rows, c_out, ck2, &mut g_cols);
    let per_in = c_in * h * w;
    let per_rows = hw * ck2;
    let gc_ref = &g_cols;
    kernels::par_chunks(gx, per_in, lower_threads(rows * ck2), |b, chunk| {
        col2im_fill(
            &gc_ref[b * per_rows..(b + 1) * per_rows],
            chunk,
            c_in,
            h,
            w,
            spec,
        );
    });
    with_pool(|pool| {
        pool.recycle(g_mat);
        pool.recycle(cols);
        pool.recycle(g_cols);
    });
}

fn dims4(t: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(
        t.shape().rank(),
        4,
        "expected rank-4 tensor, got {}",
        t.shape()
    );
    (
        t.shape().dim(0),
        t.shape().dim(1),
        t.shape().dim(2),
        t.shape().dim(3),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{conv2d_backward_ref, conv2d_forward_ref};

    fn bits_eq(a: &Tensor, b: &Tensor) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn forward_matches_reference_across_shapes() {
        for (n, c_in, c_out, h, k, stride, padding, seed) in [
            (1, 1, 1, 5, 3, 1, 1, 1u64),
            (2, 3, 4, 8, 3, 2, 1, 2),
            (1, 4, 2, 7, 5, 1, 2, 3),
            (3, 2, 5, 6, 1, 1, 0, 4),
            (1, 3, 3, 9, 7, 2, 3, 5),
        ] {
            let spec = Conv2dSpec {
                kernel: k,
                stride,
                padding,
            };
            let x = Tensor::uniform(&[n, c_in, h, h], -1.0, 1.0, seed);
            let w = Tensor::uniform(&[c_out, c_in, k, k], -0.5, 0.5, seed + 100);
            let fast = conv2d_forward_fast(&x, &w, spec);
            let reference = conv2d_forward_ref(&x, &w, spec);
            assert!(
                bits_eq(&fast, &reference),
                "bit mismatch at k={k} s={stride} p={padding}"
            );
        }
    }

    #[test]
    fn backward_matches_reference_bits() {
        let spec = Conv2dSpec {
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let x = Tensor::uniform(&[2, 3, 8, 8], -1.0, 1.0, 7);
        let w = Tensor::uniform(&[4, 3, 3, 3], -0.5, 0.5, 8);
        let y = conv2d_forward_ref(&x, &w, spec);
        let g = Tensor::uniform(y.shape().dims(), -1.0, 1.0, 9);
        let (gx_fast, gw_fast) = conv2d_backward_fast(&x, &w, spec, &g);
        let (gx_ref, gw_ref) = conv2d_backward_ref(&x, &w, spec, &g);
        assert!(bits_eq(&gx_fast, &gx_ref), "grad_input bit mismatch");
        assert!(bits_eq(&gw_fast, &gw_ref), "grad_weight bit mismatch");
    }

    #[test]
    fn im2col_col2im_adjointness() {
        // <im2col(x), y> == <x, col2im(y)> — the two lowering maps are
        // transposes of each other.
        let spec = Conv2dSpec {
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let x = Tensor::uniform(&[1, 2, 5, 5], -1.0, 1.0, 11);
        let cols = im2col(&x, spec);
        let y = Tensor::uniform(cols.shape().dims(), -1.0, 1.0, 12);
        let lhs: f32 = cols
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let back = col2im(&y, 1, 2, 5, 5, spec);
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-3,
            "adjointness broken: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn patch_matrix_shape() {
        let spec = Conv2dSpec {
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let cols = im2col(&x, spec);
        assert_eq!(cols.shape().dims(), &[2 * 4 * 4, 3 * 9]);
    }
}
