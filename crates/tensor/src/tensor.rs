//! Owned dense `f32` tensors and the raw compute kernels used by autograd.

use std::fmt;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::Shape;

/// An owned, contiguous, row-major `f32` tensor with a dynamic shape.
///
/// All arithmetic is eager and allocates the result. Elementwise binary
/// operations require identical shapes (there is no implicit broadcasting —
/// the few broadcast patterns the reproduction needs, e.g. bias addition,
/// have dedicated methods so shape errors surface at the call-site).
///
/// # Example
///
/// ```
/// use lightnas_tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = Tensor::full(&[2, 2], 10.0);
/// assert_eq!(a.add(&b).as_slice(), &[11.0, 12.0, 13.0, 14.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the number of elements of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let shape = Shape::new(shape);
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.len()
        );
        Self { data, shape }
    }

    /// A tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// A tensor of ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let shape = Shape::new(shape);
        Self {
            data: vec![value; shape.len()],
            shape,
        }
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Self {
            data: vec![value],
            shape: Shape::scalar(),
        }
    }

    /// A tensor with elements drawn i.i.d. from `U(lo, hi)`, seeded.
    pub fn uniform(shape: &[usize], lo: f32, hi: f32, seed: u64) -> Self {
        let shape = Shape::new(shape);
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..shape.len()).map(|_| rng.random_range(lo..hi)).collect();
        Self { data, shape }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Sets the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let off = self.shape.offset(idx);
        self.data[off] = value;
    }

    /// The single value of a scalar or one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() on tensor with {} elements",
            self.data.len()
        );
        self.data[0]
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Self {
        Self::from_vec(self.data.clone(), shape)
    }

    fn zip_map(&self, other: &Self, op: &str, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch in {op}: {} vs {}",
            self.shape, other.shape
        );
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Self {
            data,
            shape: self.shape.clone(),
        }
    }

    /// Elementwise sum. Panics on shape mismatch.
    pub fn add(&self, other: &Self) -> Self {
        self.zip_map(other, "add", |a, b| a + b)
    }

    /// Elementwise difference. Panics on shape mismatch.
    pub fn sub(&self, other: &Self) -> Self {
        self.zip_map(other, "sub", |a, b| a - b)
    }

    /// Elementwise product. Panics on shape mismatch.
    pub fn mul(&self, other: &Self) -> Self {
        self.zip_map(other, "mul", |a, b| a * b)
    }

    /// Elementwise quotient. Panics on shape mismatch.
    pub fn div(&self, other: &Self) -> Self {
        self.zip_map(other, "div", |a, b| a / b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// Applies `f` to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// In-place `self += other * s` (axpy). Panics on shape mismatch.
    pub fn add_scaled_assign(&mut self, other: &Self, s: f32) {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch in add_scaled_assign: {} vs {}",
            self.shape, other.shape
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b * s;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Largest element. Panics if the tensor is empty.
    pub fn max(&self) -> f32 {
        assert!(!self.data.is_empty(), "max() on empty tensor");
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the largest element (first on ties). Panics if empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax() on empty tensor");
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// L2 norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Matrix multiplication of 2-D tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// Computed by the blocked GEMM in [`crate::kernels`]; byte-identical to
    /// the naive triple loop ([`crate::kernels::matmul_ref`]) for finite
    /// inputs and across thread counts. Operands with an empty dimension
    /// (`m`, `k` or `n` of 0) yield a well-formed empty or all-zero result.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank-2 or the inner dimensions differ.
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(
            self.shape.rank(),
            2,
            "matmul lhs must be rank-2, got {}",
            self.shape
        );
        assert_eq!(
            other.shape.rank(),
            2,
            "matmul rhs must be rank-2, got {}",
            other.shape
        );
        let (m, k) = (self.shape.dim(0), self.shape.dim(1));
        let (k2, n) = (other.shape.dim(0), other.shape.dim(1));
        assert_eq!(
            k, k2,
            "matmul inner dimension mismatch: {} vs {}",
            self.shape, other.shape
        );
        let mut out = vec![0.0f32; m * n];
        crate::kernels::matmul_into(&self.data, &other.data, m, k, n, &mut out);
        Self::from_vec(out, &[m, n])
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2.
    pub fn transpose(&self) -> Self {
        assert_eq!(
            self.shape.rank(),
            2,
            "transpose requires rank-2, got {}",
            self.shape
        );
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Self::from_vec(out, &[n, m])
    }

    /// Draws `count` distinct random row indices and returns the stacked rows
    /// of a rank-2 tensor (sampling without replacement).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2 or `count` exceeds the row count.
    pub fn sample_rows(&self, count: usize, seed: u64) -> Self {
        assert_eq!(
            self.shape.rank(),
            2,
            "sample_rows requires rank-2, got {}",
            self.shape
        );
        let rows = self.shape.dim(0);
        let cols = self.shape.dim(1);
        assert!(count <= rows, "cannot sample {count} rows from {rows}");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut idx: Vec<usize> = (0..rows).collect();
        // Partial Fisher-Yates: only the first `count` positions are needed.
        for i in 0..count {
            let j = rng.random_range(i..rows);
            idx.swap(i, j);
        }
        let mut data = Vec::with_capacity(count * cols);
        for &r in &idx[..count] {
            data.extend_from_slice(&self.data[r * cols..(r + 1) * cols]);
        }
        Self::from_vec(data, &[count, cols])
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={}, ", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, "data={:?})", self.data)
        } else {
            write!(
                f,
                "data=[{}, {}, ..; {}])",
                self.data[0],
                self.data[1],
                self.data.len()
            )
        }
    }
}

/// Parameters of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Square kernel size.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding on every spatial border.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Output spatial size for an input of spatial size `n`.
    ///
    /// # Panics
    ///
    /// Panics if the padded input is smaller than the kernel.
    pub fn out_size(&self, n: usize) -> usize {
        let padded = n + 2 * self.padding;
        assert!(
            padded >= self.kernel,
            "input {n} too small for kernel {} / padding {}",
            self.kernel,
            self.padding
        );
        (padded - self.kernel) / self.stride + 1
    }
}

/// Full (grouped = 1) 2-D convolution forward pass.
///
/// `input` is `[n, c_in, h, w]`, `weight` is `[c_out, c_in, k, k]`; the result
/// is `[n, c_out, h_out, w_out]`.
///
/// Computed through the im2col + GEMM path ([`crate::im2col`]); byte-identical
/// to the naive reference loops in [`conv2d_forward_ref`] for finite inputs.
///
/// # Panics
///
/// Panics on any rank or channel mismatch.
pub fn conv2d_forward(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> Tensor {
    crate::im2col::conv2d_forward_fast(input, weight, spec)
}

/// Backward pass of [`conv2d_forward`]: returns `(grad_input, grad_weight)`.
///
/// Computed through the im2col + GEMM path; byte-identical to
/// [`conv2d_backward_ref`] for finite inputs.
///
/// # Panics
///
/// Panics on any rank or shape mismatch between the stored forward operands
/// and the incoming gradient.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    spec: Conv2dSpec,
    grad_out: &Tensor,
) -> (Tensor, Tensor) {
    crate::im2col::conv2d_backward_fast(input, weight, spec, grad_out)
}

/// Reference convolution forward pass: the naive 7-deep loop, kept as the
/// oracle for the differential property tests. Serial, no blocking.
pub fn conv2d_forward_ref(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> Tensor {
    let (n, c_in, h, w) = dims4(input, "conv2d input");
    let (c_out, c_in_w, kh, kw) = dims4(weight, "conv2d weight");
    assert_eq!(
        c_in, c_in_w,
        "conv2d channel mismatch: input {c_in} vs weight {c_in_w}"
    );
    assert_eq!(
        kh, spec.kernel,
        "weight kernel height {kh} != spec kernel {}",
        spec.kernel
    );
    assert_eq!(
        kw, spec.kernel,
        "weight kernel width {kw} != spec kernel {}",
        spec.kernel
    );
    let (ho, wo) = (spec.out_size(h), spec.out_size(w));
    let mut out = Tensor::zeros(&[n, c_out, ho, wo]);
    let x = input.as_slice();
    let k = weight.as_slice();
    let o = out.as_mut_slice();
    for b in 0..n {
        for co in 0..c_out {
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut acc = 0.0f32;
                    for ci in 0..c_in {
                        for ky in 0..kh {
                            let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let xi = ((b * c_in + ci) * h + iy as usize) * w + ix as usize;
                                let wi = ((co * c_in + ci) * kh + ky) * kw + kx;
                                acc += x[xi] * k[wi];
                            }
                        }
                    }
                    o[((b * c_out + co) * ho + oy) * wo + ox] = acc;
                }
            }
        }
    }
    out
}

/// Reference convolution backward pass: naive loops arranged to accumulate
/// in the *same per-element order* as the im2col path, so the differential
/// tests can demand bit equality rather than a tolerance.
///
/// `grad_weight[co, ci, ky, kx]` sums `g · x` over output positions in
/// ascending `(b, oy, ox)` order (matching the `g_matᵀ · cols` GEMM), and
/// `grad_input` receives, per output position in ascending `(b, oy, ox)`
/// order, the kernel-window contribution whose inner reduction over `co` is
/// itself ascending (matching `g_mat · w_mat` followed by col2im).
pub fn conv2d_backward_ref(
    input: &Tensor,
    weight: &Tensor,
    spec: Conv2dSpec,
    grad_out: &Tensor,
) -> (Tensor, Tensor) {
    let (n, c_in, h, w) = dims4(input, "conv2d input");
    let (c_out, _, kh, kw) = dims4(weight, "conv2d weight");
    let (gn, gc, ho, wo) = dims4(grad_out, "conv2d grad_out");
    assert_eq!(
        (gn, gc),
        (n, c_out),
        "conv2d grad_out batch/channel mismatch"
    );
    let mut gx = Tensor::zeros(&[n, c_in, h, w]);
    let mut gw = Tensor::zeros(&[c_out, c_in, kh, kw]);
    let x = input.as_slice();
    let k = weight.as_slice();
    let go = grad_out.as_slice();
    let gxd = gx.as_mut_slice();
    let gwd = gw.as_mut_slice();
    for b in 0..n {
        for co in 0..c_out {
            for oy in 0..ho {
                for ox in 0..wo {
                    let g = go[((b * c_out + co) * ho + oy) * wo + ox];
                    if g == 0.0 {
                        continue;
                    }
                    for ci in 0..c_in {
                        for ky in 0..kh {
                            let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let xi = ((b * c_in + ci) * h + iy as usize) * w + ix as usize;
                                let wi = ((co * c_in + ci) * kh + ky) * kw + kx;
                                gwd[wi] += g * x[xi];
                            }
                        }
                    }
                }
            }
        }
        // grad_input: one pass per output position, reducing over `co`
        // first — the order col2im applies the `g_mat · w_mat` rows in.
        for oy in 0..ho {
            for ox in 0..wo {
                for ci in 0..c_in {
                    for ky in 0..kh {
                        let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let mut acc = 0.0f32;
                            for co in 0..c_out {
                                let g = go[((b * c_out + co) * ho + oy) * wo + ox];
                                let wi = ((co * c_in + ci) * kh + ky) * kw + kx;
                                acc += g * k[wi];
                            }
                            let xi = ((b * c_in + ci) * h + iy as usize) * w + ix as usize;
                            gxd[xi] += acc;
                        }
                    }
                }
            }
        }
    }
    (gx, gw)
}

/// Work (in multiply-adds) below which depthwise kernels stay serial.
const DW_PAR_MIN_FLOPS: usize = 1 << 18;

/// Depthwise 2-D convolution forward pass (groups = channels).
///
/// `input` is `[n, c, h, w]`, `weight` is `[c, 1, k, k]`; the result keeps the
/// channel count: `[n, c, h_out, w_out]`.
///
/// Channel planes are independent, so they are distributed over scoped
/// threads ([`crate::kernels::par_chunks`]) when the work is large enough;
/// each plane keeps the serial loop order, so the output is byte-identical
/// to [`dwconv2d_forward_ref`] at any thread count.
///
/// # Panics
///
/// Panics on rank or channel mismatches.
pub fn dwconv2d_forward(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> Tensor {
    let (n, c, h, w) = dims4(input, "dwconv input");
    let (ho, wo) = (spec.out_size(h), spec.out_size(w));
    let mut out = Tensor::zeros(&[n, c, ho, wo]);
    dwconv2d_forward_into(input, weight, spec, out.as_mut_slice());
    out
}

/// [`dwconv2d_forward`] writing into a caller-provided buffer (every element
/// is overwritten), so the autograd tape can reuse pooled storage.
pub(crate) fn dwconv2d_forward_into(
    input: &Tensor,
    weight: &Tensor,
    spec: Conv2dSpec,
    out: &mut [f32],
) {
    let (n, c, h, w) = dims4(input, "dwconv input");
    let (cw, one, kh, kw) = dims4(weight, "dwconv weight");
    assert_eq!(c, cw, "dwconv channel mismatch: input {c} vs weight {cw}");
    assert_eq!(one, 1, "dwconv weight must be [c, 1, k, k]");
    let (ho, wo) = (spec.out_size(h), spec.out_size(w));
    assert_eq!(out.len(), n * c * ho * wo, "dwconv output length mismatch");
    let x = input.as_slice();
    let k = weight.as_slice();
    let threads = if n * c * ho * wo * kh * kw < DW_PAR_MIN_FLOPS {
        1
    } else {
        crate::kernels::num_threads()
    };
    let use_simd = spec.stride == 1 && crate::simd::simd_enabled();
    let fast = crate::mode::fast_active();
    // One chunk per (batch, channel) output plane.
    crate::kernels::par_chunks(out, ho * wo, threads, |plane, o| {
        let (b, ch) = (plane / c, plane % c);
        if use_simd {
            // Row-accumulate form (stride 1): the output row is the
            // accumulator buffer and each valid tap does one contiguous
            // `o[lo..hi] += w * x_row[..]` update. Lane `ox` consumes the
            // same taps in the same ascending `(ky, kx)` order as the
            // gather loop below, with one accumulator per element, so the
            // bits are identical — only the loop nesting changed.
            let pad = spec.padding;
            for oy in 0..ho {
                let orow = &mut o[oy * wo..(oy + 1) * wo];
                orow.fill(0.0);
                for ky in 0..kh {
                    let iy = (oy + ky) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let xrow = ((b * c + ch) * h + iy as usize) * w;
                    for kx in 0..kw {
                        let lo = pad.saturating_sub(kx);
                        let hi = (w + pad).saturating_sub(kx).min(wo);
                        if lo >= hi {
                            continue;
                        }
                        let wgt = k[(ch * kh + ky) * kw + kx];
                        let xs = &x[xrow + lo + kx - pad..xrow + hi + kx - pad];
                        let done = crate::simd::axpy_row(true, fast, &mut orow[lo..hi], xs, wgt);
                        if !done {
                            for (oo, &xv) in orow[lo..hi].iter_mut().zip(xs) {
                                *oo += wgt * xv;
                            }
                        }
                    }
                }
            }
            return;
        }
        for oy in 0..ho {
            for ox in 0..wo {
                let mut acc = 0.0f32;
                for ky in 0..kh {
                    let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..kw {
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        let xi = ((b * c + ch) * h + iy as usize) * w + ix as usize;
                        let wi = (ch * kh + ky) * kw + kx;
                        acc += x[xi] * k[wi];
                    }
                }
                o[oy * wo + ox] = acc;
            }
        }
    });
}

/// Backward pass of [`dwconv2d_forward`]: returns `(grad_input, grad_weight)`.
///
/// `grad_input` planes are distributed over `(batch, channel)`;
/// `grad_weight` blocks over `channel` (each thread owns whole channels and
/// walks the batch in ascending order, preserving the serial accumulation
/// order). Byte-identical to [`dwconv2d_backward_ref`] at any thread count.
///
/// # Panics
///
/// Panics on rank or shape mismatches.
pub fn dwconv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    spec: Conv2dSpec,
    grad_out: &Tensor,
) -> (Tensor, Tensor) {
    let (n, c, h, w) = dims4(input, "dwconv input");
    let (_, _, kh, kw) = dims4(weight, "dwconv weight");
    let mut gx = Tensor::zeros(&[n, c, h, w]);
    let mut gw = Tensor::zeros(&[c, 1, kh, kw]);
    dwconv2d_backward_into(
        input,
        weight,
        spec,
        grad_out,
        gx.as_mut_slice(),
        gw.as_mut_slice(),
    );
    (gx, gw)
}

/// [`dwconv2d_backward`] writing into caller-provided buffers. Both `gx` and
/// `gw` must be zero-filled on entry (the kernels accumulate into them).
pub(crate) fn dwconv2d_backward_into(
    input: &Tensor,
    weight: &Tensor,
    spec: Conv2dSpec,
    grad_out: &Tensor,
    gx: &mut [f32],
    gw: &mut [f32],
) {
    let (n, c, h, w) = dims4(input, "dwconv input");
    let (_, _, kh, kw) = dims4(weight, "dwconv weight");
    let (gn, gc, ho, wo) = dims4(grad_out, "dwconv grad_out");
    assert_eq!((gn, gc), (n, c), "dwconv grad_out shape mismatch");
    assert_eq!(gx.len(), n * c * h * w, "dwconv grad_input length mismatch");
    assert_eq!(gw.len(), c * kh * kw, "dwconv grad_weight length mismatch");
    let x = input.as_slice();
    let k = weight.as_slice();
    let go = grad_out.as_slice();
    let threads = if n * c * ho * wo * kh * kw < DW_PAR_MIN_FLOPS {
        1
    } else {
        crate::kernels::num_threads()
    };
    let use_simd = spec.stride == 1 && crate::simd::simd_enabled();
    let fast = crate::mode::fast_active();
    crate::kernels::par_chunks(gx, h * w, threads, |plane, gxp| {
        let (b, ch) = (plane / c, plane % c);
        if use_simd {
            // Row-scatter form (stride 1). The scalar loop below delivers
            // contributions to a given `gx[iy][ix]` in ascending `(oy, ox)`
            // order (one `(ky, kx)` pair per output element). Here `oy`
            // stays outermost; for a fixed `(oy, ky)` the lane `ix = ox +
            // kx - pad` receives from ascending `ox` iff `kx` descends, so
            // the tap loop runs in reverse to keep every per-element chain
            // in the scalar order. Skipping `g == 0` rows is dropped: a
            // `±0` contribution never changes an accumulator that starts
            // at `+0.0` (and finite sums never produce `-0.0`).
            let pad = spec.padding;
            for oy in 0..ho {
                let grow = ((b * c + ch) * ho + oy) * wo;
                for ky in 0..kh {
                    let iy = (oy + ky) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let xrow = iy as usize * w;
                    for kx in (0..kw).rev() {
                        let lo = pad.saturating_sub(kx);
                        let hi = (w + pad).saturating_sub(kx).min(wo);
                        if lo >= hi {
                            continue;
                        }
                        let wgt = k[(ch * kh + ky) * kw + kx];
                        let gs = &go[grow + lo..grow + hi];
                        let dst = &mut gxp[xrow + lo + kx - pad..xrow + hi + kx - pad];
                        let done = crate::simd::axpy_row(true, fast, dst, gs, wgt);
                        if !done {
                            for (d, &gv) in dst.iter_mut().zip(gs) {
                                *d += wgt * gv;
                            }
                        }
                    }
                }
            }
            return;
        }
        for oy in 0..ho {
            for ox in 0..wo {
                let g = go[((b * c + ch) * ho + oy) * wo + ox];
                if g == 0.0 {
                    continue;
                }
                for ky in 0..kh {
                    let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..kw {
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        gxp[iy as usize * w + ix as usize] += g * k[(ch * kh + ky) * kw + kx];
                    }
                }
            }
        }
    });
    crate::kernels::par_chunks(gw, kh * kw, threads, |ch, gwp| {
        for b in 0..n {
            for oy in 0..ho {
                for ox in 0..wo {
                    let g = go[((b * c + ch) * ho + oy) * wo + ox];
                    if g == 0.0 {
                        continue;
                    }
                    for ky in 0..kh {
                        let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let xi = ((b * c + ch) * h + iy as usize) * w + ix as usize;
                            gwp[ky * kw + kx] += g * x[xi];
                        }
                    }
                }
            }
        }
    });
}

/// Reference depthwise forward pass: the naive serial loops, kept as the
/// oracle for the differential property tests.
pub fn dwconv2d_forward_ref(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> Tensor {
    let (n, c, h, w) = dims4(input, "dwconv input");
    let (cw, one, kh, kw) = dims4(weight, "dwconv weight");
    assert_eq!(c, cw, "dwconv channel mismatch: input {c} vs weight {cw}");
    assert_eq!(one, 1, "dwconv weight must be [c, 1, k, k]");
    let (ho, wo) = (spec.out_size(h), spec.out_size(w));
    let mut out = Tensor::zeros(&[n, c, ho, wo]);
    let x = input.as_slice();
    let k = weight.as_slice();
    let o = out.as_mut_slice();
    for b in 0..n {
        for ch in 0..c {
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut acc = 0.0f32;
                    for ky in 0..kh {
                        let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let xi = ((b * c + ch) * h + iy as usize) * w + ix as usize;
                            let wi = (ch * kh + ky) * kw + kx;
                            acc += x[xi] * k[wi];
                        }
                    }
                    o[((b * c + ch) * ho + oy) * wo + ox] = acc;
                }
            }
        }
    }
    out
}

/// Reference depthwise backward pass: the naive serial loops.
pub fn dwconv2d_backward_ref(
    input: &Tensor,
    weight: &Tensor,
    spec: Conv2dSpec,
    grad_out: &Tensor,
) -> (Tensor, Tensor) {
    let (n, c, h, w) = dims4(input, "dwconv input");
    let (_, _, kh, kw) = dims4(weight, "dwconv weight");
    let (gn, gc, ho, wo) = dims4(grad_out, "dwconv grad_out");
    assert_eq!((gn, gc), (n, c), "dwconv grad_out shape mismatch");
    let mut gx = Tensor::zeros(&[n, c, h, w]);
    let mut gw = Tensor::zeros(&[c, 1, kh, kw]);
    let x = input.as_slice();
    let k = weight.as_slice();
    let go = grad_out.as_slice();
    let gxd = gx.as_mut_slice();
    let gwd = gw.as_mut_slice();
    for b in 0..n {
        for ch in 0..c {
            for oy in 0..ho {
                for ox in 0..wo {
                    let g = go[((b * c + ch) * ho + oy) * wo + ox];
                    if g == 0.0 {
                        continue;
                    }
                    for ky in 0..kh {
                        let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let xi = ((b * c + ch) * h + iy as usize) * w + ix as usize;
                            let wi = (ch * kh + ky) * kw + kx;
                            gxd[xi] += g * k[wi];
                            gwd[wi] += g * x[xi];
                        }
                    }
                }
            }
        }
    }
    (gx, gw)
}

fn dims4(t: &Tensor, what: &str) -> (usize, usize, usize, usize) {
    assert_eq!(
        t.shape().rank(),
        4,
        "{what} must be rank-4, got {}",
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

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).as_slice(), &[4.0, 2.5, 2.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_panics_on_shape_mismatch() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        let _ = a.add(&b);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.5], &[2, 2]);
        assert_eq!(a.sum(), 2.5);
        assert_eq!(a.mean(), 0.625);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.argmax(), 2);
    }

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::uniform(&[4, 4], -1.0, 1.0, 7);
        let eye = {
            let mut t = Tensor::zeros(&[4, 4]);
            for i in 0..4 {
                t.set(&[i, i], 1.0);
            }
            t
        };
        let c = a.matmul(&eye);
        for (x, y) in c.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::uniform(&[3, 5], -1.0, 1.0, 1);
        let back = a.transpose().transpose();
        assert_eq!(a, back);
    }

    #[test]
    fn conv2d_identity_kernel() {
        // A 1x1 kernel with weight 1 is the identity on a single channel.
        let x = Tensor::uniform(&[1, 1, 4, 4], -1.0, 1.0, 3);
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let spec = Conv2dSpec {
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        let y = conv2d_forward(&x, &w, spec);
        assert_eq!(x.as_slice(), y.as_slice());
    }

    #[test]
    fn conv2d_matches_manual_3x3() {
        // All-ones 3x3 kernel on all-ones input, no padding: every output is 9.
        let x = Tensor::ones(&[1, 1, 5, 5]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let spec = Conv2dSpec {
            kernel: 3,
            stride: 1,
            padding: 0,
        };
        let y = conv2d_forward(&x, &w, spec);
        assert_eq!(y.shape().dims(), &[1, 1, 3, 3]);
        assert!(y.as_slice().iter().all(|&v| (v - 9.0).abs() < 1e-6));
    }

    #[test]
    fn conv2d_padding_preserves_size() {
        let x = Tensor::ones(&[2, 3, 8, 8]);
        let w = Tensor::uniform(&[4, 3, 3, 3], -0.1, 0.1, 9);
        let spec = Conv2dSpec {
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let y = conv2d_forward(&x, &w, spec);
        assert_eq!(y.shape().dims(), &[2, 4, 8, 8]);
    }

    #[test]
    fn conv2d_stride_two_halves_size() {
        let spec = Conv2dSpec {
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        assert_eq!(spec.out_size(8), 4);
        assert_eq!(spec.out_size(7), 4);
    }

    #[test]
    fn dwconv_keeps_channels() {
        let x = Tensor::uniform(&[1, 6, 4, 4], -1.0, 1.0, 5);
        let w = Tensor::uniform(&[6, 1, 3, 3], -1.0, 1.0, 6);
        let spec = Conv2dSpec {
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let y = dwconv2d_forward(&x, &w, spec);
        assert_eq!(y.shape().dims(), &[1, 6, 4, 4]);
    }

    #[test]
    fn dwconv_channels_are_independent() {
        // Zeroing one channel's kernel must zero exactly that output channel.
        let x = Tensor::ones(&[1, 2, 3, 3]);
        let mut w = Tensor::ones(&[2, 1, 1, 1]);
        w.set(&[1, 0, 0, 0], 0.0);
        let spec = Conv2dSpec {
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        let y = dwconv2d_forward(&x, &w, spec);
        for iy in 0..3 {
            for ix in 0..3 {
                assert_eq!(y.at(&[0, 0, iy, ix]), 1.0);
                assert_eq!(y.at(&[0, 1, iy, ix]), 0.0);
            }
        }
    }

    #[test]
    fn sample_rows_without_replacement() {
        let t = Tensor::from_vec((0..20).map(|i| i as f32).collect(), &[10, 2]);
        let s = t.sample_rows(10, 42);
        // All rows must appear exactly once.
        let mut firsts: Vec<f32> = s.as_slice().chunks(2).map(|r| r[0]).collect();
        firsts.sort_by(f32::total_cmp);
        assert_eq!(firsts, (0..10).map(|i| (2 * i) as f32).collect::<Vec<_>>());
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        let a = Tensor::uniform(&[16], -1.0, 1.0, 11);
        let b = Tensor::uniform(&[16], -1.0, 1.0, 11);
        let c = Tensor::uniform(&[16], -1.0, 1.0, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
