//! Dense `f32` tensors with reverse-mode automatic differentiation.
//!
//! This crate is the numerical substrate of the LightNAS reproduction. It
//! provides exactly what the paper's training loops need and nothing more:
//!
//! * [`Tensor`] — an owned, contiguous, row-major `f32` array with a dynamic
//!   [`Shape`], elementwise arithmetic, reductions, matrix multiplication and
//!   2-D (depthwise) convolution.
//! * [`Graph`] / [`Var`] — a tape-based reverse-mode autograd engine. Every
//!   differentiable operation appends a node to the tape; [`Graph::backward`]
//!   walks the tape in reverse and accumulates gradients.
//! * [`init`] — weight initializers (Kaiming / Xavier / constant) driven by an
//!   explicit seed so every experiment in the reproduction is deterministic.
//!
//! The compute core is built for speed *without* giving up bit-for-bit
//! reproducibility: matrix products go through the cache-blocked GEMM in
//! [`kernels`] (with runtime-dispatched AVX2 and AVX-512 micro-tiles),
//! convolutions lower to im2col + GEMM, and large operations spread over a
//! persistent worker pool ([`kernels::set_num_threads`], default 1) — all
//! under the deterministic-reduction rule (one sequential `f32`
//! accumulator per output element, fixed term order), so results are
//! byte-identical to the retained naive reference kernels (`*_ref`) and
//! independent of the thread count. Gradient correctness is established by
//! finite-difference tests in `tests/gradcheck.rs`; kernel equivalence by
//! bit-exact differential property tests in `tests/proptests.rs`.
//!
//! That bit-exact contract is the **strict** tier and the default. An
//! opt-in **fast** tier (`LIGHTNAS_KERNEL_MODE=fast`, see [`KernelMode`])
//! trades bit-identity for throughput — FMA-contracted AVX2/AVX-512
//! micro-kernels chosen by the strict tier's own size rule, and per-thread
//! partial-sum reductions — and is verified against the strict oracle by the
//! differential tolerance comparators in [`tolerance`]
//! (`tests/tolerance.rs`) instead of fingerprints. Half-precision weight
//! *storage* (conversions in [`f16`]) rides the same tier: arithmetic stays
//! `f32` everywhere.
//!
//! # Example
//!
//! ```
//! use lightnas_tensor::{Graph, Tensor};
//!
//! let mut g = Graph::new();
//! let x = g.input(Tensor::from_vec(vec![1.0, 2.0], &[1, 2]));
//! let w = g.parameter(Tensor::from_vec(vec![0.5, -0.5, 1.0, 2.0], &[2, 2]));
//! let y = g.matmul(x, w);
//! let loss = g.sum(y);
//! g.backward(loss);
//! assert_eq!(g.grad(w).shape().dims(), &[2, 2]);
//! ```

mod autograd;
mod im2col;
mod mode;
mod shape;
mod simd;
mod tensor;
mod workers;

pub mod f16;
pub mod init;
pub mod kernels;
pub mod tolerance;

pub use autograd::{Graph, Var};
pub use im2col::{col2im, conv2d_backward_fast, conv2d_forward_fast, im2col};
pub use kernels::{
    matmul_ref, set_num_threads, set_simd_enabled, simd_enabled, PoolStats, TensorPool,
};
pub use mode::{init_mode_from_env, kernel_mode, set_kernel_mode, KernelMode, MODE_ENV};
pub use shape::Shape;
pub use tensor::{
    conv2d_backward, conv2d_backward_ref, conv2d_forward, conv2d_forward_ref, dwconv2d_backward,
    dwconv2d_backward_ref, dwconv2d_forward, dwconv2d_forward_ref, Conv2dSpec, Tensor,
};

/// Numerical tolerance used throughout the test-suite when comparing floats.
pub const TEST_EPS: f32 = 1e-4;
