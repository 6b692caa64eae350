//! Tape-based reverse-mode automatic differentiation.
//!
//! The [`Graph`] is a define-by-run tape: every operation appends a node
//! holding its inputs, its computed value and enough auxiliary data for the
//! backward pass. [`Graph::backward`] seeds the scalar loss with gradient 1
//! and walks the tape in reverse, accumulating gradients into every node that
//! (transitively) depends on a [`Graph::parameter`].
//!
//! Training loops rebuild the graph each step and keep the canonical
//! parameter values outside the graph (see `lightnas-nn`): after `backward`
//! the trainer reads [`Graph::grad`] for each parameter [`Var`] and applies
//! its optimizer update to the external store.
//!
//! # Tape reuse
//!
//! Rebuilding the tape every step is cheap in nodes but expensive in
//! allocations: every node value, every gradient and every backward
//! intermediate is a fresh `Vec<f32>`. Each `Graph` therefore owns a
//! [`TensorPool`] and draws **all** tape storage from it; calling
//! [`Graph::reset`] between steps returns every buffer to the pool (and
//! keeps the `nodes`/`grads` vector capacity), so a steady-state training
//! step performs near-zero heap allocation. Pooling only changes where the
//! backing memory comes from — every kernel still writes the same bits in
//! the same order, so a reused graph produces byte-identical values and
//! gradients to a freshly constructed one.
//!
//! The pool stays balanced: every buffer `reset` returns was taken from
//! the graph's own pool. Tensors handed in by value ([`Graph::input`],
//! [`Graph::parameter`], the [`Graph::mse_loss`] target) are copied into
//! pooled storage and the caller's allocation is dropped, and scalar
//! results come from the pool too. Repeating the same step therefore
//! leaves the pool's buffer count and retained bytes unchanged, instead of
//! growing the free list that every take scans.
//!
//! Matmul backward computes an operand's gradient only when that operand
//! requires one, and a row bias's column sums run only when the bias
//! requires a gradient, so an input leaf costs no GEMM or sum for a
//! product that would be recycled unread.

// Index-based loops over channel/spatial blocks mirror the math and keep
// offset arithmetic visible; iterator-chain rewrites obscure it.
#![allow(clippy::needless_range_loop)]

use crate::im2col::{conv2d_backward_into, conv2d_forward_into};
use crate::kernels::{matmul_into, matmul_nt_into, matmul_tn_into, PoolStats, TensorPool};
use crate::tensor::{dwconv2d_backward_into, dwconv2d_forward_into, Conv2dSpec};
use crate::Tensor;

/// Handle to a node in a [`Graph`].
///
/// A `Var` is only meaningful for the graph that created it; using it with
/// another graph yields unspecified values or panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

impl Var {
    /// The node's position in its graph's tape (useful for debugging).
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug)]
enum Op {
    /// Leaf without gradient (data, labels, frozen constants).
    Input,
    /// Leaf with gradient (trainable weight).
    Parameter,
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    AddScalar(Var),
    Matmul(Var, Var),
    Relu(Var),
    Relu6(Var),
    Sigmoid(Var),
    /// `[m, n] + [n]` broadcast bias.
    AddRowBias(Var, Var),
    /// `[n, c, h, w] + [c]` broadcast bias.
    AddChannelBias(Var, Var),
    /// `[n, c, h, w] * [n, c]` per-sample channel gate (Squeeze-and-Excitation).
    MulChannelGate(Var, Var),
    Conv2d {
        x: Var,
        w: Var,
        spec: Conv2dSpec,
    },
    DwConv2d {
        x: Var,
        w: Var,
        spec: Conv2dSpec,
    },
    /// `[n, c, h, w] -> [n, c]` spatial mean.
    GlobalAvgPool(Var),
    Reshape(Var),
    Sum(Var),
    Mean(Var),
    /// Weighted sum of same-shaped tensors by a coefficient vector `[k]`.
    Mix {
        coeffs: Var,
        inputs: Vec<Var>,
    },
    /// Mean softmax cross-entropy over a batch; `probs` caches softmax(logits).
    SoftmaxCrossEntropy {
        logits: Var,
        targets: Vec<usize>,
        probs: Tensor,
    },
    /// Mean squared error against a constant target.
    MseLoss {
        pred: Var,
        target: Tensor,
    },
}

struct Node {
    op: Op,
    value: Tensor,
    requires_grad: bool,
}

fn node_value(nodes: &[Node], v: Var) -> &Tensor {
    &nodes[v.0].value
}

// ---------------------------------------------------------------------------
// Pool-backed tensor constructors.
//
// Free functions rather than `Graph` methods so callers can hold `&mut pool`
// while node values stay immutably borrowed (the two are disjoint fields of
// `Graph`, which the borrow checker only sees after destructuring).
// ---------------------------------------------------------------------------

fn pooled_zeros(pool: &mut TensorPool, dims: &[usize]) -> Tensor {
    let len = dims.iter().product();
    Tensor::from_vec(pool.take_zeroed(len), dims)
}

/// Pooled tensor with unspecified contents, for kernels that overwrite
/// every output element (`*_into` with full-coverage writes).
fn pooled_filled(pool: &mut TensorPool, dims: &[usize]) -> Tensor {
    let len = dims.iter().product();
    Tensor::from_vec(pool.take_filled(len), dims)
}

fn pooled_full(pool: &mut TensorPool, dims: &[usize], value: f32) -> Tensor {
    let len = dims.iter().product();
    let mut buf = pool.take(len);
    buf.resize(len, value);
    Tensor::from_vec(buf, dims)
}

/// A rank-0 tensor holding `value`, for scalar results (sums and losses).
fn pooled_scalar(pool: &mut TensorPool, value: f32) -> Tensor {
    pooled_full(pool, &[], value)
}

fn pooled_copy(pool: &mut TensorPool, src: &Tensor) -> Tensor {
    pooled_reshaped_copy(pool, src, src.shape().dims())
}

fn pooled_reshaped_copy(pool: &mut TensorPool, src: &Tensor, dims: &[usize]) -> Tensor {
    let mut buf = pool.take(src.len());
    buf.extend_from_slice(src.as_slice());
    Tensor::from_vec(buf, dims)
}

fn pooled_map(pool: &mut TensorPool, src: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    let mut buf = pool.take(src.len());
    buf.extend(src.as_slice().iter().map(|&x| f(x)));
    Tensor::from_vec(buf, src.shape().dims())
}

fn pooled_zip(
    pool: &mut TensorPool,
    a: &Tensor,
    b: &Tensor,
    op: &str,
    f: impl Fn(f32, f32) -> f32,
) -> Tensor {
    assert_eq!(
        a.shape(),
        b.shape(),
        "shape mismatch in {op}: {} vs {}",
        a.shape(),
        b.shape()
    );
    let mut buf = pool.take(a.len());
    buf.extend(
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(&x, &y)| f(x, y)),
    );
    Tensor::from_vec(buf, a.shape().dims())
}

/// `a · b` through the blocked GEMM into a pooled buffer; bit-identical to
/// [`Tensor::matmul`].
fn pooled_matmul(pool: &mut TensorPool, a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(
        a.shape().rank(),
        2,
        "matmul lhs must be rank-2, got {}",
        a.shape()
    );
    assert_eq!(
        b.shape().rank(),
        2,
        "matmul rhs must be rank-2, got {}",
        b.shape()
    );
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (k2, n) = (b.shape().dim(0), b.shape().dim(1));
    assert_eq!(
        k,
        k2,
        "matmul inner dimension mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );
    // `take_filled`: the GEMM overwrites every output element on all of its
    // dispatch paths, so the buffer needs no zeroing.
    let mut out = pool.take_filled(m * n);
    matmul_into(a.as_slice(), b.as_slice(), m, k, n, &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// A reverse-mode autodiff tape.
///
/// See the [crate-level documentation](crate) for an end-to-end example, and
/// the [module documentation](self) for the tape-reuse contract around
/// [`Graph::reset`].
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    grads: Vec<Option<Tensor>>,
    pool: TensorPool,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Clears the tape for the next step while retaining its storage.
    ///
    /// Every node value, cached backward tensor and gradient is recycled
    /// into the graph's [`TensorPool`], and the node/grad vectors keep their
    /// capacity. Each of those buffers was taken from that pool, so rebuilding
    /// the same computation afterwards draws all of its tensors from the
    /// pool without growing it, and produces byte-identical values and
    /// gradients to a fresh graph. All previously issued [`Var`] handles
    /// are invalidated.
    pub fn reset(&mut self) {
        let Self { nodes, grads, pool } = self;
        for node in nodes.drain(..) {
            match node.op {
                Op::SoftmaxCrossEntropy { probs, .. } => pool.recycle(probs.into_vec()),
                Op::MseLoss { target, .. } => pool.recycle(target.into_vec()),
                _ => {}
            }
            pool.recycle(node.value.into_vec());
        }
        for t in grads.drain(..).flatten() {
            pool.recycle(t.into_vec());
        }
    }

    /// Hit/miss counters and occupancy of the graph's tape pool.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    fn push(&mut self, op: Op, value: Tensor, requires_grad: bool) -> Var {
        self.nodes.push(Node {
            op,
            value,
            requires_grad,
        });
        self.grads.push(None);
        Var(self.nodes.len() - 1)
    }

    fn rg(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// Registers a non-trainable leaf (input data, labels, constants).
    ///
    /// `value` is copied into pooled tape storage and then dropped, so
    /// [`reset`](Graph::reset) hands the pool only buffers taken from it;
    /// pass a reference to [`input_ref`](Graph::input_ref) when the caller
    /// keeps the tensor.
    pub fn input(&mut self, value: Tensor) -> Var {
        self.input_ref(&value)
    }

    /// Registers a non-trainable leaf by copying `value` into pooled tape
    /// storage, avoiding a caller-side clone.
    pub fn input_ref(&mut self, value: &Tensor) -> Var {
        let copied = pooled_copy(&mut self.pool, value);
        self.push(Op::Input, copied, false)
    }

    /// Registers a trainable leaf whose gradient is computed by [`backward`].
    ///
    /// Like [`input`](Graph::input), `value` is copied into pooled tape
    /// storage and then dropped.
    ///
    /// [`backward`]: Graph::backward
    pub fn parameter(&mut self, value: Tensor) -> Var {
        self.parameter_ref(&value)
    }

    /// Registers a trainable leaf by copying `value` into pooled tape
    /// storage, avoiding a caller-side clone. Training loops that rebuild
    /// the tape every step should prefer this over `parameter(t.clone())`.
    pub fn parameter_ref(&mut self, value: &Tensor) -> Var {
        let copied = pooled_copy(&mut self.pool, value);
        self.push(Op::Parameter, copied, true)
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The gradient of the last [`backward`] loss w.r.t. `v`.
    ///
    /// # Panics
    ///
    /// Panics if `backward` has not been run or `v` received no gradient
    /// (e.g. it does not require one).
    ///
    /// [`backward`]: Graph::backward
    pub fn grad(&self, v: Var) -> &Tensor {
        self.grads[v.0]
            .as_ref()
            .unwrap_or_else(|| panic!("no gradient for node {} (run backward first?)", v.0))
    }

    /// The gradient of `v`, or `None` if it received none.
    pub fn grad_opt(&self, v: Var) -> Option<&Tensor> {
        self.grads[v.0].as_ref()
    }

    /// Elementwise sum. Panics on shape mismatch.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let Self { nodes, pool, .. } = self;
        let value = pooled_zip(
            pool,
            node_value(nodes, a),
            node_value(nodes, b),
            "add",
            |x, y| x + y,
        );
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::Add(a, b), value, rg)
    }

    /// Elementwise difference. Panics on shape mismatch.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let Self { nodes, pool, .. } = self;
        let value = pooled_zip(
            pool,
            node_value(nodes, a),
            node_value(nodes, b),
            "sub",
            |x, y| x - y,
        );
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::Sub(a, b), value, rg)
    }

    /// Elementwise product. Panics on shape mismatch.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let Self { nodes, pool, .. } = self;
        let value = pooled_zip(
            pool,
            node_value(nodes, a),
            node_value(nodes, b),
            "mul",
            |x, y| x * y,
        );
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::Mul(a, b), value, rg)
    }

    /// Multiplies every element by the constant `s`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let Self { nodes, pool, .. } = self;
        let value = pooled_map(pool, node_value(nodes, a), |x| x * s);
        let rg = self.rg(a);
        self.push(Op::Scale(a, s), value, rg)
    }

    /// Adds the constant `s` to every element.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let Self { nodes, pool, .. } = self;
        let value = pooled_map(pool, node_value(nodes, a), |x| x + s);
        let rg = self.rg(a);
        self.push(Op::AddScalar(a), value, rg)
    }

    /// Matrix product of rank-2 tensors. Panics on shape mismatch.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let Self { nodes, pool, .. } = self;
        let value = pooled_matmul(pool, node_value(nodes, a), node_value(nodes, b));
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::Matmul(a, b), value, rg)
    }

    /// Rectified linear unit `max(x, 0)`.
    pub fn relu(&mut self, a: Var) -> Var {
        let Self { nodes, pool, .. } = self;
        let value = pooled_map(pool, node_value(nodes, a), |x| x.max(0.0));
        let rg = self.rg(a);
        self.push(Op::Relu(a), value, rg)
    }

    /// `min(max(x, 0), 6)` — the activation used by MobileNetV2.
    pub fn relu6(&mut self, a: Var) -> Var {
        let Self { nodes, pool, .. } = self;
        let value = pooled_map(pool, node_value(nodes, a), |x| x.clamp(0.0, 6.0));
        let rg = self.rg(a);
        self.push(Op::Relu6(a), value, rg)
    }

    /// Logistic sigmoid, used by the Squeeze-and-Excitation gate.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let Self { nodes, pool, .. } = self;
        let value = pooled_map(pool, node_value(nodes, a), |x| 1.0 / (1.0 + (-x).exp()));
        let rg = self.rg(a);
        self.push(Op::Sigmoid(a), value, rg)
    }

    /// Adds bias `b` of shape `[n]` to every row of `a` of shape `[m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not `[m, n]` and `[n]`.
    pub fn add_row_bias(&mut self, a: Var, b: Var) -> Var {
        let Self { nodes, pool, .. } = self;
        let (av, bv) = (node_value(nodes, a), node_value(nodes, b));
        assert_eq!(
            av.shape().rank(),
            2,
            "add_row_bias lhs must be rank-2, got {}",
            av.shape()
        );
        assert_eq!(
            bv.shape().rank(),
            1,
            "add_row_bias bias must be rank-1, got {}",
            bv.shape()
        );
        let (m, n) = (av.shape().dim(0), av.shape().dim(1));
        assert_eq!(
            n,
            bv.shape().dim(0),
            "bias size mismatch: {} vs {}",
            av.shape(),
            bv.shape()
        );
        let mut out = pooled_copy(pool, av);
        {
            let o = out.as_mut_slice();
            let bs = bv.as_slice();
            for i in 0..m {
                for j in 0..n {
                    o[i * n + j] += bs[j];
                }
            }
        }
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::AddRowBias(a, b), out, rg)
    }

    /// Adds bias `b` of shape `[c]` to every spatial position of `a` of shape
    /// `[n, c, h, w]`.
    ///
    /// # Panics
    ///
    /// Panics on rank or channel mismatch.
    pub fn add_channel_bias(&mut self, a: Var, b: Var) -> Var {
        let Self { nodes, pool, .. } = self;
        let (av, bv) = (node_value(nodes, a), node_value(nodes, b));
        assert_eq!(
            av.shape().rank(),
            4,
            "add_channel_bias lhs must be rank-4, got {}",
            av.shape()
        );
        let c = av.shape().dim(1);
        assert_eq!(
            bv.shape().dims(),
            [c],
            "channel bias must be [{c}], got {}",
            bv.shape()
        );
        let hw = av.shape().dim(2) * av.shape().dim(3);
        let n = av.shape().dim(0);
        let mut out = pooled_copy(pool, av);
        {
            let o = out.as_mut_slice();
            let bs = bv.as_slice();
            for b_i in 0..n {
                for ch in 0..c {
                    let base = (b_i * c + ch) * hw;
                    for k in 0..hw {
                        o[base + k] += bs[ch];
                    }
                }
            }
        }
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::AddChannelBias(a, b), out, rg)
    }

    /// Multiplies `a` of shape `[n, c, h, w]` by a per-sample channel gate of
    /// shape `[n, c]` (the Squeeze-and-Excitation recalibration).
    ///
    /// # Panics
    ///
    /// Panics on rank or dimension mismatch.
    pub fn mul_channel_gate(&mut self, a: Var, gate: Var) -> Var {
        let Self { nodes, pool, .. } = self;
        let (av, gv) = (node_value(nodes, a), node_value(nodes, gate));
        assert_eq!(
            av.shape().rank(),
            4,
            "mul_channel_gate lhs must be rank-4, got {}",
            av.shape()
        );
        assert_eq!(
            gv.shape().rank(),
            2,
            "gate must be rank-2, got {}",
            gv.shape()
        );
        let (n, c) = (av.shape().dim(0), av.shape().dim(1));
        assert_eq!(
            gv.shape().dims(),
            [n, c],
            "gate must be [{n}, {c}], got {}",
            gv.shape()
        );
        let hw = av.shape().dim(2) * av.shape().dim(3);
        let mut out = pooled_copy(pool, av);
        {
            let o = out.as_mut_slice();
            let gs = gv.as_slice();
            for b_i in 0..n {
                for ch in 0..c {
                    let g = gs[b_i * c + ch];
                    let base = (b_i * c + ch) * hw;
                    for k in 0..hw {
                        o[base + k] *= g;
                    }
                }
            }
        }
        let rg = self.rg(a) || self.rg(gate);
        self.push(Op::MulChannelGate(a, gate), out, rg)
    }

    /// Full 2-D convolution (see [`crate::conv2d_forward`] for shape
    /// conventions); computed through the im2col fast path.
    pub fn conv2d(&mut self, x: Var, w: Var, spec: Conv2dSpec) -> Var {
        let Self { nodes, pool, .. } = self;
        let (xv, wv) = (node_value(nodes, x), node_value(nodes, w));
        assert_eq!(
            xv.shape().rank(),
            4,
            "conv2d input must be rank-4, got {}",
            xv.shape()
        );
        assert_eq!(
            wv.shape().rank(),
            4,
            "conv2d weight must be rank-4, got {}",
            wv.shape()
        );
        let (n, h, wd) = (xv.shape().dim(0), xv.shape().dim(2), xv.shape().dim(3));
        let c_out = wv.shape().dim(0);
        let mut value = pooled_filled(pool, &[n, c_out, spec.out_size(h), spec.out_size(wd)]);
        conv2d_forward_into(xv, wv, spec, value.as_mut_slice());
        let rg = self.rg(x) || self.rg(w);
        self.push(Op::Conv2d { x, w, spec }, value, rg)
    }

    /// Depthwise 2-D convolution (see [`crate::dwconv2d_forward`]).
    pub fn dwconv2d(&mut self, x: Var, w: Var, spec: Conv2dSpec) -> Var {
        let Self { nodes, pool, .. } = self;
        let (xv, wv) = (node_value(nodes, x), node_value(nodes, w));
        assert_eq!(
            xv.shape().rank(),
            4,
            "dwconv input must be rank-4, got {}",
            xv.shape()
        );
        let (n, c, h, wd) = (
            xv.shape().dim(0),
            xv.shape().dim(1),
            xv.shape().dim(2),
            xv.shape().dim(3),
        );
        let mut value = pooled_filled(pool, &[n, c, spec.out_size(h), spec.out_size(wd)]);
        dwconv2d_forward_into(xv, wv, spec, value.as_mut_slice());
        let rg = self.rg(x) || self.rg(w);
        self.push(Op::DwConv2d { x, w, spec }, value, rg)
    }

    /// Spatial mean over `h, w`: `[n, c, h, w] -> [n, c]`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not rank-4.
    pub fn global_avg_pool(&mut self, a: Var) -> Var {
        let Self { nodes, pool, .. } = self;
        let av = node_value(nodes, a);
        assert_eq!(
            av.shape().rank(),
            4,
            "global_avg_pool input must be rank-4, got {}",
            av.shape()
        );
        let (n, c, h, w) = (
            av.shape().dim(0),
            av.shape().dim(1),
            av.shape().dim(2),
            av.shape().dim(3),
        );
        let hw = (h * w) as f32;
        let mut out = pooled_zeros(pool, &[n, c]);
        {
            let o = out.as_mut_slice();
            let x = av.as_slice();
            for b in 0..n {
                for ch in 0..c {
                    let base = (b * c + ch) * h * w;
                    let s: f32 = x[base..base + h * w].iter().sum();
                    o[b * c + ch] = s / hw;
                }
            }
        }
        let rg = self.rg(a);
        self.push(Op::GlobalAvgPool(a), out, rg)
    }

    /// Reinterprets `a` with a new shape of equal element count.
    pub fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        let Self { nodes, pool, .. } = self;
        let value = pooled_reshaped_copy(pool, node_value(nodes, a), shape);
        let rg = self.rg(a);
        self.push(Op::Reshape(a), value, rg)
    }

    /// Sum of all elements (scalar output).
    pub fn sum(&mut self, a: Var) -> Var {
        let Self { nodes, pool, .. } = self;
        let value = pooled_scalar(pool, node_value(nodes, a).sum());
        let rg = self.rg(a);
        self.push(Op::Sum(a), value, rg)
    }

    /// Mean of all elements (scalar output).
    pub fn mean(&mut self, a: Var) -> Var {
        let Self { nodes, pool, .. } = self;
        let value = pooled_scalar(pool, node_value(nodes, a).mean());
        let rg = self.rg(a);
        self.push(Op::Mean(a), value, rg)
    }

    /// Weighted sum `Σ_k coeffs[k] · inputs[k]` of same-shaped tensors.
    ///
    /// This is the multi-path mixing primitive of DARTS/FBNet-style supernets
    /// (Eq. 1 of the paper): the gradient flows both into every candidate
    /// branch and into the architecture coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` is not rank-1 of length `inputs.len()`, if `inputs`
    /// is empty, or if the input shapes differ.
    pub fn mix(&mut self, coeffs: Var, inputs: &[Var]) -> Var {
        assert!(!inputs.is_empty(), "mix requires at least one input");
        let Self { nodes, pool, .. } = self;
        let cv = node_value(nodes, coeffs);
        assert_eq!(
            cv.shape().dims(),
            [inputs.len()],
            "coeffs must be [{}], got {}",
            inputs.len(),
            cv.shape()
        );
        let shape = node_value(nodes, inputs[0]).shape().clone();
        let mut out = pooled_zeros(pool, shape.dims());
        for (k, &v) in inputs.iter().enumerate() {
            let xv = node_value(nodes, v);
            assert_eq!(xv.shape(), &shape, "mix input {k} shape mismatch");
            let c = node_value(nodes, coeffs).as_slice()[k];
            out.add_scaled_assign(xv, c);
        }
        let rg = self.rg(coeffs) || inputs.iter().any(|&v| self.rg(v));
        self.push(
            Op::Mix {
                coeffs,
                inputs: inputs.to_vec(),
            },
            out,
            rg,
        )
    }

    /// Mean softmax cross-entropy of `logits` (`[batch, classes]`) against
    /// integer `targets`.
    ///
    /// # Panics
    ///
    /// Panics if `logits` is not rank-2, `targets.len()` differs from the
    /// batch size, or any target is out of range.
    pub fn softmax_cross_entropy(&mut self, logits: Var, targets: &[usize]) -> Var {
        let Self { nodes, pool, .. } = self;
        let lv = node_value(nodes, logits);
        assert_eq!(
            lv.shape().rank(),
            2,
            "logits must be rank-2, got {}",
            lv.shape()
        );
        let (n, classes) = (lv.shape().dim(0), lv.shape().dim(1));
        assert_eq!(
            targets.len(),
            n,
            "targets length {} != batch {}",
            targets.len(),
            n
        );
        let mut probs = pooled_zeros(pool, &[n, classes]);
        let mut loss = 0.0f64;
        {
            let x = lv.as_slice();
            let p = probs.as_mut_slice();
            for i in 0..n {
                let t = targets[i];
                assert!(t < classes, "target {t} out of range for {classes} classes");
                let row = &x[i * classes..(i + 1) * classes];
                let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut z = 0.0f32;
                for (j, &v) in row.iter().enumerate() {
                    let e = (v - m).exp();
                    p[i * classes + j] = e;
                    z += e;
                }
                for j in 0..classes {
                    p[i * classes + j] /= z;
                }
                loss += -(p[i * classes + t].max(1e-12) as f64).ln();
            }
        }
        let value = pooled_scalar(pool, (loss / n as f64) as f32);
        let rg = self.rg(logits);
        self.push(
            Op::SoftmaxCrossEntropy {
                logits,
                targets: targets.to_vec(),
                probs,
            },
            value,
            rg,
        )
    }

    /// Mean squared error between `pred` and a constant `target`.
    ///
    /// The tape keeps `target` for the backward pass as a copy in pooled
    /// storage; the caller's tensor is dropped.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mse_loss(&mut self, pred: Var, target: Tensor) -> Var {
        let Self { nodes, pool, .. } = self;
        let pv = node_value(nodes, pred);
        assert_eq!(
            pv.shape(),
            target.shape(),
            "mse shape mismatch: {} vs {}",
            pv.shape(),
            target.shape()
        );
        // Same per-element sequence as materializing `pred - target` and
        // summing the squares, without the temporary.
        let sse: f32 = pv
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(&p, &t)| {
                let d = p - t;
                d * d
            })
            .sum();
        let value = pooled_scalar(pool, sse / pv.len() as f32);
        let target = pooled_copy(pool, &target);
        let rg = self.rg(pred);
        self.push(Op::MseLoss { pred, target }, value, rg)
    }

    /// Runs reverse-mode differentiation from the scalar `loss`.
    ///
    /// Gradients of earlier `backward` calls on the same graph are cleared
    /// (their storage returns to the tape pool).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a scalar (single-element) node.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.nodes[loss.0].value.len(),
            1,
            "backward target must be scalar, got {}",
            self.nodes[loss.0].value.shape()
        );
        {
            let Self { grads, pool, .. } = self;
            for g in grads.iter_mut() {
                if let Some(t) = g.take() {
                    pool.recycle(t.into_vec());
                }
            }
        }
        let seed = {
            let Self { nodes, pool, .. } = self;
            pooled_full(pool, nodes[loss.0].value.shape().dims(), 1.0)
        };
        self.grads[loss.0] = Some(seed);
        for i in (0..self.nodes.len()).rev() {
            if !self.nodes[i].requires_grad || self.grads[i].is_none() {
                continue;
            }
            // Take the gradient out of its slot for the duration of the
            // propagation instead of cloning it: an op's inputs always
            // precede it on the tape, so `propagate` never touches slot `i`.
            let g = self.grads[i].take().expect("checked above");
            self.propagate(i, &g);
            self.grads[i] = Some(g);
        }
    }

    /// Adds `g` (the propagating node's own gradient) into input `v`'s slot.
    fn accumulate_ref(&mut self, v: Var, g: &Tensor) {
        let Self {
            nodes, grads, pool, ..
        } = self;
        if !nodes[v.0].requires_grad {
            return;
        }
        match &mut grads[v.0] {
            Some(acc) => acc.add_scaled_assign(g, 1.0),
            slot @ None => *slot = Some(pooled_copy(pool, g)),
        }
    }

    /// Adds an owned delta into input `v`'s slot, recycling it when it is
    /// consumed by in-place accumulation (or dropped for a no-grad input).
    fn accumulate_owned(&mut self, v: Var, delta: Tensor) {
        let Self {
            nodes, grads, pool, ..
        } = self;
        if !nodes[v.0].requires_grad {
            pool.recycle(delta.into_vec());
            return;
        }
        match &mut grads[v.0] {
            Some(acc) => {
                acc.add_scaled_assign(&delta, 1.0);
                pool.recycle(delta.into_vec());
            }
            slot @ None => *slot = Some(delta),
        }
    }

    fn propagate(&mut self, i: usize, g: &Tensor) {
        // Which inputs receive which delta. `Ref*` variants mean "the delta
        // is exactly `g`" — accumulated straight from the borrow with no
        // intermediate tensor; owned deltas are built in pooled storage.
        enum Delta {
            None,
            Ref(Var),
            RefBoth(Var, Var),
            RefPlusOwned(Var, Var, Tensor),
            One(Var, Tensor),
            Two(Var, Tensor, Var, Tensor),
            Many(Vec<(Var, Tensor)>),
        }
        let delta = {
            let Self { nodes, pool, .. } = self;
            match &nodes[i].op {
                Op::Input | Op::Parameter => Delta::None,
                Op::Add(a, b) => Delta::RefBoth(*a, *b),
                Op::Sub(a, b) => Delta::RefPlusOwned(*a, *b, pooled_map(pool, g, |x| -x)),
                Op::Mul(a, b) => {
                    let ga = pooled_zip(pool, g, node_value(nodes, *b), "mul", |x, y| x * y);
                    let gb = pooled_zip(pool, g, node_value(nodes, *a), "mul", |x, y| x * y);
                    Delta::Two(*a, ga, *b, gb)
                }
                Op::Scale(a, s) => {
                    let s = *s;
                    Delta::One(*a, pooled_map(pool, g, |x| x * s))
                }
                Op::AddScalar(a) => Delta::Ref(*a),
                Op::Matmul(a, b) => {
                    let (av, bv) = (node_value(nodes, *a), node_value(nodes, *b));
                    let (m, k) = (av.shape().dim(0), av.shape().dim(1));
                    let n = bv.shape().dim(1);
                    // ga = g · bᵀ and gb = aᵀ · g through the GEMM's
                    // transposing entry points (`a·bᵀ` transposes `b` into a
                    // pooled buffer, `aᵀ·b` reads `a` in place); bit-identical
                    // to `matmul(transpose())`. Each runs only when its operand
                    // requires a gradient: an input batch on the left would
                    // otherwise cost the step's largest GEMM for a delta
                    // that is recycled unread. Both buffers are fully
                    // overwritten, so neither needs zeroing.
                    let ga = nodes[a.0].requires_grad.then(|| {
                        let mut ga = pool.take_filled(m * k);
                        matmul_nt_into(g.as_slice(), bv.as_slice(), m, n, k, &mut ga);
                        Tensor::from_vec(ga, &[m, k])
                    });
                    let gb = nodes[b.0].requires_grad.then(|| {
                        let mut gb = pool.take_filled(k * n);
                        matmul_tn_into(av.as_slice(), g.as_slice(), m, k, n, &mut gb);
                        Tensor::from_vec(gb, &[k, n])
                    });
                    match (ga, gb) {
                        (Some(ga), Some(gb)) => Delta::Two(*a, ga, *b, gb),
                        (Some(ga), None) => Delta::One(*a, ga),
                        (None, Some(gb)) => Delta::One(*b, gb),
                        (None, None) => Delta::None,
                    }
                }
                Op::Relu(a) => {
                    let ga = pooled_zip(pool, g, node_value(nodes, *a), "mul", |gi, x| {
                        gi * if x > 0.0 { 1.0 } else { 0.0 }
                    });
                    Delta::One(*a, ga)
                }
                Op::Relu6(a) => {
                    let ga = pooled_zip(pool, g, node_value(nodes, *a), "mul", |gi, x| {
                        gi * if x > 0.0 && x < 6.0 { 1.0 } else { 0.0 }
                    });
                    Delta::One(*a, ga)
                }
                Op::Sigmoid(a) => {
                    let y = &nodes[i].value;
                    let ga = pooled_zip(pool, g, y, "mul", |gi, s| gi * (s * (1.0 - s)));
                    Delta::One(*a, ga)
                }
                Op::AddRowBias(a, b) => {
                    let (m, n) = (g.shape().dim(0), g.shape().dim(1));
                    let mut gb = pooled_zeros(pool, &[n]);
                    {
                        let gs = g.as_slice();
                        let o = gb.as_mut_slice();
                        for r in 0..m {
                            for c in 0..n {
                                o[c] += gs[r * n + c];
                            }
                        }
                    }
                    Delta::RefPlusOwned(*a, *b, gb)
                }
                Op::AddChannelBias(a, b) => {
                    let (n, c, h, w) = (
                        g.shape().dim(0),
                        g.shape().dim(1),
                        g.shape().dim(2),
                        g.shape().dim(3),
                    );
                    let mut gb = pooled_zeros(pool, &[c]);
                    {
                        let gs = g.as_slice();
                        let o = gb.as_mut_slice();
                        for bi in 0..n {
                            for ch in 0..c {
                                let base = (bi * c + ch) * h * w;
                                o[ch] += gs[base..base + h * w].iter().sum::<f32>();
                            }
                        }
                    }
                    Delta::RefPlusOwned(*a, *b, gb)
                }
                Op::MulChannelGate(a, gate) => {
                    let av = node_value(nodes, *a);
                    let gv = node_value(nodes, *gate);
                    let (n, c, h, w) = (
                        av.shape().dim(0),
                        av.shape().dim(1),
                        av.shape().dim(2),
                        av.shape().dim(3),
                    );
                    let hw = h * w;
                    let mut ga = pooled_zeros(pool, av.shape().dims());
                    let mut ggate = pooled_zeros(pool, &[n, c]);
                    {
                        let gs = g.as_slice();
                        let xs = av.as_slice();
                        let gates = gv.as_slice();
                        let gad = ga.as_mut_slice();
                        let ggd = ggate.as_mut_slice();
                        for bi in 0..n {
                            for ch in 0..c {
                                let gk = gates[bi * c + ch];
                                let base = (bi * c + ch) * hw;
                                let mut acc = 0.0f32;
                                for k in 0..hw {
                                    gad[base + k] = gs[base + k] * gk;
                                    acc += gs[base + k] * xs[base + k];
                                }
                                ggd[bi * c + ch] = acc;
                            }
                        }
                    }
                    Delta::Two(*a, ga, *gate, ggate)
                }
                Op::Conv2d { x, w, spec } => {
                    let (xv, wv) = (node_value(nodes, *x), node_value(nodes, *w));
                    let mut gx = pooled_zeros(pool, xv.shape().dims());
                    let mut gw = pooled_zeros(pool, wv.shape().dims());
                    conv2d_backward_into(xv, wv, *spec, g, gx.as_mut_slice(), gw.as_mut_slice());
                    Delta::Two(*x, gx, *w, gw)
                }
                Op::DwConv2d { x, w, spec } => {
                    let (xv, wv) = (node_value(nodes, *x), node_value(nodes, *w));
                    let mut gx = pooled_zeros(pool, xv.shape().dims());
                    let mut gw = pooled_zeros(pool, wv.shape().dims());
                    dwconv2d_backward_into(xv, wv, *spec, g, gx.as_mut_slice(), gw.as_mut_slice());
                    Delta::Two(*x, gx, *w, gw)
                }
                Op::GlobalAvgPool(a) => {
                    let av = node_value(nodes, *a);
                    let (n, c, h, w) = (
                        av.shape().dim(0),
                        av.shape().dim(1),
                        av.shape().dim(2),
                        av.shape().dim(3),
                    );
                    let hw = (h * w) as f32;
                    let mut ga = pooled_zeros(pool, av.shape().dims());
                    {
                        let gs = g.as_slice();
                        let o = ga.as_mut_slice();
                        for bi in 0..n {
                            for ch in 0..c {
                                let v = gs[bi * c + ch] / hw;
                                let base = (bi * c + ch) * h * w;
                                for k in 0..(h * w) {
                                    o[base + k] = v;
                                }
                            }
                        }
                    }
                    Delta::One(*a, ga)
                }
                Op::Reshape(a) => {
                    let dims = node_value(nodes, *a).shape().dims();
                    Delta::One(*a, pooled_reshaped_copy(pool, g, dims))
                }
                Op::Sum(a) => {
                    let dims = node_value(nodes, *a).shape().dims();
                    Delta::One(*a, pooled_full(pool, dims, g.item()))
                }
                Op::Mean(a) => {
                    let shape = node_value(nodes, *a).shape();
                    let n = shape.len() as f32;
                    Delta::One(*a, pooled_full(pool, shape.dims(), g.item() / n))
                }
                Op::Mix { coeffs, inputs } => {
                    let mut out = Vec::with_capacity(inputs.len() + 1);
                    let mut gc = pooled_zeros(pool, &[inputs.len()]);
                    for (k, &v) in inputs.iter().enumerate() {
                        let xv = node_value(nodes, v);
                        let dot: f32 = g
                            .as_slice()
                            .iter()
                            .zip(xv.as_slice())
                            .map(|(a, b)| a * b)
                            .sum();
                        gc.as_mut_slice()[k] = dot;
                        let ck = node_value(nodes, *coeffs).as_slice()[k];
                        out.push((v, pooled_map(pool, g, |x| x * ck)));
                    }
                    out.push((*coeffs, gc));
                    Delta::Many(out)
                }
                Op::SoftmaxCrossEntropy {
                    logits,
                    targets,
                    probs,
                } => {
                    let (n, classes) = (probs.shape().dim(0), probs.shape().dim(1));
                    let mut gl = pooled_copy(pool, probs);
                    let s = g.item() / n as f32;
                    {
                        let o = gl.as_mut_slice();
                        for (i, &t) in targets.iter().enumerate() {
                            o[i * classes + t] -= 1.0;
                        }
                        for v in o.iter_mut() {
                            *v *= s;
                        }
                    }
                    Delta::One(*logits, gl)
                }
                Op::MseLoss { pred, target } => {
                    let pv = node_value(nodes, *pred);
                    let n = pv.len() as f32;
                    let s = 2.0 * g.item() / n;
                    // `(p - t) * s` keeps the subtract-then-scale rounding
                    // order of the materialized `sub().scale()` formulation.
                    let gp = pooled_zip(pool, pv, target, "sub", |p, t| (p - t) * s);
                    Delta::One(*pred, gp)
                }
            }
        };
        match delta {
            Delta::None => {}
            Delta::Ref(a) => self.accumulate_ref(a, g),
            Delta::RefBoth(a, b) => {
                self.accumulate_ref(a, g);
                self.accumulate_ref(b, g);
            }
            Delta::RefPlusOwned(a, b, gb) => {
                self.accumulate_ref(a, g);
                self.accumulate_owned(b, gb);
            }
            Delta::One(a, ga) => self.accumulate_owned(a, ga),
            Delta::Two(a, ga, b, gb) => {
                self.accumulate_owned(a, ga);
                self.accumulate_owned(b, gb);
            }
            Delta::Many(items) => {
                for (v, gv) in items {
                    self.accumulate_owned(v, gv);
                }
            }
        }
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Graph({} nodes)", self.nodes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_through_add_and_scale() {
        let mut g = Graph::new();
        let a = g.parameter(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let b = g.parameter(Tensor::from_vec(vec![3.0, 4.0], &[2]));
        let y = g.add(a, b);
        let z = g.scale(y, 3.0);
        let loss = g.sum(z);
        g.backward(loss);
        assert_eq!(g.grad(a).as_slice(), &[3.0, 3.0]);
        assert_eq!(g.grad(b).as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn backward_through_mul_uses_other_operand() {
        let mut g = Graph::new();
        let a = g.parameter(Tensor::from_vec(vec![2.0, 5.0], &[2]));
        let b = g.parameter(Tensor::from_vec(vec![7.0, -1.0], &[2]));
        let y = g.mul(a, b);
        let loss = g.sum(y);
        g.backward(loss);
        assert_eq!(g.grad(a).as_slice(), &[7.0, -1.0]);
        assert_eq!(g.grad(b).as_slice(), &[2.0, 5.0]);
    }

    #[test]
    fn matmul_gradients_have_right_shapes() {
        let mut g = Graph::new();
        let a = g.parameter(Tensor::uniform(&[3, 4], -1.0, 1.0, 1));
        let b = g.parameter(Tensor::uniform(&[4, 2], -1.0, 1.0, 2));
        let y = g.matmul(a, b);
        let loss = g.sum(y);
        g.backward(loss);
        assert_eq!(g.grad(a).shape().dims(), &[3, 4]);
        assert_eq!(g.grad(b).shape().dims(), &[4, 2]);
    }

    #[test]
    fn inputs_receive_no_gradient() {
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(&[2]));
        let w = g.parameter(Tensor::ones(&[2]));
        let y = g.mul(x, w);
        let loss = g.sum(y);
        g.backward(loss);
        assert!(g.grad_opt(x).is_none());
        assert!(g.grad_opt(w).is_some());
    }

    #[test]
    fn relu_masks_negative_gradient() {
        let mut g = Graph::new();
        let a = g.parameter(Tensor::from_vec(vec![-1.0, 2.0], &[2]));
        let y = g.relu(a);
        let loss = g.sum(y);
        g.backward(loss);
        assert_eq!(g.grad(a).as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn relu6_masks_above_six() {
        let mut g = Graph::new();
        let a = g.parameter(Tensor::from_vec(vec![-1.0, 3.0, 8.0], &[3]));
        let y = g.relu6(a);
        assert_eq!(g.value(y).as_slice(), &[0.0, 3.0, 6.0]);
        let loss = g.sum(y);
        g.backward(loss);
        assert_eq!(g.grad(a).as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn cross_entropy_gradient_is_probs_minus_onehot() {
        let mut g = Graph::new();
        let logits = g.parameter(Tensor::from_vec(vec![0.0, 0.0], &[1, 2]));
        let loss = g.softmax_cross_entropy(logits, &[1]);
        // Uniform softmax: p = [0.5, 0.5]; grad = (p - onehot)/1.
        assert!((g.value(loss).item() - (2.0f32).ln()).abs() < 1e-6);
        g.backward(loss);
        let gl = g.grad(logits);
        assert!((gl.as_slice()[0] - 0.5).abs() < 1e-6);
        assert!((gl.as_slice()[1] + 0.5).abs() < 1e-6);
    }

    #[test]
    fn mse_loss_and_gradient() {
        let mut g = Graph::new();
        let p = g.parameter(Tensor::from_vec(vec![1.0, 3.0], &[2]));
        let loss = g.mse_loss(p, Tensor::from_vec(vec![0.0, 0.0], &[2]));
        assert!((g.value(loss).item() - 5.0).abs() < 1e-6);
        g.backward(loss);
        assert_eq!(g.grad(p).as_slice(), &[1.0, 3.0]);
    }

    #[test]
    fn mix_routes_gradients_to_coeffs_and_branches() {
        let mut g = Graph::new();
        let c = g.parameter(Tensor::from_vec(vec![0.25, 0.75], &[2]));
        let x0 = g.parameter(Tensor::from_vec(vec![1.0, 1.0], &[2]));
        let x1 = g.parameter(Tensor::from_vec(vec![2.0, 0.0], &[2]));
        let y = g.mix(c, &[x0, x1]);
        assert_eq!(g.value(y).as_slice(), &[0.25 + 1.5, 0.25]);
        let loss = g.sum(y);
        g.backward(loss);
        // d loss / d c_k = sum(x_k); d loss / d x_k = c_k.
        assert_eq!(g.grad(c).as_slice(), &[2.0, 2.0]);
        assert_eq!(g.grad(x0).as_slice(), &[0.25, 0.25]);
        assert_eq!(g.grad(x1).as_slice(), &[0.75, 0.75]);
    }

    #[test]
    fn gradient_accumulates_over_shared_subexpressions() {
        let mut g = Graph::new();
        let a = g.parameter(Tensor::from_vec(vec![3.0], &[1]));
        let y = g.add(a, a); // y = 2a
        let loss = g.sum(y);
        g.backward(loss);
        assert_eq!(g.grad(a).as_slice(), &[2.0]);
    }

    #[test]
    fn second_backward_resets_gradients() {
        let mut g = Graph::new();
        let a = g.parameter(Tensor::from_vec(vec![1.0], &[1]));
        let y = g.scale(a, 5.0);
        let loss = g.sum(y);
        g.backward(loss);
        g.backward(loss);
        assert_eq!(g.grad(a).as_slice(), &[5.0]);
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_rejects_non_scalar() {
        let mut g = Graph::new();
        let a = g.parameter(Tensor::ones(&[2]));
        g.backward(a);
    }

    #[test]
    fn global_avg_pool_gradient_is_uniform() {
        let mut g = Graph::new();
        let x = g.parameter(Tensor::uniform(&[1, 2, 2, 2], -1.0, 1.0, 4));
        let y = g.global_avg_pool(x);
        assert_eq!(g.value(y).shape().dims(), &[1, 2]);
        let loss = g.sum(y);
        g.backward(loss);
        for &v in g.grad(x).as_slice() {
            assert!((v - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn parameter_ref_matches_parameter() {
        let w = Tensor::uniform(&[4, 3], -1.0, 1.0, 9);
        let mut g1 = Graph::new();
        let p1 = g1.parameter(w.clone());
        let mut g2 = Graph::new();
        let p2 = g2.parameter_ref(&w);
        assert_eq!(g1.value(p1), g2.value(p2));
        assert!(g2.rg(p2));
    }

    #[test]
    fn reset_reuses_storage_and_preserves_bits() {
        let run = |g: &mut Graph| -> (Vec<f32>, Vec<f32>) {
            let x = g.input_ref(&Tensor::uniform(&[5, 4], -1.0, 1.0, 11));
            let w = g.parameter_ref(&Tensor::uniform(&[4, 3], -1.0, 1.0, 12));
            let h = g.matmul(x, w);
            let r = g.relu(h);
            let loss = g.mse_loss(r, Tensor::zeros(&[5, 3]));
            g.backward(loss);
            (
                g.value(r).as_slice().to_vec(),
                g.grad(w).as_slice().to_vec(),
            )
        };
        let mut fresh = Graph::new();
        let (v0, g0) = run(&mut fresh);

        let mut reused = Graph::new();
        let _ = run(&mut reused);
        let before = reused.pool_stats();
        reused.reset();
        assert!(reused.is_empty(), "reset must clear the tape");
        let (v1, g1) = run(&mut reused);
        let after = reused.pool_stats();

        assert_eq!(v0, v1, "reused tape must reproduce values bit-for-bit");
        assert_eq!(g0, g1, "reused tape must reproduce gradients bit-for-bit");
        assert!(
            after.hits > before.hits,
            "second step must be served from the tape pool (hits {} -> {})",
            before.hits,
            after.hits
        );
    }

    /// One step over every leaf and scalar-producing op that takes or
    /// returns an owned tensor, plus a matmul with an input operand.
    fn owned_leaf_step(g: &mut Graph) {
        let x = g.input(Tensor::uniform(&[6, 5], -1.0, 1.0, 21));
        let w = g.parameter(Tensor::uniform(&[5, 4], -1.0, 1.0, 22));
        let h = g.matmul(x, w);
        let ce = g.softmax_cross_entropy(h, &[0, 1, 2, 3, 0, 1]);
        let mse = g.mse_loss(h, Tensor::uniform(&[6, 4], -1.0, 1.0, 23));
        let total = g.sum(h);
        let avg = g.mean(h);
        let losses = g.add(ce, mse);
        let moments = g.add(total, avg);
        let loss = g.add(losses, moments);
        g.backward(loss);
    }

    #[test]
    fn repeated_steps_leave_the_pool_unchanged() {
        let occupancy = |g: &Graph| {
            let s = g.pool_stats();
            (s.buffers, s.retained_bytes, s.misses)
        };
        let mut g = Graph::new();
        owned_leaf_step(&mut g);
        let warm = occupancy(&g);
        for step in 0..100 {
            g.reset();
            owned_leaf_step(&mut g);
            assert_eq!(
                occupancy(&g),
                warm,
                "step {step}: (buffers, retained bytes, misses) moved after warm-up"
            );
        }
    }

    #[test]
    fn matmul_backward_skips_the_input_operand_gemm() {
        let xs = Tensor::uniform(&[7, 5], -1.0, 1.0, 31);
        let ws = Tensor::uniform(&[5, 3], -1.0, 1.0, 32);
        // Pool takes made by `backward`, and the weight gradient's bits.
        let run = |lhs_is_parameter: bool| -> (u64, Vec<u32>) {
            let mut g = Graph::new();
            let x = if lhs_is_parameter {
                g.parameter(xs.clone())
            } else {
                g.input(xs.clone())
            };
            let w = g.parameter(ws.clone());
            let y = g.matmul(x, w);
            let loss = g.sum(y);
            let before = g.pool_stats();
            g.backward(loss);
            let after = g.pool_stats();
            let takes = (after.hits + after.misses) - (before.hits + before.misses);
            let bits = g.grad(w).as_slice().iter().map(|v| v.to_bits()).collect();
            (takes, bits)
        };
        let (input_takes, input_bits) = run(false);
        let (param_takes, param_bits) = run(true);
        // The loss seed and the sum's broadcast take one buffer each; the
        // matmul takes one GEMM output per operand that requires a gradient.
        assert_eq!(input_takes, 3, "an input lhs must cost one GEMM output");
        assert_eq!(param_takes, 4, "a parameter lhs costs two GEMM outputs");
        assert_eq!(
            input_bits, param_bits,
            "skipping the lhs GEMM must not move the weight gradient"
        );
    }

    #[test]
    fn reset_recycles_loss_auxiliaries() {
        let mut g = Graph::new();
        let logits = g.parameter(Tensor::uniform(&[3, 4], -1.0, 1.0, 5));
        let ce = g.softmax_cross_entropy(logits, &[0, 1, 2]);
        g.backward(ce);
        g.reset();
        // probs, node values and gradients all returned to the pool.
        assert!(g.pool_stats().buffers > 0);
        // The graph is fully usable after reset.
        let p = g.parameter(Tensor::from_vec(vec![1.0, 3.0], &[2]));
        let loss = g.mse_loss(p, Tensor::zeros(&[2]));
        g.backward(loss);
        assert_eq!(g.grad(p).as_slice(), &[1.0, 3.0]);
    }
}
