//! Optimizers: SGD with momentum and Adam.
//!
//! These match the paper's search settings (Sec. 4.1): supernet weights `w`
//! are trained with SGD (lr 0.1 cosine-annealed, momentum 0.9, weight decay
//! 3e-5); architecture parameters `α` with Adam (lr 1e-3, weight decay 1e-3).
//!
//! State (momentum / moment estimates) is keyed by [`ParamId`] and allocated
//! lazily on the first step for each parameter.

use std::collections::HashMap;

use lightnas_tensor::kernels::{adam_update, AdamUpdate};
use lightnas_tensor::{Graph, Tensor};

use crate::{Bindings, ParamId, ParamStore};

/// Stochastic gradient descent with classical momentum and decoupled L2
/// weight decay (`grad += wd * w` before the momentum update).
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: HashMap<ParamId, Tensor>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Self {
            lr,
            momentum,
            weight_decay,
            velocity: HashMap::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Updates the learning rate (driven by a schedule between steps).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies one update for every parameter bound in `bindings` that
    /// received a gradient.
    pub fn step(&mut self, store: &mut ParamStore, g: &Graph, bindings: &Bindings) {
        bindings.for_each_gradient(g, |id, grad| self.apply(store, id, grad));
    }

    /// Applies one update to a single parameter given its gradient.
    ///
    /// Fully in-place: no temporaries are allocated, and every element runs
    /// the exact rounding sequence of the original materialized formulation
    /// (`gd = g + w·wd`, `v = v·μ + gd`, `w += v·(−lr)`), so results are
    /// byte-identical to it.
    pub fn apply(&mut self, store: &mut ParamStore, id: ParamId, grad: &Tensor) {
        let (wd, mom, lr) = (self.weight_decay, self.momentum, self.lr);
        let v = self
            .velocity
            .entry(id)
            .or_insert_with(|| Tensor::zeros(grad.shape().dims()));
        let w = store.get_mut(id);
        assert_eq!(
            w.shape(),
            grad.shape(),
            "sgd gradient shape mismatch: {} vs {}",
            w.shape(),
            grad.shape()
        );
        let ws = w.as_mut_slice();
        let vs = v.as_mut_slice();
        let gs = grad.as_slice();
        for i in 0..gs.len() {
            let gd = if wd != 0.0 { gs[i] + ws[i] * wd } else { gs[i] };
            vs[i] = vs[i] * mom + gd;
            ws[i] += vs[i] * -lr;
        }
    }
}

/// First and second moment estimates of one parameter (Adam state).
#[derive(Debug)]
struct AdamState {
    m: Tensor,
    v: Tensor,
}

/// Adam optimizer (Kingma & Ba, 2015) with L2 weight decay.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    state: HashMap<ParamId, AdamState>,
}

impl Adam {
    /// Creates an Adam optimizer with the standard β = (0.9, 0.999), ε = 1e-8.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Self::with_betas(lr, 0.9, 0.999, 1e-8, weight_decay)
    }

    /// Creates an Adam optimizer with explicit hyper-parameters.
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32, eps: f32, weight_decay: f32) -> Self {
        Self {
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
            t: 0,
            state: HashMap::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Updates the learning rate.
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one update for every bound parameter with a gradient.
    ///
    /// All parameters in one `step` call share a single time increment.
    pub fn step(&mut self, store: &mut ParamStore, g: &Graph, bindings: &Bindings) {
        let h = self.advance();
        bindings.for_each_gradient(g, |id, grad| self.apply_with(store, id, grad, &h));
    }

    /// Applies one update to a single parameter, advancing the step counter.
    pub fn apply(&mut self, store: &mut ParamStore, id: ParamId, grad: &Tensor) {
        let h = self.advance();
        self.apply_with(store, id, grad, &h);
    }

    /// Advances the step counter and returns the new step's update
    /// hyper-parameters, bias corrections included.
    ///
    /// [`step`](Self::step) and [`apply`](Self::apply) run on this; a caller
    /// that keeps its own moment buffers (the predictor fit) calls it once
    /// per step and hands the result to
    /// [`lightnas_tensor::kernels::adam_update`] for every parameter.
    pub fn advance(&mut self) -> AdamUpdate {
        self.t += 1;
        let t = self.t as i32;
        AdamUpdate {
            weight_decay: self.weight_decay,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            lr: self.lr,
            s1: 1.0 / (1.0 - self.beta1.powi(t)),
            s2: 1.0 / (1.0 - self.beta2.powi(t)),
        }
    }

    /// Fully in-place Adam update. Each element runs the exact rounding
    /// sequence of the original materialized formulation — `gd = g + w·wd`,
    /// `m = m·β₁ + gd·(1−β₁)`, `v = v·β₂ + gd²·(1−β₂)`,
    /// `w += (m/bc₁) / (√(v/bc₂) + ε) · (−lr)` — so results are
    /// byte-identical to it, without allocating any temporaries. The
    /// elementwise traffic runs through
    /// [`lightnas_tensor::kernels::adam_update`], which vectorizes the
    /// update when the SIMD kernels are active (identical bits either way).
    fn apply_with(&mut self, store: &mut ParamStore, id: ParamId, grad: &Tensor, h: &AdamUpdate) {
        let st = self.state.entry(id).or_insert_with(|| AdamState {
            m: Tensor::zeros(grad.shape().dims()),
            v: Tensor::zeros(grad.shape().dims()),
        });
        let w = store.get_mut(id);
        assert_eq!(
            w.shape(),
            grad.shape(),
            "adam gradient shape mismatch: {} vs {}",
            w.shape(),
            grad.shape()
        );
        adam_update(
            w.as_mut_slice(),
            grad.as_slice(),
            st.m.as_mut_slice(),
            st.v.as_mut_slice(),
            h,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightnas_tensor::Graph;

    fn quadratic_loss(store: &ParamStore, id: ParamId) -> (Graph, Bindings) {
        // loss = sum(w^2), minimized at w = 0.
        let mut g = Graph::new();
        let mut b = Bindings::new();
        let w = b.bind(&mut g, store, id);
        let sq = g.mul(w, w);
        let loss = g.sum(sq);
        g.backward(loss);
        (g, b)
    }

    #[test]
    fn sgd_descends_quadratic() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(vec![4.0, -3.0], &[2]));
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        for _ in 0..100 {
            let (g, b) = quadratic_loss(&store, id);
            opt.step(&mut store, &g, &b);
        }
        assert!(store.get(id).norm() < 1e-3);
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let run = |momentum: f32| {
            let mut store = ParamStore::new();
            let id = store.add("w", Tensor::from_vec(vec![4.0], &[1]));
            let mut opt = Sgd::new(0.01, momentum, 0.0);
            for _ in 0..50 {
                let (g, b) = quadratic_loss(&store, id);
                opt.step(&mut store, &g, &b);
            }
            store.get(id).as_slice()[0].abs()
        };
        assert!(run(0.9) < run(0.0), "momentum should converge faster here");
    }

    #[test]
    fn weight_decay_shrinks_unused_weights() {
        // With zero gradient from the loss, decay alone shrinks the weight.
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(vec![1.0], &[1]));
        let mut opt = Sgd::new(0.1, 0.0, 0.5);
        opt.apply(&mut store, id, &Tensor::zeros(&[1]));
        assert!((store.get(id).as_slice()[0] - 0.95).abs() < 1e-6);
    }

    #[test]
    fn adam_descends_quadratic() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(vec![4.0, -3.0, 0.5], &[3]));
        let mut opt = Adam::new(0.05, 0.0);
        for _ in 0..400 {
            let (g, b) = quadratic_loss(&store, id);
            opt.step(&mut store, &g, &b);
        }
        assert!(store.get(id).norm() < 1e-2, "norm {}", store.get(id).norm());
    }

    #[test]
    fn adam_step_counter_advances_once_per_step() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::ones(&[1]));
        let b_id = store.add("b", Tensor::ones(&[1]));
        let mut opt = Adam::new(0.01, 0.0);
        let mut g = Graph::new();
        let mut b = Bindings::new();
        let av = b.bind(&mut g, &store, a);
        let bv = b.bind(&mut g, &store, b_id);
        let s = g.add(av, bv);
        let loss = g.sum(s);
        g.backward(loss);
        opt.step(&mut store, &g, &b);
        assert_eq!(opt.steps(), 1);
    }

    #[test]
    fn adam_first_step_size_is_about_lr() {
        // Bias correction makes the very first Adam step ≈ lr regardless of
        // gradient magnitude.
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(vec![10.0], &[1]));
        let mut opt = Adam::new(0.1, 0.0);
        opt.apply(&mut store, id, &Tensor::from_vec(vec![123.0], &[1]));
        let moved = 10.0 - store.get(id).as_slice()[0];
        assert!(
            (moved - 0.1).abs() < 1e-3,
            "first step {moved} should be ≈ lr"
        );
    }
}
