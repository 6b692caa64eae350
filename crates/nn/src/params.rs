//! Parameter storage decoupled from the autograd tape.
//!
//! Training loops in this workspace rebuild the [`Graph`] every step
//! (define-by-run). The canonical parameter values therefore live in a
//! [`ParamStore`]; each forward pass *binds* the needed parameters into the
//! fresh graph through a [`Bindings`] record, and after `backward` the
//! optimizer walks the bindings to pull each parameter's gradient.

use std::collections::HashMap;

use lightnas_tensor::{Graph, Tensor, Var};

/// Stable identifier of a parameter within a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(usize);

impl ParamId {
    /// The parameter's slot index (stable for the lifetime of the store).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Named, owned storage for trainable tensors.
///
/// # Example
///
/// ```
/// use lightnas_nn::ParamStore;
/// use lightnas_tensor::Tensor;
///
/// let mut store = ParamStore::new();
/// let id = store.add("w", Tensor::zeros(&[2, 2]));
/// assert_eq!(store.get(id).shape().dims(), &[2, 2]);
/// assert_eq!(store.len(), 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Tensor>,
    by_name: HashMap<String, ParamId>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter under a unique name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "parameter {name:?} registered twice"
        );
        let id = ParamId(self.values.len());
        self.by_name.insert(name.clone(), id);
        self.names.push(name);
        self.values.push(value);
        id
    }

    /// Current value of a parameter.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable access to a parameter's value (used by optimizers).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.0]
    }

    /// Replaces a parameter's value.
    ///
    /// # Panics
    ///
    /// Panics if the new value's shape differs from the stored one.
    pub fn set(&mut self, id: ParamId, value: Tensor) {
        assert_eq!(
            self.values[id.0].shape(),
            value.shape(),
            "parameter {:?} shape changed",
            self.names[id.0]
        );
        self.values[id.0] = value;
    }

    /// Looks a parameter up by name.
    pub fn id(&self, name: &str) -> Option<ParamId> {
        self.by_name.get(name).copied()
    }

    /// The registered name of `id`.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar weights across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Iterates over `(id, name, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (ParamId(i), self.names[i].as_str(), v))
    }
}

/// Records which [`ParamStore`] entries were bound into the current graph.
///
/// One `Bindings` value accompanies one forward pass. Binding the same
/// parameter twice in a pass is allowed (weight sharing); its gradient is the
/// sum over occurrences, which the optimizers handle by accumulating.
#[derive(Debug, Default)]
pub struct Bindings {
    pairs: Vec<(ParamId, Var)>,
}

impl Bindings {
    /// Creates an empty binding record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies the parameter's current value into `g` as a trainable leaf and
    /// records the association. The copy lands in the graph's tape pool
    /// ([`Graph::parameter_ref`]), so step-loop rebinding allocates nothing
    /// in steady state.
    pub fn bind(&mut self, g: &mut Graph, store: &ParamStore, id: ParamId) -> Var {
        let var = g.parameter_ref(store.get(id));
        self.pairs.push((id, var));
        var
    }

    /// Forgets the recorded pairs while keeping their capacity, so one
    /// `Bindings` value can accompany a reused graph ([`Graph::reset`])
    /// across training steps.
    pub fn clear(&mut self) {
        self.pairs.clear();
    }

    /// The recorded `(parameter, graph-node)` pairs.
    pub fn pairs(&self) -> &[(ParamId, Var)] {
        &self.pairs
    }

    /// Visits each bound parameter's gradient in ascending [`ParamId`]
    /// order, summing over occurrences for shared parameters.
    ///
    /// Parameters bound exactly once (the common case) borrow their gradient
    /// straight from the graph without materializing a copy; parameters
    /// whose graph nodes received no gradient are skipped.
    pub fn for_each_gradient(&self, g: &Graph, mut f: impl FnMut(ParamId, &Tensor)) {
        let mut order: Vec<usize> = (0..self.pairs.len()).collect();
        // Stable sort: occurrences of a shared parameter keep binding order,
        // so the accumulation sequence matches the pre-sorted walk.
        order.sort_by_key(|&i| self.pairs[i].0);
        let mut i = 0;
        while i < order.len() {
            let (id, var) = self.pairs[order[i]];
            let mut j = i + 1;
            while j < order.len() && self.pairs[order[j]].0 == id {
                j += 1;
            }
            if j == i + 1 {
                if let Some(grad) = g.grad_opt(var) {
                    f(id, grad);
                }
            } else {
                let mut acc: Option<Tensor> = None;
                for &k in &order[i..j] {
                    if let Some(grad) = g.grad_opt(self.pairs[k].1) {
                        match &mut acc {
                            Some(t) => t.add_scaled_assign(grad, 1.0),
                            None => acc = Some(grad.clone()),
                        }
                    }
                }
                if let Some(t) = acc {
                    f(id, &t);
                }
            }
            i = j;
        }
    }

    /// Sums the gradients of every occurrence of each bound parameter.
    ///
    /// Parameters whose graph nodes received no gradient are omitted.
    pub fn gradients(&self, g: &Graph) -> Vec<(ParamId, Tensor)> {
        let mut out = Vec::new();
        self.for_each_gradient(g, |id, t| out.push((id, t.clone())));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut s = ParamStore::new();
        let a = s.add("a", Tensor::zeros(&[2]));
        let b = s.add("b", Tensor::ones(&[3]));
        assert_eq!(s.id("a"), Some(a));
        assert_eq!(s.id("b"), Some(b));
        assert_eq!(s.id("c"), None);
        assert_eq!(s.name(b), "b");
        assert_eq!(s.num_scalars(), 5);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_name_panics() {
        let mut s = ParamStore::new();
        s.add("a", Tensor::zeros(&[1]));
        s.add("a", Tensor::zeros(&[1]));
    }

    #[test]
    #[should_panic(expected = "shape changed")]
    fn set_rejects_shape_change() {
        let mut s = ParamStore::new();
        let a = s.add("a", Tensor::zeros(&[2]));
        s.set(a, Tensor::zeros(&[3]));
    }

    #[test]
    fn bindings_collect_gradients() {
        let mut s = ParamStore::new();
        let w = s.add("w", Tensor::from_vec(vec![2.0, 3.0], &[2]));
        let mut g = Graph::new();
        let mut b = Bindings::new();
        let wv = b.bind(&mut g, &s, w);
        let x = g.input(Tensor::from_vec(vec![10.0, 100.0], &[2]));
        let y = g.mul(wv, x);
        let loss = g.sum(y);
        g.backward(loss);
        let grads = b.gradients(&g);
        assert_eq!(grads.len(), 1);
        assert_eq!(grads[0].0, w);
        assert_eq!(grads[0].1.as_slice(), &[10.0, 100.0]);
    }

    #[test]
    fn shared_parameter_gradients_accumulate() {
        let mut s = ParamStore::new();
        let w = s.add("w", Tensor::from_vec(vec![1.0], &[1]));
        let mut g = Graph::new();
        let mut b = Bindings::new();
        // Bind the same parameter twice: y = w1 + w2 where both are copies of w.
        let w1 = b.bind(&mut g, &s, w);
        let w2 = b.bind(&mut g, &s, w);
        let y = g.add(w1, w2);
        let loss = g.sum(y);
        g.backward(loss);
        let grads = b.gradients(&g);
        assert_eq!(grads.len(), 1);
        assert_eq!(grads[0].1.as_slice(), &[2.0]);
    }
}
