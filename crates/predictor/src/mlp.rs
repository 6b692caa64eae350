//! The MLP metric predictor (three FC layers: 128, 64, 1 — paper Sec. 3.2).

use std::cell::UnsafeCell;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::Barrier;

use lightnas_nn::layers::{Linear, Mlp};
use lightnas_nn::optim::Adam;
use lightnas_nn::ParamStore;
use lightnas_space::{Architecture, NUM_OPS, TOTAL_LAYERS};
use lightnas_tensor::kernels::{
    adam_update, matmul_into, matmul_nt_into, matmul_tn_into, AdamUpdate, PAR_MIN_FLOPS,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::MetricDataset;

/// Input width of the predictor: the flattened `ᾱ` encoding.
pub const INPUT_WIDTH: usize = TOTAL_LAYERS * NUM_OPS;

/// Training hyper-parameters of the predictor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Passes over the training fold.
    pub epochs: usize,
    /// Mini-batch size (at least 1).
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Initialization / shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 120,
            batch_size: 256,
            lr: 1e-3,
            seed: 0,
        }
    }
}

/// The trained MLP predictor.
///
/// Targets are standardized internally (zero mean, unit variance over the
/// training fold); predictions are returned in the original unit. The
/// trained network is frozen: prediction and input-gradient queries do not
/// mutate it — and it is `Clone`, so cross-device transfer can fork a proxy
/// predictor and [`fine_tune`](Self::fine_tune) the copy.
#[derive(Debug, Clone)]
pub struct MlpPredictor {
    pub(crate) store: ParamStore,
    pub(crate) mlp: Mlp,
    pub(crate) mean: f64,
    pub(crate) std: f64,
}

/// One layer's weight (`[fan_in, fan_out]`) and bias (`[fan_out]`), the
/// fan-out being the bias's length: the layer code that the fit's phase 1
/// and the queries share, all direct kernel calls.
#[derive(Clone, Copy)]
struct LayerView<'a> {
    w: &'a [f32],
    b: &'a [f32],
}

impl LayerView<'_> {
    /// The layer over the `m` rows of its input `a`: `out = a·W + b`, then
    /// `max(out, 0)` when `relu` (every layer but the last), so that `out`
    /// is the next layer's input.
    fn forward(self, a: &[f32], m: usize, out: &mut [f32], relu: bool) {
        let fan_out = self.b.len();
        matmul_into(a, self.w, m, self.w.len() / fan_out, fan_out, out);
        for row in out.chunks_exact_mut(fan_out) {
            for (v, &bias) in row.iter_mut().zip(self.b) {
                *v += bias;
                if relu {
                    *v = v.max(0.0);
                }
            }
        }
    }

    /// The gradient below the layer over `m` rows: `d = g·Wᵀ` from the
    /// output gradient `g`, masked by `a > 0` when the layer's input `a` is
    /// a ReLU's output. `max(z, 0) > 0` exactly where `z > 0`, NaN
    /// included, so that is the ReLU's own mask on its pre-activation `z`.
    fn backward(self, g: &[f32], m: usize, d: &mut [f32], relu_out: Option<&[f32]>) {
        let fan_out = self.b.len();
        matmul_nt_into(g, self.w, m, fan_out, self.w.len() / fan_out, d);
        if let Some(a) = relu_out {
            for (gi, &av) in d.iter_mut().zip(a) {
                *gi *= if av > 0.0 { 1.0 } else { 0.0 };
            }
        }
    }
}

/// Runs the standard Adam/mini-batch loop over `train` against standardized
/// targets, mutating `store` in place (shared by [`MlpPredictor::train`],
/// [`MlpPredictor::fine_tune`] and [`MlpPredictor::fine_tune_incremental`]),
/// on as many participants as [`participants`] gives it.
///
/// The loop calls the kernels directly and never builds a tape: every buffer
/// it uses is allocated once per fit, so a step allocates nothing outside
/// the kernels' own thread-local scratch pools. Each step runs in two phases
/// with a barrier after each:
///
/// 1. **Rows.** Each participant takes a contiguous block of the batch's
///    rows through the forward pass, the MSE output gradient and the
///    input-gradient chain. All of that is row-local, and every strict
///    kernel path computes an output row the same way whatever the row
///    count, so a block's rows get the bits the whole batch would.
/// 2. **Layers.** Each participant owns whole layers (layer `l` belongs to
///    participant `l mod count`) and computes their weight gradient `aᵀ·g`
///    over all rows, their bias gradient and their Adam update. Each
///    weight-gradient element is one kernel accumulation chain on one
///    participant, as on the tape.
///
/// On the strict tier every per-element operation is the tape's, so the
/// weights are bit-identical to the tape loop's (kept in the tests as the
/// oracle) at every participant count. The fast tier tunes its kernels per
/// shape, so there a block's row count may pick other kernels, within the
/// fast tier's usual tolerance.
fn fit(
    store: &mut ParamStore,
    mlp: &Mlp,
    train: &MetricDataset,
    config: &TrainConfig,
    mean: f64,
    std: f64,
) {
    let count = participants(mlp, train.len(), config.batch_size);
    fit_on(store, mlp, train, config, mean, std, count);
}

/// How many participants share a fit's steps. One while a step's
/// multiply-adds, `min(batch_size, rows) × Σ fan_in·fan_out`, stay under the
/// kernels' [`PAR_MIN_FLOPS`] (for the paper MLP: batches under 75 rows);
/// otherwise one per hardware thread, capped at one per layer because a
/// layer is phase 2's unit of work. The kernel thread knob
/// ([`lightnas_tensor::set_num_threads`]) plays no part.
fn participants(mlp: &Mlp, rows: usize, batch_size: usize) -> usize {
    let macs: usize = mlp
        .layers()
        .iter()
        .map(|l| l.in_features() * l.out_features())
        .sum();
    if batch_size.min(rows) * macs < PAR_MIN_FLOPS {
        return 1;
    }
    std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(mlp.depth())
}

/// [`fit`] on `participants` participants (clamped to `1..=depth`): the
/// calling thread and scoped helpers spawned for this call and joined before
/// it returns. The weights do not depend on the count.
fn fit_on(
    store: &mut ParamStore,
    mlp: &Mlp,
    train: &MetricDataset,
    config: &TrainConfig,
    mean: f64,
    std: f64,
    participants: usize,
) {
    let rows = config.batch_size.min(train.len());
    let layers: Vec<FitLayer> = mlp
        .layers()
        .iter()
        .map(|lin| FitLayer::new(store, lin, rows))
        .collect();
    let participants = participants.clamp(1, layers.len());
    let fit = Fit {
        train,
        config,
        mean,
        std,
        layers,
        participants,
        barrier: Barrier::new(participants),
    };
    std::thread::scope(|s| {
        for me in 1..participants {
            let fit = &fit;
            s.spawn(move || fit.participate(me));
        }
        fit.participate(0);
    });
    for (lin, mut layer) in mlp.layers().iter().zip(fit.layers) {
        layer.w.copy_to(store.get_mut(lin.weight()).as_mut_slice());
        layer.b.copy_to(store.get_mut(bias_of(lin)).as_mut_slice());
    }
}

/// Rejects a zero batch size before any work starts.
fn assert_batch_size(config: &TrainConfig) {
    assert!(
        config.batch_size > 0,
        "TrainConfig::batch_size must be at least 1"
    );
}

/// Rejects an encoding that is not one `ᾱ` row.
fn assert_width(encoding: &[f32]) {
    assert_eq!(
        encoding.len(),
        INPUT_WIDTH,
        "encoding must have {INPUT_WIDTH} values"
    );
}

fn bias_of(lin: &Linear) -> lightnas_nn::ParamId {
    lin.bias().expect("every Mlp layer has a bias")
}

/// What a fit's participants share.
struct Fit<'a> {
    train: &'a MetricDataset,
    config: &'a TrainConfig,
    mean: f64,
    std: f64,
    layers: Vec<FitLayer>,
    participants: usize,
    /// Ends each phase: phase 1 writes only the participant's own rows and
    /// phase 2 only its own layers, so a wait orders every write of one
    /// phase before every read of the next. It blocks rather than spins: a
    /// spinning waiter steals the core a busy host's other threads need.
    barrier: Barrier,
}

/// One layer's shared buffers.
struct FitLayer {
    fan_in: usize,
    fan_out: usize,
    /// Weight (`[fan_in, fan_out]`) and bias (`[fan_out]`): every
    /// participant reads them in phase 1, the layer's owner updates them in
    /// phase 2.
    w: Shared,
    b: Shared,
    /// The layer's input for every row of the batch, `[rows, fan_in]` (the
    /// encodings for the first layer, the ReLU output of the layer below
    /// for the others), and its output gradient `∂loss/∂z`,
    /// `[rows, fan_out]`: each participant writes its own rows in phase 1,
    /// the layer's owner reads all of them in phase 2.
    input: Shared,
    grad: Shared,
}

impl FitLayer {
    fn new(store: &ParamStore, lin: &Linear, rows: usize) -> Self {
        let (fan_in, fan_out) = (lin.in_features(), lin.out_features());
        Self {
            fan_in,
            fan_out,
            w: Shared::from_slice(store.get(lin.weight()).as_slice()),
            b: Shared::from_slice(store.get(bias_of(lin)).as_slice()),
            input: Shared::zeroed(rows * fan_in),
            grad: Shared::zeroed(rows * fan_out),
        }
    }

    /// The layer's current weights.
    ///
    /// # Safety
    ///
    /// No thread may write the weights while the view lives.
    unsafe fn view(&self) -> LayerView<'_> {
        // SAFETY: the caller rules out writers.
        unsafe {
            LayerView {
                w: self.w.read(0..self.fan_in * self.fan_out),
                b: self.b.read(0..self.fan_out),
            }
        }
    }
}

/// A layer's phase-2 state, private to its owner: the weight's and the
/// bias's gradient and Adam moments.
struct Owned {
    layer: usize,
    w: AdamState,
    b: AdamState,
}

/// One parameter's gradient and first and second Adam moments.
struct AdamState {
    grad: Vec<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl AdamState {
    fn new(len: usize) -> Self {
        Self {
            grad: vec![0.0; len],
            m: vec![0.0; len],
            v: vec![0.0; len],
        }
    }

    fn apply(&mut self, param: &mut [f32], h: &AdamUpdate) {
        adam_update(param, &self.grad, &mut self.m, &mut self.v, h);
    }
}

/// Element range of rows `rows` in a row-major buffer `width` wide.
fn span(rows: &Range<usize>, width: usize) -> Range<usize> {
    rows.start * width..rows.end * width
}

impl Fit<'_> {
    /// One participant's whole fit.
    fn participate(&self, me: usize) {
        let (config, layers) = (self.config, &self.layers);
        let n = self.train.len();
        let block = config.batch_size.min(n).div_ceil(self.participants);
        // Predictions and targets of this participant's rows.
        let mut p = vec![0.0f32; block * layers[layers.len() - 1].fan_out];
        let mut y = vec![0.0f32; block];
        let mut owned: Vec<Owned> = (me..layers.len())
            .step_by(self.participants)
            .map(|l| Owned {
                layer: l,
                w: AdamState::new(layers[l].fan_in * layers[l].fan_out),
                b: AdamState::new(layers[l].fan_out),
            })
            .collect();
        let mut adam = Adam::new(config.lr, 1e-5);
        let mut turns = Turns {
            barrier: &self.barrier,
            left: 2 * config.epochs * n.div_ceil(config.batch_size),
        };
        // Every participant replays the same seeded shuffle, so each knows
        // the batch's rows without a hand-off.
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5eed);
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..config.epochs {
            // Fisher-Yates shuffle per epoch.
            for i in (1..n).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(config.batch_size) {
                let per = chunk.len().div_ceil(self.participants);
                let rows = (me * per).min(chunk.len())..((me + 1) * per).min(chunk.len());
                self.rows_phase(chunk, rows, &mut p, &mut y);
                turns.wait();
                let h = adam.advance();
                for own in &mut owned {
                    self.layer_phase(me, own, chunk.len(), &h);
                }
                turns.wait();
            }
        }
    }

    /// Phase 1 over rows `rows` of the batch `chunk` (dataset indices): the
    /// forward pass, [`LayerView::forward`] on every layer into the next
    /// layer's input rows and the last one's into `p`; the MSE output
    /// gradient `(p − t)·2/b` over the whole batch's `b` rows; then
    /// [`LayerView::backward`] down to the first layer's output gradient.
    /// Nothing computes a gradient for the inputs.
    fn rows_phase(&self, chunk: &[usize], rows: Range<usize>, p: &mut [f32], y: &mut [f32]) {
        let layers = &self.layers;
        let (m, last) = (rows.len(), layers.len() - 1);
        let picks = &chunk[rows.clone()];
        let first = &layers[0];
        // SAFETY: phase 1 writes only this participant's rows, a block no
        // other participant touches before the barrier; the barrier that
        // ended the last phase 2 ordered its reads of them before this.
        let x = unsafe { first.input.write(span(&rows, first.fan_in)) };
        for (dst, &i) in x.chunks_exact_mut(first.fan_in).zip(picks) {
            dst.copy_from_slice(&self.train.encodings()[i]);
        }
        for (t, &i) in y.iter_mut().zip(picks) {
            *t = ((self.train.targets()[i] - self.mean) / self.std) as f32;
        }
        let p = &mut p[..m * layers[last].fan_out];
        for (l, layer) in layers.iter().enumerate() {
            // SAFETY: phase 1 reads this participant's own rows, written
            // above on this thread, and the weights, which only phase 2
            // writes; it writes only its own rows of the next layer's input.
            unsafe {
                let out = match layers.get(l + 1) {
                    Some(next) => next.input.write(span(&rows, layer.fan_out)),
                    None => &mut *p,
                };
                let a = layer.input.read(span(&rows, layer.fan_in));
                layer.view().forward(a, m, out, l < last);
            }
        }
        // The tape seeds the loss with 1, so its MSE scale is 2·1/b.
        let s = 2.0 / chunk.len() as f32;
        // SAFETY: phase 1 writes only this participant's rows.
        let g = unsafe { layers[last].grad.write(span(&rows, layers[last].fan_out)) };
        for ((gi, &pv), &t) in g.iter_mut().zip(p.iter()).zip(y.iter()) {
            *gi = (pv - t) * s;
        }
        for l in (1..layers.len()).rev() {
            let (layer, below) = (&layers[l], &layers[l - 1]);
            // SAFETY: phase 1 reads this participant's own rows and the
            // weights, and writes only its own rows of the layer below.
            let (view, g, a, d) = unsafe {
                (
                    layer.view(),
                    layer.grad.read(span(&rows, layer.fan_out)),
                    layer.input.read(span(&rows, layer.fan_in)),
                    below.grad.write(span(&rows, below.fan_out)),
                )
            };
            view.backward(g, m, d, Some(a));
        }
    }

    /// Phase 2 for one of this participant's layers over the batch's `rows`
    /// rows: the weight gradient `aᵀ·g` and the bias gradient (rows added in
    /// ascending order from `+0.0`), then Adam on both.
    fn layer_phase(&self, me: usize, own: &mut Owned, rows: usize, h: &AdamUpdate) {
        let layer = &self.layers[own.layer];
        let (fan_in, fan_out) = (layer.fan_in, layer.fan_out);
        debug_assert_eq!(
            own.layer % self.participants,
            me,
            "another participant's layer"
        );
        // SAFETY: phase 2 writes no row buffer, so after the barrier every
        // row is stable until the next one.
        let (a, g) = unsafe {
            (
                layer.input.read(0..rows * fan_in),
                layer.grad.read(0..rows * fan_out),
            )
        };
        matmul_tn_into(a, g, rows, fan_in, fan_out, &mut own.w.grad);
        own.b.grad.fill(0.0);
        for row in g.chunks_exact(fan_out) {
            for (o, &v) in own.b.grad.iter_mut().zip(row) {
                *o += v;
            }
        }
        // SAFETY: phase 2 writes a layer's weights on its one owner only,
        // and no participant reads them again before the barrier.
        let (w, b) = unsafe {
            (
                layer.w.write(0..fan_in * fan_out),
                layer.b.write(0..fan_out),
            )
        };
        own.w.apply(w, h);
        own.b.apply(b, h);
    }
}

/// One participant's share of the step barrier: every participant waits
/// twice per step. If a participant unwinds, dropping its `Turns` takes its
/// remaining waits, so the others run to the end instead of parking forever
/// and the scope's join re-raises the panic on the caller.
struct Turns<'a> {
    barrier: &'a Barrier,
    left: usize,
}

impl Turns<'_> {
    fn wait(&mut self) {
        self.left -= 1;
        self.barrier.wait();
    }
}

impl Drop for Turns<'_> {
    fn drop(&mut self) {
        while self.left > 0 {
            self.wait();
        }
    }
}

/// An `f32` buffer the fit's participants share, and the only place the fit
/// reaches memory through a shared reference. Callers rule out conflicting
/// access by phase: phase 1 touches only its own rows of the row buffers,
/// phase 2 only its own layers' weights, and the barrier between phases
/// orders every write before the next phase's reads.
struct Shared {
    cells: Box<[UnsafeCell<f32>]>,
}

// SAFETY: every access goes through `read`/`write`, whose callers guarantee
// that no element is written while another thread reads or writes it.
unsafe impl Sync for Shared {}

impl Shared {
    fn from_slice(values: &[f32]) -> Self {
        Self {
            cells: values.iter().map(|&v| UnsafeCell::new(v)).collect(),
        }
    }

    fn zeroed(len: usize) -> Self {
        Self {
            cells: (0..len).map(|_| UnsafeCell::new(0.0)).collect(),
        }
    }

    /// # Safety
    ///
    /// No other thread may write any element of `range` while the returned
    /// slice lives.
    unsafe fn read(&self, range: Range<usize>) -> &[f32] {
        debug_assert!(range.end <= self.cells.len(), "read past the buffer");
        let cells = &self.cells[range];
        // SAFETY: `UnsafeCell<f32>` has `f32`'s layout, and the caller rules
        // out writers.
        unsafe { std::slice::from_raw_parts(UnsafeCell::raw_get(cells.as_ptr()), cells.len()) }
    }

    /// # Safety
    ///
    /// No other thread may read or write any element of `range` while the
    /// returned slice lives.
    #[allow(clippy::mut_from_ref)]
    unsafe fn write(&self, range: Range<usize>) -> &mut [f32] {
        debug_assert!(range.end <= self.cells.len(), "write past the buffer");
        let cells = &self.cells[range];
        // SAFETY: `UnsafeCell<f32>` has `f32`'s layout, and the caller rules
        // out every other access.
        unsafe { std::slice::from_raw_parts_mut(UnsafeCell::raw_get(cells.as_ptr()), cells.len()) }
    }

    fn copy_to(&mut self, dst: &mut [f32]) {
        for (d, c) in dst.iter_mut().zip(self.cells.iter_mut()) {
            *d = *c.get_mut();
        }
    }
}

impl MlpPredictor {
    /// Fits the 128/64/1 MLP on `train` with Adam (the paper's protocol).
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty or `config.batch_size` is 0.
    pub fn train(train: &MetricDataset, config: &TrainConfig) -> Self {
        assert!(!train.is_empty(), "cannot train on an empty dataset");
        assert_batch_size(config);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            "predictor",
            &[INPUT_WIDTH, 128, 64, 1],
            config.seed,
        );
        let mean = train.target_mean();
        let std = train.target_std().max(1e-6);
        fit(&mut store, &mlp, train, config, mean, std);
        Self {
            store,
            mlp,
            mean,
            std,
        }
    }

    /// Continues training **from this predictor's weights** on a (typically
    /// small) dataset from another device — the few-shot transfer step of
    /// cross-device latency estimation.
    ///
    /// The returned predictor re-standardizes against `train`'s own
    /// mean/std (devices differ in scale far more than in shape), keeps the
    /// proxy's learned feature structure as the initialization, and runs the
    /// same deterministic Adam loop as [`train`](Self::train). `self` is
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty or `config.batch_size` is 0.
    pub fn fine_tune(&self, train: &MetricDataset, config: &TrainConfig) -> Self {
        assert!(!train.is_empty(), "cannot fine-tune on an empty dataset");
        assert_batch_size(config);
        let mut store = self.store.clone();
        let mlp = self.mlp.clone();
        let mean = train.target_mean();
        let std = train.target_std().max(1e-6);
        fit(&mut store, &mlp, train, config, mean, std);
        Self {
            store,
            mlp,
            mean,
            std,
        }
    }

    /// Continues training from this predictor's weights **keeping its
    /// output standardization** — the online-adaptation entry point.
    ///
    /// [`fine_tune`](Self::fine_tune) re-standardizes against the new fold,
    /// which is right for cross-*device* transfer (scales genuinely differ)
    /// but wrong for a small drift window from the *same* device: a few
    /// dozen rows mis-estimate mean/std badly, and re-anchoring to them
    /// makes successive shadow generations wander even on a stationary
    /// stream. Keeping the incumbent's (mean, std) turns drift adaptation
    /// into pure weight refinement — the linear output head absorbs any
    /// genuine scale shift — and keeps every generation's predictions
    /// directly comparable in the monitor's residual statistics.
    ///
    /// `self` is untouched; the returned predictor is the shadow candidate.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty or `config.batch_size` is 0.
    pub fn fine_tune_incremental(&self, train: &MetricDataset, config: &TrainConfig) -> Self {
        assert!(!train.is_empty(), "cannot fine-tune on an empty dataset");
        assert_batch_size(config);
        let mut store = self.store.clone();
        let mlp = self.mlp.clone();
        fit(&mut store, &mlp, train, config, self.mean, self.std);
        Self {
            store,
            mlp,
            mean: self.mean,
            std: self.std,
        }
    }

    /// Layer `lin`'s weights, read in place from the store.
    fn view(&self, lin: &Linear) -> LayerView<'_> {
        LayerView {
            w: self.store.get(lin.weight()).as_slice(),
            b: self.store.get(bias_of(lin)).as_slice(),
        }
    }

    /// Every layer's output over the `m` rows of `x`, `[m, fan_out]` each:
    /// the ReLU activations, then the standardized predictions.
    fn activations(&self, x: &[f32], m: usize) -> Vec<Vec<f32>> {
        let layers = self.mlp.layers();
        let mut outs: Vec<Vec<f32>> = Vec::with_capacity(layers.len());
        for (l, lin) in layers.iter().enumerate() {
            let mut out = vec![0.0; m * lin.out_features()];
            let a = outs.last().map_or(x, Vec::as_slice);
            self.view(lin).forward(a, m, &mut out, l + 1 < layers.len());
            outs.push(out);
        }
        outs
    }

    /// Predictions for the `m` rows of `x`, in the metric's unit.
    fn predict_rows(&self, x: &[f32], m: usize) -> Vec<f64> {
        let out = self.activations(x, m).pop().unwrap_or_default();
        out.iter()
            .map(|&v| v as f64 * self.std + self.mean)
            .collect()
    }

    /// Predicts the metric for a flattened encoding.
    ///
    /// # Panics
    ///
    /// Panics if `encoding.len() != 154`.
    pub fn predict_encoding(&self, encoding: &[f32]) -> f64 {
        assert_width(encoding);
        self.predict_rows(encoding, 1)[0]
    }

    /// Predicts the metric for an architecture.
    pub fn predict(&self, arch: &Architecture) -> f64 {
        self.predict_encoding(&arch.encode())
    }

    /// Predicts the metric for every encoding in one batched GEMM pass.
    ///
    /// Bit-identical to calling [`MlpPredictor::predict_encoding`] per row:
    /// rows of a matmul are independent and each output element keeps its
    /// per-row accumulation order regardless of the batch size, so batching
    /// changes throughput, never results.
    ///
    /// # Panics
    ///
    /// Panics if any encoding's length differs from 154.
    pub fn predict_batch(&self, encodings: &[Vec<f32>]) -> Vec<f64> {
        let mut x = Vec::with_capacity(encodings.len() * INPUT_WIDTH);
        for enc in encodings {
            assert_width(enc);
            x.extend_from_slice(enc);
        }
        self.predict_rows(&x, encodings.len())
    }

    /// Gradient of the prediction w.r.t. the encoding — the `∂LAT/∂ᾱ` term
    /// of Eq. 12, obtained "through a one-time backward propagation": the
    /// fit's input-gradient chain from a seed of 1, run one layer further
    /// down, to the input.
    ///
    /// Returned in the metric's original unit per unit encoding change.
    ///
    /// # Panics
    ///
    /// Panics if `encoding.len() != 154`.
    pub fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
        assert_width(encoding);
        let outs = self.activations(encoding, 1);
        let mut g = vec![1.0f32; outs.last().map_or(0, Vec::len)];
        for (l, lin) in self.mlp.layers().iter().enumerate().rev() {
            let mut d = vec![0.0; lin.in_features()];
            let below = l.checked_sub(1).map(|k| outs[k].as_slice());
            self.view(lin).backward(&g, 1, &mut d, below);
            g = d;
        }
        g.into_iter().map(|v| v * self.std as f32).collect()
    }

    /// Root-mean-square error over a dataset, in the metric's unit.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn rmse(&self, data: &MetricDataset) -> f64 {
        assert!(!data.is_empty(), "rmse over empty dataset");
        let se: f64 = self
            .predict_batch(data.encodings())
            .iter()
            .zip(data.targets())
            .map(|(p, &y)| (p - y) * (p - y))
            .sum();
        (se / data.len() as f64).sqrt()
    }

    /// Predictions for every row of a dataset (for scatter plots, Fig. 5).
    ///
    /// Runs as one batched GEMM; see [`MlpPredictor::predict_batch`].
    pub fn predict_all(&self, data: &MetricDataset) -> Vec<f64> {
        self.predict_batch(data.encodings())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Metric, WeightPrecision};
    use lightnas_hw::Xavier;
    use lightnas_nn::Bindings;
    use lightnas_space::SearchSpace;
    use lightnas_tensor::{kernels, Graph, Tensor};

    /// The fit as it ran on the autograd tape, kept verbatim: the oracle
    /// the two-phase loop must match bit for bit.
    fn tape_fit(
        store: &mut ParamStore,
        mlp: &Mlp,
        train: &MetricDataset,
        config: &TrainConfig,
        mean: f64,
        std: f64,
    ) {
        let n = train.len();
        let mut opt = Adam::new(config.lr, 1e-5);
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5eed);
        let mut order: Vec<usize> = (0..n).collect();
        // One tape and one input-batch buffer for the whole run: `reset` keeps
        // the tape's node and pooled buffer capacity, and the batch is refilled
        // in place (the tape copies it into pooled storage), so a steady-state
        // step allocates no tensor storage. It still allocates the target
        // vector (one `f32` per row) and a small shape vector for each tensor
        // it creates: the batch and target wrappers and every node value and
        // gradient on the tape.
        let mut g = Graph::new();
        let mut bind = Bindings::new();
        let mut x = Vec::with_capacity(config.batch_size.min(n) * INPUT_WIDTH);
        for _ in 0..config.epochs {
            // Fisher-Yates shuffle per epoch.
            for i in (1..n).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(config.batch_size) {
                let b = chunk.len();
                x.clear();
                let mut y = Vec::with_capacity(b);
                for &i in chunk {
                    x.extend_from_slice(&train.encodings()[i]);
                    y.push(((train.targets()[i] - mean) / std) as f32);
                }
                g.reset();
                bind.clear();
                let batch = Tensor::from_vec(std::mem::take(&mut x), &[b, INPUT_WIDTH]);
                let xv = g.input_ref(&batch);
                x = batch.into_vec();
                let pred = mlp.forward(&mut g, &mut bind, store, xv);
                let loss = g.mse_loss(pred, Tensor::from_vec(y, &[b, 1]));
                g.backward(loss);
                opt.step(store, &g, &bind);
            }
        }
    }

    /// The three public entry points into the fit.
    #[derive(Debug, Clone, Copy)]
    enum Entry {
        Train,
        FineTune,
        Incremental,
    }

    const ENTRIES: [Entry; 3] = [Entry::Train, Entry::FineTune, Entry::Incremental];

    /// A small trained predictor to fine-tune from.
    fn proxy() -> MlpPredictor {
        let space = SearchSpace::standard();
        let data = MetricDataset::sample(&Xavier::maxn(), &space, Metric::LatencyMs, 160, 2);
        let config = TrainConfig {
            epochs: 3,
            batch_size: 64,
            lr: 2e-3,
            seed: 1,
        };
        MlpPredictor::train(&data, &config)
    }

    /// `entry`'s checkpoint bytes with `run` as its loop, from the starting
    /// point the public method builds.
    fn fitted(
        entry: Entry,
        proxy: &MlpPredictor,
        data: &MetricDataset,
        config: &TrainConfig,
        run: impl FnOnce(&mut ParamStore, &Mlp, &MetricDataset, &TrainConfig, f64, f64),
    ) -> Vec<u8> {
        let mut p = match entry {
            Entry::Train => {
                let mut store = ParamStore::new();
                let mlp = Mlp::new(
                    &mut store,
                    "predictor",
                    &[INPUT_WIDTH, 128, 64, 1],
                    config.seed,
                );
                MlpPredictor {
                    store,
                    mlp,
                    mean: data.target_mean(),
                    std: data.target_std().max(1e-6),
                }
            }
            Entry::FineTune => MlpPredictor {
                mean: data.target_mean(),
                std: data.target_std().max(1e-6),
                ..proxy.clone()
            },
            Entry::Incremental => proxy.clone(),
        };
        run(&mut p.store, &p.mlp, data, config, p.mean, p.std);
        p.to_bytes(WeightPrecision::F32)
    }

    fn public(
        entry: Entry,
        proxy: &MlpPredictor,
        data: &MetricDataset,
        config: &TrainConfig,
    ) -> MlpPredictor {
        match entry {
            Entry::Train => MlpPredictor::train(data, config),
            Entry::FineTune => proxy.fine_tune(data, config),
            Entry::Incremental => proxy.fine_tune_incremental(data, config),
        }
    }

    /// Asserts that every entry point lands on the tape loop's checkpoint
    /// bytes, through its public method and at 1, 2 and 3 participants.
    fn assert_fit_matches_tape(rows: usize, batch_size: usize, epochs: usize) {
        let space = SearchSpace::standard();
        let data = MetricDataset::sample(&Xavier::maxn(), &space, Metric::LatencyMs, rows, 11);
        let config = TrainConfig {
            epochs,
            batch_size,
            lr: 2e-3,
            seed: 7,
        };
        let proxy = proxy();
        for entry in ENTRIES {
            let reference = fitted(entry, &proxy, &data, &config, tape_fit);
            let case = format!("{entry:?}, {rows} rows, batch {batch_size}");
            let got = public(entry, &proxy, &data, &config).to_bytes(WeightPrecision::F32);
            assert!(got == reference, "{case}: the public fit moved the bytes");
            for participants in 1..=3 {
                let got = fitted(entry, &proxy, &data, &config, |s, m, d, c, mean, std| {
                    fit_on(s, m, d, c, mean, std, participants)
                });
                assert!(
                    got == reference,
                    "{case}: {participants} participants moved the bytes"
                );
            }
        }
    }

    #[test]
    fn fit_matches_the_tape_at_batch_256_with_a_short_last_batch() {
        assert_fit_matches_tape(600, 256, 2);
    }

    #[test]
    fn fit_matches_the_tape_at_batch_128() {
        assert_fit_matches_tape(600, 128, 2);
    }

    #[test]
    fn fit_matches_the_tape_on_either_side_of_the_split_cutoff() {
        assert_fit_matches_tape(300, 74, 2);
        assert_fit_matches_tape(300, 75, 2);
    }

    #[test]
    fn fit_matches_the_tape_at_batch_32() {
        assert_fit_matches_tape(300, 32, 2);
    }

    #[test]
    fn fit_matches_the_tape_at_batch_1() {
        assert_fit_matches_tape(41, 1, 1);
    }

    #[test]
    fn fit_matches_the_tape_with_a_batch_larger_than_the_data() {
        assert_fit_matches_tape(97, 512, 4);
    }

    #[test]
    fn fit_matches_the_tape_over_an_odd_row_count() {
        // 151- and 150-row batches: the row blocks are uneven at 2 and 3
        // participants.
        assert_fit_matches_tape(301, 151, 2);
    }

    #[test]
    fn fit_splits_from_75_rows_on_the_paper_mlp() {
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "predictor", &[INPUT_WIDTH, 128, 64, 1], 0);
        let machine = std::thread::available_parallelism()
            .map_or(1, NonZeroUsize::get)
            .min(3);
        assert_eq!(participants(&mlp, 8000, 74), 1);
        assert_eq!(participants(&mlp, 8000, 75), machine);
        assert_eq!(participants(&mlp, 8000, 256), machine);
        // A dataset smaller than the batch bounds the step.
        assert_eq!(participants(&mlp, 74, 256), 1);
    }

    #[test]
    fn fit_with_zero_epochs_returns_the_initial_weights() {
        let space = SearchSpace::standard();
        let data = MetricDataset::sample(&Xavier::maxn(), &space, Metric::LatencyMs, 200, 4);
        let config = TrainConfig {
            epochs: 0,
            batch_size: 128,
            lr: 2e-3,
            seed: 3,
        };
        let proxy = proxy();
        for entry in ENTRIES {
            let initial = fitted(entry, &proxy, &data, &config, |_, _, _, _, _, _| {});
            let got = public(entry, &proxy, &data, &config).to_bytes(WeightPrecision::F32);
            assert!(got == initial, "{entry:?}: zero epochs moved a weight");
        }
        assert!(
            proxy
                .fine_tune_incremental(&data, &config)
                .to_bytes(WeightPrecision::F32)
                == proxy.to_bytes(WeightPrecision::F32)
        );
    }

    /// Eight rows and a zero batch size.
    fn zero_batch() -> (MetricDataset, TrainConfig) {
        let space = SearchSpace::standard();
        let data = MetricDataset::sample(&Xavier::maxn(), &space, Metric::LatencyMs, 8, 0);
        let config = TrainConfig {
            batch_size: 0,
            ..TrainConfig::default()
        };
        (data, config)
    }

    #[test]
    #[should_panic(expected = "TrainConfig::batch_size must be at least 1")]
    fn fit_rejects_a_zero_batch_size_in_train() {
        let (data, config) = zero_batch();
        let _ = MlpPredictor::train(&data, &config);
    }

    #[test]
    #[should_panic(expected = "TrainConfig::batch_size must be at least 1")]
    fn fit_rejects_a_zero_batch_size_in_fine_tune() {
        let (data, config) = zero_batch();
        let _ = proxy().fine_tune(&data, &config);
    }

    #[test]
    #[should_panic(expected = "TrainConfig::batch_size must be at least 1")]
    fn fit_rejects_a_zero_batch_size_in_fine_tune_incremental() {
        let (data, config) = zero_batch();
        let _ = proxy().fine_tune_incremental(&data, &config);
    }

    fn train_small() -> (MlpPredictor, MetricDataset, MetricDataset) {
        let space = SearchSpace::standard();
        let device = Xavier::maxn();
        let data = MetricDataset::sample(&device, &space, Metric::LatencyMs, 1200, 1);
        let (train, valid) = data.split(0.8);
        let config = TrainConfig {
            epochs: 40,
            batch_size: 128,
            lr: 2e-3,
            seed: 0,
        };
        (MlpPredictor::train(&train, &config), train, valid)
    }

    #[test]
    fn predictor_beats_the_mean_baseline_by_a_wide_margin() {
        let (p, _, valid) = train_small();
        let rmse = p.rmse(&valid);
        let baseline = valid.target_std();
        assert!(
            rmse < baseline / 4.0,
            "predictor RMSE {rmse:.3} ms should be ≪ mean-baseline {baseline:.3} ms"
        );
    }

    #[test]
    fn predictions_track_targets_in_rank() {
        let (p, _, valid) = train_small();
        // Spearman-ish check: correlation of prediction and target > 0.9.
        let preds = p.predict_all(&valid);
        let ys = valid.targets();
        let n = preds.len() as f64;
        let (mp, my) = (preds.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
        let cov: f64 = preds
            .iter()
            .zip(ys)
            .map(|(a, b)| (a - mp) * (b - my))
            .sum::<f64>()
            / n;
        let sp = (preds.iter().map(|a| (a - mp) * (a - mp)).sum::<f64>() / n).sqrt();
        let sy = (ys.iter().map(|b| (b - my) * (b - my)).sum::<f64>() / n).sqrt();
        let corr = cov / (sp * sy);
        assert!(corr > 0.9, "correlation {corr:.3} too weak");
    }

    #[test]
    fn gradient_has_input_shape_and_is_nonzero() {
        let (p, _, _) = train_small();
        let space = SearchSpace::standard();
        let arch = Architecture::random(&space, 5);
        let grad = p.gradient(&arch.encode());
        assert_eq!(grad.len(), INPUT_WIDTH);
        assert!(grad.iter().any(|&g| g.abs() > 1e-6), "gradient is all zero");
    }

    #[test]
    fn gradient_points_towards_heavier_operators() {
        // Flipping a slot from Skip to MBConv-K7E6 must increase predicted
        // latency; the input gradient should reflect that direction on
        // average across slots.
        let (p, _, _) = train_small();
        let space = SearchSpace::standard();
        let arch = Architecture::random(&space, 9);
        let grad = p.gradient(&arch.encode());
        let mut heavy_minus_skip = 0.0f32;
        for l in 1..TOTAL_LAYERS {
            // index 5 = K7E6, index 6 = Skip in the canonical order.
            heavy_minus_skip += grad[l * NUM_OPS + 5] - grad[l * NUM_OPS + 6];
        }
        assert!(
            heavy_minus_skip > 0.0,
            "K7E6 direction should raise latency vs Skip (sum {heavy_minus_skip})"
        );
    }

    #[test]
    fn predict_matches_predict_encoding() {
        let (p, _, _) = train_small();
        let space = SearchSpace::standard();
        let arch = Architecture::random(&space, 3);
        assert_eq!(p.predict(&arch), p.predict_encoding(&arch.encode()));
    }

    #[test]
    fn fine_tune_adapts_to_a_shifted_metric_scale() {
        // Simulate a second device as an affine re-scale of the first: a
        // few-shot fine-tune from the proxy weights must track the new
        // scale far better than the untouched proxy does.
        let (proxy, train, valid) = train_small();
        let rescale = |d: &MetricDataset| {
            MetricDataset::from_rows(
                d.metric(),
                d.archs().to_vec(),
                d.targets().iter().map(|t| 3.5 * t + 40.0).collect(),
            )
        };
        let shifted_valid = rescale(&valid);
        let few_shot = rescale(&train).take(100);
        let arch = Architecture::random(&SearchSpace::standard(), 1);
        let before = proxy.predict(&arch);
        let tuned = proxy.fine_tune(
            &few_shot,
            &TrainConfig {
                epochs: 60,
                batch_size: 32,
                lr: 1e-3,
                seed: 0,
            },
        );
        let proxy_rmse = proxy.rmse(&shifted_valid);
        let tuned_rmse = tuned.rmse(&shifted_valid);
        assert!(
            tuned_rmse < proxy_rmse / 5.0,
            "fine-tuned RMSE {tuned_rmse:.3} should be far below the raw proxy's {proxy_rmse:.3}"
        );
        // The source predictor is frozen: fine-tuning forked a copy.
        assert_eq!(proxy.predict(&arch).to_bits(), before.to_bits());
        assert_ne!(tuned.predict(&arch).to_bits(), before.to_bits());
    }

    #[test]
    fn fine_tune_is_deterministic() {
        let (proxy, train, _) = train_small();
        let few = train.take(64);
        let cfg = TrainConfig {
            epochs: 10,
            batch_size: 32,
            lr: 1e-3,
            seed: 4,
        };
        let a = proxy.fine_tune(&few, &cfg);
        let b = proxy.fine_tune(&few, &cfg);
        let arch = Architecture::random(&SearchSpace::standard(), 7);
        assert_eq!(a.predict(&arch).to_bits(), b.predict(&arch).to_bits());
    }

    #[test]
    fn incremental_fine_tune_tracks_drift_and_keeps_the_scale_anchor() {
        // A +30% multiplicative drift on the same device: the incremental
        // path must adapt on a small window while keeping the incumbent's
        // standardization (so residual statistics stay comparable).
        let (incumbent, train, valid) = train_small();
        let drift = |d: &MetricDataset| {
            MetricDataset::from_rows(
                d.metric(),
                d.archs().to_vec(),
                d.targets().iter().map(|t| 1.3 * t).collect(),
            )
        };
        let window = drift(&train).take(128);
        let drifted_valid = drift(&valid);
        let cfg = TrainConfig {
            epochs: 40,
            batch_size: 32,
            lr: 1e-3,
            seed: 2,
        };
        let shadow = incumbent.fine_tune_incremental(&window, &cfg);
        let stale_rmse = incumbent.rmse(&drifted_valid);
        let shadow_rmse = shadow.rmse(&drifted_valid);
        assert!(
            shadow_rmse < stale_rmse / 3.0,
            "shadow RMSE {shadow_rmse:.3} should be far below the stale {stale_rmse:.3}"
        );
        // Determinism + frozen source.
        let again = incumbent.fine_tune_incremental(&window, &cfg);
        let arch = Architecture::random(&SearchSpace::standard(), 13);
        assert_eq!(
            shadow.predict(&arch).to_bits(),
            again.predict(&arch).to_bits()
        );
        assert_eq!(
            incumbent.rmse(&valid).to_bits(),
            train_small().0.rmse(&valid).to_bits(),
            "incremental fine-tune must not mutate the incumbent"
        );
    }

    #[test]
    #[should_panic(expected = "154")]
    fn wrong_input_width_rejected() {
        let (p, _, _) = train_small();
        let _ = p.predict_encoding(&[0.0; 10]);
    }

    /// `predict_batch` as it ran on the autograd tape, kept as the oracle
    /// the direct queries must match bit for bit.
    fn tape_predict(p: &MlpPredictor, encodings: &[Vec<f32>]) -> Vec<f64> {
        let mut g = Graph::new();
        let x = Tensor::from_vec(encodings.concat(), &[encodings.len(), INPUT_WIDTH]);
        let xv = g.input(x);
        let out = p.mlp.forward(&mut g, &mut Bindings::new(), &p.store, xv);
        g.value(out)
            .as_slice()
            .iter()
            .map(|&v| v as f64 * p.std + p.mean)
            .collect()
    }

    /// `gradient` as it ran on the autograd tape: the second oracle.
    fn tape_gradient(p: &MlpPredictor, encoding: &[f32]) -> Vec<f32> {
        let mut g = Graph::new();
        let x = g.parameter(Tensor::from_vec(encoding.to_vec(), &[1, INPUT_WIDTH]));
        let out = p.mlp.forward(&mut g, &mut Bindings::new(), &p.store, x);
        let scalar = g.sum(out);
        g.backward(scalar);
        g.grad(x)
            .as_slice()
            .iter()
            .map(|&v| v * p.std as f32)
            .collect()
    }

    fn f64_bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn f32_bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn queries_match_the_tape() {
        let p = proxy();
        let space = SearchSpace::standard();
        // 2,000 one-hot architectures, then 1,000 fractional encodings that
        // spread each slot over its operators, as the search's relaxed `ᾱ`
        // does.
        let mut encodings: Vec<Vec<f32>> = (0..2000)
            .map(|seed| Architecture::random(&space, seed).encode())
            .collect();
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..1000 {
            let mut enc: Vec<f32> = (0..INPUT_WIDTH).map(|_| rng.random::<f32>()).collect();
            for slot in enc.chunks_exact_mut(NUM_OPS) {
                let sum: f32 = slot.iter().sum();
                slot.iter_mut().for_each(|v| *v /= sum);
            }
            encodings.push(enc);
        }
        for (i, enc) in encodings.iter().enumerate() {
            assert_eq!(
                p.predict_encoding(enc).to_bits(),
                tape_predict(&p, std::slice::from_ref(enc))[0].to_bits(),
                "encoding {i}: predict_encoding left the tape's bits"
            );
            assert_eq!(
                f32_bits(&p.gradient(enc)),
                f32_bits(&tape_gradient(&p, enc)),
                "encoding {i}: gradient left the tape's bits"
            );
        }
        for rows in [1, 2, 3, 4, 5, 8, 31, 32, 256, 1000] {
            for batch in encodings.chunks(rows) {
                assert_eq!(
                    f64_bits(&p.predict_batch(batch)),
                    f64_bits(&tape_predict(&p, batch)),
                    "a {}-row predict_batch left the tape's bits",
                    batch.len()
                );
            }
        }
    }

    #[test]
    fn queries_leave_the_kernel_pool_unchanged() {
        let p = proxy();
        let encodings: Vec<Vec<f32>> = (0..64)
            .map(|seed| Architecture::random(&SearchSpace::standard(), seed).encode())
            .collect();
        let query = |i: usize| {
            let enc = &encodings[i % encodings.len()];
            match i % 3 {
                0 => {
                    let _ = p.gradient(enc);
                }
                1 => {
                    let _ = p.predict_encoding(enc);
                }
                _ => {
                    let _ = p.predict_batch(&encodings[..8]);
                }
            }
        };
        let occupancy = || {
            let s = kernels::with_pool(|pool| pool.stats());
            (s.buffers, s.retained_bytes)
        };
        for i in 0..3 {
            query(i);
        }
        let warm = occupancy();
        for i in 3..10_003 {
            query(i);
            if i % 1000 == 0 {
                assert_eq!(occupancy(), warm, "call {i}: the kernel pool moved");
            }
        }
        assert_eq!(occupancy(), warm, "the kernel pool moved");
    }

    #[test]
    fn batched_prediction_is_bit_identical_to_per_row() {
        let (p, _, valid) = train_small();
        let batched = p.predict_batch(valid.encodings());
        assert_eq!(batched.len(), valid.len());
        for (enc, b) in valid.encodings().iter().zip(&batched) {
            assert_eq!(
                b.to_bits(),
                p.predict_encoding(enc).to_bits(),
                "batched prediction diverged from the per-row path"
            );
        }
        assert!(p.predict_batch(&[]).is_empty());
    }
}
