//! Layers: linear, convolutional, channel-affine normalization, the
//! MobileNetV2 inverted-residual block (`MBConv`) and Squeeze-and-Excitation.
//!
//! Every layer owns [`ParamId`]s into a [`ParamStore`] and exposes a
//! `forward(&self, graph, bindings, store, input) -> Var` method. Layers are
//! plain data: constructing one registers its parameters; calling `forward`
//! binds them into the current tape.

use lightnas_tensor::{init, Conv2dSpec, Graph, Tensor, Var};

use crate::{Bindings, ParamId, ParamStore};

/// Fully-connected layer `y = x·W (+ b)` with `x: [batch, in_features]`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Registers a linear layer's parameters under `name.w` / `name.b`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_features: usize,
        out_features: usize,
        bias: bool,
        seed: u64,
    ) -> Self {
        let w = store.add(
            format!("{name}.w"),
            init::xavier_uniform(
                &[in_features, out_features],
                in_features,
                out_features,
                seed,
            ),
        );
        let b = bias.then(|| store.add(format!("{name}.b"), Tensor::zeros(&[out_features])));
        Self {
            w,
            b,
            in_features,
            out_features,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The weight, shaped `[in_features, out_features]`.
    pub fn weight(&self) -> ParamId {
        self.w
    }

    /// The bias, shaped `[out_features]`, if the layer has one.
    pub fn bias(&self) -> Option<ParamId> {
        self.b
    }

    /// Applies the layer to `x` of shape `[batch, in_features]`.
    pub fn forward(&self, g: &mut Graph, b: &mut Bindings, store: &ParamStore, x: Var) -> Var {
        let w = b.bind(g, store, self.w);
        let y = g.matmul(x, w);
        match self.b {
            Some(bias) => {
                let bias = b.bind(g, store, bias);
                g.add_row_bias(y, bias)
            }
            None => y,
        }
    }
}

/// Full 2-D convolution layer.
#[derive(Debug, Clone)]
pub struct Conv2d {
    w: ParamId,
    spec: Conv2dSpec,
    in_channels: usize,
    out_channels: usize,
}

impl Conv2d {
    /// Registers a conv layer (`name.w`) with Kaiming-uniform init.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        seed: u64,
    ) -> Self {
        let padding = kernel / 2;
        let fan_in = in_channels * kernel * kernel;
        let w = store.add(
            format!("{name}.w"),
            init::kaiming_uniform(&[out_channels, in_channels, kernel, kernel], fan_in, seed),
        );
        Self {
            w,
            spec: Conv2dSpec {
                kernel,
                stride,
                padding,
            },
            in_channels,
            out_channels,
        }
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Applies the convolution to `x` of shape `[n, in_channels, h, w]`.
    pub fn forward(&self, g: &mut Graph, b: &mut Bindings, store: &ParamStore, x: Var) -> Var {
        let w = b.bind(g, store, self.w);
        g.conv2d(x, w, self.spec)
    }
}

/// Depthwise 2-D convolution layer (groups = channels).
#[derive(Debug, Clone)]
pub struct DwConv2d {
    w: ParamId,
    spec: Conv2dSpec,
    channels: usize,
}

impl DwConv2d {
    /// Registers a depthwise conv layer (`name.w`).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        channels: usize,
        kernel: usize,
        stride: usize,
        seed: u64,
    ) -> Self {
        let padding = kernel / 2;
        let w = store.add(
            format!("{name}.w"),
            init::kaiming_uniform(&[channels, 1, kernel, kernel], kernel * kernel, seed),
        );
        Self {
            w,
            spec: Conv2dSpec {
                kernel,
                stride,
                padding,
            },
            channels,
        }
    }

    /// Channel count (input = output).
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Applies the depthwise convolution.
    pub fn forward(&self, g: &mut Graph, b: &mut Bindings, store: &ParamStore, x: Var) -> Var {
        let w = b.bind(g, store, self.w);
        g.dwconv2d(x, w, self.spec)
    }
}

/// Per-channel learned scale and bias: `y = x * s[c] + b[c]`.
///
/// This is the normalization stand-in used throughout the reproduction's
/// micro networks: it has BatchNorm's affine expressiveness without running
/// statistics, which keeps the tape purely functional.
#[derive(Debug, Clone)]
pub struct ChannelAffine {
    scale: ParamId,
    bias: ParamId,
    channels: usize,
}

impl ChannelAffine {
    /// Registers scale (init 1) and bias (init 0) for `channels` channels.
    pub fn new(store: &mut ParamStore, name: &str, channels: usize) -> Self {
        let scale = store.add(format!("{name}.scale"), Tensor::ones(&[channels]));
        let bias = store.add(format!("{name}.bias"), Tensor::zeros(&[channels]));
        Self {
            scale,
            bias,
            channels,
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Applies `x * s + b` per channel to `x` of shape `[n, c, h, w]`.
    pub fn forward(&self, g: &mut Graph, b: &mut Bindings, store: &ParamStore, x: Var) -> Var {
        let n = g.value(x).shape().dim(0);
        let scale = b.bind(g, store, self.scale);
        // Broadcast the [c] scale to a [n, c] gate.
        let ones = g.input(Tensor::ones(&[n, 1]));
        let scale_row = g.reshape(scale, &[1, self.channels]);
        let gate = g.matmul(ones, scale_row);
        let y = g.mul_channel_gate(x, gate);
        let bias = b.bind(g, store, self.bias);
        g.add_channel_bias(y, bias)
    }
}

/// Squeeze-and-Excitation module (Hu et al., CVPR 2018; Table 4 ablation).
///
/// `gate = sigmoid(W2 · relu(W1 · avgpool(x)))`, applied channelwise.
#[derive(Debug, Clone)]
pub struct SqueezeExcite {
    fc1: Linear,
    fc2: Linear,
}

impl SqueezeExcite {
    /// Registers the two FC layers; `reduction` divides the hidden width.
    ///
    /// # Panics
    ///
    /// Panics if `channels / reduction` rounds to zero.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        channels: usize,
        reduction: usize,
        seed: u64,
    ) -> Self {
        let hidden = channels / reduction;
        assert!(
            hidden > 0,
            "SE hidden width is zero (channels {channels} / reduction {reduction})"
        );
        let fc1 = Linear::new(store, &format!("{name}.fc1"), channels, hidden, true, seed);
        let fc2 = Linear::new(
            store,
            &format!("{name}.fc2"),
            hidden,
            channels,
            true,
            seed + 1,
        );
        Self { fc1, fc2 }
    }

    /// Recalibrates `x` of shape `[n, c, h, w]` channelwise.
    pub fn forward(&self, g: &mut Graph, b: &mut Bindings, store: &ParamStore, x: Var) -> Var {
        let pooled = g.global_avg_pool(x);
        let h = self.fc1.forward(g, b, store, pooled);
        let h = g.relu(h);
        let h = self.fc2.forward(g, b, store, h);
        let gate = g.sigmoid(h);
        g.mul_channel_gate(x, gate)
    }
}

/// MobileNetV2 inverted-residual block — the `MBConv{K,E}` operator of the
/// paper's search space (Fig. 4).
///
/// Structure: 1×1 expansion (ratio `expansion`) → ReLU6 → `kernel`×`kernel`
/// depthwise → ReLU6 → 1×1 projection, with a residual connection when the
/// spatial size and channel count are preserved. `ChannelAffine` follows each
/// convolution. An optional [`SqueezeExcite`] sits after the depthwise stage.
#[derive(Debug, Clone)]
pub struct MbConv {
    expand: Option<(Conv2d, ChannelAffine)>,
    dw: DwConv2d,
    dw_affine: ChannelAffine,
    se: Option<SqueezeExcite>,
    project: Conv2d,
    project_affine: ChannelAffine,
    residual: bool,
}

impl MbConv {
    /// Registers an MBConv block.
    ///
    /// `expansion = 1` skips the expansion convolution (MobileNetV2's first
    /// bottleneck). The residual is used iff `stride == 1 && cin == cout`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        cin: usize,
        cout: usize,
        kernel: usize,
        stride: usize,
        expansion: usize,
        with_se: bool,
        seed: u64,
    ) -> Self {
        let mid = cin * expansion;
        let expand = (expansion != 1).then(|| {
            (
                Conv2d::new(store, &format!("{name}.expand"), cin, mid, 1, 1, seed),
                ChannelAffine::new(store, &format!("{name}.expand_aff"), mid),
            )
        });
        let dw = DwConv2d::new(store, &format!("{name}.dw"), mid, kernel, stride, seed + 1);
        let dw_affine = ChannelAffine::new(store, &format!("{name}.dw_aff"), mid);
        let se =
            with_se.then(|| SqueezeExcite::new(store, &format!("{name}.se"), mid, 4, seed + 2));
        let project = Conv2d::new(store, &format!("{name}.project"), mid, cout, 1, 1, seed + 3);
        let project_affine = ChannelAffine::new(store, &format!("{name}.project_aff"), cout);
        Self {
            expand,
            dw,
            dw_affine,
            se,
            project,
            project_affine,
            residual: stride == 1 && cin == cout,
        }
    }

    /// `true` when the block adds a residual connection.
    pub fn has_residual(&self) -> bool {
        self.residual
    }

    /// Applies the block to `x` of shape `[n, cin, h, w]`.
    pub fn forward(&self, g: &mut Graph, b: &mut Bindings, store: &ParamStore, x: Var) -> Var {
        let mut h = x;
        if let Some((conv, aff)) = &self.expand {
            h = conv.forward(g, b, store, h);
            h = aff.forward(g, b, store, h);
            h = g.relu6(h);
        }
        h = self.dw.forward(g, b, store, h);
        h = self.dw_affine.forward(g, b, store, h);
        h = g.relu6(h);
        if let Some(se) = &self.se {
            h = se.forward(g, b, store, h);
        }
        h = self.project.forward(g, b, store, h);
        h = self.project_affine.forward(g, b, store, h);
        if self.residual {
            h = g.add(h, x);
        }
        h
    }
}

/// Classification head: global average pool followed by a linear classifier.
#[derive(Debug, Clone)]
pub struct ClassifierHead {
    fc: Linear,
}

impl ClassifierHead {
    /// Registers the head for `channels` input channels and `classes` outputs.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        channels: usize,
        classes: usize,
        seed: u64,
    ) -> Self {
        Self {
            fc: Linear::new(store, name, channels, classes, true, seed),
        }
    }

    /// Maps `[n, c, h, w]` features to `[n, classes]` logits.
    pub fn forward(&self, g: &mut Graph, b: &mut Bindings, store: &ParamStore, x: Var) -> Var {
        let pooled = g.global_avg_pool(x);
        self.fc.forward(g, b, store, pooled)
    }
}

/// A plain multi-layer perceptron with ReLU between layers.
///
/// Used by the latency predictor (Sec. 3.2: 128-64-1) and reusable for any
/// small regression/classification head.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Registers an MLP with the given layer widths, e.g. `[154, 128, 64, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(store: &mut ParamStore, name: &str, widths: &[usize], seed: u64) -> Self {
        assert!(
            widths.len() >= 2,
            "MLP needs at least input and output widths"
        );
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                Linear::new(
                    store,
                    &format!("{name}.l{i}"),
                    w[0],
                    w[1],
                    true,
                    seed + i as u64,
                )
            })
            .collect();
        Self { layers }
    }

    /// Number of linear layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// The linear layers, input side first. Every one has a bias.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Applies the MLP (ReLU after every layer but the last).
    pub fn forward(&self, g: &mut Graph, b: &mut Bindings, store: &ParamStore, x: Var) -> Var {
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(g, b, store, h);
            if i + 1 < self.layers.len() {
                h = g.relu(h);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_shapes() {
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "fc", 4, 3, true, 0);
        let mut g = Graph::new();
        let mut b = Bindings::new();
        let x = g.input(Tensor::ones(&[2, 4]));
        let y = lin.forward(&mut g, &mut b, &store, x);
        assert_eq!(g.value(y).shape().dims(), &[2, 3]);
        assert_eq!(b.pairs().len(), 2); // weight + bias
    }

    #[test]
    fn linear_without_bias_binds_one_param() {
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "fc", 4, 3, false, 0);
        let mut g = Graph::new();
        let mut b = Bindings::new();
        let x = g.input(Tensor::ones(&[1, 4]));
        let _ = lin.forward(&mut g, &mut b, &store, x);
        assert_eq!(b.pairs().len(), 1);
    }

    #[test]
    fn conv_output_shape() {
        let mut store = ParamStore::new();
        let conv = Conv2d::new(&mut store, "c", 3, 8, 3, 2, 0);
        let mut g = Graph::new();
        let mut b = Bindings::new();
        let x = g.input(Tensor::ones(&[1, 3, 8, 8]));
        let y = conv.forward(&mut g, &mut b, &store, x);
        assert_eq!(g.value(y).shape().dims(), &[1, 8, 4, 4]);
    }

    #[test]
    fn channel_affine_identity_at_init() {
        let mut store = ParamStore::new();
        let aff = ChannelAffine::new(&mut store, "a", 2);
        let mut g = Graph::new();
        let mut b = Bindings::new();
        let x = g.input(Tensor::uniform(&[1, 2, 2, 2], -1.0, 1.0, 5));
        let y = aff.forward(&mut g, &mut b, &store, x);
        // scale = 1, bias = 0 -> identity.
        assert_eq!(g.value(y).as_slice(), g.value(x).as_slice());
    }

    #[test]
    fn mbconv_residual_rules() {
        let mut store = ParamStore::new();
        let with = MbConv::new(&mut store, "m1", 8, 8, 3, 1, 3, false, 0);
        let without_stride = MbConv::new(&mut store, "m2", 8, 8, 3, 2, 3, false, 10);
        let without_channels = MbConv::new(&mut store, "m3", 8, 16, 3, 1, 3, false, 20);
        assert!(with.has_residual());
        assert!(!without_stride.has_residual());
        assert!(!without_channels.has_residual());
    }

    #[test]
    fn mbconv_forward_shapes() {
        let mut store = ParamStore::new();
        let block = MbConv::new(&mut store, "m", 4, 6, 5, 2, 6, false, 0);
        let mut g = Graph::new();
        let mut b = Bindings::new();
        let x = g.input(Tensor::uniform(&[2, 4, 8, 8], -1.0, 1.0, 1));
        let y = block.forward(&mut g, &mut b, &store, x);
        assert_eq!(g.value(y).shape().dims(), &[2, 6, 4, 4]);
    }

    #[test]
    fn mbconv_with_se_runs() {
        let mut store = ParamStore::new();
        let block = MbConv::new(&mut store, "m", 4, 4, 3, 1, 6, true, 0);
        let mut g = Graph::new();
        let mut b = Bindings::new();
        let x = g.input(Tensor::uniform(&[1, 4, 4, 4], -1.0, 1.0, 2));
        let y = block.forward(&mut g, &mut b, &store, x);
        assert_eq!(g.value(y).shape().dims(), &[1, 4, 4, 4]);
    }

    #[test]
    fn expansion_one_has_no_expand_conv() {
        let mut store = ParamStore::new();
        let before = store.len();
        let _block = MbConv::new(&mut store, "m", 4, 4, 3, 1, 1, false, 0);
        // dw.w + dw_aff(2) + project.w + project_aff(2) = 6 params.
        assert_eq!(store.len() - before, 6);
    }

    #[test]
    fn mlp_depth_and_shape() {
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "mlp", &[154, 128, 64, 1], 0);
        assert_eq!(mlp.depth(), 3);
        let mut g = Graph::new();
        let mut b = Bindings::new();
        let x = g.input(Tensor::ones(&[5, 154]));
        let y = mlp.forward(&mut g, &mut b, &store, x);
        assert_eq!(g.value(y).shape().dims(), &[5, 1]);
    }

    #[test]
    fn classifier_head_shape() {
        let mut store = ParamStore::new();
        let head = ClassifierHead::new(&mut store, "head", 16, 10, 0);
        let mut g = Graph::new();
        let mut b = Bindings::new();
        let x = g.input(Tensor::ones(&[3, 16, 2, 2]));
        let y = head.forward(&mut g, &mut b, &store, x);
        assert_eq!(g.value(y).shape().dims(), &[3, 10]);
    }

    #[test]
    fn training_reduces_linear_regression_loss() {
        // One linear layer fit to y = 2x with plain gradient steps.
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "fc", 1, 1, false, 0);
        let xs = Tensor::from_vec(vec![-1.0, 0.5, 1.0, 2.0], &[4, 1]);
        let ys = Tensor::from_vec(vec![-2.0, 1.0, 2.0, 4.0], &[4, 1]);
        let mut last = f32::INFINITY;
        for _ in 0..200 {
            let mut g = Graph::new();
            let mut b = Bindings::new();
            let x = g.input(xs.clone());
            let pred = lin.forward(&mut g, &mut b, &store, x);
            let loss = g.mse_loss(pred, ys.clone());
            g.backward(loss);
            last = g.value(loss).item();
            for (id, grad) in b.gradients(&g) {
                store.get_mut(id).add_scaled_assign(&grad, -0.1);
            }
        }
        assert!(last < 1e-4, "regression did not converge: loss {last}");
        let w = store.get(store.id("fc.w").expect("registered")).as_slice()[0];
        assert!((w - 2.0).abs() < 0.01, "weight {w} != 2");
    }
}
