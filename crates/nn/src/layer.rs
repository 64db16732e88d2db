//! Network layers: fully-connected, convolutional, and pooling.
//!
//! Every layer is modelled as the paper's `(W, σ)` pair (Definition 2.1):
//! an affine "pre-activation" map followed by a (possibly non-linear)
//! activation.  Pooling layers have an identity affine part and use the pool
//! as their activation, which is exactly how the paper treats MaxPool/AvgPool
//! (they are activation functions, Definition 2.3 discussion).
//!
//! Besides forward evaluation, each layer exposes the three ingredients the
//! repair algorithms need:
//!
//! * parameter access (`params` / `add_to_params`) so a repair `Δ` can be
//!   applied to a single layer,
//! * vector–Jacobian products against the pre-activation with respect to the
//!   *input* and with respect to the *parameters*, which are used both to
//!   build the repair LP (Algorithm 1, line 5) and for gradient-descent
//!   training of the fine-tuning baselines, and
//! * the layer's activation as one [`ActivationKernel`], which activates,
//!   applies the activation linearised around an activation-channel
//!   pre-activation (Definition 4.2/4.3, the value channel of a Decoupled
//!   DNN), back-propagates through that linearisation, and tells the
//!   linear-region computation where the activation changes piece.
//!
//! # Convolutions on the GEMM
//!
//! Dense and conv layers share one kernel, `prdnn_linalg::gemm`, and so
//! one summation order.  A conv layer unfolds its input into patches
//! (im2col; Chellapilla, Puri & Simard, IWFHR 2006) through a gather table
//! built once per call: per output position, the input index of each of
//! the `in_c · k_h · k_w` filter taps in `(ic, ky, kx)` order, or a padding
//! sentinel.
//!
//! * **Pre-activation.** A batch's patches form one `(images · positions) ×
//!   (1 + taps)` panel whose column 0 is the constant 1.0; the filters get
//!   their bias prepended as column 0.  One `gemm_nt` yields every
//!   pre-activation.  A single input runs as a batch of one.
//! * **Parameter VJP.** Per input, one `gemm_nn` of `dz`, viewed as
//!   `(rows · out_c) × positions`, by that input's patch panel.  Column 0
//!   of the product holds the bias gradients.  Training's minibatch
//!   gradient runs the same chains per example, passing over the
//!   positions where `dz` is zero, and adds the examples in order.
//! * **Input VJP.** No GEMM: it walks the gather table in the direct loop's
//!   connection order, passing over zero `dz` entries.  A GEMM and a
//!   col2im scatter would reorder its sums, and training calls it on every
//!   minibatch.
//!
//! **Why the bits hold.** The GEMM accumulates each output in one
//! ascending-`k` chain that starts at 0.0 and uses no FMA.  A pre-activation
//! therefore sums `0.0 + b · 1.0 = b` and then each `w · x` in the direct
//! loop's tap order, which is the direct loop's own sum.  A padding tap adds
//! `w · 0.0 = ±0.0`, which leaves the sum unchanged: a sum that starts at
//! `b ≠ −0.0` can never become −0.0.  A parameter-VJP entry is likewise the
//! direct loop's ascending-position chain from 0.0, plus ±0.0 padding
//! terms.  A zero `dz` entry passed over would have added products of ±0.0
//! to sums that start at +0.0, which never become −0.0 either.  So every
//! conv kernel is bit-identical to the direct loops, which remain as the
//! `#[cfg(test)]` oracle, with two exceptions: a bias of exactly −0.0 (the
//! GEMM's `0.0 + −0.0` is +0.0), and non-finite weights or inputs (or `dz`
//! entries, for the parameter VJP), whose padding terms and passed-over
//! terms are NaN where the direct loop skips or adds them.

use crate::activation::Activation;
use crate::batch::{zeros, FlatBatch};
use prdnn_linalg::{gemm, Matrix};
use serde::{Deserialize, Serialize};

/// A fully-connected layer `σ(W x + b)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseLayer {
    /// Weight matrix of shape `output_dim × input_dim`.
    pub weights: Matrix,
    /// Bias vector of length `output_dim`.
    pub bias: Vec<f64>,
    /// Activation applied element-wise to the pre-activation.
    pub activation: Activation,
}

impl DenseLayer {
    /// Creates a dense layer from its weights, bias, and activation.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != weights.rows()`.
    pub fn new(weights: Matrix, bias: Vec<f64>, activation: Activation) -> Self {
        assert_eq!(
            weights.rows(),
            bias.len(),
            "dense layer: bias/weight row mismatch"
        );
        DenseLayer {
            weights,
            bias,
            activation,
        }
    }
}

/// A 2-D convolutional layer `σ(conv(x, K) + b)` over `C×H×W` inputs
/// flattened in row-major `[channel][row][col]` order.
///
/// The pre-activation (single and batch) runs as one `gemm_nt` of an
/// im2col patch panel by the bias-prepended filters, the parameter VJP as
/// one `gemm_nn` of `dz` by the patch panel, and the input VJP as a loop
/// over the gather table.  All three are bit-identical to the direct
/// six-deep loops except for a bias of exactly −0.0 and non-finite weights
/// (see the module doc).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conv2dLayer {
    /// Input channel count.
    pub in_channels: usize,
    /// Input height.
    pub in_height: usize,
    /// Input width.
    pub in_width: usize,
    /// Output channel count (number of filters).
    pub out_channels: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride (same in both spatial dimensions).
    pub stride: usize,
    /// Zero padding (same on every side).
    pub padding: usize,
    /// Filter weights in `[out_c][in_c][kh][kw]` order.
    pub weights: Vec<f64>,
    /// Per-output-channel bias.
    pub bias: Vec<f64>,
    /// Activation applied element-wise to the pre-activation.
    pub activation: Activation,
}

/// Tap-table entry of a tap that falls in the zero padding.
const PADDING_TAP: usize = usize::MAX;

/// Size budget of one forward patch panel in `f64` entries (512 KiB): a
/// batch is unfolded as many whole images at a time as fit, at least one.
/// The chunking changes no bits — every output is one dot product of a
/// patch row with a weight row.
const PANEL_ENTRIES: usize = 1 << 16;

impl Conv2dLayer {
    /// Output height after the convolution.
    pub fn out_height(&self) -> usize {
        (self.in_height + 2 * self.padding - self.kernel_h) / self.stride + 1
    }

    /// Output width after the convolution.
    pub fn out_width(&self) -> usize {
        (self.in_width + 2 * self.padding - self.kernel_w) / self.stride + 1
    }

    /// Input length (`in_channels · in_height · in_width`).
    fn in_dim(&self) -> usize {
        self.in_channels * self.in_height * self.in_width
    }

    /// Output positions per channel (`out_height · out_width`).
    fn positions(&self) -> usize {
        self.out_height() * self.out_width()
    }

    /// Taps per output position (`in_channels · kernel_h · kernel_w`): the
    /// length of one filter, and of one im2col patch.
    fn taps(&self) -> usize {
        self.in_channels * self.kernel_h * self.kernel_w
    }

    /// The im2col gather table, `positions × taps`: entry `p · taps + t` is
    /// the input index that tap `t = (ic · kernel_h + ky) · kernel_w + kx`
    /// reads at output position `p = oy · out_width + ox`, or
    /// [`PADDING_TAP`] where it falls in the padding.  Taps run in filter
    /// order, so a patch row lines up with a row of `weights`.
    fn tap_table(&self) -> Vec<usize> {
        let (oh, ow) = (self.out_height(), self.out_width());
        let mut table = Vec::with_capacity(oh * ow * self.taps());
        // Unpadded input coordinate of a tap, if it is inside the image.
        let inside = |o: usize, k: usize, side: usize| {
            (o * self.stride + k)
                .checked_sub(self.padding)
                .filter(|&i| i < side)
        };
        for oy in 0..oh {
            for ox in 0..ow {
                for ic in 0..self.in_channels {
                    for ky in 0..self.kernel_h {
                        let row = inside(oy, ky, self.in_height);
                        for kx in 0..self.kernel_w {
                            table.push(match (row, inside(ox, kx, self.in_width)) {
                                (Some(iy), Some(ix)) => {
                                    (ic * self.in_height + iy) * self.in_width + ix
                                }
                                _ => PADDING_TAP,
                            });
                        }
                    }
                }
            }
        }
        table
    }

    /// Appends the patch rows of `count` flat images (`in_dim` each) to
    /// `panel`: per image and output position, the row
    /// `[1.0, x[tap 0], …, x[tap taps−1]]`, with 0.0 for padding taps.  The
    /// leading 1.0 multiplies the bias column of [`Self::biased_weights`].
    fn push_patches(&self, table: &[usize], count: usize, images: &[f64], panel: &mut Vec<f64>) {
        let (taps, in_dim, positions) = (self.taps(), self.in_dim(), self.positions());
        for img in 0..count {
            let image = &images[img * in_dim..(img + 1) * in_dim];
            for p in 0..positions {
                panel.push(1.0);
                panel.extend(table[p * taps..(p + 1) * taps].iter().map(|&i| {
                    if i == PADDING_TAP {
                        0.0
                    } else {
                        image[i]
                    }
                }));
            }
        }
    }

    /// The filters as an `out_channels × (1 + taps)` matrix with each bias
    /// prepended as column 0.
    fn biased_weights(&self) -> Vec<f64> {
        let taps = self.taps();
        let mut w = Vec::with_capacity(self.out_channels * (1 + taps));
        for (oc, &b) in self.bias.iter().enumerate() {
            w.push(b);
            w.extend_from_slice(&self.weights[oc * taps..(oc + 1) * taps]);
        }
        w
    }

    /// Writes the pre-activations of `count` flat inputs into `z`
    /// (`count × output_dim`, channel-major per image).
    ///
    /// A chunk of images is unfolded into one `(images · positions) ×
    /// (1 + taps)` patch panel, multiplied by [`Self::biased_weights`] in
    /// one `gemm_nt`, and the position-major product is scattered into
    /// each image's channel rows.  See the module doc for why this is
    /// bit-identical to the direct loop.
    fn preactivations(&self, count: usize, inputs: &[f64], z: &mut [f64]) {
        let (taps, positions, in_dim) = (self.taps(), self.positions(), self.in_dim());
        let (out_c, out_dim) = (self.out_channels, self.out_channels * positions);
        let table = self.tap_table();
        let weights = self.biased_weights();
        let chunk = (PANEL_ENTRIES / (positions * (1 + taps))).max(1);
        let mut panel = Vec::with_capacity(chunk.min(count) * positions * (1 + taps));
        let mut c = Vec::new();
        for start in (0..count).step_by(chunk) {
            let images = chunk.min(count - start);
            panel.clear();
            let inputs = &inputs[start * in_dim..(start + images) * in_dim];
            self.push_patches(&table, images, inputs, &mut panel);
            let rows = images * positions;
            c.resize(rows * out_c, 0.0);
            gemm::gemm_nt(rows, 1 + taps, out_c, &panel, &weights, &mut c);
            for img in 0..images {
                let z = &mut z[(start + img) * out_dim..(start + img + 1) * out_dim];
                for p in 0..positions {
                    let row = &c[(img * positions + p) * out_c..][..out_c];
                    for (oc, &v) in row.iter().enumerate() {
                        z[oc * positions + p] = v;
                    }
                }
            }
        }
    }

    /// `dz · ∂z/∂params` at `input`: one `gemm_nn` of `dz`, viewed as
    /// `(rows · out_channels) × positions`, by the input's patch panel.
    /// Column 0 of each product row is a bias gradient and the rest a
    /// filter's gradient; both are copied into [`Layer::params`] order.
    fn param_vjp(&self, dz: &Matrix, input: &[f64]) -> Matrix {
        let (taps, positions, out_c) = (self.taps(), self.positions(), self.out_channels);
        let mut panel = Vec::with_capacity(positions * (1 + taps));
        self.push_patches(&self.tap_table(), 1, input, &mut panel);
        let m = dz.rows() * out_c;
        let mut g = vec![0.0; m * (1 + taps)];
        gemm::gemm_nn(m, positions, 1 + taps, dz.as_slice(), &panel, &mut g);
        let (nw, width) = (self.weights.len(), self.weights.len() + out_c);
        let mut out = vec![0.0; dz.rows() * width];
        for r in 0..dz.rows() {
            let (filters, biases) = out[r * width..(r + 1) * width].split_at_mut(nw);
            for oc in 0..out_c {
                let grad = &g[(r * out_c + oc) * (1 + taps)..][..1 + taps];
                biases[oc] = grad[0];
                filters[oc * taps..(oc + 1) * taps].copy_from_slice(&grad[1..]);
            }
        }
        Matrix::from_flat(dz.rows(), width, out)
    }

    /// The sum over a batch of each row's parameter gradient
    /// `dz[k] · ∂z/∂params` at `inputs[k]`, in [`Layer::params`] order.
    ///
    /// Each row's gradient is [`Self::param_vjp`]'s GEMM sum: per filter
    /// tap (and bias), one ascending chain over positions from +0.0.  Here
    /// the chain passes over positions where `dz` is ±0.0, whose products
    /// are ±0.0 for finite inputs and leave a chain from +0.0 unchanged;
    /// below a max pool most positions are.  The row's gradient is then
    /// added into the sum in row order.  One GEMM over every (row,
    /// position) pair would re-associate each row's sum over positions, so
    /// the rows stay apart; their patches are unfolded once for the batch.
    fn batch_param_gradient(&self, dz: &Matrix, inputs: &FlatBatch) -> Vec<f64> {
        let (taps, positions, out_c, nw) = (
            self.taps(),
            self.positions(),
            self.out_channels,
            self.weights.len(),
        );
        let mut panel = Vec::with_capacity(inputs.count() * positions * (1 + taps));
        self.push_patches(
            &self.tap_table(),
            inputs.count(),
            inputs.as_slice(),
            &mut panel,
        );
        let mut g = zeros(out_c * (1 + taps));
        let mut grad = zeros(nw + out_c);
        let (filters, biases) = grad.split_at_mut(nw);
        for k in 0..dz.rows() {
            let patches = &panel[k * positions * (1 + taps)..][..positions * (1 + taps)];
            g.fill(0.0);
            for (g_row, dz_row) in g
                .chunks_exact_mut(1 + taps)
                .zip(dz.row(k).chunks_exact(positions))
            {
                for (&d, patch) in dz_row.iter().zip(patches.chunks_exact(1 + taps)) {
                    if d != 0.0 {
                        for (gv, &x) in g_row.iter_mut().zip(patch) {
                            *gv += d * x;
                        }
                    }
                }
            }
            for (oc, row) in g.chunks_exact(1 + taps).enumerate() {
                biases[oc] += row[0];
                for (f, &v) in filters[oc * taps..(oc + 1) * taps]
                    .iter_mut()
                    .zip(&row[1..])
                {
                    *f += v;
                }
            }
        }
        grad
    }

    /// `dz · ∂z/∂input`, accumulated through the gather table in the direct
    /// loop's connection order — output channel, position, filter tap —
    /// for each `dz` row, passing over zero `dz` entries.  A GEMM followed
    /// by a col2im scatter would reorder these sums, and SGD training runs
    /// this on every minibatch, so keeping the order is what keeps a
    /// trained network's bits.
    fn input_vjp(&self, dz: &Matrix) -> Matrix {
        let (taps, positions, in_dim) = (self.taps(), self.positions(), self.in_dim());
        let table = self.tap_table();
        let mut out = vec![0.0; dz.rows() * in_dim];
        for r in 0..dz.rows() {
            let (g_row, out_row) = (dz.row(r), &mut out[r * in_dim..(r + 1) * in_dim]);
            for oc in 0..self.out_channels {
                let filter = &self.weights[oc * taps..(oc + 1) * taps];
                for p in 0..positions {
                    let g = g_row[oc * positions + p];
                    if g == 0.0 {
                        continue;
                    }
                    for (&i, &w) in table[p * taps..(p + 1) * taps].iter().zip(filter) {
                        if i != PADDING_TAP {
                            out_row[i] += g * w;
                        }
                    }
                }
            }
        }
        Matrix::from_flat(dz.rows(), in_dim, out)
    }

    #[cfg(test)]
    fn in_index(&self, c: usize, y: isize, x: isize) -> Option<usize> {
        if y < 0 || x < 0 || y as usize >= self.in_height || x as usize >= self.in_width {
            None
        } else {
            Some((c * self.in_height + y as usize) * self.in_width + x as usize)
        }
    }

    #[cfg(test)]
    fn weight_index(&self, oc: usize, ic: usize, ky: usize, kx: usize) -> usize {
        ((oc * self.in_channels + ic) * self.kernel_h + ky) * self.kernel_w + kx
    }

    /// Iterates over `(out_index, weight_index, in_index)` triples describing
    /// the sparse linear structure of the convolution, calling `f` for each.
    /// The direct-loop oracle of the GEMM kernels above.
    #[cfg(test)]
    fn for_each_connection(&self, mut f: impl FnMut(usize, usize, usize)) {
        let (oh, ow) = (self.out_height(), self.out_width());
        for oc in 0..self.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let out_idx = (oc * oh + oy) * ow + ox;
                    for ic in 0..self.in_channels {
                        for ky in 0..self.kernel_h {
                            for kx in 0..self.kernel_w {
                                let iy = (oy * self.stride + ky) as isize - self.padding as isize;
                                let ix = (ox * self.stride + kx) as isize - self.padding as isize;
                                if let Some(in_idx) = self.in_index(ic, iy, ix) {
                                    f(out_idx, self.weight_index(oc, ic, ky, kx), in_idx);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Writes the convolution pre-activation for one input into `z`
    /// (which must have length `output_dim`): the direct-loop oracle of
    /// [`Self::preactivations`].
    #[cfg(test)]
    fn preactivation_into(&self, input: &[f64], z: &mut [f64]) {
        let (oh, ow) = (self.out_height(), self.out_width());
        for oc in 0..self.out_channels {
            let b = self.bias[oc];
            for oy in 0..oh {
                for ox in 0..ow {
                    z[(oc * oh + oy) * ow + ox] = b;
                }
            }
        }
        self.for_each_connection(|out_idx, w_idx, in_idx| {
            z[out_idx] += self.weights[w_idx] * input[in_idx];
        });
    }
}

/// A 2-D pooling layer over `C×H×W` inputs (max or average).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pool2dLayer {
    /// Channel count (unchanged by pooling).
    pub channels: usize,
    /// Input height.
    pub in_height: usize,
    /// Input width.
    pub in_width: usize,
    /// Pooling window height.
    pub pool_h: usize,
    /// Pooling window width.
    pub pool_w: usize,
    /// Stride (same in both spatial dimensions).
    pub stride: usize,
}

impl Pool2dLayer {
    /// Output height after pooling.
    pub fn out_height(&self) -> usize {
        (self.in_height - self.pool_h) / self.stride + 1
    }

    /// Output width after pooling.
    pub fn out_width(&self) -> usize {
        (self.in_width - self.pool_w) / self.stride + 1
    }

    /// The input indices covered by each pooling window, in output order,
    /// as one flat `windows × window_len` table ([`PoolWindows`]): every
    /// window has the same size (`pool_h × pool_w`).  The batch entry
    /// points compute this table once per call and share it across the
    /// whole batch.
    pub fn flat_windows(&self) -> PoolWindows {
        let (oh, ow) = (self.out_height(), self.out_width());
        let window_len = self.pool_h * self.pool_w;
        let mut indices = Vec::with_capacity(self.channels * oh * ow * window_len);
        for c in 0..self.channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    for py in 0..self.pool_h {
                        for px in 0..self.pool_w {
                            let iy = oy * self.stride + py;
                            let ix = ox * self.stride + px;
                            indices.push((c * self.in_height + iy) * self.in_width + ix);
                        }
                    }
                }
            }
        }
        PoolWindows {
            indices,
            window_len,
        }
    }
}

/// The input-index map of a pooling layer, flattened: window `w` reads the
/// input positions `self.window(w)`.  One allocation for the whole map.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolWindows {
    indices: Vec<usize>,
    window_len: usize,
}

impl PoolWindows {
    /// Number of pooling windows (the layer's output dimension).
    pub fn count(&self) -> usize {
        self.indices.len().checked_div(self.window_len).unwrap_or(0)
    }

    /// Input indices read by window `w`.
    #[inline]
    pub fn window(&self, w: usize) -> &[usize] {
        &self.indices[w * self.window_len..(w + 1) * self.window_len]
    }

    /// Iterates over the windows in output order.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> {
        // `max(1)`: a table of empty windows holds no indices, so it
        // yields no windows, as `count` says.
        self.indices.chunks_exact(self.window_len.max(1))
    }
}

/// A layer's activation, prepared once for many rows: the element-wise
/// function, or the pooling window table ([`Layer::activation_kernel`]).
///
/// Every pass reads this one description of the activation:
/// [`Self::apply_row`] activates (the forward passes and the SyReNN
/// transformers), [`Self::apply_linearized_row`] is the DDNN value
/// channel, [`Self::vjp`] the DDNN Jacobian's and training's backward step,
/// and [`Self::is_affine`] with the variants' data (an activation's
/// breakpoints, a pool's windows) gives SyReNN its crossings.
/// Element-wise rows go through the [`Activation`] slice kernels, whose
/// `match` sits outside the element loop.
#[derive(Debug, Clone, PartialEq)]
pub enum ActivationKernel {
    /// An element-wise activation.
    Elementwise(Activation),
    /// Max pooling: each output folds its window from `−∞` with
    /// `f64::max`, in window order.
    Max(PoolWindows),
    /// Average pooling: each output is its window's sum, in window order,
    /// divided by the window size.
    Average(PoolWindows),
}

impl ActivationKernel {
    /// Output dimension for a pre-activation of dimension `input_dim`.
    pub fn output_dim(&self, input_dim: usize) -> usize {
        match self {
            ActivationKernel::Elementwise(_) => input_dim,
            ActivationKernel::Max(w) | ActivationKernel::Average(w) => w.count(),
        }
    }

    /// Whether the activation is affine (Identity, average pooling), so
    /// that it never splits a linear region.  Smooth activations are not.
    pub fn is_affine(&self) -> bool {
        match self {
            ActivationKernel::Elementwise(activation) => {
                matches!(activation.breakpoints(), Some([]))
            }
            ActivationKernel::Max(_) => false,
            ActivationKernel::Average(_) => true,
        }
    }

    /// The position in `window` of its first strict maximum of `z`: a tie,
    /// or a NaN, keeps the earlier position.  Max pooling's linearisation,
    /// its backward step and its activation pattern all select by it.
    fn argmax(window: &[usize], z: &[f64]) -> usize {
        let mut best = 0;
        for (k, &i) in window.iter().enumerate() {
            if z[i] > z[window[best]] {
                best = k;
            }
        }
        best
    }

    /// Writes the activation of pre-activation `z` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not [`Self::output_dim`] of `z.len()`, or
    /// if a pooling window reads past `z`.
    pub fn apply_row(&self, z: &[f64], out: &mut [f64]) {
        match self {
            ActivationKernel::Elementwise(activation) => activation.apply_into(z, out),
            ActivationKernel::Max(windows) => {
                assert_eq!(out.len(), windows.count(), "apply_row: output mismatch");
                let max = |w: &[usize]| w.iter().map(|&i| z[i]).fold(f64::NEG_INFINITY, f64::max);
                // 2×2 windows get a loop of their own in which the window
                // length is a constant, so the fold unrolls (about 3×
                // faster per window on the Task 1 CNN).
                if windows.window_len == 4 {
                    for (o, w) in out.iter_mut().zip(windows.indices.chunks_exact(4)) {
                        *o = max(w);
                    }
                } else {
                    for (o, w) in out.iter_mut().zip(windows.iter()) {
                        *o = max(w);
                    }
                }
            }
            ActivationKernel::Average(windows) => {
                assert_eq!(out.len(), windows.count(), "apply_row: output mismatch");
                for (o, w) in out.iter_mut().zip(windows.iter()) {
                    *o = w.iter().map(|&i| z[i]).sum::<f64>() / w.len() as f64;
                }
            }
        }
    }

    /// Activates every pre-activation in a batch-major flat buffer: row `k`
    /// of the result is [`Self::apply_row`] of row `k` of `zs`.
    /// Element-wise activations run over the whole buffer as one slice.
    pub fn apply_batch(&self, zs: &FlatBatch) -> FlatBatch {
        let mut out = FlatBatch::zeros(self.output_dim(zs.dim()), zs.count());
        match self {
            ActivationKernel::Elementwise(activation) => {
                activation.apply_into(zs.as_slice(), out.as_mut_slice())
            }
            ActivationKernel::Max(_) | ActivationKernel::Average(_) => {
                for (k, z) in zs.rows().enumerate() {
                    self.apply_row(z, out.row_mut(k));
                }
            }
        }
        out
    }

    /// Writes the activation linearised at `center` (Definition 4.2),
    /// applied to `z`, into `out`: the DDNN value channel's step
    /// (Definition 4.3), with `center` the activation channel's
    /// pre-activation and `z` the value channel's.  Max pooling copies the
    /// entry of `z` at each window's argmax of `center`; average pooling is
    /// affine, so it is its own linearisation.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not [`Self::output_dim`] of `z.len()`, if
    /// an element-wise `center` and `z` differ in length, or if a pooling
    /// window reads past `center` or `z`.
    pub fn apply_linearized_row(&self, center: &[f64], z: &[f64], out: &mut [f64]) {
        match self {
            ActivationKernel::Elementwise(activation) => {
                activation.apply_linearized_into(center, z, out)
            }
            ActivationKernel::Max(windows) => {
                let count = windows.count();
                assert_eq!(out.len(), count, "apply_linearized_row: output mismatch");
                for (o, w) in out.iter_mut().zip(windows.iter()) {
                    *o = z[w[Self::argmax(w, center)]];
                }
            }
            ActivationKernel::Average(_) => self.apply_row(z, out),
        }
    }

    /// Computes `rows · D`, where `D` is the Jacobian of the activation
    /// linearised at `center` ([`Self::apply_linearized_row`] as a function
    /// of `z`) and `rows` has one column per activation output.  The result
    /// has one column per entry of `center`.
    pub fn vjp(&self, center: &[f64], rows: &Matrix) -> Matrix {
        match self {
            ActivationKernel::Elementwise(activation) => {
                let slopes = activation.derivative(center);
                Matrix::from_fn(rows.rows(), slopes.len(), |r, c| rows[(r, c)] * slopes[c])
            }
            ActivationKernel::Max(windows) => {
                let selected: Vec<usize> =
                    windows.iter().map(|w| w[Self::argmax(w, center)]).collect();
                let mut out = Matrix::zeros(rows.rows(), center.len());
                for r in 0..rows.rows() {
                    for (w, &i) in selected.iter().enumerate() {
                        out[(r, i)] += rows[(r, w)];
                    }
                }
                out
            }
            ActivationKernel::Average(windows) => {
                let mut out = Matrix::zeros(rows.rows(), center.len());
                for r in 0..rows.rows() {
                    for (w, idxs) in windows.iter().enumerate() {
                        let coeff = rows[(r, w)] / idxs.len() as f64;
                        for &i in idxs {
                            out[(r, i)] += coeff;
                        }
                    }
                }
                out
            }
        }
    }

    /// The backward step of a batch: row `k` of the result is [`Self::vjp`]
    /// of row `k` of `upstream` at row `k` of `centers`, with the same
    /// arithmetic, so the same bits.  Training's backward pass.
    pub(crate) fn vjp_batch(&self, centers: &FlatBatch, mut upstream: Matrix) -> Matrix {
        assert_eq!(centers.count(), upstream.rows(), "vjp_batch: row mismatch");
        match self {
            ActivationKernel::Elementwise(activation) => {
                let slopes = activation.derivative(centers.as_slice());
                for (u, s) in upstream.as_mut_slice().iter_mut().zip(&slopes) {
                    *u *= s;
                }
                upstream
            }
            ActivationKernel::Max(windows) => {
                let mut out = Matrix::zeros(upstream.rows(), centers.dim());
                for (r, center) in centers.rows().enumerate() {
                    for (w, window) in windows.iter().enumerate() {
                        out[(r, window[Self::argmax(window, center)])] += upstream[(r, w)];
                    }
                }
                out
            }
            ActivationKernel::Average(windows) => {
                let mut out = Matrix::zeros(upstream.rows(), centers.dim());
                for r in 0..upstream.rows() {
                    for (w, window) in windows.iter().enumerate() {
                        let coeff = upstream[(r, w)] / window.len() as f64;
                        for &i in window {
                            out[(r, i)] += coeff;
                        }
                    }
                }
                out
            }
        }
    }
}

/// A single network layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Layer {
    /// Fully-connected layer.
    Dense(DenseLayer),
    /// 2-D convolution.
    Conv2d(Conv2dLayer),
    /// 2-D max pooling (a PWL activation with no parameters).
    MaxPool2d(Pool2dLayer),
    /// 2-D average pooling (an affine map with no parameters).
    AvgPool2d(Pool2dLayer),
}

impl Layer {
    /// Convenience constructor for a dense layer.
    pub fn dense(weights: Matrix, bias: Vec<f64>, activation: Activation) -> Self {
        Layer::Dense(DenseLayer::new(weights, bias, activation))
    }

    /// Input dimension expected by the layer.
    pub fn input_dim(&self) -> usize {
        match self {
            Layer::Dense(d) => d.weights.cols(),
            Layer::Conv2d(c) => c.in_dim(),
            Layer::MaxPool2d(p) | Layer::AvgPool2d(p) => p.channels * p.in_height * p.in_width,
        }
    }

    /// Output dimension produced by the layer.
    pub fn output_dim(&self) -> usize {
        match self {
            Layer::Dense(d) => d.weights.rows(),
            Layer::Conv2d(c) => c.out_channels * c.out_height() * c.out_width(),
            Layer::MaxPool2d(p) | Layer::AvgPool2d(p) => {
                p.channels * p.out_height() * p.out_width()
            }
        }
    }

    /// Dimension of the layer's pre-activation vector.
    ///
    /// For dense/conv layers this equals [`Self::output_dim`]; for pooling
    /// layers the pre-activation *is* the input (identity affine part).
    pub fn preactivation_dim(&self) -> usize {
        match self {
            Layer::Dense(_) | Layer::Conv2d(_) => self.output_dim(),
            Layer::MaxPool2d(_) | Layer::AvgPool2d(_) => self.input_dim(),
        }
    }

    /// Number of trainable/repairable parameters in the layer.
    pub fn num_params(&self) -> usize {
        match self {
            Layer::Dense(d) => d.weights.rows() * d.weights.cols() + d.bias.len(),
            Layer::Conv2d(c) => c.weights.len() + c.bias.len(),
            Layer::MaxPool2d(_) | Layer::AvgPool2d(_) => 0,
        }
    }

    /// Flattened copy of the layer's parameters (weights then biases).
    pub fn params(&self) -> Vec<f64> {
        match self {
            Layer::Dense(d) => {
                let mut p = d.weights.as_slice().to_vec();
                p.extend_from_slice(&d.bias);
                p
            }
            Layer::Conv2d(c) => {
                let mut p = c.weights.clone();
                p.extend_from_slice(&c.bias);
                p
            }
            Layer::MaxPool2d(_) | Layer::AvgPool2d(_) => Vec::new(),
        }
    }

    /// Adds `delta` to the layer's parameters (the repair application step,
    /// Algorithm 1 line 9).
    ///
    /// # Panics
    ///
    /// Panics if `delta.len() != self.num_params()`.
    pub fn add_to_params(&mut self, delta: &[f64]) {
        assert_eq!(
            delta.len(),
            self.num_params(),
            "add_to_params: wrong delta length"
        );
        match self {
            Layer::Dense(d) => {
                let nw = d.weights.rows() * d.weights.cols();
                for (w, dv) in d.weights.as_mut_slice().iter_mut().zip(&delta[..nw]) {
                    *w += dv;
                }
                for (b, dv) in d.bias.iter_mut().zip(&delta[nw..]) {
                    *b += dv;
                }
            }
            Layer::Conv2d(c) => {
                let nw = c.weights.len();
                for (w, dv) in c.weights.iter_mut().zip(&delta[..nw]) {
                    *w += dv;
                }
                for (b, dv) in c.bias.iter_mut().zip(&delta[nw..]) {
                    *b += dv;
                }
            }
            Layer::MaxPool2d(_) | Layer::AvgPool2d(_) => {}
        }
    }

    /// Overwrites the layer's parameters with `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.num_params()`.
    pub fn set_params(&mut self, params: &[f64]) {
        let current = self.params();
        assert_eq!(params.len(), current.len(), "set_params: wrong length");
        let delta: Vec<f64> = params.iter().zip(&current).map(|(n, o)| n - o).collect();
        self.add_to_params(&delta);
    }

    /// Computes the layer's pre-activation `z = W x + b` (or `z = x` for
    /// pooling layers).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_dim()`.
    pub fn preactivation(&self, input: &[f64]) -> Vec<f64> {
        assert_eq!(
            input.len(),
            self.input_dim(),
            "layer input dimension mismatch"
        );
        match self {
            Layer::Dense(d) => {
                let mut z = d.weights.matvec(input);
                for (zi, b) in z.iter_mut().zip(&d.bias) {
                    *zi += b;
                }
                z
            }
            Layer::Conv2d(c) => {
                let mut z = vec![0.0; self.output_dim()];
                c.preactivations(1, input, &mut z);
                z
            }
            Layer::MaxPool2d(_) | Layer::AvgPool2d(_) => input.to_vec(),
        }
    }

    /// Applies the layer's activation to a pre-activation vector.
    pub fn activate(&self, z: &[f64]) -> Vec<f64> {
        let kernel = self.activation_kernel();
        let mut out = zeros(kernel.output_dim(z.len()));
        kernel.apply_row(z, &mut out);
        out
    }

    /// The layer's activation as an [`ActivationKernel`]: built once (for
    /// pooling, the flat window table) and then applied row by row.
    pub fn activation_kernel(&self) -> ActivationKernel {
        match self {
            Layer::Dense(d) => ActivationKernel::Elementwise(d.activation),
            Layer::Conv2d(c) => ActivationKernel::Elementwise(c.activation),
            Layer::MaxPool2d(p) => ActivationKernel::Max(p.flat_windows()),
            Layer::AvgPool2d(p) => ActivationKernel::Average(p.flat_windows()),
        }
    }

    /// Full forward pass through the layer.
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        self.activate(&self.preactivation(input))
    }

    /// Computes the pre-activation of every vector in a batch-major flat
    /// buffer (the affine map applied per vector; the identity for pooling
    /// layers).
    ///
    /// This is the entry point the incremental SyReNN transformer pipeline
    /// uses to push all carried vertex values through a layer together —
    /// once per layer, instead of re-running the network prefix per vertex.
    ///
    /// For dense layers the whole batch goes through **one** blocked GEMM
    /// call (`Z = X · Wᵀ`, then the bias is added row-wise): one packed
    /// weight tile serves every vector in the batch.  The GEMM accumulates
    /// each output element in the same ascending-`k` order as the per-point
    /// `matvec`, and the bias is added after the full accumulation exactly
    /// as in [`Self::preactivation`], so the result is bit-identical to
    /// mapping the per-point entry point over the batch.  Conv layers
    /// unfold the batch into patch panels for the same GEMM, and the
    /// per-point entry point is a batch of one (see the module doc).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.dim() != self.input_dim()`.
    pub fn preactivation_batch_flat(&self, inputs: &FlatBatch) -> FlatBatch {
        assert_eq!(
            inputs.dim(),
            self.input_dim(),
            "layer input dimension mismatch"
        );
        match self {
            Layer::Dense(d) => {
                let (out_dim, in_dim) = (d.weights.rows(), d.weights.cols());
                let mut z = FlatBatch::zeros(out_dim, inputs.count());
                // `gemm_nt` takes its B operand transposed, which is exactly
                // the row-major `out_dim × in_dim` weight layout.
                gemm::gemm_nt(
                    inputs.count(),
                    in_dim,
                    out_dim,
                    inputs.as_slice(),
                    d.weights.as_slice(),
                    z.as_mut_slice(),
                );
                for row in z.rows_mut() {
                    for (zi, b) in row.iter_mut().zip(&d.bias) {
                        *zi += b;
                    }
                }
                z
            }
            Layer::Conv2d(c) => {
                let mut z = FlatBatch::zeros(self.output_dim(), inputs.count());
                c.preactivations(inputs.count(), inputs.as_slice(), z.as_mut_slice());
                z
            }
            Layer::MaxPool2d(_) | Layer::AvgPool2d(_) => inputs.clone(),
        }
    }

    /// Whether the layer's pre-activation is the identity map (pooling
    /// layers): carried values already equal the pre-activation, so batch
    /// pipelines can skip the copy entirely.
    pub fn preactivation_is_identity(&self) -> bool {
        matches!(self, Layer::MaxPool2d(_) | Layer::AvgPool2d(_))
    }

    /// Applies the layer's activation to every pre-activation in a
    /// batch-major flat buffer.
    ///
    /// For pooling layers the window index set is computed once and shared
    /// across the whole batch (computing it per vector is what makes
    /// [`Self::activate`] expensive in vertex-heavy loops).  One
    /// [`ActivationKernel`] serves the whole batch: element-wise rows
    /// dispatch once per row, and pooling layers share one flat window
    /// index map ([`Pool2dLayer::flat_windows`]) — no per-window or
    /// per-vector index allocations.
    pub fn activate_batch_flat(&self, zs: &FlatBatch) -> FlatBatch {
        self.activation_kernel().apply_batch(zs)
    }

    /// Full forward pass for a batch of inputs in a batch-major flat buffer.
    pub fn forward_batch_flat(&self, inputs: &FlatBatch) -> FlatBatch {
        if self.preactivation_is_identity() {
            // Pooling: the pre-activation is the identity, so activate
            // straight off the inputs instead of copying them first.
            assert_eq!(
                inputs.dim(),
                self.input_dim(),
                "layer input dimension mismatch"
            );
            return self.activate_batch_flat(inputs);
        }
        self.activate_batch_flat(&self.preactivation_batch_flat(inputs))
    }

    /// The element-wise activation of a dense/conv layer, if any.
    pub fn activation(&self) -> Option<Activation> {
        match self {
            Layer::Dense(d) => Some(d.activation),
            Layer::Conv2d(c) => Some(c.activation),
            Layer::MaxPool2d(_) | Layer::AvgPool2d(_) => None,
        }
    }

    /// Whether the layer computes a piecewise-linear function.
    pub fn is_piecewise_linear(&self) -> bool {
        match self {
            Layer::Dense(d) => d.activation.is_piecewise_linear(),
            Layer::Conv2d(c) => c.activation.is_piecewise_linear(),
            Layer::MaxPool2d(_) | Layer::AvgPool2d(_) => true,
        }
    }

    /// The activation pattern of the layer at pre-activation `z`
    /// (Definition 2.5): one small integer per pre-activation unit (the
    /// linear piece it falls in) or per max-pool window (the position of
    /// its argmax, the entry the linearised pool copies).
    pub fn activation_pattern(&self, z: &[f64]) -> Vec<i8> {
        match self.activation_kernel() {
            ActivationKernel::Elementwise(a) => z.iter().map(|&x| a.piece_index(x)).collect(),
            ActivationKernel::Max(windows) => windows
                .iter()
                .map(|w| ActivationKernel::argmax(w, z) as i8)
                .collect(),
            ActivationKernel::Average(_) => Vec::new(),
        }
    }

    /// Computes `rows · (∂z/∂input)`, the vector–Jacobian product of the
    /// pre-activation with respect to the layer *input*.
    ///
    /// `rows` must have one column per pre-activation component; the result
    /// has one column per input component.
    pub fn preact_input_vjp(&self, rows: &Matrix) -> Matrix {
        assert_eq!(
            rows.cols(),
            self.preactivation_dim(),
            "preact_input_vjp: column mismatch"
        );
        match self {
            Layer::Dense(d) => rows.matmul(&d.weights),
            Layer::Conv2d(c) => c.input_vjp(rows),
            Layer::MaxPool2d(_) | Layer::AvgPool2d(_) => rows.clone(),
        }
    }

    /// Computes `rows · (∂z/∂params)`, the vector–Jacobian product of the
    /// pre-activation with respect to the layer *parameters*, evaluated at
    /// `input`.
    ///
    /// `rows` must have one column per pre-activation component; the result
    /// has one column per parameter (in [`Self::params`] order).  This is the
    /// core quantity behind Algorithm 1's Jacobian (line 5).
    pub fn preact_param_vjp(&self, rows: &Matrix, input: &[f64]) -> Matrix {
        assert_eq!(
            rows.cols(),
            self.preactivation_dim(),
            "preact_param_vjp: column mismatch"
        );
        assert_eq!(
            input.len(),
            self.input_dim(),
            "preact_param_vjp: input mismatch"
        );
        match self {
            Layer::Dense(d) => {
                let (out_dim, in_dim) = (d.weights.rows(), d.weights.cols());
                let mut out = Matrix::zeros(rows.rows(), self.num_params());
                for r in 0..rows.rows() {
                    for j in 0..out_dim {
                        let g = rows[(r, j)];
                        if g == 0.0 {
                            continue;
                        }
                        let base = j * in_dim;
                        for (k, &xk) in input.iter().enumerate() {
                            out[(r, base + k)] += g * xk;
                        }
                        // Bias entry for unit j.
                        out[(r, out_dim * in_dim + j)] += g;
                    }
                }
                out
            }
            Layer::Conv2d(c) => c.param_vjp(rows, input),
            Layer::MaxPool2d(_) | Layer::AvgPool2d(_) => Matrix::zeros(rows.rows(), 0),
        }
    }

    /// A minibatch's parameter gradient for training: the sum over `k`, in
    /// row order, of [`Self::preact_param_vjp`] of row `k` of `dz` at row
    /// `k` of `inputs`, with the same bits for finite inputs.
    ///
    /// A dense layer's weight gradient is one GEMM `dzᵀ · X` whose k-loop
    /// runs over the batch in row order, and its bias gradient the column
    /// sums of `dz` in row order.  Each entry is then one ascending chain
    /// from +0.0 over the rows' products, which is what adding the rows'
    /// gradients one by one computes, because each row's entry is a single
    /// product.  The per-row VJP skips a `dz` entry of ±0.0, where the
    /// chain adds a product of ±0.0; a chain from +0.0 never holds −0.0,
    /// so that adds nothing either.  A conv layer computes each row's
    /// gradient apart and adds them in row order.  Pooling layers have no
    /// parameters and return an empty vector.
    pub(crate) fn batch_param_gradient(&self, dz: &Matrix, inputs: &FlatBatch) -> Vec<f64> {
        assert_eq!(dz.rows(), inputs.count(), "batch_param_gradient: rows");
        match self {
            Layer::Dense(d) => {
                let (out_dim, in_dim) = (d.weights.rows(), d.weights.cols());
                let mut grad = zeros(self.num_params());
                let (weights, biases) = grad.split_at_mut(out_dim * in_dim);
                let dz_t = dz.transpose();
                gemm::gemm_nn(
                    out_dim,
                    dz.rows(),
                    in_dim,
                    dz_t.as_slice(),
                    inputs.as_slice(),
                    weights,
                );
                for r in 0..dz.rows() {
                    for (b, &g) in biases.iter_mut().zip(dz.row(r)) {
                        *b += g;
                    }
                }
                grad
            }
            Layer::Conv2d(c) => c.batch_param_gradient(dz, inputs),
            Layer::MaxPool2d(_) | Layer::AvgPool2d(_) => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdnn_linalg::approx_eq_slice;

    fn dense_example() -> Layer {
        Layer::dense(
            Matrix::from_rows(&[vec![1.0, -1.0], vec![0.5, 2.0]]),
            vec![0.0, -1.0],
            Activation::Relu,
        )
    }

    #[test]
    fn dense_forward() {
        let layer = dense_example();
        assert_eq!(layer.input_dim(), 2);
        assert_eq!(layer.output_dim(), 2);
        let z = layer.preactivation(&[1.0, 2.0]);
        assert_eq!(z, vec![-1.0, 3.5]);
        assert_eq!(layer.forward(&[1.0, 2.0]), vec![0.0, 3.5]);
    }

    #[test]
    fn dense_params_roundtrip() {
        let mut layer = dense_example();
        let p = layer.params();
        assert_eq!(p.len(), layer.num_params());
        assert_eq!(p, vec![1.0, -1.0, 0.5, 2.0, 0.0, -1.0]);
        layer.add_to_params(&[0.0, 0.0, 0.0, 0.0, 1.0, 1.0]);
        assert_eq!(layer.preactivation(&[0.0, 0.0]), vec![1.0, 0.0]);
        let snapshot = layer.params();
        layer.set_params(&snapshot);
        assert_eq!(layer.params(), snapshot);
    }

    #[test]
    fn dense_param_vjp_matches_finite_difference() {
        let layer = dense_example();
        let input = vec![0.7, -1.3];
        // rows = identity: the vjp equals the full Jacobian of z wrt params.
        let rows = Matrix::identity(2);
        let jac = layer.preact_param_vjp(&rows, &input);
        let h = 1e-6;
        let base = layer.preactivation(&input);
        for p in 0..layer.num_params() {
            let mut bumped = layer.clone();
            let mut delta = vec![0.0; layer.num_params()];
            delta[p] = h;
            bumped.add_to_params(&delta);
            let z = bumped.preactivation(&input);
            for o in 0..2 {
                let fd = (z[o] - base[o]) / h;
                assert!(
                    (fd - jac[(o, p)]).abs() < 1e-5,
                    "param {p} output {o}: fd {fd} vs {}",
                    jac[(o, p)]
                );
            }
        }
    }

    #[test]
    fn dense_input_vjp_matches_weights() {
        let layer = dense_example();
        let rows = Matrix::identity(2);
        let jac = layer.preact_input_vjp(&rows);
        assert_eq!(jac, Matrix::from_rows(&[vec![1.0, -1.0], vec![0.5, 2.0]]));
    }

    fn conv_example() -> Layer {
        Layer::Conv2d(Conv2dLayer {
            in_channels: 1,
            in_height: 3,
            in_width: 3,
            out_channels: 2,
            kernel_h: 2,
            kernel_w: 2,
            stride: 1,
            padding: 0,
            weights: vec![
                // filter 0
                1.0, 0.0, 0.0, 1.0, // identity-ish
                // filter 1
                0.0, 1.0, 1.0, 0.0,
            ],
            bias: vec![0.5, -0.5],
            activation: Activation::Identity,
        })
    }

    #[test]
    fn conv_forward_shapes_and_values() {
        let layer = conv_example();
        assert_eq!(layer.input_dim(), 9);
        assert_eq!(layer.output_dim(), 2 * 2 * 2);
        let input: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        let z = layer.preactivation(&input);
        // Filter 0 at (0,0): x[0,0] + x[1,1] + bias = 1 + 5 + 0.5 = 6.5
        assert_eq!(z[0], 6.5);
        // Filter 1 at (0,0): x[0,1] + x[1,0] - 0.5 = 2 + 4 - 0.5 = 5.5
        assert_eq!(z[4], 5.5);
    }

    #[test]
    fn conv_param_vjp_matches_finite_difference() {
        let layer = conv_example();
        let input: Vec<f64> = (0..9).map(|i| (i as f64) * 0.3 - 1.0).collect();
        let out_dim = layer.output_dim();
        let rows = Matrix::identity(out_dim);
        let jac = layer.preact_param_vjp(&rows, &input);
        let base = layer.preactivation(&input);
        let h = 1e-6;
        for p in 0..layer.num_params() {
            let mut bumped = layer.clone();
            let mut delta = vec![0.0; layer.num_params()];
            delta[p] = h;
            bumped.add_to_params(&delta);
            let z = bumped.preactivation(&input);
            for o in 0..out_dim {
                let fd = (z[o] - base[o]) / h;
                assert!((fd - jac[(o, p)]).abs() < 1e-5, "param {p} out {o}");
            }
        }
    }

    #[test]
    fn conv_input_vjp_matches_finite_difference() {
        let layer = conv_example();
        let input: Vec<f64> = (0..9).map(|i| (i as f64) * 0.1).collect();
        let out_dim = layer.output_dim();
        let rows = Matrix::identity(out_dim);
        let jac = layer.preact_input_vjp(&rows);
        let base = layer.preactivation(&input);
        let h = 1e-6;
        for k in 0..9 {
            let mut bumped = input.clone();
            bumped[k] += h;
            let z = layer.preactivation(&bumped);
            for o in 0..out_dim {
                let fd = (z[o] - base[o]) / h;
                assert!((fd - jac[(o, k)]).abs() < 1e-5, "input {k} out {o}");
            }
        }
    }

    #[test]
    fn maxpool_forward_and_pattern() {
        let layer = Layer::MaxPool2d(Pool2dLayer {
            channels: 1,
            in_height: 2,
            in_width: 4,
            pool_h: 2,
            pool_w: 2,
            stride: 2,
        });
        assert_eq!(layer.input_dim(), 8);
        assert_eq!(layer.output_dim(), 2);
        let input = vec![1.0, 5.0, 2.0, 0.0, 3.0, -1.0, 9.0, 4.0];
        assert_eq!(layer.forward(&input), vec![5.0, 9.0]);
        // Window 0 covers indices [0,1,4,5]; argmax is position 1 (value 5).
        assert_eq!(layer.activation_pattern(&input), vec![1, 2]);
        // The linearisation selects the argmax entries.
        let kernel = layer.activation_kernel();
        let mut out = vec![0.0; 2];
        kernel.apply_linearized_row(&input, &input, &mut out);
        assert_eq!(out, vec![5.0, 9.0]);
        // On a *different* value-channel vector it still selects positions 1 and 6.
        let other: Vec<f64> = (0..8).map(|i| i as f64 * 10.0).collect();
        kernel.apply_linearized_row(&input, &other, &mut out);
        assert_eq!(out, vec![10.0, 60.0]);
        // A tie keeps the earlier position, in the pattern and the selection.
        let tied = vec![7.0, 7.0, 2.0, 0.0, 7.0, -1.0, 9.0, 9.0];
        assert_eq!(layer.activation_pattern(&tied), vec![0, 2]);
        kernel.apply_linearized_row(&tied, &other, &mut out);
        assert_eq!(out, vec![0.0, 60.0]);
    }

    #[test]
    fn batch_entry_points_match_per_vector_calls() {
        let layers = vec![
            dense_example(),
            conv_example(),
            Layer::MaxPool2d(Pool2dLayer {
                channels: 1,
                in_height: 2,
                in_width: 4,
                pool_h: 2,
                pool_w: 2,
                stride: 2,
            }),
            Layer::AvgPool2d(Pool2dLayer {
                channels: 1,
                in_height: 2,
                in_width: 4,
                pool_h: 2,
                pool_w: 2,
                stride: 2,
            }),
        ];
        for layer in layers {
            let dim = layer.input_dim();
            let batch: Vec<Vec<f64>> = (0..5)
                .map(|k| (0..dim).map(|i| (k * dim + i) as f64 * 0.3 - 2.0).collect())
                .collect();
            let flat = FlatBatch::from_rows(dim, &batch);
            let zs = layer.preactivation_batch_flat(&flat);
            let outs = layer.forward_batch_flat(&flat);
            for (i, input) in batch.iter().enumerate() {
                assert_eq!(zs.row(i), layer.preactivation(input));
                assert_eq!(outs.row(i), layer.forward(input));
            }
            assert_eq!(layer.activate_batch_flat(&zs).to_rows(), outs.to_rows());
        }
    }

    #[test]
    fn flat_batch_entry_points_are_bit_identical_to_per_point() {
        let layers = vec![
            dense_example(),
            conv_example(),
            Layer::MaxPool2d(Pool2dLayer {
                channels: 1,
                in_height: 2,
                in_width: 4,
                pool_h: 2,
                pool_w: 2,
                stride: 2,
            }),
            Layer::AvgPool2d(Pool2dLayer {
                channels: 1,
                in_height: 2,
                in_width: 4,
                pool_h: 2,
                pool_w: 2,
                stride: 2,
            }),
        ];
        for layer in layers {
            let dim = layer.input_dim();
            let rows: Vec<Vec<f64>> = (0..5)
                .map(|k| {
                    (0..dim)
                        .map(|i| ((k * dim + i) as f64 * 0.9).sin() * 3.0)
                        .collect()
                })
                .collect();
            let flat = FlatBatch::from_rows(dim, &rows);
            let z_flat = layer.preactivation_batch_flat(&flat);
            let out_flat = layer.forward_batch_flat(&flat);
            for (i, input) in rows.iter().enumerate() {
                let z = layer.preactivation(input);
                // Bitwise comparison: the flat GEMM path must agree with
                // the per-point path on every bit, not just approximately.
                assert!(z_flat
                    .row(i)
                    .iter()
                    .zip(&z)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
                assert!(out_flat
                    .row(i)
                    .iter()
                    .zip(&layer.forward(input))
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            }
            // Empty batches flow through every entry point.
            let empty = FlatBatch::new(dim);
            assert!(layer.forward_batch_flat(&empty).is_empty());
        }
    }

    #[test]
    fn flat_windows_match_nested_windows() {
        let p = Pool2dLayer {
            channels: 2,
            in_height: 4,
            in_width: 6,
            pool_h: 2,
            pool_w: 3,
            stride: 1,
        };
        // Each window written out: channel-major, then output row and
        // column, then the window's own rows and columns.
        let nested: Vec<Vec<usize>> = (0..2)
            .flat_map(|c| (0..3).flat_map(move |oy| (0..4).map(move |ox| (c, oy, ox))))
            .map(|(c, oy, ox)| {
                (0..2)
                    .flat_map(|py| (0..3).map(move |px| (c * 4 + oy + py) * 6 + ox + px))
                    .collect()
            })
            .collect();
        let flat = p.flat_windows();
        assert_eq!(flat.count(), nested.len());
        for (w, expected) in flat.iter().zip(&nested) {
            assert_eq!(w, expected.as_slice());
        }
    }

    #[test]
    fn avgpool_is_affine() {
        let layer = Layer::AvgPool2d(Pool2dLayer {
            channels: 1,
            in_height: 2,
            in_width: 2,
            pool_h: 2,
            pool_w: 2,
            stride: 2,
        });
        let input = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(layer.forward(&input), vec![2.5]);
        let kernel = layer.activation_kernel();
        assert!(kernel.is_affine());
        // Its own linearisation, wherever it is centred.
        let mut out = vec![0.0];
        kernel.apply_linearized_row(&[9.0, -3.0, 0.0, 1.0], &input, &mut out);
        assert_eq!(out, vec![2.5]);
        assert_eq!(
            kernel.vjp(&input, &Matrix::from_rows(&[vec![2.0]])),
            Matrix::from_rows(&[vec![0.5; 4]])
        );
        assert_eq!(layer.num_params(), 0);
    }

    #[test]
    fn linearization_matches_activation_at_center() {
        let layer = dense_example();
        let z = vec![-0.5, 1.5];
        let mut out = vec![0.0; 2];
        layer
            .activation_kernel()
            .apply_linearized_row(&z, &z, &mut out);
        assert!(approx_eq_slice(&out, &layer.activate(&z), 1e-12));
    }

    #[test]
    fn activation_kernels_know_their_crossings() {
        // The kernel says where a layer can change piece: at its
        // activation's breakpoints, or where two entries of a max-pool
        // window tie; an affine kernel never.
        let relu = dense_example().activation_kernel();
        assert_eq!(relu, ActivationKernel::Elementwise(Activation::Relu));
        assert!(!relu.is_affine());
        let identity = Layer::dense(Matrix::identity(2), vec![0.0; 2], Activation::Identity);
        assert!(identity.activation_kernel().is_affine());
        let pool = Pool2dLayer {
            channels: 1,
            in_height: 2,
            in_width: 2,
            pool_h: 2,
            pool_w: 2,
            stride: 2,
        };
        assert!(!Layer::MaxPool2d(pool.clone())
            .activation_kernel()
            .is_affine());
        assert!(Layer::AvgPool2d(pool).activation_kernel().is_affine());
        let tanh_layer = Layer::dense(Matrix::identity(2), vec![0.0, 0.0], Activation::Tanh);
        assert!(!tanh_layer.activation_kernel().is_affine());
        assert!(!tanh_layer.is_piecewise_linear());
    }

    /// Direct-loop oracle of `preact_input_vjp` for a conv layer.
    fn oracle_input_vjp(c: &Conv2dLayer, rows: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(rows.rows(), c.in_dim());
        c.for_each_connection(|out_idx, w_idx, in_idx| {
            let w = c.weights[w_idx];
            for r in 0..rows.rows() {
                out[(r, in_idx)] += rows[(r, out_idx)] * w;
            }
        });
        out
    }

    /// Direct-loop oracle of `preact_param_vjp` for a conv layer.
    fn oracle_param_vjp(c: &Conv2dLayer, rows: &Matrix, input: &[f64]) -> Matrix {
        let nw = c.weights.len();
        let mut out = Matrix::zeros(rows.rows(), nw + c.out_channels);
        c.for_each_connection(|out_idx, w_idx, in_idx| {
            let x = input[in_idx];
            for r in 0..rows.rows() {
                out[(r, w_idx)] += rows[(r, out_idx)] * x;
            }
        });
        // Bias connections: pre-activation (oc, oy, ox) depends on bias[oc].
        let (oh, ow) = (c.out_height(), c.out_width());
        for oc in 0..c.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let out_idx = (oc * oh + oy) * ow + ox;
                    for r in 0..rows.rows() {
                        out[(r, nw + oc)] += rows[(r, out_idx)];
                    }
                }
            }
        }
        out
    }

    fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs oracle {w}");
        }
    }

    /// Checks every conv kernel against the direct-loop oracle, bit for
    /// bit: forward (single and batch), parameter VJP (per image) and
    /// input VJP.
    fn check_conv_against_oracle(c: &Conv2dLayer, images: &[Vec<f64>], dz: &Matrix) {
        let layer = Layer::Conv2d(c.clone());
        let batch = layer.preactivation_batch_flat(&FlatBatch::from_rows(c.in_dim(), images));
        assert_eq!(batch.count(), images.len());
        for (i, image) in images.iter().enumerate() {
            let mut want = vec![f64::NAN; layer.output_dim()];
            c.preactivation_into(image, &mut want);
            assert_bits_eq(&layer.preactivation(image), &want, "preactivation");
            assert_bits_eq(batch.row(i), &want, "preactivation_batch_flat");
            assert_bits_eq(
                layer.preact_param_vjp(dz, image).as_slice(),
                oracle_param_vjp(c, dz, image).as_slice(),
                "preact_param_vjp",
            );
        }
        assert_bits_eq(
            layer.preact_input_vjp(dz).as_slice(),
            oracle_input_vjp(c, dz).as_slice(),
            "preact_input_vjp",
        );
    }

    /// Random values with exact zeros mixed in (never −0.0: a bias of
    /// −0.0 is the documented exception to bit identity).
    fn values(rng: &mut impl rand::Rng, len: usize) -> Vec<f64> {
        (0..len)
            .map(|_| match rng.gen_range(0..4) {
                0 => 0.0,
                1 => rng.gen_range(-1e3..1e3),
                _ => rng.gen_range(-2.0..2.0),
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn conv_kernels_are_bit_identical_to_the_direct_loops(
            in_c in 1usize..9,
            out_c in 1usize..9,
            kernel in (1usize..4, 1usize..4),
            stride in 1usize..3,
            padding in 0usize..3,
            extra in (0usize..6, 0usize..6),
            images in 0usize..7,
            rows in 1usize..10,
            seed in 0u64..1 << 32,
        ) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let c = Conv2dLayer {
                in_channels: in_c,
                in_height: kernel.0 + extra.0,
                in_width: kernel.1 + extra.1,
                out_channels: out_c,
                kernel_h: kernel.0,
                kernel_w: kernel.1,
                stride,
                padding,
                weights: values(&mut rng, out_c * in_c * kernel.0 * kernel.1),
                bias: values(&mut rng, out_c),
                activation: Activation::Relu,
            };
            let images: Vec<Vec<f64>> = (0..images).map(|_| values(&mut rng, c.in_dim())).collect();
            let out_dim = out_c * c.positions();
            let dz = Matrix::from_flat(rows, out_dim, values(&mut rng, rows * out_dim));
            check_conv_against_oracle(&c, &images, &dz);
        }
    }

    /// A batch larger than one patch panel is unfolded in several chunks;
    /// the chunk boundaries change no bits.
    #[test]
    fn conv_batch_spanning_several_panels_matches_the_oracle() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let c = Conv2dLayer {
            in_channels: 8,
            in_height: 16,
            in_width: 16,
            out_channels: 5,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
            weights: values(&mut rng, 5 * 8 * 9),
            bias: values(&mut rng, 5),
            activation: Activation::Relu,
        };
        let per_panel = PANEL_ENTRIES / (c.positions() * (1 + c.taps()));
        assert!(per_panel > 1, "several images should fit one panel");
        // Three panels: two full ones and a single image.
        let images: Vec<Vec<f64>> = (0..2 * per_panel + 1)
            .map(|_| values(&mut rng, c.in_dim()))
            .collect();
        let dz = Matrix::from_flat(2, 5 * 256, values(&mut rng, 2 * 5 * 256));
        check_conv_against_oracle(&c, &images, &dz);
    }

    /// Degenerate shapes reach the GEMM with a zero dimension: no filters
    /// give an empty output, no input channels a bias-only one.
    #[test]
    fn conv_with_no_filters_or_no_input_channels_matches_the_oracle() {
        let mut rng = rand::rngs::mock::StepRng::new(3, 7);
        for (in_c, out_c) in [(2, 0), (0, 3)] {
            let c = Conv2dLayer {
                in_channels: in_c,
                in_height: 3,
                in_width: 3,
                out_channels: out_c,
                kernel_h: 2,
                kernel_w: 2,
                stride: 1,
                padding: 1,
                weights: values(&mut rng, out_c * in_c * 4),
                bias: vec![0.5; out_c],
                activation: Activation::Relu,
            };
            let images = vec![values(&mut rng, c.in_dim()); 3];
            let dz = Matrix::from_flat(2, out_c * 16, values(&mut rng, 2 * out_c * 16));
            check_conv_against_oracle(&c, &images, &dz);
        }
    }

    #[test]
    fn activation_linearization_vjp_elementwise() {
        let kernel = ActivationKernel::Elementwise(Activation::LeakyRelu { alpha: 0.5 });
        let rows = Matrix::from_rows(&[vec![1.0, 1.0, 1.0], vec![2.0, -4.0, 8.0]]);
        assert_eq!(
            kernel.vjp(&[-1.0, 0.0, 3.0], &rows),
            Matrix::from_rows(&[vec![0.5, 1.0, 1.0], vec![1.0, -4.0, 8.0]])
        );
        // Max pooling: each column lands on its window's argmax input, a
        // tie on the earlier one.
        let pool = Layer::MaxPool2d(Pool2dLayer {
            channels: 1,
            in_height: 1,
            in_width: 4,
            pool_h: 1,
            pool_w: 2,
            stride: 1,
        });
        let rows = Matrix::from_rows(&[vec![1.0, 2.0, 4.0]]);
        assert_eq!(
            pool.activation_kernel().vjp(&[3.0, 3.0, 5.0, 1.0], &rows),
            Matrix::from_rows(&[vec![1.0, 0.0, 6.0, 0.0]])
        );
    }
}
