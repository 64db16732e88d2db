//! Element-wise activation functions, their derivatives, and linearisations.
//!
//! The paper's Decoupled DNN construction (Definition 4.3) evaluates the
//! value channel with the *linearisation* of the activation function around
//! the corresponding activation-channel pre-activation.  This module provides
//! the activation functions used in the evaluation (ReLU for the image and
//! ACAS networks) together with the smooth ones (Tanh, Sigmoid) used to show
//! point repair works for non-piecewise-linear networks.  A layer's
//! activation as a whole — element-wise or pooling — is described by
//! [`crate::ActivationKernel`], which calls the slice kernels below.
//!
//! # Slice kernels
//!
//! Each function is defined once, per scalar: [`Activation::apply_scalar`]
//! and [`Activation::derivative_scalar`].  The slice kernels
//! ([`Activation::apply_into`], [`Activation::apply_linearized_into`]) and
//! every `Vec` entry point call those scalar functions, but from a loop
//! that is expanded once per variant with the variant fixed.  After
//! inlining, the scalar `match` folds away, so a slice pays one dispatch
//! per call instead of one per element, and the element loop is free to
//! vectorise.  Each element is still the scalar function's own expression,
//! so the kernels are bit-identical to mapping the scalar functions.

use crate::batch::zeros;
use serde::{Deserialize, Serialize};

/// Runs `$body` with `$act` bound to `$activation` rebuilt as a constant of
/// its own variant, once per variant, so that the `match` inside the scalar
/// functions that `$body` calls folds away (see the module doc).
macro_rules! per_variant {
    ($activation:expr, |$act:ident| $body:block) => {
        match $activation {
            Activation::Relu => {
                let $act = Activation::Relu;
                $body
            }
            Activation::LeakyRelu { alpha } => {
                let $act = Activation::LeakyRelu { alpha };
                $body
            }
            Activation::HardTanh => {
                let $act = Activation::HardTanh;
                $body
            }
            Activation::Tanh => {
                let $act = Activation::Tanh;
                $body
            }
            Activation::Sigmoid => {
                let $act = Activation::Sigmoid;
                $body
            }
            Activation::Identity => {
                let $act = Activation::Identity;
                $body
            }
        }
    };
}

/// An element-wise activation function `σ : ℝ → ℝ` applied component-wise.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Activation {
    /// `max(0, x)` — the paper's running example and evaluation networks.
    Relu,
    /// `x` for `x ≥ 0`, `αx` otherwise.
    LeakyRelu {
        /// Negative-side slope.
        alpha: f64,
    },
    /// `clamp(x, -1, 1)` — piecewise linear with two breakpoints.
    HardTanh,
    /// Hyperbolic tangent (smooth, not PWL).
    Tanh,
    /// Logistic sigmoid (smooth, not PWL).
    Sigmoid,
    /// The identity function (used for final logit layers).
    Identity,
}

impl Activation {
    /// Applies the activation to a single scalar.
    #[inline]
    pub fn apply_scalar(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu { alpha } => {
                if x >= 0.0 {
                    x
                } else {
                    alpha * x
                }
            }
            Activation::HardTanh => x.clamp(-1.0, 1.0),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Identity => x,
        }
    }

    /// Derivative `σ'(x)` at a single scalar.
    ///
    /// At the (measure-zero) breakpoints of the PWL activations we return the
    /// right-derivative, matching Appendix C of the paper (any consistent
    /// choice of "linearisation" at non-differentiable points is sound for
    /// point repair).
    #[inline]
    pub fn derivative_scalar(self, x: f64) -> f64 {
        match self {
            Activation::Relu => {
                if x >= 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu { alpha } => {
                if x >= 0.0 {
                    1.0
                } else {
                    alpha
                }
            }
            Activation::HardTanh => {
                if (-1.0..1.0).contains(&x) {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Sigmoid => {
                let s = 1.0 / (1.0 + (-x).exp());
                s * (1.0 - s)
            }
            Activation::Identity => 1.0,
        }
    }

    /// Applies the activation component-wise.
    pub fn apply(self, xs: &[f64]) -> Vec<f64> {
        let mut out = zeros(xs.len());
        self.apply_into(xs, &mut out);
        out
    }

    /// Writes `σ(xs[k])` into `out[k]` for every `k`: the slice kernel
    /// behind [`Self::apply`] and the layers' activation passes.  Each
    /// element is [`Self::apply_scalar`]'s value, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != out.len()`.
    pub fn apply_into(self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "apply_into: length mismatch");
        per_variant!(self, |act| {
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = act.apply_scalar(x);
            }
        })
    }

    /// Component-wise derivative.
    pub fn derivative(self, xs: &[f64]) -> Vec<f64> {
        let mut out = zeros(xs.len());
        per_variant!(self, |act| {
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = act.derivative_scalar(x);
            }
        });
        out
    }

    /// The linearisation of `σ` around `center` (Definition 4.2), returned as
    /// per-component `(slope, intercept)` pairs such that
    /// `Linearize[σ, center](x)_i = slope_i · x_i + intercept_i`, with
    /// slope `σ'(c)` ([`Self::derivative_scalar`]) and intercept
    /// `σ(c) − σ'(c)·c`.
    ///
    /// The linearisation is exact at its centre: `slope·center + intercept =
    /// σ(center)`.
    pub fn linearize(self, center: &[f64]) -> Vec<(f64, f64)> {
        per_variant!(self, |act| {
            center
                .iter()
                .map(|&c| {
                    let slope = act.derivative_scalar(c);
                    (slope, act.apply_scalar(c) - slope * c)
                })
                .collect()
        })
    }

    /// Writes `Linearize[σ, center](z)` into `out`: each component's
    /// `slope·z + intercept`, with [`Self::linearize`]'s slope and
    /// intercept at the matching component of `center`.  This is the DDNN
    /// value channel's step (Definition 4.3), with `center` the activation
    /// channel's pre-activation.
    ///
    /// # Panics
    ///
    /// Panics unless `center`, `z` and `out` have one length.
    pub fn apply_linearized_into(self, center: &[f64], z: &[f64], out: &mut [f64]) {
        assert!(
            z.len() == center.len() && out.len() == center.len(),
            "apply_linearized_into: length mismatch"
        );
        per_variant!(self, |act| {
            for ((o, &c), &x) in out.iter_mut().zip(center).zip(z) {
                let slope = act.derivative_scalar(c);
                let intercept = act.apply_scalar(c) - slope * c;
                *o = slope * x + intercept;
            }
        })
    }

    /// Whether the activation is piecewise linear (Definition 2.4).
    ///
    /// Polytope repair (Algorithm 2) requires every activation in the network
    /// to be PWL; point repair (Algorithm 1) does not.
    pub fn is_piecewise_linear(self) -> bool {
        !matches!(self, Activation::Tanh | Activation::Sigmoid)
    }

    /// Pre-activation thresholds at which the PWL activation changes slope,
    /// or `None` for smooth activations.
    ///
    /// These are the values the linear-region computation subdivides on.
    pub fn breakpoints(self) -> Option<&'static [f64]> {
        match self {
            Activation::Relu | Activation::LeakyRelu { .. } => Some(&[0.0]),
            Activation::HardTanh => Some(&[-1.0, 1.0]),
            Activation::Identity => Some(&[]),
            Activation::Tanh | Activation::Sigmoid => None,
        }
    }

    /// A small integer identifying which linear piece `x` lies in, used to
    /// build activation patterns (Definition 2.5) for PWL activations.
    ///
    /// Smooth activations return 0 for every input.
    pub fn piece_index(self, x: f64) -> i8 {
        match self.breakpoints() {
            None => 0,
            Some(bps) => {
                let mut idx = 0i8;
                for &b in bps {
                    if x >= b {
                        idx += 1;
                    }
                }
                idx
            }
        }
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Activation::Relu => write!(f, "relu"),
            Activation::LeakyRelu { alpha } => write!(f, "leaky_relu({alpha})"),
            Activation::HardTanh => write!(f, "hard_tanh"),
            Activation::Tanh => write!(f, "tanh"),
            Activation::Sigmoid => write!(f, "sigmoid"),
            Activation::Identity => write!(f, "identity"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Activation; 6] = [
        Activation::Relu,
        Activation::LeakyRelu { alpha: 0.1 },
        Activation::HardTanh,
        Activation::Tanh,
        Activation::Sigmoid,
        Activation::Identity,
    ];

    /// Inputs on which a hoisted, vectorised loop could drift from the
    /// scalar functions: signed zeros (`f64::max` promises no sign for
    /// ±0), HardTanh's edges, tiny and subnormal values, infinities, NaN
    /// and huge values.
    const EDGES: [f64; 15] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        1e-9,
        -1e-9,
        f64::MIN_POSITIVE / 4.0,
        -f64::MIN_POSITIVE / 4.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        1e300,
        -1e300,
        0.37,
        -2.5,
    ];

    /// Every variant, LeakyReLU with two slopes.
    const VARIANTS: [Activation; 7] = [
        Activation::Relu,
        Activation::LeakyRelu { alpha: 0.1 },
        Activation::LeakyRelu { alpha: 0.37 },
        Activation::HardTanh,
        Activation::Tanh,
        Activation::Sigmoid,
        Activation::Identity,
    ];

    /// The edge values at every offset, long enough for the vectorised
    /// body of a loop (and its remainder) to see each of them.
    fn edge_inputs() -> Vec<f64> {
        (0..5)
            .flat_map(|shift| EDGES.iter().cycle().skip(shift).take(EDGES.len()))
            .copied()
            .collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// [`bits`] with every NaN read as one pattern.  The linearised kernels
    /// add two terms that are both NaN where the centre is infinite and the
    /// value NaN; Rust promises no sign or payload for such a sum, and an
    /// optimised build may commute the operands, so only NaN-ness is
    /// compared there.
    fn bits_any_nan(xs: &[f64]) -> Vec<u64> {
        xs.iter()
            .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
            .collect()
    }

    /// `slope·z + intercept` with [`Activation::linearize`]'s slope and
    /// intercept at `center`, written out per scalar.
    fn linearized_scalar(act: Activation, center: &[f64], z: &[f64]) -> Vec<f64> {
        center
            .iter()
            .zip(z)
            .map(|(&c, &x)| {
                let slope = act.derivative_scalar(c);
                slope * x + (act.apply_scalar(c) - slope * c)
            })
            .collect()
    }

    #[test]
    fn slice_kernels_equal_the_scalar_functions_bit_for_bit() {
        let xs = edge_inputs();
        let zs: Vec<f64> = xs.iter().rev().copied().collect();
        for act in VARIANTS {
            let apply: Vec<f64> = xs.iter().map(|&x| act.apply_scalar(x)).collect();
            let slopes: Vec<f64> = xs.iter().map(|&x| act.derivative_scalar(x)).collect();
            let intercepts: Vec<f64> = xs
                .iter()
                .zip(&slopes)
                .map(|(&c, &slope)| act.apply_scalar(c) - slope * c)
                .collect();

            let mut out = vec![0.0; xs.len()];
            act.apply_into(&xs, &mut out);
            assert_eq!(bits(&out), bits(&apply), "{act}: apply_into");
            assert_eq!(bits(&act.apply(&xs)), bits(&apply), "{act}: apply");
            assert_eq!(
                bits(&act.derivative(&xs)),
                bits(&slopes),
                "{act}: derivative"
            );
            let (s, b): (Vec<f64>, Vec<f64>) = act.linearize(&xs).into_iter().unzip();
            assert_eq!(bits(&s), bits(&slopes), "{act}: linearize slopes");
            assert_eq!(bits(&b), bits(&intercepts), "{act}: linearize intercepts");
            // The value channel's step, at its centre and at another input.
            for z in [&xs, &zs] {
                act.apply_linearized_into(&xs, z, &mut out);
                assert_eq!(
                    bits_any_nan(&out),
                    bits_any_nan(&linearized_scalar(act, &xs, z)),
                    "{act}: apply_linearized_into"
                );
            }
        }
    }

    #[test]
    fn layer_entry_points_equal_the_scalar_functions_bit_for_bit() {
        use crate::{FlatBatch, Layer, Pool2dLayer};
        use prdnn_linalg::Matrix;
        let z = edge_inputs();
        let reversed: Vec<f64> = z.iter().rev().copied().collect();
        let batch = FlatBatch::from_rows(z.len(), &[z.clone(), reversed.clone()]);
        for act in VARIANTS {
            let layer = Layer::dense(Matrix::zeros(z.len(), 1), vec![0.0; z.len()], act);
            let apply = |xs: &[f64]| xs.iter().map(|&x| act.apply_scalar(x)).collect::<Vec<_>>();
            assert_eq!(
                bits(&layer.activate(&z)),
                bits(&apply(&z)),
                "{act}: activate"
            );
            let out = layer.activate_batch_flat(&batch);
            assert_eq!(bits(out.row(0)), bits(&apply(&z)), "{act}: batch row 0");
            assert_eq!(
                bits(out.row(1)),
                bits(&apply(&reversed)),
                "{act}: batch row 1"
            );
            let kernel = layer.activation_kernel();
            let mut out = vec![0.0; z.len()];
            for (center, value) in [(&z, &z), (&z, &reversed), (&reversed, &z)] {
                kernel.apply_linearized_row(center, value, &mut out);
                assert_eq!(
                    bits_any_nan(&out),
                    bits_any_nan(&linearized_scalar(act, center, value)),
                    "{act}: apply_linearized_row"
                );
            }
        }
        // Max pooling over the same values: 2×2 windows (a loop of their
        // own) and 3×3 windows, against the fold written out; and the
        // linearised pool, which copies each window's first strict
        // maximum of the centre, so ties and NaNs keep the earlier entry.
        for side in [2, 3] {
            let (h, w) = (3, 25);
            let layer = Layer::MaxPool2d(Pool2dLayer {
                channels: 1,
                in_height: h,
                in_width: w,
                pool_h: side,
                pool_w: side,
                stride: 1,
            });
            let z: Vec<f64> = EDGES.iter().cycle().take(h * w).copied().collect();
            let windows: Vec<Vec<usize>> = (0..=h - side)
                .flat_map(|oy| (0..=w - side).map(move |ox| (oy, ox)))
                .map(|(oy, ox)| {
                    (0..side * side)
                        .map(|k| (oy + k / side) * w + ox + k % side)
                        .collect()
                })
                .collect();
            let want: Vec<f64> = windows
                .iter()
                .map(|win| win.iter().map(|&i| z[i]).fold(f64::NEG_INFINITY, f64::max))
                .collect();
            assert_eq!(
                bits(&layer.activate(&z)),
                bits(&want),
                "{side}x{side} max pool"
            );
            let out =
                layer.activate_batch_flat(&FlatBatch::from_rows(h * w, std::slice::from_ref(&z)));
            assert_eq!(
                bits(out.row(0)),
                bits(&want),
                "{side}x{side} max pool batch"
            );
            let value: Vec<f64> = (0..h * w).map(|i| i as f64).collect();
            let selected: Vec<f64> = windows
                .iter()
                .map(|win| {
                    let mut best = win[0];
                    for &i in win {
                        if z[i] > z[best] {
                            best = i;
                        }
                    }
                    value[best]
                })
                .collect();
            let mut out = vec![0.0; windows.len()];
            layer
                .activation_kernel()
                .apply_linearized_row(&z, &value, &mut out);
            assert_eq!(
                bits(&out),
                bits(&selected),
                "{side}x{side} linearised max pool"
            );
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn apply_into_rejects_a_short_output() {
        Activation::Relu.apply_into(&[1.0, 2.0], &mut [0.0]);
    }

    #[test]
    fn relu_basics() {
        let r = Activation::Relu;
        assert_eq!(r.apply(&[-1.0, 0.0, 2.0]), vec![0.0, 0.0, 2.0]);
        assert_eq!(r.derivative(&[-1.0, 2.0]), vec![0.0, 1.0]);
    }

    #[test]
    fn leaky_and_hardtanh() {
        let l = Activation::LeakyRelu { alpha: 0.5 };
        assert_eq!(l.apply_scalar(-2.0), -1.0);
        assert_eq!(l.derivative_scalar(-2.0), 0.5);
        let h = Activation::HardTanh;
        assert_eq!(h.apply(&[-3.0, 0.5, 3.0]), vec![-1.0, 0.5, 1.0]);
        assert_eq!(h.derivative(&[-3.0, 0.5, 3.0]), vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn linearization_exact_at_center() {
        for act in ALL {
            for &c in &[-2.0, -0.5, 0.0, 0.3, 1.7] {
                let lin = act.linearize(&[c]);
                let (slope, intercept) = lin[0];
                let recon = slope * c + intercept;
                assert!(
                    (recon - act.apply_scalar(c)).abs() < 1e-12,
                    "{act} at {c}: {recon} vs {}",
                    act.apply_scalar(c)
                );
            }
        }
    }

    #[test]
    fn derivative_matches_finite_difference_for_smooth() {
        let h = 1e-6;
        for act in [Activation::Tanh, Activation::Sigmoid] {
            for &x in &[-2.0, -0.3, 0.0, 0.7, 1.9] {
                let fd = (act.apply_scalar(x + h) - act.apply_scalar(x - h)) / (2.0 * h);
                assert!((fd - act.derivative_scalar(x)).abs() < 1e-5, "{act} at {x}");
            }
        }
    }

    #[test]
    fn pwl_classification() {
        assert!(Activation::Relu.is_piecewise_linear());
        assert!(Activation::HardTanh.is_piecewise_linear());
        assert!(!Activation::Tanh.is_piecewise_linear());
        assert!(!Activation::Sigmoid.is_piecewise_linear());
        assert_eq!(Activation::Relu.breakpoints(), Some(&[0.0][..]));
        assert_eq!(Activation::Tanh.breakpoints(), None);
    }

    #[test]
    fn piece_index_partitions_the_line() {
        let h = Activation::HardTanh;
        assert_eq!(h.piece_index(-2.0), 0);
        assert_eq!(h.piece_index(0.0), 1);
        assert_eq!(h.piece_index(2.0), 2);
        let r = Activation::Relu;
        assert_eq!(r.piece_index(-0.1), 0);
        assert_eq!(r.piece_index(0.1), 1);
    }
}
