//! The incremental SyReNN transformer pipeline.
//!
//! Both restriction algorithms ([`crate::line_regions`] and
//! [`crate::plane_regions`]) share the same structure: push the restricted
//! input set through the network **one layer at a time**, subdividing it at
//! every activation crossing so that each surviving piece lies inside a
//! single linear region of the prefix network.
//!
//! The key invariant maintained here is that every vertex *carries its
//! running network value* (the input to the next layer) alongside its
//! geometry.  Each layer's affine map is then applied **exactly once per
//! surviving vertex** ([`TransformerState::process_layer`]), crossings
//! are located by interpolating the carried pre-activations along edges —
//! exact, because the prefix network is affine on every piece — and new
//! crossing vertices get *interpolated* values instead of a recomputation of
//! the whole network prefix.  This makes `LinRegions` linear in network
//! depth, where the previous implementation re-evaluated the full prefix for
//! every vertex at every layer (quadratic in depth).
//!
//! The segment pipeline ([`crate::line_regions`]) goes further within a
//! layer.  It enumerates the layer's crossing functions once, into a table
//! of one kind ([`UnitCrossing`] or [`PairCrossing`], in
//! [`for_each_crossing`] order), and computes each point's [`side`] of
//! every crossing once.  It evaluates a crossing again only on intervals
//! whose two ends lie on opposite sides, and it builds the next layer's
//! batch in one fused pass that interpolates and activates each new point.
//! The splitter it replaced, which evaluates every crossing at both ends of
//! every interval, is kept as a test oracle that the segment pipeline must
//! match bit for bit.  The polygon pipeline ([`crate::plane_regions`])
//! still evaluates [`Crossing`]s directly.

use crate::SyrennError;
use prdnn_nn::{ActivationKernel, Layer, Network};

/// A set of pieces being pushed through the network, with per-vertex carried
/// values.
///
/// Between layers the carried value of a vertex is the post-activation
/// output of the prefix network at that vertex (i.e. the next layer's
/// input); while a layer is being processed it is that layer's
/// pre-activation.
pub(crate) trait TransformerState {
    /// Pushes the state through one layer, in three sub-steps:
    ///
    /// 1. replace every vertex's carried value `v` with the layer's
    ///    pre-activation `W v + b` (one affine application per vertex;
    ///    skipped when the pre-activation is the identity, i.e. pooling),
    /// 2. split every piece at the crossings of the layer's activation
    ///    `kernel` ([`for_each_crossing`]), evaluated on the carried
    ///    pre-activations — new crossing vertices must interpolate *both*
    ///    the geometry and the carried pre-activation,
    /// 3. replace every carried pre-activation `z` with the activation
    ///    output `sigma(z)` (exact even at crossing vertices: the
    ///    activations are continuous, so their value at a piece boundary
    ///    does not depend on which adjacent piece the vertex is viewed
    ///    from).
    ///
    /// The three sub-steps are one method so that a state which fans its
    /// pieces across a thread pool can push each piece through the whole
    /// layer as a single task.
    fn process_layer(&mut self, layer: &Layer, kernel: &ActivationKernel);
}

/// Drives a [`TransformerState`] through every layer of `net`.
///
/// The caller initialises the state with the input pieces (carried values
/// equal to the vertex positions) and reads the final subdivision out of the
/// state afterwards.  Each layer's [`ActivationKernel`] is built once and
/// handed to the state.  Propagation stops after the last crossing-capable
/// layer — trailing affine layers cannot subdivide further, so the carried
/// values are only advanced as far as the subdivision needs them.
pub(crate) fn propagate<S: TransformerState>(
    net: &Network,
    state: &mut S,
) -> Result<(), SyrennError> {
    if !net.is_piecewise_linear() {
        return Err(SyrennError::NotPiecewiseLinear);
    }
    let kernels: Vec<ActivationKernel> =
        net.layers().iter().map(Layer::activation_kernel).collect();
    // A trailing run of affine layers cannot introduce crossings, so the
    // subdivision is final once the last crossing-capable layer is done;
    // pushing values further would be wasted work.
    let Some(last_splitting) = kernels.iter().rposition(|k| !k.is_affine()) else {
        return Ok(());
    };
    for (layer, kernel) in net.layers().iter().zip(&kernels).take(last_splitting + 1) {
        state.process_layer(layer, kernel);
    }
    Ok(())
}

/// One crossing function of a layer: an affine function of the
/// pre-activation whose zero set separates two linear pieces.
///
/// Because it is affine in `z` — and `z` is affine in the input on every
/// piece where the prefix network is affine — its zero set restricted to a
/// piece is a hyperplane, and its values interpolate linearly along edges.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Crossing {
    /// Element-wise activation: `z[unit] - threshold`.
    Unit {
        /// The pre-activation component.
        unit: usize,
        /// The activation breakpoint.
        threshold: f64,
    },
    /// Max-pooling: `z[i] - z[j]` for two entries of one window.
    Pair {
        /// First pre-activation index of the window pair.
        i: usize,
        /// Second pre-activation index of the window pair.
        j: usize,
    },
}

impl Crossing {
    /// Evaluates the crossing function on a pre-activation vector.
    #[inline]
    pub(crate) fn eval(&self, z: &[f64]) -> f64 {
        match *self {
            Crossing::Unit { unit, threshold } => UnitCrossing { unit, threshold }.eval(z),
            Crossing::Pair { i, j } => PairCrossing { i, j }.eval(z),
        }
    }
}

/// A crossing function of one statically known kind.  Loops generic over
/// it are compiled once per kind, so evaluating a table of one kind never
/// branches on the kind; [`Crossing::eval`] delegates here, so each
/// kind's expression is written once.
pub(crate) trait CrossingFn: Copy {
    /// Evaluates the crossing function on a pre-activation vector.
    fn eval(self, z: &[f64]) -> f64;
}

/// [`Crossing::Unit`]: `z[unit] - threshold`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct UnitCrossing {
    pub(crate) unit: usize,
    pub(crate) threshold: f64,
}

impl CrossingFn for UnitCrossing {
    #[inline]
    fn eval(self, z: &[f64]) -> f64 {
        z[self.unit] - self.threshold
    }
}

/// [`Crossing::Pair`]: `z[i] - z[j]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairCrossing {
    pub(crate) i: usize,
    pub(crate) j: usize,
}

impl CrossingFn for PairCrossing {
    #[inline]
    fn eval(self, z: &[f64]) -> f64 {
        z[self.i] - z[self.j]
    }
}

/// Enumerates the crossing functions of a layer with activation `kernel`
/// and `width` pre-activation entries, calling `f` with each one: per
/// unit, each breakpoint; per max-pool window, each pair of its entries.
pub(crate) fn for_each_crossing(
    kernel: &ActivationKernel,
    width: usize,
    mut f: impl FnMut(Crossing),
) {
    match kernel {
        ActivationKernel::Elementwise(activation) => {
            let thresholds = activation.breakpoints().unwrap_or_default();
            for unit in 0..width {
                for &threshold in thresholds {
                    f(Crossing::Unit { unit, threshold });
                }
            }
        }
        ActivationKernel::Max(windows) => {
            for w in windows.iter() {
                for (pos, &i) in w.iter().enumerate() {
                    for &j in &w[pos + 1..] {
                        f(Crossing::Pair { i, j });
                    }
                }
            }
        }
        ActivationKernel::Average(_) => {}
    }
}

/// Whether an affine function with endpoint values `ga`, `gb` crosses zero
/// strictly between the endpoints (shared by the chain and polygon
/// splitters so the two stay tolerance-consistent).
#[inline]
pub(crate) fn crosses(ga: f64, gb: f64) -> bool {
    (ga > crate::TOL && gb < -crate::TOL) || (ga < -crate::TOL && gb > crate::TOL)
}

/// The side of a crossing a value `g` lies on: `1` above `TOL`, `-1` below
/// `-TOL`, and `0` inside the band or for NaN.  `side(ga) * side(gb) == -1`
/// exactly when [`crosses`]`(ga, gb)`, so the chain splitter stores one
/// side per point and crossing instead of evaluating every crossing at
/// both ends of every interval.
#[inline]
pub(crate) fn side(g: f64) -> i8 {
    i8::from(g > crate::TOL) - i8::from(g < -crate::TOL)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TOL;

    #[test]
    fn opposite_sides_are_exactly_crossings() {
        let values = [
            f64::NEG_INFINITY,
            -1.0,
            -TOL * 2.0,
            -TOL,
            -TOL / 2.0,
            -0.0,
            0.0,
            TOL / 2.0,
            TOL,
            TOL * 2.0,
            1.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for &ga in &values {
            for &gb in &values {
                assert_eq!(side(ga) * side(gb) == -1, crosses(ga, gb), "{ga} {gb}");
            }
        }
    }
}
