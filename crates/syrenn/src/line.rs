//! ExactLine: the restriction of a PWL network to a 1-D segment.
//!
//! # One layer of the chain
//!
//! The segment is an ordered subdivision of `[0, 1]` whose points carry
//! their running network value in one flat batch.  Each layer takes three
//! steps:
//!
//! 1. **Pre-activation.** One GEMM over every point's carried value
//!    (skipped for pooling, whose pre-activation is the identity).
//! 2. **Cuts.** The layer's crossing functions are enumerated once into a
//!    table of one kind ([`for_each_crossing`] order), and every point's
//!    *side* of every crossing is computed once
//!    ([`side`]) into a rolling row.  An
//!    interval holds crossing `c` exactly when its two endpoints lie on
//!    opposite sides of `c`; only those crossings are evaluated again, at
//!    both ends, to interpolate the cut.  Cuts strictly inside the
//!    interval are sorted by `t` (stably, so ties keep crossing order) and
//!    deduplicated within `TOL`.
//! 3. **Merge and activate, fused.** The next layer's input batch is
//!    built in one pass: each old row is activated through the layer's
//!    [`ActivationKernel`], and each cut's pre-activation is interpolated
//!    into a scratch row and activated just before the row that closes its
//!    interval.  Layers without crossings take the same pass with no cuts.
//!
//! Every expression — crossing values, `alpha`, `t`, the interpolated
//! pre-activations, the activations — is the one the straightforward
//! splitter evaluates, in the same order, only fewer times.  That splitter
//! survives as a test oracle, and the tests require `exact_line` to match
//! it bit for bit.

use crate::transformer::{
    for_each_crossing, propagate, side, Crossing, CrossingFn, PairCrossing, TransformerState,
    UnitCrossing,
};
use crate::{LinearRegion, SyrennError, TOL};
use prdnn_nn::{ActivationKernel, FlatBatch, Layer, Network};

/// Pipeline state for a segment: an ordered subdivision of `[0, 1]` whose
/// points carry their running network value.
///
/// The geometry of a subdivision point is just its parameter `t`; consecutive
/// points delimit the pieces.  Between layers `vals.row(i)` is the output of
/// the prefix network at `ts[i]`.  The whole chain lives in one flat batch
/// so each layer's pre-activation is a single GEMM over every subdivision
/// point.
struct ChainState {
    ts: Vec<f64>,
    vals: FlatBatch,
}

/// A new subdivision point strictly inside the interval that ends at point
/// `interval`: its parameter `t` and its position `alpha` between the
/// interval's endpoints.
struct Cut {
    interval: usize,
    t: f64,
    alpha: f64,
}

impl TransformerState for ChainState {
    fn process_layer(&mut self, layer: &Layer, kernel: &ActivationKernel) {
        // Pooling pre-activations are the identity: the carried values
        // already are the pre-activation, so skip the copy.
        let z = if layer.preactivation_is_identity() {
            std::mem::take(&mut self.vals)
        } else {
            layer.preactivation_batch_flat(&self.vals)
        };
        // A layer's crossings are all of one kind, so at most one of the
        // two tables is non-empty.
        let (mut units, mut pairs) = (Vec::new(), Vec::new());
        for_each_crossing(kernel, layer.preactivation_dim(), |g| match g {
            Crossing::Unit { unit, threshold } => units.push(UnitCrossing { unit, threshold }),
            Crossing::Pair { i, j } => pairs.push(PairCrossing { i, j }),
        });
        let cuts = if pairs.is_empty() {
            find_cuts(&units, &self.ts, &z)
        } else {
            find_cuts(&pairs, &self.ts, &z)
        };
        self.merge_and_activate(&z, &cuts, kernel);
    }
}

/// Crossings whose sides [`find_cuts`] tests together before looking at any
/// one of them.
const SCAN_CHUNK: usize = 32;

/// Finds the cuts of every interval of the chain `ts` whose points have
/// pre-activations `z`, in chain order, at the crossings of `table`.
///
/// All crossing functions are affine in the pre-activation, which is
/// itself affine in `t` on every current interval, so the crossings of
/// *every* unit can be located from the same interval endpoints in one
/// pass over the subdivision.
fn find_cuts<G: CrossingFn>(table: &[G], ts: &[f64], z: &FlatBatch) -> Vec<Cut> {
    let mut cuts = Vec::new();
    if table.is_empty() {
        return cuts;
    }
    let sides_of = |row: &[f64], sides: &mut [i8]| {
        for (s, g) in sides.iter_mut().zip(table) {
            *s = side(g.eval(row));
        }
    };
    let mut prev = vec![0i8; table.len()];
    let mut next = vec![0i8; table.len()];
    sides_of(z.row(0), &mut prev);
    let mut local: Vec<(f64, f64)> = Vec::new(); // (t, alpha) within one interval
    for i in 1..ts.len() {
        let (za, zb) = (z.row(i - 1), z.row(i));
        let (ta, tb) = (ts[i - 1], ts[i]);
        sides_of(zb, &mut next);
        local.clear();
        let chunks = prev.chunks(SCAN_CHUNK).zip(next.chunks(SCAN_CHUNK));
        for ((pa, pb), gs) in chunks.zip(table.chunks(SCAN_CHUNK)) {
            // Most chunks of an interval cross nowhere; this branch-free
            // test vectorises and skips them.
            if !pa
                .iter()
                .zip(pb)
                .fold(false, |any, (&sa, &sb)| any | (sa * sb == -1))
            {
                continue;
            }
            for ((&sa, &sb), &g) in pa.iter().zip(pb).zip(gs) {
                if sa * sb == -1 {
                    let (ga, gb) = (g.eval(za), g.eval(zb));
                    let alpha = ga / (ga - gb);
                    let t = ta + alpha * (tb - ta);
                    // Only crossings strictly inside the interval; ones
                    // within TOL of an endpoint are already represented.
                    if t > ta + TOL && t < tb - TOL {
                        local.push((t, alpha));
                    }
                }
            }
        }
        local.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut last_t = f64::NEG_INFINITY;
        for &(t, alpha) in &local {
            // Drop crossings of different units that coincide within TOL.
            if t - last_t > TOL {
                last_t = t;
                cuts.push(Cut {
                    interval: i,
                    t,
                    alpha,
                });
            }
        }
        std::mem::swap(&mut prev, &mut next);
    }
    cuts
}

impl ChainState {
    /// Replaces the chain with its subdivision at `cuts` and the carried
    /// pre-activations `z` with the layer's outputs, in one pass: each cut's
    /// pre-activation is interpolated into a scratch row, and every row is
    /// activated straight into the next layer's batch.
    fn merge_and_activate(&mut self, z: &FlatBatch, cuts: &[Cut], kernel: &ActivationKernel) {
        let count = self.ts.len() + cuts.len();
        let mut ts = Vec::with_capacity(count);
        let mut vals = FlatBatch::zeros(kernel.output_dim(z.dim()), count);
        let mut scratch = vec![0.0; z.dim()];
        let mut cuts = cuts.iter().peekable();
        let mut row = 0;
        for (i, &t) in self.ts.iter().enumerate() {
            while let Some(cut) = cuts.next_if(|c| c.interval == i) {
                let (za, zb) = (z.row(i - 1), z.row(i));
                for ((s, &x), &y) in scratch.iter_mut().zip(za).zip(zb) {
                    *s = x + cut.alpha * (y - x);
                }
                kernel.apply_row(&scratch, vals.row_mut(row));
                ts.push(cut.t);
                row += 1;
            }
            kernel.apply_row(z.row(i), vals.row_mut(row));
            ts.push(t);
            row += 1;
        }
        self.ts = ts;
        self.vals = vals;
    }
}

/// Computes the endpoints (as parameters `t ∈ [0, 1]`) of the linear pieces
/// of `N` restricted to the segment from `start` to `end`.
///
/// The returned vector is sorted, starts with `0.0`, ends with `1.0`, and the
/// network is affine on every consecutive pair (this is the ExactLine
/// algorithm of Sotoudeh & Thakur 2019, which the paper uses to compute
/// `LinRegions(N, P)` for one-dimensional `P`).
///
/// The subdivision is carried through the network incrementally: each
/// layer's affine map is applied once per current subdivision point, and new
/// crossing points interpolate the carried values (see
/// `transformer.rs`), so the cost is linear — not quadratic — in
/// network depth.
///
/// # Errors
///
/// Returns [`SyrennError::NotPiecewiseLinear`] if any layer uses a smooth
/// activation, and [`SyrennError::DegenerateInput`] if `start == end`.
///
/// # Panics
///
/// Panics if `start.len()` or `end.len()` differ from the network's input
/// dimension.
pub fn exact_line(net: &Network, start: &[f64], end: &[f64]) -> Result<Vec<f64>, SyrennError> {
    assert_eq!(
        start.len(),
        net.input_dim(),
        "exact_line: start dimension mismatch"
    );
    assert_eq!(
        end.len(),
        net.input_dim(),
        "exact_line: end dimension mismatch"
    );
    if !net.is_piecewise_linear() {
        return Err(SyrennError::NotPiecewiseLinear);
    }
    if start.iter().zip(end).all(|(s, e)| (s - e).abs() <= TOL) {
        return Err(SyrennError::DegenerateInput);
    }

    let mut state = ChainState {
        ts: vec![0.0, 1.0],
        vals: FlatBatch::from_rows(net.input_dim(), &[start.to_vec(), end.to_vec()]),
    };
    propagate(net, &mut state)?;
    Ok(state.ts)
}

/// Computes `LinRegions(N, P)` for a 1-D segment `P` from `start` to `end`.
///
/// Each region is a sub-segment on which the network is affine; its vertices
/// are the two endpoints of the sub-segment and its interior point is the
/// midpoint.
///
/// # Errors
///
/// See [`exact_line`].
pub fn line_regions(
    net: &Network,
    start: &[f64],
    end: &[f64],
) -> Result<Vec<LinearRegion>, SyrennError> {
    Ok(regions_of(start, end, &exact_line(net, start, end)?))
}

/// The regions of the segment from `start` to `end` between consecutive
/// subdivision parameters `ts`.
fn regions_of(start: &[f64], end: &[f64], ts: &[f64]) -> Vec<LinearRegion> {
    let point = |t: f64| -> Vec<f64> {
        start
            .iter()
            .zip(end)
            .map(|(s, e)| s + t * (e - s))
            .collect()
    };
    ts.windows(2)
        .map(|w| LinearRegion {
            vertices: vec![point(w[0]), point(w[1])],
            interior: point(0.5 * (w[0] + w[1])),
        })
        .collect()
}

/// The straightforward chain splitter `exact_line` replaced, kept as its
/// bitwise oracle: it evaluates every crossing at both ends of every
/// interval, materialises each new point's pre-activation, and activates
/// the merged batch in a separate pass.
#[cfg(test)]
mod oracle {
    use crate::transformer::{crosses, for_each_crossing, propagate, TransformerState};
    use crate::{SyrennError, TOL};
    use prdnn_nn::{ActivationKernel, FlatBatch, Layer, Network};

    struct ChainState {
        ts: Vec<f64>,
        vals: FlatBatch,
    }

    impl TransformerState for ChainState {
        fn process_layer(&mut self, layer: &Layer, kernel: &ActivationKernel) {
            if !layer.preactivation_is_identity() {
                self.vals = layer.preactivation_batch_flat(&self.vals);
            }
            if !kernel.is_affine() {
                self.split(kernel, layer.preactivation_dim());
            }
            self.vals = kernel.apply_batch(&self.vals);
        }
    }

    fn lerp(a: &[f64], b: &[f64], alpha: f64) -> Vec<f64> {
        a.iter().zip(b).map(|(x, y)| x + alpha * (y - x)).collect()
    }

    impl ChainState {
        fn split(&mut self, kernel: &ActivationKernel, width: usize) {
            let mut new_points: Vec<(usize, f64, Vec<f64>)> = Vec::new(); // (interval, t, z)
            let mut local: Vec<(f64, f64)> = Vec::new(); // (t, alpha) within one interval
            for i in 1..self.ts.len() {
                let (za, zb) = (self.vals.row(i - 1), self.vals.row(i));
                let (ta, tb) = (self.ts[i - 1], self.ts[i]);
                local.clear();
                for_each_crossing(kernel, width, |g| {
                    let (ga, gb) = (g.eval(za), g.eval(zb));
                    if crosses(ga, gb) {
                        let alpha = ga / (ga - gb);
                        let t = ta + alpha * (tb - ta);
                        if t > ta + TOL && t < tb - TOL {
                            local.push((t, alpha));
                        }
                    }
                });
                local.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                let mut last_t = f64::NEG_INFINITY;
                for &(t, alpha) in local.iter() {
                    if t - last_t > TOL {
                        last_t = t;
                        new_points.push((i, t, lerp(za, zb, alpha)));
                    }
                }
            }
            if new_points.is_empty() {
                return;
            }
            let count = self.ts.len() + new_points.len();
            let mut ts: Vec<f64> = Vec::with_capacity(count);
            let mut vals = FlatBatch::with_capacity(self.vals.dim(), count);
            let mut next = new_points.into_iter().peekable();
            for i in 0..self.ts.len() {
                while next.peek().is_some_and(|&(interval, _, _)| interval == i) {
                    let (_, t, z) = next.next().unwrap();
                    ts.push(t);
                    vals.push_row(&z);
                }
                ts.push(self.ts[i]);
                vals.push_row(self.vals.row(i));
            }
            self.ts = ts;
            self.vals = vals;
        }
    }

    /// [`super::exact_line`] through the oracle splitter (the caller has
    /// already rejected degenerate segments).
    pub(super) fn exact_line(
        net: &Network,
        start: &[f64],
        end: &[f64],
    ) -> Result<Vec<f64>, SyrennError> {
        let mut state = ChainState {
            ts: vec![0.0, 1.0],
            vals: FlatBatch::from_rows(net.input_dim(), &[start.to_vec(), end.to_vec()]),
        };
        propagate(net, &mut state)?;
        Ok(state.ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdnn_linalg::Matrix;
    use prdnn_nn::{Activation, Layer, Pool2dLayer};

    /// The paper's running example N1 (Figure 3a).
    fn paper_n1() -> Network {
        Network::new(vec![
            Layer::dense(
                Matrix::from_rows(&[vec![-1.0], vec![1.0], vec![1.0]]),
                vec![0.0, 0.0, -1.0],
                Activation::Relu,
            ),
            Layer::dense(
                Matrix::from_rows(&[vec![-1.0, -1.0, 1.0]]),
                vec![0.0],
                Activation::Identity,
            ),
        ])
    }

    #[test]
    fn n1_linear_regions_match_equation_1() {
        // Equation (1): LinRegions(N1, [-1, 2]) = {[-1, 0], [0, 1], [1, 2]}.
        let net = paper_n1();
        let ts = exact_line(&net, &[-1.0], &[2.0]).unwrap();
        // t parameterises [-1, 2], so breakpoints at x = 0 and x = 1 are at
        // t = 1/3 and t = 2/3.
        assert_eq!(ts.len(), 4);
        assert!((ts[1] - 1.0 / 3.0).abs() < 1e-9);
        assert!((ts[2] - 2.0 / 3.0).abs() < 1e-9);

        let regions = line_regions(&net, &[-1.0], &[2.0]).unwrap();
        assert_eq!(regions.len(), 3);
        assert!((regions[0].vertices[0][0] + 1.0).abs() < 1e-9);
        assert!((regions[0].vertices[1][0] - 0.0).abs() < 1e-9);
        assert!((regions[1].vertices[1][0] - 1.0).abs() < 1e-9);
        assert!((regions[2].vertices[1][0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn subsegment_of_one_region_is_not_subdivided() {
        let net = paper_n1();
        let ts = exact_line(&net, &[0.1], &[0.9]).unwrap();
        assert_eq!(ts, vec![0.0, 1.0]);
    }

    #[test]
    fn network_is_affine_within_each_region() {
        let net = paper_n1();
        let regions = line_regions(&net, &[-1.0], &[2.0]).unwrap();
        for region in regions {
            let a = &region.vertices[0];
            let b = &region.vertices[1];
            let fa = net.forward(a)[0];
            let fb = net.forward(b)[0];
            // Check the midpoint and quarter points are on the chord.
            for &alpha in &[0.25, 0.5, 0.75] {
                let p: Vec<f64> = a.iter().zip(b).map(|(x, y)| x + alpha * (y - x)).collect();
                let expected = fa + alpha * (fb - fa);
                assert!((net.forward(&p)[0] - expected).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn multi_dimensional_line_through_random_relu_net() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(21);
        let net = Network::mlp(&[4, 12, 12, 3], Activation::Relu, &mut rng);
        let start = vec![-1.0, 0.5, 2.0, -0.3];
        let end = vec![1.0, -0.5, -2.0, 0.3];
        let regions = line_regions(&net, &start, &end).unwrap();
        assert!(!regions.is_empty());
        // Exactness: in every region the function is affine along the segment.
        for region in &regions {
            let a = &region.vertices[0];
            let b = &region.vertices[1];
            let fa = net.forward(a);
            let fb = net.forward(b);
            let mid: Vec<f64> = a.iter().zip(b).map(|(x, y)| 0.5 * (x + y)).collect();
            let fmid = net.forward(&mid);
            for k in 0..fa.len() {
                assert!(
                    (fmid[k] - 0.5 * (fa[k] + fb[k])).abs() < 1e-7,
                    "region not affine"
                );
            }
        }
        // Regions tile the segment: consecutive regions share an endpoint.
        for w in regions.windows(2) {
            assert!(prdnn_linalg::approx_eq_slice(
                &w[0].vertices[1],
                &w[1].vertices[0],
                1e-9
            ));
        }
    }

    #[test]
    fn maxpool_crossings_are_found() {
        // 1 channel, 1x2 input, maxpool over the whole row: crossing when the
        // two inputs are equal.
        let net = Network::new(vec![Layer::MaxPool2d(Pool2dLayer {
            channels: 1,
            in_height: 1,
            in_width: 2,
            pool_h: 1,
            pool_w: 2,
            stride: 1,
        })]);
        // Along the segment (0, 1) -> (1, 0) the max switches at t = 0.5.
        let ts = exact_line(&net, &[0.0, 1.0], &[1.0, 0.0]).unwrap();
        assert_eq!(ts.len(), 3);
        assert!((ts[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn carried_values_produce_exact_subdivision_on_a_deep_net() {
        // The incremental pipeline locates crossings from *interpolated*
        // carried values; if any interpolation were off, some subdivision
        // point would drift and the function would no longer be affine on
        // the interval between adjacent points.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(77);
        let net = Network::mlp(&[3, 10, 10, 10, 2], Activation::Relu, &mut rng);
        let start = vec![-1.2, 0.7, 0.4];
        let end = vec![1.1, -0.9, -0.6];
        let ts = exact_line(&net, &start, &end).unwrap();
        assert!(
            ts.len() > 2,
            "a deep random net should subdivide the segment"
        );
        assert!(ts.windows(2).all(|w| w[0] < w[1]));
        let point = |t: f64| -> Vec<f64> {
            start
                .iter()
                .zip(&end)
                .map(|(s, e)| s + t * (e - s))
                .collect()
        };
        for w in ts.windows(2) {
            let fa = net.forward(&point(w[0]));
            let fb = net.forward(&point(w[1]));
            for &alpha in &[0.25, 0.5, 0.75] {
                let fmid = net.forward(&point(w[0] + alpha * (w[1] - w[0])));
                for k in 0..fa.len() {
                    let expected = fa[k] + alpha * (fb[k] - fa[k]);
                    assert!(
                        (fmid[k] - expected).abs() < 1e-7,
                        "not affine between t = {} and t = {}",
                        w[0],
                        w[1]
                    );
                }
            }
        }
    }

    /// `exact_line` and the oracle agree bit for bit on `ts`, and hence on
    /// every region's vertices and interior.
    fn assert_matches_oracle(net: &Network, start: &[f64], end: &[f64]) -> Vec<f64> {
        let ts = exact_line(net, start, end).unwrap();
        let want = oracle::exact_line(net, start, end).unwrap();
        let bits = |ts: &[f64]| ts.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&ts), bits(&want), "ts diverge from the oracle");
        let regions = line_regions(net, start, end).unwrap();
        let want = regions_of(start, end, &want);
        assert_eq!(regions.len(), want.len());
        for (got, want) in regions.iter().zip(&want) {
            let points = |r: &LinearRegion| {
                r.vertices
                    .iter()
                    .chain([&r.interior])
                    .flat_map(|p| bits(p))
                    .collect::<Vec<_>>()
            };
            assert_eq!(points(got), points(want), "regions diverge from the oracle");
        }
        ts
    }

    /// A random activation for a layer of [`random_net`].
    fn random_activation(rng: &mut impl rand::Rng) -> Activation {
        match rng.gen_range(0..4) {
            0 => Activation::Relu,
            1 => Activation::LeakyRelu {
                alpha: rng.gen_range(0.05..0.5),
            },
            2 => Activation::HardTanh,
            _ => Activation::Identity,
        }
    }

    /// A small random PWL network on 2×4×4 inputs: a 3×3 conv with three
    /// filters; a 2×2 max pool (six pairs per window), a 2×2 average pool
    /// or neither; a dense layer of six units; optionally a max pool over
    /// those units as a 2×3 map with two overlapping 2×2 windows; and a
    /// dense read-out.  Activations are drawn from ReLU, LeakyReLU,
    /// HardTanh and Identity.
    ///
    /// With `twins`, filter 1 copies filter 0 and dense unit 1 copies unit
    /// 0 up to a bias offset far below `TOL`, so their crossings coincide
    /// and the `TOL` dedupe runs.  Filter 0's bias is its activation's
    /// first breakpoint, so the all-zero input lies exactly on that
    /// crossing (side 0), and every pooling window of the conv output is a
    /// tie there.
    fn random_net(seed: u64, twins: bool) -> Network {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut values = |n: usize, scale: f64| -> Vec<f64> {
            (0..n).map(|_| rng.gen_range(-scale..scale)).collect()
        };
        let (mut weights, mut bias) = (values(3 * 2 * 9, 1.2), values(3, 0.5));
        let mut dense_w = values(6 * 12, 1.2);
        let mut dense_b = values(6, 0.5);
        let read_w = values(2 * 6, 1.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xac7);
        let conv_act = random_activation(&mut rng);
        let dense_act = random_activation(&mut rng);
        let (pool_kind, top_pool) = (rng.gen_range(0..3), rng.gen_bool(0.5));
        if let Some(&threshold) = conv_act.breakpoints().unwrap().first() {
            bias[0] = threshold;
        }
        if twins {
            weights.copy_within(0..18, 18);
            bias[1] = bias[0];
            dense_w.copy_within(0..12, 12);
            dense_b[1] = dense_b[0] + 1e-13;
        }
        let pool = Pool2dLayer {
            channels: 3,
            in_height: 4,
            in_width: 4,
            pool_h: 2,
            pool_w: 2,
            stride: 2,
        };
        let mut layers = vec![Layer::Conv2d(prdnn_nn::Conv2dLayer {
            in_channels: 2,
            in_height: 4,
            in_width: 4,
            out_channels: 3,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
            weights,
            bias,
            activation: conv_act,
        })];
        let dense_in = match pool_kind {
            0 => {
                layers.push(Layer::MaxPool2d(pool));
                12
            }
            1 => {
                layers.push(Layer::AvgPool2d(pool));
                12
            }
            _ => 48,
        };
        dense_w.resize(6 * dense_in, 0.3);
        layers.push(Layer::dense(
            Matrix::from_fn(6, dense_in, |r, c| dense_w[r * dense_in + c]),
            dense_b,
            dense_act,
        ));
        let read_in = if top_pool {
            layers.push(Layer::MaxPool2d(Pool2dLayer {
                channels: 1,
                in_height: 2,
                in_width: 3,
                pool_h: 2,
                pool_w: 2,
                stride: 1,
            }));
            2
        } else {
            6
        };
        layers.push(Layer::dense(
            Matrix::from_fn(2, read_in, |r, c| read_w[r * 6 + c]),
            vec![0.0, 0.1],
            Activation::Identity,
        ));
        Network::new(layers)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(160))]

        #[test]
        fn exact_line_matches_the_oracle_bit_for_bit(
            seed in 0u64..1_000_000,
            twins in proptest::prop_oneof![proptest::prelude::Just(false), proptest::prelude::Just(true)],
            from_zero in proptest::prop_oneof![proptest::prelude::Just(false), proptest::prelude::Just(true)],
            coords in proptest::prop::collection::vec(-2.0..2.0f64, 64),
        ) {
            let net = random_net(seed, twins);
            let (mut start, end) = (coords[..32].to_vec(), &coords[32..]);
            if from_zero {
                start.fill(0.0);
            }
            proptest::prop_assume!(start.iter().zip(end).any(|(s, e)| (s - e).abs() > 1e-6));
            assert_matches_oracle(&net, &start, end);
        }
    }

    #[test]
    fn ties_and_starts_on_a_crossing_match_the_oracle() {
        // Two ReLU units with one kink at x = 0, the second offset far
        // below TOL: their crossings coincide and the dedupe keeps one.
        let twins = Network::new(vec![
            Layer::dense(
                Matrix::from_rows(&[vec![1.0], vec![1.0], vec![-1.0]]),
                vec![0.0, 1e-13, 0.5],
                Activation::Relu,
            ),
            Layer::dense(
                Matrix::from_rows(&[vec![1.0, -2.0, 1.0]]),
                vec![0.0],
                Activation::Identity,
            ),
        ]);
        let ts = assert_matches_oracle(&twins, &[-1.0], &[1.0]);
        assert_eq!(ts.len(), 4, "{ts:?}");
        assert!((ts[1] - 0.5).abs() < TOL && ts[2] == 0.75, "{ts:?}");
        // A segment starting exactly on the kinks: side 0 there, so the
        // start interval holds no crossing of those units.
        let ts = assert_matches_oracle(&twins, &[0.0], &[1.0]);
        assert_eq!(ts, vec![0.0, 0.5, 1.0]);
        // The same for a max-pool window whose four entries tie at the
        // start: every one of its six pairs is on side 0 there.
        let ties = Network::new(vec![
            Layer::dense(
                Matrix::from_rows(&[vec![1.0], vec![2.0], vec![-1.0], vec![0.5]]),
                vec![0.0; 4],
                Activation::Identity,
            ),
            Layer::MaxPool2d(Pool2dLayer {
                channels: 1,
                in_height: 2,
                in_width: 2,
                pool_h: 2,
                pool_w: 2,
                stride: 1,
            }),
        ]);
        let ts = assert_matches_oracle(&ties, &[0.0], &[1.0]);
        assert_eq!(ts, vec![0.0, 1.0]);
        let ts = assert_matches_oracle(&ties, &[-1.0], &[1.0]);
        assert_eq!(ts, vec![0.0, 0.5, 1.0]);
        // A steep crossing 5e-13 past an existing point is strictly
        // inside its interval, but within TOL of the point, so it is
        // dropped.
        let near = Network::new(vec![
            Layer::dense(
                Matrix::from_rows(&[vec![1.0], vec![1.0]]),
                vec![0.0, 2.0],
                Activation::Relu,
            ),
            Layer::dense(
                Matrix::from_rows(&[vec![0.0, 1e6]]),
                vec![-1e6 * (2.0 + 1e-12)],
                Activation::Relu,
            ),
        ]);
        let ts = assert_matches_oracle(&near, &[-1.0], &[1.0]);
        assert_eq!(ts, vec![0.0, 0.5, 1.0]);
        // A unit that changes sign inside the ±TOL band is on side 0 at
        // both ends, so it never splits.
        let flat = Network::new(vec![Layer::dense(
            Matrix::from_rows(&[vec![1e-9]]),
            vec![0.0],
            Activation::Relu,
        )]);
        let ts = assert_matches_oracle(&flat, &[0.5], &[-0.5]);
        assert_eq!(ts, vec![0.0, 1.0]);
    }

    #[test]
    fn smooth_network_is_rejected() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let net = Network::mlp(&[2, 4, 2], Activation::Tanh, &mut rng);
        assert_eq!(
            exact_line(&net, &[0.0, 0.0], &[1.0, 1.0]).unwrap_err(),
            SyrennError::NotPiecewiseLinear
        );
    }

    #[test]
    fn degenerate_segment_is_rejected() {
        let net = paper_n1();
        assert_eq!(
            exact_line(&net, &[0.5], &[0.5]).unwrap_err(),
            SyrennError::DegenerateInput
        );
    }
}
