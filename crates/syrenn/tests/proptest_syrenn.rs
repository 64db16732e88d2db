//! Property-based equivalence tests for the incremental transformer
//! pipeline.
//!
//! The incremental `line_regions` / `plane_regions` carry vertex values
//! forward layer by layer; the straightforward reference implementations
//! below instead recompute the network prefix from scratch for every vertex
//! at every layer (the pre-refactor algorithm).  On random small
//! ReLU/MaxPool networks the two must produce equivalent region sets: the
//! same number of regions, matching subdivision points, exact affinity of
//! the network inside each region, and a union that covers the input
//! polytope's vertices.

use prdnn_nn::{Activation, ActivationKernel, Layer, Network, Pool2dLayer};
use prdnn_syrenn::{exact_line, plane_regions, LinearRegion};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TOL: f64 = 1e-9;

/// Reference ExactLine: recomputes the prefix pre-activation from the input
/// for every subdivision point at every layer (the pre-refactor algorithm).
fn ref_exact_line(net: &Network, start: &[f64], end: &[f64]) -> Vec<f64> {
    let prefix_preact = |t: f64, layer: usize| -> Vec<f64> {
        let mut v: Vec<f64> = start
            .iter()
            .zip(end)
            .map(|(s, e)| s + t * (e - s))
            .collect();
        for l in 0..layer {
            v = net.layer(l).forward(&v);
        }
        net.layer(layer).preactivation(&v)
    };
    let mut ts: Vec<f64> = vec![0.0, 1.0];
    for layer_idx in 0..net.num_layers() {
        let kernel = net.layer(layer_idx).activation_kernel();
        if kernel.is_affine() {
            continue;
        }
        let zs: Vec<Vec<f64>> = ts.iter().map(|&t| prefix_preact(t, layer_idx)).collect();
        let mut new_ts: Vec<f64> = Vec::new();
        for i in 0..ts.len() - 1 {
            let (ta, tb) = (ts[i], ts[i + 1]);
            let (za, zb) = (&zs[i], &zs[i + 1]);
            let mut push_crossing = |ga: f64, gb: f64| {
                if (ga > TOL && gb < -TOL) || (ga < -TOL && gb > TOL) {
                    let alpha = ga / (ga - gb);
                    let t = ta + alpha * (tb - ta);
                    if t > ta + TOL && t < tb - TOL {
                        new_ts.push(t);
                    }
                }
            };
            match &kernel {
                ActivationKernel::Elementwise(activation) => {
                    for unit in 0..za.len() {
                        for &thr in activation.breakpoints().unwrap() {
                            push_crossing(za[unit] - thr, zb[unit] - thr);
                        }
                    }
                }
                ActivationKernel::Max(windows) => {
                    for w in windows.iter() {
                        for (pos, &i) in w.iter().enumerate() {
                            for &j in &w[pos + 1..] {
                                push_crossing(za[i] - za[j], zb[i] - zb[j]);
                            }
                        }
                    }
                }
                ActivationKernel::Average(_) => unreachable!(),
            }
        }
        ts.extend(new_ts);
        ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        ts.dedup_by(|a, b| (*a - *b).abs() <= TOL);
    }
    ts
}

/// Reference plane restriction: successive polygon splitting with the prefix
/// pre-activation recomputed at every vertex of every piece (the
/// pre-refactor algorithm).
type Polygon = Vec<Vec<f64>>;
type CrossingFn = Box<dyn Fn(&[f64]) -> f64>;

fn ref_plane_regions(net: &Network, vertices: &[Vec<f64>]) -> Vec<Polygon> {
    let prefix_preact = |point: &[f64], layer: usize| -> Vec<f64> {
        let mut v = point.to_vec();
        for l in 0..layer {
            v = net.layer(l).forward(&v);
        }
        net.layer(layer).preactivation(&v)
    };
    fn non_degenerate(mut polygon: Polygon) -> Option<Polygon> {
        polygon.dedup_by(|a, b| prdnn_linalg::linf_distance(a, b) <= TOL);
        if polygon.len() > 1
            && prdnn_linalg::linf_distance(&polygon[0], polygon.last().unwrap()) <= TOL
        {
            polygon.pop();
        }
        if polygon.len() >= 3 {
            Some(polygon)
        } else {
            None
        }
    }
    fn split(polygon: &[Vec<f64>], values: &[f64]) -> (Option<Polygon>, Option<Polygon>) {
        if values.iter().all(|&v| v >= -TOL) {
            return (Some(polygon.to_vec()), None);
        }
        if values.iter().all(|&v| v <= TOL) {
            return (None, Some(polygon.to_vec()));
        }
        let n = polygon.len();
        let (mut positive, mut negative) = (Vec::new(), Vec::new());
        for i in 0..n {
            let j = (i + 1) % n;
            let (gi, gj) = (values[i], values[j]);
            if gi >= -TOL {
                positive.push(polygon[i].clone());
            }
            if gi <= TOL {
                negative.push(polygon[i].clone());
            }
            if (gi > TOL && gj < -TOL) || (gi < -TOL && gj > TOL) {
                let alpha = gi / (gi - gj);
                let crossing: Vec<f64> = polygon[i]
                    .iter()
                    .zip(&polygon[j])
                    .map(|(a, b)| a + alpha * (b - a))
                    .collect();
                positive.push(crossing.clone());
                negative.push(crossing);
            }
        }
        (non_degenerate(positive), non_degenerate(negative))
    }

    let mut polygons: Vec<Polygon> = vec![vertices.to_vec()];
    for layer_idx in 0..net.num_layers() {
        let kernel = net.layer(layer_idx).activation_kernel();
        if kernel.is_affine() {
            continue;
        }
        let mut crossings: Vec<CrossingFn> = Vec::new();
        match &kernel {
            ActivationKernel::Elementwise(activation) => {
                for unit in 0..net.layer(layer_idx).preactivation_dim() {
                    for &thr in activation.breakpoints().unwrap() {
                        crossings.push(Box::new(move |z: &[f64]| z[unit] - thr));
                    }
                }
            }
            ActivationKernel::Max(windows) => {
                for w in windows.iter() {
                    for (pos, &i) in w.iter().enumerate() {
                        for &j in &w[pos + 1..] {
                            crossings.push(Box::new(move |z: &[f64]| z[i] - z[j]));
                        }
                    }
                }
            }
            ActivationKernel::Average(_) => unreachable!(),
        }
        for g in &crossings {
            let mut next: Vec<Polygon> = Vec::with_capacity(polygons.len());
            for polygon in polygons {
                let values: Vec<f64> = polygon
                    .iter()
                    .map(|v| g(&prefix_preact(v, layer_idx)))
                    .collect();
                let (pos, neg) = split(&polygon, &values);
                next.extend([pos, neg].into_iter().flatten());
            }
            polygons = next;
        }
    }
    polygons
}

/// A random PWL network: dense ReLU layers, optionally with a max-pool
/// layer spliced in the middle.
fn random_pwl_net(seed: u64, input_dim: usize, with_pool: bool) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    if with_pool {
        let mut weights = |rows: usize, cols: usize| {
            prdnn_linalg::Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
        };
        Network::new(vec![
            Layer::dense(
                weights(4, input_dim),
                vec![0.1, -0.2, 0.0, 0.3],
                Activation::Relu,
            ),
            Layer::MaxPool2d(Pool2dLayer {
                channels: 1,
                in_height: 1,
                in_width: 4,
                pool_h: 1,
                pool_w: 2,
                stride: 2,
            }),
            Layer::dense(weights(2, 2), vec![0.0, 0.0], Activation::Identity),
        ])
    } else {
        Network::mlp(&[input_dim, 6, 5, 2], Activation::Relu, &mut rng)
    }
}

/// Asserts the network is affine on a region by comparing the mean of the
/// vertex outputs with the output at the vertex centroid.
fn assert_region_affine(net: &Network, region: &LinearRegion) {
    let k = region.vertices.len() as f64;
    let mut mean = vec![0.0; net.output_dim()];
    for v in &region.vertices {
        for (m, o) in mean.iter_mut().zip(net.forward(v)) {
            *m += o / k;
        }
    }
    let centroid = net.forward(&region.interior);
    for (a, b) in mean.iter().zip(&centroid) {
        assert!((a - b).abs() < 1e-7, "network is not affine on the region");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn incremental_exact_line_matches_reference(
        seed in 0u64..10_000,
        with_pool in prop_oneof![Just(false), Just(true)],
        coords in prop::collection::vec(-1.5..1.5f64, 6),
    ) {
        let net = random_pwl_net(seed, 3, with_pool);
        let (start, end) = (&coords[..3], &coords[3..]);
        prop_assume!(start.iter().zip(end).any(|(s, e)| (s - e).abs() > 1e-6));
        let incremental = exact_line(&net, start, end).unwrap();
        let reference = ref_exact_line(&net, start, end);
        prop_assert_eq!(
            incremental.len(),
            reference.len(),
            "different subdivision size: {:?} vs {:?}",
            &incremental,
            &reference
        );
        for (a, b) in incremental.iter().zip(&reference) {
            prop_assert!((a - b).abs() < 1e-7, "subdivision points diverge: {} vs {}", a, b);
        }
        // The subdivision covers the whole segment.
        prop_assert_eq!(incremental[0], 0.0);
        prop_assert_eq!(*incremental.last().unwrap(), 1.0);
    }

    #[test]
    fn incremental_plane_regions_match_reference(
        seed in 0u64..10_000,
        with_pool in prop_oneof![Just(false), Just(true)],
        radius in 0.5..1.5f64,
    ) {
        let net = random_pwl_net(seed, 2, with_pool);
        let square = vec![
            vec![-radius, -radius],
            vec![radius, -radius],
            vec![radius, radius],
            vec![-radius, radius],
        ];
        let regions = plane_regions(&net, &square).unwrap();
        let reference = ref_plane_regions(&net, &square);
        // Same partition size as the straightforward implementation.
        prop_assert_eq!(regions.len(), reference.len());
        // The network is affine on every returned region.
        for region in &regions {
            assert_region_affine(&net, region);
        }
        // The union of the regions covers the input polygon: every input
        // vertex reappears as a vertex of some region.
        for corner in &square {
            prop_assert!(
                regions.iter().any(|r| r
                    .vertices
                    .iter()
                    .any(|v| prdnn_linalg::linf_distance(v, corner) < 1e-7)),
                "input vertex {:?} not covered",
                corner
            );
        }
        // Total vertex mass matches the reference subdivision as well.
        let total: usize = regions.iter().map(LinearRegion::num_vertices).sum();
        let ref_total: usize = reference.iter().map(Vec::len).sum();
        prop_assert_eq!(total, ref_total);
    }
}
