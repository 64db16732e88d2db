//! 2-D plane restriction: `LinRegions(N, P)` for convex planar polygons.

use crate::transformer::{crosses, for_each_crossing, propagate, Crossing, TransformerState};
use crate::{LinearRegion, SyrennError, TOL};
use prdnn_linalg::linf_distance;
use prdnn_nn::{ActivationKernel, FlatBatch, Layer, Network};
use prdnn_par::arena::Arena;
use prdnn_par::ThreadPool;
use std::cell::RefCell;

/// One polygon piece of the subdivision: vertex geometry and per-vertex
/// carried values (the running network value / current-layer
/// pre-activation), both batch-major so each layer's affine map is one
/// GEMM per piece.
struct Piece {
    verts: FlatBatch,
    vals: FlatBatch,
}

/// A piece addressed into the splitting scratch arenas: `n` vertices whose
/// geometry rows start at `verts` and carried rows at `vals`.
#[derive(Clone, Copy)]
struct PieceRef {
    verts: usize,
    vals: usize,
    n: usize,
}

/// Per-worker scratch for splitting one piece through one layer: two bump
/// arenas holding vertex/value rows and the double-buffered piece worklist.
/// Reset at the start of every piece task; after the first few pieces the
/// splitter runs with zero allocator traffic.
#[derive(Default)]
struct Scratch {
    verts: Arena<f64>,
    vals: Arena<f64>,
    cur: Vec<PieceRef>,
    next: Vec<PieceRef>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Pipeline state for a plane restriction: the current set of polygon
/// pieces, fanned across `pool` at every layer.
struct PolygonState<'p> {
    pieces: Vec<Piece>,
    pool: &'p ThreadPool,
}

impl TransformerState for PolygonState<'_> {
    fn process_layer(&mut self, layer: &Layer, kernel: &ActivationKernel) {
        // Unlike the 1-D case, polygon pieces must be split one crossing
        // function at a time: a later crossing's zero set can cut the
        // sub-polygons created by an earlier one, so the splits compose
        // sequentially (values at created vertices are already carried).
        //
        // Splitting one piece never looks at another, so the composition is
        // applied *piece-major*: each input piece is pushed through the
        // whole layer — pre-activation, the layer's full crossing sequence,
        // activation — as one pool task, and the resulting sub-lists are
        // spliced back in input order.  The split order is exactly the
        // crossing-major order (splitting distributes over concatenation
        // and preserves it), so the output is bit-identical whether the
        // pieces are processed serially or in parallel — and the per-piece
        // double-buffered worklist touches two small local vectors instead
        // of reallocating the global piece list once per crossing function.
        let width = layer.preactivation_dim();
        let pieces = std::mem::take(&mut self.pieces);
        self.pieces = self
            .pool
            .par_map(pieces, |mut piece| {
                // Pooling pre-activations are the identity: the carried
                // values already are the pre-activation, so skip the copy.
                if !layer.preactivation_is_identity() {
                    piece.vals = layer.preactivation_batch_flat(&piece.vals);
                }
                let mut sub = split_piece_by_layer(piece, kernel, width);
                for piece in &mut sub {
                    piece.vals = kernel.apply_batch(&piece.vals);
                }
                sub
            })
            .into_iter()
            .flatten()
            .collect();
    }
}

/// Splits one piece by every crossing function of a layer in sequence,
/// returning its final sub-pieces in split order.
///
/// All intermediate vertex/value rows live in the worker's thread-local
/// scratch arenas: one-sided pieces are moved by copying a [`PieceRef`]
/// (O(1), no row copies), split sides are appended at the arena tail, and
/// degenerate sides are rolled back with a truncate.  The arenas are reset
/// per piece task, so steady-state splitting does no heap allocation.
fn split_piece_by_layer(piece: Piece, kernel: &ActivationKernel, width: usize) -> Vec<Piece> {
    if kernel.is_affine() {
        return vec![piece];
    }
    SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        let vd = piece.verts.dim();
        let wd = piece.vals.dim();
        s.verts.reset();
        s.vals.reset();
        s.cur.clear();
        s.next.clear();
        let verts = s.verts.extend_from_slice(piece.verts.as_slice());
        let vals = s.vals.extend_from_slice(piece.vals.as_slice());
        s.cur.push(PieceRef {
            verts,
            vals,
            n: piece.verts.count(),
        });
        for_each_crossing(kernel, width, |g| {
            s.next.clear();
            for i in 0..s.cur.len() {
                let p = s.cur[i];
                split_piece(&mut s.verts, &mut s.vals, vd, wd, p, g, &mut s.next);
            }
            std::mem::swap(&mut s.cur, &mut s.next);
        });
        s.cur
            .iter()
            .map(|p| Piece {
                verts: FlatBatch::from_flat(vd, s.verts.slice(p.verts, p.n * vd)),
                vals: FlatBatch::from_flat(wd, s.vals.slice(p.vals, p.n * wd)),
            })
            .collect()
    })
}

/// Splits one polygon piece by the zero set of `g` over its carried
/// pre-activations, pushing the non-degenerate sides onto `out`.
///
/// Crossing vertices interpolate both the polygon vertex and the carried
/// pre-activation — exact, because the network prefix is affine on the
/// closed piece.  Pieces that lie entirely on one side are moved, not
/// cloned (their [`PieceRef`] is forwarded unchanged).
fn split_piece(
    verts: &mut Arena<f64>,
    vals: &mut Arena<f64>,
    vd: usize,
    wd: usize,
    p: PieceRef,
    g: Crossing,
    out: &mut Vec<PieceRef>,
) {
    // Copy-free pre-pass: almost every (piece, crossing) pair lies entirely
    // on one side of the zero set, so decide that before materialising any
    // new rows.  `g.eval` is O(1) (it indexes at most two entries), so the
    // per-vertex crossing values are recomputed where needed rather than
    // stored.
    let mut strictly_positive = false;
    let mut strictly_negative = false;
    for r in 0..p.n {
        let v = g.eval(vals.slice(p.vals + r * wd, wd));
        strictly_positive |= v > TOL;
        strictly_negative |= v < -TOL;
        if strictly_positive && strictly_negative {
            break;
        }
    }
    if !(strictly_positive && strictly_negative) {
        out.push(p);
        return;
    }
    for positive in [true, false] {
        if let Some(side) = emit_side(verts, vals, vd, wd, p, g, positive) {
            out.push(side);
        }
    }
}

/// Materialises one side of a split at the arena tail, deduplicating
/// consecutive coincident vertices online (the same semantics as filtering
/// with `linf_distance ≤ TOL` afterwards, including the first-vs-last wrap
/// check).  Returns `None` — after rolling the arenas back — when the side
/// collapses to fewer than three distinct vertices.
fn emit_side(
    verts: &mut Arena<f64>,
    vals: &mut Arena<f64>,
    vd: usize,
    wd: usize,
    p: PieceRef,
    g: Crossing,
    positive: bool,
) -> Option<PieceRef> {
    let (vmark, zmark) = (verts.len(), vals.len());
    let mut n = 0usize;
    for i in 0..p.n {
        let j = (i + 1) % p.n;
        let gi = g.eval(vals.slice(p.vals + i * wd, wd));
        let gj = g.eval(vals.slice(p.vals + j * wd, wd));
        let keep = if positive { gi >= -TOL } else { gi <= TOL };
        if keep {
            let cand = verts.len();
            verts.extend_from_within(p.verts + i * vd, vd);
            if dedupe(verts, vd, n, cand) {
                vals.extend_from_within(p.vals + i * wd, wd);
                n += 1;
            }
        }
        // Edge crossing strictly between the two vertices.
        if crosses(gi, gj) {
            let alpha = gi / (gi - gj);
            let cand = verts.len();
            verts.push_lerp(p.verts + i * vd, p.verts + j * vd, vd, alpha);
            if dedupe(verts, vd, n, cand) {
                vals.push_lerp(p.vals + i * wd, p.vals + j * wd, wd, alpha);
                n += 1;
            }
        }
    }
    // Wrap-around: the polygon is cyclic, so a last vertex coincident with
    // the first is the same duplicate case as two consecutive vertices.
    if n > 1
        && linf_distance(
            verts.slice(vmark, vd),
            verts.slice(vmark + (n - 1) * vd, vd),
        ) <= TOL
    {
        n -= 1;
        verts.truncate(vmark + n * vd);
        vals.truncate(zmark + n * wd);
    }
    if n >= 3 {
        Some(PieceRef {
            verts: vmark,
            vals: zmark,
            n,
        })
    } else {
        verts.truncate(vmark);
        vals.truncate(zmark);
        None
    }
}

/// Keeps the candidate vertex row at `cand` if it is farther than `TOL`
/// from the previously kept row (the row immediately before it); rolls it
/// back and returns `false` otherwise.
fn dedupe(verts: &mut Arena<f64>, vd: usize, n: usize, cand: usize) -> bool {
    if n > 0 && linf_distance(verts.slice(cand - vd, vd), verts.slice(cand, vd)) <= TOL {
        verts.truncate(cand);
        false
    } else {
        true
    }
}

fn centroid(polygon: &FlatBatch) -> Vec<f64> {
    let mut c = vec![0.0; polygon.dim()];
    for v in polygon.rows() {
        for (ci, vi) in c.iter_mut().zip(v) {
            *ci += vi;
        }
    }
    for ci in c.iter_mut() {
        *ci /= polygon.count() as f64;
    }
    c
}

/// Computes `LinRegions(N, P)` where `P` is the convex polygon spanned by
/// `vertices` (listed in boundary order, all lying in one 2-D affine
/// subspace of the input space).
///
/// The polygon is successively split by the crossing hyperplanes of each
/// layer; within every returned region the network is affine, so its
/// vertices are exactly the key points Algorithm 2 needs (Theorem 6.4).
///
/// The pieces are carried through the network incrementally — each layer's
/// affine map is applied once per surviving vertex and crossing vertices
/// interpolate the carried values (see `transformer.rs`) — so the cost
/// is linear, not quadratic, in network depth.
///
/// # Errors
///
/// Returns [`SyrennError::NotPiecewiseLinear`] for smooth networks and
/// [`SyrennError::DegenerateInput`] if fewer than three vertices are given.
///
/// # Panics
///
/// Panics if any vertex has the wrong dimension.
pub fn plane_regions(
    net: &Network,
    vertices: &[Vec<f64>],
) -> Result<Vec<LinearRegion>, SyrennError> {
    plane_regions_in(prdnn_par::global(), net, vertices)
}

/// [`plane_regions`] on an explicit thread pool.
///
/// The polygon pieces are fanned across `pool` at every layer (the affine
/// maps and the crossing splits are applied per piece in parallel, results
/// spliced back in input order), so the returned subdivision is
/// **bit-identical** for every thread count; a pool of 1 thread runs the
/// guaranteed serial path.
///
/// # Errors
///
/// See [`plane_regions`].
///
/// # Panics
///
/// Panics if any vertex has the wrong dimension.
pub fn plane_regions_in(
    pool: &ThreadPool,
    net: &Network,
    vertices: &[Vec<f64>],
) -> Result<Vec<LinearRegion>, SyrennError> {
    if vertices.len() < 3 {
        return Err(SyrennError::DegenerateInput);
    }
    for v in vertices {
        assert_eq!(
            v.len(),
            net.input_dim(),
            "plane_regions: vertex dimension mismatch"
        );
    }
    if !net.is_piecewise_linear() {
        return Err(SyrennError::NotPiecewiseLinear);
    }

    let flat = FlatBatch::from_rows(net.input_dim(), vertices);
    let mut state = PolygonState {
        pieces: vec![Piece {
            verts: flat.clone(),
            vals: flat,
        }],
        pool,
    };
    propagate(net, &mut state)?;

    Ok(state
        .pieces
        .into_iter()
        .map(|piece| LinearRegion {
            interior: centroid(&piece.verts),
            vertices: piece.verts.to_rows(),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdnn_linalg::Matrix;
    use prdnn_nn::{Activation, Layer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn square() -> Vec<Vec<f64>> {
        vec![
            vec![-1.0, -1.0],
            vec![1.0, -1.0],
            vec![1.0, 1.0],
            vec![-1.0, 1.0],
        ]
    }

    #[test]
    fn affine_network_has_one_region() {
        let net = Network::new(vec![Layer::dense(
            Matrix::from_rows(&[vec![1.0, 2.0], vec![-1.0, 0.5]]),
            vec![0.3, -0.7],
            Activation::Identity,
        )]);
        let regions = plane_regions(&net, &square()).unwrap();
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].num_vertices(), 4);
    }

    #[test]
    fn single_relu_splits_square_in_two() {
        // z = x, ReLU: crossing at x = 0 splits the square into two halves.
        let net = Network::new(vec![
            Layer::dense(
                Matrix::from_rows(&[vec![1.0, 0.0]]),
                vec![0.0],
                Activation::Relu,
            ),
            Layer::dense(
                Matrix::from_rows(&[vec![1.0]]),
                vec![0.0],
                Activation::Identity,
            ),
        ]);
        let regions = plane_regions(&net, &square()).unwrap();
        assert_eq!(regions.len(), 2);
        let total_vertices: usize = regions.iter().map(LinearRegion::num_vertices).sum();
        assert_eq!(total_vertices, 8); // two quadrilaterals
    }

    #[test]
    fn two_relus_split_square_in_four() {
        // Units x and y: four quadrants.
        let net = Network::new(vec![
            Layer::dense(
                Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]),
                vec![0.0, 0.0],
                Activation::Relu,
            ),
            Layer::dense(
                Matrix::from_rows(&[vec![1.0, 1.0]]),
                vec![0.0],
                Activation::Identity,
            ),
        ]);
        let regions = plane_regions(&net, &square()).unwrap();
        assert_eq!(regions.len(), 4);
    }

    #[test]
    fn regions_are_affine_and_cover_centroids() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = Network::mlp(&[2, 10, 8, 3], Activation::Relu, &mut rng);
        let regions = plane_regions(&net, &square()).unwrap();
        assert!(!regions.is_empty());
        for region in &regions {
            // Affine within the region: f(centroid) == average of f(vertices)
            // weighted equally only holds for the centroid of the vertex set,
            // so check that instead via the affine-combination property.
            let k = region.vertices.len() as f64;
            let mean_output: Vec<f64> = {
                let mut acc = vec![0.0; net.output_dim()];
                for v in &region.vertices {
                    for (a, o) in acc.iter_mut().zip(net.forward(v)) {
                        *a += o / k;
                    }
                }
                acc
            };
            let centroid_output = net.forward(&region.interior);
            for (a, b) in mean_output.iter().zip(&centroid_output) {
                assert!((a - b).abs() < 1e-7, "region is not affine");
            }
        }
    }

    #[test]
    fn embedded_plane_in_higher_dimensional_input() {
        // A 2-D triangle embedded in a 4-D input space.
        let mut rng = StdRng::seed_from_u64(9);
        let net = Network::mlp(&[4, 8, 2], Activation::Relu, &mut rng);
        let triangle = vec![
            vec![0.0, 0.0, 1.0, -1.0],
            vec![2.0, 0.0, -1.0, 0.0],
            vec![0.0, 2.0, 0.0, 1.0],
        ];
        let regions = plane_regions(&net, &triangle).unwrap();
        assert!(!regions.is_empty());
        for region in &regions {
            assert!(region.num_vertices() >= 3);
            assert_eq!(region.interior.len(), 4);
        }
    }

    #[test]
    fn smooth_network_is_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = Network::mlp(&[2, 4, 2], Activation::Sigmoid, &mut rng);
        assert_eq!(
            plane_regions(&net, &square()).unwrap_err(),
            SyrennError::NotPiecewiseLinear
        );
    }

    #[test]
    fn too_few_vertices_rejected() {
        let net = Network::new(vec![Layer::dense(
            Matrix::identity(2),
            vec![0.0, 0.0],
            Activation::Relu,
        )]);
        assert_eq!(
            plane_regions(&net, &[vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap_err(),
            SyrennError::DegenerateInput
        );
    }

    #[test]
    fn pool_output_is_bit_identical_to_serial() {
        let mut rng = StdRng::seed_from_u64(123);
        let net = Network::mlp(&[2, 12, 10, 8, 3], Activation::Relu, &mut rng);
        let serial_pool = ThreadPool::new(1);
        let serial = plane_regions_in(&serial_pool, &net, &square()).unwrap();
        assert!(serial.len() > 4, "workload should actually subdivide");
        for threads in [2, 3, 4] {
            let pool = ThreadPool::new(threads);
            let parallel = plane_regions_in(&pool, &net, &square()).unwrap();
            // Exact equality: same pieces, same order, same f64 bits.
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn split_piece_basic() {
        // Carried "pre-activations" are the vertices themselves; split by x.
        let flat = FlatBatch::from_rows(2, &square());
        let mut verts = Arena::new();
        let mut vals = Arena::new();
        let vstart = verts.extend_from_slice(flat.as_slice());
        let zstart = vals.extend_from_slice(flat.as_slice());
        let piece = PieceRef {
            verts: vstart,
            vals: zstart,
            n: flat.count(),
        };
        let mut out = Vec::new();
        split_piece(
            &mut verts,
            &mut vals,
            2,
            2,
            piece,
            Crossing::Unit {
                unit: 0,
                threshold: 0.0,
            },
            &mut out,
        );
        assert_eq!(out.len(), 2);
        for side in &out {
            assert_eq!(side.n, 4);
        }
        // All positive-part vertices have x >= 0, negative-part x <= 0.
        for (side, check) in out.iter().zip([|x: f64| x >= -1e-9, |x: f64| x <= 1e-9]) {
            for r in 0..side.n {
                let vert = verts.slice(side.verts + r * 2, 2);
                let val = vals.slice(side.vals + r * 2, 2);
                assert!(check(vert[0]));
                // Carried values at crossing vertices are interpolated
                // consistently with the geometry (equal by construction).
                assert_eq!(vert, val);
            }
        }
    }

    #[test]
    fn emit_side_rolls_back_degenerate_sides() {
        // A triangle tangent to the crossing at one vertex: the positive
        // side is the whole triangle, the negative side collapses to a
        // single point and must be rolled back without leaking arena rows.
        let tri = FlatBatch::from_rows(2, &[vec![0.0, 0.0], vec![1.0, 0.5], vec![1.0, -0.5]]);
        let mut verts = Arena::new();
        let mut vals = Arena::new();
        let vstart = verts.extend_from_slice(tri.as_slice());
        let zstart = vals.extend_from_slice(tri.as_slice());
        let piece = PieceRef {
            verts: vstart,
            vals: zstart,
            n: 3,
        };
        let g = Crossing::Unit {
            unit: 0,
            threshold: 0.0,
        };
        let before = verts.len();
        assert!(emit_side(&mut verts, &mut vals, 2, 2, piece, g, false).is_none());
        assert_eq!(verts.len(), before, "degenerate side must be rolled back");
        let side = emit_side(&mut verts, &mut vals, 2, 2, piece, g, true).unwrap();
        assert_eq!(side.n, 3);
    }
}
