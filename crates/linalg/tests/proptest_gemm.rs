//! Differential properties of the blocked GEMM kernels against the naive
//! triple-loop oracle.
//!
//! The contract is stronger than "numerically close": because the blocked
//! kernels never block in `k` (every output element is one ascending-`k`
//! register chain), `gemm_nn`, `gemm_nt`, `gemv` and `dot` are **exactly
//! bit-identical** to `gemm_naive` at every shape — including the shapes
//! that cross the naive/blocked dispatch threshold and the ragged edge
//! tiles that exercise zero-padding.  No `≤1e-12`-style relative tolerance
//! is needed anywhere; these tests compare raw `f64::to_bits`.  Zero-sized
//! dimensions are legal shapes too: an empty inner dimension gives the zero
//! matrix.

use prdnn_linalg::{gemm, Matrix};
use proptest::prelude::*;

fn entries() -> impl Strategy<Value = f64> {
    // Exact zeros and mixed magnitudes: zeros exercise the ±0.0 edge the
    // old zero-skipping matmul used to take, magnitudes exercise rounding.
    prop_oneof![Just(0.0), -10.0..10.0f64, -1e6..1e6f64]
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Blocked `A·B` is bit-identical to the naive oracle, for shapes on
    /// both sides of the dispatch threshold (k up to 80 with m·n up to
    /// ~40·40 crosses it) and every edge-tile remainder mod MR/NR.
    #[test]
    fn gemm_nn_bits_equal_naive(
        m in 1usize..40,
        k in 1usize..80,
        n in 1usize..40,
        seed in prop::collection::vec(entries(), 40 * 80 + 80 * 40),
    ) {
        let a = &seed[..m * k];
        let b = &seed[seed.len() - k * n..];
        let mut c_naive = vec![f64::NAN; m * n];
        let mut c_blocked = vec![f64::NAN; m * n];
        gemm::gemm_naive(m, k, n, a, b, &mut c_naive);
        gemm::gemm_nn(m, k, n, a, b, &mut c_blocked);
        prop_assert!(bits_eq(&c_naive, &c_blocked), "({m},{k},{n})");
    }

    /// `A·Bᵀ` (the batch-major forward-pass shape) against the oracle on
    /// an explicitly transposed `B`.
    #[test]
    fn gemm_nt_bits_equal_naive_on_transpose(
        m in 1usize..40,
        k in 1usize..80,
        n in 1usize..40,
        seed in prop::collection::vec(entries(), 40 * 80 + 80 * 40),
    ) {
        let a = &seed[..m * k];
        let bt = &seed[seed.len() - n * k..];
        let b: Vec<f64> = (0..k * n).map(|i| bt[(i % n) * k + i / n]).collect();
        let mut c_naive = vec![f64::NAN; m * n];
        let mut c_nt = vec![f64::NAN; m * n];
        gemm::gemm_naive(m, k, n, a, &b, &mut c_naive);
        gemm::gemm_nt(m, k, n, a, bt, &mut c_nt);
        prop_assert!(bits_eq(&c_naive, &c_nt), "({m},{k},{n})");
    }

    /// Every entry point accepts a zero in any dimension: `k = 0` gives
    /// the `m × n` zero matrix (an empty sum), `m = 0` or `n = 0` an empty
    /// one.  One dimension is forced to 0 per case, the others drawn small.
    #[test]
    fn zero_dimensions_give_the_zero_matrix(
        zero_at in 0usize..3,
        dims in (0usize..9, 0usize..9, 0usize..9),
        seed in prop::collection::vec(entries(), 9 * 9),
    ) {
        let (mut m, mut k, mut n) = dims;
        match zero_at {
            0 => m = 0,
            1 => k = 0,
            _ => n = 0,
        }
        let a = &seed[..m * k];
        let b = &seed[seed.len() - k * n..];
        let zeros = vec![0.0; m * n];
        let mut c = vec![f64::NAN; m * n];
        gemm::gemm_naive(m, k, n, a, b, &mut c);
        prop_assert!(bits_eq(&c, &zeros), "naive ({m},{k},{n})");
        gemm::gemm_nn(m, k, n, a, b, &mut c);
        prop_assert!(bits_eq(&c, &zeros), "nn ({m},{k},{n})");
        gemm::gemm_nt(m, k, n, a, b, &mut c);
        prop_assert!(bits_eq(&c, &zeros), "nt ({m},{k},{n})");
        let product =
            Matrix::from_flat(m, k, a.to_vec()).matmul(&Matrix::from_flat(k, n, b.to_vec()));
        prop_assert!(bits_eq(product.as_slice(), &zeros), "matmul ({m},{k},{n})");
        if m == 0 || k == 0 {
            let mut y = vec![f64::NAN; m];
            gemm::gemv(m, k, a, &seed[..k], &mut y);
            prop_assert!(bits_eq(&y, &vec![0.0; m]), "gemv ({m},{k})");
        }
    }

    /// The four-row matvec kernel against a per-row scalar dot, and the
    /// kernel `dot` against the textbook fold it replaced.
    #[test]
    fn gemv_and_dot_bits_equal_reference(
        m in 1usize..50,
        k in 1usize..120,
        seed in prop::collection::vec(entries(), 50 * 120 + 120),
    ) {
        let a = &seed[..m * k];
        let x = &seed[seed.len() - k..];
        let mut y = vec![f64::NAN; m];
        gemm::gemv(m, k, a, x, &mut y);
        for r in 0..m {
            let row = &a[r * k..(r + 1) * k];
            let reference: f64 = row.iter().zip(x).map(|(p, q)| p * q).sum();
            prop_assert_eq!(y[r].to_bits(), reference.to_bits(), "row {}", r);
            prop_assert_eq!(gemm::dot(row, x).to_bits(), reference.to_bits());
        }
    }
}
