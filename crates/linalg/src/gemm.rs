//! Cache-blocked, register-tiled f64 matrix kernels.
//!
//! This module owns **the** inner loops of the repository: every dense
//! dot / matrix-vector / matrix-matrix product in the repair pipeline
//! (forward passes, DDNN Jacobians, SyReNN pre-activations, LP pricing)
//! funnels into [`dot`], [`gemv`], [`gemm_nn`] or [`gemm_nt`], so there is
//! exactly one place to optimise and one summation order to reason about.
//!
//! # Blocking scheme
//!
//! The blocked path is a small GotoBLAS/BLIS-style kernel:
//!
//! * the output is tiled into fixed `MR × NR` register tiles
//!   (4 × 8 doubles = 8 AVX2 accumulator vectors),
//! * for each tile, an `MR`-row panel of `A` and an `NR`-column panel of
//!   `B` are **packed** into contiguous, zero-padded buffers laid out
//!   k-major, so the micro-kernel reads both operands with unit stride and
//!   the compiler auto-vectorises the `NR`-wide update,
//! * `B` panels are packed once per `NC`-column block and reused by every
//!   row panel, which is what makes one packed weight tile serve a whole
//!   key-point batch.
//!
//! There is deliberately **no blocking in the k dimension**: every output
//! element is accumulated in a single register chain over `k = 0..K` in
//! ascending order.  That makes the blocked kernels **bit-identical** to
//! the naive triple loop ([`gemm_naive`]), to the row-at-a-time [`gemv`],
//! and to the scalar [`dot`] — parallel/batched paths can switch between
//! them freely without changing a single f64 bit.  The price is that `A`
//! row panels are streamed at full depth (`MR × K` doubles, ~8 KiB for
//! K = 256), comfortably L1-resident for every network in this repo.
//!
//! Padding note: partial edge tiles are zero-padded at *pack* time so the
//! micro-kernel is always full-size.  Padded lanes are never stored, and
//! a padded `+= 0.0 * x` cannot flip a stored lane because it only touches
//! unstored accumulator rows/columns.
//!
//! Zero-sized dimensions are legal: `k = 0` yields the zero matrix (every
//! chain is empty), and `m = 0` or `n = 0` an empty one.

/// Register-tile rows (rows of `C` updated per micro-kernel call).
const MR: usize = 4;
/// Register-tile columns (columns of `C` updated per micro-kernel call).
const NR: usize = 8;
/// Columns of `B` packed per outer block (bounds the packed-B buffer).
const NC: usize = 512;
/// Below this many multiply-adds the packing setup costs more than it
/// saves and the kernels fall through to the naive loop (same bits).
const BLOCK_THRESHOLD: usize = 16 * 1024;

/// The scalar inner loop: `sum_k a[k] * b[k]`, accumulated in ascending
/// `k` order (no FMA, no reassociation — the summation order is the
/// contract every other kernel in this module preserves).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot of mismatched lengths");
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// Matrix-vector product `y = A x` for row-major `A` (`m × k`).
///
/// Rows are processed four at a time so one streaming pass over `x`
/// feeds four accumulator chains; each chain is an ascending-`k` [`dot`],
/// so the result is bit-identical to calling [`dot`] per row.
pub fn gemv(m: usize, k: usize, a: &[f64], x: &[f64], y: &mut [f64]) {
    assert_eq!(a.len(), m * k, "gemv: A shape mismatch");
    assert_eq!(x.len(), k, "gemv: x length mismatch");
    assert_eq!(y.len(), m, "gemv: y length mismatch");
    if k == 0 {
        y.fill(0.0);
        return;
    }
    let mut rows = a.chunks_exact(4 * k);
    let mut out = y.chunks_exact_mut(4);
    for (quad, ys) in (&mut rows).zip(&mut out) {
        let (r0, rest) = quad.split_at(k);
        let (r1, rest) = rest.split_at(k);
        let (r2, r3) = rest.split_at(k);
        let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
        for i in 0..k {
            let xi = x[i];
            a0 += r0[i] * xi;
            a1 += r1[i] * xi;
            a2 += r2[i] * xi;
            a3 += r3[i] * xi;
        }
        ys[0] = a0;
        ys[1] = a1;
        ys[2] = a2;
        ys[3] = a3;
    }
    for (row, yr) in rows.remainder().chunks_exact(k).zip(out.into_remainder()) {
        *yr = dot(row, x);
    }
}

/// Reference oracle: the naive triple loop (`i, k, j` order — the
/// cache-friendly form the repo used before blocking), accumulating each
/// output element in ascending `k`.  `C[m × n] = A[m × k] · B[k × n]`,
/// all row-major; `C` is overwritten.
pub fn gemm_naive(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), m * k, "gemm: A shape mismatch");
    assert_eq!(b.len(), k * n, "gemm: B shape mismatch");
    assert_eq!(c.len(), m * n, "gemm: C shape mismatch");
    c.fill(0.0);
    if k == 0 || n == 0 {
        return;
    }
    for (row_a, row_c) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
        for (aik, row_b) in row_a.iter().zip(b.chunks_exact(n)) {
            for (cij, bkj) in row_c.iter_mut().zip(row_b) {
                *cij += aik * bkj;
            }
        }
    }
}

/// `C[m × n] = A[m × k] · B[k × n]`, all row-major, `C` overwritten.
/// Bit-identical to [`gemm_naive`] at every size.
pub fn gemm_nn(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), m * k, "gemm: A shape mismatch");
    assert_eq!(b.len(), k * n, "gemm: B shape mismatch");
    assert_eq!(c.len(), m * n, "gemm: C shape mismatch");
    if m * k * n < BLOCK_THRESHOLD {
        // Also the zero-dimension path: the naive loop zero-fills `C`.
        gemm_naive(m, k, n, a, b, c);
    } else {
        gemm_blocked(m, k, n, a, c, |kk, j| b[kk * n + j]);
    }
}

/// `C[m × n] = A[m × k] · Bᵀ` where `B` is row-major `n × k` — the
/// batch-major forward-pass shape (`X · Wᵀ` with `W` stored out×in).
/// Bit-identical to the corresponding [`gemm_nn`] on an explicitly
/// transposed `B`; packing reads `B`'s rows contiguously instead.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f64], bt: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), m * k, "gemm: A shape mismatch");
    assert_eq!(bt.len(), n * k, "gemm: Bᵀ shape mismatch");
    assert_eq!(c.len(), m * n, "gemm: C shape mismatch");
    if k == 0 || n == 0 {
        c.fill(0.0);
    } else if m * k * n < BLOCK_THRESHOLD {
        // Naive path, reading B transposed: each element is an
        // ascending-k dot of an A row with a B row.
        for (row_a, row_c) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
            for (cij, row_b) in row_c.iter_mut().zip(bt.chunks_exact(k)) {
                *cij = dot(row_a, row_b);
            }
        }
    } else {
        gemm_blocked(m, k, n, a, c, |kk, j| bt[j * k + kk]);
    }
}

/// The shared blocked driver: `b_at(k, j)` abstracts `B`'s layout (it is
/// only called at pack time, so the micro-kernel itself always reads
/// contiguous packed panels).
///
/// On x86-64 the whole driver is compiled twice more with AVX-512F / AVX2
/// enabled and dispatched on runtime CPUID detection (`std` caches the
/// probe).  The wider builds only change the *vector width* the compiler
/// may use for the independent per-lane accumulator chains; FMA
/// contraction is never enabled, so all three versions — and therefore
/// all CPUs — produce bit-identical output.
fn gemm_blocked(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    c: &mut [f64],
    b_at: impl Fn(usize, usize) -> f64,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx512f") {
            // SAFETY: feature presence checked on this CPU at runtime.
            return unsafe { gemm_blocked_avx512(m, k, n, a, c, b_at) };
        }
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: feature presence checked on this CPU at runtime.
            return unsafe { gemm_blocked_avx2(m, k, n, a, c, b_at) };
        }
    }
    gemm_blocked_impl(m, k, n, a, c, b_at);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_blocked_avx512(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    c: &mut [f64],
    b_at: impl Fn(usize, usize) -> f64,
) {
    gemm_blocked_impl(m, k, n, a, c, b_at);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_blocked_avx2(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    c: &mut [f64],
    b_at: impl Fn(usize, usize) -> f64,
) {
    gemm_blocked_impl(m, k, n, a, c, b_at);
}

#[inline(always)]
fn gemm_blocked_impl(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    c: &mut [f64],
    b_at: impl Fn(usize, usize) -> f64,
) {
    // Packed A row panel: k-major, MR values per k, zero-padded.
    let mut a_panel = vec![0.0; k * MR];
    // Packed B block: NC/NR panels, each k-major with NR values per k.
    let mut b_pack = vec![0.0; k * NC.min(n.next_multiple_of(NR))];

    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let num_panels = nc.div_ceil(NR);
        // Pack B[:, jc..jc+nc] once; it is reused by every row panel.
        for q in 0..num_panels {
            let j0 = jc + q * NR;
            let nr = NR.min(n - j0);
            let panel = &mut b_pack[q * k * NR..(q + 1) * k * NR];
            for kk in 0..k {
                for j in 0..NR {
                    panel[kk * NR + j] = if j < nr { b_at(kk, j0 + j) } else { 0.0 };
                }
            }
        }

        let mut i0 = 0;
        while i0 < m {
            let mr = MR.min(m - i0);
            // Pack A rows [i0, i0+mr) k-major with zero padding.
            for kk in 0..k {
                for r in 0..MR {
                    a_panel[kk * MR + r] = if r < mr { a[(i0 + r) * k + kk] } else { 0.0 };
                }
            }
            for q in 0..num_panels {
                let j0 = jc + q * NR;
                let nr = NR.min(n - j0);
                let panel = &b_pack[q * k * NR..(q + 1) * k * NR];
                let acc = micro_kernel(&a_panel, panel);
                for r in 0..mr {
                    let row = &mut c[(i0 + r) * n + j0..(i0 + r) * n + j0 + nr];
                    row.copy_from_slice(&acc[r][..nr]);
                }
            }
            i0 += MR;
        }
        jc += NC;
    }
}

/// The register tile: `MR × NR` accumulators, each a single ascending-`k`
/// chain.  Both panels are contiguous and k-major, so the `NR`-wide inner
/// update auto-vectorises without reassociating any chain.
///
/// `inline(always)` is load-bearing: the kernel must be compiled *inside*
/// the multiversioned drivers to pick up their AVX target features.
#[inline(always)]
fn micro_kernel(a_panel: &[f64], b_panel: &[f64]) -> [[f64; NR]; MR] {
    let mut acc = [[0.0; NR]; MR];
    for (av, bv) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        for r in 0..MR {
            let ar = av[r];
            for j in 0..NR {
                acc[r][j] += ar * bv[j];
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(seed: u64, len: usize) -> Vec<f64> {
        // Deterministic splitmix-style values in roughly [-1, 1].
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn blocked_nn_is_bit_identical_to_naive_across_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 17),
            (64, 256, 256), // forces the blocked path
            (33, 70, 129),
            (13, 600, 9),
        ] {
            let a = fill(m as u64 * 31 + n as u64, m * k);
            let b = fill(k as u64 * 17 + 1, k * n);
            let mut c_naive = vec![f64::NAN; m * n];
            let mut c_blocked = vec![f64::NAN; m * n];
            gemm_naive(m, k, n, &a, &b, &mut c_naive);
            gemm_nn(m, k, n, &a, &b, &mut c_blocked);
            assert!(
                c_naive
                    .iter()
                    .zip(&c_blocked)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "gemm_nn diverged from naive at ({m},{k},{n})"
            );
        }
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        for &(m, k, n) in &[(2, 3, 4), (7, 33, 19), (64, 256, 256)] {
            let a = fill(9, m * k);
            let bt = fill(11, n * k);
            let b: Vec<f64> = (0..k * n).map(|i| bt[(i % n) * k + i / n]).collect();
            let mut via_nn = vec![0.0; m * n];
            let mut via_nt = vec![0.0; m * n];
            gemm_nn(m, k, n, &a, &b, &mut via_nn);
            gemm_nt(m, k, n, &a, &bt, &mut via_nt);
            assert!(
                via_nn
                    .iter()
                    .zip(&via_nt)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "gemm_nt diverged at ({m},{k},{n})"
            );
        }
    }

    #[test]
    fn gemv_matches_per_row_dot() {
        for &(m, k) in &[(1, 1), (4, 16), (7, 33), (256, 256)] {
            let a = fill(5, m * k);
            let x = fill(6, k);
            let mut y = vec![0.0; m];
            gemv(m, k, &a, &x, &mut y);
            for r in 0..m {
                assert_eq!(y[r].to_bits(), dot(&a[r * k..(r + 1) * k], &x).to_bits());
            }
        }
    }
}
