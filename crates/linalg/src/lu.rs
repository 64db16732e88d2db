//! LU factorisation with sparsity-exploiting solves: partial pivoting and a
//! Markowitz-ordered variant.
//!
//! The revised simplex keeps its basis matrix `B` factorised as
//! `P A Q = L U` (unit lower-triangular `L`, upper-triangular `U`, row
//! permutation `P`, column permutation `Q` — identity for plain partial
//! pivoting) so that the two linear systems of every pivot — FTRAN
//! (`B x = a`) and BTRAN (`Bᵀ y = c`) — cost triangular solves instead of a
//! fresh elimination.
//!
//! Simplex bases are overwhelmingly sparse (most basic columns are unit
//! slack columns), so after the dense elimination the factors are
//! *compressed*: `L` and `U` are stored as per-column and per-row non-zero
//! lists, and the solves are column-oriented with zero-skipping — a column
//! whose solution component is zero is never touched.  That makes each
//! solve `O(nnz reached)` rather than `O(n²)`, which is what turns the
//! revised simplex's per-pivot cost into "output-sensitive" work on the
//! block-sparse repair LPs.
//!
//! [`LuFactors::factorize`] picks pivots by magnitude alone (partial
//! pivoting: largest entry of the elimination column), which is numerically
//! safe but blind to fill-in.  [`LuFactors::factorize_markowitz`] instead
//! picks, among the tolerance-stable candidates of the active submatrix, the
//! entry minimising the Markowitz count `(r_i − 1)(c_j − 1)` (row non-zeros
//! × column non-zeros) — the classic fill-minimising order of production LP
//! factorisations.  On simplex bases the dominant effect is that unit slack
//! columns (column singletons, Markowitz count 0) are eliminated first with
//! *zero* fill, so the factor size tracks the structural block rather than
//! the whole basis.

use crate::Matrix;

/// Error returned when the matrix handed to [`LuFactors::factorize`] is
/// singular (or numerically indistinguishable from singular).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrixError {
    /// The elimination column at which no acceptable pivot was found.
    pub column: usize,
}

impl std::fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is singular: no pivot in elimination column {}",
            self.column
        )
    }
}

impl std::error::Error for SingularMatrixError {}

/// Pivots whose magnitude falls below this are treated as zero.
const PIVOT_TOL: f64 = 1e-12;

/// Markowitz stability threshold: a candidate pivot must be at least this
/// fraction of the largest magnitude in its elimination column.  The classic
/// compromise (Suhl & Suhl use 0.01–0.1): small enough to leave the pivot
/// search room to chase sparsity, large enough to keep element growth
/// bounded.
const MARKOWITZ_THRESHOLD: f64 = 0.1;

/// Upper bound on the number of stability-acceptable columns the Markowitz
/// search examines per elimination step before settling for the best found
/// (Suhl-style bounded search; keeps the search cost a small multiple of a
/// column scan).
const MARKOWITZ_SEARCH_COLS: usize = 8;

/// Count-bucketed lists of the active columns for the Markowitz pivot
/// search: `buckets[c]` holds the active column indices whose active
/// non-zero count is exactly `c`, and `pos[j]` is column `j`'s slot in its
/// bucket.  Membership moves are O(1) swap-removes, so the per-step tier
/// walk touches only the columns that actually live in a tier — an empty
/// tier costs one `is_empty` check instead of a full O(n) column rescan.
struct ColumnBuckets {
    buckets: Vec<Vec<usize>>,
    pos: Vec<usize>,
}

impl ColumnBuckets {
    /// Builds the buckets from the initial column counts (counts never
    /// exceed `n`, the number of rows).
    fn new(col_count: &[usize]) -> Self {
        let n = col_count.len();
        let mut buckets = vec![Vec::new(); n + 1];
        let mut pos = vec![usize::MAX; n];
        for (j, &c) in col_count.iter().enumerate() {
            pos[j] = buckets[c].len();
            buckets[c].push(j);
        }
        ColumnBuckets { buckets, pos }
    }

    /// The columns currently in tier `count`.
    fn tier(&self, count: usize) -> &[usize] {
        &self.buckets[count]
    }

    /// Removes column `j` from tier `count` (its current count).
    fn remove(&mut self, j: usize, count: usize) {
        let bucket = &mut self.buckets[count];
        let p = self.pos[j];
        debug_assert_eq!(bucket[p], j, "bucket bookkeeping out of sync");
        let last = bucket.pop().expect("removing from an empty bucket");
        if last != j {
            bucket[p] = last;
            self.pos[last] = p;
        }
        self.pos[j] = usize::MAX;
    }

    /// Inserts column `j` into tier `count`.
    fn insert(&mut self, j: usize, count: usize) {
        self.pos[j] = self.buckets[count].len();
        self.buckets[count].push(j);
    }

    /// Moves column `j` from tier `from` to tier `to`.
    fn update(&mut self, j: usize, from: usize, to: usize) {
        self.remove(j, from);
        self.insert(j, to);
    }
}

/// A triangular factor compressed by both columns and rows (strict part
/// only; diagonals are stored separately or implied), in flat CSR/CSC-style
/// arrays so a refactorisation costs a handful of allocations, not `O(n)`.
#[derive(Debug, Clone, Default)]
struct SparseTriangle {
    col_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    col_val: Vec<f64>,
    row_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    row_val: Vec<f64>,
}

impl SparseTriangle {
    fn with_capacity(n: usize, nnz: usize) -> Self {
        SparseTriangle {
            col_ptr: vec![0usize; n + 1],
            col_idx: vec![0usize; nnz],
            col_val: vec![0.0f64; nnz],
            row_ptr: vec![0usize; n + 1],
            row_idx: vec![0usize; nnz],
            row_val: vec![0.0f64; nnz],
        }
    }

    /// Extracts both strict triangles (and `U`'s diagonal) from the
    /// eliminated working buffer in two fused passes over the matrix —
    /// refactorisation runs once per few dozen simplex pivots, so the pack
    /// cost is on the hot path (the per-triangle `from_dense` would scan
    /// the buffer four times instead).
    fn split_dense(n: usize, dense: &[f64]) -> (Self, Self, Vec<f64>) {
        // Pass 1: count the strict-lower and strict-upper non-zeros per
        // row and column.
        let mut l = SparseTriangle::with_capacity(n, 0);
        let mut u = SparseTriangle::with_capacity(n, 0);
        for i in 0..n {
            let row = &dense[i * n..(i + 1) * n];
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 && j != i {
                    let t = if j < i { &mut l } else { &mut u };
                    t.col_ptr[j + 1] += 1;
                    t.row_ptr[i + 1] += 1;
                }
            }
        }
        for t in [&mut l, &mut u] {
            for k in 0..n {
                t.col_ptr[k + 1] += t.col_ptr[k];
                t.row_ptr[k + 1] += t.row_ptr[k];
            }
            let nnz = t.col_ptr[n];
            t.col_idx = vec![0usize; nnz];
            t.col_val = vec![0.0f64; nnz];
            t.row_idx = vec![0usize; nnz];
            t.row_val = vec![0.0f64; nnz];
        }
        // Pass 2: fill.  Row-major iteration appends in index order within
        // each column and row.
        let mut u_diag = vec![0.0f64; n];
        let mut l_col_fill = l.col_ptr.clone();
        let mut u_col_fill = u.col_ptr.clone();
        let (mut l_row_fill, mut u_row_fill) = (0usize, 0usize);
        for i in 0..n {
            let row = &dense[i * n..(i + 1) * n];
            for (j, &v) in row.iter().enumerate() {
                if j == i {
                    u_diag[i] = v;
                } else if v != 0.0 {
                    let (t, col_fill, row_fill) = if j < i {
                        (&mut l, &mut l_col_fill, &mut l_row_fill)
                    } else {
                        (&mut u, &mut u_col_fill, &mut u_row_fill)
                    };
                    let c = col_fill[j];
                    col_fill[j] += 1;
                    t.col_idx[c] = i;
                    t.col_val[c] = v;
                    t.row_idx[*row_fill] = j;
                    t.row_val[*row_fill] = v;
                    *row_fill += 1;
                }
            }
        }
        (l, u, u_diag)
    }

    #[cfg(test)]
    fn from_dense(n: usize, dense: &[f64], lower: bool) -> Self {
        let strict_span = |i: usize| if lower { 0..i } else { i + 1..n };
        // First scan: counts -> prefix sums.
        let mut col_ptr = vec![0usize; n + 1];
        let mut row_ptr = vec![0usize; n + 1];
        let mut nnz = 0usize;
        for i in 0..n {
            for j in strict_span(i) {
                if dense[i * n + j] != 0.0 {
                    col_ptr[j + 1] += 1;
                    row_ptr[i + 1] += 1;
                    nnz += 1;
                }
            }
        }
        for k in 0..n {
            col_ptr[k + 1] += col_ptr[k];
            row_ptr[k + 1] += row_ptr[k];
        }
        // Second scan: fill.  Row-major iteration appends in index order
        // within each column and row.
        let mut col_fill = col_ptr.clone();
        let mut col_idx = vec![0usize; nnz];
        let mut col_val = vec![0.0f64; nnz];
        let mut row_idx = vec![0usize; nnz];
        let mut row_val = vec![0.0f64; nnz];
        let mut row_fill = 0usize;
        for i in 0..n {
            for j in strict_span(i) {
                let v = dense[i * n + j];
                if v != 0.0 {
                    let c = col_fill[j];
                    col_fill[j] += 1;
                    col_idx[c] = i;
                    col_val[c] = v;
                    row_idx[row_fill] = j;
                    row_val[row_fill] = v;
                    row_fill += 1;
                }
            }
        }
        SparseTriangle {
            col_ptr,
            col_idx,
            col_val,
            row_ptr,
            row_idx,
            row_val,
        }
    }

    /// Subtracts `scale ×` column `j` (strict part) from `x`.
    #[inline]
    fn axpy_col(&self, j: usize, scale: f64, x: &mut [f64]) {
        for k in self.col_ptr[j]..self.col_ptr[j + 1] {
            x[self.col_idx[k]] -= self.col_val[k] * scale;
        }
    }

    /// Subtracts `scale ×` row `j` (strict part, read as a column of the
    /// transpose) from `x`.
    #[inline]
    fn axpy_row(&self, j: usize, scale: f64, x: &mut [f64]) {
        for k in self.row_ptr[j]..self.row_ptr[j + 1] {
            x[self.row_idx[k]] -= self.row_val[k] * scale;
        }
    }
}

/// A packed LU factorisation `P A Q = L U` of a square matrix.
///
/// The permutations are stored as the sequences of swaps performed during
/// elimination, LAPACK `ipiv`-style (`jpiv` is the identity for partial
/// pivoting and carries the Markowitz column order otherwise); the
/// triangular factors are kept as strict-part non-zero lists plus `U`'s
/// diagonal.
///
/// # Example
///
/// ```
/// use prdnn_linalg::{LuFactors, Matrix};
///
/// let a = Matrix::from_rows(&[vec![0.0, 2.0], vec![3.0, 1.0]]);
/// let lu = LuFactors::factorize_matrix(&a).unwrap();
/// let x = lu.solve(&[4.0, 5.0]);
/// assert!((a.matvec(&x)[0] - 4.0).abs() < 1e-12);
/// assert!((a.matvec(&x)[1] - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    /// Strict lower factor `L` (unit diagonal implied).
    l: SparseTriangle,
    /// Strict upper part of `U`.
    u: SparseTriangle,
    /// Diagonal of `U`.
    u_diag: Vec<f64>,
    /// `ipiv[k]` is the row swapped with row `k` at elimination step `k`.
    ipiv: Vec<usize>,
    /// `jpiv[k]` is the column swapped with column `k` at elimination step
    /// `k` (the identity permutation under partial pivoting).
    jpiv: Vec<usize>,
}

impl LuFactors {
    /// Factorises the `n × n` row-major matrix `a`.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if some elimination column has no
    /// pivot above the tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n * n`.
    pub fn factorize(n: usize, a: &[f64]) -> Result<Self, SingularMatrixError> {
        assert_eq!(a.len(), n * n, "factorize: buffer is not n×n");
        let mut lu = a.to_vec();
        let mut ipiv = vec![0usize; n];
        for k in 0..n {
            // Partial pivoting: bring the largest remaining entry of column
            // k onto the diagonal.
            let mut p = k;
            let mut best = lu[k * n + k].abs();
            for i in k + 1..n {
                let v = lu[i * n + k].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best <= PIVOT_TOL {
                return Err(SingularMatrixError { column: k });
            }
            ipiv[k] = p;
            if p != k {
                for j in 0..n {
                    lu.swap(k * n + j, p * n + j);
                }
            }
            let inv = 1.0 / lu[k * n + k];
            for i in k + 1..n {
                let l = lu[i * n + k] * inv;
                if l != 0.0 {
                    lu[i * n + k] = l;
                    for j in k + 1..n {
                        lu[i * n + j] -= l * lu[k * n + j];
                    }
                }
            }
        }
        let jpiv: Vec<usize> = (0..n).collect();
        Ok(Self::pack(n, lu, ipiv, jpiv))
    }

    /// Compresses the eliminated working buffer into the packed factors.
    fn pack(n: usize, lu: Vec<f64>, ipiv: Vec<usize>, jpiv: Vec<usize>) -> Self {
        let (l, u, u_diag) = SparseTriangle::split_dense(n, &lu);
        LuFactors {
            n,
            l,
            u,
            u_diag,
            ipiv,
            jpiv,
        }
    }

    /// Factorises the `n × n` row-major matrix `a` with Markowitz-ordered
    /// pivoting: at each elimination step, among the candidates whose
    /// magnitude is at least `MARKOWITZ_THRESHOLD` of their column's
    /// largest active entry, pick the one minimising the Markowitz count
    /// `(r_i − 1)(c_j − 1)`, breaking ties by larger magnitude and then by
    /// smaller indices (deterministic).  Both a row and a column permutation
    /// are recorded; the factor storage and the solve paths are shared with
    /// the partial-pivoting variant.
    ///
    /// Row/column non-zero counts of the active submatrix are maintained
    /// incrementally through the elimination, and the per-step search
    /// examines columns in increasing-count tiers with an early exit once no
    /// later tier can beat the best count found, so on the mostly-unit
    /// bases of the revised simplex the whole factorisation stays close to
    /// `O(n + nnz)` — unit columns are count-0 pivots found in the first
    /// tier and eliminated with zero fill.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if some elimination step finds no
    /// pivot above the tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n * n`.
    pub fn factorize_markowitz(n: usize, a: &[f64]) -> Result<Self, SingularMatrixError> {
        assert_eq!(a.len(), n * n, "factorize_markowitz: buffer is not n×n");
        let mut lu = a.to_vec();
        let mut ipiv = vec![0usize; n];
        let mut jpiv = vec![0usize; n];
        // Non-zero counts of the *active* submatrix (rows/cols ≥ current k).
        let mut row_count = vec![0usize; n];
        let mut col_count = vec![0usize; n];
        for i in 0..n {
            for j in 0..n {
                if lu[i * n + j] != 0.0 {
                    row_count[i] += 1;
                    col_count[j] += 1;
                }
            }
        }
        let mut buckets = ColumnBuckets::new(&col_count);
        for k in 0..n {
            // ---- Pivot search: columns in increasing-count tiers, read
            // straight off the count buckets (an empty tier costs O(1)
            // instead of the former O(n) rescan of every column).
            // best = (markowitz_cost, |value|, row, col)
            let mut best: Option<(usize, f64, usize, usize)> = None;
            let mut examined_cols = 0usize;
            'tiers: for c in 1..=(n - k) {
                if let Some((cost, ..)) = best {
                    // A column with count c yields cost ≥ (c − 1)·(r − 1)
                    // with r ≥ 1; only the (c − 1)² lower bound is usable
                    // once every row of the tier could still be a singleton,
                    // so the conventional tier cut-off is (c − 1)².
                    if cost <= (c - 1) * (c - 1) {
                        break;
                    }
                }
                for idx in 0..buckets.tier(c).len() {
                    let j = buckets.tier(c)[idx];
                    // One pass for the column max, one for the candidates.
                    let mut col_max = 0.0f64;
                    for i in k..n {
                        col_max = col_max.max(lu[i * n + j].abs());
                    }
                    if col_max <= PIVOT_TOL {
                        continue;
                    }
                    let accept = (MARKOWITZ_THRESHOLD * col_max).max(PIVOT_TOL);
                    let mut found_candidate = false;
                    for i in k..n {
                        let v = lu[i * n + j].abs();
                        if v < accept {
                            continue;
                        }
                        found_candidate = true;
                        let cost = (row_count[i] - 1) * (c - 1);
                        let better = match best {
                            None => true,
                            Some((bc, bv, bi, bj)) => {
                                cost < bc
                                    || (cost == bc && v > bv)
                                    || (cost == bc && v == bv && (j, i) < (bj, bi))
                            }
                        };
                        if better {
                            best = Some((cost, v, i, j));
                        }
                    }
                    if found_candidate {
                        examined_cols += 1;
                        if best.is_some_and(|(cost, ..)| cost == 0)
                            || examined_cols >= MARKOWITZ_SEARCH_COLS
                        {
                            break 'tiers;
                        }
                    }
                }
            }
            let Some((_, _, p, q)) = best else {
                return Err(SingularMatrixError { column: k });
            };
            // ---- Swap the pivot into place (rows p↔k, columns q↔k), with
            // the counts following their rows/columns.  The pivot column
            // leaves the buckets (it is eliminated); if a column swap
            // happens, the column displaced from position k re-registers
            // under its (unchanged) count at its new index q.
            ipiv[k] = p;
            if p != k {
                for j in 0..n {
                    lu.swap(k * n + j, p * n + j);
                }
                row_count.swap(k, p);
            }
            jpiv[k] = q;
            buckets.remove(q, col_count[q]);
            if q != k {
                buckets.remove(k, col_count[k]);
                for i in 0..n {
                    lu.swap(i * n + k, i * n + q);
                }
                col_count.swap(k, q);
                buckets.insert(q, col_count[q]);
            }
            // ---- Retire the pivot row and column from the active counts.
            for j in k + 1..n {
                if lu[k * n + j] != 0.0 {
                    buckets.update(j, col_count[j], col_count[j] - 1);
                    col_count[j] -= 1;
                }
            }
            for i in k + 1..n {
                if lu[i * n + k] != 0.0 {
                    row_count[i] -= 1;
                }
            }
            // ---- Eliminate, tracking fill-in / cancellation.
            let inv = 1.0 / lu[k * n + k];
            for i in k + 1..n {
                let l = lu[i * n + k] * inv;
                if l != 0.0 {
                    lu[i * n + k] = l;
                    for j in k + 1..n {
                        let ukj = lu[k * n + j];
                        if ukj == 0.0 {
                            continue;
                        }
                        let old = lu[i * n + j];
                        let new = old - l * ukj;
                        if old == 0.0 && new != 0.0 {
                            row_count[i] += 1;
                            buckets.update(j, col_count[j], col_count[j] + 1);
                            col_count[j] += 1;
                        } else if old != 0.0 && new == 0.0 {
                            row_count[i] -= 1;
                            buckets.update(j, col_count[j], col_count[j] - 1);
                            col_count[j] -= 1;
                        }
                        lu[i * n + j] = new;
                    }
                }
            }
        }
        Ok(Self::pack(n, lu, ipiv, jpiv))
    }

    /// Factorises a square [`Matrix`].
    ///
    /// # Errors
    ///
    /// See [`LuFactors::factorize`].
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn factorize_matrix(a: &Matrix) -> Result<Self, SingularMatrixError> {
        assert_eq!(a.rows(), a.cols(), "factorize_matrix: matrix not square");
        Self::factorize(a.rows(), a.as_slice())
    }

    /// The dimension `n` of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored factor entries (`L` strict + `U` strict + `U`'s
    /// diagonal) — the fill-in measure the Markowitz ordering minimises.
    pub fn nnz(&self) -> usize {
        self.l.col_idx.len() + self.u.col_idx.len() + self.n
    }

    /// Solves `A x = b` in place: on entry `x` holds `b`, on exit the
    /// solution.
    ///
    /// Column-oriented with zero-skipping: the cost is proportional to the
    /// factor entries reachable from `b`'s non-zeros, not to `n²`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn solve_in_place(&self, x: &mut [f64]) {
        let n = self.n;
        assert_eq!(x.len(), n, "solve_in_place: wrong vector length");
        // Apply the row permutation: x := P b.
        for k in 0..n {
            let p = self.ipiv[k];
            if p != k {
                x.swap(k, p);
            }
        }
        // Forward substitution with unit-diagonal L, column by column.
        for j in 0..n {
            let xj = x[j];
            if xj != 0.0 {
                self.l.axpy_col(j, xj, x);
            }
        }
        // Back substitution with U, column by column.
        for j in (0..n).rev() {
            let xj = x[j];
            if xj != 0.0 {
                let xj = xj / self.u_diag[j];
                x[j] = xj;
                self.u.axpy_col(j, xj, x);
            }
        }
        // Undo the column permutation: x := Q z (reverse swap order).
        for k in (0..n).rev() {
            let q = self.jpiv[k];
            if q != k {
                x.swap(k, q);
            }
        }
    }

    /// Solves `Aᵀ y = c` in place: on entry `x` holds `c`, on exit the
    /// solution.
    ///
    /// With `P A Q = L U` we have `Aᵀ = Q Uᵀ Lᵀ P`, so the solve applies
    /// `Qᵀ`, a forward substitution with `Uᵀ` (driven by `U`'s rows), a back
    /// substitution with `Lᵀ` (driven by `L`'s rows), and the inverse row
    /// permutation.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn solve_transpose_in_place(&self, x: &mut [f64]) {
        let n = self.n;
        assert_eq!(x.len(), n, "solve_transpose_in_place: wrong vector length");
        // Apply the column permutation: x := Qᵀ c (forward swap order).
        for k in 0..n {
            let q = self.jpiv[k];
            if q != k {
                x.swap(k, q);
            }
        }
        // Forward substitution with Uᵀ (lower-triangular with U's diagonal):
        // column j of Uᵀ is row j of U.
        for j in 0..n {
            // An exact zero stays zero (0 / diag = 0) and spreads nothing.
            let xj = x[j];
            if xj != 0.0 {
                let xj = xj / self.u_diag[j];
                x[j] = xj;
                self.u.axpy_row(j, xj, x);
            }
        }
        // Back substitution with Lᵀ (unit-diagonal upper-triangular):
        // column j of Lᵀ is row j of L.
        for j in (0..n).rev() {
            let xj = x[j];
            if xj != 0.0 {
                self.l.axpy_row(j, xj, x);
            }
        }
        // Undo the permutation: y := Pᵀ x.
        for k in (0..n).rev() {
            let p = self.ipiv[k];
            if p != k {
                x.swap(k, p);
            }
        }
    }

    /// Solves `A x = b`, returning a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// Solves `Aᵀ y = c`, returning a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `c.len() != self.dim()`.
    pub fn solve_transpose(&self, c: &[f64]) -> Vec<f64> {
        let mut y = c.to_vec();
        self.solve_transpose_in_place(&mut y);
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        a.matvec(x)
            .iter()
            .zip(b)
            .map(|(l, r)| (l - r).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn factorize_and_solve_small_system() {
        let a = Matrix::from_rows(&[
            vec![2.0, 1.0, 1.0],
            vec![4.0, -6.0, 0.0],
            vec![-2.0, 7.0, 2.0],
        ]);
        let lu = LuFactors::factorize_matrix(&a).unwrap();
        let b = vec![5.0, -2.0, 9.0];
        let x = lu.solve(&b);
        assert!(residual(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn solve_needs_row_exchanges() {
        // Zero on the leading diagonal forces a pivot swap.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let lu = LuFactors::factorize_matrix(&a).unwrap();
        assert_eq!(lu.solve(&[3.0, 4.0]), vec![4.0, 3.0]);
    }

    #[test]
    fn transpose_solve_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[
            vec![1.0, 2.0, 0.0],
            vec![0.0, 3.0, 4.0],
            vec![5.0, 0.0, 6.0],
        ]);
        let lu = LuFactors::factorize_matrix(&a).unwrap();
        let c = vec![1.0, -2.0, 0.5];
        let y = lu.solve_transpose(&c);
        let at = a.transpose();
        assert!(residual(&at, &y, &c) < 1e-12);
    }

    #[test]
    fn random_dense_systems_round_trip() {
        // Deterministic pseudo-random matrix; checks both solve directions.
        let n = 12;
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let a = Matrix::from_fn(n, n, |_, _| next());
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let lu = LuFactors::factorize_matrix(&a).unwrap();
        assert!(residual(&a, &lu.solve(&b), &b) < 1e-9);
        assert!(residual(&a.transpose(), &lu.solve_transpose(&b), &b) < 1e-9);
    }

    #[test]
    fn sparse_simplex_basis_round_trips() {
        // The shape that matters: a mostly-unit basis with a few structural
        // columns scattered in, solved against sparse right-hand sides.
        let n = 16;
        let mut a = Matrix::identity(n);
        a[(3, 5)] = 2.0;
        a[(9, 5)] = -1.0;
        a[(5, 5)] = 0.5;
        a[(12, 2)] = 4.0;
        a[(2, 2)] = 0.0; // forces a pivot exchange on column 2 ...
        a[(2, 12)] = 1.0; // ... while row 2 keeps a pivot partner
        a[(0, 2)] = 1.0;
        let lu = LuFactors::factorize_matrix(&a).unwrap();
        let mut b = vec![0.0; n];
        b[5] = 3.0;
        b[2] = -1.0;
        assert!(residual(&a, &lu.solve(&b), &b) < 1e-12);
        assert!(residual(&a.transpose(), &lu.solve_transpose(&b), &b) < 1e-12);
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        let err = LuFactors::factorize_matrix(&a).unwrap_err();
        assert_eq!(err.column, 1);
        assert!(err.to_string().contains("singular"));
    }

    #[test]
    fn markowitz_solves_match_partial_pivoting() {
        // Dense deterministic system: both orderings must solve it, in both
        // directions, to the same answer.
        let n = 10;
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let a = Matrix::from_fn(n, n, |_, _| next());
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let pp = LuFactors::factorize_matrix(&a).unwrap();
        let mk = LuFactors::factorize_markowitz(n, a.as_slice()).unwrap();
        assert!(residual(&a, &mk.solve(&b), &b) < 1e-9);
        assert!(residual(&a.transpose(), &mk.solve_transpose(&b), &b) < 1e-9);
        for (x, y) in pp.solve(&b).iter().zip(mk.solve(&b)) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn markowitz_prefers_sparse_pivots_on_arrowhead() {
        // The classic fill-in example: an arrowhead matrix with the dense
        // row/column first.  Partial pivoting pivots on the dense corner and
        // fills the whole matrix; Markowitz eliminates the sparse tail first
        // and produces no fill at all.
        let n = 12;
        let mut a = Matrix::identity(n);
        for k in 1..n {
            a[(0, k)] = 1.0;
            a[(k, 0)] = 1.0;
        }
        a[(0, 0)] = 4.0; // keep the matrix nonsingular and well-conditioned
        let pp = LuFactors::factorize_matrix(&a).unwrap();
        let mk = LuFactors::factorize_markowitz(n, a.as_slice()).unwrap();
        assert!(
            mk.nnz() < pp.nnz(),
            "markowitz fill {} not below partial-pivoting fill {}",
            mk.nnz(),
            pp.nnz()
        );
        // And it still solves the system.
        let b: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
        assert!(residual(&a, &mk.solve(&b), &b) < 1e-9);
        assert!(residual(&a.transpose(), &mk.solve_transpose(&b), &b) < 1e-9);
    }

    #[test]
    fn markowitz_simplex_basis_round_trips() {
        // Mostly-unit basis with structural columns scattered in — the
        // revised simplex shape.  Unit columns are Markowitz count 0 and
        // must be pivoted without fill.
        let n = 16;
        let mut a = Matrix::identity(n);
        a[(3, 5)] = 2.0;
        a[(9, 5)] = -1.0;
        a[(5, 5)] = 0.5;
        a[(12, 2)] = 4.0;
        a[(2, 2)] = 0.0;
        a[(2, 12)] = 1.0;
        a[(0, 2)] = 1.0;
        let mk = LuFactors::factorize_markowitz(n, a.as_slice()).unwrap();
        let mut b = vec![0.0; n];
        b[5] = 3.0;
        b[2] = -1.0;
        assert!(residual(&a, &mk.solve(&b), &b) < 1e-12);
        assert!(residual(&a.transpose(), &mk.solve_transpose(&b), &b) < 1e-12);
    }

    #[test]
    fn markowitz_rejects_singular_matrices() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(LuFactors::factorize_markowitz(2, a.as_slice()).is_err());
        let zero = vec![0.0; 9];
        let err = LuFactors::factorize_markowitz(3, &zero).unwrap_err();
        assert_eq!(err.column, 0);
    }

    #[test]
    fn split_dense_matches_per_triangle_extraction() {
        // The fused two-pass pack must agree exactly with the reference
        // single-triangle extraction on an asymmetric pattern.
        let n = 6;
        let mut dense = vec![0.0; n * n];
        let entries = [
            (0usize, 0usize, 2.0),
            (1, 0, -1.0),
            (3, 0, 0.5),
            (1, 1, 3.0),
            (0, 2, 4.0),
            (2, 2, 1.0),
            (5, 2, -2.0),
            (2, 4, 7.0),
            (3, 3, -1.5),
            (4, 4, 2.5),
            (5, 5, 1.0),
            (4, 5, 6.0),
        ];
        for (i, j, v) in entries {
            dense[i * n + j] = v;
        }
        let (l, u, u_diag) = SparseTriangle::split_dense(n, &dense);
        let l_ref = SparseTriangle::from_dense(n, &dense, true);
        let u_ref = SparseTriangle::from_dense(n, &dense, false);
        for (got, want) in [(&l, &l_ref), (&u, &u_ref)] {
            assert_eq!(got.col_ptr, want.col_ptr);
            assert_eq!(got.col_idx, want.col_idx);
            assert_eq!(got.col_val, want.col_val);
            assert_eq!(got.row_ptr, want.row_ptr);
            assert_eq!(got.row_idx, want.row_idx);
            assert_eq!(got.row_val, want.row_val);
        }
        let want_diag: Vec<f64> = (0..n).map(|i| dense[i * n + i]).collect();
        assert_eq!(u_diag, want_diag);
    }

    #[test]
    fn identity_factorisation_is_trivial() {
        let lu = LuFactors::factorize_matrix(&Matrix::identity(4)).unwrap();
        assert_eq!(lu.dim(), 4);
        let b = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(lu.solve(&b), b);
        assert_eq!(lu.solve_transpose(&b), b);
    }
}
