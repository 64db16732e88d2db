//! Compressed sparse representations of standard-form constraint matrices.
//!
//! The repair LPs this crate exists for are *wide and block-sparse*: one
//! block of rows per key point, each touching only the parameters of the
//! output coordinates its constraint mentions, plus a singleton slack
//! column.  Storing those rows densely (as `StandardForm` does) makes every
//! simplex pivot pay for the zeros.  This module provides the CSR rows the
//! standard-form conversion writes directly from the (already sparse)
//! modelling constraints — the only layout the dual simplex reads — and the
//! CSC view the primal revised simplex prices columns from.

use crate::simplex::StandardForm;

/// A sparse matrix in compressed-sparse-row form.
///
/// Row `i`'s entries are `indices[indptr[i]..indptr[i+1]]` (column ids,
/// strictly increasing) with values `values[..]` at the same positions.
#[derive(Debug, Clone)]
pub(crate) struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Wraps finished CSR arrays: `indptr` has one entry per row plus one,
    /// and each row's column ids strictly increase.
    pub(crate) fn from_parts(
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(indptr.last(), Some(&indices.len()));
        debug_assert_eq!(indices.len(), values.len());
        debug_assert!(indptr
            .windows(2)
            .all(|w| indices[w[0]..w[1]].windows(2).all(|p| p[0] < p[1])));
        debug_assert!(indices.iter().all(|&j| j < ncols));
        CsrMatrix {
            nrows: indptr.len() - 1,
            ncols,
            indptr,
            indices,
            values,
        }
    }

    /// Builds a CSR matrix from per-row `(column, value)` lists.
    ///
    /// Entries within a row may be unsorted and may repeat (repeats are
    /// summed, matching [`crate::LpProblem::add_constraint`]); exact zeros
    /// are dropped.
    ///
    /// # Panics
    ///
    /// Panics if any column index is `>= ncols`.
    #[cfg(test)]
    pub(crate) fn from_rows(ncols: usize, rows: &[Vec<(usize, f64)>]) -> Self {
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for row in rows {
            scratch.clear();
            scratch.extend_from_slice(row);
            scratch.sort_unstable_by_key(|&(j, _)| j);
            let mut k = 0;
            while k < scratch.len() {
                let (j, mut v) = scratch[k];
                assert!(j < ncols, "column index {j} out of range (ncols {ncols})");
                k += 1;
                while k < scratch.len() && scratch[k].0 == j {
                    v += scratch[k].1;
                    k += 1;
                }
                if v != 0.0 {
                    indices.push(j);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            nrows: rows.len(),
            ncols,
            indptr,
            indices,
            values,
        }
    }

    /// Appends one row, its column ids strictly increasing, after widening
    /// the matrix to `ncols` columns; no existing column id changes.
    pub(crate) fn push_row(&mut self, ncols: usize, entries: &[(usize, f64)]) {
        debug_assert!(ncols >= self.ncols);
        debug_assert!(entries.windows(2).all(|p| p[0].0 < p[1].0));
        debug_assert!(entries.last().is_none_or(|&(j, _)| j < ncols));
        self.ncols = ncols;
        self.nrows += 1;
        for &(j, v) in entries {
            self.indices.push(j);
            self.values.push(v);
        }
        self.indptr.push(self.indices.len());
    }

    pub(crate) fn nrows(&self) -> usize {
        self.nrows
    }

    pub(crate) fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored (non-zero) entries.
    pub(crate) fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Row `i` as parallel `(column ids, values)` slices.
    pub(crate) fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let span = self.indptr[i]..self.indptr[i + 1];
        (&self.indices[span.clone()], &self.values[span])
    }

    /// The entry at row `i`, column `j` (zero when none is stored).
    pub(crate) fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        cols.binary_search(&j).map_or(0.0, |k| vals[k])
    }

    /// Column `j` as `(row, value)` entries in ascending row order, looked
    /// up row by row (a binary search per row).
    pub(crate) fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        (0..self.nrows).filter_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.binary_search(&j).ok().map(|k| (i, vals[k]))
        })
    }

    /// The raw arrays `(indptr, indices, values)`.
    #[cfg(test)]
    pub(crate) fn parts(&self) -> (&[usize], &[usize], &[f64]) {
        (&self.indptr, &self.indices, &self.values)
    }

    /// The same matrix compressed by columns (for the primal revised
    /// simplex's column pricing and FTRAN).
    pub(crate) fn to_csc(&self) -> CscMatrix {
        // Counting sort of the entries by column: stable, O(nnz + ncols).
        let mut counts = vec![0usize; self.ncols + 1];
        for &j in &self.indices {
            counts[j + 1] += 1;
        }
        for j in 0..self.ncols {
            counts[j + 1] += counts[j];
        }
        let indptr = counts.clone();
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let dst = counts[j];
                counts[j] += 1;
                indices[dst] = i;
                values[dst] = v;
            }
        }
        CscMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr,
            indices,
            values,
        }
    }
}

/// A sparse matrix in compressed-sparse-column form (transposed CSR layout).
#[derive(Debug, Clone)]
pub(crate) struct CscMatrix {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    pub(crate) fn nrows(&self) -> usize {
        self.nrows
    }

    pub(crate) fn ncols(&self) -> usize {
        self.ncols
    }

    /// Column `j` as parallel `(row ids, values)` slices.
    pub(crate) fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let span = self.indptr[j]..self.indptr[j + 1];
        (&self.indices[span.clone()], &self.values[span])
    }

    /// The sparse dot product `y · A_j` used by reduced-cost pricing.
    pub(crate) fn col_dot(&self, j: usize, y: &[f64]) -> f64 {
        let (rows, vals) = self.col(j);
        rows.iter().zip(vals).map(|(&i, &v)| y[i] * v).sum()
    }

    /// Scatters column `j` into the dense buffer `out` (zeroed first).
    pub(crate) fn scatter_col(&self, j: usize, out: &mut [f64]) {
        out.fill(0.0);
        let (rows, vals) = self.col(j);
        for (&i, &v) in rows.iter().zip(vals) {
            out[i] = v;
        }
    }
}

/// A standard-form LP `min c·x  s.t.  A x = b, x ≥ 0, b ≥ 0` with the
/// constraint matrix kept sparse.
///
/// This is what [`crate::solver`] now produces from the modelling form; the
/// dense [`StandardForm`] consumed by the flat-tableau oracle is
/// materialised from it on demand via [`SparseStandardForm::to_dense`].
#[derive(Debug, Clone)]
pub(crate) struct SparseStandardForm {
    pub a: CsrMatrix,
    pub b: Vec<f64>,
    pub c: Vec<f64>,
    /// `mirror[j] = Some(k)` records that column `k` is the exact negation
    /// of column `j` (the `x = x⁺ − x⁻` split of a free variable, which the
    /// conversion always lays out as adjacent columns `k = j + 1`).  The
    /// revised simplex prices both with a single sparse dot product.
    pub mirror: Vec<Option<usize>>,
    /// The all-slack basis the dual simplex starts from (one column per
    /// row), when it is dual feasible: every cost is `≥ 0` and every row
    /// has a singleton ±1 column of zero cost.  Per row it is the lowest
    /// such column, the one the primal seeding scan
    /// ([`crate::simplex::seed_basis_from_unit_columns`], with the signs
    /// dropped) picks; the conversion records it as it writes the rows.
    pub dual_slacks: Option<Vec<usize>>,
}

impl SparseStandardForm {
    /// Wraps a standard form with no recorded mirror pairs (tests build
    /// their programs directly; the conversion fills `mirror` itself).
    #[cfg(test)]
    pub(crate) fn new(a: CsrMatrix, b: Vec<f64>, c: Vec<f64>) -> Self {
        let mirror = vec![None; a.ncols()];
        let mut sf = SparseStandardForm {
            a,
            b,
            c,
            mirror,
            dual_slacks: None,
        };
        sf.dual_slacks = crate::dual::dual_feasible_slack_basis(&sf);
        sf
    }

    pub(crate) fn num_rows(&self) -> usize {
        self.a.nrows()
    }

    pub(crate) fn num_cols(&self) -> usize {
        self.a.ncols()
    }

    /// Densifies into the flat-tableau solver's input form.
    pub(crate) fn to_dense(&self) -> StandardForm {
        let n = self.a.ncols();
        let a = (0..self.a.nrows())
            .map(|i| {
                let mut dense = vec![0.0; n];
                let (cols, vals) = self.a.row(i);
                for (&j, &v) in cols.iter().zip(vals) {
                    dense[j] = v;
                }
                dense
            })
            .collect();
        StandardForm {
            a,
            b: self.b.clone(),
            c: self.c.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_from_rows_sorts_merges_and_drops_zeros() {
        let m = CsrMatrix::from_rows(
            4,
            &[
                vec![(2, 1.0), (0, 3.0), (2, -1.0)], // (2, 0.0) dropped
                vec![],
                vec![(3, 2.0), (1, -4.0)],
            ],
        );
        assert_eq!((m.nrows(), m.ncols(), m.nnz()), (3, 4, 3));
        assert_eq!(m.row(0), (&[0usize][..], &[3.0][..]));
        assert_eq!(m.row(1), (&[][..], &[][..]));
        assert_eq!(m.row(2), (&[1usize, 3][..], &[-4.0, 2.0][..]));
    }

    #[test]
    fn appended_rows_widen_without_renumbering() {
        let mut m = CsrMatrix::from_rows(2, &[vec![(0, 1.0), (1, 2.0)]]);
        m.push_row(3, &[(0, -1.0), (2, 1.0)]);
        m.push_row(4, &[(3, -1.0)]);
        let expected = CsrMatrix::from_rows(
            4,
            &[
                vec![(0, 1.0), (1, 2.0)],
                vec![(0, -1.0), (2, 1.0)],
                vec![(3, -1.0)],
            ],
        );
        assert_eq!((m.nrows(), m.ncols()), (3, 4));
        assert_eq!(m.parts(), expected.parts());
    }

    #[test]
    fn csc_transposition_round_trips() {
        let rows = vec![
            vec![(0, 1.0), (2, 2.0)],
            vec![(1, 3.0)],
            vec![(0, -1.0), (1, 4.0), (2, 5.0)],
        ];
        let csr = CsrMatrix::from_rows(3, &rows);
        let csc = csr.to_csc();
        assert_eq!((csc.nrows(), csc.ncols()), (3, 3));
        assert_eq!(csc.col(0), (&[0usize, 2][..], &[1.0, -1.0][..]));
        assert_eq!(csc.col(1), (&[1usize, 2][..], &[3.0, 4.0][..]));
        assert_eq!(csc.col(2), (&[0usize, 2][..], &[2.0, 5.0][..]));
        assert_eq!(csc.col_dot(2, &[1.0, 10.0, 100.0]), 502.0);
        let mut buf = vec![9.0; 3];
        csc.scatter_col(1, &mut buf);
        assert_eq!(buf, vec![0.0, 3.0, 4.0]);
        // The row-by-row lookups read the same columns off the CSR.
        for j in 0..3 {
            let (rows, vals) = csc.col(j);
            let expected: Vec<(usize, f64)> =
                rows.iter().copied().zip(vals.iter().copied()).collect();
            assert_eq!(csr.col(j).collect::<Vec<_>>(), expected);
            for i in 0..3 {
                let stored = rows.iter().position(|&r| r == i).map_or(0.0, |k| vals[k]);
                assert_eq!(csr.get(i, j), stored);
            }
        }
    }

    #[test]
    fn sparse_standard_form_densifies() {
        let sf = SparseStandardForm::new(
            CsrMatrix::from_rows(3, &[vec![(0, 1.0), (2, -2.0)], vec![(1, 4.0)]]),
            vec![1.0, 2.0],
            vec![0.5, 0.0, 0.0],
        );
        assert_eq!(sf.num_rows(), 2);
        assert_eq!(sf.num_cols(), 3);
        assert_eq!(sf.a.nnz(), 3);
        let dense = sf.to_dense();
        assert_eq!(dense.a, vec![vec![1.0, 0.0, -2.0], vec![0.0, 4.0, 0.0]]);
        assert_eq!(dense.b, vec![1.0, 2.0]);
        assert_eq!(dense.c, vec![0.5, 0.0, 0.0]);
    }
}
