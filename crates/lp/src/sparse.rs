//! The sparse standard form the dual simplex reads.
//!
//! The repair LPs this crate exists for are *wide and block-sparse*: one
//! block of rows per key point, each touching only the parameters of the
//! output coordinates its constraint mentions, plus a singleton slack
//! column.  Storing those rows densely (as the test oracle's
//! `StandardForm` does) makes every pivot pay for the zeros.  This module
//! provides the CSR rows the standard-form conversion writes directly from
//! the (already sparse) modelling constraints: the only layout the dual
//! simplex reads.

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
    #[cfg(test)]
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
}

/// A standard-form LP `min c·x  s.t.  A x = b, x ≥ 0, b ≥ 0` with the
/// constraint matrix kept sparse, as [`crate::solver`] writes it from the
/// modelling form.
#[derive(Debug, Clone)]
pub(crate) struct SparseStandardForm {
    pub a: CsrMatrix,
    pub b: Vec<f64>,
    pub c: Vec<f64>,
    /// `mirror[j] = Some(k)` records that column `k` is the exact negation
    /// of column `j` (the `x = x⁺ − x⁻` split of a free variable, which the
    /// conversion always lays out as adjacent columns `k = j + 1`).  The
    /// dual prices both reduced costs from one sum.
    pub mirror: Vec<Option<usize>>,
    /// The all-slack basis the dual simplex starts from, one column per
    /// row: the lowest singleton ±1 column of zero cost, which is the row's
    /// own slack unless a variable column comes first.  Every cost is
    /// `≥ 0`, so the basis is dual feasible.
    pub dual_slacks: Vec<usize>,
}

impl SparseStandardForm {
    pub(crate) fn num_rows(&self) -> usize {
        self.a.nrows()
    }

    pub(crate) fn num_cols(&self) -> usize {
        self.a.ncols()
    }

    /// Densifies into the tableau oracle's input form.
    #[cfg(test)]
    pub(crate) fn to_dense(&self) -> crate::simplex::StandardForm {
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
        crate::simplex::StandardForm {
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
        // Columns and single entries are looked up row by row.
        assert_eq!(m.col(0).collect::<Vec<_>>(), vec![(0, 3.0)]);
        assert_eq!(m.col(2).collect::<Vec<_>>(), vec![]);
        assert_eq!(m.col(3).collect::<Vec<_>>(), vec![(2, 2.0)]);
        assert_eq!((m.get(2, 1), m.get(0, 2), m.get(1, 0)), (-4.0, 0.0, 0.0));
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
    fn sparse_standard_form_densifies() {
        let sf = SparseStandardForm {
            a: CsrMatrix::from_rows(3, &[vec![(0, 1.0), (2, -2.0)], vec![(1, 4.0)]]),
            b: vec![1.0, 2.0],
            c: vec![0.5, 0.0, 0.0],
            mirror: vec![None; 3],
            dual_slacks: Vec::new(),
        };
        assert_eq!(sf.num_rows(), 2);
        assert_eq!(sf.num_cols(), 3);
        assert_eq!(sf.a.nnz(), 3);
        let dense = sf.to_dense();
        assert_eq!(dense.a, vec![vec![1.0, 0.0, -2.0], vec![0.0, 4.0, 0.0]]);
        assert_eq!(dense.b, vec![1.0, 2.0]);
        assert_eq!(dense.c, vec![0.5, 0.0, 0.0]);
    }
}
