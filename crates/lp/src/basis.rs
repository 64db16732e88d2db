//! The simplex basis: `B` factorised through its structural kernel, plus a
//! product-form eta file, with periodic refactorisation.
//!
//! Most basic columns of a simplex basis are *unit* columns with a single
//! non-zero: the slacks, and on the primal path the artificials.  With the
//! unit columns ordered first and their rows on top, `B` is block upper
//! triangular,
//!
//! ```text
//!            unit  structural
//!     R_U  [  D       S_U  ]
//!     R_K  [  0       S_K  ]
//! ```
//!
//! where `D` is diagonal (each unit column's value on its own row) and the
//! *kernel* `S_K` is the structural basic columns restricted to the rows no
//! unit column covers.  Only the kernel is LU-factorised (Markowitz
//! ordering); the unit columns need no elimination at all (Koberstein,
//! *The dual simplex method*, PhD thesis, Paderborn 2005).  So the
//! all-slack basis factorises in `O(m)`, and a refactorisation after `k`
//! structural pivots factorises a `k × k` kernel instead of an `m × m`
//! matrix.  Both solves substitute through the unit rows:
//!
//! * FTRAN `B x = a`: solve `S_K x_K = a_K`, then `x_U = D⁻¹ (a_U − S_U x_K)`.
//! * BTRAN `Bᵀ y = c`: `y_U = D⁻¹ c_U`, then solve `S_Kᵀ y_K = c_K − S_Uᵀ y_U`.
//!
//! After a pivot replaces the basic variable of row `r` by a column `a_e`,
//! the new basis satisfies `B' = B F`, where `F` is the identity with column
//! `r` replaced by `w = B⁻¹ a_e` (the FTRAN of the entering column, which
//! the ratio test has already computed).  Instead of refactorising, we store
//! `(r, w)` as an *eta* and apply `F⁻¹` on the fly:
//!
//! * FTRAN `B'⁻¹ v`: solve with the factorisation, then apply each eta in
//!   order — `x_r ← x_r / w_r`, `x_i ← x_i − w_i x_r`.
//! * BTRAN `B'⁻ᵀ v`: apply each eta transposed in *reverse* order —
//!   `y_r ← (y_r − Σ_{i≠r} w_i y_i) / w_r` — then solve with `Bᵀ`.
//!
//! Each eta application is `O(nnz(w))`, so the eta file is collapsed back
//! into a fresh factorisation (a Bartels–Golub-style periodic
//! refactorisation) once it grows past [`Basis::MAX_ETAS`] or an update
//! pivot is too small to be trusted.

use prdnn_linalg::LuFactors;

/// Update pivots `|w_r|` below this are refused; the caller refactorises.
const ETA_PIVOT_TOL: f64 = 1e-8;

/// A unit column whose value is this small makes the basis singular (the
/// LU's own pivot tolerance).
const UNIT_PIVOT_TOL: f64 = 1e-12;

/// One product-form update: column `w = B⁻¹ a_e` pivoted in at `row`,
/// stored sparsely (FTRANed repair columns keep most of their zeros), with
/// the pivot entry `w_r` split out.
#[derive(Debug, Clone)]
struct Eta {
    row: usize,
    pivot: f64,
    /// Non-zero entries of `w` excluding the pivot position.
    w: Vec<(usize, f64)>,
}

/// Outcome of [`Basis::update`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UpdateOutcome {
    /// The eta was appended; FTRAN/BTRAN now reflect the new basis.
    Applied,
    /// The pivot was numerically unsafe; the basis is unchanged and the
    /// caller must refactorise from the new basic column set.
    RefusedNeedsRefactor,
}

/// A simplex basis factorised through its structural kernel, with a
/// product-form eta file.
///
/// Vectors in row order go into FTRAN and come out of BTRAN; vectors in
/// basis-position order (one entry per basic column) the other way round.
#[derive(Debug, Clone)]
pub(crate) struct Basis {
    /// The unit basic columns as `(position, row, value)`.
    units: Vec<(usize, usize, f64)>,
    /// Basis positions of the structural columns, in kernel column order.
    kernel_cols: Vec<usize>,
    /// The rows no unit column covers, in kernel row order.
    kernel_rows: Vec<usize>,
    /// LU factors of the kernel; `None` when every basic column is a unit.
    kernel: Option<LuFactors>,
    /// Kernel column `c`'s entries on unit rows, `(row, value)`, are
    /// `unit_row_entries[unit_row_start[c]..unit_row_start[c + 1]]`.
    unit_row_start: Vec<usize>,
    unit_row_entries: Vec<(usize, f64)>,
    etas: Vec<Eta>,
    /// Work buffers: one entry per row, and one per kernel row.
    scratch: Vec<f64>,
    kernel_scratch: Vec<f64>,
}

/// `v / value`, leaving an exact zero as it is (as the LU's triangular
/// solves do).
#[inline]
fn unit_solve(v: f64, value: f64) -> f64 {
    if v != 0.0 {
        v / value
    } else {
        v
    }
}

impl Basis {
    /// Eta-file length that triggers refactorisation: beyond this the
    /// accumulated `O(nnz(w))` eta applications cost more than a fresh
    /// factorisation amortised over the interval, and rounding error grows.
    pub(crate) const MAX_ETAS: usize = 40;

    /// Factorises the `m × m` basis whose column at position `r` is the
    /// unit column `unit(r) = Some((row, value))` or, when that is `None`,
    /// the structural column whose `(row, value)` entries
    /// `structural(r, out)` appends to `out`.  Only the kernel is
    /// eliminated, so `structural` is called once per structural column.
    ///
    /// Returns `None` when the basis is singular — two unit columns on one
    /// row, a unit value within `1e-12` of zero, or a singular kernel —
    /// which for a simplex basis signals numerical breakdown (a
    /// mathematically valid basis is always invertible).
    pub(crate) fn factorize(
        m: usize,
        unit: impl Fn(usize) -> Option<(usize, f64)>,
        mut structural: impl FnMut(usize, &mut Vec<(usize, f64)>),
    ) -> Option<Self> {
        let mut units = Vec::with_capacity(m);
        let mut kernel_cols = Vec::new();
        let mut covered = vec![false; m];
        for r in 0..m {
            match unit(r) {
                Some((row, value)) if !covered[row] && value.abs() > UNIT_PIVOT_TOL => {
                    covered[row] = true;
                    units.push((r, row, value));
                }
                Some(_) => return None,
                None => kernel_cols.push(r),
            }
        }
        let kernel_rows: Vec<usize> = (0..m).filter(|&i| !covered[i]).collect();
        let k = kernel_cols.len();
        debug_assert_eq!(kernel_rows.len(), k);

        // Scatter the structural columns: kernel-row entries into the dense
        // kernel, the rest into the unit-row lists.
        let mut kernel_index = vec![usize::MAX; m];
        for (c, &i) in kernel_rows.iter().enumerate() {
            kernel_index[i] = c;
        }
        let mut dense = vec![0.0; k * k];
        let mut unit_row_start = Vec::with_capacity(k + 1);
        unit_row_start.push(0);
        let mut unit_row_entries = Vec::new();
        let mut entries = Vec::new();
        for (c, &r) in kernel_cols.iter().enumerate() {
            entries.clear();
            structural(r, &mut entries);
            for &(i, v) in &entries {
                match kernel_index[i] {
                    usize::MAX => unit_row_entries.push((i, v)),
                    ki => dense[ki * k + c] = v,
                }
            }
            unit_row_start.push(unit_row_entries.len());
        }
        let kernel = match k {
            0 => None,
            _ => Some(LuFactors::factorize_markowitz(k, &dense).ok()?),
        };
        Some(Basis {
            units,
            kernel_cols,
            kernel_rows,
            kernel,
            unit_row_start,
            unit_row_entries,
            etas: Vec::new(),
            scratch: vec![0.0; m],
            kernel_scratch: vec![0.0; k],
        })
    }

    #[cfg(test)]
    pub(crate) fn dim(&self) -> usize {
        self.scratch.len()
    }

    /// `true` once the eta file has grown enough that the caller should
    /// refactorise at the next convenient point.
    pub(crate) fn should_refactorize(&self) -> bool {
        self.etas.len() >= Self::MAX_ETAS
    }

    /// Number of product-form updates applied since the last factorisation.
    #[cfg(test)]
    pub(crate) fn updates_since_refactor(&self) -> usize {
        self.etas.len()
    }

    /// Kernel column `c`'s entries on unit rows.
    fn entries_on_unit_rows(&self, c: usize) -> &[(usize, f64)] {
        &self.unit_row_entries[self.unit_row_start[c]..self.unit_row_start[c + 1]]
    }

    /// FTRAN: `x ← B⁻¹ x`.
    pub(crate) fn ftran(&mut self, x: &mut [f64]) {
        if let Some(lu) = &self.kernel {
            for (t, &i) in self.kernel_scratch.iter_mut().zip(&self.kernel_rows) {
                *t = x[i];
            }
            lu.solve_in_place(&mut self.kernel_scratch);
            for (c, &t) in self.kernel_scratch.iter().enumerate() {
                if t != 0.0 {
                    for &(i, v) in self.entries_on_unit_rows(c) {
                        x[i] -= v * t;
                    }
                }
            }
        }
        self.scratch.copy_from_slice(x);
        for &(position, row, value) in &self.units {
            x[position] = unit_solve(self.scratch[row], value);
        }
        for (&position, &t) in self.kernel_cols.iter().zip(&self.kernel_scratch) {
            x[position] = t;
        }
        for eta in &self.etas {
            let xr = x[eta.row] / eta.pivot;
            if xr != 0.0 {
                x[eta.row] = xr;
                for &(i, wi) in &eta.w {
                    x[i] -= wi * xr;
                }
            }
        }
    }

    /// BTRAN: `y ← B⁻ᵀ y`.
    pub(crate) fn btran(&mut self, y: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            // Transposed eta: y_r ← (y_r − Σ_{i≠r} w_i y_i) / w_r.
            let dot: f64 = eta.w.iter().map(|&(i, wi)| wi * y[i]).sum();
            y[eta.row] = (y[eta.row] - dot) / eta.pivot;
        }
        self.scratch.copy_from_slice(y);
        for &(position, row, value) in &self.units {
            y[row] = unit_solve(self.scratch[position], value);
        }
        if let Some(lu) = &self.kernel {
            for c in 0..self.kernel_cols.len() {
                let mut t = self.scratch[self.kernel_cols[c]];
                for &(i, v) in self.entries_on_unit_rows(c) {
                    t -= v * y[i];
                }
                self.kernel_scratch[c] = t;
            }
            lu.solve_transpose_in_place(&mut self.kernel_scratch);
            for (&i, &t) in self.kernel_rows.iter().zip(&self.kernel_scratch) {
                y[i] = t;
            }
        }
    }

    /// Records the pivot that replaced row `r`'s basic column, given the
    /// already-FTRANed entering column `w = B⁻¹ a_e` (borrowed; its
    /// non-zeros are compressed into the eta file).
    pub(crate) fn update(&mut self, row: usize, w: &[f64]) -> UpdateOutcome {
        if w[row].abs() <= ETA_PIVOT_TOL {
            return UpdateOutcome::RefusedNeedsRefactor;
        }
        let sparse: Vec<(usize, f64)> = w
            .iter()
            .enumerate()
            .filter(|&(i, &wi)| i != row && wi != 0.0)
            .map(|(i, &wi)| (i, wi))
            .collect();
        self.etas.push(Eta {
            row,
            pivot: w[row],
            w: sparse,
        });
        UpdateOutcome::Applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Factorises the basis with the given dense columns (one per position):
    /// a column with a single non-zero is passed as a unit, any other as a
    /// structural column.
    fn from_cols(cols: &[Vec<f64>]) -> Option<Basis> {
        let nonzeros = |r: usize| {
            cols[r]
                .iter()
                .enumerate()
                .filter(|(_, &v)| v != 0.0)
                .map(|(i, &v)| (i, v))
        };
        Basis::factorize(
            cols.len(),
            |r| match nonzeros(r).collect::<Vec<_>>()[..] {
                [entry] => Some(entry),
                _ => None,
            },
            |r, out| out.extend(nonzeros(r)),
        )
    }

    /// The full dense `B` (row-major, column `r` = position `r`) under the
    /// partial-pivoting LU: the oracle the kernel solves are checked against.
    fn dense_lu(cols: &[Vec<f64>]) -> LuFactors {
        let m = cols.len();
        let mut a = vec![0.0; m * m];
        for (j, col) in cols.iter().enumerate() {
            for i in 0..m {
                a[i * m + j] = col[i];
            }
        }
        LuFactors::factorize(m, &a).expect("non-singular test basis")
    }

    /// Checks FTRAN and BTRAN of `basis` against the dense oracle of `cols`
    /// on a few right-hand sides.
    fn assert_solves_match(basis: &mut Basis, cols: &[Vec<f64>], tol: f64) {
        let lu = dense_lu(cols);
        let m = cols.len();
        for seed in 0..3 {
            let rhs: Vec<f64> = (0..m)
                .map(|i| ((i * 7 + seed * 3) % 5) as f64 - 2.0 + 0.25 * seed as f64)
                .collect();
            let mut x = rhs.clone();
            basis.ftran(&mut x);
            let mut y = rhs.clone();
            basis.btran(&mut y);
            let (x_ref, y_ref) = (lu.solve(&rhs), lu.solve_transpose(&rhs));
            for i in 0..m {
                assert!(
                    (x[i] - x_ref[i]).abs() <= tol * (1.0 + x_ref[i].abs()),
                    "FTRAN[{i}]: {} vs {}",
                    x[i],
                    x_ref[i]
                );
                assert!(
                    (y[i] - y_ref[i]).abs() <= tol * (1.0 + y_ref[i].abs()),
                    "BTRAN[{i}]: {} vs {}",
                    y[i],
                    y_ref[i]
                );
            }
        }
    }

    fn unit(m: usize, row: usize, value: f64) -> Vec<f64> {
        let mut col = vec![0.0; m];
        col[row] = value;
        col
    }

    #[test]
    fn eta_update_matches_refactorisation() {
        // Start from B = I, replace column 1 by a = (1, 2, 3), and check
        // FTRAN/BTRAN against a fresh factorisation of the updated matrix.
        let m = 3;
        let mut cols: Vec<Vec<f64>> = (0..m).map(|i| unit(m, i, 1.0)).collect();
        let mut basis = from_cols(&cols).unwrap();

        let a_e = vec![1.0, 2.0, 3.0];
        let mut w = a_e.clone();
        basis.ftran(&mut w); // B = I, so w = a_e.
        assert_eq!(basis.update(1, &w), UpdateOutcome::Applied);
        cols[1] = a_e;
        let mut fresh = from_cols(&cols).unwrap();

        let rhs = vec![4.0, -1.0, 0.5];
        let (mut via_eta, mut via_fresh) = (rhs.clone(), rhs.clone());
        basis.ftran(&mut via_eta);
        fresh.ftran(&mut via_fresh);
        for (a, b) in via_eta.iter().zip(&via_fresh) {
            assert!((a - b).abs() < 1e-12, "FTRAN mismatch: {a} vs {b}");
        }
        assert_solves_match(&mut fresh, &cols, 1e-12);

        let (mut ye, mut yf) = (rhs.clone(), rhs.clone());
        basis.btran(&mut ye);
        fresh.btran(&mut yf);
        for (a, b) in ye.iter().zip(&yf) {
            assert!((a - b).abs() < 1e-12, "BTRAN mismatch: {a} vs {b}");
        }
    }

    #[test]
    fn chained_eta_updates_stay_consistent() {
        // Apply several updates and compare against the dense oracle of the
        // updated matrix.
        let m = 4;
        let mut cols: Vec<Vec<f64>> = (0..m).map(|i| unit(m, i, 1.0)).collect();
        let mut basis = from_cols(&cols).unwrap();
        let entering = [
            (0usize, vec![2.0, 1.0, 0.0, -1.0]),
            (2, vec![0.5, 0.0, 3.0, 1.0]),
            (1, vec![-1.0, 4.0, 1.0, 0.0]),
        ];
        for (row, a_e) in entering {
            let mut w = a_e.clone();
            basis.ftran(&mut w);
            assert_eq!(basis.update(row, &w), UpdateOutcome::Applied);
            cols[row] = a_e;
        }
        assert_eq!(basis.updates_since_refactor(), 3);
        assert_solves_match(&mut basis, &cols, 1e-10);
        assert_solves_match(&mut from_cols(&cols).unwrap(), &cols, 1e-12);
    }

    #[test]
    fn unit_only_basis_divides_and_keeps_exact_zeros() {
        // A signed identity with its units off their own positions: FTRAN
        // maps rows to positions, BTRAN back, dividing by each unit value
        // and leaving an exact zero (of either sign) as it is.
        let m = 3;
        let cols = vec![unit(m, 2, -1.0), unit(m, 0, 1.0), unit(m, 1, -1.0)];
        let mut basis = from_cols(&cols).unwrap();
        let mut x = vec![4.0, -0.0, 0.5];
        basis.ftran(&mut x);
        assert_eq!(x, vec![-0.5, 4.0, -0.0]);
        assert!(x[2].is_sign_negative(), "zero kept, not divided");
        let mut y = vec![1.0, 0.0, 3.0];
        basis.btran(&mut y);
        assert_eq!(y, vec![0.0, -3.0, -1.0]);
        assert!(y[0].is_sign_positive());
        assert_solves_match(&mut basis, &cols, 0.0);
    }

    #[test]
    fn kernel_solves_match_the_dense_lu() {
        // Units on rows 1, 3, 4 (one at a position other than its row), a
        // 3-column structural kernel on rows 0, 2, 5 whose natural diagonal
        // is zero (the kernel LU must pivot rows), and structural entries
        // on unit rows that the solves substitute through.
        let m = 6;
        let cols = vec![
            vec![0.0, 2.0, 3.0, 0.0, -1.0, 0.0], // structural
            unit(m, 3, -1.0),                    // unit, row 3
            vec![0.0, 0.0, 0.0, 5.0, 0.0, 4.0],  // structural
            unit(m, 1, 1.0),                     // unit, row 1
            vec![2.0, 0.5, 0.0, 0.0, 0.0, 0.0],  // structural
            unit(m, 4, -1.0),                    // unit, row 4
        ];
        let mut basis = from_cols(&cols).unwrap();
        assert_eq!(basis.kernel_cols, vec![0, 2, 4]);
        assert_eq!(basis.kernel_rows, vec![0, 2, 5]);
        assert_solves_match(&mut basis, &cols, 1e-12);

        // Eta updates on top of the kernel factorisation: a unit position
        // takes a structural column, and a structural position a unit.
        let mut cols = cols;
        for (row, a_e) in [
            (1usize, vec![1.0, 0.0, -2.0, 1.0, 0.0, 3.0]),
            (2, unit(m, 5, 1.0)),
        ] {
            let mut w = a_e.clone();
            basis.ftran(&mut w);
            assert_eq!(basis.update(row, &w), UpdateOutcome::Applied);
            cols[row] = a_e;
            assert_solves_match(&mut basis, &cols, 1e-10);
        }
    }

    #[test]
    fn random_mixed_bases_match_the_dense_lu() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..40 {
            let m = rng.gen_range(1..12);
            // A random row permutation carries the unit columns, so units
            // sit at arbitrary positions; structural columns are dense with
            // a strong entry on their own row, which keeps B non-singular.
            let mut rows: Vec<usize> = (0..m).collect();
            for i in (1..m).rev() {
                rows.swap(i, rng.gen_range(0..=i));
            }
            let cols: Vec<Vec<f64>> = rows
                .iter()
                .map(|&row| {
                    if rng.gen_bool(0.6) {
                        unit(m, row, if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
                    } else {
                        let mut col: Vec<f64> = (0..m)
                            .map(|_| {
                                if rng.gen_bool(0.5) {
                                    rng.gen_range(-1.0..1.0)
                                } else {
                                    0.0
                                }
                            })
                            .collect();
                        col[row] = 4.0 * m as f64;
                        col
                    }
                })
                .collect();
            let mut basis = from_cols(&cols).unwrap();
            assert_solves_match(&mut basis, &cols, 1e-10);
        }
    }

    #[test]
    fn tiny_pivot_is_refused() {
        let mut basis = from_cols(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let w = vec![1e-12, 1.0];
        assert_eq!(basis.update(0, &w), UpdateOutcome::RefusedNeedsRefactor);
        assert_eq!(basis.updates_since_refactor(), 0);
    }

    #[test]
    fn eta_file_growth_triggers_refactorisation_flag() {
        let mut basis = from_cols(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        assert!(!basis.should_refactorize());
        for _ in 0..Basis::MAX_ETAS {
            // Pivoting the same unit-ish column keeps the basis invertible.
            let mut w = vec![1.0, 0.25];
            basis.ftran(&mut w);
            assert_eq!(basis.update(0, &w), UpdateOutcome::Applied);
        }
        assert!(basis.should_refactorize());
        assert_eq!(basis.dim(), 2);
    }

    #[test]
    fn singular_basis_matrix_is_reported() {
        // A dense singular kernel.
        assert!(from_cols(&[vec![1.0, 2.0], vec![2.0, 4.0]]).is_none());
        // A singular kernel behind a unit column: the structural columns
        // differ on the unit row but are parallel on the kernel rows.
        let m = 3;
        assert!(from_cols(&[unit(m, 0, 1.0), vec![1.0, 1.0, 2.0], vec![-3.0, 2.0, 4.0]]).is_none());
        // Two unit columns on one row, and a structural column that lives
        // only on unit rows (an empty kernel column).
        assert!(from_cols(&[unit(m, 0, 1.0), unit(m, 0, -1.0), vec![0.0, 1.0, 1.0]]).is_none());
        assert!(from_cols(&[unit(m, 0, 1.0), unit(m, 1, 1.0), vec![1.0, 1.0, 0.0]]).is_none());
    }
}
