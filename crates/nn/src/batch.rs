//! Batch-major flat buffers for pushing many vectors through the network.
//!
//! The repair pipeline is dominated by *batched* layer evaluation: key-point
//! batches in Algorithm 1, carried vertex values in the SyReNN transformers,
//! and the DDNN's paired activation/value channels.  Storing a batch as
//! `Vec<Vec<f64>>` costs one heap allocation per vector per layer and
//! scatters rows across the heap; a [`FlatBatch`] instead holds the whole
//! batch contiguously in one row-major `Vec<f64>` (`count × dim`), which is
//! exactly the `A` operand shape the blocked GEMM in `prdnn-linalg` packs
//! from.  A dense layer applied to a `FlatBatch` is then a single
//! `gemm_nt(batch, weights)` call — one packed weight tile serves every
//! vector in the batch.
//!
//! Bit-compatibility: the GEMM kernels accumulate every output element in
//! one ascending-`k` chain, the same order as the per-point `matvec`, so
//! routing a batch through the flat path produces bit-identical results to
//! mapping the per-point entry points — callers may switch freely.

/// `len` zeros, allocated and then written.  `vec![0.0; len]` asks the
/// allocator for zeroed memory instead, and glibc's `calloc` bypasses its
/// per-thread cache: on a small vector in a multi-threaded process that
/// costs about 40 ns more (probe, 24 entries: 89–93 ns against 48–52 ns),
/// which showed in every per-row activation and linearisation.  From a
/// few thousand entries up the two cost the same.
pub(crate) fn zeros(len: usize) -> Vec<f64> {
    let mut v = Vec::with_capacity(len);
    v.resize(len, 0.0);
    v
}

/// A batch of `count` vectors of dimension `dim`, stored row-major in one
/// contiguous buffer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlatBatch {
    dim: usize,
    count: usize,
    data: Vec<f64>,
}

impl FlatBatch {
    /// An empty batch of `dim`-dimensional vectors.
    pub fn new(dim: usize) -> Self {
        FlatBatch {
            dim,
            count: 0,
            data: Vec::new(),
        }
    }

    /// An empty batch with room for `count` vectors before reallocating.
    pub fn with_capacity(dim: usize, count: usize) -> Self {
        FlatBatch {
            dim,
            count: 0,
            data: Vec::with_capacity(dim * count),
        }
    }

    /// A batch of `count` zero vectors (the GEMM output shape).
    pub fn zeros(dim: usize, count: usize) -> Self {
        FlatBatch {
            dim,
            count,
            data: zeros(dim * count),
        }
    }

    /// Builds a batch by copying `rows`.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from `dim`.
    pub fn from_rows(dim: usize, rows: &[Vec<f64>]) -> Self {
        let mut batch = FlatBatch::with_capacity(dim, rows.len());
        for row in rows {
            batch.push_row(row);
        }
        batch
    }

    /// Builds a batch by copying an already-flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `data.len()` is not a multiple of `dim`.
    pub fn from_flat(dim: usize, data: &[f64]) -> Self {
        assert!(
            dim > 0 && data.len().is_multiple_of(dim),
            "flat batch buffer length must be a multiple of the dimension"
        );
        FlatBatch {
            dim,
            count: data.len() / dim,
            data: data.to_vec(),
        }
    }

    /// Vector dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vectors in the batch.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether the batch holds no vectors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Appends one vector.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.dim()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "flat batch row dimension mismatch");
        self.data.extend_from_slice(row);
        self.count += 1;
    }

    /// The `i`-th vector.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable view of the `i`-th vector.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterates over the vectors in order.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.count).map(move |i| self.row(i))
    }

    /// Iterates over mutable views of the vectors in order.
    pub fn rows_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        let dim = self.dim.max(1);
        self.data.chunks_mut(dim)
    }

    /// The whole batch as one row-major slice (the GEMM `A` operand).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the whole buffer (the GEMM `C` operand).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Copies the batch out into one `Vec` per vector.
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.rows().map(|r| r.to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_rows() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let batch = FlatBatch::from_rows(2, &rows);
        assert_eq!(batch.dim(), 2);
        assert_eq!(batch.count(), 3);
        assert_eq!(batch.row(1), &[3.0, 4.0]);
        assert_eq!(batch.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(batch.to_rows(), rows);
        assert_eq!(batch.rows().count(), 3);
    }

    #[test]
    fn push_and_mutate() {
        let mut batch = FlatBatch::new(3);
        assert!(batch.is_empty());
        batch.push_row(&[1.0, 2.0, 3.0]);
        batch.row_mut(0)[1] = 9.0;
        assert_eq!(batch.row(0), &[1.0, 9.0, 3.0]);
        for row in batch.rows_mut() {
            row[0] += 1.0;
        }
        assert_eq!(batch.row(0), &[2.0, 9.0, 3.0]);
    }

    #[test]
    fn zeros_shape() {
        let batch = FlatBatch::zeros(4, 2);
        assert_eq!(batch.count(), 2);
        assert_eq!(batch.row(1), &[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "row dimension mismatch")]
    fn wrong_row_length_panics() {
        let mut batch = FlatBatch::new(2);
        batch.push_row(&[1.0]);
    }
}
