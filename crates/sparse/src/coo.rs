//! Coordinate (triplet) format.

use crate::{Csr, Index, Scalar, SparseError};

/// A sparse matrix in coordinate (COO / triplet) format.
///
/// COO is the "assembly" format: entries may arrive in any order and
/// duplicates are allowed until [`Coo::compress`] folds them. It is the
/// natural target for matrix generators and the interchange point between
/// the other formats.
///
/// # Example
///
/// ```rust
/// use matraptor_sparse::Coo;
///
/// let mut m = Coo::<f64>::new(3, 3);
/// m.push(0, 1, 2.0);
/// m.push(2, 0, -1.0);
/// m.push(0, 1, 3.0); // duplicate — summed by compress()
/// let csr = m.compress();
/// assert_eq!(csr.nnz(), 2);
/// assert_eq!(csr.get(0, 1), Some(5.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Coo<T> {
    rows: usize,
    cols: usize,
    entries: Vec<(Index, Index, T)>,
}

impl<T: Scalar> Coo<T> {
    /// Creates an empty `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension exceeds `u32::MAX`, the index width used
    /// throughout the crate.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows <= Index::MAX as usize, "row dimension exceeds u32");
        assert!(cols <= Index::MAX as usize, "column dimension exceeds u32");
        Coo { rows, cols, entries: Vec::new() }
    }

    /// Creates a matrix from pre-collected triplets.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if any triplet lies outside
    /// the declared dimensions.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        entries: Vec<(Index, Index, T)>,
    ) -> Result<Self, SparseError> {
        for &(r, c, _) in &entries {
            if r as usize >= rows {
                return Err(SparseError::IndexOutOfBounds {
                    axis: "row",
                    index: r as usize,
                    bound: rows,
                });
            }
            if c as usize >= cols {
                return Err(SparseError::IndexOutOfBounds {
                    axis: "column",
                    index: c as usize,
                    bound: cols,
                });
            }
        }
        Ok(Coo { rows, cols, entries })
    }

    /// Appends one entry. Duplicates are permitted; they are summed by
    /// [`Coo::compress`].
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn push(&mut self, row: Index, col: Index, value: T) {
        assert!((row as usize) < self.rows, "row {row} out of bounds ({})", self.rows);
        assert!((col as usize) < self.cols, "col {col} out of bounds ({})", self.cols);
        self.entries.push((row, col, value));
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored triplets, *including* duplicates and explicit zeros.
    pub fn raw_len(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over the stored triplets in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, Index, T)> + '_ {
        self.entries.iter().copied()
    }

    /// Sorts triplets into row-major order, sums duplicates, drops entries
    /// whose sum is exactly zero, and produces a [`Csr`].
    ///
    /// This is the canonical COO → CSR path; all generators funnel through
    /// it, so CSR's invariants (sorted, unique column ids per row) hold by
    /// construction.
    pub fn compress(mut self) -> Csr<T> {
        // Row-major, column-minor sort. Stable so that duplicate summation
        // order is deterministic (matters for float reproducibility).
        self.entries.sort_by_key(|&(r, c, _)| (r, c));

        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx: Vec<Index> = Vec::with_capacity(self.entries.len());
        let mut values: Vec<T> = Vec::with_capacity(self.entries.len());

        let mut it = self.entries.into_iter().peekable();
        while let Some((r, c, mut v)) = it.next() {
            while let Some(&(r2, c2, v2)) = it.peek() {
                if r2 == r && c2 == c {
                    v = v.add(v2);
                    it.next();
                } else {
                    break;
                }
            }
            if !v.is_zero() {
                col_idx.push(c);
                values.push(v);
                row_ptr[r as usize + 1] += 1;
            }
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }

        Csr::from_parts_unchecked(self.rows, self.cols, row_ptr, col_idx, values)
    }
}

impl<T: Scalar> Extend<(Index, Index, T)> for Coo<T> {
    fn extend<I: IntoIterator<Item = (Index, Index, T)>>(&mut self, iter: I) {
        for (r, c, v) in iter {
            self.push(r, c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compress_sums_duplicates() {
        let mut m = Coo::<i64>::new(2, 2);
        m.push(1, 1, 4);
        m.push(0, 0, 1);
        m.push(1, 1, 6);
        let csr = m.compress();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(1, 1), Some(10));
        assert_eq!(csr.get(0, 0), Some(1));
    }

    #[test]
    fn compress_drops_cancelled_entries() {
        let mut m = Coo::<i64>::new(1, 1);
        m.push(0, 0, 5);
        m.push(0, 0, -5);
        let csr = m.compress();
        assert_eq!(csr.nnz(), 0);
    }

    #[test]
    fn compress_sorts_columns_within_rows() {
        let mut m = Coo::<f64>::new(1, 4);
        m.push(0, 3, 3.0);
        m.push(0, 0, 0.5);
        m.push(0, 2, 2.0);
        let csr = m.compress();
        let row: Vec<_> = csr.row(0).collect();
        assert_eq!(row, vec![(0, 0.5), (2, 2.0), (3, 3.0)]);
    }

    #[test]
    fn from_triplets_validates_bounds() {
        let err = Coo::from_triplets(2, 2, vec![(2, 0, 1.0f64)]).unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { axis: "row", .. }));
        let err = Coo::from_triplets(2, 2, vec![(0, 7, 1.0f64)]).unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { axis: "column", .. }));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_panics_out_of_bounds() {
        let mut m = Coo::<f64>::new(1, 1);
        m.push(0, 1, 1.0);
    }

    #[test]
    fn empty_matrix_compresses() {
        let csr = Coo::<f64>::new(5, 3).compress();
        assert_eq!(csr.rows(), 5);
        assert_eq!(csr.cols(), 3);
        assert_eq!(csr.nnz(), 0);
    }

    #[test]
    fn extend_collects_triplets() {
        let mut m = Coo::<i64>::new(3, 3);
        m.extend(vec![(0, 0, 1), (1, 1, 2), (2, 2, 3)]);
        assert_eq!(m.raw_len(), 3);
        assert_eq!(m.compress().nnz(), 3);
    }
}
