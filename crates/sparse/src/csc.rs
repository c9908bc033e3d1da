//! Compressed sparse column format.

use crate::{Csr, FormatError, Index, Scalar};

/// A sparse matrix in compressed sparse column (CSC) format.
///
/// CSC is required by the inner-product dataflow (matrix *B* must be read
/// column-major) and the outer-product dataflow (matrix *A* must be read
/// column-major) — one of the paper's arguments *against* those dataflows is
/// precisely that they force the two operands into different formats
/// (Section II). Row indices within each column are strictly increasing.
///
/// # Example
///
/// ```rust
/// use matraptor_sparse::{Csr, Csc};
///
/// let a = Csr::<f64>::identity(2);
/// let c: Csc<f64> = a.to_csc();
/// assert_eq!(c.col(1).collect::<Vec<_>>(), vec![(1, 1.0)]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csc<T> {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<Index>,
    values: Vec<T>,
}

impl<T: Scalar> Csc<T> {
    /// Builds a CSC matrix from raw arrays, validating every invariant.
    ///
    /// # Errors
    ///
    /// Mirrors [`Csr::from_parts`]: malformed pointers, mismatched array
    /// lengths, out-of-range row indices, and unsorted/duplicate row indices
    /// within a column are all rejected.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<Index>,
        values: Vec<T>,
    ) -> Result<Self, FormatError> {
        // Validate by delegating to the CSR checker on the mirrored arrays:
        // a CSC matrix is exactly a CSR matrix of the transpose.
        let mirror = Csr::from_parts(cols, rows, col_ptr, row_idx, values)?;
        let (rows_m, cols_m) = (mirror.rows(), mirror.cols());
        debug_assert_eq!((rows_m, cols_m), (cols, rows));
        Ok(Csc {
            rows,
            cols,
            col_ptr: mirror.row_ptr().to_vec(),
            row_idx: mirror.col_idx().to_vec(),
            values: mirror.values().to_vec(),
        })
    }

    pub(crate) fn from_parts_unchecked(
        rows: usize,
        cols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<Index>,
        values: Vec<T>,
    ) -> Self {
        debug_assert_eq!(col_ptr.len(), cols + 1);
        debug_assert_eq!(row_idx.len(), values.len());
        Csc { rows, cols, col_ptr, row_idx, values }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Iterates over `(row, value)` pairs of column `j` in increasing row
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> impl Iterator<Item = (Index, T)> + '_ {
        let range = self.col_ptr[j]..self.col_ptr[j + 1];
        self.row_idx[range.clone()].iter().copied().zip(self.values[range].iter().copied())
    }

    /// The `(row_idx, values)` slices of column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col_slices(&self, j: usize) -> (&[Index], &[T]) {
        let range = self.col_ptr[j]..self.col_ptr[j + 1];
        (&self.row_idx[range.clone()], &self.values[range])
    }

    /// The column-pointer array (`cols + 1` entries).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Converts back to CSR; O(nnz + rows + cols).
    pub fn to_csr(&self) -> Csr<T> {
        // The mirrored arrays form the CSR of the transpose; transposing
        // again yields the original matrix in CSR.
        Csr::from_parts_unchecked(
            self.cols,
            self.rows,
            self.col_ptr.clone(),
            self.row_idx.clone(),
            self.values.clone(),
        )
        .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_csr() -> Csr<f64> {
        Csr::from_parts(3, 3, vec![0, 2, 2, 4], vec![0, 2, 0, 1], vec![1.0, 2.0, 3.0, 4.0])
            .expect("valid")
    }

    #[test]
    fn csr_csc_round_trip() {
        let m = sample_csr();
        assert_eq!(m.to_csc().to_csr(), m);
    }

    #[test]
    fn column_access() {
        let csc = sample_csr().to_csc();
        let c1: Vec<_> = csc.col(1).collect();
        assert_eq!(c1, vec![(2, 4.0)]);
    }

    #[test]
    fn from_parts_validates() {
        let e = Csc::<f64>::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]);
        assert!(matches!(e, Err(FormatError::PointerLength { .. })));
        let e = Csc::<f64>::from_parts(2, 1, vec![0, 2], vec![1, 0], vec![1.0, 1.0]);
        assert!(matches!(e, Err(FormatError::UnsortedIndices { .. })));
    }

    #[test]
    fn rectangular_round_trip() {
        // 2x4 matrix.
        let m = Csr::from_parts(2, 4, vec![0, 3, 4], vec![0, 1, 3, 2], vec![1.0, 2.0, 3.0, 4.0])
            .unwrap();
        let csc = m.to_csc();
        assert_eq!(csc.rows(), 2);
        assert_eq!(csc.cols(), 4);
        assert_eq!(csc.to_csr(), m);
    }
}
