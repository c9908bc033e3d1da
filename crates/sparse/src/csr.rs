//! Compressed sparse row format.

use crate::{Coo, Csc, Dense, FormatError, Index, Scalar};

/// A sparse matrix in compressed sparse row (CSR) format.
///
/// CSR is the lingua franca of this crate: the reference SpGEMM kernels take
/// and return it, and both the accelerator's C²SR format and the CSC format
/// convert to and from it. Column indices within each row are **strictly
/// increasing** — an invariant the merge hardware in the accelerator model
/// depends on, enforced at every constructor.
///
/// # Example
///
/// ```rust
/// use matraptor_sparse::Csr;
///
/// let eye = Csr::<f64>::identity(3);
/// assert_eq!(eye.nnz(), 3);
/// assert_eq!(eye.get(1, 1), Some(1.0));
/// assert_eq!(eye.get(0, 1), None);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr<T> {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<Index>,
    values: Vec<T>,
}

impl<T: Scalar> Csr<T> {
    /// Creates an empty `rows × cols` matrix with no stored entries.
    pub fn zero(rows: usize, cols: usize) -> Self {
        Csr { rows, cols, row_ptr: vec![0; rows + 1], col_idx: Vec::new(), values: Vec::new() }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Csr {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as Index).collect(),
            values: vec![T::ONE; n],
        }
    }

    /// Builds a CSR matrix from raw arrays, validating every invariant.
    ///
    /// # Errors
    ///
    /// * [`FormatError::PointerLength`] if `row_ptr.len() != rows + 1`;
    /// * [`FormatError::MalformedPointers`] if `row_ptr` is not monotone or
    ///   does not start at 0 / end at `col_idx.len()`;
    /// * [`FormatError::ArrayLengthMismatch`] if `col_idx` and `values`
    ///   differ in length;
    /// * [`FormatError::IndexOutOfBounds`] for any out-of-range column id;
    /// * [`FormatError::UnsortedIndices`] if column ids within a row are not
    ///   strictly increasing.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<Index>,
        values: Vec<T>,
    ) -> Result<Self, FormatError> {
        check_structure(rows, cols, &row_ptr, &col_idx, values.len())?;
        Ok(Csr { rows, cols, row_ptr, col_idx, values })
    }

    /// Revalidates every structural invariant plus value finiteness.
    ///
    /// Constructors already enforce the structural invariants, so for a
    /// matrix built through the public API this only adds the finiteness
    /// scan — NaN and ±∞ values pass [`Csr::from_parts`] (they are
    /// structurally fine) but poison the accelerator's merge comparisons
    /// and the reference cross-check. Every `Driver` launch calls this at the
    /// host/accelerator boundary so malformed inputs are rejected with a
    /// structured error instead of mis-simulating.
    ///
    /// # Errors
    ///
    /// Any [`FormatError`] a constructor would report, plus
    /// [`FormatError::NonFiniteValue`] for the first NaN/∞ entry.
    pub fn validate(&self) -> Result<(), FormatError> {
        check_structure(self.rows, self.cols, &self.row_ptr, &self.col_idx, self.values.len())?;
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                if !self.values[k].is_finite_value() {
                    return Err(FormatError::NonFiniteValue {
                        row: i,
                        col: self.col_idx[k] as usize,
                    });
                }
            }
        }
        Ok(())
    }

    /// Builds a CSR matrix from arrays already known to satisfy the
    /// invariants (used by [`Coo::compress`] and the SpGEMM kernels, whose
    /// outputs are sorted by construction).
    ///
    /// Not `unsafe` in the memory sense — a bad input produces wrong answers
    /// or panics downstream, never UB — but it skips O(nnz) validation, so
    /// it is `pub(crate)`.
    pub(crate) fn from_parts_unchecked(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<Index>,
        values: Vec<T>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), rows + 1);
        debug_assert_eq!(col_idx.len(), values.len());
        debug_assert_eq!(*row_ptr.last().expect("row_ptr non-empty"), col_idx.len());
        Csr { rows, cols, row_ptr, col_idx, values }
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
        self.col_idx.len()
    }

    /// Fraction of entries that are stored: `nnz / (rows * cols)`.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// Average non-zeros per row (the paper's `nnz/N`).
    pub fn mean_row_nnz(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.rows as f64
        }
    }

    /// Number of stored entries in row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Iterates over `(col, value)` pairs of row `i` in increasing column
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (Index, T)> + '_ {
        let range = self.row_ptr[i]..self.row_ptr[i + 1];
        self.col_idx[range.clone()].iter().copied().zip(self.values[range].iter().copied())
    }

    /// The `(col_idx, values)` slices of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_slices(&self, i: usize) -> (&[Index], &[T]) {
        let range = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col_idx[range.clone()], &self.values[range])
    }

    /// Looks up a single entry; `None` if it is structurally zero.
    ///
    /// Runs a binary search within the row.
    pub fn get(&self, row: usize, col: usize) -> Option<T> {
        if row >= self.rows || col >= self.cols {
            return None;
        }
        let (cols_slice, vals) = self.row_slices(row);
        cols_slice.binary_search(&(col as Index)).ok().map(|k| vals[k])
    }

    /// Iterates over all `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, Index, T)> + '_ {
        (0..self.rows).flat_map(move |i| self.row(i).map(move |(c, v)| (i as Index, c, v)))
    }

    /// The row-pointer array (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column-index array (`nnz` entries).
    pub fn col_idx(&self) -> &[Index] {
        &self.col_idx
    }

    /// The value array (`nnz` entries).
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Converts to COO (triplet) form.
    pub fn to_coo(&self) -> Coo<T> {
        let mut coo = Coo::new(self.rows, self.cols);
        coo.extend(self.iter());
        coo
    }

    /// Converts to CSC by a counting transpose-copy; O(nnz + rows + cols).
    pub fn to_csc(&self) -> Csc<T> {
        let (col_ptr, row_idx, values) =
            transpose_arrays(self.rows, self.cols, &self.row_ptr, &self.col_idx, &self.values);
        Csc::from_parts_unchecked(self.rows, self.cols, col_ptr, row_idx, values)
    }

    /// Returns the transpose as a new CSR matrix.
    pub fn transpose(&self) -> Csr<T> {
        let (ptr, idx, values) =
            transpose_arrays(self.rows, self.cols, &self.row_ptr, &self.col_idx, &self.values);
        Csr { rows: self.cols, cols: self.rows, row_ptr: ptr, col_idx: idx, values }
    }

    /// Materialises the matrix densely (test oracle; O(rows × cols) memory).
    pub fn to_dense(&self) -> Dense<T> {
        let mut d = Dense::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            d[(r as usize, c as usize)] = v;
        }
        d
    }

    /// Largest row length (used by the load-imbalance study, Fig. 11).
    pub fn max_row_nnz(&self) -> usize {
        (0..self.rows).map(|i| self.row_nnz(i)).max().unwrap_or(0)
    }

    /// Approximate equality against another CSR: identical structure and
    /// per-entry `abs_diff` below `tol`. Exact types (`i64`) should use
    /// `==` instead.
    pub fn approx_eq(&self, other: &Csr<T>, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
            && self.values.iter().zip(&other.values).all(|(&a, &b)| a.abs_diff(b) <= tol)
    }
}

/// Structural invariant checks shared by `from_parts` and `validate`:
/// pointer length and monotonicity, index bounds, and strictly increasing
/// column ids within each row.
fn check_structure(
    rows: usize,
    cols: usize,
    row_ptr: &[usize],
    col_idx: &[Index],
    num_values: usize,
) -> Result<(), FormatError> {
    if row_ptr.len() != rows + 1 {
        return Err(FormatError::PointerLength { expected: rows + 1, actual: row_ptr.len() });
    }
    if col_idx.len() != num_values {
        return Err(FormatError::ArrayLengthMismatch {
            indices: col_idx.len(),
            values: num_values,
        });
    }
    if row_ptr[0] != 0 {
        return Err(FormatError::MalformedPointers { at: 0 });
    }
    for i in 0..rows {
        if row_ptr[i] > row_ptr[i + 1] {
            return Err(FormatError::MalformedPointers { at: i + 1 });
        }
    }
    if row_ptr[rows] != col_idx.len() {
        return Err(FormatError::MalformedPointers { at: rows });
    }
    for i in 0..rows {
        check_row_indices(i, cols, &col_idx[row_ptr[i]..row_ptr[i + 1]])?;
    }
    Ok(())
}

/// Checks one row's column ids: in bounds and **strictly increasing**.
///
/// The single source of truth for the intra-row sortedness invariant.
/// CSR's `check_structure` and C²SR's `validate` both call it, so the
/// two formats cannot drift on what "sorted" means (strict — duplicates
/// are also rejected).
pub(crate) fn check_row_indices(
    outer: usize,
    bound: usize,
    col_idx: &[Index],
) -> Result<(), FormatError> {
    let mut prev: Option<Index> = None;
    for &c in col_idx {
        if c as usize >= bound {
            return Err(FormatError::IndexOutOfBounds { axis: "column", index: c as usize, bound });
        }
        if let Some(p) = prev {
            if c <= p {
                return Err(FormatError::UnsortedIndices { outer });
            }
        }
        prev = Some(c);
    }
    Ok(())
}

/// Shared counting-sort transpose used by `to_csc` and `transpose`.
fn transpose_arrays<T: Scalar>(
    rows: usize,
    cols: usize,
    row_ptr: &[usize],
    col_idx: &[Index],
    values: &[T],
) -> (Vec<usize>, Vec<Index>, Vec<T>) {
    let nnz = col_idx.len();
    let mut out_ptr = vec![0usize; cols + 1];
    for &c in col_idx {
        out_ptr[c as usize + 1] += 1;
    }
    for j in 0..cols {
        out_ptr[j + 1] += out_ptr[j];
    }
    let mut cursor = out_ptr.clone();
    let mut out_idx = vec![0 as Index; nnz];
    let mut out_val = vec![T::ZERO; nnz];
    for i in 0..rows {
        for k in row_ptr[i]..row_ptr[i + 1] {
            let c = col_idx[k] as usize;
            let dst = cursor[c];
            cursor[c] += 1;
            out_idx[dst] = i as Index;
            out_val[dst] = values[k];
        }
    }
    (out_ptr, out_idx, out_val)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr<f64> {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        Csr::from_parts(3, 3, vec![0, 2, 2, 4], vec![0, 2, 0, 1], vec![1.0, 2.0, 3.0, 4.0])
            .expect("valid")
    }

    #[test]
    fn getters_and_lookup() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.get(2, 1), Some(4.0));
        assert_eq!(m.get(1, 1), None);
        assert_eq!(m.get(9, 9), None);
    }

    #[test]
    fn row_iteration_is_sorted() {
        let m = sample();
        let r0: Vec<_> = m.row(0).collect();
        assert_eq!(r0, vec![(0, 1.0), (2, 2.0)]);
    }

    #[test]
    fn validation_rejects_bad_pointers() {
        let e = Csr::<f64>::from_parts(2, 2, vec![0, 2], vec![0, 1], vec![1.0, 1.0]);
        assert!(matches!(e, Err(FormatError::PointerLength { .. })));
        let e = Csr::<f64>::from_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]);
        assert!(matches!(e, Err(FormatError::MalformedPointers { .. })));
        let e = Csr::<f64>::from_parts(2, 2, vec![1, 1, 2], vec![0, 1], vec![1.0, 1.0]);
        assert!(matches!(e, Err(FormatError::MalformedPointers { at: 0 })));
    }

    #[test]
    fn validation_rejects_unsorted_or_duplicate_columns() {
        let e = Csr::<f64>::from_parts(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 1.0]);
        assert!(matches!(e, Err(FormatError::UnsortedIndices { outer: 0 })));
        let e = Csr::<f64>::from_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]);
        assert!(matches!(e, Err(FormatError::UnsortedIndices { outer: 0 })));
    }

    #[test]
    fn validation_rejects_out_of_range_columns() {
        let e = Csr::<f64>::from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]);
        assert!(matches!(e, Err(FormatError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(0, 2), Some(3.0));
        assert_eq!(t.get(2, 0), Some(2.0));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn csc_matches_transpose_structure() {
        let m = sample();
        let csc = m.to_csc();
        assert_eq!(csc.nnz(), m.nnz());
        let col0: Vec<_> = csc.col(0).collect();
        assert_eq!(col0, vec![(0, 1.0), (2, 3.0)]);
    }

    #[test]
    fn identity_times_behaviour() {
        let eye = Csr::<i64>::identity(4);
        assert_eq!(eye.nnz(), 4);
        assert_eq!(eye.density(), 4.0 / 16.0);
        assert_eq!(eye.mean_row_nnz(), 1.0);
    }

    #[test]
    fn coo_round_trip_preserves_matrix() {
        let m = sample();
        let back = m.to_coo().compress();
        assert_eq!(back, m);
    }

    #[test]
    fn approx_eq_tolerates_small_differences() {
        let m = sample();
        let mut vals = m.values().to_vec();
        vals[0] += 1e-12;
        let m2 = Csr::from_parts(3, 3, m.row_ptr().to_vec(), m.col_idx().to_vec(), vals).unwrap();
        assert!(m.approx_eq(&m2, 1e-9));
        assert!(!m.approx_eq(&m2, 1e-15));
    }

    #[test]
    fn zero_matrix() {
        let z = Csr::<f64>::zero(4, 7);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.max_row_nnz(), 0);
        assert_eq!(z.to_dense().iter_nonzero().count(), 0);
    }
}
