//! Error type for format construction and conversion.

use std::error::Error;
use std::fmt;

/// Canonical error type of the sparse layer.
///
/// Returned when constructing a sparse format from untrusted parts, and by
/// the `try_*` SpGEMM kernel variants when operands don't conform.
///
/// Every format in this crate validates its structural invariants on
/// construction (`C-VALIDATE`): row pointers must be monotone, indices in
/// bounds, column ids sorted and unique within a row, and so on. The
/// simulator relies on those invariants — e.g. the PE merge logic assumes
/// each partial-sum vector arrives sorted by column id — so violations are
/// surfaced eagerly here rather than as mis-simulations later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SparseError {
    /// A row or column index is outside the matrix dimensions.
    IndexOutOfBounds {
        /// Kind of index ("row" or "column").
        axis: &'static str,
        /// The offending index value.
        index: usize,
        /// The exclusive bound it violated.
        bound: usize,
    },
    /// A row-pointer (or column-pointer) array is not monotonically
    /// non-decreasing, or does not start at 0 / end at nnz.
    MalformedPointers {
        /// Position in the pointer array where the violation occurred.
        at: usize,
    },
    /// The pointer array has the wrong length for the declared dimension.
    PointerLength {
        /// Expected length (`dim + 1`).
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// `col_idx` and `values` (or equivalents) have different lengths.
    ArrayLengthMismatch {
        /// Length of the index array.
        indices: usize,
        /// Length of the value array.
        values: usize,
    },
    /// Column ids within a row are not strictly increasing.
    UnsortedIndices {
        /// Row (or column, for CSC) where the violation occurred.
        outer: usize,
    },
    /// Two matrices have incompatible dimensions for the requested operation.
    DimensionMismatch {
        /// Dimensions of the left operand.
        left: (usize, usize),
        /// Dimensions of the right operand.
        right: (usize, usize),
    },
    /// A C²SR matrix declared zero channels.
    ZeroChannels,
    /// A stored value is NaN or ±∞. Rejected at the driver boundary
    /// because non-finite values poison the accelerator's merge
    /// comparisons and the reference cross-check.
    NonFiniteValue {
        /// Row holding the offending entry.
        row: usize,
        /// Column id of the offending entry.
        col: usize,
    },
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::IndexOutOfBounds { axis, index, bound } => {
                write!(f, "{axis} index {index} out of bounds (dimension {bound})")
            }
            SparseError::MalformedPointers { at } => {
                write!(f, "pointer array is not monotone at position {at}")
            }
            SparseError::PointerLength { expected, actual } => {
                write!(f, "pointer array has length {actual}, expected {expected}")
            }
            SparseError::ArrayLengthMismatch { indices, values } => {
                write!(f, "index array length {indices} does not match value array length {values}")
            }
            SparseError::UnsortedIndices { outer } => {
                write!(f, "indices not strictly increasing within row/column {outer}")
            }
            SparseError::DimensionMismatch { left, right } => {
                write!(f, "dimension mismatch: {}x{} vs {}x{}", left.0, left.1, right.0, right.1)
            }
            SparseError::ZeroChannels => write!(f, "C2SR requires at least one channel"),
            SparseError::NonFiniteValue { row, col } => {
                write!(f, "non-finite value at ({row}, {col})")
            }
        }
    }
}

impl Error for SparseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let msg = SparseError::ZeroChannels.to_string();
        assert!(!msg.starts_with(char::is_uppercase) || msg.starts_with("C2SR"));
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SparseError>();
    }

    #[test]
    fn display_mentions_offending_values() {
        let e = SparseError::IndexOutOfBounds { axis: "column", index: 9, bound: 4 };
        let msg = e.to_string();
        assert!(msg.contains('9') && msg.contains('4') && msg.contains("column"));
    }
}
