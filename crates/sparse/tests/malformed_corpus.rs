//! Malformed-matrix corpus: every class of invalid CSR input the driver
//! boundary must reject, exercised through `Csr::from_parts` (construction
//! from untrusted parts) and `Csr::validate` (revalidation of an existing
//! matrix, including the finiteness scan that construction does not run).

use matraptor_sparse::{check_c2sr_pointers, C2srRow, Csr, SparseError};

/// A well-formed 3x4 matrix used as the starting point for the corpus.
fn good_parts() -> (usize, usize, Vec<usize>, Vec<u32>, Vec<f64>) {
    (3, 4, vec![0, 2, 2, 4], vec![0, 2, 1, 3], vec![1.0, 2.0, 3.0, 4.0])
}

fn good() -> Csr<f64> {
    let (r, c, ptr, idx, val) = good_parts();
    Csr::from_parts(r, c, ptr, idx, val).expect("corpus baseline is well-formed")
}

#[test]
fn baseline_is_accepted_by_both_paths() {
    let m = good();
    assert_eq!(m.validate(), Ok(()));
}

#[test]
fn pointer_array_of_wrong_length_is_rejected() {
    let (r, c, _, idx, val) = good_parts();
    let err = Csr::from_parts(r, c, vec![0, 2, 4], idx, val).unwrap_err();
    assert_eq!(err, SparseError::PointerLength { expected: 4, actual: 3 });
}

#[test]
fn non_monotone_row_pointers_are_rejected() {
    let (r, c, _, idx, val) = good_parts();
    let err = Csr::from_parts(r, c, vec![0, 3, 2, 4], idx, val).unwrap_err();
    assert_eq!(err, SparseError::MalformedPointers { at: 2 });
}

#[test]
fn pointers_not_starting_at_zero_are_rejected() {
    let (r, c, _, idx, val) = good_parts();
    let err = Csr::from_parts(r, c, vec![1, 2, 2, 4], idx, val).unwrap_err();
    assert_eq!(err, SparseError::MalformedPointers { at: 0 });
}

#[test]
fn pointers_not_ending_at_nnz_are_rejected() {
    let (r, c, _, idx, val) = good_parts();
    let err = Csr::from_parts(r, c, vec![0, 2, 2, 3], idx, val).unwrap_err();
    assert_eq!(err, SparseError::MalformedPointers { at: 3 });
}

#[test]
fn out_of_range_column_id_is_rejected() {
    let (r, c, ptr, _, val) = good_parts();
    let err = Csr::from_parts(r, c, ptr, vec![0, 2, 1, 7], val).unwrap_err();
    assert_eq!(err, SparseError::IndexOutOfBounds { axis: "column", index: 7, bound: 4 });
}

#[test]
fn duplicate_or_unsorted_columns_within_a_row_are_rejected() {
    let (r, c, ptr, _, val) = good_parts();
    let dup = Csr::from_parts(r, c, ptr.clone(), vec![0, 0, 1, 3], val.clone()).unwrap_err();
    assert_eq!(dup, SparseError::UnsortedIndices { outer: 0 });
    let unsorted = Csr::from_parts(r, c, ptr, vec![2, 0, 1, 3], val).unwrap_err();
    assert_eq!(unsorted, SparseError::UnsortedIndices { outer: 0 });
}

#[test]
fn index_value_length_mismatch_is_rejected() {
    let (r, c, ptr, idx, _) = good_parts();
    let err = Csr::from_parts(r, c, ptr, idx, vec![1.0, 2.0, 3.0]).unwrap_err();
    assert_eq!(err, SparseError::ArrayLengthMismatch { indices: 4, values: 3 });
}

#[test]
fn nan_value_is_structurally_valid_but_fails_validate() {
    let (r, c, ptr, idx, mut val) = good_parts();
    val[2] = f64::NAN;
    // NaN is structurally fine — construction accepts it...
    let m = Csr::from_parts(r, c, ptr, idx, val).expect("NaN passes structural checks");
    // ...but the driver-boundary revalidation rejects it with its location.
    assert_eq!(m.validate(), Err(SparseError::NonFiniteValue { row: 2, col: 1 }));
}

#[test]
fn infinities_fail_validate() {
    for bad in [f64::INFINITY, f64::NEG_INFINITY] {
        let (r, c, ptr, idx, mut val) = good_parts();
        val[0] = bad;
        let m = Csr::from_parts(r, c, ptr, idx, val).expect("inf passes structural checks");
        assert_eq!(m.validate(), Err(SparseError::NonFiniteValue { row: 0, col: 0 }));
    }
}

#[test]
fn validate_reports_first_non_finite_entry_in_row_major_order() {
    let (r, c, ptr, idx, mut val) = good_parts();
    val[1] = f64::NAN;
    val[3] = f64::INFINITY;
    let m = Csr::from_parts(r, c, ptr, idx, val).expect("structurally fine");
    assert_eq!(m.validate(), Err(SparseError::NonFiniteValue { row: 0, col: 2 }));
}

#[test]
fn integer_matrices_are_always_finite() {
    let (r, c, ptr, idx, _) = good_parts();
    let m: Csr<i64> = Csr::from_parts(r, c, ptr, idx, vec![1, 2, 3, 4]).unwrap();
    assert_eq!(m.validate(), Ok(()));
}

#[test]
fn c2sr_pointers_out_of_channel_order_fail_the_check() {
    // The accelerator checks its lanes' output streams with the pointer
    // rule `C2sr::validate` uses: over one channel, rows 0 and 1 appended
    // in the wrong order, then a channel with an entry no row accounts for.
    let swapped = [C2srRow { len: 1, offset: 2 }, C2srRow { len: 2, offset: 0 }];
    assert_eq!(check_c2sr_pointers(&swapped, &[3]), Err(SparseError::MalformedPointers { at: 0 }));
    let rows = [C2srRow { len: 2, offset: 0 }, C2srRow { len: 1, offset: 2 }];
    assert_eq!(check_c2sr_pointers(&rows, &[3]), Ok(()));
    assert_eq!(check_c2sr_pointers(&rows, &[4]), Err(SparseError::MalformedPointers { at: 0 }));
}

#[test]
fn empty_matrix_validates() {
    let m: Csr<f64> = Csr::from_parts(0, 0, vec![0], vec![], vec![]).unwrap();
    assert_eq!(m.validate(), Ok(()));
}
