//! Row-wise product using a k-way heap merge.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::OpStats;
use crate::{Csr, Index, Scalar, SparseError};

/// Multiplies `a * b` row-wise, merging the scaled B-rows of each output
/// row with a k-way min-heap keyed on column id.
///
/// This is the other standard software strategy (used by e.g. cuSPARSE's
/// ESC variants and Liu & Vinter's GPU merge path): instead of a dense
/// accumulator it keeps one cursor per contributing B-row and repeatedly
/// pops the minimum column. It is the closest *software* analogue to the
/// PE's min-column-id selection tree in Phase II (Fig. 5b), and backs the
/// GPU baseline's op counts.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn heap_merge<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Csr<T> {
    // conformance:allow(panic-safety): documented panic at the infallible convenience boundary
    try_heap_merge(a, b).unwrap_or_else(|e| panic!("heap_merge: {e}"))
}

/// Fallible [`heap_merge`]: returns [`SparseError::DimensionMismatch`]
/// instead of panicking on non-conformable operands.
#[must_use = "dropping the Result discards the product or the shape error"]
pub fn try_heap_merge<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Result<Csr<T>, SparseError> {
    Ok(try_heap_merge_with_stats(a, b)?.0)
}

/// [`try_heap_merge`] plus operation counts.
#[must_use = "dropping the Result discards the product or the shape error"]
pub fn try_heap_merge_with_stats<T: Scalar>(
    a: &Csr<T>,
    b: &Csr<T>,
) -> Result<(Csr<T>, OpStats), SparseError> {
    super::check_conformable((a.rows(), a.cols()), (b.rows(), b.cols()))?;
    let mut stats = OpStats::default();
    let mut row_ptr = vec![0usize; a.rows() + 1];
    let mut col_idx: Vec<Index> = Vec::new();
    let mut values: Vec<T> = Vec::new();

    // Heap of (col, cursor-id); cursor state held separately since T isn't Ord.
    let mut heap: BinaryHeap<Reverse<(Index, usize)>> = BinaryHeap::new();

    for i in 0..a.rows() {
        // One cursor per non-zero of A's row i: (scale, b_cols, b_vals, pos).
        let mut cursors: Vec<(T, &[Index], &[T], usize)> = Vec::new();
        for (k, a_ik) in a.row(i) {
            let (bc, bv) = b.row_slices(k as usize);
            if !bc.is_empty() {
                cursors.push((a_ik, bc, bv, 0));
            }
        }
        heap.clear();
        for (id, cur) in cursors.iter().enumerate() {
            heap.push(Reverse((cur.1[0], id)));
        }

        let mut current_col: Option<Index> = None;
        let mut current_val = T::ZERO;
        while let Some(Reverse((col, id))) = heap.pop() {
            let (scale, bc, bv, pos) = {
                let c = &mut cursors[id];
                let r = (c.0, c.1, c.2, c.3);
                c.3 += 1;
                r
            };
            stats.multiplies += 1;
            let prod = scale.mul(bv[pos]);
            match current_col {
                Some(cc) if cc == col => {
                    stats.additions += 1;
                    current_val = current_val.add(prod);
                }
                Some(cc) => {
                    if !current_val.is_zero() {
                        col_idx.push(cc);
                        values.push(current_val);
                    }
                    current_col = Some(col);
                    current_val = prod;
                }
                None => {
                    current_col = Some(col);
                    current_val = prod;
                }
            }
            if pos + 1 < bc.len() {
                heap.push(Reverse((bc[pos + 1], id)));
            }
        }
        if let Some(cc) = current_col {
            if !current_val.is_zero() {
                col_idx.push(cc);
                values.push(current_val);
            }
        }
        row_ptr[i + 1] = col_idx.len();
    }

    stats.output_nnz = col_idx.len() as u64;
    Ok((Csr::from_parts_unchecked(a.rows(), b.cols(), row_ptr, col_idx, values), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::spgemm::gustavson;

    #[test]
    fn agrees_with_gustavson_exactly_on_integers() {
        let a = gen::rmat_with(96, 700, gen::RmatParams::default(), 31, |rng| {
            *[-4i64, -3, -2, -1, 1, 2, 3, 4].get(rng.gen_range(0..8usize)).unwrap()
        });
        let b = gen::rmat_with(96, 650, gen::RmatParams::default(), 32, |rng| {
            *[-4i64, -3, -2, -1, 1, 2, 3, 4].get(rng.gen_range(0..8usize)).unwrap()
        });
        assert_eq!(heap_merge(&a, &b), gustavson(&a, &b));
    }

    #[test]
    fn single_row_merge_order() {
        // A = [1 1 1] over B whose rows have interleaved columns.
        let a = Csr::from_parts(1, 3, vec![0, 3], vec![0, 1, 2], vec![1.0; 3]).unwrap();
        let b = Csr::from_parts(
            3,
            6,
            vec![0, 2, 4, 6],
            vec![0, 3, 1, 4, 2, 5],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
        .unwrap();
        let c = heap_merge(&a, &b);
        let row: Vec<_> = c.row(0).collect();
        assert_eq!(row, vec![(0, 1.0), (1, 3.0), (2, 5.0), (3, 2.0), (4, 4.0), (5, 6.0)]);
    }

    #[test]
    fn duplicate_columns_accumulate() {
        let a = Csr::from_parts(1, 2, vec![0, 2], vec![0, 1], vec![2.0, 3.0]).unwrap();
        let b = Csr::from_parts(2, 1, vec![0, 1, 2], vec![0, 0], vec![10.0, 100.0]).unwrap();
        let c = heap_merge(&a, &b);
        assert_eq!(c.get(0, 0), Some(320.0));
    }

    #[test]
    fn multiplies_equal_flops() {
        let a = gen::uniform(30, 30, 150, 41);
        let (_, stats) = try_heap_merge_with_stats(&a, &a).expect("square operands");
        assert_eq!(stats.multiplies, crate::spgemm::multiply_count(&a, &a));
    }
}
