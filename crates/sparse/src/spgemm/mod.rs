//! Reference SpGEMM algorithms for all four dataflows of Section II.
//!
//! | Paper dataflow (Fig. 1) | Function | Operand formats |
//! |---|---|---|
//! | (a) inner product | [`inner`] | CSR × CSC |
//! | (b) outer product | [`outer`] | CSC × CSR |
//! | (c) row-wise product (Gustavson) | [`gustavson`] | CSR × CSR |
//! | (d) column-wise product | [`column_wise`] | CSC × CSC |
//!
//! [`gustavson`] is the ground truth the accelerator model is checked
//! against; [`dense_accumulator`], [`hash_accumulator`] and [`heap_merge`]
//! are the software variants CPU/GPU libraries use and back the baselines'
//! operation counts. Every algorithm has a `*_with_stats` twin that also
//! returns an [`OpStats`] — the raw material for the dataflow comparison of
//! Section II and the roofline of Fig. 7.

mod column;
mod dense_acc;
mod gustavson;
mod hash;
mod heap;
mod inner;
mod outer;

pub use column::{column_wise, column_wise_with_stats};
pub use dense_acc::{dense_accumulator, dense_accumulator_with_stats};
pub use gustavson::{gustavson, gustavson_with_stats, try_gustavson, try_gustavson_with_stats};
pub use hash::{hash_accumulator, hash_accumulator_with_stats};
pub use heap::{heap_merge, try_heap_merge, try_heap_merge_with_stats};
pub use inner::{inner, inner_with_stats, try_inner, try_inner_with_stats};
pub use outer::{outer, outer_with_stats, try_outer, try_outer_with_stats};

use crate::{Csr, Scalar, SparseError};

/// Shared conformability check for the `try_*` kernels: `left * right` is
/// only defined when `left.cols == right.rows`.
pub(crate) fn check_conformable(
    left: (usize, usize),
    right: (usize, usize),
) -> Result<(), SparseError> {
    if left.1 != right.0 {
        return Err(SparseError::DimensionMismatch { left, right });
    }
    Ok(())
}

/// Operation counts collected by the `*_with_stats` kernel variants.
///
/// These counts drive the Section II dataflow comparison (`dataflow`
/// module) and the roofline's operation-intensity axis: the paper counts a
/// MAC as two operations (multiply + add), so total ops =
/// `multiplies + additions`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Scalar multiplications performed (useful work).
    pub multiplies: u64,
    /// Scalar additions performed while accumulating partial sums.
    pub additions: u64,
    /// Index comparisons that did *not* produce a MAC — the inner-product
    /// dataflow's wasted index-matching work (Section II-A).
    pub index_comparisons: u64,
    /// Partial-sum entries materialised before merging — the outer-product
    /// dataflow's on-chip memory pressure (Section II-B).
    pub partial_sum_entries: u64,
    /// Non-zeros in the final output.
    pub output_nnz: u64,
}

impl OpStats {
    /// Total arithmetic operations, paper-style (MAC = 2 ops).
    pub fn total_ops(&self) -> u64 {
        self.multiplies + self.additions
    }
}

/// Number of scalar multiplications row-wise SpGEMM performs for `a * b`:
/// `Σ_i Σ_{k ∈ row i of A} nnz(B[k,:])`.
///
/// This is the "useful flops" figure used for operation intensity in the
/// roofline evaluation (Fig. 7) and for the paper's
/// `O(nnz·nnz/N)` SpGEMM-cost claim in Section VII.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn multiply_count<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> u64 {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut flops = 0u64;
    for i in 0..a.rows() {
        for (k, _) in a.row(i) {
            flops += b.row_nnz(k as usize) as u64;
        }
    }
    flops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// All dataflows must agree with the dense oracle on the same input.
    #[test]
    fn all_dataflows_agree_with_dense_oracle() {
        let a = gen::uniform(30, 40, 150, 7).to_dense().to_csr();
        let b = gen::uniform(40, 25, 160, 8);
        let oracle = a.to_dense().matmul(&b.to_dense()).to_csr();

        assert!(gustavson(&a, &b).approx_eq(&oracle, 1e-9), "gustavson");
        assert!(dense_accumulator(&a, &b).approx_eq(&oracle, 1e-9), "dense_acc");
        assert!(heap_merge(&a, &b).approx_eq(&oracle, 1e-9), "heap");
        assert!(inner(&a, &b.to_csc()).approx_eq(&oracle, 1e-9), "inner");
        assert!(outer(&a.to_csc(), &b).approx_eq(&oracle, 1e-9), "outer");
        assert!(
            column_wise(&a.to_csc(), &b.to_csc()).to_csr().approx_eq(&oracle, 1e-9),
            "column-wise"
        );
    }

    #[test]
    fn exact_agreement_on_integer_matrices() {
        // i64 arithmetic is exact, so all algorithms must agree bit-for-bit.
        let a = gen::rmat_with(64, 400, gen::RmatParams::default(), 3, |rng| {
            *[-3i64, -2, -1, 1, 2, 3].get(rng.gen_range(0..6usize)).unwrap()
        });
        let b = gen::rmat_with(64, 380, gen::RmatParams::default(), 5, |rng| {
            *[-3i64, -2, -1, 1, 2, 3].get(rng.gen_range(0..6usize)).unwrap()
        });
        let reference = gustavson(&a, &b);
        assert_eq!(dense_accumulator(&a, &b), reference);
        assert_eq!(heap_merge(&a, &b), reference);
        assert_eq!(inner(&a, &b.to_csc()), reference);
        assert_eq!(outer(&a.to_csc(), &b), reference);
        assert_eq!(column_wise(&a.to_csc(), &b.to_csc()).to_csr(), reference);
    }

    #[test]
    fn multiply_count_matches_stats() {
        let a = gen::uniform(50, 50, 300, 1);
        let (_, stats) = gustavson_with_stats(&a, &a);
        assert_eq!(stats.multiplies, multiply_count(&a, &a));
    }

    #[test]
    fn inner_product_does_wasted_index_matching() {
        // The paper's Section II-A claim: inner product performs many index
        // comparisons that yield no MAC.
        let a = gen::uniform(60, 60, 240, 9);
        let (_, stats) = inner_with_stats(&a, &a.to_csc());
        assert!(
            stats.index_comparisons > stats.multiplies,
            "expected wasted comparisons: {stats:?}"
        );
    }

    #[test]
    fn outer_product_materialises_partials() {
        // Section II-B: partial-sum volume equals the multiply count, and
        // both exceed the final output size when rows collide.
        let a = gen::uniform(60, 60, 300, 11);
        let (c, stats) = outer_with_stats(&a.to_csc(), &a);
        assert_eq!(stats.partial_sum_entries, stats.multiplies);
        assert!(stats.partial_sum_entries >= c.nnz() as u64);
    }
}
