//! A job's operand pair, checked once: the host lays out and hands over
//! a job's operands once, then starts the accelerator (Section V).

use std::ops::Deref;

use matraptor_sim::watchdog::mix_signature;
use matraptor_sparse::{spgemm, Csr};

use crate::error::OperandError;

/// A validated operand pair `(A, B)` with what every run derives from it:
/// the multiply count and the fingerprints. Its constructor is the only
/// place operands are checked, and every run starts from one, so no
/// dispatch, slice or resume checks, counts or hashes them again. `M` is
/// the handle the operands are held by (`&Csr`, `Rc<Csr>` or `Arc<Csr>`);
/// cloning the pair clones the handles, never the matrices.
#[derive(Debug, Clone)]
pub struct Operands<M> {
    a: M,
    b: M,
    flops: u64,
    /// The A and B fingerprints, the operand identity a checkpoint carries.
    fingerprints: [u64; 2],
}

impl<M: Deref<Target = Csr<f64>>> Operands<M> {
    /// Checks the pair — inner dimensions, then [`Csr::validate`] on A and
    /// on B (structure and finite values) — and derives its multiply count
    /// and fingerprints.
    ///
    /// # Errors
    ///
    /// The first [`OperandError`] found.
    pub fn new(a: M, b: M) -> Result<Self, OperandError> {
        if a.cols() != b.rows() {
            return Err(OperandError::InnerDimensionMismatch {
                a_cols: a.cols(),
                b_rows: b.rows(),
            });
        }
        for (operand, m) in [("A", &*a), ("B", &*b)] {
            m.validate().map_err(|error| OperandError::Malformed { operand, error })?;
        }
        let flops = spgemm::multiply_count(&a, &b);
        let fingerprints = [fingerprint_matrix(&a), fingerprint_matrix(&b)];
        Ok(Operands { a, b, flops, fingerprints })
    }

    /// The left operand.
    pub fn a(&self) -> &Csr<f64> {
        &self.a
    }

    /// The right operand.
    pub fn b(&self) -> &Csr<f64> {
        &self.b
    }

    /// Scalar multiplies of the row-wise product
    /// ([`spgemm::multiply_count`]).
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Fingerprint of the pair — the input identity the service layer's
    /// poison-job quarantine keys on. It is built from the per-matrix
    /// fingerprints a checkpoint carries, so two pairs collide exactly
    /// when a checkpoint taken under one would resume under the other:
    /// same shapes, same structure, same value bits.
    pub fn fingerprint(&self) -> u64 {
        mix_signature(self.fingerprints[0], self.fingerprints[1])
    }

    /// The A and B fingerprints a checkpoint carries.
    pub(crate) fn matrix_fingerprints(&self) -> [u64; 2] {
        self.fingerprints
    }
}

/// Fingerprint of an operand matrix: shape plus every structural index
/// and raw value bit, so a resume against even a one-ulp-different
/// operand is rejected.
fn fingerprint_matrix(m: &Csr<f64>) -> u64 {
    let mut s = mix_signature(0, m.rows() as u64);
    s = mix_signature(s, m.cols() as u64);
    s = mix_signature(s, m.nnz() as u64);
    for &p in m.row_ptr() {
        s = mix_signature(s, p as u64);
    }
    for &c in m.col_idx() {
        s = mix_signature(s, c as u64);
    }
    for &v in m.values() {
        s = mix_signature(s, v.to_bits());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use matraptor_sparse::{gen, SparseError};

    #[test]
    fn a_pair_is_checked_counted_and_fingerprinted_once() {
        let (a, b) = (gen::uniform(24, 30, 120, 1), gen::uniform(30, 24, 120, 2));
        let ops = Operands::new(&a, &b).expect("valid operands");
        assert_eq!(ops.flops(), spgemm::multiply_count(&a, &b));
        let [fa, fb] = ops.matrix_fingerprints();
        assert_eq!((fa, fb), (fingerprint_matrix(&a), fingerprint_matrix(&b)));
        assert_eq!(ops.fingerprint(), mix_signature(fa, fb));
        assert_ne!(ops.fingerprint(), Operands::new(&b, &a).unwrap().fingerprint());
    }

    #[test]
    fn refusals_name_the_shapes_or_the_operand() {
        let a = gen::uniform(8, 9, 20, 3);
        assert_eq!(
            Operands::new(&a, &a).err(),
            Some(OperandError::InnerDimensionMismatch { a_cols: 9, b_rows: 8 })
        );
        let b = gen::uniform(9, 4, 12, 4);
        let mut values = b.values().to_vec();
        values[2] = f64::NAN;
        let (ptr, idx) = (b.row_ptr().to_vec(), b.col_idx().to_vec());
        let nan = Csr::from_parts(9, 4, ptr, idx, values).expect("structurally valid");
        assert!(matches!(
            Operands::new(&a, &nan),
            Err(OperandError::Malformed {
                operand: "B",
                error: SparseError::NonFiniteValue { .. }
            })
        ));
    }
}
