//! Structural statistics of sparse matrices: whether a matrix is
//! numerically symmetric, as an undirected graph's adjacency matrix is.

use crate::{Csr, Scalar};

/// Whether the matrix is numerically symmetric (within `tol`).
pub fn is_symmetric<T: Scalar>(m: &Csr<T>, tol: f64) -> bool {
    if m.rows() != m.cols() {
        return false;
    }
    let t = m.transpose();
    if t.row_ptr() != m.row_ptr() || t.col_idx() != m.col_idx() {
        return false;
    }
    m.values().iter().zip(t.values()).all(|(&a, &b)| a.abs_diff(b) <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn symmetry_detection() {
        let m = gen::uniform(40, 40, 160, 4);
        let sym = crate::ops::add(&m, &m.transpose());
        assert!(is_symmetric(&sym, 1e-12));
        assert!(!is_symmetric(&m, 1e-12), "random matrix should be asymmetric");
        let rect = gen::uniform(3, 4, 5, 5);
        assert!(!is_symmetric(&rect, 1e-12));
    }
}
