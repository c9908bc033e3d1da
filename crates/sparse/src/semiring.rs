//! Semiring element types: graph algorithms as matrix algebra.
//!
//! [`crate::Scalar`]'s contract — an additive identity [`Scalar::ZERO`]
//! that sparse storage elides, a multiplicative identity, and associative
//! `add`/`mul` — is exactly a *semiring*, the algebraic setting in which
//! the paper's motivating graph algorithms (all-pairs shortest paths,
//! cycle detection, peer-pressure clustering; Section I) become matrix
//! multiplications. This module adds the two classic non-arithmetic
//! instances, making **every SpGEMM kernel in [`crate::spgemm`] a graph
//! engine**:
//!
//! * `bool` — the Boolean semiring `(∨, ∧)`: `A·A` computes 2-hop
//!   reachability, iterated squaring the transitive closure;
//! * [`Tropical`] — the min-plus semiring `(min, +)`: `A·A` relaxes
//!   shortest paths, `A^N` is all-pairs shortest paths.
//!
//! The simulated hardware datapath is an IEEE multiply-adder, so these
//! semirings run on the *software* kernels; supporting them in the PE
//! would be a small ALU swap the paper leaves as future work.
//!
//! [`Scalar::ZERO`]: crate::Scalar::ZERO

use std::cmp::Ordering;
use std::fmt;

use crate::Scalar;

impl Scalar for bool {
    /// `false` — the ∨ identity; absent edges.
    const ZERO: Self = false;
    /// `true` — the ∧ identity.
    const ONE: Self = true;

    #[inline]
    fn add(self, rhs: Self) -> Self {
        self || rhs
    }

    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self && rhs
    }

    #[inline]
    fn abs_diff(self, rhs: Self) -> f64 {
        if self == rhs {
            0.0
        } else {
            1.0
        }
    }
}

/// An element of the tropical (min-plus) semiring: a path length.
///
/// `add` is `min` (choosing the shorter path), `mul` is `+` (concatenating
/// path segments); the additive identity is `+∞` (no path), elided by the
/// sparse formats, and the multiplicative identity is `0` (the empty
/// path).
///
/// # Example
///
/// ```rust
/// use matraptor_sparse::semiring::Tropical;
/// use matraptor_sparse::Scalar;
///
/// let a = Tropical(3.0);
/// let b = Tropical(5.0);
/// assert_eq!(a.add(b), Tropical(3.0));  // min
/// assert_eq!(a.mul(b), Tropical(8.0));  // +
/// assert!(Tropical::ZERO.is_zero());    // +inf = "no path"
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Tropical(pub f64);

impl Tropical {
    /// No path.
    pub const INFINITY: Tropical = Tropical(f64::INFINITY);
}

impl fmt::Display for Tropical {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            write!(f, "∞")
        }
    }
}

impl Scalar for Tropical {
    /// `+∞` — the `min` identity; "no path".
    const ZERO: Self = Tropical(f64::INFINITY);
    /// `0` — the `+` identity; the empty path.
    const ONE: Self = Tropical(0.0);

    #[inline]
    fn add(self, rhs: Self) -> Self {
        match self.0.partial_cmp(&rhs.0) {
            Some(Ordering::Less) | Some(Ordering::Equal) | None => self,
            Some(Ordering::Greater) => rhs,
        }
    }

    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Tropical(self.0 + rhs.0)
    }

    #[inline]
    fn abs_diff(self, rhs: Self) -> f64 {
        if self.0.is_infinite() && rhs.0.is_infinite() {
            0.0
        } else {
            (self.0 - rhs.0).abs()
        }
    }

    #[inline]
    fn is_zero(self) -> bool {
        self.0.is_infinite() && self.0 > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spgemm, Coo, Csr};

    /// Boolean adjacency matrix of a 4-node path 0→1→2→3.
    fn path_graph() -> Csr<bool> {
        let mut coo = Coo::new(4, 4);
        coo.push(0, 1, true);
        coo.push(1, 2, true);
        coo.push(2, 3, true);
        coo.compress()
    }

    #[test]
    fn boolean_square_is_two_hop_reachability() {
        let a = path_graph();
        let a2 = spgemm::gustavson(&a, &a);
        assert_eq!(a2.get(0, 2), Some(true));
        assert_eq!(a2.get(1, 3), Some(true));
        assert_eq!(a2.get(0, 1), None, "one-hop edges are not 2-hop paths");
        assert_eq!(a2.nnz(), 2);
    }

    #[test]
    fn boolean_semiring_laws() {
        for a in [false, true] {
            assert_eq!(bool::ZERO.add(a), a);
            assert_eq!(bool::ONE.mul(a), a);
            assert!(!bool::ZERO.mul(a));
            for b in [false, true] {
                assert_eq!(a.add(b), b.add(a));
                assert_eq!(a.mul(b), b.mul(a));
            }
        }
    }

    #[test]
    fn tropical_square_relaxes_shortest_paths() {
        // Weighted digraph: 0→1 (2), 1→2 (3), 0→2 (10).
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, Tropical(2.0));
        coo.push(1, 2, Tropical(3.0));
        coo.push(0, 2, Tropical(10.0));
        let a = coo.compress();
        let a2 = spgemm::gustavson(&a, &a);
        // The two-hop path 0→1→2 costs 5 < the direct 10 — but A·A holds
        // only *exactly-two-hop* paths; (A + I)² holds paths of length ≤ 2.
        assert_eq!(a2.get(0, 2), Some(Tropical(5.0)));
        let a_plus_i = crate::ops::add(&a, &Csr::identity(3));
        let closure = spgemm::gustavson(&a_plus_i, &a_plus_i);
        assert_eq!(closure.get(0, 2), Some(Tropical(5.0)));
        assert_eq!(closure.get(0, 1), Some(Tropical(2.0)));
    }

    #[test]
    fn tropical_identities() {
        let x = Tropical(7.0);
        assert_eq!(Tropical::ZERO.add(x), x);
        assert_eq!(Tropical::ONE.mul(x), x);
        assert!(Tropical::ZERO.mul(x).is_zero(), "inf + 7 = inf");
    }

    #[test]
    fn all_kernels_agree_on_boolean_inputs() {
        use crate::gen;
        let a = gen::rmat_with(64, 320, gen::RmatParams::default(), 5, |_| true);
        let reference = spgemm::gustavson(&a, &a);
        assert_eq!(spgemm::dense_accumulator(&a, &a), reference);
        assert_eq!(spgemm::heap_merge(&a, &a), reference);
        assert_eq!(spgemm::hash_accumulator(&a, &a), reference);
        assert_eq!(spgemm::outer(&a.to_csc(), &a), reference);
        assert_eq!(spgemm::inner(&a, &a.to_csc()), reference);
    }

    #[test]
    fn tropical_display() {
        assert_eq!(Tropical(2.5).to_string(), "2.5");
        assert_eq!(Tropical::INFINITY.to_string(), "∞");
    }
}
