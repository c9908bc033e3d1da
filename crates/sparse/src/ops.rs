//! Element-wise sparse matrix operations.
//!
//! The SpGEMM applications the paper motivates — triangle counting, Markov
//! clustering, multigrid — all sandwich their matrix products between
//! element-wise steps (masking, normalisation, pruning). This module
//! provides those companions so the examples and downstream users don't
//! hand-roll COO rebuilds.

use crate::{Coo, Csr, Index, Scalar};

/// Element-wise sum `a + b`.
///
/// # Panics
///
/// Panics if the dimensions differ.
///
/// # Example
///
/// ```rust
/// use matraptor_sparse::{ops, Csr};
///
/// let eye = Csr::<f64>::identity(3);
/// let two = ops::add(&eye, &eye);
/// assert_eq!(two.get(1, 1), Some(2.0));
/// ```
pub fn add<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Csr<T> {
    zip_union(a, b, |x, y| x.add(y))
}

/// Masks `a` by the sparsity pattern of `mask`: keeps `a[i,j]` only where
/// `mask[i,j]` is structurally non-zero. This is the masked-SpGEMM
/// post-step of triangle counting (`(A·A) ⊙ A`).
///
/// # Panics
///
/// Panics if the dimensions differ.
pub fn mask<T: Scalar>(a: &Csr<T>, mask: &Csr<T>) -> Csr<T> {
    zip_intersection(a, mask, |x, _| x)
}

/// Applies `f` to every stored value, dropping entries that become zero.
pub fn map_values<T: Scalar, F: FnMut(T) -> T>(a: &Csr<T>, mut f: F) -> Csr<T> {
    let mut coo = Coo::new(a.rows(), a.cols());
    for (r, c, v) in a.iter() {
        let w = f(v);
        if !w.is_zero() {
            coo.push(r, c, w);
        }
    }
    coo.compress()
}

/// Keeps only the entries satisfying the predicate.
pub fn filter<T: Scalar, F: FnMut(Index, Index, T) -> bool>(a: &Csr<T>, mut keep: F) -> Csr<T> {
    let mut coo = Coo::new(a.rows(), a.cols());
    for (r, c, v) in a.iter() {
        if keep(r, c, v) {
            coo.push(r, c, v);
        }
    }
    coo.compress()
}

/// Scales every entry by `k`.
pub fn scale<T: Scalar>(a: &Csr<T>, k: T) -> Csr<T> {
    map_values(a, |v| v.mul(k))
}

/// Sum of the diagonal (for square or rectangular matrices, the
/// min-dimension diagonal).
pub fn trace<T: Scalar>(a: &Csr<T>) -> T {
    let n = a.rows().min(a.cols());
    (0..n).fold(T::ZERO, |acc, i| match a.get(i, i) {
        Some(v) => acc.add(v),
        None => acc,
    })
}

/// Makes every column sum to one (column-stochastic), dropping all-zero
/// columns — the normalisation step of Markov clustering.
pub fn normalize_columns(a: &Csr<f64>) -> Csr<f64> {
    let mut sums = vec![0.0f64; a.cols()];
    for (_, c, v) in a.iter() {
        sums[c as usize] += v;
    }
    let mut coo = Coo::new(a.rows(), a.cols());
    for (r, c, v) in a.iter() {
        if sums[c as usize] != 0.0 {
            coo.push(r, c, v / sums[c as usize]);
        }
    }
    coo.compress()
}

/// Merge by column over the union of patterns.
fn zip_union<T: Scalar>(a: &Csr<T>, b: &Csr<T>, f: impl Fn(T, T) -> T) -> Csr<T> {
    assert_eq!(
        (a.rows(), a.cols()),
        (b.rows(), b.cols()),
        "element-wise operands must have equal dimensions"
    );
    let mut coo = Coo::new(a.rows(), a.cols());
    for i in 0..a.rows() {
        let (ac, av) = a.row_slices(i);
        let (bc, bv) = b.row_slices(i);
        let (mut x, mut y) = (0, 0);
        while x < ac.len() && y < bc.len() {
            if ac[x] < bc[y] {
                coo.push(i as Index, ac[x], av[x]);
                x += 1;
            } else if ac[x] > bc[y] {
                coo.push(i as Index, bc[y], bv[y]);
                y += 1;
            } else {
                let v = f(av[x], bv[y]);
                if !v.is_zero() {
                    coo.push(i as Index, ac[x], v);
                }
                x += 1;
                y += 1;
            }
        }
        for k in x..ac.len() {
            coo.push(i as Index, ac[k], av[k]);
        }
        for k in y..bc.len() {
            coo.push(i as Index, bc[k], bv[k]);
        }
    }
    coo.compress()
}

/// Merge by column over the intersection of patterns.
fn zip_intersection<T: Scalar>(a: &Csr<T>, b: &Csr<T>, f: impl Fn(T, T) -> T) -> Csr<T> {
    assert_eq!(
        (a.rows(), a.cols()),
        (b.rows(), b.cols()),
        "element-wise operands must have equal dimensions"
    );
    let mut coo = Coo::new(a.rows(), a.cols());
    for i in 0..a.rows() {
        let (ac, av) = a.row_slices(i);
        let (bc, bv) = b.row_slices(i);
        let (mut x, mut y) = (0, 0);
        while x < ac.len() && y < bc.len() {
            match ac[x].cmp(&bc[y]) {
                std::cmp::Ordering::Less => x += 1,
                std::cmp::Ordering::Greater => y += 1,
                std::cmp::Ordering::Equal => {
                    let v = f(av[x], bv[y]);
                    if !v.is_zero() {
                        coo.push(i as Index, ac[x], v);
                    }
                    x += 1;
                    y += 1;
                }
            }
        }
    }
    coo.compress()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn sample() -> (Csr<i64>, Csr<i64>) {
        let a = Csr::from_parts(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1, 2, 3]).unwrap();
        let b = Csr::from_parts(2, 3, vec![0, 2, 3], vec![0, 1, 1], vec![10, 20, 30]).unwrap();
        (a, b)
    }

    #[test]
    fn add_unions_patterns() {
        let (a, b) = sample();
        let c = add(&a, &b);
        assert_eq!(c.get(0, 0), Some(11));
        assert_eq!(c.get(0, 1), Some(20));
        assert_eq!(c.get(0, 2), Some(2));
        assert_eq!(c.get(1, 1), Some(33));
        assert_eq!(c.nnz(), 4);
    }

    #[test]
    fn add_drops_exact_cancellation() {
        let a = Csr::from_parts(1, 1, vec![0, 1], vec![0], vec![5i64]).unwrap();
        let b = Csr::from_parts(1, 1, vec![0, 1], vec![0], vec![-5i64]).unwrap();
        assert_eq!(add(&a, &b).nnz(), 0);
    }

    #[test]
    fn mask_keeps_left_values() {
        let (a, b) = sample();
        let c = mask(&a, &b);
        assert_eq!(c.get(0, 0), Some(1));
        assert_eq!(c.get(1, 1), Some(3));
        assert_eq!(c.nnz(), 2);
    }

    #[test]
    fn map_filter_scale() {
        let (a, _) = sample();
        assert_eq!(scale(&a, 2).get(0, 2), Some(4));
        let doubled = map_values(&a, |v| v * 2);
        assert_eq!(doubled.get(1, 1), Some(6));
        let zeroed = map_values(&a, |_| 0);
        assert_eq!(zeroed.nnz(), 0);
        let only_row0 = filter(&a, |r, _, _| r == 0);
        assert_eq!(only_row0.nnz(), 2);
    }

    #[test]
    fn trace_of_identity() {
        let eye = Csr::<i64>::identity(5);
        assert_eq!(trace(&eye), 5);
        let (a, _) = sample();
        assert_eq!(trace(&a), 1 + 3); // (0,0)=1, (1,1)=3
    }

    #[test]
    fn column_normalisation_is_stochastic() {
        let m = gen::uniform(30, 20, 200, 5);
        let n = normalize_columns(&m);
        let mut sums = vec![0.0; n.cols()];
        for (_, c, v) in n.iter() {
            sums[c as usize] += v;
        }
        for (j, s) in sums.iter().enumerate() {
            if *s != 0.0 {
                assert!((s - 1.0).abs() < 1e-12, "column {j} sums to {s}");
            }
        }
    }

    #[test]
    fn add_is_commutative_and_associative_on_integers() {
        let a = gen::uniform_with(20, 20, 80, 7, |rng| rng.gen_range(1i64..10));
        let b = gen::uniform_with(20, 20, 90, 8, |rng| rng.gen_range(1i64..10));
        let c = gen::uniform_with(20, 20, 70, 9, |rng| rng.gen_range(1i64..10));
        assert_eq!(add(&a, &b), add(&b, &a));
        assert_eq!(add(&add(&a, &b), &c), add(&a, &add(&b, &c)));
    }

    #[test]
    #[should_panic(expected = "equal dimensions")]
    fn mismatched_dims_panic() {
        let a = Csr::<f64>::identity(2);
        let b = Csr::<f64>::identity(3);
        let _ = add(&a, &b);
    }
}
