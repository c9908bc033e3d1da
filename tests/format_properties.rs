//! Property-style tests on the sparse formats.
//!
//! The offline build cannot fetch `proptest`, so these run the same
//! properties as deterministic seeded sweeps: every case derives from
//! `matraptor::sparse::rng::ChaCha8Rng`, so a failure reproduces exactly
//! from the printed seed.

use matraptor::sparse::rng::ChaCha8Rng;
use matraptor::sparse::{gen, C2sr, Coo, Csr, SparseError};

const CASES: u64 = 64;

/// Case generator: arbitrary small COO triplet lists over an r×c matrix.
fn triplets(
    rng: &mut ChaCha8Rng,
    max_dim: usize,
    max_nnz: usize,
) -> (usize, usize, Vec<(u32, u32, i64)>) {
    let rows = rng.gen_range(1..max_dim);
    let cols = rng.gen_range(1..max_dim);
    let n = rng.gen_range(0..max_nnz);
    let entries = (0..n)
        .map(|_| {
            (
                rng.gen_range(0..rows as u32),
                rng.gen_range(0..cols as u32),
                rng.gen_range(-50i64..51),
            )
        })
        .collect();
    (rows, cols, entries)
}

#[test]
fn coo_compress_is_canonical() {
    for seed in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (rows, cols, entries) = triplets(&mut rng, 40, 120);
        let coo = Coo::from_triplets(rows, cols, entries).expect("in bounds");
        let csr = coo.compress();
        // Invariants checked by the validating constructor.
        let rebuilt = Csr::from_parts(
            csr.rows(),
            csr.cols(),
            csr.row_ptr().to_vec(),
            csr.col_idx().to_vec(),
            csr.values().to_vec(),
        );
        assert!(rebuilt.is_ok(), "seed {seed}");
        // Compressing twice is a fixed point.
        assert_eq!(csr.to_coo().compress(), csr, "seed {seed}");
    }
}

#[test]
fn coo_compress_sums_by_coordinate() {
    for seed in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_0001);
        let (rows, cols, entries) = triplets(&mut rng, 20, 80);
        let coo = Coo::from_triplets(rows, cols, entries.clone()).expect("in bounds");
        let csr = coo.compress();
        // The oracle: naive ordered-map accumulation.
        let mut expect = std::collections::BTreeMap::new();
        for (r, c, v) in entries {
            *expect.entry((r, c)).or_insert(0i64) += v;
        }
        expect.retain(|_, v| *v != 0);
        assert_eq!(csr.nnz(), expect.len(), "seed {seed}");
        for ((r, c), v) in expect {
            assert_eq!(csr.get(r as usize, c as usize), Some(v), "seed {seed}");
        }
    }
}

#[test]
fn csr_csc_round_trip() {
    for seed in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_0002);
        let (rows, cols, entries) = triplets(&mut rng, 40, 150);
        let csr = Coo::from_triplets(rows, cols, entries).expect("in bounds").compress();
        assert_eq!(csr.to_csc().to_csr(), csr, "seed {seed}");
    }
}

#[test]
fn transpose_is_involutive() {
    for seed in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_0003);
        let (rows, cols, entries) = triplets(&mut rng, 40, 150);
        let csr = Coo::from_triplets(rows, cols, entries).expect("in bounds").compress();
        assert_eq!(csr.transpose().transpose(), csr, "seed {seed}");
    }
}

#[test]
fn c2sr_round_trip_any_channel_count() {
    for seed in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_0004);
        let (rows, cols, entries) = triplets(&mut rng, 40, 150);
        let channels = rng.gen_range(1..12usize);
        let csr = Coo::from_triplets(rows, cols, entries).expect("in bounds").compress();
        let c2sr = C2sr::from_csr(&csr, channels);
        assert!(c2sr.validate().is_ok(), "seed {seed}");
        assert_eq!(c2sr.to_csr(), csr, "seed {seed}");
        // Channel nnz sums to total.
        let sum: usize = (0..channels).map(|ch| c2sr.channel_nnz(ch)).sum();
        assert_eq!(sum, c2sr.nnz(), "seed {seed}");
    }
}

#[test]
fn c2sr_rows_land_on_their_channels() {
    for seed in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_0005);
        let (rows, cols, entries) = triplets(&mut rng, 30, 100);
        let channels = rng.gen_range(1..9usize);
        let csr = Coo::from_triplets(rows, cols, entries).expect("in bounds").compress();
        let c2sr = C2sr::from_csr(&csr, channels);
        for i in 0..c2sr.rows() {
            assert_eq!(c2sr.channel_of(i), i % channels, "seed {seed}");
            // Row contents identical to CSR.
            let a: Vec<_> = csr.row(i).collect();
            let b: Vec<_> = c2sr.row(i).collect();
            assert_eq!(a, b, "seed {seed}");
        }
    }
}

#[test]
fn dense_round_trip() {
    for seed in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_0006);
        let (rows, cols, entries) = triplets(&mut rng, 24, 80);
        let csr = Coo::from_triplets(rows, cols, entries).expect("in bounds").compress();
        assert_eq!(csr.to_dense().to_csr(), csr, "seed {seed}");
    }
}

#[test]
fn top_left_is_a_restriction() {
    for seed in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_0007);
        let (rows, cols, entries) = triplets(&mut rng, 30, 100);
        let k = rng.gen_range(0..40usize);
        let csr = Coo::from_triplets(rows, cols, entries).expect("in bounds").compress();
        let tile = matraptor::sparse::top_left(&csr, k);
        assert_eq!(tile.rows(), k.min(csr.rows()), "seed {seed}");
        assert_eq!(tile.cols(), k.min(csr.cols()), "seed {seed}");
        for (r, c, v) in tile.iter() {
            assert_eq!(csr.get(r as usize, c as usize), Some(v), "seed {seed}");
        }
    }
}

#[test]
fn validating_constructor_rejects_garbage() {
    // A few deterministic malformed inputs.
    assert!(matches!(
        Csr::<f64>::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]),
        Err(SparseError::PointerLength { .. })
    ));
    assert!(matches!(
        Csr::<f64>::from_parts(1, 1, vec![0, 1], vec![0], vec![]),
        Err(SparseError::ArrayLengthMismatch { .. })
    ));
}

#[test]
fn generators_produce_valid_matrices() {
    for spec in gen::suite::table2() {
        let m = spec.generate(256, 11);
        // Rebuild through the validating constructor: structural proof.
        Csr::from_parts(
            m.rows(),
            m.cols(),
            m.row_ptr().to_vec(),
            m.col_idx().to_vec(),
            m.values().to_vec(),
        )
        .unwrap_or_else(|e| panic!("{} generated invalid CSR: {e}", spec.id));
    }
}
