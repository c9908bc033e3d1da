//! Sparse matrix formats and reference SpGEMM algorithms for the MatRaptor
//! reproduction.
//!
//! This crate provides everything the accelerator model needs from the
//! "software" side of the paper:
//!
//! * the classic formats — [`Coo`], [`Csr`], [`Csc`], plus a [`Dense`]
//!   oracle — and the paper's hardware-friendly **C²SR** format ([`C2sr`],
//!   Section III of the paper);
//! * reference SpGEMM algorithms for all four dataflows of Section II
//!   (inner, outer, row-wise/Gustavson, column-wise) in [`spgemm`];
//! * the analytic dataflow cost model of Section II in [`dataflow`];
//! * deterministic matrix generators, including synthetic stand-ins for the
//!   SuiteSparse matrices of Table II, in [`gen`].
//!
//! # Example
//!
//! ```rust
//! use matraptor_sparse::{gen, spgemm};
//!
//! // A small power-law matrix, squared with the reference row-wise product.
//! let a = gen::rmat(1000, 8000, gen::RmatParams::default(), 42);
//! let c = spgemm::gustavson(&a, &a);
//! assert_eq!(c.rows(), 1000);
//! assert!(c.nnz() > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod c2sr;
mod coo;
mod csc;
mod csr;
mod dense;
mod error;
mod scalar;
mod submatrix;

pub mod abft;
pub mod dataflow;
pub mod gen;
pub mod ops;
pub mod rng;
pub mod semiring;
pub mod spgemm;
pub mod stats;

pub use c2sr::{C2sr, C2srRow};
pub use coo::Coo;
pub use csc::Csc;
pub use csr::Csr;
pub use dense::Dense;
pub use error::{FormatError, SparseError};
pub use scalar::Scalar;
pub use submatrix::top_left;

/// Row/column index type used across all formats.
///
/// The matrices in the paper top out below 1M rows, so `u32` halves index
/// memory traffic relative to `usize` — which matters because the simulated
/// memory traffic of the accelerator is derived from these widths.
pub type Index = u32;
