//! Dense linear-algebra substrate for the `tileqr` workspace.
//!
//! This crate provides the storage and element-wise machinery that the tiled
//! QR kernels are built on:
//!
//! * [`Matrix`] — an owned, column-major dense matrix generic over
//!   [`Scalar`] (`f32`/`f64`),
//! * BLAS-like operations ([`ops`]) — `gemm`, triangular solves, norms,
//! * a tiled layout ([`TiledMatrix`]) that splits a matrix into square tiles
//!   as required by tiled QR decomposition,
//! * deterministic workload generators ([`gen`]) used by tests, examples and
//!   the benchmark harness.
//!
//! Everything is written from scratch: no BLAS/LAPACK bindings are used
//! anywhere in the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dense;
mod error;
pub mod gen;
pub mod ops;
pub mod rng;
mod scalar;
mod tiled;

pub use dense::Matrix;
pub use error::MatrixError;
pub use rng::Rng64;
pub use scalar::Scalar;
pub use tiled::TiledMatrix;

/// Convenient result alias for fallible matrix operations.
pub type Result<T> = std::result::Result<T, MatrixError>;
