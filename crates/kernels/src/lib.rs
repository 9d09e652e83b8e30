//! Tile kernels for tiled QR decomposition.
//!
//! Implements, from scratch and in pure safe Rust, the four kernel families
//! of the paper (§II-B):
//!
//! | Paper step                 | LAPACK/PLASMA name | Function        |
//! |----------------------------|--------------------|-----------------|
//! | Triangulation (T)          | `GEQRT`            | [`geqrt_ws`]    |
//! | Update for triangulation (UT) | `UNMQR`         | [`unmqr_ws`]    |
//! | Elimination (E), TS flavour   | `TSQRT`         | [`tsqrt_ws`]    |
//! | Update for elimination (UE), TS flavour | `TSMQR` | [`tsmqr_apply_ws`] |
//! | Elimination (E), TT flavour   | `TTQRT`         | [`ttqrt_ws`]    |
//! | Update for elimination (UE), TT flavour | `TTMQR` | [`ttmqr_apply_ws`] |
//!
//! Conventions follow LAPACK's compact-WY representation: each elementary
//! reflector is `H = I − τ v vᵀ` with `v₀ = 1` stored implicitly, and a
//! block of `k` reflectors is `Q = I − V T Vᵀ` with `T` upper triangular
//! (the output of [`geqrt_ws`]/[`tsqrt_ws`]/[`ttqrt_ws`]).
//!
//! Every kernel has one entry point, the `*_ws` function: it writes its
//! `T` factor into a caller-provided tile, borrows all scratch from a
//! reusable [`Workspace`] arena and allocates nothing on the heap. A
//! caller that runs one kernel in isolation builds a `Workspace` for it;
//! anything that loops (the runtime's workers, `apply_q*_dense`) builds
//! one and reuses it.
//!
//! The crate also ships the paper's Algorithm 1 — plain unblocked
//! Householder QR — in [`mod@reference`], used as the ground truth by the test
//! suite, plus flop models ([`flops`]) and factorization validators
//! ([`validate`]).

// `deny` instead of `forbid`: the kernels are safe code except for the
// narrowly scoped, documented allows inside `micro/simd.rs` (the 512- or
// 256-bit vector core x86-64 hosts select by runtime detection). Everything
// else in the crate still refuses `unsafe` at compile time.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
mod factor;
pub mod flops;
mod geqrt;
mod householder;
pub mod micro;
pub mod reference;
mod tsqrt;
mod ttqrt;
pub mod validate;
mod workspace;

pub use geqrt::{geqrt_apply_ws, geqrt_ws, unmqr_ws};
pub use householder::{larfg, HouseholderReflector};
pub use tsqrt::{tsmqr_apply_ws, tsqrt_ws};
pub use ttqrt::{ttmqr_apply_ws, ttqrt_ws};
pub use workspace::Workspace;

/// Which orthogonal factor to apply in an update kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplySide {
    /// Apply `Qᵀ` (used during factorization to push `A ← QᵀA`).
    Transpose,
    /// Apply `Q` (used when reconstructing `Q` or computing `Q·X`).
    NoTranspose,
}
