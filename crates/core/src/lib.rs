//! # tileqr — Tiled QR decomposition for heterogeneous systems
//!
//! A from-scratch Rust reproduction of *"Tiled QR Decomposition and Its
//! Optimization on CPU and GPU Computing System"* (Kim & Park, ICPP 2013).
//!
//! The crate has two faces:
//!
//! 1. **Numerics** — a complete tiled QR factorization built on
//!    hand-written Householder kernels (`GEQRT`, `UNMQR`, `TSQRT`,
//!    `TSMQR`, and the tree-variant `TTQRT`/`TTMQR`), runnable
//!    sequentially or on a pool of self-scheduling worker threads:
//!
//!    ```
//!    use tileqr::prelude::*;
//!
//!    let a = tileqr::gen::random_matrix::<f64>(64, 64, 7);
//!    let qr = TiledQr::factor(&a, &QrOptions::new().tile_size(8)).unwrap();
//!    let (q, r) = (qr.q().unwrap(), qr.r());
//!    let residual = tileqr::ops::relative_residual(&a, &q, &r).unwrap();
//!    assert!(residual < 1e-13);
//!    ```
//!
//! 2. **Heterogeneous scheduling** — the paper's three optimizations
//!    (main-device selection, device-count optimization via
//!    `T(p) = Top(p) + Tcomm(p)`, and guide-array tile distribution),
//!    evaluated on a calibrated simulator of the paper's CPU + 3-GPU
//!    testbed ([`hetero`], re-exporting `tileqr-sched` / `tileqr-sim`).
//!
//! See `DESIGN.md` in the repository root for the system inventory and the
//! per-experiment index, and `EXPERIMENTS.md` for paper-vs-measured
//! results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod factor;
pub mod hetero;
mod options;
pub mod tune;

pub use factor::TiledQr;
pub use options::QrOptions;
pub use tune::{JobPlan, TunedQrService, TunerConfig};

pub use tileqr_dag::{EliminationTree, TreePolicy};
pub use tileqr_matrix::{Matrix, MatrixError, Rng64, Scalar, TiledMatrix};

/// Workload generators (re-export of `tileqr-matrix`'s `gen` module).
pub use tileqr_matrix::gen;
/// BLAS-like dense operations (re-export of `tileqr-matrix`'s `ops`).
pub use tileqr_matrix::ops;

/// Low-level tile kernels, for users composing their own algorithms.
pub mod kernels {
    pub use tileqr_kernels::exec::{apply_q_dense, apply_qt_dense, FactorState};
    pub use tileqr_kernels::flops;
    pub use tileqr_kernels::micro;
    pub use tileqr_kernels::reference;
    pub use tileqr_kernels::validate;
    pub use tileqr_kernels::{
        geqrt_apply_ws, geqrt_ws, larfg, tsmqr_apply_ws, tsqrt_ws, ttmqr_apply_ws, ttqrt_ws,
        unmqr_ws, ApplySide, HouseholderReflector, Workspace,
    };
}

/// Task-graph construction and analysis (re-export of `tileqr-dag`).
pub mod dag {
    pub use tileqr_dag::*;
}

/// Parallel runtime (re-export of `tileqr-runtime`).
pub mod runtime {
    #[doc(hidden)]
    pub use tileqr_runtime::run_pool;
    pub use tileqr_runtime::{
        parallel_factor_traced, FaultInjector, FaultTolerance, InjectedFault, PoolConfig,
        RunReport, RuntimeError, ScriptedFaults, TraceConfig,
    };
    pub use tileqr_runtime::{
        FactoredJob, JobHandle, JobId, JobOutput, JobResult, JobSpec, PriorityClass, QrService,
        ServiceConfig, ServiceError, ServiceStats, WaitTimeout,
    };
}

/// Unified observability: lifecycle traces over the real pool and the
/// simulator, Chrome-trace export, per-kernel latency histograms, and
/// sim-vs-real calibration (re-export of `tileqr-obs`).
pub mod obs {
    pub use tileqr_obs::*;
}

/// Convenience one-shot QR: factor `a` with default options and return
/// `(Q, R)` such that `A = Q R`.
pub fn qr<T: Scalar>(a: &Matrix<T>) -> tileqr_matrix::Result<(Matrix<T>, Matrix<T>)> {
    let f = TiledQr::factor(a, &QrOptions::default())?;
    Ok((f.q()?, f.r()))
}

/// Everything most users need.
pub mod prelude {
    pub use crate::{qr, QrOptions, TiledQr, TunedQrService};
    pub use tileqr_dag::{EliminationTree, TreePolicy};
    pub use tileqr_matrix::{Matrix, Scalar, TiledMatrix};
    pub use tileqr_runtime::{FaultTolerance, JobSpec, PriorityClass, QrService, ServiceConfig};
}
