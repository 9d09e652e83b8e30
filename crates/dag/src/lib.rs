//! Task-graph substrate for tiled QR decomposition.
//!
//! The tiled QR algorithm is a DAG of four task kinds (paper §II-B and
//! Fig. 3): triangulation (T/`GEQRT`), update-for-triangulation
//! (UT/`UNMQR`), elimination (E/`TSQRT` or `TTQRT`) and
//! update-for-elimination (UE/`TSMQR` or `TTMQR`). This crate builds that
//! DAG for the TS (flat chain, the paper's variant) and TT (reduction tree)
//! elimination orders, derives dependencies automatically from per-tile
//! read/write sets, and offers the analyses the scheduler and experiments
//! need: topological iteration, ready-set simulation, per-step task counts
//! (paper Table I) and weighted critical paths.
//!
//! The crate is deliberately free of numerics — it is pure scheduling
//! vocabulary shared by the sequential driver, the parallel runtime and the
//! heterogeneous simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod counts;
pub mod critical_path;
pub mod export;
mod graph;
pub mod listsim;
mod task;
pub mod topo;
pub mod tree;

pub use cost::{ClassCosts, CostCurve, KernelClass};
pub use critical_path::bottom_levels;
pub use graph::TaskGraph;
pub use listsim::{list_makespan, ListOrder};
pub use task::{StepClass, TaskId, TaskKind, TileCoord, Tiles};
pub use tree::{EliminationTree, MergeKind, MergeOp, TreePolicy};
