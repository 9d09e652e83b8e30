//! The paper's heterogeneous scheduling optimizations.
//!
//! This crate is the primary contribution of the reproduced paper (§IV):
//! given a [`tileqr_sim::Platform`] describing a CPU + multi-GPU node and a
//! tile grid, it decides
//!
//! 1. **which device is the main computing device** (Algorithm 2,
//!    [`main_select`]) — the device that runs all triangulation and
//!    elimination kernels,
//! 2. **how many devices participate** (Algorithm 3, [`device_count`]) —
//!    minimizing the predicted `T(p) = Top(p) + Tcomm(p)` of Eqs. 10–11,
//! 3. **which tile columns go to which device** (Algorithm 4,
//!    [`guide`] / [`distribution`]) — a cyclic *distribution guide array*
//!    built from integer ratios of per-device update throughput, applied
//!    column-wise via Eq. 12.
//!
//! [`plan::plan`] chains the three steps into a [`plan::HeteroPlan`];
//! [`assign::assign_tasks`] lowers a plan onto a concrete
//! [`tileqr_dag::TaskGraph`] for the exact discrete-event simulator; and
//! [`fastsim`] is a column-granularity pipelined simulator (validated
//! against the exact one) that scales to the paper's largest matrices
//! (16 000 × 16 000 at tile size 16 — a third of a billion tasks, far past
//! what task-level simulation can hold in memory).
//!
//! Baseline strategies the paper compares against — even distribution,
//! cores-proportional distribution, "no main device", CPU-as-main — are
//! all expressible through the same types, so every figure's comparison is
//! a one-liner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assign;
pub mod device_count;
pub mod distribution;
pub mod fastsim;
pub mod guide;
pub mod main_select;
pub mod plan;
pub mod ratio;
pub mod replan;
pub mod rowblock;
pub mod select;

pub use distribution::{Distribution, DistributionStrategy};
pub use plan::{HeteroPlan, MainDevicePolicy};
pub use replan::{simulate_adaptive, AdaptiveRun, ReplanEvent, ReplanPolicy};
pub use select::{select_plan, select_tree, Selection, TreeScore};
