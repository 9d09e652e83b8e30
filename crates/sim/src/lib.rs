//! Discrete-event simulator of a CPU + multi-GPU heterogeneous node.
//!
//! The paper evaluates on real hardware (an i7-3820 plus one GTX580 and two
//! GTX680 GPUs on a PCIe bus). This crate substitutes that testbed with a
//! simulator whose inputs are exactly the quantities the paper's
//! optimization algorithms consume:
//!
//! * per-device, per-kernel tile times — polynomial models *calibrated to
//!   the paper's Fig. 4 curves* ([`profiles`]),
//! * per-device update parallelism (how many tile updates a device batches
//!   concurrently),
//! * a host-mediated PCIe link with latency + bandwidth, serialized as a
//!   single shared bus ([`Link`]),
//! * non-preemptive device slots (a device runs at most `slots` kernel
//!   instances at once; queued work waits — §I of the paper).
//!
//! [`engine::simulate`] executes a full tiled-QR [`tileqr_dag::TaskGraph`]
//! under a task→device assignment and reports makespan, per-device busy
//! time and bus (communication) time — the raw material for Figs. 5–10 and
//! Table III.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
pub mod engine;
pub mod fault;
mod link;
mod platform;
pub mod profiles;
pub mod stats;
pub mod trace;

pub use device::{DeviceId, DeviceKind, DeviceProfile, GPU_OVERSUBSCRIPTION};
pub use fault::{DeviceDeath, DeviceFault, FaultPlan, KernelFault, LinkFault};
pub use link::Link;
pub use platform::{Platform, SimConfig};
pub use stats::SimStats;
pub use trace::{TaskSpan, Timeline, TransferSpan};
