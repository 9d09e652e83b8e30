//! Simulated compute devices.

use tileqr_dag::{ClassCosts, KernelClass};

/// Index of a device within a [`crate::Platform`].
pub type DeviceId = usize;

/// Broad device class — determines the intra-device parallelism model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// Multicore CPU: each core runs one whole tile kernel, so the device
    /// executes up to `cores` concurrent tile kernels.
    Cpu,
    /// CUDA-style GPU: a batched kernel launch processes many tiles at
    /// once. The simulator represents a batch of `n` tiles as `n`
    /// concurrent tile-tasks capped at `cores · OVERSUB / tile_size` slots
    /// (see [`GPU_OVERSUBSCRIPTION`](crate::device::GPU_OVERSUBSCRIPTION)).
    Gpu,
}

/// SIMT oversubscription of GPU tile kernels: a well-batched update kernel
/// keeps several warps in flight per tile's worth of cores, hiding memory
/// latency. The value is calibrated jointly with the link model so that
/// (a) aggregate GPU throughput lands within an order of magnitude of the
/// paper's end-to-end rates (Fig. 8), (b) the communication share falls
/// with matrix size (Fig. 5), and (c) the device-count crossovers of
/// Table III appear at small-to-mid matrix sizes — while single-kernel
/// latencies stay on the Fig. 4 curves.
pub const GPU_OVERSUBSCRIPTION: usize = 8;

/// A simulated compute device: identity, parallelism and the Fig. 4-style
/// timing curves.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable name (e.g. "GTX580").
    pub name: String,
    /// Device class.
    pub kind: DeviceKind,
    /// Number of parallel cores (paper: 4 / 512 / 1536).
    pub cores: usize,
    /// Per-kernel timing curves.
    pub times: ClassCosts,
}

impl DeviceProfile {
    /// Number of tile kernels the device can run concurrently at tile size
    /// `b` (the paper's "parallelism" of a device, §III-B).
    pub fn slots(&self, b: usize) -> usize {
        match self.kind {
            DeviceKind::Cpu => self.cores.max(1),
            DeviceKind::Gpu => (self.cores * GPU_OVERSUBSCRIPTION / b.max(1)).max(1),
        }
    }

    /// Latency of one `class` kernel at tile size `b`, microseconds.
    pub fn kernel_time_us(&self, class: KernelClass, b: usize) -> f64 {
        self.times.curve(class).eval_us(b)
    }

    /// Update throughput in tiles per microsecond at tile size `b`
    /// (`slots / update_latency`) — the paper's "number of tiles that can
    /// be updated in a unit time" used to build the distribution guide
    /// array (Alg. 4).
    pub fn update_throughput(&self, b: usize) -> f64 {
        self.slots(b) as f64 / self.kernel_time_us(KernelClass::Update, b)
    }

    /// A persistently degraded copy of this device: every timing
    /// coefficient scaled by `factor` (`>= 1.0`), so all kernels run
    /// `factor`× slower. This is the *steady-state* counterpart of a
    /// [`crate::DeviceFault`] spike — feed it to the Alg. 2/3 predictors
    /// to ask how the paper's selections shift when a device misbehaves
    /// for a whole run.
    pub fn slowed(&self, factor: f64) -> DeviceProfile {
        assert!(factor >= 1.0, "degradation must not speed the device up");
        DeviceProfile {
            name: format!("{}-slow{factor}", self.name),
            kind: self.kind,
            cores: self.cores,
            times: self.times.scaled(factor),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn gpu_slots_scale_inverse_with_tile() {
        let g = profiles::gtx580();
        assert_eq!(g.slots(16), 512 * GPU_OVERSUBSCRIPTION / 16);
        assert_eq!(g.slots(32), 512 * GPU_OVERSUBSCRIPTION / 32);
        assert_eq!(g.slots(16), 2 * g.slots(32));
        assert!(g.slots(10_000_000) >= 1, "slots never hit zero");
    }

    #[test]
    fn cpu_slots_equal_cores() {
        let c = profiles::cpu_i7_3820();
        assert_eq!(c.slots(16), 4);
        assert_eq!(c.slots(64), 4);
    }

    #[test]
    fn gtx680_has_more_update_throughput_than_gtx580() {
        // The paper's premise (§VI-B): GTX680 is slower per kernel but its
        // 1536 cores make it the better update device.
        let g580 = profiles::gtx580();
        let g680 = profiles::gtx680();
        assert!(
            g680.kernel_time_us(KernelClass::Elimination, 16)
                > g580.kernel_time_us(KernelClass::Elimination, 16),
            "680 must be slower per elimination kernel"
        );
        assert!(
            g680.update_throughput(16) > g580.update_throughput(16),
            "680 must have higher update throughput"
        );
    }

    #[test]
    fn cpu_is_slowest_everywhere() {
        let cpu = profiles::cpu_i7_3820();
        for dev in [profiles::gtx580(), profiles::gtx680()] {
            for class in KernelClass::ALL {
                assert!(cpu.kernel_time_us(class, 16) > dev.kernel_time_us(class, 16));
            }
            assert!(cpu.update_throughput(16) < dev.update_throughput(16));
        }
    }
}
