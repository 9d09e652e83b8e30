//! Platform = devices + interconnect + run configuration.

use crate::device::{DeviceId, DeviceProfile};
use crate::link::Link;
use tileqr_dag::{KernelClass, TaskKind};

/// Simulation-wide constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Tile side length `b` (the paper uses 16).
    pub tile_size: usize,
    /// Bytes per matrix element (4 = `float`, as in the paper; 8 = `double`).
    pub elem_bytes: usize,
}

impl SimConfig {
    /// Bytes of one `b x b` tile.
    pub fn tile_bytes(&self) -> u64 {
        (self.tile_size * self.tile_size * self.elem_bytes) as u64
    }
}

/// A simulated heterogeneous node.
#[derive(Debug, Clone)]
pub struct Platform {
    devices: Vec<DeviceProfile>,
    link: Link,
    config: SimConfig,
    /// Per-device memory capacity in bytes (None = unbounded, the paper's
    /// working assumption: "Our current work assumes that there is no
    /// problem about memory size", §VIII).
    device_memory: Vec<Option<u64>>,
}

impl Platform {
    /// Assemble a platform. Panics on an empty device list or zero tile
    /// size.
    pub fn new(devices: Vec<DeviceProfile>, link: Link, config: SimConfig) -> Self {
        assert!(!devices.is_empty(), "platform needs at least one device");
        assert!(config.tile_size > 0, "tile size must be positive");
        let n = devices.len();
        Platform {
            devices,
            link,
            config,
            device_memory: vec![None; n],
        }
    }

    /// Set per-device memory capacities (bytes); `None` entries are
    /// unbounded. Addresses the paper's future-work point on very large
    /// matrices: [`Platform::memory_feasible`] checks whether a
    /// distribution's working set fits.
    pub fn with_device_memory(mut self, capacities: Vec<Option<u64>>) -> Self {
        assert_eq!(capacities.len(), self.devices.len());
        self.device_memory = capacities;
        self
    }

    /// Memory capacity of device `id` (None = unbounded).
    pub fn device_memory(&self, id: DeviceId) -> Option<u64> {
        self.device_memory[id]
    }

    /// Bytes device `id` must hold to own `columns` tile columns of an
    /// `mt`-row grid, plus one panel column of factors in flight.
    pub fn working_set_bytes(&self, mt: usize, columns: usize) -> u64 {
        let col = mt as u64 * self.config.tile_bytes();
        // Owned columns + the broadcast V/T factors of the active panel.
        columns as u64 * col + 3 * col
    }

    /// `true` when every device's working set for the given per-device
    /// column counts fits its memory.
    pub fn memory_feasible(&self, mt: usize, columns_per_device: &[usize]) -> bool {
        assert_eq!(columns_per_device.len(), self.devices.len());
        self.device_memory
            .iter()
            .zip(columns_per_device)
            .all(|(cap, &cols)| match cap {
                None => true,
                Some(bytes) => self.working_set_bytes(mt, cols) <= *bytes,
            })
    }

    /// Observed-profile copy of this platform: device `d`'s timing
    /// coefficients are scaled by `factors[d]` (`1.0` leaves the profile
    /// untouched). This is what mid-run re-planning feeds to Alg. 2/3/4 —
    /// the platform *as measured*, with degraded devices slowed to their
    /// observed throughput.
    pub fn observed(&self, factors: &[f64]) -> Platform {
        assert_eq!(factors.len(), self.devices.len());
        let devices = self
            .devices
            .iter()
            .zip(factors)
            .map(|(d, &f)| if f > 1.0 { d.slowed(f) } else { d.clone() })
            .collect();
        Platform {
            devices,
            link: self.link,
            config: self.config,
            device_memory: self.device_memory.clone(),
        }
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Borrow device `id`.
    pub fn device(&self, id: DeviceId) -> &DeviceProfile {
        &self.devices[id]
    }

    /// All devices.
    pub fn devices(&self) -> &[DeviceProfile] {
        &self.devices
    }

    /// The PCIe bus.
    pub fn link(&self) -> Link {
        self.link
    }

    /// Run configuration.
    pub fn config(&self) -> SimConfig {
        self.config
    }

    /// Total cores across all devices (the x-axis of Fig. 8).
    pub fn total_cores(&self) -> usize {
        self.devices.iter().map(|d| d.cores).sum()
    }

    /// Execution time of `task` on device `dev`, microseconds.
    pub fn task_time_us(&self, dev: DeviceId, task: TaskKind) -> f64 {
        self.devices[dev].kernel_time_us(KernelClass::of(task), self.config.tile_size)
    }

    /// Bytes shipped when the output of `task` crosses the bus. Factor
    /// kernels ship their Householder block plus the `T` factor (2 tiles'
    /// worth — the paper's "Q matrices"); update kernels ship the updated
    /// tile.
    pub fn output_bytes(&self, task: TaskKind) -> u64 {
        match task {
            TaskKind::Geqrt { .. } | TaskKind::Tsqrt { .. } | TaskKind::Ttqrt { .. } => {
                2 * self.config.tile_bytes()
            }
            TaskKind::Unmqr { .. } | TaskKind::Tsmqr { .. } | TaskKind::Ttmqr { .. } => {
                self.config.tile_bytes()
            }
        }
    }

    /// Bus time for one streamed per-kernel message of `bytes`,
    /// microseconds (used by the exact task-level simulator).
    pub fn transfer_time_us(&self, bytes: u64) -> f64 {
        self.link.message_time_us(bytes)
    }

    /// Bus time for one batched per-panel transfer of `bytes`, microseconds
    /// (used by the Eq. 10–11 predictor and the fast panel simulator).
    pub fn batch_transfer_time_us(&self, bytes: u64) -> f64 {
        self.link.batch_time_us(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn tile_bytes() {
        let c = SimConfig {
            tile_size: 16,
            elem_bytes: 4,
        };
        assert_eq!(c.tile_bytes(), 1024);
    }

    #[test]
    fn factor_outputs_are_double_sized() {
        let p = profiles::paper_testbed(16);
        let f = p.output_bytes(TaskKind::Geqrt { i: 0, k: 0 });
        let u = p.output_bytes(TaskKind::Tsmqr {
            p: 0,
            i: 1,
            j: 1,
            k: 0,
        });
        assert_eq!(f, 2 * u);
    }

    #[test]
    fn task_time_uses_device_curves() {
        let p = profiles::paper_testbed(16);
        let t_gpu = p.task_time_us(0, TaskKind::Geqrt { i: 0, k: 0 });
        let t_cpu = p.task_time_us(3, TaskKind::Geqrt { i: 0, k: 0 });
        assert!(t_cpu > t_gpu);
    }

    #[test]
    fn memory_feasibility() {
        let p =
            profiles::paper_testbed(16).with_device_memory(vec![Some(1 << 20), None, None, None]);
        // 1 MiB on device 0: a 16-row grid column is 16 KiB; ~60 columns fit.
        assert!(p.memory_feasible(16, &[10, 1000, 1000, 0]));
        assert!(!p.memory_feasible(16, &[100, 0, 0, 0]));
        // Unbounded devices always fit, but even a column-less bounded
        // device must hold the in-flight panel factors (3 columns' worth).
        assert!(p.memory_feasible(16, &[0, 100_000, 0, 0]));
        assert!(!p.memory_feasible(1000, &[0, 100_000, 0, 0]));
    }

    #[test]
    fn working_set_scales_with_columns_and_rows() {
        let p = profiles::paper_testbed(16);
        assert!(p.working_set_bytes(10, 5) < p.working_set_bytes(10, 6));
        assert!(p.working_set_bytes(10, 5) < p.working_set_bytes(20, 5));
    }

    #[test]
    #[should_panic]
    fn empty_platform_panics() {
        let _ = Platform::new(
            vec![],
            Link::pcie2_x16(),
            SimConfig {
                tile_size: 16,
                elem_bytes: 4,
            },
        );
    }
}
