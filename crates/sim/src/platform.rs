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
}

impl Platform {
    /// Assemble a platform. Panics on an empty device list or zero tile
    /// size.
    pub fn new(devices: Vec<DeviceProfile>, link: Link, config: SimConfig) -> Self {
        assert!(!devices.is_empty(), "platform needs at least one device");
        assert!(config.tile_size > 0, "tile size must be positive");
        Platform {
            devices,
            link,
            config,
        }
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
