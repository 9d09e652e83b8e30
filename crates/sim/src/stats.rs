//! Simulation result accounting.

use crate::device::DeviceId;

/// Outcome of one simulated tiled-QR run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// End-to-end makespan, microseconds.
    pub makespan_us: f64,
    /// Per-device busy time (sum of kernel durations), microseconds.
    pub device_busy_us: Vec<f64>,
    /// Total time the PCIe bus spent moving data, microseconds.
    pub bus_busy_us: f64,
    /// Total bytes moved across the bus.
    pub bytes_transferred: u64,
    /// Number of batched bus transfers, i.e. setups paid: one per panel
    /// copy (the engine: per source device, destination device and panel).
    pub transfer_count: u64,
    /// Per-device task counts.
    pub tasks_per_device: Vec<u64>,
    /// Kernel attempts that failed and were retried (always 0 without a
    /// [`crate::FaultPlan`]).
    pub retry_count: u64,
    /// Mid-run re-planning events (Alg. 2/3/4 re-run at a panel boundary
    /// after a device death or degradation). Always 0 for non-adaptive
    /// simulations.
    pub replan_count: u64,
    /// Bytes moved solely to migrate column ownership at replan
    /// boundaries (a subset of `bytes_transferred`).
    pub migrated_bytes: u64,
}

impl SimStats {
    /// Fresh zeroed stats for `n` devices.
    pub fn new(n: usize) -> Self {
        SimStats {
            makespan_us: 0.0,
            device_busy_us: vec![0.0; n],
            bus_busy_us: 0.0,
            bytes_transferred: 0,
            transfer_count: 0,
            tasks_per_device: vec![0; n],
            retry_count: 0,
            replan_count: 0,
            migrated_bytes: 0,
        }
    }

    /// Total compute time summed over devices (the "Calculation" bar of the
    /// paper's Fig. 5).
    pub fn total_compute_us(&self) -> f64 {
        self.device_busy_us.iter().sum()
    }

    /// Fraction of `compute + communication` spent communicating — the
    /// quantity Fig. 5 plots (both bars normalized to their sum).
    pub fn comm_fraction(&self) -> f64 {
        let total = self.total_compute_us() + self.bus_busy_us;
        if total == 0.0 {
            0.0
        } else {
            self.bus_busy_us / total
        }
    }

    /// Utilization of one device: busy (lane-)time over makespan. With
    /// multi-slot devices this counts *average busy lanes* and can exceed
    /// 1; divide by the device's slot count for a 0–1 figure.
    pub fn utilization(&self, dev: DeviceId) -> f64 {
        if self.makespan_us == 0.0 {
            0.0
        } else {
            self.device_busy_us[dev] / self.makespan_us
        }
    }

    /// Makespan in seconds (the unit of Figs. 6, 8, 9, 10).
    pub fn makespan_s(&self) -> f64 {
        self.makespan_us / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_and_sums() {
        let mut s = SimStats::new(2);
        s.device_busy_us = vec![30.0, 50.0];
        s.bus_busy_us = 20.0;
        s.makespan_us = 100.0;
        assert_eq!(s.total_compute_us(), 80.0);
        assert!((s.comm_fraction() - 0.2).abs() < 1e-12);
        assert!((s.utilization(1) - 0.5).abs() < 1e-12);
        assert!((s.makespan_s() - 1e-4).abs() < 1e-18);
    }

    #[test]
    fn zero_safe() {
        let s = SimStats::new(1);
        assert_eq!(s.comm_fraction(), 0.0);
        assert_eq!(s.utilization(0), 0.0);
    }
}
