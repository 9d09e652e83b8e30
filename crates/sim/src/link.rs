//! PCIe interconnect model.

/// Host-mediated PCIe link shared by all devices (paper Fig. 1).
///
/// The CPU cannot access GPU memory directly and vice versa (§I), so every
/// inter-device transfer crosses the PCIe bus through host memory. The
/// simulators serialize all transfers on one bus resource — the worst-case
/// but simplest contention model, matching the serialized sum over devices
/// in the paper's Eq. 11.
///
/// One regime is modelled: the per-panel batched copy of Eq. 11. A batch
/// pays the driver/DMA setup ([`Link::batch_latency_us`]) once, then its
/// bytes stream at [`Link::bandwidth_bytes_per_us`]. The Eq. 10–11
/// predictor, the panel-granularity fast simulator and the task-level
/// engine (one batch per source device, destination device and panel) all
/// charge it ([`Link::batch_time_us`]); the setup is the term that makes
/// using fewer devices optimal for small matrices (Table III) and
/// communication a ~25% share for small matrices (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Effective bandwidth in bytes per microsecond (B/µs == MB/s ÷ 1).
    pub bandwidth_bytes_per_us: f64,
    /// Setup latency of one batched (per-panel) transfer, microseconds.
    pub batch_latency_us: f64,
}

impl Link {
    /// PCI Express 2.0 x16 with realistic efficiency: ~6 GB/s effective,
    /// ~80 µs batched-copy setup (2013-era driver with host staging).
    pub fn pcie2_x16() -> Self {
        Link {
            bandwidth_bytes_per_us: 6000.0,
            batch_latency_us: 80.0,
        }
    }

    /// Time for one batched transfer of `bytes`, microseconds.
    pub fn batch_time_us(&self, bytes: u64) -> f64 {
        self.batch_latency_us + bytes as f64 / self.bandwidth_bytes_per_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_floors() {
        let l = Link::pcie2_x16();
        assert_eq!(l.batch_time_us(0), l.batch_latency_us);
    }

    #[test]
    fn bandwidth_dominates_large_transfers() {
        let l = Link::pcie2_x16();
        let t = l.batch_time_us(60_000_000); // 60 MB
        assert!((t - (80.0 + 10_000.0)).abs() < 1.0);
        // The setup is a vanishing share of a huge payload.
        assert!(l.batch_latency_us / t < 0.01);
    }

    #[test]
    fn monotone_in_size() {
        let l = Link::pcie2_x16();
        assert!(l.batch_time_us(2000) > l.batch_time_us(1000));
    }
}
