//! Calibrated device profiles for the paper's testbed (Table II).
//!
//! The timing coefficients are fitted so that each device's T/E/update
//! curves pass close to the paper's Fig. 4 measurements over tile sizes
//! 4–28 (values in microseconds, eyeballed from the published plots):
//!
//! | device  | curve | b=16 (model) | b=28 (model) | Fig. 4 @28 (approx) |
//! |---------|-------|--------------|--------------|----------------------|
//! | GTX580  | T     | ~103         | ~453         | ~450                 |
//! | GTX580  | E     | ~81          | ~348         | ~350                 |
//! | GTX580  | UT/UE | ~28          | ~97          | ~100                 |
//! | GTX680  | T     | ~150         | ~674         | ~650                 |
//! | GTX680  | E     | ~114         | ~505         | ~500                 |
//! | GTX680  | UT/UE | ~35          | ~120         | ~120                 |
//! | CPU     | T     | ~547         | ~2742        | ~2700                |
//! | CPU     | E     | ~450         | ~2242        | ~2200                |
//! | CPU     | UT/UE | ~146         | ~697         | ~700                 |
//!
//! The relative facts the paper's algorithms rely on all hold: the GTX580
//! has the fastest T/E kernels (so it is selected as the main computing
//! device, §VI-B), the GTX680's 1536 cores give it the highest *update
//! throughput* despite slower individual kernels, and the CPU is an order
//! of magnitude slower per kernel with only 4-way parallelism.

use crate::device::{DeviceKind, DeviceProfile};
use crate::link::Link;
use crate::platform::{Platform, SimConfig};
use tileqr_dag::{ClassCosts, CostCurve};

/// NVIDIA GTX580: 512 cores, fastest per-kernel times (Fig. 4a).
pub fn gtx580() -> DeviceProfile {
    DeviceProfile {
        name: "GTX580".to_string(),
        kind: DeviceKind::Gpu,
        cores: 512,
        times: ClassCosts {
            triangulation: CostCurve {
                c0: 20.0,
                c1: 0.020,
                c2: 0.0190,
            },
            elimination: CostCurve {
                c0: 18.0,
                c1: 0.015,
                c2: 0.0145,
            },
            update: CostCurve {
                c0: 12.0,
                c1: 0.005,
                c2: 0.0037,
            },
        },
    }
}

/// NVIDIA GTX680: 1536 cores, slower per kernel but highest update
/// throughput (Fig. 4b).
pub fn gtx680() -> DeviceProfile {
    DeviceProfile {
        name: "GTX680".to_string(),
        kind: DeviceKind::Gpu,
        cores: 1536,
        times: ClassCosts {
            triangulation: CostCurve {
                c0: 25.0,
                c1: 0.030,
                c2: 0.0285,
            },
            elimination: CostCurve {
                c0: 22.0,
                c1: 0.020,
                c2: 0.0213,
            },
            update: CostCurve {
                c0: 14.0,
                c1: 0.007,
                c2: 0.0046,
            },
        },
    }
}

/// Intel i7-3820 running the PLASMA kernels: 4 cores (Fig. 4c).
pub fn cpu_i7_3820() -> DeviceProfile {
    DeviceProfile {
        name: "CPU-i7-3820".to_string(),
        kind: DeviceKind::Cpu,
        cores: 4,
        times: ClassCosts {
            triangulation: CostCurve {
                c0: 30.0,
                c1: 0.100,
                c2: 0.1200,
            },
            elimination: CostCurve {
                c0: 28.0,
                c1: 0.080,
                c2: 0.0980,
            },
            update: CostCurve {
                c0: 15.0,
                c1: 0.030,
                c2: 0.0300,
            },
        },
    }
}

/// The paper's full evaluation node (Table II): one CPU, one GTX580 and
/// two GTX680s. Device order: `[GTX580, GTX680, GTX680, CPU]`.
pub fn paper_testbed(tile_size: usize) -> Platform {
    Platform::new(
        vec![gtx580(), gtx680(), gtx680(), cpu_i7_3820()],
        Link::pcie2_x16(),
        SimConfig {
            tile_size,
            elem_bytes: 4, // the paper generates random *float* data (§V)
        },
    )
}

/// Subsets used in the scalability experiment (Fig. 8): the CPU plus the
/// first `n_gpus` GPUs of the testbed, preserving the paper's device order
/// (GTX580 first, then the GTX680s).
pub fn testbed_subset(n_gpus: usize, with_cpu: bool, tile_size: usize) -> Platform {
    let mut devices = Vec::new();
    let gpus = [gtx580(), gtx680(), gtx680()];
    devices.extend(gpus.into_iter().take(n_gpus));
    if with_cpu {
        devices.push(cpu_i7_3820());
    }
    Platform::new(
        devices,
        Link::pcie2_x16(),
        SimConfig {
            tile_size,
            elem_bytes: 4,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_dag::KernelClass;

    #[test]
    fn fig4_anchor_points() {
        // Model values at b = 28 must be within 10% of the Fig. 4 readings.
        let anchors = [
            (gtx580(), 453.0, 348.0, 97.0),
            (gtx680(), 674.0, 505.0, 120.0),
            (cpu_i7_3820(), 2742.0, 2242.0, 697.0),
        ];
        for (dev, t, e, u) in anchors {
            let close = |x: f64, y: f64| (x - y).abs() / y < 0.10;
            assert!(close(dev.kernel_time_us(KernelClass::Triangulation, 28), t));
            assert!(close(dev.kernel_time_us(KernelClass::Elimination, 28), e));
            assert!(close(dev.kernel_time_us(KernelClass::Update, 28), u));
        }
    }

    #[test]
    fn te_slower_than_updates_everywhere() {
        // Fig. 4: on every device the T and E curves sit above UT/UE.
        for dev in [gtx580(), gtx680(), cpu_i7_3820()] {
            for b in [4, 8, 12, 16, 20, 24, 28] {
                let t = dev.kernel_time_us(KernelClass::Triangulation, b);
                let e = dev.kernel_time_us(KernelClass::Elimination, b);
                let u = dev.kernel_time_us(KernelClass::Update, b);
                assert!(t > e && e > u, "{}: b={b}: {t} {e} {u}", dev.name);
            }
        }
    }

    #[test]
    fn paper_testbed_layout() {
        let p = paper_testbed(16);
        assert_eq!(p.num_devices(), 4);
        assert_eq!(p.device(0).name, "GTX580");
        assert_eq!(p.device(3).kind, DeviceKind::Cpu);
        let cores: usize = p.devices().iter().map(|d| d.cores).sum();
        assert_eq!(cores, 512 + 1536 + 1536 + 4);
    }

    #[test]
    fn subset_sizes_match_fig8_core_counts() {
        // Fig. 8 x-axis: 4, 516, 2052, 3588 cores.
        for (gpus, want) in [(0, 4), (1, 516), (2, 2052), (3, 3588)] {
            let p = testbed_subset(gpus, true, 16);
            assert_eq!(p.devices().iter().map(|d| d.cores).sum::<usize>(), want);
        }
    }
}
