//! Column → device distributions (the paper's method plus the baselines of
//! Fig. 10).

use crate::guide::{column_owner, generate_guide_array};
use crate::ratio::{device_update_ratio, integer_ratio};
use tileqr_sim::{DeviceId, Platform};

/// How tile columns are spread over the participating devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistributionStrategy {
    /// The paper's distribution guide array built from update-throughput
    /// ratios (Alg. 4).
    GuideArray,
    /// Ratios proportional to core counts (the "depending on the number of
    /// cores" baseline of Fig. 10).
    CoresProportional,
    /// Equal share per GPU, with any CPU's share scaled down by its core
    /// count relative to the GPUs (the paper's "even" baseline of Fig. 10:
    /// "the same number of tiles distribution for GPUs with some tiles on
    /// the CPU depending on the number of cores").
    Even,
    /// Extension (not in the paper): the guide array of
    /// [`DistributionStrategy::GuideArray`] applied boustrophedon — odd
    /// cycles walk the array backwards. Eq. 12's plain modulo maps the
    /// small-ratio device's (tail) slots to systematically later, heavier
    /// columns; alternating the direction cancels that positional bias.
    GuideArrayBalanced,
}

/// A concrete cyclic column distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Distribution {
    main: DeviceId,
    guide: Vec<DeviceId>,
    strategy: DistributionStrategy,
}

impl Distribution {
    /// Build a distribution for `participants` (main device first, as
    /// Alg. 3 orders them) on `platform`.
    pub fn build(
        platform: &Platform,
        main: DeviceId,
        participants: &[DeviceId],
        strategy: DistributionStrategy,
    ) -> Self {
        assert!(participants.contains(&main), "main device must participate");
        let tile = platform.config().tile_size;
        let ratio = match strategy {
            DistributionStrategy::GuideArray | DistributionStrategy::GuideArrayBalanced => {
                device_update_ratio(platform, participants, tile)
            }
            DistributionStrategy::CoresProportional => {
                let cores: Vec<f64> = participants
                    .iter()
                    .map(|&d| platform.device(d).cores as f64)
                    .collect();
                integer_ratio(&cores)
            }
            DistributionStrategy::Even => {
                // Equal share per GPU; CPUs scaled by core count relative
                // to the average GPU so a 4-core CPU next to 1000-core
                // GPUs receives (almost) nothing, as in the paper.
                const GPU_SHARE: u64 = 8;
                let gpu_cores: Vec<usize> = participants
                    .iter()
                    .map(|&d| platform.device(d))
                    .filter(|d| d.kind == tileqr_sim::DeviceKind::Gpu)
                    .map(|d| d.cores)
                    .collect();
                let avg_gpu = if gpu_cores.is_empty() {
                    0
                } else {
                    gpu_cores.iter().sum::<usize>() / gpu_cores.len()
                };
                participants
                    .iter()
                    .map(|&d| {
                        let dev = platform.device(d);
                        match dev.kind {
                            tileqr_sim::DeviceKind::Gpu => GPU_SHARE,
                            tileqr_sim::DeviceKind::Cpu => {
                                if avg_gpu == 0 {
                                    GPU_SHARE
                                } else {
                                    (GPU_SHARE * dev.cores as u64) / avg_gpu as u64
                                }
                            }
                        }
                    })
                    .collect()
            }
        };
        let mut guide = generate_guide_array(participants, &ratio);
        if guide.is_empty() {
            // Degenerate ratios (all zero): fall back to the main device.
            guide = vec![main];
        }
        Distribution {
            main,
            guide,
            strategy,
        }
    }

    /// The main computing device.
    pub fn main(&self) -> DeviceId {
        self.main
    }

    /// The guide array (cyclic device pattern).
    pub fn guide(&self) -> &[DeviceId] {
        &self.guide
    }

    /// Strategy used to build this distribution.
    pub fn strategy(&self) -> DistributionStrategy {
        self.strategy
    }

    /// Owner of tile column `j` (paper Eq. 12). Column 0 belongs to the
    /// main device "because their only operations are triangulation and
    /// elimination" (Alg. 4, `DISTRIBUTION`).
    pub fn owner(&self, column: usize) -> DeviceId {
        if column == 0 {
            return self.main;
        }
        if self.strategy == DistributionStrategy::GuideArrayBalanced {
            let len = self.guide.len();
            let (cycle, r) = (column / len, column % len);
            let idx = if cycle % 2 == 1 { len - 1 - r } else { r };
            return self.guide[idx];
        }
        column_owner(&self.guide, column)
    }

    /// Number of columns in `k+1..nt` owned by `dev` — the `#tile(i)`
    /// column counts feeding Eq. 10.
    pub fn columns_owned(&self, dev: DeviceId, from: usize, nt: usize) -> usize {
        (from..nt).filter(|&j| self.owner(j) == dev).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_sim::profiles;

    #[test]
    fn column_zero_is_main() {
        let p = profiles::paper_testbed(16);
        for strat in [
            DistributionStrategy::GuideArray,
            DistributionStrategy::CoresProportional,
            DistributionStrategy::Even,
        ] {
            let d = Distribution::build(&p, 0, &[0, 1, 2, 3], strat);
            assert_eq!(d.owner(0), 0);
        }
    }

    #[test]
    fn even_round_robins() {
        let p = profiles::paper_testbed(16);
        let d = Distribution::build(&p, 0, &[0, 1, 2], DistributionStrategy::Even);
        let owners: Vec<_> = (1..7).map(|j| d.owner(j)).collect();
        // Cyclic over 3 devices, each once per cycle.
        assert_eq!(owners[0], owners[3]);
        assert_eq!(owners[1], owners[4]);
        let mut unique = owners[..3].to_vec();
        unique.sort_unstable();
        assert_eq!(unique, vec![0, 1, 2]);
    }

    #[test]
    fn guide_array_gives_680_more_columns_than_580() {
        let p = profiles::paper_testbed(16);
        let d = Distribution::build(&p, 0, &[0, 1, 2, 3], DistributionStrategy::GuideArray);
        let c580 = d.columns_owned(0, 1, 201);
        let c680 = d.columns_owned(1, 1, 201);
        assert!(c680 > c580, "680 {c680} must exceed 580 {c580}");
    }

    #[test]
    fn cores_proportional_matches_core_ratio() {
        let p = profiles::paper_testbed(16);
        let d = Distribution::build(&p, 0, &[0, 1], DistributionStrategy::CoresProportional);
        // 512 : 1536 = 1 : 3.
        let c0 = d.columns_owned(0, 1, 401);
        let c1 = d.columns_owned(1, 1, 401);
        let ratio = c1 as f64 / c0 as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn columns_owned_partition() {
        let p = profiles::paper_testbed(16);
        let d = Distribution::build(&p, 0, &[0, 1, 2, 3], DistributionStrategy::GuideArray);
        let nt = 100;
        let total: usize = (0..4).map(|dev| d.columns_owned(dev, 1, nt)).sum();
        assert_eq!(total, nt - 1);
    }

    #[test]
    #[should_panic]
    fn main_must_participate() {
        let p = profiles::paper_testbed(16);
        let _ = Distribution::build(&p, 3, &[0, 1], DistributionStrategy::Even);
    }
}
