//! Factorization options.

use tileqr_dag::TreePolicy;
use tileqr_runtime::{FaultTolerance, PoolConfig, TraceConfig};

/// Options controlling a [`crate::TiledQr`] factorization: the tile size
/// and elimination tree of the plan, and the [`PoolConfig`] of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QrOptions {
    tile_size: usize,
    tree: TreePolicy,
    pub(crate) run: PoolConfig,
}

impl Default for QrOptions {
    /// Tile size 16 (the paper's choice, §V), TS elimination, sequential,
    /// fail fast, tracing off.
    fn default() -> Self {
        QrOptions {
            tile_size: 16,
            tree: TreePolicy::default(),
            run: PoolConfig {
                workers: 1,
                ..PoolConfig::default()
            },
        }
    }
}

impl QrOptions {
    /// Start from the defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tile side length `b`. The paper uses 16; larger tiles amortize
    /// per-kernel overhead on the host at the cost of less parallelism.
    /// `0` is stored as given and refused by [`crate::TiledQr::factor`]
    /// with [`crate::MatrixError::BadTileSize`].
    pub fn tile_size(mut self, b: usize) -> Self {
        self.tile_size = b;
        self
    }

    /// Elimination-tree policy: pin a tree from the zoo (a `Plateau(0)`
    /// is refused by [`crate::TiledQr::factor`]), or let
    /// [`TreePolicy::Auto`] pick per geometry — TSQR, `Plateau(⌈√mt⌉)`, on
    /// tall-skinny grids, greedy on very tall ones, the flat TS chain
    /// otherwise.
    pub fn tree(mut self, policy: TreePolicy) -> Self {
        self.tree = policy;
        self
    }

    /// Number of computing threads; `1` runs sequentially, `0` uses every
    /// available core.
    pub fn workers(mut self, workers: usize) -> Self {
        self.run.workers = workers;
        self
    }

    /// Enable fault-tolerant execution: worker panics and kernel errors
    /// are retried within `ft`'s budget instead of failing the run, and
    /// stalled workers are retired by the watchdog. Costs one tile-clone
    /// per task staging (so requeues are possible) plus commits
    /// serialized behind the engine's fence; the factors remain
    /// bit-identical to the sequential run. Irrelevant when the run has
    /// one effective worker — `workers == 1`, or `workers == 0` on a
    /// one-core host — which runs inline on the calling thread.
    pub fn fault_tolerance(mut self, ft: FaultTolerance) -> Self {
        self.run.fault_tolerance = Some(ft);
        self
    }

    /// Record a lifecycle trace of the run: per-worker
    /// stage/compute/commit spans plus the scheduling instants on a
    /// `manager` lane,
    /// surfaced through [`crate::TiledQr::factor_traced`]'s
    /// [`tileqr_runtime::RunReport::trace`]. Off by default — a disabled
    /// config costs nothing on the execution hot path.
    pub fn tracing(mut self, trace: TraceConfig) -> Self {
        self.run.trace = trace;
        self
    }

    /// Configured tile size.
    pub fn get_tile_size(&self) -> usize {
        self.tile_size
    }

    /// Configured elimination-tree policy.
    pub fn get_tree(&self) -> TreePolicy {
        self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = QrOptions::default();
        assert_eq!(o.get_tile_size(), 16);
        assert_eq!(
            o.get_tree(),
            TreePolicy::Fixed(tileqr_dag::EliminationTree::Flat)
        );
        assert_eq!(o.run.workers, 1);
        assert_eq!(o.run.fault_tolerance, None, "fail fast by default");
        assert!(!o.run.trace.enabled, "tracing off by default");
    }

    #[test]
    fn tracing_knob() {
        let o = QrOptions::new().tracing(TraceConfig::enabled());
        assert!(o.run.trace.enabled);
    }

    #[test]
    fn fault_tolerance_knob() {
        let ft = FaultTolerance::default();
        let o = QrOptions::new().workers(4).fault_tolerance(ft);
        assert_eq!(o.run.fault_tolerance, Some(ft));
    }

    #[test]
    fn builder_chains() {
        let o = QrOptions::new()
            .tile_size(32)
            .tree(TreePolicy::Fixed(tileqr_dag::EliminationTree::Binary))
            .workers(0);
        assert_eq!(o.get_tile_size(), 32);
        assert_eq!(
            o.get_tree(),
            TreePolicy::Fixed(tileqr_dag::EliminationTree::Binary)
        );
        assert_eq!(o.run.workers, 0);
    }

    #[test]
    fn tree_knob() {
        use tileqr_dag::EliminationTree;
        let o = QrOptions::new().tree(TreePolicy::Auto);
        assert_eq!(o.get_tree(), TreePolicy::Auto);
        let o = o.tree(TreePolicy::Fixed(EliminationTree::Greedy));
        assert_eq!(o.get_tree(), TreePolicy::Fixed(EliminationTree::Greedy));
    }

    #[test]
    fn zero_tile_rejected() {
        // Stored as given; the tiling refuses it, as an error, not a panic.
        let o = QrOptions::new().tile_size(0);
        assert_eq!(o.get_tile_size(), 0);
        let a = tileqr_matrix::gen::random_matrix::<f64>(8, 8, 1);
        let err = crate::TiledQr::factor(&a, &o).unwrap_err();
        assert_eq!(err, tileqr_matrix::MatrixError::BadTileSize { tile: 0 });
    }

    #[test]
    fn zero_plateau_domain_rejected() {
        // A plateau of zero-row domains is an error, not a panic.
        use tileqr_dag::EliminationTree::Plateau;
        use tileqr_matrix::MatrixError::DimensionMismatch;
        let o = QrOptions::new()
            .tile_size(4)
            .tree(TreePolicy::Fixed(Plateau(0)));
        let a = tileqr_matrix::gen::random_matrix::<f64>(16, 8, 1);
        let err = crate::TiledQr::factor(&a, &o).unwrap_err();
        assert!(
            matches!(err, DimensionMismatch { lhs: (4, 2), .. }),
            "{err:?}"
        );
    }
}
