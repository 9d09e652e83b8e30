//! Factorization options.

use tileqr_dag::TreePolicy;
use tileqr_runtime::{FaultTolerance, ServiceConfig, TraceConfig};

/// Options controlling a [`crate::TiledQr`] factorization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QrOptions {
    tile_size: usize,
    tree: TreePolicy,
    workers: usize,
    fault_tolerance: Option<FaultTolerance>,
    tracing: TraceConfig,
}

impl Default for QrOptions {
    /// Tile size 16 (the paper's choice, §V), TS elimination, sequential,
    /// fail fast, tracing off.
    fn default() -> Self {
        QrOptions {
            tile_size: 16,
            tree: TreePolicy::default(),
            workers: 1,
            fault_tolerance: None,
            tracing: TraceConfig::default(),
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
    pub fn tile_size(mut self, b: usize) -> Self {
        assert!(b > 0, "tile size must be positive");
        self.tile_size = b;
        self
    }

    /// Elimination-tree policy: pin a specific
    /// [`tileqr_dag::EliminationTree`] from the zoo (flat, binary,
    /// Fibonacci, greedy, plateau, TSQR), or let [`TreePolicy::Auto`]
    /// pick per geometry — the TSQR reduction tree on tall-skinny grids,
    /// greedy on very tall ones, the flat TS chain otherwise.
    pub fn tree(mut self, policy: TreePolicy) -> Self {
        self.tree = policy;
        self
    }

    /// Number of computing threads; `1` runs sequentially, `0` uses every
    /// available core.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enable fault-tolerant execution: worker panics and kernel errors
    /// are retried within `ft`'s budget instead of failing the run, and
    /// stalled workers are retired by the watchdog. Costs one tile-clone
    /// per task staging (so requeues are possible) plus commits
    /// serialized behind the engine's fence; the factors remain bit-identical to the sequential run.
    /// Irrelevant when `workers == 1`.
    pub fn fault_tolerance(mut self, ft: FaultTolerance) -> Self {
        self.fault_tolerance = Some(ft);
        self
    }

    /// Record a lifecycle trace of the run: per-worker
    /// stage/compute/commit spans plus the scheduling instants on a
    /// `manager` lane,
    /// surfaced through [`crate::TiledQr::factor_traced`]'s
    /// [`tileqr_runtime::RunReport::trace`]. Off by default — a disabled
    /// config costs nothing on the execution hot path.
    pub fn tracing(mut self, trace: TraceConfig) -> Self {
        self.tracing = trace;
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

    /// Configured worker count (`0` = all cores).
    pub fn get_workers(&self) -> usize {
        self.workers
    }

    /// Configured fault-tolerance bounds (`None` = fail fast).
    pub fn get_fault_tolerance(&self) -> Option<FaultTolerance> {
        self.fault_tolerance
    }

    /// Configured tracing (disabled by default).
    pub fn get_tracing(&self) -> TraceConfig {
        self.tracing
    }

    /// Derive a resident-service configuration from these options: the
    /// worker count and (if set) fault-tolerance budget carry over; the
    /// admission bound takes the service default. Pair with
    /// [`TiledQr::factor_on`](crate::TiledQr::factor_on) to route the
    /// single-matrix path through one long-lived
    /// [`QrService`](tileqr_runtime::QrService).
    pub fn to_service_config(&self) -> ServiceConfig {
        ServiceConfig {
            workers: self.workers,
            fault_tolerance: self.fault_tolerance.unwrap_or_default(),
            ..ServiceConfig::default()
        }
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
        assert_eq!(o.get_workers(), 1);
        assert_eq!(o.get_fault_tolerance(), None, "fail fast by default");
        assert!(!o.get_tracing().enabled, "tracing off by default");
    }

    #[test]
    fn tracing_knob() {
        let o = QrOptions::new().tracing(TraceConfig::enabled());
        assert!(o.get_tracing().enabled);
    }

    #[test]
    fn fault_tolerance_knob() {
        let ft = FaultTolerance::default();
        let o = QrOptions::new().workers(4).fault_tolerance(ft);
        assert_eq!(o.get_fault_tolerance(), Some(ft));
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
        assert_eq!(o.get_workers(), 0);
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
    #[should_panic]
    fn zero_tile_rejected() {
        let _ = QrOptions::new().tile_size(0);
    }
}
