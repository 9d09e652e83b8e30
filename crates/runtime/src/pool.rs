//! One-shot runs: configuration, report and the one entry point,
//! [`parallel_factor_traced`].
//!
//! At one effective worker a run executes inline on the calling thread: no
//! thread, no lock, program order. Otherwise it is a one-job, call-scoped
//! instance of the host driver in [`service`](crate::service) (DESIGN.md
//! §9): self-scheduling workers behind one lock, the calling thread as its
//! clock. The job's engine run takes the [`PoolConfig::fault_tolerance`]
//! budget and with it its mode. Without one it runs **unfenced** —
//! zero-copy staging; a worker panic or kernel error is *isolated* (no
//! hang, no abort) but fatal to the run, because the destructively-staged
//! inputs of the failed task are gone. With one, attempts are fenced, so
//! re-execution is idempotent, exactly as for a job of the resident
//! service. The driver dispatches FIFO; its test
//! seam, a [`FaultInjector`](crate::FaultInjector) whose
//! [`pick`](crate::FaultInjector::pick) may stand in a schedule adversary
//! for the FIFO order, reaches it as the one-shot job's own injector,
//! through the doc-hidden [`run_pool`](crate::run_pool) alone.

use crate::engine::{Recording, Tally};
use crate::recovery::FaultTolerance;
use crate::service::run_pool;
use std::time::{Duration, Instant};
use tileqr_dag::TaskGraph;
use tileqr_kernels::exec::FactorState;
use tileqr_matrix::{Result, Scalar};
use tileqr_obs::{HotPathCounters, Phase, Trace, TraceConfig};

/// Configuration of a one-shot run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolConfig {
    /// Number of computing threads. `0` means one per available core.
    pub workers: usize,
    /// Lifecycle tracing. Disabled by default; when disabled the pool
    /// allocates no trace and reads no extra clocks.
    pub trace: TraceConfig,
    /// Recovery budget of a multi-worker run: with `Some`, worker panics,
    /// transient kernel failures and (with a watchdog) stalls are retried
    /// within it, and a panel factor that comes out non-finite fails the
    /// run at that task ([`RuntimeError::Kernel`](crate::RuntimeError)).
    /// `None` (the default) is the unfenced fast path.
    /// [`parallel_factor_traced`] at one effective worker runs inline and
    /// ignores it.
    pub fault_tolerance: Option<FaultTolerance>,
}

impl PoolConfig {
    /// Resolve `workers == 0` to the hardware parallelism.
    pub fn effective_workers(&self) -> usize {
        effective_workers(self.workers)
    }
}

/// `workers`, or one per available core when it is 0: the one rule behind
/// both configs' `effective_workers`.
pub(crate) fn effective_workers(workers: usize) -> usize {
    let cores = || std::thread::available_parallelism().ok();
    let n = std::num::NonZeroUsize::new(workers).or_else(cores);
    n.map_or(1, |n| n.get())
}

/// Per-run report from [`parallel_factor_traced`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Tasks executed by each computing thread (credited to the worker
    /// whose result was committed, so the counts sum to the graph size
    /// even when recovery re-executed tasks).
    pub tasks_per_worker: Vec<u64>,
    /// Wall-clock duration of the run.
    pub elapsed: std::time::Duration,
    /// Time workers blocked taking the driver's lock to dispatch and stage
    /// a task, summed; zero when it was never contended (and for an inline
    /// run, which has no lock).
    pub stage_wait: Duration,
    /// Time workers blocked taking the driver's lock to settle and commit
    /// a task, summed; zero when it was never contended.
    pub commit_wait: Duration,
    /// High-water mark of the ready-set depth.
    pub max_ready_depth: usize,
    /// Extra attempts scheduled after a failed attempt (transient kernel
    /// error, worker panic, or stall).
    pub retries: u64,
    /// In-flight tasks returned to the pending set because their worker
    /// died (panic or stall retirement).
    pub requeues: u64,
    /// Workers retired mid-run (panicked or stalled past the watchdog).
    pub worker_deaths: u64,
    /// Unified lifecycle trace of the run — `Some` iff the run's
    /// [`TraceConfig`] was enabled. Every event of the run: one lane per
    /// worker (stage and compute spans) plus a `manager` lane carrying
    /// ready/dispatch/recovery instants and the commits.
    pub trace: Option<Trace>,
    /// Memory-discipline counters: copy-on-write fallback clones plus
    /// workspace-arena bytes and growths, summed over all workers. Jobs
    /// of a resident [`QrService`](crate::QrService) report
    /// `workspace_bytes` / `workspace_resizes` as 0: its arenas outlive
    /// the job, so neither is attributable to it.
    pub counters: HotPathCounters,
}

impl RunReport {
    /// Total tasks executed.
    pub fn total_tasks(&self) -> u64 {
        self.tasks_per_worker.iter().sum()
    }

    /// Copy-on-write fallback clones the run took — full `O(b²)` tile
    /// copies on the stage path. 0 for every single-owner execution; any
    /// other value means an `Arc` that should have been unique was still
    /// shared when its writer staged it.
    pub fn cow_clones(&self) -> u64 {
        self.counters.cow_clones
    }

    /// Ratio of the busiest worker's task count to the average — 1.0 is
    /// perfectly balanced, 0.0 when there were no workers at all.
    pub fn imbalance(&self) -> f64 {
        if self.tasks_per_worker.is_empty() {
            return 0.0;
        }
        let total = self.total_tasks();
        if total == 0 {
            return 1.0;
        }
        let avg = total as f64 / self.tasks_per_worker.len() as f64;
        let max = self
            .tasks_per_worker
            .iter()
            .max()
            .copied()
            .unwrap_or_default() as f64;
        max / avg
    }
}

/// Execute every task of `graph` over `state` and report the run.
///
/// At one effective worker the run is inline, in program order; otherwise
/// ready tasks dispatch FIFO over `config.workers` self-scheduling threads,
/// fenced iff `config.fault_tolerance` is set. Returns the completed state.
/// A failure the run cannot recover from aborts it and is propagated (the
/// workers drain cleanly first).
pub fn parallel_factor_traced<T: Scalar>(
    state: FactorState<T>,
    graph: &TaskGraph,
    config: PoolConfig,
) -> Result<(FactorState<T>, RunReport)> {
    if config.effective_workers() <= 1 {
        return run_inline(state, graph, Instant::now(), config.trace);
    }
    Ok(run_pool(state, graph, config, None)?)
}

fn run_inline<T: Scalar>(
    mut state: FactorState<T>,
    graph: &TaskGraph,
    epoch: Instant,
    trace_cfg: TraceConfig,
) -> Result<(FactorState<T>, RunReport)> {
    let trace = if trace_cfg.enabled {
        // Inline runs have no staging or commit contention; one compute
        // span per task on the single worker lane is the whole story.
        let trace = Trace::with_room(vec!["worker0".to_string()], graph.len(), 0);
        let mut rec = Recording { trace, epoch };
        for (task, &kind) in graph.tasks().iter().enumerate() {
            let t0 = Instant::now();
            state.execute(kind)?;
            rec.span((Phase::Compute, 0), kind, (task, 0), (t0, Instant::now()));
        }
        Some(rec.trace)
    } else {
        state.run_all(graph)?;
        None
    };
    // Nonzero cow_clones here means the *caller* kept tile handles alive
    // (e.g. a shallow `TiledMatrix` clone) — the run pays one copy per
    // shared tile on first take. With uniquely-owned input this is 0.
    let counters = HotPathCounters {
        cow_clones: state.cow_clones(),
        workspace_bytes: state.workspace_bytes(),
        workspace_resizes: state.workspace_resizes(),
    };
    let tally = Tally::inline(graph.len() as u64);
    let report = tally.into_report(0, epoch.elapsed(), trace, counters);
    Ok((state, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RuntimeError;
    use crate::recovery::ScriptedFaults;
    use std::sync::Arc;
    use tileqr_dag::EliminationTree;
    use tileqr_kernels::exec::{apply_q_dense, FactorState};
    use tileqr_matrix::gen::random_matrix;
    use tileqr_matrix::ops::matmul;
    use tileqr_matrix::{Matrix, TiledMatrix};
    use tileqr_obs::KernelHistograms;

    fn factor_parallel(
        n: usize,
        b: usize,
        workers: usize,
    ) -> (Matrix<f64>, FactorState<f64>, TaskGraph) {
        let a = random_matrix::<f64>(n, n, 99);
        let tiled = TiledMatrix::from_matrix(&a, b).unwrap();
        let g = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), EliminationTree::Flat);
        let st = parallel_factor_traced(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers,
                ..PoolConfig::default()
            },
        )
        .unwrap()
        .0;
        (a, st, g)
    }

    /// Sequential reference for bit-identity checks.
    fn sequential_tiles(a: &Matrix<f64>, b: usize) -> (TiledMatrix<f64>, TaskGraph, Matrix<f64>) {
        let tiled = TiledMatrix::from_matrix(a, b).unwrap();
        let g = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), EliminationTree::Flat);
        let mut seq = FactorState::new(tiled.clone());
        seq.run_all(&g).unwrap();
        let m = seq.tiles().to_matrix();
        (tiled, g, m)
    }

    /// A run of `tiled` on `workers` slots, fenced by `ft`, under `faults`.
    fn faulted(
        tiled: TiledMatrix<f64>,
        g: &TaskGraph,
        workers: usize,
        fault_tolerance: Option<FaultTolerance>,
        faults: ScriptedFaults,
    ) -> std::result::Result<(FactorState<f64>, RunReport), RuntimeError> {
        let config = PoolConfig {
            workers,
            fault_tolerance,
            ..PoolConfig::default()
        };
        run_pool(FactorState::new(tiled), g, config, Some(Arc::new(faults)))
    }

    #[test]
    fn parallel_matches_sequential() {
        let a = random_matrix::<f64>(24, 24, 1);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build_tree(6, 6, EliminationTree::Flat);

        let mut seq = FactorState::new(tiled.clone());
        seq.run_all(&g).unwrap();

        let par = parallel_factor_traced(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 4,
                ..PoolConfig::default()
            },
        )
        .unwrap()
        .0;
        // Tiled QR is deterministic at the task level, so parallel and
        // sequential results are bit-identical.
        assert_eq!(seq.tiles().to_matrix(), par.tiles().to_matrix());
    }

    #[test]
    fn parallel_factorization_is_correct() {
        let (a, st, g) = factor_parallel(32, 8, 4);
        let (pm, _) = st.tiles().padded_dims();
        let mut q = Matrix::identity(pm);
        apply_q_dense(&st, &g, &mut q).unwrap();
        let r = st.r_matrix();
        let qr = matmul(&q, &r).unwrap();
        assert!(qr.approx_eq(&a, 1e-11));
    }

    #[test]
    fn single_worker_inline_path() {
        let (a, st, g) = factor_parallel(16, 4, 1);
        let mut q = Matrix::identity(16);
        apply_q_dense(&st, &g, &mut q).unwrap();
        let qr = matmul(&q, &st.r_matrix()).unwrap();
        assert!(qr.approx_eq(&a, 1e-11));
    }

    #[test]
    fn many_workers_small_graph() {
        // More workers than tasks must not deadlock.
        let (a, st, g) = factor_parallel(8, 4, 16);
        let mut q = Matrix::identity(8);
        apply_q_dense(&st, &g, &mut q).unwrap();
        let qr = matmul(&q, &st.r_matrix()).unwrap();
        assert!(qr.approx_eq(&a, 1e-11));
    }

    #[test]
    fn default_config_uses_all_cores() {
        let c = PoolConfig::default();
        assert!(c.effective_workers() >= 1);
    }

    #[test]
    fn run_report_accounts_every_task() {
        let a = random_matrix::<f64>(32, 32, 5);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build_tree(8, 8, EliminationTree::Flat);
        let (_, report) = parallel_factor_traced(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 3,
                ..PoolConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.total_tasks() as usize, g.len());
        assert_eq!(report.tasks_per_worker.len(), 3);
        assert!(report.imbalance() >= 1.0);
        assert!(report.elapsed.as_nanos() > 0);
        assert!(report.max_ready_depth >= 1);
        // A clean run records no recovery activity.
        assert_eq!(report.retries, 0);
        assert_eq!(report.requeues, 0);
        assert_eq!(report.worker_deaths, 0);
        // The whole point of per-tile ownership: the lock path (stage +
        // commit, summed over the 3 workers) is a sliver of the run.
        let lock_path = report.stage_wait + report.commit_wait;
        assert!(lock_path.as_secs_f64() < 0.5 * 3.0 * report.elapsed.as_secs_f64());
    }

    #[test]
    fn repeated_runs_identical() {
        let (_, st1, _) = factor_parallel(24, 4, 4);
        let (_, st2, _) = factor_parallel(24, 4, 4);
        assert_eq!(st1.tiles().to_matrix(), st2.tiles().to_matrix());
    }

    #[test]
    fn traced_run_captures_full_lifecycle() {
        let a = random_matrix::<f64>(24, 24, 8);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build_tree(6, 6, EliminationTree::Flat);
        let (_, report) = parallel_factor_traced(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 3,
                trace: TraceConfig::enabled(),
                ..PoolConfig::default()
            },
        )
        .unwrap();
        let trace = report.trace.as_ref().expect("tracing was enabled");
        assert_eq!(trace.compute_span_count(), g.len());
        assert_eq!(trace.lanes.len(), 4, "3 workers + manager");
        assert_eq!(trace.hot_path_reallocations, 0);
        trace.validate(true).unwrap();
        let hists = KernelHistograms::from_trace(trace);
        assert_eq!(hists.total(), g.len() as u64);
    }

    #[test]
    fn untraced_run_reports_no_trace() {
        let a = random_matrix::<f64>(16, 16, 9);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build_tree(4, 4, EliminationTree::Flat);
        let (_, report) = parallel_factor_traced(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 2,
                ..PoolConfig::default()
            },
        )
        .unwrap();
        assert!(report.trace.is_none());
        assert!(report
            .trace
            .as_ref()
            .map(KernelHistograms::from_trace)
            .is_none());
    }

    #[test]
    fn imbalance_on_empty_worker_vec_is_zero() {
        // Regression: used to divide through an unwrap on `iter().max()`;
        // an empty report must report 0.0, not panic.
        let report = RunReport {
            tasks_per_worker: vec![],
            elapsed: Duration::ZERO,
            stage_wait: Duration::ZERO,
            commit_wait: Duration::ZERO,
            max_ready_depth: 0,
            retries: 0,
            requeues: 0,
            worker_deaths: 0,
            trace: None,
            counters: HotPathCounters::default(),
        };
        assert_eq!(report.imbalance(), 0.0);
        assert_eq!(report.total_tasks(), 0);
        assert_eq!(report.cow_clones(), 0);
    }

    #[test]
    fn pool_runs_are_cow_free_with_sized_arenas() {
        // The zero-allocation contract: the pool's move-based staging never
        // hits the copy-on-write fallback, and per-worker arenas sized at
        // spawn never grow.
        let a = random_matrix::<f64>(24, 24, 41);
        let (_, g, seq_tiles) = sequential_tiles(&a, 4);
        for workers in [1usize, 2, 4] {
            // Freshly-tiled input each run: no external handle may survive,
            // or the first take of each shared tile would count as a COW.
            let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
            let (st, report) = parallel_factor_traced(
                FactorState::new(tiled),
                &g,
                PoolConfig {
                    workers,
                    ..PoolConfig::default()
                },
            )
            .unwrap();
            assert_eq!(st.tiles().to_matrix(), seq_tiles, "workers={workers}");
            assert_eq!(report.cow_clones(), 0, "workers={workers}");
            assert_eq!(report.counters.workspace_resizes, 0, "workers={workers}");
            assert!(report.counters.workspace_bytes > 0, "workers={workers}");
            assert!(report.counters.is_clean());
        }
    }

    #[test]
    fn ft_mode_reports_clean_counters_after_recovery() {
        // stage_preserving's defensive clones are deliberate copies, not
        // COW fallbacks — recovery must not dirty the counter.
        let a = random_matrix::<f64>(16, 16, 43);
        let (tiled, g, seq_tiles) = sequential_tiles(&a, 4);
        let faults = ScriptedFaults::new().panic_on(2, 1).fail_on(5, 1);
        let ft = Some(FaultTolerance::default());
        let (st, report) = faulted(tiled, &g, 3, ft, faults).unwrap();
        assert_eq!(st.tiles().to_matrix(), seq_tiles);
        assert!(report.retries >= 2);
        assert_eq!(report.cow_clones(), 0);
        assert_eq!(report.counters.workspace_resizes, 0);
    }

    #[test]
    fn ft_recovers_from_worker_panic_bit_identical() {
        let a = random_matrix::<f64>(24, 24, 31);
        let (tiled, g, seq_tiles) = sequential_tiles(&a, 4);
        // Panic the first attempt of a mid-graph task; the worker dies,
        // the task is requeued, and the run completes on the survivors.
        let victim = g.len() / 2;
        let faults = ScriptedFaults::new().panic_on(victim, 1);
        let ft = Some(FaultTolerance::default());
        let (st, report) = faulted(tiled, &g, 3, ft, faults).unwrap();
        assert_eq!(st.tiles().to_matrix(), seq_tiles);
        assert_eq!(report.total_tasks() as usize, g.len());
        assert_eq!(report.worker_deaths, 1);
        assert_eq!(report.requeues, 1);
        assert_eq!(report.retries, 1);
    }

    #[test]
    fn ft_retries_transient_kernel_failures() {
        let a = random_matrix::<f64>(16, 16, 32);
        let (tiled, g, seq_tiles) = sequential_tiles(&a, 4);
        let faults = ScriptedFaults::new().fail_on(0, 2).fail_on(g.len() - 1, 1);
        let ft = Some(FaultTolerance::default());
        let (st, report) = faulted(tiled, &g, 2, ft, faults).unwrap();
        assert_eq!(st.tiles().to_matrix(), seq_tiles);
        assert_eq!(report.retries, 3);
        // Transient failures don't kill workers.
        assert_eq!(report.worker_deaths, 0);
        assert_eq!(report.requeues, 0);
    }

    #[test]
    fn ft_exhausted_retries_is_structured_error() {
        let a = random_matrix::<f64>(16, 16, 33);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build_tree(4, 4, EliminationTree::Flat);
        let faults = ScriptedFaults::new().fail_on(1, 99);
        let ft = FaultTolerance {
            max_attempts: 2,
            ..FaultTolerance::default()
        };
        let err = faulted(tiled, &g, 2, Some(ft), faults).unwrap_err();
        match err {
            RuntimeError::RetriesExhausted { task, attempts, .. } => {
                assert_eq!(task, 1);
                assert_eq!(attempts, 2);
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
    }

    #[test]
    fn ft_task_that_always_panics_exhausts_its_budget() {
        let a = random_matrix::<f64>(16, 16, 34);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build_tree(4, 4, EliminationTree::Flat);
        // Task 0 panics on every attempt: each try costs a thread, every
        // lost slot is respawned, so what runs out is the attempt budget,
        // not the pool.
        let faults = ScriptedFaults::new().panic_on(0, 99);
        let ft = FaultTolerance {
            max_attempts: 5,
            ..FaultTolerance::default()
        };
        let err = faulted(tiled, &g, 2, Some(ft), faults).unwrap_err();
        match err {
            RuntimeError::RetriesExhausted { task, attempts, .. } => {
                assert_eq!((task, attempts), (0, 5));
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
    }

    #[test]
    fn fast_mode_panic_fails_cleanly_without_hanging() {
        // ft = None: the panic is isolated (no process abort, no hang) but
        // fatal, because destructive staging lost the task's inputs.
        let a = random_matrix::<f64>(16, 16, 35);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build_tree(4, 4, EliminationTree::Flat);
        let faults = ScriptedFaults::new().panic_on(2, 1);
        let err = faulted(tiled, &g, 3, None, faults).unwrap_err();
        match err {
            RuntimeError::TaskPanicked { task, .. } => assert_eq!(task, 2),
            other => panic!("expected TaskPanicked, got {other}"),
        }
    }

    #[test]
    fn ft_watchdog_retires_stalled_worker() {
        let a = random_matrix::<f64>(16, 16, 36);
        let (tiled, g, seq_tiles) = sequential_tiles(&a, 4);
        // One attempt sleeps far past the watchdog; the stalled worker is
        // retired, the task re-runs elsewhere, and the eventual late
        // result is deduplicated at the commit fence.
        let faults = ScriptedFaults::new().stall_on(1, 1, Duration::from_millis(400));
        let ft = FaultTolerance {
            stall_timeout: Some(Duration::from_millis(50)),
            ..FaultTolerance::default()
        };
        let (st, report) = faulted(tiled, &g, 2, Some(ft), faults).unwrap();
        assert_eq!(st.tiles().to_matrix(), seq_tiles);
        assert_eq!(report.total_tasks() as usize, g.len());
        assert!(report.worker_deaths >= 1);
        assert!(report.requeues >= 1);
    }
}
