//! Self-scheduling computing-thread pool: the scoped driver of the shared
//! [`engine`](crate::engine) (DESIGN.md §9).
//!
//! The paper's Fig. 7 puts a manager thread between the DAG and the
//! computing threads; at its tile size (b = 16, a few µs per task) that
//! hand-off *is* the run on host cores. So each **computing thread**
//! takes its own next task, as in Buttari et al.: one [`DagRun`] sits
//! behind one lock, and a worker loops *lock → settle its previous
//! attempt → pop the best ready task → unlock → [`run_attempt`]*,
//! sleeping only while nothing is ready. Staging, the kernel and the
//! worker-side commit all run outside that lock, and the ready set stays
//! global and un-prefetched, so the [`SchedulePolicy`] means what it
//! says. The **calling thread** touches no task: it waits for the run to
//! end, and in fault-tolerant mode it is the timer (retries, watchdog).
//!
//! Two execution modes share the loop, selected by `ft`:
//!
//! * **Fast** (`None`, the default): unfenced attempts — zero-copy
//!   staging, worker-side commits. A worker panic or kernel error is
//!   *isolated* (no hang, no abort) but fatal to the run, because the
//!   destructively-staged inputs of the failed task are gone.
//! * **Fault-tolerant** ([`parallel_factor_ft`]): fenced attempts, so
//!   re-execution is idempotent: a panicked or stalled worker is retired
//!   *for good* (this pool never respawns; an emptied pool is
//!   [`RuntimeError::AllWorkersDead`]), its task requeued with bounded
//!   retry + deterministic backoff, and a late result from a retired
//!   worker is either harvested (first commit wins, under the pool lock)
//!   or dropped.

use crate::engine::{run_attempt, DagRun, Outcome, Slots, Tally};
use crate::error::RuntimeError;
use crate::recovery::{FaultInjector, FaultTolerance};
use crate::scheduler::{DispatchOrder, SchedulePolicy};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Condvar, LockResult, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use tileqr_dag::{CostModel, TaskGraph, TaskId, TaskKind};
use tileqr_kernels::exec::{FactorState, SharedFactorState};
use tileqr_kernels::{flops, Workspace};
use tileqr_matrix::{MatrixError, Result, Scalar};
use tileqr_obs::{
    merge_recorders, DriftConfig, HotPathCounters, KernelHistograms, RawEvent, RawKind, Trace,
    TraceConfig, WorkerRecorder,
};

/// Worker-pool configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolConfig {
    /// Number of computing threads. `0` means one per available core.
    pub workers: usize,
    /// Dispatch order for ready tasks.
    pub policy: SchedulePolicy,
    /// Lifecycle tracing. Disabled by default; when disabled the pool
    /// allocates no recorders and reads no extra clocks.
    pub trace: TraceConfig,
    /// Where bottom-level priorities come from: flop counts (default) or
    /// calibrated per-class timing curves, so
    /// [`SchedulePolicy::CriticalPath`] can rank by measured microseconds.
    pub cost: CostModel,
    /// Performance-drift re-weighting. Requires a
    /// [`CostModel::Calibrated`] model; at panel boundaries the engine
    /// compares measured compute durations against the model and, past
    /// the damped threshold, recomputes bottom levels for the remaining
    /// DAG in place. Off by default.
    pub drift: DriftConfig,
}

impl PoolConfig {
    /// Resolve `workers == 0` to the hardware parallelism.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
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
    /// Total time workers spent inside `stage` (slot lock waits + pointer
    /// swaps), summed across workers.
    pub stage_wait: Duration,
    /// Total time workers spent inside `commit`, summed across workers.
    pub commit_wait: Duration,
    /// High-water mark of the ready-set depth.
    pub max_ready_depth: usize,
    /// Dispatch policy the run used.
    pub policy: SchedulePolicy,
    /// Extra attempts scheduled after a failed attempt (transient kernel
    /// error, worker panic, or stall).
    pub retries: u64,
    /// In-flight tasks returned to the pending set because their worker
    /// died (panic or stall retirement).
    pub requeues: u64,
    /// Workers retired mid-run (panicked or stalled past the watchdog).
    pub worker_deaths: u64,
    /// Times the drift detector fired and the engine re-ranked the ready
    /// set under freshly scaled costs. Always 0 unless the run had a
    /// calibrated cost model and drift detection enabled.
    pub drift_reweights: u64,
    /// Unified lifecycle trace of the run — `Some` iff the run's
    /// [`TraceConfig`] was enabled. One lane per worker plus a `manager`
    /// lane carrying ready/dispatch/recovery instants (and, in
    /// fault-tolerant mode, the fenced commits).
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

    /// Total lock-path time (stage + commit) as a fraction of `elapsed`
    /// summed over workers — how much of the run the hot path spent
    /// touching shared state.
    pub fn lock_fraction(&self) -> f64 {
        let denom = self.elapsed.as_secs_f64() * self.tasks_per_worker.len().max(1) as f64;
        if denom == 0.0 {
            return 0.0;
        }
        (self.stage_wait.as_secs_f64() + self.commit_wait.as_secs_f64()) / denom
    }

    /// Per-kernel latency histograms over the run's compute spans.
    /// `None` when the run was not traced.
    pub fn kernel_histograms(&self) -> Option<KernelHistograms> {
        self.trace.as_ref().map(KernelHistograms::from_trace)
    }
}

/// Task weight under the run's [`CostModel`] at tile size `b`: kernel
/// flop counts (the seed behaviour — bottom levels reflect real work, not
/// just DAG depth) or calibrated microseconds.
pub fn model_weight(cost: CostModel, b: usize) -> impl Fn(TaskKind) -> f64 + Copy {
    move |t| match cost {
        CostModel::Flops => flops::task_flops(t, b) as f64,
        CostModel::Calibrated(c) => c.cost_us(t, b),
    }
}

/// Execute every task of `graph` over `state`, in parallel.
///
/// Returns the completed state. Any kernel error aborts the run and is
/// propagated (the pool drains cleanly first).
pub fn parallel_factor<T: Scalar>(
    state: FactorState<T>,
    graph: &TaskGraph,
    config: PoolConfig,
) -> Result<FactorState<T>> {
    parallel_factor_traced(state, graph, config).map(|(state, _)| state)
}

/// [`parallel_factor`] with a per-worker [`RunReport`].
pub fn parallel_factor_traced<T: Scalar>(
    state: FactorState<T>,
    graph: &TaskGraph,
    config: PoolConfig,
) -> Result<(FactorState<T>, RunReport)> {
    if config.effective_workers() <= 1 {
        // Degenerate pool: run inline in program order.
        return run_inline(state, graph, config.policy, Instant::now(), config.trace);
    }
    parallel_factor_ordered(state, graph, config, DispatchOrder::Policy(config.policy))
}

/// [`parallel_factor_traced`] dispatching under an explicit
/// [`DispatchOrder`] — the testkit's hook for driving the *real* pool
/// (threads, wake-ups, staged commits and all) through adversarial and
/// seeded ready-set orders. Unlike [`parallel_factor_traced`], a
/// single-worker config still runs the pool loop, so `workers == 1`
/// honours the requested order instead of falling back to program order
/// (the single-worker-starvation scenario).
pub fn parallel_factor_ordered<T: Scalar>(
    state: FactorState<T>,
    graph: &TaskGraph,
    config: PoolConfig,
    order: DispatchOrder,
) -> Result<(FactorState<T>, RunReport)> {
    let started = Instant::now();
    if graph.len() <= 1 {
        return run_inline(state, graph, order.base_policy(), started, config.trace);
    }
    run_pool(state, graph, config, order, None, None).map_err(MatrixError::from)
}

/// Fault-tolerant (or fault-isolated) parallel factorization.
///
/// With `ft = Some(..)` the pool recovers from worker panics, transient
/// kernel failures, and stalls: the worker is retired (or the error
/// absorbed), the task is requeued after deterministic backoff, and the
/// run continues degraded on the remaining workers — failing only with a
/// structured [`RuntimeError`] once the per-task attempt budget or the
/// worker pool itself is exhausted. With `ft = None` the pool runs the
/// zero-copy fast path: a fault still cannot hang or abort the process
/// (workers execute under `catch_unwind`), but it fails the run, because
/// destructive staging makes re-execution unsafe.
///
/// `injector` is the deterministic test seam — consulted before every
/// attempt, it can script panics, transient failures, and stalls at exact
/// `(task, attempt)` coordinates (see
/// [`ScriptedFaults`](crate::recovery::ScriptedFaults)).
pub fn parallel_factor_ft<T: Scalar>(
    state: FactorState<T>,
    graph: &TaskGraph,
    config: PoolConfig,
    ft: Option<FaultTolerance>,
    injector: Option<&dyn FaultInjector>,
) -> std::result::Result<(FactorState<T>, RunReport), RuntimeError> {
    run_pool(
        state,
        graph,
        config,
        DispatchOrder::Policy(config.policy),
        ft,
        injector,
    )
}

fn run_inline<T: Scalar>(
    mut state: FactorState<T>,
    graph: &TaskGraph,
    policy: SchedulePolicy,
    started: Instant,
    trace_cfg: TraceConfig,
) -> Result<(FactorState<T>, RunReport)> {
    let trace = if trace_cfg.enabled {
        // Inline runs have no staging or commit contention; one compute
        // span per task on the single worker lane is the whole story.
        let ns = || started.elapsed().as_nanos() as u64;
        let mut rec = WorkerRecorder::new(trace_cfg.capacity_per_lane.max(graph.len()));
        for tid in 0..graph.len() {
            let t0 = ns();
            state.execute(graph.task(tid))?;
            rec.record(RawEvent::interval(RawKind::Compute, tid, 0, t0, ns()));
        }
        Some(merge_recorders(&[rec], vec!["worker0".to_string()], graph))
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
    let report = Tally::one_lane(1, 0, graph.len() as u64).into_report(
        0,
        policy,
        started.elapsed(),
        trace,
        counters,
    );
    Ok((state, report))
}

/// What the workers and the calling thread share, behind the one lock.
struct PoolState<'a> {
    graph: &'a TaskGraph,
    /// `Some` selects the fenced, retryable discipline.
    ft: Option<FaultTolerance>,
    run: DagRun,
    /// Attempts the watchdog is clocking, when `ft` sets a stall timeout.
    slots: Slots<TaskId>,
    /// Backoff-parked retries, earliest wake-up first.
    parked: BinaryHeap<Reverse<(Instant, TaskId)>>,
    fatal: Option<RuntimeError>,
    /// Workers that neither panicked nor were retired by the watchdog.
    live: usize,
    /// Workers asleep waiting for a ready task.
    sleepers: usize,
}

impl PoolState<'_> {
    /// Whether workers should stop taking tasks.
    fn finished(&self) -> bool {
        self.fatal.is_some() || self.run.all_done()
    }

    /// Abandon the run with `e` (the first fatal error wins).
    fn fail(&mut self, e: RuntimeError) {
        self.run.halt();
        self.fatal.get_or_insert(e);
    }

    /// Charge a lost attempt of `t` to its budget: park the retry, or
    /// record the exhausted budget as the run's fatal error.
    fn park_retry(&mut self, ft: &FaultTolerance, t: TaskId, last: String) {
        match self.run.charge_retry(ft, t, last) {
            Ok(when) => self.parked.push(Reverse((when, t))),
            Err(e) => self.fail(e),
        }
    }

    /// The fenced mode's timers: move due retries back to the ready set
    /// and retire workers stalled past the watchdog bound (for good — no
    /// respawn), requeueing their tasks. Returns when to look again.
    fn run_timers(&mut self) -> Option<Instant> {
        let ft = self.ft?;
        let now = Instant::now();
        while let Some(&Reverse((when, t))) = self.parked.peek() {
            if when > now {
                break;
            }
            self.parked.pop();
            self.run.wake(t);
        }
        let expiry = ft.stall_timeout.map(|st| {
            for (w, t) in self.slots.take_stalled(st, now) {
                self.live -= 1;
                if self.run.on_panicked(t, w, true) {
                    self.park_retry(&ft, t, format!("worker {w} stalled past {st:?}"));
                }
            }
            // No attempt that starts after `now` can expire before this.
            self.slots.earliest_stall_expiry(st).unwrap_or(now + st)
        });
        let wake = self.parked.peek().map(|&Reverse((when, _))| when);
        wake.into_iter().chain(expiry).min()
    }

    /// Settle worker `w`'s report of how attempt `at` ended; `expected`
    /// is false if the watchdog retired `w` while it was away. Returns
    /// whether the worker lives on: not after a panic or a retirement.
    fn settle<T: Scalar>(
        &mut self,
        shared: &SharedFactorState<T>,
        w: usize,
        at: (TaskId, u32),
        expected: bool,
        outcome: Outcome<T>,
    ) -> bool {
        let t = at.0;
        let panicked = matches!(outcome, Outcome::Panicked(_));
        self.live -= usize::from(panicked && expected);
        // A lost attempt costs a retry when fenced, the run when not
        // (destructive staging lost the task's inputs).
        let lost = match outcome {
            Outcome::Done(done) => {
                self.run.on_done(self.graph, shared, at, w, expected, done);
                None
            }
            Outcome::Failed(source) => self
                .run
                .on_failed(t, expected)
                .then_some(RuntimeError::Kernel { task: t, source }),
            Outcome::Panicked(message) => {
                self.run
                    .on_panicked(t, w, expected)
                    .then_some(RuntimeError::TaskPanicked {
                        task: t,
                        worker: w,
                        message,
                    })
            }
        };
        match (lost, self.ft) {
            (None, _) => {}
            (Some(cause), Some(ft)) => self.park_retry(&ft, t, cause.to_string()),
            (Some(cause), None) => self.fail(cause),
        }
        expected && !panicked
    }
}

type PoolGuard<'g, 'a> = MutexGuard<'g, PoolState<'a>>;

/// The guard out of a lock or wait result. A poisoned lock means a thread
/// panicked mid-bookkeeping: the books cannot be trusted any more, so the
/// run fails instead of panicking a second time.
fn recover<'g, 'a>(r: LockResult<PoolGuard<'g, 'a>>) -> PoolGuard<'g, 'a> {
    r.unwrap_or_else(|poisoned| {
        let mut g = poisoned.into_inner();
        let in_flight = g.run.in_flight();
        g.fail(RuntimeError::Disconnected { in_flight });
        g
    })
}

/// The pool driver behind every multi-worker entry point: scoped,
/// self-scheduling worker threads that are never respawned (an emptied
/// pool is [`RuntimeError::AllWorkersDead`]) around one [`DagRun`]. `ft`
/// selects the engine's fenced, retryable discipline; without it a fault
/// is isolated but fatal.
fn run_pool<T: Scalar>(
    state: FactorState<T>,
    graph: &TaskGraph,
    config: PoolConfig,
    order: DispatchOrder,
    ft: Option<FaultTolerance>,
    injector: Option<&dyn FaultInjector>,
) -> std::result::Result<(FactorState<T>, RunReport), RuntimeError> {
    let started = Instant::now();
    let workers = config.effective_workers().max(1);
    let b = state.tiles().tile_size();
    let shared = SharedFactorState::new(state);
    let watched = ft.is_some_and(|ft| ft.stall_timeout.is_some());
    let trace_cfg = config.trace;
    let recorder = || {
        trace_cfg
            .enabled
            .then(|| WorkerRecorder::new(trace_cfg.capacity_per_lane))
    };
    let lane = recorder().map(|rec| (rec, started));
    let pool = Mutex::new(PoolState {
        graph,
        ft,
        run: DagRun::new(graph, order, config.cost, config.drift, b, workers, lane),
        slots: Slots::new(workers),
        parked: BinaryHeap::new(),
        fatal: None,
        live: workers,
        sleepers: 0,
    });
    // Two wait queues on the one lock: workers sleep on `work` while
    // nothing is ready; the calling thread sleeps on `caller` until the
    // run ends, a worker dies, or a timer is due or newly set.
    let (work, caller) = (Condvar::new(), Condvar::new());

    // A computing thread; the lock never covers `run_attempt`. Returns its
    // trace lane and its arena's final size and growth count.
    let worker = |w: usize| {
        let mut rec = recorder();
        // One arena per computing thread, sized once for the run's
        // (b, ib): every kernel this worker executes borrows scratch
        // from it instead of allocating.
        let mut ws = Workspace::<T>::new(b, b);
        // `alive`: neither panicked nor retired by the watchdog.
        let (mut g, mut alive) = (recover(pool.lock()), true);
        while alive && !g.finished() {
            let Some(at) = g.run.pop_ready(w) else {
                if g.run.in_flight() == 0 && g.parked.is_empty() {
                    // Unreachable while every uncommitted task is queued,
                    // parked, in flight or behind one that is; never hang.
                    g.fail(RuntimeError::Disconnected { in_flight: 0 });
                } else {
                    g.sleepers += 1;
                    g = recover(work.wait(g));
                    g.sleepers -= 1;
                }
                continue;
            };
            // Wake a sleeper only when there is one and a task left for
            // it, so a busy run makes no futex call per task.
            if g.sleepers > 0 && g.run.ready_len() > 0 {
                work.notify_one();
            }
            if watched {
                g.slots.watch(w, at.0);
            }
            drop(g);
            let lane = rec.as_mut().map(|r| (r, started));
            let kind = graph.task(at.0);
            let outcome = run_attempt(&shared, kind, at, injector, ft.is_some(), &mut ws, lane);
            let lost = !matches!(outcome, Outcome::Done(_));
            g = recover(pool.lock());
            let expected = !watched || g.slots.settle(w, at.0);
            alive = g.settle(&shared, w, at, expected, outcome);
            if lost {
                // A retry was parked (a new deadline) or the run failed.
                caller.notify_one();
            }
        }
        drop(g);
        // A worker leaves because the run ended or because it died: both
        // are what the calling thread waits for.
        caller.notify_one();
        (rec, ws.bytes(), ws.resizes())
    };

    let lanes: Vec<_> = std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = (0..workers)
            .map(|w| scope.spawn(move || worker(w)))
            .collect();

        let mut g = recover(pool.lock());
        loop {
            let deadline = g.run_timers();
            if g.sleepers > 0 && g.run.ready_len() > 0 {
                work.notify_one();
            }
            if g.live == 0 && !g.finished() {
                let (completed, total) = (g.run.completed(), graph.len());
                g.fail(RuntimeError::AllWorkersDead { completed, total });
            }
            if g.finished() {
                break;
            }
            g = recover(match deadline {
                None => caller.wait(g),
                Some(dl) => caller
                    .wait_timeout(g, dl.saturating_duration_since(Instant::now()))
                    .map(|(g, _)| g)
                    .map_err(|poisoned| PoisonError::new(poisoned.into_inner().0)),
            });
        }
        drop(g);
        // The sleepers learn of the end here. Then join every worker, even
        // one finishing a late attempt; one that panicked outside
        // `catch_unwind` contributes nothing.
        work.notify_all();
        handles.into_iter().map(|h| h.join().ok()).collect()
    });

    let state = pool.into_inner().unwrap_or_else(PoisonError::into_inner);
    let PoolState { mut run, fatal, .. } = state;
    fatal.map_or(Ok(()), Err)?;
    debug_assert!(run.all_done());
    let mut counters = HotPathCounters::default();
    let mut recorders = Vec::new();
    for (rec, bytes, resizes) in lanes.into_iter().map(Option::unwrap_or_default) {
        counters.workspace_bytes += bytes;
        counters.workspace_resizes += resizes;
        if trace_cfg.enabled {
            recorders.push(rec.unwrap_or_else(|| WorkerRecorder::new(1)));
        }
    }
    let trace = run.take_lane().map(|mgr| {
        recorders.push(mgr);
        let mut lanes: Vec<String> = (0..workers).map(|w| format!("worker{w}")).collect();
        lanes.push("manager".to_string());
        merge_recorders(&recorders, lanes, graph)
    });
    let state = shared.into_state();
    counters.cow_clones = state.cow_clones();
    let report = run.into_report(started.elapsed(), trace, counters);
    Ok((state, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::ScriptedFaults;
    use tileqr_dag::EliminationTree;
    use tileqr_kernels::exec::{apply_q_dense, FactorState};
    use tileqr_matrix::gen::random_matrix;
    use tileqr_matrix::ops::matmul;
    use tileqr_matrix::{Matrix, TiledMatrix};

    fn factor_parallel(
        n: usize,
        b: usize,
        workers: usize,
    ) -> (Matrix<f64>, FactorState<f64>, TaskGraph) {
        let a = random_matrix::<f64>(n, n, 99);
        let tiled = TiledMatrix::from_matrix(&a, b).unwrap();
        let g = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), EliminationTree::Flat);
        let st = parallel_factor(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers,
                ..PoolConfig::default()
            },
        )
        .unwrap();
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

    #[test]
    fn parallel_matches_sequential() {
        let a = random_matrix::<f64>(24, 24, 1);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build_tree(6, 6, EliminationTree::Flat);

        let mut seq = FactorState::new(tiled.clone());
        seq.run_all(&g).unwrap();

        let par = parallel_factor(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 4,
                ..PoolConfig::default()
            },
        )
        .unwrap();
        // Tiled QR is deterministic at the task level, so parallel and
        // sequential results are bit-identical.
        assert_eq!(seq.tiles().to_matrix(), par.tiles().to_matrix());
    }

    #[test]
    fn critical_path_policy_matches_fifo_bitwise() {
        let a = random_matrix::<f64>(24, 24, 2);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build_tree(6, 6, EliminationTree::Flat);

        let fifo = parallel_factor(
            FactorState::new(tiled.clone()),
            &g,
            PoolConfig {
                workers: 4,
                policy: SchedulePolicy::Fifo,
                ..PoolConfig::default()
            },
        )
        .unwrap();
        let cp = parallel_factor(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 4,
                policy: SchedulePolicy::CriticalPath,
                ..PoolConfig::default()
            },
        )
        .unwrap();
        assert_eq!(fifo.tiles().to_matrix(), cp.tiles().to_matrix());
        assert_eq!(fifo.r_matrix(), cp.r_matrix());
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
        assert_eq!(c.policy, SchedulePolicy::Fifo);
    }

    #[test]
    fn tt_order_in_parallel() {
        let a = random_matrix::<f64>(32, 8, 5);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build_tree(8, 2, EliminationTree::Binary);
        let st = parallel_factor(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 4,
                policy: SchedulePolicy::CriticalPath,
                ..PoolConfig::default()
            },
        )
        .unwrap();
        let (pm, _) = st.tiles().padded_dims();
        let mut q = Matrix::identity(pm);
        apply_q_dense(&st, &g, &mut q).unwrap();
        let r = st.r_matrix();
        let qr = matmul(&q, &r).unwrap();
        assert!(qr.approx_eq(&a, 1e-10));
    }

    #[test]
    fn run_report_accounts_every_task() {
        let a = random_matrix::<f64>(32, 32, 5);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build_tree(8, 8, EliminationTree::Flat);
        let (_, report) = super::parallel_factor_traced(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 3,
                policy: SchedulePolicy::CriticalPath,
                ..PoolConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.total_tasks() as usize, g.len());
        assert_eq!(report.tasks_per_worker.len(), 3);
        assert!(report.imbalance() >= 1.0);
        assert!(report.elapsed.as_nanos() > 0);
        assert!(report.max_ready_depth >= 1);
        assert_eq!(report.policy, SchedulePolicy::CriticalPath);
        // A clean run records no recovery activity.
        assert_eq!(report.retries, 0);
        assert_eq!(report.requeues, 0);
        assert_eq!(report.worker_deaths, 0);
        // The whole point of per-tile ownership: the lock path is a sliver
        // of the run.
        assert!(report.lock_fraction() < 0.5);
    }

    #[test]
    fn adversarial_orders_match_sequential_bitwise() {
        let a = random_matrix::<f64>(24, 24, 17);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build_tree(6, 6, EliminationTree::Flat);
        let mut seq = FactorState::new(tiled.clone());
        seq.run_all(&g).unwrap();
        let seq_tiles = seq.tiles().to_matrix();

        for order in [
            DispatchOrder::Lifo,
            DispatchOrder::ReversePriority,
            DispatchOrder::Seeded(7),
        ] {
            for workers in [1usize, 3] {
                let (st, report) = super::parallel_factor_ordered(
                    FactorState::new(tiled.clone()),
                    &g,
                    PoolConfig {
                        workers,
                        ..PoolConfig::default()
                    },
                    order,
                )
                .unwrap();
                assert_eq!(
                    st.tiles().to_matrix(),
                    seq_tiles,
                    "{order:?} workers={workers}"
                );
                assert_eq!(report.total_tasks() as usize, g.len());
            }
        }
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
        let (_, report) = super::parallel_factor_traced(
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
        assert_eq!(trace.dropped, 0);
        assert_eq!(trace.hot_path_reallocations, 0);
        trace.validate(true).unwrap();
        let hists = report.kernel_histograms().unwrap();
        assert_eq!(hists.total(), g.len() as u64);
    }

    #[test]
    fn untraced_run_reports_no_trace() {
        let a = random_matrix::<f64>(16, 16, 9);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build_tree(4, 4, EliminationTree::Flat);
        let (_, report) = super::parallel_factor_traced(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 2,
                ..PoolConfig::default()
            },
        )
        .unwrap();
        assert!(report.trace.is_none());
        assert!(report.kernel_histograms().is_none());
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
            policy: SchedulePolicy::Fifo,
            retries: 0,
            requeues: 0,
            worker_deaths: 0,
            drift_reweights: 0,
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
            let (st, report) = super::parallel_factor_traced(
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
        let (st, report) = parallel_factor_ft(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 3,
                ..PoolConfig::default()
            },
            Some(FaultTolerance::default()),
            Some(&faults),
        )
        .unwrap();
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
        let (st, report) = parallel_factor_ft(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 3,
                ..PoolConfig::default()
            },
            Some(FaultTolerance::default()),
            Some(&faults),
        )
        .unwrap();
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
        let (st, report) = parallel_factor_ft(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 2,
                ..PoolConfig::default()
            },
            Some(FaultTolerance::default()),
            Some(&faults),
        )
        .unwrap();
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
        let err = parallel_factor_ft(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 2,
                ..PoolConfig::default()
            },
            Some(FaultTolerance {
                max_attempts: 2,
                ..FaultTolerance::default()
            }),
            Some(&faults),
        )
        .unwrap_err();
        match err {
            RuntimeError::RetriesExhausted { task, attempts, .. } => {
                assert_eq!(task, 1);
                assert_eq!(attempts, 2);
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
    }

    #[test]
    fn ft_all_workers_dead_is_structured_error() {
        let a = random_matrix::<f64>(16, 16, 34);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build_tree(4, 4, EliminationTree::Flat);
        // Task 0 panics on every attempt: each try kills one worker, so a
        // 2-worker pool empties before the generous attempt budget does.
        let faults = ScriptedFaults::new().panic_on(0, 99);
        let err = parallel_factor_ft(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 2,
                ..PoolConfig::default()
            },
            Some(FaultTolerance {
                max_attempts: 99,
                ..FaultTolerance::default()
            }),
            Some(&faults),
        )
        .unwrap_err();
        match err {
            RuntimeError::AllWorkersDead { total, .. } => assert_eq!(total, g.len()),
            other => panic!("expected AllWorkersDead, got {other}"),
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
        let err = parallel_factor_ft(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 3,
                ..PoolConfig::default()
            },
            None,
            Some(&faults),
        )
        .unwrap_err();
        match err {
            RuntimeError::TaskPanicked { task, .. } => assert_eq!(task, 2),
            other => panic!("expected TaskPanicked, got {other}"),
        }
    }

    #[test]
    fn poisoned_pool_lock_fails_the_run_without_a_second_panic() {
        let graph = TaskGraph::build_tree(2, 2, EliminationTree::Flat);
        let (cfg, order) = (
            PoolConfig::default(),
            DispatchOrder::Policy(SchedulePolicy::Fifo),
        );
        let pool = Mutex::new(PoolState {
            graph: &graph,
            ft: None,
            run: DagRun::new(&graph, order, cfg.cost, cfg.drift, 4, 2, None),
            slots: Slots::new(2),
            parked: BinaryHeap::new(),
            fatal: None,
            live: 2,
            sleepers: 0,
        });
        // A worker dying mid-bookkeeping poisons the lock...
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _g = pool.lock().unwrap();
                panic!("mid-bookkeeping");
            })
            .join()
        });
        assert!(died.is_err() && pool.is_poisoned());
        // ...and whoever takes it next fails the run instead of panicking.
        let g = recover(pool.lock());
        assert!(g.finished() && g.run.is_halted());
        assert_eq!(g.fatal, Some(RuntimeError::Disconnected { in_flight: 0 }));
    }

    #[test]
    fn ft_watchdog_retires_stalled_worker() {
        let a = random_matrix::<f64>(16, 16, 36);
        let (tiled, g, seq_tiles) = sequential_tiles(&a, 4);
        // One attempt sleeps far past the watchdog; the stalled worker is
        // retired, the task re-runs elsewhere, and the eventual late
        // result is deduplicated at the commit fence.
        let faults = ScriptedFaults::new().stall_on(1, 1, Duration::from_millis(400));
        let (st, report) = parallel_factor_ft(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 2,
                ..PoolConfig::default()
            },
            Some(FaultTolerance {
                stall_timeout: Some(Duration::from_millis(50)),
                ..FaultTolerance::default()
            }),
            Some(&faults),
        )
        .unwrap();
        assert_eq!(st.tiles().to_matrix(), seq_tiles);
        assert_eq!(report.total_tasks() as usize, g.len());
        assert!(report.worker_deaths >= 1);
        assert!(report.requeues >= 1);
    }
}
