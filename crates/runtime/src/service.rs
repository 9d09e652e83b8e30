//! `QrService`: a resident multi-matrix throughput service.
//!
//! Where [`parallel_factor`](crate::parallel_factor) spins a pool up and
//! down around one matrix, the service keeps a **long-lived worker pool**
//! and accepts a *stream* of jobs — factor, least-squares solve, Q-apply —
//! through a submission handle. Tasks from many concurrent job DAGs are
//! interleaved through one manager-owned ready structure with per-job
//! **fair-share accounting** (weighted virtual time, one weight per
//! [`PriorityClass`]), so a flood of bulk work cannot starve interactive
//! jobs.
//!
//! Architecture (one manager thread, `workers` computing threads):
//!
//! * **Admission**: `max_in_flight` bounds submitted-but-unfinished jobs.
//!   [`QrService::submit`] blocks for a slot (backpressure);
//!   [`QrService::try_submit`] fails fast with [`ServiceError::Saturated`].
//! * **Fair share**: each job carries a virtual time; dispatching a task
//!   advances it by `task_flops / class_weight`. The manager always serves
//!   the backlogged job with the smallest virtual time, and a newly
//!   admitted job starts at the *minimum* virtual time of the current
//!   backlog — it can never be scheduled behind work that arrived after
//!   it, and a heavy job cannot monopolise the pool.
//! * **Batching**: jobs whose DAG is at most `batch_max_tasks` tasks are
//!   grouped into a composite unit executed sequentially on one worker —
//!   per-task dispatch overhead is the dominant cost at that size. A
//!   batch flushes when `batch_max_jobs` accumulate or when workers would
//!   otherwise idle; pending batches compete in the same virtual-time
//!   order as regular jobs (keyed by their oldest member), so batching
//!   adds no starvation risk.
//! * **Execution and recovery**: the fault-tolerant pool path, literally
//!   — every interleaved job owns one [`DagRun`] of the shared
//!   [`engine`](crate::engine), and workers run its fenced
//!   [`run_attempt`]. Non-destructive staging plus the engine's commit
//!   fence make re-execution idempotent, so bit-identity survives DAG
//!   interleaving, and a lost attempt is charged to the *victim job's*
//!   budget alone: exhausting it fails that one job with a structured
//!   [`ServiceError::Runtime`]. What this driver adds is the thread
//!   lifecycle: a panicked worker — or, with
//!   [`FaultTolerance::stall_timeout`] set, one the **stall watchdog**
//!   finds past the bound — is retired and its slot *respawned* (the pool
//!   never shrinks).
//! * **Job lifecycle**: a job can carry a [`JobSpec::deadline`]; expired
//!   queued jobs are **shed** before they consume worker time
//!   ([`ServiceError::DeadlineExceeded`]). [`JobHandle::cancel`]
//!   cooperatively drains a job at the fenced-commit boundary —
//!   in-flight attempts retire cleanly, the admission slot and WFQ state
//!   are released, and concurrent jobs are untouched
//!   ([`ServiceError::Cancelled`]).
//! * **Poison containment**: submission rejects non-finite inputs
//!   synchronously, and the commit fence scans panel-factor outputs —
//!   a NaN/Inf produced mid-run fails only the victim job with a
//!   structured [`ServiceError::NumericalBreakdown`] instead of
//!   propagating through downstream tiles.
//! * **Shutdown**: [`QrService::shutdown`] (and `Drop`) closes admission,
//!   drains every queued and in-flight job to its completion channel —
//!   zero lost jobs — then joins all threads.
//!
//! Instrumentation flows through the existing `tileqr-obs` types: per-job
//! task-compute [`LatencyHistogram`]s ride on each [`JobResult`], and
//! service-wide queue-wait / latency histograms plus queue-depth
//! high-water marks are readable at any time via [`QrService::stats`].

use crate::engine::{panic_message, run_attempt, DagRun, Outcome, Slots, Tally};
use crate::error::RuntimeError;
use crate::pool::{model_weight, RunReport};
use crate::recovery::{FaultInjector, FaultTolerance};
use crate::scheduler::{DispatchOrder, SchedulePolicy};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tileqr_dag::{
    CostModel, EliminationOrder, EliminationTree, KernelClass, TaskGraph, TaskId, TaskKind,
    TreePolicy,
};
use tileqr_kernels::exec::{apply_q_dense, apply_qt_dense, FactorState, SharedFactorState};
use tileqr_kernels::Workspace;
use tileqr_matrix::{Matrix, MatrixError, Scalar, TiledMatrix};
use tileqr_obs::{DriftConfig, HotPathCounters, LatencyHistogram, LifecycleCounters};

/// Job identifier, unique per service instance (1-based).
pub type JobId = u64;

/// Scheduling class of a job; determines its fair-share weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PriorityClass {
    /// Latency-sensitive foreground work (weight 4).
    Interactive,
    /// Default class (weight 2).
    #[default]
    Standard,
    /// Throughput-oriented background work (weight 1).
    Bulk,
}

impl PriorityClass {
    /// Fair-share weight: a job's virtual time advances by
    /// `task_cost / weight`, so higher weights receive proportionally
    /// more service under contention.
    pub fn weight(self) -> f64 {
        match self {
            PriorityClass::Interactive => 4.0,
            PriorityClass::Standard => 2.0,
            PriorityClass::Bulk => 1.0,
        }
    }

    /// Stable lowercase name (used in stats and bench output).
    pub fn name(self) -> &'static str {
        match self {
            PriorityClass::Interactive => "interactive",
            PriorityClass::Standard => "standard",
            PriorityClass::Bulk => "bulk",
        }
    }

    fn index(self) -> usize {
        match self {
            PriorityClass::Interactive => 0,
            PriorityClass::Standard => 1,
            PriorityClass::Bulk => 2,
        }
    }
}

/// Configuration of a [`QrService`] instance.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Computing threads. `0` means one per available core.
    pub workers: usize,
    /// Per-job ready-set ordering (FIFO or critical-path priority).
    pub policy: SchedulePolicy,
    /// Admission bound: maximum submitted-but-unfinished jobs. `0` means
    /// unbounded (no backpressure).
    pub max_in_flight: usize,
    /// Jobs whose DAG has at most this many tasks are batched into
    /// composite units instead of being interleaved task-by-task.
    /// `0` disables batching.
    pub batch_max_tasks: usize,
    /// A pending batch flushes once this many small jobs accumulate
    /// (it also flushes early whenever workers would otherwise idle).
    /// Values `<= 1` disable batching.
    pub batch_max_jobs: usize,
    /// Per-job retry budget and backoff for panicked or transiently
    /// failed tasks.
    pub fault_tolerance: FaultTolerance,
    /// Default task-cost model for bottom-level priorities and WFQ
    /// virtual time (per-job [`JobSpec::cost_model`] overrides it).
    pub cost: CostModel,
    /// Per-job performance-drift re-weighting (needs a calibrated cost
    /// model, the service default or a per-job override). Off by default.
    pub drift: DriftConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            policy: SchedulePolicy::default(),
            max_in_flight: 64,
            batch_max_tasks: 4,
            batch_max_jobs: 8,
            fault_tolerance: FaultTolerance::default(),
            cost: CostModel::default(),
            drift: DriftConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// Resolve `workers == 0` to the host's available parallelism.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(1, |v| v.get())
        }
    }

    fn batching_enabled(&self) -> bool {
        self.batch_max_tasks > 0 && self.batch_max_jobs > 1
    }
}

/// What a job computes once its factorization DAG has completed.
enum Payload<T: Scalar> {
    Factor,
    Solve { rhs: Vec<T> },
    Apply { c: Matrix<T>, transpose: bool },
}

/// A single unit of work submitted to a [`QrService`].
///
/// Built with [`JobSpec::factor`] / [`JobSpec::solve`] /
/// [`JobSpec::apply_qt`] / [`JobSpec::apply_q`] plus builder-style
/// options mirroring `QrOptions`.
pub struct JobSpec<T: Scalar> {
    a: Matrix<T>,
    payload: Payload<T>,
    tile_size: usize,
    tree: TreePolicy,
    inner_block: Option<usize>,
    priority: PriorityClass,
    deadline: Option<Duration>,
    injector: Option<Arc<dyn FaultInjector + Send + Sync>>,
    cost: Option<CostModel>,
    tuning: JobTuning,
}

impl<T: Scalar> JobSpec<T> {
    fn new(a: Matrix<T>, payload: Payload<T>) -> Self {
        JobSpec {
            a,
            payload,
            tile_size: 16,
            tree: TreePolicy::default(),
            inner_block: None,
            priority: PriorityClass::Standard,
            deadline: None,
            injector: None,
            cost: None,
            tuning: JobTuning::Standard,
        }
    }

    /// Factor `a` (QR of an `m x n` matrix, `m >= n`).
    pub fn factor(a: Matrix<T>) -> Self {
        Self::new(a, Payload::Factor)
    }

    /// Factor `a` and solve `min ||a x - rhs||_2` (`rhs.len() == a.rows()`).
    pub fn solve(a: Matrix<T>, rhs: Vec<T>) -> Self {
        Self::new(a, Payload::Solve { rhs })
    }

    /// Factor `a` and compute `Qᵀ c` (`c.rows() == a.rows()`).
    pub fn apply_qt(a: Matrix<T>, c: Matrix<T>) -> Self {
        Self::new(a, Payload::Apply { c, transpose: true })
    }

    /// Factor `a` and compute `Q c` (`c.rows() == a.rows()`).
    pub fn apply_q(a: Matrix<T>, c: Matrix<T>) -> Self {
        Self::new(
            a,
            Payload::Apply {
                c,
                transpose: false,
            },
        )
    }

    /// Tile size `b` (default 16, clamped to at least 1).
    pub fn tile_size(mut self, b: usize) -> Self {
        self.tile_size = b.max(1);
        self
    }

    /// Elimination order of the task DAG (default [`EliminationOrder::FlatTs`]).
    /// Shorthand for [`JobSpec::tree`] with the corresponding fixed
    /// [`EliminationTree`].
    pub fn order(mut self, order: EliminationOrder) -> Self {
        self.tree = TreePolicy::Fixed(order.into());
        self
    }

    /// Elimination-tree policy for the task DAG (default: fixed flat TS
    /// chain). [`TreePolicy::Auto`] defers the choice to the service's
    /// per-job planner: the calibrated selector installed via
    /// [`QrService::start_with_tree_selector`] when present, otherwise
    /// the geometry heuristic [`EliminationTree::default_for`].
    pub fn tree(mut self, policy: TreePolicy) -> Self {
        self.tree = policy;
        self
    }

    /// Inner blocking factor for the panel kernels.
    pub fn inner_block(mut self, ib: usize) -> Self {
        self.inner_block = Some(ib);
        self
    }

    /// Scheduling class (default [`PriorityClass::Standard`]).
    pub fn priority(mut self, class: PriorityClass) -> Self {
        self.priority = class;
        self
    }

    /// Completion deadline, measured from submission. A job whose
    /// deadline expires while it is still *queued* (no task dispatched
    /// yet) is shed with [`ServiceError::DeadlineExceeded`] before it
    /// consumes worker time — including at admission, when the deadline
    /// burned away while `submit` blocked on a saturated gate. Once the
    /// first task dispatches the job runs to completion; a deadline is a
    /// shedding bound, not a preemption request (use
    /// [`JobHandle::cancel`] for that).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach a fault injector consulted before every task attempt of
    /// *this job only* (testing hook; disables batching for the job so
    /// every attempt routes through the retryable task path).
    pub fn faults(mut self, injector: Arc<dyn FaultInjector + Send + Sync>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Override the service's default [`CostModel`] for this job's
    /// priorities and fair-share accounting.
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = Some(cost);
        self
    }

    /// Tag the job's place in the online-autotuning pipeline (counted in
    /// [`ServiceStats::probe_jobs`] / [`ServiceStats::tuned_jobs`]).
    pub fn tuning(mut self, tuning: JobTuning) -> Self {
        self.tuning = tuning;
        self
    }
}

/// A job's role in the service-level online autotuner — purely an
/// accounting tag; the tuner sets it so `ServiceStats` can show how many
/// jobs paid calibration cost versus ran on measured plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobTuning {
    /// Not part of a tuning pipeline.
    #[default]
    Standard,
    /// A calibration probe: its measurements feed a profile fit.
    Probe,
    /// Planned from a calibrated profile (tile size, tree, and cost model
    /// chosen by the selector).
    Tuned,
}

/// A completed factorization: the tile/reflector state plus the DAG that
/// produced it and the original (unpadded) dimensions.
pub struct FactoredJob<T: Scalar> {
    /// Tiles and T factors after the DAG ran to completion.
    pub state: FactorState<T>,
    /// The task graph that was executed.
    pub graph: TaskGraph,
    /// Original row count of the input.
    pub rows: usize,
    /// Original column count of the input.
    pub cols: usize,
}

impl<T: Scalar> FactoredJob<T> {
    /// The upper-triangular factor `R` (`rows x cols`, unpadded).
    pub fn r_matrix(&self) -> Matrix<T> {
        self.state.r_matrix()
    }
}

/// The product of a completed job.
pub enum JobOutput<T: Scalar> {
    /// A plain factorization.
    Factored(FactoredJob<T>),
    /// Least-squares solution plus the factorization that produced it.
    Solved {
        /// `x = R⁻¹ (Qᵀ rhs)₁..ₙ`.
        x: Vec<T>,
        /// The underlying factorization.
        factor: FactoredJob<T>,
    },
    /// `Q c` / `Qᵀ c` plus the factorization that produced it.
    Applied {
        /// The transformed matrix (unpadded, `rows x c.cols()`).
        c: Matrix<T>,
        /// The underlying factorization.
        factor: FactoredJob<T>,
    },
}

impl<T: Scalar> JobOutput<T> {
    /// The factorization underlying any job kind.
    pub fn factor(&self) -> &FactoredJob<T> {
        match self {
            JobOutput::Factored(f) => f,
            JobOutput::Solved { factor, .. } => factor,
            JobOutput::Applied { factor, .. } => factor,
        }
    }

    /// Consume the output, keeping only the factorization.
    pub fn into_factor(self) -> FactoredJob<T> {
        match self {
            JobOutput::Factored(f) => f,
            JobOutput::Solved { factor, .. } => factor,
            JobOutput::Applied { factor, .. } => factor,
        }
    }
}

/// Everything a job gets back on its completion channel.
pub struct JobResult<T: Scalar> {
    /// The job's service-assigned id.
    pub job: JobId,
    /// The class the job ran under.
    pub class: PriorityClass,
    /// The computed product.
    pub output: JobOutput<T>,
    /// Execution report (task spread, recovery counters, …). For batched
    /// jobs the report covers the composite unit's share attributed to
    /// this job.
    pub report: RunReport,
    /// Submission → first dispatch of any of the job's tasks.
    pub queue_wait: Duration,
    /// Submission → result delivery.
    pub latency: Duration,
    /// Service-wide task dispatches that happened between this job's
    /// submission and its own first dispatch — a scheduler-level fairness
    /// measure independent of task durations.
    pub dispatch_delay_tasks: u64,
    /// Jobs with pending work at the moment this job was admitted
    /// (the backlog it had to share the pool with).
    pub backlog_at_submit: u64,
    /// Whether the job executed inside a composite small-job batch.
    pub batched: bool,
    /// Per-task kernel compute latencies of this job alone.
    pub task_latency: LatencyHistogram,
    /// Total measured kernel time per timing-class slot
    /// (`[triangulation, elimination, update]`, µs) — the raw material
    /// the online autotuner fits profiles from. All zeros for batched
    /// jobs, which bypass per-task accounting.
    pub class_compute_us: [f64; 3],
    /// Committed tasks per timing-class slot (pairs with
    /// [`JobResult::class_compute_us`] to give per-class means).
    pub class_tasks: [u64; 3],
}

/// Why a submission or job failed.
#[derive(Debug)]
pub enum ServiceError {
    /// Admission bound reached ([`QrService::try_submit`] only). Carries
    /// the gate occupancy at rejection time so backpressure is
    /// debuggable straight from logs.
    Saturated {
        /// Submitted-but-unfinished jobs when the submission was turned
        /// away.
        in_flight: usize,
        /// The configured admission bound
        /// ([`ServiceConfig::max_in_flight`]).
        max_in_flight: usize,
    },
    /// The service is draining or already shut down.
    ShuttingDown,
    /// Spec validation or numeric epilogue failure.
    Numeric(MatrixError),
    /// The job's DAG execution failed (retry budget exhausted, …).
    Runtime(RuntimeError),
    /// The job's [`deadline`](JobSpec::deadline) expired while it was
    /// still queued, so it was shed before consuming worker time.
    DeadlineExceeded {
        /// The deadline the job was submitted with.
        deadline: Duration,
        /// How far past the deadline the job was when it was shed.
        late_by: Duration,
    },
    /// The job was cancelled via [`JobHandle::cancel`] and its in-flight
    /// work drained at the commit fence.
    Cancelled,
    /// A non-finite value (NaN/Inf) was detected — at submission, or in
    /// a panel-factor output at the commit fence — and contained before
    /// it could propagate into downstream tiles.
    NumericalBreakdown {
        /// The panel-factor task whose output was poisoned; `None` when
        /// the *input* matrix already carried a non-finite value at
        /// submission.
        task: Option<TaskId>,
        /// Grid coordinates `(tile row, tile column)` of the first
        /// poisoned tile.
        tile: (usize, usize),
    },
    /// The service dropped the completion channel without a result
    /// (manager died — should not happen).
    Lost,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Saturated {
                in_flight,
                max_in_flight,
            } => write!(
                f,
                "service saturated: admission bound reached ({in_flight}/{max_in_flight} jobs in flight)"
            ),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Numeric(e) => write!(f, "job failed numerically: {e}"),
            ServiceError::Runtime(e) => write!(f, "job execution failed: {e}"),
            ServiceError::DeadlineExceeded { deadline, late_by } => write!(
                f,
                "job shed: deadline {deadline:?} already missed by {late_by:?} while queued"
            ),
            ServiceError::Cancelled => write!(f, "job cancelled before completion"),
            ServiceError::NumericalBreakdown { task, tile } => match task {
                Some(t) => write!(
                    f,
                    "numerical breakdown: task {t} produced a non-finite panel factor at tile ({}, {})",
                    tile.0, tile.1
                ),
                None => write!(
                    f,
                    "numerical breakdown: input matrix is non-finite at tile ({}, {})",
                    tile.0, tile.1
                ),
            },
            ServiceError::Lost => write!(f, "service lost the job (manager terminated)"),
        }
    }
}

impl std::error::Error for ServiceError {
    /// Wrapped numeric / runtime failures chain to their cause so
    /// `Error::source` walkers reach the root diagnostic.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Numeric(e) => Some(e),
            ServiceError::Runtime(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ServiceError> for MatrixError {
    fn from(e: ServiceError) -> Self {
        match e {
            ServiceError::Numeric(inner) => inner,
            ServiceError::Runtime(inner) => inner.into(),
            other => MatrixError::Runtime {
                reason: other.to_string(),
            },
        }
    }
}

/// The job had not completed when [`JobHandle::wait_timeout`]'s bound
/// expired. The handle is untouched — wait again or cancel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeout;

impl fmt::Display for WaitTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job still running when the wait timeout expired")
    }
}

impl std::error::Error for WaitTimeout {}

/// Handle to one submitted job; redeem it with [`JobHandle::wait`].
pub struct JobHandle<T: Scalar> {
    id: JobId,
    rx: mpsc::Receiver<Result<JobResult<T>, ServiceError>>,
    ctl: mpsc::Sender<Msg<T>>,
}

impl<T: Scalar> JobHandle<T> {
    /// The service-assigned job id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Block until the job completes (or fails) and return its result.
    pub fn wait(self) -> Result<JobResult<T>, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::Lost))
    }

    /// Wait at most `timeout` for the result. On timeout the handle is
    /// *not* consumed: the job keeps running and the handle stays
    /// redeemable (wait again, or [`cancel`](Self::cancel) and then wait
    /// for the [`ServiceError::Cancelled`] acknowledgement).
    pub fn wait_timeout(
        &self,
        timeout: Duration,
    ) -> Result<Result<JobResult<T>, ServiceError>, WaitTimeout> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Ok(r),
            Err(RecvTimeoutError::Timeout) => Err(WaitTimeout),
            Err(RecvTimeoutError::Disconnected) => Ok(Err(ServiceError::Lost)),
        }
    }

    /// Request cooperative cancellation. The manager stops dispatching
    /// the job's remaining tasks, lets in-flight attempts drain at the
    /// fenced-commit boundary (no preemption — concurrent jobs stay
    /// bit-identical), releases the admission slot and fair-share state,
    /// and resolves the handle with [`ServiceError::Cancelled`].
    ///
    /// Cancellation races completion: if the job finishes first the
    /// handle resolves with the normal result and the cancel is a no-op.
    /// Safe to call more than once.
    pub fn cancel(&self) {
        // A send error means the manager already shut down; the handle
        // will resolve through the drain path regardless.
        let _ = self.ctl.send(Msg::Cancel(self.id));
    }
}

/// Service-wide counters and histograms, readable via [`QrService::stats`].
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Jobs accepted by the manager.
    pub jobs_submitted: u64,
    /// Jobs that delivered a successful result.
    pub jobs_completed: u64,
    /// Jobs that delivered an error.
    pub jobs_failed: u64,
    /// Jobs that executed inside composite batches.
    pub jobs_batched: u64,
    /// Composite batch units dispatched.
    pub batches: u64,
    /// Individual task dispatches (batched jobs count once per job).
    pub tasks_dispatched: u64,
    /// High-water mark of the total ready backlog (ready tasks across
    /// all jobs plus undispatched small jobs).
    pub max_ready_depth: usize,
    /// High-water mark of concurrently admitted jobs.
    pub max_jobs_in_flight: usize,
    /// Submission → first dispatch, across all completed jobs.
    pub queue_wait: LatencyHistogram,
    /// Submission → result delivery, across all completed jobs.
    pub latency: LatencyHistogram,
    /// Per-class latency histograms, indexed interactive/standard/bulk.
    pub class_latency: [LatencyHistogram; 3],
    /// Lifecycle-event counters: jobs shed past their deadline, jobs
    /// cancelled, poisoned panel factors contained, and stalled workers
    /// retired by the watchdog.
    pub lifecycle: LifecycleCounters,
    /// Times a job's drift detector fired and its remaining DAG was
    /// re-ranked under freshly scaled calibrated costs.
    pub drift_reweights: u64,
    /// Jobs submitted tagged [`JobTuning::Probe`] (paid calibration).
    pub probe_jobs: u64,
    /// Jobs submitted tagged [`JobTuning::Tuned`] (ran on measured plans).
    pub tuned_jobs: u64,
}

impl ServiceStats {
    /// Latency histogram of one priority class.
    pub fn latency_for(&self, class: PriorityClass) -> &LatencyHistogram {
        &self.class_latency[class.index()]
    }
}

// ---------------------------------------------------------------------------
// admission gate
// ---------------------------------------------------------------------------

struct GateState {
    in_flight: usize,
    accepting: bool,
}

struct Gate {
    capacity: usize,
    state: Mutex<GateState>,
    cv: Condvar,
}

impl Gate {
    fn new(capacity: usize) -> Self {
        Gate {
            capacity,
            state: Mutex::new(GateState {
                in_flight: 0,
                accepting: true,
            }),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self, block: bool) -> Result<(), ServiceError> {
        let mut s = self.state.lock().unwrap();
        loop {
            if !s.accepting {
                return Err(ServiceError::ShuttingDown);
            }
            if self.capacity == 0 || s.in_flight < self.capacity {
                s.in_flight += 1;
                return Ok(());
            }
            if !block {
                return Err(ServiceError::Saturated {
                    in_flight: s.in_flight,
                    max_in_flight: self.capacity,
                });
            }
            s = self.cv.wait(s).unwrap();
        }
    }

    fn release(&self) {
        let mut s = self.state.lock().unwrap();
        s.in_flight = s.in_flight.saturating_sub(1);
        drop(s);
        self.cv.notify_all();
    }

    fn close(&self) {
        self.state.lock().unwrap().accepting = false;
        self.cv.notify_all();
    }

    fn in_flight(&self) -> usize {
        self.state.lock().unwrap().in_flight
    }
}

// ---------------------------------------------------------------------------
// wire types between submitter, manager, and workers
// ---------------------------------------------------------------------------

type ResultTx<T> = mpsc::Sender<Result<JobResult<T>, ServiceError>>;
type SharedInjector = Arc<dyn FaultInjector + Send + Sync>;

/// Identity + timing + completion channel of one job, carried through
/// whichever path (interleaved / batched / epilogue) executes it.
struct JobMeta<T: Scalar> {
    id: JobId,
    class: PriorityClass,
    submitted: Instant,
    /// Absolute shed bound (`submitted + JobSpec::deadline`).
    deadline: Option<Instant>,
    submit_dispatch_count: u64,
    backlog_at_submit: u64,
    queue_wait: Duration,
    dispatch_delay_tasks: u64,
    result_tx: ResultTx<T>,
}

/// What every execution path needs of a job to produce its output: the
/// factor state, the DAG over it, the original (unpadded) dimensions, and
/// what to compute once the DAG has run.
struct JobBody<T: Scalar> {
    state: FactorState<T>,
    graph: Arc<TaskGraph>,
    rows: usize,
    cols: usize,
    payload: Payload<T>,
}

/// A submission as it reaches the manager; `meta`'s dispatch-count and
/// backlog stamps are the manager's to fill in at admission.
struct NewJob<T: Scalar> {
    meta: JobMeta<T>,
    body: JobBody<T>,
    b: usize,
    cost: CostModel,
    tuning: JobTuning,
    injector: Option<SharedInjector>,
}

/// A job small enough to batch: queued, grouped and executed whole.
struct SmallJob<T: Scalar> {
    meta: JobMeta<T>,
    body: JobBody<T>,
    vtime: f64,
}

/// Everything a [`JobResult`] carries besides the output — assembled
/// when a job's DAG finishes and handed along (through the epilogue
/// worker, if there is one) to the moment of delivery.
struct Delivery<T: Scalar> {
    meta: JobMeta<T>,
    report: RunReport,
    batched: bool,
    task_latency: LatencyHistogram,
    class_compute_us: [f64; 3],
    class_tasks: [u64; 3],
}

/// Why a composite (batch / epilogue) unit failed on its worker.
enum UnitFailure {
    Numeric(MatrixError),
    Panicked(String),
}

impl UnitFailure {
    fn into_error(self, worker: usize) -> ServiceError {
        match self {
            UnitFailure::Numeric(e) => ServiceError::Numeric(e),
            UnitFailure::Panicked(message) => ServiceError::Runtime(RuntimeError::TaskPanicked {
                task: 0,
                worker,
                message,
            }),
        }
    }
}

/// Run a composite unit under `catch_unwind`, so a panic fails the unit's
/// job instead of killing the resident worker.
fn guarded<R>(unit: impl FnOnce() -> Result<R, MatrixError>) -> Result<R, UnitFailure> {
    match catch_unwind(AssertUnwindSafe(unit)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(UnitFailure::Numeric(e)),
        Err(payload) => Err(UnitFailure::Panicked(panic_message(payload.as_ref()))),
    }
}

/// The in-flight attempt a worker slot is watched for.
type AttemptKey = (JobId, TaskId, u32);

struct TaskDone<T: Scalar> {
    key: AttemptKey,
    worker: usize,
    outcome: Outcome<T>,
}

struct BatchItem<T: Scalar> {
    meta: JobMeta<T>,
    result: Result<(JobOutput<T>, LatencyHistogram), UnitFailure>,
    elapsed: Duration,
    tasks: u64,
}

struct EpilogueDone<T: Scalar> {
    worker: usize,
    delivery: Delivery<T>,
    result: Result<JobOutput<T>, UnitFailure>,
}

enum Msg<T: Scalar> {
    Submit(Box<NewJob<T>>),
    TaskDone(Box<TaskDone<T>>),
    BatchDone(usize, Vec<BatchItem<T>>),
    EpilogueDone(Box<EpilogueDone<T>>),
    Cancel(JobId),
    Drain(mpsc::Sender<()>),
}

enum Work<T: Scalar> {
    Task {
        key: AttemptKey,
        kind: TaskKind,
        shared: Arc<SharedFactorState<T>>,
        injector: Option<SharedInjector>,
    },
    Batch(Vec<SmallJob<T>>),
    Epilogue(Box<(Delivery<T>, JobBody<T>)>),
}

/// Run the epilogue of a finished DAG: wrap the state into the job's
/// requested output, replaying the reflectors for solve/apply payloads.
///
/// The solve path mirrors `TiledQr::solve` exactly (pad, `Qᵀ b`, back
/// substitution on the leading `cols` entries) so a service solve is
/// bit-identical to the single-matrix API.
fn finish_output<T: Scalar>(body: JobBody<T>) -> Result<JobOutput<T>, MatrixError> {
    let (state, graph, rows, cols) = (body.state, body.graph.as_ref(), body.rows, body.cols);
    let wrap = |state: FactorState<T>| FactoredJob {
        state,
        graph: graph.clone(),
        rows,
        cols,
    };
    match body.payload {
        Payload::Factor => Ok(JobOutput::Factored(wrap(state))),
        Payload::Solve { rhs } => {
            let (pm, _) = state.tiles().padded_dims();
            let bm = Matrix::from_col_major(rows, 1, rhs)?;
            let mut work = Matrix::zeros(pm, 1);
            work.set_submatrix(0, 0, &bm)?;
            apply_qt_dense(&state, graph, &mut work)?;
            let r_sq = state.r_matrix().submatrix(0, 0, cols, cols)?;
            let x = tileqr_matrix::ops::solve_upper_triangular(&r_sq, &work.as_slice()[..cols])?;
            Ok(JobOutput::Solved {
                x,
                factor: wrap(state),
            })
        }
        Payload::Apply { c, transpose } => {
            let (pm, _) = state.tiles().padded_dims();
            let mut work = Matrix::zeros(pm, c.cols());
            work.set_submatrix(0, 0, &c)?;
            if transpose {
                apply_qt_dense(&state, graph, &mut work)?;
            } else {
                apply_q_dense(&state, graph, &mut work)?;
            }
            let out = work.submatrix(0, 0, rows, c.cols())?;
            Ok(JobOutput::Applied {
                c: out,
                factor: wrap(state),
            })
        }
    }
}

// ---------------------------------------------------------------------------
// worker thread
// ---------------------------------------------------------------------------

fn worker_loop<T: Scalar>(worker_id: usize, rx: mpsc::Receiver<Work<T>>, tx: mpsc::Sender<Msg<T>>) {
    // One arena per resident thread, grown on demand to the largest
    // (b, ib) the worker has seen — steady state allocates nothing.
    let mut ws = Workspace::<T>::minimal();
    while let Ok(work) = rx.recv() {
        let (report, retire) = match work {
            Work::Task {
                key,
                kind,
                shared,
                injector,
            } => {
                let injector = injector.as_deref().map(|f| f as &dyn FaultInjector);
                let attempt = (key.1, key.2);
                let outcome = run_attempt(&shared, kind, attempt, injector, true, &mut ws, None);
                // Drop the state handle *before* reporting: when the
                // manager sees the job's last completion it can then
                // reclaim unique ownership immediately.
                drop(shared);
                let retire = matches!(outcome, Outcome::Panicked(_));
                let done = TaskDone {
                    key,
                    worker: worker_id,
                    outcome,
                };
                (Msg::TaskDone(Box::new(done)), retire)
            }
            Work::Batch(units) => {
                let run_unit = |SmallJob { meta, mut body, .. }: SmallJob<T>| {
                    let tasks = body.graph.len() as u64;
                    let t0 = Instant::now();
                    let result = guarded(move || {
                        let mut hist = LatencyHistogram::new();
                        for tid in 0..body.graph.len() {
                            let k0 = Instant::now();
                            body.state.execute(body.graph.task(tid))?;
                            hist.record_ns(k0.elapsed().as_nanos() as u64);
                        }
                        Ok((finish_output(body)?, hist))
                    });
                    BatchItem {
                        meta,
                        result,
                        elapsed: t0.elapsed(),
                        tasks,
                    }
                };
                let items = units.into_iter().map(run_unit).collect();
                (Msg::BatchDone(worker_id, items), false)
            }
            Work::Epilogue(unit) => {
                let (delivery, body) = *unit;
                let done = EpilogueDone {
                    worker: worker_id,
                    delivery,
                    result: guarded(move || finish_output(body)),
                };
                (Msg::EpilogueDone(Box::new(done)), false)
            }
        };
        if tx.send(report).is_err() || retire {
            break;
        }
    }
}

// ---------------------------------------------------------------------------
// manager
// ---------------------------------------------------------------------------

/// One interleaved (DAG-path) job: the engine's [`DagRun`] plus what only
/// the service knows about it — its fair-share position, its lifecycle
/// stamps, and the per-job measurements that ride on the [`JobResult`].
struct JobState<T: Scalar> {
    meta: JobMeta<T>,
    /// The job's [`JobBody`], taken apart while workers share the state;
    /// reassembled when the DAG is done and the `Arc` is unique again.
    shared: Option<Arc<SharedFactorState<T>>>,
    graph: Arc<TaskGraph>,
    rows: usize,
    cols: usize,
    payload: Payload<T>,
    b: usize,
    weight: f64,
    cost: CostModel,
    vtime: f64,
    /// Readiness, fence, retry budget, drift and counters. A cancelled
    /// job is a halted run: nothing more dispatches or commits, and the
    /// job resolves once its in-flight attempts have drained.
    run: DagRun,
    injector: Option<SharedInjector>,
    started: Option<Instant>,
    class_compute_us: [f64; 3],
    class_tasks: [u64; 3],
    task_latency: LatencyHistogram,
}

struct PendingBatch<T: Scalar> {
    units: Vec<SmallJob<T>>,
    vtime: f64,
}

struct WorkerSlot<T: Scalar> {
    tx: mpsc::Sender<Work<T>>,
    handle: JoinHandle<()>,
}

/// The service driver: resident worker threads that are respawned on
/// death (the pool never shrinks), admission, weighted-fair choice among
/// many [`DagRun`]s and small-job batches, deadlines, cancellation and
/// epilogues. Everything per-DAG is the engine's.
struct Manager<T: Scalar> {
    cfg: ServiceConfig,
    workers: usize,
    rx: mpsc::Receiver<Msg<T>>,
    msg_tx: mpsc::Sender<Msg<T>>,
    threads: Vec<WorkerSlot<T>>,
    graveyard: Vec<JoinHandle<()>>,
    /// Batch and epilogue units occupy a slot unwatched: composite units
    /// have no per-task retry identity for the watchdog to requeue.
    slots: Slots<AttemptKey>,
    jobs: HashMap<JobId, JobState<T>>,
    smalls: Vec<SmallJob<T>>,
    batches: VecDeque<PendingBatch<T>>,
    /// Batch and epilogue units currently on a worker.
    units_in_flight: usize,
    epi_queue: VecDeque<Work<T>>,
    finalize_pending: Vec<JobId>,
    parked: BinaryHeap<Reverse<(Instant, JobId, TaskId)>>,
    vclock: f64,
    dispatch_count: u64,
    draining: bool,
    drain_ack: Option<mpsc::Sender<()>>,
    gate: Arc<Gate>,
    metrics: Arc<Mutex<ServiceStats>>,
}

/// Cost of one task under the job's model, scaled to keep virtual times
/// in a sane range (megaflops for the flop model, microseconds for a
/// calibrated one — WFQ only compares within the service, so any
/// monotone unit works).
fn task_cost(cost: CostModel, b: usize, kind: TaskKind) -> f64 {
    (model_weight(cost, b)(kind) / 1.0e6).max(1.0e-9)
}

/// Panel-factor kinds are the poison chokepoint: every downstream update
/// consumes their tiles or T factors, so scanning them at the commit
/// fence catches a NaN/Inf before it spreads beyond one tile column.
fn is_panel_factor(kind: TaskKind) -> bool {
    matches!(
        kind,
        TaskKind::Geqrt { .. } | TaskKind::Tsqrt { .. } | TaskKind::Ttqrt { .. }
    )
}

impl<T: Scalar> Manager<T> {
    fn new(
        cfg: ServiceConfig,
        workers: usize,
        rx: mpsc::Receiver<Msg<T>>,
        msg_tx: mpsc::Sender<Msg<T>>,
        gate: Arc<Gate>,
        metrics: Arc<Mutex<ServiceStats>>,
    ) -> Self {
        let mut mgr = Manager {
            cfg,
            workers,
            rx,
            msg_tx,
            threads: Vec::with_capacity(workers),
            graveyard: Vec::new(),
            slots: Slots::new(workers),
            jobs: HashMap::new(),
            smalls: Vec::new(),
            batches: VecDeque::new(),
            units_in_flight: 0,
            epi_queue: VecDeque::new(),
            finalize_pending: Vec::new(),
            parked: BinaryHeap::new(),
            vclock: 0.0,
            dispatch_count: 0,
            draining: false,
            drain_ack: None,
            gate,
            metrics,
        };
        for w in 0..workers {
            let slot = mgr.spawn_worker(w);
            mgr.threads.push(slot);
        }
        mgr
    }

    fn spawn_worker(&self, id: usize) -> WorkerSlot<T> {
        let (tx, rx) = mpsc::channel::<Work<T>>();
        let msg_tx = self.msg_tx.clone();
        let handle = std::thread::Builder::new()
            .name(format!("qr-service-worker-{id}"))
            .spawn(move || worker_loop(id, rx, msg_tx))
            .expect("spawn service worker");
        WorkerSlot { tx, handle }
    }

    /// Replace the retired worker thread of claimed slot `w`, so the pool
    /// never shrinks, and return the slot to the idle stack.
    fn respawn(&mut self, w: usize) {
        let fresh = self.spawn_worker(w);
        let retired = std::mem::replace(&mut self.threads[w], fresh);
        self.graveyard.push(retired.handle);
        self.slots.free(w);
    }

    /// Virtual time a newly admitted job starts at: the minimum over the
    /// current backlog, so no new arrival is ordered behind work that
    /// came after it and no idle period inflates anyone's credit.
    fn arrival_vtime(&self) -> f64 {
        let dag = self.jobs.values().filter(|j| !j.run.all_done());
        let queued = self.smalls.iter().map(|s| s.vtime);
        let batched = self.batches.iter().map(|b| b.vtime);
        let backlog = dag.map(|j| j.vtime).chain(queued).chain(batched);
        let earliest = backlog.fold(f64::INFINITY, f64::min);
        if earliest.is_finite() {
            earliest
        } else {
            self.vclock
        }
    }

    fn backlog_size(&self) -> u64 {
        let active = self.jobs.values().filter(|j| !j.run.all_done()).count();
        (active + self.smalls.len() + self.batches.iter().map(|b| b.units.len()).sum::<usize>())
            as u64
    }

    fn handle_submit(&mut self, nj: NewJob<T>) {
        let (mut meta, body, injector) = (nj.meta, nj.body, nj.injector);
        meta.submit_dispatch_count = self.dispatch_count;
        meta.backlog_at_submit = self.backlog_size();
        let vtime = self.arrival_vtime();
        {
            let mut m = self.metrics.lock().unwrap();
            m.jobs_submitted += 1;
            m.max_jobs_in_flight = m.max_jobs_in_flight.max(self.gate.in_flight());
            match nj.tuning {
                JobTuning::Standard => {}
                JobTuning::Probe => m.probe_jobs += 1,
                JobTuning::Tuned => m.tuned_jobs += 1,
            }
        }
        // Admission-time shed: the deadline may already be unmeetable —
        // typically because `submit` blocked on a saturated gate while it
        // burned away. Reject before the job costs any scheduling state.
        if meta.deadline.is_some_and(|d| Instant::now() >= d) {
            return self.shed_meta(meta);
        }
        let batchable = self.cfg.batching_enabled()
            && body.graph.len() <= self.cfg.batch_max_tasks
            && injector.is_none();
        if batchable {
            self.smalls.push(SmallJob { meta, body, vtime });
            if self.smalls.len() >= self.cfg.batch_max_jobs {
                self.flush_smalls();
            }
            return;
        }
        let order = DispatchOrder::Policy(self.cfg.policy);
        let (cost, drift, b) = (nj.cost, self.cfg.drift, nj.b);
        let job = JobState {
            weight: meta.class.weight(),
            meta,
            run: DagRun::new(&body.graph, order, cost, drift, b, self.workers, None),
            shared: Some(Arc::new(SharedFactorState::new(body.state))),
            graph: body.graph,
            rows: body.rows,
            cols: body.cols,
            payload: body.payload,
            b,
            cost,
            vtime,
            injector,
            started: None,
            class_compute_us: [0.0; 3],
            class_tasks: [0; 3],
            task_latency: LatencyHistogram::new(),
        };
        self.jobs.insert(job.meta.id, job);
    }

    fn flush_smalls(&mut self) {
        if self.smalls.is_empty() {
            return;
        }
        let units = std::mem::take(&mut self.smalls);
        let vtime = units.iter().map(|u| u.vtime).fold(f64::INFINITY, f64::min);
        self.batches.push_back(PendingBatch { units, vtime });
    }

    /// Move due parked retries back into their job's ready set.
    fn wake_parked(&mut self) {
        let now = Instant::now();
        while let Some(Reverse((deadline, job, task))) = self.parked.peek().copied() {
            if deadline > now {
                break;
            }
            self.parked.pop();
            if let Some(j) = self.jobs.get_mut(&job) {
                j.run.wake(task);
            }
        }
    }

    /// Resolve a job's handle with `err`, release its admission slot and
    /// count the failure (plus its lifecycle counter, if it has one).
    fn resolve_err(&mut self, meta: JobMeta<T>, err: ServiceError) {
        let mut m = self.metrics.lock().unwrap();
        m.jobs_failed += 1;
        match err {
            ServiceError::DeadlineExceeded { .. } => m.lifecycle.jobs_shed += 1,
            ServiceError::Cancelled => m.lifecycle.jobs_cancelled += 1,
            _ => {}
        }
        drop(m);
        // Release before resolving the handle so a waiter that sees the
        // error can immediately reuse the admission slot.
        self.gate.release();
        let _ = meta.result_tx.send(Err(err));
    }

    /// Shed one queued job past its deadline.
    fn shed_meta(&mut self, meta: JobMeta<T>) {
        let deadline = meta.deadline.expect("only deadline-bearing jobs shed");
        let err = ServiceError::DeadlineExceeded {
            deadline: deadline.duration_since(meta.submitted),
            late_by: Instant::now().saturating_duration_since(deadline),
        };
        self.resolve_err(meta, err);
    }

    /// Earliest deadline among still-queued jobs (bounds the run loop's
    /// recv timeout so sheds fire without needing message traffic).
    fn earliest_queued_deadline(&self) -> Option<Instant> {
        let dag = self.jobs.values().filter(|j| j.started.is_none());
        let small = self.smalls.iter();
        let batched = self.batches.iter().flat_map(|b| &b.units);
        let queued = small.chain(batched).map(|u| &u.meta);
        let metas = dag.map(|j| &j.meta).chain(queued);
        metas.filter_map(|m| m.deadline).min()
    }

    /// Pull every still-queued (undispatched) small job whose meta matches
    /// `pick` out of the small-job queue and the pending batches.
    fn take_queued(&mut self, pick: impl Fn(&JobMeta<T>) -> bool) -> Vec<JobMeta<T>> {
        let mut taken = Vec::new();
        let batched = self.batches.iter_mut().map(|b| &mut b.units);
        for units in std::iter::once(&mut self.smalls).chain(batched) {
            // The meta is needed by value (to resolve its channel), so a
            // queue with a match is rebuilt rather than `retain`ed.
            if units.iter().any(|u| pick(&u.meta)) {
                let (out, keep): (Vec<_>, Vec<_>) = std::mem::take(units)
                    .into_iter()
                    .partition(|u| pick(&u.meta));
                *units = keep;
                taken.extend(out.into_iter().map(|u| u.meta));
            }
        }
        self.batches.retain(|b| !b.units.is_empty());
        taken
    }

    /// Shed every queued job whose deadline has passed. A job counts as
    /// queued until its first task (or batch) dispatches; after that it
    /// runs to completion — a deadline bounds *waiting*, not execution.
    /// (A never-started job is never a cancelled one: cancelling a job
    /// with nothing in flight resolves it on the spot.)
    fn sweep_shed(&mut self) {
        let now = Instant::now();
        let expired = |m: &JobMeta<T>| m.deadline.is_some_and(|d| now >= d);
        let dag: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|(_, j)| j.started.is_none() && expired(&j.meta))
            .map(|(&id, _)| id)
            .collect();
        let mut late = self.take_queued(expired);
        late.extend(
            dag.iter()
                .filter_map(|id| self.jobs.remove(id))
                .map(|j| j.meta),
        );
        for meta in late {
            self.shed_meta(meta);
        }
    }

    /// Stall watchdog: retire any worker whose in-flight task has aged
    /// past `stall_timeout`, respawn the slot (the pool never shrinks),
    /// and requeue the task exactly once through the normal retry path.
    /// The stalled thread's eventual late result (if it ever wakes) is
    /// deduplicated at the commit fence like any other stale attempt.
    fn sweep_watchdog(&mut self) {
        let Some(bound) = self.cfg.fault_tolerance.stall_timeout else {
            return;
        };
        for (w, (id, task, _)) in self.slots.take_stalled(bound, Instant::now()) {
            self.respawn(w);
            self.metrics.lock().unwrap().lifecycle.watchdog_retirements += 1;
            let lost = format!("worker {w} stalled past {bound:?}");
            self.after_loss(id, task, w, true, lost);
        }
    }

    /// The worker on slot `w` was lost mid-attempt of `task` (panic
    /// report or watchdog retirement): charge the retry to the *victim
    /// job's* budget alone, or finish draining it if it was cancelled.
    fn after_loss(&mut self, id: JobId, task: TaskId, w: usize, expected: bool, last: String) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        if job.run.on_panicked(task, w, expected) {
            self.retry_or_fail(id, task, last);
        } else {
            self.finish_if_drained(id);
        }
    }

    /// Resolve a cancelled DAG job once its in-flight work has drained.
    fn finish_if_drained(&mut self, id: JobId) {
        let drained = |j: &JobState<T>| j.run.is_halted() && j.run.in_flight() == 0;
        if self.jobs.get(&id).is_some_and(drained) {
            self.fail_job(id, ServiceError::Cancelled);
        }
    }

    fn handle_cancel(&mut self, id: JobId) {
        // Still queued as a small job or inside a pending (undispatched)
        // batch: pull the unit out and resolve immediately.
        if let Some(meta) = self.take_queued(|m| m.id == id).pop() {
            return self.resolve_err(meta, ServiceError::Cancelled);
        }
        // DAG-path job. If its graph already completed, completion wins
        // (the finalize/epilogue path delivers the normal result); a
        // batch already on a worker likewise runs to delivery.
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        if job.run.all_done() {
            return;
        }
        // Forget queued work; in-flight attempts drain at the fence.
        job.run.halt();
        self.finish_if_drained(id);
    }

    /// Try to reclaim unique ownership of completed DAGs and move them to
    /// their epilogue (or completion). Workers drop their state handles
    /// before reporting, so this almost always succeeds on the first try;
    /// a straggler clone (late result from a retired worker) just defers
    /// the job to the next loop iteration.
    fn run_finalize(&mut self) {
        for id in std::mem::take(&mut self.finalize_pending) {
            let Some(job) = self.jobs.get_mut(&id) else {
                continue;
            };
            let Some(arc) = job.shared.take() else {
                continue;
            };
            match Arc::try_unwrap(arc) {
                Err(arc) => {
                    job.shared = Some(arc);
                    self.finalize_pending.push(id);
                }
                Ok(shared) => {
                    let job = self.jobs.remove(&id).expect("looked up above");
                    self.finish_dag(job, shared.into_state());
                }
            }
        }
    }

    /// A job's DAG is done and its state is the manager's alone again:
    /// close the run into its report, then deliver (plain factorizations)
    /// or queue the epilogue (solve / apply) for a worker.
    fn finish_dag(&mut self, job: JobState<T>, state: FactorState<T>) {
        // The resident arenas outlive the job, so only the state's own
        // copy-on-write count is attributable to it.
        let counters = HotPathCounters {
            cow_clones: state.cow_clones(),
            ..HotPathCounters::default()
        };
        let elapsed = job.started.map(|s| s.elapsed()).unwrap_or_default();
        let delivery = Delivery {
            meta: job.meta,
            report: job.run.into_report(elapsed, None, counters),
            batched: false,
            task_latency: job.task_latency,
            class_compute_us: job.class_compute_us,
            class_tasks: job.class_tasks,
        };
        let body = JobBody {
            state,
            graph: job.graph,
            rows: job.rows,
            cols: job.cols,
            payload: job.payload,
        };
        if matches!(body.payload, Payload::Factor) {
            let result = finish_output(body).map_err(UnitFailure::Numeric);
            self.deliver(delivery, result, 0);
        } else {
            let unit = Box::new((delivery, body));
            self.epi_queue.push_back(Work::Epilogue(unit));
        }
    }

    /// Resolve a finished job's handle: the result with everything that
    /// rides on it, or the failure of its composite unit on `worker`.
    fn deliver(
        &mut self,
        delivery: Delivery<T>,
        output: Result<JobOutput<T>, UnitFailure>,
        worker: usize,
    ) {
        let Delivery { meta, report, .. } = delivery;
        let output = match output {
            Ok(output) => output,
            Err(f) => return self.resolve_err(meta, f.into_error(worker)),
        };
        let latency = meta.submitted.elapsed();
        {
            let mut m = self.metrics.lock().unwrap();
            m.jobs_completed += 1;
            m.drift_reweights += report.drift_reweights;
            m.queue_wait.record_ns(meta.queue_wait.as_nanos() as u64);
            m.latency.record_ns(latency.as_nanos() as u64);
            m.class_latency[meta.class.index()].record_ns(latency.as_nanos() as u64);
        }
        let result = JobResult {
            job: meta.id,
            class: meta.class,
            output,
            report,
            queue_wait: meta.queue_wait,
            latency,
            dispatch_delay_tasks: meta.dispatch_delay_tasks,
            backlog_at_submit: meta.backlog_at_submit,
            batched: delivery.batched,
            task_latency: delivery.task_latency,
            class_compute_us: delivery.class_compute_us,
            class_tasks: delivery.class_tasks,
        };
        // Release before resolving the handle so a waiter that sees the
        // result can immediately reuse the admission slot.
        self.gate.release();
        let _ = meta.result_tx.send(Ok(result));
    }

    /// Deliver a failure for a DAG-path job and drop its remaining state.
    fn fail_job(&mut self, id: JobId, err: ServiceError) {
        if let Some(job) = self.jobs.remove(&id) {
            self.resolve_err(job.meta, err);
        }
    }

    /// Charge a failed attempt to the job's budget: park a retry or fail
    /// the job once the budget is spent. Only this job is affected.
    fn retry_or_fail(&mut self, id: JobId, task: TaskId, last: String) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        match job.run.charge_retry(&self.cfg.fault_tolerance, task, last) {
            Ok(wake) => self.parked.push(Reverse((wake, id, task))),
            Err(e) => self.fail_job(id, ServiceError::Runtime(e)),
        }
    }

    fn handle_task_done(&mut self, done: TaskDone<T>) {
        let TaskDone {
            key,
            worker,
            outcome,
        } = done;
        let (id, task, attempt) = key;
        // Is this the result we dispatched to this worker slot? A late
        // report from a watchdog-retired thread fails this check: its
        // slot was already respawned, so it must not touch slot state
        // (respawning again would kill the healthy replacement) or
        // in-flight accounting (the watchdog already charged it). A
        // stale `Done` still gets a shot at the commit fence below —
        // first result wins, whoever produced it.
        let alive = !matches!(outcome, Outcome::Panicked(_));
        let expected = self.slots.settle(worker, key, alive);
        if expected && !alive {
            self.respawn(worker);
        }
        let Some(job) = self.jobs.get_mut(&id) else {
            return; // job already failed and was removed; drop the late result
        };
        match outcome {
            Outcome::Done(done) => {
                let compute_ns = done.compute.as_nanos() as u64;
                job.task_latency.record_ns(compute_ns);
                let kind = job.graph.task(task);
                // Poison fence: scan panel-factor output before it becomes
                // an input of downstream tasks.
                let scan = job.run.accepts(task) && is_panel_factor(kind);
                let outputs = done.completed.as_deref().filter(|_| scan);
                let poisoned = outputs.and_then(|c| c.first_non_finite());
                if let Some(tile) = poisoned {
                    // Fail only the victim: its state is dropped before the
                    // NaN was ever committed, so no other tile (or job) saw
                    // it.
                    self.metrics.lock().unwrap().lifecycle.poison_detected += 1;
                    let task = Some(task);
                    return self.fail_job(id, ServiceError::NumericalBreakdown { task, tile });
                }
                let shared = job.shared.as_ref().expect("state present while tasks run");
                let at = (task, attempt);
                if job
                    .run
                    .on_done(&job.graph, shared, at, worker, expected, done)
                {
                    let slot = KernelClass::of(kind).slot();
                    job.class_compute_us[slot] += compute_ns as f64 / 1e3;
                    job.class_tasks[slot] += 1;
                    if job.run.all_done() {
                        self.finalize_pending.push(id);
                    }
                }
                self.finish_if_drained(id);
            }
            Outcome::Failed(e) => {
                if job.run.on_failed(task, expected) {
                    self.retry_or_fail(id, task, e.to_string());
                } else {
                    self.finish_if_drained(id);
                }
            }
            Outcome::Panicked(message) => {
                let last = format!("worker {worker} panicked: {message}");
                self.after_loss(id, task, worker, expected, last);
            }
        }
    }

    fn handle_batch_done(&mut self, worker: usize, items: Vec<BatchItem<T>>) {
        self.slots.free(worker);
        self.units_in_flight -= 1;
        for item in items {
            let (output, task_latency) = match item.result {
                Ok((output, hist)) => (Ok(output), hist),
                Err(f) => (Err(f), LatencyHistogram::new()),
            };
            let counters = HotPathCounters {
                cow_clones: output.as_ref().map_or(0, |o| o.factor().state.cow_clones()),
                ..HotPathCounters::default()
            };
            let report = Tally::one_lane(self.workers, worker, item.tasks).into_report(
                0,
                self.cfg.policy,
                item.elapsed,
                None,
                counters,
            );
            let delivery = Delivery {
                meta: item.meta,
                report,
                batched: true,
                task_latency,
                class_compute_us: [0.0; 3],
                class_tasks: [0; 3],
            };
            self.deliver(delivery, output, worker);
        }
    }

    fn handle_epilogue_done(&mut self, done: EpilogueDone<T>) {
        self.slots.free(done.worker);
        self.units_in_flight -= 1;
        self.deliver(done.delivery, done.result, done.worker);
    }

    /// Pick the backlogged job with the smallest virtual time. Cancelled
    /// jobs report nothing ready: their remaining tasks are abandoned
    /// while in-flight attempts drain.
    fn pick_wfq_job(&self) -> Option<(f64, JobId)> {
        self.jobs
            .iter()
            .filter(|(_, j)| j.run.ready_len() > 0)
            .map(|(&id, j)| (j.vtime, id))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
    }

    fn pick_batch(&self) -> Option<(f64, usize)> {
        self.batches
            .iter()
            .enumerate()
            .map(|(i, b)| (b.vtime, i))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
    }

    /// Hand work to idle workers: epilogues first (short, completes an
    /// admitted job), then the weighted-fair choice between regular job
    /// tasks and pending small-job batches. Each `dispatch_*` consumes the
    /// claimed slot `w`: on return it is busy or back on the idle stack.
    fn dispatch(&mut self) {
        while let Some(w) = self.slots.claim() {
            if let Some(work) = self.epi_queue.pop_front() {
                match self.try_send(w, work) {
                    None => self.units_in_flight += 1,
                    Some(back) => self.epi_queue.push_front(back),
                }
                continue;
            }
            let best_job = self.pick_wfq_job();
            let mut best_batch = self.pick_batch();
            // Nothing regular to run but accumulated smalls: flush a
            // partial batch rather than letting the worker idle.
            if best_job.is_none() && best_batch.is_none() && !self.smalls.is_empty() {
                self.flush_smalls();
                best_batch = self.pick_batch();
            }
            match (best_job, best_batch) {
                (None, None) => {
                    self.slots.free(w);
                    break;
                }
                (Some((jv, id)), Some((bv, bi))) => {
                    if bv <= jv {
                        self.dispatch_batch(w, bi);
                    } else {
                        self.dispatch_task(w, id);
                    }
                }
                (Some((_, id)), None) => self.dispatch_task(w, id),
                (None, Some((_, bi))) => self.dispatch_batch(w, bi),
            }
        }
        let depth: usize =
            self.jobs.values().map(|j| j.run.ready_len()).sum::<usize>() + self.smalls.len();
        let mut m = self.metrics.lock().unwrap();
        m.max_ready_depth = m.max_ready_depth.max(depth);
    }

    /// Send a unit to claimed worker `w`. On a dead dispatch channel (a
    /// just-panicked worker whose report is still queued) the slot is
    /// respawned — idle again — and the unit handed back to re-queue.
    fn try_send(&mut self, w: usize, work: Work<T>) -> Option<Work<T>> {
        let mpsc::SendError(work) = self.threads[w].tx.send(work).err()?;
        self.respawn(w);
        Some(work)
    }

    fn dispatch_task(&mut self, w: usize, id: JobId) {
        let job = self.jobs.get_mut(&id).expect("picked from the job table");
        let Some((task, attempt)) = job.run.pop_ready(w) else {
            // Every ready entry was superseded by a racing retry.
            return self.slots.free(w);
        };
        if job.started.is_none() {
            let now = Instant::now();
            job.started = Some(now);
            job.meta.queue_wait = now.duration_since(job.meta.submitted);
            job.meta.dispatch_delay_tasks = self.dispatch_count - job.meta.submit_dispatch_count;
        }
        let kind = job.graph.task(task);
        let key = (id, task, attempt);
        let work = Work::Task {
            key,
            kind,
            shared: Arc::clone(job.shared.as_ref().expect("state present while tasks run")),
            injector: job.injector.clone(),
        };
        self.dispatch_count += 1;
        self.vclock = job.vtime;
        job.vtime += task_cost(job.cost, job.b, kind) / job.weight;
        self.metrics.lock().unwrap().tasks_dispatched += 1;
        if self.try_send(w, work).is_none() {
            self.slots.watch(w, key);
        } else if let Some(job) = self.jobs.get_mut(&id) {
            // Dead channel: undo the dispatch so the retry path stays
            // honest, and put the task back in the ready set.
            job.run.undo_dispatch(task, w);
        }
    }

    fn dispatch_batch(&mut self, w: usize, index: usize) {
        let Some(mut batch) = self.batches.remove(index) else {
            return self.slots.free(w);
        };
        self.vclock = batch.vtime;
        let now = Instant::now();
        for small in &mut batch.units {
            small.meta.queue_wait = now.duration_since(small.meta.submitted);
            small.meta.dispatch_delay_tasks =
                self.dispatch_count - small.meta.submit_dispatch_count;
            self.dispatch_count += 1;
        }
        let count = batch.units.len() as u64;
        match self.try_send(w, Work::Batch(batch.units)) {
            None => {
                let mut m = self.metrics.lock().unwrap();
                m.batches += 1;
                m.jobs_batched += count;
                m.tasks_dispatched += count;
                drop(m);
                self.units_in_flight += 1;
            }
            Some(Work::Batch(units)) => {
                // Dead channel: re-queue the batch untouched; the metas
                // are restamped on the next dispatch.
                let vtime = batch.vtime;
                self.batches.push_back(PendingBatch { units, vtime });
            }
            Some(_) => unreachable!("batch send returns batch work"),
        }
    }

    fn is_drained(&self) -> bool {
        self.jobs.is_empty()
            && self.smalls.is_empty()
            && self.batches.is_empty()
            && self.epi_queue.is_empty()
            && self.units_in_flight == 0
    }

    fn handle(&mut self, msg: Msg<T>) {
        match msg {
            Msg::Submit(nj) => self.handle_submit(*nj),
            Msg::TaskDone(d) => self.handle_task_done(*d),
            Msg::BatchDone(worker, items) => self.handle_batch_done(worker, items),
            Msg::EpilogueDone(d) => self.handle_epilogue_done(*d),
            Msg::Cancel(id) => self.handle_cancel(id),
            Msg::Drain(ack) => {
                self.draining = true;
                self.drain_ack = Some(ack);
            }
        }
    }

    fn run(mut self) {
        loop {
            self.wake_parked();
            self.sweep_shed();
            self.sweep_watchdog();
            self.run_finalize();
            self.dispatch();
            if self.draining && self.is_drained() {
                break;
            }
            // Pick a wait bound: due parked retries, queued-job
            // deadlines, watchdog expiries, and deferred finalizations
            // all need the loop to spin again without a new message
            // arriving.
            let stall = self.cfg.fault_tolerance.stall_timeout;
            let retry = self.parked.peek().map(|&Reverse((at, _, _))| at);
            let wake = [
                retry,
                self.earliest_queued_deadline(),
                stall.and_then(|bound| self.slots.earliest_stall_expiry(bound)),
                (!self.finalize_pending.is_empty())
                    .then(|| Instant::now() + Duration::from_millis(1)),
            ];
            let first = match wake.into_iter().flatten().min() {
                Some(at) => {
                    match self
                        .rx
                        .recv_timeout(at.saturating_duration_since(Instant::now()))
                    {
                        Ok(m) => Some(m),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
                None => match self.rx.recv() {
                    Ok(m) => Some(m),
                    Err(_) => break,
                },
            };
            if let Some(m) = first {
                self.handle(m);
                while let Ok(m) = self.rx.try_recv() {
                    self.handle(m);
                }
            }
        }
        if let Some(ack) = self.drain_ack.take() {
            let _ = ack.send(());
        }
        // Close dispatch channels so every worker's recv loop ends, then
        // join current and retired threads.
        for slot in std::mem::take(&mut self.threads) {
            drop(slot.tx);
            let _ = slot.handle.join();
        }
        for h in std::mem::take(&mut self.graveyard) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// service handle
// ---------------------------------------------------------------------------

/// A resident multi-matrix QR service: one long-lived worker pool serving
/// a stream of factor / solve / apply jobs. See the module docs for the
/// scheduling and recovery model.
///
/// ```
/// use tileqr_runtime::service::{JobOutput, JobSpec, QrService, ServiceConfig};
/// use tileqr_matrix::gen::random_matrix;
///
/// let service = QrService::<f64>::start(ServiceConfig {
///     workers: 2,
///     ..ServiceConfig::default()
/// });
/// let a = random_matrix::<f64>(32, 32, 7);
/// let handle = service.submit(JobSpec::factor(a).tile_size(8)).unwrap();
/// let result = handle.wait().unwrap();
/// assert!(matches!(result.output, JobOutput::Factored(_)));
/// service.shutdown();
/// ```
pub struct QrService<T: Scalar> {
    tx: Mutex<Option<mpsc::Sender<Msg<T>>>>,
    gate: Arc<Gate>,
    metrics: Arc<Mutex<ServiceStats>>,
    manager: Mutex<Option<JoinHandle<()>>>,
    next_job: AtomicU64,
    selector: Option<Arc<TreeSelector>>,
    default_cost: CostModel,
}

/// Per-job elimination-tree planner: maps a job's tile geometry and tile
/// size `(mt, nt, b)` to the tree its DAG should use. Consulted only for
/// jobs submitted with [`TreePolicy::Auto`]; typically produced from a
/// calibrated device profile by `tileqr_sched::select::tree_selector`.
pub type TreeSelector = dyn Fn(usize, usize, usize) -> EliminationTree + Send + Sync;

impl<T: Scalar> QrService<T> {
    /// Spawn the manager and the resident worker pool.
    pub fn start(config: ServiceConfig) -> Self {
        Self::start_inner(config, None)
    }

    /// [`QrService::start`] with a geometry-aware tree planner: every job
    /// submitted with [`TreePolicy::Auto`] has its elimination tree
    /// chosen by `selector` at admission time (on the submitting thread —
    /// the manager loop never pays for planning). Jobs with a fixed
    /// policy bypass the selector entirely.
    pub fn start_with_tree_selector(config: ServiceConfig, selector: Arc<TreeSelector>) -> Self {
        Self::start_inner(config, Some(selector))
    }

    fn start_inner(config: ServiceConfig, selector: Option<Arc<TreeSelector>>) -> Self {
        let workers = config.effective_workers().max(1);
        let default_cost = config.cost;
        let gate = Arc::new(Gate::new(config.max_in_flight));
        let metrics = Arc::new(Mutex::new(ServiceStats::default()));
        let (tx, rx) = mpsc::channel::<Msg<T>>();
        let mgr_tx = tx.clone();
        let mgr_gate = Arc::clone(&gate);
        let mgr_metrics = Arc::clone(&metrics);
        let manager = std::thread::Builder::new()
            .name("qr-service-manager".into())
            .spawn(move || {
                Manager::new(config, workers, rx, mgr_tx, mgr_gate, mgr_metrics).run();
            })
            .expect("spawn service manager");
        QrService {
            tx: Mutex::new(Some(tx)),
            gate,
            metrics,
            manager: Mutex::new(Some(manager)),
            next_job: AtomicU64::new(0),
            selector,
            default_cost,
        }
    }

    /// Submit a job, blocking while the admission bound is reached
    /// (backpressure). Returns a handle redeemable for the result.
    pub fn submit(&self, spec: JobSpec<T>) -> Result<JobHandle<T>, ServiceError> {
        self.submit_inner(spec, true)
    }

    /// Submit without blocking: fails with [`ServiceError::Saturated`]
    /// when the admission bound is reached.
    pub fn try_submit(&self, spec: JobSpec<T>) -> Result<JobHandle<T>, ServiceError> {
        self.submit_inner(spec, false)
    }

    fn submit_inner(&self, spec: JobSpec<T>, block: bool) -> Result<JobHandle<T>, ServiceError> {
        // Validate and tile on the caller's thread so the manager loop
        // stays lean; spec errors cost no admission slot.
        let (rows, cols) = (spec.a.rows(), spec.a.cols());
        if rows < cols {
            return Err(ServiceError::Numeric(MatrixError::DimensionMismatch {
                op: "service QR (rows < cols)",
                lhs: (rows, cols),
                rhs: (rows, cols),
            }));
        }
        match &spec.payload {
            Payload::Solve { rhs } if rhs.len() != rows => {
                return Err(ServiceError::Numeric(MatrixError::DimensionMismatch {
                    op: "service solve (rhs length)",
                    lhs: (rows, 1),
                    rhs: (rhs.len(), 1),
                }));
            }
            Payload::Apply { c, .. } if c.rows() != rows => {
                return Err(ServiceError::Numeric(MatrixError::DimensionMismatch {
                    op: "service apply (row count)",
                    lhs: (rows, 0),
                    rhs: c.dims(),
                }));
            }
            _ => {}
        }
        let tiled =
            TiledMatrix::from_matrix(&spec.a, spec.tile_size).map_err(ServiceError::Numeric)?;
        let b = tiled.tile_size();
        // Poison containment starts at the front door: a NaN/Inf input
        // would corrupt every downstream tile, so reject it here — on the
        // caller's thread, before it costs an admission slot.
        if let Some((i, j)) = spec.a.first_non_finite() {
            return Err(ServiceError::NumericalBreakdown {
                task: None,
                tile: (i / b, j / b),
            });
        }
        let (mt, nt) = (tiled.tile_rows(), tiled.tile_cols());
        let tree = match spec.tree {
            TreePolicy::Fixed(tree) => tree,
            TreePolicy::Auto => match &self.selector {
                Some(plan) => plan(mt, nt, b),
                None => EliminationTree::default_for(mt, nt),
            },
        };
        let graph = Arc::new(TaskGraph::build_tree(mt, nt, tree));
        let state = match spec.inner_block {
            Some(ib) => FactorState::with_inner_block(tiled, ib),
            None => FactorState::new(tiled),
        };
        self.gate.acquire(block)?;
        let id = self.next_job.fetch_add(1, Ordering::SeqCst) + 1;
        let (result_tx, result_rx) = mpsc::channel();
        let submitted = Instant::now();
        let msg = Msg::Submit(Box::new(NewJob {
            meta: JobMeta {
                id,
                class: spec.priority,
                submitted,
                deadline: spec.deadline.map(|d| submitted + d),
                submit_dispatch_count: 0,
                backlog_at_submit: 0,
                queue_wait: Duration::ZERO,
                dispatch_delay_tasks: 0,
                result_tx,
            },
            body: JobBody {
                state,
                graph,
                rows,
                cols,
                payload: spec.payload,
            },
            b,
            cost: spec.cost.unwrap_or(self.default_cost),
            tuning: spec.tuning,
            injector: spec.injector,
        }));
        let guard = self.tx.lock().unwrap();
        match guard.as_ref() {
            Some(tx) if tx.send(msg).is_ok() => Ok(JobHandle {
                id,
                rx: result_rx,
                ctl: tx.clone(),
            }),
            _ => {
                drop(guard);
                self.gate.release();
                Err(ServiceError::ShuttingDown)
            }
        }
    }

    /// Snapshot the service-wide counters and histograms.
    pub fn stats(&self) -> ServiceStats {
        self.metrics.lock().unwrap().clone()
    }

    /// Stop admission, drain every queued and in-flight job to its
    /// completion channel (zero lost jobs), join all threads, and return
    /// the final stats.
    pub fn shutdown(self) -> ServiceStats {
        self.shutdown_inner();
        self.metrics.lock().unwrap().clone()
    }

    fn shutdown_inner(&self) {
        self.gate.close();
        let tx_opt = self.tx.lock().unwrap().take();
        if let Some(tx) = tx_opt {
            let (ack_tx, ack_rx) = mpsc::channel();
            if tx.send(Msg::Drain(ack_tx)).is_ok() {
                let _ = ack_rx.recv();
            }
        }
        if let Some(h) = self.manager.lock().unwrap().take() {
            let _ = h.join();
        }
    }
}

impl<T: Scalar> Drop for QrService<T> {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_matrix::gen::random_matrix;

    fn sequential_tiles(a: &Matrix<f64>, b: usize, order: EliminationOrder) -> Matrix<f64> {
        let tiled = TiledMatrix::from_matrix(a, b).unwrap();
        let g = TaskGraph::build(tiled.tile_rows(), tiled.tile_cols(), order);
        let mut st = FactorState::new(tiled);
        st.run_all(&g).unwrap();
        st.tiles().to_matrix()
    }

    #[test]
    fn single_job_matches_sequential() {
        let service = QrService::<f64>::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let a = random_matrix::<f64>(24, 24, 5);
        let h = service
            .submit(JobSpec::factor(a.clone()).tile_size(8))
            .unwrap();
        let r = h.wait().unwrap();
        let JobOutput::Factored(f) = r.output else {
            panic!("expected factored output")
        };
        assert_eq!(
            f.state.tiles().to_matrix(),
            sequential_tiles(&a, 8, EliminationOrder::FlatTs)
        );
        assert_eq!(r.report.total_tasks(), f.graph.len() as u64);
        service.shutdown();
    }

    #[test]
    fn concurrent_jobs_all_complete_bit_identical() {
        let service = QrService::<f64>::start(ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        });
        let mut handles = Vec::new();
        let mut inputs = Vec::new();
        for i in 0..8u64 {
            let n = 16 + 8 * (i as usize % 3);
            let a = random_matrix::<f64>(n, n, 100 + i);
            inputs.push(a.clone());
            handles.push(service.submit(JobSpec::factor(a).tile_size(8)).unwrap());
        }
        for (h, a) in handles.into_iter().zip(&inputs) {
            let r = h.wait().unwrap();
            assert_eq!(
                r.output.factor().state.tiles().to_matrix(),
                sequential_tiles(a, 8, EliminationOrder::FlatTs)
            );
        }
        let stats = service.shutdown();
        assert_eq!(stats.jobs_completed, 8);
        assert_eq!(stats.jobs_failed, 0);
    }

    #[test]
    fn auto_policy_routes_through_installed_selector() {
        use std::sync::atomic::AtomicUsize;
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let service = QrService::<f64>::start_with_tree_selector(
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
            Arc::new(move |mt, nt, b| {
                seen.fetch_add(1, Ordering::SeqCst);
                assert_eq!((mt, nt, b), (6, 6, 8));
                EliminationTree::Greedy
            }),
        );
        let a = random_matrix::<f64>(48, 48, 31);
        // Auto consults the selector; a fixed policy must bypass it.
        let auto = service
            .submit(
                JobSpec::factor(a.clone())
                    .tile_size(8)
                    .tree(TreePolicy::Auto),
            )
            .unwrap();
        let fixed = service
            .submit(
                JobSpec::factor(a)
                    .tile_size(8)
                    .tree(TreePolicy::Fixed(EliminationTree::Flat)),
            )
            .unwrap();
        let ga = auto.wait().unwrap().output.factor().graph.tree();
        let gf = fixed.wait().unwrap().output.factor().graph.tree();
        assert_eq!(ga, EliminationTree::Greedy);
        assert_eq!(gf, EliminationTree::Flat);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        service.shutdown();
    }

    #[test]
    fn auto_policy_without_selector_uses_geometry_heuristic() {
        let service = QrService::<f64>::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        // 64x8 at b=8 -> 8x1 grid: the heuristic picks the TSQR tree.
        let a = random_matrix::<f64>(64, 8, 32);
        let h = service
            .submit(JobSpec::factor(a).tile_size(8).tree(TreePolicy::Auto))
            .unwrap();
        let tree = h.wait().unwrap().output.factor().graph.tree();
        assert_eq!(tree, EliminationTree::default_for(8, 1));
        assert!(matches!(tree, EliminationTree::Tsqr(_)));
        service.shutdown();
    }

    #[test]
    fn solve_job_matches_direct_path() {
        let service = QrService::<f64>::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let a = random_matrix::<f64>(24, 16, 9);
        let rhs: Vec<f64> = (0..24).map(|i| (i as f64).sin()).collect();
        let h = service
            .submit(JobSpec::solve(a.clone(), rhs.clone()).tile_size(8))
            .unwrap();
        let r = h.wait().unwrap();
        let JobOutput::Solved { x, .. } = r.output else {
            panic!("expected solution")
        };
        assert_eq!(x.len(), 16);
        assert!(x.iter().all(|v| v.is_finite()));
        service.shutdown();
    }

    #[test]
    fn try_submit_saturates_and_drains() {
        let service = QrService::<f64>::start(ServiceConfig {
            workers: 1,
            max_in_flight: 2,
            ..ServiceConfig::default()
        });
        let mut handles = Vec::new();
        let mut rejected = 0;
        for i in 0..6u64 {
            let a = random_matrix::<f64>(32, 32, 300 + i);
            match service.try_submit(JobSpec::factor(a).tile_size(8)) {
                Ok(h) => handles.push(h),
                Err(ServiceError::Saturated {
                    in_flight,
                    max_in_flight,
                }) => {
                    assert_eq!(max_in_flight, 2);
                    assert_eq!(in_flight, 2);
                    rejected += 1;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(rejected > 0, "admission bound never engaged");
        let stats = service.shutdown();
        // Shutdown drains: every accepted handle resolves.
        let accepted = handles.len() as u64;
        for h in handles {
            h.wait().unwrap();
        }
        assert_eq!(stats.jobs_completed, accepted);
    }

    #[test]
    fn invalid_specs_rejected_synchronously() {
        let service = QrService::<f64>::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let wide = random_matrix::<f64>(8, 16, 1);
        assert!(matches!(
            service.submit(JobSpec::factor(wide)),
            Err(ServiceError::Numeric(_))
        ));
        let a = random_matrix::<f64>(16, 16, 2);
        assert!(matches!(
            service.submit(JobSpec::solve(a, vec![0.0; 3])),
            Err(ServiceError::Numeric(_))
        ));
        service.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_submissions() {
        let service = QrService::<f64>::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let stats = service.shutdown();
        assert_eq!(stats.jobs_submitted, 0);
    }

    #[test]
    fn non_finite_input_rejected_at_submit() {
        let service = QrService::<f64>::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let mut a = random_matrix::<f64>(24, 24, 11);
        a.set(17, 9, f64::NAN).unwrap();
        match service.submit(JobSpec::factor(a).tile_size(8)) {
            Err(ServiceError::NumericalBreakdown { task: None, tile }) => {
                assert_eq!(tile, (2, 1));
            }
            other => panic!("expected input breakdown, got {:?}", other.err()),
        }
        // The rejection happened caller-side: no admission slot burned.
        let stats = service.shutdown();
        assert_eq!(stats.jobs_submitted, 0);
        assert_eq!(stats.lifecycle.poison_detected, 0);
    }

    #[test]
    fn expired_deadline_sheds_queued_job() {
        // One worker pinned by a long-running job; a second job with a
        // zero deadline must be shed before it ever dispatches.
        let service = QrService::<f64>::start(ServiceConfig {
            workers: 1,
            batch_max_tasks: 0,
            ..ServiceConfig::default()
        });
        let blocker = service
            .submit(JobSpec::factor(random_matrix::<f64>(64, 64, 21)).tile_size(8))
            .unwrap();
        let doomed = service
            .submit(
                JobSpec::factor(random_matrix::<f64>(32, 32, 22))
                    .tile_size(8)
                    .deadline(Duration::ZERO),
            )
            .unwrap();
        match doomed.wait() {
            Err(ServiceError::DeadlineExceeded { deadline, .. }) => {
                assert_eq!(deadline, Duration::ZERO);
            }
            other => panic!("expected shed, got ok={}", other.is_ok()),
        }
        blocker.wait().unwrap();
        let stats = service.shutdown();
        assert_eq!(stats.lifecycle.jobs_shed, 1);
        assert_eq!(stats.jobs_completed, 1);
    }

    #[test]
    fn generous_deadline_does_not_shed() {
        let service = QrService::<f64>::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let h = service
            .submit(
                JobSpec::factor(random_matrix::<f64>(24, 24, 23))
                    .tile_size(8)
                    .deadline(Duration::from_secs(300)),
            )
            .unwrap();
        h.wait().unwrap();
        let stats = service.shutdown();
        assert_eq!(stats.lifecycle.jobs_shed, 0);
        assert_eq!(stats.jobs_completed, 1);
    }

    #[test]
    fn cancel_resolves_handle_and_releases_slot() {
        let service = QrService::<f64>::start(ServiceConfig {
            workers: 1,
            max_in_flight: 1,
            batch_max_tasks: 0,
            ..ServiceConfig::default()
        });
        let h = service
            .submit(JobSpec::factor(random_matrix::<f64>(48, 48, 31)).tile_size(8))
            .unwrap();
        h.cancel();
        // Cancel races completion; either outcome is legal, but the
        // handle must resolve and the admission slot must come back —
        // proven by the next bounded submit succeeding.
        let cancelled = matches!(h.wait(), Err(ServiceError::Cancelled));
        let h2 = service
            .try_submit(JobSpec::factor(random_matrix::<f64>(16, 16, 32)).tile_size(8))
            .expect("slot released after cancel");
        h2.wait().unwrap();
        let stats = service.shutdown();
        assert_eq!(stats.lifecycle.jobs_cancelled, u64::from(cancelled));
    }

    #[test]
    fn wait_timeout_leaves_handle_redeemable() {
        let service = QrService::<f64>::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let h = service
            .submit(JobSpec::factor(random_matrix::<f64>(48, 48, 41)).tile_size(8))
            .unwrap();
        // Poll with a zero timeout until the result lands: every timeout
        // leaves the handle intact, and the eventual result is normal.
        let mut result = None;
        for _ in 0..10_000 {
            match h.wait_timeout(Duration::from_millis(1)) {
                Ok(r) => {
                    result = Some(r);
                    break;
                }
                Err(WaitTimeout) => continue,
            }
        }
        result.expect("job finished within bound").unwrap();
        service.shutdown();
    }
}
