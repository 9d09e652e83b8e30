//! `QrService`: a resident multi-matrix throughput service — and the one
//! host driver every multi-worker run goes through.
//!
//! Where [`parallel_factor_traced`](crate::parallel_factor_traced) runs one
//! matrix and returns, the service keeps a **long-lived worker pool** and accepts a
//! *stream* of jobs — factor, least-squares solve, Q-apply — through a
//! submission handle. Tasks from many concurrent job DAGs are interleaved
//! through one shared ready structure with per-job **fair-share
//! accounting** (weighted virtual time, one weight per
//! [`PriorityClass`]), so a flood of bulk work cannot starve interactive
//! jobs.
//!
//! Architecture: `workers` computing threads that **schedule themselves**
//! — all the scheduling state (the job table, the queues, the stats) is
//! one `Core` behind one lock, and a worker loops *lock → settle and
//! commit its previous attempt → pick the next `(job, task)` and stage it
//! → unlock → run it*,
//! sleeping only while nothing is ready; no thread stands between the
//! DAGs and the workers (the departure from the paper's Fig. 7 manager
//! that a few-µs task forces on host cores, see `DESIGN.md` §9).
//! Submitters and cancelling handles act on the core from their own
//! threads, and one **timer thread** does what only a clock can start. A
//! one-shot run is the same driver (`run_pool`): a one-job instance on
//! the caller's stack, the calling thread as its timer.
//!
//! * **Admission**: `max_in_flight` bounds submitted-but-unfinished jobs.
//!   [`QrService::submit`] blocks for a slot (backpressure);
//!   [`QrService::try_submit`] fails fast with [`ServiceError::Saturated`].
//! * **Fair share**: each job carries a virtual time; dispatching a task
//!   advances it by `task_cost / class_weight`, the task's kernel
//!   megaflops — one unit for every job, tuned or not. A worker always
//!   takes from the backlogged job with the smallest virtual time,
//!   and a newly admitted job starts at the *minimum* virtual time of the
//!   current backlog — it can never be scheduled behind work that arrived
//!   after it, and a heavy job cannot monopolise the pool. A one-task job
//!   is a job like any other: it takes the same route, one task long.
//! * **Execution and recovery**: every job owns one [`DagRun`] of the
//!   shared [`engine`](crate::engine), and workers run its
//!   [`run_attempt`] on what they staged. Non-destructive staging plus the
//!   engine's commit fence make re-execution idempotent, so bit-identity
//!   survives DAG interleaving, and a lost attempt is charged to the
//!   *victim job's* budget alone: exhausting it fails that one job with a
//!   structured [`ServiceError::Runtime`]. A panicked worker — or, with
//!   [`FaultTolerance::stall_timeout`] set, one the **stall watchdog**
//!   finds past the bound — is retired and its slot *respawned* by the
//!   timer (the pool never shrinks). A thread that panics *holding the
//!   lock* closes the instance instead of panicking every other thread:
//!   admission shuts, every job in the table fails with
//!   [`RuntimeError::Disconnected`], the threads leave.
//! * **Completion**: the worker whose commit completes a job's DAG takes
//!   the job out of the table, runs its epilogue (solve / apply) with the
//!   lock released, and resolves the handle itself.
//! * **Job lifecycle**: a job can carry a [`JobSpec::deadline`]; expired
//!   queued jobs are **shed** before they consume worker time
//!   ([`ServiceError::DeadlineExceeded`]) — by the timer when the
//!   deadline passes, or by the worker that would otherwise have started
//!   the job. [`JobHandle::cancel`] cooperatively drains a job at the
//!   fenced-commit boundary — in-flight attempts retire cleanly, the
//!   admission slot and WFQ state are released, and concurrent jobs are
//!   untouched ([`ServiceError::Cancelled`]).
//! * **Poison containment**: submission rejects non-finite inputs
//!   synchronously, and workers scan panel-factor outputs ahead of the
//!   commit fence — a NaN/Inf produced mid-run fails only the victim job
//!   with a structured [`ServiceError::NumericalBreakdown`] instead of
//!   propagating through downstream tiles.
//! * **Shutdown**: [`QrService::shutdown`] (and `Drop`) closes admission,
//!   drains every queued and in-flight job to its handle — zero lost
//!   jobs — then joins all threads.
//!
//! Instrumentation flows through the existing `tileqr-obs` types: per-job
//! per-class compute totals ride on each [`JobResult`], and service-wide
//! queue-wait / latency [`LatencyHistogram`]s plus queue-depth high-water
//! marks are readable at any time via [`QrService::stats`].

use crate::engine::{panic_message, run_attempt, DagRun, Outcome, Slots, Verdict};
use crate::error::RuntimeError;
use crate::pool::{effective_workers, PoolConfig, RunReport};
use crate::recovery::{FaultInjector, FaultTolerance};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tileqr_dag::{KernelClass, TaskGraph, TaskId, TaskKind, TreePolicy};
use tileqr_kernels::exec::{FactorState, StagedTask};
use tileqr_kernels::{flops, ApplySide, Workspace};
use tileqr_matrix::{Matrix, MatrixError, Scalar};
use tileqr_obs::{HotPathCounters, LatencyHistogram, LifecycleCounters};

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
}

/// Configuration of a [`QrService`] instance.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Computing threads. `0` means one per available core.
    pub workers: usize,
    /// Admission bound: maximum submitted-but-unfinished jobs. `0` means
    /// unbounded (no backpressure).
    pub max_in_flight: usize,
    /// Per-job retry budget and backoff for panicked or transiently
    /// failed tasks.
    pub fault_tolerance: FaultTolerance,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            max_in_flight: 64,
            fault_tolerance: FaultTolerance::default(),
        }
    }
}

impl ServiceConfig {
    /// Resolve `workers == 0` to the host's available parallelism, as
    /// [`PoolConfig::effective_workers`] does.
    pub fn effective_workers(&self) -> usize {
        effective_workers(self.workers)
    }
}

/// What a job computes once its factorization DAG has completed.
enum Payload<T: Scalar> {
    Factor,
    Solve { rhs: Vec<T> },
    Apply { c: Matrix<T>, side: ApplySide },
}

/// A single unit of work submitted to a [`QrService`].
///
/// Built with [`JobSpec::factor`] / [`JobSpec::solve`] /
/// [`JobSpec::apply_qt`] / [`JobSpec::apply_q`] plus builder-style
/// options: the plan's tile size and tree, and the job's own class,
/// deadline and faults.
pub struct JobSpec<T: Scalar> {
    a: Matrix<T>,
    payload: Payload<T>,
    tile_size: usize,
    tree: TreePolicy,
    priority: PriorityClass,
    deadline: Option<Duration>,
    injector: Option<Arc<dyn FaultInjector + Send + Sync>>,
}

impl<T: Scalar> JobSpec<T> {
    fn new(a: Matrix<T>, payload: Payload<T>) -> Self {
        JobSpec {
            a,
            payload,
            tile_size: 16,
            tree: TreePolicy::default(),
            priority: PriorityClass::Standard,
            deadline: None,
            injector: None,
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
        let side = ApplySide::Transpose;
        Self::new(a, Payload::Apply { c, side })
    }

    /// Factor `a` and compute `Q c` (`c.rows() == a.rows()`).
    pub fn apply_q(a: Matrix<T>, c: Matrix<T>) -> Self {
        let side = ApplySide::NoTranspose;
        Self::new(a, Payload::Apply { c, side })
    }

    /// Tile size `b` (default 16). `0` is refused at submission with
    /// [`MatrixError::BadTileSize`].
    pub fn tile_size(mut self, b: usize) -> Self {
        self.tile_size = b;
        self
    }

    /// Elimination-tree policy (default: the flat TS chain; `Plateau(0)` is
    /// refused at submission). [`TreePolicy::Auto`] resolves at admission to
    /// `Plateau(⌈√mt⌉)` on tall-skinny grids ([`TreePolicy::resolve`]).
    pub fn tree(mut self, policy: TreePolicy) -> Self {
        self.tree = policy;
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
    /// *this job only* (testing hook).
    pub fn faults(mut self, injector: Arc<dyn FaultInjector + Send + Sync>) -> Self {
        self.injector = Some(injector);
        self
    }
}

/// A completed factorization: the tile/reflector state plus the DAG that
/// produced it.
pub struct FactoredJob<T: Scalar> {
    /// Tiles and T factors after the DAG ran to completion.
    pub state: FactorState<T>,
    /// The task graph that was executed.
    pub graph: TaskGraph,
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

/// Everything a job gets back through its [`JobHandle`].
pub struct JobResult<T: Scalar> {
    /// The job's service-assigned id.
    pub job: JobId,
    /// The class the job ran under.
    pub class: PriorityClass,
    /// The computed product.
    pub output: JobOutput<T>,
    /// Execution report of the job's own DAG run (task spread, recovery
    /// counters, …).
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
    /// Total measured kernel time per timing-class slot
    /// (`[triangulation, elimination, update]`, µs) — the raw material
    /// the online autotuner fits profiles from.
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
    /// The service dropped the job's reply slot without a result (a
    /// service thread died — should not happen).
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
            ServiceError::Lost => write!(f, "service lost the job (a service thread terminated)"),
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

/// What a job resolves to.
type JobReply<T> = Result<JobResult<T>, ServiceError>;

struct ReplyState<T: Scalar> {
    reply: Option<JobReply<T>>,
    /// The sending half is gone: nothing more will arrive.
    closed: bool,
}

/// The one-shot slot a job's reply reaches its [`JobHandle`] through.
struct ReplySlot<T: Scalar> {
    state: Mutex<ReplyState<T>>,
    ready: Condvar,
}

impl<T: Scalar> ReplySlot<T> {
    /// An unresolved slot and its sending half.
    fn open() -> (Arc<Self>, ReplyTx<T>) {
        let state = Mutex::new(ReplyState {
            reply: None,
            closed: false,
        });
        let ready = Condvar::new();
        let slot = Arc::new(ReplySlot { state, ready });
        (Arc::clone(&slot), ReplyTx(slot))
    }

    /// Every update under this lock is a single field store, so the state
    /// is valid even if a holder panicked.
    fn state(&self) -> MutexGuard<'_, ReplyState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take the reply, waiting for it until `deadline` (for ever if
    /// `None`). A reply that is already there is returned whatever the
    /// deadline; a slot closed without one reads [`ServiceError::Lost`].
    fn take(&self, deadline: Option<Instant>) -> Result<JobReply<T>, WaitTimeout> {
        let mut s = self.state();
        loop {
            if let Some(reply) = s.reply.take() {
                return Ok(reply);
            }
            if s.closed {
                return Ok(Err(ServiceError::Lost));
            }
            s = match deadline {
                None => self.ready.wait(s).unwrap_or_else(PoisonError::into_inner),
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(WaitTimeout);
                    }
                    let woken = self.ready.wait_timeout(s, left);
                    woken.unwrap_or_else(PoisonError::into_inner).0
                }
            };
        }
    }
}

/// The sending half of a [`ReplySlot`], carried by the job's [`JobMeta`]
/// wherever the job goes. Dropping it unresolved — the service lost the
/// job — resolves the handle with [`ServiceError::Lost`].
struct ReplyTx<T: Scalar>(Arc<ReplySlot<T>>);

impl<T: Scalar> ReplyTx<T> {
    /// Resolve the handle. Dropping `self` closes the slot and wakes the
    /// waiter.
    fn send(self, reply: JobReply<T>) {
        self.0.state().reply = Some(reply);
    }
}

impl<T: Scalar> Drop for ReplyTx<T> {
    fn drop(&mut self) {
        self.0.state().closed = true;
        self.0.ready.notify_all();
    }
}

/// Handle to one submitted job; redeem it with [`JobHandle::wait`].
pub struct JobHandle<T: Scalar> {
    id: JobId,
    reply: Arc<ReplySlot<T>>,
    service: Weak<Shared<T>>,
}

impl<T: Scalar> JobHandle<T> {
    /// The service-assigned job id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Block until the job completes (or fails) and return its result.
    pub fn wait(self) -> Result<JobResult<T>, ServiceError> {
        // No deadline, so no timeout.
        self.reply.take(None).unwrap_or(Err(ServiceError::Lost))
    }

    /// Wait at most `timeout` for the result. On timeout the handle is
    /// *not* consumed: the job keeps running and the handle stays
    /// redeemable (wait again, or [`cancel`](Self::cancel) and then wait
    /// for the [`ServiceError::Cancelled`] acknowledgement).
    pub fn wait_timeout(
        &self,
        timeout: Duration,
    ) -> Result<Result<JobResult<T>, ServiceError>, WaitTimeout> {
        // A bound past the end of the clock is no bound.
        self.reply.take(Instant::now().checked_add(timeout))
    }

    /// Request cooperative cancellation. The service stops dispatching
    /// the job's remaining tasks, lets in-flight attempts drain at the
    /// fenced-commit boundary (no preemption — concurrent jobs stay
    /// bit-identical), releases the admission slot and fair-share state,
    /// and resolves the handle with [`ServiceError::Cancelled`] — on this
    /// thread if nothing of the job is in flight, else on the worker that
    /// settles its last attempt.
    ///
    /// Cancellation races completion: if the job finishes first the
    /// handle resolves with the normal result and the cancel is a no-op.
    /// Safe to call more than once.
    pub fn cancel(&self) {
        // A service that has shut down resolved every handle on its way
        // out: nothing is left to cancel.
        if let Some(service) = self.service.upgrade() {
            service.cancel(&mut service.lock(), self.id);
        }
    }
}

/// Service-wide counters and histograms, readable via [`QrService::stats`].
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Jobs accepted by the service.
    pub jobs_submitted: u64,
    /// Jobs that delivered a successful result.
    pub jobs_completed: u64,
    /// Jobs that delivered an error.
    pub jobs_failed: u64,
    /// Always 0 since PR 18 (small-job batching is gone); removed with
    /// the `service.jobs_batched` row in the next `benchmark` PR, the only
    /// reader.
    pub jobs_batched: u64,
    /// Always 0 since PR 18; removed with the `service.batches` row in the
    /// next `benchmark` PR, the only reader.
    pub batches: u64,
    /// Individual task dispatches.
    pub tasks_dispatched: u64,
    /// High-water mark of the total ready backlog (ready tasks across
    /// all jobs).
    pub max_ready_depth: usize,
    /// High-water mark of concurrently admitted jobs.
    pub max_jobs_in_flight: usize,
    /// Submission → first dispatch, across all completed jobs.
    pub queue_wait: LatencyHistogram,
    /// Submission → result delivery, across all completed jobs.
    pub latency: LatencyHistogram,
    /// Lifecycle-event counters: jobs shed past their deadline, jobs
    /// cancelled, poisoned panel factors contained, and stalled workers
    /// retired by the watchdog.
    pub lifecycle: LifecycleCounters,
}

// ---------------------------------------------------------------------------
// what a job is made of, on its way through the service
// ---------------------------------------------------------------------------

type SharedInjector = Arc<dyn FaultInjector + Send + Sync>;

/// What of a job is carried from admission through its DAG and epilogue
/// to delivery: identity, timing, the reply slot, the DAG and what to
/// compute once it has run, and the per-job measurements that ride on the
/// [`JobResult`].
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
    reply: ReplyTx<T>,
    graph: TaskGraph,
    payload: Payload<T>,
    class_compute_us: [f64; 3],
    class_tasks: [u64; 3],
}

/// A job whose DAG is complete and whose state is nobody else's any more:
/// what is left is the epilogue and the delivery, both outside the lock.
type Finished<T> = (JobMeta<T>, FactorState<T>, RunReport);

/// The in-flight attempt a worker slot is watched for.
type AttemptKey = (JobId, TaskId, u32);

/// What a worker takes from the core to run with the lock released: one
/// attempt of one task of one job, staged under the lock — or the error
/// staging met.
struct Unit<T: Scalar> {
    key: AttemptKey,
    kind: TaskKind,
    b: usize,
    staged: Result<StagedTask<T>, MatrixError>,
    /// Time the kernel: the job is clocked, or its run traced.
    clocked: bool,
    injector: Option<SharedInjector>,
}

/// Run the epilogue of a finished DAG: wrap the state into the job's
/// requested output, answering a solve or apply payload through the
/// state's own way out.
fn finish_output<T: Scalar>(
    state: FactorState<T>,
    graph: TaskGraph,
    payload: Payload<T>,
) -> Result<JobOutput<T>, MatrixError> {
    Ok(match payload {
        Payload::Factor => JobOutput::Factored(FactoredJob { state, graph }),
        Payload::Solve { rhs } => {
            let b = Matrix::from_col_major(rhs.len(), 1, rhs)?;
            let x = state.solve(&graph, &b)?.as_slice().to_vec();
            let factor = FactoredJob { state, graph };
            JobOutput::Solved { x, factor }
        }
        Payload::Apply { c, side } => {
            let c = state.apply(&graph, &c, side)?;
            let factor = FactoredJob { state, graph };
            JobOutput::Applied { c, factor }
        }
    })
}

// ---------------------------------------------------------------------------
// the core: what every thread of an instance shares, behind the one lock
// ---------------------------------------------------------------------------

/// One admitted job: the engine's [`DagRun`] plus what only the driver
/// knows about it — its fair-share position and its lifecycle stamps,
/// beside what it carries to delivery. [`Shared::job`]
/// builds it on the caller's thread — everything that needs no lock, the
/// run included; its id, its dispatch-count and backlog stamps and its
/// virtual time are filled in under the lock, at admission.
struct JobState<T: Scalar> {
    meta: JobMeta<T>,
    /// Staged from and committed into under the lock; an attempt carries
    /// its tiles, not the state.
    state: FactorState<T>,
    /// Attempts time their kernel (a service job's per-class compute time).
    clocked: bool,
    /// Time workers blocked on the lock to stage, and to commit, its tasks.
    lock_wait: [Duration; 2],
    b: usize,
    vtime: f64,
    /// Readiness, fence, retry budget and counters. A cancelled
    /// job is a halted run: nothing more dispatches or commits, and the
    /// job resolves once its in-flight attempts have drained.
    run: DagRun,
    injector: Option<SharedInjector>,
    started: Option<Instant>,
}

/// The scheduling state of an instance. Workers, the timer, submitters and
/// cancelling handles all act on it directly, under [`Shared::core`].
struct Core<T: Scalar> {
    /// Admission is closed: workers and the timer leave once nothing is
    /// in flight.
    draining: bool,
    /// Admitted and not yet resolved jobs — what `max_in_flight` bounds.
    in_flight: usize,
    next_job: JobId,
    /// Attempts the stall watchdog is clocking. Epilogues run unwatched:
    /// they have no per-task retry identity for the watchdog to requeue.
    slots: Slots<AttemptKey>,
    jobs: BTreeMap<JobId, Box<JobState<T>>>,
    parked: BinaryHeap<Reverse<(Instant, JobId, TaskId)>>,
    /// Slots whose worker is lost — it reported a panic and left, or the
    /// watchdog retired it — for the timer to respawn.
    dead: Vec<usize>,
    vclock: f64,
    dispatch_count: u64,
    /// Workers asleep waiting for a ready unit.
    sleepers: usize,
    stats: ServiceStats,
    /// Final size and growth count of every arena a thread that has left
    /// held, summed.
    arenas: HotPathCounters,
}

/// WFQ charge of one task: its kernel megaflops at tile size `b`, the one
/// unit every job is priced in (a `b ≥ 1` kernel counts at least one
/// flop, so the charge is positive).
fn task_cost(b: usize, kind: TaskKind) -> f64 {
    flops::task_flops(kind, b) as f64 / 1.0e6
}

/// Panel-factor kinds are the poison chokepoint: every downstream update
/// consumes their tiles or T factors, so scanning them ahead of the commit
/// fence catches a NaN/Inf before it spreads beyond one tile column.
fn is_panel_factor(kind: TaskKind) -> bool {
    matches!(
        kind,
        TaskKind::Geqrt { .. } | TaskKind::Tsqrt { .. } | TaskKind::Ttqrt { .. }
    )
}

impl<T: Scalar> Core<T> {
    /// Virtual time a newly admitted job starts at: the minimum over the
    /// current backlog, so no new arrival is ordered behind work that
    /// came after it and no idle period inflates anyone's credit.
    fn arrival_vtime(&self) -> f64 {
        let backlog = self.jobs.values().filter(|j| !j.run.all_done());
        let earliest = backlog.map(|j| j.vtime).fold(f64::INFINITY, f64::min);
        if earliest.is_finite() {
            earliest
        } else {
            self.vclock
        }
    }

    fn backlog_size(&self) -> u64 {
        self.jobs.values().filter(|j| !j.run.all_done()).count() as u64
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

    /// Earliest deadline among still-queued jobs (the timer sleeps no
    /// longer than this, so sheds fire without any other traffic).
    fn earliest_queued_deadline(&self) -> Option<Instant> {
        let queued = self.jobs.values().filter(|j| j.started.is_none());
        queued.filter_map(|j| j.meta.deadline).min()
    }

    /// The backlogged job with the smallest virtual time, and the ready
    /// tasks of all jobs together. Cancelled jobs report nothing ready:
    /// their remaining tasks are abandoned while in-flight attempts drain.
    fn pick_wfq_job(&self) -> (Option<(f64, JobId)>, usize) {
        let mut ready = 0;
        let backlogged = self.jobs.iter().filter_map(|(&id, j)| {
            let n = j.run.ready_len();
            ready += n;
            (n > 0).then_some((j.vtime, id))
        });
        let best = backlogged.min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        (best, ready)
    }

    /// Whether a worker that looked now would find a unit to take.
    fn has_ready(&self) -> bool {
        self.jobs.values().any(|j| j.run.ready_len() > 0)
    }

    /// Charge `blocked`, what a worker waited for the lock to stage
    /// (`phase` 0) or commit (1) a task of `id`, to that job.
    fn charge_lock_wait(&mut self, id: JobId, phase: usize, blocked: Duration) {
        if !blocked.is_zero() {
            if let Some(job) = self.jobs.get_mut(&id) {
                job.lock_wait[phase] += blocked;
            }
        }
    }
}

/// The host driver's shared half: the core and its one lock, the wait
/// queues on it, and what never changes after start. Worker threads
/// schedule themselves over it — weighted-fair choice among many
/// [`DagRun`]s, settle, commit, epilogue, delivery — submitters and
/// cancelling handles act on it from their own threads, and one thread
/// keeps the clock-driven rest (see [`timer_loop`]). Everything per-DAG is
/// the engine's. A [`QrService`] keeps one instance resident; a one-shot
/// [`run_pool`] keeps one on its stack for the length of the call.
struct Shared<T: Scalar> {
    workers: usize,
    /// Admission bound (`0`: unbounded).
    max_in_flight: usize,
    /// `Some`: fenced attempts, retried within this budget. `None`, the
    /// one-shot fast mode: zero-copy staging, so a lost attempt fails its
    /// job at once — its inputs are gone.
    ft: Option<FaultTolerance>,
    /// `Some`: every job's run records a trace, timestamped from this
    /// epoch.
    trace: Option<Instant>,
    core: Mutex<Core<T>>,
    /// Workers sleep here while nothing is ready.
    work: Condvar,
    /// The timer sleeps here until its next deadline is due, or someone
    /// has set an earlier one or has left it something to do.
    timer: Condvar,
    /// Submitters blocked on the admission bound sleep here.
    admission: Condvar,
}

impl<T: Scalar> Shared<T> {
    fn new(
        workers: usize,
        max_in_flight: usize,
        ft: Option<FaultTolerance>,
        trace: Option<Instant>,
    ) -> Self {
        Shared {
            workers,
            max_in_flight,
            ft,
            trace,
            core: Mutex::new(Core {
                draining: false,
                in_flight: 0,
                next_job: 0,
                slots: Slots::new(workers),
                jobs: BTreeMap::new(),
                parked: BinaryHeap::new(),
                dead: Vec::new(),
                vclock: 0.0,
                dispatch_count: 0,
                sleepers: 0,
                stats: ServiceStats::default(),
                arenas: HotPathCounters::default(),
            }),
            work: Condvar::new(),
            timer: Condvar::new(),
            admission: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Core<T>> {
        self.guard(self.core.lock())
    }

    /// The lock, and how long taking it blocked. The uncontended fast path
    /// (`try_lock`) reads no clock; only a lock that blocks is timed.
    fn lock_timed(&self) -> (MutexGuard<'_, Core<T>>, Duration) {
        if let Ok(core) = self.core.try_lock() {
            return (core, Duration::ZERO);
        }
        let t0 = Instant::now();
        let core = self.lock();
        (core, t0.elapsed())
    }

    /// The guard out of a lock or wait result. A poisoned lock means a
    /// thread panicked mid-bookkeeping: the books cannot be trusted any
    /// more, so instead of panicking a second time the instance closes —
    /// admission shuts, every job in the table fails with
    /// [`RuntimeError::Disconnected`] (no handle is left unresolved), and
    /// the threads leave as for a drained instance.
    fn guard<'g>(&self, r: LockResult<MutexGuard<'g, Core<T>>>) -> MutexGuard<'g, Core<T>> {
        r.unwrap_or_else(|poisoned| {
            self.core.clear_poison();
            let mut core = poisoned.into_inner();
            core.draining = true;
            while let Some((&id, job)) = core.jobs.first_key_value() {
                let in_flight = job.run.in_flight();
                let err = ServiceError::Runtime(RuntimeError::Disconnected { in_flight });
                self.fail_job(&mut core, id, err);
            }
            self.timer.notify_one();
            core
        })
    }

    /// The stall watchdog's bound; attempts are clocked iff there is one.
    fn stall_bound(&self) -> Option<Duration> {
        self.ft?.stall_timeout
    }

    /// Build a Standard-class, deadline-free job that runs `graph` over
    /// `state` and then `payload`, and the slot its reply arrives in — on
    /// the caller's thread, before the lock.
    fn job(
        &self,
        state: FactorState<T>,
        graph: TaskGraph,
        payload: Payload<T>,
    ) -> (Box<JobState<T>>, Arc<ReplySlot<T>>) {
        let (reply, reply_tx) = ReplySlot::open();
        let meta = JobMeta {
            id: 0,
            class: PriorityClass::Standard,
            submitted: Instant::now(),
            deadline: None,
            submit_dispatch_count: 0,
            backlog_at_submit: 0,
            queue_wait: Duration::ZERO,
            dispatch_delay_tasks: 0,
            reply: reply_tx,
            graph,
            payload,
            class_compute_us: [0.0; 3],
            class_tasks: [0; 3],
        };
        let b = state.tile_size();
        let job = Box::new(JobState {
            run: DagRun::new(&meta.graph, self.workers, self.trace),
            meta,
            state,
            clocked: true,
            lock_wait: [Duration::ZERO; 2],
            b,
            vtime: 0.0,
            injector: None,
            started: None,
        });
        (job, reply)
    }

    /// Admit `job` (on the submitter's thread) once the admission bound
    /// has room for it — or refuse it: stamp it, count it, queue it, and
    /// wake whoever has to learn of it.
    fn admit(
        &self,
        mut core: MutexGuard<'_, Core<T>>,
        mut job: Box<JobState<T>>,
        block: bool,
    ) -> Result<JobId, ServiceError> {
        let max_in_flight = self.max_in_flight;
        while !core.draining && max_in_flight > 0 && core.in_flight >= max_in_flight {
            if !block {
                return Err(ServiceError::Saturated {
                    in_flight: core.in_flight,
                    max_in_flight,
                });
            }
            core = self.guard(self.admission.wait(core));
        }
        if core.draining {
            return Err(ServiceError::ShuttingDown);
        }
        let core = &mut *core;
        core.in_flight += 1;
        core.next_job += 1;
        let id = core.next_job;
        job.vtime = core.arrival_vtime();
        job.meta.id = id;
        job.meta.submit_dispatch_count = core.dispatch_count;
        job.meta.backlog_at_submit = core.backlog_size();
        let deadline = job.meta.deadline;
        let m = &mut core.stats;
        m.jobs_submitted += 1;
        m.max_jobs_in_flight = m.max_jobs_in_flight.max(core.in_flight);
        core.jobs.insert(id, job);
        if core.sleepers > 0 {
            self.work.notify_one();
        }
        // The timer has to learn of a deadline to shed at (at once, if it
        // burned away while `submit` blocked on a saturated gate), and of
        // attempts to clock where there may have been none.
        if deadline.is_some() || self.stall_bound().is_some() {
            self.timer.notify_one();
        }
        Ok(id)
    }

    /// A job is about to resolve: give its admission slot back first, so a
    /// waiter that sees the result can reuse it at once.
    fn release(&self, core: &mut Core<T>) {
        core.in_flight -= 1;
        self.admission.notify_all();
        if core.draining {
            self.timer.notify_one();
        }
    }

    /// Resolve a job's handle with `err`, release its admission slot and
    /// count the failure (plus its lifecycle counter, if it has one).
    fn resolve_err(&self, core: &mut Core<T>, reply: ReplyTx<T>, err: ServiceError) {
        let m = &mut core.stats;
        m.jobs_failed += 1;
        match err {
            ServiceError::DeadlineExceeded { .. } => m.lifecycle.jobs_shed += 1,
            ServiceError::Cancelled => m.lifecycle.jobs_cancelled += 1,
            _ => {}
        }
        self.release(core);
        reply.send(Err(err));
    }

    /// Shed every queued job whose deadline has passed. A job counts as
    /// queued until its first task dispatches; after that it runs to
    /// completion — a deadline bounds *waiting*, not execution. (A
    /// never-started job is never a cancelled one: cancelling a job with
    /// nothing in flight resolves it on the spot.)
    fn sweep_shed(&self, core: &mut Core<T>) {
        let now = Instant::now();
        let queued = core.jobs.iter().filter(|(_, j)| j.started.is_none());
        let late: Vec<_> = queued
            .filter_map(|(&id, j)| {
                let deadline = j.meta.deadline.filter(|&d| now >= d)?;
                let err = ServiceError::DeadlineExceeded {
                    deadline: deadline.duration_since(j.meta.submitted),
                    late_by: now.saturating_duration_since(deadline),
                };
                Some((id, err))
            })
            .collect();
        for (id, err) in late {
            self.fail_job(core, id, err);
        }
    }

    /// Stall watchdog: retire any worker whose in-flight task has aged
    /// past the bound, leave its slot for respawn (an instance never
    /// shrinks) and requeue the task exactly once through the normal retry
    /// path. The stalled thread's eventual late result (if it ever wakes)
    /// is deduplicated at the commit fence like any other stale attempt.
    fn sweep_watchdog(&self, core: &mut Core<T>) {
        let Some((ft, bound)) = self.ft.and_then(|ft| Some((ft, ft.stall_timeout?))) else {
            return;
        };
        for (w, (id, task, attempt)) in core.slots.take_stalled(bound, Instant::now()) {
            core.dead.push(w);
            core.stats.lifecycle.watchdog_retirements += 1;
            let Some(job) = core.jobs.get_mut(&id) else {
                continue;
            };
            let last = format!("worker {w} stalled past {bound:?}");
            let (run, graph, at) = (&mut job.run, &job.meta.graph, (task, attempt));
            let stalled = Outcome::Panicked(last.clone());
            match run.settle(graph, &mut job.state, at, w, true, stalled) {
                Verdict::Lost(_) => self.retry_or_fail(core, &ft, id, task, last),
                _ => self.finish_if_drained(core, id),
            }
        }
    }

    /// Resolve a cancelled job once its in-flight work has drained.
    fn finish_if_drained(&self, core: &mut Core<T>, id: JobId) {
        let job = core.jobs.get(&id);
        if job.is_some_and(|j| j.run.is_halted() && j.run.in_flight() == 0) {
            self.fail_job(core, id, ServiceError::Cancelled);
        }
    }

    /// [`JobHandle::cancel`], on the cancelling thread.
    fn cancel(&self, core: &mut Core<T>, id: JobId) {
        // If the job's graph already completed, completion wins (the
        // finishing worker delivers the normal result).
        let Some(job) = core.jobs.get_mut(&id) else {
            return;
        };
        if job.run.all_done() {
            return;
        }
        // Forget queued work; in-flight attempts drain at the fence, and
        // a job with none — still queued, say — resolves here.
        job.run.halt();
        self.finish_if_drained(core, id);
    }

    /// `id`'s DAG is complete: take the job, its state with it, out of the
    /// table. A straggler (the late attempt of a retired worker) holds only
    /// the tiles it staged, so nothing waits for it.
    fn retire(&self, core: &mut Core<T>, id: JobId) -> Option<Finished<T>> {
        let mut job = core.jobs.remove(&id)?;
        // The arenas outlive the job, so only the state's own
        // copy-on-write count is attributable to it.
        let counters = HotPathCounters {
            cow_clones: job.state.cow_clones(),
            ..HotPathCounters::default()
        };
        let elapsed = job.started.map(|s| s.elapsed()).unwrap_or_default();
        let mut report = job.run.into_report(elapsed, counters);
        [report.stage_wait, report.commit_wait] = job.lock_wait;
        job.state.end_run();
        Some((job.meta, job.state, report))
    }

    /// Run a finished job's epilogue and resolve its handle — the result
    /// with everything that rides on it, or the epilogue's failure — on
    /// the calling thread (`worker`'s, or the timer's for a deferred job)
    /// with the lock released; it is taken only to count. A panicking
    /// epilogue fails its job instead of killing the worker.
    fn finish(&self, (meta, state, report): Finished<T>, worker: usize) {
        let (graph, payload) = (meta.graph, meta.payload);
        let epilogue = move || finish_output(state, graph, payload);
        let output = catch_unwind(AssertUnwindSafe(epilogue))
            .map_err(|payload| {
                ServiceError::Runtime(RuntimeError::TaskPanicked {
                    task: 0,
                    worker,
                    message: panic_message(payload.as_ref()),
                })
            })
            .and_then(|output| output.map_err(ServiceError::Numeric));
        let output = match output {
            Ok(output) => output,
            Err(err) => return self.resolve_err(&mut self.lock(), meta.reply, err),
        };
        let latency = meta.submitted.elapsed();
        {
            let mut core = self.lock();
            let m = &mut core.stats;
            m.jobs_completed += 1;
            m.queue_wait.record_ns(meta.queue_wait.as_nanos() as u64);
            m.latency.record_ns(latency.as_nanos() as u64);
            self.release(&mut core);
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
            class_compute_us: meta.class_compute_us,
            class_tasks: meta.class_tasks,
        };
        meta.reply.send(Ok(result));
    }

    /// Deliver a failure for a job still in the table and drop its state.
    fn fail_job(&self, core: &mut Core<T>, id: JobId, err: ServiceError) {
        if let Some(job) = core.jobs.remove(&id) {
            self.resolve_err(core, job.meta.reply, err);
        }
    }

    /// Charge a lost attempt to the job's budget: park a retry (a new
    /// deadline for the timer) or fail the job once the budget is spent.
    /// Only this job is affected.
    fn retry_or_fail(
        &self,
        core: &mut Core<T>,
        ft: &FaultTolerance,
        id: JobId,
        task: TaskId,
        last: String,
    ) {
        let Some(job) = core.jobs.get_mut(&id) else {
            return;
        };
        match job.run.charge_retry(ft, task, last) {
            Ok(wait) => {
                core.parked.push(Reverse((Instant::now() + wait, id, task)));
                self.timer.notify_one();
            }
            Err(e) => self.fail_job(core, id, ServiceError::Runtime(e)),
        }
    }

    /// Settle how attempt `key` ended on slot `w`. `expected` is false if
    /// the watchdog retired `w` while it was away: such a report must not
    /// touch in-flight accounting (the watchdog already charged it), but a
    /// stale `Done` still gets a shot at the commit fence — first result
    /// wins, whoever produced it. `poisoned` is the worker's scan of a
    /// panel-factor output. Returns the job, if this commit was its last.
    fn settle(
        &self,
        core: &mut Core<T>,
        w: usize,
        (id, task, attempt): AttemptKey,
        expected: bool,
        outcome: Outcome<T>,
        poisoned: Option<(usize, usize)>,
    ) -> Option<Finished<T>> {
        // Job already failed and was removed: drop the late result.
        let job = core.jobs.get_mut(&id)?;
        // Poison fence: the output must not become an input of downstream
        // tasks.
        if let Some(tile) = poisoned.filter(|_| job.run.accepts(task)) {
            // Fail only the victim: its state is dropped before the NaN was
            // ever committed, so no other tile (or job) saw it.
            core.stats.lifecycle.poison_detected += 1;
            let err = ServiceError::NumericalBreakdown {
                task: Some(task),
                tile,
            };
            self.fail_job(core, id, err);
            return None;
        }
        let (run, graph, at) = (&mut job.run, &job.meta.graph, (task, attempt));
        match run.settle(graph, &mut job.state, at, w, expected, outcome) {
            Verdict::Committed(compute) => {
                let slot = KernelClass::of(graph.task(task)).slot();
                job.meta.class_compute_us[slot] += compute.as_nanos() as f64 / 1e3;
                job.meta.class_tasks[slot] += 1;
                // The common case ends here, without another look-up.
                let last = job.run.all_done();
                return last.then(|| self.retire(core, id)).flatten();
            }
            Verdict::Dropped => self.finish_if_drained(core, id),
            // A lost attempt costs a retry when fenced, the job when not
            // (destructive staging lost the task's inputs).
            Verdict::Lost(cause) => match self.ft {
                None => self.fail_job(core, id, ServiceError::Runtime(cause)),
                Some(ft) => self.retry_or_fail(core, &ft, id, task, cause.to_string()),
            },
        }
        None
    }

    /// Take the next unit for worker `w`: a task of the backlogged job
    /// with the smallest virtual time, charged and stamped as dispatched,
    /// and staged.
    fn next_unit(&self, core: &mut Core<T>, w: usize) -> Option<Unit<T>> {
        loop {
            let (best, ready) = core.pick_wfq_job();
            let (_, id) = best?;
            // `None`: the pick was shed, or all its ready entries were
            // superseded by a racing retry. Choose again.
            if let Some(unit) = self.take_task(core, w, id) {
                core.stats.max_ready_depth = core.stats.max_ready_depth.max(ready - 1);
                return Some(unit);
            }
        }
    }

    fn take_task(&self, core: &mut Core<T>, w: usize, id: JobId) -> Option<Unit<T>> {
        let job = core.jobs.get_mut(&id).expect("picked from the job table");
        let first = job.started.is_none().then(Instant::now);
        // A deadline bounds waiting: a job past it is shed, not started.
        if first.is_some_and(|now| job.meta.deadline.is_some_and(|d| now >= d)) {
            self.sweep_shed(core);
            return None;
        }
        let (task, attempt) = job.run.pop_ready(w, job.injector.as_deref())?;
        if let Some(now) = first {
            job.started = Some(now);
            job.meta.queue_wait = now.duration_since(job.meta.submitted);
            job.meta.dispatch_delay_tasks = core.dispatch_count - job.meta.submit_dispatch_count;
        }
        let kind = job.meta.graph.task(task);
        let key = (id, task, attempt);
        core.dispatch_count += 1;
        core.vclock = job.vtime;
        job.vtime += task_cost(job.b, kind) / job.meta.class.weight();
        core.stats.tasks_dispatched += 1;
        if self.stall_bound().is_some() {
            core.slots.watch(w, key);
        }
        // Staging is `O(1)` under the lock: a fenced stage takes handles
        // and spares, and the worker copies.
        let t0 = job.run.traced().then(Instant::now);
        let staged = match self.ft {
            Some(_) => job.state.stage_preserving(kind),
            None => job.state.stage(kind),
        };
        job.run.staged(w, kind, (task, attempt), t0);
        Some(Unit {
            key,
            kind,
            b: job.b,
            staged,
            clocked: job.clocked || job.run.traced(),
            injector: job.injector.clone(),
        })
    }
}

// ---------------------------------------------------------------------------
// the threads of an instance
// ---------------------------------------------------------------------------

/// A computing thread on slot `w`: take and stage a unit under the lock,
/// run it with the lock released, settle and commit it under the lock,
/// and — for the commit that completes a job — run that job's epilogue and
/// deliver its result, again with the lock released. Sleeps on `work` only
/// while the core has nothing ready.
fn worker_loop<T: Scalar>(sh: &Shared<T>, w: usize) {
    // One arena per thread, re-sized when a unit's tile size exceeds the
    // largest the worker has seen — steady state allocates nothing.
    let (mut ws, mut sized_for) = (Workspace::<T>::new(0, 0), 0);
    let (mut core, mut blocked) = sh.lock_timed();
    loop {
        let Some(unit) = sh.next_unit(&mut core, w) else {
            if core.draining && core.in_flight == 0 {
                break;
            }
            core.sleepers += 1;
            core = sh.guard(sh.work.wait(core));
            core.sleepers -= 1;
            blocked = Duration::ZERO;
            continue;
        };
        let (key, b) = (unit.key, unit.b);
        core.charge_lock_wait(key.0, 0, blocked);
        // Wake a sleeper only when there is one and a unit left for it,
        // so a busy instance makes no futex call per task.
        if core.sleepers > 0 && core.has_ready() {
            sh.work.notify_one();
        }
        drop(core);
        if b > sized_for {
            (ws, sized_for) = (Workspace::new(b, b), b);
        }
        let faults = unit.injector.as_deref();
        let outcome = run_attempt(unit.staged, (key.1, key.2), faults, &mut ws, unit.clocked);
        // The poison fence of a fenced run, on its panel factors.
        let fence = sh.ft.is_some() && is_panel_factor(unit.kind);
        let poisoned = match &outcome {
            Outcome::Done(done) if fence => done.completed.first_non_finite(),
            _ => None,
        };
        let panicked = matches!(outcome, Outcome::Panicked(_));
        (core, blocked) = sh.lock_timed();
        core.charge_lock_wait(key.0, 1, blocked);
        // Is this the attempt slot `w` is clocked for? Not if the watchdog
        // retired this thread while it was away: the slot belongs to its
        // replacement, and this thread must leave.
        let expected = sh.stall_bound().is_none() || core.slots.settle(w, key);
        let finished = sh.settle(&mut core, w, key, expected, outcome, poisoned);
        blocked = Duration::ZERO;
        if let Some(job) = finished {
            drop(core);
            sh.finish(job, w);
            (core, blocked) = sh.lock_timed();
        }
        if panicked || !expected {
            // A thread that panicked retires (its slot is the timer's to
            // respawn), and either kind of leaver may have left ready work
            // behind with everyone asleep.
            if expected {
                core.dead.push(w);
            }
            sh.timer.notify_one();
            break;
        }
    }
    core.arenas.workspace_bytes += ws.bytes();
    core.arenas.workspace_resizes += ws.resizes();
}

/// The clock of an instance, on the service's timer thread or on the
/// thread that called a one-shot run. It owns the worker threads —
/// scoped, so they may borrow the instance and are all joined on the way
/// out — and does what only a clock can start: wake parked retries, shed
/// queued jobs at their deadline, retire workers stalled past the watchdog
/// bound, respawn every lost worker (retired, or gone after reporting a
/// panic — an instance never shrinks), and stop the instance when
/// admission is closed and the core has drained. Between those it sleeps
/// on `timer`.
fn timer_loop<T: Scalar>(sh: &Shared<T>) {
    std::thread::scope(|scope| {
        let mut threads = Vec::new();
        let mut spawn = |w: usize| {
            let thread = std::thread::Builder::new()
                .name(format!("qr-worker-{w}"))
                .spawn_scoped(scope, move || worker_loop(sh, w));
            threads.push(thread.expect("spawn worker"));
        };
        (0..sh.workers).for_each(&mut spawn);
        let mut core = sh.lock();
        loop {
            core.wake_parked();
            sh.sweep_shed(&mut core);
            sh.sweep_watchdog(&mut core);
            if core.draining && core.in_flight == 0 {
                break;
            }
            std::mem::take(&mut core.dead)
                .into_iter()
                .for_each(&mut spawn);
            if core.sleepers > 0 && core.has_ready() {
                sh.work.notify_one();
            }
            // Sleep until the earliest of: a parked retry, a queued job's
            // deadline, a watchdog expiry (no attempt that starts after
            // `now` can expire before `now + bound`). Whoever sets an
            // earlier one notifies.
            let now = Instant::now();
            let clocked = sh.stall_bound().filter(|_| !core.jobs.is_empty());
            let wake = [
                core.parked.peek().map(|&Reverse((at, _, _))| at),
                core.earliest_queued_deadline(),
                clocked.map(|bound| {
                    let expiry = core.slots.earliest_stall_expiry(bound);
                    expiry.unwrap_or(now + bound)
                }),
            ];
            core = sh.guard(match wake.into_iter().flatten().min() {
                None => sh.timer.wait(core),
                Some(at) => {
                    let woken = sh
                        .timer
                        .wait_timeout(core, at.saturating_duration_since(now));
                    let woken = woken.map(|(core, _)| core);
                    woken.map_err(|poisoned| PoisonError::new(poisoned.into_inner().0))
                }
            });
        }
        drop(core);
        // The sleepers learn of the stop here; a worker still delivering
        // sees it when it next looks. Then join every thread, even one
        // finishing a late attempt; one that panicked outside an attempt
        // has nothing to add, and must not panic this thread in turn.
        sh.work.notify_all();
        for thread in threads {
            let _ = thread.join();
        }
    });
}

/// A one-shot run as a one-job instance of this driver on the caller's
/// stack: `state` over `graph` is admitted as its only job, admission
/// closes behind it, and the calling thread keeps the clock until the
/// instance has drained. What a one-shot run sets that the resident
/// service does not: `config.fault_tolerance` may be `None` (the unfenced
/// fast mode), tracing may be on, and the job carries `injector`, as a
/// service job carries [`JobSpec::faults`].
///
/// [`parallel_factor_traced`](crate::parallel_factor_traced) calls it with
/// no injector once it has more than one worker. Called directly, it is
/// the test seam: it always runs the driver — at one worker, on a
/// one-task graph — so a [`FaultInjector`], and a schedule adversary
/// through its [`pick`](FaultInjector::pick), reach the real threads,
/// wake-ups and commits.
#[doc(hidden)]
pub fn run_pool<T: Scalar>(
    state: FactorState<T>,
    graph: &TaskGraph,
    config: PoolConfig,
    injector: Option<Arc<dyn FaultInjector + Send + Sync>>,
) -> Result<(FactorState<T>, RunReport), RuntimeError> {
    let started = Instant::now();
    let trace = config.trace.enabled.then_some(started);
    let ft = config.fault_tolerance;
    let sh = Shared::new(config.effective_workers(), 0, ft, trace);
    let (mut job, reply) = sh.job(state, graph.clone(), Payload::Factor);
    // Its result carries no per-class compute time to clock.
    (job.clocked, job.injector) = (false, injector);
    let admitted = sh.admit(sh.lock(), job, false);
    sh.lock().draining = true;
    timer_loop(&sh);
    let result = admitted.and_then(|_| reply.take(None).unwrap_or(Err(ServiceError::Lost)));
    let JobResult {
        output, mut report, ..
    } = result.map_err(|e| match e {
        ServiceError::Runtime(e) => e,
        // The poison fence of a fenced run: a kernel failure a caller can
        // match on, carrying the service's message.
        ServiceError::NumericalBreakdown {
            task: Some(task), ..
        } => RuntimeError::Kernel {
            task,
            source: MatrixError::Runtime {
                reason: e.to_string(),
            },
        },
        // Nothing else can happen to the one job of a scoped instance.
        _ => RuntimeError::Disconnected { in_flight: 0 },
    })?;
    let core = sh.core.into_inner().unwrap_or_else(PoisonError::into_inner);
    report.elapsed = started.elapsed();
    report.counters.workspace_bytes = core.arenas.workspace_bytes;
    report.counters.workspace_resizes = core.arenas.workspace_resizes;
    Ok((output.into_factor().state, report))
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
    shared: Arc<Shared<T>>,
    timer: Mutex<Option<JoinHandle<()>>>,
}

impl<T: Scalar> QrService<T> {
    /// Spawn the timer thread, which spawns the resident worker pool.
    pub fn start(config: ServiceConfig) -> Self {
        let (workers, ft) = (config.effective_workers(), Some(config.fault_tolerance));
        let shared = Arc::new(Shared::new(workers, config.max_in_flight, ft, None));
        let sh = Arc::clone(&shared);
        let timer = std::thread::Builder::new()
            .name("qr-service-timer".into())
            .spawn(move || timer_loop(&sh))
            .expect("spawn service timer");
        QrService {
            shared,
            timer: Mutex::new(Some(timer)),
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
        // Validate, tile, plan and build the job's run state on the
        // caller's thread, before the lock; spec errors cost no admission
        // slot.
        let (state, graph) =
            FactorState::plan(&spec.a, spec.tile_size, spec.tree).map_err(ServiceError::Numeric)?;
        let rows = spec.a.rows();
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
        // Poison containment starts at the front door: a NaN/Inf input
        // would corrupt every downstream tile, so reject it here — on the
        // caller's thread, before it costs an admission slot.
        if let Some((i, j)) = spec.a.first_non_finite() {
            let b = state.tile_size();
            return Err(ServiceError::NumericalBreakdown {
                task: None,
                tile: (i / b, j / b),
            });
        }
        let sh = &self.shared;
        let (mut job, reply) = sh.job(state, graph, spec.payload);
        job.meta.class = spec.priority;
        job.meta.deadline = spec.deadline.map(|d| job.meta.submitted + d);
        job.injector = spec.injector;
        let id = sh.admit(sh.lock(), job, block)?;
        Ok(JobHandle {
            id,
            reply,
            service: Arc::downgrade(sh),
        })
    }

    /// Snapshot the service-wide counters and histograms.
    pub fn stats(&self) -> ServiceStats {
        self.shared.lock().stats.clone()
    }

    /// Stop admission, drain every queued and in-flight job to its
    /// handle (zero lost jobs), join all threads, and return the final
    /// stats.
    pub fn shutdown(self) -> ServiceStats {
        self.shutdown_inner();
        self.stats()
    }

    /// Also `Drop`'s body, so it must not panic: [`Shared::lock`] does not,
    /// even on a poisoned lock. No submitter can be blocked on the
    /// admission bound here: `submit` borrows the service this call owns.
    fn shutdown_inner(&self) {
        self.shared.lock().draining = true;
        self.shared.timer.notify_one();
        let timer = (self.timer.lock())
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(handle) = timer {
            let _ = handle.join();
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
    use tileqr_dag::EliminationTree;
    use tileqr_matrix::gen::random_matrix;
    use tileqr_matrix::TiledMatrix;

    fn sequential_tiles(a: &Matrix<f64>, b: usize, order: EliminationTree) -> Matrix<f64> {
        let tiled = TiledMatrix::from_matrix(a, b).unwrap();
        let g = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), order);
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
            sequential_tiles(&a, 8, EliminationTree::Flat)
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
                sequential_tiles(a, 8, EliminationTree::Flat)
            );
        }
        let stats = service.shutdown();
        assert_eq!(stats.jobs_completed, 8);
        assert_eq!(stats.jobs_failed, 0);
    }

    #[test]
    fn auto_policy_without_selector_uses_geometry_heuristic() {
        let service = QrService::<f64>::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        // 64x8 at b=8 -> 8x1 grid: the heuristic picks TSQR, Plateau(⌈√8⌉).
        let a = random_matrix::<f64>(64, 8, 32);
        let h = service
            .submit(JobSpec::factor(a).tile_size(8).tree(TreePolicy::Auto))
            .unwrap();
        let tree = h.wait().unwrap().output.factor().graph.tree();
        assert_eq!(tree, EliminationTree::default_for(8, 1));
        assert_eq!(tree, EliminationTree::Plateau(3));
        service.shutdown();
    }

    #[test]
    fn zero_plateau_domain_is_refused_at_submission() {
        // An error on the submitter's thread, not a panic, and no slot
        // spent: the service still runs the next job.
        let service = QrService::<f64>::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let a = random_matrix::<f64>(32, 16, 33);
        let zero = TreePolicy::Fixed(EliminationTree::Plateau(0));
        let refused = service.submit(JobSpec::factor(a.clone()).tile_size(8).tree(zero));
        assert!(matches!(refused, Err(ServiceError::Numeric(_))));
        let ok = service.submit(JobSpec::factor(a).tile_size(8)).unwrap();
        assert!(ok.wait().is_ok());
        let stats = service.shutdown();
        assert_eq!((stats.jobs_completed, stats.jobs_failed), (1, 0));
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
            service.submit(JobSpec::solve(a.clone(), vec![0.0; 3])),
            Err(ServiceError::Numeric(_))
        ));
        // A tile size of 0 is stored as given and refused here, not
        // silently planned at b = 1.
        assert!(matches!(
            service.submit(JobSpec::factor(a).tile_size(0)),
            Err(ServiceError::Numeric(MatrixError::BadTileSize { tile: 0 }))
        ));
        assert_eq!(service.shutdown().jobs_submitted, 0);
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

    /// A finite input whose first panel factor overflows is contained at
    /// the poison fence whatever the job's size — one task or thirty —
    /// and wherever inside the kernel the overflow happens, and a healthy
    /// one-task neighbour is untouched.
    #[test]
    fn overflowing_panel_factor_is_contained_at_every_job_size() {
        // Every column norm exceeds f64::MAX, every entry is finite: the
        // first `larfg` already returns a non-finite reflector.
        let overflowing = |n: usize| {
            Matrix::from_fn(
                n,
                n,
                |i, j| {
                    if (i + j) % 2 == 0 {
                        1.5e308
                    } else {
                        -1.2e308
                    }
                },
            )
        };
        // Every column norm is finite, so every reflector of the left half
        // of the b = 32 tile is too; the right half is nearly parallel to
        // column 0, whose `tau` is nearly 2, so it is the level-3 apply
        // inside GEQRT (`T₁₁ᵀ·(V₁ᵀC)`) that leaves the range.
        let late = Matrix::from_fn(32, 32, |i, j| {
            let e0 = if i == 0 {
                1.0
            } else {
                1e-3 * ((i * 7 + j) % 5) as f64
            };
            match j {
                0 => e0,
                1..=15 => ((i * 13 + j * 29) % 17) as f64 / 17.0 - 0.4,
                _ => 1.2e308 * e0,
            }
        });
        for j in 0..32 {
            assert!(tileqr_matrix::ops::nrm2(late.col(j)).is_finite());
        }
        for (a, b, tasks) in [
            (overflowing(16), 16, 1),
            (overflowing(32), 8, 30),
            (late, 32, 1),
        ] {
            let service = QrService::<f64>::start(ServiceConfig::default());
            assert_eq!(a.first_non_finite(), None);
            let healthy = random_matrix::<f64>(16, 16, 61);
            let doomed = service.submit(JobSpec::factor(a).tile_size(b)).unwrap();
            let neighbour = service
                .submit(JobSpec::factor(healthy.clone()).tile_size(16))
                .unwrap();
            match doomed.wait() {
                Err(ServiceError::NumericalBreakdown { task, tile }) => {
                    assert_eq!((task, tile), (Some(0), (0, 0)), "{tasks}-task job");
                }
                other => panic!(
                    "{tasks}-task job: expected breakdown, got {:?}",
                    other.map(|r| r.output.factor().r_matrix()[(0, 0)])
                ),
            }
            let r = neighbour.wait().unwrap();
            assert_eq!(r.output.factor().graph.len(), 1);
            assert_eq!(
                r.output.factor().state.tiles().to_matrix(),
                sequential_tiles(&healthy, 16, EliminationTree::Flat)
            );
            let stats = service.shutdown();
            assert_eq!(stats.lifecycle.poison_detected, 1);
            assert_eq!((stats.jobs_failed, stats.jobs_completed), (1, 1));
        }
    }

    #[test]
    fn expired_deadline_sheds_queued_job() {
        // One worker pinned by a long-running job; a second job with a
        // zero deadline must be shed before it ever dispatches.
        let service = QrService::<f64>::start(ServiceConfig {
            workers: 1,
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
    fn poisoned_lock_fails_every_job_without_a_second_panic() {
        let sh = Shared::<f64>::new(1, 64, None, None);
        let job = || {
            let tiled = TiledMatrix::from_matrix(&random_matrix::<f64>(8, 8, 1), 4).unwrap();
            let graph = TaskGraph::build_tree(2, 2, EliminationTree::Flat);
            let state = FactorState::new(tiled);
            sh.job(state, graph, Payload::Factor)
        };
        let (admitted, reply) = job();
        sh.admit(sh.lock(), admitted, false).unwrap();
        // A thread dying mid-bookkeeping poisons the lock...
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _core = sh.core.lock().unwrap();
                panic!("mid-bookkeeping");
            })
            .join()
        });
        assert!(died.is_err() && sh.core.is_poisoned());
        // ...and whoever takes it next closes the instance instead of
        // panicking: no job left in the table, none left unresolved.
        let core = sh.lock();
        assert!(core.draining && core.jobs.is_empty() && core.in_flight == 0);
        drop(core);
        let lost = ServiceError::Runtime(RuntimeError::Disconnected { in_flight: 0 });
        assert_eq!(
            reply.take(None).unwrap().err().map(|e| e.to_string()),
            Some(lost.to_string())
        );
        let (late, _) = job();
        assert!(matches!(
            sh.admit(sh.lock(), late, true),
            Err(ServiceError::ShuttingDown)
        ));
    }

    /// A job admitted to `sh` and never dispatched.
    fn idle_job(sh: &Shared<f64>) -> JobId {
        let tiled = TiledMatrix::from_matrix(&random_matrix::<f64>(8, 8, 19), 4).unwrap();
        let graph = TaskGraph::build_tree(2, 2, EliminationTree::Flat);
        let state = FactorState::new(tiled);
        let (job, _) = sh.job(state, graph, Payload::Factor);
        sh.admit(sh.lock(), job, false).unwrap()
    }

    #[test]
    fn contended_driver_lock_is_timed_into_stage() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let sh = Shared::<f64>::new(1, 0, None, None);
        let id = idle_job(&sh);
        let held = sh.lock();
        let started = AtomicBool::new(false);
        let blocked = std::thread::scope(|s| {
            let taker = s.spawn(|| {
                started.store(true, Ordering::Release);
                sh.lock_timed().1
            });
            while !started.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            // Long past the taker's next step: its `try_lock` fails and it
            // blocks for most of this.
            std::thread::sleep(Duration::from_millis(25));
            drop(held);
            taker.join().unwrap()
        });
        let mut core = sh.lock();
        core.charge_lock_wait(id, 0, blocked);
        let (_, _, report) = sh.retire(&mut core, id).unwrap();
        assert!(
            report.stage_wait >= Duration::from_millis(5),
            "stage wait {:?}",
            report.stage_wait
        );
        assert_eq!(report.commit_wait, Duration::ZERO);
    }

    #[test]
    fn uncontended_driver_lock_times_no_wait() {
        // Every take on one thread finds the lock free: the fast path, so
        // neither count moves.
        let sh = Shared::<f64>::new(1, 0, None, None);
        let id = idle_job(&sh);
        for phase in (0..2).cycle().take(1000) {
            let (mut core, blocked) = sh.lock_timed();
            assert_eq!(blocked, Duration::ZERO);
            core.charge_lock_wait(id, phase, blocked);
        }
        let (_, _, report) = sh.retire(&mut sh.lock(), id).unwrap();
        assert_eq!(
            (report.stage_wait, report.commit_wait),
            (Duration::ZERO, Duration::ZERO)
        );
    }

    /// A handle on a reply slot of its own, with no service behind it.
    fn detached_handle() -> (JobHandle<f64>, ReplyTx<f64>) {
        let (reply, tx) = ReplySlot::open();
        let handle = JobHandle {
            id: 1,
            reply,
            service: Weak::new(),
        };
        (handle, tx)
    }

    #[test]
    fn dropped_reply_sender_resolves_the_handle_lost() {
        let (h, tx) = detached_handle();
        assert!(matches!(h.wait_timeout(Duration::ZERO), Err(WaitTimeout)));
        drop(tx);
        assert!(matches!(
            h.wait_timeout(Duration::ZERO),
            Ok(Err(ServiceError::Lost))
        ));
        assert!(matches!(h.wait(), Err(ServiceError::Lost)));
    }

    #[test]
    fn reply_already_set_beats_a_zero_timeout() {
        let (h, tx) = detached_handle();
        tx.send(Err(ServiceError::Cancelled));
        assert!(matches!(
            h.wait_timeout(Duration::ZERO),
            Ok(Err(ServiceError::Cancelled))
        ));
        // One shot: the reply was taken and its sender is gone.
        assert!(matches!(h.wait(), Err(ServiceError::Lost)));
    }

    #[test]
    fn cancel_after_shutdown_is_a_noop() {
        let service = QrService::<f64>::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let h = service
            .submit(JobSpec::factor(random_matrix::<f64>(24, 24, 51)).tile_size(8))
            .unwrap();
        let stats = service.shutdown();
        assert!(h.service.upgrade().is_none(), "the service is gone");
        h.cancel();
        assert_eq!(stats.lifecycle.jobs_cancelled, 0);
        h.wait().expect("the drain resolved the handle");
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
