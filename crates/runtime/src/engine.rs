//! The one DAG engine under the host driver (the paper's single Fig. 7
//! manager loop).
//!
//! What the driver in [`service`](crate::service) does *per DAG* — for a
//! job of the resident service or for the one job of a one-shot run —
//! lives here exactly once, thread-free ("the manager" below is whoever
//! holds the [`DagRun`]: a worker, or the driver's clock thread, inside
//! the driver's one lock):
//!
//! * [`run_attempt`] — the worker-side body of one task attempt the
//!   manager staged: fault seam, kernel (with a fenced stage's tile
//!   copies), optional compute span.
//! * [`DagRun`] — the per-DAG state machine: readiness, dispatch order,
//!   the `committed` fence, the per-task attempt budget, and the
//!   counters that become a [`RunReport`].
//! * [`Slots`] — which worker slot is running what since when: the "is
//!   this the report I am waiting for" test and the stall watchdog's
//!   scan.
//!
//! Because none of it touches a thread or a channel, the testkit drives
//! [`DagRun`] directly through adversarial event orders (duplicate,
//! late, and post-commit reports) without sleeps.

use crate::error::RuntimeError;
use crate::pool::RunReport;
use crate::recovery::{FaultInjector, FaultTolerance, InjectedFault};
use crate::scheduler::{DispatchOrder, ReadyQueue, ReadyTracker};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use tileqr_dag::{TaskGraph, TaskId};
use tileqr_kernels::exec::{CompletedTask, FactorState, StagedTask};
use tileqr_kernels::{flops, Workspace};
use tileqr_matrix::{MatrixError, Scalar};
use tileqr_obs::{HotPathCounters, RawEvent, RawKind, Trace, WorkerRecorder};

/// Nanosecond trace timestamp of `t` relative to the run's `epoch`.
#[inline]
pub(crate) fn ns_at(epoch: Instant, t: Instant) -> u64 {
    t.duration_since(epoch).as_nanos() as u64
}

/// Record an instant on a manager `lane` (no-op when untraced).
fn mark(lane: &mut Option<(WorkerRecorder, Instant)>, kind: RawKind, task: TaskId, aux: u64) {
    if let Some((rec, epoch)) = lane {
        let now = ns_at(*epoch, Instant::now());
        rec.record(RawEvent::instant(kind, task, aux, now));
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What one attempt that ran to completion hands back.
pub struct Attempt<T: Scalar> {
    /// The task's outputs, awaiting the manager's commit.
    pub completed: CompletedTask<T>,
    /// Kernel-only duration (a fenced stage's copies included) — a job's
    /// per-class compute time (the tuner's probe samples). Zero for an
    /// attempt that was neither clocked nor traced.
    pub compute: Duration,
}

/// How one attempt ended, as a worker reports it to its manager.
pub enum Outcome<T: Scalar> {
    /// The attempt ran to completion.
    Done(Attempt<T>),
    /// The kernel (or an injected transient fault) returned an error.
    Failed(MatrixError),
    /// The attempt panicked; the worker thread retires after reporting.
    Panicked(String),
}

/// Run attempt `attempt` (0-based) of `task` on the calling worker thread,
/// over what the manager staged for it — or the staging error it met (a
/// reflector factor missing), reported as a failed attempt.
///
/// The outputs travel back for the manager to commit through
/// [`DagRun::on_done`]. A fenced stage left the shared state untouched and
/// copied nothing yet: its written-tile copies run here, in
/// `compute_with`, ahead of the kernel. `clocked` times the kernel into
/// [`Attempt::compute`]; `lane`, the worker's recorder plus the run's epoch
/// when tracing, gets its compute span. An attempt that is neither reads
/// no clock. Panics are caught and reported, never propagated.
pub fn run_attempt<T: Scalar>(
    staged: Result<StagedTask<T>, MatrixError>,
    (task, attempt): (TaskId, u32),
    injector: Option<&dyn FaultInjector>,
    ws: &mut Workspace<T>,
    clocked: bool,
    lane: Option<(&mut WorkerRecorder, Instant)>,
) -> Outcome<T> {
    let result = catch_unwind(AssertUnwindSafe(|| -> Result<Attempt<T>, MatrixError> {
        let fault = injector.map_or(InjectedFault::None, |f| f.before_attempt(task, attempt));
        match fault {
            InjectedFault::None | InjectedFault::PoisonNan => {}
            InjectedFault::Panic => panic!("injected panic: task {task} attempt {attempt}"),
            InjectedFault::TransientError => {
                return Err(MatrixError::Runtime {
                    reason: format!("injected transient failure: task {task} attempt {attempt}"),
                })
            }
            InjectedFault::Stall(d) => std::thread::sleep(d),
        }
        let t0 = (clocked || lane.is_some()).then(Instant::now);
        let mut completed = staged?.compute_with(ws)?;
        let span = t0.map(|t0| (t0, Instant::now()));
        if fault == InjectedFault::PoisonNan {
            // NaN-corrupt the output *after* the kernel ran: the seam for
            // a driver's poison scan ahead of the commit fence.
            completed.poison();
        }
        if let (Some((rec, epoch)), Some((t0, t1))) = (lane, span) {
            let (s0, s1) = (ns_at(epoch, t0), ns_at(epoch, t1));
            rec.record(RawEvent::interval(RawKind::Compute, task, attempt, s0, s1));
        }
        Ok(Attempt {
            completed,
            compute: span.map_or(Duration::ZERO, |(t0, t1)| t1 - t0),
        })
    }));
    match result {
        Ok(Ok(done)) => Outcome::Done(done),
        Ok(Err(e)) => Outcome::Failed(e),
        Err(payload) => Outcome::Panicked(panic_message(payload.as_ref())),
    }
}

/// The counters a run accumulates on its way to a [`RunReport`].
#[derive(Debug, Default)]
pub(crate) struct Tally {
    tasks_per_worker: Vec<u64>,
    retries: u64,
    requeues: u64,
    worker_deaths: u64,
}

impl Tally {
    /// A run that needed no manager: `tasks` tasks in program order on
    /// lane `worker` of `workers` (the inline path), with nothing else to
    /// report.
    pub(crate) fn one_lane(workers: usize, worker: usize, tasks: u64) -> Self {
        let mut tasks_per_worker = vec![0; workers];
        tasks_per_worker[worker] = tasks;
        Tally {
            tasks_per_worker,
            ..Tally::default()
        }
    }

    /// The report, with no lock wait: the driver fills in how long its
    /// workers blocked on its lock for the run.
    pub(crate) fn into_report(
        self,
        max_ready_depth: usize,
        elapsed: Duration,
        trace: Option<Trace>,
        counters: HotPathCounters,
    ) -> RunReport {
        RunReport {
            tasks_per_worker: self.tasks_per_worker,
            elapsed,
            stage_wait: Duration::ZERO,
            commit_wait: Duration::ZERO,
            max_ready_depth,
            retries: self.retries,
            requeues: self.requeues,
            worker_deaths: self.worker_deaths,
            trace,
            counters,
        }
    }
}

/// The state machine of one DAG execution, owned by whichever manager
/// drives it. The driver feeds it events (a dispatch, a worker report,
/// a watchdog retirement) and it answers with what to do next; it never
/// blocks, spawns, or sends.
///
/// Re-execution is safe because of the **commit fence**: a task's outputs
/// are applied at most once, by [`on_done`](Self::on_done), and the first
/// result wins — duplicate attempts staged identical inputs (nothing that
/// conflicts runs before the commit), so their outputs are bit-identical.
/// A failure is charged to a task's attempt budget only when it comes
/// from the slot the manager is waiting on *and* the task is still
/// uncommitted; late or superseded reports are ignored.
pub struct DagRun {
    tracker: ReadyTracker,
    queue: ReadyQueue,
    committed: Vec<bool>,
    attempts: Vec<u32>,
    in_flight: usize,
    halted: bool,
    /// The manager's own trace lane (ready/dispatch/recovery instants and
    /// the commits) plus the run's epoch.
    lane: Option<(WorkerRecorder, Instant)>,
    tally: Tally,
}

impl DagRun {
    /// Start a run of `graph` at tile size `b` over `workers` worker
    /// slots, with the sources already in the ready set. A priority order
    /// ranks by flop bottom levels at `b`. `lane`, when tracing, is the
    /// manager's recorder plus the run's epoch.
    pub fn new(
        graph: &TaskGraph,
        order: DispatchOrder,
        b: usize,
        workers: usize,
        lane: Option<(WorkerRecorder, Instant)>,
    ) -> Self {
        let mut run = DagRun {
            tracker: ReadyTracker::new(graph),
            queue: ReadyQueue::for_order(order, graph, |t| flops::task_flops(t, b) as f64),
            committed: vec![false; graph.len()],
            attempts: vec![0; graph.len()],
            in_flight: 0,
            halted: false,
            lane,
            tally: Tally {
                tasks_per_worker: vec![0; workers],
                ..Tally::default()
            },
        };
        for t in run.tracker.initial_ready(graph) {
            mark(&mut run.lane, RawKind::Ready, t, 0);
            run.queue.push(t);
        }
        run
    }

    /// Whether every task has been committed.
    pub fn all_done(&self) -> bool {
        self.tracker.all_done()
    }

    /// Attempts dispatched and not yet reported (or retired).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Ready tasks a [`pop_ready`](Self::pop_ready) could hand out now
    /// (none once halted).
    pub fn ready_len(&self) -> usize {
        if self.halted {
            0
        } else {
            self.queue.len()
        }
    }

    /// Whether a `Done` for `task` would still be committed: the run is
    /// live and no earlier result won the fence.
    pub fn accepts(&self, task: TaskId) -> bool {
        !self.halted && !self.committed[task]
    }

    /// Stop dispatching and committing; in-flight attempts only drain.
    /// The driver halts a run it is abandoning (a fatal error, a
    /// cancelled job); an exhausted retry budget halts it by itself.
    pub fn halt(&mut self) {
        self.halted = true;
    }

    /// Whether the run was halted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Next task for worker slot `w` under the run's dispatch order, with
    /// its 0-based attempt number — charged to the task's budget and
    /// counted in flight. Entries superseded by a harvested late result
    /// are skipped.
    pub fn pop_ready(&mut self, w: usize) -> Option<(TaskId, u32)> {
        if self.halted {
            return None;
        }
        loop {
            let t = self.queue.pop()?;
            if self.committed[t] {
                continue;
            }
            self.attempts[t] += 1;
            self.in_flight += 1;
            mark(&mut self.lane, RawKind::Dispatch, t, w as u64);
            return Some((t, self.attempts[t] - 1));
        }
    }

    /// A parked retry of `t` is due: back into the ready set, unless a
    /// late result committed it in the meantime.
    pub fn wake(&mut self, t: TaskId) {
        if !self.committed[t] {
            self.queue.push(t);
        }
    }

    fn settle(&mut self, expected: bool) {
        if expected {
            self.in_flight -= 1;
        }
    }

    /// Attempt `attempt` of `t` completed on slot `w`. `expected` says
    /// whether it is the report the manager was waiting on for that slot;
    /// a late `Done` from a retired worker still gets its shot at the
    /// fence. Returns `true` when this result was committed (outputs
    /// applied to `state`, successors readied), `false` when it was
    /// dropped as a duplicate or because the run is halted. Every commit
    /// of a run happens here, fenced or not.
    pub fn on_done<T: Scalar>(
        &mut self,
        graph: &TaskGraph,
        state: &mut FactorState<T>,
        (t, attempt): (TaskId, u32),
        w: usize,
        expected: bool,
        done: Attempt<T>,
    ) -> bool {
        self.settle(expected);
        if !self.accepts(t) {
            return false;
        }
        // Only a traced commit is clocked: its span is the one reader.
        if let Some((rec, epoch)) = self.lane.as_mut() {
            let c0 = ns_at(*epoch, Instant::now());
            state.commit(done.completed);
            let c1 = ns_at(*epoch, Instant::now());
            rec.record(RawEvent::interval(RawKind::Commit, t, attempt, c0, c1));
        } else {
            state.commit(done.completed);
        }
        self.committed[t] = true;
        self.tally.tasks_per_worker[w] += 1;
        let (queue, lane) = (&mut self.queue, &mut self.lane);
        self.tracker.complete(graph, t, |r| {
            mark(lane, RawKind::Ready, r, 0);
            queue.push(r);
        });
        true
    }

    /// An attempt of `t` returned an error. Returns whether the driver
    /// should [`charge_retry`](Self::charge_retry) (or, unfenced, fail the
    /// run): only for the expected report of a still-uncommitted task.
    pub fn on_failed(&mut self, t: TaskId, expected: bool) -> bool {
        self.settle(expected);
        expected && self.accepts(t)
    }

    /// The worker on slot `w` was lost mid-attempt of `t`: it reported a
    /// panic, or the stall watchdog retired it (then `expected` is true by
    /// construction — the watchdog only scans live slots). Counts the
    /// death; returns whether the task needs a retry, as
    /// [`on_failed`](Self::on_failed) does.
    pub fn on_panicked(&mut self, t: TaskId, w: usize, expected: bool) -> bool {
        self.settle(expected);
        if !expected {
            return false;
        }
        self.tally.worker_deaths += 1;
        let no_task = RawEvent::NO_TASK;
        mark(&mut self.lane, RawKind::WorkerDeath, no_task, w as u64);
        if !self.accepts(t) {
            return false;
        }
        self.tally.requeues += 1;
        mark(&mut self.lane, RawKind::Requeue, t, w as u64);
        true
    }

    /// Charge a lost attempt of `t` to its budget. `Ok(when)`: park the
    /// task and [`wake`](Self::wake) it at `when` (deterministic backoff).
    /// `Err`: the budget is spent — the run halts, so this surfaces at
    /// most once per run.
    pub fn charge_retry(
        &mut self,
        ft: &FaultTolerance,
        t: TaskId,
        last: String,
    ) -> Result<Instant, RuntimeError> {
        let attempts = self.attempts[t];
        if attempts >= ft.max_attempts {
            self.halted = true;
            return Err(RuntimeError::RetriesExhausted {
                task: t,
                attempts,
                last,
            });
        }
        self.tally.retries += 1;
        mark(&mut self.lane, RawKind::Retry, t, u64::from(attempts));
        Ok(Instant::now() + ft.backoff(attempts))
    }

    /// Detach the manager's trace lane for merging (`None` if untraced).
    pub fn take_lane(&mut self) -> Option<WorkerRecorder> {
        self.lane.take().map(|(rec, _)| rec)
    }

    /// Close the books: the run's counters as a [`RunReport`]. `elapsed`,
    /// the merged `trace` and the memory `counters` are the driver's to
    /// measure.
    pub fn into_report(
        self,
        elapsed: Duration,
        trace: Option<Trace>,
        counters: HotPathCounters,
    ) -> RunReport {
        let depth = self.queue.max_depth();
        self.tally.into_report(depth, elapsed, trace, counters)
    }
}

/// Which worker slot is running what, since when — the stall watchdog's
/// view of the workers. `K` names an in-flight attempt: `(job, task,
/// attempt)` in the driver.
#[derive(Debug)]
pub struct Slots<K> {
    in_flight_of: Vec<Option<(K, Instant)>>,
}

impl<K: Copy + PartialEq> Slots<K> {
    /// `workers` slots, none running anything.
    pub fn new(workers: usize) -> Self {
        Slots {
            in_flight_of: vec![None; workers],
        }
    }

    /// Slot `w` started attempt `key` now.
    pub fn watch(&mut self, w: usize, key: K) {
        self.in_flight_of[w] = Some((key, Instant::now()));
    }

    /// A report for `key` arrived from slot `w`. Returns whether the slot
    /// was waiting on exactly that attempt, and clears it if so. False for
    /// a late report from a worker the watchdog already retired: that slot
    /// was cleared (and handed to a fresh thread).
    pub fn settle(&mut self, w: usize, key: K) -> bool {
        let expected = self.in_flight_of[w].is_some_and(|(k, _)| k == key);
        if expected {
            self.in_flight_of[w] = None;
        }
        expected
    }

    /// Earliest instant a watched attempt crosses the stall `bound`.
    pub fn earliest_stall_expiry(&self, bound: Duration) -> Option<Instant> {
        let watched = self.in_flight_of.iter().flatten();
        watched.map(|&(_, since)| since + bound).min()
    }

    /// Retire every slot whose attempt has been in flight for `bound` or
    /// longer at `now`: the slots are cleared (the worker is presumed
    /// stuck) and returned with their attempt keys.
    pub fn take_stalled(&mut self, bound: Duration, now: Instant) -> Vec<(usize, K)> {
        let mut stalled = Vec::new();
        for (w, slot) in self.in_flight_of.iter_mut().enumerate() {
            if let Some((key, since)) = *slot {
                if now.saturating_duration_since(since) >= bound {
                    *slot = None;
                    stalled.push((w, key));
                }
            }
        }
        stalled
    }
}
