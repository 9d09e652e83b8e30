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
//!   copies), optional compute interval.
//! * [`DagRun`] — the per-DAG state machine: the DAG's [`Frontier`]
//!   (readiness and the FIFO ready set), the `committed` fence, the
//!   per-task attempt budget, the counters that become a [`RunReport`],
//!   and, when traced, the run's [`Trace`]: every lane's spans and
//!   instants, pushed as they happen. [`DagRun::settle`] is the one
//!   mapping from a worker's report to its [`Verdict`]: committed,
//!   dropped, or lost.
//! * [`Slots`] — which worker slot is running what since when: the "is
//!   this the report I am waiting for" test and the stall watchdog's
//!   scan.
//!
//! Because none of it touches a thread or a channel, the testkit's one
//! virtual driver (`tileqr_testkit::explorer::Machine`) steps [`DagRun`]
//! on one thread, without sleeps: every explored interleaving, and every
//! adversarial event order (duplicate, late, and post-commit reports).

use crate::error::RuntimeError;
use crate::pool::RunReport;
use crate::recovery::{FaultInjector, FaultTolerance, InjectedFault};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use tileqr_dag::{Frontier, Pick, TaskGraph, TaskId, TaskKind};
use tileqr_kernels::exec::{CompletedTask, FactorState, StagedTask};
use tileqr_kernels::Workspace;
use tileqr_matrix::{MatrixError, Scalar};
use tileqr_obs::{EventKind, HotPathCounters, Phase, Span, Trace, TraceEvent};

/// Spans (Stage, Compute, Commit) and instants (Ready, Dispatch) a clean
/// run records per task: only a retried attempt's records outgrow them.
const ROOM_PER_TASK: [usize; 2] = [3, 2];

/// A traced run's [`Trace`], recorded as the run goes, and the epoch its
/// timestamps count from. A run's lanes `0..workers` are the worker slots;
/// the last, `manager`, carries the manager's instants and the commits.
pub(crate) struct Recording {
    pub(crate) trace: Trace,
    pub(crate) epoch: Instant,
}

impl Recording {
    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_nanos() as f64 / 1e3
    }

    /// Push the `phase` span of attempt `at` of a `kind` task on `lane`.
    pub(crate) fn span(
        &mut self,
        (phase, lane): (Phase, usize),
        kind: TaskKind,
        (task, attempt): (TaskId, u32),
        (t0, t1): (Instant, Instant),
    ) {
        let (start_us, end_us) = (self.us(t0), self.us(t1));
        self.trace.push_span(Span {
            task,
            kind,
            lane,
            phase,
            attempt,
            start_us,
            end_us,
        });
    }
}

/// Record an instant on the manager's lane (no-op when untraced).
fn mark(trace: &mut Option<Recording>, kind: EventKind, task: Option<TaskId>, aux: u64) {
    if let Some(tr) = trace {
        let (at_us, lane) = (tr.us(Instant::now()), tr.trace.lanes.len() - 1);
        tr.trace.push_event(TraceEvent {
            kind,
            task,
            lane,
            at_us,
            aux,
        });
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
    /// When the kernel ran (a fenced stage's copies included): a job's
    /// per-class compute time (the tuner's probe samples) and a traced
    /// run's compute span. `None` for an attempt that was not clocked.
    pub compute: Option<(Instant, Instant)>,
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
/// [`DagRun::settle`]. A fenced stage left the shared state untouched and
/// copied nothing yet: its written-tile copies run here, in
/// `compute_with`, ahead of the kernel. `clocked` times the kernel into
/// [`Attempt::compute`] (a clocked or a traced run); an unclocked attempt
/// reads no clock. Panics are caught and reported, never propagated.
pub fn run_attempt<T: Scalar>(
    staged: Result<StagedTask<T>, MatrixError>,
    (task, attempt): (TaskId, u32),
    injector: Option<&(dyn FaultInjector + Send + Sync)>,
    ws: &mut Workspace<T>,
    clocked: bool,
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
        let t0 = clocked.then(Instant::now);
        let mut completed = staged?.compute_with(ws)?;
        let compute = t0.map(|t0| (t0, Instant::now()));
        if fault == InjectedFault::PoisonNan {
            // NaN-corrupt the output *after* the kernel ran: the seam for
            // a driver's poison scan ahead of the commit fence.
            completed.poison();
        }
        Ok(Attempt { completed, compute })
    }));
    match result {
        Ok(Ok(done)) => Outcome::Done(done),
        Ok(Err(e)) => Outcome::Failed(e),
        Err(payload) => Outcome::Panicked(panic_message(payload.as_ref())),
    }
}

/// What [`DagRun::settle`] made of a report.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// Committed; its kernel ran this long (zero when not clocked).
    Committed(Duration),
    /// A duplicate, late or superseded report, or a halted run's.
    Dropped,
    /// Its task still needs a result: charge a retry, or fail the run.
    Lost(RuntimeError),
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
    /// one lane (the inline path), with nothing else to report.
    pub(crate) fn inline(tasks: u64) -> Self {
        Tally {
            tasks_per_worker: vec![tasks],
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
/// are applied at most once, by [`settle`](Self::settle), and the first
/// result wins — duplicate attempts staged identical inputs (nothing that
/// conflicts runs before the commit), so their outputs are bit-identical.
/// A failure is charged to a task's attempt budget only when it comes
/// from the slot the manager is waiting on *and* the task is still
/// uncommitted; late or superseded reports are ignored.
pub struct DagRun {
    /// Readiness and the FIFO ready set: a commit completes a task.
    frontier: Frontier,
    committed: Vec<bool>,
    attempts: Vec<u32>,
    in_flight: usize,
    halted: bool,
    /// The run's trace, when traced: the manager's instants and commits,
    /// and the workers' stage and compute spans.
    trace: Option<Recording>,
    tally: Tally,
}

impl DagRun {
    /// Start a run of `graph` over `workers` worker slots, with the
    /// sources already in the ready set. `epoch`, when tracing, is the
    /// instant the run's timestamps count from; the run then records every
    /// span and instant straight into one [`Trace`] sized from `graph`.
    pub fn new(graph: &TaskGraph, workers: usize, epoch: Option<Instant>) -> Self {
        let lanes = (0..workers)
            .map(|w| format!("worker{w}"))
            .chain(["manager".into()]);
        let [spans, events] = ROOM_PER_TASK.map(|r| r * graph.len());
        let trace = epoch.map(|epoch| Recording {
            trace: Trace::with_room(lanes.collect(), spans, events),
            epoch,
        });
        let mut run = DagRun {
            frontier: Frontier::new(graph),
            committed: vec![false; graph.len()],
            attempts: vec![0; graph.len()],
            in_flight: 0,
            halted: false,
            trace,
            tally: Tally {
                tasks_per_worker: vec![0; workers],
                ..Tally::default()
            },
        };
        for &t in run.frontier.ready() {
            mark(&mut run.trace, EventKind::Ready, Some(t), 0);
        }
        run
    }

    /// Whether the run records a trace.
    pub fn traced(&self) -> bool {
        self.trace.is_some()
    }

    /// Slot `w` staged attempt `at` of a `kind` task, from `t0` until
    /// now: its stage span, when traced (`t0` is `None` otherwise).
    pub fn staged(&mut self, w: usize, kind: TaskKind, at: (TaskId, u32), t0: Option<Instant>) {
        if let (Some(tr), Some(t0)) = (self.trace.as_mut(), t0) {
            tr.span((Phase::Stage, w), kind, at, (t0, Instant::now()));
        }
    }

    /// Whether every task has been committed.
    pub fn all_done(&self) -> bool {
        self.frontier.completed() == self.committed.len()
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
            self.frontier.ready().len()
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

    /// Next task for worker slot `w`, with its 0-based attempt number —
    /// charged to the task's budget and counted in flight. The ready set
    /// is FIFO; a test `seam` [`pick`](FaultInjector::pick)s from it
    /// instead. Entries superseded by a harvested late result are skipped.
    pub fn pop_ready(
        &mut self,
        w: usize,
        seam: Option<&(dyn FaultInjector + Send + Sync)>,
    ) -> Option<(TaskId, u32)> {
        if self.halted {
            return None;
        }
        let pick = |ready: &[TaskId]| seam.map_or(0, |s| s.pick(ready));
        let pick = seam.is_some().then_some(&pick as Pick<'_>);
        let mut t = self.frontier.pop(pick)?;
        while self.committed[t] {
            t = self.frontier.pop(pick)?;
        }
        self.attempts[t] += 1;
        self.in_flight += 1;
        mark(&mut self.trace, EventKind::Dispatch, Some(t), w as u64);
        Some((t, self.attempts[t] - 1))
    }

    /// A parked retry of `t` is due: back into the ready set, unless a
    /// late result committed it in the meantime.
    pub fn wake(&mut self, t: TaskId) {
        if !self.committed[t] {
            self.frontier.push(t);
        }
    }

    /// Settle how attempt `attempt` of `t` ended on slot `w`: the one
    /// mapping from a worker's report to its effect. `expected`: the slot
    /// was waiting on this report (a watchdog retirement is an expected
    /// `Panicked`). The first `Done` of a live run commits — every commit
    /// happens here, fenced or not — and any other is dropped, a traced
    /// run keeping its compute span. A `Failed` or `Panicked` is lost only
    /// when expected and its task uncommitted; an expected `Panicked`
    /// counts a worker death.
    pub fn settle<T: Scalar>(
        &mut self,
        graph: &TaskGraph,
        state: &mut FactorState<T>,
        (t, attempt): (TaskId, u32),
        w: usize,
        expected: bool,
        outcome: Outcome<T>,
    ) -> Verdict {
        self.in_flight -= usize::from(expected);
        match outcome {
            Outcome::Done(done) => self.on_done(graph, state, (t, attempt), w, done),
            Outcome::Failed(source) if expected && self.accepts(t) => {
                Verdict::Lost(RuntimeError::Kernel { task: t, source })
            }
            // The guard counts the death of an expected report's worker.
            Outcome::Panicked(message) if self.on_panicked(t, w, expected) => {
                Verdict::Lost(RuntimeError::TaskPanicked {
                    task: t,
                    worker: w,
                    message,
                })
            }
            _ => Verdict::Dropped,
        }
    }

    /// Commit a `Done` if it is the first and the run is live, after
    /// recording its compute span when traced.
    fn on_done<T: Scalar>(
        &mut self,
        graph: &TaskGraph,
        state: &mut FactorState<T>,
        (t, attempt): (TaskId, u32),
        w: usize,
        done: Attempt<T>,
    ) -> Verdict {
        if let (Some(tr), Some(compute)) = (self.trace.as_mut(), done.compute) {
            tr.span((Phase::Compute, w), graph.task(t), (t, attempt), compute);
        }
        if !self.accepts(t) {
            return Verdict::Dropped;
        }
        // Only a traced commit is clocked: its span is the one reader.
        let c0 = self.trace.is_some().then(Instant::now);
        state.commit(done.completed);
        if let (Some(tr), Some(c0)) = (self.trace.as_mut(), c0) {
            let manager = (Phase::Commit, tr.trace.lanes.len() - 1);
            tr.span(manager, graph.task(t), (t, attempt), (c0, Instant::now()));
        }
        self.tally.tasks_per_worker[w] += 1;
        self.committed[t] = true;
        let trace = &mut self.trace;
        self.frontier
            .complete(graph, t, |s| mark(trace, EventKind::Ready, Some(s), 0));
        Verdict::Committed(done.compute.map_or(Duration::ZERO, |(t0, t1)| t1 - t0))
    }

    /// Slot `w`'s worker was lost mid-attempt of `t`: count the death if
    /// expected, and answer whether the task needs a retry.
    fn on_panicked(&mut self, t: TaskId, w: usize, expected: bool) -> bool {
        if !expected {
            return false;
        }
        self.tally.worker_deaths += 1;
        mark(&mut self.trace, EventKind::WorkerDeath, None, w as u64);
        if !self.accepts(t) {
            return false;
        }
        self.tally.requeues += 1;
        mark(&mut self.trace, EventKind::Requeue, Some(t), w as u64);
        true
    }

    /// Charge a lost attempt of `t` to its budget. `Ok(backoff)`: park the
    /// task and [`wake`](Self::wake) it once `backoff` (deterministic)
    /// has passed on the driver's clock. `Err`: the budget is spent — the
    /// run halts, so this surfaces at most once per run.
    pub fn charge_retry(
        &mut self,
        ft: &FaultTolerance,
        t: TaskId,
        last: String,
    ) -> Result<Duration, RuntimeError> {
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
        mark(&mut self.trace, EventKind::Retry, Some(t), attempts.into());
        Ok(ft.backoff(attempts))
    }

    /// Close the books: the run's counters, and its trace as recorded when
    /// traced (lanes `worker0`, `worker1`, …, then `manager`), as a
    /// [`RunReport`]. `elapsed` and the memory `counters` are the driver's
    /// to measure.
    pub fn into_report(self, elapsed: Duration, counters: HotPathCounters) -> RunReport {
        let (max_ready, trace) = (self.frontier.max_ready(), self.trace.map(|tr| tr.trace));
        self.tally.into_report(max_ready, elapsed, trace, counters)
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

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_dag::EliminationTree;
    use tileqr_matrix::{gen::random_matrix, TiledMatrix};

    /// A 2×2 flat-tree graph and a random 8×8 state at b = 4.
    fn fixture() -> (TaskGraph, FactorState<f64>) {
        let tiles = TiledMatrix::from_matrix(&random_matrix(8, 8, 3), 4).unwrap();
        let g = TaskGraph::build_tree(2, 2, EliminationTree::Flat);
        (g, FactorState::new(tiles))
    }

    /// Attempt `at`, run and clocked over a fenced stage.
    fn done(g: &TaskGraph, state: &mut FactorState<f64>, at: (TaskId, u32)) -> Outcome<f64> {
        let ws = &mut Workspace::new(4, 4);
        run_attempt(state.stage_preserving(g.task(at.0)), at, None, ws, true)
    }

    fn scripted() -> MatrixError {
        MatrixError::Runtime {
            reason: "scripted".into(),
        }
    }

    #[test]
    fn settle_commits_the_first_done_and_drops_the_rest_with_their_spans() {
        let (g, mut state) = fixture();
        let mut dag = DagRun::new(&g, 1, Some(Instant::now()));
        let at = dag.pop_ready(0, None).unwrap();
        let (first, twin) = (done(&g, &mut state, at), done(&g, &mut state, at));
        let verdict = dag.settle(&g, &mut state, at, 0, true, first);
        assert!(matches!(verdict, Verdict::Committed(_)), "{verdict:?}");
        assert_eq!(
            dag.settle(&g, &mut state, at, 0, false, twin),
            Verdict::Dropped
        );
        let next = dag.pop_ready(0, None).unwrap();
        let late = done(&g, &mut state, next);
        dag.halt();
        assert_eq!(
            dag.settle(&g, &mut state, next, 0, true, late),
            Verdict::Dropped
        );
        let report = dag.into_report(Duration::ZERO, HotPathCounters::default());
        assert_eq!((report.total_tasks(), report.retries), (1, 0));
        // Every clocked attempt keeps its compute span; one commit.
        let spans = report.trace.unwrap().spans;
        let count = |phase| spans.iter().filter(|s| s.phase == phase).count();
        assert_eq!((count(Phase::Compute), count(Phase::Commit)), (3, 1));
    }

    #[test]
    fn settle_loses_only_an_expected_report_of_an_uncommitted_task() {
        for (committed, expected, panics) in (0..8).map(|i| (i & 4 > 0, i & 2 > 0, i & 1 > 0)) {
            let (g, mut state) = fixture();
            let mut dag = DagRun::new(&g, 2, None);
            let mut at = dag.pop_ready(0, None).unwrap();
            if committed {
                // The watchdog retires slot 0 and the retry goes to slot 1,
                // but the retired attempt's late `Done` wins the fence.
                let stale = done(&g, &mut state, at);
                let stalled = Outcome::Panicked("stalled".into());
                assert!(matches!(
                    dag.settle(&g, &mut state, at, 0, true, stalled),
                    Verdict::Lost(_)
                ));
                dag.wake(at.0);
                let retry = dag.pop_ready(1, None).unwrap();
                let verdict = dag.settle(&g, &mut state, at, 0, false, stale);
                assert!(matches!(verdict, Verdict::Committed(_)), "{verdict:?}");
                at = retry;
            }
            let (task, worker, message) = (at.0, 1, "boom".to_string());
            let (outcome, cause) = match panics {
                true => (
                    Outcome::Panicked(message.clone()),
                    RuntimeError::TaskPanicked {
                        task,
                        worker,
                        message,
                    },
                ),
                false => (
                    Outcome::Failed(scripted()),
                    RuntimeError::Kernel {
                        task,
                        source: scripted(),
                    },
                ),
            };
            let want = match expected && !committed {
                true => Verdict::Lost(cause),
                false => Verdict::Dropped,
            };
            let case = format!("committed {committed}, expected {expected}, panics {panics}");
            assert_eq!(
                dag.settle(&g, &mut state, at, worker, expected, outcome),
                want,
                "{case}"
            );
            // Only an expected panic is a death (the watchdog's retirement
            // is one), and settling charges no retry.
            let report = dag.into_report(Duration::ZERO, HotPathCounters::default());
            let deaths = u64::from(committed) + u64::from(expected && panics);
            assert_eq!(
                (report.worker_deaths, report.retries),
                (deaths, 0),
                "{case}"
            );
        }
    }

    #[test]
    fn charge_retry_returns_the_backoff_and_reads_no_clock() {
        let (g, mut state) = fixture();
        let ft = FaultTolerance {
            backoff_base: Duration::from_millis(3),
            ..FaultTolerance::default()
        };
        let mut dag = DagRun::new(&g, 1, None);
        for retry in 1..=ft.max_attempts {
            let at = dag.pop_ready(0, None).unwrap();
            assert_eq!((at.0, at.1 + 1), (0, retry));
            let lost = dag.settle(&g, &mut state, at, 0, true, Outcome::Failed(scripted()));
            assert!(matches!(lost, Verdict::Lost(_)), "{lost:?}");
            let charged = dag.charge_retry(&ft, at.0, "scripted".into());
            if retry == ft.max_attempts {
                assert!(charged.is_err());
                break;
            }
            assert_eq!(charged, Ok(ft.backoff(retry)));
            dag.wake(at.0);
        }
        assert!(dag.is_halted());
    }
}
