//! The one DAG engine under the host driver (the paper's single Fig. 7
//! manager loop).
//!
//! What the driver in [`service`](crate::service) does *per DAG* — for a
//! job of the resident service or for the one job of a one-shot run —
//! lives here exactly once, thread-free ("the manager" below is whoever
//! holds the [`DagRun`]: a worker, or the driver's clock thread, inside
//! the driver's one lock):
//!
//! * [`DagRun`] — the whole execution state of one DAG: its graph, its
//!   [`FactorState`], its fault budget (which fixes the run's mode), its
//!   [`Frontier`], the commit fence, the counters that become a
//!   [`RunReport`] and, when traced, its [`Trace`]. [`DagRun::dispatch`]
//!   pops and stages the next task; [`DagRun::settle`] maps a worker's
//!   report to its [`Verdict`]: committed, dropped, retry, halt, poison.
//! * [`run_attempt`] — the worker-side body of one [`Dispatch`]: fault
//!   seam, kernel (with a fenced stage's tile copies), optional compute
//!   interval, and the poison scan the run asked for.
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
use tileqr_dag::{Frontier, Pick, TaskGraph, TaskId, TaskKind, TileCoord};
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
    /// The first non-finite output tile of a scanned attempt (see
    /// [`DagRun::dispatch`]); `None` when clean or not scanned.
    pub poisoned: Option<TileCoord>,
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

/// One attempt a run handed a worker slot: which task and attempt, what
/// staging made of it in the run's mode (or the error it met), and
/// whether its outputs are scanned. Only [`run_attempt`] opens it.
pub struct Dispatch<T: Scalar> {
    /// The task and its 0-based attempt number.
    pub at: (TaskId, u32),
    staged: Result<StagedTask<T>, MatrixError>,
    scan: bool,
}

/// Run one dispatched attempt on the calling worker thread, over what the
/// manager staged for it — or the staging error it met (a reflector
/// factor missing), reported as a failed attempt.
///
/// The outputs travel back for the manager to commit through
/// [`DagRun::settle`]. A fenced stage left the shared state untouched and
/// copied nothing yet: its written-tile copies run here, in
/// `compute_with`, ahead of the kernel, and a scanned attempt's outputs
/// are checked for NaN/Inf after it. `clocked` times the kernel into
/// [`Attempt::compute`] (a clocked or a traced run); an unclocked attempt
/// reads no clock. Panics are caught and reported, never propagated.
pub fn run_attempt<T: Scalar>(
    dispatch: Dispatch<T>,
    injector: Option<&(dyn FaultInjector + Send + Sync)>,
    ws: &mut Workspace<T>,
    clocked: bool,
) -> Outcome<T> {
    let ((task, attempt), scan) = (dispatch.at, dispatch.scan);
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
        let mut completed = dispatch.staged?.compute_with(ws)?;
        let compute = t0.map(|t0| (t0, Instant::now()));
        if fault == InjectedFault::PoisonNan {
            // NaN-corrupt the output *after* the kernel ran: the seam for
            // the poison scan ahead of the commit fence.
            completed.poison();
        }
        let poisoned = scan.then(|| completed.first_non_finite()).flatten();
        Ok(Attempt {
            completed,
            compute,
            poisoned,
        })
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
    /// Lost and charged: park the task and [`wake`](DagRun::wake) it once
    /// this backoff has passed on the driver's clock.
    Retry(Duration),
    /// Lost for good, and the run halted: an unfenced run's loss, or a
    /// spent budget (`RetriesExhausted`, at most once per run).
    Failed(RuntimeError),
    /// A scanned output was non-finite at this tile: refused, never
    /// committed, and the run halted.
    Poisoned(TileCoord),
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

/// The whole execution state of one DAG, owned by whichever manager
/// drives it: its graph, its [`FactorState`] and its fault budget beside
/// the bookkeeping. The driver feeds it events (a dispatch, a worker
/// report, a watchdog retirement) and it answers with what to do next; it
/// never blocks, spawns, or sends.
///
/// The budget decides the run's mode once. **Fenced** (`Some`): staging
/// preserves the tiles, a lost attempt costs a retry within the budget,
/// and a panel factor's outputs are scanned before they may commit.
/// **Unfenced** (`None`): staging takes the tiles (zero-copy), so a lost
/// attempt fails the run, and nothing is scanned.
///
/// Re-execution is safe because of the **commit fence**: a task's outputs
/// are applied at most once, by [`settle`](Self::settle), and the first
/// result wins — duplicate attempts staged identical inputs (nothing that
/// conflicts runs before the commit), so their outputs are bit-identical.
/// A failure is charged to a task's attempt budget only when it comes
/// from the slot the manager is waiting on *and* the task is still
/// uncommitted; late or superseded reports are ignored.
pub struct DagRun<T: Scalar> {
    graph: TaskGraph,
    /// Staged from and committed into under the driver's lock; an attempt
    /// carries its tiles, not the state.
    state: FactorState<T>,
    ft: Option<FaultTolerance>,
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

impl<T: Scalar> DagRun<T> {
    /// Start a run of `graph` over `state`, fenced iff `ft` is set, on
    /// `workers` worker slots, with the sources already in the ready set.
    /// `epoch`, when tracing, is the instant the run's timestamps count
    /// from; the run then records every span and instant straight into
    /// one [`Trace`] sized from `graph`.
    pub fn new(
        graph: TaskGraph,
        state: FactorState<T>,
        ft: Option<FaultTolerance>,
        workers: usize,
        epoch: Option<Instant>,
    ) -> Self {
        let lanes = (0..workers)
            .map(|w| format!("worker{w}"))
            .chain(["manager".into()]);
        let [spans, events] = ROOM_PER_TASK.map(|r| r * graph.len());
        let trace = epoch.map(|epoch| Recording {
            trace: Trace::with_room(lanes.collect(), spans, events),
            epoch,
        });
        let mut run = DagRun {
            frontier: Frontier::new(&graph),
            committed: vec![false; graph.len()],
            attempts: vec![0; graph.len()],
            graph,
            state,
            ft,
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

    /// The graph the run executes.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// Whether every task has been committed.
    pub fn all_done(&self) -> bool {
        self.frontier.completed() == self.committed.len()
    }

    /// Attempts dispatched and not yet reported (or retired).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Ready tasks a [`dispatch`](Self::dispatch) could hand out now
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
    fn accepts(&self, task: TaskId) -> bool {
        !self.halted && !self.committed[task]
    }

    /// Stop dispatching and committing; in-flight attempts only drain.
    /// The driver halts a run it is abandoning (a cancelled job); a
    /// halting verdict halts it by itself.
    pub fn halt(&mut self) {
        self.halted = true;
    }

    /// Whether the run was halted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Hand worker slot `w` the next ready task, staged: its attempt is
    /// charged to the task's budget and counted in flight. The ready set
    /// is FIFO; a test `seam` [`pick`](FaultInjector::pick)s from it
    /// instead. Entries superseded by a harvested late result are skipped.
    pub fn dispatch(
        &mut self,
        w: usize,
        seam: Option<&(dyn FaultInjector + Send + Sync)>,
    ) -> Option<Dispatch<T>> {
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
        Some(self.restage(w, (t, self.attempts[t] - 1)))
    }

    /// Stage attempt `at` on slot `w` in the run's mode — `O(1)`,
    /// preserving iff fenced — and record its stage span when traced. Called
    /// again for a dispatched attempt, it stages a twin that charges
    /// nothing: the seam for an attempt that reports twice.
    #[doc(hidden)]
    pub fn restage(&mut self, w: usize, at: (TaskId, u32)) -> Dispatch<T> {
        let kind = self.graph.task(at.0);
        let t0 = self.trace.is_some().then(Instant::now);
        let staged = match self.ft {
            Some(_) => self.state.stage_preserving(kind),
            None => self.state.stage(kind),
        };
        if let (Some(tr), Some(t0)) = (self.trace.as_mut(), t0) {
            tr.span((Phase::Stage, w), kind, at, (t0, Instant::now()));
        }
        let scan = self.scans(kind);
        Dispatch { at, staged, scan }
    }

    /// Whether an attempt of `kind` has its outputs scanned for NaN/Inf
    /// (on the worker, in [`run_attempt`]): a fenced run's panel factors,
    /// which every downstream update reads, so poison stops at one column.
    fn scans(&self, kind: TaskKind) -> bool {
        self.ft.is_some() && kind.class().is_main_device_work()
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
    /// happens here, fenced or not — unless its scan found poison; any
    /// other is dropped, a traced run keeping its compute span. A `Failed`
    /// or `Panicked` is lost only when expected and its task uncommitted,
    /// and is charged here; an expected `Panicked` counts a worker death.
    pub fn settle(
        &mut self,
        (t, attempt): (TaskId, u32),
        w: usize,
        expected: bool,
        outcome: Outcome<T>,
    ) -> Verdict {
        self.in_flight -= usize::from(expected);
        let cause = match outcome {
            Outcome::Done(done) => return self.on_done((t, attempt), w, done),
            Outcome::Failed(source) if expected && self.accepts(t) => {
                RuntimeError::Kernel { task: t, source }
            }
            // The guard counts the death of an expected report's worker.
            Outcome::Panicked(message) if self.on_panicked(t, w, expected) => {
                RuntimeError::TaskPanicked {
                    task: t,
                    worker: w,
                    message,
                }
            }
            _ => return Verdict::Dropped,
        };
        self.charge_retry(t, cause)
    }

    /// Commit a `Done` if it is the first and the run is live and it is
    /// clean, after recording its compute span when traced.
    fn on_done(&mut self, (t, attempt): (TaskId, u32), w: usize, done: Attempt<T>) -> Verdict {
        let kind = self.graph.task(t);
        if let (Some(tr), Some(compute)) = (self.trace.as_mut(), done.compute) {
            tr.span((Phase::Compute, w), kind, (t, attempt), compute);
        }
        if !self.accepts(t) {
            return Verdict::Dropped;
        }
        if let Some(tile) = done.poisoned {
            self.halted = true;
            return Verdict::Poisoned(tile);
        }
        // Only a traced commit is clocked: its span is the one reader.
        let c0 = self.trace.is_some().then(Instant::now);
        self.state.commit(done.completed);
        if let (Some(tr), Some(c0)) = (self.trace.as_mut(), c0) {
            let manager = (Phase::Commit, tr.trace.lanes.len() - 1);
            tr.span(manager, kind, (t, attempt), (c0, Instant::now()));
        }
        self.tally.tasks_per_worker[w] += 1;
        self.committed[t] = true;
        let (graph, trace) = (&self.graph, &mut self.trace);
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

    /// Charge a lost attempt of `t`, lost to `cause`. Fenced: a backoff to
    /// park, or, once the budget is spent, `RetriesExhausted` — the run
    /// halts, so that surfaces at most once. Unfenced: the run halts with
    /// `cause`. Reads no clock.
    fn charge_retry(&mut self, t: TaskId, cause: RuntimeError) -> Verdict {
        let Some(ft) = self.ft else {
            self.halted = true;
            return Verdict::Failed(cause);
        };
        let attempts = self.attempts[t];
        if attempts >= ft.max_attempts {
            self.halted = true;
            return Verdict::Failed(RuntimeError::RetriesExhausted {
                task: t,
                attempts,
                last: cause.to_string(),
            });
        }
        self.tally.retries += 1;
        mark(&mut self.trace, EventKind::Retry, Some(t), attempts.into());
        Verdict::Retry(ft.backoff(attempts))
    }

    /// Close the books: the state, its spares dropped, the graph, and a
    /// [`RunReport`] of the run's counters, the state's copy-on-write
    /// count and its trace as recorded when traced (lanes `worker0`,
    /// `worker1`, …, then `manager`). `elapsed` is the driver's to
    /// measure, and so are the arenas.
    pub fn close(mut self, elapsed: Duration) -> (FactorState<T>, TaskGraph, RunReport) {
        self.state.end_run();
        let counters = HotPathCounters {
            cow_clones: self.state.cow_clones(),
            ..HotPathCounters::default()
        };
        let (max_ready, trace) = (self.frontier.max_ready(), self.trace.map(|tr| tr.trace));
        let report = self.tally.into_report(max_ready, elapsed, trace, counters);
        (self.state, self.graph, report)
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
    use crate::recovery::ScriptedFaults;
    use tileqr_dag::EliminationTree;
    use tileqr_matrix::{gen::random_matrix, TiledMatrix};

    /// A run of a 2×2 flat-tree graph (GEQRT, UNMQR, TSQRT, TSMQR, GEQRT)
    /// over a random 8×8 state at b = 4, on `workers` slots.
    fn fixture(workers: usize, ft: Option<FaultTolerance>, epoch: Option<Instant>) -> DagRun<f64> {
        let tiles = TiledMatrix::from_matrix(&random_matrix(8, 8, 3), 4).unwrap();
        let g = TaskGraph::build_tree(2, 2, EliminationTree::Flat);
        DagRun::new(g, FactorState::new(tiles), ft, workers, epoch)
    }

    /// Run `dispatch`, clocked, with `faults` consulted.
    fn run(dispatch: Dispatch<f64>, faults: Option<&ScriptedFaults>) -> Outcome<f64> {
        let faults = faults.map(|f| f as &(dyn FaultInjector + Send + Sync));
        run_attempt(dispatch, faults, &mut Workspace::new(4, 4), true)
    }

    fn scripted() -> MatrixError {
        MatrixError::Runtime {
            reason: "scripted".into(),
        }
    }

    #[test]
    fn settle_commits_the_first_done_and_drops_the_rest_with_their_spans() {
        let mut dag = fixture(1, Some(FaultTolerance::default()), Some(Instant::now()));
        let first = dag.dispatch(0, None).unwrap();
        let (at, twin) = (first.at, dag.restage(0, first.at));
        let (first, twin) = (run(first, None), run(twin, None));
        let verdict = dag.settle(at, 0, true, first);
        assert!(matches!(verdict, Verdict::Committed(_)), "{verdict:?}");
        assert_eq!(dag.settle(at, 0, false, twin), Verdict::Dropped);
        let next = dag.dispatch(0, None).unwrap();
        let (next, late) = (next.at, run(next, None));
        dag.halt();
        assert_eq!(dag.settle(next, 0, true, late), Verdict::Dropped);
        let (.., report) = dag.close(Duration::ZERO);
        assert_eq!((report.total_tasks(), report.retries), (1, 0));
        // Every stage and every clocked attempt keeps its span; one commit.
        let spans = report.trace.unwrap().spans;
        let count = |phase| spans.iter().filter(|s| s.phase == phase).count();
        assert_eq!(
            [Phase::Stage, Phase::Compute, Phase::Commit].map(count),
            [3, 3, 1]
        );
    }

    #[test]
    fn settle_loses_only_an_expected_report_of_an_uncommitted_task() {
        for i in 0..16 {
            let [fenced, committed, expected, panics] = [8, 4, 2, 1].map(|bit| i & bit > 0);
            if committed && !fenced {
                continue; // an unfenced loss halts: nothing commits after it
            }
            let ft = fenced.then(FaultTolerance::default);
            let mut dag = fixture(2, ft, None);
            let first = dag.dispatch(0, None).unwrap();
            let mut at = first.at;
            if committed {
                // The watchdog retires slot 0 and the retry goes to slot 1,
                // but the retired attempt's late `Done` wins the fence.
                let stale = run(first, None);
                let stalled = Outcome::Panicked("stalled".into());
                let verdict = dag.settle(at, 0, true, stalled);
                assert!(matches!(verdict, Verdict::Retry(_)), "{verdict:?}");
                dag.wake(at.0);
                let retry = dag.dispatch(1, None).unwrap();
                let verdict = dag.settle(at, 0, false, stale);
                assert!(matches!(verdict, Verdict::Committed(_)), "{verdict:?}");
                at = retry.at;
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
            // A loss is charged where it is settled: a fenced one parks a
            // retry, an unfenced one halts the run with its cause.
            let lost = expected && !committed;
            let want = match (lost, ft) {
                (false, _) => Verdict::Dropped,
                (true, Some(ft)) => Verdict::Retry(ft.backoff(1)),
                (true, None) => Verdict::Failed(cause),
            };
            let case = format!(
                "fenced {fenced}, committed {committed}, expected {expected}, panics {panics}"
            );
            assert_eq!(dag.settle(at, worker, expected, outcome), want, "{case}");
            assert_eq!(dag.is_halted(), lost && !fenced, "{case}");
            // Only an expected panic is a death (the watchdog's retirement
            // is one), and only a fenced loss a retry.
            let (.., report) = dag.close(Duration::ZERO);
            let deaths = u64::from(committed) + u64::from(expected && panics);
            let retries = u64::from(committed) + u64::from(lost && fenced);
            assert_eq!(
                (report.worker_deaths, report.retries),
                (deaths, retries),
                "{case}"
            );
        }
    }

    #[test]
    fn charge_retry_returns_the_backoff_and_reads_no_clock() {
        let ft = FaultTolerance {
            backoff_base: Duration::from_millis(3),
            ..FaultTolerance::default()
        };
        let mut dag = fixture(1, Some(ft), None);
        for retry in 1..=ft.max_attempts {
            let at = dag.dispatch(0, None).unwrap().at;
            assert_eq!((at.0, at.1 + 1), (0, retry));
            let verdict = dag.settle(at, 0, true, Outcome::Failed(scripted()));
            if retry == ft.max_attempts {
                let source = scripted();
                let last = RuntimeError::Kernel { task: 0, source }.to_string();
                let spent = RuntimeError::RetriesExhausted {
                    task: 0,
                    attempts: retry,
                    last,
                };
                assert_eq!(verdict, Verdict::Failed(spent));
                break;
            }
            assert_eq!(verdict, Verdict::Retry(ft.backoff(retry)));
            dag.wake(at.0);
        }
        // Spent once: the run halted, dispatches nothing more, and a late
        // loss is dropped, not charged again.
        assert!(dag.is_halted() && dag.dispatch(0, None).is_none());
        let late = dag.settle((0, 1), 0, false, Outcome::Failed(scripted()));
        assert_eq!(late, Verdict::Dropped);
        let (.., report) = dag.close(Duration::ZERO);
        assert_eq!(report.retries, u64::from(ft.max_attempts - 1));
    }

    #[test]
    fn a_run_stages_and_scans_in_its_own_mode() {
        for fenced in [false, true] {
            let mut dag = fixture(1, fenced.then(FaultTolerance::default), None);
            let before = dag.state.tiles().to_matrix();
            // The last task, GEQRT on tile (1, 1), comes out poisoned.
            let faults = ScriptedFaults::new().poison_on(dag.graph.len() - 1, 1);
            let first = dag.dispatch(0, None).unwrap();
            // A fenced stage leaves GEQRT's tile (0, 0) in its slot; an
            // unfenced one takes it, leaving the zero placeholder.
            let staged = dag.state.tiles().to_matrix();
            assert_eq!(staged == before, fenced, "fenced {fenced}");
            let mut verdicts = vec![dag.settle(first.at, 0, true, run(first, Some(&faults)))];
            while let Some(next) = dag.dispatch(0, None) {
                verdicts.push(dag.settle(next.at, 0, true, run(next, Some(&faults))));
            }
            // Fenced, the poisoned factor is refused, named by its tile, and
            // halts the run; unfenced, nothing is scanned and it commits.
            let last = verdicts.pop().unwrap();
            assert_eq!(verdicts.len(), 4, "fenced {fenced}");
            assert!(verdicts.iter().all(|v| matches!(v, Verdict::Committed(_))));
            match fenced {
                true => assert_eq!(last, Verdict::Poisoned((1, 1))),
                false => assert!(matches!(last, Verdict::Committed(_)), "{last:?}"),
            }
            assert_eq!(dag.is_halted(), fenced);
            let (state, _, report) = dag.close(Duration::ZERO);
            assert_eq!(state.tiles().to_matrix().all_finite(), fenced);
            assert_eq!(report.total_tasks(), 4 + u64::from(!fenced));
        }
    }
}
