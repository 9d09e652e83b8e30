//! Fault injection on the service path. [`ScriptedFaults`] scripts
//! panics, transient kernel failures, and stalls at exact `(task,
//! attempt)` coordinates *per job*: a worker panic mid-job must charge
//! only the victim job's retry budget, every other in-flight job must
//! complete bit-identically with clean counters, and the victim's
//! [`RunReport`] must attribute the recovery (`worker_deaths`,
//! `retries`, `requeues`) to the right job. The service always stages
//! non-destructively behind a commit fence, so recovery works at any
//! worker count — including a single worker that dies and is respawned.

use std::sync::Arc;
use std::time::Duration;
use tileqr::runtime::{
    FaultInjector, FaultTolerance, InjectedFault, JobSpec, QrService, RuntimeError, ScriptedFaults,
    ServiceConfig, ServiceError,
};
use tileqr_dag::{EliminationTree, TaskGraph};
use tileqr_kernels::exec::FactorState;
use tileqr_matrix::gen::random_matrix;
use tileqr_matrix::{Matrix, TiledMatrix};
use tileqr_testkit::workers_under_test;

/// Sequential ground truth for one job.
fn sequential(a: &Matrix<f64>, b: usize) -> Matrix<f64> {
    let tiled = TiledMatrix::from_matrix(a, b).unwrap();
    let g = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), EliminationTree::Flat);
    let mut seq = FactorState::new(tiled);
    seq.run_all(&g).unwrap();
    seq.tiles().to_matrix()
}

/// A worker panic mid-job kills only that job's attempt: the victim
/// retries to a bit-identical result with `worker_deaths == 1`, while
/// concurrent clean jobs finish with zeroed recovery counters — at every
/// job size, down to a two-task victim beside a one-task neighbour.
#[test]
fn panic_charges_only_the_victim_job() {
    for workers in workers_under_test() {
        let svc = QrService::<f64>::start(ServiceConfig {
            workers,
            ..ServiceConfig::default()
        });

        let a_victim = random_matrix::<f64>(24, 24, 11);
        let a_clean = random_matrix::<f64>(24, 24, 12);
        let a_transient = random_matrix::<f64>(24, 24, 13);
        let want_victim = sequential(&a_victim, 8);
        let want_clean = sequential(&a_clean, 8);
        let want_transient = sequential(&a_transient, 8);
        let a_two_task = random_matrix::<f64>(16, 8, 14);
        let a_one_task = random_matrix::<f64>(8, 8, 15);
        let want_two_task = sequential(&a_two_task, 8);
        let want_one_task = sequential(&a_one_task, 8);

        let h_victim = svc
            .submit(
                JobSpec::factor(a_victim)
                    .tile_size(8)
                    .faults(Arc::new(ScriptedFaults::new().panic_on(1, 1))),
            )
            .unwrap();
        let h_clean = svc.submit(JobSpec::factor(a_clean).tile_size(8)).unwrap();
        let h_transient = svc
            .submit(
                JobSpec::factor(a_transient)
                    .tile_size(8)
                    .faults(Arc::new(ScriptedFaults::new().fail_on(2, 1))),
            )
            .unwrap();
        let h_two_task = svc
            .submit(
                JobSpec::factor(a_two_task)
                    .tile_size(8)
                    .faults(Arc::new(ScriptedFaults::new().panic_on(0, 1))),
            )
            .unwrap();
        let h_one_task = svc
            .submit(JobSpec::factor(a_one_task).tile_size(8))
            .unwrap();

        let victim = h_victim.wait().unwrap();
        assert_eq!(
            victim.output.factor().state.tiles().to_matrix(),
            want_victim,
            "recovery must be numerically invisible (workers={workers})"
        );
        assert_eq!(victim.report.worker_deaths, 1, "panic attributed to victim");
        assert!(victim.report.retries >= 1, "panicked attempt must retry");
        assert!(victim.report.requeues >= 1);

        let clean = h_clean.wait().unwrap();
        assert_eq!(clean.output.factor().state.tiles().to_matrix(), want_clean);
        assert_eq!(
            clean.report.worker_deaths, 0,
            "clean job blamed for a death"
        );
        assert_eq!(clean.report.retries, 0, "clean job charged a retry");
        assert_eq!(clean.report.requeues, 0);

        let transient = h_transient.wait().unwrap();
        assert_eq!(
            transient.output.factor().state.tiles().to_matrix(),
            want_transient
        );
        assert_eq!(
            transient.report.worker_deaths, 0,
            "kernel error is not a death"
        );
        assert_eq!(
            transient.report.retries, 1,
            "one scripted transient, one retry"
        );

        let two_task = h_two_task.wait().unwrap();
        assert_eq!(two_task.output.factor().graph.len(), 2);
        assert_eq!(
            two_task.output.factor().state.tiles().to_matrix(),
            want_two_task
        );
        assert_eq!(two_task.report.worker_deaths, 1);
        assert_eq!(two_task.report.retries, 1, "one scripted panic, one retry");

        let one_task = h_one_task.wait().unwrap();
        assert_eq!(one_task.output.factor().graph.len(), 1);
        assert_eq!(
            one_task.output.factor().state.tiles().to_matrix(),
            want_one_task
        );
        assert_eq!(
            (
                one_task.report.worker_deaths,
                one_task.report.retries,
                one_task.report.requeues
            ),
            (0, 0, 0),
            "one-task neighbour charged for the panic"
        );

        svc.shutdown();
    }
}

/// Retry-budget exhaustion fails exactly the faulted job — as a
/// structured [`RuntimeError::RetriesExhausted`] — while a concurrent
/// clean job on the same pool completes bit-identically.
#[test]
fn budget_exhaustion_is_isolated_per_job() {
    let svc = QrService::<f64>::start(ServiceConfig {
        workers: 2,
        fault_tolerance: FaultTolerance {
            max_attempts: 2,
            ..FaultTolerance::default()
        },
        ..ServiceConfig::default()
    });

    let a_doomed = random_matrix::<f64>(24, 24, 21);
    let a_clean = random_matrix::<f64>(40, 24, 22);
    let want_clean = sequential(&a_clean, 8);

    let h_doomed = svc
        .submit(
            JobSpec::factor(a_doomed)
                .tile_size(8)
                .faults(Arc::new(ScriptedFaults::new().fail_on(0, 99))),
        )
        .unwrap();
    let h_clean = svc.submit(JobSpec::factor(a_clean).tile_size(8)).unwrap();

    match h_doomed.wait() {
        Err(ServiceError::Runtime(RuntimeError::RetriesExhausted { task, attempts, .. })) => {
            assert_eq!(task, 0);
            assert_eq!(attempts, 2, "budget was max_attempts = 2");
        }
        Err(other) => panic!("expected RetriesExhausted, got {other}"),
        Ok(_) => panic!("doomed job must not succeed"),
    }
    let clean = h_clean.wait().unwrap();
    assert_eq!(clean.output.factor().state.tiles().to_matrix(), want_clean);
    assert_eq!(clean.report.retries, 0);

    let stats = svc.shutdown();
    assert_eq!(stats.jobs_failed, 1);
    assert_eq!(stats.jobs_completed, 1);
}

/// Repeated panics across several jobs at once: the pool respawns
/// every dead worker, all victims recover bit-identically, and each
/// report blames exactly its own scripted death.
#[test]
fn concurrent_panics_all_recover_with_correct_attribution() {
    let svc = QrService::<f64>::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let mut handles = Vec::new();
    let mut expected = Vec::new();
    for i in 0..4u64 {
        let a = random_matrix::<f64>(32, 24, 30 + i);
        expected.push(sequential(&a, 8));
        handles.push(
            svc.submit(
                JobSpec::factor(a)
                    .tile_size(8)
                    // Each job panics a different task's first attempt.
                    .faults(Arc::new(ScriptedFaults::new().panic_on(i as usize, 1))),
            )
            .unwrap(),
        );
    }
    for (h, want) in handles.into_iter().zip(expected) {
        let res = h.wait().unwrap();
        assert_eq!(res.output.factor().state.tiles().to_matrix(), want);
        assert_eq!(res.report.worker_deaths, 1, "exactly the scripted death");
    }
    svc.shutdown();
}

/// A watchdog-retired straggler holds only the tiles it staged, not its
/// job: the job resolves once the retry and the rest of its DAG have run,
/// long before the stalled attempt wakes, with the bits of `run_all`.
#[test]
fn retired_straggler_does_not_hold_its_finished_job() {
    let stall = Duration::from_millis(600);
    let svc = QrService::<f64>::start(ServiceConfig {
        workers: 2,
        fault_tolerance: FaultTolerance {
            stall_timeout: Some(Duration::from_millis(50)),
            ..FaultTolerance::default()
        },
        ..ServiceConfig::default()
    });
    let a = random_matrix::<f64>(64, 64, 61);
    let want = sequential(&a, 16);
    let submitted = std::time::Instant::now();
    let handle = svc
        .submit(
            JobSpec::factor(a)
                .tile_size(16)
                .faults(Arc::new(ScriptedFaults::new().stall_on(1, 1, stall))),
        )
        .unwrap();
    let done = handle.wait().unwrap();
    let waited = submitted.elapsed();
    assert!(
        waited < stall / 2,
        "the job waited {waited:?} on a straggler stalled for {stall:?}"
    );
    // Every factored tile, `R` included, is `run_all`'s bits.
    assert_eq!(done.output.factor().state.tiles().to_matrix(), want);
    assert!(done.report.worker_deaths >= 1, "the stall was retired");
    svc.shutdown();
}

/// Without `stall_timeout` configured there is no watchdog: a scripted
/// stall delays its job but is not an error — the stalled job and its
/// neighbours all complete with no deaths and no retries. (With the
/// watchdog armed the same stall is retired and requeued; see
/// `watchdog_retires_stalled_worker_and_requeues`.)
#[test]
fn stalls_delay_but_do_not_fail() {
    let svc = QrService::<f64>::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let a_slow = random_matrix::<f64>(24, 24, 41);
    let a_fast = random_matrix::<f64>(24, 24, 42);
    let want_slow = sequential(&a_slow, 8);
    let want_fast = sequential(&a_fast, 8);

    let h_slow = svc
        .submit(JobSpec::factor(a_slow).tile_size(8).faults(Arc::new(
            ScriptedFaults::new().stall_on(0, 1, Duration::from_millis(30)),
        )))
        .unwrap();
    let h_fast = svc.submit(JobSpec::factor(a_fast).tile_size(8)).unwrap();

    let slow = h_slow.wait().unwrap();
    assert_eq!(slow.output.factor().state.tiles().to_matrix(), want_slow);
    assert_eq!(slow.report.worker_deaths, 0);
    assert_eq!(slow.report.retries, 0, "a stall is not a retry");

    let fast = h_fast.wait().unwrap();
    assert_eq!(fast.output.factor().state.tiles().to_matrix(), want_fast);
    svc.shutdown();
}

/// The documented v1 gap is closed: with `stall_timeout` armed, a
/// scripted stall is *retired* — the worker is respawned, the task
/// requeued exactly once through the retry path — and the victim still
/// completes bit-identically while a clean neighbour is untouched.
/// Zero jobs lost.
#[test]
fn watchdog_retires_stalled_worker_and_requeues() {
    let svc = QrService::<f64>::start(ServiceConfig {
        workers: 2,
        fault_tolerance: FaultTolerance {
            stall_timeout: Some(Duration::from_millis(30)),
            ..FaultTolerance::default()
        },
        ..ServiceConfig::default()
    });
    let a_stuck = random_matrix::<f64>(24, 24, 51);
    let a_clean = random_matrix::<f64>(24, 24, 52);
    let want_stuck = sequential(&a_stuck, 8);
    let want_clean = sequential(&a_clean, 8);

    // The stall sleeps 10x the watchdog bound, so retirement is
    // guaranteed to fire long before the stalled thread wakes.
    let h_stuck = svc
        .submit(JobSpec::factor(a_stuck).tile_size(8).faults(Arc::new(
            ScriptedFaults::new().stall_on(0, 1, Duration::from_millis(300)),
        )))
        .unwrap();
    let h_clean = svc.submit(JobSpec::factor(a_clean).tile_size(8)).unwrap();

    let stuck = h_stuck.wait().unwrap();
    assert_eq!(stuck.output.factor().state.tiles().to_matrix(), want_stuck);
    assert!(
        stuck.report.worker_deaths >= 1,
        "retirement must be attributed to the victim job"
    );
    assert!(
        stuck.report.requeues >= 1,
        "the stalled task must have been requeued"
    );

    let clean = h_clean.wait().unwrap();
    assert_eq!(clean.output.factor().state.tiles().to_matrix(), want_clean);
    assert_eq!(clean.report.worker_deaths, 0, "neighbour untouched");
    assert_eq!(clean.report.retries, 0);

    let stats = svc.shutdown();
    assert!(
        stats.lifecycle.watchdog_retirements >= 1,
        "watchdog retirement must be counted service-wide"
    );
    assert_eq!(stats.jobs_completed, 2, "zero jobs lost");
    assert_eq!(stats.jobs_failed, 0);
}

/// Cancel-vs-complete race, swept at every task index: a job briefly
/// stalled at task `k` is cancelled mid-run. Whichever side wins, the
/// handle must resolve — either `Cancelled` or a bit-identical success —
/// and the books must balance (every job counted exactly once).
#[test]
fn cancel_vs_complete_race_at_every_task_index() {
    let a = random_matrix::<f64>(24, 24, 61);
    let want = sequential(&a, 8);
    let tiled = TiledMatrix::from_matrix(&a, 8).unwrap();
    let tasks =
        TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), EliminationTree::Flat).len();

    let mut cancelled = 0u64;
    let mut completed = 0u64;
    let svc = QrService::<f64>::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    for k in 0..tasks {
        // A short stall at task k parks the job mid-DAG so the cancel
        // lands at a different execution depth on every iteration.
        let h = svc
            .submit(JobSpec::factor(a.clone()).tile_size(8).faults(Arc::new(
                ScriptedFaults::new().stall_on(k, 1, Duration::from_millis(5)),
            )))
            .unwrap();
        std::thread::sleep(Duration::from_millis(1));
        h.cancel();
        match h.wait() {
            Ok(res) => {
                assert_eq!(
                    res.output.factor().state.tiles().to_matrix(),
                    want,
                    "completion won the race at task {k} but diverged"
                );
                completed += 1;
            }
            Err(ServiceError::Cancelled) => cancelled += 1,
            Err(other) => panic!("race at task {k} resolved as unexpected error: {other}"),
        }
    }
    let stats = svc.shutdown();
    assert_eq!(stats.jobs_completed, completed);
    assert_eq!(stats.lifecycle.jobs_cancelled, cancelled);
    assert_eq!(
        completed + cancelled,
        tasks as u64,
        "every raced job resolved exactly once"
    );
}

/// Completion-wins determinism: cancelling *after* the result has been
/// received is a pure no-op — nothing is counted and nothing breaks.
#[test]
fn cancel_after_completion_is_noop() {
    let svc = QrService::<f64>::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let a = random_matrix::<f64>(24, 24, 62);
    let want = sequential(&a, 8);
    let h = svc.submit(JobSpec::factor(a).tile_size(8)).unwrap();
    // Redeem through the non-consuming path so the handle survives to
    // issue the late cancel.
    let res = match h.wait_timeout(Duration::from_secs(30)) {
        Ok(r) => r.unwrap(),
        Err(_) => panic!("job hung"),
    };
    assert_eq!(res.output.factor().state.tiles().to_matrix(), want);
    h.cancel();
    let stats = svc.shutdown();
    assert_eq!(stats.lifecycle.jobs_cancelled, 0);
    assert_eq!(stats.jobs_completed, 1);
}

/// Attempt 0 of task 0 outlives the watchdog and *then* reports `late`;
/// every other attempt dawdles a few milliseconds and runs clean. By the
/// time the late report lands, the watchdog has retired that worker and
/// the retry has long committed task 0.
struct LateReport(InjectedFault);

impl FaultInjector for LateReport {
    fn before_attempt(&self, task: usize, attempt: u32) -> InjectedFault {
        if (task, attempt) == (0, 0) {
            std::thread::sleep(Duration::from_millis(150));
            self.0
        } else {
            InjectedFault::Stall(Duration::from_millis(4))
        }
    }
}

/// Run one 48x48 job (b = 8) under `LateReport(late)` on a 2-worker
/// service whose budget is exactly one retry, and hold it to the pool's
/// rule: a failure is charged only when it is the report the slot is
/// waiting on *and* the task is still uncommitted. The retirement already
/// charged the one retry; the late report must be ignored, not exhaust
/// the budget of a task that is done.
fn late_report_is_ignored(late: InjectedFault) {
    let svc = QrService::<f64>::start(ServiceConfig {
        workers: 2,
        fault_tolerance: FaultTolerance {
            max_attempts: 2,
            stall_timeout: Some(Duration::from_millis(40)),
            ..FaultTolerance::default()
        },
        ..ServiceConfig::default()
    });
    let a = random_matrix::<f64>(48, 48, 71);
    let want = sequential(&a, 8);
    let h = svc
        .submit(
            JobSpec::factor(a)
                .tile_size(8)
                .faults(Arc::new(LateReport(late))),
        )
        .unwrap();
    let res = match h.wait() {
        Ok(res) => res,
        Err(e) => panic!("late {late:?} from a retired worker failed the job: {e}"),
    };
    assert_eq!(res.output.factor().state.tiles().to_matrix(), want);
    assert_eq!(res.report.retries, 1, "only the retirement charges a retry");
    assert_eq!(res.report.requeues, 1);
    assert_eq!(res.report.worker_deaths, 1);
    let stats = svc.shutdown();
    assert_eq!(stats.lifecycle.watchdog_retirements, 1);
    assert_eq!((stats.jobs_completed, stats.jobs_failed), (1, 0));
}

/// Regression: the service's hand-ported watchdog charged a late `Failed`
/// from a retired worker to the budget of an already-committed task and
/// failed the job with `RetriesExhausted`.
#[test]
fn late_failure_from_retired_worker_is_ignored() {
    late_report_is_ignored(InjectedFault::TransientError);
}

/// The `Panicked` twin: the retired thread dies on waking. Its slot
/// already belongs to a healthy replacement, which must not be respawned
/// (or blamed) a second time.
#[test]
fn late_panic_from_retired_worker_is_ignored() {
    late_report_is_ignored(InjectedFault::Panic);
}

/// Parks every attempt on a three-way barrier twice: once so the test knows
/// both jobs are in flight, once until the test has broken the service.
struct Parked(std::sync::Barrier);

impl FaultInjector for Parked {
    fn before_attempt(&self, _task: usize, _attempt: u32) -> InjectedFault {
        self.0.wait();
        self.0.wait();
        InjectedFault::None
    }
}

/// The one piece of caller code the service runs under its lock is a job's
/// injector being dropped with the job.
struct PanicsWhenDropped;

impl FaultInjector for PanicsWhenDropped {
    fn before_attempt(&self, _task: usize, _attempt: u32) -> InjectedFault {
        InjectedFault::None
    }
}

impl Drop for PanicsWhenDropped {
    fn drop(&mut self) {
        panic!("dropped under the service lock");
    }
}

/// A thread that panics holding the service lock closes the service, it
/// does not take every other thread down with it: the jobs in flight fail
/// with `Disconnected` (none reads `Lost`, none hangs), a later `submit`
/// reads `ShuttingDown`, and `stats` / `shutdown` return.
#[test]
fn poisoned_lock_fails_the_jobs_in_flight_and_closes_the_service() {
    tileqr_testkit::within(Duration::from_secs(30), "poisoned service", || {
        let svc = QrService::<f64>::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        // Two one-task jobs, one per worker, both parked mid-attempt.
        let parked = Arc::new(Parked(std::sync::Barrier::new(3)));
        let one_task = |seed| JobSpec::factor(random_matrix::<f64>(8, 8, seed)).tile_size(8);
        let in_flight: Vec<_> = (0..2)
            .map(|i| svc.submit(one_task(70 + i).faults(parked.clone())).unwrap())
            .collect();
        parked.0.wait();
        // A third job, still queued: cancelling it resolves it on this
        // thread, under the lock, and drops its injector there.
        let queued = svc
            .submit(one_task(72).faults(Arc::new(PanicsWhenDropped)))
            .unwrap();
        let cancel = std::panic::AssertUnwindSafe(|| queued.cancel());
        assert!(std::panic::catch_unwind(cancel).is_err());
        assert!(matches!(queued.wait(), Err(ServiceError::Cancelled)));
        parked.0.wait();
        for h in in_flight {
            match h.wait() {
                Err(ServiceError::Runtime(RuntimeError::Disconnected { in_flight: 1 })) => {}
                other => panic!("expected Disconnected, got {:?}", other.err()),
            }
        }
        assert!(matches!(
            svc.submit(one_task(73)),
            Err(ServiceError::ShuttingDown)
        ));
        assert_eq!(svc.stats().jobs_failed, 3);
        let stats = svc.shutdown();
        assert_eq!((stats.jobs_submitted, stats.jobs_completed), (3, 0));
    });
}
