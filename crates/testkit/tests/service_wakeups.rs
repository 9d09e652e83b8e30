//! Wake-up and termination of the self-scheduling service.
//!
//! `QrService`'s workers take their own next `(job, task)` under the
//! service's one lock and sleep on a condvar only while nothing is ready;
//! the timer thread sleeps until a parked retry, a queued job's deadline or
//! a watchdog expiry is due; a client sleeps on its handle's reply slot.
//! The failure mode of that design is a *lost wake-up*: a handle that never
//! resolves, a `shutdown` that never returns. Every case here therefore
//! runs real threads under the [`within`] guard, which fails the test
//! instead of hanging, in situations where the thread that has to act next
//! is asleep — and names the one `notify` it would hang (or fail) without.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tileqr_dag::{EliminationTree, TaskGraph, TaskId, TreePolicy};
use tileqr_kernels::exec::FactorState;
use tileqr_matrix::gen::random_matrix;
use tileqr_matrix::{Matrix, TiledMatrix};
use tileqr_runtime::service::WaitTimeout;
use tileqr_runtime::{
    FaultInjector, FaultTolerance, InjectedFault, JobHandle, JobSpec, QrService, ScriptedFaults,
    ServiceConfig, ServiceError,
};
use tileqr_testkit::{within, workers_under_test};

const B: usize = 4;
const LIMIT: Duration = Duration::from_secs(60);

/// An `mt × nt` tile grid under `tree`: the input, the length of its DAG,
/// and the `R` of the sequential factorization every job on it must
/// reproduce bit for bit.
fn case(mt: usize, nt: usize, tree: EliminationTree) -> (Matrix<f64>, usize, Matrix<f64>) {
    let a = random_matrix::<f64>(mt * B, nt * B, (mt * 100 + nt) as u64);
    let g = TaskGraph::build_tree(mt, nt, tree);
    let mut seq = FactorState::new(TiledMatrix::from_matrix(&a, B).unwrap());
    seq.run_all(&g).unwrap();
    (a, g.len(), seq.r_matrix())
}

/// 3×3 flat: task 0 is its only source, so a fault on it idles the pool.
fn flat3() -> (Matrix<f64>, usize, Matrix<f64>) {
    case(3, 3, EliminationTree::Flat)
}

fn spec(a: &Matrix<f64>, tree: EliminationTree) -> JobSpec<f64> {
    JobSpec::factor(a.clone())
        .tile_size(B)
        .tree(TreePolicy::Fixed(tree))
}

fn service(workers: usize, ft: FaultTolerance) -> QrService<f64> {
    QrService::start(ServiceConfig {
        workers,
        fault_tolerance: ft,
        ..ServiceConfig::default()
    })
}

fn r_of(h: JobHandle<f64>) -> Matrix<f64> {
    h.wait().unwrap().output.factor().r_matrix()
}

/// Announces attempt 0 of task 0 on `started`, then stalls it for `hold`:
/// the test knows — without sleeping on a guess — that the job's only
/// runnable task is on a worker and will stay there.
struct HeldSource {
    started: Mutex<mpsc::Sender<()>>,
    hold: Duration,
}

impl HeldSource {
    fn new(hold: Duration) -> (Arc<Self>, mpsc::Receiver<()>) {
        let (tx, rx) = mpsc::channel();
        let started = Mutex::new(tx);
        (Arc::new(HeldSource { started, hold }), rx)
    }
}

impl FaultInjector for HeldSource {
    fn before_attempt(&self, task: TaskId, attempt: u32) -> InjectedFault {
        if (task, attempt) != (0, 0) {
            return InjectedFault::None;
        }
        let _ = self.started.lock().unwrap().send(());
        InjectedFault::Stall(self.hold)
    }
}

/// Chains and one-wide trees, four jobs interleaved, on more workers than
/// there are ready tasks: the ready set drains to zero between tasks and
/// the pool is asleep whenever the client is between rounds, so every
/// round starts with a submit that has to wake a worker. Hangs without
/// `work.notify_one()` in `Shared::admit`.
#[test]
fn narrow_jobs_never_lose_a_wakeup() {
    let cases = [
        ("1x1", 1, 1, EliminationTree::Flat),
        ("2x1", 2, 1, EliminationTree::Flat),
        ("6x1 chain", 6, 1, EliminationTree::Flat),
        ("32x2 binary", 32, 2, EliminationTree::Binary),
        ("32x2 plateau4", 32, 2, EliminationTree::Plateau(4)),
        ("3x3 flat", 3, 3, EliminationTree::Flat),
    ];
    for (name, mt, nt, tree) in cases {
        let (a, tasks, r) = case(mt, nt, tree);
        for workers in workers_under_test() {
            let what = format!("{name} workers={workers}");
            let (a, r) = (a.clone(), r.clone());
            within(LIMIT, &what.clone(), move || {
                let svc = service(workers, FaultTolerance::default());
                for round in 0..50 {
                    let handles: Vec<_> = (0..4)
                        .map(|_| svc.submit(spec(&a, tree)).unwrap())
                        .collect();
                    for h in handles {
                        let res = h.wait().unwrap();
                        assert_eq!(res.output.factor().r_matrix(), r, "{what} round={round}");
                        assert_eq!(res.report.total_tasks() as usize, tasks, "{what}");
                    }
                }
                let stats = svc.shutdown();
                assert_eq!((stats.jobs_completed, stats.jobs_failed), (200, 0));
            });
        }
    }
}

/// A burst of one-task jobs, fewer than there are workers, into a pool
/// that has gone back to sleep: a one-task job is a job — it waits in no
/// queue of its own for company or for an idle worker to flush it — so
/// each submit has to wake a sleeper for its one task. Hangs without
/// `work.notify_one()` in `Shared::admit`.
#[test]
fn a_burst_of_one_task_jobs_wakes_a_sleeping_pool() {
    for workers in workers_under_test() {
        within(LIMIT, "one-task burst", move || {
            let (a, tasks, r) = case(1, 1, EliminationTree::Flat);
            assert_eq!(tasks, 1);
            let svc = service(workers, FaultTolerance::default());
            let jobs = workers.saturating_sub(1).max(1);
            for round in 0..50 {
                let handles: Vec<_> = (0..jobs)
                    .map(|_| svc.submit(spec(&a, EliminationTree::Flat)).unwrap())
                    .collect();
                for h in handles {
                    let res = h.wait().unwrap();
                    assert_eq!(res.output.factor().r_matrix(), r, "round={round}");
                    assert_eq!(res.class_tasks.iter().sum::<u64>(), 1);
                }
            }
            let stats = svc.shutdown();
            assert_eq!(stats.jobs_completed as usize, 50 * jobs);
            assert_eq!(stats.tasks_dispatched, stats.jobs_completed);
        });
    }
}

/// Task 0 fails once and nothing else is runnable: while its retry is
/// parked *every* worker is asleep and the timer has no deadline. Hangs
/// without `timer.notify_one()` in `Shared::retry_or_fail` (the timer
/// never learns of the retry), and without the timer loop's
/// `work.notify_one()` (the retry is woken into a sleeping pool).
#[test]
fn timer_wakes_a_sleeping_service_for_a_parked_retry() {
    for workers in workers_under_test() {
        within(LIMIT, "parked retry", move || {
            let (a, tasks, r) = flat3();
            let ft = FaultTolerance {
                backoff_base: Duration::from_millis(20),
                ..FaultTolerance::default()
            };
            let svc = service(workers, ft);
            let faults = Arc::new(ScriptedFaults::new().fail_on(0, 1));
            let h = svc
                .submit(spec(&a, EliminationTree::Flat).faults(faults))
                .unwrap();
            let res = h.wait().unwrap();
            assert_eq!(res.output.factor().r_matrix(), r, "workers={workers}");
            assert_eq!(res.report.retries, 1);
            assert_eq!(res.report.worker_deaths, 0);
            assert_eq!(res.report.total_tasks() as usize, tasks);
            svc.shutdown();
        });
    }
}

/// One worker stalls in the job's only source, the others sleep, and the
/// timer — idle, nothing being in flight when the job arrives — has to
/// clock the attempt: it retires the staller, respawns its slot and parks
/// the retry, and the retry then has to be run by a woken sleeper or (at
/// one worker) by the respawned slot itself. Without `timer.notify_one()`
/// in `Shared::admit` nothing times the stall: the job completes when the
/// stall ends, with no retirement, and the counters below fail.
#[test]
fn watchdog_retires_a_stalled_worker_while_the_others_sleep() {
    for workers in workers_under_test() {
        within(LIMIT, "watchdog", move || {
            let (a, tasks, r) = flat3();
            let bound = Duration::from_millis(30);
            let ft = FaultTolerance {
                stall_timeout: Some(bound),
                ..FaultTolerance::default()
            };
            let svc = service(workers, ft);
            // A clean job first, then long enough with nothing in
            // flight for the timer to have stopped polling.
            assert_eq!(
                r_of(svc.submit(spec(&a, EliminationTree::Flat)).unwrap()),
                r
            );
            std::thread::sleep(3 * bound);
            let stall = ScriptedFaults::new().stall_on(0, 1, 10 * bound);
            let h = svc
                .submit(spec(&a, EliminationTree::Flat).faults(Arc::new(stall)))
                .unwrap();
            let res = h.wait().unwrap();
            assert_eq!(res.output.factor().r_matrix(), r, "workers={workers}");
            assert_eq!(res.report.worker_deaths, 1);
            assert_eq!((res.report.requeues, res.report.retries), (1, 1));
            assert_eq!(res.report.total_tasks() as usize, tasks);
            // The pool did not shrink: a clean job still finds a worker.
            assert_eq!(
                r_of(svc.submit(spec(&a, EliminationTree::Flat)).unwrap()),
                r
            );
            let stats = svc.shutdown();
            assert_eq!(stats.lifecycle.watchdog_retirements, 1);
            assert_eq!((stats.jobs_completed, stats.jobs_failed), (3, 0));
        });
    }
}

/// `shutdown()` and `drop` with every worker and the timer asleep hang
/// without `timer.notify_one()` in `QrService::shutdown_inner` (the timer
/// never sees the drain) or without the timer's closing
/// `work.notify_all()` (the workers never see the stop). With jobs still
/// in flight, the timer has to look again when the last one resolves:
/// hangs without `timer.notify_one()` in `Shared::release`.
#[test]
fn shutdown_and_drop_return_asleep_or_busy() {
    for workers in workers_under_test() {
        within(LIMIT, "idle shutdown", move || {
            let (a, _, r) = flat3();
            let svc = service(workers, FaultTolerance::default());
            // Run one job so the pool has been awake and gone back to sleep.
            assert_eq!(
                r_of(svc.submit(spec(&a, EliminationTree::Flat)).unwrap()),
                r
            );
            assert_eq!(svc.shutdown().jobs_completed, 1);
            drop(service(workers, FaultTolerance::default()));
        });
        within(LIMIT, "busy shutdown", move || {
            let (a, _, r) = case(32, 2, EliminationTree::Binary);
            for by_drop in [false, true] {
                let svc = service(workers, FaultTolerance::default());
                let handles: Vec<_> = (0..12)
                    .map(|_| svc.submit(spec(&a, EliminationTree::Binary)).unwrap())
                    .collect();
                if by_drop {
                    drop(svc);
                } else {
                    assert_eq!(svc.shutdown().jobs_completed, 12);
                }
                for h in handles {
                    // Drained, so already resolved: no waiting left.
                    let res = h
                        .wait_timeout(Duration::ZERO)
                        .expect("resolved by the drain");
                    assert_eq!(res.unwrap().output.factor().r_matrix(), r);
                }
            }
        });
    }
}

/// A job is cancelled from another thread while its only in-flight attempt
/// is stalled on a worker: nothing of it is left to dispatch, so it
/// resolves — `Cancelled` — on the worker that settles that attempt, while
/// the client is asleep on the reply slot. Hangs without
/// `ready.notify_all()` in `ReplyTx`'s `Drop`.
#[test]
fn cancel_during_a_stalled_attempt_resolves_when_it_drains() {
    for workers in workers_under_test() {
        within(LIMIT, "cancel", move || {
            let (a, tasks, r) = flat3();
            let svc = service(workers, FaultTolerance::default());
            let hold = Duration::from_millis(200);
            let (held, started) = HeldSource::new(hold);
            let submitted_at = Instant::now();
            let h = svc
                .submit(spec(&a, EliminationTree::Flat).faults(held))
                .unwrap();
            started.recv().unwrap();
            std::thread::scope(|s| {
                s.spawn(|| h.cancel());
            });
            // Still draining: the stalled attempt has not reported yet.
            assert!(matches!(h.wait_timeout(Duration::ZERO), Err(WaitTimeout)));
            assert!(matches!(h.wait(), Err(ServiceError::Cancelled)));
            assert!(
                submitted_at.elapsed() >= hold,
                "resolved before the attempt drained"
            );
            // The worker is free again and nothing of the job lingers.
            assert_eq!(
                r_of(svc.submit(spec(&a, EliminationTree::Flat)).unwrap()),
                r
            );
            let stats = svc.shutdown();
            assert_eq!(stats.lifecycle.jobs_cancelled, 1);
            assert_eq!(stats.tasks_dispatched as usize, 1 + tasks);
        });
    }
}

/// A one-task job queued behind the held worker of a one-worker service
/// is cancelled: nothing of it is in flight, so `cancel()` itself resolves
/// the handle — `Cancelled` is in the reply slot when the call returns —
/// and gives the admission slot back to a submitter asleep on the bound.
/// That submitter hangs without `admission.notify_all()` in
/// `Shared::release`.
#[test]
fn cancelling_a_queued_one_task_job_resolves_it_on_the_spot() {
    within(LIMIT, "queued cancel", || {
        let (a, tasks, r) = flat3();
        let (one, _, one_r) = case(1, 1, EliminationTree::Flat);
        let svc = QrService::start(ServiceConfig {
            workers: 1,
            max_in_flight: 2,
            ..ServiceConfig::default()
        });
        let (held, started) = HeldSource::new(Duration::from_millis(300));
        let blocker = svc
            .submit(spec(&a, EliminationTree::Flat).faults(held))
            .unwrap();
        started.recv().unwrap();
        let queued = svc.submit(spec(&one, EliminationTree::Flat)).unwrap();
        assert!(matches!(
            svc.try_submit(spec(&one, EliminationTree::Flat)),
            Err(ServiceError::Saturated { .. })
        ));
        std::thread::scope(|s| {
            let waiting = s.spawn(|| svc.submit(spec(&one, EliminationTree::Flat)).unwrap());
            // Long enough for the submitter to be asleep on the bound.
            std::thread::sleep(Duration::from_millis(30));
            queued.cancel();
            assert!(matches!(
                queued.wait_timeout(Duration::ZERO),
                Ok(Err(ServiceError::Cancelled))
            ));
            assert_eq!(r_of(waiting.join().unwrap()), one_r);
        });
        assert_eq!(r_of(blocker), r);
        let stats = svc.shutdown();
        assert_eq!(stats.lifecycle.jobs_cancelled, 1);
        assert_eq!(
            stats.tasks_dispatched as usize,
            tasks + 1,
            "none of the cancelled job's"
        );
    });
}

/// A job with a 5 ms deadline — nine tasks, or one — is queued behind the
/// one worker of a service while that worker is held for 400 ms: only the
/// timer can shed it on time, and it was asleep with no deadline when the
/// job arrived. Without `timer.notify_one()` in `Shared::admit` the job is
/// shed only when the worker comes back for it, ~400 ms late, and
/// `late_by` below fails. Either way none of its tasks is ever dispatched.
#[test]
fn queued_deadline_is_shed_by_the_timer_behind_a_held_worker() {
    for doomed_grid in [3, 1] {
        within(LIMIT, "deadline", move || {
            let (a, tasks, r) = flat3();
            let (doomed_a, _, _) = case(doomed_grid, doomed_grid, EliminationTree::Flat);
            let svc = service(1, FaultTolerance::default());
            let (held, started) = HeldSource::new(Duration::from_millis(400));
            let blocker = svc
                .submit(spec(&a, EliminationTree::Flat).faults(held))
                .unwrap();
            started.recv().unwrap();
            let deadline = Duration::from_millis(5);
            let doomed = svc
                .submit(spec(&doomed_a, EliminationTree::Flat).deadline(deadline))
                .unwrap();
            match doomed.wait() {
                Err(ServiceError::DeadlineExceeded {
                    deadline: d,
                    late_by,
                }) => {
                    assert_eq!(d, deadline);
                    assert!(
                        late_by < Duration::from_millis(200),
                        "shed {late_by:?} late"
                    );
                }
                other => panic!("expected a shed, got ok={}", other.is_ok()),
            }
            assert_eq!(r_of(blocker), r);
            let stats = svc.shutdown();
            assert_eq!(stats.lifecycle.jobs_shed, 1);
            assert_eq!(stats.tasks_dispatched as usize, tasks, "only the blocker's");
        });
    }
}
