//! Wake-up and termination of the self-scheduling pool.
//!
//! Workers take their own next task under the driver's one lock and sleep
//! on a condvar only when nothing is ready; the calling thread keeps the
//! clock: it sleeps until the run ends, a worker dies (its slot is
//! respawned), or a timer (parked retry, watchdog) is due. The failure mode of that design is a *lost
//! wake-up*: a run that never returns. Every case here therefore runs
//! real threads under a watchdog thread that fails the test instead of
//! hanging, on graphs whose ready set keeps draining to zero — so most
//! workers are asleep most of the time and every hand-over goes through
//! a wake-up.

use std::sync::Arc;
use std::time::Duration;
use tileqr_dag::{EliminationTree, TaskGraph, TaskId};
use tileqr_kernels::exec::FactorState;
use tileqr_matrix::gen::random_matrix;
use tileqr_matrix::{Matrix, TiledMatrix};
use tileqr_runtime::{
    run_pool, FaultInjector, FaultTolerance, InjectedFault, PoolConfig, RunReport, RuntimeError,
    ScriptedFaults,
};
use tileqr_testkit::adversary::{Adversary, Rule};
use tileqr_testkit::{within, workers_under_test};

const B: usize = 4;

/// An `mt × nt` tile grid under `tree`: input tiles, graph, and the
/// sequential factorization every run must reproduce bit for bit.
fn case(mt: usize, nt: usize, tree: EliminationTree) -> (TiledMatrix<f64>, TaskGraph, Matrix<f64>) {
    let a = random_matrix::<f64>(mt * B, nt * B, (mt * 100 + nt) as u64);
    let tiled = TiledMatrix::from_matrix(&a, B).unwrap();
    let g = TaskGraph::build_tree(mt, nt, tree);
    let mut seq = FactorState::new(tiled.clone());
    seq.run_all(&g).unwrap();
    let r = seq.r_matrix();
    (tiled, g, r)
}

fn flat3() -> (TiledMatrix<f64>, TaskGraph, Matrix<f64>) {
    case(3, 3, EliminationTree::Flat)
}

fn config(workers: usize) -> PoolConfig {
    PoolConfig {
        workers,
        ..PoolConfig::default()
    }
}

fn ft_run(
    tiled: &TiledMatrix<f64>,
    g: &TaskGraph,
    config: PoolConfig,
    ft: Option<FaultTolerance>,
    injector: Arc<impl FaultInjector + Send + 'static>,
) -> Result<(FactorState<f64>, RunReport), RuntimeError> {
    let config = PoolConfig {
        fault_tolerance: ft,
        ..config
    };
    let state = FactorState::new(tiled.clone());
    run_pool(state, g, config, Some(injector))
}

/// Holds attempt 0 of task 0 back for `hold`, so the other workers have
/// found the ready set empty and gone to sleep before the scripted
/// fault fires. Task 0 is the only source of a flat-tree graph.
struct Held {
    script: ScriptedFaults,
    hold: Duration,
}

impl FaultInjector for Held {
    fn before_attempt(&self, task: TaskId, attempt: u32) -> InjectedFault {
        if (task, attempt) == (0, 0) {
            std::thread::sleep(self.hold);
        }
        self.script.before_attempt(task, attempt)
    }
}

fn held(script: ScriptedFaults) -> Held {
    Held {
        script,
        hold: Duration::from_millis(20),
    }
}

#[test]
fn narrow_graphs_never_lose_a_wakeup() {
    let cases = [
        ("1x1", case(1, 1, EliminationTree::Flat)),
        ("2x1", case(2, 1, EliminationTree::Flat)),
        ("32x2 binary", case(32, 2, EliminationTree::Binary)),
        ("32x2 plateau4", case(32, 2, EliminationTree::Plateau(4))),
        ("3x3 flat", flat3()),
    ];
    let orders = [
        None,
        Some(Rule::CriticalPath),
        Some(Rule::Lifo),
        Some(Rule::ReversePriority),
        Some(Rule::Seeded(0xA11)),
    ];
    for (name, (tiled, g, r)) in cases {
        for workers in [1usize, 2, 3, 8] {
            for order in orders {
                let what = format!("{name} workers={workers} {order:?}");
                let (tiled, g, r) = (tiled.clone(), g.clone(), r.clone());
                within(Duration::from_secs(60), &what.clone(), move || {
                    for rep in 0..200 {
                        let adversary = order.map(|rule| Adversary::new(rule, &g, B));
                        let (st, report) = run_pool(
                            FactorState::new(tiled.clone()),
                            &g,
                            config(workers),
                            adversary.map(|a| Arc::new(a) as _),
                        )
                        .unwrap();
                        assert_eq!(st.r_matrix(), r, "{what} rep={rep}");
                        assert_eq!(report.total_tasks() as usize, g.len(), "{what} rep={rep}");
                    }
                });
            }
        }
    }
}

#[test]
fn unfenced_fault_ends_the_run_while_the_others_sleep() {
    for workers in workers_under_test().into_iter().filter(|&w| w >= 2) {
        let err = within(Duration::from_secs(30), "unfenced panic", move || {
            let (tiled, g, _) = flat3();
            let inj = Arc::new(held(ScriptedFaults::new().panic_on(0, 1)));
            let err = ft_run(&tiled, &g, config(workers), None, inj.clone()).unwrap_err();
            assert_eq!(inj.script.attempts_seen(), vec![(0, 0)]);
            err
        });
        assert!(
            matches!(err, RuntimeError::TaskPanicked { task: 0, .. }),
            "workers={workers}: {err}"
        );

        let err = within(
            Duration::from_secs(30),
            "unfenced kernel error",
            move || {
                let (tiled, g, _) = flat3();
                let inj = Arc::new(held(ScriptedFaults::new().fail_on(0, 1)));
                let err = ft_run(&tiled, &g, config(workers), None, inj.clone()).unwrap_err();
                assert_eq!(inj.script.attempts_seen(), vec![(0, 0)]);
                err
            },
        );
        assert!(
            matches!(err, RuntimeError::Kernel { task: 0, .. }),
            "workers={workers}: {err}"
        );
    }
}

#[test]
fn timer_wakes_a_sleeping_pool_for_a_parked_retry() {
    // Task 0 fails once and nothing else is runnable: while its retry is
    // parked, *every* worker is asleep, so only the calling thread's
    // timer can get the run going again.
    for workers in workers_under_test() {
        within(Duration::from_secs(30), "parked retry", move || {
            let (tiled, g, r) = flat3();
            let inj = ScriptedFaults::new().fail_on(0, 1);
            let ft = FaultTolerance {
                backoff_base: Duration::from_millis(20),
                ..FaultTolerance::default()
            };
            // `run_pool` runs the driver even at one worker.
            let (st, report) =
                ft_run(&tiled, &g, config(workers), Some(ft), Arc::new(inj)).unwrap();
            assert_eq!(st.r_matrix(), r, "workers={workers}");
            assert_eq!(report.retries, 1);
            assert_eq!(report.worker_deaths, 0);
            assert_eq!(report.total_tasks() as usize, g.len());
        });
    }
}

#[test]
fn watchdog_retires_a_stalled_worker_while_the_other_sleeps() {
    // Two workers, one source task: one worker stalls in it, the other
    // sleeps. The watchdog retires the staller and parks the retry, the
    // timer wakes the sleeper, and the staller's late result finds the
    // task committed and is dropped at the fence.
    within(Duration::from_secs(30), "watchdog", move || {
        let (tiled, g, r) = flat3();
        let inj = ScriptedFaults::new().stall_on(0, 1, Duration::from_millis(300));
        let ft = FaultTolerance {
            stall_timeout: Some(Duration::from_millis(30)),
            ..FaultTolerance::default()
        };
        let (st, report) = ft_run(&tiled, &g, config(2), Some(ft), Arc::new(inj)).unwrap();
        assert_eq!(st.r_matrix(), r);
        assert!(report.worker_deaths >= 1);
        assert!(report.requeues >= 1);
        assert!(report.retries >= 1);
        assert_eq!(report.total_tasks() as usize, g.len());
    });
}

/// Panics attempt 0 of tasks 0 and 1 — the two sources of a 2 × 1 binary
/// tree — once both are in hand, so each of a 2-worker run's first two
/// threads is holding one and dies of it.
struct BothDie(std::sync::Barrier);

impl FaultInjector for BothDie {
    fn before_attempt(&self, task: TaskId, attempt: u32) -> InjectedFault {
        if task < 2 && attempt == 0 {
            self.0.wait();
            return InjectedFault::Panic;
        }
        InjectedFault::None
    }
}

#[test]
fn a_run_whose_first_threads_all_die_finishes_on_respawned_ones() {
    // Every lost slot is respawned, so the run ends on threads that did not
    // exist when it started.
    within(Duration::from_secs(30), "respawn", move || {
        let (tiled, g, r) = case(2, 1, EliminationTree::Binary);
        let inj = BothDie(std::sync::Barrier::new(2));
        let ft = Some(FaultTolerance::default());
        let (st, report) = ft_run(&tiled, &g, config(2), ft, Arc::new(inj)).unwrap();
        assert_eq!(st.r_matrix(), r);
        assert_eq!(report.worker_deaths, 2);
        assert_eq!((report.requeues, report.retries), (2, 2));
        assert_eq!(report.total_tasks() as usize, g.len());
    });
}
