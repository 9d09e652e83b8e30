//! Deterministic service stress: mixed job sizes under seeded
//! adversarial arrival orders. Asserts the service-level liveness and
//! fairness contracts — no deadlock, no starvation (every priority
//! class completes), bounded fair-share queueing delay, backpressure
//! that unblocks, and drain-on-shutdown with zero lost jobs — while
//! holding every factor to bit identity with the sequential path.

use tileqr::runtime::{JobSpec, PriorityClass, QrService, ServiceConfig, ServiceError};
use tileqr_dag::{EliminationTree, TaskGraph};
use tileqr_kernels::exec::FactorState;
use tileqr_matrix::gen::random_matrix;
use tileqr_matrix::{Matrix, Rng64, TiledMatrix};
use tileqr_testkit::workers_under_test;

/// Sequential ground truth for one job.
fn sequential(a: &Matrix<f64>, b: usize) -> Matrix<f64> {
    let tiled = TiledMatrix::from_matrix(a, b).unwrap();
    let g = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), EliminationTree::Flat);
    let mut seq = FactorState::new(tiled);
    seq.run_all(&g).unwrap();
    seq.tiles().to_matrix()
}

/// The three stress shapes at b=8: single-tile (1 task), tall-skinny
/// 8x1 tiles (8 tasks), and a full 8x8-tile DAG (204 tasks).
fn stress_shape(kind: usize, seed: u64) -> Matrix<f64> {
    match kind {
        0 => random_matrix::<f64>(8, 8, seed),
        1 => random_matrix::<f64>(64, 8, seed),
        _ => random_matrix::<f64>(64, 64, seed),
    }
}

/// Deterministic Fisher-Yates shuffle driven by [`Rng64`].
fn shuffle<T>(v: &mut [T], rng: &mut Rng64) {
    for i in (1..v.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// Mixed sizes, adversarial (seed-shuffled) arrival orders, all three
/// priority classes in flight at once: everything completes — no
/// deadlock, no starved class — and every factor is bit-identical.
#[test]
fn adversarial_arrival_orders_complete_bit_identical() {
    let classes = [
        PriorityClass::Bulk,
        PriorityClass::Standard,
        PriorityClass::Interactive,
    ];
    for workers in workers_under_test() {
        for trial in 0..3u64 {
            let mut rng = Rng64::seed_from_u64(0x5EED ^ trial);
            // 15 jobs: five of each shape, classes round-robined so
            // every class contains every shape.
            let mut jobs: Vec<(usize, u64, PriorityClass)> = (0..15u64)
                .map(|i| {
                    (
                        (i % 3) as usize,
                        4000 + 100 * trial + i,
                        classes[(i / 5) as usize],
                    )
                })
                .collect();
            shuffle(&mut jobs, &mut rng);

            let svc = QrService::<f64>::start(ServiceConfig {
                workers,
                ..ServiceConfig::default()
            });
            let mut handles = Vec::new();
            let mut expected = Vec::new();
            let mut want_class = Vec::new();
            for &(kind, seed, class) in &jobs {
                let a = stress_shape(kind, seed);
                expected.push(sequential(&a, 8));
                want_class.push(class);
                handles.push(
                    svc.submit(JobSpec::factor(a).tile_size(8).priority(class))
                        .unwrap(),
                );
            }
            let mut done_per_class = [0usize; 3];
            for ((h, want), class) in handles.into_iter().zip(expected).zip(want_class) {
                let res = h.wait().unwrap_or_else(|e| {
                    panic!("job failed (workers={workers}, trial={trial}): {e}")
                });
                assert_eq!(res.output.factor().state.tiles().to_matrix(), want);
                assert_eq!(res.class, class);
                done_per_class[match class {
                    PriorityClass::Interactive => 0,
                    PriorityClass::Standard => 1,
                    PriorityClass::Bulk => 2,
                }] += 1;
            }
            assert_eq!(done_per_class, [5, 5, 5], "a priority class starved");
            let stats = svc.shutdown();
            assert_eq!(stats.jobs_completed, 15);
            assert_eq!(stats.jobs_failed, 0);
        }
    }
}

/// Weighted fair-share bound: an interactive job arriving behind a
/// bulk flood starts within a bounded number of dispatches. A newcomer
/// enters at the minimum backlogged virtual time, so each backlogged
/// job can overtake it at most once (its vtime then advances past the
/// newcomer's), plus one task per worker already being dispatched —
/// giving delay <= backlog + workers. We assert the K=2 budget.
#[test]
fn fair_share_bounds_interactive_queue_delay() {
    let workers = 2;
    let svc = QrService::<f64>::start(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    });

    // Flood: 8 bulk 8x8-tile jobs (204 tasks each).
    let bulk: Vec<_> = (0..8u64)
        .map(|i| {
            svc.submit(
                JobSpec::factor(stress_shape(2, 6000 + i))
                    .tile_size(8)
                    .priority(PriorityClass::Bulk),
            )
            .unwrap()
        })
        .collect();

    // Latecomers: 4 interactive jobs submitted into the flood.
    let interactive: Vec<_> = (0..4u64)
        .map(|i| {
            svc.submit(
                JobSpec::factor(stress_shape(1, 7000 + i))
                    .tile_size(8)
                    .priority(PriorityClass::Interactive),
            )
            .unwrap()
        })
        .collect();

    for h in interactive {
        let res = h.wait().unwrap();
        let budget = 2 * (res.backlog_at_submit + workers as u64) + 2;
        assert!(
            res.dispatch_delay_tasks <= budget,
            "interactive job waited {} dispatches behind a backlog of {} (budget {})",
            res.dispatch_delay_tasks,
            res.backlog_at_submit,
            budget
        );
    }
    for h in bulk {
        h.wait().unwrap(); // the flood itself must not starve either
    }
    svc.shutdown();
}

/// Admission backpressure: a blocking submit over capacity parks the
/// caller and wakes it once a slot frees — it must complete, not
/// deadlock, and `try_submit` must report saturation in the interim.
#[test]
fn backpressure_blocks_then_unblocks() {
    let svc = QrService::<f64>::start(ServiceConfig {
        workers: 1,
        max_in_flight: 1,
        ..ServiceConfig::default()
    });
    let first = svc
        .submit(JobSpec::factor(stress_shape(2, 8100)).tile_size(8))
        .unwrap();
    // With the slot held, non-blocking admission refuses (the slot
    // frees asynchronously, so allow the race where it already did).
    match svc.try_submit(JobSpec::factor(stress_shape(0, 8101)).tile_size(8)) {
        Err(ServiceError::Saturated {
            in_flight,
            max_in_flight,
        }) => {
            assert_eq!((in_flight, max_in_flight), (1, 1));
        }
        Ok(h) => {
            h.wait().unwrap();
        }
        Err(e) => panic!("unexpected admission error: {e}"),
    }
    // A blocking submit from another thread parks until `first` drains.
    std::thread::scope(|s| {
        let t = s.spawn(|| {
            svc.submit(JobSpec::factor(stress_shape(1, 8102)).tile_size(8))
                .unwrap()
                .wait()
        });
        first.wait().unwrap();
        t.join().unwrap().unwrap();
    });
    svc.shutdown();
}

/// Drain-on-shutdown: shutting down immediately after a burst of
/// mixed submissions (one-task jobs included) loses nothing —
/// every handle resolves with a correct result.
#[test]
fn shutdown_drains_all_in_flight_jobs() {
    for workers in workers_under_test() {
        let svc = QrService::<f64>::start(ServiceConfig {
            workers,
            ..ServiceConfig::default()
        });
        let mut handles = Vec::new();
        let mut expected = Vec::new();
        for i in 0..12u64 {
            let a = stress_shape((i % 3) as usize, 9000 + i);
            expected.push(sequential(&a, 8));
            handles.push(svc.submit(JobSpec::factor(a).tile_size(8)).unwrap());
        }
        let stats = svc.shutdown(); // drains, does not abandon
        assert_eq!(
            stats.jobs_completed, 12,
            "lost jobs on drain (workers={workers})"
        );
        assert_eq!(stats.jobs_failed, 0);
        for (h, want) in handles.into_iter().zip(expected) {
            let res = h.wait().expect("drained job must still resolve");
            assert_eq!(res.output.factor().state.tiles().to_matrix(), want);
        }
    }
}
