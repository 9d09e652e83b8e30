//! Worker-failure recovery through the full parallel runtime.
//!
//! Every scenario scripts faults at exact `(task, attempt)` coordinates
//! with [`ScriptedFaults`], runs the fault-tolerant pool across the CI
//! worker sweep, and holds the recovered factorization to **bit
//! identity** with the sequential path — recovery must be invisible in
//! the numbers, visible only in the [`RunReport`] counters. The commit
//! protocol makes that possible: a requeued attempt stages the same
//! immutable inputs its predecessor saw (no conflicting writer can run
//! before the task commits), so the duplicate computes the identical
//! tiles and the first result wins.

use std::sync::Arc;
use std::time::Duration;
use tileqr::{QrOptions, TiledQr};
use tileqr_dag::{EliminationTree, TaskGraph, TaskKind};
use tileqr_kernels::exec::FactorState;
use tileqr_matrix::gen::random_matrix;
use tileqr_matrix::{Matrix, TiledMatrix};
use tileqr_runtime::{
    run_pool, FaultTolerance, PoolConfig, RunReport, RuntimeError, ScriptedFaults,
};
use tileqr_testkit::oracle::verify_qr;
use tileqr_testkit::workers_under_test;

/// Sequential ground truth: factored tile matrix plus the task graph.
fn sequential(a: &Matrix<f64>, b: usize) -> (TiledMatrix<f64>, TaskGraph, Matrix<f64>) {
    let tiled = TiledMatrix::from_matrix(a, b).unwrap();
    let g = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), EliminationTree::Flat);
    let mut seq = FactorState::new(tiled.clone());
    seq.run_all(&g).unwrap();
    let m = seq.tiles().to_matrix();
    (tiled, g, m)
}

fn ft_run(
    tiled: &TiledMatrix<f64>,
    g: &TaskGraph,
    workers: usize,
    ft: FaultTolerance,
    injector: ScriptedFaults,
) -> Result<(FactorState<f64>, RunReport), RuntimeError> {
    let config = PoolConfig {
        workers,
        fault_tolerance: Some(ft),
        ..PoolConfig::default()
    };
    let state = FactorState::new(tiled.clone());
    run_pool(state, g, config, Some(Arc::new(injector)))
}

#[test]
fn panic_recovery_is_bit_identical_across_the_sweep() {
    let a = random_matrix::<f64>(32, 32, 0xF1);
    let (tiled, g, seq) = sequential(&a, 8);
    for workers in workers_under_test().into_iter().filter(|&w| w >= 2) {
        // One panic mid-graph: kills its worker, task requeues.
        let victim = g.len() / 2;
        let inj = ScriptedFaults::new().panic_on(victim, 1);
        let (state, report) = ft_run(&tiled, &g, workers, FaultTolerance::default(), inj)
            .expect("recovery must succeed");
        assert_eq!(
            state.tiles().to_matrix(),
            seq,
            "workers={workers}: recovered factors must be bit-identical"
        );
        assert_eq!(report.worker_deaths, 1, "workers={workers}");
        assert_eq!(report.requeues, 1);
        assert_eq!(report.retries, 1);
        assert_eq!(report.total_tasks(), g.len() as u64);
    }
}

#[test]
fn multiple_panics_and_transients_recover_together() {
    let a = random_matrix::<f64>(40, 24, 0xF2);
    let (tiled, g, seq) = sequential(&a, 8);
    let last = g.len() - 1;
    for workers in workers_under_test().into_iter().filter(|&w| w >= 2) {
        // A panic early, transient failures in the middle and on the
        // final task — the pool must survive losing a worker *and*
        // burning retries elsewhere in the same run.
        let inj = ScriptedFaults::new()
            .panic_on(1, 1)
            .fail_on(g.len() / 3, 2)
            .fail_on(last, 1);
        let ft = FaultTolerance {
            max_attempts: 4,
            ..FaultTolerance::default()
        };
        let (state, report) =
            ft_run(&tiled, &g, workers, ft, inj).expect("mixed faults within budget must recover");
        assert_eq!(state.tiles().to_matrix(), seq, "workers={workers}");
        assert_eq!(report.worker_deaths, 1);
        assert_eq!(report.retries, 4, "1 panic + 2 + 1 transients");
    }
}

#[test]
fn recovery_is_bit_identical_for_every_elimination_tree() {
    // Requeued TTQRT/TTMQR attempts must replay as invisibly as the TS
    // kernels do: a panic plus a transient per tree, held to bit
    // identity against that tree's own sequential run.
    let a = random_matrix::<f64>(40, 16, 0xF6);
    for tree in EliminationTree::zoo() {
        let tiled = TiledMatrix::from_matrix(&a, 8).unwrap();
        let g = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), tree);
        let mut seq = FactorState::new(tiled.clone());
        seq.run_all(&g).unwrap();
        let expect = seq.tiles().to_matrix();
        let inj = ScriptedFaults::new()
            .panic_on(g.len() / 2, 1)
            .fail_on(g.len() - 1, 1);
        let ft = FaultTolerance {
            max_attempts: 3,
            ..FaultTolerance::default()
        };
        let (state, report) = ft_run(&tiled, &g, 4, ft, inj).expect("recovery must succeed");
        assert_eq!(state.tiles().to_matrix(), expect, "tree={tree}");
        assert_eq!(report.worker_deaths, 1, "tree={tree}");
        assert_eq!(report.retries, 2, "tree={tree}: panic + transient");
    }
}

#[test]
fn stalled_worker_is_retired_by_watchdog_and_run_recovers() {
    let a = random_matrix::<f64>(24, 24, 0xF3);
    let (tiled, g, seq) = sequential(&a, 8);
    let ft = FaultTolerance {
        stall_timeout: Some(Duration::from_millis(50)),
        ..FaultTolerance::default()
    };
    for workers in [2usize, 4] {
        let inj = ScriptedFaults::new().stall_on(2, 1, Duration::from_millis(400));
        let (state, report) =
            ft_run(&tiled, &g, workers, ft, inj).expect("watchdog recovery must succeed");
        assert_eq!(state.tiles().to_matrix(), seq, "workers={workers}");
        assert!(report.worker_deaths >= 1, "stalled worker retired");
        assert!(report.requeues >= 1);
    }
}

#[test]
fn exhausted_retry_budget_is_a_structured_error_not_a_hang() {
    let a = random_matrix::<f64>(16, 16, 0xF4);
    let (tiled, g, _) = sequential(&a, 8);
    let inj = ScriptedFaults::new().fail_on(0, 99);
    let ft = FaultTolerance {
        max_attempts: 2,
        ..FaultTolerance::default()
    };
    let err = ft_run(&tiled, &g, 2, ft, inj).expect_err("budget must run out");
    match err {
        RuntimeError::RetriesExhausted { task, attempts, .. } => {
            assert_eq!(task, 0);
            assert_eq!(attempts, 2);
        }
        other => panic!("expected RetriesExhausted, got {other}"),
    }
}

#[test]
fn fenced_run_fails_at_a_poisoned_panel_factor() {
    // The fence a service job has: a panel factor that comes out
    // non-finite fails the run at that task, before any update reads it.
    let a = random_matrix::<f64>(32, 32, 0xF7);
    let (tiled, g, _) = sequential(&a, 8);
    let later = (g.tasks().iter())
        .position(|t| matches!(t, TaskKind::Tsqrt { .. }))
        .unwrap();
    for workers in workers_under_test() {
        for victim in [0, later] {
            let inj = ScriptedFaults::new().poison_on(victim, 1);
            let err = ft_run(&tiled, &g, workers, FaultTolerance::default(), inj)
                .expect_err("a poisoned panel factor must not commit");
            match &err {
                RuntimeError::Kernel { task, source } => {
                    assert_eq!(*task, victim, "workers={workers}");
                    assert!(source.to_string().contains("non-finite"), "{source}");
                }
                other => panic!("expected Kernel, got {other}"),
            }
        }
    }
    // Unfenced runs commit on the worker: nothing stands between a poisoned
    // output and `R`, as before.
    let inj = ScriptedFaults::new().poison_on(0, 1);
    let config = PoolConfig {
        workers: 2,
        ..PoolConfig::default()
    };
    let state = FactorState::new(tiled);
    let (state, _) = run_pool(state, &g, config, Some(Arc::new(inj))).unwrap();
    assert!(state.r_matrix().first_non_finite().is_some());
}

#[test]
fn recovered_factorization_passes_the_numerical_oracle() {
    // End-to-end through the public API: the fault-tolerant option (no
    // injector there — this exercises the preserving-stage + manager-
    // commit machinery on a clean run) must produce factors that pass the
    // condition-scaled oracle, not merely match bits.
    let a = random_matrix::<f64>(48, 48, 0xF5);
    for workers in workers_under_test().into_iter().filter(|&w| w >= 2) {
        let f = TiledQr::factor(
            &a,
            &QrOptions::new()
                .tile_size(8)
                .workers(workers)
                .fault_tolerance(FaultTolerance::default()),
        )
        .unwrap();
        let rep = verify_qr(&a, &f.q().unwrap(), &f.r(), None).unwrap();
        assert!(rep.passes(), "workers={workers}: {rep:?}");
    }
}
