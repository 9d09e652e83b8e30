//! Golden-trace suite: lock down the observability layer's guarantees
//! on the *real* pool, swept across worker counts
//! (`TILEQR_TESTKIT_WORKERS`) and dispatch rules (the driver's FIFO and
//! the critical-path adversary, lent as a pick hook).
//!
//! For a fixed seed and tile geometry, every traced run must produce a
//! trace that is
//!
//! 1. **complete** — exactly one committed compute span per DAG task,
//!    with per-kernel-class span counts matching [`counts::class_totals`],
//! 2. **well-nested** — per task attempt, stage ends before compute
//!    starts and compute ends before commit starts,
//! 3. **sequential per lane** — spans on one worker lane never overlap,
//! 4. **recovery-faithful** — retry/requeue/worker-death events appear
//!    iff faults were injected.

use std::collections::BTreeSet;
use tileqr_dag::{counts, EliminationTree, TaskGraph};
use tileqr_kernels::exec::FactorState;
use tileqr_matrix::TiledMatrix;
use tileqr_obs::{kind_index, EventKind, Phase, Trace, TraceConfig};
use tileqr_runtime::{
    parallel_factor_traced, run_pool, FaultInjector, FaultTolerance, PoolConfig, ScriptedFaults,
};
use tileqr_testkit::adversary::{Adversary, Rule};
use tileqr_testkit::workers_under_test;

const N: usize = 32;
const B: usize = 4;
const SEED: u64 = 424_242;

fn fixture() -> (TiledMatrix<f64>, TaskGraph) {
    let a = tileqr_matrix::gen::random_matrix::<f64>(N, N, SEED);
    let tiled = TiledMatrix::from_matrix(&a, B).unwrap();
    let g = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), EliminationTree::Flat);
    (tiled, g)
}

/// The completeness contract: one compute span per DAG task, and the
/// per-class breakdown matches the graph's analytic totals.
fn assert_complete(trace: &Trace, g: &TaskGraph) {
    let tasks: BTreeSet<usize> = trace.phase_spans(Phase::Compute).map(|s| s.task).collect();
    assert_eq!(tasks.len(), g.len(), "every task computed exactly once");
    assert_eq!(
        trace.compute_span_count(),
        g.len(),
        "no duplicate compute spans"
    );
    let (t, e, ut, ue) = counts::class_totals(g);
    let mut per_kind = [0usize; tileqr_obs::NUM_KINDS];
    for s in trace.phase_spans(Phase::Compute) {
        per_kind[kind_index(s.kind)] += 1;
    }
    // kind_index order: geqrt, unmqr, tsqrt, tsmqr, ttqrt, ttmqr.
    assert_eq!(per_kind[0], t, "GEQRT count");
    assert_eq!(per_kind[1], ut, "UNMQR count");
    assert_eq!(per_kind[2] + per_kind[4], e, "TSQRT+TTQRT count");
    assert_eq!(per_kind[3] + per_kind[5], ue, "TSMQR+TTMQR count");
}

#[test]
fn golden_traces_across_workers_and_policies() {
    let (tiled, g) = fixture();
    for &workers in &workers_under_test() {
        for order in [None, Some(Rule::CriticalPath)] {
            let adversary = order.map(|rule| Adversary::new(rule, &g, B));
            // `run_pool` runs the real driver even at one worker, so the
            // single-lane golden trace exercises the same recording paths
            // as the multi-worker runs.
            let (_, report) = run_pool(
                FactorState::new(tiled.clone()),
                &g,
                PoolConfig {
                    workers,
                    trace: TraceConfig::enabled(),
                    ..PoolConfig::default()
                },
                adversary.as_ref().map(|a| a as &dyn FaultInjector),
            )
            .unwrap();
            let trace = report
                .trace
                .as_ref()
                .unwrap_or_else(|| panic!("workers={workers} {order:?}: trace missing"));

            assert_complete(trace, &g);
            trace
                .validate(true)
                .unwrap_or_else(|e| panic!("workers={workers} {order:?}: {e}"));
            assert_eq!(
                trace.lanes.len(),
                workers + 1,
                "one lane per worker plus the manager"
            );
            assert_eq!(
                trace.hot_path_reallocations, 0,
                "hot path allocates nothing"
            );

            // Scheduling instants: each task becomes ready exactly once
            // and is dispatched exactly once on a clean run.
            assert_eq!(trace.events_of(EventKind::Ready).count(), g.len());
            assert_eq!(trace.events_of(EventKind::Dispatch).count(), g.len());

            // Fast-path runs stage and commit on the worker: both phases
            // present for every task.
            assert_eq!(trace.phase_spans(Phase::Stage).count(), g.len());
            assert_eq!(trace.phase_spans(Phase::Commit).count(), g.len());

            // Clean runs carry zero recovery events.
            for kind in [EventKind::Retry, EventKind::Requeue, EventKind::WorkerDeath] {
                assert_eq!(
                    trace.events_of(kind).count(),
                    0,
                    "workers={workers} {order:?}: unexpected {kind:?}"
                );
            }
        }
    }
}

/// A trace holds the whole run, however large: a traced two-worker run of
/// a 48 × 48 grid (38 024 tasks, 190 120 events) records every task's five
/// events, nested, into a trace that never grows.
#[test]
fn a_large_traced_run_keeps_every_event() {
    let a = tileqr_matrix::gen::random_matrix::<f64>(48 * B, 48 * B, SEED);
    let tiled = TiledMatrix::from_matrix(&a, B).unwrap();
    let g = TaskGraph::build_tree(48, 48, EliminationTree::Flat);
    assert_eq!(g.len(), 38_024);
    let config = PoolConfig {
        workers: 2,
        trace: TraceConfig::enabled(),
        ..PoolConfig::default()
    };
    let (_, report) = run_pool(FactorState::new(tiled), &g, config, None).unwrap();
    let trace = report.trace.as_ref().unwrap();
    for kind in [EventKind::Ready, EventKind::Dispatch] {
        assert_eq!(trace.events_of(kind).count(), g.len(), "{kind:?}");
    }
    for phase in [Phase::Stage, Phase::Compute, Phase::Commit] {
        assert_eq!(trace.phase_spans(phase).count(), g.len(), "{phase:?}");
    }
    assert_complete(trace, &g);
    trace.validate(true).unwrap();
    assert_eq!(trace.hot_path_reallocations, 0);
}

/// The driver's one order, pinned: with no seam, the manager lane
/// dispatches tasks in exactly the order they became ready — the order
/// `dag::listsim` and the tree selector assume.
#[test]
fn unseamed_driver_dispatches_in_ready_order() {
    let (tiled, g) = fixture();
    for &workers in &workers_under_test() {
        let (_, report) = run_pool(
            FactorState::new(tiled.clone()),
            &g,
            PoolConfig {
                workers,
                trace: TraceConfig::enabled(),
                ..PoolConfig::default()
            },
            None,
        )
        .unwrap();
        let trace = report.trace.as_ref().unwrap();
        let manager = trace.lanes.len() - 1;
        let on_manager = |kind| -> Vec<Option<usize>> {
            let events = trace.events_of(kind).filter(|e| e.lane == manager);
            events.map(|e| e.task).collect()
        };
        let ready = on_manager(EventKind::Ready);
        assert_eq!(ready.len(), g.len(), "workers={workers}");
        assert_eq!(on_manager(EventKind::Dispatch), ready, "workers={workers}");
    }
}

#[test]
fn golden_trace_ft_clean_run_has_no_recovery_events() {
    let (tiled, g) = fixture();
    for &workers in &workers_under_test() {
        if workers < 2 {
            continue; // one effective worker runs inline, unfenced
        }
        // The public fault-tolerant path: the budget rides on the config.
        let (_, report) = parallel_factor_traced(
            FactorState::new(tiled.clone()),
            &g,
            PoolConfig {
                workers,
                trace: TraceConfig::enabled(),
                fault_tolerance: Some(FaultTolerance::default()),
            },
        )
        .unwrap();
        let trace = report.trace.as_ref().unwrap();
        assert_complete(trace, &g);
        trace.validate(true).unwrap();
        // Fault-tolerant commits happen on the manager lane.
        let manager = trace.lanes.len() - 1;
        assert!(
            trace.phase_spans(Phase::Commit).all(|s| s.lane == manager),
            "ft commits are fenced on the manager"
        );
        assert_eq!(trace.phase_spans(Phase::Commit).count(), g.len());
        for kind in [EventKind::Retry, EventKind::Requeue, EventKind::WorkerDeath] {
            assert_eq!(trace.events_of(kind).count(), 0);
        }
    }
}

#[test]
fn golden_trace_records_retries_iff_faults_injected() {
    let (tiled, g) = fixture();
    // Two scripted transient failures: attempt 0 of two tasks errors
    // before staging, so the retried attempts are the only compute spans.
    let faults = ScriptedFaults::new().fail_on(1, 1).fail_on(g.len() / 2, 1);
    let (_, report) = run_pool(
        FactorState::new(tiled),
        &g,
        PoolConfig {
            workers: 2,
            trace: TraceConfig::enabled(),
            fault_tolerance: Some(FaultTolerance::default()),
        },
        Some(&faults),
    )
    .unwrap();
    let trace = report.trace.as_ref().unwrap();
    assert_complete(trace, &g);
    trace.validate(true).unwrap();
    assert_eq!(
        trace.events_of(EventKind::Retry).count(),
        2,
        "one retry instant per injected transient failure"
    );
    assert_eq!(report.retries, 2, "report and trace agree");
    // The retried attempts record past the room of a clean run.
    assert_eq!(trace.hot_path_reallocations, 1);
    // Transient failures kill no workers.
    assert_eq!(trace.events_of(EventKind::WorkerDeath).count(), 0);
    // The retried tasks carry attempt 1 on their compute span.
    for victim in [1, g.len() / 2] {
        let attempts: Vec<u32> = trace
            .phase_spans(Phase::Compute)
            .filter(|s| s.task == victim)
            .map(|s| s.attempt)
            .collect();
        assert_eq!(attempts, vec![1], "task {victim} computed on attempt 1");
    }
}

#[test]
fn golden_trace_worker_death_leaves_marker() {
    let (tiled, g) = fixture();
    let victim = g.len() / 3;
    let faults = ScriptedFaults::new().panic_on(victim, 1);
    let (_, report) = run_pool(
        FactorState::new(tiled),
        &g,
        PoolConfig {
            workers: 3,
            trace: TraceConfig::enabled(),
            fault_tolerance: Some(FaultTolerance::default()),
        },
        Some(&faults),
    )
    .unwrap();
    let trace = report.trace.as_ref().unwrap();
    assert_complete(trace, &g);
    trace.validate(true).unwrap();
    assert_eq!(trace.events_of(EventKind::WorkerDeath).count(), 1);
    assert_eq!(trace.events_of(EventKind::Requeue).count(), 1);
    assert_eq!(trace.events_of(EventKind::Retry).count(), 1);
    let requeue = trace.events_of(EventKind::Requeue).next().unwrap();
    assert_eq!(requeue.task, Some(victim));
}

#[test]
fn traced_and_untraced_runs_factor_identically() {
    let (tiled, g) = fixture();
    let plain = parallel_factor_traced(
        FactorState::new(tiled.clone()),
        &g,
        PoolConfig {
            workers: 2,
            ..PoolConfig::default()
        },
    )
    .unwrap()
    .0;
    let traced = parallel_factor_traced(
        FactorState::new(tiled),
        &g,
        PoolConfig {
            workers: 2,
            trace: TraceConfig::enabled(),
            ..PoolConfig::default()
        },
    )
    .unwrap()
    .0;
    assert_eq!(
        plain.tiles().to_matrix(),
        traced.tiles().to_matrix(),
        "observing the run must not change it"
    );
}
