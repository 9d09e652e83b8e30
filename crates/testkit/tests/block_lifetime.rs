//! Runs whose eliminations leave `−V₂ᵀ` for their trailing updates land on
//! the sequential driver's bits, whichever way they run.
//!
//! A `TSQRT`/`TTQRT` task with two or more trailing updates stores `−V₂ᵀ`
//! beside its `Tᵀ`; every `TSMQR`/`TTMQR` of it forms `W` from that block,
//! and the last one to commit recycles it (`exec.rs`'s unit tests hold the
//! block's bits and its lifetime on the sequential and the shared state).
//! Here an unfenced and a fenced pool run and a service job match `run_all`
//! bit for bit, and so does a fenced retry of a factor's last pending
//! update.

use std::sync::Arc;
use tileqr::runtime::{JobSpec, QrService, ServiceConfig};
use tileqr_dag::{EliminationTree, TaskGraph, TaskKind, TreePolicy};
use tileqr_kernels::exec::FactorState;
use tileqr_matrix::gen::random_matrix;
use tileqr_matrix::{Matrix, TiledMatrix};
use tileqr_runtime::{run_pool, FaultTolerance, PoolConfig, ScriptedFaults};

/// Trees whose eliminations are TS, TT and both, plus the TSQR tree
/// (`Plateau(3)`) on a tall two-column grid.
fn cases() -> Vec<(usize, usize, EliminationTree)> {
    let mut cases: Vec<_> = [
        EliminationTree::Flat,
        EliminationTree::FlatTt,
        EliminationTree::Binary,
        EliminationTree::Greedy,
        EliminationTree::Plateau(2),
    ]
    .into_iter()
    .map(|tree| (40, 32, tree))
    .collect();
    cases.push((96, 16, EliminationTree::Plateau(3)));
    cases
}

fn tiled(m: usize, n: usize, seed: u64) -> TiledMatrix<f64> {
    TiledMatrix::from_matrix(&random_matrix::<f64>(m, n, seed), 8).unwrap()
}

fn graph(t: &TiledMatrix<f64>, tree: EliminationTree) -> TaskGraph {
    TaskGraph::build_tree(t.tile_rows(), t.tile_cols(), tree)
}

/// Both pool modes and a service job end on the sequential driver's bits.
#[test]
fn pool_and_service_runs_match_the_sequential_bits() {
    let svc = QrService::<f64>::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    for (m, n, tree) in cases() {
        let t = tiled(m, n, 12);
        let g = graph(&t, tree);
        let mut seq = FactorState::new(t.clone());
        seq.run_all(&g).unwrap();
        let want = seq.tiles().to_matrix();
        for ft in [None, Some(FaultTolerance::default())] {
            let config = PoolConfig {
                workers: 2,
                fault_tolerance: ft,
                ..PoolConfig::default()
            };
            let state = FactorState::new(t.clone());
            let (state, _) = run_pool(state, &g, config, None).unwrap();
            let mode = if ft.is_some() { "fenced" } else { "unfenced" };
            assert_eq!(state.tiles().to_matrix(), want, "{tree:?}: {mode} bits");
        }
        let spec = JobSpec::factor(t.to_matrix())
            .tile_size(8)
            .tree(TreePolicy::Fixed(tree));
        let res = svc.submit(spec).unwrap().wait().unwrap();
        let state = &res.output.factor().state;
        assert_eq!(state.tiles().to_matrix(), want, "{tree:?}: service bits");
    }
    assert_eq!(svc.shutdown().jobs_failed, 0);
}

/// On a 2 x 3 grid `TSMQR(0, 1, 2, 0)` is the second and last update of its
/// factor; one worker runs the first before it. Its first attempt fails
/// before staging, so the block must stay, with one update pending, for the
/// retry: had the failed attempt settled it, the retry would find no block
/// and take the dot-product form, whose bits differ from the sequential
/// run's. (An attempt that computes with the block and is then dropped
/// uncommitted is `exec.rs`'s `shared_runs_recycle_every_block`: the
/// injector's poison reaches no update's fence — the scan covers panel
/// factors only, so a poisoned update commits.)
#[test]
fn a_retried_last_update_restages_the_block() {
    let t = tiled(16, 24, 13);
    let g = graph(&t, EliminationTree::Flat);
    let last = TaskKind::Tsmqr {
        p: 0,
        i: 1,
        j: 2,
        k: 0,
    };
    let victim = g.tasks().iter().position(|&k| k == last).unwrap();
    let mut seq = FactorState::new(t.clone());
    seq.run_all(&g).unwrap();
    let config = PoolConfig {
        workers: 1,
        fault_tolerance: Some(FaultTolerance::default()),
        ..PoolConfig::default()
    };
    let faults = ScriptedFaults::new().fail_on(victim, 1);
    let state = FactorState::new(t);
    let (state, report) = run_pool(state, &g, config, Some(Arc::new(faults))).unwrap();
    assert_eq!(report.retries, 1);
    let got: Matrix<f64> = state.tiles().to_matrix();
    assert_eq!(got, seq.tiles().to_matrix(), "the retry changed the bits");
}
