//! The *seed* runtime, preserved as an A/B baseline: one global mutex
//! around the whole factorization state, `O(b²)` deep copies to stage
//! every task, and FIFO dispatch from a shared worklist.
//!
//! The production runtime (`tileqr::runtime`) replaced all three of these
//! — per-tile slots, `Arc`-shared reads, and critical-path priorities —
//! so this module is what the `runtime_scaling` bench measures the new
//! runtime *against*. It is deliberately written the straightforward way
//! a first worklist runtime would be; do not optimize it.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use tileqr::dag::{TaskGraph, TaskId, TaskKind};
use tileqr::kernels::{
    geqrt_ws, tsmqr_apply_ws, tsqrt_ws, ttmqr_apply_ws, ttqrt_ws, unmqr_ws, ApplySide, Workspace,
};
use tileqr::{Matrix, MatrixError, TiledMatrix};

type Result<T> = std::result::Result<T, MatrixError>;

/// Factorization state as the seed kept it: tiles plus hash-mapped `T`
/// factors, all behind one lock.
struct State {
    tiles: TiledMatrix<f64>,
    geqrt_t: HashMap<(usize, usize), Matrix<f64>>,
    elim_t: HashMap<(usize, usize, usize), Matrix<f64>>,
}

/// Everything shared between baseline workers, behind the single mutex.
struct Shared {
    state: State,
    fifo: VecDeque<TaskId>,
    remaining_preds: Vec<usize>,
    completed: usize,
    failed: bool,
}

/// Deep-copied task inputs (the seed's staging: `O(b²)` clones under the
/// global lock).
enum Staged {
    Factor {
        tile: Matrix<f64>,
    },
    Update {
        vr: Matrix<f64>,
        tfac: Matrix<f64>,
        c: Matrix<f64>,
    },
    Elim {
        r1: Matrix<f64>,
        a2: Matrix<f64>,
    },
    PairUpdate {
        v2: Matrix<f64>,
        tfac: Matrix<f64>,
        a1: Matrix<f64>,
        a2: Matrix<f64>,
    },
}

enum Done {
    Factor {
        tile: Matrix<f64>,
        tfac: Matrix<f64>,
    },
    Update {
        c: Matrix<f64>,
    },
    Elim {
        r1: Matrix<f64>,
        a2: Matrix<f64>,
        tfac: Matrix<f64>,
    },
    PairUpdate {
        a1: Matrix<f64>,
        a2: Matrix<f64>,
    },
}

fn stage(state: &State, task: TaskKind) -> Staged {
    let t = &state.tiles;
    match task {
        TaskKind::Geqrt { i, k } => Staged::Factor {
            tile: t.tile(i, k).clone(),
        },
        TaskKind::Unmqr { i, j, k } => Staged::Update {
            vr: t.tile(i, k).clone(),
            tfac: state.geqrt_t[&(i, k)].clone(),
            c: t.tile(i, j).clone(),
        },
        TaskKind::Tsqrt { p, i, k } | TaskKind::Ttqrt { p, i, k } => Staged::Elim {
            r1: t.tile(p, k).clone(),
            a2: t.tile(i, k).clone(),
        },
        TaskKind::Tsmqr { p, i, j, k } | TaskKind::Ttmqr { p, i, j, k } => Staged::PairUpdate {
            v2: t.tile(i, k).clone(),
            tfac: state.elim_t[&(p, i, k)].clone(),
            a1: t.tile(p, j).clone(),
            a2: t.tile(i, j).clone(),
        },
    }
}

fn compute(task: TaskKind, staged: Staged) -> Result<Done> {
    // The seed allocated every kernel's scratch and `T` factor per call;
    // a throwaway grow-on-demand workspace per task keeps that cost.
    let ws = &mut Workspace::minimal();
    Ok(match (task, staged) {
        (TaskKind::Geqrt { .. }, Staged::Factor { mut tile }) => {
            let mut tfac = Matrix::zeros(tile.cols(), tile.cols());
            geqrt_ws(&mut tile, &mut tfac, ws)?;
            Done::Factor { tile, tfac }
        }
        (TaskKind::Unmqr { .. }, Staged::Update { vr, tfac, mut c }) => {
            unmqr_ws(&vr, &tfac, &mut c, ws)?;
            Done::Update { c }
        }
        (TaskKind::Tsqrt { .. }, Staged::Elim { mut r1, mut a2 }) => {
            let mut tfac = Matrix::zeros(r1.rows(), r1.rows());
            tsqrt_ws(&mut r1, &mut a2, &mut tfac, ws)?;
            Done::Elim { r1, a2, tfac }
        }
        (TaskKind::Ttqrt { .. }, Staged::Elim { mut r1, mut a2 }) => {
            let mut tfac = Matrix::zeros(r1.rows(), r1.rows());
            ttqrt_ws(&mut r1, &mut a2, &mut tfac, ws)?;
            Done::Elim { r1, a2, tfac }
        }
        (
            TaskKind::Tsmqr { .. },
            Staged::PairUpdate {
                v2,
                tfac,
                mut a1,
                mut a2,
            },
        ) => {
            tsmqr_apply_ws(&v2, &tfac, &mut a1, &mut a2, ApplySide::Transpose, ws)?;
            Done::PairUpdate { a1, a2 }
        }
        (
            TaskKind::Ttmqr { .. },
            Staged::PairUpdate {
                v2,
                tfac,
                mut a1,
                mut a2,
            },
        ) => {
            ttmqr_apply_ws(&v2, &tfac, &mut a1, &mut a2, ApplySide::Transpose, ws)?;
            Done::PairUpdate { a1, a2 }
        }
        _ => unreachable!("task/staged kind mismatch"),
    })
}

fn commit(state: &mut State, task: TaskKind, done: Done) {
    match (task, done) {
        (TaskKind::Geqrt { i, k }, Done::Factor { tile, tfac }) => {
            state.tiles.set_tile(i, k, tile);
            state.geqrt_t.insert((i, k), tfac);
        }
        (TaskKind::Unmqr { i, j, .. }, Done::Update { c }) => {
            state.tiles.set_tile(i, j, c);
        }
        (
            TaskKind::Tsqrt { p, i, k } | TaskKind::Ttqrt { p, i, k },
            Done::Elim { r1, a2, tfac },
        ) => {
            state.tiles.set_tile(p, k, r1);
            state.tiles.set_tile(i, k, a2);
            state.elim_t.insert((p, i, k), tfac);
        }
        (
            TaskKind::Tsmqr { p, i, j, .. } | TaskKind::Ttmqr { p, i, j, .. },
            Done::PairUpdate { a1, a2 },
        ) => {
            state.tiles.set_tile(p, j, a1);
            state.tiles.set_tile(i, j, a2);
        }
        _ => unreachable!("task/done kind mismatch"),
    }
}

/// Factor `tiled` over `graph` with `workers` threads, global-lock style.
/// Returns the factored tiles.
pub fn global_lock_factor(
    tiled: TiledMatrix<f64>,
    graph: &TaskGraph,
    workers: usize,
) -> Result<TiledMatrix<f64>> {
    let workers = workers.max(1);
    let shared = Mutex::new(Shared {
        state: State {
            tiles: tiled,
            geqrt_t: HashMap::new(),
            elim_t: HashMap::new(),
        },
        fifo: graph.sources().into(),
        remaining_preds: graph.indegrees(),
        completed: 0,
        failed: false,
    });
    let work_ready = Condvar::new();
    let total = graph.len();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Pop + stage under the one big lock, exactly like the seed.
                let (tid, task, staged) = {
                    let mut sh = shared.lock().expect("baseline lock");
                    loop {
                        if sh.completed == total || sh.failed {
                            return;
                        }
                        if let Some(tid) = sh.fifo.pop_front() {
                            let task = graph.task(tid);
                            let staged = stage(&sh.state, task);
                            break (tid, task, staged);
                        }
                        sh = work_ready.wait(sh).expect("baseline lock");
                    }
                };
                let done = compute(task, staged);
                let mut sh = shared.lock().expect("baseline lock");
                match done {
                    Ok(done) => {
                        commit(&mut sh.state, task, done);
                        sh.completed += 1;
                        for &s in graph.succs(tid) {
                            sh.remaining_preds[s] -= 1;
                            if sh.remaining_preds[s] == 0 {
                                sh.fifo.push_back(s);
                            }
                        }
                    }
                    Err(_) => sh.failed = true,
                }
                work_ready.notify_all();
            });
        }
    });

    let sh = shared.into_inner().expect("baseline lock");
    if sh.failed {
        Err(MatrixError::DimensionMismatch {
            op: "baseline factorization failed",
            lhs: (0, 0),
            rhs: (0, 0),
        })
    } else {
        Ok(sh.state.tiles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr::dag::EliminationOrder;
    use tileqr::gen::random_matrix;
    use tileqr::kernels::FactorState;

    #[test]
    fn baseline_matches_sequential() {
        let a = random_matrix::<f64>(32, 32, 31);
        let tiled = TiledMatrix::from_matrix(&a, 8).unwrap();
        let g = TaskGraph::build(4, 4, EliminationOrder::FlatTs);
        let mut seq = FactorState::new(tiled.clone());
        seq.run_all(&g).unwrap();
        let base = global_lock_factor(tiled, &g, 4).unwrap();
        assert_eq!(base.to_matrix(), seq.tiles().to_matrix());
    }
}
