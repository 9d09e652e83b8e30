//! Edge-for-edge equivalence of `TaskGraph::build_tree` with the original
//! hash-map data-flow builder, kept here as the reference.
//!
//! The reference lays out the same program order from the tree's public
//! rounds, derives each task's predecessors from a `HashMap` of per-tile
//! last writers and readers-since-write, and mirrors them into successor
//! lists by pushing in id order. The library graph must agree with it in
//! task order, in every `preds`/`succs` slice (content *and* order: FIFO
//! dispatch follows successor order), and in the FIFO list-schedule
//! makespan, bit for bit.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use tileqr_dag::{
    list_makespan, EliminationTree, KernelClass, MergeKind, TaskGraph, TaskId, TaskKind, TileCoord,
};

/// Program order of `build_tree`: per panel, `GEQRT` + `UNMQR`s on every
/// row that is not a TS victim, then the merge rounds.
fn program(mt: usize, nt: usize, tree: EliminationTree) -> Vec<TaskKind> {
    let mut out = Vec::new();
    for k in 0..mt.min(nt) {
        let m = mt - k;
        let factor = |out: &mut Vec<TaskKind>, i| {
            out.push(TaskKind::Geqrt { i, k });
            out.extend((k + 1..nt).map(|j| TaskKind::Unmqr { i, j, k }));
        };
        let merge = |out: &mut Vec<TaskKind>, kind, p, i| match kind {
            MergeKind::Ts => {
                out.push(TaskKind::Tsqrt { p, i, k });
                out.extend((k + 1..nt).map(|j| TaskKind::Tsmqr { p, i, j, k }));
            }
            MergeKind::Tt => {
                out.push(TaskKind::Ttqrt { p, i, k });
                out.extend((k + 1..nt).map(|j| TaskKind::Ttmqr { p, i, j, k }));
            }
        };
        let victims = tree.ts_victims(m);
        for li in (0..m).filter(|&li| !victims[li]) {
            factor(&mut out, k + li);
        }
        for op in tree.rounds(m).into_iter().flatten() {
            merge(&mut out, op.kind, k + op.pivot, k + op.victim);
        }
    }
    out
}

/// `(reads, writes)` of one task, as the original `Vec`-returning
/// access sets spelled them.
fn access(kind: TaskKind) -> (Vec<TileCoord>, Vec<TileCoord>) {
    match kind {
        TaskKind::Geqrt { i, k } => (vec![], vec![(i, k)]),
        TaskKind::Unmqr { i, j, k } => (vec![(i, k)], vec![(i, j)]),
        TaskKind::Tsqrt { p, i, k } | TaskKind::Ttqrt { p, i, k } => (vec![], vec![(p, k), (i, k)]),
        TaskKind::Tsmqr { p, i, j, k } | TaskKind::Ttmqr { p, i, j, k } => {
            (vec![(i, k)], vec![(p, j), (i, j)])
        }
    }
}

/// The original builder: `(preds, succs)` per task from a hash map of
/// per-tile data-flow state.
fn reference_edges(tasks: &[TaskKind]) -> (Vec<Vec<TaskId>>, Vec<Vec<TaskId>>) {
    #[derive(Default)]
    struct TileFlow {
        last_writer: Option<TaskId>,
        readers_since_write: Vec<TaskId>,
    }
    let mut flow: HashMap<TileCoord, TileFlow> = HashMap::new();
    let mut preds = Vec::new();
    for (id, &kind) in tasks.iter().enumerate() {
        let (reads, writes) = access(kind);
        let mut p: Vec<TaskId> = Vec::new();
        for tile in reads {
            let f = flow.entry(tile).or_default();
            p.extend(f.last_writer);
            f.readers_since_write.push(id);
        }
        for tile in writes {
            let f = flow.entry(tile).or_default();
            p.extend(f.last_writer);
            p.append(&mut f.readers_since_write);
            f.last_writer = Some(id);
        }
        p.sort_unstable();
        p.dedup();
        p.retain(|&q| q != id);
        preds.push(p);
    }
    let mut succs = vec![Vec::new(); tasks.len()];
    for (id, p) in preds.iter().enumerate() {
        for &q in p {
            succs[q].push(id);
        }
    }
    (preds, succs)
}

/// FIFO list schedule over the reference edges, the same replay as
/// `dag::list_makespan` (ties by task id).
fn reference_fifo(
    tasks: &[TaskKind],
    preds: &[Vec<TaskId>],
    succs: &[Vec<TaskId>],
    workers: usize,
    cost: impl Fn(TaskKind) -> f64,
) -> f64 {
    let mut left: Vec<usize> = preds.iter().map(Vec::len).collect();
    let mut ready: VecDeque<TaskId> = (0..tasks.len()).filter(|&t| left[t] == 0).collect();
    let mut running = BinaryHeap::new();
    let (mut now, mut done) = (0.0f64, 0);
    while done < tasks.len() {
        while running.len() < workers {
            let Some(t) = ready.pop_front() else { break };
            running.push(Reverse(((now + cost(tasks[t]).max(0.0)).to_bits(), t)));
        }
        let Reverse((finish, t)) = running.pop().unwrap();
        now = f64::from_bits(finish);
        done += 1;
        for &s in &succs[t] {
            left[s] -= 1;
            if left[s] == 0 {
                ready.push_back(s);
            }
        }
    }
    now
}

#[test]
fn csr_graph_matches_the_hash_map_builder_edge_for_edge() {
    let grids = [
        (1, 1),
        (1, 5),
        (5, 1),
        (6, 2),
        (5, 4),
        (4, 6),
        (64, 4),
        (256, 2),
        (32, 32),
    ];
    // Distinct weights per kernel class, so FIFO ties are not all equal.
    let cost = |k: TaskKind| 1.0 + 0.37 * KernelClass::of(k).slot() as f64;
    for (mt, nt) in grids {
        let mut trees = EliminationTree::zoo();
        trees.push(EliminationTree::Plateau(EliminationTree::tsqr_domain(mt)));
        for tree in trees {
            let g = TaskGraph::build_tree(mt, nt, tree);
            let tasks = program(mt, nt, tree);
            assert_eq!(g.tasks(), &tasks[..], "{tree} {mt}x{nt}: task order");
            let (preds, succs) = reference_edges(&tasks);
            for id in 0..tasks.len() {
                assert_eq!(g.preds(id), &preds[id][..], "{tree} {mt}x{nt}: preds({id})");
                assert_eq!(g.succs(id), &succs[id][..], "{tree} {mt}x{nt}: succs({id})");
            }
            let want: Vec<usize> = preds.iter().map(Vec::len).collect();
            assert_eq!(g.indegrees(), want, "{tree} {mt}x{nt}: indegrees");
            for k in [1, 4, 16] {
                let got = list_makespan(&g, k, None, cost);
                let want = reference_fifo(&tasks, &preds, &succs, k, cost);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{tree} {mt}x{nt}: FIFO makespan on {k} workers"
                );
            }
        }
    }
}
