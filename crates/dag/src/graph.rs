//! DAG construction from per-tile read/write sets.

use crate::task::{TaskId, TaskKind};
use crate::tree::{EliminationTree, MergeKind};
use std::sync::Arc;

/// The tiled-QR task DAG.
///
/// Tasks are stored in program order; edges are derived from tile-level
/// data-flow (read-after-write, write-after-read, write-after-write), which
/// reproduces exactly the dependence structure of the paper's Fig. 3.
/// Immutable once built: `clone()` is one reference count.
#[derive(Debug, Clone)]
pub struct TaskGraph {
    mt: usize,
    nt: usize,
    tree: EliminationTree,
    csr: Arc<Csr>,
}

/// Tasks and both edge directions in compressed-sparse-row form: task
/// `t`'s predecessors are `preds[pred_off[t]..pred_off[t + 1]]`, ascending,
/// and likewise its successors.
#[derive(Debug, Default)]
struct Csr {
    tasks: Vec<TaskKind>,
    pred_off: Vec<usize>,
    preds: Vec<TaskId>,
    succ_off: Vec<usize>,
    succs: Vec<TaskId>,
}

/// "No task has written this tile yet."
const NO_WRITER: TaskId = TaskId::MAX;

/// Incremental DAG builder: push tasks in program order and edges appear
/// from the declared tile accesses. Per-tile state is dense, indexed
/// `i * nt + j`, and predecessors go straight onto the flat CSR array.
struct Builder {
    nt: usize,
    csr: Csr,
    last_writer: Vec<TaskId>,
    readers_since_write: Vec<Vec<TaskId>>,
}

impl Builder {
    fn new(mt: usize, nt: usize) -> Self {
        Builder {
            nt,
            csr: Csr::default(),
            last_writer: vec![NO_WRITER; mt * nt],
            readers_since_write: vec![Vec::new(); mt * nt],
        }
    }

    fn push(&mut self, kind: TaskKind) {
        let id = self.csr.tasks.len();
        let preds = &mut self.csr.preds;
        let start = preds.len();
        self.csr.pred_off.push(start);
        for &(i, j) in kind.reads().iter() {
            let t = i * self.nt + j;
            if self.last_writer[t] != NO_WRITER {
                preds.push(self.last_writer[t]);
            }
            self.readers_since_write[t].push(id);
        }
        for &(i, j) in kind.writes().iter() {
            let t = i * self.nt + j;
            if self.last_writer[t] != NO_WRITER {
                preds.push(self.last_writer[t]);
            }
            preds.append(&mut self.readers_since_write[t]);
            self.last_writer[t] = id;
        }
        // Sort and deduplicate this task's tail in place. (A task's reads
        // and writes are disjoint, so it is never its own predecessor.)
        preds[start..].sort_unstable();
        let mut kept = start;
        for r in start..preds.len() {
            if kept == start || preds[kept - 1] != preds[r] {
                preds[kept] = preds[r];
                kept += 1;
            }
        }
        preds.truncate(kept);
        self.csr.tasks.push(kind);
    }

    /// Lay out the successors by one counting pass over the predecessors
    /// in id order, so each task's successors come out ascending.
    fn finish(mut self, mt: usize, nt: usize, tree: EliminationTree) -> TaskGraph {
        let c = &mut self.csr;
        let n = c.tasks.len();
        c.pred_off.push(c.preds.len());
        c.succ_off = vec![0; n + 1];
        for &p in &c.preds {
            c.succ_off[p + 1] += 1;
        }
        for t in 0..n {
            c.succ_off[t + 1] += c.succ_off[t];
        }
        let mut next = c.succ_off.clone();
        c.succs = vec![0; c.preds.len()];
        for id in 0..n {
            for &p in &c.preds[c.pred_off[id]..c.pred_off[id + 1]] {
                c.succs[next[p]] = id;
                next[p] += 1;
            }
        }
        TaskGraph {
            mt,
            nt,
            tree,
            csr: Arc::new(self.csr),
        }
    }
}

impl TaskGraph {
    /// Build the DAG for an `mt x nt` tile grid with any tree from the
    /// elimination zoo. Per panel `k` the builder emits one `GEQRT` (plus
    /// its `UNMQR` row updates) for every panel row that is not a TS
    /// victim, then the tree's merge rounds in order — so program order
    /// is always a valid topological order. Panics if the grid is empty
    /// or the tree is a plateau of zero-row domains.
    pub fn build_tree(mt: usize, nt: usize, tree: EliminationTree) -> Self {
        assert!(mt > 0 && nt > 0, "empty tile grid");
        let mut b = Builder::new(mt, nt);
        let kmax = mt.min(nt);
        for k in 0..kmax {
            let m = mt - k;
            let ts_victim = tree.ts_victims(m);
            for (li, &is_ts_victim) in ts_victim.iter().enumerate() {
                if is_ts_victim {
                    continue;
                }
                let i = k + li;
                b.push(TaskKind::Geqrt { i, k });
                for j in k + 1..nt {
                    b.push(TaskKind::Unmqr { i, j, k });
                }
            }
            for round in tree.rounds(m) {
                for op in round {
                    let p = k + op.pivot;
                    let i = k + op.victim;
                    match op.kind {
                        MergeKind::Ts => {
                            b.push(TaskKind::Tsqrt { p, i, k });
                            for j in k + 1..nt {
                                b.push(TaskKind::Tsmqr { p, i, j, k });
                            }
                        }
                        MergeKind::Tt => {
                            b.push(TaskKind::Ttqrt { p, i, k });
                            for j in k + 1..nt {
                                b.push(TaskKind::Ttmqr { p, i, j, k });
                            }
                        }
                    }
                }
            }
        }
        b.finish(mt, nt, tree)
    }

    /// Number of tile rows.
    pub fn tile_rows(&self) -> usize {
        self.mt
    }

    /// Number of tile columns.
    pub fn tile_cols(&self) -> usize {
        self.nt
    }

    /// The elimination tree this DAG was built with.
    pub fn tree(&self) -> EliminationTree {
        self.tree
    }

    /// Total number of tasks.
    pub fn len(&self) -> usize {
        self.csr.tasks.len()
    }

    /// `true` when the graph has no tasks (never happens for valid grids).
    pub fn is_empty(&self) -> bool {
        self.csr.tasks.is_empty()
    }

    /// Task kind of `id`.
    pub fn task(&self, id: TaskId) -> TaskKind {
        self.csr.tasks[id]
    }

    /// All tasks in program order.
    pub fn tasks(&self) -> &[TaskKind] {
        &self.csr.tasks
    }

    /// Direct predecessors of `id`, ascending.
    pub fn preds(&self, id: TaskId) -> &[TaskId] {
        &self.csr.preds[self.csr.pred_off[id]..self.csr.pred_off[id + 1]]
    }

    /// Direct successors of `id`, ascending.
    pub fn succs(&self, id: TaskId) -> &[TaskId] {
        &self.csr.succs[self.csr.succ_off[id]..self.csr.succ_off[id + 1]]
    }

    /// In-degree vector (predecessor counts): the starting state of a
    /// [`Frontier`](crate::Frontier) and of `sim::engine`'s device queues.
    pub fn indegrees(&self) -> Vec<usize> {
        self.csr.pred_off.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Ids of tasks with no predecessors.
    pub fn sources(&self) -> Vec<TaskId> {
        (0..self.len())
            .filter(|&i| self.preds(i).is_empty())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StepClass;

    #[test]
    fn three_by_three_ts_matches_paper_fig2() {
        // Paper Fig. 2: a 3x3 grid runs 3 panels; panel k has
        // 1 GEQRT, (3-k-1) TSQRT, (3-k-1) UNMQR, (3-k-1)^2 TSMQR.
        let g = TaskGraph::build_tree(3, 3, EliminationTree::Flat);
        let count = |c: StepClass| g.tasks().iter().filter(|t| t.class() == c).count();
        assert_eq!(count(StepClass::Triangulation), 3);
        assert_eq!(count(StepClass::Elimination), 2 + 1);
        assert_eq!(count(StepClass::UpdateTriangulation), 2 + 1);
        assert_eq!(count(StepClass::UpdateElimination), 4 + 1);
        assert_eq!(g.len(), 3 + 3 + 3 + 5);
    }

    #[test]
    fn first_geqrt_is_sole_source_in_ts() {
        let g = TaskGraph::build_tree(4, 4, EliminationTree::Flat);
        let sources = g.sources();
        assert_eq!(sources, vec![0]);
        assert_eq!(g.task(0), TaskKind::Geqrt { i: 0, k: 0 });
    }

    #[test]
    fn fig3_dependencies_present() {
        // Check the canonical edges of the paper's Fig. 3 on a 3x3 grid:
        // T(0) -> UT(0,j), T(0) -> E(0,1,0), E chain, E -> UE, UE -> next T.
        let g = TaskGraph::build_tree(3, 3, EliminationTree::Flat);
        let find = |kind: TaskKind| {
            g.tasks()
                .iter()
                .position(|&t| t == kind)
                .unwrap_or_else(|| panic!("missing {kind:?}"))
        };
        let t0 = find(TaskKind::Geqrt { i: 0, k: 0 });
        let ut01 = find(TaskKind::Unmqr { i: 0, j: 1, k: 0 });
        let e010 = find(TaskKind::Tsqrt { p: 0, i: 1, k: 0 });
        let e020 = find(TaskKind::Tsqrt { p: 0, i: 2, k: 0 });
        let ue0110 = find(TaskKind::Tsmqr {
            p: 0,
            i: 1,
            j: 1,
            k: 0,
        });
        let ue0210 = find(TaskKind::Tsmqr {
            p: 0,
            i: 2,
            j: 1,
            k: 0,
        });
        let t1 = find(TaskKind::Geqrt { i: 1, k: 1 });

        assert!(g.preds(ut01).contains(&t0), "T -> UT");
        assert!(g.preds(e010).contains(&t0), "T -> E (chain head)");
        assert!(g.preds(e020).contains(&e010), "E -> E (sequential chain)");
        assert!(g.preds(ue0110).contains(&e010), "E -> UE");
        assert!(g.preds(ue0110).contains(&ut01), "UT -> UE (row tile)");
        // Next-panel GEQRT waits for the last update of tile (1,1).
        assert!(g.preds(t1).contains(&ue0110) || g.preds(t1).contains(&ue0210));
    }

    #[test]
    fn single_tile_grid() {
        let g = TaskGraph::build_tree(1, 1, EliminationTree::Flat);
        assert_eq!(g.len(), 1);
        assert_eq!(g.task(0), TaskKind::Geqrt { i: 0, k: 0 });
        assert!(g.preds(0).is_empty());
        assert!(g.succs(0).is_empty());
    }

    #[test]
    fn tall_grid_counts() {
        // 5x2 grid, TS: panel 0: 1 T + 4 E + 1 UT + 4 UE; panel 1: 1 T + 3 E.
        let g = TaskGraph::build_tree(5, 2, EliminationTree::Flat);
        assert_eq!(g.len(), (1 + 4 + 1 + 4) + (1 + 3));
    }

    #[test]
    fn wide_grid_counts() {
        // 2x5 grid, TS: panel 0: 1 T + 1 E + 4 UT + 4 UE; panel 1: 1 T + 3 UT.
        let g = TaskGraph::build_tree(2, 5, EliminationTree::Flat);
        assert_eq!(g.len(), (1 + 1 + 4 + 4) + (1 + 3));
    }

    #[test]
    fn binary_tt_has_log_depth_eliminations() {
        // 8 rows, 1 column: flat TS needs a 7-long chain; binary TT pairs
        // rows in 3 rounds (4 + 2 + 1 TTQRTs).
        let g = TaskGraph::build_tree(8, 1, EliminationTree::Binary);
        let ttqrts: Vec<_> = g
            .tasks()
            .iter()
            .filter(|t| matches!(t, TaskKind::Ttqrt { .. }))
            .collect();
        assert_eq!(ttqrts.len(), 7);
        let geqrts = g
            .tasks()
            .iter()
            .filter(|t| matches!(t, TaskKind::Geqrt { .. }))
            .count();
        assert_eq!(geqrts, 8);
    }

    #[test]
    fn flat_tt_counts() {
        let g = TaskGraph::build_tree(4, 1, EliminationTree::FlatTt);
        let geqrts = g
            .tasks()
            .iter()
            .filter(|t| matches!(t, TaskKind::Geqrt { .. }))
            .count();
        assert_eq!(geqrts, 4);
        let tts = g
            .tasks()
            .iter()
            .filter(|t| matches!(t, TaskKind::Ttqrt { .. }))
            .count();
        assert_eq!(tts, 3);
    }

    #[test]
    fn succs_mirror_preds() {
        let g = TaskGraph::build_tree(4, 4, EliminationTree::Flat);
        for id in 0..g.len() {
            for &p in g.preds(id) {
                assert!(g.succs(p).contains(&id));
            }
            for &s in g.succs(id) {
                assert!(g.preds(s).contains(&id));
            }
        }
    }

    #[test]
    fn edges_point_forward_in_program_order() {
        // Program order is a valid topological order by construction.
        for order in [
            EliminationTree::Flat,
            EliminationTree::FlatTt,
            EliminationTree::Binary,
        ] {
            let g = TaskGraph::build_tree(5, 4, order);
            for id in 0..g.len() {
                for &p in g.preds(id) {
                    assert!(p < id, "{order:?}: back edge {p} -> {id}");
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn empty_grid_panics() {
        let _ = TaskGraph::build_tree(0, 3, EliminationTree::Flat);
    }

    #[test]
    fn every_tree_edges_point_forward() {
        for tree in EliminationTree::zoo() {
            for (mt, nt) in [(1, 1), (5, 1), (6, 2), (5, 4), (4, 6)] {
                let g = TaskGraph::build_tree(mt, nt, tree);
                assert_eq!(g.tree(), tree);
                for id in 0..g.len() {
                    for &p in g.preds(id) {
                        assert!(p < id, "{tree}: back edge {p} -> {id}");
                    }
                }
            }
        }
    }

    #[test]
    fn tsqr_fast_path_beats_flat_critical_path() {
        // The TSQR tree `Auto` picks takes fewer unit critical-path steps
        // than the paper's flat chain on p x 1 tall-skinny grids.
        for p in [4, 8, 16, 32] {
            let d = EliminationTree::tsqr_domain(p);
            let flat = TaskGraph::build_tree(p, 1, EliminationTree::Flat);
            let tsqr = TaskGraph::build_tree(p, 1, EliminationTree::Plateau(d));
            let unit = |_: TaskKind| 1.0;
            let flat_cp = crate::critical_path::critical_path_length(&flat, unit);
            let tsqr_cp = crate::critical_path::critical_path_length(&tsqr, unit);
            assert!(tsqr_cp < flat_cp, "p={p}: tsqr {tsqr_cp} !< flat {flat_cp}");
        }
    }
}
