//! Task-count formulas (paper Table I) and exact DAG cross-checks.
//!
//! Table I of the paper reports, for a remaining panel of `M` tile rows by
//! `N` tile columns, the number of tiles operated per step:
//!
//! | Step | Count        |
//! |------|--------------|
//! | T    | `M`          |
//! | E    | `M`          |
//! | UT   | `M × (N−1)`  |
//! | UE   | `M × (N−1)`  |
//!
//! The paper's model merges the panel column's T+E work as `M` tile
//! operations each (1 `GEQRT` + `M−1` `TSQRT`s touch `M` tiles) and lumps
//! update work as `M(N−1)` (`N−1` `UNMQR` + `(M−1)(N−1)` `TSMQR` =
//! `M(N−1)` update tasks). These coarse counts feed the `#tile` terms of
//! the device-count cost model (Eq. 10). [`exact_panel_counts`] gives the
//! exact kernel-level numbers; [`paper_table1`] the paper's reported ones.

use crate::tree::MergeKind;
use crate::{EliminationTree, StepClass, TaskGraph};

/// Exact kernel counts for one TS panel over a remaining `M x N` tile grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanelCounts {
    /// `GEQRT` invocations (always 1).
    pub geqrt: usize,
    /// `TSQRT` invocations (`M − 1`).
    pub tsqrt: usize,
    /// `UNMQR` invocations (`N − 1`).
    pub unmqr: usize,
    /// `TSMQR` invocations (`(M − 1)(N − 1)`).
    pub tsmqr: usize,
}

impl PanelCounts {
    /// Total kernel invocations in the panel.
    pub fn total(&self) -> usize {
        self.geqrt + self.tsqrt + self.unmqr + self.tsmqr
    }
}

/// Exact kernel counts for the first panel of a remaining `m x n` grid.
pub fn exact_panel_counts(m: usize, n: usize) -> PanelCounts {
    assert!(m > 0 && n > 0);
    PanelCounts {
        geqrt: 1,
        tsqrt: m - 1,
        unmqr: n - 1,
        tsmqr: (m - 1) * (n - 1),
    }
}

/// The paper's Table I values `(T, E, UT, UE)` for a remaining `m x n` grid.
pub fn paper_table1(m: usize, n: usize) -> (usize, usize, usize, usize) {
    (m, m, m * (n - 1), m * (n - 1))
}

/// Total kernel invocations of a full TS tiled QR on an `mt x nt` grid
/// (closed form, cross-checked against the DAG builder in tests).
pub fn total_ts_tasks(mt: usize, nt: usize) -> usize {
    let kmax = mt.min(nt);
    (0..kmax)
        .map(|k| exact_panel_counts(mt - k, nt - k).total())
        .sum()
}

/// Count tasks of each step class in a built graph: `(T, E, UT, UE)`.
pub fn class_totals(g: &TaskGraph) -> (usize, usize, usize, usize) {
    let mut t = 0;
    let mut e = 0;
    let mut ut = 0;
    let mut ue = 0;
    for task in g.tasks() {
        match task.class() {
            StepClass::Triangulation => t += 1,
            StepClass::Elimination => e += 1,
            StepClass::UpdateTriangulation => ut += 1,
            StepClass::UpdateElimination => ue += 1,
        }
    }
    (t, e, ut, ue)
}

/// Sanity helper used by the Table I reproduction: verifies that the paper's
/// coarse per-panel counts and the exact kernel counts agree on their sums
/// (`T + E = M` column tasks, `UT + UE = M(N−1)` update tasks).
pub fn table1_consistent(m: usize, n: usize) -> bool {
    let exact = exact_panel_counts(m, n);
    let (_t, e, _ut, ue) = paper_table1(m, n);
    exact.geqrt + exact.tsqrt == e && exact.unmqr + exact.tsmqr == ue
}

/// Exact per-panel counts read off a freshly built DAG (used to cross-check
/// the closed forms).
pub fn panel_counts_from_dag(m: usize, n: usize) -> PanelCounts {
    let g = TaskGraph::build_tree(m, n, EliminationTree::Flat);
    let mut c = PanelCounts {
        geqrt: 0,
        tsqrt: 0,
        unmqr: 0,
        tsmqr: 0,
    };
    for task in g.tasks().iter().filter(|t| t.panel() == 0) {
        match task.class() {
            StepClass::Triangulation => c.geqrt += 1,
            StepClass::Elimination => c.tsqrt += 1,
            StepClass::UpdateTriangulation => c.unmqr += 1,
            StepClass::UpdateElimination => c.tsmqr += 1,
        }
    }
    c
}

/// Exact per-kernel task counts of an arbitrary elimination tree on an
/// `mt x nt` grid, computed from the tree's merge schedule *without*
/// building the DAG (cross-checked against the builder in the testkit's
/// tree-property suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeCounts {
    /// `GEQRT` invocations (one per non-TS-victim panel row).
    pub geqrt: usize,
    /// `UNMQR` invocations (`geqrt` rows × trailing columns).
    pub unmqr: usize,
    /// `TSQRT` invocations (TS merges).
    pub tsqrt: usize,
    /// `TTQRT` invocations (TT merges).
    pub ttqrt: usize,
    /// `TSMQR` invocations (TS merges × trailing columns).
    pub tsmqr: usize,
    /// `TTMQR` invocations (TT merges × trailing columns).
    pub ttmqr: usize,
}

impl TreeCounts {
    /// Total kernel invocations.
    pub fn total(&self) -> usize {
        self.geqrt + self.unmqr + self.tsqrt + self.ttqrt + self.tsmqr + self.ttmqr
    }

    /// Step-class totals `(T, E, UT, UE)` in the paper's vocabulary.
    pub fn class_totals(&self) -> (usize, usize, usize, usize) {
        (
            self.geqrt,
            self.tsqrt + self.ttqrt,
            self.unmqr,
            self.tsmqr + self.ttmqr,
        )
    }
}

/// Exact kernel counts for a full tiled QR with `tree` on an `mt x nt`
/// grid. Every panel of `m` remaining rows contributes exactly `m - 1`
/// eliminations regardless of tree shape; the tree only moves kernels
/// between the TS and TT columns and sets the `GEQRT` count.
pub fn tree_counts(mt: usize, nt: usize, tree: EliminationTree) -> TreeCounts {
    assert!(mt > 0 && nt > 0);
    let mut c = TreeCounts {
        geqrt: 0,
        unmqr: 0,
        tsqrt: 0,
        ttqrt: 0,
        tsmqr: 0,
        ttmqr: 0,
    };
    let kmax = mt.min(nt);
    for k in 0..kmax {
        let m = mt - k;
        let trailing = nt - k - 1;
        let mut ts = 0;
        let mut tt = 0;
        for op in tree.rounds(m).into_iter().flatten() {
            match op.kind {
                MergeKind::Ts => ts += 1,
                MergeKind::Tt => tt += 1,
            }
        }
        debug_assert_eq!(ts + tt, m - 1, "every subdiagonal row merged once");
        let geqrt = m - ts;
        c.geqrt += geqrt;
        c.unmqr += geqrt * trailing;
        c.tsqrt += ts;
        c.ttqrt += tt;
        c.tsmqr += ts * trailing;
        c.ttmqr += tt * trailing;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskKind;

    #[test]
    fn closed_forms_match_dag() {
        for (m, n) in [(1, 1), (3, 3), (5, 2), (2, 5), (8, 8)] {
            assert_eq!(exact_panel_counts(m, n), panel_counts_from_dag(m, n));
            let g = TaskGraph::build_tree(m, n, EliminationTree::Flat);
            assert_eq!(g.len(), total_ts_tasks(m, n));
        }
    }

    #[test]
    fn paper_table1_sums_match_exact() {
        for (m, n) in [(1, 1), (2, 2), (4, 7), (10, 10), (100, 50)] {
            assert!(table1_consistent(m, n), "inconsistent at {m}x{n}");
        }
    }

    #[test]
    fn table1_values() {
        assert_eq!(paper_table1(5, 4), (5, 5, 15, 15));
        assert_eq!(paper_table1(1, 1), (1, 1, 0, 0));
    }

    #[test]
    fn class_totals_sum_to_len() {
        let g = TaskGraph::build_tree(6, 4, EliminationTree::Flat);
        let (t, e, ut, ue) = class_totals(&g);
        assert_eq!(t + e + ut + ue, g.len());
        assert_eq!(t, 4, "one GEQRT per panel");
    }

    #[test]
    fn tree_counts_match_dag_per_kind() {
        for tree in EliminationTree::zoo() {
            for (mt, nt) in [(1, 1), (6, 1), (6, 2), (5, 4), (3, 6), (8, 8)] {
                let g = TaskGraph::build_tree(mt, nt, tree);
                let c = tree_counts(mt, nt, tree);
                let count = |f: fn(&TaskKind) -> bool| g.tasks().iter().filter(|t| f(t)).count();
                assert_eq!(count(|t| matches!(t, TaskKind::Geqrt { .. })), c.geqrt);
                assert_eq!(count(|t| matches!(t, TaskKind::Unmqr { .. })), c.unmqr);
                assert_eq!(count(|t| matches!(t, TaskKind::Tsqrt { .. })), c.tsqrt);
                assert_eq!(count(|t| matches!(t, TaskKind::Ttqrt { .. })), c.ttqrt);
                assert_eq!(count(|t| matches!(t, TaskKind::Tsmqr { .. })), c.tsmqr);
                assert_eq!(count(|t| matches!(t, TaskKind::Ttmqr { .. })), c.ttmqr);
                assert_eq!(c.total(), g.len(), "{tree} {mt}x{nt}");
                assert_eq!(c.class_totals(), class_totals(&g));
            }
        }
    }

    #[test]
    fn flat_tree_counts_reduce_to_paper_forms() {
        for (mt, nt) in [(3, 3), (5, 2), (2, 5), (8, 8)] {
            let c = tree_counts(mt, nt, EliminationTree::Flat);
            assert_eq!(c.total(), total_ts_tasks(mt, nt));
            assert_eq!(c.ttqrt, 0);
            assert_eq!(c.ttmqr, 0);
            assert_eq!(c.geqrt, mt.min(nt), "one GEQRT per panel");
        }
    }
}
