//! Paper Table I: the number of tiles operated per step for a remaining
//! `M x N` panel, cross-checked against the exact DAG.

use tileqr::dag::{counts, EliminationTree, StepClass, TaskGraph};

#[test]
fn table1_formulas_hold_for_every_panel() {
    // Walk a real factorization DAG panel by panel and verify the paper's
    // accounting identities: T+E tasks = M, UT+UE tasks = M(N-1).
    let (mt, nt) = (9, 7);
    let g = TaskGraph::build_tree(mt, nt, EliminationTree::Flat);
    for k in 0..mt.min(nt) {
        let m = mt - k;
        let n = nt - k;
        let (t1_t, t1_e, t1_ut, t1_ue) = counts::paper_table1(m, n);
        assert_eq!(t1_t, m);
        assert_eq!(t1_e, m);
        assert_eq!(t1_ut, m * (n - 1));
        assert_eq!(t1_ue, m * (n - 1));

        let mut te = 0;
        let mut upd = 0;
        for task in g.tasks().iter().filter(|t| t.panel() == k) {
            match task.class() {
                StepClass::Triangulation | StepClass::Elimination => te += 1,
                StepClass::UpdateTriangulation | StepClass::UpdateElimination => upd += 1,
            }
        }
        assert_eq!(te, m, "panel {k}: T+E tasks");
        assert_eq!(upd, m * (n - 1), "panel {k}: UT+UE tasks");
    }
}

#[test]
fn exact_counts_match_dag_for_many_shapes() {
    for (m, n) in [(1, 1), (2, 3), (7, 7), (12, 5), (5, 12), (20, 20)] {
        let exact = counts::exact_panel_counts(m, n);
        let from_dag = counts::panel_counts_from_dag(m, n);
        assert_eq!(exact, from_dag, "{m}x{n}");
        assert!(counts::table1_consistent(m, n));
    }
}

#[test]
fn total_task_count_closed_form() {
    for (m, n) in [(4, 4), (10, 6), (6, 10), (16, 16)] {
        let g = TaskGraph::build_tree(m, n, EliminationTree::Flat);
        assert_eq!(g.len(), counts::total_ts_tasks(m, n), "{m}x{n}");
    }
}

#[test]
fn class_totals_reconcile() {
    let g = TaskGraph::build_tree(10, 10, EliminationTree::Flat);
    let (t, e, ut, ue) = counts::class_totals(&g);
    // One GEQRT per panel; eliminations sum over panels of (M-k-1).
    assert_eq!(t, 10);
    assert_eq!(e, (0..10).map(|k| 10 - k - 1).sum::<usize>());
    assert_eq!(ut, (0..10).map(|k| 10 - k - 1).sum::<usize>());
    assert_eq!(
        ue,
        (0..10).map(|k| (10 - k - 1) * (10 - k - 1)).sum::<usize>()
    );
}
