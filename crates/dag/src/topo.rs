//! Topological iteration and ready-set simulation over a [`TaskGraph`].

use crate::{TaskGraph, TaskId};
use std::collections::VecDeque;

/// A topological order of the graph (Kahn's algorithm, FIFO tie-break, so
/// the result is deterministic and equals program order for our builders).
pub fn topological_order(g: &TaskGraph) -> Vec<TaskId> {
    let mut indeg = g.indegrees();
    let mut queue: VecDeque<TaskId> = g.sources().into();
    let mut out = Vec::with_capacity(g.len());
    while let Some(id) = queue.pop_front() {
        out.push(id);
        for &s in g.succs(id) {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                queue.push_back(s);
            }
        }
    }
    out
}

/// `true` when the graph is acyclic (every task is reachable by Kahn's
/// algorithm). Our builders guarantee this; the check exists for tests and
/// for hand-built graphs.
pub fn is_acyclic(g: &TaskGraph) -> bool {
    topological_order(g).len() == g.len()
}

/// Maximum-parallelism profile: runs the DAG with an infinite number of
/// workers where every task takes one time unit, returning the number of
/// tasks executed at each step. The profile length is the unit-weight
/// critical-path length; its maximum is the peak task parallelism —
/// the quantity that motivates giving update steps to wide devices
/// (paper §III-A/B).
pub fn parallelism_profile(g: &TaskGraph) -> Vec<usize> {
    let mut indeg = g.indegrees();
    let mut frontier: Vec<TaskId> = g.sources();
    let mut profile = Vec::new();
    while !frontier.is_empty() {
        profile.push(frontier.len());
        let mut next = Vec::new();
        for &id in &frontier {
            for &s in g.succs(id) {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    next.push(s);
                }
            }
        }
        frontier = next;
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EliminationTree;

    #[test]
    fn topo_order_respects_edges() {
        let g = TaskGraph::build_tree(4, 4, EliminationTree::Flat);
        let order = topological_order(&g);
        assert_eq!(order.len(), g.len());
        let mut pos = vec![0usize; g.len()];
        for (idx, &id) in order.iter().enumerate() {
            pos[id] = idx;
        }
        for id in 0..g.len() {
            for &p in g.preds(id) {
                assert!(pos[p] < pos[id]);
            }
        }
    }

    #[test]
    fn builders_are_acyclic() {
        for order in [
            EliminationTree::Flat,
            EliminationTree::FlatTt,
            EliminationTree::Binary,
        ] {
            assert!(is_acyclic(&TaskGraph::build_tree(6, 5, order)));
        }
    }

    #[test]
    fn profile_sums_to_task_count() {
        let g = TaskGraph::build_tree(5, 5, EliminationTree::Flat);
        let profile = parallelism_profile(&g);
        assert_eq!(profile.iter().sum::<usize>(), g.len());
        assert_eq!(profile[0], 1, "only the first GEQRT is initially ready");
    }

    #[test]
    fn wider_grids_expose_more_parallelism() {
        let narrow = parallelism_profile(&TaskGraph::build_tree(4, 4, EliminationTree::Flat));
        let wide = parallelism_profile(&TaskGraph::build_tree(8, 8, EliminationTree::Flat));
        assert!(
            wide.iter().max().unwrap() > narrow.iter().max().unwrap(),
            "peak parallelism must grow with grid size"
        );
    }

    #[test]
    fn binary_tree_shortens_profile_on_tall_grid() {
        let flat = parallelism_profile(&TaskGraph::build_tree(16, 1, EliminationTree::Flat));
        let tree = parallelism_profile(&TaskGraph::build_tree(16, 1, EliminationTree::Binary));
        assert!(
            tree.len() < flat.len(),
            "binary tree depth {} !< flat chain depth {}",
            tree.len(),
            flat.len()
        );
    }
}
