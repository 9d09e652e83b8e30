//! Weighted critical-path analysis.

use crate::{TaskGraph, TaskId, TaskKind};

/// Length of the longest path through the DAG where each task's duration
/// comes from `weight`. With `|_| 1.0` this is the unit-depth of the graph;
/// with a device timing model it lower-bounds any schedule's makespan.
pub fn critical_path_length(g: &TaskGraph, weight: impl Fn(TaskKind) -> f64) -> f64 {
    finish_times(g, weight).into_iter().fold(0.0, f64::max)
}

/// Earliest-finish time of every task under infinite parallelism, in
/// program order: `build_tree`, a graph's only constructor, emits every
/// task after its predecessors.
pub fn finish_times(g: &TaskGraph, weight: impl Fn(TaskKind) -> f64) -> Vec<f64> {
    let mut finish = vec![0.0f64; g.len()];
    for id in 0..g.len() {
        let start = g
            .preds(id)
            .iter()
            .map(|&p| finish[p])
            .fold(0.0f64, f64::max);
        finish[id] = start + weight(g.task(id));
    }
    finish
}

/// Bottom level of every task: the weighted length of the longest path
/// from the task (inclusive) to any sink. This is the classic static
/// list-scheduling priority — dispatching the highest bottom level first
/// keeps the DAG's critical path moving and is exactly the
/// "triangulation before updates" preference of the paper's Alg. 2,
/// derived from weights instead of hard-coded kernel classes. Walks
/// program order backwards.
pub fn bottom_levels(g: &TaskGraph, weight: impl Fn(TaskKind) -> f64) -> Vec<f64> {
    let mut level = vec![0.0f64; g.len()];
    for id in (0..g.len()).rev() {
        let tail = g.succs(id).iter().map(|&s| level[s]).fold(0.0f64, f64::max);
        level[id] = tail + weight(g.task(id));
    }
    level
}

/// The tasks on (one) critical path, from source to sink.
pub fn critical_path(g: &TaskGraph, weight: impl Fn(TaskKind) -> f64) -> Vec<TaskId> {
    let finish = finish_times(g, &weight);
    let mut cur = (0..g.len())
        .max_by(|&a, &b| finish[a].total_cmp(&finish[b]))
        .expect("non-empty graph");
    let mut path = vec![cur];
    while !g.preds(cur).is_empty() {
        cur = *g
            .preds(cur)
            .iter()
            .max_by(|&&a, &&b| finish[a].total_cmp(&finish[b]))
            .expect("non-empty preds");
        path.push(cur);
    }
    path.reverse();
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EliminationTree, StepClass};

    #[test]
    fn unit_depth_of_single_task() {
        let g = TaskGraph::build_tree(1, 1, EliminationTree::Flat);
        assert_eq!(critical_path_length(&g, |_| 1.0), 1.0);
    }

    #[test]
    fn unit_depth_grows_with_grid() {
        let d3 = critical_path_length(&TaskGraph::build_tree(3, 3, EliminationTree::Flat), |_| 1.0);
        let d6 = critical_path_length(&TaskGraph::build_tree(6, 6, EliminationTree::Flat), |_| 1.0);
        assert!(d6 > d3);
    }

    #[test]
    fn path_is_connected_and_maximal() {
        let g = TaskGraph::build_tree(4, 4, EliminationTree::Flat);
        let path = critical_path(&g, |_| 1.0);
        assert_eq!(path.len() as f64, critical_path_length(&g, |_| 1.0));
        for w in path.windows(2) {
            assert!(g.preds(w[1]).contains(&w[0]));
        }
        assert!(g.preds(path[0]).is_empty());
    }

    #[test]
    fn weights_shift_the_path_through_expensive_tasks() {
        // Make eliminations enormously expensive: the critical path must be
        // dominated by E tasks.
        let g = TaskGraph::build_tree(5, 5, EliminationTree::Flat);
        let w = |t: TaskKind| match t.class() {
            StepClass::Elimination => 100.0,
            _ => 1.0,
        };
        let path = critical_path(&g, w);
        let e_count = path
            .iter()
            .filter(|&&id| g.task(id).class() == StepClass::Elimination)
            .count();
        assert!(
            e_count >= 4,
            "critical path should traverse the E chain, found {e_count} E tasks"
        );
    }

    #[test]
    fn bottom_levels_match_critical_path_length() {
        // max over sources of bottom level == critical path length, and
        // every edge must be monotone: pred level > succ level.
        let g = TaskGraph::build_tree(4, 4, EliminationTree::Flat);
        let w = |t: TaskKind| match t.class() {
            StepClass::Triangulation => 3.0,
            StepClass::Elimination => 5.0,
            _ => 1.0,
        };
        let levels = bottom_levels(&g, w);
        let cpl = critical_path_length(&g, w);
        let max_level = levels.iter().copied().fold(0.0f64, f64::max);
        assert!((max_level - cpl).abs() < 1e-9, "{max_level} vs {cpl}");
        for id in 0..g.len() {
            for &s in g.succs(id) {
                assert!(
                    levels[id] > levels[s],
                    "bottom level must strictly decrease along edges"
                );
            }
        }
    }

    #[test]
    fn bottom_level_prefers_panel_factorization() {
        // The GEQRT unlocking a whole trailing submatrix must outrank the
        // bulk updates of the previous panel — the heart of critical-path
        // dispatch.
        let g = TaskGraph::build_tree(6, 6, EliminationTree::Flat);
        let levels = bottom_levels(&g, |_| 1.0);
        let mut geqrt_level = None;
        let mut update_level = None;
        for (id, &level) in levels.iter().enumerate() {
            match g.task(id) {
                TaskKind::Geqrt { i: 1, k: 1 } => geqrt_level = Some(level),
                TaskKind::Tsmqr {
                    p: 0,
                    i: 5,
                    j: 5,
                    k: 0,
                } => update_level = Some(level),
                _ => {}
            }
        }
        let (gl, ul) = (geqrt_level.unwrap(), update_level.unwrap());
        assert!(
            gl > ul,
            "GEQRT(1,1) level {gl} must exceed trailing update {ul}"
        );
    }

    #[test]
    fn binary_tree_shortens_weighted_path() {
        let w = |_| 1.0;
        let flat = critical_path_length(&TaskGraph::build_tree(32, 2, EliminationTree::Flat), w);
        let tree = critical_path_length(&TaskGraph::build_tree(32, 2, EliminationTree::Binary), w);
        assert!(tree < flat, "tree {tree} !< flat {flat}");
    }
}
