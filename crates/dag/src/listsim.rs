//! Deterministic list-scheduling makespan simulator.
//!
//! A minimal discrete-event replay of the runtime's manager loop: `w`
//! identical workers, a ready set ordered either FIFO (by readiness) or
//! by static priority, each task occupying one worker for its modelled
//! duration. It exists to answer scheduling questions *about the order
//! itself* — e.g. "does critical-path priority under calibrated weights
//! beat FIFO on this grid?" — without threads, noise, or a full platform
//! model, so goldens can assert makespan inequalities exactly.
//!
//! Every tie (ready order, completion order) breaks by task id, so the
//! simulation is a pure function of its inputs.

use crate::graph::TaskGraph;
use crate::task::TaskKind;

/// Ready-set ordering replayed by [`list_makespan`].
#[derive(Debug, Clone, Copy)]
pub enum ListOrder<'a> {
    /// Dispatch in readiness order (the runtime's FIFO policy).
    Fifo,
    /// Dispatch the ready task with the highest priority (ties to the
    /// lower task id) — the runtime's critical-path policy when fed
    /// bottom-level priorities.
    Priority(&'a [f64]),
}

/// Simulated makespan of `graph` on `workers` identical workers, where
/// task `t` runs for `duration(kind)` time units. Returns 0 for an empty
/// graph; panics when `workers == 0`.
pub fn list_makespan(
    graph: &TaskGraph,
    workers: usize,
    order: ListOrder<'_>,
    duration: impl Fn(TaskKind) -> f64,
) -> f64 {
    assert!(workers > 0, "need at least one worker");
    let n = graph.len();
    if n == 0 {
        return 0.0;
    }
    if let ListOrder::Priority(p) = order {
        assert_eq!(p.len(), n, "one priority per task");
    }

    let mut remaining_preds: Vec<usize> = graph.indegrees();
    // Ready pool: FIFO keeps arrival order; priority scans for the max.
    let mut ready: Vec<usize> = (0..n).filter(|&t| remaining_preds[t] == 0).collect();
    // Running tasks as (finish_time, task id); at most `workers` entries,
    // so linear scans stay cheap.
    let mut running: Vec<(f64, usize)> = Vec::with_capacity(workers);
    let mut now = 0.0f64;
    let mut done = 0usize;

    while done < n {
        // Fill idle workers from the ready pool.
        while running.len() < workers && !ready.is_empty() {
            let pick = match order {
                ListOrder::Fifo => 0,
                ListOrder::Priority(p) => {
                    let mut best = 0;
                    for (i, &t) in ready.iter().enumerate() {
                        let (bt, bp) = (ready[best], p[ready[best]]);
                        // Higher priority wins; ties go to the lower id.
                        if p[t] > bp || (p[t] == bp && t < bt) {
                            best = i;
                        }
                    }
                    best
                }
            };
            let task = ready.remove(pick);
            running.push((now + duration(graph.task(task)).max(0.0), task));
        }
        // Advance to the next completion (earliest finish, ties by id).
        let idx = running
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(i, _)| i)
            .expect("non-empty running set while tasks remain");
        let (finish, task) = running.swap_remove(idx);
        now = finish;
        done += 1;
        for &s in graph.succs(task) {
            remaining_preds[s] -= 1;
            if remaining_preds[s] == 0 {
                ready.push(s);
            }
        }
    }
    now
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical_path::bottom_levels;
    use crate::EliminationTree;

    fn unit(_: TaskKind) -> f64 {
        1.0
    }

    #[test]
    fn serial_makespan_is_total_work() {
        let g = TaskGraph::build_tree(3, 3, EliminationTree::Flat);
        let m = list_makespan(&g, 1, ListOrder::Fifo, unit);
        assert_eq!(m, g.len() as f64);
    }

    #[test]
    fn more_workers_never_hurt_with_unit_tasks() {
        let g = TaskGraph::build_tree(4, 4, EliminationTree::Flat);
        let m1 = list_makespan(&g, 1, ListOrder::Fifo, unit);
        let m4 = list_makespan(&g, 4, ListOrder::Fifo, unit);
        assert!(m4 <= m1);
        // Cannot beat the critical path.
        let cp = crate::critical_path::critical_path_length(&g, |_| 1.0);
        assert!(m4 >= cp);
    }

    #[test]
    fn deterministic_per_input() {
        let g = TaskGraph::build_tree(5, 4, EliminationTree::Flat);
        let levels = bottom_levels(&g, |_| 1.0);
        let a = list_makespan(&g, 3, ListOrder::Priority(&levels), unit);
        let b = list_makespan(&g, 3, ListOrder::Priority(&levels), unit);
        assert_eq!(a, b);
    }

    #[test]
    fn priority_matches_fifo_bound_on_serial_device() {
        // One worker executes the same total work regardless of order.
        let g = TaskGraph::build_tree(4, 3, EliminationTree::Flat);
        let levels = bottom_levels(&g, |_| 1.0);
        let f = list_makespan(&g, 1, ListOrder::Fifo, unit);
        let p = list_makespan(&g, 1, ListOrder::Priority(&levels), unit);
        assert_eq!(f, p);
    }

    #[test]
    fn empty_graph_is_zero() {
        let g = TaskGraph::build_tree(1, 1, EliminationTree::Flat);
        // A 1x1 grid has exactly one task; exercise the non-empty floor.
        assert_eq!(list_makespan(&g, 2, ListOrder::Fifo, unit), 1.0);
    }
}
