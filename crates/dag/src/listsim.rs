//! Deterministic list-scheduling makespan simulator.
//!
//! A minimal discrete-event replay of the runtime's dispatch loop: `w`
//! identical workers, a ready set ordered either FIFO (by readiness) or
//! by static priority, each task occupying one worker for its modelled
//! duration. It answers the k-identical-cores questions — the tree
//! selector's "which tree finishes first on this profile?", calibration's
//! "would the fitted costs have predicted this run?", the goldens' "does
//! critical-path priority beat FIFO here?" — without threads, noise, or
//! a device and bus model (that is `sim::engine`'s domain, DESIGN §7).
//!
//! Every tie (ready order, completion order) breaks by task id, so the
//! simulation is a pure function of its inputs.

use crate::graph::TaskGraph;
use crate::task::TaskKind;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Ready-set ordering replayed by [`list_makespan`].
#[derive(Debug, Clone, Copy)]
pub enum ListOrder<'a> {
    /// Dispatch in readiness order (the runtime's one dispatch order).
    Fifo,
    /// Dispatch the ready task with the highest priority (ties to the
    /// lower task id) — the runtime's critical-path test adversary when
    /// fed flop bottom-level priorities.
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
    let mut ready: VecDeque<usize> = (0..n).filter(|&t| remaining_preds[t] == 0).collect();
    // Running tasks as a min-heap of (finish time, task id). Finish times
    // are never negative, so their bit patterns order like the values.
    // `workers` can come from a profile file: no more than `n` tasks ever
    // run at once, so never allocate by it.
    let mut running = BinaryHeap::with_capacity(workers.min(n));
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
            let task = ready.remove(pick).expect("pick indexes the ready pool");
            let finish = now + duration(graph.task(task)).max(0.0);
            running.push(Reverse((finish.to_bits(), task)));
        }
        // Advance to the next completion (earliest finish, ties by id).
        let Reverse((finish, task)) = running
            .pop()
            .expect("non-empty running set while tasks remain");
        now = f64::from_bits(finish);
        done += 1;
        for &s in graph.succs(task) {
            remaining_preds[s] -= 1;
            if remaining_preds[s] == 0 {
                ready.push_back(s);
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
    fn unbounded_workers_run_the_weighted_critical_path() {
        // `workers` reaches here from a stored profile: an absurd count
        // must neither allocate by it nor change the answer.
        let g = TaskGraph::build_tree(6, 4, EliminationTree::Greedy);
        let weight = |k: TaskKind| 1.0 + crate::KernelClass::of(k).slot() as f64;
        let cp = crate::critical_path::critical_path_length(&g, weight);
        assert_eq!(list_makespan(&g, usize::MAX, ListOrder::Fifo, weight), cp);
    }

    #[test]
    fn empty_graph_is_zero() {
        let g = TaskGraph::build_tree(1, 1, EliminationTree::Flat);
        // A 1x1 grid has exactly one task; exercise the non-empty floor.
        assert_eq!(list_makespan(&g, 2, ListOrder::Fifo, unit), 1.0);
    }
}
