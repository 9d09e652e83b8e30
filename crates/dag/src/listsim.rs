//! Deterministic list-scheduling makespan simulator: the runtime's
//! dispatch loop replayed on `w` identical workers stepping one
//! [`Frontier`], FIFO or by a lent [`Pick`], each task holding a worker for
//! its modelled duration. It answers the k-identical-cores questions — the
//! tree selector's "which tree finishes first on this profile?",
//! calibration's "would the fitted costs have predicted this run?", the
//! goldens' "does critical-path priority beat FIFO here?" — without
//! threads, noise, devices or a bus (`sim::engine`'s domain, DESIGN §7).
//! Completion ties break by task id: the result is a pure function of the
//! inputs.

use crate::graph::TaskGraph;
use crate::task::TaskKind;
use crate::topo::{Frontier, Pick};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated makespan of `graph` on `workers` identical workers, where
/// task `t` runs for `duration(kind)` time units and an idle worker takes
/// the oldest ready task, or the one `pick` chooses. Returns 0 for an
/// empty graph; panics when `workers == 0`.
pub fn list_makespan(
    graph: &TaskGraph,
    workers: usize,
    pick: Option<Pick<'_>>,
    duration: impl Fn(TaskKind) -> f64,
) -> f64 {
    assert!(workers > 0, "need at least one worker");
    let n = graph.len();
    if n == 0 {
        return 0.0;
    }
    let mut frontier = Frontier::new(graph);
    // Running tasks as a min-heap of (finish time, task id). Finish times
    // are never negative, so their bit patterns order like the values.
    // `workers` can come from a profile file: no more than `n` tasks ever
    // run at once, so never allocate by it.
    let mut running = BinaryHeap::with_capacity(workers.min(n));
    let mut now = 0.0f64;

    while frontier.completed() < n {
        // Fill idle workers from the ready set.
        while running.len() < workers {
            let Some(task) = frontier.pop(pick) else {
                break;
            };
            let finish = now + duration(graph.task(task)).max(0.0);
            running.push(Reverse((finish.to_bits(), task)));
        }
        // Advance to the next completion (earliest finish, ties by id).
        let Reverse((finish, task)) = running
            .pop()
            .expect("non-empty running set while tasks remain");
        now = f64::from_bits(finish);
        frontier.complete(graph, task, |_| {});
    }
    now
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical_path::bottom_levels;
    use crate::{EliminationTree, TaskId};

    fn unit(_: TaskKind) -> f64 {
        1.0
    }

    /// Pick the ready task with the highest level, the lower id on a tie.
    fn highest(levels: &[f64]) -> impl Fn(&[TaskId]) -> usize + '_ {
        |ready| {
            (0..ready.len())
                .max_by(|&i, &j| {
                    let (s, t) = (ready[i], ready[j]);
                    levels[s].total_cmp(&levels[t]).then(t.cmp(&s))
                })
                .expect("a non-empty ready set")
        }
    }

    #[test]
    fn serial_makespan_is_total_work() {
        let g = TaskGraph::build_tree(3, 3, EliminationTree::Flat);
        let m = list_makespan(&g, 1, None, unit);
        assert_eq!(m, g.len() as f64);
    }

    #[test]
    fn more_workers_never_hurt_with_unit_tasks() {
        let g = TaskGraph::build_tree(4, 4, EliminationTree::Flat);
        let m1 = list_makespan(&g, 1, None, unit);
        let m4 = list_makespan(&g, 4, None, unit);
        assert!(m4 <= m1);
        // Cannot beat the critical path.
        let cp = crate::critical_path::critical_path_length(&g, |_| 1.0);
        assert!(m4 >= cp);
    }

    #[test]
    fn deterministic_per_input() {
        let g = TaskGraph::build_tree(5, 4, EliminationTree::Flat);
        let levels = bottom_levels(&g, |_| 1.0);
        let a = list_makespan(&g, 3, Some(&highest(&levels)), unit);
        let b = list_makespan(&g, 3, Some(&highest(&levels)), unit);
        assert_eq!(a, b);
    }

    #[test]
    fn priority_matches_fifo_bound_on_serial_device() {
        // One worker executes the same total work regardless of order.
        let g = TaskGraph::build_tree(4, 3, EliminationTree::Flat);
        let levels = bottom_levels(&g, |_| 1.0);
        let f = list_makespan(&g, 1, None, unit);
        let p = list_makespan(&g, 1, Some(&highest(&levels)), unit);
        assert_eq!(f, p);
    }

    #[test]
    fn unbounded_workers_run_the_weighted_critical_path() {
        // `workers` reaches here from a stored profile: an absurd count
        // must neither allocate by it nor change the answer.
        let g = TaskGraph::build_tree(6, 4, EliminationTree::Greedy);
        let weight = |k: TaskKind| 1.0 + crate::KernelClass::of(k).slot() as f64;
        let cp = crate::critical_path::critical_path_length(&g, weight);
        assert_eq!(list_makespan(&g, usize::MAX, None, weight), cp);
    }

    #[test]
    fn empty_graph_is_zero() {
        let g = TaskGraph::build_tree(1, 1, EliminationTree::Flat);
        // A 1x1 grid has exactly one task; exercise the non-empty floor.
        assert_eq!(list_makespan(&g, 2, None, unit), 1.0);
    }
}
