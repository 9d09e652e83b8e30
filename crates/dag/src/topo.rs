//! Readiness over a [`TaskGraph`], written once: a [`Frontier`] readies a
//! task when its last predecessor completes (the paper's Fig. 7 manager
//! loop). The host driver's `DagRun`, [`list_makespan`](crate::list_makespan),
//! the testkit's explorer and the topological iterations below all step one.

use crate::{TaskGraph, TaskId};
use std::collections::VecDeque;

/// A dispatch choice: an index into the non-empty ready set, oldest first.
pub type Pick<'a> = &'a dyn Fn(&[TaskId]) -> usize;

/// One DAG execution's remaining-predecessor counts, its FIFO ready set
/// with the set's high-water mark, and its count of completed tasks.
#[derive(Debug)]
pub struct Frontier {
    remaining: Vec<usize>,
    ready: VecDeque<TaskId>,
    max_ready: usize,
    completed: usize,
}

impl Frontier {
    /// Nothing has run yet: the sources are ready, in id order.
    pub fn new(graph: &TaskGraph) -> Self {
        let remaining = graph.indegrees();
        let ready: VecDeque<TaskId> = (0..graph.len()).filter(|&t| remaining[t] == 0).collect();
        Frontier {
            remaining,
            max_ready: ready.len(),
            ready,
            completed: 0,
        }
    }

    /// The ready set, oldest first.
    #[inline]
    pub fn ready(&self) -> &VecDeque<TaskId> {
        &self.ready
    }

    /// The most tasks ever ready at once.
    pub fn max_ready(&self) -> usize {
        self.max_ready
    }

    /// Tasks completed so far.
    #[inline]
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Take the oldest ready task, or the one `pick` chooses; `None` if none is.
    #[inline]
    pub fn pop(&mut self, pick: Option<Pick<'_>>) -> Option<TaskId> {
        match pick {
            Some(pick) if !self.ready.is_empty() => {
                let i = pick(self.ready.make_contiguous());
                Some(self.ready.remove(i).expect("a pick indexes the ready set"))
            }
            _ => self.ready.pop_front(),
        }
    }

    /// Make `t` ready again, behind every ready task (a driver's retry).
    #[inline]
    pub fn push(&mut self, t: TaskId) {
        self.ready.push_back(t);
        self.max_ready = self.max_ready.max(self.ready.len());
    }

    /// `t` completed: ready each successor whose last predecessor it was,
    /// reporting each to `on_ready`.
    #[inline]
    pub fn complete(&mut self, graph: &TaskGraph, t: TaskId, mut on_ready: impl FnMut(TaskId)) {
        self.completed += 1;
        for &s in graph.succs(t) {
            self.remaining[s] -= 1;
            if self.remaining[s] == 0 {
                on_ready(s);
                self.push(s);
            }
        }
    }
}

/// A topological order of the graph (Kahn's algorithm: the [`Frontier`]
/// drained FIFO one task at a time, so the result is deterministic and
/// equals program order for our builders).
pub fn topological_order(g: &TaskGraph) -> Vec<TaskId> {
    let mut frontier = Frontier::new(g);
    let mut out = Vec::with_capacity(g.len());
    while let Some(id) = frontier.pop(None) {
        out.push(id);
        frontier.complete(g, id, |_| {});
    }
    out
}

/// `true` when the graph is acyclic (every task is reachable by Kahn's
/// algorithm). `build_tree` guarantees this; the check is the tests'
/// oracle.
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
    let mut frontier = Frontier::new(g);
    let mut profile = Vec::new();
    // A step runs what was ready at its start; what it readies runs next.
    while !frontier.ready().is_empty() {
        let step = frontier.ready().len();
        for _ in 0..step {
            if let Some(id) = frontier.pop(None) {
                frontier.complete(g, id, |_| {});
            }
        }
        profile.push(step);
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EliminationTree;

    #[test]
    fn drains_whole_graph() {
        let g = TaskGraph::build_tree(4, 4, EliminationTree::Flat);
        let mut f = Frontier::new(&g);
        let mut seen = 0;
        while let Some(t) = f.pop(None) {
            seen += 1;
            f.complete(&g, t, |_| {});
        }
        assert_eq!(seen, g.len());
        assert_eq!(f.completed(), g.len());
    }

    #[test]
    fn readiness_only_after_all_preds() {
        let g = TaskGraph::build_tree(3, 3, EliminationTree::Flat);
        let mut f = Frontier::new(&g);
        // Completing the first GEQRT readies its direct successors only.
        assert_eq!(f.pop(None), Some(0));
        let mut readied = Vec::new();
        f.complete(&g, 0, |s| readied.push(s));
        assert!(!f.ready().is_empty());
        assert!(f.ready().iter().eq(readied.iter()));
        for &t in f.ready() {
            assert!(g.preds(t).iter().all(|&p| p == 0));
        }
        assert!(f.completed() < g.len());
    }

    #[test]
    fn fifo_queue_preserves_arrival_order() {
        let g = TaskGraph::build_tree(4, 4, EliminationTree::Flat);
        let mut f = Frontier::new(&g);
        assert_eq!(f.pop(None), Some(0));
        for id in [7, 3, 9] {
            f.push(id);
        }
        assert_eq!(f.pop(None), Some(7));
        assert_eq!(f.pop(None), Some(3));
        assert_eq!(f.pop(None), Some(9));
        assert_eq!(f.pop(None), None);
        assert_eq!(f.max_ready(), 3);
    }

    #[test]
    fn a_pick_chooses_from_the_arrival_ordered_set() {
        let g = TaskGraph::build_tree(4, 4, EliminationTree::Flat);
        let mut f = Frontier::new(&g);
        assert_eq!(f.pop(None), Some(0));
        for id in [7, 3, 9] {
            f.push(id);
        }
        let newest: Pick<'_> = &|ready| ready.len() - 1;
        assert_eq!(f.pop(Some(newest)), Some(9));
        assert_eq!(f.pop(None), Some(7));
        assert_eq!(f.pop(Some(newest)), Some(3));
        assert_eq!(f.pop(Some(newest)), None);
    }

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
