//! DAG readiness bookkeeping and dispatch ordering.

use std::collections::{BinaryHeap, VecDeque};
use tileqr_dag::{TaskGraph, TaskId};
use tileqr_matrix::Rng64;

/// Order in which the driver hands ready tasks to idle workers. Production
/// runs dispatch [`Fifo`](Self::Fifo), the order `dag::listsim` is asked
/// about (DESIGN.md §9); the rest is the seam the testkit's schedule
/// explorer uses, through the doc-hidden [`run_pool`](crate::run_pool), to
/// drive the real driver through adversarial and seeded permutations of
/// the legal interleaving space. Every order is deterministic given its
/// parameters, so any failure reproduces from the order alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchOrder {
    /// Discovery order: tasks dispatch in the order they became ready.
    #[default]
    Fifo,
    /// Highest flop-weighted bottom level first: the ready task with the
    /// longest path to a sink dispatches first.
    CriticalPath,
    /// Newest-ready-first: a stack, starving the oldest ready tasks —
    /// the single-worker-starvation adversary.
    Lifo,
    /// *Lowest* bottom level first: the exact inverse of
    /// [`CriticalPath`](Self::CriticalPath), aggressively deferring the
    /// critical path whenever legally possible.
    ReversePriority,
    /// Uniform seeded choice among the ready tasks; distinct seeds explore
    /// distinct legal interleavings reproducibly.
    Seeded(u64),
}

/// Heap entry: priority-ordered, ties broken toward the lower task id so
/// dispatch order (hence the whole run) is deterministic.
#[derive(Debug, PartialEq)]
struct Prioritized {
    priority: f64,
    id: TaskId,
}

impl Eq for Prioritized {}

impl Ord for Prioritized {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .total_cmp(&other.priority)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for Prioritized {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Internal representation of the ready set, one variant per dispatch
/// discipline.
#[derive(Debug)]
enum QueueRepr {
    Fifo(VecDeque<TaskId>),
    Lifo(Vec<TaskId>),
    /// `sign` is `+1.0` for highest-first (critical path) and `-1.0` for
    /// lowest-first (reverse priority).
    Heap {
        heap: BinaryHeap<Prioritized>,
        priorities: Vec<f64>,
        sign: f64,
    },
    Seeded {
        rng: Rng64,
        items: Vec<TaskId>,
    },
}

/// The manager's ready set, yielding tasks in [`DispatchOrder`] order.
///
/// FIFO keeps a queue; the priority orders keep a heap over the static
/// priorities computed once per run; the other adversaries keep a stack
/// or a seeded grab bag. Also records the high-water depth of the ready
/// set — a cheap observability hook for how much dispatch slack the
/// scheduler actually had.
#[derive(Debug)]
pub(crate) struct ReadyQueue {
    repr: QueueRepr,
    max_depth: usize,
}

impl ReadyQueue {
    fn new(repr: QueueRepr) -> Self {
        ReadyQueue { repr, max_depth: 0 }
    }

    /// FIFO dispatch.
    pub fn fifo() -> Self {
        Self::new(QueueRepr::Fifo(VecDeque::new()))
    }

    /// Newest-ready-first dispatch (exploration adversary).
    pub fn lifo() -> Self {
        Self::new(QueueRepr::Lifo(Vec::new()))
    }

    /// Highest-priority-first dispatch; `priorities[id]` is task `id`'s
    /// static priority (e.g. its bottom level).
    pub fn critical_path(priorities: Vec<f64>) -> Self {
        Self::heap(priorities, 1.0)
    }

    /// *Lowest*-priority-first dispatch over the same priorities — the
    /// exact inverse of [`ReadyQueue::critical_path`].
    pub fn reverse_priority(priorities: Vec<f64>) -> Self {
        Self::heap(priorities, -1.0)
    }

    fn heap(priorities: Vec<f64>, sign: f64) -> Self {
        let heap = BinaryHeap::new();
        Self::new(QueueRepr::Heap {
            heap,
            priorities,
            sign,
        })
    }

    /// Seeded uniform dispatch: each pop draws one of the ready tasks via
    /// a deterministic [`Rng64`] stream.
    pub fn seeded(seed: u64) -> Self {
        let rng = Rng64::seed_from_u64(seed);
        Self::new(QueueRepr::Seeded {
            rng,
            items: Vec::new(),
        })
    }

    /// Build a queue for any [`DispatchOrder`], computing priorities from
    /// `graph` and a per-task weight when the order needs them.
    pub fn for_order(
        order: DispatchOrder,
        graph: &TaskGraph,
        weight: impl Fn(tileqr_dag::TaskKind) -> f64,
    ) -> Self {
        let bottom_levels = || tileqr_dag::critical_path::bottom_levels(graph, weight);
        match order {
            DispatchOrder::Fifo => Self::fifo(),
            DispatchOrder::CriticalPath => Self::critical_path(bottom_levels()),
            DispatchOrder::Lifo => Self::lifo(),
            DispatchOrder::ReversePriority => Self::reverse_priority(bottom_levels()),
            DispatchOrder::Seeded(seed) => Self::seeded(seed),
        }
    }

    /// Add a ready task.
    pub fn push(&mut self, id: TaskId) {
        match &mut self.repr {
            QueueRepr::Fifo(q) => q.push_back(id),
            QueueRepr::Lifo(s) => s.push(id),
            QueueRepr::Heap {
                heap,
                priorities,
                sign,
            } => heap.push(Prioritized {
                priority: *sign * priorities.get(id).copied().unwrap_or(0.0),
                id,
            }),
            QueueRepr::Seeded { items, .. } => items.push(id),
        }
        self.max_depth = self.max_depth.max(self.len());
    }

    /// Remove and return the next task to dispatch.
    pub fn pop(&mut self) -> Option<TaskId> {
        match &mut self.repr {
            QueueRepr::Fifo(q) => q.pop_front(),
            QueueRepr::Lifo(s) => s.pop(),
            QueueRepr::Heap { heap, .. } => heap.pop().map(|p| p.id),
            QueueRepr::Seeded { rng, items } => {
                if items.is_empty() {
                    None
                } else {
                    let idx = (rng.next_u64() % items.len() as u64) as usize;
                    Some(items.swap_remove(idx))
                }
            }
        }
    }

    /// Tasks currently ready.
    pub fn len(&self) -> usize {
        match &self.repr {
            QueueRepr::Fifo(q) => q.len(),
            QueueRepr::Lifo(s) => s.len(),
            QueueRepr::Heap { heap, .. } => heap.len(),
            QueueRepr::Seeded { items, .. } => items.len(),
        }
    }

    /// High-water mark of the ready-set depth over the queue's lifetime.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }
}

/// Tracks which tasks are ready as predecessors complete. Pure and
/// single-threaded by design; the drivers own the concurrency.
#[derive(Debug)]
pub(crate) struct ReadyTracker {
    remaining_preds: Vec<usize>,
    completed: usize,
    total: usize,
}

impl ReadyTracker {
    /// Initialize from a graph; [`ReadyTracker::initial_ready`] yields the
    /// sources.
    pub fn new(graph: &TaskGraph) -> Self {
        ReadyTracker {
            remaining_preds: graph.indegrees(),
            completed: 0,
            total: graph.len(),
        }
    }

    /// Tasks ready before anything has run.
    pub fn initial_ready(&self, graph: &TaskGraph) -> Vec<TaskId> {
        graph.sources()
    }

    /// Record `task` as complete, handing each task that just became ready
    /// to `ready` (no allocation: the pool calls this under its lock).
    pub fn complete(&mut self, graph: &TaskGraph, task: TaskId, mut ready: impl FnMut(TaskId)) {
        self.completed += 1;
        for &s in graph.succs(task) {
            self.remaining_preds[s] -= 1;
            if self.remaining_preds[s] == 0 {
                ready(s);
            }
        }
    }

    /// `true` once every task has completed.
    pub fn all_done(&self) -> bool {
        self.completed == self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_dag::EliminationTree;

    #[test]
    fn drains_whole_graph() {
        let g = TaskGraph::build_tree(4, 4, EliminationTree::Flat);
        let mut tr = ReadyTracker::new(&g);
        let mut frontier = tr.initial_ready(&g);
        let mut seen = 0;
        while let Some(t) = frontier.pop() {
            seen += 1;
            tr.complete(&g, t, |r| frontier.push(r));
        }
        assert_eq!(seen, g.len());
        assert!(tr.all_done());
    }

    #[test]
    fn readiness_only_after_all_preds() {
        let g = TaskGraph::build_tree(3, 3, EliminationTree::Flat);
        let mut tr = ReadyTracker::new(&g);
        // Completing the first GEQRT readies its direct successors only.
        let mut newly = Vec::new();
        tr.complete(&g, 0, |r| newly.push(r));
        assert!(!newly.is_empty());
        for &t in &newly {
            assert!(g.preds(t).iter().all(|&p| p == 0));
        }
        assert!(!tr.all_done());
    }

    #[test]
    fn priority_queue_orders_by_priority_then_id() {
        let mut q = ReadyQueue::critical_path(vec![1.0, 5.0, 3.0, 5.0]);
        for id in 0..4 {
            q.push(id);
        }
        // Highest priority first; equal priorities (1 and 3) break toward
        // the lower id so dispatch is deterministic.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), None);
        assert_eq!(q.max_depth(), 4);
    }

    #[test]
    fn fifo_queue_preserves_arrival_order() {
        let mut q = ReadyQueue::fifo();
        for id in [7, 3, 9] {
            q.push(id);
        }
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(9));
    }

    #[test]
    fn priority_dispatch_never_readies_before_preds_complete() {
        // Drain a full DAG through tracker + priority queue exactly as the
        // manager does, and check the dispatch-safety invariant: when a
        // task pops, every predecessor must already have completed —
        // regardless of how the heap reorders the ready set.
        for order in [EliminationTree::Flat, EliminationTree::Binary] {
            let g = TaskGraph::build_tree(5, 5, order);
            // Adversarial priorities: *reverse* of program order, so the
            // heap aggressively prefers late tasks whenever it legally can.
            let priorities: Vec<f64> = (0..g.len()).map(|id| id as f64).collect();
            let mut q = ReadyQueue::critical_path(priorities);
            let mut tr = ReadyTracker::new(&g);
            let mut done = vec![false; g.len()];
            for t in tr.initial_ready(&g) {
                q.push(t);
            }
            let mut drained = 0;
            while let Some(t) = q.pop() {
                assert!(
                    g.preds(t).iter().all(|&p| done[p]),
                    "task {t} dispatched before a predecessor completed"
                );
                done[t] = true;
                drained += 1;
                tr.complete(&g, t, |ready| q.push(ready));
            }
            assert_eq!(drained, g.len());
            assert!(tr.all_done());
        }
    }

    #[test]
    fn reverse_priority_pops_lowest_first() {
        let mut q = ReadyQueue::reverse_priority(vec![1.0, 5.0, 3.0, 5.0]);
        for id in 0..4 {
            q.push(id);
        }
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(2));
        // Equal priorities still break toward the lower id.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn lifo_pops_newest_first() {
        let mut q = ReadyQueue::lifo();
        for id in [7, 3, 9] {
            q.push(id);
        }
        assert_eq!(q.pop(), Some(9));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(7));
    }

    #[test]
    fn seeded_is_deterministic_and_seed_sensitive() {
        let drain = |seed: u64| {
            let mut q = ReadyQueue::seeded(seed);
            for id in 0..32 {
                q.push(id);
            }
            let mut out = Vec::new();
            while let Some(t) = q.pop() {
                out.push(t);
            }
            out
        };
        assert_eq!(drain(1), drain(1));
        assert_ne!(drain(1), drain(2));
        let mut sorted = drain(3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn every_order_drains_a_dag_safely() {
        // The dispatch-safety invariant must hold under every exploration
        // order, not just the production one.
        let g = TaskGraph::build_tree(4, 4, EliminationTree::Flat);
        let orders = [
            DispatchOrder::Fifo,
            DispatchOrder::CriticalPath,
            DispatchOrder::Lifo,
            DispatchOrder::ReversePriority,
            DispatchOrder::Seeded(99),
        ];
        for order in orders {
            let mut q = ReadyQueue::for_order(order, &g, |_| 1.0);
            let mut tr = ReadyTracker::new(&g);
            let mut done = vec![false; g.len()];
            for t in tr.initial_ready(&g) {
                q.push(t);
            }
            let mut drained = 0;
            while let Some(t) = q.pop() {
                assert!(
                    g.preds(t).iter().all(|&p| done[p]),
                    "{order:?}: task {t} dispatched before a predecessor"
                );
                done[t] = true;
                drained += 1;
                tr.complete(&g, t, |ready| q.push(ready));
            }
            assert_eq!(drained, g.len(), "{order:?}");
        }
    }
}
