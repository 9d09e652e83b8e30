//! Schedule adversaries, written once. An [`Adversary`]'s
//! [`pick`](FaultInjector::pick) replaces the driver's FIFO order wherever
//! `DagRun::dispatch` is lent it: as a job's own injector (in an `Arc`
//! given to the doc-hidden `tileqr_runtime::run_pool`), or by the virtual
//! [`explorer::Machine`](crate::explorer::Machine). It injects no fault.

use std::sync::Mutex;
use tileqr_dag::{TaskGraph, TaskId};
use tileqr_kernels::flops;
use tileqr_matrix::Rng64;
use tileqr_runtime::{FaultInjector, InjectedFault};

/// Which ready task an [`Adversary`] dispatches next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// The oldest: the driver's own order.
    Fifo,
    /// Highest bottom level first: the longest path to a sink.
    CriticalPath,
    /// *Lowest* bottom level first: the critical path deferred.
    ReversePriority,
    /// The newest, starving the oldest.
    Lifo,
    /// Home column farthest from the previous pick's: no locality.
    AntiAffinity,
    /// A seeded uniform choice, one legal interleaving per seed.
    Seeded(u64),
}

/// One [`Rule`] over one graph. Bottom levels are flop-weighted at the
/// tile size; ties go to the lower task id.
#[derive(Debug)]
pub struct Adversary {
    rule: Rule,
    levels: Vec<f64>,
    homes: Vec<usize>,
    /// The seeded stream and the previous pick's home column.
    state: Mutex<(Rng64, usize)>,
}

impl Adversary {
    /// `rule` over `graph` at tile size `b`.
    pub fn new(rule: Rule, graph: &TaskGraph, b: usize) -> Self {
        let weight = |t| flops::task_flops(t, b) as f64;
        let seed = if let Rule::Seeded(s) = rule { s } else { 0 };
        let homes = (0..graph.len()).map(|t| graph.task(t).home_column());
        Adversary {
            rule,
            levels: tileqr_dag::critical_path::bottom_levels(graph, weight),
            homes: homes.collect(),
            state: Mutex::new((Rng64::seed_from_u64(seed), 0)),
        }
    }
}

impl FaultInjector for Adversary {
    fn before_attempt(&self, _: TaskId, _: u32) -> InjectedFault {
        InjectedFault::None
    }

    fn pick(&self, ready: &[TaskId]) -> usize {
        let mut state = self.state.lock().expect("poisoned by a panicking pick");
        let (rng, last) = &mut *state;
        let i = match self.rule {
            Rule::Fifo => 0,
            Rule::CriticalPath => highest_level(&self.levels)(ready),
            Rule::ReversePriority => argbest(ready, |t| -self.levels[t]),
            Rule::Lifo => ready.len() - 1,
            Rule::AntiAffinity => argbest(ready, |t| self.homes[t].abs_diff(*last) as f64),
            Rule::Seeded(_) => (rng.next_u64() % ready.len() as u64) as usize,
        };
        *last = self.homes[ready[i]];
        i
    }
}

/// [`Rule::CriticalPath`] over any `levels`, as a pick for `list_makespan`.
pub fn highest_level(levels: &[f64]) -> impl Fn(&[TaskId]) -> usize + '_ {
    move |ready| argbest(ready, |t| levels[t])
}

/// Index of the ready task with the highest `score`, the lower id on a tie.
fn argbest(ready: &[TaskId], score: impl Fn(TaskId) -> f64) -> usize {
    let by = |&i: &usize, &j: &usize| {
        let (s, t) = (ready[i], ready[j]);
        score(s).total_cmp(&score(t)).then(t.cmp(&s))
    };
    (0..ready.len()).max_by(by).expect("a non-empty ready set")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rule` over the given priorities (home columns all 0).
    fn over(rule: Rule, levels: Vec<f64>) -> Adversary {
        let seed = if let Rule::Seeded(s) = rule { s } else { 0 };
        Adversary {
            rule,
            homes: vec![0; levels.len()],
            levels,
            state: Mutex::new((Rng64::seed_from_u64(seed), 0)),
        }
    }

    /// The order `adversary` dispatches `ids`, pushed in that order.
    fn drain(adversary: &Adversary, ids: impl IntoIterator<Item = TaskId>) -> Vec<TaskId> {
        let mut ready: Vec<TaskId> = ids.into_iter().collect();
        let mut out = Vec::new();
        while !ready.is_empty() {
            out.push(ready.remove(adversary.pick(&ready)));
        }
        out
    }

    #[test]
    fn priority_queue_orders_by_priority_then_id() {
        let q = over(Rule::CriticalPath, vec![1.0, 5.0, 3.0, 5.0]);
        // Highest priority first; equal priorities (1 and 3) break toward
        // the lower id so dispatch is deterministic.
        assert_eq!(drain(&q, 0..4), vec![1, 3, 2, 0]);
    }

    #[test]
    fn reverse_priority_pops_lowest_first() {
        let q = over(Rule::ReversePriority, vec![1.0, 5.0, 3.0, 5.0]);
        // Equal priorities still break toward the lower id.
        assert_eq!(drain(&q, 0..4), vec![0, 2, 1, 3]);
    }

    #[test]
    fn lifo_pops_newest_first() {
        let q = over(Rule::Lifo, vec![0.0; 10]);
        assert_eq!(drain(&q, [7, 3, 9]), vec![9, 3, 7]);
    }

    #[test]
    fn seeded_is_deterministic_and_seed_sensitive() {
        let run = |seed: u64| drain(&over(Rule::Seeded(seed), vec![0.0; 32]), 0..32);
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
        let mut sorted = run(3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
    }
}
