//! Deterministic schedule exploration.
//!
//! The parallel runtime guarantees a *bit-identical* result for every
//! legal dispatch/completion interleaving, because tasks write disjoint
//! tile sets and the kernels themselves are deterministic. Real thread
//! pools only ever sample a handful of interleavings per run, and always
//! the "natural" ones. This module replays the same three-phase
//! stage/compute/commit protocol on a **virtual** `k`-worker machine
//! whose two free choices — *which ready task to dispatch* and *which
//! in-flight task finishes next* — are driven by a seeded RNG or an
//! adversarial rule. Every exploration is reproducible from its
//! [`ExploreStrategy`] alone.

use tileqr_dag::{EliminationTree, TaskGraph, TaskId};
use tileqr_kernels::exec::FactorState;
use tileqr_kernels::{flops, Workspace};
use tileqr_matrix::{Matrix, Result, Rng64, Scalar, TiledMatrix};

/// How the virtual machine resolves its two nondeterministic choices.
/// Bottom levels are the driver's: flop-weighted at the tile size in use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExploreStrategy {
    /// Dispatch FIFO — the driver's order — or, with `critical_path`,
    /// highest bottom level first (the `DispatchOrder::CriticalPath`
    /// adversary); the *completion* order among in-flight tasks is a
    /// seeded random permutation — the honest model of workers racing to
    /// finish.
    Seeded {
        /// RNG seed for the completion choices.
        seed: u64,
        /// Dispatch highest bottom level first instead of FIFO.
        critical_path: bool,
    },
    /// Dispatch the ready task with the *lowest* bottom level (the exact
    /// inverse of the critical-path heuristic) and complete in-flight
    /// tasks newest-first — the worst schedule a priority bug could
    /// produce.
    ReversePriority,
    /// Dispatch the ready task whose home column is farthest from the
    /// previously dispatched one — maximal loss of locality/affinity.
    AntiAffinity,
    /// One virtual worker draining the ready set newest-first, so the
    /// oldest ready tasks starve as long as legally possible.
    LifoStarvation,
}

impl ExploreStrategy {
    fn workers_cap(self, workers: usize) -> usize {
        match self {
            ExploreStrategy::LifoStarvation => 1,
            _ => workers.max(1),
        }
    }
}

/// Outcome of one explored interleaving (of an `f64` factorization unless
/// said otherwise).
#[derive(Debug)]
pub struct Exploration<T: Scalar = f64> {
    /// Order in which tasks committed — the schedule's fingerprint.
    pub completion_order: Vec<TaskId>,
    /// Final factorization state, reassembled for comparison.
    pub state: FactorState<T>,
}

impl<T: Scalar> Exploration<T> {
    /// Compact order fingerprint for distinct-interleaving counting.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over the completion order: collision-safe enough to
        // count distinct schedules among a few hundred.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &t in &self.completion_order {
            h ^= t as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

/// Run one interleaving of `graph` over `tiles` on a virtual
/// `workers`-slot machine. Returns the reassembled state and the
/// completion order.
pub fn explore<T: Scalar>(
    tiles: TiledMatrix<T>,
    graph: &TaskGraph,
    workers: usize,
    strategy: ExploreStrategy,
) -> Result<Exploration<T>> {
    let cap = strategy.workers_cap(workers);
    let b = tiles.tile_size();
    let flop_weights = |t| flops::task_flops(t, b) as f64;
    let priorities = tileqr_dag::critical_path::bottom_levels(graph, flop_weights);
    let mut ws = Workspace::new(b, b);
    let mut shared = FactorState::new(tiles);

    let mut indegree: Vec<usize> = graph.indegrees();
    let mut ready: Vec<TaskId> = graph.sources();
    // In-flight tasks, oldest first: (task id, staged inputs).
    let mut in_flight: Vec<(TaskId, tileqr_kernels::exec::StagedTask<T>)> = Vec::new();
    let mut completion_order = Vec::with_capacity(graph.len());
    let mut rng = match strategy {
        ExploreStrategy::Seeded { seed, .. } => Rng64::seed_from_u64(seed),
        _ => Rng64::seed_from_u64(0),
    };
    let mut last_column: usize = 0;

    while completion_order.len() < graph.len() {
        // Fill the virtual worker slots.
        while in_flight.len() < cap && !ready.is_empty() {
            let pick = pick_dispatch(strategy, &ready, &priorities, graph, last_column);
            // `remove` keeps `ready` in arrival order, which the FIFO and
            // LIFO strategies depend on.
            let task = ready.remove(pick);
            last_column = graph.task(task).home_column();
            let staged = shared.stage(graph.task(task))?;
            in_flight.push((task, staged));
        }
        debug_assert!(!in_flight.is_empty(), "legal DAG never wedges");

        // Choose which in-flight task "finishes" next.
        let done_idx = match strategy {
            ExploreStrategy::Seeded { .. } => (rng.next_u64() % in_flight.len() as u64) as usize,
            ExploreStrategy::ReversePriority => in_flight.len() - 1,
            _ => 0,
        };
        let (task, staged) = in_flight.remove(done_idx);
        shared.commit(staged.compute_with(&mut ws)?);
        completion_order.push(task);
        for &s in graph.succs(task) {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                ready.push(s);
            }
        }
    }

    Ok(Exploration {
        completion_order,
        state: shared,
    })
}

fn pick_dispatch(
    strategy: ExploreStrategy,
    ready: &[TaskId],
    priorities: &[f64],
    graph: &TaskGraph,
    last_column: usize,
) -> usize {
    match strategy {
        ExploreStrategy::Seeded {
            critical_path: false,
            ..
        } => 0,
        ExploreStrategy::Seeded {
            critical_path: true,
            ..
        } => argbest(ready, |t| priorities[t]),
        ExploreStrategy::ReversePriority => argbest(ready, |t| -priorities[t]),
        ExploreStrategy::AntiAffinity => argbest(ready, |t| {
            (graph.task(t).home_column() as f64 - last_column as f64).abs()
        }),
        ExploreStrategy::LifoStarvation => ready.len() - 1,
    }
}

/// Index of the ready task maximizing `score`, ties toward the lower
/// task id so every strategy stays deterministic.
fn argbest(ready: &[TaskId], score: impl Fn(TaskId) -> f64) -> usize {
    let mut best = 0;
    for idx in 1..ready.len() {
        let (s, t) = (score(ready[idx]), ready[idx]);
        let (bs, bt) = (score(ready[best]), ready[best]);
        if s > bs || (s == bs && t < bt) {
            best = idx;
        }
    }
    best
}

/// Convenience wrapper: tile `a`, explore one interleaving of any member of
/// the elimination zoo, and return it alongside the sequential reference
/// state for bit-identity checks.
pub fn explore_tree_vs_sequential<T: Scalar>(
    a: &Matrix<T>,
    tile_size: usize,
    tree: EliminationTree,
    workers: usize,
    strategy: ExploreStrategy,
) -> Result<(Exploration<T>, FactorState<T>)> {
    let tiled = TiledMatrix::from_matrix(a, tile_size)?;
    let graph = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), tree);
    let mut reference = FactorState::new(tiled.clone());
    reference.run_all(&graph)?;
    let explored = explore(tiled, &graph, workers, strategy)?;
    Ok((explored, reference))
}

/// Assert an exploration reproduced the sequential factorization
/// *bitwise*: every tile and every `T` factor.
pub fn assert_bit_identical<T: Scalar>(explored: &FactorState<T>, reference: &FactorState<T>) {
    assert_eq!(
        explored.tiles().to_matrix(),
        reference.tiles().to_matrix(),
        "tiles diverged from the sequential factorization"
    );
    assert_eq!(
        explored.r_matrix(),
        reference.r_matrix(),
        "R factor diverged from the sequential factorization"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_matrix::gen::random_matrix;

    #[test]
    fn every_strategy_is_bit_identical_to_sequential() {
        let a = random_matrix::<f64>(24, 24, 77);
        for strategy in [
            ExploreStrategy::Seeded {
                seed: 3,
                critical_path: false,
            },
            ExploreStrategy::Seeded {
                seed: 3,
                critical_path: true,
            },
            ExploreStrategy::ReversePriority,
            ExploreStrategy::AntiAffinity,
            ExploreStrategy::LifoStarvation,
        ] {
            let (exp, reference) =
                explore_tree_vs_sequential(&a, 8, EliminationTree::Flat, 3, strategy).unwrap();
            let expected = TaskGraph::build_tree(3, 3, EliminationTree::Flat).len();
            assert_eq!(exp.completion_order.len(), expected);
            assert_bit_identical(&exp.state, &reference);
        }
    }

    #[test]
    fn seeded_replay_is_exact_and_seed_sensitive() {
        let a = random_matrix::<f64>(32, 32, 5);
        let run = |seed| {
            let strategy = ExploreStrategy::Seeded {
                seed,
                critical_path: false,
            };
            explore_tree_vs_sequential(&a, 8, EliminationTree::Flat, 4, strategy)
                .unwrap()
                .0
        };
        assert_eq!(run(9).completion_order, run(9).completion_order);
        // Distinct seeds explore distinct interleavings (for this size the
        // schedule space is astronomically larger than two).
        assert_ne!(run(1).completion_order, run(2).completion_order);
        assert_ne!(run(1).fingerprint(), run(2).fingerprint());
    }

    #[test]
    fn starvation_runs_single_slot() {
        let a = random_matrix::<f64>(16, 16, 8);
        let (exp, reference) = explore_tree_vs_sequential(
            &a,
            8,
            EliminationTree::Flat,
            8,
            ExploreStrategy::LifoStarvation,
        )
        .unwrap();
        assert_bit_identical(&exp.state, &reference);
    }
}
