//! Tree-structure property suite: every member of the elimination-tree
//! zoo, over grid geometries up to 12 x 12, held to the structural
//! invariants tiled QR correctness rests on —
//!
//! 1. every subdiagonal tile is eliminated exactly once,
//! 2. dependency edges are respected in topological replay and cover
//!    every data hazard the tasks' read/write sets induce,
//! 3. `dag::counts::tree_counts` predicts the exact per-kernel task
//!    counts of the built DAG,
//! 4. unit-weight critical paths on `p x 1` panels match the
//!    Bouwmeester-style closed forms per tree (flat `p`, binary
//!    `1 + ceil(log2 p)`, greedy likewise, Fibonacci in between), and
//!    the TSQR tree (`Plateau(⌈√p⌉)`) beats the flat chain, and
//! 5. a `dag::Frontier` drained under every schedule adversary pops each
//!    task exactly once, and only after all of its predecessors.

use std::collections::HashMap;

use tileqr_dag::counts::{class_totals, tree_counts};
use tileqr_dag::critical_path::critical_path_length;
use tileqr_dag::topo::{is_acyclic, topological_order};
use tileqr_dag::{EliminationTree, Frontier, TaskGraph, TaskId, TaskKind};
use tileqr_runtime::FaultInjector;
use tileqr_testkit::adversary::{Adversary, Rule};

/// Geometry grid: tall, square, and wide tile shapes up to 12 x 12.
fn geometries() -> Vec<(usize, usize)> {
    vec![
        (1, 1),
        (2, 1),
        (12, 1),
        (7, 2),
        (12, 2),
        (4, 4),
        (9, 5),
        (12, 12),
        (3, 8),
        (2, 12),
    ]
}

#[test]
fn every_subdiagonal_tile_eliminated_exactly_once() {
    for tree in EliminationTree::zoo() {
        for (mt, nt) in geometries() {
            let g = TaskGraph::build_tree(mt, nt, tree);
            let mut eliminated: HashMap<(usize, usize), usize> = HashMap::new();
            for t in g.tasks() {
                if let TaskKind::Tsqrt { i, k, .. } | TaskKind::Ttqrt { i, k, .. } = *t {
                    *eliminated.entry((i, k)).or_default() += 1;
                }
            }
            let kmax = mt.min(nt);
            for k in 0..kmax {
                for i in (k + 1)..mt {
                    assert_eq!(
                        eliminated.get(&(i, k)).copied().unwrap_or(0),
                        1,
                        "{tree} {mt}x{nt}: tile ({i},{k}) elimination count"
                    );
                }
            }
            let expected: usize = (0..kmax).map(|k| mt - k - 1).sum();
            assert_eq!(
                eliminated.values().sum::<usize>(),
                expected,
                "{tree} {mt}x{nt}"
            );
        }
    }
}

#[test]
fn topological_replay_respects_every_edge() {
    for tree in EliminationTree::zoo() {
        for (mt, nt) in geometries() {
            let g = TaskGraph::build_tree(mt, nt, tree);
            assert!(is_acyclic(&g), "{tree} {mt}x{nt}: cycle");
            // Program order must itself be a valid schedule, and the
            // Kahn order must agree edge-wise.
            for id in 0..g.len() {
                for &p in g.preds(id) {
                    assert!(p < id, "{tree} {mt}x{nt}: edge {p}->{id} points backward");
                }
            }
            let order = topological_order(&g);
            let mut pos = vec![0usize; g.len()];
            for (rank, &t) in order.iter().enumerate() {
                pos[t] = rank;
            }
            for id in 0..g.len() {
                for &s in g.succs(id) {
                    assert!(
                        pos[id] < pos[s],
                        "{tree} {mt}x{nt}: replay ran {s} before its dep {id}"
                    );
                }
            }
        }
    }
}

#[test]
fn a_frontier_pops_each_task_once_after_its_preds_under_every_rule() {
    use Rule::{AntiAffinity, CriticalPath, Fifo, Lifo, ReversePriority, Seeded};
    let rules = [
        Fifo,
        CriticalPath,
        ReversePriority,
        Lifo,
        AntiAffinity,
        Seeded(7),
        Seeded(8),
    ];
    for tree in EliminationTree::zoo() {
        for (mt, nt) in [(1, 1), (12, 1), (7, 2), (4, 4), (9, 5), (3, 8)] {
            let g = TaskGraph::build_tree(mt, nt, tree);
            for rule in rules {
                let adversary = Adversary::new(rule, &g, 16);
                let pick = |ready: &[TaskId]| adversary.pick(ready);
                let mut frontier = Frontier::new(&g);
                let (mut popped, mut done) = (vec![false; g.len()], vec![false; g.len()]);
                // Up to three tasks in flight, completed oldest first, so
                // the ready set mixes tasks readied by different commits.
                let mut in_flight = std::collections::VecDeque::new();
                while frontier.completed() < g.len() {
                    while in_flight.len() < 3 {
                        let Some(t) = frontier.pop(Some(&pick)) else {
                            break;
                        };
                        let at = format!("{tree} {mt}x{nt} {rule:?}: task {t}");
                        assert!(!popped[t], "{at} popped twice");
                        assert!(g.preds(t).iter().all(|&p| done[p]), "{at} popped early");
                        popped[t] = true;
                        in_flight.push_back(t);
                    }
                    let t = in_flight.pop_front().expect("a legal DAG never wedges");
                    done[t] = true;
                    frontier.complete(&g, t, |s| assert!(!popped[s] && !done[s]));
                }
                assert!(popped.iter().all(|&p| p), "{tree} {mt}x{nt} {rule:?}");
                assert!(frontier.ready().is_empty() && frontier.pop(Some(&pick)).is_none());
            }
        }
    }
}

#[test]
fn edges_cover_every_data_hazard() {
    // Any two tasks touching a common tile, at least one writing, must be
    // ordered by a dependency path — otherwise some interleaving races.
    for tree in EliminationTree::zoo() {
        for (mt, nt) in [(6, 1), (5, 3), (4, 4), (8, 2)] {
            let g = TaskGraph::build_tree(mt, nt, tree);
            let n = g.len();
            // reach[i] = bitset of tasks reachable from i (ids > i only,
            // since edges always point forward).
            let words = n.div_ceil(64);
            let mut reach = vec![vec![0u64; words]; n];
            for i in (0..n).rev() {
                for &s in g.succs(i) {
                    reach[i][s / 64] |= 1 << (s % 64);
                    let (head, tail) = reach.split_at_mut(s);
                    for (w, r) in head[i].iter_mut().zip(&tail[0]) {
                        *w |= r;
                    }
                }
            }
            let sets: Vec<_> = g.tasks().iter().map(|t| (t.reads(), t.writes())).collect();
            for i in 0..n {
                for j in (i + 1)..n {
                    let hazard = sets[i]
                        .1
                        .iter()
                        .any(|c| sets[j].0.contains(c) || sets[j].1.contains(c))
                        || sets[j].1.iter().any(|c| sets[i].0.contains(c));
                    if hazard {
                        assert!(
                            reach[i][j / 64] & (1 << (j % 64)) != 0,
                            "{tree} {mt}x{nt}: tasks {i} and {j} share a tile \
                             with a write but have no dependency path"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn tree_counts_are_exact_on_the_geometry_grid() {
    for tree in EliminationTree::zoo() {
        for (mt, nt) in geometries() {
            let g = TaskGraph::build_tree(mt, nt, tree);
            let c = tree_counts(mt, nt, tree);
            let count = |f: fn(&TaskKind) -> bool| g.tasks().iter().filter(|t| f(t)).count();
            assert_eq!(
                count(|t| matches!(t, TaskKind::Geqrt { .. })),
                c.geqrt,
                "{tree} {mt}x{nt}"
            );
            assert_eq!(
                count(|t| matches!(t, TaskKind::Unmqr { .. })),
                c.unmqr,
                "{tree} {mt}x{nt}"
            );
            assert_eq!(
                count(|t| matches!(t, TaskKind::Tsqrt { .. })),
                c.tsqrt,
                "{tree} {mt}x{nt}"
            );
            assert_eq!(
                count(|t| matches!(t, TaskKind::Ttqrt { .. })),
                c.ttqrt,
                "{tree} {mt}x{nt}"
            );
            assert_eq!(
                count(|t| matches!(t, TaskKind::Tsmqr { .. })),
                c.tsmqr,
                "{tree} {mt}x{nt}"
            );
            assert_eq!(
                count(|t| matches!(t, TaskKind::Ttmqr { .. })),
                c.ttmqr,
                "{tree} {mt}x{nt}"
            );
            assert_eq!(c.total(), g.len(), "{tree} {mt}x{nt}");
            assert_eq!(c.class_totals(), class_totals(&g), "{tree} {mt}x{nt}");
        }
    }
}

/// Unit-weight critical path of a tree's DAG on a `p x 1` grid.
fn unit_cp(tree: EliminationTree, p: usize) -> usize {
    let g = TaskGraph::build_tree(p, 1, tree);
    critical_path_length(&g, |_| 1.0).round() as usize
}

#[test]
fn p_by_one_critical_paths_match_closed_forms() {
    // Independent references, not `unit_depth` itself: the flat chain is
    // GEQRT + (p-1) serial merges; the balanced trees replace the chain
    // with ceil(log2 p) rounds.
    let log2c = |p: usize| (usize::BITS - (p - 1).leading_zeros()) as usize;
    for p in [1usize, 2, 3, 4, 6, 8, 12, 16, 32] {
        assert_eq!(unit_cp(EliminationTree::Flat, p), p, "flat p={p}");
        assert_eq!(unit_cp(EliminationTree::FlatTt, p), p, "flat-tt p={p}");
        let expect_bal = if p == 1 { 1 } else { 1 + log2c(p) };
        assert_eq!(
            unit_cp(EliminationTree::Binary, p),
            expect_bal,
            "binary p={p}"
        );
        assert_eq!(
            unit_cp(EliminationTree::Greedy, p),
            expect_bal,
            "greedy p={p}"
        );
        // Fibonacci sits between the balanced trees and the flat chain.
        let fib = unit_cp(EliminationTree::Fibonacci, p);
        assert!(expect_bal <= fib && fib <= p, "fibonacci p={p}: {fib}");
        // Every tree's DAG critical path equals its merge-schedule depth.
        for tree in EliminationTree::zoo() {
            assert_eq!(unit_cp(tree, p), tree.unit_depth(p), "{tree} p={p}");
        }
    }
}

#[test]
fn tsqr_fast_path_shortens_the_critical_path() {
    for p in [4usize, 8, 16, 32] {
        let d = EliminationTree::tsqr_domain(p);
        let tsqr = TaskGraph::build_tree(p, 1, EliminationTree::Plateau(d));
        let flat = TaskGraph::build_tree(p, 1, EliminationTree::Flat);
        let cp_tsqr = critical_path_length(&tsqr, |_| 1.0);
        let cp_flat = critical_path_length(&flat, |_| 1.0);
        assert!(
            cp_tsqr < cp_flat,
            "p={p}: tsqr cp {cp_tsqr} !< flat cp {cp_flat}"
        );
    }
}
