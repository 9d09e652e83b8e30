//! Geometry-aware elimination-tree auto-selection.
//!
//! The elimination-tree zoo ([`tileqr_dag::EliminationTree`]) trades task
//! count against critical-path depth: the paper's flat TS chain does the
//! least work but serializes each panel; the TT trees shorten the panel
//! to logarithmic depth at the cost of extra `GEQRT`/`TTQRT` kernels.
//! Which shape wins depends on the grid geometry `(p, q)`, the tile size
//! `b`, and how much parallelism the device actually has — exactly the
//! kind of question the workspace answers by *simulating*, not guessing.
//!
//! [`select_tree`] builds each candidate tree's DAG and list-schedules it
//! ([`tileqr_dag::list_makespan`]) on the `k = profile.slots(b)` identical
//! cores of one device, in the FIFO order both host drivers dispatch in by
//! default, with kernel weights from a calibrated [`DeviceProfile`] (fit
//! from real compute spans by `obs::calibrate`). The predicted-makespan
//! winner becomes the plan. The one caller that turns a measured profile
//! into a job's plan is the online tuner (`TunedQrService` in the core
//! crate), through [`select_plan`].
//!
//! The prediction is deterministic per `(tree, profile, geometry)`: the
//! list scheduler breaks every tie by task id, so two calls always return
//! the same ranking.

use tileqr_dag::{list_makespan, EliminationTree, TaskGraph};
use tileqr_sim::DeviceProfile;

/// Predicted cost of one `(tree, tile-size)` candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeScore {
    /// The candidate tree.
    pub tree: EliminationTree,
    /// Tile size the prediction ran at.
    pub tile_size: usize,
    /// Tile-grid geometry the candidate was evaluated on.
    pub grid: (usize, usize),
    /// Total tasks in the candidate's DAG.
    pub tasks: usize,
    /// Predicted makespan, microseconds.
    pub makespan_us: f64,
}

/// Outcome of a selection sweep: the winner plus the full ranking
/// (ascending makespan) for observability and golden tests.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// The predicted-makespan winner.
    pub best: TreeScore,
    /// Every evaluated candidate, best first.
    pub ranked: Vec<TreeScore>,
}

/// The candidate trees worth simulating for an `mt x nt` grid: the zoo
/// but its `FlatTt` ablation, plus TSQR's `Plateau(⌈√mt⌉)` on tall-skinny
/// grids, each listed once.
pub fn candidate_trees(mt: usize, nt: usize) -> Vec<EliminationTree> {
    let mut trees = EliminationTree::zoo();
    trees.retain(|&t| t != EliminationTree::FlatTt);
    let tsqr = EliminationTree::Plateau(EliminationTree::tsqr_domain(mt));
    if nt <= 2 && mt >= 2 && !trees.contains(&tsqr) {
        trees.push(tsqr);
    }
    trees
}

/// Score every candidate tree for an `mt x nt` grid at tile size `b`
/// and return the ranking. Panics on an empty grid.
pub fn select_tree(profile: &DeviceProfile, mt: usize, nt: usize, b: usize) -> Selection {
    assert!(mt > 0 && nt > 0, "empty tile grid");
    let score = |tree| {
        let g = TaskGraph::build_tree(mt, nt, tree);
        let cost = |kind| profile.times.cost_us(kind, b);
        TreeScore {
            tree,
            tile_size: b,
            grid: (mt, nt),
            tasks: g.len(),
            makespan_us: list_makespan(&g, profile.slots(b), None, cost),
        }
    };
    rank(candidate_trees(mt, nt).into_iter().map(score).collect())
}

/// Best first. Stable keys: makespan, then fewer tasks, then label — so
/// equal predictions rank deterministically.
fn rank(mut ranked: Vec<TreeScore>) -> Selection {
    ranked.sort_by(|x, y| {
        x.makespan_us
            .total_cmp(&y.makespan_us)
            .then(x.tasks.cmp(&y.tasks))
            .then(x.tree.label().cmp(&y.tree.label()))
    });
    Selection {
        best: ranked[0].clone(),
        ranked,
    }
}

/// Sweep `(tree, tile size)` candidates for a `rows x cols` *matrix* and
/// return the overall winner: for each tile size the grid geometry is
/// derived (`⌈rows/b⌉ x ⌈cols/b⌉`) and the full candidate zoo scored.
pub fn select_plan(
    profile: &DeviceProfile,
    rows: usize,
    cols: usize,
    tile_sizes: &[usize],
) -> Selection {
    assert!(rows > 0 && cols > 0, "empty matrix");
    assert!(!tile_sizes.is_empty(), "no tile-size candidates");
    let mut all: Vec<TreeScore> = Vec::new();
    for &b in tile_sizes {
        assert!(b > 0, "zero tile size");
        let mt = rows.div_ceil(b);
        let nt = cols.div_ceil(b);
        all.extend(select_tree(profile, mt, nt, b).ranked);
    }
    rank(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_dag::{ClassCosts, CostCurve};
    use tileqr_sim::DeviceKind;

    fn profile(cores: usize) -> DeviceProfile {
        let t = |c0: f64, c3: f64| CostCurve {
            c0,
            c1: 0.0,
            c2: c3,
        };
        DeviceProfile {
            name: format!("synthetic-{cores}c"),
            kind: DeviceKind::Cpu,
            cores,
            times: ClassCosts {
                triangulation: t(2.0, 0.004),
                elimination: t(2.0, 0.004),
                update: t(2.0, 0.006),
            },
        }
    }

    #[test]
    fn selection_is_deterministic() {
        let p = profile(4);
        let a = select_tree(&p, 16, 1, 16);
        let b = select_tree(&p, 16, 1, 16);
        assert_eq!(a, b);
        assert_eq!(a.ranked.len(), candidate_trees(16, 1).len());
    }

    #[test]
    fn serial_device_prefers_minimal_work() {
        // One slot serializes everything: makespan = sum of kernel times,
        // so the flat chain (fewest tasks, cheapest mix) must win.
        let sel = select_tree(&profile(1), 12, 1, 16);
        assert_eq!(sel.best.tree, EliminationTree::Flat, "{:?}", sel.ranked);
    }

    #[test]
    fn parallel_device_prefers_log_depth_on_tall_skinny() {
        let sel = select_tree(&profile(16), 32, 1, 16);
        assert_ne!(
            sel.best.tree,
            EliminationTree::Flat,
            "16 slots must beat the serial chain: {:?}",
            sel.ranked
        );
        // The winner's predicted makespan is the ranking minimum.
        for s in &sel.ranked {
            assert!(sel.best.makespan_us <= s.makespan_us);
        }
    }

    #[test]
    fn candidates_are_listed_once() {
        for mt in 1..=40 {
            for nt in 1..=3 {
                let trees = candidate_trees(mt, nt);
                for (i, tree) in trees.iter().enumerate() {
                    assert!(!trees[..i].contains(tree), "{mt}x{nt}: {tree} twice");
                }
            }
        }
    }

    #[test]
    fn plan_sweep_covers_all_tile_sizes() {
        let p = profile(4);
        let sel = select_plan(&p, 256, 32, &[16, 32]);
        assert!(sel.ranked.iter().any(|s| s.tile_size == 16));
        assert!(sel.ranked.iter().any(|s| s.tile_size == 32));
        assert!(sel.best.makespan_us <= sel.ranked.last().unwrap().makespan_us);
    }

    #[test]
    #[should_panic(expected = "no tile-size candidates")]
    fn plan_sweep_rejects_empty_candidates() {
        let _ = select_plan(&profile(4), 320, 320, &[]);
    }
}
