//! Row-block distribution — the Communication-Avoiding QR baseline from
//! the paper's related work ([12, 13]).
//!
//! CAQR-style schedulers "divide the matrix row by row and the group row
//! tiles are distributed into a single cluster" (§VII). Each device owns a
//! contiguous band of tile rows; every kernel executes where its row
//! lives, and eliminations across bands use the TT tree kernels. The paper
//! argues column distribution suits a single shared-bus node better; this
//! module provides the row-block assignment so the claim can be measured
//! (this module's unit tests run both schemes through `sim::engine`; on
//! three GPUs the row bands win, see EXPERIMENTS).

use tileqr_dag::{TaskGraph, TaskKind};
use tileqr_sim::DeviceId;

/// Owner of tile row `i` when `mt` rows are split into `ndev` contiguous
/// bands (earlier devices get the extra rows when it does not divide).
pub fn row_owner(i: usize, mt: usize, ndev: usize) -> DeviceId {
    assert!(ndev > 0 && i < mt);
    (i * ndev) / mt
}

/// Assign every task of `g` by row ownership:
///
/// * `GEQRT(i, k)` and row updates `UNMQR(i, j, k)` run on `owner(i)`,
/// * eliminations `TSQRT`/`TTQRT(p, i, k)` and their updates run on the
///   *eliminated* row's owner (`owner(i)`) — the merge target pulls the
///   pivot row across, which is where CAQR pays its communication.
pub fn assign_rowblocks(g: &TaskGraph, mt: usize, ndev: usize) -> Vec<DeviceId> {
    g.tasks()
        .iter()
        .map(|t| match *t {
            TaskKind::Geqrt { i, .. } | TaskKind::Unmqr { i, .. } => row_owner(i, mt, ndev),
            TaskKind::Tsqrt { i, .. }
            | TaskKind::Ttqrt { i, .. }
            | TaskKind::Tsmqr { i, .. }
            | TaskKind::Ttmqr { i, .. } => row_owner(i, mt, ndev),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_dag::EliminationTree;
    use tileqr_sim::{engine, profiles};

    #[test]
    fn bands_are_contiguous_and_balanced() {
        let mt = 10;
        let ndev = 3;
        let owners: Vec<_> = (0..mt).map(|i| row_owner(i, mt, ndev)).collect();
        // Non-decreasing, covers all devices.
        assert!(owners.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(owners[0], 0);
        assert_eq!(*owners.last().unwrap(), ndev - 1);
        for d in 0..ndev {
            let cnt = owners.iter().filter(|&&o| o == d).count();
            assert!((3..=4).contains(&cnt), "band {d} holds {cnt} rows");
        }
    }

    #[test]
    fn assignment_covers_all_devices() {
        let g = TaskGraph::build_tree(12, 12, EliminationTree::Binary);
        let a = assign_rowblocks(&g, 12, 4);
        assert_eq!(a.len(), g.len());
        for d in 0..4 {
            assert!(a.contains(&d), "device {d} got no work");
        }
    }

    #[test]
    fn rowblock_runs_on_the_simulator() {
        let p = profiles::testbed_subset(3, false, 16);
        for order in [EliminationTree::Flat, EliminationTree::Binary] {
            let g = TaskGraph::build_tree(24, 24, order);
            let a = assign_rowblocks(&g, 24, p.num_devices());
            let stats = engine::simulate(&g, &p, &a);
            assert!(stats.makespan_us > 0.0);
            assert!(stats.transfer_count > 0, "cross-band merges must talk");
        }
    }

    #[test]
    fn tree_elimination_shortens_rowblock_critical_path() {
        // CAQR's point: with row-block ownership, tree elimination has a
        // logarithmic-depth merge instead of a linear chain. The weighted
        // critical path must shrink. (The TT orders trade this for more
        // kernel launches, so raw simulated makespan can still favour the
        // chain on a single node — exactly the paper's §VII argument for
        // its column distribution.)
        // Tall-and-skinny is CAQR's home turf: a 64-row, 2-column grid.
        let p = profiles::testbed_subset(3, false, 16);
        let mt = 64;
        let weight = |t: tileqr_dag::TaskKind| p.task_time_us(0, t);
        let flat_cp = tileqr_dag::critical_path::critical_path_length(
            &TaskGraph::build_tree(mt, 2, EliminationTree::Flat),
            weight,
        );
        let tree_cp = tileqr_dag::critical_path::critical_path_length(
            &TaskGraph::build_tree(mt, 2, EliminationTree::Binary),
            weight,
        );
        assert!(tree_cp < flat_cp, "tree CP {tree_cp} !< flat CP {flat_cp}");
    }

    #[test]
    fn rowblocks_beat_the_column_plan_at_three_gpus() {
        // §VII: "in our work, we use a column by column tile distribution
        // … since there is not much communication cost for our system".
        // Measured on three GPUs it does not reproduce: the CAQR-style row
        // bands beat the paper's column plan at every size, and one GPU
        // beats both until the row bands overtake it at nt = 90.
        let p = profiles::testbed_subset(3, false, 16);
        for nt in [8, 24, 40, 90] {
            let g = TaskGraph::build_tree(nt, nt, EliminationTree::Flat);
            let row = engine::simulate(&g, &p, &assign_rowblocks(&g, nt, 3)).makespan_us;
            let col = |gpus| {
                let hp = crate::plan::plan_with(
                    &p,
                    nt,
                    nt,
                    crate::plan::MainDevicePolicy::Fixed(0),
                    crate::distribution::DistributionStrategy::GuideArray,
                    Some(gpus),
                    &[],
                );
                let a = crate::assign::assign_tasks(&g, &hp.distribution, hp.policy);
                engine::simulate(&g, &p, &a).makespan_us
            };
            let (col3, col1) = (col(3), col(1));
            assert!(row < col3, "nt={nt}: row-block {row} !< column {col3}");
            if nt <= 40 {
                assert!(col1 < row, "nt={nt}: one GPU {col1} !< row-block {row}");
            } else {
                assert!(row < col1, "nt={nt}: row-block {row} !< one GPU {col1}");
            }
        }
    }
}
