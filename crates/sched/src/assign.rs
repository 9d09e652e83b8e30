//! Lower a [`HeteroPlan`](crate::plan::HeteroPlan) onto a concrete task
//! graph: one device per task, for the exact simulator.

use crate::distribution::Distribution;
use crate::plan::MainDevicePolicy;
use tileqr_dag::TaskGraph;
use tileqr_sim::DeviceId;

/// Assign every task of `g` to a device following the paper's rules
/// (§IV-D):
///
/// * triangulation and elimination run on the main computing device — or,
///   under [`MainDevicePolicy::None`], on the owner of the panel column
///   (the "no specific main" baseline of Fig. 9),
/// * update kernels run on the owner of the column they write (Eq. 12).
pub fn assign_tasks(g: &TaskGraph, dist: &Distribution, policy: MainDevicePolicy) -> Vec<DeviceId> {
    g.tasks()
        .iter()
        .map(|t| {
            if t.class().is_main_device_work() {
                match policy {
                    MainDevicePolicy::None => dist.owner(t.panel()),
                    _ => dist.main(),
                }
            } else {
                dist.owner(t.home_column())
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::DistributionStrategy;
    use tileqr_dag::{EliminationTree, StepClass};
    use tileqr_sim::profiles;

    #[test]
    fn te_tasks_go_to_main() {
        let p = profiles::paper_testbed(16);
        let d = Distribution::build(&p, 0, &[0, 1, 2, 3], DistributionStrategy::GuideArray);
        let g = TaskGraph::build_tree(6, 6, EliminationTree::Flat);
        let a = assign_tasks(&g, &d, MainDevicePolicy::Auto);
        for (task, &dev) in g.tasks().iter().zip(&a) {
            if task.class().is_main_device_work() {
                assert_eq!(dev, 0, "{task:?} not on main");
            }
        }
    }

    #[test]
    fn updates_follow_column_owner() {
        let p = profiles::paper_testbed(16);
        let d = Distribution::build(&p, 0, &[0, 1, 2, 3], DistributionStrategy::GuideArray);
        let g = TaskGraph::build_tree(6, 6, EliminationTree::Flat);
        let a = assign_tasks(&g, &d, MainDevicePolicy::Auto);
        for (task, &dev) in g.tasks().iter().zip(&a) {
            if !task.class().is_main_device_work() {
                assert_eq!(dev, d.owner(task.home_column()), "{task:?}");
            }
        }
    }

    #[test]
    fn none_policy_uses_panel_owner() {
        let p = profiles::paper_testbed(16);
        let d = Distribution::build(&p, 0, &[0, 1, 2], DistributionStrategy::Even);
        let g = TaskGraph::build_tree(6, 6, EliminationTree::Flat);
        let a = assign_tasks(&g, &d, MainDevicePolicy::None);
        for (task, &dev) in g.tasks().iter().zip(&a) {
            if matches!(
                task.class(),
                StepClass::Triangulation | StepClass::Elimination
            ) {
                assert_eq!(dev, d.owner(task.panel()), "{task:?}");
            }
        }
        // With even distribution over 3 devices, T/E work is actually
        // spread (not all on one device).
        let te_devs: std::collections::HashSet<_> = g
            .tasks()
            .iter()
            .zip(&a)
            .filter(|(t, _)| t.class().is_main_device_work())
            .map(|(_, &dv)| dv)
            .collect();
        assert!(te_devs.len() > 1);
    }
}
