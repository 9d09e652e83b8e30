//! Heterogeneous-system facade: plan and simulate tiled QR on a CPU+GPU
//! node.
//!
//! Re-exports the scheduling (`tileqr-sched`) and simulation (`tileqr-sim`)
//! crates and adds a one-call entry point reproducing the paper's full
//! pipeline: Algorithm 2 (main device) → Algorithm 3 (device count) →
//! Algorithm 4 (guide-array distribution) → simulated execution.

pub use tileqr_dag::{ClassCosts, CostCurve, KernelClass};
pub use tileqr_sched::{
    assign, device_count, distribution, fastsim, guide, main_select, plan, ratio, replan, rowblock,
    select, AdaptiveRun, Distribution, DistributionStrategy, HeteroPlan, MainDevicePolicy,
    ReplanEvent, ReplanPolicy, Selection, TreeScore,
};
pub use tileqr_sim::{
    engine, profiles, DeviceId, DeviceKind, DeviceProfile, FaultPlan, Link, Platform, SimConfig,
    SimStats,
};

/// Outcome of planning + simulating one heterogeneous tiled-QR run.
#[derive(Debug, Clone)]
pub struct HeteroRun {
    /// The plan the paper's algorithms produced.
    pub plan: HeteroPlan,
    /// Simulated execution statistics.
    pub stats: SimStats,
    /// Tile grid dimensions the run used.
    pub grid: (usize, usize),
}

/// Plan (Algorithms 2–4) and simulate a tiled QR of an `n x n` matrix on
/// `platform`, using the platform's configured tile size.
///
/// This is the "everything on defaults" path of the paper; the experiment
/// harness in `tileqr-bench` uses the lower-level pieces to build each
/// figure's baselines.
pub fn plan_and_simulate(platform: &Platform, n: usize) -> HeteroRun {
    plan_and_simulate_shape(platform, n, n)
}

/// [`plan_and_simulate`] for rectangular matrices (`rows >= cols` for a
/// QR factorization; tall-and-skinny panels are the classic case).
pub fn plan_and_simulate_shape(platform: &Platform, rows: usize, cols: usize) -> HeteroRun {
    let b = platform.config().tile_size;
    let mt = rows.div_ceil(b).max(1);
    let nt = cols.div_ceil(b).max(1);
    let plan = plan::plan(platform, mt, nt);
    let stats = fastsim::simulate_fast(platform, &plan, mt, nt);
    HeteroRun {
        plan,
        stats,
        grid: (mt, nt),
    }
}

/// Plan an `n x n` run, then simulate it under `faults` with mid-run
/// re-planning per `policy` — the fault-tolerant counterpart of
/// [`plan_and_simulate`]. With an empty fault plan the statistics match
/// the healthy run bit for bit.
pub fn plan_and_simulate_faulted(
    platform: &Platform,
    n: usize,
    faults: &FaultPlan,
    policy: &ReplanPolicy,
) -> AdaptiveRun {
    let b = platform.config().tile_size;
    let t = n.div_ceil(b).max(1);
    let initial = plan::plan(platform, t, t);
    replan::simulate_adaptive(platform, &initial, t, t, faults, policy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_on_paper_testbed() {
        let p = profiles::paper_testbed(16);
        let run = plan_and_simulate(&p, 3200);
        assert_eq!(run.grid, (200, 200));
        assert_eq!(run.plan.main, 0, "GTX580 main");
        assert!(run.stats.makespan_us > 0.0);
    }

    #[test]
    fn bigger_problems_take_longer() {
        let p = profiles::paper_testbed(16);
        let a = plan_and_simulate(&p, 1600).stats.makespan_s();
        let b = plan_and_simulate(&p, 6400).stats.makespan_s();
        assert!(b > a);
    }

    #[test]
    fn non_divisible_size_rounds_up() {
        let p = profiles::paper_testbed(16);
        let run = plan_and_simulate(&p, 100);
        assert_eq!(run.grid, (7, 7));
    }

    #[test]
    fn faulted_run_with_no_faults_matches_healthy() {
        let p = profiles::paper_testbed(16);
        let healthy = plan_and_simulate(&p, 1600);
        let run = plan_and_simulate_faulted(&p, 1600, &FaultPlan::none(), &ReplanPolicy::default());
        assert_eq!(run.stats, healthy.stats);
        assert_eq!(run.stats.replan_count, 0);
    }

    #[test]
    fn faulted_run_survives_a_device_death() {
        let p = profiles::paper_testbed(16);
        let healthy = plan_and_simulate(&p, 1600);
        let dead = healthy.plan.participants[0];
        let faults = FaultPlan::none().with_device_death(dead, healthy.stats.makespan_us * 0.4);
        let run = plan_and_simulate_faulted(&p, 1600, &faults, &ReplanPolicy::default());
        assert!(run.stats.replan_count >= 1);
        assert!(run.stats.makespan_us.is_finite());
        assert!(run.plan.excluded.contains(&dead));
    }

    #[test]
    fn tall_and_skinny_shape() {
        let p = profiles::paper_testbed(16);
        let run = plan_and_simulate_shape(&p, 6400, 640);
        assert_eq!(run.grid, (400, 40));
        assert!(run.stats.makespan_us > 0.0);
        // A tall panel is cheaper than the full square of its height.
        let square = plan_and_simulate(&p, 6400);
        assert!(run.stats.makespan_us < square.stats.makespan_us);
    }
}
