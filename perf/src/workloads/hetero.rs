//! `hetero_plan`: the paper's planner (Alg. 2–4, Eqs. 10–11) and the
//! simulators behind it. No numerics run; only `sched`, `sim` and `dag`.
//!
//! One *sweep* plans and simulates the Fig. 6 sizes (n = 160..=4000 step
//! 160) and the Fig. 8 size (n = 16000) on the paper's testbed, runs the
//! calibrated tree/tile-size selector for three matrix shapes, and
//! re-plans an n = 3200 run through the death of its main GPU.

use super::{median_secs, median_setup, write_trace, EndToEnd, Outcome, RunArgs};
use crate::clock::Clock;
use crate::layers::{graph_stats, report_host};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{median, min_samples_for_tail};
use std::hint::black_box;
use std::time::Instant;
use tileqr::dag::{EliminationTree, TaskGraph};
use tileqr::hetero::{
    assign, engine, fastsim, plan, plan_and_simulate, plan_and_simulate_faulted, profiles, replan,
    select, DeviceProfile, FaultPlan, Platform, ReplanPolicy,
};

pub const NAME: &str = "hetero_plan";

/// The paper's tile size (§V).
const TILE: usize = 16;
/// Fig. 8's matrix size.
const N_LARGE: usize = 16000;
/// The size whose healthy makespan is reported and whose run is faulted.
const N_FAULTED: usize = 3200;
/// Matrix shapes the selector plans, each over tile sizes [`SELECT_TILES`].
const SELECT_SHAPES: [(usize, usize); 3] = [(1024, 64), (512, 512), (288, 256)];
const SELECT_TILES: [usize; 2] = [16, 32];
/// The exact event-driven engine is timed on this size (40×40 tiles).
const N_ENGINE: usize = 640;

/// Tail percentile of the sweep time.
const TAIL: f64 = 0.9;
/// Fewest pairs of one untraced sweep and one replay in the traced pass.
const MIN_TRACED_SAMPLES: usize = 10;

/// Fig. 6's matrix sizes followed by Fig. 8's.
fn sizes() -> impl Iterator<Item = usize> {
    (160..=4000).step_by(160).chain([N_LARGE])
}

struct Inputs {
    platform: Platform,
    cpu: DeviceProfile,
    /// Kills the healthy n = 3200 plan's main device 40 % into its run.
    faults: FaultPlan,
}

/// Every simulated makespan of one sweep, in sweep order: they are
/// deterministic, so two sweeps must agree bit for bit.
#[derive(Debug, Clone, PartialEq)]
struct SweepResult {
    healthy_us: Vec<f64>,
    selected_us: Vec<f64>,
    faulted_us: f64,
    replans: u64,
}

impl SweepResult {
    fn check(&self, first: &SweepResult) -> Result<(), String> {
        let all = self
            .healthy_us
            .iter()
            .chain(&self.selected_us)
            .chain([&self.faulted_us]);
        if let Some(bad) = all.clone().find(|v| !(v.is_finite() && **v > 0.0)) {
            return Err(format!(
                "simulated makespan {bad} is not a positive finite time"
            ));
        }
        if self.replans == 0 {
            return Err("the device death triggered no re-plan".to_string());
        }
        let bits = |r: &SweepResult| -> Vec<u64> {
            let all = r
                .healthy_us
                .iter()
                .chain(&r.selected_us)
                .chain([&r.faulted_us]);
            all.map(|v| v.to_bits()).collect()
        };
        if bits(self) != bits(first) {
            return Err("simulated makespans differ between sweeps of one run".to_string());
        }
        Ok(())
    }
}

fn setup() -> Result<Inputs, String> {
    let platform = profiles::paper_testbed(TILE);
    let healthy = plan_and_simulate(&platform, N_FAULTED);
    let dead = *healthy
        .plan
        .participants
        .first()
        .ok_or("plan has no participants")?;
    let faults = FaultPlan::none().with_device_death(dead, healthy.stats.makespan_us * 0.4);
    let inp = Inputs {
        platform,
        cpu: profiles::cpu_i7_3820(),
        faults,
    };
    sweep(&inp);
    Ok(inp)
}

/// One sweep through the public facade; returns its results and the
/// seconds the faulted re-plan took.
fn sweep(inp: &Inputs) -> (SweepResult, f64) {
    let healthy_us = sizes()
        .map(|n| plan_and_simulate(&inp.platform, n).stats.makespan_us)
        .collect();
    let selected_us = SELECT_SHAPES
        .iter()
        .map(|&(r, c)| {
            select::select_plan(&inp.cpu, r, c, &SELECT_TILES)
                .best
                .makespan_us
        })
        .collect();
    let t0 = Instant::now();
    let run = plan_and_simulate_faulted(
        &inp.platform,
        N_FAULTED,
        &inp.faults,
        &ReplanPolicy::default(),
    );
    let replan_s = t0.elapsed().as_secs_f64();
    let result = SweepResult {
        healthy_us,
        selected_us,
        faulted_us: run.stats.makespan_us,
        replans: run.stats.replan_count,
    };
    (result, replan_s)
}

/// The untraced pass: end-to-end metrics. The seed is unused: the
/// workload has no random input, its inputs are the paper's sizes.
pub fn run(args: RunArgs, out: &mut Report) -> Result<Outcome, String> {
    let (inp, setup_s) = median_setup(setup)?;
    let min_samples = min_samples_for_tail(TAIL);
    let (mut sweep_s, mut replan_s) = (Vec::new(), Vec::new());
    let mut results = Vec::new();
    let mut clock = Clock::start();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < args.seconds || sweep_s.len() < min_samples {
        let t0 = Instant::now();
        let (result, replan) = sweep(&inp);
        let raw = t0.elapsed().as_secs_f64();
        results.push(result);
        let scale = clock.lap().scale();
        sweep_s.push(raw * scale);
        replan_s.push(replan * scale);
    }
    let n = sweep_s.len();

    let mut outcome = Outcome {
        attempted: n as u64,
        failed: 0,
    };
    for (i, r) in results.iter().enumerate() {
        if let Err(why) = r.check(&results[0]) {
            eprintln!("{NAME}: sweep {i}: {why}");
            outcome.failed += 1;
        }
    }

    EndToEnd {
        ops_per_s: n as f64 / sweep_s.iter().sum::<f64>(),
        op_s: &mut sweep_s,
        tail: TAIL,
        aux_s: &mut replan_s,
        setup_s,
        peak_rss_mb: crate::host::peak_rss_mb()?,
    }
    .report(out);
    Ok(outcome)
}

/// The traced pass: the sweep replayed call by call with a span round
/// each call into `sched` and `sim`.
pub fn run_traced(args: RunArgs, out: &mut Report) -> Result<Outcome, String> {
    let started = Instant::now();
    let inp = setup()?;
    let p = &inp.platform;
    report_host(out, args.cores);

    // The exact engine on one mid-sized graph, and that graph's counts.
    let t = N_ENGINE.div_ceil(TILE);
    let mut clock = Clock::start();
    let (graph, build_s) = clock.time(|| TaskGraph::build_tree(t, t, EliminationTree::Flat));
    out.set("dag.build_s", build_s, 1);
    let gs = graph_stats(&graph);
    out.set("dag.tasks", gs.tasks as f64, 1);
    out.set("dag.edges", gs.edges as f64, 1);
    out.set("dag.critical_path_tasks", gs.critical_path_tasks as f64, 1);
    let engine_plan = plan::plan(p, t, t);
    let assignment = assign::assign_tasks(&graph, &engine_plan.distribution, engine_plan.policy);
    let engine_s = median_secs(5, || {
        black_box(engine::simulate(&graph, p, &assignment));
    });
    out.set("sim.engine_tasks_per_s", gs.tasks as f64 / engine_s, 5);
    let (_, timeline) = engine::simulate_traced(&graph, p, &assignment);
    let lanes: Vec<String> = p.devices().iter().map(|d| d.name.clone()).collect();
    let sim_trace = tileqr::obs::Trace::from_timeline(&timeline, &lanes);
    let (_, export_s) = clock.time(|| tileqr::obs::chrome::export(&sim_trace));
    out.set("obs.export_s", export_s, 1);

    let (first, _) = sweep(&inp);

    let mut spans = Spans::new();
    let mut outcome = Outcome::default();
    let (mut sweep_s, mut plan_s, mut fast_s, mut select_s, mut replan_s, mut children_s) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let mut devices_used = Vec::new();
    // Each replay follows one untraced sweep through the facade, so that
    // the two medians being compared saw the same machine.
    let mut untraced_s = Vec::new();
    while started.elapsed().as_secs_f64() < args.seconds || sweep_s.len() < MIN_TRACED_SAMPLES {
        outcome.attempted += 1;
        untraced_s.push(clock.time(|| sweep(&inp)).1);

        let op = sweep_s.len() as u64;
        let (mut plan_sum, mut fast_sum, mut select_sum) = (0.0, 0.0, 0.0);
        let sweep_span = spans.open("core.sweep", op);
        let mut healthy_us = Vec::new();
        devices_used.clear();
        for n in sizes() {
            let t = n.div_ceil(TILE);
            let id = spans.open("sched.plan", op);
            let plan = plan::plan(p, t, t);
            plan_sum += spans.close(id);
            let id = spans.open("sim.fast", op);
            let stats = fastsim::simulate_fast(p, &plan, t, t);
            fast_sum += spans.close(id);
            healthy_us.push(stats.makespan_us);
            devices_used.push((n, plan.participants.len()));
        }
        let mut selected_us = Vec::new();
        for (r, c) in SELECT_SHAPES {
            let id = spans.open("sched.select", op);
            selected_us.push(
                select::select_plan(&inp.cpu, r, c, &SELECT_TILES)
                    .best
                    .makespan_us,
            );
            select_sum += spans.close(id);
        }
        let t = N_FAULTED.div_ceil(TILE);
        let id = spans.open("sched.plan", op);
        let initial = plan::plan(p, t, t);
        plan_sum += spans.close(id);
        let id = spans.open("sched.replan", op);
        let run =
            replan::simulate_adaptive(p, &initial, t, t, &inp.faults, &ReplanPolicy::default());
        let replan = spans.close(id);
        let raw_sweep = spans.close(sweep_span);
        let f = clock.lap().scale();
        sweep_s.push(raw_sweep * f);

        let result = SweepResult {
            healthy_us,
            selected_us,
            faulted_us: run.stats.makespan_us,
            replans: run.stats.replan_count,
        };
        if let Err(why) = result.check(&first) {
            eprintln!("{NAME}: replayed sweep {op}: {why}");
            outcome.failed += 1;
        }
        plan_s.push(plan_sum * f);
        fast_s.push(fast_sum * f);
        select_s.push(select_sum * f);
        replan_s.push(replan * f);
        children_s.push((plan_sum + fast_sum + select_sum + replan) / raw_sweep);
    }
    let n = sweep_s.len();
    write_trace(NAME, &spans)?;

    // Round by round, between neighbours in time, then the median.
    let mut trace_overhead: Vec<f64> = (0..n).map(|i| sweep_s[i] / untraced_s[i] - 1.0).collect();
    out.set("sched.plan_us", median(&mut plan_s) * 1e6, n);
    out.set("sim.fast_us", median(&mut fast_s) * 1e6, n);
    out.set("sched.select_us", median(&mut select_s) * 1e6, n);
    out.set("sched.replan_us", median(&mut replan_s) * 1e6, n);
    for (size, us) in sizes().zip(&first.healthy_us) {
        if matches!(size, 640 | 1440 | 2720 | 3200 | 16000) {
            out.set(&format!("sched.makespan_us.n{size}"), *us, 1);
        }
    }
    for &(size, used) in &devices_used {
        if matches!(size, 640 | 2720) {
            out.set(&format!("sched.devices_used.n{size}"), used as f64, 1);
        }
    }
    out.set("core.reconcile_ratio", median(&mut children_s), n);
    out.set("host.clock_ns_per_step", clock.median_ns_per_step(), n);
    out.set("obs.trace_overhead_frac", median(&mut trace_overhead), n);
    out.set("obs.spans", spans.len() as f64, 1);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_repeat_bit_for_bit_and_a_changed_makespan_fails() {
        let inp = setup().unwrap();
        let (a, _) = sweep(&inp);
        let (b, _) = sweep(&inp);
        assert_eq!(a.healthy_us.len(), 26);
        a.check(&b).unwrap();
        let mut c = a.clone();
        c.healthy_us[3] = f64::from_bits(c.healthy_us[3].to_bits() + 1);
        assert!(c.check(&a).is_err());
        c.healthy_us[3] = f64::INFINITY;
        assert!(c.check(&c.clone()).is_err());
    }
}
