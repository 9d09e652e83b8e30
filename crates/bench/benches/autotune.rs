//! The calibration loop, A/B'd end to end: flop-model priorities vs
//! measured-cost priorities in the deterministic list scheduler, the
//! online service tuner's probe → tuned transition on real jobs, and the
//! drift re-weighting path under a deliberately mis-scaled profile.
//!
//! Three sections, all recorded in `BENCH_autotune.json`:
//!
//! 1. `sim_ab` — [`tileqr::dag::list_makespan`] replays of reference
//!    grids (8×8 square and 32×2 tall-skinny) at 4 and 16 workers, under
//!    FIFO, critical-path-by-flops, and critical-path-by-measured-µs
//!    priorities, with task durations drawn from the calibrated curves
//!    (the scheduling claim, isolated from kernel noise).
//! 2. `service` — a [`tileqr::TunedQrService`] fed a stream of
//!    same-shape jobs: the first three probe tile sizes, the rest run
//!    selector-chosen plans; per-phase wall-clock and the probe/tuned
//!    counters from [`ServiceStats`] make the payoff measurable.
//! 3. `drift` — a real pool run whose calibrated cost model is scaled
//!    1000× off, forcing the drift detector to fire and re-rank
//!    mid-run; `drift_reweights` proves the loop closes online.
//!
//! Usage: `cargo bench --bench autotune [-- --smoke]`.

use std::fmt::Write as _;
use std::time::Instant;
use tileqr::dag::{
    bottom_levels, list_makespan, ClassCosts, CostCurve, CostModel, EliminationOrder, ListOrder,
    TaskGraph, TaskKind,
};
use tileqr::gen::random_matrix;
use tileqr::runtime::{model_weight, DriftConfig, SchedulePolicy, ServiceConfig};
use tileqr::{JobPlan, QrOptions, TiledQr, TunedQrService, TunerConfig};
use tileqr_bench::harness;

/// The synthetic measured profile the sim A/B runs on: per-class cubic
/// curves where updates are far cheaper per flop than panel kernels
/// (the GPU-like regime the paper measures) — exactly the situation
/// where flop-weighted priorities misjudge the critical path.
fn measured_costs() -> ClassCosts {
    let c = |c0: f64, c2: f64| CostCurve { c0, c1: 0.0, c2 };
    ClassCosts {
        triangulation: c(4.0, 0.012),
        elimination: c(4.0, 0.012),
        update: c(2.0, 0.001),
    }
}

struct SimRow {
    grid: (usize, usize),
    workers: usize,
    fifo_us: f64,
    cp_flops_us: f64,
    cp_measured_us: f64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let guard = harness::cores_guard("service-tuning latencies and drift timings");
    println!(
        "calibration-loop A/B{} on {} core(s)",
        if smoke { " [smoke]" } else { "" },
        guard.cores
    );

    // ---- 1. Simulated A/B: flop vs measured priorities. ----
    let b = 16usize;
    let costs = measured_costs();
    let dur = |k: TaskKind| costs.cost_us(k, b);
    let mut sim_rows: Vec<SimRow> = Vec::new();
    harness::header("listsim/policy");
    for (mt, nt) in [(8usize, 8usize), (32, 2)] {
        let graph = TaskGraph::build(mt, nt, EliminationOrder::FlatTs);
        let flop_pri = bottom_levels(&graph, model_weight(CostModel::Flops, b));
        let cal_pri = bottom_levels(&graph, dur);
        for workers in [4usize, 16] {
            let fifo_us = list_makespan(&graph, workers, ListOrder::Fifo, dur);
            let cp_flops_us = list_makespan(&graph, workers, ListOrder::Priority(&flop_pri), dur);
            let cp_measured_us = list_makespan(&graph, workers, ListOrder::Priority(&cal_pri), dur);
            println!(
                "{:<40} fifo {fifo_us:>9.1}µs  cp-flops {cp_flops_us:>9.1}µs  cp-measured {cp_measured_us:>9.1}µs",
                format!("{mt}x{nt}/{workers}w"),
            );
            sim_rows.push(SimRow {
                grid: (mt, nt),
                workers,
                fifo_us,
                cp_flops_us,
                cp_measured_us,
            });
        }
    }

    // ---- 2. Online service tuner: probes, then tuned plans. ----
    let n = if smoke { 64 } else { 128 };
    let tuned_jobs = if smoke { 2 } else { 4 };
    let a = random_matrix::<f64>(n, n, 7);
    let svc: TunedQrService<f64> = TunedQrService::start_with(
        ServiceConfig {
            workers: guard.cores.clamp(2, 4),
            policy: SchedulePolicy::CriticalPath,
            ..ServiceConfig::default()
        },
        TunerConfig {
            probe_tiles: vec![8, 16, 32],
            profile_path: None, // in-memory only: benches must not leak state
        },
    );
    harness::header("service/tuning");
    let mut probe_secs = 0.0f64;
    let mut probe_count = 0usize;
    loop {
        let t0 = Instant::now();
        let (_, _, plan) = svc.factor(&a).expect("probe job");
        let dt = t0.elapsed().as_secs_f64();
        match plan {
            JobPlan::Probe { tile_size } => {
                probe_secs += dt;
                probe_count += 1;
                println!(
                    "{:<40} {:>12}",
                    format!("probe/b{tile_size}"),
                    harness::format_secs(dt)
                );
            }
            _ => panic!("expected probes first, got {plan:?}"),
        }
        if svc.profile_for(n, n).is_some() {
            break;
        }
        assert!(probe_count < 8, "tuner failed to converge");
    }
    let selection = svc.selection_for(n, n).expect("calibrated");
    let mut tuned_secs = 0.0f64;
    for _ in 0..tuned_jobs {
        let t0 = Instant::now();
        let (_, _, plan) = svc.factor(&a).expect("tuned job");
        tuned_secs += t0.elapsed().as_secs_f64();
        assert!(matches!(plan, JobPlan::Tuned { .. }), "got {plan:?}");
    }
    println!(
        "{:<40} {:>12}  (plan: b{} {})",
        format!("tuned/x{tuned_jobs}"),
        harness::format_secs(tuned_secs / tuned_jobs as f64),
        selection.best.tile_size,
        selection.best.tree.label(),
    );
    let svc_stats = svc.shutdown();

    // ---- 3. Drift re-weighting on a mis-scaled profile. ----
    // A calibrated model 1000x slower than reality guarantees the
    // detector sees the discrepancy and re-ranks (recovery direction).
    let drift_n = if smoke { 96 } else { 160 };
    let ad = random_matrix::<f64>(drift_n, drift_n, 11);
    let mis_scaled = CostModel::Calibrated(costs.scaled([1000.0, 1000.0, 1000.0]));
    let t0 = Instant::now();
    let (_, report) = TiledQr::factor_traced(
        &ad,
        &QrOptions::new()
            .tile_size(16)
            .workers(guard.cores.clamp(2, 4))
            .schedule(SchedulePolicy::CriticalPath)
            .cost_model(mis_scaled)
            .drift(DriftConfig::on()),
    )
    .expect("drift run");
    let drift_secs = t0.elapsed().as_secs_f64();
    println!(
        "\ndrift: {} re-weight(s) over a {drift_n}x{drift_n} run in {}",
        report.drift_reweights,
        harness::format_secs(drift_secs)
    );

    // ---- Artifact. ----
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    json.push_str(&guard.json_fields("  "));
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"tile_size\": {b},");
    let _ = writeln!(json, "  \"sim_ab\": [");
    for (i, r) in sim_rows.iter().enumerate() {
        let sep = if i + 1 == sim_rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"grid\": \"{}x{}\", \"workers\": {}, \"fifo_us\": {:.3}, \"cp_flops_us\": {:.3}, \"cp_measured_us\": {:.3}}}{sep}",
            r.grid.0, r.grid.1, r.workers, r.fifo_us, r.cp_flops_us, r.cp_measured_us
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"service\": {{");
    let _ = writeln!(json, "    \"n\": {n},");
    let _ = writeln!(json, "    \"probe_jobs\": {},", svc_stats.probe_jobs);
    let _ = writeln!(json, "    \"tuned_jobs\": {},", svc_stats.tuned_jobs);
    let _ = writeln!(
        json,
        "    \"probe_seconds_mean\": {:.6},",
        probe_secs / probe_count.max(1) as f64
    );
    let _ = writeln!(
        json,
        "    \"tuned_seconds_mean\": {:.6},",
        tuned_secs / tuned_jobs as f64
    );
    let _ = writeln!(json, "    \"selected_tile\": {},", selection.best.tile_size);
    let _ = writeln!(
        json,
        "    \"selected_tree\": \"{}\",",
        selection.best.tree.label()
    );
    // Tuned-vs-probe wall-clock is parallelism- and noise-sensitive:
    // null it out on single-core hosts like every other headline.
    let _ = writeln!(
        json,
        "    \"tuned_speedup_vs_probe_mean\": {}",
        guard.gate_f64((probe_secs / probe_count.max(1) as f64) / (tuned_secs / tuned_jobs as f64))
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"drift\": {{");
    let _ = writeln!(json, "    \"n\": {drift_n},");
    let _ = writeln!(json, "    \"reweights\": {},", report.drift_reweights);
    let _ = writeln!(json, "    \"seconds\": {drift_secs:.6}");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_autotune.json");
    std::fs::write(out, &json).expect("write BENCH_autotune.json");
    println!("wrote {out}");
}
