//! Calibration acceptance suite: the `calibrate` module must recover a
//! ground-truth [`DeviceProfile`] from recorded spans within 10% per
//! kernel class, and its sim-vs-real report must close the loop — a
//! simulator calibrated from a run's own spans re-predicts that run's
//! makespan.

use tileqr::dag::{EliminationTree, TaskGraph};
use tileqr::hetero::{engine, profiles, ClassCosts, DeviceKind, Link, Platform, SimConfig};
use tileqr::obs::{
    fit_step_times, fitted_profile, profile_error, samples_from_trace, sim_vs_real, KernelSample,
    Trace,
};
use tileqr::prelude::*;
use tileqr::runtime::TraceConfig;

const TILE_SIZES: [usize; 4] = [8, 16, 24, 32];

/// Simulate one single-device run of an `nt`x`nt` tile grid at tile
/// size `b` and return its span samples.
fn simulated_samples(
    truth: &tileqr::hetero::DeviceProfile,
    b: usize,
    nt: usize,
) -> Vec<KernelSample> {
    let platform = Platform::new(
        vec![truth.clone()],
        Link::pcie2_x16(),
        SimConfig {
            tile_size: b,
            elem_bytes: 8,
        },
    );
    let graph = TaskGraph::build_tree(nt, nt, EliminationTree::Flat);
    let assignment = vec![0usize; graph.len()];
    let (_, timeline) = engine::simulate_traced(&graph, &platform, &assignment);
    let trace = Trace::from_timeline(&timeline, std::slice::from_ref(&truth.name));
    assert_eq!(trace.compute_span_count(), graph.len());
    samples_from_trace(&trace, b)
}

#[test]
fn fit_recovers_ground_truth_profile_from_simulated_spans() {
    // The acceptance bound is 10% per kernel class; on noise-free
    // simulated spans the fit should be essentially exact.
    for truth in [profiles::gtx580(), profiles::cpu_i7_3820()] {
        let mut samples = Vec::new();
        for &b in &TILE_SIZES {
            samples.extend(simulated_samples(&truth, b, 5));
        }
        let fitted =
            fit_step_times(&samples).unwrap_or_else(|| panic!("{}: fit failed", truth.name));
        let err = profile_error(&fitted, &truth.times, &TILE_SIZES);
        assert!(
            err.iter().all(|&e| e < 0.10),
            "{}: per-class relative error {err:?} exceeds 10%",
            truth.name
        );
        // Interpolation between sampled sizes also holds.
        let interp = profile_error(&fitted, &truth.times, &[12, 20, 28]);
        assert!(
            interp.iter().all(|&e| e < 0.10),
            "{}: {interp:?}",
            truth.name
        );
    }
}

#[test]
fn fit_fails_gracefully_below_three_tile_sizes() {
    let truth = profiles::cpu_i7_3820();
    let mut samples = simulated_samples(&truth, 8, 4);
    samples.extend(simulated_samples(&truth, 16, 4));
    assert!(
        fit_step_times(&samples).is_none(),
        "two distinct tile sizes cannot pin three coefficients"
    );
}

#[test]
fn calibrated_simulator_repredicts_the_run_it_was_fitted_from() {
    // Closed loop on a CPU profile: record a simulated run, fit a
    // profile from its spans, replay through sim_vs_real on the same
    // core count — the makespans must agree within the 10% bound.
    let truth = profiles::cpu_i7_3820();
    let mut samples = Vec::new();
    for &b in &TILE_SIZES {
        samples.extend(simulated_samples(&truth, b, 6));
    }
    let fitted = fit_step_times(&samples).unwrap();

    let b = 16;
    let nt = 6;
    let platform = Platform::new(
        vec![truth.clone()],
        Link::pcie2_x16(),
        SimConfig {
            tile_size: b,
            elem_bytes: 8,
        },
    );
    let graph = TaskGraph::build_tree(nt, nt, EliminationTree::Flat);
    let assignment = vec![0usize; graph.len()];
    let (stats, timeline) = engine::simulate_traced(&graph, &platform, &assignment);
    let trace = Trace::from_timeline(&timeline, std::slice::from_ref(&truth.name));

    let report = sim_vs_real(&trace, &graph, truth.cores, b, fitted);
    assert!((report.real_makespan_us - stats.makespan_us).abs() < 1e-6);
    assert!(report.sim_makespan_us > 0.0);
    assert!(report.real_compute_us > 0.0);
    // The model's total work spreads over the cores, so it is bounded
    // by cores x makespan, not by the makespan itself.
    let model_work_us: f64 = graph.tasks().iter().map(|&k| fitted.cost_us(k, b)).sum();
    assert!(model_work_us > 0.0);
    assert!(model_work_us <= report.sim_makespan_us * truth.cores as f64 + 1e-6);
    assert!(
        report.makespan_rel_error().abs() < 0.10,
        "calibrated replay off by {:.1}% (real {:.1} µs, sim {:.1} µs)",
        100.0 * report.makespan_rel_error(),
        report.real_makespan_us,
        report.sim_makespan_us
    );
}

#[test]
fn sim_vs_real_reports_on_a_real_pool_run() {
    // Calibrate from real measured spans across three tile sizes, then
    // score the cost model against the real 2-worker run. Wall-clock on
    // shared CI is noisy, so only sanity bounds are asserted — the
    // point is that the report is produced and internally consistent.
    let n = 64;
    let workers = 2;
    let mut samples = Vec::new();
    let mut scored = None;
    for b in [4usize, 8, 16] {
        let a = tileqr::gen::random_matrix::<f64>(n, n, 0xCA11B);
        let opts = QrOptions::new()
            .tile_size(b)
            .workers(workers)
            .tracing(TraceConfig::enabled());
        let (qr, report) = TiledQr::factor_traced(&a, &opts).unwrap();
        let trace = report.trace.unwrap();
        samples.extend(samples_from_trace(&trace, b));
        if b == 8 {
            scored = Some((trace, qr.graph().clone()));
        }
    }
    let fitted = fit_step_times(&samples).expect("three tile sizes fitted");
    let (trace, graph) = scored.unwrap();
    let report = sim_vs_real(&trace, &graph, workers, 8, fitted);

    assert!(report.real_makespan_us > 0.0);
    assert!(report.sim_makespan_us > 0.0);
    assert!(report.real_compute_us > 0.0);
    assert!(report.makespan_rel_error().is_finite());
    // The fitted profile slots straight into the planners.
    let dev = fitted_profile("host", DeviceKind::Cpu, workers, fitted);
    assert_eq!(dev.cores, workers);
    eprintln!(
        "sim-vs-real: real {:.1} µs, sim {:.1} µs, error {:+.1}%",
        report.real_makespan_us,
        report.sim_makespan_us,
        100.0 * report.makespan_rel_error()
    );
}

#[test]
fn profile_error_is_zero_against_itself() {
    let truth: ClassCosts = profiles::gtx580().times;
    assert_eq!(profile_error(&truth, &truth, &TILE_SIZES), [0.0, 0.0, 0.0]);
}
