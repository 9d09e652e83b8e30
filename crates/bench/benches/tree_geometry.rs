//! Elimination-tree geometry sweep: makespan per tree across
//! tall-skinny / square / wide tile grids, plus the auto-selector's pick
//! against the measured best (`BENCH_trees.json`).
//!
//! For each geometry the full candidate zoo (flat, binary, Fibonacci,
//! greedy, plateau, and — on tall-skinny grids — the TSQR plateau) is
//! built, its DAG metrics recorded (task count, unit critical path), its
//! makespan predicted by the discrete-event simulator under a profile
//! *calibrated from this host's own traced kernels*, and — where the
//! geometry is factorable (`rows >= cols`) — its wall-clock measured
//! through the real runtime. The selector's predicted winner is then
//! scored against the measured-best tree: the `selector_gap_pct` field
//! is the headline (0 = the selector picked the measured optimum).
//!
//! Usage: `cargo bench --bench tree_geometry [-- --smoke]`.

use std::fmt::Write as _;
use tileqr::dag::critical_path::critical_path_length;
use tileqr::dag::{TaskGraph, TreePolicy};
use tileqr::gen::random_matrix;
use tileqr::hetero::select::{candidate_trees, select_tree};
use tileqr::hetero::{profiles, DeviceKind, DeviceProfile};
use tileqr::kernels::flops;
use tileqr::obs::{fit_step_times, fitted_profile, samples_from_trace, KernelSample};
use tileqr::runtime::TraceConfig;
use tileqr::{QrOptions, TiledQr};
use tileqr_bench::harness;

struct TreeRow {
    tree: String,
    tasks: usize,
    critical_path: usize,
    predicted_us: f64,
    measured_s: Option<f64>,
    gflops: Option<f64>,
}

struct GeometryBlock {
    label: &'static str,
    rows: usize,
    cols: usize,
    b: usize,
    grid: (usize, usize),
    trees: Vec<TreeRow>,
    selector_pick: String,
    predicted_best: String,
    measured_best: Option<String>,
    selector_gap_pct: Option<f64>,
}

/// Calibrate a [`DeviceProfile`] from this host's own kernels: traced
/// factorizations at three tile sizes feed the least-squares fit of the
/// simulator timing curves. Falls back to the paper's CPU profile when
/// the fit is under-determined (it needs ≥ 3 distinct tile sizes).
fn calibrate_host(cores: usize) -> (DeviceProfile, bool) {
    let mut samples: Vec<KernelSample> = Vec::new();
    for b in [8usize, 16, 32] {
        let n = 4 * b;
        let a = random_matrix::<f64>(n, n, 0xCA1 + b as u64);
        let opts = QrOptions::new()
            .tile_size(b)
            .workers(2)
            .tracing(TraceConfig::enabled());
        if let Ok((_, report)) = TiledQr::factor_traced(&a, &opts) {
            if let Some(trace) = &report.trace {
                samples.extend(samples_from_trace(trace, b));
            }
        }
    }
    match fit_step_times(&samples) {
        Some(times) => (
            fitted_profile("calibrated-host", DeviceKind::Cpu, cores, times),
            true,
        ),
        None => {
            let mut p = profiles::cpu_i7_3820();
            p.cores = cores;
            (p, false)
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let samples = if smoke { 1 } else { 3 };
    let guard = harness::cores_guard("per-tree makespans and the selector-vs-oracle gap");
    let workers = guard.cores;

    // Tall-skinny (the TSQR tree's home turf), square, a wide panel
    // (factorable: rows > cols but nearly square), and a wide tile grid
    // (rows < cols: DAG/sim metrics only — QR needs rows >= cols).
    let geometries: Vec<(&'static str, usize, usize, usize)> = if smoke {
        vec![
            ("tall-skinny", 256, 32, 16),
            ("square", 128, 128, 16),
            ("wide-panel", 96, 80, 16),
            ("wide", 48, 128, 16),
        ]
    } else {
        vec![
            ("tall-skinny", 1024, 64, 32),
            ("square", 512, 512, 32),
            ("wide-panel", 288, 256, 32),
            ("wide", 128, 512, 32),
        ]
    };

    let (profile, calibrated) = calibrate_host(workers);
    println!(
        "tree geometry sweep: {} geometries, {workers} worker(s), profile {} ({})",
        geometries.len(),
        profile.name,
        if calibrated {
            "fitted from host traces"
        } else {
            "paper fallback"
        }
    );

    let mut blocks: Vec<GeometryBlock> = Vec::new();
    for (label, rows, cols, b) in geometries {
        let (mt, nt) = (rows.div_ceil(b), cols.div_ceil(b));
        let trees = candidate_trees(mt, nt);
        let selection = select_tree(&profile, mt, nt, b);
        let factorable = rows >= cols;
        let gflop = flops::qr_flops(rows, cols) as f64 / 1e9;
        let a = factorable.then(|| random_matrix::<f64>(rows, cols, 0xBE));

        harness::header(&format!(
            "tree_geometry/{label} ({rows}x{cols}, b={b}, grid {mt}x{nt})"
        ));
        let mut rows_out: Vec<TreeRow> = Vec::new();
        for &tree in &trees {
            let g = TaskGraph::build_tree(mt, nt, tree);
            let cp = critical_path_length(&g, |_| 1.0).round() as usize;
            let predicted_us = selection
                .ranked
                .iter()
                .find(|s| s.tree == tree)
                .map_or(f64::NAN, |s| s.makespan_us);
            let measured = a.as_ref().map(|a| {
                harness::bench(label, &tree.label(), samples, || {
                    TiledQr::factor(
                        a,
                        &QrOptions::new()
                            .tile_size(b)
                            .workers(workers)
                            .tree(TreePolicy::Fixed(tree)),
                    )
                    .expect("factorization");
                })
                .median
            });
            rows_out.push(TreeRow {
                tree: tree.label(),
                tasks: g.len(),
                critical_path: cp,
                predicted_us,
                measured_s: measured,
                gflops: measured.map(|s| gflop / s),
            });
        }

        let measured_best = rows_out
            .iter()
            .filter_map(|r| r.measured_s.map(|s| (s, r.tree.clone())))
            .min_by(|x, y| x.0.total_cmp(&y.0));
        let pick = selection.best.tree.label();
        let gap = measured_best.as_ref().and_then(|(best_s, _)| {
            rows_out
                .iter()
                .find(|r| r.tree == pick)
                .and_then(|r| r.measured_s)
                .map(|picked_s| (picked_s / best_s - 1.0) * 100.0)
        });
        if let Some((s, best)) = &measured_best {
            println!(
                "  selector picked {pick}; measured best {best} at {} (gap {})",
                harness::format_secs(*s),
                gap.map_or("n/a".to_string(), |g| format!("{g:+.1}%")),
            );
        } else {
            println!("  selector picked {pick} (sim-only geometry: rows < cols)");
        }
        blocks.push(GeometryBlock {
            label,
            rows,
            cols,
            b,
            grid: (mt, nt),
            trees: rows_out,
            selector_pick: pick,
            predicted_best: selection.best.tree.label(),
            measured_best: measured_best.map(|(_, t)| t),
            selector_gap_pct: gap,
        });
    }

    // --- Artifact. -------------------------------------------------------
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"samples\": {samples},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    json.push_str(&guard.json_fields("  "));
    let _ = writeln!(json, "  \"workers\": {workers},");
    let _ = writeln!(json, "  \"profile\": \"{}\",", profile.name);
    let _ = writeln!(json, "  \"profile_calibrated\": {calibrated},");
    let _ = writeln!(json, "  \"geometries\": [");
    for (gi, blk) in blocks.iter().enumerate() {
        let gsep = if gi + 1 == blocks.len() { "" } else { "," };
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"label\": \"{}\",", blk.label);
        let _ = writeln!(
            json,
            "      \"rows\": {}, \"cols\": {}, \"tile_size\": {},",
            blk.rows, blk.cols, blk.b
        );
        let _ = writeln!(json, "      \"grid\": [{}, {}],", blk.grid.0, blk.grid.1);
        let _ = writeln!(json, "      \"selector_pick\": \"{}\",", blk.selector_pick);
        let _ = writeln!(
            json,
            "      \"predicted_best\": \"{}\",",
            blk.predicted_best
        );
        let _ = writeln!(
            json,
            "      \"measured_best\": {},",
            blk.measured_best
                .as_ref()
                .map_or("null".to_string(), |t| format!("\"{t}\""))
        );
        let _ = writeln!(
            json,
            "      \"selector_gap_pct\": {},",
            blk.selector_gap_pct
                .map_or("null".to_string(), |g| format!("{g:.2}"))
        );
        let _ = writeln!(json, "      \"trees\": [");
        for (ti, r) in blk.trees.iter().enumerate() {
            let tsep = if ti + 1 == blk.trees.len() { "" } else { "," };
            let _ = writeln!(
                json,
                "        {{\"tree\": \"{}\", \"tasks\": {}, \"critical_path\": {}, \
                 \"predicted_makespan_us\": {:.1}, \"measured_seconds\": {}, \"gflops\": {}}}{tsep}",
                r.tree,
                r.tasks,
                r.critical_path,
                r.predicted_us,
                r.measured_s
                    .map_or("null".to_string(), |s| format!("{s:.6}")),
                r.gflops.map_or("null".to_string(), |g| format!("{g:.3}")),
            );
        }
        let _ = writeln!(json, "      ]");
        let _ = writeln!(json, "    }}{gsep}");
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    // cargo runs benches with cwd = the package dir; anchor the artifact at
    // the workspace root regardless.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trees.json");
    std::fs::write(out, &json).expect("write BENCH_trees.json");
    println!("wrote {out}");
}
