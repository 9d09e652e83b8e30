//! Zero-allocation hot-path A/B: the seed's allocating kernels
//! ([`tileqr_bench::legacy_kernels`]) against the workspace-arena kernels
//! (`tileqr::kernels::*_ws`).
//!
//! For every kernel and tile size this records two things side by side:
//! wall time per call (minimum over batched timed samples — the robust
//! estimator on a shared host, see `harness::measure_calibrated`) and
//! heap allocations
//! per call, counted by a [`CountingAlloc`] global allocator. The
//! workspace path is *asserted* to allocate zero times in steady state —
//! a regression here fails the bench, not just a number in a report.
//!
//! The headline case replays the full flat-TS kernel sequence of an
//! 8x8-tile factorization (n = 128, b = 16, 204 tasks) with each kernel
//! set: the legacy replay allocates scratch in every task, the workspace
//! replay reuses one pre-sized arena plus two `T`-factor tiles for the
//! whole sweep. Results land in `BENCH_kernels.json` at the workspace
//! root.
//!
//! Usage: `cargo bench --bench kernel_hotpath [-- --smoke]`
//! (`--smoke` shrinks samples/sizes for CI; the reference case and the
//! zero-allocation assertions still run).

use std::fmt::Write as _;
use std::hint::black_box;
use tileqr::gen::random_matrix;
use tileqr::kernels::{
    geqrt_apply_ws, geqrt_ws, tsmqr_apply_ws, tsqrt_ws, ttmqr_apply_ws, ttqrt_ws, ApplySide,
    Workspace,
};
use tileqr::Matrix;
use tileqr_bench::alloc_counter::{self, CountingAlloc};
use tileqr_bench::harness;
use tileqr_bench::legacy_kernels::{
    legacy_geqrt, legacy_geqrt_apply, legacy_tsmqr_apply, legacy_tsqrt, legacy_ttmqr_apply,
    legacy_ttqrt,
};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One kernel/size comparison for the JSON artifact.
struct Row {
    kernel: &'static str,
    b: usize,
    legacy_ns: f64,
    ws_ns: f64,
    legacy_allocs: u64,
    ws_allocs: u64,
}

fn improvement_pct(legacy_ns: f64, ws_ns: f64) -> f64 {
    (legacy_ns - ws_ns) / legacy_ns * 100.0
}

/// Flop model for one call of `kernel` at tile size `b` (the crate's
/// leading-order counts from `tileqr::kernels::flops`).
fn kernel_flops(kernel: &str, b: usize) -> u64 {
    use tileqr::kernels::flops;
    match kernel {
        "geqrt" => flops::geqrt_flops(b),
        "unmqr" => flops::unmqr_flops(b),
        "tsqrt" => flops::tsqrt_flops(b),
        "tsmqr" => flops::tsmqr_flops(b),
        "ttqrt" => flops::ttqrt_flops(b),
        "ttmqr" => flops::ttmqr_flops(b),
        other => unreachable!("no flop model for kernel {other}"),
    }
}

fn gflops(kernel: &str, b: usize, ns: f64) -> f64 {
    kernel_flops(kernel, b) as f64 / ns
}

fn reset(dst: &mut Matrix<f64>, src: &Matrix<f64>) {
    dst.as_mut_slice().copy_from_slice(src.as_slice());
}

fn record(rows: &mut Vec<Row>, kernel: &'static str, b: usize, row: Row) {
    println!(
        "{:<24} {:>11.0} ns {:>11.0} ns {:>+7.1}%  {:>6.2} GF/s  allocs/call {} -> {}",
        format!("{kernel}/b{b}"),
        row.legacy_ns,
        row.ws_ns,
        improvement_pct(row.legacy_ns, row.ws_ns),
        gflops(kernel, b, row.ws_ns),
        row.legacy_allocs,
        row.ws_allocs,
    );
    assert_eq!(
        row.ws_allocs, 0,
        "workspace path of {kernel} (b = {b}) allocated in steady state"
    );
    rows.push(row);
}

/// A/B every kernel at one tile size.
fn micro(b: usize, samples: usize, rows: &mut Vec<Row>) {
    let mut ws = Workspace::<f64>::new(b, b);
    let mut tfac = Matrix::<f64>::zeros(b, b);

    // GEQRT: panel factorization of one square tile.
    let a0 = random_matrix::<f64>(b, b, 21);
    let mut a = a0.clone();
    let legacy = harness::measure_calibrated(samples, || {
        reset(&mut a, &a0);
        black_box(legacy_geqrt(&mut a).unwrap());
    });
    let new = harness::measure_calibrated(samples, || {
        reset(&mut a, &a0);
        geqrt_ws(&mut a, &mut tfac, &mut ws).unwrap();
    });
    let la = alloc_counter::count(|| {
        reset(&mut a, &a0);
        black_box(legacy_geqrt(&mut a).unwrap());
    });
    let wa = alloc_counter::count(|| {
        reset(&mut a, &a0);
        geqrt_ws(&mut a, &mut tfac, &mut ws).unwrap();
    });
    record(
        rows,
        "geqrt",
        b,
        Row {
            kernel: "geqrt",
            b,
            legacy_ns: legacy.min * 1e9,
            ws_ns: new.min * 1e9,
            legacy_allocs: la,
            ws_allocs: wa,
        },
    );

    // UNMQR: apply a panel's reflectors to one tile.
    let mut vr = random_matrix::<f64>(b, b, 22);
    let t_apply = legacy_geqrt(&mut vr).unwrap();
    let c0 = random_matrix::<f64>(b, b, 23);
    let mut c = c0.clone();
    let legacy = harness::measure_calibrated(samples, || {
        reset(&mut c, &c0);
        legacy_geqrt_apply(&vr, &t_apply, &mut c, ApplySide::Transpose).unwrap();
    });
    let new = harness::measure_calibrated(samples, || {
        reset(&mut c, &c0);
        geqrt_apply_ws(&vr, &t_apply, &mut c, ApplySide::Transpose, &mut ws).unwrap();
    });
    let la = alloc_counter::count(|| {
        reset(&mut c, &c0);
        legacy_geqrt_apply(&vr, &t_apply, &mut c, ApplySide::Transpose).unwrap();
    });
    let wa = alloc_counter::count(|| {
        reset(&mut c, &c0);
        geqrt_apply_ws(&vr, &t_apply, &mut c, ApplySide::Transpose, &mut ws).unwrap();
    });
    record(
        rows,
        "unmqr",
        b,
        Row {
            kernel: "unmqr",
            b,
            legacy_ns: legacy.min * 1e9,
            ws_ns: new.min * 1e9,
            legacy_allocs: la,
            ws_allocs: wa,
        },
    );

    // TSQRT: couple a triangle with a square tile below it.
    let r0 = random_matrix::<f64>(b, b, 24).upper_triangular();
    let a2_0 = random_matrix::<f64>(b, b, 25);
    let mut r1 = r0.clone();
    let mut a2 = a2_0.clone();
    let legacy = harness::measure_calibrated(samples, || {
        reset(&mut r1, &r0);
        reset(&mut a2, &a2_0);
        black_box(legacy_tsqrt(&mut r1, &mut a2).unwrap());
    });
    let new = harness::measure_calibrated(samples, || {
        reset(&mut r1, &r0);
        reset(&mut a2, &a2_0);
        tsqrt_ws(&mut r1, &mut a2, &mut tfac, &mut ws).unwrap();
    });
    let la = alloc_counter::count(|| {
        reset(&mut r1, &r0);
        reset(&mut a2, &a2_0);
        black_box(legacy_tsqrt(&mut r1, &mut a2).unwrap());
    });
    let wa = alloc_counter::count(|| {
        reset(&mut r1, &r0);
        reset(&mut a2, &a2_0);
        tsqrt_ws(&mut r1, &mut a2, &mut tfac, &mut ws).unwrap();
    });
    record(
        rows,
        "tsqrt",
        b,
        Row {
            kernel: "tsqrt",
            b,
            legacy_ns: legacy.min * 1e9,
            ws_ns: new.min * 1e9,
            legacy_allocs: la,
            ws_allocs: wa,
        },
    );

    // TSMQR: apply a TSQRT coupling to a tile pair.
    let mut r1v = r0.clone();
    let mut v2 = a2_0.clone();
    let t_ts = legacy_tsqrt(&mut r1v, &mut v2).unwrap();
    let a1_0 = random_matrix::<f64>(b, b, 26);
    let a2b_0 = random_matrix::<f64>(b, b, 27);
    let mut pair_a1 = a1_0.clone();
    let mut pair_a2 = a2b_0.clone();
    let legacy = harness::measure_calibrated(samples, || {
        reset(&mut pair_a1, &a1_0);
        reset(&mut pair_a2, &a2b_0);
        legacy_tsmqr_apply(&v2, &t_ts, &mut pair_a1, &mut pair_a2, ApplySide::Transpose).unwrap();
    });
    let new = harness::measure_calibrated(samples, || {
        reset(&mut pair_a1, &a1_0);
        reset(&mut pair_a2, &a2b_0);
        tsmqr_apply_ws(
            &v2,
            &t_ts,
            &mut pair_a1,
            &mut pair_a2,
            ApplySide::Transpose,
            &mut ws,
        )
        .unwrap();
    });
    let la = alloc_counter::count(|| {
        reset(&mut pair_a1, &a1_0);
        reset(&mut pair_a2, &a2b_0);
        legacy_tsmqr_apply(&v2, &t_ts, &mut pair_a1, &mut pair_a2, ApplySide::Transpose).unwrap();
    });
    let wa = alloc_counter::count(|| {
        reset(&mut pair_a1, &a1_0);
        reset(&mut pair_a2, &a2b_0);
        tsmqr_apply_ws(
            &v2,
            &t_ts,
            &mut pair_a1,
            &mut pair_a2,
            ApplySide::Transpose,
            &mut ws,
        )
        .unwrap();
    });
    record(
        rows,
        "tsmqr",
        b,
        Row {
            kernel: "tsmqr",
            b,
            legacy_ns: legacy.min * 1e9,
            ws_ns: new.min * 1e9,
            legacy_allocs: la,
            ws_allocs: wa,
        },
    );

    // TTQRT: couple two triangles.
    let p0 = random_matrix::<f64>(b, b, 28).upper_triangular();
    let q0 = random_matrix::<f64>(b, b, 29).upper_triangular();
    let mut p = p0.clone();
    let mut q = q0.clone();
    let legacy = harness::measure_calibrated(samples, || {
        reset(&mut p, &p0);
        reset(&mut q, &q0);
        black_box(legacy_ttqrt(&mut p, &mut q).unwrap());
    });
    let new = harness::measure_calibrated(samples, || {
        reset(&mut p, &p0);
        reset(&mut q, &q0);
        ttqrt_ws(&mut p, &mut q, &mut tfac, &mut ws).unwrap();
    });
    let la = alloc_counter::count(|| {
        reset(&mut p, &p0);
        reset(&mut q, &q0);
        black_box(legacy_ttqrt(&mut p, &mut q).unwrap());
    });
    let wa = alloc_counter::count(|| {
        reset(&mut p, &p0);
        reset(&mut q, &q0);
        ttqrt_ws(&mut p, &mut q, &mut tfac, &mut ws).unwrap();
    });
    record(
        rows,
        "ttqrt",
        b,
        Row {
            kernel: "ttqrt",
            b,
            legacy_ns: legacy.min * 1e9,
            ws_ns: new.min * 1e9,
            legacy_allocs: la,
            ws_allocs: wa,
        },
    );

    // TTMQR: apply a TTQRT coupling to a tile pair.
    let mut pv = p0.clone();
    let mut qv = q0.clone();
    let t_tt = legacy_ttqrt(&mut pv, &mut qv).unwrap();
    let legacy = harness::measure_calibrated(samples, || {
        reset(&mut pair_a1, &a1_0);
        reset(&mut pair_a2, &a2b_0);
        legacy_ttmqr_apply(&qv, &t_tt, &mut pair_a1, &mut pair_a2, ApplySide::Transpose).unwrap();
    });
    let new = harness::measure_calibrated(samples, || {
        reset(&mut pair_a1, &a1_0);
        reset(&mut pair_a2, &a2b_0);
        ttmqr_apply_ws(
            &qv,
            &t_tt,
            &mut pair_a1,
            &mut pair_a2,
            ApplySide::Transpose,
            &mut ws,
        )
        .unwrap();
    });
    let la = alloc_counter::count(|| {
        reset(&mut pair_a1, &a1_0);
        reset(&mut pair_a2, &a2b_0);
        legacy_ttmqr_apply(&qv, &t_tt, &mut pair_a1, &mut pair_a2, ApplySide::Transpose).unwrap();
    });
    let wa = alloc_counter::count(|| {
        reset(&mut pair_a1, &a1_0);
        reset(&mut pair_a2, &a2b_0);
        ttmqr_apply_ws(
            &qv,
            &t_tt,
            &mut pair_a1,
            &mut pair_a2,
            ApplySide::Transpose,
            &mut ws,
        )
        .unwrap();
    });
    record(
        rows,
        "ttmqr",
        b,
        Row {
            kernel: "ttmqr",
            b,
            legacy_ns: legacy.min * 1e9,
            ws_ns: new.min * 1e9,
            legacy_allocs: la,
            ws_allocs: wa,
        },
    );
}

/// Split out `(&mut tiles[lo], &mut tiles[hi])`, `lo < hi`.
fn two_tiles_mut(
    tiles: &mut [Matrix<f64>],
    lo: usize,
    hi: usize,
) -> (&mut Matrix<f64>, &mut Matrix<f64>) {
    assert!(lo < hi);
    let (left, right) = tiles.split_at_mut(hi);
    (&mut left[lo], &mut right[0])
}

/// Split out three distinct tiles in index order, `lo < mid < hi`.
fn three_tiles_mut(
    tiles: &mut [Matrix<f64>],
    lo: usize,
    mid: usize,
    hi: usize,
) -> (&mut Matrix<f64>, &mut Matrix<f64>, &mut Matrix<f64>) {
    assert!(lo < mid && mid < hi);
    let (left, rest) = tiles.split_at_mut(mid);
    let (middle, right) = rest.split_at_mut(hi - mid);
    (&mut left[lo], &mut middle[0], &mut right[0])
}

/// Flat-TS kernel sequence of an `nt x nt` tile factorization, seed
/// kernels: every task allocates its own scratch (and `T` factors are
/// fresh heap matrices).
fn legacy_sweep(tiles: &mut [Matrix<f64>], nt: usize) {
    for k in 0..nt {
        let kk = k * nt + k;
        let t_panel = legacy_geqrt(&mut tiles[kk]).unwrap();
        for j in k + 1..nt {
            let (vr, c) = two_tiles_mut(tiles, kk, k * nt + j);
            legacy_geqrt_apply(vr, &t_panel, c, ApplySide::Transpose).unwrap();
        }
        for i in k + 1..nt {
            let (r1, a2) = two_tiles_mut(tiles, kk, i * nt + k);
            let t_elim = legacy_tsqrt(r1, a2).unwrap();
            for j in k + 1..nt {
                let (a1, v2, a2j) = three_tiles_mut(tiles, k * nt + j, i * nt + k, i * nt + j);
                legacy_tsmqr_apply(v2, &t_elim, a1, a2j, ApplySide::Transpose).unwrap();
            }
        }
    }
}

/// The same kernel sequence on the workspace path: one pre-sized arena and
/// two reusable `T`-factor tiles for the entire sweep — zero steady-state
/// heap allocations (asserted by the caller).
fn ws_sweep(
    tiles: &mut [Matrix<f64>],
    nt: usize,
    t_panel: &mut Matrix<f64>,
    t_elim: &mut Matrix<f64>,
    ws: &mut Workspace<f64>,
) {
    for k in 0..nt {
        let kk = k * nt + k;
        geqrt_ws(&mut tiles[kk], t_panel, ws).unwrap();
        for j in k + 1..nt {
            let (vr, c) = two_tiles_mut(tiles, kk, k * nt + j);
            geqrt_apply_ws(vr, t_panel, c, ApplySide::Transpose, ws).unwrap();
        }
        for i in k + 1..nt {
            let (r1, a2) = two_tiles_mut(tiles, kk, i * nt + k);
            tsqrt_ws(r1, a2, t_elim, ws).unwrap();
            for j in k + 1..nt {
                let (a1, v2, a2j) = three_tiles_mut(tiles, k * nt + j, i * nt + k, i * nt + j);
                tsmqr_apply_ws(v2, t_elim, a1, a2j, ApplySide::Transpose, ws).unwrap();
            }
        }
    }
}

fn main() {
    let smoke = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .any(|a| a == "--smoke");
    let samples = if smoke { 3 } else { 20 };
    let sizes: &[usize] = if smoke { &[8, 16] } else { &[8, 16, 32, 64] };

    println!(
        "kernel hot path A/B: seed allocating kernels vs workspace arenas \
         (samples {samples}{})",
        if smoke { ", smoke" } else { "" }
    );
    println!(
        "\n{:<24} {:>14} {:>14} {:>8}",
        "kernel", "legacy", "workspace", "delta"
    );
    let mut rows: Vec<Row> = Vec::new();
    for &b in sizes {
        micro(b, samples, &mut rows);
    }

    // Reference case: full 8x8-tile flat-TS replay, n = 128, b = 16.
    let nt = 8;
    let b = 16;
    let ref_samples = if smoke { 2 } else { 5 };
    let tasks: usize = (0..nt)
        .map(|k| {
            let m = nt - 1 - k;
            1 + 2 * m + m * m
        })
        .sum();
    let pristine: Vec<Matrix<f64>> = (0..nt * nt)
        .map(|t| random_matrix::<f64>(b, b, 100 + t as u64))
        .collect();
    let mut tiles: Vec<Matrix<f64>> = pristine.clone();
    let reset_all = |tiles: &mut [Matrix<f64>], pristine: &[Matrix<f64>]| {
        for (t, p) in tiles.iter_mut().zip(pristine) {
            t.as_mut_slice().copy_from_slice(p.as_slice());
        }
    };

    let legacy = harness::measure(ref_samples, || {
        reset_all(&mut tiles, &pristine);
        legacy_sweep(&mut tiles, nt);
    });
    let legacy_allocs = alloc_counter::count(|| {
        reset_all(&mut tiles, &pristine);
        legacy_sweep(&mut tiles, nt);
    });

    let mut ws = Workspace::<f64>::new(b, b);
    let mut t_panel = Matrix::<f64>::zeros(b, b);
    let mut t_elim = Matrix::<f64>::zeros(b, b);
    let new = harness::measure(ref_samples, || {
        reset_all(&mut tiles, &pristine);
        ws_sweep(&mut tiles, nt, &mut t_panel, &mut t_elim, &mut ws);
    });
    let ws_allocs = alloc_counter::count(|| {
        reset_all(&mut tiles, &pristine);
        ws_sweep(&mut tiles, nt, &mut t_panel, &mut t_elim, &mut ws);
    });
    assert_eq!(
        ws_allocs, 0,
        "workspace replay of the 8x8 reference case allocated in steady state"
    );

    let legacy_ns_per_task = legacy.median * 1e9 / tasks as f64;
    let ws_ns_per_task = new.median * 1e9 / tasks as f64;
    let ref_improvement = improvement_pct(legacy_ns_per_task, ws_ns_per_task);
    println!(
        "\nreference 8x8 tiles (n = {}, b = {b}, {tasks} tasks):",
        nt * b
    );
    println!(
        "  legacy    {} ({:.0} ns/task, {:.1} allocs/task)",
        harness::format_secs(legacy.median),
        legacy_ns_per_task,
        legacy_allocs as f64 / tasks as f64,
    );
    println!(
        "  workspace {} ({:.0} ns/task, 0 allocs steady-state)",
        harness::format_secs(new.median),
        ws_ns_per_task,
    );
    println!("  improvement {ref_improvement:+.1}% ns/task");

    // Host provenance: GFLOP/s numbers are meaningless without knowing
    // what machine and backend produced them.
    let guard = harness::cores_guard("kernel-throughput comparisons against multi-core baselines");
    let cores = guard.cores;
    let backend = format!("{:?}", tileqr::kernels::micro::active_backend()).to_lowercase();

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"samples\": {samples},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    json.push_str(&guard.json_fields("  "));
    let _ = writeln!(json, "  \"host\": {{");
    let _ = writeln!(json, "    \"cores\": {cores},");
    let _ = writeln!(json, "    \"arch\": \"{}\",", std::env::consts::ARCH);
    let _ = writeln!(json, "    \"backend\": \"{backend}\"");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"kernels\": [");
    for (idx, r) in rows.iter().enumerate() {
        let sep = if idx + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"b\": {}, \"legacy_ns\": {:.1}, \"ws_ns\": {:.1}, \
             \"improvement_pct\": {:.2}, \"legacy_gflops\": {:.3}, \"ws_gflops\": {:.3}, \
             \"legacy_allocs_per_call\": {}, \"ws_allocs_per_call\": {}}}{sep}",
            r.kernel,
            r.b,
            r.legacy_ns,
            r.ws_ns,
            improvement_pct(r.legacy_ns, r.ws_ns),
            gflops(r.kernel, r.b, r.legacy_ns),
            gflops(r.kernel, r.b, r.ws_ns),
            r.legacy_allocs,
            r.ws_allocs,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"reference_8x8\": {{");
    let _ = writeln!(json, "    \"n\": {}, \"tile_size\": {b},", nt * b);
    let _ = writeln!(json, "    \"tile_grid\": {nt}, \"tasks\": {tasks},");
    let _ = writeln!(json, "    \"legacy_seconds\": {:.6},", legacy.median);
    let _ = writeln!(json, "    \"ws_seconds\": {:.6},", new.median);
    let _ = writeln!(json, "    \"legacy_ns_per_task\": {legacy_ns_per_task:.1},");
    let _ = writeln!(json, "    \"ws_ns_per_task\": {ws_ns_per_task:.1},");
    let _ = writeln!(json, "    \"improvement_pct\": {ref_improvement:.2},");
    let _ = writeln!(
        json,
        "    \"legacy_allocs_per_task\": {:.2},",
        legacy_allocs as f64 / tasks as f64
    );
    let _ = writeln!(json, "    \"ws_steady_state_allocs\": {ws_allocs}");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    // cargo runs benches with cwd = the package dir; anchor the artifact at
    // the workspace root regardless.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(out, &json).expect("write BENCH_kernels.json");
    println!("wrote {out}");
}
