//! Per-layer measurements shared by several workloads: the six tile
//! kernels timed in isolation, and graph statistics.

use crate::clock::Clock;
use crate::report::Report;
use std::hint::black_box;
use std::time::Instant;
use tileqr::dag::{bottom_levels, TaskGraph, TaskKind};
use tileqr::gen::random_matrix;
use tileqr::kernels::{
    flops, geqrt_ws, micro, tsmqr_apply_ws, tsqrt_ws, ttmqr_apply_ws, ttqrt_ws, unmqr_ws,
    ApplySide, Workspace,
};
use tileqr::obs::{kind_index, KIND_NAMES, NUM_KINDS};
use tileqr::Matrix;

/// Leading-order flops of each kernel at tile size `b`, by `kind_index`.
pub fn kernel_flops(b: usize) -> [u64; NUM_KINDS] {
    [
        flops::geqrt_flops(b),
        flops::unmqr_flops(b),
        flops::tsqrt_flops(b),
        flops::tsmqr_flops(b),
        flops::ttqrt_flops(b),
        flops::ttmqr_flops(b),
    ]
}

/// Tiles each kernel reads plus tiles it writes, every operand counted
/// as a dense `b × b` tile (triangles included), by `kind_index`.
const TILES_MOVED: [u64; NUM_KINDS] = [3, 4, 5, 6, 5, 6];

/// Median seconds per call of `f` at the reference speed, timed in
/// batches of about a millisecond for `budget_s` seconds. The host's
/// speed is probed round every tenth batch.
fn time_batched(budget_s: f64, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    f();
    f();
    let once = (t0.elapsed().as_secs_f64() / 2.0).max(1e-9);
    let iters = ((1e-3 / once).ceil() as usize).clamp(1, 1 << 16);
    let mut clock = Clock::start();
    let mut per_call = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < budget_s || per_call.len() < 10 {
        let first = per_call.len();
        for _ in 0..10 {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            per_call.push(t0.elapsed().as_secs_f64() / iters as f64);
        }
        let scale = clock.lap().scale();
        per_call[first..].iter_mut().for_each(|t| *t *= scale);
    }
    crate::stats::median(&mut per_call)
}

/// Seconds per call of the six `_ws` kernels at tile size `b`, sharing
/// one [`Workspace`], by `kind_index`. The three factor kernels destroy
/// their input, so their timing includes restoring it (a `b²` copy, a
/// few percent of the kernel at `b = 16` and less above).
pub fn time_kernels(b: usize, seed: u64, budget_s: f64) -> Result<[f64; NUM_KINDS], String> {
    let per_kernel = budget_s / NUM_KINDS as f64;
    let mut ws = Workspace::<f64>::new(b, b);
    let mut tfac = Matrix::<f64>::zeros(b, b);
    let full = |k: u64| random_matrix::<f64>(b, b, seed.wrapping_mul(31).wrapping_add(k));
    let restore = |dst: &mut Matrix<f64>, src: &Matrix<f64>| {
        dst.as_mut_slice().copy_from_slice(src.as_slice());
    };
    let e = |e: tileqr::MatrixError| e.to_string();
    let mut out = [0.0; NUM_KINDS];

    // GEQRT, then UNMQR with the factor it leaves behind.
    let a0 = full(1);
    let mut a = a0.clone();
    geqrt_ws(&mut a, &mut tfac, &mut ws).map_err(e)?;
    out[0] = time_batched(per_kernel, || {
        restore(&mut a, &a0);
        geqrt_ws(&mut a, &mut tfac, &mut ws).expect("timed geqrt");
        black_box(&tfac);
    });
    let mut c = full(2);
    out[1] = time_batched(per_kernel, || {
        unmqr_ws(&a, &tfac, &mut c, &mut ws).expect("timed unmqr");
        black_box(&c);
    });

    // TSQRT, then TSMQR with its reflectors.
    let r0 = full(3).upper_triangular();
    let v0 = full(4);
    let (mut r1, mut v2) = (r0.clone(), v0.clone());
    tsqrt_ws(&mut r1, &mut v2, &mut tfac, &mut ws).map_err(e)?;
    out[2] = time_batched(per_kernel, || {
        restore(&mut r1, &r0);
        restore(&mut v2, &v0);
        tsqrt_ws(&mut r1, &mut v2, &mut tfac, &mut ws).expect("timed tsqrt");
        black_box(&tfac);
    });
    let (mut a1, mut a2) = (full(5), full(6));
    out[3] = time_batched(per_kernel, || {
        tsmqr_apply_ws(&v2, &tfac, &mut a1, &mut a2, ApplySide::Transpose, &mut ws)
            .expect("timed tsmqr");
        black_box((&a1, &a2));
    });

    // TTQRT, then TTMQR with its reflectors.
    let s0 = full(7).upper_triangular();
    let (mut r1, mut r2) = (r0.clone(), s0.clone());
    ttqrt_ws(&mut r1, &mut r2, &mut tfac, &mut ws).map_err(e)?;
    out[4] = time_batched(per_kernel, || {
        restore(&mut r1, &r0);
        restore(&mut r2, &s0);
        ttqrt_ws(&mut r1, &mut r2, &mut tfac, &mut ws).expect("timed ttqrt");
        black_box(&tfac);
    });
    out[5] = time_batched(per_kernel, || {
        ttmqr_apply_ws(&r2, &tfac, &mut a1, &mut a2, ApplySide::Transpose, &mut ws)
            .expect("timed ttmqr");
        black_box((&a1, &a2));
    });
    Ok(out)
}

/// Write the `host.*` rows that do not depend on the workload; returns
/// the multiply-add peak in GFLOP/s. `cores` is the count before pinning.
pub fn report_host(out: &mut Report, cores: usize) -> f64 {
    let peak = crate::host::fma_peak_gflops();
    out.set("host.fma_peak_gflops", peak, 1);
    out.set("host.cores", cores as f64, 1);
    let simd = micro::active_backend() == micro::Backend::Simd;
    out.set("host.simd", f64::from(simd), 1);
    peak
}

/// Write the `kernels.<name>_*` columns for tile size `b`.
pub fn report_kernels(out: &mut Report, b: usize, secs: &[f64; NUM_KINDS], peak_gflops: f64) {
    let fl = kernel_flops(b);
    for k in 0..NUM_KINDS {
        let name = KIND_NAMES[k];
        let gflops = fl[k] as f64 / secs[k] * 1e-9;
        let bytes = TILES_MOVED[k] * (b * b * std::mem::size_of::<f64>()) as u64;
        out.set(&format!("kernels.{name}_ns"), secs[k] * 1e9, 1);
        out.set(&format!("kernels.{name}_gflops"), gflops, 1);
        out.set(
            &format!("kernels.{name}_flops_per_byte"),
            fl[k] as f64 / bytes as f64,
            1,
        );
        out.set(
            &format!("kernels.{name}_pct_fma_peak"),
            100.0 * gflops / peak_gflops,
            1,
        );
    }
}

/// Tasks of each kind in `g`, by `kind_index`.
pub fn kind_counts(g: &TaskGraph) -> [u64; NUM_KINDS] {
    let mut counts = [0u64; NUM_KINDS];
    for &t in g.tasks() {
        counts[kind_index(t)] += 1;
    }
    counts
}

/// Exact statistics of one task graph.
pub struct GraphStats {
    pub tasks: u64,
    pub edges: u64,
    pub critical_path_tasks: u64,
}

pub fn graph_stats(g: &TaskGraph) -> GraphStats {
    let unit = bottom_levels(g, |_: TaskKind| 1.0);
    GraphStats {
        tasks: g.len() as u64,
        edges: (0..g.len()).map(|t| g.succs(t).len() as u64).sum(),
        critical_path_tasks: unit.iter().fold(0.0_f64, |m, &v| m.max(v)) as u64,
    }
}

/// Task weights the runtime ranks by under the default `CostModel`
/// (kernel flop counts at tile size `b`).
pub fn flop_weight(b: usize) -> impl Fn(TaskKind) -> f64 {
    let fl = kernel_flops(b);
    move |t| fl[kind_index(t)] as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr::dag::EliminationTree;

    #[test]
    fn kernels_time_and_report_at_a_small_tile() {
        let secs = time_kernels(8, 1, 0.0).unwrap();
        assert!(secs.iter().all(|&s| s > 0.0 && s < 1e-2), "{secs:?}");
        let mut r = Report::new("w", crate::report::PER_LAYER);
        report_kernels(&mut r, 8, &secs, 10.0);
        assert!(r.get("kernels.ttmqr_pct_fma_peak").unwrap() > 0.0);
        // 5b³/3 flops over 3 dense 8-byte tiles.
        let want = (5.0 * 512.0 / 3.0_f64).floor() / (3.0 * 64.0 * 8.0);
        assert_eq!(r.get("kernels.geqrt_flops_per_byte"), Some(want));
    }

    #[test]
    fn graph_stats_of_the_flat_three_by_three_grid() {
        let g = TaskGraph::build_tree(3, 3, EliminationTree::Flat);
        let s = graph_stats(&g);
        // 3 GEQRT + 3 UNMQR + 3 TSQRT + 5 TSMQR (paper Table I).
        assert_eq!(s.tasks, 14);
        assert_eq!(kind_counts(&g), [3, 3, 3, 5, 0, 0]);
        // GEQRT → TSQRT → TSQRT → TSMQR chain per panel, overlapped.
        assert!(s.critical_path_tasks >= 7 && s.critical_path_tasks <= s.tasks);
        assert!(s.edges >= s.tasks - 1);
    }
}
