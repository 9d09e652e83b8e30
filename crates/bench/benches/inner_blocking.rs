//! Ablation: GEQRT inner block size (`ib`).
//!
//! The workspace's default GEQRT uses `ib = b` (one T factor per tile —
//! maximal BLAS-3 updates, cubic T-construction cost); PLASMA uses small
//! `ib`. This bench measures the real host trade-off on a single tile and
//! on an apply-heavy workload.

use std::hint::black_box;
use tileqr::gen::random_matrix;
use tileqr::kernels::{geqrt_ib_apply_ws, geqrt_ib_ws, ApplySide, Workspace};
use tileqr_bench::harness;

const SAMPLES: usize = 10;

fn main() {
    harness::header("inner_blocking/factor_b128");
    let b = 128;
    for ib in [4usize, 16, 32, 128] {
        let a = random_matrix::<f64>(b, b, 1);
        let mut ws = Workspace::new(b, ib);
        harness::bench(
            "inner_blocking/factor_b128",
            &ib.to_string(),
            SAMPLES,
            || {
                let mut work = a.clone();
                black_box(geqrt_ib_ws(&mut work, ib, &mut ws).unwrap());
            },
        );
    }

    // Factor once, apply to a wide C many times — the regime where a
    // single big T factor (large ib) should win.
    harness::header("inner_blocking/apply_b128_c512");
    for ib in [4usize, 16, 32, 128] {
        let mut vr = random_matrix::<f64>(b, b, 2);
        let mut ws = Workspace::new(b, ib);
        let ts = geqrt_ib_ws(&mut vr, ib, &mut ws).unwrap();
        let c0 = random_matrix::<f64>(b, 512, 3);
        harness::bench(
            "inner_blocking/apply_b128_c512",
            &ib.to_string(),
            SAMPLES,
            || {
                let mut cc = c0.clone();
                geqrt_ib_apply_ws(&vr, &ts, ib, &mut cc, ApplySide::Transpose, &mut ws).unwrap();
                black_box(&cc);
            },
        );
    }
}
