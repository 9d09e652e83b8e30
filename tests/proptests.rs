//! Property-style tests over the core invariants, swept across
//! deterministic seeded random inputs (the breadth of the previous
//! proptest suite, without the external dependency).

use tileqr::dag::{counts, critical_path, topo, EliminationTree, TaskGraph};
use tileqr::hetero::{guide, ratio};
use tileqr::kernels::validate;
use tileqr::ops;
use tileqr::prelude::*;
use tileqr_matrix::Rng64;

fn seeded_matrix(m: usize, n: usize, seed: u64) -> Matrix<f64> {
    let mut rng = Rng64::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9)
            .wrapping_add((m * 1000 + n) as u64),
    );
    Matrix::from_fn(m, n, |_, _| rng.range_f64(-100.0, 100.0))
}

#[test]
fn qr_is_backward_stable_on_random_input() {
    for case in 0..24u64 {
        let mut rng = Rng64::seed_from_u64(100 + case);
        let n = rng.range_i64(4, 27) as usize;
        let b = rng.range_i64(2, 8) as usize;
        let a = seeded_matrix(n, n, 1000 + case);
        let f = TiledQr::factor(&a, &QrOptions::new().tile_size(b)).unwrap();
        let q = f.q().unwrap();
        let r = f.r();
        let report = validate::check_qr(&a, &q, &r).unwrap();
        // Scale-invariant backward error bound.
        assert!(
            report.passes(validate::qr_tolerance::<f64>(n, n) * 10.0),
            "n={n} b={b}: {report:?}"
        );
    }
}

#[test]
fn r_diagonal_dominates_determinant() {
    for case in 0..24u64 {
        let a = seeded_matrix(12, 12, 2000 + case);
        let f = TiledQr::factor(&a, &QrOptions::new().tile_size(4)).unwrap();
        // |det A| computed from R must be finite and non-negative.
        let d = f.det_abs().unwrap();
        assert!(d.is_finite(), "case {case}");
        assert!(d >= 0.0, "case {case}");
    }
}

#[test]
fn solve_then_multiply_round_trips() {
    for case in 0..24u64 {
        let mut rng = Rng64::seed_from_u64(3000 + case);
        let x: Vec<f64> = (0..12).map(|_| rng.range_f64(-10.0, 10.0)).collect();
        // Well-conditioned A: solving A x = b recovers x.
        let a = tileqr::gen::diagonally_dominant::<f64>(12, 99);
        let b = ops::matvec(&a, &x).unwrap();
        let f = TiledQr::factor(&a, &QrOptions::new().tile_size(4)).unwrap();
        let got = f.solve(&b).unwrap();
        for (g, want) in got.iter().zip(&x) {
            assert!((g - want).abs() < 1e-8, "case {case}");
        }
    }
}

#[test]
fn dag_is_always_acyclic_and_complete() {
    for case in 0..64u64 {
        let mut rng = Rng64::seed_from_u64(4000 + case);
        let mt = rng.range_i64(1, 11) as usize;
        let nt = rng.range_i64(1, 11) as usize;
        let order = [
            EliminationTree::Flat,
            EliminationTree::FlatTt,
            EliminationTree::Binary,
        ][rng.range_i64(0, 2) as usize];
        let g = TaskGraph::build_tree(mt, nt, order);
        assert!(topo::is_acyclic(&g), "{mt}x{nt} {order:?}");
        // Every non-source task has a pred; sources are GEQRTs.
        for id in g.sources() {
            assert!(
                matches!(g.task(id), tileqr::dag::TaskKind::Geqrt { .. }),
                "{mt}x{nt} {order:?}"
            );
        }
        // Parallelism profile conserves tasks.
        let profile = topo::parallelism_profile(&g);
        assert_eq!(profile.iter().sum::<usize>(), g.len());
        // Critical path length bounded by task count.
        let cp = critical_path::critical_path_length(&g, |_| 1.0);
        assert!(cp as usize <= g.len());
    }
}

#[test]
fn ts_task_count_closed_form() {
    for case in 0..64u64 {
        let mut rng = Rng64::seed_from_u64(5000 + case);
        let mt = rng.range_i64(1, 15) as usize;
        let nt = rng.range_i64(1, 15) as usize;
        let g = TaskGraph::build_tree(mt, nt, EliminationTree::Flat);
        assert_eq!(g.len(), counts::total_ts_tasks(mt, nt), "{mt}x{nt}");
    }
}

#[test]
fn guide_array_preserves_ratios() {
    for case in 0..64u64 {
        let mut rng = Rng64::seed_from_u64(6000 + case);
        let len = rng.range_i64(1, 5) as usize;
        let mut ratios: Vec<u64> = (0..len).map(|_| rng.range_i64(0, 19) as u64).collect();
        if ratios.iter().all(|&r| r == 0) {
            ratios[0] = 1;
        }
        let devices: Vec<usize> = (0..ratios.len()).collect();
        let g = guide::generate_guide_array(&devices, &ratios);
        let total: u64 = ratios.iter().sum();
        assert_eq!(g.len() as u64, total, "case {case}");
        for (d, &r) in devices.iter().zip(&ratios) {
            assert_eq!(g.iter().filter(|&&x| x == *d).count() as u64, r);
        }
    }
}

#[test]
fn integer_ratio_preserves_ordering() {
    for case in 0..64u64 {
        let mut rng = Rng64::seed_from_u64(7000 + case);
        let len = rng.range_i64(2, 5) as usize;
        let mut t: Vec<f64> = (0..len).map(|_| rng.range_f64(0.0, 1000.0)).collect();
        if !t.iter().any(|&x| x > 1.0) {
            t[0] = 2.0;
        }
        let r = ratio::integer_ratio(&t);
        assert_eq!(r.len(), t.len());
        for i in 0..t.len() {
            for j in 0..t.len() {
                if t[i] > t[j] {
                    // Faster devices never get a *smaller* ratio.
                    assert!(r[i] >= r[j], "throughputs {t:?} -> ratios {r:?}");
                }
            }
        }
    }
}

#[test]
fn nrm2_is_scale_invariant() {
    for case in 0..64u64 {
        let mut rng = Rng64::seed_from_u64(8000 + case);
        let len = rng.range_i64(1, 19) as usize;
        let v: Vec<f64> = (0..len).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let scale = rng.range_f64(1.0, 1e6);
        let base = ops::nrm2(&v);
        let scaled: Vec<f64> = v.iter().map(|x| x * scale).collect();
        let got = ops::nrm2(&scaled);
        assert!(
            (got - base * scale).abs() <= 1e-10 * (base * scale).max(1.0),
            "case {case}"
        );
    }
}

#[test]
fn transpose_involution() {
    for case in 0..64u64 {
        let a = seeded_matrix(7, 5, 9000 + case);
        assert_eq!(a.transpose().transpose(), a);
    }
}

#[test]
fn gemm_matches_matvec() {
    for case in 0..64u64 {
        let a = seeded_matrix(6, 4, 10_000 + case);
        let mut rng = Rng64::seed_from_u64(11_000 + case);
        let x: Vec<f64> = (0..4).map(|_| rng.range_f64(-10.0, 10.0)).collect();
        let xm = Matrix::from_col_major(4, 1, x.clone()).unwrap();
        let via_gemm = ops::matmul(&a, &xm).unwrap();
        let via_matvec = ops::matvec(&a, &x).unwrap();
        for i in 0..6 {
            assert!(
                (via_gemm[(i, 0)] - via_matvec[i]).abs() < 1e-10,
                "case {case}"
            );
        }
    }
}
