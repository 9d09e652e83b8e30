//! Cross-backend agreement for the microkernel dispatch layer.
//!
//! The kernels crate ships two register cores: safe scalar-blocked code
//! (the portable path and the reference) and the AVX2+FMA intrinsics an
//! x86-64 host with both features selects by runtime detection. They are
//! *not* bit-identical to each other — FMA contracts rounding steps — so
//! the contract is split in two:
//!
//! 1. **Within a backend**: repeated factorizations are bit-identical
//!    (the workspace-identity sweep already holds this across worker
//!    counts; here it is held across repeated runs with each backend
//!    pinned).
//! 2. **Across backends**: the computed `R` factors agree within the
//!    condition-scaled differential budget of [`tileqr_testkit::oracle`],
//!    and both backends pass the full residual/orthogonality oracles.
//!
//! The FMA core only engages on primitives that touch at least
//! `VECTOR_MIN_WORK` elements, which no kernel does at b ≤ 16: the
//! family therefore includes b = 32 and b = 64 geometries, and where the
//! host detects `Simd` the two `R`s are required to differ in at least one
//! bit, so the comparison cannot degenerate into one core against itself.
//! On a host without AVX2+FMA forcing `Simd` changes nothing and the
//! cross-backend checks are exact self-comparison — a valid (if trivial)
//! instance of the contract.

use std::sync::Mutex;
use tileqr::kernels::micro::{self, Backend};
use tileqr::{QrOptions, TiledQr};
use tileqr_matrix::gen::{graded, random_matrix};
use tileqr_matrix::Matrix;
use tileqr_testkit::oracle::{differential_tolerance, verify_qr};

/// `force_backend` is process-global; serialize every test that pins it.
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

fn factor_r(a: &Matrix<f64>, b: usize) -> (Matrix<f64>, Matrix<f64>) {
    let f = TiledQr::factor(a, &QrOptions::new().tile_size(b).workers(1)).unwrap();
    (f.q().unwrap(), f.r())
}

/// `(name, A, κ budget, tile sizes)`; the rows at b ≥ 20 are the ones whose
/// kernels reach the vector tier and whose factor kernels recurse (level-3
/// applies and `T` merges inside GEQRT/TSQRT), two of them with ragged
/// zero-padded edge tiles.
fn family() -> Vec<(&'static str, Matrix<f64>, f64, &'static [usize])> {
    vec![
        ("random-24", random_matrix::<f64>(24, 24, 71), 1e3, &[5, 8]),
        (
            "random-odd-30x18",
            random_matrix::<f64>(30, 18, 72),
            1e3,
            &[5, 8],
        ),
        ("graded-40", graded(40, 40, 1e-2, 73), 1e6, &[5, 8]),
        ("random-96x64", random_matrix::<f64>(96, 64, 74), 1e3, &[32]),
        ("random-128", random_matrix::<f64>(128, 128, 75), 1e3, &[64]),
        ("graded-64", graded(64, 64, 0.85, 76), 1e6, &[32]),
        (
            "random-odd-100x72",
            random_matrix::<f64>(100, 72, 77),
            1e3,
            &[20, 32],
        ),
    ]
}

#[test]
fn each_backend_is_bit_deterministic() {
    let _guard = BACKEND_LOCK.lock().unwrap();
    for backend in [Backend::Blocked, Backend::Simd] {
        micro::force_backend(Some(backend));
        for (name, a, _, tiles) in family() {
            for &b in tiles {
                let (q1, r1) = factor_r(&a, b);
                let (q2, r2) = factor_r(&a, b);
                assert_eq!(r1, r2, "{name} b={b}: R must repeat bit-identically");
                assert_eq!(q1, q2, "{name} b={b}: Q must repeat bit-identically");
            }
        }
    }
    micro::force_backend(None);
}

#[test]
fn backends_agree_within_condition_scaled_budgets() {
    let _guard = BACKEND_LOCK.lock().unwrap();
    micro::force_backend(None);
    let detected = micro::active_backend();
    for (name, a, kappa, tiles) in family() {
        for &b in tiles {
            micro::force_backend(Some(Backend::Blocked));
            let (qs, rs) = factor_r(&a, b);
            micro::force_backend(Some(Backend::Simd));
            let (qv, rv) = factor_r(&a, b);
            micro::force_backend(None);

            // Both backends must independently pass the full oracles.
            let rep_s = verify_qr(&a, &qs, &rs, Some(kappa)).unwrap();
            assert!(rep_s.passes(), "{name} b={b} blocked: {rep_s:?}");
            let rep_v = verify_qr(&a, &qv, &rv, Some(kappa)).unwrap();
            assert!(rep_v.passes(), "{name} b={b} simd: {rep_v:?}");

            // And agree with each other within the κ-linear budget.
            let scale = tileqr_matrix::ops::frobenius_norm(&a).max(f64::MIN_POSITIVE);
            let tol = differential_tolerance(kappa);
            let (m, n) = rs.dims();
            for i in 0..m {
                for j in 0..n {
                    let dev = (rs[(i, j)] - rv[(i, j)]).abs() / scale;
                    assert!(
                        dev <= tol,
                        "{name} b={b}: R[{i},{j}] backend deviation {dev:e} > {tol:e}"
                    );
                }
            }

            // Two cores really ran: where every kernel reaches the vector
            // tier and the FMA core is detected, the roundings differ.
            if b >= 20 && detected == Backend::Simd {
                assert_ne!(rs, rv, "{name} b={b}: both pins ran the same core");
            }
        }
    }
}

/// The backend is what the host reports, not what the build was given:
/// `Simd` iff x86-64 with AVX2 and FMA, `Blocked` elsewhere, and pinning
/// `Blocked` always takes.
#[test]
fn force_hook_round_trips() {
    let _guard = BACKEND_LOCK.lock().unwrap();
    micro::force_backend(Some(Backend::Blocked));
    assert_eq!(micro::active_backend(), Backend::Blocked);
    micro::force_backend(None);
    #[cfg(target_arch = "x86_64")]
    let has_fma_core = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    let has_fma_core = false;
    let expected = if has_fma_core {
        Backend::Simd
    } else {
        Backend::Blocked
    };
    assert_eq!(micro::active_backend(), expected);
    // A `Simd` pin cannot conjure a core the host lacks.
    micro::force_backend(Some(Backend::Simd));
    assert_eq!(micro::active_backend(), expected);
    micro::force_backend(None);
}
