//! Cross-backend agreement for the microkernel dispatch layer.
//!
//! The kernels crate ships a safe scalar-blocked register core (the
//! portable path and the reference) and a vector core that an x86-64 host
//! selects by runtime detection: 512-bit where AVX-512F/VL is reported,
//! 256-bit (AVX2+FMA) otherwise, `f64` and `f32` alike. The cores are *not*
//! bit-identical to each other — FMA contracts rounding steps and a wider
//! vector sums in a different order — so the contract is split in two:
//!
//! 1. **Within a core**: repeated factorizations are bit-identical (the
//!    workspace-identity sweep already holds this across worker counts;
//!    here it is held across repeated runs with each core pinned).
//! 2. **Across cores**: the computed `R` factors agree within the
//!    condition-scaled differential budget of [`tileqr_testkit::oracle`],
//!    and every core passes the full residual/orthogonality oracles — at
//!    the element type's own epsilon.
//!
//! Every instantiation this host can execute is run: the scalar core, the
//! 256-bit vector core and, where detected, the 512-bit one (the narrower
//! width through the `force_vector_bits` test hook), each for `f64` and
//! `f32`. The family includes b = 32 and b = 64 geometries, where every
//! kernel reaches the vector tier, and where a vector core is detected its
//! `R` is required to differ from the scalar core's in at least one bit, so
//! the comparison cannot degenerate into one core against itself. On a host
//! without AVX2+FMA only the scalar core runs and the cross-core checks are
//! exact self-comparison — a valid (if trivial) instance of the contract.

use std::sync::Mutex;
use tileqr::kernels::micro::{self, Backend};
use tileqr::{QrOptions, TiledQr};
use tileqr_matrix::gen::{graded, random_matrix};
use tileqr_matrix::{Matrix, Scalar};
use tileqr_testkit::oracle::{differential_tolerance, verify_qr};

/// The pins are process-global; serialize every test that sets them.
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

/// `(name, backend pin, width pin)` of every register core this host can
/// execute, the scalar one first.
fn cores() -> Vec<(&'static str, Option<Backend>, Option<u32>)> {
    unpin();
    let widest = micro::force_vector_bits(None);
    let mut all = vec![("scalar", Some(Backend::Blocked), None)];
    all.extend((widest >= 256).then_some(("256-bit", None, Some(256))));
    all.extend((widest >= 512).then_some(("512-bit", None, None)));
    all
}

fn pin((_, backend, bits): (&str, Option<Backend>, Option<u32>)) {
    micro::force_backend(backend);
    micro::force_vector_bits(bits);
}

fn unpin() {
    micro::force_backend(None);
    micro::force_vector_bits(None);
}

fn factor_r<T: Scalar>(a: &Matrix<T>, b: usize) -> (Matrix<T>, Matrix<T>) {
    let f = TiledQr::factor(a, &QrOptions::new().tile_size(b).workers(1)).unwrap();
    (f.q().unwrap(), f.r())
}

/// `(name, A, κ budget, tile sizes)`; the rows at b ≥ 20 are the ones whose
/// kernels reach the vector tier and whose factor kernels recurse (level-3
/// applies and `T` merges inside GEQRT/TSQRT), two of them with ragged
/// zero-padded edge tiles. Generated in `f64` and rounded to `T`.
fn family<T: Scalar>() -> Vec<(&'static str, Matrix<T>, f64, &'static [usize])> {
    let rows: Vec<(&'static str, Matrix<f64>, f64, &'static [usize])> = vec![
        ("random-24", random_matrix(24, 24, 71), 1e3, &[5, 8]),
        ("random-odd-30x18", random_matrix(30, 18, 72), 1e3, &[5, 8]),
        ("graded-40", graded(40, 40, 1e-2, 73), 1e6, &[5, 8]),
        ("random-96x64", random_matrix(96, 64, 74), 1e3, &[32]),
        ("random-128", random_matrix(128, 128, 75), 1e3, &[64]),
        ("graded-64", graded(64, 64, 0.85, 76), 1e6, &[32]),
        (
            "random-odd-100x72",
            random_matrix(100, 72, 77),
            1e3,
            &[20, 32],
        ),
    ];
    let narrow =
        |a: Matrix<f64>| Matrix::from_fn(a.rows(), a.cols(), |i, j| T::from_f64(a[(i, j)]));
    rows.into_iter()
        .map(|(name, a, kappa, tiles)| (name, narrow(a), kappa, tiles))
        .collect()
}

fn deterministic_case<T: Scalar>(core: &str) {
    for (name, a, _, tiles) in family::<T>() {
        for &b in tiles {
            let (q1, r1) = factor_r(&a, b);
            let (q2, r2) = factor_r(&a, b);
            assert!(
                r1 == r2,
                "{core} {name} b={b}: R must repeat bit-identically"
            );
            assert!(
                q1 == q2,
                "{core} {name} b={b}: Q must repeat bit-identically"
            );
        }
    }
}

#[test]
fn each_backend_is_bit_deterministic() {
    let _guard = BACKEND_LOCK.lock().unwrap();
    for core in cores() {
        pin(core);
        deterministic_case::<f64>(core.0);
        deterministic_case::<f32>(core.0);
    }
    unpin();
}

fn agreement_case<T: Scalar>() {
    let all = cores();
    let eps = T::EPSILON.to_f64();
    for (name, a, kappa, tiles) in family::<T>() {
        for &b in tiles {
            pin(all[0]);
            let (qs, rs) = factor_r(&a, b);
            // The reference core must itself pass the full oracles.
            let rep_s = verify_qr(&a, &qs, &rs, Some(kappa)).unwrap();
            assert!(rep_s.passes(), "{name} b={b} scalar: {rep_s:?}");
            for &core in &all[1..] {
                pin(core);
                let (qv, rv) = factor_r(&a, b);
                let what = format!("{name} b={b} {} eps={eps:e}", core.0);
                let rep_v = verify_qr(&a, &qv, &rv, Some(kappa)).unwrap();
                assert!(rep_v.passes(), "{what}: {rep_v:?}");

                // And agree with the scalar core within the κ-linear budget.
                let scale = tileqr_matrix::ops::frobenius_norm(&a).to_f64();
                let tol = differential_tolerance(eps, kappa);
                for (i, j, s) in rs.iter_indexed() {
                    let dev = (s - rv[(i, j)]).abs().to_f64() / scale.max(f64::MIN_POSITIVE);
                    assert!(
                        dev <= tol,
                        "{what}: R[{i},{j}] core deviation {dev:e} > {tol:e}"
                    );
                }

                // Two cores really ran: where every kernel reaches the
                // vector tier, the roundings differ.
                if b >= 20 {
                    assert!(rs != rv, "{what}: both pins ran the same core");
                }
            }
        }
    }
    unpin();
}

#[test]
fn backends_agree_within_condition_scaled_budgets() {
    let _guard = BACKEND_LOCK.lock().unwrap();
    agreement_case::<f64>();
    agreement_case::<f32>();
}

/// The backend is what the host reports, not what the build was given:
/// `Simd` iff x86-64 with AVX2 and FMA, `Blocked` elsewhere, pinning
/// `Blocked` always takes, and the width pin can narrow but never widen.
#[test]
fn force_hook_round_trips() {
    let _guard = BACKEND_LOCK.lock().unwrap();
    micro::force_backend(Some(Backend::Blocked));
    assert_eq!(micro::active_backend(), Backend::Blocked);
    micro::force_backend(None);
    #[cfg(target_arch = "x86_64")]
    let (has_fma_core, has_wide_core) = (
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (has_fma_core, has_wide_core) = (false, false);
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

    // One vector core per host: the widest detected, which the hook can
    // hold to 256 bits and cannot push past what was detected.
    let widest = match (has_fma_core, has_wide_core) {
        (false, _) => 0,
        (true, false) => 256,
        (true, true) => 512,
    };
    assert_eq!(micro::force_vector_bits(None), widest);
    assert_eq!(micro::force_vector_bits(Some(256)), widest.min(256));
    assert_eq!(micro::active_backend(), expected);
    assert_eq!(micro::force_vector_bits(Some(1024)), widest);
    // The width pin survives a backend pin and its release.
    micro::force_vector_bits(Some(256));
    micro::force_backend(Some(Backend::Blocked));
    assert_eq!(micro::active_backend(), Backend::Blocked);
    micro::force_backend(None);
    assert_eq!(micro::force_vector_bits(None), widest);
}
