//! Output checks. All of them run after timing has stopped.
//!
//! An operation fails if its call errs, if its `R` is not bit-identical
//! to the plain sequential `FactorState::run_all` on the same tiles and
//! graph, or if a residual exceeds [`tolerance`].

use tileqr::dag::TaskGraph;
use tileqr::kernels::{apply_qt_dense, FactorState};
use tileqr::ops::{frobenius_norm, matvec, nrm2};
use tileqr::{Matrix, TiledMatrix, TreePolicy};

/// Residual budget for a matrix with `rows` rows.
pub fn tolerance(rows: usize) -> f64 {
    1e-12 * (rows as f64).sqrt()
}

/// `R` of `a` from the single-threaded reference executor.
pub fn reference_r(
    a: &Matrix<f64>,
    tile_size: usize,
    tree: TreePolicy,
) -> Result<Matrix<f64>, String> {
    let tiled = TiledMatrix::from_matrix(a, tile_size).map_err(|e| e.to_string())?;
    let (mt, nt) = (tiled.tile_rows(), tiled.tile_cols());
    let graph = TaskGraph::build_tree(mt, nt, tree.resolve(mt, nt));
    let mut state = FactorState::new(tiled);
    state.run_all(&graph).map_err(|e| e.to_string())?;
    Ok(state.r_matrix())
}

/// `Qᵀ·c` for a dense `c` with as many rows as the factored matrix:
/// what `TiledQr::apply_qt` does, on the bare state a service job or a
/// hand-replayed factor call returns.
pub fn apply_qt_padded(
    state: &FactorState<f64>,
    graph: &TaskGraph,
    c: &Matrix<f64>,
) -> Result<Matrix<f64>, String> {
    let e = |e: tileqr::MatrixError| e.to_string();
    let (padded_rows, _) = state.tiles().padded_dims();
    let mut work = Matrix::zeros(padded_rows, c.cols());
    work.set_submatrix(0, 0, c).map_err(e)?;
    apply_qt_dense(state, graph, &mut work).map_err(e)?;
    work.submatrix(0, 0, c.rows(), c.cols()).map_err(e)
}

/// `true` when `err` is over `tol` or is not a number.
pub fn exceeds(err: f64, tol: f64) -> bool {
    err.is_nan() || err > tol
}

/// `true` when the two matrices hold the same bits.
pub fn bit_identical(x: &Matrix<f64>, y: &Matrix<f64>) -> bool {
    x.dims() == y.dims()
        && x.as_slice()
            .iter()
            .zip(y.as_slice())
            .all(|(p, q)| p.to_bits() == q.to_bits())
}

/// `‖x − y‖_F / ‖scale‖_F`.
pub fn relative_difference(
    x: &Matrix<f64>,
    y: &Matrix<f64>,
    scale: &Matrix<f64>,
) -> Result<f64, String> {
    let d = x.sub(y).map_err(|e| e.to_string())?;
    Ok(frobenius_norm(&d) / frobenius_norm(scale).max(f64::MIN_POSITIVE))
}

/// Check one factorization of `a`: `r` against the reference bits, and
/// `qta = Qᵀ·a` (from the factor under test) against `r`.
pub fn check_factor(
    a: &Matrix<f64>,
    r: &Matrix<f64>,
    reference: &Matrix<f64>,
    qta: &Matrix<f64>,
) -> Result<(), String> {
    if !bit_identical(r, reference) {
        return Err("R differs from FactorState::run_all".to_string());
    }
    let resid = relative_difference(qta, r, a)?;
    let tol = tolerance(a.rows());
    if exceeds(resid, tol) {
        return Err(format!("‖QᵀA − R‖/‖A‖ = {resid:e} exceeds {tol:e}"));
    }
    Ok(())
}

/// Check `x` as the solution of `a·x = b` (square `a`) or of
/// `min ‖a·x − b‖` (tall `a`, through the normal equations).
pub fn check_solve(a: &Matrix<f64>, x: &[f64], b: &[f64]) -> Result<(), String> {
    let ax = matvec(a, x).map_err(|e| e.to_string())?;
    let resid: Vec<f64> = ax.iter().zip(b).map(|(p, q)| p - q).collect();
    let norm_a = frobenius_norm(a);
    let scale = (norm_a * nrm2(x) + nrm2(b)).max(f64::MIN_POSITIVE);
    let err = if a.is_square() {
        nrm2(&resid) / scale
    } else {
        let atr = matvec(&a.transpose(), &resid).map_err(|e| e.to_string())?;
        nrm2(&atr) / (norm_a * scale)
    };
    let tol = tolerance(a.rows());
    if exceeds(err, tol) {
        return Err(format!("solve residual {err:e} exceeds {tol:e}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr::gen::{random_matrix, random_vector};
    use tileqr::{QrOptions, TiledQr};

    fn factored(rows: usize, cols: usize) -> (Matrix<f64>, TiledQr<f64>, Matrix<f64>) {
        let a = random_matrix::<f64>(rows, cols, 11);
        let f = TiledQr::factor(&a, &QrOptions::new().tile_size(8).workers(2)).unwrap();
        let reference = reference_r(&a, 8, TreePolicy::default()).unwrap();
        (a, f, reference)
    }

    #[test]
    fn a_correct_factor_passes() {
        let (a, f, reference) = factored(40, 24);
        let qta = apply_qt_padded(f.state(), f.graph(), &a).unwrap();
        assert!(bit_identical(&qta, &f.apply_qt(&a).unwrap()));
        check_factor(&a, &f.r(), &reference, &qta).unwrap();
    }

    #[test]
    fn a_corrupted_r_is_a_failed_operation() {
        let (a, f, reference) = factored(32, 32);
        let qta = f.apply_qt(&a).unwrap();
        let mut r = f.r();
        // One ulp in one entry: far inside the residual budget, so only
        // the bit-identity check can see it.
        let v = r.get(3, 5).unwrap();
        r.set(3, 5, f64::from_bits(v.to_bits() ^ 1)).unwrap();
        let err = check_factor(&a, &r, &reference, &qta).unwrap_err();
        assert!(err.contains("run_all"), "{err}");
        // A gross error is caught by the residual even against itself.
        let mut r = f.r();
        r.set(0, 0, 1e3).unwrap();
        let err = check_factor(&a, &r, &r.clone(), &qta).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        // NaN never passes.
        r.set(0, 0, f64::NAN).unwrap();
        assert!(check_factor(&a, &r, &r.clone(), &qta).is_err());
    }

    #[test]
    fn solve_checks_square_and_least_squares() {
        for (rows, cols) in [(32, 32), (64, 16)] {
            let (a, f, _) = factored(rows, cols);
            let b = random_vector::<f64>(rows, 5);
            let mut x = f.solve(&b).unwrap();
            check_solve(&a, &x, &b).unwrap();
            x[0] += 1e-6;
            assert!(check_solve(&a, &x, &b).is_err(), "{rows}x{cols}");
        }
    }
}
