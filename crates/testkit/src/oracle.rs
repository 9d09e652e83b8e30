//! Numerical oracles: condition-scaled correctness bounds for a QR run.
//!
//! Householder QR is backward stable: `‖A − QR‖ / ‖A‖` and `‖QᵀQ − I‖`
//! are `O(ε·poly(n))` *independently of conditioning*, while the computed
//! `R` itself drifts from the reference `R` by `O(ε·κ₂(A))`. The oracles
//! encode exactly that split: the residual/orthogonality budget grows
//! only logarithmically with the condition estimate (headroom for the
//! norm inflation of graded and wide-dynamic-range matrices), whereas the
//! differential `R` check against the reference Householder path scales
//! linearly with `κ`.

use tileqr_kernels::reference::householder_qr;
use tileqr_kernels::validate::{check_qr, qr_tolerance, QrReport};
use tileqr_matrix::{Matrix, Result, Scalar};

/// Verdict of the oracle suite for one factorization. Every number is in
/// `f64` whatever element type the factorization ran in; `eps` remembers
/// that type's machine epsilon, which the budgets scale with.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// The raw residual / orthogonality / triangularity metrics.
    pub report: QrReport<f64>,
    /// The condition-scaled bound the metrics were held to.
    pub tolerance: f64,
    /// Condition estimate used for the scaling (`1.0` when unknown).
    pub kappa: f64,
    /// Machine epsilon of the element type the factorization ran in.
    pub eps: f64,
    /// Max entrywise `|R| − |R_ref|` deviation, relative to `‖A‖_F`
    /// (`None` when the differential check was skipped).
    pub r_deviation: Option<f64>,
}

impl OracleReport {
    /// `true` when every checked metric met its bound.
    pub fn passes(&self) -> bool {
        self.report.passes(self.tolerance)
            && self
                .r_deviation
                .is_none_or(|d| d <= differential_tolerance(self.eps, self.kappa))
    }
}

/// Residual/orthogonality budget for an `m x n` factorization in element
/// type `T` of a matrix with condition estimate `kappa`: the
/// backward-stability tolerance of the kernels crate, widened by
/// `1 + log10(κ)`. Backward error does not grow with κ in exact theory, but
/// extreme grading inflates the *computed norms* the metrics divide by, so a
/// modest logarithmic allowance keeps the oracle sharp without false alarms.
pub fn condition_scaled_tolerance<T: Scalar>(m: usize, n: usize, kappa: f64) -> f64 {
    qr_tolerance::<T>(m, n).to_f64() * (1.0 + kappa.max(1.0).log10())
}

/// Budget for the differential `|R|` comparison at machine epsilon `eps`:
/// forward error in `R` is `O(ε·κ)`, so the bound scales linearly with the
/// condition estimate.
pub fn differential_tolerance(eps: f64, kappa: f64) -> f64 {
    100.0 * eps * kappa.max(1.0)
}

/// Run the full oracle suite on a computed factorization `A ≈ Q R` in
/// element type `T`, at budgets scaled by `T`'s epsilon.
///
/// `kappa` is the caller's condition estimate (pass `None` when
/// unavailable — bounds then assume a well-conditioned matrix). The
/// differential check recomputes the factorization through the reference
/// Householder path and compares `|R|` entrywise (absolute values,
/// because the sign of each row of `R` is a free choice the two
/// algorithms make independently).
pub fn verify_qr<T: Scalar>(
    a: &Matrix<T>,
    q: &Matrix<T>,
    r: &Matrix<T>,
    kappa: Option<f64>,
) -> Result<OracleReport> {
    let (m, n) = a.dims();
    let kappa = kappa.unwrap_or(1.0);
    let eps = T::EPSILON.to_f64();
    let got = check_qr(a, q, r)?;
    let report = QrReport {
        residual: got.residual.to_f64(),
        orthogonality: got.orthogonality.to_f64(),
        max_below_diagonal: got.max_below_diagonal.to_f64(),
    };
    let tolerance = condition_scaled_tolerance::<T>(m, n, kappa);

    // Differential check only while ε·κ still leaves the bound meaningful.
    let r_deviation = if kappa * eps < 1e12 * f64::EPSILON {
        let (_, r_ref) = householder_qr(a)?;
        let scale = tileqr_matrix::ops::frobenius_norm(a)
            .to_f64()
            .max(f64::MIN_POSITIVE);
        let mut worst = 0.0f64;
        for i in 0..n.min(m) {
            for j in 0..n {
                let dev = (r[(i, j)].abs() - r_ref[(i, j)].abs()).abs();
                worst = worst.max(dev.to_f64() / scale);
            }
        }
        Some(worst)
    } else {
        None
    };

    Ok(OracleReport {
        report,
        tolerance,
        kappa,
        eps,
        r_deviation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_matrix::gen::random_matrix;

    #[test]
    fn reference_factorization_passes_its_own_oracle() {
        let a = random_matrix::<f64>(24, 24, 1);
        let (q, r) = householder_qr(&a).unwrap();
        let rep = verify_qr(&a, &q, &r, Some(50.0)).unwrap();
        assert!(rep.passes(), "{rep:?}");
        assert!(rep.r_deviation.unwrap() == 0.0, "self-comparison is exact");
    }

    #[test]
    fn corrupted_r_is_rejected() {
        let a = random_matrix::<f64>(16, 16, 2);
        let (q, mut r) = householder_qr(&a).unwrap();
        r[(3, 7)] += 1e-3;
        let rep = verify_qr(&a, &q, &r, Some(50.0)).unwrap();
        assert!(!rep.passes(), "{rep:?}");
    }

    #[test]
    fn tolerance_scales_with_condition() {
        let base = condition_scaled_tolerance::<f64>(32, 32, 1.0);
        let hard = condition_scaled_tolerance::<f64>(32, 32, 1e10);
        assert!(hard > base);
        assert!(hard < base * 20.0, "growth stays logarithmic");
        assert!(
            differential_tolerance(f64::EPSILON, 1e8) > differential_tolerance(f64::EPSILON, 1.0)
        );
    }

    #[test]
    fn ill_conditioned_skips_differential() {
        let a = random_matrix::<f64>(8, 8, 3);
        let (q, r) = householder_qr(&a).unwrap();
        let rep = verify_qr(&a, &q, &r, Some(1e15)).unwrap();
        assert!(rep.r_deviation.is_none());
        assert!(rep.passes());
    }
}
