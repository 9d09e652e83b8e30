//! The user-facing factorization object.

use crate::options::QrOptions;
use tileqr_dag::TaskGraph;
use tileqr_kernels::exec::FactorState;
use tileqr_kernels::ApplySide;
use tileqr_matrix::{Matrix, MatrixError, Result, Scalar};
use tileqr_runtime::{parallel_factor_traced, RunReport};

/// A completed tiled QR factorization `A = Q R`.
///
/// `Q` is held implicitly as Householder blocks inside the factored tiles;
/// [`TiledQr::q`] materializes it, [`TiledQr::apply_qt`] /
/// [`TiledQr::apply_q`] apply it without materializing, and
/// [`TiledQr::solve`] uses it for linear systems and least-squares
/// problems (the paper's motivating use, Eqs. 2–3).
#[derive(Debug, Clone)]
pub struct TiledQr<T: Scalar> {
    state: FactorState<T>,
    graph: TaskGraph,
}

impl<T: Scalar> TiledQr<T> {
    /// Factor `a` (requires `rows >= cols`).
    pub fn factor(a: &Matrix<T>, opts: &QrOptions) -> Result<Self> {
        Self::factor_traced(a, opts).map(|(f, _)| f)
    }

    /// [`TiledQr::factor`] returning the runtime's [`RunReport`]
    /// alongside the factorization. With [`QrOptions::tracing`] enabled
    /// the report carries the run's unified lifecycle trace
    /// (`report.trace`), ready for Chrome-trace export, latency
    /// histograms, or calibration via the `obs` module.
    pub fn factor_traced(a: &Matrix<T>, opts: &QrOptions) -> Result<(Self, RunReport)> {
        let (state, graph) = FactorState::plan(a, opts.get_tile_size(), opts.get_tree())?;
        let (state, report) = parallel_factor_traced(state, &graph, opts.run)?;
        Ok((TiledQr { state, graph }, report))
    }

    /// Wrap a completed service factor job (crate-internal: the tuner's
    /// path ends here).
    pub(crate) fn from_job(f: tileqr_runtime::service::FactoredJob<T>) -> Self {
        TiledQr {
            state: f.state,
            graph: f.graph,
        }
    }

    /// Original (unpadded) dimensions of the factored matrix.
    pub fn dims(&self) -> (usize, usize) {
        self.state.dense_dims()
    }

    /// The task graph the factorization executed.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// The internal factor state (tiles + reflector factors).
    pub fn state(&self) -> &FactorState<T> {
        &self.state
    }

    /// The upper-triangular factor `R` (`rows x cols`, unpadded).
    pub fn r(&self) -> Matrix<T> {
        self.state.r_matrix()
    }

    /// Materialize the orthogonal factor `Q` (`rows x rows`).
    pub fn q(&self) -> Result<Matrix<T>> {
        self.apply_q(&Matrix::identity(self.dims().0))
    }

    /// Compute `Qᵀ c` for a dense `c` with `rows` rows, without forming `Q`.
    pub fn apply_qt(&self, c: &Matrix<T>) -> Result<Matrix<T>> {
        self.state.apply(&self.graph, c, ApplySide::Transpose)
    }

    /// Compute `Q c` for a dense `c` with `rows` rows, without forming `Q`.
    pub fn apply_q(&self, c: &Matrix<T>) -> Result<Matrix<T>> {
        self.state.apply(&self.graph, c, ApplySide::NoTranspose)
    }

    /// Solve `A x = b` (square `A`) or the least-squares problem
    /// `min ‖A x − b‖₂` (tall `A`): `x = R⁻¹ (Qᵀ b)₁..ₙ` (paper Eqs. 2–3).
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>> {
        let b = Matrix::from_col_major(b.len(), 1, b.to_vec())?;
        Ok(self.solve_matrix(&b)?.as_slice().to_vec())
    }

    /// Solve against multiple right-hand sides at once.
    pub fn solve_matrix(&self, b: &Matrix<T>) -> Result<Matrix<T>> {
        self.state.solve(&self.graph, b)
    }

    /// Estimate the 2-norm condition number of a square `A` from its `R`
    /// factor (`κ₂(A) = κ₂(R)` since `Q` is orthogonal), by power
    /// iteration with triangular solves, on a dense copy of `R` (the
    /// iteration multiplies by `R` and `Rᵀ`). Errors on exactly singular `R`.
    pub fn condition_estimate(&self) -> Result<T> {
        let (rows, cols) = self.dims();
        if rows != cols {
            return Err(MatrixError::NotSquare { dims: (rows, cols) });
        }
        tileqr_matrix::ops::triangular_condition_est(&self.state.r_rows(cols), 30)
    }

    /// Absolute value of `det(A)` for square `A`: the product of `|R|`'s
    /// diagonal (`|det Q| = 1`), read from the diagonal tiles.
    pub fn det_abs(&self) -> Result<T> {
        let (rows, cols) = self.dims();
        if rows != cols {
            return Err(MatrixError::NotSquare { dims: (rows, cols) });
        }
        let (tiles, b) = (self.state.tiles(), self.state.tile_size());
        let diag = (0..cols).map(|i| tiles.tile(i / b, i / b)[(i % b, i % b)].abs());
        Ok(diag.fold(T::ONE, |d, r| d * r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_matrix::gen::{diagonally_dominant, random_matrix, random_vector};
    use tileqr_matrix::ops::{matmul, matvec, orthogonality_defect, relative_residual};

    #[test]
    fn factor_and_reconstruct() {
        let a = random_matrix::<f64>(40, 40, 1);
        let f = TiledQr::factor(&a, &QrOptions::new().tile_size(8)).unwrap();
        let q = f.q().unwrap();
        let r = f.r();
        assert!(relative_residual(&a, &q, &r).unwrap() < 1e-14);
        assert!(orthogonality_defect(&q).unwrap() < 1e-13);
    }

    #[test]
    fn non_divisible_sizes_padded_transparently() {
        // 37 is not a multiple of 8: exercises the padding path end to end.
        let a = random_matrix::<f64>(37, 37, 2);
        let f = TiledQr::factor(&a, &QrOptions::new().tile_size(8)).unwrap();
        let q = f.q().unwrap();
        assert_eq!(q.dims(), (37, 37));
        let r = f.r();
        assert_eq!(r.dims(), (37, 37));
        assert!(relative_residual(&a, &q, &r).unwrap() < 1e-13);
        assert!(orthogonality_defect(&q).unwrap() < 1e-13);
    }

    #[test]
    fn tall_matrix_least_squares() {
        let a = random_matrix::<f64>(50, 20, 3);
        let f = TiledQr::factor(&a, &QrOptions::new().tile_size(8)).unwrap();
        let b = random_vector::<f64>(50, 4);
        let x = f.solve(&b).unwrap();
        // Normal equations: A^T (A x - b) = 0.
        let ax = matvec(&a, &x).unwrap();
        let resid: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
        for v in matvec(&a.transpose(), &resid).unwrap() {
            assert!(v.abs() < 1e-10, "{v}");
        }
    }

    #[test]
    fn wide_matrix_rejected() {
        let a = random_matrix::<f64>(5, 9, 5);
        assert!(TiledQr::factor(&a, &QrOptions::default()).is_err());
    }

    #[test]
    fn both_doors_refuse_alike() {
        // `TiledQr::factor` and `QrService::submit` come in through one
        // plan: the same error for the same fault, and a refused
        // submission spends no admission slot (a one-slot service still
        // takes the next job without blocking).
        use tileqr_dag::{EliminationTree::Plateau, TreePolicy};
        use tileqr_runtime::{JobSpec, QrService, ServiceConfig, ServiceError};
        use MatrixError::{BadTileSize, DimensionMismatch};
        let service = QrService::<f64>::start(ServiceConfig {
            workers: 2,
            max_in_flight: 1,
            ..ServiceConfig::default()
        });
        let (tall, wide) = (
            random_matrix::<f64>(16, 8, 1),
            random_matrix::<f64>(5, 9, 5),
        );
        let zero_domain = TreePolicy::Fixed(Plateau(0));
        let table = [
            (
                &wide,
                4,
                TreePolicy::default(),
                DimensionMismatch {
                    op: "tiled QR (needs rows >= cols)",
                    lhs: (5, 9),
                    rhs: (9, 9),
                },
            ),
            (&tall, 0, TreePolicy::default(), BadTileSize { tile: 0 }),
            (
                &tall,
                4,
                zero_domain,
                DimensionMismatch {
                    op: "tiled QR (a plateau domain needs >= 1 tile row)",
                    lhs: (4, 2),
                    rhs: (0, 2),
                },
            ),
        ];
        for (a, b, tree, want) in table {
            let opts = QrOptions::new().tile_size(b).tree(tree);
            assert_eq!(TiledQr::factor(a, &opts).unwrap_err(), want);
            let spec = JobSpec::factor(a.clone()).tile_size(b).tree(tree);
            match service.try_submit(spec) {
                Err(ServiceError::Numeric(err)) => assert_eq!(err, want),
                Err(err) => panic!("{err:?}"),
                Ok(_) => panic!("{want:?} was admitted"),
            }
        }
        let ok = service.try_submit(JobSpec::factor(tall.clone()).tile_size(4));
        assert!(ok.unwrap().wait().is_ok());
        let stats = service.shutdown();
        assert_eq!((stats.jobs_submitted, stats.jobs_completed), (1, 1));
    }

    #[test]
    fn solve_square_system() {
        let a = diagonally_dominant::<f64>(33, 6);
        let f = TiledQr::factor(&a, &QrOptions::new().tile_size(16)).unwrap();
        let x_true = random_vector::<f64>(33, 7);
        let b = matvec(&a, &x_true).unwrap();
        let x = f.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = diagonally_dominant::<f64>(24, 8);
        let f = TiledQr::factor(&a, &QrOptions::new().tile_size(8)).unwrap();
        let xs = random_matrix::<f64>(24, 3, 9);
        let b = matmul(&a, &xs).unwrap();
        let solved = f.solve_matrix(&b).unwrap();
        assert!(solved.approx_eq(&xs, 1e-8));
    }

    #[test]
    fn apply_without_materializing_matches_explicit() {
        let a = random_matrix::<f64>(24, 24, 10);
        let f = TiledQr::factor(&a, &QrOptions::new().tile_size(8)).unwrap();
        let c = random_matrix::<f64>(24, 5, 11);
        let q = f.q().unwrap();
        let expect = matmul(&q.transpose(), &c).unwrap();
        let got = f.apply_qt(&c).unwrap();
        assert!(got.approx_eq(&expect, 1e-11));
        let expect2 = matmul(&q, &c).unwrap();
        let got2 = f.apply_q(&c).unwrap();
        assert!(got2.approx_eq(&expect2, 1e-11));
    }

    #[test]
    fn det_abs_of_identity_like() {
        let a = Matrix::<f64>::identity(12).scaled(2.0);
        let f = TiledQr::factor(&a, &QrOptions::new().tile_size(4)).unwrap();
        let d = f.det_abs().unwrap();
        assert!((d - 2f64.powi(12)).abs() / 2f64.powi(12) < 1e-12);
    }

    #[test]
    fn condition_estimate_tracks_known_conditioning() {
        // Well conditioned: diagonally dominant.
        let good = diagonally_dominant::<f64>(24, 20);
        let fg = TiledQr::factor(&good, &QrOptions::new().tile_size(8)).unwrap();
        let kg = fg.condition_estimate().unwrap();
        assert!(kg < 100.0, "κ={kg}");
        // Badly conditioned: Hilbert.
        let bad = tileqr_matrix::gen::hilbert::<f64>(12);
        let fb = TiledQr::factor(&bad, &QrOptions::new().tile_size(4)).unwrap();
        let kb = fb.condition_estimate().unwrap();
        assert!(kb > 1e8, "Hilbert κ={kb}");
        // Rectangular rejected.
        let rect = random_matrix::<f64>(10, 4, 21);
        let fr = TiledQr::factor(&rect, &QrOptions::new().tile_size(4)).unwrap();
        assert!(fr.condition_estimate().is_err());
    }

    #[test]
    fn det_requires_square() {
        let a = random_matrix::<f64>(10, 4, 12);
        let f = TiledQr::factor(&a, &QrOptions::new().tile_size(4)).unwrap();
        assert!(f.det_abs().is_err());
        assert!(f.solve(&[0.0; 3]).is_err());
    }

    #[test]
    fn parallel_option_produces_same_factor() {
        let a = random_matrix::<f64>(48, 48, 13);
        let seq = TiledQr::factor(&a, &QrOptions::new().tile_size(8)).unwrap();
        let par = TiledQr::factor(&a, &QrOptions::new().tile_size(8).workers(4)).unwrap();
        assert_eq!(seq.r(), par.r());
    }

    #[test]
    fn fault_tolerant_option_produces_same_factor() {
        use tileqr_runtime::FaultTolerance;
        let a = random_matrix::<f64>(48, 48, 13);
        let seq = TiledQr::factor(&a, &QrOptions::new().tile_size(8)).unwrap();
        let ft = TiledQr::factor(
            &a,
            &QrOptions::new()
                .tile_size(8)
                .workers(4)
                .fault_tolerance(FaultTolerance::default()),
        )
        .unwrap();
        assert_eq!(seq.r(), ft.r(), "recovery-capable path stays bit-exact");
    }

    #[test]
    fn recursive_panel_tile_size_factorizes_correctly() {
        // b = 20 splits every panel 12 + 8 (and the 12 again), with ragged
        // edge tiles: the level-3 factor path end to end.
        let a = random_matrix::<f64>(32, 32, 15);
        let f = TiledQr::factor(&a, &QrOptions::new().tile_size(20)).unwrap();
        let q = f.q().unwrap();
        let r = f.r();
        assert!(relative_residual(&a, &q, &r).unwrap() < 1e-13);
        assert!(orthogonality_defect(&q).unwrap() < 1e-13);
        // Solves work off the merged `T` factors too.
        let x_true = random_vector::<f64>(32, 16);
        let b = matvec(&a, &x_true).unwrap();
        let x = f.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-7);
        }
    }

    #[test]
    fn arena_backed_pool_matches_the_sequential_path() {
        let a = random_matrix::<f64>(40, 40, 16);
        let base = QrOptions::new().tile_size(8);
        let seq = TiledQr::factor(&a, &base.workers(1)).unwrap();
        let par = TiledQr::factor(&a, &base.workers(3)).unwrap();
        assert_eq!(seq.r(), par.r(), "per-worker arenas must not change bits");
    }

    #[test]
    fn run_report_counters_surface_through_core() {
        let a = random_matrix::<f64>(32, 32, 17);
        let (_, report) =
            TiledQr::factor_traced(&a, &QrOptions::new().tile_size(8).workers(2)).unwrap();
        assert_eq!(report.cow_clones(), 0);
        assert_eq!(report.counters.workspace_resizes, 0);
        assert!(report.counters.workspace_bytes > 0);
    }

    #[test]
    fn one_shot_qr_helper() {
        let a = random_matrix::<f64>(32, 32, 14);
        let (q, r) = crate::qr(&a).unwrap();
        assert!(relative_residual(&a, &q, &r).unwrap() < 1e-13);
    }
}
