//! Service-path bit-identity: every job factored through a resident
//! [`QrService`] must produce **bit-identical** factors to the same
//! matrix factored sequentially — across worker counts, concurrent job
//! counts, and job sizes down to one task. The
//! service interleaves many job DAGs through one shared ready queue, so
//! this is the strongest statement that per-job
//! `FactorState` isolation plus the fenced commit protocol keep
//! jobs from perturbing each other's numbers.

use tileqr::runtime::{JobOutput, JobResult, JobSpec, PriorityClass, QrService, ServiceConfig};
use tileqr::{QrOptions, TiledQr};
use tileqr_dag::{EliminationTree, TaskGraph, TreePolicy};
use tileqr_kernels::exec::FactorState;
use tileqr_matrix::gen::random_matrix;
use tileqr_matrix::{Matrix, TiledMatrix};
use tileqr_testkit::workers_under_test;

/// Sequential ground truth for one job: the factored tile matrix.
fn sequential(a: &Matrix<f64>, b: usize, order: EliminationTree) -> Matrix<f64> {
    let tiled = TiledMatrix::from_matrix(a, b).unwrap();
    let g = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), order);
    let mut seq = FactorState::new(tiled);
    seq.run_all(&g).unwrap();
    seq.tiles().to_matrix()
}

/// Mixed-size workload: job `i` cycles through square, rectangular,
/// tall-skinny, and non-tile-multiple shapes so concurrent DAGs differ
/// in depth and width.
fn job_matrix(i: u64) -> (Matrix<f64>, usize, EliminationTree) {
    let shapes = [
        (24, 24, EliminationTree::Flat),
        (40, 16, EliminationTree::FlatTt),
        (16, 16, EliminationTree::Flat),
        (33, 20, EliminationTree::Binary),
    ];
    let (m, n, order) = shapes[(i % 4) as usize];
    (random_matrix::<f64>(m, n, 1000 + i), 8, order)
}

/// The acceptance sweep: workers x {1, 4, 16} concurrent
/// mixed-size jobs, every factor bit-identical to the sequential run.
#[test]
fn service_factor_bit_identical_across_sweep() {
    for workers in workers_under_test() {
        for &jobs in &[1usize, 4, 16] {
            let svc = QrService::<f64>::start(ServiceConfig {
                workers,
                ..ServiceConfig::default()
            });
            let mut handles = Vec::new();
            let mut expected = Vec::new();
            for i in 0..jobs as u64 {
                let (a, b, order) = job_matrix(i);
                expected.push(sequential(&a, b, order));
                let spec = JobSpec::factor(a)
                    .tile_size(b)
                    .tree(TreePolicy::Fixed(order));
                handles.push(svc.submit(spec).unwrap());
            }
            for (h, want) in handles.into_iter().zip(expected) {
                let res = h.wait().unwrap();
                let got = res.output.factor().state.tiles().to_matrix();
                assert_eq!(
                    got, want,
                    "service factor diverged (workers={workers}, jobs={jobs})"
                );
            }
            let stats = svc.shutdown();
            assert_eq!(stats.jobs_completed, jobs as u64);
            assert_eq!(stats.jobs_failed, 0);
        }
    }
}

/// One- and two-task jobs take the same route as every other job: each is
/// bit-identical to the sequential reference, and each carries the
/// per-class samples and the run report of its own `DagRun`.
#[test]
fn small_jobs_bit_identical_to_sequential() {
    // 8x8 (1 task) and 16x8 (2 tasks) at b=8.
    let specs: Vec<(Matrix<f64>, usize)> = (0..8u64)
        .map(|i| {
            let m = if i % 2 == 0 { 8 } else { 16 };
            (random_matrix::<f64>(m, 8, 2000 + i), 8)
        })
        .collect();
    let expected: Vec<Matrix<f64>> = specs
        .iter()
        .map(|(a, b)| sequential(a, *b, EliminationTree::Flat))
        .collect();

    let svc = QrService::<f64>::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let handles: Vec<_> = specs
        .iter()
        .map(|(a, b)| {
            svc.submit(JobSpec::factor(a.clone()).tile_size(*b))
                .unwrap()
        })
        .collect();
    let mut tasks = 0;
    for (h, want) in handles.into_iter().zip(&expected) {
        let res = h.wait().unwrap();
        let factor = res.output.factor();
        assert_eq!(&factor.state.tiles().to_matrix(), want);
        let graph_len = factor.graph.len() as u64;
        assert!(graph_len <= 2);
        assert_eq!(res.class_tasks.iter().sum::<u64>(), graph_len);
        assert_eq!(res.report.tasks_per_worker.iter().sum::<u64>(), graph_len);
        tasks += graph_len;
    }
    let stats = svc.shutdown();
    assert_eq!(stats.jobs_completed, 8);
    assert_eq!(stats.tasks_dispatched, tasks);
}

/// Solve and Q-apply jobs must match the direct single-matrix
/// [`TiledQr`] path exactly: the epilogue replays the same Householder
/// program in the same order, so even floating point agrees bitwise — on a
/// grid that tiles exactly, one padded in both dimensions, a tall-skinny
/// grid under [`TreePolicy::Auto`] (the TSQR plateau) and the greedy tree.
#[test]
fn solve_and_apply_jobs_match_direct_path() {
    let cases = [
        (32, 16, TreePolicy::Fixed(EliminationTree::Flat)),
        (37, 21, TreePolicy::Fixed(EliminationTree::Flat)),
        (128, 16, TreePolicy::Auto),
        (48, 24, TreePolicy::Fixed(EliminationTree::Greedy)),
    ];
    let svc = QrService::<f64>::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    for (m, n, tree) in cases {
        let case = format!("{m}x{n} {tree:?}");
        let a = random_matrix::<f64>(m, n, 31);
        let rhs: Vec<f64> = (0..m).map(|i| (i as f64 * 0.37).sin()).collect();
        let c = random_matrix::<f64>(m, 3, 77);

        let direct = TiledQr::factor(&a, &QrOptions::new().tile_size(8).tree(tree)).unwrap();
        let x_direct = direct.solve(&rhs).unwrap();
        let qtc_direct = direct.apply_qt(&c).unwrap();
        let qc_direct = direct.apply_q(&c).unwrap();

        let submit = |spec: JobSpec<f64>| svc.submit(spec.tile_size(8).tree(tree)).unwrap();
        let h_solve = submit(JobSpec::solve(a.clone(), rhs.clone()));
        let h_qt = submit(JobSpec::apply_qt(a.clone(), c.clone()));
        let h_q = submit(JobSpec::apply_q(a.clone(), c.clone()));

        match h_solve.wait().unwrap().output {
            JobOutput::Solved { x, factor } => {
                assert_eq!(x, x_direct, "{case}: service solve must be bit-identical");
                assert_eq!(factor.r_matrix(), direct.r(), "{case}");
            }
            other => panic!("expected Solved, got {:?} variant", variant_name(&other)),
        }
        match h_qt.wait().unwrap().output {
            JobOutput::Applied { c: qtc, .. } => assert_eq!(qtc, qtc_direct, "{case}"),
            other => panic!("expected Applied, got {:?} variant", variant_name(&other)),
        }
        match h_q.wait().unwrap().output {
            JobOutput::Applied { c: qc, .. } => assert_eq!(qc, qc_direct, "{case}"),
            other => panic!("expected Applied, got {:?} variant", variant_name(&other)),
        }
    }
    svc.shutdown();
}

fn variant_name<T: tileqr::Scalar>(o: &JobOutput<T>) -> &'static str {
    match o {
        JobOutput::Factored(_) => "Factored",
        JobOutput::Solved { .. } => "Solved",
        JobOutput::Applied { .. } => "Applied",
    }
}

/// A single matrix routed through a resident service (`JobSpec` +
/// `submit`) is bit-identical to the standalone factorization.
#[test]
fn service_job_matches_standalone_factor() {
    let a = random_matrix::<f64>(48, 32, 5);
    let opts = QrOptions::new().tile_size(8).workers(2);

    let standalone = TiledQr::factor(&a, &opts).unwrap();

    let svc = QrService::<f64>::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let spec = JobSpec::factor(a).tile_size(8);
    let JobResult { output, report, .. } = svc.submit(spec).unwrap().wait().unwrap();
    svc.shutdown();
    let via_service = output.into_factor();

    assert_eq!(
        via_service.state.tiles().to_matrix(),
        standalone.state().tiles().to_matrix()
    );
    assert_eq!(via_service.r_matrix(), standalone.r());
    assert_eq!(report.total_tasks(), via_service.graph.len() as u64);
}

/// Priority classes never change the numbers — only scheduling order.
#[test]
fn priority_classes_bit_identical() {
    let a = random_matrix::<f64>(40, 24, 9);
    let want = sequential(&a, 8, EliminationTree::Flat);
    let svc = QrService::<f64>::start(ServiceConfig {
        workers: 4,
        ..ServiceConfig::default()
    });
    let handles: Vec<_> = [
        PriorityClass::Bulk,
        PriorityClass::Standard,
        PriorityClass::Interactive,
    ]
    .into_iter()
    .map(|class| {
        svc.submit(JobSpec::factor(a.clone()).tile_size(8).priority(class))
            .unwrap()
    })
    .collect();
    for h in handles {
        let res = h.wait().unwrap();
        assert_eq!(res.output.factor().state.tiles().to_matrix(), want);
    }
    svc.shutdown();
}
