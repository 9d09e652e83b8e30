//! Bit-identity of the zero-allocation hot path.
//!
//! The workspace arena changed *where* kernel scratch lives, and packing
//! changed *how* reflector blocks are traversed — neither may change a
//! single bit of the output. Every test here runs the factorization on
//! the pool's reused per-worker arenas across the CI worker sweep,
//! then holds the full factored tile matrix **and every stored `T` factor** (panel factors
//! via [`FactorState::geqrt_factor`], elimination factors via
//! [`FactorState::elim_factor_any`]) to byte identity with the sequential
//! ground truth — with and without injected faults.

use tileqr_dag::{EliminationTree, TaskGraph, TreePolicy};
use tileqr_kernels::exec::FactorState;
use tileqr_matrix::gen::random_matrix;
use tileqr_matrix::{Matrix, TiledMatrix};
use tileqr_runtime::{
    parallel_factor_traced, run_pool, FaultTolerance, JobSpec, PoolConfig, QrService,
    ScriptedFaults, ServiceConfig,
};
use tileqr_testkit::workers_under_test;

/// Sequential ground truth (which itself runs on a reused arena).
fn sequential(a: &Matrix<f64>, b: usize) -> (TiledMatrix<f64>, TaskGraph, FactorState<f64>) {
    let tiled = TiledMatrix::from_matrix(a, b).unwrap();
    let g = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), EliminationTree::Flat);
    let mut seq = FactorState::new(tiled.clone());
    seq.run_all(&g).unwrap();
    (tiled, g, seq)
}

/// Assert that two factor states carry byte-identical tiles, panel
/// factors, and elimination factors.
fn assert_factors_identical(got: &FactorState<f64>, want: &FactorState<f64>, ctx: &str) {
    assert_eq!(
        got.tiles().to_matrix(),
        want.tiles().to_matrix(),
        "{ctx}: factored tiles must be bit-identical"
    );
    let (mt, nt) = (want.tiles().tile_rows(), want.tiles().tile_cols());
    for i in 0..mt {
        for k in 0..nt {
            assert_eq!(
                got.geqrt_factor(i, k),
                want.geqrt_factor(i, k),
                "{ctx}: panel T factor ({i},{k}) must be bit-identical"
            );
            assert_eq!(
                got.elim_factor_any(i, k),
                want.elim_factor_any(i, k),
                "{ctx}: elimination T factor ({i},{k}) must be bit-identical"
            );
        }
    }
}

#[test]
fn arena_runs_match_the_sequential_path_bitwise() {
    // Rectangular on purpose: exercises TSQRT/TSMQR rows below the
    // diagonal as well as the panel chain. b = 8 stays in the scalar
    // tiers; at b = 32 the kernels reach the vector tier, so the invariant
    // is held over whichever core the host detects.
    for (rows, cols, b) in [(40, 32, 8), (96, 64, 32)] {
        let a = random_matrix::<f64>(rows, cols, 0xA1);
        let (tiled, g, seq) = sequential(&a, b);
        for workers in workers_under_test() {
            let (state, report) = parallel_factor_traced(
                FactorState::new(tiled.clone()),
                &g,
                PoolConfig {
                    workers,
                    ..PoolConfig::default()
                },
            )
            .expect("factorization");
            let ctx = format!("{rows}x{cols} b={b} workers={workers}");
            assert_factors_identical(&state, &seq, &ctx);
            assert_eq!(
                report.counters.workspace_resizes, 0,
                "{ctx}: pre-sized arenas must never regrow"
            );
        }
    }
}

#[test]
fn arena_runs_with_fault_injection_stay_bit_identical() {
    let a = random_matrix::<f64>(32, 32, 0xA2);
    let (tiled, g, seq) = sequential(&a, 8);
    for workers in workers_under_test().into_iter().filter(|&w| w >= 2) {
        // A worker death plus transient kernel failures: requeued
        // attempts re-run on a *different* worker's arena, which
        // must be invisible in the factors.
        let inj = ScriptedFaults::new()
            .panic_on(g.len() / 2, 1)
            .fail_on(g.len() / 4, 1)
            .fail_on(g.len() - 1, 1);
        let (state, report) = run_pool(
            FactorState::new(tiled.clone()),
            &g,
            PoolConfig {
                workers,
                fault_tolerance: Some(FaultTolerance {
                    max_attempts: 4,
                    ..FaultTolerance::default()
                }),
                ..PoolConfig::default()
            },
            Some(&inj),
        )
        .expect("recovery must succeed");
        let ctx = format!("workers={workers}");
        assert_factors_identical(&state, &seq, &ctx);
        assert!(report.retries >= 2, "{ctx}: the injected faults must fire");
        assert_eq!(
            report.counters.cow_clones, 0,
            "{ctx}: ft staging clones are deliberate copies, never counted COW falls"
        );
        assert_eq!(report.counters.workspace_resizes, 0, "{ctx}");
    }
}

#[test]
fn arena_runs_stay_bit_identical_for_every_elimination_tree() {
    // The TT and TSQR trees route through TTQRT/TTMQR kernels whose
    // scratch shapes differ from the TS chain — the arena must serve
    // them all without changing a bit, in the scalar tiers (b = 8) and in
    // the vector tier (b = 32) alike. Both geometries are 5×2 tile grids.
    let trees = EliminationTree::zoo();
    for (rows, cols, b) in [(40, 16, 8), (160, 64, 32)] {
        let a = random_matrix::<f64>(rows, cols, 0xA5);
        for &tree in &trees {
            let tiled = TiledMatrix::from_matrix(&a, b).unwrap();
            let g = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), tree);
            let mut seq = FactorState::new(tiled.clone());
            seq.run_all(&g).unwrap();
            for workers in workers_under_test() {
                let (state, report) = parallel_factor_traced(
                    FactorState::new(tiled.clone()),
                    &g,
                    PoolConfig {
                        workers,
                        ..PoolConfig::default()
                    },
                )
                .expect("factorization");
                let ctx = format!("{rows}x{cols} b={b} tree={tree} workers={workers}");
                assert_factors_identical(&state, &seq, &ctx);
                assert_eq!(report.counters.workspace_resizes, 0, "{ctx}");
            }
        }
    }
}

#[test]
fn recursive_panel_arena_runs_match_sequential_bitwise() {
    // Tile widths at which the factor kernels recurse — b = 20 splits every
    // panel 12 + 8 and the 12 again, b = 32 splits 16 + 16 and each into
    // 8s — on shapes that leave ragged (zero-padded) edge tiles, over a TS
    // chain (GEQRT, TSQRT) and a TT tree (TTQRT). The level-3 applies and
    // `T` merges inside the kernels must be as schedule-blind as the
    // reflector loop: pool at 1/2/4 workers and the resident service
    // against `run_all`, bitwise.
    for (rows, cols, b) in [(70, 50, 20), (100, 72, 32)] {
        let a = random_matrix::<f64>(rows, cols, 0xA3);
        for tree in [EliminationTree::Flat, EliminationTree::Binary] {
            let tiled = TiledMatrix::from_matrix(&a, b).unwrap();
            let g = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), tree);
            let mut seq = FactorState::new(tiled.clone());
            seq.run_all(&g).unwrap();
            for workers in [1, 2, 4] {
                let (state, report) = parallel_factor_traced(
                    FactorState::new(tiled.clone()),
                    &g,
                    PoolConfig {
                        workers,
                        ..PoolConfig::default()
                    },
                )
                .expect("factorization");
                let ctx = format!("{rows}x{cols} b={b} tree={tree} workers={workers}");
                assert_factors_identical(&state, &seq, &ctx);
                assert_eq!(report.counters.workspace_resizes, 0, "{ctx}");
            }
            let svc = QrService::<f64>::start(ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            });
            let spec = JobSpec::factor(a.clone())
                .tile_size(b)
                .tree(TreePolicy::Fixed(tree));
            let res = svc.submit(spec).unwrap().wait().unwrap();
            let ctx = format!("{rows}x{cols} b={b} tree={tree} service");
            assert_factors_identical(&res.output.factor().state, &seq, &ctx);
            svc.shutdown();
        }
    }
}

#[test]
fn counters_are_clean_on_uniquely_owned_input() {
    // Unlike the sweeps above (which share `tiled` and therefore pay one
    // counted COW copy per tile), a moved-in, uniquely-owned input must
    // run the entire factorization without a single fallback clone.
    let a = random_matrix::<f64>(48, 48, 0xA4);
    for workers in workers_under_test() {
        let tiled = TiledMatrix::from_matrix(&a, 8).unwrap();
        let g = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), EliminationTree::Flat);
        let (_, report) = parallel_factor_traced(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers,
                ..PoolConfig::default()
            },
        )
        .expect("factorization");
        assert_eq!(report.cow_clones(), 0, "workers={workers}");
        assert!(
            report.counters.is_clean(),
            "workers={workers}: {:?}",
            report.counters
        );
        assert!(
            report.counters.workspace_bytes > 0 || workers == 0,
            "workers={workers}: sized arenas must report their footprint"
        );
    }
}
