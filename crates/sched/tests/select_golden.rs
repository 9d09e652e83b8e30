//! Bit-identity pin of the plan selector on `perf`'s `hetero_plan` shapes.
//!
//! `select_plan` builds one DAG per `(tree, tile size)` candidate and
//! list-schedules it; the ranking, each candidate's task count and the
//! exact bits of each predicted makespan below were recorded before the
//! DAG builder's storage was rewritten. Any change to task ids, edge sets
//! or the order of a task's successors (FIFO ties in `list_makespan`)
//! shows here as a changed bit.

use tileqr_dag::EliminationTree;
use tileqr_sched::select::select_plan;
use tileqr_sim::profiles;

/// `(tree, tile_size, tasks, makespan_us.to_bits())`, best first.
type Row = (EliminationTree, usize, usize, u64);

const SHAPE_1024_64: &[Row] = &[
    (EliminationTree::Flat, 16, 630, 0x40e5847db22d0e50),
    (EliminationTree::Plateau(4), 16, 780, 0x40eadd4e978d4fd9),
    (EliminationTree::Plateau(2), 16, 937, 0x40f051df7ced9166),
    (EliminationTree::Plateau(6), 32, 110, 0x40f3e6f374bc6a7e),
    (EliminationTree::Plateau(4), 32, 116, 0x40f4b5c95810624b),
    (EliminationTree::Fibonacci, 16, 1250, 0x40f60686872b020a),
    (EliminationTree::Greedy, 16, 1250, 0x40f60759db22d0e3),
    (EliminationTree::Binary, 16, 1250, 0x40f6331d916872ae),
    (EliminationTree::Plateau(2), 32, 140, 0x40f9000f7ced9164),
    (EliminationTree::Flat, 32, 95, 0x40fb9f75810624d8),
    (EliminationTree::Greedy, 32, 187, 0x4100b6e3e76c8b42),
    (EliminationTree::Fibonacci, 32, 187, 0x4100f0375c28f5c0),
    (EliminationTree::Binary, 32, 187, 0x41010ffee978d4fc),
];

const SHAPE_512_512: &[Row] = &[
    (EliminationTree::Flat, 16, 11440, 0x411c15b049ba5dba),
    (EliminationTree::Flat, 32, 1496, 0x411db8a049ba5e5c),
    (EliminationTree::Plateau(4), 16, 13960, 0x412126597ced9178),
    (EliminationTree::Plateau(4), 32, 1780, 0x41216b768b43959b),
    (EliminationTree::Plateau(2), 16, 16760, 0x4124aad09374bdc1),
    (EliminationTree::Plateau(2), 32, 2140, 0x41250cce72b020e5),
    (EliminationTree::Fibonacci, 16, 22352, 0x412baa28d0e56430),
    (EliminationTree::Greedy, 16, 22352, 0x412babc94fdf3f47),
    (EliminationTree::Binary, 16, 22352, 0x412bb63ee5604567),
    (EliminationTree::Fibonacci, 32, 2856, 0x412c3c8ff3b645d8),
    (EliminationTree::Greedy, 32, 2856, 0x412c47e020c49bdb),
    (EliminationTree::Binary, 32, 2856, 0x412c806c147ae17a),
];

const SHAPE_288_256: &[Row] = &[
    (EliminationTree::Flat, 16, 1768, 0x40f36b15c28f5c10),
    (EliminationTree::Plateau(4), 16, 2128, 0x40f736bb22d0e53f),
    (EliminationTree::Flat, 32, 240, 0x40f9f2ec8b43957c),
    (EliminationTree::Plateau(2), 16, 2548, 0x40fc148b645a1c7a),
    (EliminationTree::Plateau(4), 32, 278, 0x40fc1fdf1a9fbe71),
    (EliminationTree::Plateau(2), 32, 334, 0x41011fc54fdf3b5f),
    (EliminationTree::Fibonacci, 16, 3400, 0x4102bed570a3d6e0),
    (EliminationTree::Greedy, 16, 3400, 0x4102d0e83126e953),
    (EliminationTree::Binary, 16, 3400, 0x4102f3c6f9db22a8),
    (EliminationTree::Fibonacci, 32, 444, 0x410656ca3d70a3d6),
    (EliminationTree::Greedy, 32, 444, 0x4106b73c7ae147ac),
    (EliminationTree::Binary, 32, 444, 0x41076ad8e5604188),
];

#[test]
fn select_plan_ranking_is_bit_identical_on_hetero_plan_shapes() {
    let profile = profiles::cpu_i7_3820();
    for (rows, cols, want) in [
        (1024, 64, SHAPE_1024_64),
        (512, 512, SHAPE_512_512),
        (288, 256, SHAPE_288_256),
    ] {
        let got: Vec<Row> = select_plan(&profile, rows, cols, &[16, 32])
            .ranked
            .iter()
            .map(|s| (s.tree, s.tile_size, s.tasks, s.makespan_us.to_bits()))
            .collect();
        assert_eq!(got, want, "{rows}x{cols}");
    }
}
