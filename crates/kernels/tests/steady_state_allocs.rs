//! Steady-state allocation count of every task kind, held by a counting
//! `#[global_allocator]`.
//!
//! After warm-up, stage → `compute_with` → commit of a `UNMQR`, `TSMQR` or
//! `TTMQR` task acquires no heap memory: written tiles travel as the `Arc`
//! handles they were staged with (commit is a pointer store), read tiles
//! and `T` factors are `Arc` clones, and every scratch block comes out of
//! a tile-sized [`Workspace`] that never grows. A `GEQRT`, `TSQRT` or
//! `TTQRT` task acquires exactly its output — the `T` matrix and the `Arc`
//! it is shared through — and nothing for the recursion inside the kernel:
//! its applies, merges and staged `V` blocks fit the same arena. The same
//! holds for the fenced path (`stage_preserving`): its copy of each
//! written tile lands in a tile an earlier commit displaced.
//!
//! The counter is per thread, so the test harness's own allocations on
//! other threads do not land in a counted region; this binary still holds
//! exactly one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tileqr_dag::{EliminationTree, KernelClass, TaskGraph, TaskKind};
use tileqr_kernels::exec::FactorState;
use tileqr_kernels::Workspace;
use tileqr_matrix::gen::random_matrix;
use tileqr_matrix::TiledMatrix;

thread_local! {
    static ACQUISITIONS: Cell<u64> = const { Cell::new(0) };
}

/// One bump of the calling thread's counter (none while the thread is
/// being torn down).
fn count() {
    let _ = ACQUISITIONS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator plus one counter bump per acquisition.
struct CountingAlloc;

// SAFETY: every operation defers directly to `System` with the caller's
// arguments; the counter bump has no effect on the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap acquisitions the calling thread makes while `f` runs.
fn acquisitions(f: impl FnOnce()) -> u64 {
    let before = ACQUISITIONS.with(Cell::get);
    f();
    ACQUISITIONS.with(Cell::get) - before
}

/// The two ways column 0 of a 2 x 2-tile matrix gets eliminated (a tile has
/// one elimination factor, so each needs its own state): the factor tasks
/// that must have committed, then the update tasks they enable. Re-running
/// an update applies the same orthogonal factor again, so the steady state
/// can be repeated on one matrix without the values drifting.
fn cases() -> [(Vec<TaskKind>, Vec<TaskKind>); 2] {
    let (p, i, j, k) = (0, 1, 1, 0);
    let ts = (
        vec![TaskKind::Geqrt { i: 0, k }, TaskKind::Tsqrt { p, i, k }],
        vec![
            TaskKind::Unmqr { i: 0, j, k },
            TaskKind::Tsmqr { p, i, j, k },
        ],
    );
    let tt = (
        vec![
            TaskKind::Geqrt { i: 0, k },
            TaskKind::Geqrt { i, k },
            TaskKind::Ttqrt { p, i, k },
        ],
        vec![TaskKind::Ttmqr { p, i, j, k }],
    );
    [ts, tt]
}

/// Acquisitions of one factor task: its `T` matrix and the `Arc` around it.
const T_OUTPUT: u64 = 2;

/// Acquisitions a sequential run makes once: the spare list its first spent
/// `−V₂ᵀ` block is recycled into. Every block is a factor task's tile, for
/// its `T` or its `−V₂ᵀ`, so the blocks count in `T_OUTPUT`.
const SPARE_LIST: u64 = 1;

#[test]
fn update_tasks_allocate_nothing_in_steady_state() {
    for b in [16usize, 64] {
        for (factors, updates) in cases() {
            // Sequential state: its own arena, driven through `execute`.
            let a = random_matrix::<f64>(2 * b, 2 * b, 77);
            let mut state = FactorState::new(TiledMatrix::from_matrix(&a, b).unwrap());
            for &task in &factors {
                state.execute(task).unwrap();
            }
            // Re-factoring a factored tile is just another factorization.
            for &task in &factors {
                let n = acquisitions(|| {
                    for _ in 0..3 {
                        state.execute(task).unwrap();
                    }
                });
                assert_eq!(n, 3 * T_OUTPUT, "FactorState, b = {b}: {task:?}");
            }
            for &task in &updates {
                state.execute(task).unwrap();
                let n = acquisitions(|| {
                    for _ in 0..3 {
                        state.execute(task).unwrap();
                    }
                });
                assert_eq!(n, 0, "FactorState, b = {b}: {task:?} allocated");
            }
            assert_eq!(state.workspace_resizes(), 0, "arena grew at b = {b}");
            assert_eq!(state.cow_clones(), 0);

            // Staged apart, as a runtime's workers do: they bring the arena.
            // Fenced (preserving) staging copies each written tile into
            // one a commit displaced, so once warm it allocates no more
            // than the swapping path does.
            let mut shared = state;
            let mut ws = Workspace::new(b, b);
            let stagings = [FactorState::stage, FactorState::stage_preserving];
            for (stage, fenced) in stagings.into_iter().zip([false, true]) {
                for (&task, want) in
                    (updates.iter().map(|t| (t, 0))).chain(factors.iter().map(|t| (t, T_OUTPUT)))
                {
                    let mut cycle = || {
                        let staged = stage(&mut shared, task).unwrap();
                        shared.commit(staged.compute_with(&mut ws).unwrap());
                    };
                    cycle();
                    let n = acquisitions(|| (0..3).for_each(|_| cycle()));
                    let path = if fenced { "fenced" } else { "unfenced" };
                    assert_eq!(n, 3 * want, "shared {path}, b = {b}: {task:?}");
                }
            }
            assert_eq!(ws.resizes(), 0, "worker arena grew at b = {b}");
            assert_eq!(shared.cow_clones(), 0);
        }
    }

    // A whole factorization, not one task at a time: the paper's 8 x 8
    // grid at b = 16 acquires one tile per factor task and, once, the spare
    // list — in program order each factor's updates all commit before the
    // next factor task, which takes the `−V₂ᵀ` block they recycled for its
    // `T` or its own block.
    let (nt, b) = (8, 16);
    let g = TaskGraph::build_tree(nt, nt, EliminationTree::Flat);
    let is_factor = |t: &&TaskKind| KernelClass::of(**t) != KernelClass::Update;
    let factors = g.tasks().iter().filter(is_factor).count() as u64;
    let a = random_matrix::<f64>(nt * b, nt * b, 78);
    let mut state = FactorState::new(TiledMatrix::from_matrix(&a, b).unwrap());
    let n = acquisitions(|| state.run_all(&g).unwrap());
    assert_eq!(n, T_OUTPUT * factors + SPARE_LIST, "run_all, 8 x 8 tiles");
    assert_eq!(state.workspace_resizes(), 0);
}
