//! "A fenced run allocates per tile, not per task", held by a counting
//! `#[global_allocator]`.
//!
//! A fault-tolerant run stages each written tile by copying it, so a retry
//! finds the pre-task value in place. The copy lands in a tile an earlier
//! commit displaced, a factor task's `T` output does too, and the outputs
//! travel back to the fence unboxed. So what a whole run acquires is one
//! tile per factor task (its `T` leaves the spare list for good), the few
//! tiles the attempts in flight hold beyond that, and the driver's per-run
//! setup — a per-task `Box` or a fresh allocation per tile copy crosses the
//! bound below several times over.
//!
//! The counter is process-wide (the run's workers are other threads), so
//! this binary holds exactly one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tileqr_dag::{EliminationTree, KernelClass, TaskGraph};
use tileqr_kernels::exec::FactorState;
use tileqr_matrix::gen::random_matrix;
use tileqr_matrix::TiledMatrix;
use tileqr_runtime::{run_pool, FaultTolerance, PoolConfig};

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator plus one relaxed increment per acquisition
/// (`alloc`, `alloc_zeroed` and `realloc`).
struct CountingAlloc;

// SAFETY: every operation defers directly to `System` with the caller's
// arguments; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Acquisitions of one factor task: its `T` matrix and the `Arc` around it.
const T_OUTPUT: usize = 2;

#[test]
fn fenced_run_allocates_per_tile_not_per_task() {
    let (nt, b) = (8, 16);
    let g = TaskGraph::build_tree(nt, nt, EliminationTree::Flat);
    let factors = g
        .tasks()
        .iter()
        .filter(|&&t| KernelClass::of(t) != KernelClass::Update)
        .count();
    let a = random_matrix::<f64>(nt * b, nt * b, 91);
    let config = PoolConfig {
        workers: 2,
        fault_tolerance: Some(FaultTolerance::default()),
        ..PoolConfig::default()
    };
    let state = FactorState::new(TiledMatrix::from_matrix(&a, b).unwrap());
    let before = ALLOCS.load(Ordering::Relaxed);
    let (state, report) = run_pool(state, &g, config, None).unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(report.total_tasks() as usize, g.len());
    assert_eq!(report.retries, 0);
    // 110-132 measured, 72 of them one tile per factor task; an attempt
    // holds at most four tiles (two copies, `T`, `−V₂ᵀ`). One `Box` per task
    // alone would add 204, a fresh copy per written tile 744.
    let bound = T_OUTPUT * (factors + 4 * config.workers) + 64;
    assert!(
        allocs <= bound,
        "{allocs} allocations for {} tasks ({factors} factor tasks), bound {bound}",
        g.len()
    );
    drop(state);
}
