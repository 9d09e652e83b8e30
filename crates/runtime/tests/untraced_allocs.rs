//! "Tracing off allocates no trace", held by a `#[global_allocator]`
//! that records the largest single acquisition.
//!
//! A traced run's [`Trace`](tileqr_obs::Trace) is sized up front: one block
//! of three spans per task and one of two instants per task; nothing else a
//! small untraced run acquires comes near 64 KiB (thread stacks are mapped,
//! not allocated). So an untraced run of an 8 × 8 grid whose largest block
//! stays under that line built no trace anywhere, and a traced run of a
//! 16 × 16 grid — whose span block holds 4 488 spans — shows the line is
//! one a trace crosses. Freeing blocks that size at the end of every
//! untraced run is what makes the allocator trim the heap and the *next*
//! call re-fault its pages.
//!
//! The high-water mark is process-wide, so this binary holds exactly one
//! `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tileqr_dag::{EliminationTree, TaskGraph};
use tileqr_kernels::exec::FactorState;
use tileqr_matrix::gen::random_matrix;
use tileqr_matrix::TiledMatrix;
use tileqr_runtime::{parallel_factor_traced, PoolConfig, TraceConfig};

static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// The system allocator plus one relaxed `fetch_max` per acquisition.
struct HighWaterAlloc;

// SAFETY: every operation defers directly to `System` with the caller's
// arguments; the high-water mark has no effect on the memory handed out.
unsafe impl GlobalAlloc for HighWaterAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: HighWaterAlloc = HighWaterAlloc;

/// Largest block acquired by a two-worker run of an `nt × nt` grid at
/// b = 4.
fn largest_block(nt: usize, trace: TraceConfig) -> usize {
    let a = random_matrix::<f64>(4 * nt, 4 * nt, 7);
    let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
    let graph = TaskGraph::build_tree(nt, nt, EliminationTree::Flat);
    let config = PoolConfig {
        workers: 2,
        trace,
        ..PoolConfig::default()
    };
    LARGEST.store(0, Ordering::Relaxed);
    let (_, report) = parallel_factor_traced(FactorState::new(tiled), &graph, config).unwrap();
    assert_eq!(report.trace.is_some(), trace.enabled);
    LARGEST.load(Ordering::Relaxed)
}

#[test]
fn an_untraced_run_builds_no_recorder() {
    const LINE: usize = 64 << 10;
    let untraced = largest_block(8, TraceConfig::default());
    assert!(untraced < LINE, "untraced run acquired {untraced} bytes");
    let traced = largest_block(16, TraceConfig::enabled());
    assert!(traced >= LINE, "a recorder is only {traced} bytes");
}
