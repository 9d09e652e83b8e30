//! Allocations of the way out, held by a counting `#[global_allocator]`.
//!
//! `FactorState::solve` pads the right-hand side once, replays the factor
//! kernels over it through two reused row blocks and one scratch arena,
//! back-substitutes in place on `R`'s own tiles and cuts the result once:
//! the same handful of acquisitions on every grid, none larger than the
//! padded right-hand side or one tile the arena stages. A dense copy of
//! `R` or a block per factor task shows here as a count that grows with
//! the grid.
//!
//! The counter is per thread, so the test harness's own allocations on
//! other threads do not land in a counted region; this binary still holds
//! exactly one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tileqr_dag::TreePolicy;
use tileqr_kernels::exec::FactorState;
use tileqr_matrix::gen::random_matrix;

thread_local! {
    /// Acquisitions and the largest one, in bytes.
    static ACQUIRED: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

/// One acquisition of `size` bytes on the calling thread (none counted
/// while the thread is being torn down).
fn count(size: usize) {
    let _ = ACQUIRED.try_with(|c| {
        let (n, most) = c.get();
        c.set((n + 1, most.max(size)));
    });
}

/// The system allocator plus one count per acquisition.
struct CountingAlloc;

// SAFETY: every operation defers directly to `System` with the caller's
// arguments; the count has no effect on the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Acquisitions the calling thread makes while `f` runs, and the largest.
fn acquisitions(f: impl FnOnce()) -> (u64, usize) {
    ACQUIRED.with(|c| c.set((0, 0)));
    f();
    ACQUIRED.with(Cell::get)
}

#[test]
fn solve_acquires_a_constant_set_of_blocks() {
    let b = 16;
    let mut counts = Vec::new();
    for (mt, nt) in [(8, 8), (32, 32), (64, 2)] {
        let a = random_matrix::<f64>(mt * b, nt * b, 5);
        let (mut state, graph) = FactorState::plan(&a, b, TreePolicy::Auto).unwrap();
        state.run_all(&graph).unwrap();
        let rhs = random_matrix::<f64>(mt * b, 1, 6);
        let (n, most) = acquisitions(|| drop(state.solve(&graph, &rhs).unwrap()));
        // The arena stages one b x b tile, which outgrows an 8 x 8 grid's
        // padded right-hand side; a 64-byte line of alignment slack each.
        let bound = (mt * b).max(b * b) * size_of::<f64>() + 64;
        assert!(
            most <= bound,
            "{mt} x {nt} tiles: a {most}-byte block (bound {bound})"
        );
        counts.push(n);
    }
    assert!(
        counts.iter().all(|&n| n == counts[0]),
        "grid-dependent acquisitions: {counts:?}"
    );
}
