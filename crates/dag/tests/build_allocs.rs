//! "Building a graph does not allocate per task", held by a counting
//! `#[global_allocator]`.
//!
//! `TaskGraph::build_tree` keeps its per-tile state in dense tables and its
//! edges in flat CSR arrays, so what it acquires is the tables, amortized
//! growth of the flat arrays, the tree's per-panel round lists and the
//! per-tile reader lists — O(tiles), not O(tasks). The bound below is a
//! few blocks per tile; a builder that allocated per task (a `Vec` per
//! access set, per predecessor list or per successor list) crosses it on
//! every tree, since each grid here holds several tasks per tile.
//!
//! The counter is process-wide, so this binary holds exactly one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tileqr_dag::{EliminationTree, TaskGraph};

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

#[test]
fn building_a_graph_allocates_per_tile_not_per_task() {
    for (mt, nt) in [(32, 32), (256, 2)] {
        let mut trees = EliminationTree::zoo();
        trees.push(EliminationTree::Plateau(EliminationTree::tsqr_domain(mt)));
        for tree in trees {
            let before = ALLOCS.load(Ordering::Relaxed);
            let g = TaskGraph::build_tree(mt, nt, tree);
            let allocs = ALLOCS.load(Ordering::Relaxed) - before;
            let bound = 4 * mt * nt + 64;
            assert!(
                allocs <= bound,
                "{tree} {mt}x{nt}: {allocs} allocations for {} tasks, bound {bound}",
                g.len()
            );
        }
    }
}
