//! Allocation count of one solo compile.
//!
//! `XsqEngine::compile_str` parses a query, builds its HPDT into flat
//! arrays (one arc array grouped by state, one action pool, one guard
//! pool), seals the derived tables and verifies the result. Each of
//! those arrays is allocated once, sized from the query's shape, so a
//! compile costs a fixed number of allocations that does not grow with
//! the arcs. This pins a ceiling on that number for the benchmark's two
//! solo queries: a change that allocates per arc, per action or per
//! derived table again shows up here as a count, not as a timing.
//!
//! One `#[test]`, because the counter is global to the test binary:
//! concurrent tests would pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use xsq::XsqEngine;

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// The benchmark's solo queries (`scan_dblp`, `match_recursive`) and the
/// most allocations one `compile_str` of each may make, parse included.
/// Before the automaton was stored flat they read 41 and 82. A ceiling,
/// not an exact count: fewer is an improvement.
const PINNED: [(&str, u64); 2] = [
    ("/dblp/article/title/text()", 24),
    ("//pub[year>2000]//book[price]/title/text()", 35),
];

#[test]
fn a_solo_compile_allocates_a_fixed_handful() {
    let engine = XsqEngine::full();
    for (query, pinned) in PINNED {
        // The first compile interns the query's names; the symbol table
        // keeps them, so every later compile finds them.
        drop(engine.compile_str(query).expect("compiles"));
        let before = allocations();
        let compiled = engine.compile_str(query).expect("compiles");
        let count = allocations() - before;
        drop(compiled);
        assert!(
            count <= pinned,
            "{query}: one compile_str allocated {count} times, capped at {pinned}"
        );
    }
}
