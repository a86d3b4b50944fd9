//! Steady-state allocation audit for the transformation engine.
//!
//! The claim: once a session has warmed up — frame pool as deep as the
//! document, log as long as the longest pending region, record and
//! condition tables as large as one record needs — `push_into` into a
//! reused buffer touches the allocator *zero* times, deferred verdicts
//! included. This test wraps the global allocator in a counting shim
//! (the one of the workspace's `tests/zero_alloc.rs`), warms a session
//! on the first half of a DBLP document, and asserts that the second
//! half allocates nothing.
//!
//! One `#[test]`, its own binary: the counter is global to the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use xsq_transform::Transformer;

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

/// Two deferred rules — `[author]` waits for a child, `[year=2002]` for
/// a child's text, so every record is held back — and one immediate rule
/// that rewrites attributes on the way through.
const RULES: &str = "//inproceedings[author] => wrap(talk)\n\
                     //article[year=2002] => rename(recent)\n\
                     //title => rename(t) +@lang=\"en\" -@none";

const CHUNK: usize = 4096;

#[test]
fn steady_state_transform_performs_zero_allocations() {
    // ~4 000 records: the `key="rec/N"` attribute has reached its final
    // width well inside the first half.
    let doc = xsq_datagen::dblp::generate(2003, 1 << 20);
    let t = Transformer::compile(RULES).unwrap();
    let mut session = t.session();
    // The buffer is the caller's: sized once, cleared per push.
    let mut out = String::with_capacity(4 * CHUNK);
    let mut total = 0usize;

    let (warm, steady) = doc.as_bytes().split_at(doc.len() / 2);
    for piece in warm.chunks(CHUNK) {
        out.clear();
        session.push_into(piece, &mut out).unwrap();
        total += out.len();
    }
    let capacity = out.capacity();

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for piece in steady.chunks(CHUNK) {
        out.clear();
        session.push_into(piece, &mut out).unwrap();
        total += out.len();
    }
    let allocations = ALLOC_CALLS.load(Ordering::Relaxed) - before;

    assert_eq!(out.capacity(), capacity, "the output buffer never grew");
    assert_eq!(
        allocations,
        0,
        "push_into allocated {allocations} times over {} steady-state bytes",
        steady.len()
    );
    let tail = session.finish().unwrap();
    assert_eq!(tail.stats.bytes_out as usize, total + tail.xml.len());
    assert!(
        tail.stats.deferred > 3_000 && tail.stats.matched > 3_000,
        "the rules must have been at work: {:?}",
        tail.stats
    );
}
