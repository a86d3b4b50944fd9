//! A session's heap must not grow with the document.
//!
//! `peak_buffered` reports the output a transformation holds back, but
//! the tables around it — conditions, pending elements, dependents, the
//! rewriter's records — are heap too. They are recycled whenever nothing
//! is pending, which on DBLP is every record boundary, so a session that
//! has seen a few hundred records is as large as it will ever be. This
//! test counts live heap bytes under the referee's two deferred rules:
//! after a warm-up prefix, four times as many records again must leave
//! the count where it was.
//!
//! One `#[test]`, its own binary: the counter is global to the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use xsq_transform::Transformer;

struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// The referee's `transform_deferred` rules: every record is deferred.
const RULES: &str = "//inproceedings[author] => wrap(talk)\n//article[year=2002] => rename(recent)";

const CHUNK: usize = 4096;

#[test]
fn session_heap_stays_flat_as_deferred_records_stream_by() {
    // ~7 900 records, the warm-up fifth past record 1 000: the parser's
    // `key="rec/N"` value is at its final width before measuring starts.
    let doc = xsq_datagen::dblp::generate(2003, 3 << 19);
    let t = Transformer::compile(RULES).unwrap();
    let mut session = t.session();
    // The output handed back is the caller's, not the session's: one
    // buffer, sized before anything is measured.
    let mut out = String::with_capacity(4 * CHUNK);

    let (warm, rest) = doc.as_bytes().split_at(doc.len() / 5);
    for piece in warm.chunks(CHUNK) {
        out.clear();
        session.push_into(piece, &mut out).unwrap();
    }
    let warmed = LIVE.load(Ordering::Relaxed);
    for piece in rest.chunks(CHUNK) {
        out.clear();
        session.push_into(piece, &mut out).unwrap();
    }
    let streamed = LIVE.load(Ordering::Relaxed);

    let stats = session.finish().unwrap().stats;
    assert!(stats.deferred > 7_000, "every record defers: {stats:?}");
    assert!(
        streamed <= warmed,
        "live heap grew by {} bytes over {} more bytes of records \
         ({} deferred elements in all, peak_buffered {})",
        streamed - warmed,
        rest.len(),
        stats.deferred,
        stats.peak_buffered
    );
}
