//! Steady-state allocation audit for the zero-copy event path.
//!
//! The tentpole claim of the interned-symbol refactor is that the
//! no-match common case — tokenise an event, look it up in the dispatch
//! structures, advance automata state — touches the allocator *zero*
//! times per event once the per-parser scratch buffers and the symbol
//! table have warmed up. This test wraps the global allocator in a
//! counting shim, warms the pipeline on the first half of a document,
//! then asserts that the second half (identical record shapes) performs
//! no heap allocation at all.
//!
//! The second half of the file extends the claim to the *matching*
//! steady state: a buffered query firing on every record (anchor,
//! append, predicate flush, emit) must also stop allocating once the
//! per-runner arena, segment table, and queue storage have warmed up —
//! items live in a bump arena recycled at quiescent points, and queue
//! entries clone depth vectors by register copy.
//!
//! Everything lives in one `#[test]` because the counter is global to
//! the test binary: concurrent tests would pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use xsq::engine::{CountingSink, VecSink};
use xsq::xml::{ParsePoll, StreamParser};
use xsq::{QueryIndex, VecQuerySink, XsqEngine};

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

/// A homogeneous document: many identical record shapes, so whatever
/// capacity the first half of the stream demands, the second half
/// demands no more. Includes attributes and an entity reference to keep
/// the decode paths in the loop.
fn homogeneous_doc(records: usize) -> String {
    let mut doc = String::from("<site>");
    for i in 0..records {
        doc.push_str("<item id=\"");
        doc.push_str(&(i % 97).to_string());
        doc.push_str("\"><name>alpha &amp; beta</name><price>12.50</price></item>");
    }
    doc.push_str("</site>");
    doc
}

#[test]
fn steady_state_no_match_loop_performs_zero_allocations() {
    let doc = homogeneous_doc(400);

    // Queries whose tags never occur in the document: every event takes
    // the no-match path, which the issue requires to be allocation-free.
    let single_query = "//nowhere/text()";
    let index_queries = ["//nowhere/text()", "/void/hole/@id", "//vacant/count()"];

    // Count events once so the measured window can start mid-stream.
    let mut total_events = 0u64;
    {
        let mut p = StreamParser::new(doc.as_bytes());
        while p.next_raw().expect("well-formed").is_some() {
            total_events += 1;
        }
    }
    let warm_events = total_events / 2;
    assert!(
        warm_events > 100,
        "document too small to have a steady state"
    );

    // --- single-query runner hot loop ---------------------------------
    let compiled = XsqEngine::full()
        .compile_str(single_query)
        .expect("compiles");
    let mut runner = compiled.runner();
    let mut sink = VecSink::new();
    let mut parser = StreamParser::new(doc.as_bytes());
    let mut fed = 0u64;
    let mut baseline = 0u64;
    while let Some(ev) = parser.next_raw().expect("well-formed") {
        runner.feed_raw(&ev, &mut sink);
        fed += 1;
        if fed == warm_events {
            baseline = allocations();
        }
    }
    let grew = allocations() - baseline;
    assert!(
        sink.results.is_empty(),
        "query was supposed to match nothing"
    );
    assert_eq!(
        grew,
        0,
        "runner hot loop allocated {grew} times over {} steady-state events",
        total_events - warm_events
    );

    // --- multi-query index hot loop -----------------------------------
    let mut index = QueryIndex::new(XsqEngine::full());
    index
        .subscribe_group(&index_queries)
        .expect("subscriptions compile");
    let mut qsink = VecQuerySink::new();
    let mut parser = StreamParser::new(doc.as_bytes());
    let mut fed = 0u64;
    let mut baseline = 0u64;
    while let Some(ev) = parser.next_raw().expect("well-formed") {
        index.feed_raw(&ev, &mut qsink);
        fed += 1;
        if fed == warm_events {
            baseline = allocations();
        }
    }
    let grew = allocations() - baseline;
    assert_eq!(
        grew,
        0,
        "query-index hot loop allocated {grew} times over {} steady-state events",
        total_events - warm_events
    );

    // --- push-mode parser hot loop ------------------------------------
    // Pushed bytes land in the same input window the pull path fills,
    // walked by the same boundary scanner. Feed the document in 1 KiB
    // chunks, polling to exhaustion between pushes so the window
    // compacts: once the first half has sized the event buffers and the
    // window, the second half must not allocate.
    let mut parser = StreamParser::push_mode();
    let mut fed = 0u64;
    let mut baseline = 0u64;
    let mut pushed_events = 0u64;
    let half_bytes = doc.len() / 2;
    let mut consumed = 0usize;
    for piece in doc.as_bytes().chunks(1024) {
        parser.push(piece);
        while let ParsePoll::Event(ev) = parser.poll_raw().expect("well-formed") {
            std::hint::black_box(&ev);
            pushed_events += 1;
        }
        consumed += piece.len();
        fed += 1;
        if baseline == 0 && consumed >= half_bytes {
            baseline = allocations();
        }
    }
    parser.finish();
    while let ParsePoll::Event(ev) = parser.poll_raw().expect("well-formed") {
        std::hint::black_box(&ev);
        pushed_events += 1;
    }
    assert_eq!(
        pushed_events, total_events,
        "push path saw a different event stream"
    );
    let grew = allocations() - baseline;
    assert_eq!(
        grew, 0,
        "push-parser hot loop allocated {grew} times over the second half \
         ({fed} chunks total)"
    );

    // ===================================================================
    // Matching steady state: the query FIRES on every record, so every
    // event exercises the full buffered-item machinery — arena anchor,
    // in-place append, predicate-driven queue flush, document-order
    // emission. Once the first half has sized the arena, the segment
    // table, and the queues, the second half must not allocate either.
    // ===================================================================

    // --- engine runner, buffered Items(K) query -----------------------
    // `[price]` resolves *after* <name> streams by in document order, so
    // every name text is anchored into the item arena and held until the
    // predicate decides — the Items(K) buffer class, not pass-through.
    let matching_query = "/site/item[price]/name/text()";
    let compiled = XsqEngine::full()
        .compile_str(matching_query)
        .expect("compiles");
    let mut runner = compiled.runner();
    let mut sink = CountingSink::new();
    let mut parser = StreamParser::new(doc.as_bytes());
    let mut fed = 0u64;
    let mut baseline = 0u64;
    let mut results_at_half = 0u64;
    while let Some(ev) = parser.next_raw().expect("well-formed") {
        runner.feed_raw(&ev, &mut sink);
        fed += 1;
        if fed == warm_events {
            baseline = allocations();
            results_at_half = sink.results;
        }
    }
    let grew = allocations() - baseline;
    assert!(
        sink.results > results_at_half && results_at_half > 0,
        "query must keep matching through both halves \
         ({results_at_half} then {})",
        sink.results
    );
    assert_eq!(
        grew,
        0,
        "matching runner hot loop allocated {grew} times over {} \
         steady-state events ({} results emitted)",
        total_events - warm_events,
        sink.results
    );

    // --- multi-query index, every query firing ------------------------
    struct CountingQuerySink {
        results: u64,
    }
    impl xsq::QuerySink for CountingQuerySink {
        fn result(&mut self, _id: xsq::QueryId, value: &str) {
            self.results += value.len() as u64 + 1;
        }
    }
    let matching_group = [
        "/site/item[price]/name/text()",
        "/site/item/price/text()",
        "/site/item/@id",
    ];
    let mut index = QueryIndex::new(XsqEngine::full());
    index
        .subscribe_group(&matching_group)
        .expect("subscriptions compile");
    let mut qsink = CountingQuerySink { results: 0 };
    let mut parser = StreamParser::new(doc.as_bytes());
    let mut fed = 0u64;
    let mut baseline = 0u64;
    let mut results_at_half = 0u64;
    while let Some(ev) = parser.next_raw().expect("well-formed") {
        index.feed_raw(&ev, &mut qsink);
        fed += 1;
        if fed == warm_events {
            baseline = allocations();
            results_at_half = qsink.results;
        }
    }
    let grew = allocations() - baseline;
    assert!(
        qsink.results > results_at_half && results_at_half > 0,
        "index queries must keep matching through both halves"
    );
    assert_eq!(
        grew,
        0,
        "matching query-index hot loop allocated {grew} times over {} \
         steady-state events",
        total_events - warm_events
    );

    // --- push-mode parser driving a matching runner -------------------
    // The full production shape: bytes pushed in chunks, events polled
    // out, each one fed to a firing buffered query.
    let compiled = XsqEngine::full()
        .compile_str(matching_query)
        .expect("compiles");
    let mut runner = compiled.runner();
    let mut sink = CountingSink::new();
    let mut parser = StreamParser::push_mode();
    let mut baseline = 0u64;
    let mut consumed = 0usize;
    for piece in doc.as_bytes().chunks(1024) {
        parser.push(piece);
        while let ParsePoll::Event(ev) = parser.poll_raw().expect("well-formed") {
            runner.feed_raw(&ev, &mut sink);
        }
        consumed += piece.len();
        if baseline == 0 && consumed >= half_bytes {
            baseline = allocations();
        }
    }
    parser.finish();
    while let ParsePoll::Event(ev) = parser.poll_raw().expect("well-formed") {
        runner.feed_raw(&ev, &mut sink);
    }
    let grew = allocations() - baseline;
    assert!(sink.results > 0, "push-driven query must match");
    assert_eq!(
        grew, 0,
        "push-driven matching pipeline allocated {grew} times over the \
         second half"
    );
}
