//! Allocation counts of the µs-scale set-ups the benchmark times.
//!
//! `XsqEngine::compile_str` parses a query, builds its HPDT into flat
//! arrays (one arc array grouped by state, one action pool, one guard
//! pool), seals the derived tables and verifies the result. Each of
//! those arrays is allocated once, sized from the query's shape, so a
//! compile costs a fixed number of allocations that does not grow with
//! the arcs. This pins a ceiling on that number for the benchmark's two
//! solo queries, and on each set-up the benchmark's `setup_s` times:
//! a compile with its runner and parser, a transform compile with its
//! session, and `multi_sub`'s batch compile into one `QueryIndex`. A
//! change that allocates per arc, per action, per derived table or per
//! runner again shows up here as a count, not as a timing taken on a
//! host whose speed drifts.
//!
//! The counter is per thread, so each `#[test]` counts its own
//! allocations whatever runs beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use xsq::engine::QueryIndex;
use xsq::transform::Transformer;
use xsq::xml::StreamParser;
use xsq::XsqEngine;

#[path = "common/subscriptions.rs"]
mod subscriptions;

struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down has no counter left.
    let _ = ALLOC_CALLS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The allocations this thread makes while running `f` the second time:
/// the first run interns the names, which the symbol table keeps.
fn allocations_of(mut f: impl FnMut()) -> u64 {
    f();
    let before = ALLOC_CALLS.with(Cell::get);
    f();
    ALLOC_CALLS.with(Cell::get) - before
}

const SCAN_DBLP: &str = "/dblp/article/title/text()";
const MATCH_RECURSIVE: &str = "//pub[year>2000]//book[price]/title/text()";

/// `transform_deferred`'s two rules.
const TRANSFORM_RULES: &str =
    "//inproceedings[author] => wrap(talk)\n//article[year=2002] => rename(recent)";

/// The benchmark's solo queries (`scan_dblp`, `match_recursive`) and the
/// most allocations one `compile_str` of each may make, parse included.
/// Before the automaton was stored flat they read 41 and 82, and 24 and
/// 35 before the verifier took its walks from one allocation and arcs
/// made in state order kept their action pool. A ceiling, not an exact
/// count: fewer is an improvement.
const PINNED: [(&str, u64); 2] = [(SCAN_DBLP, 19), (MATCH_RECURSIVE, 31)];

#[test]
fn a_solo_compile_allocates_a_fixed_handful() {
    let engine = XsqEngine::full();
    for (query, pinned) in PINNED {
        let count = allocations_of(|| {
            drop(engine.compile_str(query).expect("compiles"));
        });
        assert!(
            count <= pinned,
            "{query}: one compile_str allocated {count} times, capped at {pinned}"
        );
    }
}

/// What the benchmark's `setup_s` times for a solo workload: a compile,
/// its runner and a pull parser over the document, with the most
/// allocations each may make. Measured 27 and 39 when first pinned; a
/// runner of a query that does not aggregate now allocates no
/// aggregator table.
const SOLO_SET_UPS: [(&str, u64); 2] = [(SCAN_DBLP, 21), (MATCH_RECURSIVE, 34)];

/// `transform_deferred`'s `setup_s`: `Transformer::compile` of its two
/// rules and one session. Measured 24 when first pinned.
const TRANSFORM_SET_UP: u64 = 24;

#[test]
fn each_timed_set_up_allocates_a_fixed_handful() {
    let doc = b"<dblp><article><title>T</title></article></dblp>";
    let engine = XsqEngine::full();
    for (query, pinned) in SOLO_SET_UPS {
        let count = allocations_of(|| {
            let compiled = engine.compile_str(query).expect("compiles");
            let runner = compiled.runner();
            let parser = StreamParser::new(&doc[..]);
            black_box((&runner, &parser));
        });
        assert!(
            count <= pinned,
            "{query}: compile_str + runner() + StreamParser::new allocated {count} times, \
             capped at {pinned}"
        );
    }
    let count = allocations_of(|| {
        let t = Transformer::compile(TRANSFORM_RULES).expect("compiles");
        let session = t.session();
        black_box(&session);
    });
    assert!(
        count <= TRANSFORM_SET_UP,
        "Transformer::compile + session() allocated {count} times, capped at {TRANSFORM_SET_UP}"
    );
}

/// `multi_sub`'s `setup_s`: its 512 seeded subscriptions compiled into
/// one `QueryIndex` as one group, the most allocations it may make: the
/// count when first pinned. It reads 7 057 or 7 058 since a
/// non-aggregating group's runner allocates no aggregator table (the
/// count moves by one from run to run, so the ceiling is not exact).
const MULTI_SUB_SET_UP: u64 = 7_072;

#[test]
fn multi_subs_batch_compile_allocates_what_it_did() {
    let queries = subscriptions::subscriptions(2003, 512);
    let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
    let count = allocations_of(|| {
        let mut index = QueryIndex::new(XsqEngine::full());
        index.subscribe_group(&refs).expect("compiles");
        black_box(&index);
    });
    assert!(
        count <= MULTI_SUB_SET_UP,
        "QueryIndex::subscribe_group of 512 subscriptions allocated {count} times, \
         capped at {MULTI_SUB_SET_UP}"
    );
}
