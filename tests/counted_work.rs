//! Counted work of the benchmark's workloads that a runtime change must
//! not move.
//!
//! A wall-clock pair on a shared host resolves about 10 %, and the same
//! binary reads fast or slow by the spell. What a run *does* does not
//! drift: the arcs it fires, the lock-step runs it steps, the runs it
//! probes, its peak configuration count and the index entries an event
//! touches. These are pinned exactly, on a seeded 64 KiB DBLP document,
//! for `scan_dblp`'s query run solo and for `serve_bulk`'s four queries
//! through one `QueryIndex`. Equal counts with a slower wall clock point
//! at the host, or at layout and cache, not at work.
//!
//! None of these automata carries a dominance mark (a TRUE state whose
//! next step is a closure, DESIGN.md *Dominated configurations*), so the
//! rule that moves `match_recursive`'s counts runs none of its code on
//! them; nor do `multi_sub`'s query shapes or `broadcast_fanout`'s
//! groups.

use xsq::datagen::dblp;
use xsq::engine::{QueryIndex, VecQuerySink, VecSink, XsqEngine};
use xsq::QuerySet;

const SCAN_DBLP: &str = "/dblp/article/title/text()";

const SERVE_BULK: [&str; 4] = [
    "/dblp/inproceedings[booktitle]/title/text()",
    "/dblp/article/@key",
    "/dblp/article[year>1995]/author/text()",
    "//year/count()",
];

/// `multi_sub`'s three subscription shapes, one of each.
const MULTI_SUB: [&str; 3] = [
    "/dblp/article[year=1999]/pages/text()",
    "/dblp/inproceedings[author=\"N\"]/title/text()",
    "//article[author=\"N\"]/@key",
];

const BROADCAST_FANOUT: [&str; 6] = [
    "//pub[year]//book[@id]/title/text()",
    "//pub/book/title/text()",
    "//book/@id",
    "//book/price/text()",
    "//price/sum()",
    "//book/count()",
];

fn doc() -> String {
    dblp::generate(2003, 64 * 1024)
}

#[test]
fn scan_dblp_counts_stay_put() {
    let compiled = XsqEngine::full().compile_str(SCAN_DBLP).expect("compiles");
    assert!(!compiled.hpdt().has_dominance_marks());
    let stats = compiled
        .run_document(doc().as_bytes(), &mut VecSink::new())
        .expect("well-formed");
    let counts = (
        stats.results,
        stats.firings,
        stats.steps,
        stats.probed,
        stats.memory.peak_configs,
    );
    assert_eq!(
        counts,
        (140, 704, 704, 704, 1),
        "(results, firings, steps, probed, peak_configs)"
    );
}

#[test]
fn serve_bulk_counts_stay_put() {
    let mut index = QueryIndex::new(XsqEngine::full());
    index.subscribe_group(&SERVE_BULK).expect("compiles");
    let mut sink = VecQuerySink::new();
    let stats = index
        .run_document(doc().as_bytes(), &mut sink)
        .expect("well-formed");
    let counts = (
        sink.results.len(),
        stats.firings,
        stats.steps,
        stats.probed,
        stats.memory.peak_configs,
        index.touches(),
    );
    assert_eq!(
        counts,
        (430, 3680, 3680, 3610, 4, 3488),
        "(results, firings, steps, probed, peak_configs, touches)"
    );
}

#[test]
fn the_workloads_that_must_not_move_carry_no_mark() {
    for batch in [&SERVE_BULK[..], &MULTI_SUB, &BROADCAST_FANOUT, &[SCAN_DBLP]] {
        let set = QuerySet::compile(XsqEngine::full(), batch).expect("compiles");
        for hpdt in set.hpdts() {
            assert!(!hpdt.has_dominance_marks(), "{batch:?}: {}", hpdt.dump());
        }
    }
}
