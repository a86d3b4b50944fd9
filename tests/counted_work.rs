//! Counted work of the benchmark's workloads that a runtime change must
//! not move.
//!
//! A wall-clock pair on a shared host resolves about 10 %, and the same
//! binary reads fast or slow by the spell. What a run *does* does not
//! drift: the arcs it fires, the lock-step runs it steps, the runs it
//! probes, its peak configuration count and the index entries an event
//! touches. These are pinned exactly, on a seeded 64 KiB DBLP document,
//! for `scan_dblp`'s query run solo, for `serve_bulk`'s four queries and
//! `multi_sub`'s 512 subscriptions through one `QueryIndex` each, and for
//! `transform_deferred`'s rules streamed through a `TransformSession`;
//! and for `match_recursive`'s query on a document of its own shape. Equal counts with a slower wall clock point
//! at the host, or at layout and cache, not at work.
//!
//! None of these automata carries a dominance mark (a TRUE state whose
//! next step is a closure, DESIGN.md *Dominated configurations*), so the
//! rule that moves `match_recursive`'s counts runs none of its code on
//! them; nor do `multi_sub`'s query shapes or `broadcast_fanout`'s
//! groups.

use xsq::datagen::dblp;
use xsq::engine::{QueryIndex, VecQuerySink, VecSink, XsqEngine};
use xsq::transform::Transformer;
use xsq::QuerySet;

#[path = "common/subscriptions.rs"]
mod subscriptions;
use subscriptions::subscriptions;

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

/// `match_recursive`'s query on a seeded 64 KiB document of its Fig. 20
/// shape: the one referee query that carries a dominance mark, so what
/// the rule and the NA twin's drop withdraw shows here as a count. Before
/// the twin was dropped the run read (484, 17 544, 12 668, 9 762, 9).
#[test]
fn match_recursive_counts() {
    let params = xsq::datagen::xmlgen::XmlGenParams {
        nested_levels: 15,
        max_repeats: 20,
        seed: 2003,
    };
    let doc = xsq::datagen::xmlgen::generate(params, 64 * 1024);
    let compiled = XsqEngine::full()
        .compile_str("//pub[year>2000]//book[price]/title/text()")
        .expect("compiles");
    assert!(compiled.hpdt().has_dominance_marks());
    let stats = compiled
        .run_document(doc.as_bytes(), &mut VecSink::new())
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
        (484, 11_699, 9_261, 7_326, 7),
        "(results, firings, steps, probed, peak_configs)"
    );
}

/// `multi_sub`'s whole batch, subscribed as one group as the benchmark
/// does, over the 64 KiB document.
#[test]
fn multi_sub_counts_stay_put() {
    let queries = subscriptions(2003, 512);
    let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
    let mut index = QueryIndex::new(XsqEngine::full());
    index.subscribe_group(&refs).expect("compiles");
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
        (2145, 11_249, 11_249, 11_249, 6, 7833),
        "(results, firings, steps, probed, peak_configs, touches)"
    );
}

/// `transform_deferred`'s two rules streamed over the 64 KiB document in
/// the benchmark's 64 KiB pieces.
#[test]
fn transform_deferred_counts_stay_put() {
    let t = Transformer::compile(
        "//inproceedings[author] => wrap(talk)\n//article[year=2002] => rename(recent)",
    )
    .expect("compiles");
    let mut session = t.session();
    let doc = doc();
    for piece in doc.as_bytes().chunks(64 * 1024) {
        session.push(piece).expect("well-formed");
    }
    let s = session.finish().expect("well-formed").stats;
    assert_eq!(
        (
            s.elements,
            s.matched,
            s.deferred,
            s.peak_buffered,
            s.bytes_out
        ),
        (2103, 174, 331, 287, 67_737),
        "(elements, matched, deferred, peak_buffered, bytes_out)"
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
