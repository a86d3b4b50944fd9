//! Integration tests for the static analyzer: verifier diagnostics on
//! corrupted transducers, analyzer-driven engine auto-selection, pruning
//! on merged query sets, and buffer elision — all over real documents.

use xsq_core::build::{build_hpdt, build_merged_hpdt};
use xsq_core::{
    analyze, evaluate, QueryIndex, VecQuerySink, VecSink, XPathEngine, XsqEngine, XsqF,
};
use xsq_xpath::parse_query;

/// Paper walkthrough queries (§2 Examples, Fig. 11, §7 experiments).
const PAPER_QUERIES: &[&str] = &[
    "/pub[year=2002]/book[price<11]/author",
    "//pub[year>2000]//book[author]//name/text()",
    "/PLAY/ACT/SCENE/SPEECH[LINE%love]/SPEAKER/text()",
    "/dblp/inproceedings[author]/title/text()",
    "//pub[year]//book[@id]/title/text()",
];

const DOC: &[u8] = b"<pub><book id=\"1\"><name>First</name><title>T1</title>\
    <author>A</author><price>10</price></book>\
    <book id=\"2\"><name>Second</name><price>14</price></book>\
    <year>2002</year></pub>";

#[test]
fn paper_queries_analyze_clean() {
    for q in PAPER_QUERIES {
        let a = analyze(&parse_query(q).unwrap()).unwrap();
        assert!(
            !xsq_core::analyze::has_errors(&a.diagnostics),
            "{q}: {:?}",
            a.diagnostics
        );
        // A paper query has no dead structure: nothing to warn about.
        assert!(a.diagnostics.is_empty(), "{q}: {:?}", a.diagnostics);
    }
}

#[test]
fn corrupted_hpdt_yields_a_useful_diagnostic() {
    let mut hpdt = build_hpdt(&parse_query("/a[b]/c/text()").unwrap()).unwrap();
    let victim = *hpdt
        .queues
        .iter()
        .max_by_key(|id| (id.layer, id.seq))
        .unwrap();
    hpdt.queues.retain(|id| *id != victim);
    let diags = xsq_core::verify(&hpdt);
    assert!(xsq_core::analyze::has_errors(&diags));
    // The diagnostic names the missing buffer, not just "invalid".
    let d = diags.iter().find(|d| d.is_error()).unwrap();
    assert!(
        d.to_string().contains(&victim.to_string()) || d.code.starts_with("queue-index"),
        "unhelpful diagnostic: {d}"
    );
}

#[test]
fn arc_retargeting_is_caught_by_the_verifier() {
    let mut hpdt = build_hpdt(&parse_query("/a/b/text()").unwrap()).unwrap();
    // Point some arc out of bounds — the classic deserialization bug.
    hpdt.arcs[0].target = 999;
    let diags = xsq_core::verify(&hpdt);
    assert!(diags.iter().any(|d| d.code == "arc-target-out-of-bounds"));
}

#[test]
fn auto_nc_results_match_forced_scan_all_on_paper_queries() {
    // Closure-free paper queries are proven deterministic and auto-route
    // to first-match execution; results must be byte-identical to what
    // the nondeterministic scan-all path computes.
    let docs: &[&[u8]] = &[
        DOC,
        b"<PLAY><ACT><SCENE><SPEECH><LINE>my love is deep</LINE>\
          <SPEAKER>Juliet</SPEAKER></SPEECH><SPEECH><LINE>aside</LINE>\
          <SPEAKER>Nurse</SPEAKER></SPEECH></SCENE></ACT></PLAY>",
        b"<dblp><inproceedings><author>P</author><title>XSQ</title>\
          </inproceedings><inproceedings><title>Orphan</title>\
          </inproceedings></dblp>",
    ];
    for q in PAPER_QUERIES {
        let compiled = XsqEngine::full().compile_str(q).unwrap();
        if !compiled.auto_nc() {
            continue; // closure queries stay on XSQ-F
        }
        for doc in docs {
            let mut fast = VecSink::new();
            compiled.run_document(doc, &mut fast).unwrap();
            // The NC engine (forced first-match) must agree...
            let nc = XsqEngine::no_closure().compile_str(q).unwrap();
            let mut forced = VecSink::new();
            nc.run_document(doc, &mut forced).unwrap();
            assert_eq!(fast.results, forced.results, "{q}");
            // ...and so must the plain evaluate() entry point.
            assert_eq!(fast.results, evaluate(q, doc).unwrap(), "{q}");
        }
    }
}

#[test]
fn run_report_engine_field_tracks_auto_selection() {
    let r = XsqF.run("/pub/book/name/text()", DOC).unwrap();
    assert_eq!(r.engine, "XSQ-NC (auto)");
    let r = XsqF.run("//book/name/text()", DOC).unwrap();
    assert_eq!(r.engine, "XSQ-F");
}

#[test]
fn merged_set_with_tombstones_builds_smaller_and_answers_identically() {
    // A standing set where some subscriptions are statically dead
    // (relational comparison against a non-numeric constant). The
    // builder must leave the dead part out — fewer states than the same
    // batch with a satisfiable literal — and change no results.
    let texts = [
        "/pub/book/name/text()",
        "/pub/book[price<11]/name/text()",
        "/pub/book[price<bogus]/name/text()", // tombstone: never true
        "/pub/year/text()",
    ];
    let merged = |texts: [String; 4]| {
        let queries: Vec<_> = texts.iter().map(|q| parse_query(q).unwrap()).collect();
        build_merged_hpdt(queries).unwrap()
    };
    let tombstoned = merged(texts.map(String::from));
    let live = merged(texts.map(|q| q.replace("bogus", "7")));
    assert!(
        tombstoned.states.len() < live.states.len(),
        "tombstone did not shrink the merged HPDT: {} states, {} with a live literal",
        tombstoned.states.len(),
        live.states.len()
    );
    assert!(!xsq_core::analyze::has_errors(&xsq_core::verify(
        &tombstoned
    )));

    // The index agrees with per-query engines.
    let mut index = QueryIndex::new(XsqEngine::full());
    let ids = index.subscribe_group(&texts).unwrap();
    let mut sink = VecQuerySink::new();
    index.run_document(DOC, &mut sink).unwrap();
    for (q, &id) in texts.iter().zip(&ids) {
        assert_eq!(sink.of(id), evaluate(q, DOC).unwrap(), "mismatch for {q}");
    }
    assert_eq!(sink.of(ids[2]), Vec::<&str>::new());
}

#[test]
fn buffer_elision_does_not_change_results() {
    // Predicate-free and category-1 queries run with zero queues; their
    // results must match the general path's semantics exactly.
    for (q, expected) in [
        ("/pub/book/name/text()", vec!["First", "Second"]),
        ("/pub/book/@id", vec!["1", "2"]),
        ("/pub/book[@id]/name/text()", vec!["First", "Second"]),
    ] {
        let compiled = XsqEngine::full().compile_str(q).unwrap();
        assert!(!compiled.hpdt().buffered, "{q} should elide buffers");
        assert_eq!(evaluate(q, DOC).unwrap(), expected, "{q}");
    }
    // Sanity: a buffering query still buffers.
    let compiled = XsqEngine::full()
        .compile_str("/pub[year=2002]/book/name/text()")
        .unwrap();
    assert!(compiled.hpdt().buffered);
    assert_eq!(
        evaluate("/pub[year=2002]/book/name/text()", DOC).unwrap(),
        vec!["First", "Second"]
    );
}

#[test]
fn analysis_reports_buffer_classes_for_fig_11_query() {
    let a = analyze(&parse_query("//pub[year>2000]//book[author]//name/text()").unwrap()).unwrap();
    assert!(a.hpdt.buffered);
    assert!(a.plan.live_buffers() > 0);
    assert!(!a.hpdt.deterministic);
    assert_eq!(a.engine, "XSQ-F");
}
