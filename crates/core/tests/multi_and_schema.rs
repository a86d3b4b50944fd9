//! Integration tests for the extension modules: multi-query evaluation,
//! schema analysis, tracing, and dot export working together.

use std::collections::BTreeSet;

use xsq_core::schema::{analyze, optimize, rewrite};
use xsq_core::{QueryId, QueryIndex, QuerySet, VecQuerySink, VecSink, XsqEngine};
use xsq_xml::dtd::Dtd;
use xsq_xpath::parse_query;

#[test]
fn a_subscription_workload_over_one_stream() {
    // A YFilter-style scenario: many subscribers, one document feed.
    let subscriptions = [
        "//book[author]/name/text()",
        "//book[price<12]/name/text()",
        "//book/@id",
        "//pub[year=2002]//name/text()",
        "//price/sum()",
        "//book/count()",
        "//pub[year=1999]//name/text()",
    ];
    let doc = br#"<root><pub>
        <book id="1"><price>12.00</price><name>First</name><author>A</author>
          <price type="discount">10.00</price></book>
        <book id="2"><price>14.00</price><name>Second</name><author>A</author>
          <author>B</author><price type="discount">12.00</price></book>
        <year>2002</year>
    </pub></root>"#;
    let set = QuerySet::compile(XsqEngine::full(), &subscriptions).unwrap();
    let results = set.run_document(doc).unwrap();
    assert_eq!(results[0], ["First", "Second"]);
    assert_eq!(results[1], ["First"]);
    assert_eq!(results[2], ["1", "2"]);
    assert_eq!(results[3], ["First", "Second"]);
    assert_eq!(results[4], ["48"]);
    assert_eq!(results[5], ["2"]);
    assert!(results[6].is_empty());
}

#[test]
fn an_index_whose_document_failed_runs_the_next_like_a_fresh_index() {
    // The dead document leaves a buffered `stale` (its `a` never saw
    // the `c` that would decide it), a count of one, and configurations
    // deep inside `a`; none of it may reach the next document.
    let queries = ["//a[c]/b/text()", "//b/count()"];
    let dead = b"<r><a><b>stale</b></x>";
    let next = b"<r><a><c/><b>fresh</b></a></r>";
    let mut fresh = QueryIndex::new(XsqEngine::full());
    fresh.subscribe_group(&queries).unwrap();
    let mut want = VecQuerySink::new();
    fresh.run_document(next, &mut want).unwrap();
    assert_eq!(
        want.results,
        [(QueryId(0), "fresh".into()), (QueryId(1), "1".into())]
    );

    let mut index = QueryIndex::new(XsqEngine::full());
    index.subscribe_group(&queries).unwrap();
    let mut got = VecQuerySink::new();
    assert!(index.run_document(dead, &mut got).is_err());
    got = VecQuerySink::new();
    index.run_document(next, &mut got).unwrap();
    assert_eq!(got.results, want.results);
    assert_eq!(got.updates, want.updates);
}

/// Every number `QueryIndex::finish` reports is the finished document's:
/// the same document twice gives the same `RunStats` twice (`events` was
/// the index's cumulative count beside per-document everything else),
/// while `events()` keeps counting for STAT.
#[test]
fn two_documents_report_equal_run_stats() {
    let doc = b"<r><a><c/><b>x</b></a><a><b>y</b></a></r>";
    let mut index = QueryIndex::new(XsqEngine::full());
    index
        .subscribe_group(&["//a[c]/b/text()", "//b/count()", "/r/a/b"])
        .unwrap();
    let mut sink = VecQuerySink::new();
    let first = index.run_document(doc, &mut sink).unwrap();
    // A document that breaks off counts toward `events()` only.
    assert!(index.run_document(b"<r><a></x>", &mut sink).is_err());
    let aborted = index.events() - first.events;
    let second = index.run_document(doc, &mut sink).unwrap();
    assert_eq!(first, second);
    assert_eq!(first.events, 16);
    assert_eq!(index.events(), 2 * first.events + aborted);
}

#[test]
fn one_runner_per_query_matches_and_buffers_independently() {
    let compiled: Vec<_> = ["//a[z]/v/text()", "//a[z]/w/text()"]
        .iter()
        .map(|q| XsqEngine::full().compile_str(q).unwrap())
        .collect();
    let doc = "<r><a><v>1</v><w>2</w><z/></a></r>".to_string();
    let doc = format!("<all>{doc}</all>");
    // Invalid nesting? <all><r>... is fine.
    let mut runners: Vec<_> = compiled.iter().map(|c| c.runner()).collect();
    let mut sinks = vec![VecSink::new(), VecSink::new()];
    let mut parser = xsq_xml::StreamParser::new(doc.as_bytes());
    while let Some(ev) = parser.next_raw().unwrap() {
        for (runner, sink) in runners.iter_mut().zip(&mut sinks) {
            runner.feed_raw(&ev, sink);
        }
    }
    let configs: u64 = runners.iter().map(|r| r.memory().peak_configs).sum();
    assert!(configs >= 2);
    for (runner, sink) in runners.into_iter().zip(&mut sinks) {
        runner.finish(sink);
    }
    assert_eq!(sinks[0].results, ["1"]);
    assert_eq!(sinks[1].results, ["2"]);
}

#[test]
fn schema_pipeline_end_to_end() {
    // DTD text → analysis → rewrite → identical results, fewer configs.
    let dtd = Dtd::parse(
        "<!ELEMENT lib (shelf*)> <!ELEMENT shelf (book*)>\
         <!ELEMENT book (title, author*)> <!ELEMENT title (#PCDATA)>\
         <!ELEMENT author (#PCDATA)>",
    )
    .unwrap();
    assert!(!dtd.is_recursive());
    let q = parse_query("//lib//shelf//book[author]//title/text()").unwrap();
    let (optimized, analysis) = optimize(&q, &dtd);
    assert!(analysis.satisfiable);
    assert_eq!(
        optimized.to_string(),
        "/lib/shelf/book[author]/title/text()"
    );

    let doc = b"<lib><shelf><book><title>T</title><author>A</author></book>\
                <book><title>U</title></book></shelf></lib>";
    let full = xsq_core::evaluate(&q.to_string(), doc).unwrap();
    let opt = xsq_core::evaluate(&optimized.to_string(), doc).unwrap();
    assert_eq!(full, opt);
    assert_eq!(full, ["T"]);

    // The rewritten automaton is smaller (no closure self-loops).
    let h_full = XsqEngine::full().compile(&q).unwrap();
    let h_opt = XsqEngine::full().compile(&optimized).unwrap();
    assert!(h_opt.hpdt().arc_count() < h_full.hpdt().arc_count());
}

#[test]
fn partial_rewrite_preserves_unprovable_closures() {
    let dtd = Dtd::from_edges(&[("r", &["s", "a"]), ("s", &["a"]), ("a", &["t"]), ("t", &[])]);
    // a occurs at depths 2 and 3 under r → //a is NOT a child step; t
    // occurs only directly under a → //t rewrites.
    let q = parse_query("//a//t/text()").unwrap();
    let analysis = analyze(&q, &dtd, &BTreeSet::new());
    let (optimized, changed) = rewrite(&q, &analysis);
    assert!(changed);
    assert_eq!(optimized.to_string(), "//a/t/text()");
    let doc = b"<r><s><a><t>deep</t></a></s><a><t>shallow</t></a></r>";
    assert_eq!(
        xsq_core::evaluate("//a//t/text()", doc).unwrap(),
        xsq_core::evaluate(&optimized.to_string(), doc).unwrap()
    );
}

#[test]
fn dot_export_for_every_template_category() {
    for q in [
        "/a/b/text()",
        "/a[@x]/b",
        "/a[text()=1]/b/@id",
        "/a[b]/c/count()",
        "/a[b@x=1]/c/text()",
        "/a[b=1]/c/text()",
        "//a[b]//c",
    ] {
        let compiled = XsqEngine::full().compile_str(q).unwrap();
        let dot = xsq_core::dot::to_dot(compiled.hpdt());
        assert!(dot.contains("digraph"), "{q}");
        // Sanity: balanced braces.
        assert_eq!(
            dot.matches('{').count(),
            dot.matches('}').count(),
            "unbalanced dot for {q}"
        );
    }
}

#[test]
fn trace_step_counts_match_events_for_multi_runner_queries() {
    let compiled = XsqEngine::full().compile_str("//b/text()").unwrap();
    let mut steps = 0usize;
    let mut tracer = |_s: xsq_core::trace::TraceStep| steps += 1;
    let mut runner = compiled.runner();
    runner.set_tracer(&mut tracer);
    let mut sink = VecSink::new();
    let mut parser = xsq_xml::StreamParser::new(&b"<a><b>1</b><c/></a>"[..]);
    let mut events = 0;
    while let Some(e) = parser.next_raw().unwrap() {
        runner.feed_raw(&e, &mut sink);
        events += 1;
    }
    runner.finish(&mut sink);
    assert_eq!(steps, events);
    assert_eq!(sink.results, ["1"]);
}
