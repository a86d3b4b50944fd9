//! Differential coverage for the zero-copy event path.
//!
//! `RawEvent` is the engine's only input. The parser produces events two
//! ways — owned `SaxEvent`s (`parse_to_events`, i.e. `next_event`) that
//! a caller stores and later lends with `as_raw`, and borrowed
//! `RawEvent`s straight off `next_raw`. Both must drive the engine to
//! bit-identical results on identical input — same values, same
//! document order — for the paper-walkthrough query and for the
//! multi-query sets exercised by `qindex_grouped`.

use xsq::datagen::{dblp, shake, xmark, xmlgen, xmlgen::XmlGenParams};
use xsq::engine::VecSink;
use xsq::xml::StreamParser;
use xsq::{QueryIndex, VecQuerySink, XsqEngine};

/// Figure 1's document (as in the paper-walkthrough trace test).
const FIG1: &str = r#"<root><pub>
    <book id="1"><price>12.00</price><name>First</name><author>A</author>
      <price type="discount">10.00</price></book>
    <book id="2"><price>14.00</price><name>Second</name><author>A</author>
      <author>B</author><price type="discount">12.00</price></book>
    <year>2002</year>
</pub></root>"#;

/// Drive a single query from stored owned events, lent as raw ones.
fn owned_path(query: &str, doc: &[u8]) -> Vec<String> {
    let compiled = XsqEngine::full().compile_str(query).expect("compiles");
    let mut runner = compiled.runner();
    let mut sink = VecSink::new();
    for ev in xsq::xml::parse_to_events(doc).expect("parses") {
        runner.feed_raw(&ev.as_raw(), &mut sink);
    }
    runner.finish(&mut sink);
    sink.results
}

/// Drive the same query through the borrowed zero-copy path.
fn raw_path(query: &str, doc: &[u8]) -> Vec<String> {
    let compiled = XsqEngine::full().compile_str(query).expect("compiles");
    let mut runner = compiled.runner();
    let mut sink = VecSink::new();
    let mut parser = StreamParser::new(doc);
    while let Some(ev) = parser.next_raw().expect("parses") {
        runner.feed_raw(&ev, &mut sink);
    }
    runner.finish(&mut sink);
    sink.results
}

fn check_queries(queries: &[&str], doc: &[u8], label: &str) {
    for q in queries {
        let owned = owned_path(q, doc);
        let raw = raw_path(q, doc);
        assert_eq!(owned, raw, "[{label}] owned vs raw path on {q}");
    }
}

#[test]
fn paper_walkthrough_query_agrees_across_paths() {
    let query = "//pub[year>2000]//book[author]//name/text()";
    let owned = owned_path(query, FIG1.as_bytes());
    let raw = raw_path(query, FIG1.as_bytes());
    assert_eq!(owned, ["First", "Second"]);
    assert_eq!(owned, raw);
}

#[test]
fn qindex_grouped_queries_agree_on_recursive_xmlgen_data() {
    let queries = [
        "//pub[year]//book[@id]/title/text()",
        "//pub/book/title/text()",
        "//pub/book/@id",
        "//book/price/text()",
        "//book/count()",
        "/site/pub/year/text()",
        "//price/sum()",
    ];
    for seed in [1u64, 7, 42] {
        let doc = xmlgen::generate(
            XmlGenParams {
                nested_levels: 6,
                max_repeats: 4,
                seed,
            },
            20_000,
        );
        check_queries(&queries, doc.as_bytes(), &format!("xmlgen seed {seed}"));
    }
}

#[test]
fn qindex_grouped_queries_agree_on_xmark_data() {
    let queries = [
        "/site/regions/region/item/name/text()",
        "/site/regions/region/item/quantity/text()",
        "/site/people/person/name/text()",
        "/site/people/person/@id",
        "//item[quantity]/name/text()",
        "//bidder/increase/text()",
        "//increase/sum()",
        "/site/open_auctions/open_auction/@id",
    ];
    for seed in [3u64, 11] {
        let doc = xmark::generate(seed, 30_000);
        check_queries(&queries, doc.as_bytes(), &format!("xmark seed {seed}"));
    }
}

#[test]
fn entity_heavy_documents_agree_across_paths() {
    // dblp and shake text carries entity references — the decode-into
    // fast path must produce exactly what the owned path produced.
    let queries = ["//title/text()", "//author/text()", "//line/text()"];
    let dblp_doc = dblp::generate(2003, 20_000);
    let shake_doc = shake::generate(2003, 20_000);
    check_queries(&queries, dblp_doc.as_bytes(), "dblp");
    check_queries(&queries, shake_doc.as_bytes(), "shake");
}

/// The multi-query index must also agree between stored and borrowed events.
#[test]
fn query_index_feed_and_feed_raw_agree() {
    let queries = [
        "//pub[year]//book[@id]/title/text()",
        "//pub/book/title/text()",
        "//pub/book/@id",
        "/site/pub/year/text()",
    ];
    let doc = xmlgen::generate(
        XmlGenParams {
            nested_levels: 6,
            max_repeats: 5,
            seed: 13,
        },
        25_000,
    );

    let mut owned_index = QueryIndex::new(XsqEngine::full());
    let owned_ids = owned_index.subscribe_group(&queries).expect("compiles");
    let mut owned_sink = VecQuerySink::new();
    for ev in xsq::xml::parse_to_events(doc.as_bytes()).expect("parses") {
        owned_index.feed_raw(&ev.as_raw(), &mut owned_sink);
    }
    owned_index.finish(&mut owned_sink);

    let mut raw_index = QueryIndex::new(XsqEngine::full());
    let raw_ids = raw_index.subscribe_group(&queries).expect("compiles");
    let mut raw_sink = VecQuerySink::new();
    let mut parser = StreamParser::new(doc.as_bytes());
    while let Some(ev) = parser.next_raw().expect("parses") {
        raw_index.feed_raw(&ev, &mut raw_sink);
    }
    raw_index.finish(&mut raw_sink);

    for (i, q) in queries.iter().enumerate() {
        assert_eq!(
            owned_sink.of(owned_ids[i]),
            raw_sink.of(raw_ids[i]),
            "index owned vs raw feed on {q}"
        );
    }
}
