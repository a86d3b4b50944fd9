//! Parser-reuse differential tests: a long-lived parser rearmed across
//! documents (`reset_with` on the pull side, `reset_push` on the push
//! side) must be indistinguishable from a fresh parser per document —
//! identical event streams at every chunk size, and identical query
//! results when the reused push parser feeds the multi-query index the
//! way a server session does. Same corpus style as
//! `tests/shard_equivalence.rs`.

use std::io::BufRead;

use xsq::xml::{ParsePoll, PushParser, StreamParser};
use xsq::{run_sequential, QuerySet, VecQuerySink, XsqEngine};

const FIG1: &str = r#"<root><pub><book id="1"><price>12.00</price>
<name>First</name><author>A</author></book><book id="2">
<price>14.00</price><name>Second</name><author>A</author>
<author>B</author></book><year>2002</year></pub></root>"#;

const FIG2: &str = r#"<root><pub><book><name>X</name><author>A</author>
</book><book><name>Y</name><pub><book><name>Z</name><author>B</author>
</book><year>1999</year></pub></book><year>2002</year></pub></root>"#;

/// The paper's example-query shapes over the shared vocabulary.
const QUERIES: &[&str] = &[
    "//pub[year=2002]//book[author]//name/text()",
    "//book[@id]/name/text()",
    "//book/@id",
    "//name/text()",
    "//price/sum()",
    "//book/count()",
];

/// Figure documents, conformance-hazard variants (CRLF, wrapped
/// attributes, CDATA), and generated recursive documents.
fn corpus() -> Vec<Vec<u8>> {
    let mut docs: Vec<Vec<u8>> = vec![
        FIG1.as_bytes().to_vec(),
        FIG2.as_bytes().to_vec(),
        FIG1.replace('\n', "\r\n").into_bytes(),
        FIG2.replace("id=\"1\"", "id=\"1\r\n\"").into_bytes(),
        b"<root><pub><book id=\"9\"><name><![CDATA[x]]y]]></name>
<price>7.5</price></book><year>2002</year></pub></root>"
            .to_vec(),
    ];
    for i in 0..6 {
        let params = xsq::datagen::xmlgen::XmlGenParams {
            nested_levels: 3 + (i as u32 % 4),
            max_repeats: 4 + (i as u32 % 5),
            seed: 7 + i as u64,
        };
        docs.push(xsq::datagen::xmlgen::generate(params, 2_500 + 1_000 * i).into_bytes());
    }
    docs
}

/// Record everything the push parser currently has, each event as its
/// `Debug` form.
fn drain(parser: &mut PushParser, out: &mut Vec<String>) {
    while let ParsePoll::Event(ev) = parser.poll_raw().expect("push parse failed") {
        out.push(format!("{ev:?}"));
    }
}

/// Every event `parser` pulls, recorded the same way.
fn pull_all<R: BufRead>(parser: &mut StreamParser<R>) -> Vec<String> {
    let mut out = Vec::new();
    while let Some(ev) = parser.next_raw().expect("parse failed") {
        out.push(format!("{ev:?}"));
    }
    out
}

#[test]
fn reset_with_reused_pull_parser_matches_fresh_parsers() {
    let docs = corpus();
    // One parser for the whole corpus: rearm with each document's reader
    // and compare against a from-scratch parse of the same bytes.
    let mut reused = StreamParser::new(&b""[..]);
    for (di, doc) in docs.iter().enumerate() {
        reused.reset_with(&doc[..]);
        let got = pull_all(&mut reused);
        let fresh = pull_all(&mut StreamParser::new(&doc[..]));
        assert_eq!(got, fresh, "reused parser diverged on doc {di}");
    }
}

#[test]
fn reset_push_reused_push_parser_matches_one_shot_at_every_chunk_size() {
    let docs = corpus();
    for chunk in [1usize, 7, 64, 4096] {
        // One push parser for the whole corpus at this chunk size,
        // reset between documents exactly like a server session.
        let mut parser = StreamParser::push_mode();
        for (di, doc) in docs.iter().enumerate() {
            let mut got = Vec::new();
            for piece in doc.chunks(chunk) {
                parser.push(piece);
                drain(&mut parser, &mut got);
            }
            parser.finish();
            drain(&mut parser, &mut got);
            let fresh = pull_all(&mut StreamParser::new(&doc[..]));
            assert_eq!(got, fresh, "push parser diverged on doc {di} chunk {chunk}");
            parser.reset_push();
        }
    }
}

#[test]
fn push_fed_query_index_matches_sequential_driver() {
    let docs = corpus();
    let set = QuerySet::compile(XsqEngine::full(), QUERIES).expect("queries compile");
    let expected = run_sequential(&set, &docs).expect("sequential run");
    assert!(expected.result_count() > 0, "corpus must produce results");

    for chunk in [1usize, 13, 1024] {
        // Session shape: one index, one push parser, documents back to
        // back; per-document output must match the one-shot driver.
        let mut index = set.index();
        let mut parser = StreamParser::push_mode();
        for (di, doc) in docs.iter().enumerate() {
            let mut sink = VecQuerySink::new();
            for piece in doc.chunks(chunk) {
                parser.push(piece);
                while let ParsePoll::Event(ev) = parser.poll_raw().expect("push parse failed") {
                    index.feed_raw(&ev, &mut sink);
                }
            }
            parser.finish();
            while let ParsePoll::Event(ev) = parser.poll_raw().expect("push parse failed") {
                index.feed_raw(&ev, &mut sink);
            }
            index.finish(&mut sink);
            parser.reset_push();
            assert_eq!(
                sink.results, expected.per_doc[di].results,
                "results diverged on doc {di} chunk {chunk}"
            );
            assert_eq!(
                sink.updates.len(),
                expected.per_doc[di].updates.len(),
                "update count diverged on doc {di} chunk {chunk}"
            );
        }
    }
}
