//! Shard-equivalence differential tests: the sharded multi-document
//! driver must produce **byte-identical, document-order-stable** output
//! versus the sequential reference driver — same per-document results,
//! aggregate updates, event counts and memory peaks — across the
//! paper's example queries, at several worker counts, over corpora that
//! mix the figure documents, generated recursive data, and documents
//! exercising the spec-conformance fixes (CRLF text, wrapped
//! attributes).

use xsq::engine::{evaluate, run_sequential, run_sharded, ShardError};
use xsq::{QueryId, QuerySet, XsqEngine};

/// Figure 1's document (non-recursive, attribute-bearing).
const FIG1: &str = r#"<root>
  <pub>
    <book id="1">
      <price>12.00</price>
      <name>First</name>
      <author>A</author>
      <price type="discount">10.00</price>
    </book>
    <book id="2">
      <price>14.00</price>
      <name>Second</name>
      <author>A</author>
      <author>B</author>
      <price type="discount">12.00</price>
    </book>
    <year>2002</year>
  </pub>
</root>"#;

/// Figure 2's document (recursive `pub`, multiple closure match paths).
const FIG2: &str = r#"<root>
  <pub>
    <book>
      <name>X</name>
      <author>A</author>
    </book>
    <book>
      <name>Y</name>
      <pub>
        <book>
          <name>Z</name>
          <author>B</author>
        </book>
        <year>1999</year>
      </pub>
    </book>
    <year>2002</year>
  </pub>
</root>"#;

/// The paper's example queries (Examples 1–5 shapes plus aggregates),
/// all over the `root/pub/book` vocabulary the corpus shares.
const QUERIES: &[&str] = &[
    "/root/pub[year=2002]/book[price<11]/author/text()",
    "//pub[year=2002]//book[author]//name/text()",
    "//book[@id]/name/text()",
    "//book/@id",
    "//name/text()",
    "//price/sum()",
    "//book/count()",
];

/// A mixed corpus: figure documents, CRLF / wrapped-attribute variants
/// of them (the conformance fixes must not perturb shard merging), and
/// `n` generated recursive documents of varying size and seed.
fn corpus(n: usize) -> Vec<Vec<u8>> {
    let mut docs: Vec<Vec<u8>> = vec![
        FIG1.as_bytes().to_vec(),
        FIG2.as_bytes().to_vec(),
        FIG1.replace('\n', "\r\n").into_bytes(),
        FIG2.replace('\n', "\r").into_bytes(),
        FIG1.replace("id=\"1\"", "id=\"1\r\n\"").into_bytes(),
    ];
    for i in 0..n {
        let params = xsq::datagen::xmlgen::XmlGenParams {
            nested_levels: 3 + (i as u32 % 5),
            max_repeats: 4 + (i as u32 % 7),
            seed: i as u64,
        };
        let target = 2_000 + 3_000 * (i % 4);
        docs.push(xsq::datagen::xmlgen::generate(params, target).into_bytes());
    }
    docs
}

#[test]
fn sharded_output_is_byte_identical_to_sequential() {
    let set = QuerySet::compile(XsqEngine::full(), QUERIES).expect("queries compile");
    let docs = corpus(19); // 24 documents total
    let seq = run_sequential(&set, &docs).expect("sequential run");
    assert!(seq.result_count() > 0, "corpus must produce results");

    for workers in [1, 2, 3, 4, 8] {
        let shard = run_sharded(&set, &docs, workers).expect("sharded run");
        assert_eq!(
            shard.per_doc, seq.per_doc,
            "sharded ({workers} workers) diverged from sequential"
        );
        // The merged per-query view is therefore byte-identical too.
        for (qi, q) in QUERIES.iter().enumerate() {
            assert_eq!(
                shard.of(QueryId(qi as u32)),
                seq.of(QueryId(qi as u32)),
                "per-query merge diverged for {q}"
            );
        }
    }
}

#[test]
fn sequential_driver_matches_single_query_oracle() {
    // Anchor the whole equivalence chain: the sequential driver itself
    // must agree with N independent single-query engine runs.
    let set = QuerySet::compile(XsqEngine::full(), QUERIES).expect("queries compile");
    let docs = corpus(4);
    let run = run_sequential(&set, &docs).expect("sequential run");
    for (qi, q) in QUERIES.iter().enumerate() {
        if q.contains("sum()") || q.contains("count()") {
            continue; // aggregates fold per document; compared per-doc below
        }
        let mut expected = Vec::new();
        for doc in &docs {
            expected.extend(evaluate(q, doc).expect("single-query run"));
        }
        let got: Vec<String> = run
            .of(QueryId(qi as u32))
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(got, expected, "driver vs oracle on {q}");
    }
    // Aggregates: per-document final values match single-query runs.
    for (qi, q) in QUERIES.iter().enumerate() {
        if !(q.contains("sum()") || q.contains("count()")) {
            continue;
        }
        for (di, doc) in docs.iter().enumerate() {
            let expected = evaluate(q, doc).expect("single-query run");
            let got: Vec<&String> = run.per_doc[di]
                .results
                .iter()
                .filter(|(id, _)| *id == QueryId(qi as u32))
                .map(|(_, v)| v)
                .collect();
            assert_eq!(got.len(), expected.len(), "doc {di} on {q}");
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(*g, e, "doc {di} on {q}");
            }
        }
    }
}

#[test]
fn parse_error_reports_lowest_doc_with_identical_prefix() {
    let set = QuerySet::compile(XsqEngine::full(), QUERIES).expect("queries compile");
    let mut docs = corpus(10);
    let bad = 7;
    docs[bad] = b"<root><unclosed>".to_vec();

    let seq_err = run_sequential(&set, &docs).expect_err("sequential must fail");
    let ShardError::Document { doc: seq_doc, .. } = seq_err;
    assert_eq!(seq_doc, bad);

    for workers in [2, 4] {
        let mut emitted = Vec::new();
        let err =
            xsq::engine::run_sharded_with(&set, &docs, workers, |di, out| emitted.push((di, out)))
                .expect_err("sharded must fail");
        let ShardError::Document { doc, .. } = err;
        assert_eq!(doc, bad, "{workers} workers report the lowest failing doc");
        // The emitted prefix is exactly the documents before the failure,
        // in order, with sequential-identical content.
        assert_eq!(emitted.len(), bad);
        let good = run_sequential(&set, &docs[..bad]).expect("prefix runs");
        for (i, (di, out)) in emitted.iter().enumerate() {
            assert_eq!(*di, i);
            assert_eq!(*out, good.per_doc[i], "prefix doc {i}");
        }
    }
}
