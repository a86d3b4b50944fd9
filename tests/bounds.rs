//! Bound-soundness matrix: for every (corpus, query) pair the static
//! memory bound claimed by the schema analyzer must dominate the peak
//! buffered-item count the runtime actually observes
//! (`MemoryStats::peak_buffered_items`). This is the differential test
//! for the analyzer itself — a bound that the engine exceeds on DTD-valid
//! input is a soundness bug, full stop.

use xsq::datagen;
use xsq::engine::{analyze_with_dtd, MemoryBound, VecSink, XsqEngine};
use xsq::xml::dtd::Dtd;
use xsq::xpath::parse_query;

fn dblp_dtd() -> Dtd {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/data/dblp.dtd"))
        .expect("data/dblp.dtd readable");
    Dtd::parse(&text).expect("data/dblp.dtd parses")
}

/// Run `query` over `doc` (compiled with the DTD) and return the observed
/// peak of simultaneous queue entries.
fn observed_peak(query: &str, dtd: &Dtd, doc: &[u8]) -> u64 {
    let compiled = XsqEngine::full()
        .compile_str_with_dtd(query, Some(dtd))
        .expect("query compiles");
    let mut sink = VecSink::new();
    let stats = compiled.run_document(doc, &mut sink).expect("well-formed");
    stats.memory.peak_buffered_items
}

fn claimed(query: &str, dtd: &Dtd) -> MemoryBound {
    let parsed = parse_query(query).unwrap();
    analyze_with_dtd(&parsed, Some(dtd)).unwrap().bound.bound
}

/// Maximum simultaneous open `<tag …>` elements in `doc` — the nesting
/// depth a `PerDepth` bound multiplies by.
fn nesting_depth_of(doc: &str, tag: &str) -> u64 {
    let open = format!("<{tag}");
    let close = format!("</{tag}>");
    let (mut depth, mut max) = (0i64, 0i64);
    let mut i = 0;
    let bytes = doc.as_bytes();
    while i < bytes.len() {
        if doc[i..].starts_with(&close) {
            depth -= 1;
            i += close.len();
        } else if doc[i..].starts_with(&open)
            && matches!(bytes.get(i + open.len()), Some(b'>' | b' ' | b'/'))
        {
            depth += 1;
            max = max.max(depth);
            i += open.len();
        } else {
            i += 1;
        }
    }
    max as u64
}

#[test]
fn dblp_matrix_observed_peak_never_exceeds_the_static_bound() {
    let dtd = dblp_dtd();
    // (query, expected bound) — the paper's Fig. 17/19 workload plus
    // admission-relevant variants. `None` in the expectation means
    // "any", asserted only through the soundness inequality.
    let cases: [(&str, MemoryBound); 6] = [
        ("/dblp/article/title/text()", MemoryBound::Zero),
        ("/dblp/article/@key", MemoryBound::Zero),
        (
            "/dblp/inproceedings[author]/title/text()",
            MemoryBound::Items(1),
        ),
        (
            "/dblp/inproceedings[author]/year/text()",
            MemoryBound::Items(1),
        ),
        (
            "/dblp/inproceedings[booktitle]/title/text()",
            MemoryBound::Items(1),
        ),
        (
            "/dblp/inproceedings[author]/booktitle/text()",
            MemoryBound::Items(1),
        ),
    ];
    for seed in [2, 7, 19] {
        let doc = datagen::dblp::generate(seed, 80_000);
        for (query, expected) in &cases {
            let bound = claimed(query, &dtd);
            assert_eq!(&bound, expected, "{query}");
            let peak = observed_peak(query, &dtd, doc.as_bytes());
            let limit = bound.items().unwrap();
            assert!(
                peak <= limit,
                "{query} (seed {seed}): observed peak {peak} > static bound {limit}"
            );
        }
    }
}

#[test]
fn unbounded_verdicts_are_honest_about_growth() {
    // author* really is unbounded per record: the observed peak grows
    // with the widest record, and the analyzer refuses to bound it.
    let dtd = dblp_dtd();
    let query = "/dblp/inproceedings[booktitle]/author/text()";
    assert!(matches!(
        claimed(query, &dtd),
        MemoryBound::Unbounded { .. }
    ));
    let doc = datagen::dblp::generate(2, 80_000);
    // No inequality to check — just that the machinery runs and buffers.
    let peak = observed_peak(query, &dtd, doc.as_bytes());
    assert!(peak >= 1, "expected some buffering, saw none");
}

#[test]
fn per_depth_bounds_scale_with_observed_nesting_depth() {
    let dtd = Dtd::parse(
        "<!ELEMENT pub (year?, book?, pub?)>\
         <!ELEMENT book (name, author?)> <!ELEMENT year (#PCDATA)>\
         <!ELEMENT name (#PCDATA)> <!ELEMENT author (#PCDATA)>",
    )
    .unwrap();
    let query = "//pub[year=2002]/book/name/text()";
    let bound = claimed(query, &dtd);
    let MemoryBound::PerDepth(k) = bound else {
        panic!("expected PerDepth, got {bound:?}");
    };
    // Three nested pubs, each with an undecided [year=2002] while its
    // book streams: peak ≤ k × depth.
    let doc = "<pub><book><name>a</name></book>\
               <pub><book><name>b</name></book>\
               <pub><book><name>c</name></book><year>2002</year></pub>\
               <year>1999</year></pub>\
               <year>2002</year></pub>";
    let depth = nesting_depth_of(doc, "pub");
    assert_eq!(depth, 3);
    let peak = observed_peak(query, &dtd, doc.as_bytes());
    assert!(
        peak <= k * depth,
        "observed peak {peak} > PerDepth({k}) × depth {depth}"
    );
}
