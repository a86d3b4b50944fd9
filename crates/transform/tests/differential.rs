//! Differential correctness: the one-pass streaming transformer must be
//! byte-identical to the two-pass DOM reference transformer
//! (`xsq_baselines::dom::transform`) over a corpus of rule sets ×
//! documents, and its output must not depend on how the input is
//! chunked — full document, 64 KB, 7 bytes, and the adversarial 1-byte
//! chunking all concatenate to the same bytes.

use xsq_baselines::dom::transform::transform_bytes;
use xsq_transform::Transformer;
use xsq_xpath::RuleSet;

/// Rule sets spanning the transformation surface: shapes, attribute
/// ops, deferred predicates, closures, positional and text-function
/// predicates, first-match-wins interactions, nested drops.
const RULE_SETS: &[&str] = &[
    // Identity-ish: nothing matches.
    "/no/such/path => drop",
    // Immediate verdicts: tag and attribute tests only.
    "//author => rename(who)\n//url => drop",
    "//item[@id] => wrap(boxed) +@seen=\"y\"\n//bidder => drop",
    // Deferred child-existence predicates.
    "//inproceedings[author] => rename(talk)\n//article => wrap(rec)",
    "//listitem[parlist] => wrap(nested)",
    // Deferred child-text predicates resolving after the candidate.
    "//inproceedings[year=2002]//author => wrap(hit)",
    "//open_auction[current>200]//increase => rename(bump)",
    // Positional predicates (transform-only surface).
    "/dblp/article[1] => rename(first)\n/dblp/article[last()] => rename(final)",
    "//open_auction/bidder[2] => drop",
    "//parlist/listitem[position()=last()] => wrap(tail)",
    // Text functions.
    "//title[contains(text(),the)] => rename(thetitle)",
    "//emailaddress[starts-with(text(),mailto)] => drop",
    "//year[string-length(text())>3] => wrap(y4)",
    // First-match-wins with overlapping patterns + attr ops.
    "//article[@key] => copy +@kept=\"1\"\n//article => drop\n//year => rename(yr) -@none",
    // Closure recursion: every parlist at every depth.
    "//parlist => rename(pl)\n//text => wrap(t)",
    // Drop with matches inside the dropped region.
    "//description => drop\n//parlist => rename(never)",
    // Two deferred rules at once; a closure below a closure; a text
    // function on every line of a play.
    "//inproceedings[author] => wrap(talk)\n//article[year=2002] => rename(recent)",
    "//parlist//text => rename(t)\n//bidder => drop",
    "//LINE[contains(text(),the)] => wrap(hit)",
];

fn corpus() -> Vec<(&'static str, String)> {
    vec![
        ("dblp-8k", xsq_datagen::dblp::generate(11, 8 * 1024)),
        ("xmark-12k", xsq_datagen::xmark::generate(23, 12 * 1024)),
        ("shake-6k", xsq_datagen::shake::generate(7, 6 * 1024)),
        (
            "edgecases",
            concat!(
                "<dblp><article key=\"a/1\"><title>the One</title>",
                "<year>2002</year></article>",
                "<inproceedings><author>A &amp; B</author><author>C</author>",
                "<title>deep &lt;thoughts&gt;</title><year>1999</year>",
                "</inproceedings>",
                "<article><title></title><year>31</year></article></dblp>"
            )
            .to_string(),
        ),
    ]
}

#[test]
fn stream_matches_dom_oracle_over_corpus() {
    let docs = corpus();
    for rules_text in RULE_SETS {
        let t = Transformer::compile(rules_text).unwrap();
        let rules = RuleSet::parse(rules_text).unwrap();
        for (name, doc) in &docs {
            let stream = t.transform(doc.as_bytes()).unwrap();
            let dom = transform_bytes(doc.as_bytes(), &rules).unwrap();
            assert_eq!(
                stream.xml, dom,
                "stream vs DOM divergence: rules {rules_text:?} on {name}"
            );
        }
    }
}

#[test]
fn output_is_chunk_boundary_independent() {
    let docs = corpus();
    for rules_text in RULE_SETS {
        let t = Transformer::compile(rules_text).unwrap();
        for (name, doc) in &docs {
            let whole = t.transform(doc.as_bytes()).unwrap();
            for chunk in [64 * 1024, 7, 1] {
                let mut session = t.session();
                let mut out = String::new();
                for piece in doc.as_bytes().chunks(chunk) {
                    out.push_str(&session.push(piece).unwrap());
                }
                let tail = session.finish().unwrap();
                out.push_str(&tail.xml);
                assert_eq!(
                    out, whole.xml,
                    "chunk size {chunk} diverged: rules {rules_text:?} on {name}"
                );
                assert_eq!(
                    tail.stats.peak_buffered, whole.stats.peak_buffered,
                    "buffering must not depend on chunking ({name})"
                );
            }
        }
    }
}

#[test]
fn transformed_output_stays_well_formed() {
    // Every output must reparse; verdicts aside, the rewriter may never
    // emit unbalanced or mis-escaped markup. (Empty output — whole
    // document dropped — is legal for a transformer but none of these
    // rule sets drop the root.)
    let docs = corpus();
    for rules_text in RULE_SETS {
        let t = Transformer::compile(rules_text).unwrap();
        for (name, doc) in &docs {
            let out = t.transform(doc.as_bytes()).unwrap();
            xsq_xml::parse_to_events(out.xml.as_bytes()).unwrap_or_else(|e| {
                panic!("output not well-formed for {rules_text:?} on {name}: {e}")
            });
        }
    }
}

#[test]
fn stats_account_for_every_element() {
    let doc = xsq_datagen::dblp::generate(3, 4 * 1024);
    let elements = xsq_xml::parse_to_events(doc.as_bytes())
        .unwrap()
        .iter()
        .filter(|e| matches!(e, xsq_xml::SaxEvent::Begin { .. }))
        .count() as u64;
    let t = Transformer::compile("//author => rename(who)").unwrap();
    let out = t.transform(doc.as_bytes()).unwrap();
    assert_eq!(out.stats.elements, elements);
    assert!(out.stats.matched > 0);
    assert_eq!(out.stats.bytes_out as usize, out.xml.len());
}
