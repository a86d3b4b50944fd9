//! Differential correctness: the one-pass streaming transformer must be
//! byte-identical to the two-pass DOM reference transformer
//! (`xsq_baselines::dom::transform`) over a corpus of rule sets ×
//! documents, and its output must not depend on how the input is
//! chunked — full document, 64 KB, 7 bytes, and the adversarial 1-byte
//! chunking all concatenate to the same bytes.

use xsq_baselines::dom::transform::transform_bytes;
use xsq_datagen::rng::{cases, StdRng};
use xsq_datagen::xmlgen::{self, XmlGenParams};
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
    // The shapes a log of pending regions has to get right, on the
    // recursive corpus (`pub` nests in `pub`; `year` leads its `pub`).
    // Nested pending regions resolving out of order: a book waits for
    // its own price and for every enclosing pub's year; where the year
    // is missing the verdict arrives at the pub's end, long after the
    // book's region closed.
    "//pub[year>2000]//book[price] => wrap(x)",
    // ... and a verdict that turns *true* after the close: a book before
    // the first nested pub.
    "//pub[pub]//book => wrap(early) +@seen=\"1\" -@id",
    // Drop inside pending inside pending: no pub has a title child, so
    // every pub is held to its end, with pending books and dropped
    // titles inside.
    "//pub[title] => wrap(outer)\n//book[price] => rename(inner)\n//title => drop",
    // Pending inside drop (no record; the resolution finds nothing), and
    // a pending region that resolves to drop around pending regions.
    "//book[@id] => drop\n//title[contains(text(),a)] => wrap(w)\n//price[text()>40] => rename(dear)",
    "//pub[pub] => drop\n//book[price] => wrap(inner)",
    // Verdicts that always arrive after the close, nested three deep.
    "//pub/book[last()] => wrap(final)\n//pub/pub[last()] => rename(lastpub)\n//book[price>70] => drop",
    "//*[title] => wrap(w)\n//*[price] => drop",
];

fn corpus() -> Vec<(&'static str, String)> {
    vec![
        ("dblp-8k", xsq_datagen::dblp::generate(11, 8 * 1024)),
        ("xmark-12k", xsq_datagen::xmark::generate(23, 12 * 1024)),
        ("shake-6k", xsq_datagen::shake::generate(7, 6 * 1024)),
        (
            "xmlgen-12k",
            xmlgen::generate(XmlGenParams::default(), 12 * 1024),
        ),
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
            xsq_xml::PureParser::run(out.xml.as_bytes()).unwrap_or_else(|e| {
                panic!("output not well-formed for {rules_text:?} on {name}: {e}")
            });
        }
    }
}

#[test]
fn stats_account_for_every_element() {
    let doc = xsq_datagen::dblp::generate(3, 4 * 1024);
    let elements = xsq_xml::PureParser::run(doc.as_bytes())
        .unwrap()
        .begin_events;
    let t = Transformer::compile("//author => rename(who)").unwrap();
    let out = t.transform(doc.as_bytes()).unwrap();
    assert_eq!(out.stats.elements, elements);
    assert!(out.stats.matched > 0);
    assert_eq!(out.stats.bytes_out as usize, out.xml.len());
}

/// One random pattern over the recursive corpus's vocabulary. Positional
/// predicates go on child steps only (the streamability gate rejects
/// them on `//`).
fn random_pattern(rng: &mut StdRng) -> String {
    const NAMES: &[&str] = &["pub", "book", "title", "price", "year", "*"];
    const ANY_AXIS: &[&str] = &[
        "",
        "",
        "[price]",
        "[title]",
        "[book]",
        "[pub]",
        "[@id]",
        "[@id>50000]",
        "[year>2000]",
        "[year=1995]",
        "[price<30]",
        "[book@id<40000]",
        "[text()]",
        "[text()>1999]",
        "[contains(text(),e)]",
    ];
    const CHILD_AXIS: &[&str] = &["[1]", "[position()>2]", "[last()]"];
    let mut pattern = String::new();
    for step in 0..rng.gen_range(1..4) {
        let child = rng.gen_bool(0.4);
        pattern.push_str(if child { "/" } else { "//" });
        pattern.push_str(match (step, child) {
            // Only the root can match a leading child step.
            (0, true) => "site",
            _ => NAMES[rng.gen_range(0..NAMES.len())],
        });
        if child && rng.gen_bool(0.3) {
            pattern.push_str(CHILD_AXIS[rng.gen_range(0..CHILD_AXIS.len())]);
        } else {
            pattern.push_str(ANY_AXIS[rng.gen_range(0..ANY_AXIS.len())]);
        }
    }
    pattern
}

fn random_rules(rng: &mut StdRng) -> String {
    const ACTIONS: &[&str] = &[
        "drop",
        "copy",
        "rename(r)",
        "wrap(w)",
        "wrap(w) +@id=\"<new>\"",
        "rename(r) -@id +@k=\"a&b\"",
        "copy +@k=\"1\" -@k +@k=\"2\" +@j=\"\"",
    ];
    let mut rules = String::new();
    for _ in 0..rng.gen_range(1..4) {
        rules.push_str(&random_pattern(rng));
        rules.push_str(" => ");
        rules.push_str(ACTIONS[rng.gen_range(0..ACTIONS.len())]);
        rules.push('\n');
    }
    rules
}

#[test]
fn random_rule_sets_and_chunkings_match_the_dom_oracle() {
    let (mut deferring, mut held_back) = (0, 0);
    cases(0..400, |rng| {
        let rules_text = random_rules(rng);
        let params = XmlGenParams {
            nested_levels: rng.gen_range(2..9),
            max_repeats: rng.gen_range(2..7),
            seed: rng.next_u64(),
        };
        let doc = xmlgen::generate(params, rng.gen_range(512..6 * 1024));
        let t = Transformer::compile(&rules_text)
            .unwrap_or_else(|e| panic!("generated rules must compile: {e}\n{rules_text}"));
        let rules = RuleSet::parse(&rules_text).unwrap();
        let dom = transform_bytes(doc.as_bytes(), &rules).unwrap();
        let whole = t.transform(doc.as_bytes()).unwrap();
        assert_eq!(whole.xml, dom, "rules {rules_text:?}\non {doc}");
        assert_eq!(whole.stats.bytes_out as usize, dom.len());

        // Random cut points, one reused output buffer; and the 1-byte
        // extreme on every fourth case.
        let bound = if rng.gen_bool(0.25) { 2 } else { 200 };
        let mut session = t.session();
        let (mut out, mut piece) = (String::new(), String::new());
        let mut rest = doc.as_bytes();
        while !rest.is_empty() {
            let (head, tail) = rest.split_at(rng.gen_range(1..bound).min(rest.len()));
            piece.clear();
            session.push_into(head, &mut piece).unwrap();
            out.push_str(&piece);
            rest = tail;
        }
        let tail = session.finish().unwrap();
        out.push_str(&tail.xml);
        assert_eq!(out, dom, "chunked: rules {rules_text:?}\non {doc}");
        assert_eq!(tail.stats, whole.stats, "stats must not depend on chunking");
        deferring += usize::from(whole.stats.deferred > 0);
        held_back += usize::from(whole.stats.peak_buffered > 512);
    });
    // The generator must keep the log busy, not just the copy path.
    assert!(
        deferring > 200 && held_back > 100,
        "{deferring} cases deferred a verdict, {held_back} held a region of 512 bytes back"
    );
}
