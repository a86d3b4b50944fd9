//! Differential property tests: XSQ against the DOM oracle.
//!
//! Random documents × random queries, seeded; the streaming engines must
//! return exactly what the in-memory evaluators return, in the same
//! order:
//!
//! * XSQ-F ≡ DOM (stepwise) ≡ DOM (pathcheck) on *everything*;
//! * XSQ-NC ≡ DOM on closure-free queries;
//! * XMLTK ≡ DOM on predicate-free `text()`/`@attr`/`count()` queries;
//! * every road a compiled query batch can take into a `QueryIndex`
//!   ≡ the solo runners ≡ DOM — on random batches, on batches that merge
//!   into one group, on batches that compile to a keyed step, on
//!   documents nested past the 64 levels a bitmap depth vector holds, and
//!   on same-name nesting whose configurations move in long lock-step
//!   runs, and on predicates no value can satisfy, which the builder
//!   leaves out of the automaton;
//! * the well-formedness PDA accepts every generated document's events.
//!
//! Every property runs [`CASES`] cases through `datagen::rng::cases`
//! (case `i` on `StdRng::seed_from_u64(i)`); a failing case prints its
//! seed, and `cases(seed..seed + 1, …)` in the failing test replays it
//! alone.

use std::sync::Arc;

use xsq::baselines::dom::{eval_pathcheck, eval_stepwise, Document};
use xsq::datagen::rng::{cases, StdRng};
use xsq::datagen::xmlgen::{self, XmlGenParams};
use xsq::engine::analyze::analyze_buffers;
use xsq::engine::{
    analyze_with_dtd, run_sequential, run_sharded, Hpdt, PlanCache, QueryIndex, QuerySet, Runner,
    RunnerCore, VecQuerySink, VecSink, XPathEngine, XsqEngine,
};
use xsq::xml::dtd::Dtd;
use xsq::xml::pda::{PdaStatus, WellFormednessPda};
use xsq::xml::{ParsePoll, StreamParser, XmlWriter};
use xsq::xpath::parse_query;

#[path = "common/schema_gen.rs"]
mod schema_gen;

const CASES: u64 = 512;

// ---- random document generation ---------------------------------------

/// Small word pool; includes substrings of each other so `contains`
/// has interesting cases.
const WORDS: [&str; 4] = ["x", "xy", "love", "lovely"];

/// A tiny alphabet, so tag collisions (the hard cases: predicate child =
/// next step, recursive nesting) are frequent.
const TAGS: [&str; 4] = ["a", "b", "c", "d"];
const ATTRS: [&str; 2] = ["x", "y"];

fn pick<'a>(rng: &mut StdRng, pool: &[&'a str]) -> &'a str {
    pool[rng.gen_range(0..pool.len())]
}

/// Render one random node: numeric text, a word (string comparisons,
/// NaN paths), or — three times in five — an element.
fn gen_node(rng: &mut StdRng, depth: u32, out: &mut String) {
    match rng.gen_range(0..5) {
        0 => out.push_str(&rng.gen_range(-3..4).to_string()),
        1 => out.push_str(pick(rng, &WORDS)),
        _ => gen_element(rng, depth, 0, out),
    }
}

/// An element with `min_children..=5` children while `depth` lasts.
fn gen_element(rng: &mut StdRng, depth: u32, min_children: u32, out: &mut String) {
    let tag = pick(rng, &TAGS);
    out.push('<');
    out.push_str(tag);
    if rng.gen_bool(0.5) {
        let (name, value) = (pick(rng, &ATTRS), rng.gen_range(-3..4));
        out.push_str(&format!(" {name}=\"{value}\""));
    }
    out.push('>');
    if depth > 0 {
        for _ in 0..rng.gen_range(min_children..6) {
            gen_node(rng, depth - 1, out);
        }
    }
    out.push_str(&format!("</{tag}>"));
}

fn gen_doc(rng: &mut StdRng) -> String {
    let mut doc = String::new();
    gen_element(rng, 4, 2, &mut doc);
    doc
}

// ---- random query generation -------------------------------------------

const REL_OPS: [&str; 6] = ["=", "!=", "<", "<=", ">", ">="];

fn gen_pred(rng: &mut StdRng) -> String {
    let (tag, attr, word) = (pick(rng, &TAGS), pick(rng, &ATTRS), pick(rng, &WORDS));
    let (op, v) = (pick(rng, &REL_OPS), rng.gen_range(-2..3));
    match rng.gen_range(0..8) {
        // String-valued comparisons and substring tests.
        0 => format!("[{tag}{}\"{word}\"]", pick(rng, &["=", "!=", "%"])),
        1 => format!("[text(){}\"{word}\"]", pick(rng, &["=", "%"])),
        2 => format!("[@{attr}]"),
        3 => format!("[@{attr}{op}{v}]"),
        4 => format!("[text(){op}{v}]"),
        5 => format!("[{tag}]"),
        6 => format!("[{tag}@{attr}{op}{v}]"),
        _ => format!("[{tag}{op}{v}]"),
    }
}

/// One to three location steps; `closures` allows `//`, `preds` allows a
/// predicate per step.
fn gen_steps(rng: &mut StdRng, closures: bool, preds: bool) -> String {
    (0..rng.gen_range(1..4))
        .map(|_| gen_step(rng, closures, preds))
        .collect()
}

fn gen_step(rng: &mut StdRng, closures: bool, preds: bool) -> String {
    let mut step = String::from(if closures && rng.gen_bool(0.6) {
        "//"
    } else {
        "/"
    });
    step.push_str(if rng.gen_bool(0.25) {
        "*"
    } else {
        pick(rng, &TAGS)
    });
    if preds && rng.gen_bool(0.4) {
        step.push_str(&gen_pred(rng));
    }
    step
}

/// Scalar outputs: a text run, an attribute or a count.
fn gen_scalar_output(rng: &mut StdRng) -> String {
    match rng.gen_range(0..3) {
        0 => "/text()".into(),
        1 => format!("/@{}", pick(rng, &ATTRS)),
        _ => "/count()".into(),
    }
}

fn gen_output(rng: &mut StdRng) -> String {
    match rng.gen_range(0..5) {
        0 => String::new(),
        1 => "/sum()".into(),
        _ => gen_scalar_output(rng),
    }
}

fn gen_query(rng: &mut StdRng) -> String {
    gen_steps(rng, true, true) + &gen_output(rng)
}

/// Two to four queries that agree on their first location step and
/// select no whole elements — the planner merges them into one group.
fn gen_merging_batch(rng: &mut StdRng, closures: bool) -> Vec<String> {
    let first = gen_step(rng, closures, true);
    (0..rng.gen_range(2..5))
        .map(|_| {
            let tail: String = (0..rng.gen_range(0..3))
                .map(|_| gen_step(rng, closures, true))
                .collect();
            let output = if rng.gen_bool(0.2) {
                "/sum()".into()
            } else {
                gen_scalar_output(rng)
            };
            format!("{first}{tail}{output}")
        })
        .collect()
}

// ---- runners -------------------------------------------------------------

fn xsq_run(engine: XsqEngine, query: &str, doc: &[u8]) -> Vec<String> {
    let compiled = engine
        .compile_str(query)
        .expect("generated queries compile");
    let mut sink = VecSink::new();
    compiled
        .run_document(doc, &mut sink)
        .expect("well-formed doc");
    sink.results
}

fn dom_run(query: &str, doc: &str) -> Vec<String> {
    let parsed = parse_query(query).expect("generated queries parse");
    let tree = Document::parse(doc.as_bytes()).expect("generated docs are well-formed");
    eval_stepwise(&tree, &parsed)
}

/// Feed the first `limit` events of `doc` to a runner; the caller
/// finishes it (or not). Returns how many events `doc` has.
fn feed_prefix(runner: &mut Runner<'_>, doc: &str, limit: usize, sink: &mut VecSink) -> usize {
    let mut parser = StreamParser::new(doc.as_bytes());
    let mut n = 0;
    while let Some(e) = parser.next_raw().expect("well-formed") {
        if n < limit {
            runner.feed_raw(&e, sink);
        }
        n += 1;
    }
    n
}

/// Feed every event of `doc` to a runner; the caller finishes it (or not).
fn feed_all(runner: &mut Runner<'_>, doc: &str, sink: &mut VecSink) {
    feed_prefix(runner, doc, usize::MAX, sink);
}

// ---- the properties --------------------------------------------------------

#[test]
fn xsq_f_matches_the_dom_oracle() {
    cases(0..CASES, |rng| {
        let (doc, query) = (gen_doc(rng), gen_query(rng));
        let parsed = parse_query(&query).expect("generated queries parse");
        let tree = Document::parse(doc.as_bytes()).expect("generated docs are well-formed");
        let expected = eval_stepwise(&tree, &parsed);
        // The two DOM strategies must agree with each other…
        assert_eq!(
            eval_pathcheck(&tree, &parsed),
            expected,
            "DOM strategies disagree on {query} over {doc}"
        );
        // …and the streaming engine with both.
        let got = xsq_run(XsqEngine::full(), &query, doc.as_bytes());
        assert_eq!(got, expected, "XSQ-F disagrees on {query} over {doc}");
    });
}

#[test]
fn xsq_nc_matches_on_closure_free_queries() {
    cases(0..CASES, |rng| {
        let doc = gen_doc(rng);
        let query = gen_steps(rng, false, true) + &gen_output(rng);
        let got = xsq_run(XsqEngine::no_closure(), &query, doc.as_bytes());
        assert_eq!(
            got,
            dom_run(&query, &doc),
            "XSQ-NC disagrees on {query} over {doc}"
        );
    });
}

#[test]
fn xmltk_matches_on_predicate_free_queries() {
    cases(0..CASES, |rng| {
        let doc = gen_doc(rng);
        let steps = gen_steps(rng, true, false);
        // Each path twice: with a scalar output, and selecting whole
        // elements (which nest, and must still come out in document
        // order).
        for output in [gen_scalar_output(rng), String::new()] {
            let query = format!("{steps}{output}");
            let report = xsq::baselines::XmltkLike.run(&query, doc.as_bytes());
            let got = report.expect("path query supported").results;
            assert_eq!(
                got,
                dom_run(&query, &doc),
                "XMLTK disagrees on {query} over {doc}"
            );
        }
    });
}

/// Joost only goes wrong where a predicate is decided after the data it
/// gates; without predicates it must equal the oracle on every output,
/// whole elements included.
#[test]
fn joost_matches_on_predicate_free_queries() {
    cases(0..CASES, |rng| {
        let doc = gen_doc(rng);
        let query = gen_steps(rng, true, false) + &gen_output(rng);
        let report = xsq::baselines::JoostLike.run(&query, doc.as_bytes());
        let got = report.expect("Fig. 3 query supported").results;
        assert_eq!(
            got,
            dom_run(&query, &doc),
            "Joost disagrees on {query} over {doc}"
        );
    });
}

/// Three to six queries whose first step has one axis and one name but
/// different predicates — attribute, child-exists and child-text
/// categories in rotation, then none — one of them an aggregate. The
/// planner groups by (axis, name), so they are one group whose trie
/// fans out at the root. `tag` is the document root's on the child axis
/// (anything else matches nothing).
fn gen_same_name_batch(rng: &mut StdRng, root_tag: &str) -> Vec<String> {
    let (axis, tag) = if rng.gen_bool(0.5) {
        ("/", root_tag)
    } else {
        ("//", pick(rng, &TAGS))
    };
    let aggregate = rng.gen_range(0..3);
    (0..rng.gen_range(3..7))
        .map(|i| {
            let (child, attr) = (pick(rng, &TAGS), pick(rng, &ATTRS));
            let (op, v) = (pick(rng, &REL_OPS), rng.gen_range(-2..3));
            let pred = match i % 4 {
                0 => format!("[@{attr}{op}{v}]"),
                1 => format!("[{child}]"),
                2 => format!("[{child}{op}{v}]"),
                _ => String::new(),
            };
            let tail: String = (0..rng.gen_range(0..3))
                .map(|_| gen_step(rng, true, true))
                .collect();
            let output = if i == aggregate {
                pick(rng, &["/count()", "/sum()"]).to_string()
            } else {
                gen_scalar_output(rng)
            };
            format!("{axis}{tag}{pred}{tail}{output}")
        })
        .collect()
}

/// One batch down each road a compiled set can take into an index —
/// `QuerySet::index()`, `QueryIndex::subscribe_group`, a `PlanCache`
/// checkout subscribed with `subscribe_set`, and the sequential corpus
/// driver — over a two-document corpus (so each road's document reset
/// is in play). All four must produce the solo runners' results, which
/// must be the DOM oracle's: the roads are one.
///
/// What is compared, and so what is guaranteed: each subscription's
/// results, in document order; and that the roads — four instantiations
/// of one plan — interleave different subscriptions' results
/// identically, i.e. the interleaving is deterministic run to run. What
/// is not: *which* interleaving. Results of different subscriptions
/// determined by the same input event come out in group order, so a
/// planner that groups differently permutes them.
fn assert_the_four_roads_agree(docs: &[String; 2], refs: &[&str]) -> QuerySet {
    let engine = XsqEngine::full();
    let set = QuerySet::compile(engine, refs).expect("generated queries compile");
    let cache = PlanCache::new(None);
    let plan = cache.checkout(engine, refs).expect("compiles");

    let mut by_set = set.index();
    let mut by_group = QueryIndex::new(engine);
    by_group.subscribe_group(refs).expect("compiles");
    let mut by_cache = QueryIndex::new(engine);
    by_cache.subscribe_set(plan.set());
    let sequential = run_sequential(&set, docs).expect("well-formed");

    for (di, doc) in docs.iter().enumerate() {
        let mut want = Vec::new();
        for q in refs {
            let single = xsq_run(engine, q, doc.as_bytes());
            assert_eq!(single, dom_run(q, doc), "solo vs DOM on {q} over {doc}");
            want.push(single);
        }
        let per_query = |results: &[(xsq::QueryId, String)]| {
            let mut got = vec![Vec::new(); refs.len()];
            for (id, v) in results {
                got[id.0 as usize].push(v.clone());
            }
            got
        };
        let roads = [
            ("QuerySet::index", &mut by_set),
            ("subscribe_group", &mut by_group),
            ("PlanCache::checkout", &mut by_cache),
        ];
        let interleaved = &sequential.per_doc[di].results;
        for (road, index) in roads {
            let mut sink = VecQuerySink::new();
            index
                .run_document(doc.as_bytes(), &mut sink)
                .expect("well-formed");
            assert_eq!(
                per_query(&sink.results),
                want,
                "{road} vs solo on {refs:?} over {doc}"
            );
            assert_eq!(
                &sink.results, interleaved,
                "{road} interleaves unlike run_sequential on {refs:?} over {doc}"
            );
        }
        assert_eq!(
            per_query(interleaved),
            want,
            "run_sequential vs solo on {refs:?} over {doc}"
        );
    }
    set
}

#[test]
fn multi_query_runs_equal_single_runs() {
    cases(0..CASES, |rng| {
        let docs = [gen_doc(rng), gen_doc(rng)];
        let queries: Vec<String> = (0..rng.gen_range(1..5)).map(|_| gen_query(rng)).collect();
        let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
        assert_the_four_roads_agree(&docs, &refs);
    });
}

/// The same property on the batches the planner regroups: members share
/// a first-step name and differ in its predicate, so one merged group —
/// one runner, one dispatch touch — answers what were separate groups.
#[test]
fn same_name_batches_merge_and_still_equal_single_runs() {
    cases(0..CASES, |rng| {
        let docs = [gen_doc(rng), gen_doc(rng)];
        let queries = gen_same_name_batch(rng, &docs[0][1..2]);
        let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
        let set = assert_the_four_roads_agree(&docs, &refs);
        assert_eq!(set.group_count(), 1, "{refs:?} did not merge");
    });
}

/// A small recursive `xmlgen` document — `pub`s nest in `pub`s, each with
/// its own `year` — whose years are redrawn from four values in three
/// spellings (`1991`, ` 1991 `, `1991.0`: one number, three strings), some
/// of them twice over: a repeated witness, and elements that witness two
/// keys at once.
fn gen_keyed_doc(rng: &mut StdRng) -> String {
    let params = XmlGenParams {
        nested_levels: rng.gen_range(2..7),
        max_repeats: rng.gen_range(2..6),
        seed: rng.next_u64(),
    };
    let raw = xmlgen::generate(params, 1536);
    let mut pieces = raw.split("<year>");
    let mut doc = pieces
        .next()
        .expect("split yields a first piece")
        .to_string();
    for piece in pieces {
        let (_, rest) = piece.split_once("</year>").expect("years are closed");
        for _ in 0..rng.gen_range(1..3) {
            let year = 1990 + rng.gen_range(0..4);
            doc += &match rng.gen_range(0..4) {
                0 => format!("<year> {year} </year>"),
                1 => format!("<year>{year}.0</year>"),
                _ => format!("<year>{year}</year>"),
            };
        }
        doc += rest;
    }
    doc
}

/// Three to seven subscriptions that differ in the literal of one
/// `[… = literal]` step — one family, so one keyed BPDT — and in what
/// they select below it. The keyed step sits on the child or the closure
/// axis, under nothing, a plain path, or an ancestor whose predicate is
/// still undecided when the keyed element ends (the upload path); its
/// witness is a child's text (also under `*`, and with the witness child
/// `year` as the next step), the element's own text, or a child's
/// attribute. Below it: both axes, predicates, `count()`/`sum()`. Literals
/// come numeric, in a second numeric spelling and as strings; some miss;
/// some subscriptions come twice.
fn gen_keyed_batch(rng: &mut StdRng, doc: &str) -> Vec<String> {
    let ids: Vec<&str> = doc
        .split("id=\"")
        .skip(1)
        .filter_map(|p| p.split('"').next())
        .collect();
    let shape = match rng.gen_range(0..5) {
        4 if ids.len() < 2 => 1,
        shape => shape,
    };
    let above = ["", "/site", "//pub[book]", "//pub[year]", "/site/pub[pub]"];
    let prefix = above[rng.gen_range(usize::from(shape == 0)..above.len())];
    let below = [
        "/text()",
        "/count()",
        "/book/title/text()",
        "//book/@id",
        "/book[price]/title/text()",
        "//book[price>40]/@id",
        "/year/text()",
        "/pub/year/text()",
        "/pub[year]//title/text()",
        "//price/sum()",
        "//title/count()",
    ];
    let mut batch: Vec<String> = (0..rng.gen_range(3..7))
        .map(|i| {
            // The first two literals differ: the family is a family.
            let year = 1990 + if i < 2 { i } else { rng.gen_range(0..5) };
            let literal = match (shape, rng.gen_range(0..4)) {
                (4, _) if i < 2 => ids[i as usize * (ids.len() - 1)].to_string(),
                (4, _) => pick(rng, &ids).to_string(),
                (_, 0) if i >= 2 => format!("\"{year}\""),
                (_, 1) => format!("{year}.0"),
                _ => year.to_string(),
            };
            let step = match shape {
                0 => format!("/pub[year={literal}]"),
                1 => format!("//pub[year={literal}]"),
                2 => format!("//*[year={literal}]"),
                3 => format!("//year[text()={literal}]"),
                _ => format!("//pub[book@id={literal}]"),
            };
            let tail = below[rng.gen_range(0..if shape == 3 { 2 } else { below.len() })];
            format!("{prefix}{step}{tail}")
        })
        .collect();
    if rng.gen_bool(0.4) {
        batch.push(batch[rng.gen_range(0..batch.len())].clone());
    }
    batch
}

/// The same family shapes over the tiny alphabet of [`gen_doc`], where
/// tags collide at every turn — the keyed element nests in itself, the
/// witness child is the next step or the keyed tag itself — with random
/// steps above and below the keyed one.
fn gen_tiny_keyed_batch(rng: &mut StdRng, root_tag: &str) -> Vec<String> {
    let above = match rng.gen_range(0..3) {
        0 => String::new(),
        1 => format!("/{root_tag}"),
        _ => gen_step(rng, true, true),
    };
    let axis = if above.is_empty() || rng.gen_bool(0.5) {
        "//"
    } else {
        "/"
    };
    let (tag, child, attr) = (
        pick(rng, &["a", "b", "*"]),
        pick(rng, &TAGS),
        pick(rng, &ATTRS),
    );
    let witness = match rng.gen_range(0..3) {
        0 => "text()".to_string(),
        1 => child.to_string(),
        _ => format!("{child}@{attr}"),
    };
    let literals = ["-1", "0", "1", "1.0", "2", "\"1\"", "\"x\"", "\"love\""];
    (0..rng.gen_range(2..6))
        .map(|i| {
            let literal = if i < 2 {
                literals[i]
            } else {
                pick(rng, &literals)
            };
            let tail: String = (0..rng.gen_range(0..3))
                .map(|_| gen_step(rng, true, true))
                .collect();
            let output = if rng.gen_bool(0.2) {
                "/sum()".into()
            } else {
                gen_scalar_output(rng)
            };
            format!("{above}{axis}{tag}[{witness}={literal}]{tail}{output}")
        })
        .collect()
}

/// The four roads on batches that compile to a keyed step, over recursive
/// documents — `xmlgen`'s, and the tiny-alphabet ones: nested instances of
/// the keyed element witness different keys, and an item under both is
/// bound by each in turn. Then the same batch with one member muted,
/// across both documents.
#[test]
fn keyed_batches_equal_single_runs() {
    cases(0..CASES, |rng| {
        let (docs, queries) = if rng.gen_bool(0.5) {
            let docs = [gen_keyed_doc(rng), gen_keyed_doc(rng)];
            let queries = gen_keyed_batch(rng, &docs[0]);
            (docs, queries)
        } else {
            let docs = [gen_doc(rng), gen_doc(rng)];
            let queries = gen_tiny_keyed_batch(rng, &docs[0][1..2]);
            (docs, queries)
        };
        let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
        let set = assert_the_four_roads_agree(&docs, &refs);
        assert_eq!(set.group_count(), 1, "{refs:?} did not merge");
        // One family: one keyed step, instantiated once per side of every
        // undecided ancestor.
        let mut keyed: Vec<&str> = set
            .hpdts()
            .flat_map(|h| h.keyed.iter().map(|k| k.step.as_str()))
            .collect();
        keyed.dedup();
        assert_eq!(keyed.len(), 1, "{refs:?} compiled to keyed steps {keyed:?}");

        let mut index = set.index();
        let muted = xsq::QueryId(rng.gen_range(0..refs.len() as u32));
        index.unsubscribe(muted);
        for doc in &docs {
            let mut sink = VecQuerySink::new();
            index
                .run_document(doc.as_bytes(), &mut sink)
                .expect("well-formed");
            for (i, q) in refs.iter().enumerate() {
                let id = xsq::QueryId(i as u32);
                let want = if id == muted {
                    Vec::new()
                } else {
                    xsq_run(XsqEngine::full(), q, doc.as_bytes())
                };
                assert_eq!(
                    sink.of(id),
                    want,
                    "{q} (muted: {muted:?}) in {refs:?} over {doc}"
                );
            }
        }
    });
}

/// One spine of a deep document: `<p>` in `<p>` (one level in five a
/// `<q>`) down to `levels`, each level with its own optional `<k>`
/// witness before or after the nested child, a `<w/>`, and `<v>` values
/// on either side — always around depths 61–66, where a depth vector
/// leaves the 64-bit bitmap on the way down and re-enters it on the way
/// up.
fn gen_spine(rng: &mut StdRng, depth: u32, levels: u32, out: &mut String) {
    if depth > levels {
        out.push_str("<v>leaf</v>");
        return;
    }
    let tag = if rng.gen_bool(0.2) { "q" } else { "p" };
    let witness = |rng: &mut StdRng, out: &mut String| {
        if rng.gen_bool(0.3) {
            out.push_str(&format!("<k>{}</k>", rng.gen_range(0..4)));
        }
    };
    let value = |rng: &mut StdRng, out: &mut String, side: &str| {
        if rng.gen_bool(0.1) || (61..=66).contains(&depth) {
            out.push_str(&format!("<v>{depth}{side}</v>"));
        }
    };
    out.push_str(&format!("<{tag}>"));
    witness(rng, out);
    value(rng, out, "a");
    if rng.gen_bool(0.4) {
        out.push_str("<w/>");
    }
    gen_spine(rng, depth + 1, levels, out);
    value(rng, out, "z");
    witness(rng, out);
    out.push_str(&format!("</{tag}>"));
}

/// The shapes that lean on depth vectors: a closure under a buffering
/// predicate, Example 6/7's same-name nesting, a keyed family, and
/// whole-element output (the catchall path).
const DEEP_QUERIES: [&str; 6] = [
    "//p[k>1]//v/text()",
    "//p[k>1]//p[w]/v/text()",
    "//p[k=1]//v/text()",
    "//p[k=2]//v/text()",
    "//q[k<2]//v",
    "//p[w]/p/v",
];

/// Documents nested deeper than a bitmap depth vector reaches: every
/// suite above stays under depth 8, so nothing else runs the wide
/// representation — whose `top` orders the configuration set and whose
/// prefixes key the queue buckets — through the engine. One document
/// goes well past depth 64 and one stops around it; the queries are
/// [`DEEP_QUERIES`].
#[test]
fn documents_deeper_than_the_bitmap_equal_the_dom_oracle() {
    cases(0..CASES / 64, |rng| {
        let docs = [rng.gen_range(66..80), rng.gen_range(58..66)].map(|levels| {
            let mut doc = String::from("<r>");
            gen_spine(rng, 2, levels, &mut doc);
            doc + "</r>"
        });
        let set = assert_the_four_roads_agree(&docs, &DEEP_QUERIES);
        assert!(
            set.hpdts().any(|h| !h.keyed.is_empty()),
            "the [k=…] family did not compile to a keyed step"
        );
    });
}

/// One spine of same-name nesting: `<pub>` in `<pub>` down to `levels`,
/// each with a `<year>` witness (2001, 2002 or 1999, before or after its
/// child, or none) and books — with or without a `<price>`, now and then
/// one inside another — always at depths 62–67, so that the run of
/// configurations anchored at one book, one per enclosing `pub`, pushes
/// its `<title>` across the bitmap's last depth together.
fn gen_pub_spine(rng: &mut StdRng, depth: u32, levels: u32, out: &mut String) {
    if depth > levels {
        return;
    }
    let year = |rng: &mut StdRng, out: &mut String| {
        if rng.gen_bool(0.5) {
            let year = pick(rng, &["2001", "2002", "1999"]);
            out.push_str(&format!("<year>{year}</year>"));
        }
    };
    let book = |rng: &mut StdRng, out: &mut String| {
        if rng.gen_bool(0.3) || (61..=66).contains(&depth) {
            out.push_str("<book>");
            if rng.gen_bool(0.5) {
                out.push_str("<price>1</price>");
            }
            out.push_str(&format!("<title>t{depth}</title>"));
            if rng.gen_bool(0.2) {
                out.push_str(&format!(
                    "<book><title>u{depth}</title><price>2</price></book>"
                ));
            }
            out.push_str("</book>");
        }
    };
    out.push_str("<pub>");
    year(rng, out);
    book(rng, out);
    gen_pub_spine(rng, depth + 1, levels, out);
    book(rng, out);
    year(rng, out);
    out.push_str("</pub>");
}

/// The shapes whose configurations move in lock step: the referee's
/// closure under a predicate, whole-element output (one item opened and
/// appended to by every member of a run), a keyed family, `count()`, and
/// the referee's shape under a predicate no generated `pub` satisfies,
/// whose runs no TRUE `pub` shortens.
const LOCK_STEP_QUERIES: [&str; 6] = [
    "//pub[year>2000]//book[price]/title/text()",
    "//pub//book",
    "//pub[year=2001]//title/text()",
    "//pub[year=2002]//title/text()",
    "//pub[year>2000]//book/count()",
    "//pub[year<1990]//book[price]/title/text()",
];

/// Same-name nesting 20–80 deep makes the runs of equal `(top, state)`
/// the runtime steps as one long — one member per enclosing `pub` — and
/// one document of each pair takes them past depth 63 and back, so whole
/// runs leave the bitmap depth vector together. Every road must still
/// agree with the DOM oracle, and a traced group (the general step on
/// every event) with an untraced one.
#[test]
fn lock_step_groups_equal_the_dom_oracle() {
    cases(0..CASES / 64, |rng| {
        let docs = [rng.gen_range(66..81), rng.gen_range(20..66)].map(|levels| {
            let mut doc = String::from("<r>");
            gen_pub_spine(rng, 2, levels, &mut doc);
            doc + "</r>"
        });
        let set = assert_the_four_roads_agree(&docs, &LOCK_STEP_QUERIES);
        assert!(
            set.hpdts().any(|h| !h.keyed.is_empty()),
            "the [year=…] family did not compile to a keyed step"
        );
        for hpdt in set.hpdts() {
            let (untraced, traced) = (run_group(hpdt, &docs, false), run_group(hpdt, &docs, true));
            assert_eq!(untraced, traced, "traced vs untraced over {docs:?}");
        }
        // The runs are what the family is for: long ones, one member per
        // enclosing `pub` whose `year` is still open. A `pub` proved TRUE
        // enters no `pub` below it (DESIGN.md, *Dominated
        // configurations*), so the runs are counted on the query no
        // `pub` here satisfies.
        let stats = XsqEngine::full()
            .compile_str(LOCK_STEP_QUERIES[5])
            .expect("compiles")
            .run_document(docs[0].as_bytes(), &mut VecSink::new())
            .expect("well-formed");
        assert!(stats.firings >= 4 * stats.steps, "{stats:?}");
    });
}

/// One compiled group over a corpus, through one `RunnerCore` reset
/// between documents: whether each event fired and how many
/// configurations and buffered entries it left, the tagged results and
/// running aggregates in arrival order, and each document's `RunStats`.
/// With `traced`, a tracer is attached — which must hear of every event,
/// fired or not.
fn run_group(hpdt: &Hpdt, corpus: &[String], traced: bool) -> (Vec<(bool, usize, usize)>, String) {
    let mut core = RunnerCore::new(hpdt);
    let (mut fired, mut seen) = (Vec::new(), String::new());
    for doc in corpus {
        let mut sink = VecQuerySink::new();
        let mut steps = 0;
        let mut tracer = |step: xsq::engine::trace::TraceStep| {
            steps += 1;
            assert_eq!(step.ordinal, steps);
        };
        let mut parser = StreamParser::new(doc.as_bytes());
        let mut events = 0;
        while let Some(e) = parser.next_raw().expect("well-formed") {
            let tracer: Option<&mut dyn FnMut(_)> = traced.then_some(&mut tracer);
            let moved = core.feed_traced(hpdt, &e, &mut sink, tracer);
            fired.push((moved, core.config_count(), core.buffered_entries()));
            events += 1;
        }
        assert_eq!(steps, if traced { events } else { 0 });
        let stats = core.finish(&mut sink);
        seen += &format!("{:?} {:?} {stats:?}\n", sink.results, sink.updates);
        core.reset(hpdt);
    }
    (fired, seen)
}

/// The runner has two ways to take a step — one configuration moved in
/// place, or the set rebuilt by a merge — and a tracer forces the second
/// on every event. Both must leave the same set behind: over every corpus
/// and query family of the four-roads suites above (random batches,
/// same-name batches, keyed batches, and the documents deeper than the
/// bitmap), each compiled group fires on the same events and produces the
/// same results, updates and `RunStats` with a tracer attached as without.
/// Each group's buffer plan has a live queue exactly when it can enqueue.
#[test]
fn traced_runs_equal_untraced_runs() {
    let check = |docs: &[String; 2], queries: &[String]| {
        let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
        let set = QuerySet::compile(XsqEngine::full(), &refs).expect("generated queries compile");
        for hpdt in set.hpdts() {
            let (untraced, traced) = (run_group(hpdt, docs, false), run_group(hpdt, docs, true));
            assert_eq!(untraced, traced, "{refs:?} over {docs:?}");
            let live = analyze_buffers(hpdt).live_buffers() > 0;
            assert_eq!(live, hpdt.buffered, "buffering of a group of {refs:?}");
        }
    };
    cases(0..CASES, |rng| {
        let docs = [gen_doc(rng), gen_doc(rng)];
        let queries = (0..rng.gen_range(1..5))
            .map(|_| gen_query(rng))
            .collect::<Vec<_>>();
        check(&docs, &queries);
        check(&docs, &gen_same_name_batch(rng, &docs[0][1..2]));
        check(&docs, &gen_tiny_keyed_batch(rng, &docs[0][1..2]));
        let docs = [gen_keyed_doc(rng), gen_keyed_doc(rng)];
        check(&docs, &gen_keyed_batch(rng, &docs[0]));
    });
    cases(0..CASES / 64, |rng| {
        let docs = [rng.gen_range(66..80), rng.gen_range(58..66)].map(|levels| {
            let mut doc = String::from("<r>");
            gen_spine(rng, 2, levels, &mut doc);
            doc + "</r>"
        });
        check(&docs, &DEEP_QUERIES.map(String::from));
    });
}

/// Run mode is read off the automaton, in an index group as in a solo
/// runner: closure-free sets — merged groups included — run first-match
/// inside a `QueryIndex` under `XsqEngine::full()`, and must produce
/// what the scan-all runtime does. Scan-all is forced the only way it
/// can be: on an HPDT the test built itself, by clearing its
/// `deterministic` flag.
#[test]
fn first_match_index_groups_equal_forced_scan_all_solo_runners() {
    cases(0..CASES, |rng| {
        let docs = [gen_doc(rng), gen_doc(rng)];
        let mut queries = gen_merging_batch(rng, false);
        queries.extend(
            (0..rng.gen_range(0..3)).map(|_| gen_steps(rng, false, true) + &gen_output(rng)),
        );
        let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
        let mut index = QueryIndex::new(XsqEngine::full());
        let ids = index
            .subscribe_group(&refs)
            .expect("generated queries compile");
        assert!(index.group_count() < refs.len(), "{refs:?} did not merge");
        for doc in &docs {
            let mut sink = VecQuerySink::new();
            index
                .run_document(doc.as_bytes(), &mut sink)
                .expect("well-formed");
            for (q, &id) in refs.iter().zip(&ids) {
                let parsed = parse_query(q).expect("generated queries parse");
                let mut hpdt = xsq::engine::build_hpdt(&parsed).expect("builds");
                assert!(hpdt.deterministic, "{q} is closure-free");
                hpdt.deterministic = false;
                let (mut runner, mut want) = (Runner::new(&hpdt), VecSink::new());
                feed_all(&mut runner, doc, &mut want);
                runner.finish(&mut want);
                assert_eq!(sink.of(id), want.results, "{q} in {refs:?} over {doc}");
            }
        }
    });
}

/// What a compile reports about `queries` — solo, and as one batch
/// through a plan cache built on `dtd` — is what `analyze_with_dtd`
/// (the backend of `xsq analyze`) derives for each query alone: the
/// plan's static bound and its whole derivation for every member, and
/// for a solo compile the automaton's size and the engine that runs it.
/// Every HPDT either side builds has a live queue in its buffer plan
/// exactly when it can enqueue. Returns the batch's group count.
fn assert_compiled_matches_analysis(queries: &[&str], dtd: Option<&Arc<Dtd>>) -> usize {
    let engine = XsqEngine::full();
    let cache = PlanCache::new(dtd.cloned());
    let dtd = dtd.map(|d| &**d);
    let buffers_agree = |hpdt: &Hpdt, what: &dyn std::fmt::Display| {
        assert_eq!(
            analyze_buffers(hpdt).live_buffers() > 0,
            hpdt.buffered,
            "buffering of {what}"
        );
    };
    let mut bounds = Vec::new();
    for q in queries {
        let parsed = parse_query(q).expect("generated queries parse");
        let analysis = analyze_with_dtd(engine, &parsed, dtd).expect("analyzes");
        let solo = engine.compile_str(q).expect("compiles");
        buffers_agree(&analysis.hpdt, q);
        assert_eq!(
            (solo.hpdt().states.len(), solo.hpdt().arc_count()),
            (analysis.hpdt.states.len(), analysis.hpdt.arc_count()),
            "solo automaton of {q}"
        );
        assert_eq!(solo.engine_label(), analysis.engine, "engine of {q}");
        let plan = cache.checkout(engine, &[q]).expect("compiles");
        assert_eq!(
            plan.bounds(),
            std::slice::from_ref(&analysis.bound),
            "plan of {q}"
        );
        bounds.push(analysis.bound);
    }
    let plan = cache.checkout(engine, queries).expect("compiles");
    assert_eq!(plan.bounds(), bounds, "batch {queries:?}");
    for hpdt in plan.set().hpdts() {
        buffers_agree(hpdt, &format!("a group of {queries:?}"));
    }
    plan.set().group_count()
}

#[test]
fn compiled_plans_report_what_the_analyzer_explains() {
    // No schema: the generated query pool, alone and in merging batches.
    cases(0..CASES, |rng| {
        let batch = gen_merging_batch(rng, true);
        let refs: Vec<&str> = batch.iter().map(String::as_str).collect();
        assert_eq!(assert_compiled_matches_analysis(&refs, None), 1);
        assert_compiled_matches_analysis(&[&gen_query(rng)], None);
    });
    // Generated DTDs: four queries merge whenever two agree on step one.
    let mut merged = 0u32;
    cases(0..CASES, |rng| {
        let dtd = Arc::new(schema_gen::build_dtd(&schema_gen::gen_children(rng)));
        let batch: Vec<String> = (0..4).map(|_| schema_gen::gen_query(rng)).collect();
        let refs: Vec<&str> = batch.iter().map(String::as_str).collect();
        let groups = assert_compiled_matches_analysis(&refs, Some(&dtd));
        merged += u32::from(groups < refs.len());
    });
    assert!(merged >= 64, "only {merged} batches merged");
    // The dblp admission queries (`tests/bounds.rs`): one shared group.
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/data/dblp.dtd"));
    let dtd = Arc::new(Dtd::parse(&text.expect("data/dblp.dtd readable")).expect("parses"));
    let dblp = [
        "/dblp/article/title/text()",
        "/dblp/article/@key",
        "/dblp/inproceedings[author]/title/text()",
        "/dblp/inproceedings[author]/year/text()",
        "/dblp/inproceedings[booktitle]/title/text()",
        "/dblp/inproceedings[author]/booktitle/text()",
        "/dblp/inproceedings[booktitle]/author/text()",
    ];
    assert_eq!(assert_compiled_matches_analysis(&dblp, Some(&dtd)), 1);
}

// ---- dominated configurations ------------------------------------------

/// The two tags of the dominance corpus: every step and every predicate
/// child is one of them, so an element constantly nests its own name and
/// a predicate's witness is also an instance of a step.
const PAIR: [&str; 2] = ["a", "b"];

/// What sits around a spine element's nested child: nothing, a number,
/// or a leaf child of either tag — a predicate witness and a step match
/// at once.
fn gen_pair_leaf(rng: &mut StdRng, out: &mut String) {
    match rng.gen_range(0..4) {
        0 => out.push_str(&rng.gen_range(-1..3).to_string()),
        1 => {
            let tag = pick(rng, &PAIR);
            let x = rng.gen_range(-1..3);
            let v = rng.gen_range(-1..3);
            out.push_str(&format!("<{tag} x=\"{x}\">{v}</{tag}>"));
        }
        2 => out.push_str(&format!("<{0}/>", pick(rng, &PAIR))),
        _ => {}
    }
}

/// A spine of same-name-prone elements from `depth` down to `levels`,
/// each with an optional `x` attribute and leaves before and after its
/// nested child, so a predicate resolves now above, now below the
/// nested matches; now and then a second, shorter branch.
fn gen_pair_spine(rng: &mut StdRng, depth: u32, levels: u32, out: &mut String) {
    let tag = pick(rng, &PAIR);
    out.push('<');
    out.push_str(tag);
    if rng.gen_bool(0.5) {
        out.push_str(&format!(" x=\"{}\"", rng.gen_range(-1..3)));
    }
    out.push('>');
    gen_pair_leaf(rng, out);
    if depth < levels {
        gen_pair_spine(rng, depth + 1, levels, out);
    }
    gen_pair_leaf(rng, out);
    if depth < levels && rng.gen_bool(0.25) {
        gen_pair_spine(rng, depth + 1, levels.min(depth + 3), out);
    }
    gen_pair_leaf(rng, out);
    out.push_str(&format!("</{tag}>"));
}

/// A predicate over [`PAIR`]: a child, a child's text or attribute, the
/// element's own attribute or text.
fn gen_pair_pred(rng: &mut StdRng) -> String {
    let (tag, op, v) = (pick(rng, &PAIR), pick(rng, &REL_OPS), rng.gen_range(-1..3));
    match rng.gen_range(0..5) {
        0 => format!("[{tag}]"),
        1 => format!("[{tag}{op}{v}]"),
        2 => format!("[{tag}@x{op}{v}]"),
        3 => format!("[@x{op}{v}]"),
        _ => format!("[text(){op}{v}]"),
    }
}

/// `//T[p]//U[q]?/out`: a closure below a predicated closure step, the
/// shape whose TRUE state carries the dominance mark, with scalar or
/// whole-element output. One time in three a predicated closure step
/// `//S[r]` goes first, so a second mark sits below it and the marked
/// `T` instances below an undecided `S` are not all-TRUE.
fn gen_dominance_query(rng: &mut StdRng) -> String {
    let prefix = if rng.gen_bool(1.0 / 3.0) {
        format!("//{}{}", pick(rng, &PAIR), gen_pair_pred(rng))
    } else {
        String::new()
    };
    let (t, u) = (pick(rng, &PAIR), pick(rng, &PAIR));
    let p = gen_pair_pred(rng);
    let q = if rng.gen_bool(0.5) {
        gen_pair_pred(rng)
    } else {
        String::new()
    };
    let out = match rng.gen_range(0..5) {
        0 => "",
        1 => "/@x",
        2 => "/count()",
        _ => "/text()",
    };
    format!("{prefix}//{t}{p}//{u}{q}{out}")
}

/// A `p` spine for the NA twin of a resolved `//p[…]`: each `p` holds,
/// in random order, several `w` witnesses whose values and attributes
/// fall on both sides of the predicates' thresholds, `b` elements before
/// and after them, a `w` with a `b` inside (Example 7's window: after the
/// witness text, before `</w>`), and, down to `levels`, a nested `p`.
fn gen_twin_spine(rng: &mut StdRng, depth: u32, levels: u32, out: &mut String) {
    out.push_str("<p>");
    let parts = rng.gen_range(2..7);
    let nested_at = (depth < levels).then(|| rng.gen_range(0..=parts));
    for i in 0..=parts {
        if nested_at == Some(i) {
            gen_twin_spine(rng, depth + 1, levels, out);
        }
        if i == parts {
            break;
        }
        let (x, v) = (rng.gen_range(-1..3), rng.gen_range(-1..3));
        match rng.gen_range(0..4) {
            0 | 1 => out.push_str(&format!("<w x=\"{x}\">{v}</w>")),
            2 => {
                let c = if rng.gen_bool(0.5) { "<c/>" } else { "" };
                out.push_str(&format!("<b x=\"{x}\">{c}{}</b>", rng.gen_range(0..9)));
            }
            _ => out.push_str(&format!(
                "<w>{v}<b x=\"{x}\"><c/>{}</b></w>",
                rng.gen_range(0..9)
            )),
        }
    }
    out.push_str("</p>");
}

/// `//p[w…]//b[c]?/out` over [`gen_twin_spine`]: a child-witness
/// predicate — presence, value or attribute — whose TRUE state carries
/// the dominance mark, so its NA twin is dropped when it resolves; the
/// output is text, an attribute, a count or the whole element.
fn gen_twin_query(rng: &mut StdRng) -> String {
    let (op, v) = (pick(rng, &REL_OPS), rng.gen_range(-1..3));
    let p = match rng.gen_range(0..3) {
        0 => "[w]".to_string(),
        1 => format!("[w{op}{v}]"),
        _ => format!("[w@x{op}{v}]"),
    };
    let q = if rng.gen_bool(0.5) { "[c]" } else { "" };
    let out = pick(rng, &["", "/text()", "/@x", "/count()"]);
    format!("//p{p}//b{q}{out}")
}

/// The dominance rule (DESIGN.md, *Dominated configurations*) withdraws
/// every match path that enters an instance of a step below one already
/// TRUE, and drops a resolved match's NA twin. Over same-name nesting
/// 8–14 deep from two tags, and over [`gen_twin_spine`]'s witnesses
/// mixed with the step's matches, each query must still answer what the
/// DOM oracle answers down every road — solo, an index group of one (the
/// four roads of [`assert_the_four_roads_agree`]), the sharded driver,
/// and a push parser fed one byte at a time — and a traced run must
/// equal an untraced one.
#[test]
fn dominated_configurations_change_no_answer() {
    cases(0..CASES, |rng| {
        let docs = [rng.gen_range(8..15), rng.gen_range(8..15)].map(|levels| {
            let mut doc = String::from("<r>");
            gen_pair_spine(rng, 2, levels, &mut doc);
            doc + "</r>"
        });
        assert_dominance_changes_no_answer(&docs, &gen_dominance_query(rng));
        let docs = [rng.gen_range(2..6), rng.gen_range(2..6)].map(|levels| {
            let mut doc = String::from("<r>");
            gen_twin_spine(rng, 2, levels, &mut doc);
            doc + "</r>"
        });
        assert_dominance_changes_no_answer(&docs, &gen_twin_query(rng));
    });
}

/// [`dominated_configurations_change_no_answer`]'s roads for one query.
fn assert_dominance_changes_no_answer(docs: &[String; 2], query: &str) {
    let set = assert_the_four_roads_agree(docs, &[query]);
    let hpdt = set.hpdts().next().expect("one group");
    assert!(hpdt.has_dominance_marks(), "{query}: no mark");

    let sharded = run_sharded(&set, docs, 2).expect("well-formed");
    let mut index = set.index();
    let mut parser = StreamParser::push_mode();
    for (di, doc) in docs.iter().enumerate() {
        let want = dom_run(query, doc);
        let got: Vec<String> = sharded.per_doc[di]
            .results
            .iter()
            .map(|(_, v)| v.clone())
            .collect();
        assert_eq!(got, want, "sharded: {query} over {doc}");
        let mut sink = VecQuerySink::new();
        for byte in doc.as_bytes().chunks(1) {
            parser.push(byte);
            while let ParsePoll::Event(ev) = parser.poll_raw().expect("well-formed") {
                index.feed_raw(&ev, &mut sink);
            }
        }
        parser.finish();
        while let ParsePoll::Event(ev) = parser.poll_raw().expect("well-formed") {
            index.feed_raw(&ev, &mut sink);
        }
        index.finish(&mut sink);
        parser.reset_push();
        let got: Vec<String> = sink.results.into_iter().map(|(_, v)| v).collect();
        assert_eq!(got, want, "push, 1-byte chunks: {query} over {doc}");
    }

    let (untraced, traced) = (run_group(hpdt, docs, false), run_group(hpdt, docs, true));
    assert_eq!(
        untraced, traced,
        "traced vs untraced: {query} over {docs:?}"
    );
}

#[test]
fn emission_is_prefix_stable() {
    // Streaming monotonicity: whatever has been emitted after any event
    // prefix must be a prefix of the final result list — the engine
    // never emits something it would later retract or reorder.
    cases(0..CASES, |rng| {
        let (doc, query) = (gen_doc(rng), gen_query(rng));
        let parsed = parse_query(&query).expect("generated queries parse");
        if parsed.is_aggregation() {
            return; // running updates differ by design
        }
        let compiled = XsqEngine::full().compile(&parsed).expect("compiles");
        let (mut runner, mut full) = (compiled.runner(), VecSink::new());
        let events = feed_prefix(&mut runner, &doc, usize::MAX, &mut full);
        runner.finish(&mut full);
        let cut = rng.gen_range(0..=events);
        let (mut runner, mut partial) = (compiled.runner(), VecSink::new());
        feed_prefix(&mut runner, &doc, cut, &mut partial);
        assert!(
            full.results.starts_with(&partial.results),
            "prefix after {cut} events {:?} is not a prefix of {:?} ({query} over {doc})",
            partial.results,
            full.results,
        );
    });
}

/// A predicate that may never hold: a relational, `number()` or
/// `string-length()` test against a word — a test no value passes, which
/// the builder leaves out of the automaton — or its twin against a number.
fn gen_dead_pred(rng: &mut StdRng) -> String {
    let (tag, attr) = (pick(rng, &TAGS), pick(rng, &ATTRS));
    let op = pick(rng, &["=", "!=", "<", "<=", ">", ">=", "%"]);
    let rhs = if rng.gen_bool(0.6) {
        format!("\"{}\"", pick(rng, &WORDS))
    } else {
        rng.gen_range(-2..3).to_string()
    };
    match rng.gen_range(0..6) {
        0 => format!("[@{attr}{op}{rhs}]"),
        1 => format!("[text(){op}{rhs}]"),
        2 => format!("[{tag}{op}{rhs}]"),
        3 => format!("[{tag}@{attr}{op}{rhs}]"),
        4 => format!("[number(@{attr}){op}{rhs}]"),
        _ => format!("[string-length(text()){op}{rhs}]"),
    }
}

/// The query pool of [`gen_query`], with every predicate drawn from
/// [`gen_dead_pred`].
fn gen_dead_query(rng: &mut StdRng) -> String {
    let steps: String = (0..rng.gen_range(1..4))
        .map(|_| {
            let mut step = gen_step(rng, true, false);
            if rng.gen_bool(0.5) {
                step.push_str(&gen_dead_pred(rng));
            }
            step
        })
        .collect();
    steps + &gen_output(rng)
}

#[test]
fn unsatisfiable_predicates_match_the_dom_oracle() {
    // The builder never makes an arc whose guard no value passes, and
    // drops the states behind it: a query with such a predicate must
    // still answer what the DOM answers, solo and down every index road,
    // merged with its neighbours or not. Attribute values `1` become
    // words, so `number(@x)` meets NaN on the stream too.
    cases(0..CASES, |rng| {
        let docs = [gen_doc(rng), gen_doc(rng)].map(|d| d.replace("=\"1\"", "=\"lovely\""));
        let queries: Vec<String> = (0..rng.gen_range(1..5))
            .map(|_| gen_dead_query(rng))
            .collect();
        let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
        assert_the_four_roads_agree(&docs, &refs);
    });
}

#[test]
fn parser_writer_roundtrip_and_pda() {
    // Each event recorded as its `Debug` form, checked by the PDA and
    // written back out.
    let record = |doc: &str| {
        let mut parser = StreamParser::new(doc.as_bytes());
        let (mut events, mut writer) = (Vec::new(), XmlWriter::new());
        let (mut pda, mut status) = (WellFormednessPda::new(), PdaStatus::Running);
        while let Some(ev) = parser.next_raw().expect("well-formed") {
            status = pda.feed(&ev);
            writer.write_event(&ev);
            events.push(format!("{ev:?}"));
        }
        assert_eq!(status, PdaStatus::Accepted, "{doc}");
        (events, writer.into_string())
    };
    cases(0..CASES, |rng| {
        let (events, rewritten) = record(&gen_doc(rng));
        assert_eq!(events, record(&rewritten).0);
    });
}

#[test]
fn buffers_drain_by_end_of_document() {
    cases(0..CASES, |rng| {
        let (doc, query) = (gen_doc(rng), gen_query(rng));
        let compiled = XsqEngine::full().compile_str(&query).expect("parses");
        let (mut runner, mut sink) = (compiled.runner(), VecSink::new());
        feed_all(&mut runner, &doc, &mut sink);
        // The paper's invariant: every buffered item resolves by the end
        // event of the element named in the first location step — a
        // fortiori by end of document.
        assert_eq!(
            runner.buffered_entries(),
            0,
            "buffers leak on {query} over {doc}"
        );
        assert_eq!(
            runner.config_count(),
            1,
            "one start configuration must remain"
        );
    });
}
