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
//!   runs;
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
use xsq::engine::{
    analyze_with_dtd, run_sequential, Hpdt, PlanCache, QueryIndex, QuerySet, Runner, RunnerCore,
    TaggedVecSink, VecQuerySink, VecSink, XPathEngine, XsqEngine,
};
use xsq::xml::dtd::Dtd;
use xsq::xml::SaxEvent;
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

/// Scalar outputs (the XMLTK fragment; it emits whole elements at their
/// *end* tag, so element output is out of its comparison).
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

fn events_of(doc: &str) -> Vec<SaxEvent> {
    xsq::xml::parse_to_events(doc.as_bytes()).expect("well-formed")
}

/// Feed stored events to a runner; the caller finishes it (or not).
fn feed_all(runner: &mut Runner<'_>, events: &[SaxEvent], sink: &mut VecSink) {
    for e in events {
        runner.feed_raw(&e.as_raw(), sink);
    }
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
        let query = gen_steps(rng, true, false) + &gen_scalar_output(rng);
        let report = xsq::baselines::XmltkLike.run(&query, doc.as_bytes());
        let got = report.expect("path query supported").results;
        assert_eq!(
            got,
            dom_run(&query, &doc),
            "XMLTK disagrees on {query} over {doc}"
        );
    });
}

#[test]
fn naive_flags_engine_matches_on_text_queries() {
    cases(0..CASES, |rng| {
        let doc = gen_doc(rng);
        let query = gen_steps(rng, true, true) + "/text()";
        let naive = xsq::baselines::NaiveFlags
            .run(&query, doc.as_bytes())
            .expect("text queries supported")
            .results;
        let expected = xsq_run(XsqEngine::full(), &query, doc.as_bytes());
        assert_eq!(naive, expected, "naive disagrees on {query} over {doc}");
    });
}

#[test]
fn projection_is_lossless() {
    // Running the query on the projected stream must be identical to
    // running it on the full stream — for every query class, with the
    // kept set staying a well-formed event sequence.
    cases(0..CASES, |rng| {
        let (doc, query) = (gen_doc(rng), gen_query(rng));
        let parsed = parse_query(&query).expect("generated queries parse");
        let events = events_of(&doc);
        let projected = xsq::engine::projector::project_events(&parsed, &events);
        assert!(
            xsq::xml::WellFormednessPda::accepts(&projected),
            "projection broke well-formedness on {query} over {doc}"
        );
        let compiled = XsqEngine::full().compile(&parsed).expect("compiles");
        let run = |events: &[SaxEvent]| {
            let (mut runner, mut sink) = (compiled.runner(), VecSink::new());
            feed_all(&mut runner, events, &mut sink);
            runner.finish(&mut sink);
            sink.results
        };
        assert_eq!(
            run(&events),
            run(&projected),
            "projection lost results on {query} over {doc}"
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
/// appended to by every member of a run), a keyed family, and `count()`.
const LOCK_STEP_QUERIES: [&str; 5] = [
    "//pub[year>2000]//book[price]/title/text()",
    "//pub//book",
    "//pub[year=2001]//title/text()",
    "//pub[year=2002]//title/text()",
    "//pub[year>2000]//book/count()",
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
        let corpus = [events_of(&docs[0]), events_of(&docs[1])];
        for hpdt in set.hpdts() {
            let (untraced, traced) = (
                run_group(hpdt, &corpus, false),
                run_group(hpdt, &corpus, true),
            );
            assert_eq!(untraced, traced, "traced vs untraced over {docs:?}");
        }
        // The runs are what the family is for: long ones.
        let stats = XsqEngine::full()
            .compile_str(LOCK_STEP_QUERIES[0])
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
fn run_group(
    hpdt: &Hpdt,
    corpus: &[Vec<SaxEvent>],
    traced: bool,
) -> (Vec<(bool, usize, usize)>, String) {
    let mut core = RunnerCore::new(hpdt);
    let (mut fired, mut seen) = (Vec::new(), String::new());
    for events in corpus {
        let mut sink = TaggedVecSink::new();
        let mut steps = 0;
        let mut tracer = |step: xsq::engine::trace::TraceStep| {
            steps += 1;
            assert_eq!(step.ordinal, steps);
        };
        for e in events {
            let tracer: Option<&mut dyn FnMut(_)> = traced.then_some(&mut tracer);
            let moved = core.feed_traced(hpdt, &e.as_raw(), &mut sink, tracer);
            fired.push((moved, core.config_count(), core.buffered_entries()));
        }
        assert_eq!(steps, if traced { events.len() as u64 } else { 0 });
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
#[test]
fn traced_runs_equal_untraced_runs() {
    let check = |docs: &[String; 2], queries: &[String]| {
        let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
        let set = QuerySet::compile(XsqEngine::full(), &refs).expect("generated queries compile");
        let corpus = [events_of(&docs[0]), events_of(&docs[1])];
        for hpdt in set.hpdts() {
            let (untraced, traced) = (
                run_group(hpdt, &corpus, false),
                run_group(hpdt, &corpus, true),
            );
            assert_eq!(untraced, traced, "{refs:?} over {docs:?}");
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
            let events = events_of(doc);
            for (q, &id) in refs.iter().zip(&ids) {
                let parsed = parse_query(q).expect("generated queries parse");
                let mut hpdt = xsq::engine::build_hpdt(&parsed).expect("builds");
                assert!(hpdt.deterministic, "{q} is closure-free");
                hpdt.deterministic = false;
                let (mut runner, mut want) = (Runner::new(&hpdt), VecSink::new());
                feed_all(&mut runner, &events, &mut want);
                runner.finish(&mut want);
                assert_eq!(sink.of(id), want.results, "{q} in {refs:?} over {doc}");
            }
        }
    });
}

/// What a compile reports about `queries` — solo, and as one batch
/// through a plan cache built on `dtd` — is what `analyze_with_dtd`
/// (the backend of `xsq analyze`) derives for each query alone: every
/// member's static bound, and for a solo compile the automaton's size
/// and the engine that runs it. Returns the batch's group count.
fn assert_compiled_matches_analysis(queries: &[&str], dtd: Option<&Arc<Dtd>>) -> usize {
    let engine = XsqEngine::full();
    let cache = PlanCache::new(dtd.cloned());
    let dtd = dtd.map(|d| &**d);
    let mut bounds = Vec::new();
    for q in queries {
        let parsed = parse_query(q).expect("generated queries parse");
        let analysis = analyze_with_dtd(&parsed, dtd).expect("analyzes");
        let solo = engine.compile_str_with_dtd(q, dtd).expect("compiles");
        assert_eq!(solo.bound(), &analysis.bound.bound, "solo bound of {q}");
        // The artifact's one-bit verdict against the per-queue plan.
        assert_eq!(
            analysis.pruned.buffered, analysis.plan.buffered,
            "buffering of {q}"
        );
        assert_eq!(
            (solo.hpdt().states.len(), solo.hpdt().arc_count()),
            (analysis.pruned.states.len(), analysis.pruned.arc_count()),
            "solo automaton of {q}"
        );
        assert_eq!(solo.engine_label(), analysis.engine, "engine of {q}");
        let plan = cache.checkout(engine, &[q]).expect("compiles");
        assert_eq!(plan.bounds(), [solo.bound().clone()], "plan of {q}");
        bounds.push(analysis.bound.bound);
    }
    let plan = cache.checkout(engine, queries).expect("compiles");
    assert_eq!(plan.bounds(), bounds, "batch {queries:?}");
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
        let events = events_of(&doc);
        let (mut runner, mut full) = (compiled.runner(), VecSink::new());
        feed_all(&mut runner, &events, &mut full);
        runner.finish(&mut full);
        let cut = rng.gen_range(0..=events.len());
        let (mut runner, mut partial) = (compiled.runner(), VecSink::new());
        feed_all(&mut runner, &events[..cut], &mut partial);
        assert!(
            full.results.starts_with(&partial.results),
            "prefix after {cut} events {:?} is not a prefix of {:?} ({query} over {doc})",
            partial.results,
            full.results,
        );
    });
}

#[test]
fn pruned_hpdt_results_equal_unpruned() {
    // Dead-state pruning must be invisible: the raw builder output
    // (which `XsqEngine::compile` never exposes anymore) and its pruned
    // twin produce identical result streams on every document. The
    // generated predicate pool includes relational comparisons against
    // non-numeric words, so genuinely prunable automata appear
    // regularly.
    cases(0..CASES, |rng| {
        let (doc, query) = (gen_doc(rng), gen_query(rng));
        let parsed = parse_query(&query).expect("generated queries parse");
        let original = xsq::engine::build_hpdt(&parsed).expect("builds");
        let (pruned, stats) = xsq::engine::prune(&original);
        assert!(stats.states_after <= stats.states_before);
        let events = events_of(&doc);
        let run = |hpdt| {
            let (mut runner, mut sink) = (Runner::new(hpdt), VecSink::new());
            feed_all(&mut runner, &events, &mut sink);
            runner.finish(&mut sink);
            sink.results
        };
        assert_eq!(
            run(&original),
            run(&pruned),
            "pruning changed results on {query} over {doc}"
        );
    });
}

#[test]
fn parser_writer_roundtrip_and_pda() {
    cases(0..CASES, |rng| {
        let events = events_of(&gen_doc(rng));
        assert!(xsq::xml::WellFormednessPda::accepts(&events));
        let rewritten = xsq::xml::writer::events_to_string(&events);
        assert_eq!(events, events_of(&rewritten));
    });
}

#[test]
fn buffers_drain_by_end_of_document() {
    cases(0..CASES, |rng| {
        let (doc, query) = (gen_doc(rng), gen_query(rng));
        let compiled = XsqEngine::full().compile_str(&query).expect("parses");
        let (mut runner, mut sink) = (compiled.runner(), VecSink::new());
        feed_all(&mut runner, &events_of(&doc), &mut sink);
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
