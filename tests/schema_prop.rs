//! Property tests for the schema optimizer: on documents *conforming* to
//! a DTD, (a) queries proven unsatisfiable return nothing, and (b) the
//! closure-elimination rewrite never changes results.
//!
//! Seeded (`datagen::rng::cases`): a failing case prints its seed, and
//! `cases(seed..seed + 1, …)` replays it alone.

use std::collections::BTreeSet;

use xsq::datagen::rng::{cases, StdRng};
use xsq::engine::schema::{analyze, optimize};
use xsq::xpath::parse_query;

#[path = "common/schema_gen.rs"]
mod schema_gen;
use schema_gen::{build_dtd, gen_children, gen_query, TAGS};

/// Generate a document conforming to the child relation, rooted at t0.
fn conforming_doc(children: &[Vec<usize>], rng: &mut StdRng) -> String {
    fn emit(
        tag: usize,
        children: &[Vec<usize>],
        rng: &mut StdRng,
        out: &mut String,
        budget: &mut u32,
    ) {
        out.push_str(&format!("<{}>", TAGS[tag]));
        out.push_str(&rng.gen_range(0..10u32).to_string());
        for _ in 0..rng.gen_range(0..3u32) {
            if *budget == 0 || children[tag].is_empty() {
                break;
            }
            *budget -= 1;
            let pick = rng.gen_range(0..children[tag].len());
            emit(children[tag][pick], children, rng, out, budget);
        }
        out.push_str(&format!("</{}>", TAGS[tag]));
    }
    let mut out = String::new();
    let mut budget = 40;
    emit(0, children, rng, &mut out, &mut budget);
    out
}

#[test]
fn optimizer_is_sound_on_conforming_documents() {
    let (mut proven_empty, mut rewritten_differs) = (0u32, 0u32);
    cases(0..1024, |rng| {
        let children = gen_children(rng);
        let dtd = build_dtd(&children);
        let doc = conforming_doc(&children, rng);
        let query = gen_query(rng);
        let parsed = parse_query(&query).expect("generated queries parse");
        let roots: BTreeSet<String> = [TAGS[0].to_string()].into();
        let analysis = analyze(&parsed, &dtd, &roots);

        let original = xsq::engine::evaluate(&query, doc.as_bytes()).expect("conforming doc");
        if !analysis.satisfiable {
            proven_empty += 1;
            assert!(
                original.is_empty(),
                "proven-empty query {query} returned {original:?} on {doc}"
            );
        }

        // The default-roots rewrite must also be sound (root inference).
        let (optimized, _) = optimize(&parsed, &dtd);
        let optimized = optimized.to_string();
        rewritten_differs += u32::from(optimized != parsed.to_string());
        let rewritten =
            xsq::engine::evaluate(&optimized, doc.as_bytes()).expect("rewritten query runs");
        assert_eq!(
            original, rewritten,
            "rewrite {query} -> {optimized} changed results on {doc}"
        );
    });
    // The generators must keep reaching both properties.
    assert!(proven_empty >= 64, "only {proven_empty} proven-empty cases");
    assert!(rewritten_differs >= 64, "only {rewritten_differs} rewrites");
}
