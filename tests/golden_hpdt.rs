//! Golden automata: the compiled HPDT of every group of a fixed query
//! corpus, dumped with `Hpdt::dump`, must equal
//! `tests/golden/hpdt_dumps.txt` byte for byte.
//!
//! A refactor of the compiler that means to build the same automata
//! leaves this file unchanged. When a change to what the compiler builds
//! is deliberate, regenerate the file from the test's own output: a
//! failing run writes what it compiled to `hpdt_dumps.txt` in cargo's
//! per-target scratch directory (`target/tmp/`), and the panic message
//! names the path:
//!
//! ```sh
//! cargo test --test golden_hpdt
//! cp target/tmp/hpdt_dumps.txt tests/golden/hpdt_dumps.txt
//! ```

use std::fmt::Write;

use xsq::{QuerySet, XsqEngine};

/// Tags of the tombstone feed (`tests/qindex_grouped.rs`'s shape).
const FEED_TAGS: usize = 512;

/// One query per feed tag; every 8th is a tombstone, a relational
/// predicate against a non-numeric constant that can never hold.
fn feed_queries(n: usize) -> Vec<String> {
    (0..n)
        .map(|k| {
            let t = k % FEED_TAGS;
            if k % 8 == 7 {
                format!("/feed/t{t}[@sev>none]/f{t}/text()")
            } else {
                format!("/feed/t{t}/f{t}/text()")
            }
        })
        .collect()
}

/// The corpus, one batch per entry; each batch compiles as one
/// `QuerySet`.
fn corpus() -> Vec<(&'static str, Vec<String>)> {
    let batch = |qs: &[&str]| qs.iter().map(|q| q.to_string()).collect::<Vec<_>>();
    let mut out = vec![
        // The referee benchmark's query lists (`crates/benchmark`).
        ("scan_dblp", batch(&["/dblp/article/title/text()"])),
        (
            "match_recursive",
            batch(&["//pub[year>2000]//book[price]/title/text()"]),
        ),
        (
            "serve_bulk",
            batch(&[
                "/dblp/inproceedings[booktitle]/title/text()",
                "/dblp/article/@key",
                "/dblp/article[year>1995]/author/text()",
                "//year/count()",
            ]),
        ),
        (
            "serve_records",
            batch(&[
                "/dblp/article/title/text()",
                "/dblp/inproceedings[booktitle]/title/text()",
            ]),
        ),
        (
            "broadcast_fanout",
            batch(&[
                "//pub[year]//book[@id]/title/text()",
                "//pub/book/title/text()",
                "//book/@id",
                "//book/price/text()",
                "//price/sum()",
                "//book/count()",
            ]),
        ),
    ];
    // CI's analyzer smoke queries and the `analyze_*` golden queries,
    // each alone.
    for q in [
        "/pub[year=2002]/book[price<11]/author",
        "//pub[year>2000]//book[author]//name/text()",
        "/PLAY/ACT/SCENE/SPEECH[LINE%love]/SPEAKER/text()",
        "/dblp/inproceedings[author]/title/text()",
        "//pub[year]//book[@id]/title/text()",
        "/dblp/inproceedings[booktitle]/author/text()",
        "/dblp/article/title/text()",
    ] {
        out.push(("solo", batch(&[q])));
    }
    out.extend([
        // `crates/core/tests/analyzer.rs`'s tombstone set.
        (
            "tombstones",
            batch(&[
                "/pub/book/name/text()",
                "/pub/book[price<11]/name/text()",
                "/pub/book[price<bogus]/name/text()",
                "/pub/year/text()",
            ]),
        ),
        ("tombstone feed, N = 64", feed_queries(64)),
        (
            "closures under a shared prefix",
            batch(&["/feed//a/text()", "/feed//b/text()"]),
        ),
        // One number spelled two ways (one key), the same digits as a
        // string (another key), and a duplicate: a keyed step of two
        // literals.
        (
            "number and string literals of one family",
            batch(&[
                "/dblp/article[year=1990]/title/text()",
                "/dblp/article[year=1990.0]/title/text()",
                "/dblp/article[year=\"1990\"]/title/text()",
                "/dblp/article[year=1990]/title/text()",
            ]),
        ),
        ("two interleaved families", interleaved_families()),
        ("64 distinct first steps", distinct_first_steps()),
    ]);
    out
}

/// `[year=Y]` and `[author="N"]` siblings alternating under one parent;
/// the members' subtrees diverge below the keyed step and merge again
/// where their steps are equal.
fn interleaved_families() -> Vec<String> {
    let tails = [
        "title/text()",
        "journal/text()",
        "title/@key",
        "title/sub/text()",
    ];
    (0..8)
        .map(|k| {
            let tail = tails[k % tails.len()];
            if k % 2 == 0 {
                format!("/dblp/article[year={}]/{tail}", 1990 + k)
            } else {
                format!("/dblp/article[author=\"a{k}\"]/{tail}")
            }
        })
        .collect()
}

/// 128 queries over 64 distinct first steps, two each, interleaved: 64
/// groups in first-seen order.
fn distinct_first_steps() -> Vec<String> {
    (0..128)
        .map(|k| format!("/g{}/c{}/text()", k % 64, k / 64))
        .collect()
}

fn dumps() -> String {
    let mut out = String::new();
    for (name, queries) in corpus() {
        let texts: Vec<&str> = queries.iter().map(String::as_str).collect();
        let set = QuerySet::compile(XsqEngine::full(), &texts).expect("corpus compiles");
        let _ = writeln!(out, "## {name}: {} queries", texts.len());
        for hpdt in set.hpdts() {
            out.push_str(&hpdt.dump());
        }
    }
    out
}

#[test]
fn compiled_groups_equal_the_golden_dumps() {
    let root = env!("CARGO_MANIFEST_DIR");
    let golden = std::fs::read_to_string(format!("{root}/tests/golden/hpdt_dumps.txt"))
        .expect("tests/golden/hpdt_dumps.txt readable");
    let got = dumps();
    if got != golden {
        let path = format!("{}/hpdt_dumps.txt", env!("CARGO_TARGET_TMPDIR"));
        std::fs::write(&path, &got).expect("scratch directory writable");
        let line = got
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(got.lines().count().min(golden.lines().count()));
        panic!(
            "compiled automata drift from tests/golden/hpdt_dumps.txt at line {}; \
             this build's dumps are in {path}",
            line + 1
        );
    }
}
