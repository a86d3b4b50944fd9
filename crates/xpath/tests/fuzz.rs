//! Front-end robustness: the query and rule-file parsers must never
//! panic on any input, errors must point inside the input, and every
//! successfully parsed query must survive a display → reparse round trip.
//!
//! Seeded (`datagen::rng::cases`): a failing case prints its seed, and
//! `cases(seed..seed + 1, …)` in the failing test replays it alone.

use xsq_datagen::rng::{cases, StdRng};
use xsq_xpath::{parse_query, RuleSet};

const CASES: u64 = 2048;

/// Characters of every UTF-8 width; the byte-indexed scanners must treat
/// the wide ones as data or reject them with a position, never slice
/// through them.
const WIDE: [char; 6] = ['é', 'ß', '→', '☕', '𝒳', '\u{a0}'];

/// The alphabet queries are written in (punctuation weighted up).
const QUERY_CHARS: &str = r#"//@@[[]]()()**abctx0129%<>=!.,:-_"' "#;

fn pick<T: Copy>(rng: &mut StdRng, pool: &[T]) -> T {
    pool[rng.gen_range(0..pool.len())]
}

/// Up to 128 arbitrary characters: ASCII (control characters included),
/// query punctuation, and arbitrary scalar values up to U+10FFFF.
fn arbitrary_string(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..=128u32))
        .map(|_| match rng.gen_range(0..10u32) {
            0..=4 => char::from(rng.gen_range(0..0x80u8)),
            5..=6 => query_char(rng),
            7 => pick(rng, &WIDE),
            _ => loop {
                // Surrogates are not scalar values; draw again.
                if let Some(c) = char::from_u32(rng.gen_range(0x80..=0x10_ffffu32)) {
                    break c;
                }
            },
        })
        .collect()
}

fn query_char(rng: &mut StdRng) -> char {
    char::from(pick(rng, QUERY_CHARS.as_bytes()))
}

/// Up to 80 characters of query punctuation with the odd wide character.
fn query_soup(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..=80u32))
        .map(|_| {
            if rng.gen_bool(0.04) {
                pick(rng, &WIDE)
            } else {
                query_char(rng)
            }
        })
        .collect()
}

/// A query assembled from grammatical fragments. Most parse; the rest
/// fail a token or two off a valid query, where error paths live.
fn query_from_fragments(rng: &mut StdRng) -> String {
    const NAMES: [&str; 6] = ["a", "book", "x-y", "_n.1", "text", "last"];
    const CONSTANTS: [&str; 8] = ["1", "2000", "-3.5", ".5", "love", "\"a b\"", "'é'", "''"];
    const OPS: [&str; 8] = ["=", "==", "!=", "<", "<=", ">", ">=", "%"];
    let predicate = |rng: &mut StdRng| -> String {
        let (name, attr) = (pick(rng, &NAMES), pick(rng, &NAMES));
        let (op, c) = (pick(rng, &OPS), pick(rng, &CONSTANTS));
        match rng.gen_range(0..14u32) {
            0 => format!("[{name}]"),
            1 => format!("[@{attr}]"),
            2 => format!("[@{attr}{op}{c}]"),
            3 => format!("[{name}{op}{c}]"),
            4 => format!("[{name}@{attr}{op}{c}]"),
            5 => format!("[text(){op}{c}]"),
            6 => format!("[{}]", rng.gen_range(0..12u32)),
            7 => format!("[position(){op}{}]", rng.gen_range(0..12u32)),
            8 => pick(rng, &["[last()]", "[position()=last()]"]).to_string(),
            9 => format!("[contains(text(),{c})]"),
            10 => format!("[starts-with(@{attr},{c})]"),
            11 => format!("[string-length(text()){op}{c}]"),
            12 => format!("[number(@{attr}){op}{c}]"),
            _ => format!("[{name} contains {c}]"),
        }
    };
    let mut q = String::new();
    for _ in 0..rng.gen_range(1..5u32) {
        q.push_str(pick(rng, &["/", "/", "//"]));
        q.push_str(pick(
            rng,
            &[
                "",
                "",
                "",
                "child::",
                "parent::",
                "ancestor::",
                "preceding-sibling::",
            ],
        ));
        q.push_str(if rng.gen_bool(0.1) {
            "*"
        } else {
            pick(rng, &NAMES)
        });
        if rng.gen_bool(0.5) {
            q.push_str(&predicate(rng));
        }
    }
    q.push_str(pick(
        rng,
        &[
            "", "", "/text()", "/@id", "/count()", "/sum()", "/avg()", "/min()", "/max()",
        ],
    ));
    // One random edit in a quarter of the cases.
    if !q.is_empty() && rng.gen_bool(0.25) {
        let at = rng.gen_range(0..q.len());
        if q.is_char_boundary(at) {
            match rng.gen_range(0..3u32) {
                0 => q.insert(at, query_char(rng)),
                1 => q.insert(at, pick(rng, &WIDE)),
                _ => q.truncate(at),
            }
        }
    }
    q
}

#[test]
fn arbitrary_strings_never_panic() {
    cases(0..CASES, |rng| {
        let _ = parse_query(&arbitrary_string(rng));
    });
}

#[test]
fn query_shaped_soup_never_panics() {
    cases(0..CASES, |rng| {
        let _ = parse_query(&query_soup(rng));
        let _ = parse_query(&query_from_fragments(rng));
    });
}

#[test]
fn parsed_queries_roundtrip_through_display() {
    let mut parsed = 0u32;
    cases(0..CASES, |rng| {
        for s in [query_soup(rng), query_from_fragments(rng)] {
            if let Ok(q) = parse_query(&s) {
                parsed += 1;
                let shown = q.to_string();
                let reparsed = parse_query(&shown).unwrap_or_else(|e| {
                    panic!("display of {s:?} -> {shown:?} fails to reparse: {e}")
                });
                assert_eq!(q, reparsed, "{s:?} -> {shown:?}");
            }
        }
    });
    assert!(parsed >= 512, "only {parsed} generated queries parsed");
}

#[test]
fn error_positions_are_in_bounds() {
    cases(0..CASES, |rng| {
        for s in [
            arbitrary_string(rng),
            query_soup(rng),
            query_from_fragments(rng),
        ] {
            if let Err(e) = parse_query(&s) {
                assert!(
                    e.position <= s.len(),
                    "{} > {} in {s:?}",
                    e.position,
                    s.len()
                );
            }
        }
    });
}

/// A rules file of up to three lines — comments, blanks, rules (sound,
/// or a fragment or two off) and soup from the `.xfm` vocabulary — with
/// wide characters, stray quotes, arrows and comment marks throughout.
fn rules_soup(rng: &mut StdRng) -> String {
    const PATTERNS: [&str; 6] = [
        "//a",
        "/a/b[c]",
        "/a/*",
        "//book[@id=1]",
        "/a/b[last()]",
        "//shop[@name=\"café => thé\"]",
    ];
    const ACTIONS: [&str; 14] = [
        "copy",
        "drop",
        "rename(r)",
        "wrap(w)",
        "-@old",
        "-@old",
        "+@k=\"é\"",
        "+@k='a => b'",
        "+@k=v",
        "wrap(é)",
        "rename(",
        "# café",
        "☕",
        "\"",
    ];
    const PIECES: [&str; 24] = [
        "/", "//", "a", "café", "[", "]", "[2]", "/text()", "parent::", "=>", "=", "drop",
        "rename(", ")", "+@", "-@", "k=\"v\"", "\"", "'", "#", " ", "\t", "\r", "𝒳",
    ];
    let mut text = String::new();
    for _ in 0..rng.gen_range(0..4u32) {
        match rng.gen_range(0..8u32) {
            0 => text.push_str(pick(rng, &["", "  ", "\t", "# règle → ☕", " #=> drop"])),
            1..=5 => {
                text.push_str(pick(rng, &["", "", "  ", "\t"]));
                if rng.gen_bool(0.6) {
                    text.push_str(pick(rng, &PATTERNS));
                } else {
                    text.push_str(&query_from_fragments(rng));
                }
                text.push_str(pick(rng, &[" => ", " => ", "=>", "  =>\t", " = > ", " "]));
                for _ in 0..rng.gen_range(0..4u32) {
                    text.push_str(pick(rng, &ACTIONS));
                    text.push_str(pick(rng, &[" ", " ", "  ", ""]));
                }
            }
            _ => {
                for _ in 0..rng.gen_range(1..7u32) {
                    text.push_str(pick(rng, &PIECES));
                }
            }
        }
        text.push_str(pick(rng, &["\n", "\n", "\r\n", ""]));
    }
    text
}

/// `RuleSet::parse` is the one byte-facing parser that reads whole
/// files: it must return a rule set or an error that names a line of the
/// file and a 1-based byte column on (or one past the end of) that line.
#[test]
fn rule_files_never_panic_and_errors_point_into_the_file() {
    let (mut accepted, mut rejected) = (0u32, 0u32);
    cases(0..100_000, |rng| {
        let text = rules_soup(rng);
        match RuleSet::parse(&text) {
            Ok(rules) => {
                accepted += 1;
                assert!(!rules.rules.is_empty(), "empty rule set from {text:?}");
            }
            Err(e) => {
                rejected += 1;
                assert!(
                    (1..=text.lines().count().max(1)).contains(&e.line),
                    "{e}: no such line in {text:?}"
                );
                let line = text.lines().nth(e.line - 1).unwrap_or("");
                assert!(
                    (1..=line.len() + 1).contains(&e.col),
                    "{e}: column outside line {line:?} of {text:?}"
                );
            }
        }
    });
    assert!(
        accepted >= 1_000,
        "only {accepted} rule files were accepted"
    );
    assert!(
        rejected >= 50_000,
        "only {rejected} rule files were rejected"
    );
}

#[test]
fn every_paper_query_parses() {
    for q in [
        "//book[year>2000]/name/text()",
        "/pub[year=2002]/book[price<11]/author",
        "//pub[year=2002]//book[author]//name",
        "/pub[year>2000]/book[author]/name/text()",
        "//pub[year>2000]//book[author]//name/text()",
        "//pub[year>2000]//book[author]//name/count()",
        "/pub[year>2000]",
        "/PLAY/ACT/SCENE/SPEECH[LINE%love]/SPEAKER/text()",
        "/PLAY/ACT/SCENE/SPEECH/SPEAKER/text()",
        "//ACT//SPEAKER/text()",
        "/datasets/dataset/reference/source/other/name/text()",
        "/dblp/article/title/text()",
        "/ProteinDatabase/ProteinEntry/reference/refinfo/authors/author/text()",
        "/dblp/inproceedings[author]/title/text()",
        "/dblp/inproceedings/title/text()",
        "//pub[year]//book[@id]/title/text()",
        "/a[prior=0]",
        "/a[posterior=0]",
        "/a[@id=0]",
        "/a/Blue",
        "/book[@id]",
        "/book[@id<=10]",
        "/year[text()=2000]",
        "/book[author]",
        "/pub[book@id<=10]",
        "/book[year<=2000]",
    ] {
        assert!(parse_query(q).is_ok(), "paper query must parse: {q}");
    }
}
