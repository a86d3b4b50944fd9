//! Fuzz-ish property tests for the DTD parser: generated well-formed
//! declarations must parse with the expected child graph, and mutated /
//! truncated inputs must error with a position — never panic.
//!
//! No external property-testing crate is available, so generation runs
//! on a small seeded LCG: deterministic, reproducible by seed.

mod common;

use common::Lcg;
use xsq_xml::dtd::{Dtd, Occurs};

const NAMES: &[&str] = &[
    "a", "bb", "c-c", "d.d", "e:e", "f_f", "g1", "hh", "ii", "jj",
];

fn rep(rng: &mut Lcg) -> &'static str {
    ["", "?", "*", "+"][rng.below(4)]
}

/// A random content particle of bounded depth; records the names used.
fn particle(rng: &mut Lcg, depth: usize, used: &mut Vec<&'static str>) -> String {
    if depth == 0 || rng.chance(50) {
        let n = NAMES[rng.below(NAMES.len())];
        used.push(n);
        return format!("{n}{}", rep(rng));
    }
    let sep = if rng.chance(50) { " | " } else { ", " };
    let count = 1 + rng.below(3);
    let items: Vec<String> = (0..count).map(|_| particle(rng, depth - 1, used)).collect();
    format!("({}){}", items.join(sep), rep(rng))
}

/// One random ELEMENT declaration; returns (text, parent, children).
fn declaration(rng: &mut Lcg, parent: &'static str) -> (String, Vec<&'static str>) {
    let mut used = Vec::new();
    let body = match rng.below(5) {
        0 => "EMPTY".to_string(),
        1 => "ANY".to_string(),
        2 => {
            if rng.chance(50) {
                "(#PCDATA)".to_string()
            } else {
                let count = 1 + rng.below(3);
                let names: Vec<&str> = (0..count)
                    .map(|_| {
                        let n = NAMES[rng.below(NAMES.len())];
                        used.push(n);
                        n
                    })
                    .collect();
                format!("(#PCDATA | {})*", names.join(" | "))
            }
        }
        _ => {
            // Force a group at top level (the grammar requires parens).
            let sep = if rng.chance(50) { " | " } else { ", " };
            let count = 1 + rng.below(3);
            let items: Vec<String> = (0..count).map(|_| particle(rng, 2, &mut used)).collect();
            format!("({}){}", items.join(sep), rep(rng))
        }
    };
    used.sort_unstable();
    used.dedup();
    (format!("<!ELEMENT {parent} {body}>"), used)
}

#[test]
fn generated_dtds_parse_with_the_expected_child_graph() {
    for seed in 0..200u64 {
        let mut rng = Lcg::seeded(seed);
        let mut text = String::new();
        let mut expected: Vec<(&str, Vec<&str>)> = Vec::new();
        // Distinct parents per DTD (duplicate declarations merge, which
        // would complicate the expectation).
        let mut parents = NAMES.to_vec();
        for _ in 0..(1 + rng.below(4)) {
            let parent = parents.swap_remove(rng.below(parents.len()));
            let (decl, kids) = declaration(&mut rng, parent);
            if rng.chance(30) {
                text.push_str("<!-- noise -->\n");
            }
            if rng.chance(20) {
                text.push_str(&format!("<![INCLUDE[ {decl} ]]>\n"));
            } else if rng.chance(10) {
                text.push_str(&format!("<![IGNORE[ {decl} ]]>\n"));
                continue; // ignored: must not appear
            } else {
                text.push_str(&decl);
                text.push('\n');
            }
            expected.push((parent, kids));
        }
        let dtd = Dtd::parse(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
        for (parent, kids) in &expected {
            assert!(
                dtd.declares(parent),
                "seed {seed}: {parent} missing\n{text}"
            );
            let got: Vec<&str> = dtd.children_of(parent).collect();
            assert_eq!(&got, kids, "seed {seed}: children of {parent}\n{text}");
            // Multiplicity queries never panic and stay consistent:
            // min_count > 0 implies max_count > 0.
            for kid in kids {
                let max = dtd.max_count(parent, kid);
                let min = dtd.min_count(parent, kid);
                assert!(
                    !max.is_zero() || min == 0,
                    "seed {seed}: {parent}/{kid} min {min} but max 0\n{text}"
                );
                if let Occurs::Bounded(k) = max {
                    assert!(min <= k, "seed {seed}: {parent}/{kid} min {min} > max {k}");
                }
            }
        }
    }
}

#[test]
fn truncated_inputs_error_and_never_panic() {
    let mut rng = Lcg(0xfeed);
    for seed in 0..60u64 {
        let mut inner = Lcg(seed | 1);
        let (decl, _) = declaration(&mut inner, "root");
        let text = format!("<![INCLUDE[ {decl} ]]> <!-- c --> {decl}");
        // Truncation at every char boundary: parse succeeds or errors,
        // never panics.
        for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            let _ = Dtd::parse(&text[..cut]);
        }
        // Byte-flip mutations likewise.
        for _ in 0..40 {
            let mut bytes = text.as_bytes().to_vec();
            let at = rng.below(bytes.len());
            bytes[at] = (rng.next() % 128) as u8;
            if let Ok(s) = std::str::from_utf8(&bytes) {
                let _ = Dtd::parse(s);
            }
        }
    }
}

#[test]
fn multibyte_text_between_declarations_is_safe() {
    // Non-ASCII bytes around and between declarations must not cause
    // mid-UTF-8 slicing.
    let text = "héllo — <!ELEMENT a (b*)> “noise” <!ELEMENT b (#PCDATA)> 終";
    let dtd = Dtd::parse(text).unwrap();
    assert_eq!(dtd.children_of("a").collect::<Vec<_>>(), ["b"]);
    assert_eq!(dtd.max_count("a", "b"), Occurs::Unbounded);
}
