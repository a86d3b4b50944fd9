//! `Step`'s `Hash` agrees with its `PartialEq`: the query planner files
//! trie nodes under a hash of the step and confirms a hit with `==`, so
//! two equal steps that hashed apart would stop sharing a prefix.
//!
//! Seeded (`datagen::rng::cases`): a failing case prints its seed, and
//! `cases(seed..seed + 1, …)` in the failing test replays it alone.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use xsq_datagen::rng::{cases, StdRng};
use xsq_xpath::{parse_query, Step};

/// Axis spellings, reverse axes included (they parse; they never stream).
const AXES: [&str; 6] = [
    "/",
    "//",
    "/child::",
    "/parent::",
    "/ancestor::",
    "/preceding-sibling::",
];

const TESTS: [&str; 4] = ["a", "b", "*", "année"];

/// One literal as a number in two spellings, the same digits as a string
/// in both quote styles, and a few others.
const LITERALS: [&str; 8] = [
    "1990", "1990.0", "\"1990\"", "'1990'", "2", "x", "\"x\"", "-.5",
];

/// Every predicate category, the position tests and the function tests;
/// `L` stands for a literal.
const PREDICATES: [&str; 20] = [
    "",
    "[@id]",
    "[@id=L]",
    "[text()]",
    "[text()=L]",
    "[c]",
    "[c@id]",
    "[c@id=L]",
    "[c=L]",
    "[c<L]",
    "[c!=L]",
    "[c%L]",
    "[position()=2]",
    "[2]",
    "[last()]",
    "[position()=last()]",
    "[contains(text(),L)]",
    "[starts-with(@id,L)]",
    "[string-length(text())>L]",
    "[number(@n)<=L]",
];

fn pick<'a>(rng: &mut StdRng, pool: &[&'a str]) -> &'a str {
    pool[rng.gen_range(0..pool.len())]
}

/// A step's text, and the same step spaced out between its tokens.
fn step_texts(rng: &mut StdRng) -> (String, String) {
    let mut axis = pick(rng, &AXES);
    if axis != "/" && axis != "//" && rng.gen_bool(0.5) {
        // Half the draws keep to the forward axes.
        axis = "/";
    }
    let test = pick(rng, &TESTS);
    let predicate = pick(rng, &PREDICATES).replace('L', pick(rng, &LITERALS));
    let tight = format!("{axis}{test}{predicate}");
    // Whitespace may sit between any two tokens of a predicate; names,
    // numbers, `::` and quoted strings stay whole.
    let mut spaced = format!("{axis}{test} ");
    let mut chars = predicate.chars().peekable();
    while let Some(c) = chars.next() {
        if "[](),=<>!%@".contains(c) {
            spaced.push(' ');
            spaced.push(c);
            // `!=`, `<=` and `>=` are one token each.
            if "!<>".contains(c) && chars.peek() == Some(&'=') {
                spaced.push(chars.next().unwrap());
            }
            spaced.push(' ');
        } else {
            spaced.push(c);
        }
    }
    (tight, spaced)
}

fn parse_step(text: &str) -> Step {
    let q = parse_query(&format!("/r{text}"))
        .unwrap_or_else(|e| panic!("{text:?} does not parse: {e}"));
    q.steps[1].clone()
}

fn hash_of(step: &Step) -> u64 {
    let mut h = DefaultHasher::new();
    step.hash(&mut h);
    h.finish()
}

#[test]
fn equal_steps_hash_equal_whatever_their_spans() {
    let (mut equal_pairs, mut spaced_apart) = (0u32, 0u32);
    cases(0..256, |rng| {
        let steps: Vec<(String, Step)> = (0..48)
            .map(|_| {
                let (tight, spaced) = step_texts(rng);
                let a = parse_step(&tight);
                let b = parse_step(&spaced);
                assert_eq!(a, b, "{tight:?} vs {spaced:?}");
                assert_eq!(hash_of(&a), hash_of(&b), "{tight:?} vs {spaced:?}");
                spaced_apart += u32::from(a.span != b.span);
                (tight, a)
            })
            .collect();
        for (i, (ta, a)) in steps.iter().enumerate() {
            for (tb, b) in &steps[i + 1..] {
                if a == b {
                    equal_pairs += 1;
                    assert_eq!(hash_of(a), hash_of(b), "{ta:?} vs {tb:?}");
                } else {
                    // 64 bits of a good hash: a collision here is a
                    // field the hash leaves out.
                    assert_ne!(hash_of(a), hash_of(b), "{ta:?} vs {tb:?}");
                }
            }
        }
    });
    assert!(equal_pairs >= 100, "only {equal_pairs} equal pairs drawn");
    assert!(spaced_apart >= 1_000, "only {spaced_apart} spans differed");
}

#[test]
fn a_number_hashes_by_its_spelling() {
    let step = |lit: &str| parse_step(&format!("/a[year={lit}]"));
    let (int, float, string) = (step("1990"), step("1990.0"), step("\"1990\""));
    // The spellings differ, so the steps do; the quote style does not.
    assert_ne!(int, float);
    assert_ne!(int, string);
    assert_eq!(string, step("'1990'"));
    assert_eq!(hash_of(&string), hash_of(&step("'1990'")));
    assert_eq!(hash_of(&int), hash_of(&step("1990")));
    assert_ne!(hash_of(&int), hash_of(&float));
    assert_ne!(hash_of(&int), hash_of(&string));
}
