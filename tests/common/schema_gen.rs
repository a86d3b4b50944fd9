//! Random acyclic DTDs and queries over their tags, shared by
//! `tests/schema_prop.rs` and `tests/differential.rs`.

use xsq::datagen::rng::StdRng;
use xsq::xml::dtd::Dtd;

pub const TAGS: [&str; 5] = ["t0", "t1", "t2", "t3", "t4"];

/// A random *acyclic* child relation: tag i may contain only tags > i
/// (so conforming documents always terminate), rooted at t0.
pub fn gen_children(rng: &mut StdRng) -> Vec<Vec<usize>> {
    (0..TAGS.len())
        .map(|i| (i + 1..TAGS.len()).filter(|_| rng.gen_bool(0.5)).collect())
        .collect()
}

pub fn build_dtd(children: &[Vec<usize>]) -> Dtd {
    let edges: Vec<(&str, Vec<&str>)> = children
        .iter()
        .enumerate()
        .map(|(i, kids)| (TAGS[i], kids.iter().map(|&k| TAGS[k]).collect()))
        .collect();
    let borrowed: Vec<(&str, &[&str])> = edges.iter().map(|(t, k)| (*t, k.as_slice())).collect();
    Dtd::from_edges(&borrowed)
}

/// One to three steps over [`TAGS`], each maybe a closure, maybe
/// predicated on its own text, selecting `text()`.
pub fn gen_query(rng: &mut StdRng) -> String {
    let steps: String = (0..rng.gen_range(1..4u32))
        .map(|_| {
            format!(
                "{}{}{}",
                if rng.gen_bool(0.5) { "//" } else { "/" },
                TAGS[rng.gen_range(0..TAGS.len())],
                if rng.gen_bool(0.5) { "[text()>=0]" } else { "" }
            )
        })
        .collect();
    format!("{steps}/text()")
}
