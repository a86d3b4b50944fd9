//! Toxgene-style template datasets — the two §6.4 microbenchmarks.
//!
//! * [`ordering_dataset`] — the data-ordering experiment (Fig. 21): the
//!   template
//!
//!   ```text
//!   <a id="1"> <prior>1</prior>
//!       <foo>1</foo>   (repeated 10,000 times)
//!       <posterior>1</posterior> </a>
//!   ```
//!
//!   repeated with increasing `id`. The queries `/a[prior=0]`,
//!   `/a[posterior=0]`, and `/a[@id=0]` all return empty results, but a
//!   buffering engine pays very differently depending on *where* the
//!   falsifying evidence sits.
//!
//! * [`color_dataset`] — the result-size experiment (Fig. 22): elements
//!   `red` (10%), `green` (30%), `blue` (60%), each holding one
//!   character, so `/a/red`, `/a/green`, `/a/blue` return 10/30/60% of
//!   the data.

use crate::rng::StdRng;

/// The Fig. 21 template dataset. One `<a>` group is ~160 KB with the
/// paper's `foo_repeats = 10_000`; pass smaller repeats for quick runs.
pub fn ordering_dataset(target_bytes: usize, foo_repeats: usize) -> String {
    // The paper's template nests the groups under a single document
    // element so `/a[...]` steps address them as `/doc/a`; the study's
    // queries spell it `/a` — the harness uses `//a`, which is
    // equivalent here (groups appear at exactly one depth).
    let mut out = String::with_capacity(target_bytes + 1024);
    out.push_str("<doc>");
    let mut id = 0u64;
    while out.len() < target_bytes {
        id += 1;
        out.push_str(&format!("<a id=\"{id}\"><prior>1</prior>"));
        for _ in 0..foo_repeats {
            out.push_str("<foo>1</foo>");
        }
        out.push_str("<posterior>1</posterior></a>");
    }
    out.push_str("</doc>");
    out
}

/// The Fig. 22 color dataset: 10% `red`, 30% `green`, 60% `blue`, one
/// character of content each, under a single `<a>` document element.
pub fn color_dataset(seed: u64, target_bytes: usize) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::with_capacity(target_bytes + 64);
    out.push_str("<a>");
    while out.len() < target_bytes {
        let roll: f64 = rng.gen();
        let tag = if roll < 0.1 {
            "red"
        } else if roll < 0.4 {
            "green"
        } else {
            "blue"
        };
        out.push('<');
        out.push_str(tag);
        out.push('>');
        out.push((b'a' + rng.gen_range(0..26)) as char);
        out.push_str("</");
        out.push_str(tag);
        out.push('>');
    }
    out.push_str("</a>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_dataset_has_the_template_shape() {
        let doc = ordering_dataset(50_000, 100);
        let counts = xsq_xml::PureParser::run(doc.as_bytes()).unwrap();
        assert!(counts.total_events() > 100);
        // All three Fig. 21 queries return empty result sets.
        for q in ["//a[prior=0]", "//a[posterior=0]", "//a[@id=0]"] {
            let r = xsq_core::evaluate(q, doc.as_bytes()).unwrap();
            assert!(r.is_empty(), "{q} must be empty");
        }
        // Sanity: matching predicates do select.
        let r = xsq_core::evaluate("//a[prior=1]/prior/text()", doc.as_bytes()).unwrap();
        assert!(!r.is_empty());
    }

    #[test]
    fn color_dataset_proportions() {
        let doc = color_dataset(42, 200_000);
        let red = xsq_core::evaluate("/a/red/count()", doc.as_bytes()).unwrap()[0]
            .parse::<f64>()
            .unwrap();
        let green = xsq_core::evaluate("/a/green/count()", doc.as_bytes()).unwrap()[0]
            .parse::<f64>()
            .unwrap();
        let blue = xsq_core::evaluate("/a/blue/count()", doc.as_bytes()).unwrap()[0]
            .parse::<f64>()
            .unwrap();
        let total = red + green + blue;
        assert!((red / total - 0.1).abs() < 0.03, "red {}", red / total);
        assert!(
            (green / total - 0.3).abs() < 0.04,
            "green {}",
            green / total
        );
        assert!((blue / total - 0.6).abs() < 0.05, "blue {}", blue / total);
    }

    #[test]
    fn deterministic() {
        assert_eq!(color_dataset(1, 5000), color_dataset(1, 5000));
        assert_eq!(ordering_dataset(5000, 10), ordering_dataset(5000, 10));
    }
}
