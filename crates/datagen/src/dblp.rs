//! DBLP: a bibliography-records-like dataset.
//!
//! Shape targets from Fig. 15 (DBLP, 119 MB): ~2.99 M elements (≈25
//! elements/KB), text ≈ 47% of the file, average depth 2.90, maximum 6,
//! average tag length 5.81 — a *shallow, wide* dataset: millions of small
//! records under one root:
//!
//! ```text
//! dblp / ( article | inproceedings )* / ( author+ | title | year |
//!          pages | booktitle? | url? )
//! ```
//!
//! The Fig. 17 query `/dblp/article/title/text()` and the Fig. 19 query
//! `/dblp/inproceedings[author]/title/text()` run against it unchanged.
//! As in the paper's Fig. 19 methodology, `excerpt` produces prefixes of
//! one big document at multiple sizes.

use crate::rng::StdRng;

use crate::words::{name, sentence};

/// Generate a DBLP-like document of roughly `target_bytes`.
pub fn generate(seed: u64, target_bytes: usize) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::with_capacity(target_bytes + 1024);
    out.push_str("<dblp>");
    let mut key = 0u64;
    while out.len() < target_bytes {
        key += 1;
        record(&mut rng, &mut out, key);
    }
    out.push_str("</dblp>");
    out
}

fn record(rng: &mut StdRng, out: &mut String, key: u64) {
    let kind = if rng.gen_bool(0.45) {
        "article"
    } else {
        "inproceedings"
    };
    out.push('<');
    out.push_str(kind);
    out.push_str(" key=\"rec/");
    out.push_str(&key.to_string());
    out.push_str("\">");
    // ~10% of inproceedings records lack authors (editor-only entries),
    // so `[author]` predicates are selective.
    let authors = if rng.gen_bool(0.1) {
        0
    } else {
        rng.gen_range(1..4)
    };
    for _ in 0..authors {
        out.push_str("<author>");
        out.push_str(&name(rng));
        out.push_str("</author>");
    }
    out.push_str("<title>");
    let n = rng.gen_range(4..10);
    out.push_str(&sentence(rng, n));
    out.push_str("</title>");
    out.push_str("<year>");
    out.push_str(&(1980 + rng.gen_range(0..25)).to_string());
    out.push_str("</year>");
    out.push_str("<pages>");
    let p = rng.gen_range(1..500);
    out.push_str(&format!("{}-{}", p, p + rng.gen_range(5..20)));
    out.push_str("</pages>");
    if kind == "inproceedings" {
        out.push_str("<booktitle>");
        out.push_str(&sentence(rng, 3));
        out.push_str("</booktitle>");
    }
    out.push_str("</");
    out.push_str(kind);
    out.push('>');
}

/// A well-formed prefix of a DBLP-like document, approximately
/// `prefix_bytes` long — the paper's "the 10MB dataset contains the
/// first 10MB … we have to include the closing tags" (Fig. 19).
pub fn excerpt(seed: u64, full_bytes: usize, prefix_bytes: usize) -> String {
    let full = generate(seed, full_bytes);
    if prefix_bytes >= full.len() {
        return full;
    }
    // Cut after the last complete record before the target offset.
    let cut = full[..prefix_bytes]
        .rfind("</article>")
        .map(|i| i + "</article>".len())
        .into_iter()
        .chain(
            full[..prefix_bytes]
                .rfind("</inproceedings>")
                .map(|i| i + "</inproceedings>".len()),
        )
        .max()
        .unwrap_or(6); // right after "<dblp>"
    let mut out = full[..cut].to_string();
    out.push_str("</dblp>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsq_xml::dataset_stats;

    #[test]
    fn shape_matches_fig_15() {
        let doc = generate(42, 200_000);
        let s = dataset_stats(doc.as_bytes()).unwrap();
        // Record elements at depth 2, fields at depth 3 → the paper's
        // avg of 2.90 for the real dataset.
        assert!(
            s.avg_depth > 2.5 && s.avg_depth < 3.0,
            "avg depth {}",
            s.avg_depth
        );
        assert_eq!(s.max_depth, 3);
        let frac = s.text_bytes as f64 / s.size_bytes as f64;
        assert!(frac > 0.3 && frac < 0.6, "text fraction {frac}");
        assert!(s.avg_tag_length > 4.5 && s.avg_tag_length < 7.0);
    }

    #[test]
    fn paper_queries_run() {
        let doc = generate(3, 100_000);
        let titles = xsq_core::evaluate("/dblp/article/title/text()", doc.as_bytes()).unwrap();
        assert!(!titles.is_empty());
        let with_authors =
            xsq_core::evaluate("/dblp/inproceedings[author]/title/text()", doc.as_bytes()).unwrap();
        let all = xsq_core::evaluate("/dblp/inproceedings/title/text()", doc.as_bytes()).unwrap();
        assert!(
            with_authors.len() < all.len(),
            "predicate should be selective"
        );
        assert!(!with_authors.is_empty());
    }

    #[test]
    fn excerpt_is_well_formed_and_sized() {
        let e = excerpt(5, 100_000, 30_000);
        assert!(e.len() >= 25_000 && e.len() <= 31_000, "len {}", e.len());
        assert!(xsq_xml::PureParser::run(e.as_bytes()).is_ok());
    }

    #[test]
    fn excerpt_larger_than_document_is_the_document() {
        let full = generate(5, 10_000);
        assert_eq!(excerpt(5, 10_000, 1_000_000), full);
    }
}
