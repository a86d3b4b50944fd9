//! One function per table/figure of the paper's evaluation (§6).
//!
//! Query adaptations (the paper: "we modify the XPath queries as needed
//! to ensure that queries convey the semantics"):
//!
//! * the generated SHAKE collection has a `PLAYS` document element, so
//!   Q1/Q2 are prefixed with `/PLAYS`;
//! * the Fig. 21 Toxgene template nests its `<a>` groups under a `doc`
//!   element, so its queries are spelled `/doc/a[…]` (keeping XSQ-NC,
//!   which has no closure axis, in the comparison);
//! * Fig. 19's XMLTK runs the predicate-free variant of the query and
//!   XQEngine drops out beyond 32 K elements — both straight from the
//!   paper's own footnotes.

use xsq_baselines::{GalaxLike, JoostLike, SaxonLike, XmltkLike, XqEngineLike};
use xsq_core::{XPathEngine, XsqEngine, XsqF, XsqNc};
use xsq_xml::dataset_stats;

use crate::datasets::{self, Scale};
use crate::table::Table;
use crate::throughput::{fmt_rel, measure, pure_parse_time};

/// Shared experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub scale: Scale,
    /// Best-of-N timing repeats.
    pub repeats: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            scale: Scale::default(),
            repeats: 3,
        }
    }
}

fn engines() -> Vec<Box<dyn XPathEngine>> {
    xsq_baselines::all_engines()
}

/// Fig. 14: the system feature matrix.
pub fn fig14() -> Table {
    let mut t = Table::new(
        "Fig. 14 — System features",
        &[
            "Name",
            "Support",
            "Streaming",
            "Multiple predicates",
            "Closure",
            "Aggregation",
            "Buffered predicate evaluation",
        ],
    );
    let yes = |b: bool| if b { "X" } else { "" }.to_string();
    for e in engines() {
        let c = e.capabilities();
        t.row(vec![
            e.name().to_string(),
            c.language.to_string(),
            yes(c.streaming),
            yes(c.multiple_predicates),
            yes(c.closures),
            yes(c.aggregation),
            yes(c.buffered_predicate_eval),
        ]);
    }
    t
}

/// Fig. 15: dataset statistics (for the *generated* datasets).
pub fn fig15(cfg: Config) -> Table {
    let mut t = Table::new(
        "Fig. 15 — Dataset descriptions (generated stand-ins)",
        &[
            "Name",
            "Size (MB)",
            "Text size (MB)",
            "Elements (K)",
            "Avg/Max depth",
            "Avg tag length",
        ],
    );
    for (name, doc) in datasets::standard_sized(cfg.scale) {
        let s = dataset_stats(doc.as_bytes()).expect("generated data is well-formed");
        t.row(vec![
            name.to_string(),
            format!("{:.2}", s.size_bytes as f64 / (1024.0 * 1024.0)),
            format!("{:.2}", s.text_bytes as f64 / (1024.0 * 1024.0)),
            format!("{:.1}", s.elements as f64 / 1000.0),
            format!("{:.2}/{}", s.avg_depth, s.max_depth),
            format!("{:.2}", s.avg_tag_length),
        ]);
    }
    t.note("shapes target the paper's Fig. 15; absolute sizes are scaled to the harness --scale");
    t
}

/// The three SHAKE queries of Fig. 16.
pub const SHAKE_QUERIES: [(&str, &str); 3] = [
    (
        "Q1",
        "/PLAYS/PLAY/ACT/SCENE/SPEECH[LINE%love]/SPEAKER/text()",
    ),
    ("Q2", "/PLAYS/PLAY/ACT/SCENE/SPEECH/SPEAKER/text()"),
    ("Q3", "//ACT//SPEAKER/text()"),
];

/// Fig. 16: relative throughput of the systems on the SHAKE queries.
pub fn fig16(cfg: Config) -> Table {
    let doc = datasets::equal_sized("SHAKE", cfg.scale);
    let pure = pure_parse_time(doc.as_bytes(), cfg.repeats);
    let mut t = Table::new(
        "Fig. 16 — Relative throughput per query (SHAKE)",
        &["System", "Q1", "Q2", "Q3"],
    );
    for e in engines() {
        let mut row = vec![e.name().to_string()];
        for (_, q) in SHAKE_QUERIES {
            row.push(fmt_rel(&measure(
                e.as_ref(),
                q,
                doc.as_bytes(),
                pure,
                cfg.repeats,
            )));
        }
        t.row(row);
    }
    for (name, q) in SHAKE_QUERIES {
        t.note(format!("{name}: {q}"));
    }
    t.note("'-' = query unsupported by that system (cf. Fig. 14)");
    t
}

/// The per-dataset queries of Fig. 17.
pub const DATASET_QUERIES: [(&str, &str); 4] = [
    ("SHAKE", "/PLAYS/PLAY/ACT/SCENE/SPEECH/SPEAKER/text()"),
    (
        "NASA",
        "/datasets/dataset/reference/source/other/name/text()",
    ),
    ("DBLP", "/dblp/article/title/text()"),
    (
        "PSD",
        "/ProteinDatabase/ProteinEntry/reference/refinfo/authors/author/text()",
    ),
];

/// Fig. 17: relative throughput across the four datasets.
pub fn fig17(cfg: Config) -> Table {
    let mut t = Table::new(
        "Fig. 17 — Relative throughput per dataset",
        &["System", "SHAKE", "NASA", "DBLP", "PSD"],
    );
    let mut columns = Vec::new();
    for (name, q) in DATASET_QUERIES {
        let doc = datasets::equal_sized(name, cfg.scale);
        let pure = pure_parse_time(doc.as_bytes(), cfg.repeats);
        columns.push((q, doc, pure));
    }
    for e in engines() {
        let mut row = vec![e.name().to_string()];
        for (q, doc, pure) in &columns {
            row.push(fmt_rel(&measure(
                e.as_ref(),
                q,
                doc.as_bytes(),
                *pure,
                cfg.repeats,
            )));
        }
        t.row(row);
    }
    for (name, q) in DATASET_QUERIES {
        t.note(format!("{name}: {q}"));
    }
    t
}

/// Fig. 18: per-phase times on the SHAKE Q2 query.
pub fn fig18(cfg: Config) -> Table {
    let doc = datasets::equal_sized("SHAKE", cfg.scale);
    let query = SHAKE_QUERIES[1].1;
    let mut t = Table::new(
        "Fig. 18 — Building / preprocessing / querying time (SHAKE, Q2)",
        &[
            "System",
            "Build (ms)",
            "Preprocess (ms)",
            "Query (ms)",
            "Total (ms)",
        ],
    );
    let pure = pure_parse_time(doc.as_bytes(), cfg.repeats);
    t.row(vec![
        "PureParser".to_string(),
        "0.00".into(),
        "0.00".into(),
        format!("{:.2}", pure.as_secs_f64() * 1e3),
        format!("{:.2}", pure.as_secs_f64() * 1e3),
    ]);
    for e in engines() {
        match e.run(query, doc.as_bytes()) {
            Err(_) => t.row(vec![
                e.name().to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
            Ok(r) => {
                let ms = |d: std::time::Duration| format!("{:.2}", d.as_secs_f64() * 1e3);
                t.row(vec![
                    e.name().to_string(),
                    ms(r.timings.compile),
                    ms(r.timings.preprocess),
                    ms(r.timings.query),
                    ms(r.timings.total()),
                ]);
            }
        }
    }
    t.note("streaming systems have no preprocessing phase and return first results immediately");
    t
}

/// Fig. 19: memory vs. input size on DBLP excerpts.
pub fn fig19(cfg: Config) -> Table {
    let query = "/dblp/inproceedings[author]/title/text()";
    let xmltk_query = "/dblp/inproceedings/title/text()";
    let mut t = Table::new(
        "Fig. 19 — Peak memory (KB) querying DBLP excerpts",
        &[
            "Size (KB)",
            "XSQ-F",
            "XSQ-NC",
            "XMLTK",
            "Saxon",
            "Galax",
            "Joost",
            "XQEngine",
        ],
    );
    let kb = |b: u64| format!("{:.0}", b as f64 / 1024.0);
    for (size, doc) in datasets::dblp_excerpts(cfg.scale, 5) {
        let mut row = vec![format!("{:.0}", size as f64 / 1024.0)];
        for (engine, q) in [
            (&XsqF as &dyn XPathEngine, query),
            (&XsqNc, query),
            (&XmltkLike, xmltk_query),
            (&SaxonLike, query),
            (&GalaxLike, query),
            (&JoostLike, query),
            (&XqEngineLike, query),
        ] {
            row.push(match engine.run(q, doc.as_bytes()) {
                Ok(r) => kb(r.memory.total_peak_bytes()),
                Err(_) => "-".into(),
            });
        }
        t.row(row);
    }
    t.note(format!("query: {query}"));
    t.note(format!(
        "XMLTK runs the predicate-free variant: {xmltk_query} (paper, Fig. 19 note 1)"
    ));
    t.note("XQEngine drops out beyond 32K elements per document (paper, Fig. 19 note 2)");
    // The flat streaming rows have a static explanation: against the
    // dblp DTD the bound analyzer proves the query buffers ≤ K items
    // regardless of input size. Print the proof next to the empirics.
    let dtd_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data/dblp.dtd");
    if let Ok(dtd_text) = std::fs::read_to_string(dtd_path) {
        if let (Ok(dtd), Ok(parsed)) = (
            xsq_xml::dtd::Dtd::parse(&dtd_text),
            xsq_xpath::parse_query(query),
        ) {
            if let Ok(analysis) = xsq_core::analyze_with_dtd(XsqEngine::full(), &parsed, Some(&dtd))
            {
                t.note(format!(
                    "static bound (data/dblp.dtd): {} — XSQ rows must stay under it",
                    analysis.bound.bound
                ));
            }
        }
    }
    t
}

/// Fig. 20: memory vs. input size on recursive synthetic data with a
/// closure query.
pub fn fig20(cfg: Config) -> Table {
    let query = "//pub[year]//book[@id]/title/text()";
    let mut t = Table::new(
        "Fig. 20 — Peak memory (KB) on recursive data, closure query",
        &[
            "Size (KB)",
            "XSQ-F",
            "XSQ-NC",
            "XMLTK",
            "Saxon",
            "Galax",
            "Joost",
        ],
    );
    let kb = |b: u64| format!("{:.0}", b as f64 / 1024.0);
    for (size, doc) in datasets::recursive_sweep(cfg.scale, 4) {
        let mut row = vec![format!("{:.0}", size as f64 / 1024.0)];
        for engine in [
            &XsqF as &dyn XPathEngine,
            &XsqNc,
            &XmltkLike,
            &SaxonLike,
            &GalaxLike,
            &JoostLike,
        ] {
            row.push(match engine.run(query, doc.as_bytes()) {
                Ok(r) => kb(r.memory.total_peak_bytes()),
                Err(_) => "-".into(),
            });
        }
        t.row(row);
    }
    t.note(format!(
        "query: {query} (IBM-generator data, nesting 15, repeats 20)"
    ));
    t.note("XSQ-NC cannot handle the closure axis; XMLTK cannot handle the predicates (paper, Fig. 20 note 1)");
    t
}

/// The three Fig. 21 queries over the ordering template.
pub const ORDERING_QUERIES: [(&str, &str); 3] = [
    ("/a[prior=0]", "/doc/a[prior=0]"),
    ("/a[posterior=0]", "/doc/a[posterior=0]"),
    ("/a[@id=0]", "/doc/a[@id=0]"),
];

/// Fig. 21: effect of data ordering on throughput.
pub fn fig21(cfg: Config) -> Table {
    let doc = datasets::ordering(cfg.scale);
    let pure = pure_parse_time(doc.as_bytes(), cfg.repeats);
    let mut t = Table::new(
        "Fig. 21 — Effect of data ordering on throughput (relative)",
        &["System", "/a[prior=0]", "/a[posterior=0]", "/a[@id=0]"],
    );
    for engine in [&XsqNc as &dyn XPathEngine, &XsqF, &SaxonLike] {
        let mut row = vec![engine.name().to_string()];
        for (_, q) in ORDERING_QUERIES {
            row.push(fmt_rel(&measure(
                engine,
                q,
                doc.as_bytes(),
                pure,
                cfg.repeats,
            )));
        }
        t.row(row);
    }
    t.note("all three queries return empty results; they differ only in when the predicate can be falsified");
    t
}

/// Fig. 22: effect of result size on throughput.
pub fn fig22(cfg: Config) -> Table {
    let doc = datasets::colors(cfg.scale);
    let pure = pure_parse_time(doc.as_bytes(), cfg.repeats);
    let mut t = Table::new(
        "Fig. 22 — Effect of result size on throughput (relative)",
        &["System", "/a/red (10%)", "/a/green (30%)", "/a/blue (60%)"],
    );
    for engine in [
        &XsqNc as &dyn XPathEngine,
        &XsqF,
        &XmltkLike,
        &SaxonLike,
        &JoostLike,
    ] {
        let mut row = vec![engine.name().to_string()];
        for q in ["/a/red", "/a/green", "/a/blue"] {
            row.push(fmt_rel(&measure(
                engine,
                q,
                doc.as_bytes(),
                pure,
                cfg.repeats,
            )));
        }
        t.row(row);
    }
    t
}

/// Appendix (beyond the paper): relative throughput on the XMark-like
/// auction workload — the standard XML benchmark of the era, with
/// recursive description markup exercising the closure machinery.
pub fn xmark_appendix(cfg: Config) -> Table {
    let doc = xsq_datagen::xmark::generate(cfg.scale.seed, cfg.scale.bytes);
    let pure = pure_parse_time(doc.as_bytes(), cfg.repeats);
    let mut headers: Vec<&str> = vec!["System"];
    let labels = ["A1", "A2", "A3", "A4", "A5", "A6"];
    headers.extend(labels);
    let mut t = Table::new(
        "Appendix — Relative throughput on the XMark-like workload",
        &headers,
    );
    for e in engines() {
        let mut row = vec![e.name().to_string()];
        for q in xsq_datagen::xmark::QUERIES {
            row.push(fmt_rel(&measure(
                e.as_ref(),
                q,
                doc.as_bytes(),
                pure,
                cfg.repeats,
            )));
        }
        t.row(row);
    }
    for (l, q) in labels.iter().zip(xsq_datagen::xmark::QUERIES) {
        t.note(format!("{l}: {q}"));
    }
    t
}

/// All experiments in figure order.
pub fn all(cfg: Config) -> Vec<Table> {
    vec![
        fig14(),
        fig15(cfg),
        fig16(cfg),
        fig17(cfg),
        fig18(cfg),
        fig19(cfg),
        fig20(cfg),
        fig21(cfg),
        fig22(cfg),
    ]
}

/// Look up one experiment by id ("fig14" … "fig22").
pub fn by_name(name: &str, cfg: Config) -> Option<Table> {
    match name {
        "fig14" => Some(fig14()),
        "fig15" => Some(fig15(cfg)),
        "fig16" => Some(fig16(cfg)),
        "fig17" => Some(fig17(cfg)),
        "fig18" => Some(fig18(cfg)),
        "fig19" => Some(fig19(cfg)),
        "fig20" => Some(fig20(cfg)),
        "fig21" => Some(fig21(cfg)),
        "fig22" => Some(fig22(cfg)),
        "xmark" => Some(xmark_appendix(cfg)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Config {
        Config {
            scale: Scale {
                bytes: 20_000,
                seed: 5,
            },
            repeats: 1,
        }
    }

    #[test]
    fn fig14_lists_all_systems() {
        let t = fig14();
        assert_eq!(t.rows.len(), 7);
        let xsqf = &t.rows[0];
        assert_eq!(xsqf[0], "XSQ-F");
        assert_eq!(xsqf[4], "X"); // closure support
    }

    #[test]
    fn fig15_has_four_datasets() {
        let t = fig15(tiny());
        assert_eq!(t.rows.len(), 4);
    }

    #[test]
    fn fig16_xmltk_skips_the_predicate_query() {
        let t = fig16(tiny());
        let xmltk = t.rows.iter().find(|r| r[0] == "XMLTK").unwrap();
        assert_eq!(xmltk[1], "-"); // Q1 has a predicate
        assert_ne!(xmltk[2], "-"); // Q2 is a plain path
    }

    #[test]
    fn fig19_streaming_memory_is_flat_and_dom_linear() {
        let t = fig19(tiny());
        let first = &t.rows[0];
        let last = t.rows.last().unwrap();
        let get = |row: &Vec<String>, i: usize| row[i].parse::<f64>().unwrap();
        // XSQ-F (col 1) stays within a small factor across a 5× size range…
        let xsqf_growth = (get(last, 1) + 1.0) / (get(first, 1) + 1.0);
        assert!(xsqf_growth < 3.0, "XSQ-F memory grew {xsqf_growth}×");
        // …while Saxon (col 4) grows with the input.
        let saxon_growth = get(last, 4) / get(first, 4);
        assert!(saxon_growth > 3.0, "Saxon memory grew only {saxon_growth}×");
    }

    #[test]
    fn fig20_notes_the_incapable_systems() {
        let t = fig20(tiny());
        for row in &t.rows {
            assert_eq!(row[2], "-", "XSQ-NC cannot run the closure query");
            assert_eq!(row[3], "-", "XMLTK cannot run the predicates");
        }
    }

    #[test]
    fn fig17_throughput_columns_are_populated() {
        let t = fig17(tiny());
        // XSQ-F supports every dataset query.
        let xsqf = t.rows.iter().find(|r| r[0] == "XSQ-F").unwrap();
        for cell in &xsqf[1..] {
            assert!(cell.parse::<f64>().is_ok(), "bad cell {cell}");
        }
    }

    #[test]
    fn fig18_streaming_engines_have_no_preprocessing() {
        let t = fig18(tiny());
        for name in ["XSQ-F", "XSQ-NC", "XMLTK", "Joost"] {
            let row = t.rows.iter().find(|r| r[0] == name).unwrap();
            assert_eq!(row[2], "0.00", "{name} must not preprocess");
        }
        let saxon = t.rows.iter().find(|r| r[0] == "Saxon").unwrap();
        assert!(saxon[2].parse::<f64>().unwrap() > 0.0);
    }

    /// Larger scale + best-of-5 for the timing-shape assertions, which
    /// would otherwise be noise-prone on a loaded machine.
    fn timing_cfg() -> Config {
        Config {
            scale: Scale {
                bytes: 128 * 1024,
                seed: 5,
            },
            repeats: 5,
        }
    }

    #[test]
    fn fig21_id_query_is_fastest_for_xsq() {
        let t = fig21(timing_cfg());
        let nc = t.rows.iter().find(|r| r[0] == "XSQ-NC").unwrap();
        let prior: f64 = nc[1].parse().unwrap();
        let id: f64 = nc[3].parse().unwrap();
        assert!(
            id > prior,
            "falsify-at-begin must beat falsify-at-end ({id} vs {prior})"
        );
    }

    #[test]
    fn fig22_xsq_nc_is_result_size_sensitive() {
        let t = fig22(timing_cfg());
        let nc = t.rows.iter().find(|r| r[0] == "XSQ-NC").unwrap();
        let red: f64 = nc[1].parse().unwrap();
        let blue: f64 = nc[3].parse().unwrap();
        assert!(
            red > blue,
            "10% results must be faster than 60% ({red} vs {blue})"
        );
    }

    #[test]
    fn xmark_appendix_runs() {
        let t = xmark_appendix(tiny());
        assert_eq!(t.rows.len(), 7);
        // XSQ-F supports every XMark query.
        let xsqf = &t.rows[0];
        assert!(xsqf[1..].iter().all(|c| c != "-"), "{xsqf:?}");
    }

    #[test]
    fn by_name_resolves_every_figure() {
        for name in ["fig14", "fig15", "fig21", "fig22", "xmark"] {
            assert!(by_name(name, tiny()).is_some(), "{name}");
        }
        assert!(by_name("fig99", tiny()).is_none());
    }
}
