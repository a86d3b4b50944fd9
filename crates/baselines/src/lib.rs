//! # xsq-baselines — the comparison systems of the XSQ study
//!
//! Clean-room reimplementations of the *evaluation strategies* of the
//! systems the paper benchmarks against (§5, Fig. 14):
//!
//! | Module | Stands in for | Strategy |
//! |---|---|---|
//! | [`dom::SaxonLike`] | Saxon (XSLT) | DOM materialization + set-at-a-time evaluation |
//! | [`dom::GalaxLike`] | Galax (XQuery) | DOM materialization + direct-semantics backtracking |
//! | [`xqengine::XqEngineLike`] | XQEngine | full-text/tag index preprocessing, 32K-element limit |
//! | [`lazydfa::XmltkLike`] | XMLTK | lazy DFA, paths without predicates |
//! | [`stx::JoostLike`] | Joost (STX) | one pass, forward-only predicate flags, no buffering |
//!
//! All engines implement [`xsq_core::XPathEngine`], report Fig. 18-style phase
//! timings, and account their memory the way Figs. 19–20 need: resident
//! structure for DOM/index engines, transient automaton/buffer state for
//! the streaming ones.
//!
//! The streaming engines read the parser's borrowed
//! [`xsq_xml::RawEvent`]s with `next_raw`, as XSQ does, so their
//! throughput is measured against the same event cost (§6).
//!
//! The DOM evaluators double as the **differential oracle** for XSQ: they
//! consume the same SAX events, implement the same XPath subset
//! semantics, and return results in the same (document) order.

pub mod dom;
pub mod lazydfa;
pub mod stx;
pub mod xqengine;

pub use dom::{GalaxLike, SaxonLike};
pub use lazydfa::XmltkLike;
pub use stx::JoostLike;
pub use xqengine::XqEngineLike;

/// Every study participant that implements the uniform engine interface,
/// in the paper's Fig. 14 order.
pub fn all_engines() -> Vec<Box<dyn xsq_core::XPathEngine>> {
    vec![
        Box::new(xsq_core::XsqF),
        Box::new(xsq_core::XsqNc),
        Box::new(XmltkLike),
        Box::new(SaxonLike),
        Box::new(XqEngineLike),
        Box::new(GalaxLike),
        Box::new(JoostLike),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_engines_lists_seven_systems() {
        let engines = all_engines();
        assert_eq!(engines.len(), 7);
        let names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            ["XSQ-F", "XSQ-NC", "XMLTK", "Saxon", "XQEngine", "Galax", "Joost"]
        );
    }

    #[test]
    fn capable_engines_agree_on_a_simple_path() {
        let doc = b"<a><b>one</b><c><b>nope</b></c><b>two</b></a>";
        let expected = ["one", "two"];
        for engine in all_engines() {
            let r = engine.run("/a/b/text()", doc).unwrap();
            assert_eq!(r.results, expected, "{} disagrees", engine.name());
        }
    }
}
