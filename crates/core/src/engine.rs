//! The public engine API: XSQ-F (full) and XSQ-NC (no closures).
//!
//! The paper ships two versions of the system (§6): **XSQ-F** supports
//! multiple predicates, aggregations, and closures via a nondeterministic
//! HPDT; **XSQ-NC** supports everything except closures and exploits the
//! resulting determinism — one current state, first matching arc, results
//! written out as soon as they are known. Both are instances of
//! [`XsqEngine`] here and share the HPDT compiler and runtime.

use std::io::BufRead;
use std::time::Instant;

use xsq_xml::StreamParser;
use xsq_xpath::{parse_query, Query};

use crate::build::{build_hpdt, Hpdt};
use crate::error::{CompileError, EngineError};
use crate::report::{Capabilities, PhaseTimings, RunReport, XPathEngine};
use crate::runtime::{RunStats, Runner};
use crate::sink::{Sink, VecSink};

/// Which XSQ variant to compile for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XsqMode {
    /// XSQ-F: nondeterministic, supports closures.
    Full,
    /// XSQ-NC: deterministic, rejects closure axes at compile time.
    NoClosure,
}

impl XsqMode {
    /// The engine that runs an HPDT compiled for this mode: `"XSQ-NC"`
    /// when the caller asked for it, `"XSQ-NC (auto)"` when the
    /// determinism proof routes a full-mode HPDT onto the fast path,
    /// `"XSQ-F"` otherwise. The one rule behind
    /// [`CompiledQuery::engine_label`] and `Analysis::engine`.
    pub(crate) fn label(self, hpdt: &Hpdt) -> &'static str {
        match self {
            XsqMode::NoClosure => "XSQ-NC",
            XsqMode::Full if hpdt.deterministic => "XSQ-NC (auto)",
            XsqMode::Full => "XSQ-F",
        }
    }
}

/// The XSQ engine: compiles XPath queries into HPDTs.
#[derive(Debug, Clone, Copy)]
pub struct XsqEngine {
    mode: XsqMode,
}

impl XsqEngine {
    /// The full engine (XSQ-F).
    pub fn full() -> Self {
        XsqEngine {
            mode: XsqMode::Full,
        }
    }

    /// The deterministic engine (XSQ-NC).
    pub fn no_closure() -> Self {
        XsqEngine {
            mode: XsqMode::NoClosure,
        }
    }

    pub fn mode(&self) -> XsqMode {
        self.mode
    }

    /// The engine-variant check, ahead of any HPDT construction: XSQ-NC
    /// refuses the closure axis. Single compiles and batch compiles
    /// ([`crate::multi::QuerySet::compile`]) both reject through here.
    pub(crate) fn check(&self, query: &Query) -> Result<(), CompileError> {
        if self.mode == XsqMode::NoClosure && query.has_closure() {
            return Err(CompileError::Unsupported {
                feature: "the closure axis //".into(),
                engine: "XSQ-NC".into(),
            });
        }
        Ok(())
    }

    /// Compile a query string.
    pub fn compile_str(&self, query: &str) -> Result<CompiledQuery, CompileError> {
        self.compile(&parse_query(query)?)
    }

    /// Compile a parsed query: build the HPDT (dead structure is never
    /// built, and sealing settles whether the artifact is deterministic
    /// and so runs first-match), then verify the builder's structural
    /// invariants (`analyze::checked`).
    pub fn compile(&self, query: &Query) -> Result<CompiledQuery, CompileError> {
        self.check(query)?;
        let hpdt = build_hpdt(query)?;
        crate::analyze::checked(&hpdt)?;
        Ok(CompiledQuery {
            hpdt,
            mode: self.mode,
        })
    }
}

/// A query compiled to an HPDT, ready to run over any number of streams.
#[derive(Debug)]
pub struct CompiledQuery {
    hpdt: Hpdt,
    mode: XsqMode,
}

impl CompiledQuery {
    /// The compiled automaton (dumps, invariant tests).
    pub fn hpdt(&self) -> &Hpdt {
        &self.hpdt
    }

    /// The engine variant this query was compiled for.
    pub fn mode(&self) -> XsqMode {
        self.mode
    }

    /// Is the automaton deterministic, auto-routing a query compiled
    /// for `XsqMode::Full` onto the XSQ-NC fast path?
    pub fn auto_nc(&self) -> bool {
        self.mode == XsqMode::Full && self.hpdt.deterministic
    }

    /// The engine that actually runs this query: `"XSQ-NC"` when the
    /// caller asked for it, `"XSQ-NC (auto)"` when the determinism proof
    /// routed a full-mode query onto the fast path, `"XSQ-F"` otherwise.
    pub fn engine_label(&self) -> &'static str {
        self.mode.label(&self.hpdt)
    }

    /// Start an incremental run — the streaming interface. Feed events as
    /// they arrive; results reach the sink as soon as the semantics
    /// permit.
    pub fn runner(&self) -> Runner<'_> {
        Runner::new(&self.hpdt)
    }

    /// Run over a complete serialized document.
    pub fn run_document(
        &self,
        document: &[u8],
        sink: &mut dyn Sink,
    ) -> Result<RunStats, EngineError> {
        self.run_reader(document, sink)
    }

    /// Run over any buffered reader (files, sockets).
    pub fn run_reader<R: BufRead>(
        &self,
        reader: R,
        sink: &mut dyn Sink,
    ) -> Result<RunStats, EngineError> {
        let mut parser = StreamParser::new(reader);
        let mut runner = self.runner();
        while let Some(ev) = parser.next_raw()? {
            runner.feed_raw(&ev, sink);
        }
        Ok(runner.finish(sink))
    }
}

/// One-call convenience: evaluate `query` over `document` with XSQ-F.
///
/// ```
/// let results = xsq_core::evaluate(
///     "//book[year>2000]/name/text()",
///     b"<pub><book><year>2002</year><name>N</name></book></pub>",
/// ).unwrap();
/// assert_eq!(results, ["N"]);
/// ```
pub fn evaluate(query: &str, document: &[u8]) -> Result<Vec<String>, EngineError> {
    let compiled = XsqEngine::full().compile_str(query)?;
    let mut sink = VecSink::new();
    compiled.run_document(document, &mut sink)?;
    Ok(sink.results)
}

// ---- the uniform cross-engine interface for the experiment harness ----

/// XSQ-F as a study participant.
#[derive(Debug, Default)]
pub struct XsqF;

/// XSQ-NC as a study participant.
#[derive(Debug, Default)]
pub struct XsqNc;

fn run_report(
    engine: XsqEngine,
    query: &str,
    document: &[u8],
) -> Result<RunReport, Box<dyn std::error::Error>> {
    let t0 = Instant::now();
    let compiled = engine.compile_str(query)?;
    let compile = t0.elapsed();
    let t1 = Instant::now();
    let mut sink = VecSink::new();
    let stats = compiled.run_document(document, &mut sink)?;
    let query_time = t1.elapsed();
    Ok(RunReport {
        results: sink.results,
        timings: PhaseTimings {
            compile,
            preprocess: std::time::Duration::ZERO,
            query: query_time,
        },
        memory: stats.memory,
        events: stats.events,
        engine: compiled.engine_label().to_string(),
    })
}

impl XPathEngine for XsqF {
    fn name(&self) -> &'static str {
        "XSQ-F"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            language: "XPath",
            streaming: true,
            multiple_predicates: true,
            closures: true,
            aggregation: true,
            buffered_predicate_eval: true,
        }
    }

    fn run(&self, query: &str, document: &[u8]) -> Result<RunReport, Box<dyn std::error::Error>> {
        run_report(XsqEngine::full(), query, document)
    }
}

impl XPathEngine for XsqNc {
    fn name(&self) -> &'static str {
        "XSQ-NC"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            language: "XPath",
            streaming: true,
            multiple_predicates: true,
            closures: false,
            aggregation: true,
            buffered_predicate_eval: true,
        }
    }

    fn run(&self, query: &str, document: &[u8]) -> Result<RunReport, Box<dyn std::error::Error>> {
        run_report(XsqEngine::no_closure(), query, document)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_convenience_works() {
        let r = evaluate("/a/b/text()", b"<a><b>x</b></a>").unwrap();
        assert_eq!(r, ["x"]);
    }

    #[test]
    fn nc_rejects_closures() {
        let err = XsqEngine::no_closure()
            .compile_str("//a/text()")
            .unwrap_err();
        assert!(matches!(err, CompileError::Unsupported { .. }));
    }

    #[test]
    fn nc_and_f_agree_on_closure_free_queries() {
        let q = "/pub[year=2002]/book[author]/name/text()";
        let doc = b"<pub><book><name>First</name><author>A</author></book>\
                    <book><name>Second</name></book><year>2002</year></pub>";
        let f: &dyn XPathEngine = &XsqF;
        let nc: &dyn XPathEngine = &XsqNc;
        let rf = f.run(q, doc).unwrap();
        let rnc = nc.run(q, doc).unwrap();
        assert_eq!(rf.results, rnc.results);
        assert_eq!(rf.results, ["First"]);
    }

    #[test]
    fn run_report_carries_memory_and_events() {
        let r = XsqF.run("/a/b/text()", b"<a><b>x</b></a>").unwrap();
        assert!(r.events >= 5);
        assert!(r.memory.peak_configs >= 1);
    }

    #[test]
    fn malformed_document_is_an_error() {
        let compiled = XsqEngine::full().compile_str("/a/text()").unwrap();
        let mut sink = VecSink::new();
        assert!(compiled.run_document(b"<a><b></a>", &mut sink).is_err());
    }

    #[test]
    fn closure_free_queries_auto_route_to_nc() {
        let c = XsqEngine::full().compile_str("/a/b/text()").unwrap();
        assert!(c.auto_nc());
        assert_eq!(c.engine_label(), "XSQ-NC (auto)");
        let c = XsqEngine::full().compile_str("//a/text()").unwrap();
        assert!(!c.auto_nc());
        assert_eq!(c.engine_label(), "XSQ-F");
        let c = XsqEngine::no_closure().compile_str("/a/b/text()").unwrap();
        assert_eq!(c.engine_label(), "XSQ-NC");
    }

    #[test]
    fn run_report_names_the_engine_that_ran() {
        let r = XsqF.run("/a/b/text()", b"<a><b>x</b></a>").unwrap();
        assert_eq!(r.engine, "XSQ-NC (auto)");
        let r = XsqF.run("//b/text()", b"<a><b>x</b></a>").unwrap();
        assert_eq!(r.engine, "XSQ-F");
        let r = XsqNc.run("/a/b/text()", b"<a><b>x</b></a>").unwrap();
        assert_eq!(r.engine, "XSQ-NC");
    }

    #[test]
    fn capabilities_match_fig_14() {
        assert!(XsqF.capabilities().closures);
        assert!(!XsqNc.capabilities().closures);
        assert!(XsqF.capabilities().streaming && XsqNc.capabilities().streaming);
    }
}
