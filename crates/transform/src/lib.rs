//! # xsq-transform — the streaming transformation engine
//!
//! One forward pass over an XML stream, rewriting it under `.xfm`
//! template rules (parsed by [`xsq_xpath::rules`]): each rule pairs a
//! match pattern in the streaming-safe XPath surface with an output
//! action — `copy`, `drop`, `rename(tag)`, `wrap(tag)`, plus attribute
//! operations. Elements matched by no rule copy through unchanged, so a
//! rule set is always a total transformation.
//!
//! The engine composes three existing layers:
//!
//! * the push-mode parser ([`xsq_xml::PushParser`]) — input arrives in
//!   arbitrary chunks; the event stream (and therefore the output) is
//!   byte-identical under any chunking;
//! * a pattern [`matcher`] in the style of the paper's HPDT
//!   configuration sets, specialized for per-element verdicts with the
//!   BPDT predicate timings of §3.2 (plus the transform-only
//!   `position()`/`last()` predicates the selection engines reject);
//! * a [`rewrite`] stage that streams decided regions immediately and
//!   holds back only regions whose verdict is still pending — the
//!   transform analogue of the paper's output buffers, with
//!   `peak_buffered` reported so the cost is observable.
//!
//! Matcher and rewriter allocate while a session warms up and then
//! stop: frames are pooled, held-back output is one ordered log, and the
//! tables both keep are emptied whenever nothing is pending.
//!
//! At compile time, every pattern already went through
//! [`xsq_xpath::rules::RuleSet::parse`]'s streamability gate; patterns in
//! the classic Fig. 3 surface are additionally pushed through the HPDT
//! build/verify/lint pipeline of `xsq-core` — its diagnostics (e.g.
//! statically unsatisfiable predicates) surface as compile warnings.

pub mod matcher;
pub mod rewrite;

use std::fmt;

use matcher::{MatchDecision, Matcher, Program};
use rewrite::{BeginDecision, Rewriter};
use xsq_xml::dtd::Dtd;
use xsq_xml::{ParsePoll, PushParser, RawEvent, StreamParser};
use xsq_xpath::{RuleError, RuleSet};

pub use rewrite::TransformStats;
pub use xsq_core::MemoryBound;

/// A compiled transformation.
#[derive(Debug)]
pub struct Transformer {
    rules: RuleSet,
    /// The patterns as the matcher runs them.
    program: Program,
    /// Non-fatal findings from the rule compiler (unsatisfiable
    /// predicates, structural lints from the HPDT verifier).
    pub warnings: Vec<String>,
    /// Per-rule static memory bound from the selection analyzer, in
    /// rule order. `None` for patterns outside the classic HPDT surface
    /// (`position()`/`last()` predicates), whose pending regions the
    /// bound model does not cover.
    bounds: Vec<Option<MemoryBound>>,
}

/// The result of transforming one document.
#[derive(Debug)]
pub struct TransformOutput {
    pub xml: String,
    pub stats: TransformStats,
}

/// An error raised while transforming.
#[derive(Debug)]
pub enum TransformError {
    /// The rules file failed to compile.
    Rules(RuleError),
    /// The input document is not well formed.
    Xml(xsq_xml::Error),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::Rules(e) => write!(f, "rules: {e}"),
            TransformError::Xml(e) => write!(f, "xml: {e}"),
        }
    }
}

impl std::error::Error for TransformError {}

impl From<xsq_xml::Error> for TransformError {
    fn from(e: xsq_xml::Error) -> Self {
        TransformError::Xml(e)
    }
}

impl Transformer {
    /// Compile a `.xfm` rules file. Non-streamable patterns are rejected
    /// with a spanned [`RuleError`]; patterns in the classic HPDT surface
    /// are built and verified through the `xsq-core` analyzer, whose
    /// lints become [`warnings`](Self::warnings).
    pub fn compile(rules_text: &str) -> Result<Transformer, RuleError> {
        Transformer::compile_with_dtd(rules_text, None)
    }

    /// [`compile`](Self::compile) with a schema: each classic-surface
    /// pattern additionally gets a static memory bound on its pending
    /// (verdict-undecided) regions, proven against `dtd` by the
    /// selection engine's bound analyzer. The bounds are advisory —
    /// they never change the transformation — and feed
    /// [`reorder_ready`](Self::reorder_ready).
    pub fn compile_with_dtd(rules_text: &str, dtd: Option<&Dtd>) -> Result<Transformer, RuleError> {
        let rules = RuleSet::parse(rules_text)?;
        let mut warnings = Vec::new();
        let mut bounds = Vec::with_capacity(rules.rules.len());
        for rule in &rules.rules {
            // Query-level lints apply to every pattern.
            for d in xsq_core::analyze::lint_query(&rule.pattern) {
                warnings.push(format!("rule at line {}: {d}", rule.line));
            }
            // Classic-surface patterns also validate through the HPDT
            // pipeline: build, structural verify, prune. Transform-only
            // predicates (position()/last()) are outside that surface.
            if xsq_xpath::streamability(&rule.pattern).hpdt_supported() {
                match xsq_core::analyze_with_dtd(&rule.pattern, dtd) {
                    Ok(analysis) => {
                        for d in analysis.diagnostics.iter().filter(|d| d.is_error()) {
                            warnings.push(format!("rule at line {}: {d}", rule.line));
                        }
                        bounds.push(Some(analysis.bound.bound));
                    }
                    Err(e) => {
                        warnings.push(format!("rule at line {}: hpdt: {e}", rule.line));
                        bounds.push(None);
                    }
                }
            } else {
                bounds.push(None);
            }
        }
        Ok(Transformer {
            program: Program::new(&rules),
            rules,
            warnings,
            bounds,
        })
    }

    /// The compiled rule set.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Per-rule static memory bounds, in rule order (see the field doc
    /// on why an entry can be `None`).
    pub fn rule_bounds(&self) -> &[Option<MemoryBound>] {
        &self.bounds
    }

    /// True when every rule's pending-region buffering is statically
    /// bounded by a document-independent item count (Zero or Items).
    /// Such a rule set can be scheduled out of document order — e.g.
    /// fused with a reordering pipeline stage — with bounded memory;
    /// `PerDepth`, `Unbounded`, and out-of-surface rules cannot make
    /// that promise.
    pub fn reorder_ready(&self) -> bool {
        self.bounds
            .iter()
            .all(|b| b.as_ref().is_some_and(|b| b.items().is_some()))
    }

    /// Transform a complete document held in memory.
    pub fn transform(&self, input: &[u8]) -> Result<TransformOutput, TransformError> {
        let mut session = self.session();
        let mut xml = String::new();
        session.push_into(input, &mut xml)?;
        let tail = session.finish()?;
        xml.push_str(&tail.xml);
        Ok(TransformOutput {
            xml,
            stats: tail.stats,
        })
    }

    /// Start an incremental push-mode session. Chunks may split the
    /// document anywhere; output is identical for every chunking.
    pub fn session(&self) -> TransformSession<'_> {
        TransformSession {
            parser: StreamParser::push_mode(),
            matcher: Matcher::new(&self.program),
            rewriter: Rewriter::new(&self.rules.rules),
            failed: false,
        }
    }
}

/// An in-flight push-mode transformation over one document.
pub struct TransformSession<'t> {
    parser: PushParser,
    matcher: Matcher<'t>,
    rewriter: Rewriter<'t>,
    failed: bool,
}

impl TransformSession<'_> {
    /// Feed a chunk and append the output bytes that became final to
    /// `out`. A caller that hands the same (cleared) buffer to every
    /// call transforms without allocating once the session has warmed
    /// up. On error, `out` holds the output up to the offending token.
    pub fn push_into(&mut self, chunk: &[u8], out: &mut String) -> Result<(), TransformError> {
        self.parser.push(chunk);
        self.drain(out)
    }

    /// Feed a chunk and return the output bytes that became final.
    pub fn push(&mut self, chunk: &[u8]) -> Result<String, TransformError> {
        let mut out = String::new();
        self.push_into(chunk, &mut out).map(|()| out)
    }

    /// Signal end of input and return the remaining output plus stats.
    pub fn finish(mut self) -> Result<TransformOutput, TransformError> {
        self.parser.finish();
        let mut xml = String::new();
        self.drain(&mut xml)?;
        debug_assert_eq!(self.matcher.open_pendings(), 0);
        let stats = self.rewriter.finish();
        Ok(TransformOutput { xml, stats })
    }

    fn drain(&mut self, out: &mut String) -> Result<(), TransformError> {
        if self.failed {
            return Ok(());
        }
        let before = out.len();
        let polled = self.poll_events(out);
        self.rewriter.stats.bytes_out += (out.len() - before) as u64;
        polled
    }

    fn poll_events(&mut self, out: &mut String) -> Result<(), TransformError> {
        loop {
            // The raw event borrows the parser and the resolutions borrow
            // the matcher, so the loop body touches the three stages only
            // as separate fields.
            let resolutions = match self.parser.poll_raw() {
                Err(e) => {
                    self.failed = true;
                    return Err(e.into());
                }
                Ok(ParsePoll::NeedMore) | Ok(ParsePoll::End) => return Ok(()),
                Ok(ParsePoll::Event(ev)) => match ev {
                    RawEvent::StartDocument | RawEvent::EndDocument => continue,
                    RawEvent::Begin {
                        name, attributes, ..
                    } => {
                        let (decision, resolutions) = self.matcher.begin(name, attributes);
                        let d = match decision {
                            MatchDecision::Decided(r) => BeginDecision::Decided(r),
                            MatchDecision::Pending(p) => BeginDecision::Pending(p),
                        };
                        self.rewriter.begin(out, name, attributes, d);
                        resolutions
                    }
                    RawEvent::Text { element, text, .. } => {
                        self.rewriter.text(out, text);
                        self.matcher.text_of(element, text)
                    }
                    RawEvent::End { .. } => {
                        self.rewriter.end(out);
                        self.matcher.end()
                    }
                },
            };
            for r in resolutions {
                self.rewriter.resolve(out, r.pending, r.rule);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rules: &str, doc: &str) -> String {
        Transformer::compile(rules)
            .unwrap()
            .transform(doc.as_bytes())
            .unwrap()
            .xml
    }

    #[test]
    fn identity_when_nothing_matches() {
        let out = run("/nope => drop", "<a x=\"1\"><b>t &amp; u</b></a>");
        assert_eq!(out, "<a x=\"1\"><b>t &amp; u</b></a>");
    }

    #[test]
    fn drop_removes_subtrees() {
        let out = run("//b => drop", "<a><b><c>x</c></b>keep<b/></a>");
        assert_eq!(out, "<a>keep</a>");
    }

    #[test]
    fn rename_and_wrap_and_attrs() {
        let out = run(
            "//b => rename(x)\n//c => wrap(w) +@seen=\"1\"",
            "<a><b old=\"v\">t</b><c/></a>",
        );
        assert_eq!(out, "<a><x old=\"v\">t</x><w><c seen=\"1\"></c></w></a>");
    }

    #[test]
    fn deferred_verdicts_buffer_and_release() {
        // [year=2002] resolves only after book closed.
        let rules = "//pub[year=2002]//book => wrap(hit)";
        let doc = "<pub><book>B</book><year>2002</year></pub>";
        let t = Transformer::compile(rules).unwrap();
        let out = t.transform(doc.as_bytes()).unwrap();
        assert_eq!(
            out.xml,
            "<pub><hit><book>B</book></hit><year>2002</year></pub>"
        );
        assert!(out.stats.peak_buffered > 0, "the book had to buffer");
        assert_eq!(out.stats.deferred, 1);

        let doc = "<pub><book>B</book><year>1999</year></pub>";
        let out = t.transform(doc.as_bytes()).unwrap();
        assert_eq!(out.xml, "<pub><book>B</book><year>1999</year></pub>");
    }

    #[test]
    fn first_match_wins_in_file_order() {
        let rules = "//b[@keep] => copy\n//b => drop";
        let out = run(rules, "<a><b keep=\"1\">x</b><b>y</b></a>");
        assert_eq!(out, "<a><b keep=\"1\">x</b></a>");
    }

    #[test]
    fn drop_inside_pending_region() {
        // c is dropped inside a book whose own verdict is pending.
        let rules = "//pub[year=2002]//book => rename(hit)\n//c => drop";
        let out = run(
            rules,
            "<pub><book><c>no</c>yes</book><year>2002</year></pub>",
        );
        assert_eq!(out, "<pub><hit>yes</hit><year>2002</year></pub>");
    }

    #[test]
    fn pending_inside_dropped_region_is_discarded() {
        // The pending element's resolution arrives after its subtree was
        // dropped with its ancestor; nothing must leak.
        let rules = "//b => drop\n//c[d] => wrap(w)";
        let out = run(rules, "<a><b><c><d/></c></b>tail</a>");
        assert_eq!(out, "<a>tail</a>");
    }

    #[test]
    fn last_on_the_root_step_settles_when_the_root_closes() {
        // The document has no end event to confirm the root's `last()`;
        // without one the whole document stayed held back.
        let out = run("/*[last()]/b => rename(x)", "<a><b>1</b><c/></a>");
        assert_eq!(out, "<a><x>1</x><c></c></a>");
        let out = run("/a[last()] => wrap(only)", "<a><b/></a>");
        assert_eq!(out, "<only><a><b></b></a></only>");
    }

    #[test]
    fn chunked_output_concatenates_identically() {
        let rules = "//b[c] => rename(x)\n//d => drop";
        let doc = "<a><b><c>1</c></b><b>2</b><d>gone</d>t &lt; u</a>";
        let t = Transformer::compile(rules).unwrap();
        let whole = t.transform(doc.as_bytes()).unwrap().xml;
        for chunk in [1usize, 3, 7, 64] {
            let mut session = t.session();
            let mut out = String::new();
            for piece in doc.as_bytes().chunks(chunk) {
                session.push_into(piece, &mut out).unwrap();
            }
            let fin = session.finish().unwrap();
            out.push_str(&fin.xml);
            assert_eq!(out, whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn malformed_input_is_an_error() {
        let t = Transformer::compile("//b => drop").unwrap();
        assert!(matches!(
            t.transform(b"<a><b></a>"),
            Err(TransformError::Xml(_))
        ));
    }

    #[test]
    fn unsatisfiable_pattern_predicates_warn() {
        let t = Transformer::compile("/a[price<abc]/b => drop").unwrap();
        assert_eq!(t.warnings.len(), 1);
        assert!(t.warnings[0].contains("unsatisfiable"), "{:?}", t.warnings);
    }

    #[test]
    fn schema_bounds_gate_reordering_readiness() {
        let dtd = Dtd::parse(
            "<!ELEMENT dblp ((article | inproceedings)*)>\
             <!ELEMENT article (author*, title, year, pages)>\
             <!ELEMENT inproceedings (author*, title, year, pages, booktitle?)>\
             <!ELEMENT author (#PCDATA)> <!ELEMENT title (#PCDATA)>\
             <!ELEMENT year (#PCDATA)> <!ELEMENT pages (#PCDATA)>\
             <!ELEMENT booktitle (#PCDATA)>",
        )
        .unwrap();
        let rules = "/dblp/inproceedings[author]/title => rename(t)\n\
                     /dblp/article => copy +@seen=\"1\"";
        // With the schema, the predicate rule's pending region is proven
        // bounded, so the whole rule set is reorder-ready.
        let t = Transformer::compile_with_dtd(rules, Some(&dtd)).unwrap();
        assert!(
            matches!(t.rule_bounds()[0], Some(MemoryBound::Items(_))),
            "{:?}",
            t.rule_bounds()
        );
        assert_eq!(t.rule_bounds()[1], Some(MemoryBound::Zero));
        assert!(t.reorder_ready());
        // Without it, the same predicate has no static bound.
        let bare = Transformer::compile(rules).unwrap();
        assert!(
            matches!(bare.rule_bounds()[0], Some(MemoryBound::Unbounded { .. })),
            "{:?}",
            bare.rule_bounds()
        );
        assert!(!bare.reorder_ready());
        // Out-of-surface patterns (position()) carry no bound at all and
        // block reordering even under a schema.
        let pos = Transformer::compile_with_dtd("/dblp/article[position()=1] => drop", Some(&dtd))
            .unwrap();
        assert_eq!(pos.rule_bounds(), [None]);
        assert!(!pos.reorder_ready());
        // The bounds are advisory: output is identical with and without.
        let doc = "<dblp><inproceedings><author>a</author><title>T</title>\
                   </inproceedings></dblp>";
        assert_eq!(
            t.transform(doc.as_bytes()).unwrap().xml,
            bare.transform(doc.as_bytes()).unwrap().xml,
        );
    }
}
