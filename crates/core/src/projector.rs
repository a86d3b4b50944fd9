//! Stream projection: drop events a query can never observe.
//!
//! The XML Toolkit the paper benchmarks against pairs its lazy DFA with
//! *stream projection* — forwarding only the events on root-to-match
//! paths. This module implements projection for the full XSQ query
//! class (predicates included): a [`Projector`] sits between the parser
//! and any consumer and keeps exactly
//!
//! * elements that structurally match some step prefix (they may lie on
//!   a path to a result),
//! * predicate **witness children** of matched elements (the data that
//!   decides `[child]`, `[child@attr…]`, `[child op v]`),
//! * text of kept elements (own-text predicates, `text()` output,
//!   numeric aggregates), and
//! * whole subtrees of fully matched elements when the query returns
//!   elements (the catchall output needs them).
//!
//! The kept set is ancestor-closed, so depths and well-formedness are
//! preserved, and running XSQ on the projected stream yields **exactly**
//! the original results (a differential property test enforces this).
//! For selective path queries the projection discards most of the
//! stream; for `//`-rooted queries it degrades gracefully to a no-op,
//! matching the real tool's behavior.

use xsq_xml::{RawEvent, SaxEvent};
use xsq_xpath::{Axis, Output, Predicate, Query};

/// A streaming event filter specialized to one query.
///
/// ```
/// use xsq_core::Projector;
///
/// let query = xsq_xpath::parse_query("/r/keep/v/text()").unwrap();
/// let events = xsq_xml::parse_to_events(
///     b"<r><keep><v>x</v></keep><skip><deep>y</deep></skip></r>",
/// ).unwrap();
/// let mut p = Projector::new(&query);
/// let kept: Vec<_> = events.iter().filter(|e| p.keep(&e.as_raw())).collect();
/// assert!(kept.len() < events.len());
/// assert!(p.dropped_events() > 0);
/// ```
#[derive(Debug)]
pub struct Projector {
    /// Node test per step.
    steps: Vec<StepSpec>,
    element_output: bool,
    /// Stack frames: (kept?, match-bit-set, inside-full-match?).
    stack: Vec<Frame>,
    kept: u64,
    dropped: u64,
}

#[derive(Debug)]
struct StepSpec {
    test: xsq_xpath::NodeTest,
    closure: bool,
    /// Tag of the predicate's witness child, if the predicate looks at
    /// children.
    witness_child: Option<String>,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    kept: bool,
    /// Bit `i` ⇔ the path to this element matches steps `1..=i`
    /// (bit 0 = "zero steps matched", always derivable at the root).
    bits: u64,
    inside_full_match: bool,
}

impl Projector {
    /// Build a projector for a query (≤ 62 steps).
    pub fn new(query: &Query) -> Self {
        debug_assert!(query.steps.len() <= 62);
        let steps = query
            .steps
            .iter()
            .map(|s| StepSpec {
                test: s.test.clone(),
                closure: s.axis == Axis::Closure,
                witness_child: match &s.predicate {
                    Some(Predicate::Child { name }) => Some(name.clone()),
                    Some(Predicate::ChildAttr { child, .. }) => Some(child.clone()),
                    Some(Predicate::ChildText { child, .. }) => Some(child.clone()),
                    _ => None,
                },
            })
            .collect();
        Projector {
            steps,
            element_output: query.output == Output::Element,
            stack: Vec::new(),
            kept: 0,
            dropped: 0,
        }
    }

    /// Should this event be forwarded to the consumer?
    pub fn keep(&mut self, event: &RawEvent<'_>) -> bool {
        let n = self.steps.len();
        let decision = match event {
            RawEvent::StartDocument | RawEvent::EndDocument => true,
            RawEvent::Begin { name, .. } => {
                let parent = self.stack.last().copied().unwrap_or(Frame {
                    kept: true,
                    bits: 1, // zero steps matched at the document node
                    inside_full_match: false,
                });
                // NFA step over the match bits.
                let mut bits = 0u64;
                for i in 0..n {
                    if parent.bits & (1 << i) == 0 {
                        continue;
                    }
                    if self.steps[i].test.matches(name.as_str()) {
                        bits |= 1 << (i + 1);
                    }
                    if self.steps[i].closure {
                        bits |= 1 << i;
                    }
                }
                // Witness child of a matched ancestor? Only direct
                // children count for the §3.2 predicate categories.
                let witness = (1..=n).any(|j| {
                    parent.bits & (1 << j) != 0
                        && self.steps[j - 1]
                            .witness_child
                            .as_deref()
                            .is_some_and(|w| *name == *w)
                });
                let inside_full_match = parent.inside_full_match
                    || (self.element_output && parent.bits & (1 << n) != 0);
                // The document element is always forwarded so the
                // projected stream stays a well-formed document even for
                // queries that match nothing.
                let is_root = self.stack.is_empty();
                let kept = parent.kept && (bits != 0 || witness || inside_full_match || is_root);
                self.stack.push(Frame {
                    kept,
                    bits,
                    inside_full_match,
                });
                kept
            }
            RawEvent::End { .. } => self.stack.pop().map(|f| f.kept).unwrap_or(true),
            RawEvent::Text { .. } => self.stack.last().is_some_and(|f| f.kept),
        };
        if decision {
            self.kept += 1;
        } else {
            self.dropped += 1;
        }
        decision
    }

    /// Events forwarded so far.
    pub fn kept_events(&self) -> u64 {
        self.kept
    }

    /// Events discarded so far.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Fraction of events discarded (0 when nothing processed yet).
    pub fn selectivity(&self) -> f64 {
        let total = self.kept + self.dropped;
        if total == 0 {
            0.0
        } else {
            self.dropped as f64 / total as f64
        }
    }
}

/// Project a whole event sequence (tests, offline pipelines).
pub fn project_events(query: &Query, events: &[SaxEvent]) -> Vec<SaxEvent> {
    let mut p = Projector::new(query);
    events
        .iter()
        .filter(|e| p.keep(&e.as_raw()))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::XsqEngine;
    use crate::sink::VecSink;
    use xsq_xpath::parse_query;

    fn run_projected(query: &str, doc: &[u8]) -> (Vec<String>, Vec<String>, f64) {
        let q = parse_query(query).unwrap();
        let events = xsq_xml::parse_to_events(doc).unwrap();
        let mut p = Projector::new(&q);
        let projected: Vec<SaxEvent> = events
            .iter()
            .filter(|e| p.keep(&e.as_raw()))
            .cloned()
            .collect();
        let compiled = XsqEngine::full().compile(&q).unwrap();
        let run = |events: &[SaxEvent]| {
            let mut sink = VecSink::new();
            let mut runner = compiled.runner();
            for e in events {
                runner.feed_raw(&e.as_raw(), &mut sink);
            }
            runner.finish(&mut sink);
            sink.results
        };
        (run(&events), run(&projected), p.selectivity())
    }

    #[test]
    fn selective_paths_drop_most_of_the_stream() {
        let doc = xsq_datagen_free_doc();
        let (orig, proj, selectivity) = run_projected("/r/keep/v/text()", doc.as_bytes());
        assert_eq!(orig, proj);
        assert_eq!(orig, ["x"]);
        assert!(selectivity > 0.5, "selectivity {selectivity}");
    }

    fn xsq_datagen_free_doc() -> String {
        let mut doc = String::from("<r><keep><v>x</v></keep>");
        for i in 0..50 {
            doc.push_str(&format!("<junk><deep><deeper>{i}</deeper></deep></junk>"));
        }
        doc.push_str("</r>");
        doc
    }

    #[test]
    fn witness_children_survive_projection() {
        // The author witness is not on the output path but decides the
        // predicate — it must be kept.
        let doc = b"<pub><book><title>T</title><author>A</author></book>\
                    <book><title>U</title></book></pub>";
        let (orig, proj, _) = run_projected("/pub/book[author]/title/text()", doc);
        assert_eq!(orig, proj);
        assert_eq!(orig, ["T"]);
    }

    #[test]
    fn child_text_witness_survives() {
        let doc = b"<pub><item><price>10</price><name>cheap</name></item>\
                    <item><price>99</price><name>dear</name></item></pub>";
        let (orig, proj, _) = run_projected("/pub/item[price<50]/name/text()", doc);
        assert_eq!(orig, proj);
        assert_eq!(orig, ["cheap"]);
    }

    #[test]
    fn element_output_keeps_whole_match_subtrees() {
        let doc = b"<r><e><deep><deeper>x</deeper></deep></e><other><skip/></other></r>";
        let (orig, proj, _) = run_projected("/r/e", doc);
        assert_eq!(orig, proj);
        assert_eq!(orig, ["<e><deep><deeper>x</deeper></deep></e>"]);
    }

    #[test]
    fn closure_rooted_queries_keep_everything() {
        let doc = b"<a><b><c>1</c></b></a>";
        let q = parse_query("//c/text()").unwrap();
        let events = xsq_xml::parse_to_events(doc).unwrap();
        let projected = project_events(&q, &events);
        assert_eq!(projected.len(), events.len(), "no false drops possible");
    }

    #[test]
    fn ancestor_closure_of_the_kept_set() {
        // Every kept begin's ancestors are kept: depths in the projected
        // stream are consistent, so it re-parses as a valid event stream.
        let doc = xsq_datagen_free_doc();
        let q = parse_query("/r/keep/v/text()").unwrap();
        let events = xsq_xml::parse_to_events(doc.as_bytes()).unwrap();
        let projected = project_events(&q, &events);
        assert!(xsq_xml::WellFormednessPda::accepts(&projected));
    }
}
