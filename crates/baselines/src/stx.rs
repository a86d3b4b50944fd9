//! Joost-like engine: Simple Transformations for XML (STX).
//!
//! STX "uses boolean program variables to store the results of each
//! predicate … For any element in an XML stream, only the data that
//! *precedes* it can be used to determine the actions on the element"
//! (paper, §5). This stand-in reproduces that design point faithfully:
//!
//! * one forward pass, no buffering of potential results;
//! * per-open-element predicate flags, set the moment a witness arrives;
//! * a value is emitted iff, **at the instant it appears**, some match
//!   chain has every predicate flag already true.
//!
//! Consequently it agrees with XSQ on documents where predicates are
//! satisfied before the data they gate (e.g. `<year>` first), and misses
//! results otherwise — the simplification the paper contrasts against
//! Examples 1 and 2. The ordering experiment (Fig. 21) exercises exactly
//! this.

use std::time::Instant;

use xsq_core::{Capabilities, MemoryStats, PhaseTimings, RunReport, XPathEngine};
use xsq_xml::writer::write_raw_event_into;
use xsq_xml::{RawEvent, StreamParser, Sym};
use xsq_xpath::{parse_query, AggFunc, Axis, Output, Predicate, Query};

/// One open element on the stack.
struct Frame {
    name: Sym,
    /// `matched[i]` = Some(flag): this element matches steps `0..=i` of
    /// the location path structurally; `flag` = predicate of step `i`
    /// known satisfied (from preceding data only).
    matched: Vec<Option<bool>>,
    /// The result slot of an open whole-element capture (only if the
    /// chain was true at begin). It is reserved at the begin event, so
    /// nested results keep document order although the inner one closes
    /// first.
    capture: Option<usize>,
}

/// The Joost-like study participant.
#[derive(Debug, Default)]
pub struct JoostLike;

struct StxRun<'q> {
    query: &'q Query,
    stack: Vec<Frame>,
    results: Vec<String>,
    count: u64,
    sum: f64,
    peak_stack: usize,
}

impl<'q> StxRun<'q> {
    fn new(query: &'q Query) -> Self {
        StxRun {
            query,
            stack: Vec::new(),
            results: Vec::new(),
            count: 0,
            sum: 0.0,
            peak_stack: 0,
        }
    }

    /// Is there a chain `f0 … fk` of stack frames ending at `frame_idx`
    /// with all structural matches and all predicate flags true up to
    /// step `step`?
    fn chain_true(&self, frame_idx: usize, step: usize) -> bool {
        let frame = &self.stack[frame_idx];
        match frame.matched[step] {
            Some(true) => {}
            _ => return false,
        }
        if step == 0 {
            return true;
        }
        match self.query.steps[step].axis {
            Axis::Child => frame_idx > 0 && self.chain_true(frame_idx - 1, step - 1),
            Axis::Closure => (0..frame_idx).any(|j| self.chain_true(j, step - 1)),
            _ => false, // reverse axes are rejected at run entry
        }
    }

    fn on_begin(&mut self, ev: &RawEvent<'_>, name: Sym, depth: u32) {
        let n = self.query.steps.len();
        let mut matched = vec![None; n];
        for (i, step) in self.query.steps.iter().enumerate() {
            if !step.test.matches(name.as_str()) {
                continue;
            }
            let structurally = if i == 0 {
                match step.axis {
                    Axis::Child => depth == 1,
                    Axis::Closure => true,
                    _ => false, // reverse axes are rejected at run entry
                }
            } else {
                match step.axis {
                    Axis::Child => self
                        .stack
                        .last()
                        .is_some_and(|p| p.matched[i - 1].is_some()),
                    Axis::Closure => self.stack.iter().any(|f| f.matched[i - 1].is_some()),
                    _ => false, // reverse axes are rejected at run entry
                }
            };
            if !structurally {
                continue;
            }
            // Predicate flags decidable at begin time: attribute tests
            // and "no predicate".
            let flag = match &step.predicate {
                None => true,
                Some(Predicate::Attr { name: a, cmp }) => match ev.attribute(a) {
                    None => false,
                    Some(v) => cmp.as_ref().is_none_or(|c| c.eval(v)),
                },
                _ => false, // awaits a witness from later (preceding the use)
            };
            matched[i] = Some(flag);
        }

        // This begin event may *witness* predicates on the parent frame
        // (child-existence and child-attribute categories) — forward-only:
        // it benefits later values, never earlier ones.
        if let Some(parent) = self.stack.last_mut() {
            for (i, step) in self.query.steps.iter().enumerate() {
                let witness = match &step.predicate {
                    Some(Predicate::Child { name: c }) => c == &name,
                    Some(Predicate::ChildAttr { child, attr, cmp }) => {
                        child == &name
                            && match ev.attribute(attr) {
                                None => false,
                                Some(v) => cmp.as_ref().is_none_or(|c| c.eval(v)),
                            }
                    }
                    _ => false,
                };
                if witness {
                    if let Some(flag) = &mut parent.matched[i] {
                        *flag = true;
                    }
                }
            }
        }

        self.stack.push(Frame {
            name,
            matched,
            capture: None,
        });
        self.peak_stack = self.peak_stack.max(self.stack.len());

        // Value productions anchored at begin events.
        let last = self.stack.len() - 1;
        let final_step = n - 1;
        if self.stack[last].matched[final_step].is_some() && self.chain_true(last, final_step) {
            match &self.query.output {
                Output::Attr(a) => {
                    if let Some(v) = ev.attribute(a) {
                        self.results.push(v.to_string());
                    }
                }
                Output::Aggregate(AggFunc::Count) => self.count += 1,
                Output::Element => {
                    let mut buf = String::new();
                    write_raw_event_into(ev, &mut buf);
                    self.stack[last].capture = Some(self.results.len());
                    self.results.push(buf);
                }
                _ => {}
            }
        }
    }

    fn on_text(&mut self, ev: &RawEvent<'_>, text: &str) {
        let n = self.query.steps.len();
        // Witness text predicates: the top frame's own-text test and the
        // parent frame's child-text test.
        let top = self.stack.len() - 1;
        for (i, step) in self.query.steps.iter().enumerate() {
            if let Some(Predicate::Text { cmp }) = &step.predicate {
                if cmp.as_ref().is_none_or(|c| c.eval(text)) {
                    if let Some(flag) = &mut self.stack[top].matched[i] {
                        *flag = true;
                    }
                }
            }
            if top > 0 {
                if let Some(Predicate::ChildText { child, cmp }) = &step.predicate {
                    if child == &self.stack[top].name && cmp.eval(text) {
                        if let Some(flag) = &mut self.stack[top - 1].matched[i] {
                            *flag = true;
                        }
                    }
                }
            }
        }
        // Value productions anchored at text events.
        if self.stack[top].matched[n - 1].is_some() && self.chain_true(top, n - 1) {
            match &self.query.output {
                Output::Text => self.results.push(text.to_string()),
                Output::Aggregate(AggFunc::Sum) => {
                    self.sum += xsq_xpath::value::str_to_number(text);
                }
                _ => {}
            }
        }
        // Feed open captures.
        self.append_captures(ev);
    }

    fn append_captures(&mut self, ev: &RawEvent<'_>) {
        let skip_top_begin = ev.is_begin();
        let len = self.stack.len();
        for (i, f) in self.stack.iter().enumerate() {
            // The newly pushed frame already serialized its own begin tag.
            if skip_top_begin && i == len - 1 {
                continue;
            }
            if let Some(slot) = f.capture {
                write_raw_event_into(ev, &mut self.results[slot]);
            }
        }
    }

    fn on_end(&mut self, ev: &RawEvent<'_>) {
        self.append_captures(ev);
        self.stack.pop();
    }

    fn finish(mut self) -> (Vec<String>, u64) {
        match self.query.output {
            Output::Aggregate(AggFunc::Count) => self.results.push(self.count.to_string()),
            Output::Aggregate(AggFunc::Sum) => self
                .results
                .push(xsq_xpath::value::canonical_number(self.sum)),
            _ => {}
        }
        (self.results, self.peak_stack as u64)
    }
}

impl XPathEngine for JoostLike {
    fn name(&self) -> &'static str {
        "Joost"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            language: "STX",
            streaming: true,
            multiple_predicates: true,
            closures: true,
            aggregation: true,
            // The defining restriction: predicates use preceding data only.
            buffered_predicate_eval: false,
        }
    }

    fn run(&self, query: &str, document: &[u8]) -> Result<RunReport, Box<dyn std::error::Error>> {
        let t0 = Instant::now();
        let q = parse_query(query)?;
        if matches!(
            q.output,
            Output::Aggregate(AggFunc::Avg)
                | Output::Aggregate(AggFunc::Min)
                | Output::Aggregate(AggFunc::Max)
        ) {
            return Err(Box::new(xsq_core::report::Unsupported(
                "STX stand-in supports count() and sum() only".into(),
            )));
        }
        if let Some(feature) = q.extended_feature() {
            return Err(Box::new(xsq_core::report::Unsupported(format!(
                "STX stand-in implements the Fig. 3 subset only (query uses {feature})"
            ))));
        }
        let compile = t0.elapsed();
        let t1 = Instant::now();
        let mut run = StxRun::new(&q);
        let mut parser = StreamParser::new(document);
        let mut events = 0u64;
        while let Some(ev) = parser.next_raw()? {
            events += 1;
            match ev {
                RawEvent::Begin { name, depth, .. } => {
                    run.on_begin(&ev, name, depth);
                    // Captures of *enclosing* frames receive this begin.
                    run.append_captures(&ev);
                }
                RawEvent::Text { text, .. } => run.on_text(&ev, text),
                RawEvent::End { .. } => run.on_end(&ev),
                _ => {}
            }
        }
        let (results, peak_stack) = run.finish();
        let query_time = t1.elapsed();
        Ok(RunReport {
            results,
            timings: PhaseTimings {
                compile,
                preprocess: std::time::Duration::ZERO,
                query: query_time,
            },
            memory: MemoryStats {
                peak_bytes: peak_stack * 64,
                ..Default::default()
            },
            events,
            engine: self.name().to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agrees_with_xsq_when_predicates_precede_values() {
        // year comes first: forward-only evaluation suffices.
        let doc = b"<pub><year>2002</year><book><author>A</author>\
                    <name>N</name></book></pub>";
        let q = "/pub[year=2002]/book[author]/name/text()";
        let stx = JoostLike.run(q, doc).unwrap().results;
        let xsq = xsq_core::evaluate(q, doc).unwrap();
        assert_eq!(stx, xsq);
        assert_eq!(stx, ["N"]);
    }

    #[test]
    fn misses_results_gated_by_later_data() {
        // year comes last: STX cannot retroactively release the name.
        let doc = b"<pub><book><author>A</author><name>N</name></book>\
                    <year>2002</year></pub>";
        let q = "/pub[year=2002]/book/name/text()";
        let stx = JoostLike.run(q, doc).unwrap().results;
        assert!(stx.is_empty(), "STX is forward-only");
        let xsq = xsq_core::evaluate(q, doc).unwrap();
        assert_eq!(xsq, ["N"]); // XSQ buffers and gets it right
    }

    #[test]
    fn closures_work() {
        let doc = b"<a><x><b>1</b></x><b>2</b></a>";
        let r = JoostLike.run("//b/text()", doc).unwrap();
        assert_eq!(r.results, ["1", "2"]);
    }

    #[test]
    fn attribute_predicates_are_immediate() {
        let doc = br#"<a><b id="1"><c>x</c></b><b><c>y</c></b></a>"#;
        let r = JoostLike.run("/a/b[@id]/c/text()", doc).unwrap();
        assert_eq!(r.results, ["x"]);
    }

    #[test]
    fn count_aggregation() {
        let r = JoostLike.run("//b/count()", b"<a><b/><b/></a>").unwrap();
        assert_eq!(r.results, ["2"]);
    }

    #[test]
    fn nested_whole_elements_come_out_in_document_order() {
        let r = JoostLike.run("//b", b"<a><b><b>x</b></b></a>").unwrap();
        assert_eq!(r.results, ["<b><b>x</b></b>", "<b>x</b>"]);
    }

    #[test]
    fn element_capture_when_chain_true_at_begin() {
        let doc = b"<a><ok/><b><c>x</c></b></a>";
        let r = JoostLike.run("/a[ok]/b", doc).unwrap();
        assert_eq!(r.results, ["<b><c>x</c></b>"]);
    }
}
