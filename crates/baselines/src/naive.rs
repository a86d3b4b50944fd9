//! The naive streaming evaluator of §3.1 — the design XSQ argues against.
//!
//! The paper: "A direct solution is to remember the current results for
//! every predicate, and mark every item with a flag that indicates which
//! predicates are satisfied and which are not yet. Such methods
//! significantly degrade the performance. For instance, every time we
//! evaluate a predicate, such a method would need to go through the whole
//! buffer to check if some items are affected by its result."
//!
//! This module implements exactly that strawman, honestly: structural
//! path matching like the HPDT's, but per-element predicate flags in a
//! table and — the defining cost — a **full buffer rescan after every
//! predicate-affecting event**. Results are identical to XSQ's (the
//! equivalence tests demand it); the `micro` bench shows the quadratic
//! behavior the paper predicts on buffering-heavy data.
//!
//! Supported output: `text()` (sufficient for the ablation).

use std::collections::HashMap;
use std::time::Instant;

use xsq_core::{Capabilities, MemoryStats, PhaseTimings, RunReport, Unsupported, XPathEngine};
use xsq_xml::{RawEvent, StreamParser, Sym};
use xsq_xpath::{parse_query, Axis, Output, Predicate, Query};

/// Unique id of an open (or closed) element instance.
type ElemId = u64;

/// A buffered potential result.
struct BufferedItem {
    value: String,
    /// Every structural match chain that could justify this item: one
    /// element id per location step.
    chains: Vec<Vec<ElemId>>,
    emitted: bool,
    dropped: bool,
}

struct OpenElem {
    id: ElemId,
    name: Sym,
    /// Steps this element structurally matches.
    matched_steps: Vec<usize>,
}

/// Per-(element, step) predicate status: `None` = undecided.
type FlagTable = HashMap<(ElemId, usize), Option<bool>>;

struct NaiveRun<'q> {
    query: &'q Query,
    stack: Vec<OpenElem>,
    next_id: ElemId,
    flags: FlagTable,
    buffer: Vec<BufferedItem>,
    emit_cursor: usize,
    results: Vec<String>,
    /// Count of buffer-entry visits during rescans (the cost the paper
    /// points at; exposed for the ablation).
    pub rescan_work: u64,
    peak_buffer: usize,
}

impl<'q> NaiveRun<'q> {
    fn new(query: &'q Query) -> Self {
        NaiveRun {
            query,
            stack: Vec::new(),
            next_id: 0,
            flags: HashMap::new(),
            buffer: Vec::new(),
            emit_cursor: 0,
            results: Vec::new(),
            rescan_work: 0,
            peak_buffer: 0,
        }
    }

    fn on_begin(&mut self, ev: &RawEvent<'_>, name: Sym, depth: u32) {
        let id = self.next_id;
        self.next_id += 1;
        let mut matched_steps = Vec::new();
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
                        .is_some_and(|p| p.matched_steps.contains(&(i - 1))),
                    Axis::Closure => self
                        .stack
                        .iter()
                        .any(|f| f.matched_steps.contains(&(i - 1))),
                    _ => false, // reverse axes are rejected at run entry
                }
            };
            if !structurally {
                continue;
            }
            matched_steps.push(i);
            // Initialize this element's own predicate flag.
            let initial = match &step.predicate {
                None => Some(true),
                Some(Predicate::Attr { name: a, cmp }) => Some(match ev.attribute(a) {
                    None => false,
                    Some(v) => cmp.as_ref().is_none_or(|c| c.eval(v)),
                }),
                _ => None,
            };
            self.flags.insert((id, i), initial);
        }

        // This begin event may witness child-based predicates on every
        // open ancestor that matched a step (the naive method keeps all
        // of these flags by hand, as the paper describes).
        let witnesses: Vec<(ElemId, usize)> = self
            .stack
            .iter()
            .flat_map(|f| f.matched_steps.iter().map(move |&s| (f.id, s)))
            .filter(|&(_, s)| match &self.query.steps[s].predicate {
                Some(Predicate::Child { name: c }) => c == &name,
                Some(Predicate::ChildAttr { child, attr, cmp }) => {
                    child == &name
                        && match ev.attribute(attr) {
                            None => false,
                            Some(v) => cmp.as_ref().is_none_or(|c| c.eval(v)),
                        }
                }
                _ => false,
            })
            .collect();
        // Only the direct parent's children count.
        let parent_id = self.stack.last().map(|f| f.id);
        let mut dirty = false;
        for (eid, s) in witnesses {
            if Some(eid) == parent_id {
                if let Some(f @ None) = self.flags.get_mut(&(eid, s)) {
                    *f = Some(true);
                    dirty = true;
                }
            }
        }
        self.stack.push(OpenElem {
            id,
            name,
            matched_steps,
        });
        if dirty {
            self.rescan();
        }
    }

    fn on_text(&mut self, text: &str) {
        let top_idx = self.stack.len() - 1;
        let mut dirty = false;
        // Own-text and child-text witnesses.
        for fi in [Some(top_idx), top_idx.checked_sub(1)]
            .into_iter()
            .flatten()
        {
            let (eid, steps): (ElemId, Vec<usize>) = {
                let f = &self.stack[fi];
                (f.id, f.matched_steps.clone())
            };
            for s in steps {
                let sat = match (&self.query.steps[s].predicate, fi == top_idx) {
                    (Some(Predicate::Text { cmp }), true) => {
                        cmp.as_ref().is_none_or(|c| c.eval(text))
                    }
                    (Some(Predicate::ChildText { child, cmp }), false) => {
                        child == &self.stack[top_idx].name && cmp.eval(text)
                    }
                    _ => false,
                };
                if sat {
                    if let Some(f @ None) = self.flags.get_mut(&(eid, s)) {
                        *f = Some(true);
                        dirty = true;
                    }
                }
            }
        }

        // Buffer a potential result: the top element matches the final
        // step along at least one chain.
        let n = self.query.steps.len();
        if self.stack[top_idx].matched_steps.contains(&(n - 1)) {
            let chains = self.collect_chains(top_idx, n - 1);
            if !chains.is_empty() {
                self.buffer.push(BufferedItem {
                    value: text.to_string(),
                    chains,
                    emitted: false,
                    dropped: false,
                });
                self.peak_buffer = self
                    .peak_buffer
                    .max(self.buffer.len() - self.emit_cursor.min(self.buffer.len()));
            }
        }
        if dirty {
            self.rescan();
        }
    }

    /// All structural chains (element ids per step) ending with the
    /// element at stack index `fi` matching step `s`.
    fn collect_chains(&self, fi: usize, s: usize) -> Vec<Vec<ElemId>> {
        if !self.stack[fi].matched_steps.contains(&s) {
            return Vec::new();
        }
        if s == 0 {
            return vec![vec![self.stack[fi].id]];
        }
        let mut out = Vec::new();
        let parents: Vec<usize> = match self.query.steps[s].axis {
            Axis::Child => fi.checked_sub(1).into_iter().collect(),
            Axis::Closure => (0..fi).collect(),
            _ => Vec::new(), // reverse axes are rejected at run entry
        };
        for p in parents {
            for mut chain in self.collect_chains(p, s - 1) {
                chain.push(self.stack[fi].id);
                out.push(chain);
            }
        }
        out
    }

    fn on_end(&mut self) {
        // Undecided predicates on the closing element become false —
        // and the naive method rescans the buffer to apply it.
        let closed = self.stack.pop().expect("balanced");
        let mut dirty = false;
        for &s in &closed.matched_steps {
            if let Some(f @ None) = self.flags.get_mut(&(closed.id, s)) {
                *f = Some(false);
                dirty = true;
            }
        }
        if dirty || !closed.matched_steps.is_empty() {
            self.rescan();
        }
    }

    /// The §3.1 cost: walk the *entire* buffer re-evaluating every item's
    /// chains against the flag table.
    fn rescan(&mut self) {
        for item in &mut self.buffer[self.emit_cursor..] {
            self.rescan_work += 1;
            if item.emitted || item.dropped {
                continue;
            }
            let mut any_possible = false;
            let mut any_true = false;
            for chain in &item.chains {
                let mut all_true = true;
                let mut possible = true;
                for (s, &eid) in chain.iter().enumerate() {
                    match self.flags.get(&(eid, s)).copied().flatten() {
                        Some(true) => {}
                        Some(false) => {
                            all_true = false;
                            possible = false;
                            break;
                        }
                        None => all_true = false,
                    }
                }
                any_true |= all_true;
                any_possible |= possible;
            }
            if any_true {
                item.emitted = true;
            } else if !any_possible {
                item.dropped = true;
            }
        }
        // Emit in document order from the front.
        while let Some(item) = self.buffer.get_mut(self.emit_cursor) {
            if item.emitted {
                self.results.push(std::mem::take(&mut item.value));
                self.emit_cursor += 1;
            } else if item.dropped {
                self.emit_cursor += 1;
            } else {
                break;
            }
        }
    }
}

/// The §3.1 naive engine as a study participant (ablation baseline).
#[derive(Debug, Default)]
pub struct NaiveFlags;

impl NaiveFlags {
    /// Run and also report the rescan work counter (ablation metric).
    pub fn run_counting(
        &self,
        query: &str,
        document: &[u8],
    ) -> Result<(Vec<String>, u64), Box<dyn std::error::Error>> {
        let q = parse_query(query)?;
        if q.output != Output::Text {
            return Err(Box::new(Unsupported(
                "naive baseline supports text() output only".into(),
            )));
        }
        if let Some(feature) = q.extended_feature() {
            return Err(Box::new(Unsupported(format!(
                "naive baseline implements the Fig. 3 subset only (query uses {feature})"
            ))));
        }
        let mut run = NaiveRun::new(&q);
        let mut parser = StreamParser::new(document);
        while let Some(ev) = parser.next_raw()? {
            match ev {
                RawEvent::Begin { name, depth, .. } => run.on_begin(&ev, name, depth),
                RawEvent::Text { text, .. } => run.on_text(text),
                RawEvent::End { .. } => run.on_end(),
                _ => {}
            }
        }
        run.rescan();
        Ok((run.results, run.rescan_work))
    }
}

impl XPathEngine for NaiveFlags {
    fn name(&self) -> &'static str {
        "Naive-flags"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            language: "XPath",
            streaming: true,
            multiple_predicates: true,
            closures: true,
            aggregation: false,
            buffered_predicate_eval: true,
        }
    }

    fn run(&self, query: &str, document: &[u8]) -> Result<RunReport, Box<dyn std::error::Error>> {
        let t0 = Instant::now();
        let (results, work) = self.run_counting(query, document)?;
        Ok(RunReport {
            results,
            timings: PhaseTimings {
                compile: std::time::Duration::ZERO,
                preprocess: std::time::Duration::ZERO,
                query: t0.elapsed(),
            },
            memory: MemoryStats {
                peak_items: work,
                ..Default::default()
            },
            events: 0,
            engine: self.name().to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both(q: &str, doc: &str) -> (Vec<String>, Vec<String>) {
        let naive = NaiveFlags.run(q, doc.as_bytes()).unwrap().results;
        let xsq = xsq_core::evaluate(q, doc.as_bytes()).unwrap();
        (naive, xsq)
    }

    #[test]
    fn agrees_with_xsq_on_buffered_predicates() {
        let doc = "<pub><book><name>First</name><price>10</price></book>\
                   <book><name>Second</name><price>14</price></book>\
                   <year>2002</year></pub>";
        for q in [
            "/pub[year=2002]/book[price<11]/name/text()",
            "/pub/book/name/text()",
            "//book[price<11]/name/text()",
        ] {
            let (naive, xsq) = both(q, doc);
            assert_eq!(naive, xsq, "{q}");
        }
    }

    #[test]
    fn agrees_on_recursive_closures() {
        let doc = "<root><pub><book><name>X</name><author>A</author></book>\
                   <book><name>Y</name><pub><book><name>Z</name><author>B</author></book>\
                   <year>1999</year></pub></book><year>2002</year></pub></root>";
        let (naive, xsq) = both("//pub[year=2002]//book[author]//name/text()", doc);
        assert_eq!(naive, xsq);
        assert_eq!(naive, ["X", "Z"]);
    }

    #[test]
    fn rescan_work_grows_superlinearly_with_buffered_items() {
        // Buffering N items with the deciding element at the end: the
        // naive method's rescan work is Ω(N²) while XSQ touches each item
        // O(1) times.
        let mk = |n: usize| {
            let mut doc = String::from("<r><g>");
            for i in 0..n {
                doc.push_str(&format!("<v>{i}</v>"));
            }
            doc.push_str("<k>1</k></g></r>");
            doc
        };
        let q = "/r/g[k=1]/v/text()";
        let (_, w1) = NaiveFlags.run_counting(q, mk(50).as_bytes()).unwrap();
        let (_, w2) = NaiveFlags.run_counting(q, mk(200).as_bytes()).unwrap();
        // 4× items → ≳10× work (quadratic-ish).
        assert!(w2 > w1 * 8, "work {w1} -> {w2}");
        // And the results are still right.
        let (results, _) = NaiveFlags.run_counting(q, mk(5).as_bytes()).unwrap();
        assert_eq!(results, ["0", "1", "2", "3", "4"]);
    }

    #[test]
    fn rejects_unsupported_outputs() {
        assert!(NaiveFlags.run("/a/b", b"<a/>").is_err());
        assert!(NaiveFlags.run("/a/b/count()", b"<a/>").is_err());
    }

    #[test]
    fn order_sensitivity_matches_xsq() {
        let early = "<r><g><k>1</k><v>x</v></g></r>";
        let late = "<r><g><v>x</v><k>1</k></g></r>";
        for doc in [early, late] {
            let (naive, xsq) = both("/r/g[k=1]/v/text()", doc);
            assert_eq!(naive, xsq);
            assert_eq!(naive, ["x"]);
        }
    }
}
