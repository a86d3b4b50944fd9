//! XMLTK-like engine: lazily determinized finite automaton over tag
//! symbols (Green et al., "Processing XML streams with Deterministic
//! Automata"; the study's XMLTK).
//!
//! The location path (no predicates!) is an NFA whose state `i` means "i
//! steps matched"; closure steps add self-loops. At runtime the engine
//! runs the *determinized* automaton, constructing DFA states lazily as
//! tag combinations actually occur — the paper's trade-off: higher
//! throughput from determinism, more memory for the growing DFA. A stack
//! of DFA states mirrors the element stack (push on begin, pop on end).
//!
//! Predicates are not supported, exactly as in the study (Fig. 19's
//! XMLTK query drops the `[author]` predicate).
//!
//! Tags are interned [`Sym`]s, so the transition cache is a dense table
//! per DFA state indexed by the symbol: a cached step is two bounds-checked
//! loads, with no hashing and no allocation per event.

use std::collections::HashMap;
use std::time::Instant;

use xsq_core::{Capabilities, MemoryStats, PhaseTimings, RunReport, Unsupported, XPathEngine};
use xsq_xml::writer::write_raw_event_into;
use xsq_xml::{RawEvent, StreamParser, Sym};
use xsq_xpath::{parse_query, AggFunc, Axis, NodeTest, Output, Query};

/// An empty cell of a transition table: that step is not built yet.
const UNBUILT: u32 = u32::MAX;

/// A lazily built DFA for one location path.
struct LazyDfa {
    /// Step tests, in order. `None` = wildcard.
    tests: Vec<(Option<Sym>, Axis)>,
    /// NFA state sets per DFA state (bit `i` = "i steps matched").
    states: Vec<u64>,
    /// Interning map for DFA states.
    index: HashMap<u64, usize>,
    /// Lazy transition cache: `transitions[s][tag.index()]` is the DFA
    /// state after `tag` from `s`, or [`UNBUILT`].
    transitions: Vec<Vec<u32>>,
}

impl LazyDfa {
    fn new(query: &Query) -> Result<Self, Unsupported> {
        if query.has_predicates() {
            return Err(Unsupported(
                "XMLTK evaluates location paths without predicates".into(),
            ));
        }
        if query.steps.len() > 62 {
            return Err(Unsupported("paths longer than 62 steps".into()));
        }
        if query.has_reverse_axis() {
            return Err(Unsupported(
                "XMLTK evaluates forward paths only (no reverse axes)".into(),
            ));
        }
        let tests = query
            .steps
            .iter()
            .map(|s| {
                let name = match &s.test {
                    NodeTest::Name(n) => Some(Sym::intern(n)),
                    NodeTest::Wildcard => None,
                };
                (name, s.axis)
            })
            .collect();
        let mut dfa = LazyDfa {
            tests,
            states: Vec::new(),
            index: HashMap::new(),
            transitions: Vec::new(),
        };
        dfa.intern(1); // {0}: nothing matched yet
        Ok(dfa)
    }

    fn intern(&mut self, set: u64) -> usize {
        if let Some(&i) = self.index.get(&set) {
            return i;
        }
        let i = self.states.len();
        self.states.push(set);
        self.transitions.push(Vec::new());
        self.index.insert(set, i);
        i
    }

    /// Lazy transition: from DFA state `s` on tag `tag`.
    fn step(&mut self, s: usize, tag: Sym) -> usize {
        let cell = tag.index() as usize;
        match self.transitions[s].get(cell) {
            Some(&t) if t != UNBUILT => return t as usize,
            _ => {}
        }
        let set = self.states[s];
        let mut next = 0u64;
        let n = self.tests.len();
        for i in 0..n {
            if set & (1 << i) == 0 {
                continue;
            }
            let (name, axis) = &self.tests[i];
            if name.is_none_or(|t| t == tag) {
                next |= 1 << (i + 1);
            }
            // A pending closure step keeps searching below any element.
            if *axis == Axis::Closure {
                next |= 1 << i;
            }
        }
        // A full match keeps propagating below only through trailing
        // closure semantics; matched-state bit does not survive descent
        // (a result element's descendants are not results unless the NFA
        // re-derives them, which closure self-loops above already do).
        let t = self.intern(next);
        let row = &mut self.transitions[s];
        if row.len() <= cell {
            row.resize(cell + 1, UNBUILT);
        }
        row[cell] = t as u32;
        t
    }

    fn accepting(&self, s: usize) -> bool {
        self.states[s] & (1 << self.tests.len()) != 0
    }

    /// Memory held by the lazily built automaton: interned state sets
    /// plus the transition tables (the XMLTK trade-off of §5).
    fn memory_bytes(&self) -> u64 {
        let per_state = std::mem::size_of::<u64>() + 32;
        let cells: usize = self.transitions.iter().map(Vec::len).sum();
        (self.states.len() * per_state + cells * std::mem::size_of::<u32>()) as u64
    }
}

/// The XMLTK-like study participant.
#[derive(Debug, Default)]
pub struct XmltkLike;

impl XPathEngine for XmltkLike {
    fn name(&self) -> &'static str {
        "XMLTK"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            language: "XPath",
            streaming: true,
            multiple_predicates: false,
            closures: true,
            aggregation: false,
            buffered_predicate_eval: false,
        }
    }

    fn run(&self, query: &str, document: &[u8]) -> Result<RunReport, Box<dyn std::error::Error>> {
        let t0 = Instant::now();
        let q = parse_query(query)?;
        if matches!(
            q.output,
            Output::Aggregate(AggFunc::Sum)
                | Output::Aggregate(AggFunc::Avg)
                | Output::Aggregate(AggFunc::Min)
                | Output::Aggregate(AggFunc::Max)
        ) {
            return Err(Box::new(Unsupported("XMLTK has no aggregation".into())));
        }
        let attr = match &q.output {
            Output::Attr(a) => Some(Sym::intern(a)),
            _ => None,
        };
        let mut dfa = LazyDfa::new(&q)?;
        let compile = t0.elapsed();

        let t1 = Instant::now();
        let mut parser = StreamParser::new(document);
        let mut results: Vec<String> = Vec::new();
        let mut count: u64 = 0;
        // Stack of DFA states; parallel stack of "accepting" flags.
        let mut stack: Vec<usize> = vec![0];
        let mut accept_stack: Vec<bool> = vec![false];
        // Open whole-element captures: (start depth, result slot). The
        // slot is reserved at the begin event, so nested results come out
        // in document order although the inner one closes first.
        let mut captures: Vec<(u32, usize)> = Vec::new();
        let mut events = 0u64;
        let mut peak_capture_bytes = 0u64;
        while let Some(ev) = parser.next_raw()? {
            events += 1;
            // Feed open captures first (they include everything until
            // their end tag).
            if !captures.is_empty() {
                for &(_, slot) in &captures {
                    write_raw_event_into(&ev, &mut results[slot]);
                }
                peak_capture_bytes = peak_capture_bytes.max(
                    captures
                        .iter()
                        .map(|&(_, slot)| results[slot].len() as u64)
                        .sum(),
                );
            }
            match ev {
                RawEvent::Begin { name, depth, .. } => {
                    let s = *stack.last().expect("stack never empty");
                    let t = dfa.step(s, name);
                    let acc = dfa.accepting(t);
                    stack.push(t);
                    accept_stack.push(acc);
                    if acc {
                        match &q.output {
                            Output::Attr(_) => {
                                if let Some(v) = attr.and_then(|a| ev.attribute_sym(a)) {
                                    results.push(v.to_string());
                                }
                            }
                            Output::Aggregate(AggFunc::Count) => count += 1,
                            Output::Element => {
                                let mut buf = String::new();
                                write_raw_event_into(&ev, &mut buf);
                                captures.push((depth, results.len()));
                                results.push(buf);
                            }
                            _ => {}
                        }
                    }
                }
                RawEvent::End { depth, .. } => {
                    stack.pop();
                    accept_stack.pop();
                    // Close the capture opened at this depth.
                    if captures.last().is_some_and(|&(d, _)| d == depth) {
                        captures.pop();
                    }
                }
                RawEvent::Text { text, .. }
                    if q.output == Output::Text && *accept_stack.last().expect("nonempty") =>
                {
                    results.push(text.to_string());
                }
                _ => {}
            }
        }
        if q.output == Output::Aggregate(AggFunc::Count) {
            results.push(count.to_string());
        }
        let query_time = t1.elapsed();
        Ok(RunReport {
            results,
            timings: PhaseTimings {
                compile,
                preprocess: std::time::Duration::ZERO,
                query: query_time,
            },
            memory: MemoryStats {
                peak_bytes: dfa.memory_bytes() + peak_capture_bytes,
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
    fn simple_path() {
        let r = XmltkLike
            .run("/a/b/text()", b"<a><b>x</b><c><b>no</b></c></a>")
            .unwrap();
        assert_eq!(r.results, ["x"]);
    }

    #[test]
    fn closure_path_matches_xsq() {
        let doc = b"<a><b>1</b><c><b>2</b><d><b>3</b></d></c></a>";
        let r = XmltkLike.run("//b/text()", doc).unwrap();
        let xsq = xsq_core::evaluate("//b/text()", doc).unwrap();
        assert_eq!(r.results, xsq);
    }

    #[test]
    fn nested_closure_matches() {
        let doc = b"<a><b><b>x</b></b></a>";
        let r = XmltkLike.run("//b/text()", doc).unwrap();
        assert_eq!(r.results, ["x"]); // only inner b has direct text

        // Whole elements in document order: the outer one opens first.
        let r = XmltkLike.run("//b", doc).unwrap();
        assert_eq!(r.results, ["<b><b>x</b></b>", "<b>x</b>"]);
    }

    #[test]
    fn rejects_predicates() {
        assert!(XmltkLike.run("/a[b]/c/text()", b"<a/>").is_err());
    }

    #[test]
    fn count_output() {
        let r = XmltkLike
            .run("//b/count()", b"<a><b/><c><b/></c></a>")
            .unwrap();
        assert_eq!(r.results, ["2"]);
    }

    #[test]
    fn attribute_output() {
        let r = XmltkLike
            .run("//b/@id", br#"<a><b id="1"/><b/><b id="2"/></a>"#)
            .unwrap();
        assert_eq!(r.results, ["1", "2"]);
    }

    #[test]
    fn dfa_grows_lazily() {
        let doc = b"<a><b/><c/><d/></a>";
        let r = XmltkLike.run("/a/b/text()", doc).unwrap();
        assert!(r.memory.peak_bytes > 0);
    }

    #[test]
    fn wildcard_path() {
        let r = XmltkLike
            .run("/a/*/text()", b"<a><x>1</x><y>2</y></a>")
            .unwrap();
        assert_eq!(r.results, ["1", "2"]);
    }
}
