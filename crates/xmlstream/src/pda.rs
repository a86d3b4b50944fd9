//! The "simple PDA" of Fig. 4(a): a pushdown automaton over SAX events
//! that accepts exactly the well-formed XML streams.
//!
//! For each begin event it pushes the tag onto the stack; for each end
//! event it pops and requires a match. After `EndDocument` the stack must
//! be empty and the machine is in its final state. The paper uses this PDA
//! both to motivate the PDT design (§3.1) and as the well-formedness layer
//! every BPDT inherits; here it is also used as a property-test oracle for
//! the parser.

use crate::event::RawEvent;
use crate::symbol::Sym;

/// Current status of the PDA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PdaStatus {
    /// Stream consumed so far is a prefix of some well-formed stream.
    Running,
    /// Stream is complete and well-formed (final state, empty stack).
    Accepted,
    /// Stream can no longer be well-formed.
    Rejected,
}

/// A streaming well-formedness checker over [`RawEvent`]s.
#[derive(Debug, Default)]
pub struct WellFormednessPda {
    stack: Vec<Sym>,
    started: bool,
    root_seen: bool,
    status: Option<PdaStatus>,
}

impl WellFormednessPda {
    /// Fresh PDA in its start state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one event; returns the status after consuming it.
    pub fn feed(&mut self, event: &RawEvent<'_>) -> PdaStatus {
        if matches!(self.status, Some(PdaStatus::Accepted | PdaStatus::Rejected)) {
            // Anything after acceptance, or after rejection, is a reject.
            self.status = Some(PdaStatus::Rejected);
            return PdaStatus::Rejected;
        }
        let st = match event {
            RawEvent::StartDocument => {
                if self.started {
                    PdaStatus::Rejected
                } else {
                    self.started = true;
                    PdaStatus::Running
                }
            }
            RawEvent::EndDocument => {
                if self.started && self.stack.is_empty() && self.root_seen {
                    PdaStatus::Accepted
                } else {
                    PdaStatus::Rejected
                }
            }
            RawEvent::Begin { name, depth, .. } => {
                if !self.started
                    || (self.stack.is_empty() && self.root_seen)
                    || *depth as usize != self.stack.len() + 1
                {
                    PdaStatus::Rejected
                } else {
                    self.root_seen = true;
                    self.stack.push(*name);
                    PdaStatus::Running
                }
            }
            RawEvent::End { name, depth } => match self.stack.last() {
                Some(top) if *top == *name && *depth as usize == self.stack.len() => {
                    self.stack.pop();
                    PdaStatus::Running
                }
                _ => PdaStatus::Rejected,
            },
            RawEvent::Text { depth, .. } => {
                if self.stack.is_empty() || *depth as usize != self.stack.len() {
                    PdaStatus::Rejected
                } else {
                    PdaStatus::Running
                }
            }
        };
        self.status = Some(st);
        st
    }

    /// Current status without feeding anything.
    pub fn status(&self) -> PdaStatus {
        self.status.unwrap_or(PdaStatus::Running)
    }

    /// Current element nesting depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamParser;

    fn begin(name: &str, depth: u32) -> RawEvent<'static> {
        RawEvent::Begin {
            name: name.into(),
            attributes: &[],
            depth,
        }
    }

    fn end(name: &str, depth: u32) -> RawEvent<'static> {
        RawEvent::End {
            name: name.into(),
            depth,
        }
    }

    /// Run a fresh PDA over a whole event sequence.
    fn accepts(events: &[RawEvent<'_>]) -> bool {
        let mut pda = WellFormednessPda::new();
        let mut last = PdaStatus::Running;
        for e in events {
            last = pda.feed(e);
            if last == PdaStatus::Rejected {
                return false;
            }
        }
        last == PdaStatus::Accepted
    }

    #[test]
    fn accepts_parser_output() {
        let mut p = StreamParser::new(&b"<a><b>t</b><b/></a>"[..]);
        let mut pda = WellFormednessPda::new();
        let mut last = PdaStatus::Running;
        while let Some(ev) = p.next_raw().unwrap() {
            last = pda.feed(&ev);
        }
        assert_eq!(last, PdaStatus::Accepted);
    }

    #[test]
    fn rejects_mismatched_end() {
        let evs = [RawEvent::StartDocument, begin("a", 1), end("b", 1)];
        assert!(!accepts(&evs));
    }

    #[test]
    fn rejects_wrong_depth() {
        let evs = [RawEvent::StartDocument, begin("a", 2)]; // should be 1
        assert!(!accepts(&evs));
    }

    #[test]
    fn rejects_truncated_stream() {
        let evs = [RawEvent::StartDocument, begin("a", 1)];
        assert!(!accepts(&evs)); // never accepted
    }

    #[test]
    fn rejects_second_root() {
        let evs = [
            RawEvent::StartDocument,
            begin("a", 1),
            end("a", 1),
            begin("b", 1),
        ];
        assert!(!accepts(&evs));
    }

    #[test]
    fn rejects_events_after_end_document() {
        let mut pda = WellFormednessPda::new();
        pda.feed(&RawEvent::StartDocument);
        pda.feed(&begin("a", 1));
        pda.feed(&end("a", 1));
        assert_eq!(pda.feed(&RawEvent::EndDocument), PdaStatus::Accepted);
        assert_eq!(pda.feed(&RawEvent::StartDocument), PdaStatus::Rejected);
    }

    #[test]
    fn depth_tracks_stack() {
        let mut pda = WellFormednessPda::new();
        pda.feed(&RawEvent::StartDocument);
        pda.feed(&begin("a", 1));
        assert_eq!(pda.depth(), 1);
    }
}
