//! # xsq-xml — streaming XML substrate
//!
//! This crate is the SAX-layer substrate of the XSQ reproduction (Peng &
//! Chawathe, *XPath Queries on Streaming Data*, SIGMOD 2003). The paper's
//! engines consume an XML document as a stream of SAX events, each extended
//! with the *depth* of the element it belongs to (§2.1 of the paper):
//!
//! * `Begin(a, attrs, d)` — the opening tag of an element `a` at depth `d`,
//!   carrying its attribute list;
//! * `End(a, d)` — the closing tag of `a` at depth `d`;
//! * `Text(a, text, d)` — character content appearing directly inside an
//!   element `a` at depth `d`.
//!
//! In addition we emit `StartDocument` / `EndDocument` events (depth 0);
//! the paper's *root BPDT* (Fig. 12) consumes exactly these.
//!
//! The crate provides:
//!
//! * [`parser::StreamParser`] — the one streaming parser, with entity
//!   decoding, comment/CDATA/PI handling, and well-formedness checking.
//!   All input goes through one window whose boundary scanner
//!   ([`push`]) hands the parser whole tokens. Push is the native
//!   interface ([`PushParser`]: `push` chunks split anywhere, `poll_raw`
//!   the events they complete, `finish`); pulling [`event::RawEvent`]s or
//!   [`event::SaxEvent`]s from any [`std::io::BufRead`] is the same core
//!   plus a loop that refills the window from the reader;
//! * [`pda::WellFormednessPda`] — the "simple PDA" of Fig. 4(a): a pushdown
//!   automaton that accepts exactly well-formed event streams;
//! * [`writer::XmlWriter`] — escaping serializer (used for `*̄` catchall
//!   element output and for round-trip property tests);
//! * [`stats`] — the dataset statistics of Fig. 15 (size, text size, element
//!   count, avg/max depth, avg tag length);
//! * [`pure::PureParser`] — the paper's throughput yardstick: parses and
//!   discards, giving the upper bound every engine is normalized against
//!   (§6.2, *relative throughput*).

pub mod dtd;
pub mod entities;
pub mod error;
pub mod event;
pub mod parser;
pub mod pda;
pub mod pure;
pub mod push;
pub mod scan;
pub mod stats;
pub mod symbol;
pub mod writer;

pub use error::{Error, Result};
pub use event::{Attribute, RawEvent, SaxEvent};
pub use parser::{ParsePoll, StreamParser};
pub use pda::WellFormednessPda;
pub use pure::PureParser;
pub use push::PushParser;
pub use stats::{dataset_stats, DatasetStats};
pub use symbol::Sym;
pub use writer::{DocumentWriter, WriteError, XmlWriter};

/// Parse a complete document held in memory into a vector of events.
///
/// Convenience wrapper over [`StreamParser`] for tests and small inputs;
/// streaming consumers should drive the pull parser directly.
pub fn parse_to_events(input: &[u8]) -> Result<Vec<SaxEvent>> {
    let mut parser = StreamParser::new(input);
    let mut events = Vec::new();
    while let Some(ev) = parser.next_event()? {
        events.push(ev);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_to_events_roundtrips_simple_document() {
        let events = parse_to_events(b"<a><b>hi</b></a>").unwrap();
        assert_eq!(events.len(), 7); // startdoc, <a>, <b>, text, </b>, </a>, enddoc
    }
}
