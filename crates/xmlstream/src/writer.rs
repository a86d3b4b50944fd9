//! Serializing SAX events back to XML text.
//!
//! [`write_raw_event_into`] is what the engines run for the paper's
//! catchall (`*̄`) output expression — when a query has no output
//! expression, each matching *element* is emitted whole (§3.4).
//! [`XmlWriter`] serializes fragments, including comments, processing
//! instructions and CDATA, for the round-trip property tests and their
//! document generators. Nothing here checks that a sequence of events
//! is a well-formed document; [`crate::pda::WellFormednessPda`] does.

use crate::entities::{escape_attr_into, escape_text_into};
use crate::event::RawEvent;

/// An incremental XML serializer writing into an owned `String`.
///
/// Feed it the event subsequence corresponding to an element (begin,
/// descendants, end) and it produces the textual form of that element.
#[derive(Debug, Default)]
pub struct XmlWriter {
    out: String,
}

impl XmlWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one event's textual form.
    ///
    /// `StartDocument`/`EndDocument` produce nothing: the writer serializes
    /// fragments, not documents.
    pub fn write_event(&mut self, event: &RawEvent<'_>) {
        write_raw_event_into(event, &mut self.out);
    }

    /// Append a comment: `<!--text-->`.
    ///
    /// XML forbids `--` inside a comment and a `-` just before the
    /// terminator; both are defused with an inserted space so the output
    /// is always well formed (the parser drops comments anyway, so the
    /// mutation is invisible to every event-level consumer).
    pub fn write_comment(&mut self, text: &str) {
        self.out.push_str("<!--");
        self.out.push_str(&text.replace("--", "- -"));
        if self.out.ends_with('-') {
            self.out.push(' ');
        }
        self.out.push_str("-->");
    }

    /// Append a processing instruction: `<?target data?>` (or `<?target?>`
    /// when `data` is empty). A `?>` inside the data would terminate the
    /// PI early; it is defused with an inserted space.
    pub fn write_pi(&mut self, target: &str, data: &str) {
        self.out.push_str("<?");
        self.out.push_str(target);
        if !data.is_empty() {
            self.out.push(' ');
            self.out.push_str(&data.replace("?>", "? >"));
        }
        self.out.push_str("?>");
    }

    /// Append a CDATA section holding `text` verbatim.
    ///
    /// A literal `]]>` cannot appear inside one section; the standard
    /// trick splits it across two sections (`]]]]><![CDATA[>`), keeping
    /// the decoded character data byte-identical.
    pub fn write_cdata(&mut self, text: &str) {
        self.out.push_str("<![CDATA[");
        self.out.push_str(&text.replace("]]>", "]]]]><![CDATA[>"));
        self.out.push_str("]]>");
    }

    /// The accumulated text.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Consume the writer, returning the accumulated text.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }
}

/// Append the textual form of a borrowed [`RawEvent`] to `out` — the
/// zero-copy serialization path used by the engines' `*̄` catchall output.
pub fn write_raw_event_into(event: &RawEvent<'_>, out: &mut String) {
    match event {
        RawEvent::StartDocument | RawEvent::EndDocument => {}
        RawEvent::Begin {
            name, attributes, ..
        } => {
            out.push('<');
            out.push_str(name.as_str());
            for a in attributes.iter() {
                out.push(' ');
                out.push_str(a.name.as_str());
                out.push_str("=\"");
                escape_attr_into(&a.value, out);
                out.push('"');
            }
            out.push('>');
        }
        RawEvent::End { name, .. } => {
            out.push_str("</");
            out.push_str(name.as_str());
            out.push('>');
        }
        RawEvent::Text { text, .. } => escape_text_into(text, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Attribute;
    use crate::StreamParser;

    #[test]
    fn writes_element_with_escaped_attribute() {
        let mut w = XmlWriter::new();
        w.write_event(&RawEvent::Begin {
            name: "a".into(),
            attributes: &[Attribute::new("t", "x\"<&")],
            depth: 1,
        });
        w.write_event(&RawEvent::Text {
            element: "a".into(),
            text: "1 < 2",
            depth: 1,
        });
        w.write_event(&RawEvent::End {
            name: "a".into(),
            depth: 1,
        });
        assert_eq!(w.as_str(), "<a t=\"x&quot;&lt;&amp;\">1 &lt; 2</a>");
    }

    #[test]
    fn document_events_write_nothing() {
        let mut w = XmlWriter::new();
        w.write_event(&RawEvent::StartDocument);
        w.write_event(&RawEvent::EndDocument);
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
    }

    /// The events of `doc`, recorded, and the document the writer makes
    /// of them.
    fn rewrite(doc: &str) -> (Vec<String>, String) {
        let mut p = StreamParser::new(doc.as_bytes());
        let (mut events, mut w) = (Vec::new(), XmlWriter::new());
        while let Some(ev) = p.next_raw().unwrap() {
            events.push(format!("{ev:?}"));
            w.write_event(&ev);
        }
        (events, w.into_string())
    }

    #[test]
    fn roundtrip_parse_write_parse_is_identity_on_events() {
        let (evs, rewritten) = rewrite("<pub><book id=\"1\"><name>A &amp; B</name></book></pub>");
        assert_eq!(evs, rewrite(&rewritten).0);
    }
}
