//! The depth-extended SAX event model of §2.1.
//!
//! An XML stream is a sequence `{e1, e2, …}` where each event is a begin
//! event `(a, attrs, d)`, an end event `(/a, d)`, or a text event
//! `(a, text(), d)` — `a` the element tag and `d` its depth. The document
//! element has depth 1; `StartDocument`/`EndDocument` bracket the stream at
//! depth 0 and are consumed by the root BPDT (Fig. 12 of the paper).
//!
//! Element and attribute names are interned [`Sym`]s (see
//! [`crate::symbol`]), so comparing tags downstream is a `u32` compare.
//! There is one event type, [`RawEvent`]: the zero-copy view the parser
//! lends out. Attribute lists and text borrow the parser's scratch
//! buffers and stay valid until the next pull, so a consumer that keeps
//! something past that point copies exactly the part it keeps.

use std::fmt;

use crate::symbol::Sym;

/// A single attribute on a begin event: `name="value"` with the value
/// already entity-decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    pub name: Sym,
    pub value: String,
}

impl Attribute {
    /// Construct an attribute from anything name-like and value-like.
    pub fn new(name: impl Into<Sym>, value: impl Into<String>) -> Self {
        Attribute {
            name: name.into(),
            value: value.into(),
        }
    }
}

/// A depth-extended SAX event borrowed from the parser's scratch buffers.
///
/// Valid only until the next [`crate::StreamParser::next_raw`] call; the
/// attribute slice and text str point into buffers the parser reuses.
/// Names are [`Sym`]s and therefore `'static`-safe to copy out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RawEvent<'a> {
    /// Start of the document; the paper's synthetic `<root>` event.
    StartDocument,
    /// End of the document; the paper's synthetic `</root>` event.
    EndDocument,
    /// `(a, attrs, d)` — opening tag of element `a` at depth `d ≥ 1`.
    Begin {
        name: Sym,
        attributes: &'a [Attribute],
        depth: u32,
    },
    /// `(/a, d)` — closing tag of element `a` at depth `d ≥ 1`.
    End { name: Sym, depth: u32 },
    /// `(a, text(), d)` — character content directly inside element `a`
    /// (which is at depth `d`). Adjacent character data is coalesced into a
    /// single event; entity references are decoded.
    Text {
        /// Tag of the enclosing element (the paper's text events carry the
        /// element name so a transition arc can match `<tag.text()>`).
        element: Sym,
        text: &'a str,
        depth: u32,
    },
}

impl<'a> RawEvent<'a> {
    /// Depth of the event (document events are depth 0).
    pub fn depth(&self) -> u32 {
        match self {
            RawEvent::StartDocument | RawEvent::EndDocument => 0,
            RawEvent::Begin { depth, .. }
            | RawEvent::End { depth, .. }
            | RawEvent::Text { depth, .. } => *depth,
        }
    }

    /// The element tag as an interned symbol, if any.
    pub fn name_sym(&self) -> Option<Sym> {
        match self {
            RawEvent::Begin { name, .. } | RawEvent::End { name, .. } => Some(*name),
            RawEvent::Text { element, .. } => Some(*element),
            _ => None,
        }
    }

    /// The element tag the event refers to, if any.
    pub fn name(&self) -> Option<&'static str> {
        self.name_sym().map(Sym::as_str)
    }

    /// True for begin events.
    pub fn is_begin(&self) -> bool {
        matches!(self, RawEvent::Begin { .. })
    }

    /// True for end events.
    pub fn is_end(&self) -> bool {
        matches!(self, RawEvent::End { .. })
    }

    /// True for text events.
    pub fn is_text(&self) -> bool {
        matches!(self, RawEvent::Text { .. })
    }

    /// Look up an attribute value by interned name — the hot-path lookup,
    /// a `u32` compare per attribute and no hashing.
    pub fn attribute_sym(&self, name: Sym) -> Option<&'a str> {
        match self {
            RawEvent::Begin { attributes, .. } => attributes
                .iter()
                .find(|a| a.name == name)
                .map(|a| a.value.as_str()),
            _ => None,
        }
    }

    /// Look up an attribute value by string name.
    pub fn attribute(&self, name: &str) -> Option<&'a str> {
        Sym::lookup(name).and_then(|s| self.attribute_sym(s))
    }
}

impl fmt::Display for RawEvent<'_> {
    /// Renders the event in the paper's notation, e.g. `(book,{id=1},2)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RawEvent::StartDocument => write!(f, "(<root>,0)"),
            RawEvent::EndDocument => write!(f, "(</root>,0)"),
            RawEvent::Begin {
                name,
                attributes,
                depth,
            } => {
                write!(f, "({name},{{")?;
                for (i, a) in attributes.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}={}", a.name, a.value)?;
                }
                write!(f, "}},{depth})")
            }
            RawEvent::End { name, depth } => write!(f, "(/{name},{depth})"),
            RawEvent::Text { element, depth, .. } => {
                write!(f, "({element},text(),{depth})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_begin<T>(name: &str, depth: u32, f: impl FnOnce(RawEvent<'_>) -> T) -> T {
        let attributes = [Attribute::new("id", "1")];
        f(RawEvent::Begin {
            name: name.into(),
            attributes: &attributes,
            depth,
        })
    }

    #[test]
    fn depth_and_name_accessors() {
        with_begin("book", 2, |b| {
            assert_eq!(b.depth(), 2);
            assert_eq!(b.name(), Some("book"));
            assert!(b.is_begin() && !b.is_end() && !b.is_text());
        });
        assert_eq!(RawEvent::StartDocument.depth(), 0);
        assert_eq!(RawEvent::StartDocument.name(), None);
    }

    #[test]
    fn attribute_lookup() {
        with_begin("book", 2, |b| {
            assert_eq!(b.attribute("id"), Some("1"));
            assert_eq!(b.attribute_sym(Sym::intern("id")), Some("1"));
            assert_eq!(b.attribute("missing"), None);
        });
        assert_eq!(RawEvent::StartDocument.attribute("id"), None);
    }

    #[test]
    fn display_uses_paper_notation() {
        with_begin("book", 2, |b| assert_eq!(b.to_string(), "(book,{id=1},2)"));
        let e = RawEvent::End {
            name: "book".into(),
            depth: 2,
        };
        assert_eq!(e.to_string(), "(/book,2)");
        let t = RawEvent::Begin {
            name: "b".into(),
            attributes: &[],
            depth: 1,
        };
        assert_eq!(t.to_string(), "(b,{},1)");
    }

    #[test]
    fn debug_records_every_field_with_names_as_strings() {
        with_begin("book", 2, |b| {
            assert_eq!(
                format!("{b:?}"),
                r#"Begin { name: "book", attributes: [Attribute { name: "id", value: "1" }], depth: 2 }"#
            );
        });
        let t = RawEvent::Text {
            element: "b".into(),
            text: "hi",
            depth: 2,
        };
        assert_eq!(
            format!("{t:?}"),
            r#"Text { element: "b", text: "hi", depth: 2 }"#
        );
    }
}
