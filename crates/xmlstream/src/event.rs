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
//! Two event shapes share the model:
//!
//! * [`RawEvent`] — the zero-copy view the parser lends out: attribute
//!   lists and text borrow the parser's scratch buffers, valid until the
//!   next pull. This is the hot-path currency of the engines.
//! * [`SaxEvent`] — the owned form, for the whole-document baselines,
//!   tests, and any consumer that retains events past the next pull.
//!   [`RawEvent::to_owned`] and [`SaxEvent::as_raw`] convert between
//!   them.

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

/// A depth-extended SAX event (owned form).
#[derive(Debug, Clone, PartialEq)]
pub enum SaxEvent {
    /// Start of the document; the paper's synthetic `<root>` event.
    StartDocument,
    /// End of the document; the paper's synthetic `</root>` event.
    EndDocument,
    /// `(a, attrs, d)` — opening tag of element `a` at depth `d ≥ 1`.
    Begin {
        name: Sym,
        attributes: Vec<Attribute>,
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
        text: String,
        depth: u32,
    },
}

/// A depth-extended SAX event borrowed from the parser's scratch buffers.
///
/// Valid only until the next [`crate::StreamParser::next_raw`] call; the
/// attribute slice and text str point into buffers the parser reuses.
/// Names are [`Sym`]s and therefore `'static`-safe to copy out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RawEvent<'a> {
    /// Start of the document.
    StartDocument,
    /// End of the document.
    EndDocument,
    /// `(a, attrs, d)`.
    Begin {
        name: Sym,
        attributes: &'a [Attribute],
        depth: u32,
    },
    /// `(/a, d)`.
    End { name: Sym, depth: u32 },
    /// `(a, text(), d)`.
    Text {
        element: Sym,
        text: &'a str,
        depth: u32,
    },
}

impl SaxEvent {
    /// Depth of the event as defined in §2.1 (document events are depth 0).
    pub fn depth(&self) -> u32 {
        match self {
            SaxEvent::StartDocument | SaxEvent::EndDocument => 0,
            SaxEvent::Begin { depth, .. }
            | SaxEvent::End { depth, .. }
            | SaxEvent::Text { depth, .. } => *depth,
        }
    }

    /// The element tag the event refers to, if any.
    pub fn name(&self) -> Option<&str> {
        self.name_sym().map(Sym::as_str)
    }

    /// The element tag as an interned symbol, if any.
    pub fn name_sym(&self) -> Option<Sym> {
        match self {
            SaxEvent::Begin { name, .. } | SaxEvent::End { name, .. } => Some(*name),
            SaxEvent::Text { element, .. } => Some(*element),
            _ => None,
        }
    }

    /// True for begin events (`e ∈ B` in the paper's notation).
    pub fn is_begin(&self) -> bool {
        matches!(self, SaxEvent::Begin { .. })
    }

    /// True for end events (`e ∈ E`).
    pub fn is_end(&self) -> bool {
        matches!(self, SaxEvent::End { .. })
    }

    /// True for text events (`e ∈ T`).
    pub fn is_text(&self) -> bool {
        matches!(self, SaxEvent::Text { .. })
    }

    /// Look up an attribute value on a begin event.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        match self {
            SaxEvent::Begin { attributes, .. } => attributes
                .iter()
                .find(|a| a.name == *name)
                .map(|a| a.value.as_str()),
            _ => None,
        }
    }

    /// The zero-copy view of this owned event.
    pub fn as_raw(&self) -> RawEvent<'_> {
        match self {
            SaxEvent::StartDocument => RawEvent::StartDocument,
            SaxEvent::EndDocument => RawEvent::EndDocument,
            SaxEvent::Begin {
                name,
                attributes,
                depth,
            } => RawEvent::Begin {
                name: *name,
                attributes,
                depth: *depth,
            },
            SaxEvent::End { name, depth } => RawEvent::End {
                name: *name,
                depth: *depth,
            },
            SaxEvent::Text {
                element,
                text,
                depth,
            } => RawEvent::Text {
                element: *element,
                text,
                depth: *depth,
            },
        }
    }
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

    /// Materialize an owned event (allocates: attribute vec and text copy).
    pub fn to_owned(&self) -> SaxEvent {
        match self {
            RawEvent::StartDocument => SaxEvent::StartDocument,
            RawEvent::EndDocument => SaxEvent::EndDocument,
            RawEvent::Begin {
                name,
                attributes,
                depth,
            } => SaxEvent::Begin {
                name: *name,
                attributes: attributes.to_vec(),
                depth: *depth,
            },
            RawEvent::End { name, depth } => SaxEvent::End {
                name: *name,
                depth: *depth,
            },
            RawEvent::Text {
                element,
                text,
                depth,
            } => SaxEvent::Text {
                element: *element,
                text: (*text).to_string(),
                depth: *depth,
            },
        }
    }
}

fn fmt_event(f: &mut fmt::Formatter<'_>, ev: &RawEvent<'_>) -> fmt::Result {
    match ev {
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

impl fmt::Display for SaxEvent {
    /// Renders the event in the paper's notation, e.g. `(book,{id=1},2)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_event(f, &self.as_raw())
    }
}

impl fmt::Display for RawEvent<'_> {
    /// Renders the event in the paper's notation, e.g. `(book,{id=1},2)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_event(f, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn begin(name: &str, depth: u32) -> SaxEvent {
        SaxEvent::Begin {
            name: name.into(),
            attributes: vec![Attribute::new("id", "1")],
            depth,
        }
    }

    #[test]
    fn depth_and_name_accessors() {
        let b = begin("book", 2);
        assert_eq!(b.depth(), 2);
        assert_eq!(b.name(), Some("book"));
        assert!(b.is_begin() && !b.is_end() && !b.is_text());
        assert_eq!(SaxEvent::StartDocument.depth(), 0);
        assert_eq!(SaxEvent::StartDocument.name(), None);
    }

    #[test]
    fn attribute_lookup() {
        let b = begin("book", 2);
        assert_eq!(b.attribute("id"), Some("1"));
        assert_eq!(b.attribute("missing"), None);
        assert_eq!(SaxEvent::StartDocument.attribute("id"), None);
    }

    #[test]
    fn display_uses_paper_notation() {
        let b = begin("book", 2);
        assert_eq!(b.to_string(), "(book,{id=1},2)");
        let e = SaxEvent::End {
            name: "book".into(),
            depth: 2,
        };
        assert_eq!(e.to_string(), "(/book,2)");
    }

    #[test]
    fn raw_and_owned_round_trip() {
        let owned = begin("book", 2);
        let raw = owned.as_raw();
        assert_eq!(raw.depth(), 2);
        assert_eq!(raw.name(), Some("book"));
        assert_eq!(raw.attribute("id"), Some("1"));
        assert_eq!(raw.attribute_sym(Sym::intern("id")), Some("1"));
        assert_eq!(raw.to_string(), owned.to_string());
        assert_eq!(raw.to_owned(), owned);
    }

    #[test]
    fn raw_text_borrows() {
        let owned = SaxEvent::Text {
            element: "b".into(),
            text: "hi".into(),
            depth: 2,
        };
        let raw = owned.as_raw();
        let RawEvent::Text { element, text, .. } = raw else {
            panic!("expected text");
        };
        assert_eq!(element, "b");
        assert_eq!(text, "hi");
        assert_eq!(raw.to_owned(), owned);
    }
}
