//! In-memory document tree — the substrate of the DOM-based baselines
//! (Saxon- and Galax-like engines, §5/§6 of the paper).
//!
//! The tree is built from the *same* SAX event stream the streaming
//! engines consume, so text-run boundaries and attribute decoding are
//! identical — a prerequisite for using DOM evaluation as a differential
//! oracle for XSQ. Every node records the ordinal of the SAX event that
//! created it, which lets evaluators report results in exact document
//! (event) order.

use xsq_xml::{Attribute, RawEvent, StreamParser};

/// Index of a node in the document arena.
pub type NodeId = usize;

/// Node payload.
#[derive(Debug, Clone)]
pub enum NodeKind {
    /// An element with its tag, attributes, and children in order.
    Element {
        name: String,
        attributes: Vec<Attribute>,
        children: Vec<NodeId>,
    },
    /// One run of character data (the parser's text-event granularity).
    Text(String),
}

/// One node.
#[derive(Debug, Clone)]
pub struct Node {
    pub kind: NodeKind,
    pub parent: Option<NodeId>,
    /// Ordinal of the SAX event that produced this node (begin event for
    /// elements, text event for text runs); defines document order.
    pub ordinal: u64,
    /// Depth of the element (or of the text run's parent element).
    pub depth: u32,
}

impl Node {
    pub fn name(&self) -> Option<&str> {
        match &self.kind {
            NodeKind::Element { name, .. } => Some(name),
            NodeKind::Text(_) => None,
        }
    }

    pub fn text(&self) -> Option<&str> {
        match &self.kind {
            NodeKind::Text(t) => Some(t),
            NodeKind::Element { .. } => None,
        }
    }

    pub fn attribute(&self, name: &str) -> Option<&str> {
        match &self.kind {
            NodeKind::Element { attributes, .. } => attributes
                .iter()
                .find(|a| a.name == name)
                .map(|a| a.value.as_str()),
            NodeKind::Text(_) => None,
        }
    }

    pub fn children(&self) -> &[NodeId] {
        match &self.kind {
            NodeKind::Element { children, .. } => children,
            NodeKind::Text(_) => &[],
        }
    }
}

/// An in-memory document.
#[derive(Debug)]
pub struct Document {
    pub nodes: Vec<Node>,
    /// The document element.
    pub root: NodeId,
    /// Total elements (Fig. 19's XQEngine limit check).
    pub element_count: usize,
    /// Estimated heap footprint of the materialized tree. The paper
    /// observes DOM engines use ≈4–5× the file size; this estimate counts
    /// string payloads plus per-node structural overhead.
    pub estimated_bytes: u64,
}

impl Document {
    /// Build a tree from a serialized document.
    pub fn parse(input: &[u8]) -> Result<Document, xsq_xml::Error> {
        let mut parser = StreamParser::new(input);
        let mut nodes: Vec<Node> = Vec::new();
        let mut stack: Vec<NodeId> = Vec::new();
        let mut root: Option<NodeId> = None;
        let mut ordinal: u64 = 0;
        let mut element_count = 0usize;
        let mut payload_bytes = 0u64;
        while let Some(ev) = parser.next_raw()? {
            ordinal += 1;
            match ev {
                RawEvent::Begin {
                    name,
                    attributes,
                    depth,
                } => {
                    payload_bytes += name.as_str().len() as u64
                        + attributes
                            .iter()
                            .map(|a| (a.name.as_str().len() + a.value.len()) as u64)
                            .sum::<u64>();
                    let id = nodes.len();
                    nodes.push(Node {
                        kind: NodeKind::Element {
                            // A DOM materializes every tag name as its
                            // own string object; model that cost.
                            name: name.as_str().to_string(),
                            attributes: attributes.to_vec(),
                            children: Vec::new(),
                        },
                        parent: stack.last().copied(),
                        ordinal,
                        depth,
                    });
                    element_count += 1;
                    if let Some(&p) = stack.last() {
                        if let NodeKind::Element { children, .. } = &mut nodes[p].kind {
                            children.push(id);
                        }
                    } else {
                        root = Some(id);
                    }
                    stack.push(id);
                }
                RawEvent::End { .. } => {
                    stack.pop();
                }
                RawEvent::Text { text, depth, .. } => {
                    payload_bytes += text.len() as u64;
                    let id = nodes.len();
                    let parent = stack.last().copied();
                    nodes.push(Node {
                        kind: NodeKind::Text(text.to_string()),
                        parent,
                        ordinal,
                        depth,
                    });
                    if let Some(p) = parent {
                        if let NodeKind::Element { children, .. } = &mut nodes[p].kind {
                            children.push(id);
                        }
                    }
                }
                RawEvent::StartDocument | RawEvent::EndDocument => {}
            }
        }
        // Structural overhead: the Node struct, child vectors, string and
        // attribute headers. sizeof(Node) plus ~2 words per child edge and
        // per string header is a fair model of a Java DOM's object
        // overhead (the paper's 4–5× observation).
        let overhead = nodes.len() as u64 * (std::mem::size_of::<Node>() as u64 + 48);
        let root = root.expect("parser guarantees a document element");
        Ok(Document {
            element_count,
            estimated_bytes: payload_bytes + overhead,
            nodes,
            root,
        })
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Child *elements* of a node.
    pub fn child_elements<'a>(&'a self, id: NodeId) -> impl Iterator<Item = NodeId> + 'a {
        self.node(id)
            .children()
            .iter()
            .copied()
            .filter(|&c| matches!(self.nodes[c].kind, NodeKind::Element { .. }))
    }

    /// Direct text runs of an element, in order.
    pub fn text_runs<'a>(&'a self, id: NodeId) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.node(id).children().iter().filter_map(move |&c| {
            let n = &self.nodes[c];
            n.text().map(|t| (t, n.ordinal))
        })
    }

    /// All descendant elements of `id` (strictly below), preorder.
    pub fn descendant_elements(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut work: Vec<NodeId> = self.child_elements(id).collect();
        work.reverse();
        while let Some(n) = work.pop() {
            out.push(n);
            let mut kids: Vec<NodeId> = self.child_elements(n).collect();
            kids.reverse();
            work.extend(kids);
        }
        out
    }

    /// Serialize an element subtree (for whole-element output). Matches
    /// the streaming engines' serializer byte-for-byte.
    pub fn serialize(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.serialize_into(id, &mut out);
        out
    }

    fn serialize_into(&self, id: NodeId, out: &mut String) {
        match &self.nodes[id].kind {
            NodeKind::Text(t) => xsq_xml::entities::escape_text_into(t, out),
            NodeKind::Element {
                name,
                attributes,
                children,
            } => {
                out.push('<');
                out.push_str(name);
                for a in attributes {
                    out.push(' ');
                    out.push_str(a.name.as_str());
                    out.push_str("=\"");
                    xsq_xml::entities::escape_attr_into(&a.value, out);
                    out.push('"');
                }
                out.push('>');
                for &c in children {
                    self.serialize_into(c, out);
                }
                out.push_str("</");
                out.push_str(name);
                out.push('>');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_tree_with_ordinals() {
        let d = Document::parse(b"<a><b>x</b><b>y</b></a>").unwrap();
        assert_eq!(d.element_count, 3);
        let root = d.node(d.root);
        assert_eq!(root.name(), Some("a"));
        let kids: Vec<NodeId> = d.child_elements(d.root).collect();
        assert_eq!(kids.len(), 2);
        assert!(d.node(kids[0]).ordinal < d.node(kids[1]).ordinal);
    }

    #[test]
    fn text_runs_follow_parser_granularity() {
        let d = Document::parse(b"<a>one<b/>two</a>").unwrap();
        let runs: Vec<&str> = d.text_runs(d.root).map(|(t, _)| t).collect();
        assert_eq!(runs, ["one", "two"]);
    }

    #[test]
    fn descendants_are_preorder() {
        let d = Document::parse(b"<a><b><c/></b><d/></a>").unwrap();
        let names: Vec<&str> = d
            .descendant_elements(d.root)
            .into_iter()
            .filter_map(|n| d.node(n).name())
            .collect();
        assert_eq!(names, ["b", "c", "d"]);
    }

    #[test]
    fn serialization_roundtrips() {
        let src = r#"<a id="1"><b>x &amp; y</b><c/></a>"#;
        let d = Document::parse(src.as_bytes()).unwrap();
        assert_eq!(
            d.serialize(d.root),
            r#"<a id="1"><b>x &amp; y</b><c></c></a>"#
        );
    }

    #[test]
    fn memory_estimate_exceeds_payload() {
        let src = b"<a><b>hello</b></a>";
        let d = Document::parse(src).unwrap();
        assert!(d.estimated_bytes > src.len() as u64);
    }

    #[test]
    fn attribute_lookup() {
        let d = Document::parse(br#"<a x="1"/>"#).unwrap();
        assert_eq!(d.node(d.root).attribute("x"), Some("1"));
        assert_eq!(d.node(d.root).attribute("y"), None);
    }
}
