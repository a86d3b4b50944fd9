//! Round-trip property test for the serializer: for any document —
//! including comments, processing instructions, CDATA sections, and
//! whitespace that XML normalization would otherwise destroy — parsing,
//! serializing the events, and reparsing must yield the same events.
//!
//! The generator is a seeded xorshift PRNG (hermetic — no external
//! property-testing crate), so failures reproduce exactly.

use xsq_xml::writer::{events_to_string, DocumentWriter, WriteError, XmlWriter};
use xsq_xml::{parse_to_events, SaxEvent};

/// Minimal deterministic PRNG (xorshift64*).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

const TAGS: &[&str] = &["a", "bk", "name", "pub", "x-y", "deep"];
const ATTRS: &[&str] = &["id", "lang", "v"];
// Text fragments exercising every escaping rule: markup characters,
// entity-looking text, CR/LF/tab (CR must become &#13; to survive), and
// multi-byte UTF-8.
const TEXTS: &[&str] = &[
    "plain",
    "a & b < c > d",
    "line1\r\nline2\rline3",
    "tabs\tand\nnewlines",
    "\"quoted\" 'single'",
    "caf\u{e9} \u{1F600}",
    "]] not-a-cdata-end",
    "&amp;-looking",
];
const COMMENTS: &[&str] = &["note", "a - b", "tricky -- dashes -", "<tag> inside"];
const PI_DATA: &[&str] = &["", "href=\"x\"", "ends with ?", "quest?>ion"];
const CDATA: &[&str] = &["<raw> & unescaped", "a]]>b", "]]>", "plain cdata"];

/// Write one random document. `markup` controls whether comments, PIs,
/// and CDATA are sprinkled in (the parser drops/merges them; the text
/// they decode to must still round-trip).
fn gen_document(rng: &mut Rng) -> String {
    let mut out = String::new();
    if rng.below(2) == 0 {
        out.push_str("<?xml version=\"1.0\"?>");
    }
    let mut w = XmlWriter::new();
    if rng.below(3) == 0 {
        w.write_comment(rng.pick(COMMENTS));
    }
    if rng.below(3) == 0 {
        w.write_pi("target", rng.pick(PI_DATA));
    }
    out.push_str(w.as_str());
    gen_element(rng, &mut out, 0);
    out
}

fn gen_element(rng: &mut Rng, out: &mut String, depth: usize) {
    let tag = rng.pick(TAGS);
    out.push('<');
    out.push_str(tag);
    let chosen: Vec<&str> = ATTRS
        .iter()
        .filter(|_| rng.below(3) == 0)
        .copied()
        .collect();
    for name in chosen {
        // Attribute values with whitespace that §3.3.3 normalization
        // would turn into spaces if the writer emitted them raw.
        out.push(' ');
        out.push_str(name);
        out.push_str("=\"");
        let mut esc = String::new();
        xsq_xml::entities::escape_attr_into(rng.pick(TEXTS), &mut esc);
        out.push_str(&esc);
        out.push('"');
    }
    out.push('>');
    for _ in 0..rng.below(4) {
        let mut w = XmlWriter::new();
        match rng.below(6) {
            0 | 1 => {
                let mut esc = String::new();
                xsq_xml::entities::escape_text_into(rng.pick(TEXTS), &mut esc);
                out.push_str(&esc);
            }
            2 if depth < 4 => gen_element(rng, out, depth + 1),
            3 => {
                w.write_cdata(rng.pick(CDATA));
                out.push_str(w.as_str());
            }
            4 => {
                w.write_comment(rng.pick(COMMENTS));
                out.push_str(w.as_str());
            }
            _ => {
                w.write_pi("pi", rng.pick(PI_DATA));
                out.push_str(w.as_str());
            }
        }
    }
    out.push_str("</");
    out.push_str(tag);
    out.push('>');
}

#[test]
fn random_documents_roundtrip_at_event_level() {
    let mut rng = Rng::new(0x5EED_CAFE);
    for case in 0..300 {
        let doc = gen_document(&mut rng);
        let events = parse_to_events(doc.as_bytes())
            .unwrap_or_else(|e| panic!("case {case}: generated doc failed to parse: {e}\n{doc}"));
        let rewritten = events_to_string(&events);
        let events2 = parse_to_events(rewritten.as_bytes()).unwrap_or_else(|e| {
            panic!("case {case}: serialized form failed to reparse: {e}\n{rewritten}")
        });
        assert_eq!(events, events2, "case {case}:\n{doc}\n→\n{rewritten}");
        // Serialization is a fixpoint: a second round emits identical bytes.
        assert_eq!(rewritten, events_to_string(&events2), "case {case}");
    }
}

#[test]
fn cr_in_text_survives_roundtrip() {
    // A CR reaches the event stream only via &#13;. The writer must
    // re-emit it as a character reference or reparse turns it into \n.
    let doc = "<a>x&#13;y</a>";
    let events = parse_to_events(doc.as_bytes()).unwrap();
    let rewritten = events_to_string(&events);
    let events2 = parse_to_events(rewritten.as_bytes()).unwrap();
    assert_eq!(events, events2);
    match &events2[2] {
        SaxEvent::Text { text, .. } => assert_eq!(text, "x\ry"),
        other => panic!("expected text event, got {other:?}"),
    }
}

#[test]
fn whitespace_attributes_survive_roundtrip() {
    let doc = "<a v=\"x&#10;y&#9;z&#13;\"/>";
    let events = parse_to_events(doc.as_bytes()).unwrap();
    let rewritten = events_to_string(&events);
    assert_eq!(rewritten, "<a v=\"x&#10;y&#9;z&#13;\"></a>");
    assert_eq!(events, parse_to_events(rewritten.as_bytes()).unwrap());
}

#[test]
fn attribute_escaping_is_exact_at_every_run_boundary() {
    // Specials first, last, doubled, and hard against multi-byte
    // characters: clean runs are copied by byte range, so a range off by
    // one would split a character or lose a neighbour.
    let mut esc = String::new();
    xsq_xml::entities::escape_attr_into("\"\u{e9}\t\u{1F600}\n\r\u{20AC}&<>x\"", &mut esc);
    assert_eq!(
        esc,
        "&quot;\u{e9}&#9;\u{1F600}&#10;&#13;\u{20AC}&amp;&lt;&gt;x&quot;"
    );
    // Against the char-by-char definition, over every pair of fragments.
    fn reference(value: &str) -> String {
        let mut out = String::new();
        for c in value.chars() {
            match c {
                '&' => out.push_str("&amp;"),
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '"' => out.push_str("&quot;"),
                '\t' => out.push_str("&#9;"),
                '\n' => out.push_str("&#10;"),
                '\r' => out.push_str("&#13;"),
                _ => out.push(c),
            }
        }
        out
    }
    let edges = ["", "\"", "\t", "\n", "\r", "\u{e9}", "\u{1F600}", "'"];
    for a in TEXTS.iter().chain(&edges) {
        for b in TEXTS.iter().chain(&edges) {
            let value = format!("{a}{b}");
            let mut esc = String::from("kept:");
            xsq_xml::entities::escape_attr_into(&value, &mut esc);
            assert_eq!(esc, format!("kept:{}", reference(&value)), "{value:?}");
            // And the value survives a parse of the escaped form.
            let doc = format!("<a v=\"{}\"/>", &esc["kept:".len()..]);
            match &parse_to_events(doc.as_bytes()).unwrap()[1] {
                SaxEvent::Begin { attributes, .. } => assert_eq!(attributes[0].value, value),
                other => panic!("expected a begin event, got {other:?}"),
            }
        }
    }
}

#[test]
fn comment_and_pi_emission_is_always_well_formed() {
    for c in COMMENTS {
        let mut w = XmlWriter::new();
        w.write_comment(c);
        let doc = format!("{}<a/>", w.as_str());
        parse_to_events(doc.as_bytes())
            .unwrap_or_else(|e| panic!("comment {c:?} broke parsing: {e}"));
    }
    for d in PI_DATA {
        let mut w = XmlWriter::new();
        w.write_pi("t", d);
        let doc = format!("{}<a/>", w.as_str());
        parse_to_events(doc.as_bytes()).unwrap_or_else(|e| panic!("pi {d:?} broke parsing: {e}"));
    }
}

#[test]
fn cdata_sections_decode_to_their_payload() {
    for c in CDATA {
        let mut w = XmlWriter::new();
        w.write_cdata(c);
        let doc = format!("<a>{}</a>", w.as_str());
        let events = parse_to_events(doc.as_bytes())
            .unwrap_or_else(|e| panic!("cdata {c:?} broke parsing: {e}\n{doc}"));
        let text: String = events
            .iter()
            .filter_map(|e| match e {
                SaxEvent::Text { text, .. } => Some(text.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(&text, c);
    }
}

#[test]
fn document_writer_validates_structure() {
    // Balanced document passes.
    let events = parse_to_events(b"<a><b>x</b></a>").unwrap();
    let mut w = DocumentWriter::with_decl();
    for e in &events {
        w.write_event(e).unwrap();
    }
    let doc = w.finish().unwrap();
    assert!(doc.starts_with("<?xml version=\"1.0\""));
    assert!(doc.ends_with("</a>"));

    // A second root is rejected.
    let mut w = DocumentWriter::new();
    for e in parse_to_events(b"<a/>").unwrap() {
        if !matches!(e, SaxEvent::EndDocument) {
            w.write_event(&e).unwrap();
        }
    }
    let second = SaxEvent::Begin {
        name: "b".into(),
        attributes: vec![],
        depth: 1,
    };
    assert!(matches!(
        w.write_event(&second),
        Err(WriteError::SecondRoot { .. })
    ));

    // Unclosed elements are rejected at finish.
    let mut w = DocumentWriter::new();
    w.write_event(&second).unwrap();
    assert!(matches!(
        w.finish(),
        Err(WriteError::UnclosedElements { open: 1 })
    ));

    // Empty documents are rejected.
    assert!(matches!(
        DocumentWriter::new().finish(),
        Err(WriteError::NoRoot)
    ));

    // An end with nothing open is rejected.
    let mut w = DocumentWriter::new();
    let stray = SaxEvent::End {
        name: "a".into(),
        depth: 1,
    };
    assert!(matches!(
        w.write_event(&stray),
        Err(WriteError::UnbalancedEnd { .. })
    ));
}
