//! Parser robustness: chunked reads (buffer-boundary independence),
//! arbitrary-bytes no-panic fuzzing, idempotent re-serialization, and the
//! front-end differential — for valid documents *and* their mutations,
//! whole-buffer pull ≡ push split at every cut point ≡ push at random
//! multi-cuts, events or error alike.
//!
//! Generation runs on the seeded LCG in `common`; every assertion names
//! its seed, which reproduces the case.

mod common;

use std::io::{BufRead, Read};

use common::Lcg;
use xsq_xml::{parse_to_events, Error, ParsePoll, SaxEvent, StreamParser};

/// Cases per property (Miri interprets: keep its sweep short).
const CASES: u64 = if cfg!(miri) { 6 } else { 1500 };

/// A reader that yields at most `chunk` bytes per `fill_buf` call —
/// exercises every token-straddles-a-chunk-boundary path.
struct Trickle<'a> {
    data: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.chunk).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl BufRead for Trickle<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let end = (self.pos + self.chunk).min(self.data.len());
        Ok(&self.data[self.pos..end])
    }
    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

fn parse_trickled(data: &[u8], chunk: usize) -> Result<Vec<SaxEvent>, xsq_xml::Error> {
    let mut p = StreamParser::new(Trickle {
        data,
        pos: 0,
        chunk,
    });
    let mut out = Vec::new();
    while let Some(ev) = p.next_event()? {
        out.push(ev);
    }
    Ok(out)
}

const SAMPLE: &str = r#"<?xml version="1.0"?><!-- c --><pub>
  <book id="1" cat="a&amp;b"><name>First &lt;ed.&gt;</name>
  <![CDATA[raw <stuff> here]]><price>10.00</price></book>
  <empty/><year>2002</year>
</pub>"#;

#[test]
fn one_byte_chunks_equal_whole_buffer() {
    let whole = parse_to_events(SAMPLE.as_bytes()).unwrap();
    for chunk in [1, 2, 3, 7, 64] {
        let trickled = parse_trickled(SAMPLE.as_bytes(), chunk).unwrap();
        assert_eq!(trickled, whole, "chunk size {chunk}");
    }
}

#[test]
fn errors_are_chunk_size_independent() {
    let bad = b"<a><b>text</a></b>";
    let e1 = parse_trickled(bad, 1).unwrap_err();
    let e2 = parse_trickled(bad, 1024).unwrap_err();
    assert_eq!(e1, e2);
}

/// Push `data` split at `cuts` (ascending offsets), polling to
/// exhaustion after every push, then finish and drain.
fn parse_pushed(data: &[u8], cuts: &[usize]) -> Result<Vec<SaxEvent>, Error> {
    let mut parser = StreamParser::push_mode();
    let mut out = Vec::new();
    let mut from = 0;
    for &cut in cuts.iter().chain([&data.len()]) {
        parser.push(&data[from..cut]);
        from = cut;
        while let ParsePoll::Event(ev) = parser.poll_raw()? {
            out.push(ev.to_owned());
        }
    }
    parser.finish();
    loop {
        match parser.poll_raw()? {
            ParsePoll::Event(ev) => out.push(ev.to_owned()),
            ParsePoll::NeedMore => panic!("NeedMore after finish"),
            ParsePoll::End => return Ok(out),
        }
    }
}

fn random_bytes(rng: &mut Lcg, max_len: usize, alphabet: &[u8]) -> Vec<u8> {
    (0..rng.below(max_len + 1))
        .map(|_| rng.pick(alphabet))
        .collect()
}

/// Any outcome is fine; panicking or looping is not — and the push front
/// end must reach the same outcome.
fn assert_never_panics(label: &str, max_len: usize, alphabet: &[u8]) {
    for seed in 0..CASES {
        let mut rng = Lcg::seeded(seed);
        let data = random_bytes(&mut rng, max_len, alphabet);
        let whole = parse_to_events(&data);
        let cut = rng.below(data.len() + 1);
        assert_eq!(parse_pushed(&data, &[cut]), whole, "{label} seed {seed}");
    }
}

#[test]
fn arbitrary_bytes_never_panic() {
    let all: Vec<u8> = (0..=255).collect();
    assert_never_panics("bytes", 512, &all);
}

#[test]
fn arbitrary_ascii_never_panics() {
    let printable: Vec<u8> = (b' '..=b'~').collect();
    assert_never_panics("ascii", 256, &printable);
}

#[test]
fn xmlish_soup_never_panics() {
    assert_never_panics("soup", 200, b"<>/abc =\"'&;![]-?\r");
}

const WORDS: &[&str] = &[
    "",
    "x",
    "plain text",
    "caf\u{e9} \u{65e5}\u{672c} \u{1F680}",
    "a &amp; b &lt; c",
    "&#65;&#x1F680;&#13;",
    "line1\r\nline2\rline3",
    "]] > ]",
    "  ",
];
const MARKUP: &[&str] = &[
    "<!-- c - -- comment -->",
    "<?pi data ? >?>",
    "<![CDATA[raw <b> & ]] ]> \r\n]]>",
    "<![CDATA[]]]]>",
    "<e/>",
    "<e k=\"v > w\" j='\"'/>",
];

/// A random well-formed element (text, attributes, entities, CDATA,
/// comments, PIs, every line-ending spelling, multi-byte UTF-8).
fn gen_element(rng: &mut Lcg, depth: usize, out: &mut String) {
    let name = rng.pick(&["r", "item", "x-y", "n\u{e9}"]);
    out.push('<');
    out.push_str(name);
    for attr in ["a", "b"] {
        if rng.chance(30) {
            let quote = rng.pick(&['"', '\'']);
            out.push_str(&format!(" {attr} = {quote}"));
            out.push_str(&rng.pick(WORDS).replace(['"', '\''], "_"));
            out.push(quote);
        }
    }
    if rng.chance(15) {
        out.push_str(" />");
        return;
    }
    out.push('>');
    for _ in 0..rng.below(5) {
        match rng.below(4) {
            0 if depth < 3 => gen_element(rng, depth + 1, out),
            1 => out.push_str(rng.pick(MARKUP)),
            _ => out.push_str(rng.pick(WORDS)),
        }
    }
    out.push_str(&format!("</{name} >"));
}

fn gen_document(rng: &mut Lcg) -> Vec<u8> {
    let mut out = String::new();
    if rng.chance(40) {
        out.push_str("<?xml version=\"1.0\"?>\n");
    }
    if rng.chance(30) {
        out.push_str("<!DOCTYPE r [ <!ELEMENT r ANY> <!ATTLIST r a CDATA #IMPLIED> ]>");
    }
    gen_element(rng, 0, &mut out);
    if rng.chance(30) {
        out.push_str("\n<!-- trailer -->");
    }
    out.into_bytes()
}

/// Bytes most likely to move a token boundary when dropped in anywhere.
const SPLICES: &[&[u8]] = &[
    b"<",
    b">",
    b"\"",
    b"'",
    b"&",
    b";",
    b"\r",
    b"]]>",
    b"-->",
    b"?>",
    b"<!--",
    b"<![CDATA[",
    b"<!",
    b"<?",
    b"</",
    b"/>",
    b"<!-",
    b"<![",
    b"=",
    b"\xc3",
    b"\x00",
    b"&#0;",
    b" a='1' a='2'",
];

/// One random mutation: truncation, byte flip, or splice.
fn mutate(rng: &mut Lcg, doc: &[u8]) -> Vec<u8> {
    let mut out = doc.to_vec();
    let at = rng.below(out.len() + 1);
    match rng.below(3) {
        0 => out.truncate(at),
        1 if at < out.len() => out[at] = rng.next() as u8,
        _ => {
            out.splice(at..at, rng.pick(SPLICES).iter().copied());
        }
    }
    out
}

#[test]
fn valid_docs_parse_identically_at_every_chunk_size() {
    for seed in 0..CASES {
        let mut rng = Lcg::seeded(seed);
        let doc = gen_document(&mut rng);
        let whole = parse_to_events(&doc).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let chunk = 1 + rng.below(31);
        let trickled = parse_trickled(&doc, chunk).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(whole, trickled, "seed {seed} chunk {chunk}");
    }
}

#[test]
fn reserialization_is_idempotent() {
    // Parse, write, parse, write: the second and later serializations
    // must be a fixed point.
    for seed in 0..CASES {
        let doc = gen_document(&mut Lcg::seeded(seed));
        let ev1 = parse_to_events(&doc).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let s1 = xsq_xml::writer::events_to_string(&ev1);
        let ev2 = parse_to_events(s1.as_bytes()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let s2 = xsq_xml::writer::events_to_string(&ev2);
        assert_eq!(s1, s2, "seed {seed}");
    }
}

#[test]
fn pull_and_push_agree_at_every_cut_point_on_valid_and_mutated_docs() {
    for seed in 0..CASES / 2 {
        let mut rng = Lcg::seeded(seed);
        let valid = gen_document(&mut rng);
        assert!(parse_to_events(&valid).is_ok(), "seed {seed}: generator");
        let mut docs = vec![valid.clone()];
        for _ in 0..4 {
            docs.push(mutate(&mut rng, &valid));
        }
        for (m, doc) in docs.iter().enumerate() {
            // Events or error (variant, message and offset) — by equality.
            let whole = parse_to_events(doc);
            let show = || String::from_utf8_lossy(doc).into_owned();
            for cut in 0..=doc.len() {
                let pushed = parse_pushed(doc, &[cut]);
                assert_eq!(
                    pushed,
                    whole,
                    "seed {seed} mutation {m} cut {cut}: {}",
                    show()
                );
            }
            for _ in 0..4 {
                let mut cuts: Vec<usize> = (0..1 + rng.below(8))
                    .map(|_| rng.below(doc.len() + 1))
                    .collect();
                cuts.sort_unstable();
                let pushed = parse_pushed(doc, &cuts);
                assert_eq!(
                    pushed,
                    whole,
                    "seed {seed} mutation {m} cuts {cuts:?}: {}",
                    show()
                );
            }
            let chunk = 1 + rng.below(7);
            let trickled = parse_trickled(doc, chunk);
            assert_eq!(
                trickled,
                whole,
                "seed {seed} mutation {m} trickle {chunk}: {}",
                show()
            );
        }
    }
}
