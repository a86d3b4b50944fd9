//! Streaming-boundary differential test (ISSUE: spec-conformance PR).
//!
//! Feeds documents through 1-, 3- and 7-byte chunked readers so that
//! every hazard the tokenizer handles statefully — multi-byte UTF-8
//! sequences, the CDATA `]]>` terminator, and `\r\n` line endings that
//! must normalize to a single `\n` — gets split across `fill_buf`
//! refills, and asserts the event stream is identical to a
//! whole-buffer parse.
//!
//! The same corpus doubles as the conformance oracle for the push API
//! (ISSUE 5): every document is also fed through
//! [`StreamParser::push`] in the same chunk sizes, polling between
//! pushes, and must yield the identical event stream again.

use std::io::{BufRead, Read};

mod common;

use common::{drain, record, record_doc};
use xsq_xml::StreamParser;

/// A reader that yields at most `chunk` bytes per `fill_buf` call.
struct Chunked<'a> {
    data: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.chunk).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl BufRead for Chunked<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let end = (self.pos + self.chunk).min(self.data.len());
        Ok(&self.data[self.pos..end])
    }
    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

fn parse_chunked(data: &[u8], chunk: usize) -> Vec<String> {
    record(StreamParser::new(Chunked {
        data,
        pos: 0,
        chunk,
    }))
    .expect("chunked parse failed")
}

/// Push-feed the document in `chunk`-byte pieces, polling to
/// exhaustion between pushes.
fn parse_pushed(data: &[u8], chunk: usize) -> Vec<String> {
    let mut parser = StreamParser::push_mode();
    let mut out = Vec::new();
    for piece in data.chunks(chunk) {
        parser.push(piece);
        drain(&mut parser, &mut out).expect("pushed parse failed");
    }
    parser.finish();
    drain(&mut parser, &mut out).expect("pushed parse failed");
    out
}

/// Every chunk size must produce the event stream of a whole-buffer
/// parse — through the pull parser over a starving reader *and*
/// through the push API.
fn assert_boundary_independent(doc: &str) {
    let whole = record_doc(doc.as_bytes()).unwrap();
    for chunk in [1, 3, 7] {
        let chunked = parse_chunked(doc.as_bytes(), chunk);
        assert_eq!(chunked, whole, "chunk size {chunk} diverged for {doc:?}");
        let pushed = parse_pushed(doc.as_bytes(), chunk);
        assert_eq!(pushed, whole, "push chunk {chunk} diverged for {doc:?}");
    }
}

#[test]
fn multibyte_utf8_split_across_refills() {
    // 2-, 3- and 4-byte UTF-8 sequences in text, CDATA and attribute
    // values: a 1-byte chunk splits every one of them mid-sequence.
    assert_boundary_independent(
        "<doc lang=\"日本語\"><t>héllo § — ünïcode</t>\
         <![CDATA[emoji 🚀 and ｆｕｌｌｗｉｄｔｈ]]><t>末尾</t></doc>",
    );
}

#[test]
fn cdata_terminator_split_across_refills() {
    // `]]>` straddles refill boundaries at every offset; lone `]` and
    // `]]` inside the section must not terminate it early.
    assert_boundary_independent(
        "<doc><![CDATA[a]b]]x]]]><t>after</t>\
         <![CDATA[]]]]><t>brackets</t></doc>",
    );
}

#[test]
fn crlf_split_across_refills() {
    // `\r\n` pairs in text, CDATA and attribute values with the CR and
    // LF landing in different refills must still collapse to one
    // newline (XML 1.0 §2.11) / one space (§3.3.3).
    assert_boundary_independent(
        "<doc a=\"x\r\ny\rz\"><t>line1\r\nline2\rline3</t>\
         <![CDATA[raw\r\ncdata\r]]></doc>",
    );
}

#[test]
fn entity_references_split_across_refills() {
    // `&amp;` and numeric character references cut mid-reference.
    assert_boundary_independent(
        "<doc a=\"p &amp; q &#10; r\"><t>&lt;tag&gt; &#x1F680; &apos;</t></doc>",
    );
}

#[test]
fn combined_hazards_one_document() {
    // All of the above in one document, plus tags/comments/PIs that
    // themselves straddle boundaries.
    assert_boundary_independent(
        "<?xml version=\"1.0\"?><!-- ünïcode — comment -->\
         <pub year=\"2002\r\n2003\"><book id=\"1\"><name>日本\r\nLanguage</name>\
         <![CDATA[x]]y\r\nz🚀]]><price>10.5</price></book><?pi data?></pub>",
    );
}
