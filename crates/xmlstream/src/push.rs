//! The input window and its token-boundary scanner — the one place that
//! knows where an XML token ends — plus the push surface built on it.
//!
//! Bytes arrive in chunks that split tokens, multi-byte UTF-8
//! sequences, entity references and the CDATA `]]>` terminator at
//! arbitrary boundaries. `Window` owns the unconsumed bytes and runs
//! one resumable state machine (`Scan`) over them, on the
//! delimiter-scan kernels ([`crate::scan`]):
//! `Window::next_token` yields the next **complete** token as a kind
//! plus a byte range — a text run once the `<` that ends it has arrived
//! (so a split UTF-8 sequence, the `\r` of a `\r\n` pair or an
//! unterminated `&entity;` is never half-processed), a tag once its
//! quote-aware `>` has, a comment / CDATA section / PI / declaration
//! once its terminator has — and `None` while the tail is still in
//! flight. The parser above ([`crate::parser`]) therefore parses slices
//! it knows are whole, with index arithmetic and no I/O, and never looks
//! for a terminator itself.
//!
//! The scanner keeps its position (`scanned`) and grammar state between
//! calls, so every byte is examined once however the input is chunked:
//! a megabyte comment pushed one byte at a time costs a megabyte of
//! scanning, not a rescan from the token's start on every push.
//!
//! [`PushParser`] is the parser fed through that window directly:
//! [`push`](StreamParser::push) appends a chunk,
//! [`poll_raw`](StreamParser::poll_raw) returns events until it reports
//! [`ParsePoll::NeedMore`](crate::ParsePoll::NeedMore), and
//! [`finish`](StreamParser::finish) marks end of input, which hands the
//! unfinished tail to the parser so a truncated document gets the
//! positioned error it deserves. A document fed in 1-byte chunks
//! produces the event stream — and the errors — of a whole-buffer
//! parse; the chunked differential tests pin that.
//!
//! Memory is bounded by the largest single token plus one chunk:
//! consumed bytes are compacted away as the window refills.

use crate::parser::StreamParser;
use crate::scan;

/// Scanner state: where in the raw XML grammar the byte at `scanned`
/// sits, relative to the token that starts at `pos`. Only completeness
/// of tokens is tracked — validity is the parser's job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scan {
    /// Character data (or between tokens); `amp` / `cr` record whether
    /// the run so far holds a `&` / `\r`.
    Text { amp: bool, cr: bool },
    /// Consumed `<`, nothing after it yet.
    Lt,
    /// Inside a start/end tag. `quote` is the active attribute-value
    /// delimiter (`"` / `'`), or 0 outside a value — a `>` inside a
    /// quoted value does not end the tag.
    Tag { quote: u8 },
    /// Consumed `<!`.
    Bang,
    /// Consumed `<!-`.
    BangDash,
    /// Inside `<![`, matching the `[CDATA[` opener; `matched` bytes of
    /// it are confirmed.
    CdataOpen { matched: u8 },
    /// Inside a comment, CDATA section or PI (`kind`); `matched` is the
    /// length of the [terminator](TokenKind::terminator) prefix
    /// currently pending.
    Body { kind: TokenKind, matched: u8 },
    /// Inside `<!DOCTYPE` (or any other `<!…` declaration); `depth` is
    /// the internal-subset bracket nesting.
    Decl { depth: i32 },
}

/// The state between tokens.
const BETWEEN: Scan = Scan::Text {
    amp: false,
    cr: false,
};

/// What a [`Token`]'s bytes are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// A whole character-data run (everything up to the next `<` or the
    /// end of input). The flags let the parser skip the line-ending and
    /// entity passes for runs that hold no `\r` / `&`.
    Text { amp: bool, cr: bool },
    /// `<name …>`, `<name …/>` or `</name>`.
    Tag,
    /// `<![CDATA[…]]>`; the payload sits between [`CDATA_OPEN`] and
    /// [`CDATA_CLOSE`] bytes.
    Cdata,
    /// `<!--…-->`.
    Comment,
    /// `<?…?>`.
    Pi,
    /// `<!DOCTYPE …>` or any other `<!…>` declaration, internal subset
    /// included.
    Decl,
}

impl TokenKind {
    /// `(marker, run)` of a comment, CDATA section or PI: it ends at the
    /// first `>` that directly follows at least `run` consecutive
    /// `marker` bytes — `-->`, `]]>`, `?>`.
    fn terminator(self) -> (u8, u8) {
        match self {
            TokenKind::Comment => (b'-', 2),
            TokenKind::Cdata => (b']', 2),
            TokenKind::Pi => (b'?', 1),
            _ => unreachable!("{self:?} has no fixed terminator"),
        }
    }
}

/// Length of the `<![CDATA[` opener.
pub(crate) const CDATA_OPEN: usize = 9;
/// Length of the `]]>` terminator.
pub(crate) const CDATA_CLOSE: usize = 3;

/// One token of the window: `start..end` index the window's buffer and
/// stay valid until the next [`Window::push`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Token {
    pub(crate) kind: TokenKind,
    start: usize,
    end: usize,
    /// False only for the unterminated markup left when the input ended:
    /// the bytes run to the end of input, not to the token's terminator.
    pub(crate) complete: bool,
}

/// What one scan achieved: how many bytes it examined, and the token
/// they complete — or the state to resume in when more arrive.
type Progress = (usize, Result<TokenKind, Scan>);

// One function per scanner state. Each starts at `tail[i]`, runs until a
// token completes or `tail` is used up, and moves to the next state by
// calling it — the grammar is a chain (text → `<` → tag | `<!` → …) with
// loops only inside a state — so [`Scan`] is consulted once per call, to
// resume, and never between states. Every state bulk-skips to its next
// structurally interesting byte on the scan kernels.

/// Character data. `in_run`: the run already holds bytes from earlier
/// scans. One fused pass settles the run boundary *and* the flags that
/// let the parser skip its normalization and decode passes.
fn text(tail: &[u8], mut amp: bool, mut cr: bool, in_run: bool) -> Progress {
    let mut i = 0;
    loop {
        // A tag directly after a tag needs no kernel call to see its `<`.
        if tail.get(i) != Some(&b'<') {
            i += scan::classify_run(&tail[i..]);
        }
        match tail.get(i) {
            None => return (i, Err(Scan::Text { amp, cr })),
            // The run is whole; its `<` is scanned but belongs to the
            // next token.
            Some(b'<') if in_run || i > 0 => return (i + 1, Ok(TokenKind::Text { amp, cr })),
            Some(b'<') => return lt(tail, i + 1),
            // `]` is ordinary content in a text run.
            Some(&b) => {
                amp |= b == b'&';
                cr |= b == b'\r';
                i += 1;
            }
        }
    }
}

fn lt(tail: &[u8], i: usize) -> Progress {
    match tail.get(i) {
        None => (i, Err(Scan::Lt)),
        Some(b'!') => bang(tail, i + 1),
        Some(b'?') => body(tail, i + 1, TokenKind::Pi, 0),
        // Start/end tag (or junk the parser will reject).
        Some(_) => tag(tail, i, 0),
    }
}

fn tag(tail: &[u8], mut i: usize, mut quote: u8) -> Progress {
    loop {
        let found = match quote {
            0 => scan::find_byte3(&tail[i..], b'>', b'"', b'\''),
            _ => scan::find_byte(&tail[i..], quote),
        };
        let Some(j) = found else {
            return (tail.len(), Err(Scan::Tag { quote }));
        };
        i += j + 1;
        quote = match (quote, tail[i - 1]) {
            (0, b'>') => return (i, Ok(TokenKind::Tag)),
            (0, opening) => opening,
            _ => 0,
        };
    }
}

fn bang(tail: &[u8], i: usize) -> Progress {
    match tail.get(i) {
        None => (i, Err(Scan::Bang)),
        Some(b'-') => bang_dash(tail, i + 1),
        Some(b'[') => cdata_open(tail, i + 1, 1),
        Some(_) => decl(tail, i, 0),
    }
}

fn bang_dash(tail: &[u8], i: usize) -> Progress {
    match tail.get(i) {
        None => (i, Err(Scan::BangDash)),
        Some(b'-') => body(tail, i + 1, TokenKind::Comment, 0),
        // `<!-x…` is not a comment; the parser rejects it when it gets
        // the token. Scan it like a declaration so it still reaches a
        // boundary.
        Some(_) => decl(tail, i, 0),
    }
}

fn cdata_open(tail: &[u8], mut i: usize, mut matched: u8) -> Progress {
    const OPENER: &[u8] = b"[CDATA[";
    while (matched as usize) < OPENER.len() {
        match tail.get(i) {
            None => return (i, Err(Scan::CdataOpen { matched })),
            Some(&b) if b == OPENER[matched as usize] => {
                i += 1;
                matched += 1;
            }
            // Not a CDATA section after all (`<![foo…`): the parser
            // rejects it; scan like a declaration whose `[` is already
            // open.
            Some(_) => return decl(tail, i, 1),
        }
    }
    body(tail, i, TokenKind::Cdata, 0)
}

/// The inside of a comment, CDATA section or PI, up to its terminator.
fn body(tail: &[u8], mut i: usize, kind: TokenKind, mut matched: u8) -> Progress {
    let (marker, run) = kind.terminator();
    loop {
        // With no terminator prefix pending, the only interesting byte
        // is the next `marker`: bulk-skip to it.
        if matched == 0 {
            match scan::find_byte(&tail[i..], marker) {
                None => return (tail.len(), Err(Scan::Body { kind, matched })),
                Some(j) => i += j,
            }
        }
        match tail.get(i) {
            None => return (i, Err(Scan::Body { kind, matched })),
            Some(&b) if b == marker => matched = (matched + 1).min(run),
            Some(b'>') if matched >= run => return (i + 1, Ok(kind)),
            Some(_) => matched = 0,
        }
        i += 1;
    }
}

fn decl(tail: &[u8], mut i: usize, mut depth: i32) -> Progress {
    loop {
        let Some(j) = scan::find_byte3(&tail[i..], b'[', b']', b'>') else {
            return (tail.len(), Err(Scan::Decl { depth }));
        };
        i += j + 1;
        match tail[i - 1] {
            b'[' => depth = depth.saturating_add(1),
            b']' => depth = depth.saturating_sub(1),
            _ if depth <= 0 => return (i, Ok(TokenKind::Decl)),
            _ => {}
        }
    }
}

/// Compact once the consumed prefix passes this size (or the window is
/// fully drained, which is free).
const COMPACT_THRESHOLD: usize = 4096;

/// The unconsumed input and the boundary scanner over it.
#[derive(Debug)]
pub(crate) struct Window {
    data: Vec<u8>,
    /// Input offset of `data[0]`.
    base: u64,
    /// Start of the next token; everything before it is consumed.
    pos: usize,
    /// Scanner progress (`pos ≤ scanned ≤ data.len()`): bytes before it
    /// are never examined again.
    scanned: usize,
    state: Scan,
    /// End of input signalled: the tail is a token, complete or not.
    eof: bool,
}

impl Window {
    pub(crate) fn new() -> Self {
        Window {
            data: Vec::new(),
            base: 0,
            pos: 0,
            scanned: 0,
            state: BETWEEN,
            eof: false,
        }
    }

    /// Append a chunk. Invalidates outstanding [`Token`]s.
    pub(crate) fn push(&mut self, chunk: &[u8]) {
        // Compact the consumed prefix before growing: free when fully
        // drained, amortized otherwise.
        if self.pos == self.data.len() || self.pos >= COMPACT_THRESHOLD {
            self.data.copy_within(self.pos.., 0);
            self.data.truncate(self.data.len() - self.pos);
            self.base += self.pos as u64;
            self.scanned -= self.pos;
            self.pos = 0;
        }
        self.data.extend_from_slice(chunk);
    }

    /// Signal end of input: whatever is left becomes the last token (an
    /// unterminated one is the parser's error to report, exactly as a
    /// truncated file would be).
    pub(crate) fn finish(&mut self) {
        self.eof = true;
    }

    /// End of input signalled?
    pub(crate) fn is_finished(&self) -> bool {
        self.eof
    }

    /// Rearm for a new input stream, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.data.clear();
        self.base = 0;
        self.pos = 0;
        self.scanned = 0;
        self.state = BETWEEN;
        self.eof = false;
    }

    /// Bytes appended but not yet handed out as tokens.
    pub(crate) fn buffered(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Input offset of the next token (= bytes consumed so far).
    pub(crate) fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Input offset one past the last byte appended.
    pub(crate) fn end_offset(&self) -> u64 {
        self.base + self.data.len() as u64
    }

    /// The token's bytes and the input offset of the first of them.
    pub(crate) fn bytes(&self, token: &Token) -> (&[u8], u64) {
        (
            &self.data[token.start..token.end],
            self.base + token.start as u64,
        )
    }

    /// Consume and return the next complete token, or `None` when the
    /// bytes after `pos` do not (yet) hold one. After
    /// [`finish`](Self::finish) the unterminated tail, if any, is
    /// returned as a last token with `complete == false`.
    ///
    /// The scan resumes at `scanned` in `state` and is handed only the
    /// bytes from there on, so no byte is examined twice.
    pub(crate) fn next_token(&mut self) -> Option<Token> {
        let tail = &self.data[self.scanned..];
        let (examined, outcome) = match self.state {
            Scan::Text { amp, cr } => text(tail, amp, cr, self.scanned > self.pos),
            Scan::Lt => lt(tail, 0),
            Scan::Tag { quote } => tag(tail, 0, quote),
            Scan::Bang => bang(tail, 0),
            Scan::BangDash => bang_dash(tail, 0),
            Scan::CdataOpen { matched } => cdata_open(tail, 0, matched),
            Scan::Body { kind, matched } => body(tail, 0, kind, matched),
            Scan::Decl { depth } => decl(tail, 0, depth),
        };
        self.scanned += examined;
        let start = self.pos;
        let (kind, end, complete) = match outcome {
            // The `<` that ended a text run opens the next token.
            Ok(kind @ TokenKind::Text { .. }) => {
                self.state = Scan::Lt;
                (kind, self.scanned - 1, true)
            }
            Ok(kind) => {
                self.state = BETWEEN;
                (kind, self.scanned, true)
            }
            Err(state) if self.eof && start < self.scanned => {
                self.state = BETWEEN;
                let (kind, complete) = match state {
                    Scan::Text { amp, cr } => (TokenKind::Text { amp, cr }, true),
                    Scan::Lt | Scan::Tag { .. } => (TokenKind::Tag, false),
                    Scan::Body { kind, .. } => (kind, false),
                    Scan::Bang | Scan::BangDash | Scan::CdataOpen { .. } | Scan::Decl { .. } => {
                        (TokenKind::Decl, false)
                    }
                };
                (kind, self.scanned, complete)
            }
            Err(state) => {
                self.state = state;
                return None;
            }
        };
        self.pos = end;
        Some(Token {
            kind,
            start,
            end,
            complete,
        })
    }
}

/// A push-fed [`StreamParser`]: bytes go in through
/// [`push`](StreamParser::push), events come out through
/// [`poll_raw`](StreamParser::poll_raw). It is the pull parser with a
/// reader that has nothing to add: every byte comes from `push`.
///
/// ```
/// use xsq_xml::{ParsePoll, RawEvent, StreamParser};
///
/// let mut p = StreamParser::push_mode();
/// // A chunk boundary in the middle of a tag, a UTF-8 sequence, …
/// p.push(b"<a><b>caf\xc3");
/// let mut names = Vec::new();
/// loop {
///     match p.poll_raw().unwrap() {
///         ParsePoll::Event(RawEvent::Begin { name, .. }) => names.push(name.to_string()),
///         ParsePoll::Event(_) => {}
///         ParsePoll::NeedMore => break,
///         ParsePoll::End => unreachable!(),
///     }
/// }
/// assert_eq!(names, ["a", "b"]);
/// p.push(b"\xa9</b></a>");
/// p.finish();
/// let mut texts = Vec::new();
/// loop {
///     match p.poll_raw().unwrap() {
///         ParsePoll::Event(RawEvent::Text { text, .. }) => texts.push(text.to_string()),
///         ParsePoll::Event(_) => {}
///         ParsePoll::NeedMore => unreachable!("input is finished"),
///         ParsePoll::End => break,
///     }
/// }
/// assert_eq!(texts, ["café"]);
/// ```
pub type PushParser = StreamParser<std::io::Empty>;

impl StreamParser<std::io::Empty> {
    /// A push-fed parser.
    pub fn push_mode() -> PushParser {
        StreamParser::new(std::io::empty())
    }

    /// Append a chunk of the document. Chunks may split anything —
    /// tags, multi-byte UTF-8 sequences, entity references, `]]>` —
    /// at any byte boundary.
    pub fn push(&mut self, chunk: &[u8]) {
        self.window.push(chunk);
    }

    /// Signal end of input. After this, [`poll_raw`](Self::poll_raw)
    /// never reports [`crate::ParsePoll::NeedMore`]: it drains the
    /// remaining events, reports the errors a truncated document
    /// deserves, and ends with [`crate::ParsePoll::End`].
    pub fn finish(&mut self) {
        self.window.finish();
    }

    /// Rearm for the next document of the session, keeping every warmed
    /// scratch buffer, the interned-name cache, and the window's
    /// allocation — [`reset`](Self::reset) under the name the push
    /// callers use.
    pub fn reset_push(&mut self) {
        self.reset();
    }

    /// Bytes pushed but not yet consumed by the tokenizer.
    pub fn buffered(&self) -> usize {
        self.window.buffered()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::error::Error;
    use crate::event::SaxEvent;
    use crate::{parse_to_events, ParsePoll};

    /// Drive a push parser over `doc` in `chunk`-byte pieces, polling
    /// to exhaustion between pushes, and collect owned events.
    pub(crate) fn push_parse(doc: &[u8], chunk: usize) -> crate::Result<Vec<SaxEvent>> {
        let mut parser = StreamParser::push_mode();
        let mut events = Vec::new();
        for piece in doc.chunks(chunk.max(1)) {
            parser.push(piece);
            loop {
                match parser.poll_raw()? {
                    ParsePoll::Event(ev) => events.push(ev.to_owned()),
                    ParsePoll::NeedMore => break,
                    ParsePoll::End => return Ok(events),
                }
            }
        }
        parser.finish();
        loop {
            match parser.poll_raw()? {
                ParsePoll::Event(ev) => events.push(ev.to_owned()),
                ParsePoll::NeedMore => unreachable!("NeedMore after finish"),
                ParsePoll::End => return Ok(events),
            }
        }
    }

    /// Push-parsing at every tiny chunk size must equal one-shot
    /// parsing — same events or same error.
    fn assert_push_equivalent(doc: &str) {
        let whole = parse_to_events(doc.as_bytes());
        for chunk in [1, 2, 3, 7, 16, doc.len().max(1)] {
            let pushed = push_parse(doc.as_bytes(), chunk);
            match (&whole, &pushed) {
                (Ok(w), Ok(p)) => assert_eq!(w, p, "chunk {chunk} diverged on {doc:?}"),
                (Err(w), Err(p)) => assert_eq!(
                    std::mem::discriminant(w),
                    std::mem::discriminant(p),
                    "chunk {chunk} error diverged on {doc:?}: {w:?} vs {p:?}"
                ),
                (w, p) => panic!("chunk {chunk} on {doc:?}: one-shot {w:?} vs push {p:?}"),
            }
        }
    }

    #[test]
    fn tokens_split_at_every_boundary() {
        assert_push_equivalent("<a x=\"1\" y='2'><b>hi &amp; bye</b><c/>tail</a>");
    }

    #[test]
    fn multibyte_utf8_split_across_pushes() {
        assert_push_equivalent("<doc lang=\"日本語\"><t>héllo § — ünïcode</t><t>末尾🚀</t></doc>");
    }

    #[test]
    fn cdata_terminator_split_across_pushes() {
        assert_push_equivalent("<doc><![CDATA[a]b]]x]]]><t>after</t><![CDATA[]]]]><t>b</t></doc>");
    }

    #[test]
    fn crlf_and_entities_split_across_pushes() {
        assert_push_equivalent("<a v=\"two\r\nwords\">x\r\ny&#13;&amp;z\rw</a>");
    }

    #[test]
    fn comments_pis_doctype_split_across_pushes() {
        assert_push_equivalent(
            "<?xml version=\"1.0\"?><!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]>\
             <a><!-- c --- comment -->t<?pi d?></a>",
        );
    }

    #[test]
    fn angle_bracket_inside_attribute_value_does_not_end_the_tag() {
        assert_push_equivalent("<a v=\"x > y\"><b w='>>'/></a>");
    }

    #[test]
    fn malformed_documents_error_identically() {
        for doc in [
            "<a><b></a></b>",
            "<a></a></b>",
            "<a><b>",
            "hello<a/>",
            "<a/><b/>",
            "",
            "<a id=1/>",
            "<a><!-- oops</a>",
            "<a>&bogus;</a>",
        ] {
            assert_push_equivalent(doc);
        }
    }

    #[test]
    fn needmore_until_token_completes() {
        let mut p = StreamParser::push_mode();
        p.push(b"<roo");
        // StartDocument is available immediately; the half tag is not.
        assert!(matches!(p.poll_raw().unwrap(), ParsePoll::Event(_)));
        assert!(matches!(p.poll_raw().unwrap(), ParsePoll::NeedMore));
        p.push(b"t>");
        let ParsePoll::Event(ev) = p.poll_raw().unwrap() else {
            panic!("expected Begin after tag completes");
        };
        assert_eq!(ev.name().map(|s| s.to_string()), Some("root".into()));
        assert!(matches!(p.poll_raw().unwrap(), ParsePoll::NeedMore));
        p.push(b"</root>");
        p.finish();
        assert!(matches!(p.poll_raw().unwrap(), ParsePoll::Event(_))); // </root>
        assert!(matches!(p.poll_raw().unwrap(), ParsePoll::Event(_))); // EndDocument
        assert!(matches!(p.poll_raw().unwrap(), ParsePoll::End));
    }

    #[test]
    fn text_held_until_markup_arrives() {
        // A text run is exposed only when its terminating `<` shows up,
        // so a split entity or UTF-8 tail is never half-decoded.
        let mut p = StreamParser::push_mode();
        p.push(b"<a>x &am");
        p.poll_raw().unwrap(); // StartDocument
        p.poll_raw().unwrap(); // <a>
        assert!(matches!(p.poll_raw().unwrap(), ParsePoll::NeedMore));
        p.push(b"p; y<");
        assert!(matches!(p.poll_raw().unwrap(), ParsePoll::NeedMore));
        p.push(b"/a>");
        let ParsePoll::Event(crate::RawEvent::Text { text, .. }) = p.poll_raw().unwrap() else {
            panic!("expected the complete text run");
        };
        assert_eq!(text, "x & y");
    }

    #[test]
    fn truncated_document_errors_on_finish() {
        let mut p = StreamParser::push_mode();
        p.push(b"<a><b>unclosed");
        while let ParsePoll::Event(_) = p.poll_raw().unwrap() {}
        p.finish();
        let err = loop {
            match p.poll_raw() {
                Ok(ParsePoll::Event(_)) => continue,
                Ok(other) => panic!("expected error, got {other:?}"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, Error::UnclosedElements { .. }));
    }

    #[test]
    fn next_raw_on_starved_push_parser_is_an_error_not_eof() {
        let mut p = StreamParser::push_mode();
        p.push(b"<a><b");
        p.next_raw().unwrap(); // StartDocument
        p.next_raw().unwrap(); // <a>
        assert!(matches!(p.next_raw(), Err(Error::UnexpectedEof { .. })));
    }

    #[test]
    fn reset_push_reuses_parser_across_documents() {
        let mut p = StreamParser::push_mode();
        let doc = b"<a x=\"1\"><b>one</b></a>";
        let mut runs = Vec::new();
        for _ in 0..3 {
            let mut events = Vec::new();
            for piece in doc.chunks(2) {
                p.push(piece);
                while let ParsePoll::Event(ev) = p.poll_raw().unwrap() {
                    events.push(ev.to_owned());
                }
            }
            p.finish();
            loop {
                match p.poll_raw().unwrap() {
                    ParsePoll::Event(ev) => events.push(ev.to_owned()),
                    ParsePoll::End => break,
                    ParsePoll::NeedMore => unreachable!(),
                }
            }
            runs.push(events);
            p.reset_push();
        }
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
        assert_eq!(runs[0], parse_to_events(doc).unwrap());
    }

    #[test]
    fn reset_push_recovers_mid_document() {
        let mut p = StreamParser::push_mode();
        p.push(b"<a><b>half a doc");
        while let ParsePoll::Event(_) = p.poll_raw().unwrap() {}
        p.reset_push();
        p.push(b"<c/>");
        p.finish();
        let mut names = Vec::new();
        while let ParsePoll::Event(ev) = p.poll_raw().unwrap() {
            if let Some(n) = ev.name() {
                names.push(n.to_string());
            }
        }
        assert_eq!(names, ["c", "c"]);
    }

    #[test]
    fn scanner_work_is_linear_in_bytes_pushed() {
        // Giant tokens fed one byte at a time: `next_token` sees only
        // `data[scanned..]`, so the bytes it examines in one poll are the
        // distance `scanned` moves. The scanner must sit exactly at the
        // end of the input after every poll — never behind it, and never
        // rewound to the start of the unfinished token.
        let big = if cfg!(miri) { 2 << 10 } else { 1 << 20 };
        let doc = format!(
            "<a v=\"{}\">{}<!--{}--><![CDATA[{}]]></a>",
            ">".repeat(big / 4),
            "t".repeat(big),
            "c-".repeat(big / 2),
            "d]".repeat(big / 2),
        );
        let mut p = StreamParser::push_mode();
        let mut events = Vec::new();
        let mut examined = 0;
        for (pushed, byte) in doc.as_bytes().iter().enumerate() {
            let before = p.window.base + p.window.scanned as u64;
            assert_eq!(before, pushed as u64, "scanner fell behind or rewound");
            p.push(std::slice::from_ref(byte));
            while let ParsePoll::Event(ev) = p.poll_raw().unwrap() {
                events.push(ev.to_owned());
            }
            examined += p.window.base + p.window.scanned as u64 - before;
        }
        assert_eq!(examined, doc.len() as u64);
        p.finish();
        while let ParsePoll::Event(ev) = p.poll_raw().unwrap() {
            events.push(ev.to_owned());
        }
        assert_eq!(events, parse_to_events(doc.as_bytes()).unwrap());
    }

    #[test]
    fn buffered_reports_unconsumed_bytes_and_compaction_keeps_them() {
        let mut p = StreamParser::push_mode();
        p.push(b"<a>");
        while let ParsePoll::Event(_) = p.poll_raw().unwrap() {}
        assert_eq!(p.buffered(), 0);
        p.push(b"text without markup yet");
        assert_eq!(p.buffered(), 23);
        // Exceed the compaction threshold with many consumed tokens; the
        // held text must survive the buffer shifts intact.
        let mut texts = Vec::new();
        let mut drain = |p: &mut PushParser| loop {
            match p.poll_raw().unwrap() {
                ParsePoll::Event(crate::RawEvent::Text { text, .. }) => {
                    texts.push(text.to_string())
                }
                ParsePoll::Event(_) => {}
                _ => break,
            }
        };
        for _ in 0..2048 {
            p.push(b"<x/>");
            drain(&mut p);
        }
        p.push(b"</a>");
        p.finish();
        drain(&mut p);
        assert_eq!(texts, ["text without markup yet"]);
    }
}
