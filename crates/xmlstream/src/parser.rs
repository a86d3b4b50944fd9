//! The streaming parser: bytes in, depth-extended SAX events out.
//!
//! [`StreamParser`] never materializes the document: memory use is
//! bounded by the size of a single token (one tag or one run of character
//! data) plus one input step. Well-formedness is enforced with the tag
//! stack exactly as the paper's "simple PDA" (§3.1) does: every end event
//! must match the top of the stack.
//!
//! Input goes through one owned window whose boundary scanner
//! ([`crate::push`]) hands out whole tokens; everything here parses a
//! slice it knows is complete — name, attributes, end-tag compare, entity
//! decode — with index arithmetic and no I/O. Push is the native
//! interface: [`StreamParser::poll_raw`] reports
//! [`ParsePoll::NeedMore`] when the window holds no complete token. The
//! pull interface over a [`BufRead`] is the same core plus a fill loop:
//! [`StreamParser::next_raw`] answers `NeedMore` by copying a bounded
//! step from the reader into the window, and signals end of input when
//! the reader runs dry.
//!
//! Events are lent out as [`RawEvent`]s borrowing the parser's scratch
//! buffers — element names are interned [`Sym`]s, attribute storage and
//! the text accumulator are reused across events, and delimiter scanning
//! runs the SIMD delimiter kernels ([`crate::scan`]). In steady
//! state (all names interned, buffers grown to the document's token
//! sizes) producing an event performs **zero heap allocations**. A
//! consumer that keeps part of an event past the next pull copies that
//! part itself; there is no owned event type.

use std::collections::VecDeque;
use std::io::BufRead;

use crate::entities::decode_into;
use crate::error::{Error, Result};
use crate::event::{Attribute, RawEvent};
use crate::push::{Token, TokenKind, Window, CDATA_CLOSE, CDATA_OPEN};
use crate::scan;
use crate::symbol::Sym;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DocState {
    /// Document element not yet seen.
    BeforeRoot,
    /// Inside the document element.
    InRoot,
    /// Document element closed; only misc content allowed.
    AfterRoot,
    /// `EndDocument` queued.
    Done,
}

/// Outcome of one non-blocking pull ([`StreamParser::poll_raw`]).
#[derive(Debug)]
pub enum ParsePoll<'a> {
    /// The next event.
    Event(RawEvent<'a>),
    /// The buffered input ends mid-token and more may arrive; nothing
    /// was lost — poll again after the next push (or after end-of-input
    /// is signalled).
    NeedMore,
    /// `EndDocument` has already been delivered.
    End,
}

/// [`ParsePoll`] before the event borrows the scratch buffers, so the
/// pull loop can refill between steps.
enum Step {
    Event(Pending),
    NeedMore,
    End,
}

/// A parsed-but-not-yet-delivered event descriptor. `Copy`-small: the
/// variable-size payloads (attributes, text) stay in the parser's scratch
/// buffers and are attached when the descriptor is materialized as a
/// [`RawEvent`].
#[derive(Debug, Clone, Copy)]
enum Pending {
    StartDocument,
    EndDocument,
    /// Attributes are `attrs[..attrs_len]` at materialization time.
    Begin {
        name: Sym,
        depth: u32,
    },
    End {
        name: Sym,
        depth: u32,
    },
    /// Text payload is `text_out` at materialization time.
    Text {
        element: Sym,
        depth: u32,
    },
}

/// Largest step the pull loop copies from its reader into the window at
/// once: the window stays token-sized however large a slice the reader
/// offers (a `&[u8]` reader offers the whole document).
const FILL_STEP: usize = 64 * 1024;

/// A streaming XML parser, pull- or push-fed.
///
/// ```
/// use xsq_xml::{RawEvent, StreamParser};
///
/// let mut p = StreamParser::new(&b"<a x=\"1\"><b>hi</b></a>"[..]);
/// let mut names = Vec::new();
/// while let Some(ev) = p.next_raw().unwrap() {
///     if let RawEvent::Begin { name, depth, .. } = ev {
///         names.push(format!("{name}@{depth}"));
///     }
/// }
/// assert_eq!(names, ["a@1", "b@2"]);
/// ```
pub struct StreamParser<R> {
    reader: R,
    /// The unconsumed input and its token-boundary scanner.
    pub(crate) window: Window,
    /// Everything downstream of a whole token.
    doc: Document,
}

/// Document-level parse state and the scratch buffers events borrow:
/// consumes whole-token slices, produces [`Pending`] descriptors.
struct Document {
    state: DocState,
    /// Open-element stack; `stack.len()` is the current depth. Each entry
    /// carries the interned name's `&'static str` so closing-tag checks
    /// compare raw bytes without touching the symbol table.
    stack: Vec<(Sym, &'static str)>,
    /// Event descriptors parsed but not yet handed out (a markup token can
    /// yield a pending text event plus the tag's own event, or Begin+End
    /// for `<a/>`). At most `[Text, Begin, End]` — the scratch buffers
    /// they reference stay untouched until the queue drains.
    pending: VecDeque<Pending>,
    /// Accumulated character data awaiting a flush.
    text_acc: String,
    /// Payload of the pending `Text` descriptor (swapped from `text_acc`
    /// at flush so both buffers keep their capacity).
    text_out: String,
    /// Attribute storage for the pending `Begin`; the live prefix is
    /// `attrs[..attrs_len]`. Slots beyond `attrs_len` keep their `String`
    /// capacity for reuse by the next tag.
    attrs: Vec<Attribute>,
    attrs_len: usize,
    /// Copy of a run or attribute value that needs whitespace
    /// normalization (the window's bytes are parsed in place otherwise).
    scratch: Vec<u8>,
    /// Lock-free fast path for [`Sym::intern`]: names this parser has
    /// already resolved. Documents repeat a tiny tag vocabulary millions
    /// of times; hitting this FNV map skips the symbol table's read lock
    /// entirely. Keys are the table's leaked `&'static str`s, so misses
    /// allocate nothing here either.
    sym_cache: std::collections::HashMap<&'static str, Sym, crate::symbol::FnvBuild>,
    /// Direct-mapped memo in front of `sym_cache`, indexed by a name's
    /// first byte and length: a document's handful of tag names mostly
    /// land in distinct slots, so one byte compare usually replaces the
    /// UTF-8 check + FNV hash + map probe. Interned symbols are
    /// process-global, so the memo survives `reset` safely.
    recent_names: [Option<(&'static str, Sym)>; 16],
}

impl<R> StreamParser<R> {
    /// Current byte offset in the input: everything before it has been
    /// turned into events.
    pub fn offset(&self) -> u64 {
        self.window.offset()
    }

    /// Rearm the parser for a new document on the *same* reader (see
    /// [`reset_with`](Self::reset_with) for what is kept).
    pub fn reset(&mut self) {
        self.window.clear();
        self.doc.reset();
    }

    /// Pull the next event from the bytes buffered so far:
    /// [`ParsePoll::NeedMore`] means they end mid-token (nothing is lost;
    /// poll again after more input arrives), and never occurs once end of
    /// input has been signalled. The returned view is invalidated by the
    /// next call.
    pub fn poll_raw(&mut self) -> Result<ParsePoll<'_>> {
        Ok(match step(&mut self.window, &mut self.doc)? {
            Step::Event(p) => ParsePoll::Event(self.doc.materialize(p)),
            Step::NeedMore => ParsePoll::NeedMore,
            Step::End => ParsePoll::End,
        })
    }
}

/// Parse tokens until an event is queued, the window runs out of complete
/// tokens, or the document ends. Tokens are only parsed when `pending` is
/// empty, so the scratch buffers they overwrite are no longer referenced.
///
/// Not a method: it does not depend on the reader type, so it is compiled
/// once, in this crate, beside the scanner and the token parser it calls,
/// instead of once per reader type in every crate that pulls events.
fn step(window: &mut Window, doc: &mut Document) -> Result<Step> {
    loop {
        if let Some(p) = doc.pending.pop_front() {
            return Ok(Step::Event(p));
        }
        if doc.state == DocState::Done {
            return Ok(Step::End);
        }
        match window.next_token() {
            Some(token) => {
                let (bytes, at) = window.bytes(&token);
                doc.token(&token, bytes, at)?;
            }
            None if window.is_finished() => doc.end_of_input(window.offset())?,
            None => return Ok(Step::NeedMore),
        }
    }
}

impl<R: BufRead> StreamParser<R> {
    /// Create a parser reading from `reader`.
    pub fn new(reader: R) -> Self {
        let mut doc = Document {
            state: DocState::BeforeRoot,
            stack: Vec::new(),
            pending: VecDeque::new(),
            text_acc: String::new(),
            text_out: String::new(),
            attrs: Vec::new(),
            attrs_len: 0,
            scratch: Vec::new(),
            sym_cache: std::collections::HashMap::default(),
            recent_names: [None; 16],
        };
        doc.reset();
        StreamParser {
            reader,
            window: Window::new(),
            doc,
        }
    }

    /// Rearm the parser for a new document, keeping every warmed scratch
    /// buffer and the interned-name cache. Returns the old reader.
    ///
    /// A long-lived consumer (one worker of the sharded multi-document
    /// driver, a socket server handling documents back to back) parses
    /// thousands of documents on one thread; constructing a fresh parser
    /// each time would re-grow the window and the text/attribute buffers
    /// and re-resolve every tag name through the global symbol table.
    /// After the first few documents of a corpus this method restores the
    /// zero-allocation steady state immediately.
    pub fn reset_with(&mut self, reader: R) -> R {
        let old = std::mem::replace(&mut self.reader, reader);
        self.reset();
        old
    }

    /// Pull the next event as a zero-copy [`RawEvent`] borrowing the
    /// parser's scratch buffers, or `Ok(None)` after `EndDocument`. The
    /// returned view is invalidated by the next call.
    ///
    /// This is [`poll_raw`](Self::poll_raw) plus the fill loop: whenever
    /// the window runs out of complete tokens, the next step of the
    /// reader's bytes is copied in, and end of input is signalled when the
    /// reader has none left. (A push-fed parser's reader never has any, so
    /// calling this on one ends its document where the pushes stopped.)
    pub fn next_raw(&mut self) -> Result<Option<RawEvent<'_>>> {
        loop {
            match step(&mut self.window, &mut self.doc)? {
                Step::Event(p) => return Ok(Some(self.doc.materialize(p))),
                Step::End => return Ok(None),
                Step::NeedMore => {
                    let read_to = self.window.end_offset();
                    let buf = self.reader.fill_buf().map_err(|e| Error::io(read_to, e))?;
                    if buf.is_empty() {
                        self.window.finish();
                    } else {
                        let n = buf.len().min(FILL_STEP);
                        self.window.push(&buf[..n]);
                        self.reader.consume(n);
                    }
                }
            }
        }
    }
}

impl Document {
    /// Rearm for a new document, keeping buffers and the name cache.
    fn reset(&mut self) {
        self.state = DocState::BeforeRoot;
        self.stack.clear();
        self.pending.clear();
        self.pending.push_back(Pending::StartDocument);
        self.text_acc.clear();
        self.text_out.clear();
        self.attrs_len = 0;
    }

    /// Attach the scratch-buffer payloads to a pending descriptor.
    fn materialize(&self, p: Pending) -> RawEvent<'_> {
        match p {
            Pending::StartDocument => RawEvent::StartDocument,
            Pending::EndDocument => RawEvent::EndDocument,
            Pending::Begin { name, depth } => RawEvent::Begin {
                name,
                attributes: &self.attrs[..self.attrs_len],
                depth,
            },
            Pending::End { name, depth } => RawEvent::End { name, depth },
            Pending::Text { element, depth } => RawEvent::Text {
                element,
                text: &self.text_out,
                depth,
            },
        }
    }

    /// Parse one token: `bytes` is all of it and `at` its input offset.
    /// Markup that yields no event (comments, PIs, declarations) is
    /// dropped; text accumulates in `text_acc` and is flushed lazily when
    /// a tag arrives, so comment- and CDATA-adjacent runs coalesce into
    /// one `Text` event.
    ///
    /// An incomplete token only ever arrives as the last one of a
    /// truncated input; running off its end is the `UnexpectedEof` a
    /// truncated file earns.
    fn token(&mut self, token: &Token, bytes: &[u8], at: u64) -> Result<()> {
        let truncated = |context| {
            Err(Error::UnexpectedEof {
                offset: at + bytes.len() as u64,
                context,
            })
        };
        match token.kind {
            TokenKind::Text { amp, cr } => self.text(bytes, at, amp, cr),
            TokenKind::Tag => match bytes.get(1) {
                None => truncated("markup after '<'"),
                Some(b'/') => {
                    self.flush_text();
                    self.end_tag(bytes, at)
                }
                Some(_) => {
                    self.flush_text();
                    self.start_tag(bytes, at)
                }
            },
            TokenKind::Cdata => {
                if self.state != DocState::InRoot {
                    return Err(Error::ContentOutsideRoot { offset: at });
                }
                if !token.complete {
                    return truncated("CDATA section");
                }
                // CDATA content is raw character data: no entity decoding.
                let raw = &bytes[CDATA_OPEN..bytes.len() - CDATA_CLOSE];
                let raw = normalize_line_endings(raw, &mut self.scratch);
                let raw = std::str::from_utf8(raw)
                    .map_err(|_| Error::syntax(at, "invalid UTF-8 in CDATA"))?;
                self.text_acc.push_str(raw);
                Ok(())
            }
            TokenKind::Comment if !token.complete => truncated("comment"),
            TokenKind::Pi if !token.complete => truncated("processing instruction"),
            TokenKind::Comment | TokenKind::Pi => Ok(()),
            TokenKind::Decl => {
                // `<!-x` or `<![CDAT?`: an opener that went wrong part-way.
                let marker: &[u8] = match bytes.get(2) {
                    Some(b'-') => b"--",
                    Some(b'[') => b"[CDATA[",
                    _ => b"",
                };
                let got = &bytes[2..];
                let matched = marker.iter().zip(got).take_while(|(m, g)| m == g).count();
                if matched < marker.len() {
                    let bad = (got.len() > matched) as u64;
                    return Err(Error::syntax(
                        at + 2 + matched as u64 + bad,
                        format!("malformed declaration (expected byte {matched} of marker)"),
                    ));
                }
                if !token.complete {
                    return truncated("declaration");
                }
                Ok(())
            }
        }
    }

    /// One character-data run.
    fn text(&mut self, bytes: &[u8], at: u64, amp: bool, cr: bool) -> Result<()> {
        // The scanner already noted whether any `\r` or `&` occurred, so
        // the normalization and entity-decode passes are skipped outright
        // for the overwhelming majority of runs.
        let raw = if cr {
            normalize_line_endings(bytes, &mut self.scratch)
        } else {
            bytes
        };
        let raw = std::str::from_utf8(raw)
            .map_err(|_| Error::syntax(at, "invalid UTF-8 in character data"))?;
        if self.state != DocState::InRoot {
            if is_all_whitespace(raw) {
                return Ok(());
            }
            return Err(Error::ContentOutsideRoot { offset: at });
        }
        if amp {
            decode_into(raw, at, &mut self.text_acc)
        } else {
            self.text_acc.push_str(raw);
            Ok(())
        }
    }

    /// Emit any buffered text as a `Text` event.
    fn flush_text(&mut self) {
        if self.text_acc.is_empty() {
            return;
        }
        // Whitespace-only text (indentation between elements) is dropped:
        // the engines never match on it, and skipping it is what the
        // SAX-based systems in the paper's study effectively do.
        if !is_all_whitespace(&self.text_acc) && !self.stack.is_empty() {
            let element = self.stack.last().expect("in root").0;
            let depth = self.stack.len() as u32;
            // Swap instead of clone: `text_out` is free once `pending`
            // drained, and both buffers keep their capacity.
            self.text_out.clear();
            std::mem::swap(&mut self.text_acc, &mut self.text_out);
            self.pending.push_back(Pending::Text { element, depth });
        } else {
            self.text_acc.clear();
        }
    }

    /// `<name attr="v" …>` or `<name/>`.
    fn start_tag(&mut self, bytes: &[u8], at: u64) -> Result<()> {
        let mut i = name_end(bytes, 1);
        let (name, name_str) = self.resolve_name(&bytes[1..i], at)?;
        match self.state {
            DocState::BeforeRoot => self.state = DocState::InRoot,
            DocState::InRoot => {}
            DocState::AfterRoot => {
                return Err(Error::MultipleRoots {
                    offset: at,
                    tag: name_str.to_string(),
                })
            }
            DocState::Done => unreachable!("start tag after EndDocument"),
        }
        self.attrs_len = 0;
        let self_closing = loop {
            i = skip_whitespace(bytes, i);
            match bytes.get(i) {
                None => {
                    return Err(Error::UnexpectedEof {
                        offset: at + i as u64,
                        context: "start tag",
                    })
                }
                Some(b'>') => break false,
                Some(b'/') => match bytes.get(i + 1) {
                    Some(b'>') => break true,
                    _ => return Err(Error::syntax(at, "expected '>' after '/'")),
                },
                Some(_) => i = self.attribute(bytes, i, at)?,
            }
        };
        self.stack.push((name, name_str));
        let depth = self.stack.len() as u32;
        self.pending.push_back(Pending::Begin { name, depth });
        if self_closing {
            self.stack.pop();
            self.pending.push_back(Pending::End { name, depth });
            if self.stack.is_empty() {
                self.state = DocState::AfterRoot;
            }
        }
        Ok(())
    }

    /// One `name = "value"` of the tag `bytes`, starting at `i`, into the
    /// reusable `attrs` buffer. Returns the index after the closing quote.
    fn attribute(&mut self, bytes: &[u8], i: usize, at: u64) -> Result<usize> {
        let end = name_end(bytes, i);
        let (name, _) = self.resolve_name(&bytes[i..end], at)?;
        // XML 1.0 §3.1 WFC: Unique Att Spec.
        if self.attrs[..self.attrs_len].iter().any(|a| a.name == name) {
            return Err(Error::syntax(at, format!("duplicate attribute '{name}'")));
        }
        let mut i = skip_whitespace(bytes, end);
        if bytes.get(i) != Some(&b'=') {
            return Err(Error::syntax(at, format!("attribute '{name}' missing '='")));
        }
        i = skip_whitespace(bytes, i + 1);
        let quote = match bytes.get(i) {
            Some(&q @ (b'"' | b'\'')) => q,
            _ => {
                return Err(Error::syntax(
                    at,
                    format!("attribute '{name}' value must be quoted"),
                ))
            }
        };
        let start = i + 1;
        let value_offset = at + start as u64;
        let rest = &bytes[start..];
        let len = scan::find_byte2(rest, quote, b'<').unwrap_or(rest.len());
        match rest.get(len) {
            Some(&b) if b == quote => {}
            Some(_) => {
                return Err(Error::syntax(
                    value_offset,
                    "'<' not allowed in attribute value",
                ))
            }
            None => {
                return Err(Error::UnexpectedEof {
                    offset: at + bytes.len() as u64,
                    context: "attribute value",
                })
            }
        }
        let raw = normalize_attr_whitespace(&rest[..len], &mut self.scratch);
        let raw = std::str::from_utf8(raw)
            .map_err(|_| Error::syntax(value_offset, "invalid UTF-8 in attribute value"))?;
        // Reuse the slot (and its value's capacity) past the live prefix
        // if one exists; decode straight into it.
        if self.attrs_len == self.attrs.len() {
            self.attrs.push(Attribute {
                name,
                value: String::new(),
            });
        }
        let slot = &mut self.attrs[self.attrs_len];
        slot.name = name;
        slot.value.clear();
        if scan::find_byte(raw.as_bytes(), b'&').is_none() {
            slot.value.push_str(raw);
        } else {
            decode_into(raw, value_offset, &mut slot.value)?;
        }
        self.attrs_len += 1;
        Ok(start + len + 1)
    }

    /// `</name>` — must match the innermost open element.
    fn end_tag(&mut self, bytes: &[u8], at: u64) -> Result<()> {
        let name = match self.stack.last().copied() {
            // Well-formed XML closes the innermost open element, and real
            // documents spell it `</name>`: one byte compare against the
            // name cached on the stack settles the whole tag without a
            // name scan, hashing or a table lookup.
            Some((open, open_name))
                if bytes[2..].strip_suffix(b">") == Some(open_name.as_bytes()) =>
            {
                open
            }
            _ => {
                let end = name_end(bytes, 2);
                let name = self.resolve_name(&bytes[2..end], at)?.0;
                match bytes.get(skip_whitespace(bytes, end)) {
                    Some(b'>') => name,
                    Some(_) => return Err(Error::syntax(at, "junk in closing tag")),
                    None => {
                        return Err(Error::UnexpectedEof {
                            offset: at + bytes.len() as u64,
                            context: "closing tag",
                        })
                    }
                }
            }
        };
        match self.stack.pop() {
            None => Err(Error::UnbalancedClose {
                offset: at,
                tag: name.as_str().to_string(),
            }),
            Some((open, _)) if open != name => Err(Error::TagMismatch {
                offset: at,
                expected: open.as_str().to_string(),
                found: name.as_str().to_string(),
            }),
            Some(_) => {
                let depth = self.stack.len() as u32 + 1;
                self.pending.push_back(Pending::End { name, depth });
                if self.stack.is_empty() {
                    self.state = DocState::AfterRoot;
                }
                Ok(())
            }
        }
    }

    /// Intern an element or attribute name through the parser-local
    /// cache, returning the symbol together with the table's interned
    /// `&'static str` (so callers never pay a table lookup for it).
    /// Interning allocates only the first time a name is seen
    /// process-wide.
    fn resolve_name(&mut self, raw: &[u8], at: u64) -> Result<(Sym, &'static str)> {
        if raw.is_empty() {
            return Err(Error::syntax(at, "expected a name"));
        }
        let recent = &mut self.recent_names[(raw[0] as usize ^ raw.len()) % 16];
        if let Some((name, sym)) = *recent {
            if raw == name.as_bytes() {
                return Ok((sym, name));
            }
        }
        let raw =
            std::str::from_utf8(raw).map_err(|_| Error::syntax(at, "invalid UTF-8 in name"))?;
        let (name, sym) = match self.sym_cache.get_key_value(raw) {
            Some((&name, &sym)) => (name, sym),
            None => {
                let sym = Sym::intern(raw);
                self.sym_cache.insert(sym.as_str(), sym);
                (sym.as_str(), sym)
            }
        };
        *recent = Some((name, sym));
        Ok((sym, name))
    }

    /// End of input at `offset`: verify balance and emit `EndDocument`.
    fn end_of_input(&mut self, offset: u64) -> Result<()> {
        if !self.stack.is_empty() {
            return Err(Error::UnclosedElements {
                offset,
                open: self.stack.iter().map(|&(_, n)| n.to_string()).collect(),
            });
        }
        if self.state == DocState::BeforeRoot {
            return Err(Error::UnexpectedEof {
                offset,
                context: "document element",
            });
        }
        self.state = DocState::Done;
        self.pending.push_back(Pending::EndDocument);
        Ok(())
    }
}

/// Byte-class table for name scanning: a single indexed load per byte
/// beats re-evaluating the whitespace + delimiter predicate in the
/// name loop, which runs twice per element (tag name, closing name)
/// plus once per attribute.
static NAME_BYTE: [bool; 256] = build_name_byte_table();

const fn build_name_byte_table() -> [bool; 256] {
    let mut table = [false; 256];
    let mut i = 0usize;
    while i < 256 {
        let b = i as u8;
        let ws = matches!(b, b' ' | b'\t' | b'\n' | b'\r' | 0x0c);
        let delim = matches!(b, b'>' | b'/' | b'=' | b'<' | b'"' | b'\'');
        table[i] = !ws && !delim;
        i += 1;
    }
    table
}

/// Index of the first non-name byte of `bytes` at or after `from`.
fn name_end(bytes: &[u8], from: usize) -> usize {
    let rest = &bytes[from..];
    from + rest
        .iter()
        .position(|&b| !NAME_BYTE[b as usize])
        .unwrap_or(rest.len())
}

/// Index of the first non-whitespace byte of `bytes` at or after `from`.
fn skip_whitespace(bytes: &[u8], from: usize) -> usize {
    let rest = &bytes[from..];
    from + rest
        .iter()
        .position(|b| !b.is_ascii_whitespace())
        .unwrap_or(rest.len())
}

/// XML 1.0 §2.11: `\r\n` and bare `\r` become `\n` in character data.
/// Runs on the raw bytes of one whole run (names and markup never
/// contain `\r`), before entity decoding so `&#13;` stays a literal CR.
/// A run with no `\r` — the overwhelming majority — costs one kernel
/// scan and is returned as is; otherwise the normalized copy in
/// `scratch` is.
fn normalize_line_endings<'a>(raw: &'a [u8], scratch: &'a mut Vec<u8>) -> &'a [u8] {
    let Some(first) = scan::find_byte(raw, b'\r') else {
        return raw;
    };
    scratch.clear();
    scratch.extend_from_slice(raw);
    let buf = scratch;
    let len = buf.len();
    let (mut r, mut w) = (first, first);
    while r < len {
        let b = buf[r];
        r += 1;
        if b == b'\r' {
            buf[w] = b'\n';
            if r < len && buf[r] == b'\n' {
                r += 1;
            }
        } else {
            buf[w] = b;
        }
        w += 1;
    }
    buf.truncate(w);
    buf
}

/// XML 1.0 §3.3.3 (CDATA-type attributes): after line-ending
/// normalization, every literal whitespace character in an attribute
/// value becomes a single space — so `\r\n` collapses to one space, and
/// `\t`/`\n`/`\r` each become one. Character references (`&#10;`, `&#9;`)
/// are exempt: they decode after this pass and stay literal. Same
/// borrowed-or-`scratch` contract as [`normalize_line_endings`].
fn normalize_attr_whitespace<'a>(raw: &'a [u8], scratch: &'a mut Vec<u8>) -> &'a [u8] {
    let Some(first) = scan::find_byte3(raw, b'\t', b'\r', b'\n') else {
        return raw;
    };
    scratch.clear();
    scratch.extend_from_slice(raw);
    let buf = scratch;
    let len = buf.len();
    let (mut r, mut w) = (first, first);
    while r < len {
        let b = buf[r];
        r += 1;
        match b {
            b'\r' => {
                buf[w] = b' ';
                if r < len && buf[r] == b'\n' {
                    r += 1;
                }
            }
            b'\t' | b'\n' => buf[w] = b' ',
            _ => buf[w] = b,
        }
        w += 1;
    }
    buf.truncate(w);
    buf
}

/// Is `s` whitespace only, in XML's sense (§2.3 `S`: space, tab, CR,
/// LF)? No other character counts — not U+00A0, not U+3000, not form
/// feed — so a text run of those is content and is kept. Every byte of
/// a multibyte character is ≥ 0x80, so the byte test is exact.
///
/// Out of line on purpose: inlined into `flush_text`, and through it into
/// every token handler, it reads `multi_sub` throughput 0.95× (8 referee
/// pairs, 0 won) under the release profile; `scan_dblp` does not move.
#[inline(never)]
fn is_all_whitespace(s: &str) -> bool {
    s.bytes().all(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `f` of every event of `input`, pulled in one pass.
    fn try_map<T>(input: &[u8], mut f: impl FnMut(&RawEvent<'_>) -> T) -> Result<Vec<T>> {
        let mut p = StreamParser::new(input);
        let mut out = Vec::new();
        while let Some(ev) = p.next_raw()? {
            out.push(f(&ev));
        }
        Ok(out)
    }

    fn map<T>(input: &str, f: impl FnMut(&RawEvent<'_>) -> T) -> Vec<T> {
        try_map(input.as_bytes(), f).unwrap()
    }

    /// The events of `input`, each recorded as its `Debug` form: every
    /// field, names printed as strings.
    pub(crate) fn record(input: &[u8]) -> Result<Vec<String>> {
        try_map(input, |ev| format!("{ev:?}"))
    }

    fn events(input: &str) -> Vec<String> {
        record(input.as_bytes()).unwrap()
    }

    fn err(input: &str) -> Error {
        record(input.as_bytes()).unwrap_err()
    }

    fn dbg(ev: RawEvent<'_>) -> String {
        format!("{ev:?}")
    }

    /// The payloads of the text events of `input`.
    fn texts(input: &str) -> Vec<String> {
        map(input, |ev| match ev {
            RawEvent::Text { text, .. } => Some(text.to_string()),
            _ => None,
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// The name and attributes of each begin event of `input`.
    fn begins(input: &str) -> Vec<(Sym, Vec<Attribute>)> {
        map(input, |ev| match ev {
            RawEvent::Begin {
                name, attributes, ..
            } => Some((*name, attributes.to_vec())),
            _ => None,
        })
        .into_iter()
        .flatten()
        .collect()
    }

    #[test]
    fn simple_document() {
        let evs = events("<a><b>hi</b></a>");
        assert_eq!(evs[0], dbg(RawEvent::StartDocument));
        assert_eq!(
            evs[1],
            dbg(RawEvent::Begin {
                name: "a".into(),
                attributes: &[],
                depth: 1
            })
        );
        assert_eq!(
            evs[3],
            dbg(RawEvent::Text {
                element: "b".into(),
                text: "hi",
                depth: 2
            })
        );
        assert_eq!(evs[6], dbg(RawEvent::EndDocument));
    }

    #[test]
    fn raw_text_borrows_scratch() {
        let mut p = StreamParser::new(&b"<a>hello</a>"[..]);
        p.next_raw().unwrap(); // StartDocument
        p.next_raw().unwrap(); // <a>
        let ev = p.next_raw().unwrap().unwrap();
        let RawEvent::Text { element, text, .. } = ev else {
            panic!("expected text, got {ev}");
        };
        assert_eq!(element, "a");
        assert_eq!(text, "hello");
    }

    #[test]
    fn attributes_are_decoded() {
        let doc = r#"<a id="1" name='x &amp; y'/>"#;
        assert_eq!(
            begins(doc)[0].1,
            [Attribute::new("id", "1"), Attribute::new("name", "x & y")]
        );
        // Self-closing yields an immediate end event at the same depth.
        assert_eq!(
            events(doc)[2],
            dbg(RawEvent::End {
                name: "a".into(),
                depth: 1
            })
        );
    }

    #[test]
    fn attribute_buffer_is_reused_not_leaked_across_tags() {
        // Second tag has fewer attributes than the first: the stale third
        // slot must not resurface.
        let b = begins(r#"<a p="1" q="2" r="3"><b s="4"/></a>"#);
        assert_eq!(b[0].1.len(), 3);
        assert_eq!(b[1].0, "b");
        assert_eq!(b[1].1, [Attribute::new("s", "4")]);
    }

    #[test]
    fn whitespace_only_text_is_skipped() {
        assert_eq!(texts("<a>\n  <b>x</b>\n</a>"), ["x"]);
    }

    #[test]
    fn text_entities_are_decoded() {
        assert_eq!(
            texts("<a>1 &lt; 2 &amp;&amp; 3 &gt; 2</a>"),
            ["1 < 2 && 3 > 2"]
        );
    }

    #[test]
    fn cdata_is_raw_text_and_coalesces() {
        assert_eq!(
            texts("<a>x<![CDATA[<not-a-tag> & raw]]>y</a>"),
            ["x<not-a-tag> & rawy"]
        );
    }

    #[test]
    fn crlf_and_bare_cr_normalize_to_lf_in_text() {
        // XML 1.0 §2.11: the three line-ending spellings are one.
        assert_eq!(
            texts("<a>line1\r\nline2\rline3\nline4</a>"),
            ["line1\nline2\nline3\nline4"]
        );
    }

    #[test]
    fn crlf_normalizes_in_cdata() {
        assert_eq!(texts("<a><![CDATA[x\r\ny\rz]]></a>"), ["x\ny\nz"]);
    }

    #[test]
    fn char_ref_cr_stays_literal() {
        // §2.11 normalizes the input stream, not decoded references.
        assert_eq!(texts("<a>x&#13;y&#xD;&#10;z</a>"), ["x\ry\r\nz"]);
    }

    #[test]
    fn crlf_only_text_is_whitespace_skipped() {
        assert_eq!(texts("<a>\r\n  <b>x</b>\r\n</a>"), ["x"]);
    }

    #[test]
    fn attribute_whitespace_normalizes_to_spaces() {
        // XML 1.0 §3.3.3: literal tab/CR/LF become spaces (one per \r\n
        // pair, since line-ending normalization runs first).
        assert_eq!(
            begins("<a v=\"a\tb\nc\rd\r\ne\"/>")[0].1[0],
            Attribute::new("v", "a b c d e")
        );
    }

    #[test]
    fn attribute_char_refs_stay_literal_whitespace() {
        assert_eq!(
            begins("<a v='x&#10;y&#9;z&#13;'/>")[0].1[0],
            Attribute::new("v", "x\ny\tz\r")
        );
    }

    #[test]
    fn wrapped_attribute_equality_predicate_shape() {
        // The conformance bug this fixes: a value wrapped across lines
        // must compare equal to its single-space spelling.
        assert_eq!(begins("<a v=\"two\r\nwords\"/>")[0].1[0].value, "two words");
    }

    #[test]
    fn comments_and_pis_are_skipped() {
        let doc = "<?xml version=\"1.0\"?><!-- c --><a><!-- inner -->t<?pi d?></a>";
        assert_eq!(events(doc).len(), 5);
        assert_eq!(texts(doc), ["t"]);
    }

    #[test]
    fn doctype_with_internal_subset_is_skipped() {
        let evs = events("<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]><a>x</a>");
        assert_eq!(evs.len(), 5);
    }

    #[test]
    fn depths_follow_nesting() {
        let depths = map("<a><b><c/></b><b/></a>", |e| {
            (e.name().map(String::from), e.depth())
        });
        assert_eq!(
            depths,
            vec![
                (None, 0),
                (Some("a".into()), 1),
                (Some("b".into()), 2),
                (Some("c".into()), 3),
                (Some("c".into()), 3),
                (Some("b".into()), 2),
                (Some("b".into()), 2),
                (Some("b".into()), 2),
                (Some("a".into()), 1),
                (None, 0),
            ]
        );
    }

    #[test]
    fn mismatched_close_is_detected() {
        assert!(matches!(err("<a><b></a></b>"), Error::TagMismatch { .. }));
    }

    #[test]
    fn unbalanced_close_is_detected() {
        assert!(matches!(err("<a></a></b>"), Error::UnbalancedClose { .. }));
    }

    #[test]
    fn unclosed_elements_detected_at_eof() {
        assert!(matches!(err("<a><b>"), Error::UnclosedElements { .. }));
    }

    #[test]
    fn content_outside_root_is_rejected() {
        assert!(matches!(err("hello<a/>"), Error::ContentOutsideRoot { .. }));
        assert!(matches!(
            err("<a/>trailing"),
            Error::ContentOutsideRoot { .. }
        ));
    }

    /// XML's whitespace (§2.3 `S`) is space, tab, CR and LF, nothing
    /// else: a run of U+00A0 or U+3000 — literal or a character
    /// reference — is content, inside the root and outside it.
    pub(crate) const NON_XML_WHITESPACE: [&str; 2] = [
        "<r><a>\u{a0}</a><a>x</a><a>&#160;</a><a>&#x3000;</a><a>\u{3000}\u{a0}</a></r>",
        "<r><a> \t\r\n</a><a> \u{a0}\n</a></r>",
    ];

    #[test]
    fn only_xml_whitespace_text_is_skipped() {
        assert_eq!(
            texts(NON_XML_WHITESPACE[0]),
            ["\u{a0}", "x", "\u{a0}", "\u{3000}", "\u{3000}\u{a0}"]
        );
        assert_eq!(texts(NON_XML_WHITESPACE[1]), [" \u{a0}\n"]);
    }

    #[test]
    fn non_xml_whitespace_outside_the_root_is_content() {
        for doc in ["<r><a>x</a></r>\u{a0}", "\u{3000}<r/>", "<r/> \u{a0}"] {
            assert!(
                matches!(err(doc), Error::ContentOutsideRoot { .. }),
                "{doc:?}"
            );
        }
        assert_eq!(events("\r\n\t <r/> \t\r\n").len(), 4);
    }

    #[test]
    fn multiple_roots_are_rejected() {
        assert!(matches!(err("<a/><b/>"), Error::MultipleRoots { .. }));
    }

    #[test]
    fn empty_input_is_rejected() {
        assert!(matches!(err(""), Error::UnexpectedEof { .. }));
        assert!(matches!(err("   \n "), Error::UnexpectedEof { .. }));
    }

    #[test]
    fn bad_attribute_syntax_is_rejected() {
        assert!(matches!(err("<a id=1/>"), Error::Syntax { .. }));
        assert!(matches!(err("<a id></a>"), Error::Syntax { .. }));
    }

    /// The error of `input` pushed one byte at a time.
    fn err_at_one_byte_pushes(input: &str) -> Error {
        crate::push::tests::push_parse(input.as_bytes(), 1).unwrap_err()
    }

    #[test]
    fn repeated_attribute_name_is_rejected_at_the_tag() {
        // XML 1.0 §3.1 WFC: Unique Att Spec.
        for doc in [
            "<r><a x=\"1\" x=\"2\">t</a></r>",
            "<r><a x='1' y='2' x='3'/></r>",
        ] {
            let e = err(doc);
            assert!(
                matches!(&e, Error::Syntax { offset: 3, message } if message.contains("duplicate attribute 'x'")),
                "{doc}: {e:?}"
            );
            assert_eq!(err_at_one_byte_pushes(doc), e, "{doc}");
        }
        // Same name on different tags is fine.
        assert_eq!(events("<a x='1'><b x='1'/></a>").len(), 6);
    }

    #[test]
    fn illegal_character_reference_is_rejected_in_text_and_attributes() {
        // XML 1.0 §4.1 WFC: Legal Character.
        for (doc, offset) in [("<a>&#0;</a>", 3), ("<a v='x&#x1;'/>", 7)] {
            let e = err(doc);
            assert!(
                matches!(e, Error::BadEntity { offset: o, .. } if o == offset),
                "{doc}: {e:?}"
            );
            assert_eq!(err_at_one_byte_pushes(doc), e, "{doc}");
        }
    }

    #[test]
    fn malformed_markup_openers_report_the_offending_byte() {
        for (doc, offset, byte) in [
            ("<a><!-x--></a>", 7, 1),
            ("<a><![CDAXA[]]></a>", 10, 4),
            ("<a><!-", 6, 1),
            ("<a><![CD", 8, 3),
        ] {
            let e = err(doc);
            assert!(
                matches!(&e, Error::Syntax { offset: o, message }
                    if *o == offset && message.contains(&format!("byte {byte} of marker"))),
                "{doc}: {e:?}"
            );
            assert_eq!(err_at_one_byte_pushes(doc), e, "{doc}");
        }
    }

    #[test]
    fn truncated_markup_is_unexpected_eof_at_the_end_of_input() {
        for (doc, context) in [
            ("<a><", "markup after '<'"),
            ("<a><b", "start tag"),
            ("<a><b x='1", "attribute value"),
            ("<a></a", "closing tag"),
            ("<a><!-- c --", "comment"),
            ("<a><![CDATA[x]]", "CDATA section"),
            ("<a><?pi ?", "processing instruction"),
            ("<!DOCTYPE a [ <!ELEMENT a ANY> ", "declaration"),
        ] {
            let e = err(doc);
            assert_eq!(
                e,
                Error::UnexpectedEof {
                    offset: doc.len() as u64,
                    context
                },
                "{doc}"
            );
            assert_eq!(err_at_one_byte_pushes(doc), e, "{doc}");
        }
    }

    #[test]
    fn unterminated_comment_is_rejected() {
        assert!(matches!(
            err("<a><!-- oops</a>"),
            Error::UnexpectedEof { .. }
        ));
    }

    #[test]
    fn offsets_advance() {
        let mut p = StreamParser::new(&b"<a>x</a>"[..]);
        while p.next_raw().unwrap().is_some() {}
        assert_eq!(p.offset(), 8);
    }

    #[test]
    fn reset_with_reuses_a_parser_across_documents() {
        let mut p = StreamParser::new(&b"<a x=\"1\"><b>one</b></a>"[..]);
        let mut first = Vec::new();
        while let Some(ev) = p.next_raw().unwrap() {
            first.push(dbg(ev));
        }
        // Rearm mid-state too: abandon a half-read document cleanly.
        p.reset_with(&b"<a><b>ignored"[..]);
        p.next_raw().unwrap();
        p.next_raw().unwrap();
        p.reset_with(&b"<a x=\"1\"><b>one</b></a>"[..]);
        let mut second = Vec::new();
        while let Some(ev) = p.next_raw().unwrap() {
            second.push(dbg(ev));
        }
        assert_eq!(first, second);
        assert_eq!(p.offset(), 23);
    }

    #[test]
    fn mixed_content_produces_multiple_text_events() {
        assert_eq!(texts("<a>one<b/>two</a>"), ["one", "two"]);
    }

    #[test]
    fn deeply_nested_document_parses() {
        let mut doc = String::new();
        for _ in 0..200 {
            doc.push_str("<d>");
        }
        doc.push('x');
        for _ in 0..200 {
            doc.push_str("</d>");
        }
        let max_depth = map(&doc, |e| e.depth()).into_iter().max().unwrap();
        assert_eq!(max_depth, 200);
    }
}
