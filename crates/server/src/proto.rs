//! The XSQ wire protocol: length-prefixed binary frames.
//!
//! Every frame is `u32` little-endian *length* (counting the opcode
//! byte and the payload, not the prefix itself), one *opcode* byte,
//! then `length - 1` payload bytes:
//!
//! ```text
//! +----------------+--------+----------------------+
//! | length: u32 LE | opcode | payload (length - 1) |
//! +----------------+--------+----------------------+
//! ```
//!
//! Client → server opcodes live in `0x01..=0x7F`, server → client
//! replies in `0x81..=0xFF`; see [`op`]. The framing layer enforces a
//! maximum frame length ([`MAX_FRAME`] by default) so a hostile or
//! broken client cannot make the server buffer unbounded input, and
//! rejects zero-length frames (every frame carries at least its
//! opcode). The full protocol contract — per-opcode payloads, error
//! codes, ordering guarantees — is specified in `DESIGN.md`.

use std::fmt::Write as _;
use std::io::{self, Read, Write};

use xsq_core::Diagnostic;

/// Largest accepted frame: opcode + payload. FEED chunks larger than
/// this must be split by the client (the reference client never sends
/// frames this big; the cap exists to bound a session's memory).
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Frame opcodes. Requests use the low range, replies have the high
/// bit set; the values are part of the wire contract and never reused.
pub mod op {
    /// Subscribe queries (payload: newline-separated XPath texts).
    pub const SUB: u8 = 0x01;
    /// Unsubscribe one query (payload: `u32` LE query id).
    pub const UNSUB: u8 = 0x02;
    /// One chunk of document bytes (payload: raw XML, any split).
    pub const FEED: u8 = 0x03;
    /// End of the current document (empty payload).
    pub const END_DOC: u8 = 0x04;
    /// Request session metrics (empty payload).
    pub const STAT: u8 = 0x05;
    /// Graceful goodbye (empty payload).
    pub const BYE: u8 = 0x06;
    /// Protocol negotiation (payload: `u32` LE highest version the
    /// client speaks). Must be the very first frame on a connection;
    /// a connection that never sends HELLO speaks wire v1. From the
    /// negotiated version 2 on, every *subsequent* frame payload (both
    /// directions) begins with a `u32` LE logical-session id.
    pub const HELLO: u8 = 0x07;
    /// Claim the feeder role on a broadcast server (empty payload).
    pub const FEEDER: u8 = 0x08;

    /// Subscription accepted (payload: `u32` LE count, then ids).
    pub const SUB_OK: u8 = 0x81;
    /// One result value (payload: `u32` LE query id + UTF-8 value).
    pub const RESULT: u8 = 0x82;
    /// One running aggregate update (payload: `u32` LE id + `f64` LE).
    pub const UPDATE: u8 = 0x83;
    /// Document finished cleanly (payload: `u32` LE document index).
    pub const DOC_OK: u8 = 0x84;
    /// Metrics reply (payload: UTF-8 JSON object).
    pub const STAT_OK: u8 = 0x85;
    /// Generic acknowledgement (payload: the acked request opcode).
    pub const OK: u8 = 0x86;
    /// Error reply (payload: UTF-8 JSON, see [`super::err_payload`]).
    pub const ERR: u8 = 0x8F;
    /// Negotiation accepted (payload: `u32` LE negotiated version).
    pub const HELLO_OK: u8 = 0x87;
}

/// The wire protocol versions this build speaks. Version 1 is the
/// original single-session framing; version 2 adds the session-id
/// prefix negotiated via [`op::HELLO`].
pub const WIRE_V1: u32 = 1;
pub const WIRE_V2: u32 = 2;

/// The reserved connection-scoped session id in wire v2: frames
/// addressed to it (STAT, BYE, FEEDER) act on the connection as a
/// whole rather than on one logical session.
pub const CONTROL_SESSION: u32 = u32::MAX;

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub op: u8,
    pub payload: Vec<u8>,
}

/// The one frame encoder: append `len | op | [sid] | payload` to `buf`.
/// `sid` is the wire-v2 logical-session prefix; the length prefix
/// counts it as payload. Every reply path encodes through here, in
/// place, into the buffer the bytes are sent from.
pub fn encode_frame(buf: &mut Vec<u8>, op: u8, sid: Option<u32>, payload: &[u8]) {
    let len = 1 + sid.map_or(0, |_| 4) + payload.len();
    buf.reserve(4 + len);
    buf.extend_from_slice(&(len as u32).to_le_bytes());
    buf.push(op);
    if let Some(sid) = sid {
        buf.extend_from_slice(&sid.to_le_bytes());
    }
    buf.extend_from_slice(payload);
}

/// Serialize a frame into a standalone byte buffer (what a blocking
/// client writes).
pub fn frame_bytes(op: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_frame(&mut buf, op, None, payload);
    buf
}

/// Write one frame.
pub fn write_frame(w: &mut impl Write, op: u8, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame_bytes(op, payload))
}

/// Read one frame from a blocking stream. Returns `Ok(None)` on clean
/// EOF at a frame boundary; EOF inside a frame is an error (a torn
/// frame — the peer died mid-write).
pub fn read_frame(r: &mut impl Read, max: usize) -> io::Result<Option<Frame>> {
    let mut header = [0u8; 4];
    match r.read(&mut header) {
        Ok(0) => return Ok(None),
        Ok(mut n) => {
            while n < 4 {
                match r.read(&mut header[n..])? {
                    0 => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed inside a frame header",
                        ))
                    }
                    m => n += m,
                }
            }
        }
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "zero-length frame (every frame carries an opcode)",
        ));
    }
    if len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max}-byte limit"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|_| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed inside a frame body",
        )
    })?;
    let op = body[0];
    body.copy_within(1.., 0);
    body.truncate(len - 1);
    Ok(Some(Frame { op, payload: body }))
}

/// Minimal JSON string escaping for protocol payloads.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A list of diagnostics as one JSON array of
/// `{"severity","code","message","step"?,"state"?,"bpdt"?}` objects, an
/// anchor present only when the finding has one. ERR frames and
/// `xsq analyze --json` both render through here.
pub fn json_diagnostics(diagnostics: &[Diagnostic]) -> String {
    let mut json = String::from("[");
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"severity\":\"{}\",\"code\":\"{}\",\"message\":\"{}\"",
            d.severity.label(),
            json_escape(d.code),
            json_escape(&d.message)
        );
        if let Some(s) = d.step {
            let _ = write!(json, ",\"step\":{s}");
        }
        if let Some(s) = d.state {
            let _ = write!(json, ",\"state\":{s}");
        }
        if let Some(b) = d.bpdt {
            let _ = write!(json, ",\"bpdt\":\"{b}\"");
        }
        json.push('}');
    }
    json.push(']');
    json
}

/// Stable machine-readable error codes carried in ERR frames. Fatal
/// codes close the connection after the reply; recoverable ones leave
/// the session usable.
pub mod errcode {
    /// A SUB payload failed to compile (recoverable).
    pub const BAD_QUERY: &str = "bad-query";
    /// An UNSUB named an id that was never issued (recoverable).
    pub const BAD_ID: &str = "bad-id";
    /// A request violated the protocol state machine (recoverable
    /// unless the framing itself is broken).
    pub const PROTOCOL: &str = "protocol";
    /// Unknown opcode (fatal — the byte stream may be desynced).
    pub const UNKNOWN_OP: &str = "unknown-op";
    /// Frame length over the limit (fatal).
    pub const TOO_LARGE: &str = "too-large";
    /// The fed document failed to parse (fatal for the session: the
    /// stream position is unrecoverable).
    pub const PARSE: &str = "parse";
    /// No complete frame arrived within the idle window (fatal).
    pub const IDLE_TIMEOUT: &str = "idle-timeout";
    /// The server is draining for shutdown (fatal).
    pub const SHUTTING_DOWN: &str = "shutting-down";
    /// A SUB's static memory bound exceeds the server's `--max-bound`
    /// admission budget (recoverable — fix the query and resubscribe).
    pub const OVER_BUDGET: &str = "over-budget";
    /// A wire-v2 frame named a session id that was never opened or is
    /// already closed (recoverable — sibling sessions are unaffected).
    pub const BAD_SESSION: &str = "bad-session";
    /// A request is not valid for this connection's broadcast role —
    /// FEED from a non-feeder, a second FEEDER claim, SUB from the
    /// feeder (recoverable).
    pub const BROADCAST_ROLE: &str = "broadcast-role";
}

/// A `MemoryBound` on the wire: one kind byte plus a `u64` LE count
/// (meaningful for `items`/`per-depth`, zero otherwise). Appended per
/// query to SUB_OK payloads after the ids — old clients read only the
/// leading count and ignore the tail, so the extension is compatible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireBound {
    Zero,
    Items(u64),
    PerDepth(u64),
    Unbounded,
}

impl WireBound {
    pub const SIZE: usize = 9;

    pub fn encode(&self, out: &mut Vec<u8>) {
        let (kind, k) = match self {
            WireBound::Zero => (0u8, 0u64),
            WireBound::Items(k) => (1, *k),
            WireBound::PerDepth(k) => (2, *k),
            WireBound::Unbounded => (3, 0),
        };
        out.push(kind);
        out.extend_from_slice(&k.to_le_bytes());
    }

    pub fn decode(bytes: &[u8]) -> Option<WireBound> {
        let k = u64::from_le_bytes(bytes.get(1..9)?.try_into().ok()?);
        match bytes[0] {
            0 => Some(WireBound::Zero),
            1 => Some(WireBound::Items(k)),
            2 => Some(WireBound::PerDepth(k)),
            3 => Some(WireBound::Unbounded),
            _ => None,
        }
    }
}

impl std::fmt::Display for WireBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireBound::Zero => write!(f, "zero"),
            WireBound::Items(k) => write!(f, "items({k})"),
            WireBound::PerDepth(k) => write!(f, "per-depth({k})"),
            WireBound::Unbounded => write!(f, "unbounded"),
        }
    }
}

/// Build an ERR frame payload:
/// `{"code":…,"message":…,"diagnostics":[…]}`, the diagnostics as
/// [`json_diagnostics`] renders them.
pub fn err_payload(code: &str, message: &str, diagnostics: &[Diagnostic]) -> Vec<u8> {
    format!(
        "{{\"code\":\"{}\",\"message\":\"{}\",\"diagnostics\":{}}}",
        json_escape(code),
        json_escape(message),
        json_diagnostics(diagnostics)
    )
    .into_bytes()
}

/// Pull the `"code"` field back out of an ERR payload (clients report
/// it; tests assert on it). Scanning is enough: the field is always
/// first and its value is a known token that needs no unescaping.
pub fn err_code(payload: &[u8]) -> Option<&str> {
    let text = std::str::from_utf8(payload).ok()?;
    let rest = text.strip_prefix("{\"code\":\"")?;
    rest.split('"').next()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrips() {
        let bytes = frame_bytes(op::SUB, b"/a/b/text()");
        let frame = read_frame(&mut &bytes[..], MAX_FRAME).unwrap().unwrap();
        assert_eq!(frame.op, op::SUB);
        assert_eq!(frame.payload, b"/a/b/text()");
        assert!(read_frame(&mut &bytes[bytes.len()..], MAX_FRAME)
            .unwrap()
            .is_none());
    }

    #[test]
    fn session_prefix_is_counted_as_payload() {
        let mut buf = frame_bytes(op::DOC_OK, b"x");
        encode_frame(&mut buf, op::RESULT, Some(7), b"value");
        let mut wire = &buf[..];
        let first = read_frame(&mut wire, MAX_FRAME).unwrap().unwrap();
        assert_eq!((first.op, &first.payload[..]), (op::DOC_OK, &b"x"[..]));
        let second = read_frame(&mut wire, MAX_FRAME).unwrap().unwrap();
        assert_eq!(second.op, op::RESULT);
        assert_eq!(second.payload, [&7u32.to_le_bytes()[..], b"value"].concat());
        assert!(wire.is_empty());
    }

    #[test]
    fn empty_payload_roundtrips() {
        let bytes = frame_bytes(op::END_DOC, b"");
        let frame = read_frame(&mut &bytes[..], MAX_FRAME).unwrap().unwrap();
        assert_eq!(frame.op, op::END_DOC);
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let bytes = frame_bytes(op::FEED, &[b'x'; 64]);
        let err = read_frame(&mut &bytes[..], 16).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn zero_length_frame_is_rejected() {
        let bytes = 0u32.to_le_bytes();
        let err = read_frame(&mut &bytes[..], MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn torn_frame_is_unexpected_eof() {
        let bytes = frame_bytes(op::FEED, b"<doc>");
        for cut in 1..bytes.len() {
            let err = read_frame(&mut &bytes[..cut], MAX_FRAME).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn wire_bounds_roundtrip() {
        for b in [
            WireBound::Zero,
            WireBound::Items(7),
            WireBound::PerDepth(3),
            WireBound::Unbounded,
        ] {
            let mut buf = Vec::new();
            b.encode(&mut buf);
            assert_eq!(buf.len(), WireBound::SIZE);
            assert_eq!(WireBound::decode(&buf), Some(b));
        }
        assert_eq!(WireBound::decode(&[9; 9]), None);
        assert_eq!(WireBound::decode(&[0; 4]), None);
    }

    #[test]
    fn err_payload_carries_code_and_diagnostics() {
        let payload = err_payload(
            errcode::BAD_QUERY,
            "query 1: no such axis",
            &[Diagnostic::error("parse-error", "no such axis \"child::\"").at_step(2)],
        );
        let text = std::str::from_utf8(&payload).unwrap();
        assert!(text.contains("\"code\":\"bad-query\""));
        assert!(text.contains("\\\"child::\\\""));
        assert!(text.contains("\"step\":2"));
        assert_eq!(err_code(&payload), Some(errcode::BAD_QUERY));
    }

    #[test]
    fn a_diagnostic_renders_the_anchors_it_has() {
        let anchored = Diagnostic::error("unreachable-state", "no path")
            .at_state(3)
            .at_bpdt(xsq_core::BpdtId::new(1, 1));
        assert_eq!(
            json_diagnostics(&[Diagnostic::info("level-count", "≤ 1"), anchored]),
            r#"[{"severity":"info","code":"level-count","message":"≤ 1"},"#.to_string()
                + r#"{"severity":"error","code":"unreachable-state","message":"no path","#
                + r#""state":3,"bpdt":"bpdt(1,1)"}]"#
        );
        assert_eq!(json_diagnostics(&[]), "[]");
    }
}
