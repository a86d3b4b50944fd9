//! The reference client: replays a corpus over the wire and renders
//! the replies in exactly the sequential driver's output format.
//!
//! `xsq connect` is built on this module, and so is the loopback
//! conformance gate: [`run_corpus`] prints each document's updates
//! then results as `doc<TAB>query<TAB>value` lines — byte-identical to
//! `xsq multi --shard 1` — while [`reference_output`] renders the same
//! corpus through [`run_sequential_with`] in process. Comparing the
//! two strings proves the whole network path (framing, push parsing,
//! per-session index, result streaming) is an identity transform on
//! the engine's output.

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use xsq_core::{run_sequential_with, QueryId, QuerySet, XsqEngine};

use crate::proto::{err_code, op, read_frame, write_frame, Frame, WireBound, MAX_FRAME};

/// How one corpus replay went.
#[derive(Debug, Default)]
pub struct ClientReport {
    pub docs: usize,
    pub results: u64,
    pub updates: u64,
    /// The server's STAT JSON, when requested.
    pub stats_json: Option<String>,
    /// Per-query static memory bounds from the SUB_OK tail, in query
    /// order. Empty when talking to a server that predates bounds.
    pub bounds: Vec<WireBound>,
    /// Wire bytes this session read off the socket (reply frames).
    pub wire_in: u64,
    /// Wire bytes this session wrote to the socket (request frames).
    pub wire_out: u64,
}

/// A `Read`/`Write` wrapper that counts bytes as they cross the
/// socket, so a session can report its wire footprint (result bytes
/// in over corpus bytes out is the fan-out amplification factor).
struct Counted<S> {
    inner: S,
    n: u64,
}

impl<S: Read> Read for Counted<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.n += n as u64;
        Ok(n)
    }
}

impl<S: Write> Write for Counted<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.n += n as u64;
        Ok(n)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Pull an unsigned integer field out of a flat STAT JSON object.
pub fn stat_field_u64(json: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = &json[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Pull a string field out of a flat STAT JSON object.
pub fn stat_field_str<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let at = json.find(&pat)? + pat.len();
    let rest = &json[at..];
    Some(&rest[..rest.find('"')?])
}

/// Decode the transport-observability fields of a STAT reply into one
/// printable line (`None` when the server predates them).
pub fn stat_transport_summary(json: &str) -> Option<String> {
    let connections = stat_field_u64(json, "connections")?;
    Some(format!(
        "model={} connections={connections} sessions={} queue_depth_hwm={} \
         dropped_broadcast={}",
        stat_field_str(json, "model").unwrap_or("?"),
        stat_field_u64(json, "sessions").unwrap_or(0),
        stat_field_u64(json, "queue_depth_hwm").unwrap_or(0),
        stat_field_u64(json, "dropped_broadcast").unwrap_or(0),
    ))
}

/// Client-side failures, split for distinct CLI exit codes.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    /// The server broke the protocol (unexpected opcode, bad payload).
    Protocol(String),
    /// The server replied with a framed error.
    Remote {
        code: String,
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Remote { code, message } => {
                write!(f, "server error [{code}]: {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Corpus replay settings.
#[derive(Debug, Clone)]
pub struct ConnectOptions {
    /// FEED chunk size in bytes (1 exercises every token split).
    pub chunk: usize,
    /// Print running aggregate updates (`# running[d:q]: v` lines).
    pub running: bool,
    /// Request STAT before BYE and carry it in the report.
    pub want_stats: bool,
}

impl Default for ConnectOptions {
    fn default() -> Self {
        ConnectOptions {
            chunk: 64 * 1024,
            running: false,
            want_stats: false,
        }
    }
}

fn remote_err(payload: &[u8]) -> ClientError {
    let code = err_code(payload).unwrap_or("unknown").to_string();
    let message = String::from_utf8_lossy(payload).into_owned();
    ClientError::Remote { code, message }
}

/// One client conversation: a connection whose wire bytes are counted
/// in both directions, and the request/reply steps every role shares.
struct Conversation {
    reader: BufReader<Counted<TcpStream>>,
    writer: BufWriter<Counted<TcpStream>>,
}

impl Conversation {
    /// Connect. A correctness client, not a soak client: a server
    /// silent for `patience_secs` fails the run rather than hanging it.
    fn open(addr: &str, patience_secs: u64) -> Result<Conversation, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(patience_secs)))?;
        Ok(Conversation {
            reader: BufReader::new(Counted {
                inner: stream.try_clone()?,
                n: 0,
            }),
            writer: BufWriter::new(Counted {
                inner: stream,
                n: 0,
            }),
        })
    }

    /// Queue one request frame (sent by the next [`Self::next`]).
    fn send(&mut self, opcode: u8, payload: &[u8]) -> Result<(), ClientError> {
        Ok(write_frame(&mut self.writer, opcode, payload)?)
    }

    /// Flush what is queued and read the next reply frame.
    fn next(&mut self) -> Result<Frame, ClientError> {
        self.writer.flush()?;
        read_frame(&mut self.reader, MAX_FRAME)?.ok_or_else(|| {
            ClientError::Protocol("server closed the connection mid-conversation".into())
        })
    }

    /// Read the next reply, which must be `want` (`what`, in words): an
    /// ERR is the server's refusal, anything else a protocol breach.
    fn expect(&mut self, want: u8, what: &str) -> Result<Frame, ClientError> {
        let frame = self.next()?;
        match frame.op {
            op if op == want => Ok(frame),
            op::ERR => Err(remote_err(&frame.payload)),
            other => Err(ClientError::Protocol(format!(
                "expected {what}, got opcode 0x{other:02x}"
            ))),
        }
    }

    /// Send one request and read its reply.
    fn request(
        &mut self,
        opcode: u8,
        payload: &[u8],
        want: u8,
        what: &str,
    ) -> Result<Frame, ClientError> {
        self.send(opcode, payload)?;
        self.expect(want, what)
    }

    /// SUB the whole batch; returns the bounds tail of SUB_OK.
    fn subscribe(&mut self, queries: &[&str]) -> Result<Vec<WireBound>, ClientError> {
        let reply = self.request(op::SUB, queries.join("\n").as_bytes(), op::SUB_OK, "SUB_OK")?;
        parse_sub_ok(&reply.payload, queries.len())
    }

    /// Collect RESULT/UPDATE frames up to the next DOC_OK, render them
    /// as document `report.docs` and count them.
    fn render_next_doc(
        &mut self,
        report: &mut ClientReport,
        running: bool,
        out: &mut impl Write,
    ) -> Result<(), ClientError> {
        let (mut results, mut updates) = (Vec::new(), Vec::new());
        loop {
            let frame = self.next()?;
            match frame.op {
                op::RESULT | op::UPDATE => {
                    let short = || ClientError::Protocol("short RESULT or UPDATE".into());
                    let (id, value) = frame.payload.split_first_chunk::<4>().ok_or_else(short)?;
                    let id = QueryId(u32::from_le_bytes(*id));
                    if frame.op == op::RESULT {
                        results.push((id, String::from_utf8_lossy(value).into_owned()));
                    } else {
                        let value = <[u8; 8]>::try_from(value).map_err(|_| short())?;
                        updates.push((id, f64::from_le_bytes(value)));
                    }
                }
                op::DOC_OK => break,
                op::ERR => return Err(remote_err(&frame.payload)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected opcode 0x{other:02x} during document"
                    )))
                }
            }
        }
        render_doc(out, report.docs, &results, &updates, running)?;
        report.docs += 1;
        report.results += results.len() as u64;
        report.updates += updates.len() as u64;
        Ok(())
    }

    /// STAT; returns the JSON.
    fn stat(&mut self) -> Result<String, ClientError> {
        let frame = self.request(op::STAT, &[], op::STAT_OK, "STAT_OK")?;
        Ok(String::from_utf8_lossy(&frame.payload).into_owned())
    }

    /// BYE; returns the wire bytes `(read, written)` over the whole
    /// conversation.
    fn bye(mut self) -> Result<(u64, u64), ClientError> {
        self.request(op::BYE, &[], op::OK, "OK for BYE")?;
        Ok((self.reader.get_ref().n, self.writer.get_ref().n))
    }
}

/// Render one document's replies in the sequential driver's format:
/// running aggregate updates first (when asked for), then results, each
/// a `doc<TAB>query<TAB>value` line. The one renderer — what the wire
/// clients print is what `xsq multi` prints.
pub fn render_doc(
    out: &mut impl Write,
    di: usize,
    results: &[(QueryId, String)],
    updates: &[(QueryId, f64)],
    running: bool,
) -> std::io::Result<()> {
    if running {
        for (id, v) in updates {
            writeln!(out, "# running[{di}:{}]: {v}", id.0)?;
        }
    }
    for (id, v) in results {
        writeln!(out, "{di}\t{}\t{v}", id.0)?;
    }
    Ok(())
}

/// Replay `docs` against a server, writing rendered results to `out`.
///
/// One SUB carries the whole query set, so the server's prefix-shared
/// plan is the very [`QuerySet`] the in-process driver compiles and
/// results arrive in the same order the sequential driver emits them.
/// Per document the client batches RESULT/UPDATE frames until DOC_OK,
/// then renders updates (if enabled) before results — the
/// `run_sequential_with` presentation.
pub fn run_corpus(
    addr: &str,
    queries: &[&str],
    docs: &[impl AsRef<[u8]>],
    opts: &ConnectOptions,
    out: &mut impl Write,
) -> Result<ClientReport, ClientError> {
    let mut conn = Conversation::open(addr, 60)?;
    let mut report = ClientReport {
        bounds: conn.subscribe(queries)?,
        ..ClientReport::default()
    };
    for doc in docs {
        for piece in doc.as_ref().chunks(opts.chunk.max(1)) {
            conn.send(op::FEED, piece)?;
        }
        conn.send(op::END_DOC, &[])?;
        conn.render_next_doc(&mut report, opts.running, out)?;
    }
    if opts.want_stats {
        report.stats_json = Some(conn.stat()?);
    }
    (report.wire_in, report.wire_out) = conn.bye()?;
    Ok(report)
}

/// Check a SUB_OK payload's count and decode its bounds tail.
fn parse_sub_ok(payload: &[u8], expected: usize) -> Result<Vec<WireBound>, ClientError> {
    let Some(count) = payload.first_chunk::<4>().map(|b| u32::from_le_bytes(*b)) else {
        return Err(ClientError::Protocol("short SUB_OK".into()));
    };
    if count as usize != expected {
        return Err(ClientError::Protocol(format!(
            "subscribed {expected} queries, server acked {count}"
        )));
    }
    // ids then (on servers that compute them) one WireBound per query;
    // older servers simply end the payload after the ids.
    let tail = payload.get(4 + 4 * count as usize..).unwrap_or(&[]);
    if tail.len() != count as usize * WireBound::SIZE {
        return Ok(Vec::new());
    }
    tail.chunks_exact(WireBound::SIZE)
        .map(|raw| {
            WireBound::decode(raw)
                .ok_or_else(|| ClientError::Protocol("malformed bound in SUB_OK tail".into()))
        })
        .collect()
}

/// Feeder settings for [`broadcast_feed`].
#[derive(Debug, Clone)]
pub struct FeedOptions {
    /// FEED chunk size in bytes.
    pub chunk: usize,
    /// Poll STAT until this many subscribers are attached before the
    /// first FEED (so a scripted fan-out starts only when the audience
    /// is seated).
    pub wait_subs: Option<u64>,
    /// Request STAT after the last document and carry it in the report.
    pub want_stats: bool,
}

impl Default for FeedOptions {
    fn default() -> Self {
        FeedOptions {
            chunk: 64 * 1024,
            wait_subs: None,
            want_stats: false,
        }
    }
}

/// How one broadcast feed went.
#[derive(Debug, Default)]
pub struct FeedReport {
    pub docs: usize,
    pub bytes: u64,
    pub stats_json: Option<String>,
    pub wire_in: u64,
    pub wire_out: u64,
}

/// Claim the feeder role on a broadcast server and push the corpus.
/// Every attached subscriber sees the stream through the shared index;
/// the feeder's own acks are global DOC_OK document numbers.
pub fn broadcast_feed(
    addr: &str,
    docs: &[impl AsRef<[u8]>],
    opts: &FeedOptions,
) -> Result<FeedReport, ClientError> {
    let mut conn = Conversation::open(addr, 60)?;
    conn.request(op::FEEDER, &[], op::OK, "OK for FEEDER")?;
    if let Some(want) = opts.wait_subs {
        while stat_field_u64(&conn.stat()?, "subscribers").unwrap_or(0) < want {
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    let mut report = FeedReport::default();
    for (di, doc) in docs.iter().enumerate() {
        let doc = doc.as_ref();
        report.bytes += doc.len() as u64;
        for piece in doc.chunks(opts.chunk.max(1)) {
            conn.send(op::FEED, piece)?;
        }
        conn.send(op::END_DOC, &[])?;
        let ack = conn.expect(op::DOC_OK, "DOC_OK")?;
        let acked = ack
            .payload
            .first_chunk::<4>()
            .map(|b| u32::from_le_bytes(*b));
        if acked != Some(di as u32) {
            return Err(ClientError::Protocol(format!(
                "fed document {di}, server acked {acked:?}"
            )));
        }
        report.docs += 1;
    }
    if opts.want_stats {
        report.stats_json = Some(conn.stat()?);
    }
    (report.wire_in, report.wire_out) = conn.bye()?;
    Ok(report)
}

/// Subscribe to a broadcast server and render `expect_docs` documents
/// of fan-out in exactly the [`run_corpus`] output format, so a
/// subscriber's output is byte-comparable to a solo corpus replay
/// (and to `xsq multi --shard 1`).
pub fn broadcast_subscribe(
    addr: &str,
    queries: &[&str],
    expect_docs: usize,
    running: bool,
    out: &mut impl Write,
) -> Result<ClientReport, ClientError> {
    let mut conn = Conversation::open(addr, 120)?;
    let mut report = ClientReport {
        bounds: conn.subscribe(queries)?,
        ..ClientReport::default()
    };
    // Passive from here: the feeder drives the stream; this side only
    // collects each document's frames and renders at DOC_OK, counting
    // documents from its own first boundary like a private session.
    while report.docs < expect_docs {
        conn.render_next_doc(&mut report, running, out)?;
    }
    (report.wire_in, report.wire_out) = conn.bye()?;
    Ok(report)
}

/// Render the corpus through the in-process sequential driver in the
/// exact format [`run_corpus`] prints — the byte-comparison oracle.
pub fn reference_output(
    engine: XsqEngine,
    queries: &[&str],
    docs: &[impl AsRef<[u8]>],
    running: bool,
) -> Result<String, String> {
    let set = QuerySet::compile(engine, queries)
        .map_err(|(i, e)| format!("query {} ({}): {e}", i + 1, queries[i]))?;
    let mut text = Vec::new();
    run_sequential_with(&set, docs, |di, out| {
        render_doc(&mut text, di, &out.results, &out.updates, running)
            .expect("writing to a Vec cannot fail");
    })
    .map_err(|e| e.to_string())?;
    Ok(String::from_utf8(text).expect("rendered from strings"))
}
