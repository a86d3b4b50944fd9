//! One client session: a protocol state machine around a private
//! ingest core.
//!
//! The session is transport-agnostic — it consumes decoded
//! [`Frame`]s and emits reply frames through an [`Outbox`], so the
//! same state machine runs under the TCP server and under in-process
//! tests with no socket at all. Per connection it owns:
//!
//! * a private `Ingest` — a `QueryIndex` (sessions never share
//!   runtime state, so one slow client cannot stall another's dispatch)
//!   behind a push parser fed FEED payloads exactly as they arrive off
//!   the wire, with the counters STAT reports,
//! * the SUB/UNSUB bookkeeping: compiled batches come out of a
//!   [`PlanCache`] — the server's shared one, or the session's own when
//!   nothing shares it — and the session holds each plan's `Arc` for as
//!   long as a member of the batch is subscribed or promised.
//!
//! Subscription changes that arrive *mid-document* (between the first
//! FEED and its END-DOC) are deferred to the document boundary: the
//! ids are promised immediately (SUB_OK) after the queries are
//! validated, but the index only changes once the in-flight document
//! finishes, so a document's result set is always produced by one
//! consistent query set.

use std::sync::Arc;

use xsq_core::{
    query_lines, CachedPlan, CompileError, Diagnostic, MemoryBound, PlanCache, PlanCacheStats,
    QueryId, QuerySink, XsqEngine,
};
use xsq_xml::dtd::Dtd;

use crate::ingest::Ingest;
use crate::proto::{err_payload, errcode, json_escape, op, Frame, WireBound};

/// Per-session admission policy, shared by every connection of one
/// server: an optional per-subscription item budget and the schema the
/// bound analyzer proves it against.
#[derive(Debug, Clone, Default)]
pub struct SessionLimits {
    /// Reject any SUB whose static memory bound is not `Items(K ≤ max)`
    /// (or `Zero`). `None` admits everything.
    pub max_bound: Option<u64>,
    /// Schema for the bound analysis. Without one, every buffering
    /// query analyzes as `Unbounded` — so `max_bound` without a DTD
    /// admits only bufferless queries.
    pub dtd: Option<Arc<Dtd>>,
}

/// Where a session's reply frames go. The TCP server backs this with
/// the connection's write buffer (whose depth is the backpressure
/// signal); tests back it with a `Vec`.
pub trait Outbox {
    fn send(&mut self, op: u8, payload: &[u8]);
}

impl<F: FnMut(u8, &[u8])> Outbox for F {
    fn send(&mut self, op: u8, payload: &[u8]) {
        self(op, payload)
    }
}

/// What the transport should do after a frame is handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Keep reading frames.
    Continue,
    /// Close the connection (after flushing queued replies).
    Close,
}

/// Emits RESULT/UPDATE frames as the engine determines results — the
/// streaming path: a result reaches the outbox (and from there the
/// wire) the moment its membership is decided, not at END-DOC.
struct FrameSink<'a> {
    out: &'a mut dyn Outbox,
    /// The session's reusable RESULT payload buffer (`id | value`).
    scratch: &'a mut Vec<u8>,
}

impl QuerySink for FrameSink<'_> {
    fn result(&mut self, id: QueryId, value: &str) {
        self.scratch.clear();
        self.scratch.extend_from_slice(&id.0.to_le_bytes());
        self.scratch.extend_from_slice(value.as_bytes());
        self.out.send(op::RESULT, self.scratch);
    }

    fn aggregate_update(&mut self, id: QueryId, value: f64) {
        let mut payload = [0u8; 12];
        payload[..4].copy_from_slice(&id.0.to_le_bytes());
        payload[4..].copy_from_slice(&value.to_le_bytes());
        self.out.send(op::UPDATE, &payload);
    }
}

/// Ingest metrics (the STAT reply), accumulated across documents.
#[derive(Debug, Default, Clone)]
pub struct SessionStats {
    pub bytes_in: u64,
    /// Frames a private session handled (the broadcast hub counts none).
    pub frames_in: u64,
    pub docs: u32,
    pub results: u64,
    pub updates: u64,
    pub peak_buffered_bytes: u64,
    pub peak_configs: u64,
    /// Wall time spent inside FEED/END-DOC ingest (push + parse +
    /// dispatch), so STAT can report ingest MB/s and events/s without
    /// counting the client's think time between frames.
    pub ingest_nanos: u64,
}

/// Transport-level counters the serving layer injects before answering
/// STAT: the session state machine cannot see past its own connection,
/// so connection counts, logical-session counts, writer-queue high
/// water marks, and broadcast drop totals arrive from outside.
#[derive(Debug, Clone, Copy)]
pub struct TransportStats {
    /// Serving model name (`eventloop`, `broadcast`, `inproc` for a
    /// bare session).
    pub model: &'static str,
    /// Open TCP connections on the server.
    pub connections: u64,
    /// Logical sessions across all connections (≥ connections once
    /// clients multiplex).
    pub sessions: u64,
    /// Highest observed per-connection reply-queue depth (frames).
    pub queue_depth_hwm: u64,
    /// Most reply bytes ever queued on one connection at once.
    pub queued_bytes_hwm: u64,
    /// Broadcast frames dropped against slow subscribers (drop policy).
    pub dropped_broadcast: u64,
}

impl Default for TransportStats {
    fn default() -> Self {
        TransportStats {
            model: "inproc",
            connections: 0,
            sessions: 0,
            queue_depth_hwm: 0,
            queued_bytes_hwm: 0,
            dropped_broadcast: 0,
        }
    }
}

impl TransportStats {
    /// Close a STAT_OK object with the members every reply shares —
    /// transport, plan cache, scan kernel — so a counter added here
    /// shows up under every STAT at once. `json` holds the opening
    /// brace and the caller's own members, each followed by a comma.
    pub(crate) fn finish_stat_json(&self, cache: PlanCacheStats, json: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            json,
            "\"model\":\"{}\",\"connections\":{},\"sessions\":{},\
             \"queue_depth_hwm\":{},\"queued_bytes_hwm\":{},\
             \"dropped_broadcast\":{},\
             \"plan_cache_entries\":{},\"plan_cache_hits\":{},\
             \"plan_cache_misses\":{},\"kernel\":\"{}\"}}",
            json_escape(self.model),
            self.connections,
            self.sessions,
            self.queue_depth_hwm,
            self.queued_bytes_hwm,
            self.dropped_broadcast,
            cache.entries,
            cache.hits,
            cache.misses,
            xsq_xml::scan::active_kernel(),
        );
    }
}

/// One subscribed SUB batch: ids `first..first + plan.set().len()`.
/// Holding `plan` is what keeps it cached; the batch is dropped when
/// its last member unsubscribes.
struct BatchRef {
    first: u32,
    live: usize,
    plan: Arc<CachedPlan>,
}

/// One connection's protocol state machine.
pub struct Session {
    engine: XsqEngine,
    ingest: Ingest,
    /// SUB batches promised mid-document, applied at the next boundary.
    /// Each was checked out of the cache at SUB time, so applying it
    /// cannot fail.
    pending_subs: Vec<Arc<CachedPlan>>,
    /// UNSUBs received mid-document, applied after pending subs.
    pending_unsubs: Vec<QueryId>,
    /// Ids promised to pending subs but not yet allocated by the index.
    promised: u32,
    limits: SessionLimits,
    /// Where SUB batches compile: the server's cross-connection cache,
    /// or one of this session's own.
    cache: Arc<PlanCache>,
    /// The batches with a live member.
    batches: Vec<BatchRef>,
    transport: TransportStats,
    /// RESULT payloads are built here, one after another.
    scratch: Vec<u8>,
}

impl Session {
    pub fn new(engine: XsqEngine) -> Session {
        Session::with_limits(engine, SessionLimits::default())
    }

    /// A session with an admission policy (`xsq serve --max-bound`).
    pub fn with_limits(engine: XsqEngine, limits: SessionLimits) -> Session {
        Session {
            engine,
            ingest: Ingest::new(engine),
            pending_subs: Vec::new(),
            pending_unsubs: Vec::new(),
            promised: 0,
            // The cache analyzes bounds against the admission DTD.
            cache: PlanCache::new(limits.dtd.clone()),
            limits,
            batches: Vec::new(),
            transport: TransportStats::default(),
            scratch: Vec::new(),
        }
    }

    /// Route SUB compilation through a shared [`PlanCache`] in place
    /// of the session's own; call before the first SUB. The cache must
    /// have been built with the same DTD as this session's limits, so
    /// its bounds are the ones the admission budget is about.
    pub fn set_plan_cache(&mut self, cache: Arc<PlanCache>) {
        self.cache = cache;
    }

    /// Inject transport-level counters for the next STAT reply.
    pub fn set_transport(&mut self, transport: TransportStats) {
        self.transport = transport;
    }

    /// A document is currently in flight (FEED seen, END-DOC not yet).
    /// The server uses this to decide how hard it may drain on
    /// shutdown.
    pub fn doc_active(&self) -> bool {
        self.ingest.doc_active()
    }

    pub fn stats(&self) -> &SessionStats {
        &self.ingest.stats
    }

    /// Handle one decoded frame, emitting replies through `out`.
    pub fn handle_frame(&mut self, frame: &Frame, out: &mut dyn Outbox) -> Action {
        self.handle(frame.op, &frame.payload, out)
    }

    /// [`Session::handle_frame`] on a borrowed payload: a transport
    /// that strips a session prefix passes the rest of its buffer.
    pub fn handle(&mut self, opcode: u8, payload: &[u8], out: &mut dyn Outbox) -> Action {
        self.ingest.stats.frames_in += 1;
        match opcode {
            op::SUB => self.on_sub(payload, out),
            op::UNSUB => self.on_unsub(payload, out),
            op::FEED => self.on_feed(payload, out),
            op::END_DOC => self.on_end_doc(out),
            op::STAT => {
                let json = self.stat_json();
                out.send(op::STAT_OK, json.as_bytes());
                Action::Continue
            }
            op::BYE => {
                out.send(op::OK, &[op::BYE]);
                Action::Close
            }
            other => {
                out.send(
                    op::ERR,
                    &err_payload(
                        errcode::UNKNOWN_OP,
                        &format!("unknown opcode 0x{other:02x}"),
                        &[],
                    ),
                );
                Action::Close
            }
        }
    }

    fn on_sub(&mut self, payload: &[u8], out: &mut dyn Outbox) -> Action {
        let (engine, limits, cache) = (self.engine, &self.limits, &self.cache);
        let (opcode, reply) = admit_sub(engine, limits, cache, payload, |plan| {
            if self.ingest.doc_active() {
                // Promise the ids now; the index changes at the boundary.
                let base = self.ingest.index.len() as u32 + self.promised;
                self.promised += plan.set().len() as u32;
                self.pending_subs.push(Arc::clone(plan));
                (base..self.ingest.index.len() as u32 + self.promised)
                    .map(QueryId)
                    .collect()
            } else {
                apply_sub(&mut self.ingest, &mut self.batches, Arc::clone(plan))
            }
        });
        out.send(opcode, &reply);
        Action::Continue
    }

    fn on_unsub(&mut self, payload: &[u8], out: &mut dyn Outbox) -> Action {
        let Ok(bytes) = <[u8; 4]>::try_from(payload) else {
            out.send(
                op::ERR,
                &err_payload(errcode::PROTOCOL, "UNSUB payload must be a u32 id", &[]),
            );
            return Action::Continue;
        };
        let id = QueryId(u32::from_le_bytes(bytes));
        if id.0 >= self.ingest.index.len() as u32 + self.promised {
            out.send(
                op::ERR,
                &err_payload(
                    errcode::BAD_ID,
                    &format!("query id {} was never issued", id.0),
                    &[],
                ),
            );
            return Action::Continue;
        }
        if self.ingest.doc_active() {
            self.pending_unsubs.push(id);
        } else {
            self.apply_unsub(id);
        }
        out.send(op::OK, &[op::UNSUB]);
        Action::Continue
    }

    /// Unsubscribe `id`; the last live member of a batch takes the
    /// batch — and this session's hold on its cached plan — with it.
    fn apply_unsub(&mut self, id: QueryId) {
        if !self.ingest.index.unsubscribe(id) {
            return;
        }
        let of_id = |b: &BatchRef| (b.first..b.first + b.plan.set().len() as u32).contains(&id.0);
        let Some(at) = self.batches.iter().position(of_id) else {
            return;
        };
        self.batches[at].live -= 1;
        if self.batches[at].live == 0 {
            self.batches.swap_remove(at);
        }
    }

    fn on_feed(&mut self, payload: &[u8], out: &mut dyn Outbox) -> Action {
        let mut sink = FrameSink {
            out,
            scratch: &mut self.scratch,
        };
        match self.ingest.feed(payload, &mut sink) {
            Ok(()) => Action::Continue,
            Err(message) => fail_stream(&message, out),
        }
    }

    fn on_end_doc(&mut self, out: &mut dyn Outbox) -> Action {
        if !self.ingest.doc_active() {
            out.send(
                op::ERR,
                &err_payload(errcode::PROTOCOL, "END-DOC without any FEED", &[]),
            );
            return Action::Continue;
        }
        let mut sink = FrameSink {
            out,
            scratch: &mut self.scratch,
        };
        match self.ingest.end_doc(&mut sink) {
            Ok(doc) => out.send(op::DOC_OK, &doc.to_le_bytes()),
            Err(message) => return fail_stream(&message, out),
        }
        // Deferred subscription changes: promised subs first (their ids
        // must exist before an interleaved UNSUB can name them).
        for plan in std::mem::take(&mut self.pending_subs) {
            apply_sub(&mut self.ingest, &mut self.batches, plan);
        }
        self.promised = 0;
        for id in std::mem::take(&mut self.pending_unsubs) {
            self.apply_unsub(id);
        }
        Action::Continue
    }

    /// The STAT reply: the ingest counters, this session's wire totals,
    /// then the transport and cache members every STAT shares.
    fn stat_json(&self) -> String {
        use std::fmt::Write as _;
        let mut json = String::new();
        self.ingest.write_stat(&mut json);
        let _ = write!(json, "\"frames_in\":{},", self.ingest.stats.frames_in);
        self.transport
            .finish_stat_json(self.cache.stats(), &mut json);
        json
    }
}

/// Instantiate an admitted batch in the index and keep its plan.
/// Returns the ids the index allocated.
fn apply_sub(
    ingest: &mut Ingest,
    batches: &mut Vec<BatchRef>,
    plan: Arc<CachedPlan>,
) -> Vec<QueryId> {
    let first = ingest.index.len() as u32;
    let ids = ingest.index.subscribe_set(plan.set());
    batches.push(BatchRef {
        first,
        live: ids.len(),
        plan,
    });
    ids
}

/// A parse error is fatal for the session: the byte stream position is
/// unrecoverable, so the client gets one framed error (fail-fast, like
/// the sharded driver's lowest-doc report) and the connection closes.
fn fail_stream(message: &str, out: &mut dyn Outbox) -> Action {
    out.send(op::ERR, &err_payload(errcode::PARSE, message, &[]));
    Action::Close
}

/// The one SUB admission path, for a private session and the broadcast
/// hub alike: payload text → plan-cache checkout → budget check →
/// `subscribe` → SUB_OK. Returns the reply frame. Every query's static
/// memory bound is known before `subscribe` runs or any id is promised,
/// so a rejected batch changes nothing: the ERR is recoverable and the
/// plan, which nobody kept, leaves the cache.
///
/// `subscribe` receives the admitted plan — which stays cached for as
/// long as the caller holds a clone — and returns the ids SUB_OK
/// reports.
pub(crate) fn admit_sub(
    engine: XsqEngine,
    limits: &SessionLimits,
    cache: &PlanCache,
    payload: &[u8],
    subscribe: impl FnOnce(&Arc<CachedPlan>) -> Vec<QueryId>,
) -> (u8, Vec<u8>) {
    let Ok(text) = std::str::from_utf8(payload) else {
        let err = err_payload(errcode::PROTOCOL, "SUB payload is not UTF-8", &[]);
        return (op::ERR, err);
    };
    let queries = query_lines(text);
    if queries.is_empty() {
        let err = err_payload(errcode::BAD_QUERY, "SUB carried no queries", &[]);
        return (op::ERR, err);
    }
    // The checkout is the validation: the first session to ask
    // compiles, everyone after shares the plan and its bounds.
    let plan = match cache.checkout(engine, &queries) {
        Ok(plan) => plan,
        Err((i, e)) => {
            let err = err_payload(
                errcode::BAD_QUERY,
                &format!("query {} ({}): {e}", i + 1, queries[i]),
                &query_diagnostics(engine, queries[i], &e),
            );
            return (op::ERR, err);
        }
    };
    let bounds = plan.bounds();
    if let Some(budget) = limits.max_bound {
        if let Some(i) = bounds.iter().position(|b| !b.bound.admits(budget)) {
            // The derivation admission read, so the client sees *why*
            // the bound is what it is (which multiplicity is starred,
            // which step stays undecided).
            let bound = &bounds[i].bound;
            let mut diagnostics = vec![Diagnostic::error(
                "memory-bound",
                format!("static memory bound: {bound}"),
            )];
            diagnostics.extend_from_slice(&bounds[i].trace);
            let err = err_payload(
                errcode::OVER_BUDGET,
                &format!(
                    "query {} ({}): static memory bound {bound} exceeds the \
                     server budget of {budget} buffered item(s)",
                    i + 1,
                    queries[i],
                ),
                &diagnostics,
            );
            return (op::ERR, err);
        }
    }
    let ids = subscribe(&plan);
    // SUB_OK: count, ids, then one WireBound per query (clients that
    // predate the bounds read only count + ids and ignore the tail).
    let mut reply = Vec::with_capacity(4 + (4 + WireBound::SIZE) * ids.len());
    reply.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    for id in &ids {
        reply.extend_from_slice(&id.0.to_le_bytes());
    }
    for b in bounds {
        wire_bound(&b.bound).encode(&mut reply);
    }
    (op::SUB_OK, reply)
}

/// `MemoryBound` → its wire form (the derivation stays server-side;
/// SUB_OK carries only the verdict).
fn wire_bound(bound: &MemoryBound) -> WireBound {
    match bound {
        MemoryBound::Zero => WireBound::Zero,
        MemoryBound::Items(k) => WireBound::Items(*k),
        MemoryBound::PerDepth(k) => WireBound::PerDepth(*k),
        MemoryBound::Unbounded { .. } => WireBound::Unbounded,
    }
}

/// Analyzer-backed diagnostics for a rejected SUB: the compile error
/// itself first, then whatever the static analyzer can add (it sees
/// queries that parse but misbuild; a parse failure carries only the
/// parser's message).
fn query_diagnostics(engine: XsqEngine, query: &str, error: &CompileError) -> Vec<Diagnostic> {
    let mut out = vec![Diagnostic::error("compile-error", error.to_string())];
    if let Ok(parsed) = xsq_xpath::parse_query(query) {
        if let Ok(analysis) = xsq_core::analyze_with_dtd(engine, &parsed, None) {
            out.extend(analysis.diagnostics);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::err_code;

    fn sub_frame(queries: &str) -> Frame {
        Frame {
            op: op::SUB,
            payload: queries.as_bytes().to_vec(),
        }
    }

    fn feed_frame(bytes: &[u8]) -> Frame {
        Frame {
            op: op::FEED,
            payload: bytes.to_vec(),
        }
    }

    const END: Frame = Frame {
        op: op::END_DOC,
        payload: Vec::new(),
    };

    fn drive(session: &mut Session, frames: &[Frame]) -> Vec<(u8, Vec<u8>)> {
        let mut out: Vec<(u8, Vec<u8>)> = Vec::new();
        for f in frames {
            let mut sink = |op: u8, payload: &[u8]| out.push((op, payload.to_vec()));
            session.handle_frame(f, &mut sink);
        }
        out
    }

    fn results_of(replies: &[(u8, Vec<u8>)]) -> Vec<(u32, String)> {
        replies
            .iter()
            .filter(|(o, _)| *o == op::RESULT)
            .map(|(_, p)| {
                (
                    u32::from_le_bytes(p[..4].try_into().unwrap()),
                    String::from_utf8(p[4..].to_vec()).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn subscribe_feed_and_finish_streams_results() {
        let mut session = Session::new(XsqEngine::full());
        let doc = b"<pub><book><name>N</name></book><year>2002</year></pub>";
        let replies = drive(
            &mut session,
            &[
                sub_frame("//pub[year=2002]//name/text()"),
                feed_frame(doc),
                END,
            ],
        );
        assert_eq!(replies[0].0, op::SUB_OK);
        assert_eq!(results_of(&replies), [(0, "N".to_string())]);
        assert!(replies.iter().any(|(o, _)| *o == op::DOC_OK));
        assert_eq!(session.stats().docs, 1);
    }

    #[test]
    fn one_byte_feeds_match_single_feed() {
        let doc: &[u8] =
            "<pub a=\"x\"><b>caf\u{e9} \u{1F680}</b><b><![CDATA[x]]y]]></b></pub>".as_bytes();
        let queries = "/pub/b/text()\n//b/count()";
        let whole = {
            let mut s = Session::new(XsqEngine::full());
            drive(&mut s, &[sub_frame(queries), feed_frame(doc), END])
        };
        let torn = {
            let mut s = Session::new(XsqEngine::full());
            let mut frames = vec![sub_frame(queries)];
            frames.extend(doc.iter().map(|b| feed_frame(&[*b])));
            frames.push(END);
            drive(&mut s, &frames)
        };
        let payload_frames = |r: &[(u8, Vec<u8>)]| {
            r.iter()
                .filter(|(o, _)| matches!(*o, op::RESULT | op::UPDATE | op::DOC_OK))
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(payload_frames(&whole), payload_frames(&torn));
    }

    #[test]
    fn bad_query_gets_machine_readable_error() {
        let mut session = Session::new(XsqEngine::full());
        let replies = drive(&mut session, &[sub_frame("/a[")]);
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].0, op::ERR);
        assert_eq!(err_code(&replies[0].1), Some(errcode::BAD_QUERY));
        let text = std::str::from_utf8(&replies[0].1).unwrap();
        assert!(text.contains("\"diagnostics\":["), "payload: {text}");
        // The session survives a rejected SUB.
        let replies = drive(&mut session, &[sub_frame("/a/text()")]);
        assert_eq!(replies[0].0, op::SUB_OK);
    }

    #[test]
    fn closure_on_nc_engine_is_rejected() {
        let mut session = Session::new(XsqEngine::no_closure());
        let replies = drive(&mut session, &[sub_frame("//a/text()")]);
        assert_eq!(replies[0].0, op::ERR);
        assert_eq!(err_code(&replies[0].1), Some(errcode::BAD_QUERY));
    }

    #[test]
    fn sub_during_feed_defers_to_next_document() {
        let mut session = Session::new(XsqEngine::full());
        let doc = b"<a><b>one</b></a>";
        let replies = drive(
            &mut session,
            &[
                sub_frame("/a/b/text()"),
                feed_frame(&doc[..5]),
                // Mid-document: promised id 1, active from the next doc.
                sub_frame("//b/text()"),
                feed_frame(&doc[5..]),
                END,
            ],
        );
        let sub_oks: Vec<_> = replies.iter().filter(|(o, _)| *o == op::SUB_OK).collect();
        assert_eq!(sub_oks.len(), 2);
        assert_eq!(
            u32::from_le_bytes(sub_oks[1].1[4..8].try_into().unwrap()),
            1
        );
        // Document 1 saw only query 0.
        assert_eq!(results_of(&replies), [(0, "one".to_string())]);
        // Document 2 is served by both.
        let replies = drive(&mut session, &[feed_frame(doc), END]);
        assert_eq!(
            results_of(&replies),
            [(0, "one".to_string()), (1, "one".to_string())]
        );
    }

    #[test]
    fn unsub_during_feed_defers_to_next_document() {
        let mut session = Session::new(XsqEngine::full());
        let doc = b"<a><b>one</b></a>";
        let unsub = Frame {
            op: op::UNSUB,
            payload: 0u32.to_le_bytes().to_vec(),
        };
        let replies = drive(
            &mut session,
            &[
                sub_frame("/a/b/text()"),
                feed_frame(&doc[..5]),
                unsub,
                feed_frame(&doc[5..]),
                END,
            ],
        );
        // The in-flight document still answers the query…
        assert_eq!(results_of(&replies), [(0, "one".to_string())]);
        // …and the next one no longer does.
        let replies = drive(&mut session, &[feed_frame(doc), END]);
        assert_eq!(results_of(&replies), []);
    }

    #[test]
    fn malformed_document_is_fatal_with_parse_error() {
        let mut session = Session::new(XsqEngine::full());
        let replies = drive(
            &mut session,
            &[sub_frame("/a/text()"), feed_frame(b"<a><b></a>"), END],
        );
        let err = replies
            .iter()
            .find(|(o, _)| *o == op::ERR)
            .expect("ERR frame");
        assert_eq!(err_code(&err.1), Some(errcode::PARSE));
        assert!(!replies.iter().any(|(o, _)| *o == op::DOC_OK));
    }

    #[test]
    fn stat_reports_counters_as_json() {
        let mut session = Session::new(XsqEngine::full());
        let replies = drive(
            &mut session,
            &[
                sub_frame("//b/count()"),
                feed_frame(b"<a><b/><b/></a>"),
                END,
                Frame {
                    op: op::STAT,
                    payload: Vec::new(),
                },
            ],
        );
        let stat = replies.iter().find(|(o, _)| *o == op::STAT_OK).unwrap();
        let json = std::str::from_utf8(&stat.1).unwrap();
        for needle in [
            "\"engine\":\"xsq-f\"",
            "\"docs\":1",
            "\"results\":1",
            "\"bytes_in\":15",
            "\"frames_in\":",
            "\"peak_configs\":",
            "\"ingest_mb_per_sec\":",
            "\"events_per_sec\":",
            "\"kernel\":\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    fn dblp_dtd() -> Arc<Dtd> {
        Arc::new(
            Dtd::parse(
                "<!ELEMENT dblp ((article | inproceedings)*)>\
                 <!ELEMENT article (author*, title, year, pages)>\
                 <!ELEMENT inproceedings (author*, title, year, pages, booktitle?)>\
                 <!ELEMENT author (#PCDATA)> <!ELEMENT title (#PCDATA)>\
                 <!ELEMENT year (#PCDATA)> <!ELEMENT pages (#PCDATA)>\
                 <!ELEMENT booktitle (#PCDATA)>",
            )
            .unwrap(),
        )
    }

    fn sub_ok_bounds(payload: &[u8]) -> Vec<WireBound> {
        let count = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
        let tail = &payload[4 + 4 * count..];
        (0..count)
            .map(|i| WireBound::decode(&tail[i * WireBound::SIZE..]).unwrap())
            .collect()
    }

    #[test]
    fn sub_ok_carries_per_query_bounds() {
        let mut session = Session::with_limits(
            XsqEngine::full(),
            SessionLimits {
                max_bound: None,
                dtd: Some(dblp_dtd()),
            },
        );
        let replies = drive(
            &mut session,
            &[sub_frame(
                "/a/b/text()\n/dblp/inproceedings[author]/title/text()\n\
                 /dblp/inproceedings[booktitle]/author/text()",
            )],
        );
        assert_eq!(replies[0].0, op::SUB_OK);
        assert_eq!(
            sub_ok_bounds(&replies[0].1),
            [WireBound::Zero, WireBound::Items(1), WireBound::Unbounded]
        );
        // Without a DTD the buffering query stays unbounded.
        let mut bare = Session::new(XsqEngine::full());
        let replies = drive(
            &mut bare,
            &[sub_frame("/dblp/inproceedings[author]/title/text()")],
        );
        assert_eq!(sub_ok_bounds(&replies[0].1), [WireBound::Unbounded]);
    }

    #[test]
    fn over_budget_sub_is_rejected_recoverably() {
        let mut session = Session::with_limits(
            XsqEngine::full(),
            SessionLimits {
                max_bound: Some(0),
                dtd: Some(dblp_dtd()),
            },
        );
        // Items(1) > budget 0 → rejected with the analyzer's derivation.
        let replies = drive(
            &mut session,
            &[sub_frame("/dblp/inproceedings[author]/title/text()")],
        );
        assert_eq!(replies[0].0, op::ERR);
        assert_eq!(err_code(&replies[0].1), Some(errcode::OVER_BUDGET));
        let text = std::str::from_utf8(&replies[0].1).unwrap();
        assert!(text.contains("memory-bound"), "{text}");
        assert!(text.contains("outermost-undecided-step"), "{text}");
        // Nobody kept the rejected batch's plan.
        let replies = drive(&mut session, &[stat_frame()]);
        assert_eq!(plan_cache_entries(&replies), Some(0));
        // The session survives and still admits bufferless queries…
        let replies = drive(
            &mut session,
            &[
                sub_frame("/dblp/article/title/text()"),
                feed_frame(b"<dblp><article><title>T</title></article></dblp>"),
                END,
            ],
        );
        assert_eq!(replies[0].0, op::SUB_OK);
        assert_eq!(results_of(&replies), [(0, "T".to_string())]);
        // …and the rejected batch promised no ids: the admitted query
        // got id 0.
    }

    #[test]
    fn budget_admits_items_within_it() {
        let mut session = Session::with_limits(
            XsqEngine::full(),
            SessionLimits {
                max_bound: Some(1),
                dtd: Some(dblp_dtd()),
            },
        );
        let replies = drive(
            &mut session,
            &[sub_frame("/dblp/inproceedings[author]/title/text()")],
        );
        assert_eq!(replies[0].0, op::SUB_OK);
        assert_eq!(sub_ok_bounds(&replies[0].1), [WireBound::Items(1)]);
    }

    #[test]
    fn a_rejected_batch_rejects_wholesale() {
        // One admissible + one over-budget query in a single SUB: the
        // whole batch is refused and no id is allocated.
        let mut session = Session::with_limits(
            XsqEngine::full(),
            SessionLimits {
                max_bound: Some(8),
                dtd: Some(dblp_dtd()),
            },
        );
        let replies = drive(
            &mut session,
            &[sub_frame(
                "/a/b/text()\n/dblp/inproceedings[booktitle]/author/text()",
            )],
        );
        assert_eq!(replies[0].0, op::ERR);
        assert_eq!(err_code(&replies[0].1), Some(errcode::OVER_BUDGET));
        let replies = drive(&mut session, &[sub_frame("/a/b/text()")]);
        assert_eq!(replies[0].0, op::SUB_OK);
        assert_eq!(
            u32::from_le_bytes(replies[0].1[4..8].try_into().unwrap()),
            0,
            "rejected batch must not consume ids"
        );
    }

    fn stat_frame() -> Frame {
        Frame {
            op: op::STAT,
            payload: Vec::new(),
        }
    }

    fn plan_cache_entries(replies: &[(u8, Vec<u8>)]) -> Option<u64> {
        let stat = replies.iter().rev().find(|(o, _)| *o == op::STAT_OK)?;
        crate::stat_field_u64(std::str::from_utf8(&stat.1).ok()?, "plan_cache_entries")
    }

    #[test]
    fn a_bare_session_releases_its_private_plan_entries() {
        let mut session = Session::new(XsqEngine::full());
        let replies = drive(
            &mut session,
            &[sub_frame("/a/b/text()\n//b/count()"), stat_frame()],
        );
        assert_eq!(plan_cache_entries(&replies), Some(1));
        let unsub = |id: u32| Frame {
            op: op::UNSUB,
            payload: id.to_le_bytes().to_vec(),
        };
        let replies = drive(&mut session, &[unsub(0), stat_frame()]);
        assert_eq!(plan_cache_entries(&replies), Some(1), "one member is live");
        let replies = drive(&mut session, &[unsub(1), stat_frame()]);
        assert_eq!(plan_cache_entries(&replies), Some(0));
    }

    #[test]
    fn dropping_a_session_releases_live_and_promised_batches() {
        let cache = PlanCache::new(None);
        let mut session = Session::new(XsqEngine::full());
        session.set_plan_cache(Arc::clone(&cache));
        let replies = drive(
            &mut session,
            &[
                sub_frame("/a/b/text()"),
                feed_frame(b"<a>"),
                // Promised mid-document, never applied.
                sub_frame("//b/text()"),
            ],
        );
        assert_eq!(replies.len(), 2);
        assert_eq!(cache.stats().entries, 2);
        drop(session);
        assert_eq!(cache.stats().entries, 0);
    }

    /// The ERR payloads of three refused SUBs, byte for byte: one that
    /// does not parse, one the builder refuses (`position()`), and one
    /// over the budget of `xsq serve --max-bound 0 --dtd data/dblp.dtd`.
    #[test]
    fn refused_subs_carry_pinned_err_payloads() {
        let dtd = Dtd::parse(include_str!("../../../data/dblp.dtd")).unwrap();
        let mut session = Session::with_limits(
            XsqEngine::full(),
            SessionLimits {
                max_bound: Some(0),
                dtd: Some(Arc::new(dtd)),
            },
        );
        let replies = drive(
            &mut session,
            &[
                sub_frame("/a/b[/text()"),
                sub_frame("/a/b[position()=2]/text()"),
                sub_frame("/dblp/inproceedings[author]/title/text()"),
            ],
        );
        let payloads: Vec<&str> = replies
            .iter()
            .map(|(o, p)| {
                assert_eq!(*o, op::ERR);
                std::str::from_utf8(p).unwrap()
            })
            .collect();
        assert_eq!(
            payloads,
            [
                r#"{"code":"bad-query","message":"query 1 (/a/b[/text()): query parse error: XPath parse error at position 5: expected a predicate","diagnostics":[{"severity":"error","code":"compile-error","message":"query parse error: XPath parse error at position 5: expected a predicate"}]}"#,
                r#"{"code":"bad-query","message":"query 1 (/a/b[position()=2]/text()): hpdt does not support `position()` (step `/b[position()=2]`): supported in transform match patterns (`xsq transform`), not by the HPDT selection engine","diagnostics":[{"severity":"error","code":"compile-error","message":"hpdt does not support `position()` (step `/b[position()=2]`): supported in transform match patterns (`xsq transform`), not by the HPDT selection engine"}]}"#,
                r#"{"code":"over-budget","message":"query 1 (/dblp/inproceedings[author]/title/text()): static memory bound ≤ 1 items exceeds the server budget of 0 buffered item(s)","diagnostics":[{"severity":"error","code":"memory-bound","message":"static memory bound: ≤ 1 items"},{"severity":"info","code":"outermost-undecided-step","message":"step 2 (/inproceedings[author]) is the outermost step whose predicate can stay undecided past its begin event; candidate tags: {inproceedings}"},{"severity":"info","code":"level-count","message":"step 3 (/title): ≤ 1 matches per instance of step 2 (sum of child multiplicities, max over context tags)"},{"severity":"info","code":"output-multiplier","message":"text output: ≤ 1 coalesced text runs per matching element under the DTD's content models"},{"severity":"info","code":"single-instance","message":"candidate tags of step 2 cannot nest within themselves, so at most one undecided instance is open: ≤ 1 items total"}]}"#,
            ]
        );
    }

    #[test]
    fn unknown_opcode_closes_the_session() {
        let mut session = Session::new(XsqEngine::full());
        let mut out: Vec<(u8, Vec<u8>)> = Vec::new();
        let mut sink = |op: u8, payload: &[u8]| out.push((op, payload.to_vec()));
        let action = session.handle_frame(
            &Frame {
                op: 0x7E,
                payload: Vec::new(),
            },
            &mut sink,
        );
        assert_eq!(action, Action::Close);
        assert_eq!(err_code(&out[0].1), Some(errcode::UNKNOWN_OP));
    }
}
