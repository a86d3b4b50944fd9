//! Broadcast mode: one ingest stream, one shared `QueryIndex`, many
//! subscribers.
//!
//! `xsq serve --broadcast` inverts the per-session model. A single
//! designated *feeder* connection claims the ingest role (FEEDER) and
//! pushes documents; every other connection subscribes standing
//! queries and receives the matching results of the *shared* stream.
//! The paper's single-pass property is what makes this cheap: the
//! document is parsed once and dispatched once through one index, no
//! matter how many subscribers are attached — fan-out touches only the
//! already-determined results.
//!
//! Identity contract: a subscriber that joins before feeding starts
//! receives byte-for-byte the frames a solo session would have
//! received for the same SUB batch. Two mechanisms make that hold:
//!
//! * **Batch sharing, not query sharing.** Subscribers with the same
//!   SUB payload (same query texts, same order) share one plan-cache
//!   entry and one set of index subscriptions; their result ids are
//!   the *local* positions `0..n-1` within the batch, exactly the ids
//!   a private session would have allocated. Distinct batches get
//!   distinct index subscriptions — merging them could interleave
//!   result order differently than a solo run, so it is never done
//!   across batch boundaries.
//! * **Join-at-boundary activation.** A subscriber that joins
//!   mid-document is armed for the *next* document (the index's
//!   runners are already past the document start), and its DOC_OK doc
//!   counter starts at zero from that document — the same numbering a
//!   fresh solo session would produce.
//!
//! Fan-out is staged per *result*, not per (result × subscriber): the
//! sink writes each determined result's payload once into a byte arena
//! with one fixed-size record naming the entry it belongs to, and the
//! event loop expands that record over the entry's subscribers when it
//! drains ([`Hub::deliveries`]), encoding each frame straight into the
//! receiving connection's write buffer. Nothing is allocated, wrapped
//! or reference-counted per delivered frame; the only per-subscriber
//! work is the copy into that subscriber's buffer.
//!
//! Per-connection output queues are bounded by the serve options; the
//! *block* policy pauses the feeder until every queue drains (total
//! broadcast, lock-step with the slowest subscriber) while the *drop*
//! policy discards RESULT/UPDATE frames for saturated subscribers and
//! counts them (`dropped_broadcast` in STAT). Queue accounting lives
//! in the event loop, which owns the sockets; this module only stages
//! replies.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use xsq_core::{CachedPlan, PlanCache, QueryId, QuerySink, XsqEngine};

use crate::ingest::Ingest;
use crate::proto::{err_payload, errcode, op};
use crate::session::{admit_sub, SessionLimits, TransportStats};

/// One subscriber of one entry: the connection token, the logical
/// session id on that connection (wire v2; `None` for v1), and the
/// global document index from which this subscriber is live.
struct SubRef {
    token: u64,
    sid: Option<u32>,
    active_from: u32,
}

/// One shared SUB batch: its cached plan (held until the last
/// subscriber detaches), the global ids its index subscriptions got,
/// and everyone attached to it.
struct Entry {
    plan: Arc<CachedPlan>,
    ids: Vec<QueryId>,
    subs: Vec<SubRef>,
}

/// Who a staged reply is for.
#[derive(Clone, Copy)]
enum Recipient {
    /// One logical session.
    Session { token: u64, sid: Option<u32> },
    /// Every subscriber of entry `slot` that is live in global document
    /// `doc` (a mid-document joiner is live from the next one).
    Entry { slot: u32, doc: u32 },
}

/// One staged reply: a fixed-size record; the payload is
/// `arena[start..end]`.
struct Staged {
    to: Recipient,
    op: u8,
    start: usize,
    end: usize,
}

/// Staged replies in staging order, and their payload bytes. Both keep
/// their capacity across drains.
#[derive(Default)]
struct Staging {
    staged: Vec<Staged>,
    arena: Vec<u8>,
}

impl Staging {
    /// Stage one reply whose payload is `parts` back to back.
    fn push(&mut self, to: Recipient, op: u8, parts: &[&[u8]]) {
        let start = self.arena.len();
        for part in parts {
            self.arena.extend_from_slice(part);
        }
        self.staged.push(Staged {
            to,
            op,
            start,
            end: self.arena.len(),
        });
    }
}

/// One reply frame for one logical session, as [`Hub::deliveries`]
/// yields it: encode `op | [sid] | payload` for connection `token`.
pub struct Delivery<'a> {
    pub token: u64,
    pub sid: Option<u32>,
    pub op: u8,
    pub payload: &'a [u8],
}

/// The broadcast hub: protocol roles, the shared ingest core, and
/// result fan-out staging. After handling a connection's frames the event
/// loop drains [`Hub::deliveries`] into the per-connection write
/// buffers (applying the overflow policy), calls
/// [`Hub::clear_staged`], and marks every token in [`Hub::closes`] for
/// flush-and-close.
pub struct Hub {
    engine: XsqEngine,
    limits: SessionLimits,
    cache: Arc<PlanCache>,
    ingest: Ingest,
    entries: Vec<Option<Entry>>,
    by_key: HashMap<String, usize>,
    /// Global query id → entry slot / local position.
    id_entry: Vec<u32>,
    id_local: Vec<u32>,
    /// (token, sid) → entry slot, one batch per logical session.
    sub_entry: HashMap<(u64, Option<u32>), usize>,
    feeder: Option<u64>,
    staging: Staging,
    /// Connections to flush-and-close, drained by the event loop.
    pub closes: Vec<u64>,
}

impl Hub {
    pub fn new(engine: XsqEngine, limits: SessionLimits, cache: Arc<PlanCache>) -> Hub {
        Hub {
            engine,
            limits,
            cache,
            ingest: Ingest::new(engine),
            entries: Vec::new(),
            by_key: HashMap::new(),
            id_entry: Vec::new(),
            id_local: Vec::new(),
            sub_entry: HashMap::new(),
            feeder: None,
            staging: Staging::default(),
            closes: Vec::new(),
        }
    }

    pub fn doc_active(&self) -> bool {
        self.ingest.doc_active()
    }

    pub fn feeder_token(&self) -> Option<u64> {
        self.feeder
    }

    /// Number of attached subscriber sessions (the feeder polls this
    /// through STAT before it starts feeding).
    pub fn subscriber_count(&self) -> usize {
        self.sub_entry.len()
    }

    /// Every staged reply in staging order, entry-wide results expanded
    /// over the subscribers live in their document. Subscriber lists
    /// change only on subscriber-connection frames and teardown, and
    /// the loop drains after each connection's frames, so a result is
    /// expanded over the list it was determined under.
    pub fn deliveries(&self) -> impl Iterator<Item = Delivery<'_>> {
        self.staging.staged.iter().flat_map(move |s| {
            let (one, subs, doc) = match s.to {
                Recipient::Session { token, sid } => (Some((token, sid)), &[][..], 0),
                Recipient::Entry { slot, doc } => {
                    let entry = self.entries[slot as usize].as_ref();
                    (None, entry.map_or(&[][..], |e| &e.subs[..]), doc)
                }
            };
            let live = subs.iter().filter(move |sub| sub.active_from <= doc);
            one.into_iter()
                .chain(live.map(|sub| (sub.token, sub.sid)))
                .map(move |(token, sid)| Delivery {
                    token,
                    sid,
                    op: s.op,
                    payload: &self.staging.arena[s.start..s.end],
                })
        })
    }

    /// Forget the staged replies once they are delivered.
    pub fn clear_staged(&mut self) {
        self.staging.staged.clear();
        self.staging.arena.clear();
    }

    fn stage(&mut self, token: u64, sid: Option<u32>, opcode: u8, payload: &[u8]) {
        let to = Recipient::Session { token, sid };
        self.staging.push(to, opcode, &[payload]);
    }

    fn stage_err(&mut self, token: u64, sid: Option<u32>, code: &str, message: &str) {
        let payload = err_payload(code, message, &[]);
        self.stage(token, sid, op::ERR, &payload);
    }

    /// Handle one frame (`opcode`, `payload` past any session prefix)
    /// from connection `token` / logical session `sid`. `transport`
    /// carries the loop's counters for STAT.
    pub fn dispatch(
        &mut self,
        token: u64,
        sid: Option<u32>,
        opcode: u8,
        payload: &[u8],
        transport: &TransportStats,
        backend: &'static str,
    ) {
        match opcode {
            op::SUB => self.on_sub(token, sid, payload),
            op::FEEDER => self.on_feeder(token, sid),
            op::FEED => self.on_feed(token, sid, payload),
            op::END_DOC => self.on_end_doc(token, sid),
            op::UNSUB => self.stage_err(
                token,
                sid,
                errcode::BROADCAST_ROLE,
                "broadcast subscriptions last for the connection; \
                 disconnect (or BYE) instead of UNSUB",
            ),
            op::STAT => {
                let json = self.stat_json(transport, backend);
                self.stage(token, sid, op::STAT_OK, json.as_bytes());
            }
            op::BYE => {
                self.stage(token, sid, op::OK, &[op::BYE]);
                self.closes.push(token);
            }
            other => {
                self.stage_err(
                    token,
                    sid,
                    errcode::UNKNOWN_OP,
                    &format!("unknown opcode 0x{other:02x}"),
                );
                self.closes.push(token);
            }
        }
    }

    fn on_feeder(&mut self, token: u64, sid: Option<u32>) {
        if self.feeder == Some(token) {
            self.stage(token, sid, op::OK, &[op::FEEDER]);
            return;
        }
        if self.feeder.is_some() {
            self.stage_err(
                token,
                sid,
                errcode::BROADCAST_ROLE,
                "a feeder is already attached",
            );
            return;
        }
        if self.sub_entry.keys().any(|(t, _)| *t == token) {
            self.stage_err(
                token,
                sid,
                errcode::BROADCAST_ROLE,
                "a subscriber connection cannot claim the feeder role",
            );
            return;
        }
        self.feeder = Some(token);
        self.stage(token, sid, op::OK, &[op::FEEDER]);
    }

    fn on_sub(&mut self, token: u64, sid: Option<u32>, payload: &[u8]) {
        if self.feeder == Some(token) {
            self.stage_err(
                token,
                sid,
                errcode::BROADCAST_ROLE,
                "the feeder cannot subscribe",
            );
            return;
        }
        if self.sub_entry.contains_key(&(token, sid)) {
            self.stage_err(
                token,
                sid,
                errcode::BROADCAST_ROLE,
                "this session already subscribed (one SUB batch per broadcast session)",
            );
            return;
        }
        let (engine, limits, cache) = (self.engine, &self.limits, &self.cache);
        let (opcode, reply) = admit_sub(engine, limits, cache, payload, |plan| {
            let slot = match self.by_key.get(plan.key()) {
                Some(&slot) => slot,
                None => {
                    let ids = self.ingest.index.subscribe_set(plan.set());
                    let slot = self.entries.len();
                    for (local, id) in ids.iter().enumerate() {
                        debug_assert_eq!(id.0 as usize, self.id_entry.len());
                        self.id_entry.push(slot as u32);
                        self.id_local.push(local as u32);
                    }
                    self.entries.push(Some(Entry {
                        plan: Arc::clone(plan),
                        ids,
                        subs: Vec::new(),
                    }));
                    self.by_key.insert(plan.key().to_string(), slot);
                    slot
                }
            };
            let entry = self.entries[slot].as_mut().expect("live entry");
            entry.subs.push(SubRef {
                token,
                sid,
                active_from: self.ingest.docs() + u32::from(self.ingest.doc_active()),
            });
            self.sub_entry.insert((token, sid), slot);
            // SUB_OK carries *local* ids 0..n-1 — the ids a private
            // session would have allocated for the same batch.
            (0..plan.set().len() as u32).map(QueryId).collect()
        });
        self.stage(token, sid, opcode, &reply);
    }

    fn on_feed(&mut self, token: u64, sid: Option<u32>, payload: &[u8]) {
        if self.feeder != Some(token) {
            self.stage_err(
                token,
                sid,
                errcode::BROADCAST_ROLE,
                "only the feeder may FEED on a broadcast server",
            );
            return;
        }
        let (mut sink, ingest) = self.fan_sink();
        if let Err(message) = ingest.feed(payload, &mut sink) {
            self.fail_stream(token, sid, &message);
        }
    }

    fn on_end_doc(&mut self, token: u64, sid: Option<u32>) {
        if self.feeder != Some(token) {
            self.stage_err(
                token,
                sid,
                errcode::BROADCAST_ROLE,
                "only the feeder may end a document on a broadcast server",
            );
            return;
        }
        if !self.ingest.doc_active() {
            self.stage_err(token, sid, errcode::PROTOCOL, "END-DOC without any FEED");
            return;
        }
        let (mut sink, ingest) = self.fan_sink();
        let docs = match ingest.end_doc(&mut sink) {
            Ok(docs) => docs,
            Err(message) => return self.fail_stream(token, sid, &message),
        };
        // DOC_OK per active subscriber, numbered from each one's own
        // first document (what a private session would report)…
        for sub in self.entries.iter().flatten().flat_map(|e| &e.subs) {
            if sub.active_from <= docs {
                let to = Recipient::Session {
                    token: sub.token,
                    sid: sub.sid,
                };
                let di = docs - sub.active_from;
                self.staging.push(to, op::DOC_OK, &[&di.to_le_bytes()]);
            }
        }
        // …and one global ack to the feeder.
        self.stage(token, sid, op::DOC_OK, &docs.to_le_bytes());
    }

    /// The result sink over this hub's staging, with the ingest core it
    /// is fed from (disjoint borrows of one `Hub`).
    fn fan_sink(&mut self) -> (FanSink<'_>, &mut Ingest) {
        let sink = FanSink {
            id_entry: &self.id_entry,
            id_local: &self.id_local,
            cur_doc: self.ingest.docs(),
            staging: &mut self.staging,
        };
        (sink, &mut self.ingest)
    }

    /// A parse error poisons the shared stream for everyone: there is
    /// no per-subscriber recovery from a corrupt broadcast document (the
    /// ingest core already dropped it). Every attached connection gets
    /// the framed parse error and closes.
    fn fail_stream(&mut self, feeder_token: u64, feeder_sid: Option<u32>, message: &str) {
        self.stage_err(feeder_token, feeder_sid, errcode::PARSE, message);
        self.closes.push(feeder_token);
        let subs: Vec<(u64, Option<u32>)> = self.sub_entry.keys().copied().collect();
        for (t, s) in subs {
            self.stage_err(t, s, errcode::PARSE, message);
            if t != feeder_token {
                self.closes.push(t);
            }
        }
    }

    /// A connection went away: release its subscriptions, tear down
    /// entries that lost their last subscriber (and their cached plans),
    /// or — if it was the feeder mid-document — poison the stream for
    /// every subscriber, exactly like a parse failure.
    pub fn conn_closed(&mut self, token: u64) {
        if self.feeder == Some(token) {
            self.feeder = None;
            if self.ingest.doc_active() {
                let message = format!("feeder disconnected inside document {}", self.ingest.docs());
                let subs: Vec<(u64, Option<u32>)> = self.sub_entry.keys().copied().collect();
                for (t, s) in subs {
                    self.stage_err(t, s, errcode::PROTOCOL, &message);
                    self.closes.push(t);
                }
                self.ingest.abort();
            }
        }
        let gone: Vec<(u64, Option<u32>)> = self
            .sub_entry
            .keys()
            .filter(|(t, _)| *t == token)
            .copied()
            .collect();
        for key in gone {
            self.detach(key);
        }
    }

    /// Close a logical v2 session without closing the connection.
    pub fn session_closed(&mut self, token: u64, sid: u32) -> bool {
        self.detach((token, Some(sid)))
    }

    /// Detach one logical subscriber from its entry; `false` if it was
    /// not subscribed.
    fn detach(&mut self, key: (u64, Option<u32>)) -> bool {
        let Some(slot) = self.sub_entry.remove(&key) else {
            return false;
        };
        if let Some(entry) = self.entries[slot].as_mut() {
            entry.subs.retain(|s| (s.token, s.sid) != key);
            if entry.subs.is_empty() {
                let entry = self.entries[slot].take().expect("live entry");
                for id in entry.ids {
                    self.ingest.index.unsubscribe(id);
                }
                self.by_key.remove(entry.plan.key());
            }
        }
        true
    }

    /// The broadcast STAT reply: the shared stream's ingest counters,
    /// the hub's roles, then the loop-level transport numbers.
    fn stat_json(&self, transport: &TransportStats, backend: &'static str) -> String {
        let mut json = String::new();
        self.ingest.write_stat(&mut json);
        let _ = write!(
            json,
            "\"backend\":\"{backend}\",\"subscribers\":{},\"feeder\":{},\"entries\":{},",
            self.subscriber_count(),
            self.feeder.is_some(),
            self.by_key.len(),
        );
        // Logical sessions here are the attached subscribers.
        let transport = TransportStats {
            sessions: self.subscriber_count() as u64,
            ..*transport
        };
        transport.finish_stat_json(self.cache.stats(), &mut json);
        json
    }
}

/// Stages each determined result once — payload into the arena, one
/// record naming its entry — whatever the audience size. The payload
/// carries the batch-local query id, the id a private session would
/// have reported.
struct FanSink<'a> {
    id_entry: &'a [u32],
    id_local: &'a [u32],
    cur_doc: u32,
    staging: &'a mut Staging,
}

impl FanSink<'_> {
    fn fan(&mut self, id: QueryId, opcode: u8, value: &[u8]) {
        let Some(&slot) = self.id_entry.get(id.0 as usize) else {
            return;
        };
        let to = Recipient::Entry {
            slot,
            doc: self.cur_doc,
        };
        let local = self.id_local[id.0 as usize];
        self.staging
            .push(to, opcode, &[&local.to_le_bytes(), value]);
    }
}

impl QuerySink for FanSink<'_> {
    fn result(&mut self, id: QueryId, value: &str) {
        self.fan(id, op::RESULT, value.as_bytes());
    }

    fn aggregate_update(&mut self, id: QueryId, value: f64) {
        self.fan(id, op::UPDATE, &value.to_le_bytes());
    }
}
