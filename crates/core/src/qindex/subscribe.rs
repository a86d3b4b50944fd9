//! The query index proper: dynamic subscriptions over grouped runners.
//!
//! [`QueryIndex`] is the streaming facade over any number of standing
//! XPath queries. It owns the compiled groups ([`super::prefix`]), their
//! runtime state, and the inverted dispatch index
//! ([`super::dispatch`]); callers interact only in terms of
//! [`QueryId`]s:
//!
//! - [`QueryIndex::subscribe`] / [`QueryIndex::subscribe_group`] compile
//!   queries into a [`QuerySet`] (a batch compiles with prefix sharing)
//!   and [`QueryIndex::subscribe_set`] — the one way in — instantiates
//!   it,
//! - [`QueryIndex::feed_raw`] pushes one SAX event to every *interested*
//!   runner,
//! - results land in the shared [`QuerySink`], tagged with the
//!   originating `QueryId`,
//! - [`QueryIndex::unsubscribe`] mutes a query immediately, without
//!   recompiling anything.
//!
//! A subscription made mid-document stays silent until the next
//! document: its runner starts at the HPDT start state, whose only arc
//! consumes the document-start event. [`QueryIndex::finish`] emits
//! pending aggregates, then resets every runner so the same index can
//! process the next document in the stream;
//! [`QueryIndex::abort_document`] is the same reset without the
//! emission, for a document that broke off mid-stream.

use std::io::BufRead;
use std::sync::Arc;

use xsq_xml::{RawEvent, StreamParser};

use crate::build::Hpdt;
use crate::engine::XsqEngine;
use crate::error::{CompileError, EngineError};
use crate::multi::QuerySet;
use crate::report::MemoryStats;
use crate::runtime::{RunStats, RunnerCore};
use crate::sink::TaggedSink;

use super::dispatch::DispatchIndex;

/// Stable handle for one subscribed query. Ids are never reused, so a
/// stale handle after `unsubscribe` is harmless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u32);

/// Where shared-mode results go: like [`crate::sink::Sink`], but every callback says
/// which query produced the value.
pub trait QuerySink {
    fn result(&mut self, id: QueryId, value: &str);
    /// Running aggregate update (count/sum/… queries only).
    fn aggregate_update(&mut self, _id: QueryId, _value: f64) {}
}

/// Shared sink that collects `(id, value)` pairs in arrival order.
#[derive(Debug, Default)]
pub struct VecQuerySink {
    pub results: Vec<(QueryId, String)>,
    pub updates: Vec<(QueryId, f64)>,
}

impl VecQuerySink {
    pub fn new() -> Self {
        Self::default()
    }

    /// The values one query produced, in document order.
    pub fn of(&self, id: QueryId) -> Vec<&str> {
        self.results
            .iter()
            .filter(|(i, _)| *i == id)
            .map(|(_, v)| v.as_str())
            .collect()
    }
}

impl QuerySink for VecQuerySink {
    fn result(&mut self, id: QueryId, value: &str) {
        self.results.push((id, value.to_string()));
    }

    fn aggregate_update(&mut self, id: QueryId, value: f64) {
        self.updates.push((id, value));
    }
}

/// One subscription.
struct Sub {
    text: String,
    group: u32,
    /// This query's tag inside its group's (possibly merged) HPDT.
    tag: u32,
    active: bool,
}

/// One compiled group and its runtime state.
struct Group {
    hpdt: Arc<Hpdt>,
    core: RunnerCore,
    /// `members[tag]` = the QueryId whose results carry that tag.
    members: Vec<QueryId>,
    /// Active member count; at 0 the group leaves the dispatch index.
    live: usize,
}

/// Routes a group's tagged results to the shared [`QuerySink`] with the
/// owning subscription's `QueryId` attached; muted subscriptions drop.
struct RouteSink<'a> {
    members: &'a [QueryId],
    subs: &'a [Sub],
    shared: &'a mut dyn QuerySink,
}

impl TaggedSink for RouteSink<'_> {
    fn result(&mut self, tag: u32, value: &str) {
        let id = self.members[tag as usize];
        if self.subs[id.0 as usize].active {
            self.shared.result(id, value);
        }
    }

    fn aggregate_update(&mut self, tag: u32, value: f64) {
        let id = self.members[tag as usize];
        if self.subs[id.0 as usize].active {
            self.shared.aggregate_update(id, value);
        }
    }
}

/// A set of standing queries behind one streaming interface.
pub struct QueryIndex {
    engine: XsqEngine,
    groups: Vec<Group>,
    subs: Vec<Sub>,
    dispatch: DispatchIndex,
    scratch_candidates: Vec<u32>,
    events: u64,
    /// `events` as of the start of the document in flight.
    events_before: u64,
    touches: u64,
}

impl QueryIndex {
    /// An empty index for the given engine variant (XSQ-F or XSQ-NC).
    pub fn new(engine: XsqEngine) -> Self {
        QueryIndex {
            engine,
            groups: Vec::new(),
            subs: Vec::new(),
            dispatch: DispatchIndex::new(),
            scratch_candidates: Vec::new(),
            events: 0,
            events_before: 0,
            touches: 0,
        }
    }

    /// Instantiate a compiled [`QuerySet`]: one subscription per query,
    /// one runner group per planned group — the only code that turns a
    /// compiled batch into runtime state, whoever compiled it (a
    /// subscribe call here, a CLI driver, a shard worker, the server's
    /// plan cache). Pure instantiation: no parsing, no HPDT build, no
    /// verification — the set's groups were verified and pruned when it
    /// compiled. Returns one id per query, in input order.
    pub fn subscribe_set(&mut self, set: &QuerySet) -> Vec<QueryId> {
        assert_eq!(
            set.engine().mode(),
            self.engine.mode(),
            "query set compiled for a different engine mode"
        );
        let base = self.subs.len() as u32;
        self.subs.extend(set.texts().map(|t| Sub {
            text: t.to_string(),
            group: 0,
            tag: 0,
            active: true,
        }));
        for g in set.groups() {
            let members = g.members.iter().map(|&i| QueryId(base + i as u32));
            self.add_group(Arc::clone(&g.hpdt), members.collect());
        }
        (base..self.subs.len() as u32).map(QueryId).collect()
    }

    /// Register `hpdt` as a new group answering `members` (already
    /// appended to `subs`, in tag order): file its states in the dispatch
    /// table and mark its start frontier live.
    fn add_group(&mut self, hpdt: Arc<Hpdt>, members: Vec<QueryId>) {
        let gi = self.groups.len() as u32;
        for (tag, &id) in members.iter().enumerate() {
            let sub = &mut self.subs[id.0 as usize];
            sub.group = gi;
            sub.tag = tag as u32;
        }
        let core = RunnerCore::new(&hpdt);
        assert_eq!(self.dispatch.add_group(&hpdt), gi);
        self.dispatch.mark(gi, &core);
        self.groups.push(Group {
            live: members.len(),
            hpdt,
            core,
            members,
        });
    }

    /// Subscribe one query: a batch of one (see
    /// [`QueryIndex::subscribe_group`]).
    pub fn subscribe(&mut self, query: &str) -> Result<QueryId, CompileError> {
        Ok(self.subscribe_group(&[query])?[0])
    }

    /// Subscribe a batch at once: queries sharing a leading location-step
    /// prefix compile into one merged HPDT, sharing states and buffers up
    /// to the divergence point. Returns one id per query, in input order.
    /// On error nothing is registered.
    pub fn subscribe_group(&mut self, queries: &[&str]) -> Result<Vec<QueryId>, CompileError> {
        let set = QuerySet::compile(self.engine, queries).map_err(|(_, e)| e)?;
        Ok(self.subscribe_set(&set))
    }

    /// Mute a query immediately. Its group keeps running while other
    /// members need it — and a group is every subscription of its batch
    /// whose first step has the same axis and name, whatever their
    /// predicates; once the last member unsubscribes the group is
    /// dropped from the dispatch index and costs nothing per event.
    /// Returns false if the id was already unsubscribed.
    pub fn unsubscribe(&mut self, id: QueryId) -> bool {
        let sub = &mut self.subs[id.0 as usize];
        if !sub.active {
            return false;
        }
        sub.active = false;
        let gi = sub.group;
        let group = &mut self.groups[gi as usize];
        group.live -= 1;
        if group.live == 0 {
            self.dispatch.remove_group(gi, &group.hpdt);
        }
        true
    }

    /// Push one borrowed event. Only runners whose dispatch buckets match
    /// the event are stepped; everyone else pays nothing — a skipped
    /// event costs one dense symbol-indexed lookup and zero allocations.
    pub fn feed_raw(&mut self, event: &RawEvent<'_>, shared: &mut dyn QuerySink) {
        self.events += 1;
        let Self {
            groups,
            subs,
            dispatch,
            scratch_candidates,
            touches,
            ..
        } = self;
        dispatch.candidates(event, scratch_candidates);
        *touches += scratch_candidates.len() as u64;
        for &gi in scratch_candidates.iter() {
            let Group {
                hpdt,
                core,
                members,
                ..
            } = &mut groups[gi as usize];
            let mut route = RouteSink {
                members,
                subs,
                shared: &mut *shared,
            };
            // Only a fired arc moves the configuration set, and with it
            // which of the group's states are live.
            if core.feed_raw(hpdt, event, &mut route) {
                dispatch.mark(gi, core);
            }
            #[cfg(debug_assertions)]
            dispatch.assert_marked(gi, core);
        }
    }

    /// End of document: emit pending aggregates, then reset every runner
    /// (and its live states) so the index is ready for the next
    /// document. Stats are this document's, summed over all live groups.
    pub fn finish(&mut self, shared: &mut dyn QuerySink) -> RunStats {
        let mut total = RunStats {
            events: self.events - self.events_before,
            results: 0,
            firings: 0,
            steps: 0,
            probed: 0,
            memory: MemoryStats::default(),
        };
        let subs = &self.subs[..];
        for group in self.groups.iter_mut().filter(|g| g.live > 0) {
            let mut route = RouteSink {
                members: &group.members,
                subs,
                shared: &mut *shared,
            };
            let stats = group.core.finish(&mut route);
            total.results += stats.results;
            total.firings += stats.firings;
            total.steps += stats.steps;
            total.probed += stats.probed;
            total.memory.peak_bytes += stats.memory.peak_bytes;
            total.memory.peak_items += stats.memory.peak_items;
            total.memory.peak_buffered_items += stats.memory.peak_buffered_items;
            total.memory.peak_configs += stats.memory.peak_configs;
        }
        self.abort_document();
        total
    }

    /// Drop the document in flight, emitting nothing: every live runner
    /// — configurations, buffered items, aggregates — and its live states
    /// go back to the document start, so the next document evaluates
    /// exactly as on a fresh index. The one reset: a driver whose parser
    /// failed mid-document calls this, and [`QueryIndex::finish`] ends
    /// with it.
    pub fn abort_document(&mut self) {
        self.events_before = self.events;
        for (gi, group) in self.groups.iter_mut().enumerate() {
            if group.live > 0 {
                group.core.reset(&group.hpdt);
                self.dispatch.mark(gi as u32, &group.core);
            }
        }
    }

    /// Run one complete serialized document through the index.
    pub fn run_document(
        &mut self,
        document: &[u8],
        shared: &mut dyn QuerySink,
    ) -> Result<RunStats, EngineError> {
        self.run_reader(document, shared)
    }

    /// Run one complete document from any buffered reader. On a parse
    /// error the document is aborted and the index stays usable.
    pub fn run_reader<R: BufRead>(
        &mut self,
        reader: R,
        shared: &mut dyn QuerySink,
    ) -> Result<RunStats, EngineError> {
        self.run_parser(&mut StreamParser::new(reader), shared)
    }

    /// [`QueryIndex::run_reader`] over a caller-owned parser already
    /// positioned at a document start (the shard workers reuse one
    /// parser, and its scratch buffers, across documents).
    pub(crate) fn run_parser<R: BufRead>(
        &mut self,
        parser: &mut StreamParser<R>,
        shared: &mut dyn QuerySink,
    ) -> Result<RunStats, EngineError> {
        loop {
            match parser.next_raw() {
                Ok(Some(ev)) => self.feed_raw(&ev, shared),
                Ok(None) => return Ok(self.finish(shared)),
                Err(e) => {
                    self.abort_document();
                    return Err(e.into());
                }
            }
        }
    }

    /// Total subscriptions ever made (including unsubscribed ones).
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Active (unmuted) subscriptions.
    pub fn active_len(&self) -> usize {
        self.subs.iter().filter(|s| s.active).count()
    }

    /// Number of compiled runner groups (≤ number of subscriptions when
    /// prefix sharing merged some).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The query text behind an id.
    pub fn text(&self, id: QueryId) -> &str {
        &self.subs[id.0 as usize].text
    }

    pub fn is_active(&self, id: QueryId) -> bool {
        self.subs[id.0 as usize].active
    }

    /// Events fed so far (cumulative across documents).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Runner-group feeds performed so far. Stepping N separate
    /// runners would accumulate `events × N`; the dispatch index keeps
    /// this close to the number of events that actually matter.
    pub fn touches(&self) -> u64 {
        self.touches
    }

    /// `(named buckets, entries, longest bucket)` of the dispatch table:
    /// an event walks the entries of its bucket, live or not, so a
    /// subscription set drifting toward many groups under one tag shows
    /// here before it shows in `touches`.
    pub fn dispatch_shape(&self) -> (usize, usize, usize) {
        self.dispatch.shape()
    }
}

impl std::fmt::Debug for QueryIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryIndex")
            .field("subscriptions", &self.subs.len())
            .field("groups", &self.groups.len())
            .field("events", &self.events)
            .field("touches", &self.touches)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::evaluate;
    use xsq_xml::SaxEvent;

    const DOC: &[u8] = b"<pub><book id=\"1\"><name>First</name><author>A</author>\
                         <price>10</price></book><book id=\"2\"><name>Second</name>\
                         <price>14</price></book><year>2002</year></pub>";

    #[test]
    fn shared_sink_results_match_individual_engines() {
        let queries = [
            "/pub/book/name/text()",
            "/pub/book/@id",
            "/pub/book[author]/name/text()",
            "/pub/year/text()",
        ];
        let mut index = QueryIndex::new(XsqEngine::full());
        let ids = index.subscribe_group(&queries).unwrap();
        let mut sink = VecQuerySink::new();
        index.run_document(DOC, &mut sink).unwrap();
        for (q, &id) in queries.iter().zip(&ids) {
            let expected = evaluate(q, DOC).unwrap();
            assert_eq!(index.text(id), *q);
            assert_eq!(sink.of(id), expected, "mismatch for {q}");
        }
    }

    #[test]
    fn prefix_sharing_reduces_group_count() {
        let mut index = QueryIndex::new(XsqEngine::full());
        index
            .subscribe_group(&[
                "/pub/book/name/text()",
                "/pub/book/price/text()",
                "/pub/year/text()",
            ])
            .unwrap();
        assert_eq!(index.len(), 3);
        assert_eq!(index.group_count(), 1);
    }

    #[test]
    fn unsubscribe_mutes_immediately_and_forever() {
        let mut index = QueryIndex::new(XsqEngine::full());
        let names = index.subscribe("/pub/book/name/text()").unwrap();
        let years = index.subscribe("/pub/year/text()").unwrap();
        assert!(index.unsubscribe(names));
        assert!(!index.unsubscribe(names));
        let mut sink = VecQuerySink::new();
        index.run_document(DOC, &mut sink).unwrap();
        assert_eq!(sink.of(names), Vec::<&str>::new());
        assert_eq!(sink.of(years), ["2002"]);
        assert_eq!(index.active_len(), 1);
    }

    #[test]
    fn the_index_survives_multiple_documents() {
        let mut index = QueryIndex::new(XsqEngine::full());
        let id = index.subscribe("/a/b/text()").unwrap();
        let mut sink = VecQuerySink::new();
        index.run_document(b"<a><b>one</b></a>", &mut sink).unwrap();
        index.run_document(b"<a><b>two</b></a>", &mut sink).unwrap();
        assert_eq!(sink.of(id), ["one", "two"]);
    }

    #[test]
    fn aggregation_queries_report_through_the_index() {
        let mut index = QueryIndex::new(XsqEngine::full());
        let total = index.subscribe("/pub/book/price/sum()").unwrap();
        let mut sink = VecQuerySink::new();
        index.run_document(DOC, &mut sink).unwrap();
        assert_eq!(sink.of(total), ["24"]);
        assert!(!sink.updates.is_empty());
    }

    #[test]
    fn dispatch_skips_uninterested_runners() {
        let mut index = QueryIndex::new(XsqEngine::full());
        // 8 standing queries on tags that never appear in the document.
        for i in 0..8 {
            index.subscribe(&format!("/pub/ghost{i}/text()")).unwrap();
        }
        let watched = index.subscribe("/pub/year/text()").unwrap();
        let mut sink = VecQuerySink::new();
        index.run_document(DOC, &mut sink).unwrap();
        assert_eq!(sink.of(watched), ["2002"]);
        // A runner per query would touch 9 per event; dispatch must do far
        // better. Brackets and `pub` begin/end touch everyone, but inner
        // book/name/... events only the matching bucket.
        assert!(
            index.touches() < index.events() * 9 / 2,
            "touches {} not < half of events*N {}",
            index.touches(),
            index.events() * 9
        );
    }

    #[test]
    fn closure_queries_are_reached_through_their_own_tags() {
        let mut index = QueryIndex::new(XsqEngine::full());
        let deep = index.subscribe("//name/text()").unwrap();
        let mut sink = VecQuerySink::new();
        index.run_document(DOC, &mut sink).unwrap();
        assert_eq!(sink.of(deep), ["First", "Second"]);
    }

    #[test]
    fn nc_mode_rejects_closures_in_groups() {
        let mut index = QueryIndex::new(XsqEngine::no_closure());
        let err = index
            .subscribe_group(&["/a/b/text()", "//c/text()"])
            .unwrap_err();
        assert!(matches!(err, CompileError::Unsupported { .. }));
        // The failed batch registered nothing.
        assert_eq!(index.len(), 0);
    }

    #[test]
    fn mid_stream_subscription_waits_for_the_next_document() {
        let mut index = QueryIndex::new(XsqEngine::full());
        let first = index.subscribe("/a/b/text()").unwrap();
        let mut sink = VecQuerySink::new();
        let begin = |name: &str, depth| SaxEvent::Begin {
            name: name.into(),
            attributes: vec![],
            depth,
        };
        let end = |name: &str, depth| SaxEvent::End {
            name: name.into(),
            depth,
        };
        index.feed_raw(&SaxEvent::StartDocument.as_raw(), &mut sink);
        index.feed_raw(&begin("a", 1).as_raw(), &mut sink);
        // Late subscriber: misses this document entirely.
        let late = index.subscribe("/a/b/text()").unwrap();
        let rest = [
            begin("b", 2),
            SaxEvent::Text {
                element: "b".into(),
                text: "x".into(),
                depth: 2,
            },
            end("b", 2),
            end("a", 1),
            SaxEvent::EndDocument,
        ];
        for ev in &rest {
            index.feed_raw(&ev.as_raw(), &mut sink);
        }
        index.finish(&mut sink);
        assert_eq!(sink.of(first), ["x"]);
        assert_eq!(sink.of(late), Vec::<&str>::new());

        // The next document reaches both.
        index.run_document(b"<a><b>y</b></a>", &mut sink).unwrap();
        assert_eq!(sink.of(first), ["x", "y"]);
        assert_eq!(sink.of(late), ["y"]);
    }
}
