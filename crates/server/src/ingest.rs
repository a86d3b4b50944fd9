//! The ingest core under both serving shapes: a [`QueryIndex`] fed by a
//! push parser, with the document state and counters STAT reports.
//!
//! A private [`crate::session::Session`] and the broadcast
//! [`crate::eventloop::broadcast::Hub`] differ in who may feed and where
//! results go; what happens to a FEED payload in between — push, drain
//! every complete event into the index, time it, count it, and on a
//! parse error abort the document — is the same work and lives here
//! once. Callers pass the sink results leave through.

use std::fmt::Write as _;
use std::time::Instant;

use xsq_core::{QueryId, QueryIndex, QuerySink, XsqEngine, XsqMode};
use xsq_xml::{ParsePoll, PushParser, StreamParser};

use crate::proto::json_escape;
use crate::session::SessionStats;

/// Counts what passes through to the caller's sink.
struct Counting<'a, S> {
    inner: &'a mut S,
    stats: &'a mut SessionStats,
}

impl<S: QuerySink> QuerySink for Counting<'_, S> {
    fn result(&mut self, id: QueryId, value: &str) {
        self.stats.results += 1;
        self.inner.result(id, value);
    }

    fn aggregate_update(&mut self, id: QueryId, value: f64) {
        self.stats.updates += 1;
        self.inner.aggregate_update(id, value);
    }
}

pub(crate) struct Ingest {
    /// Subscriptions are the owner's business; events reach the index
    /// only through [`Ingest::feed`] and [`Ingest::end_doc`].
    pub(crate) index: QueryIndex,
    parser: PushParser,
    engine_name: &'static str,
    /// A FEED arrived since the last document boundary.
    doc_active: bool,
    pub(crate) stats: SessionStats,
}

impl Ingest {
    pub(crate) fn new(engine: XsqEngine) -> Ingest {
        Ingest {
            index: QueryIndex::new(engine),
            parser: StreamParser::push_mode(),
            engine_name: match engine.mode() {
                XsqMode::Full => "xsq-f",
                XsqMode::NoClosure => "xsq-nc",
            },
            doc_active: false,
            stats: SessionStats::default(),
        }
    }

    /// A document is in flight (FEED seen, END-DOC not yet).
    pub(crate) fn doc_active(&self) -> bool {
        self.doc_active
    }

    /// Documents completed so far — the number of the one in flight.
    pub(crate) fn docs(&self) -> u32 {
        self.stats.docs
    }

    /// FEED: push `payload` exactly as it came off the wire (chunks may
    /// split tokens anywhere) and evaluate every event it completes.
    /// `Err` is a parse failure, worded for the ERR frame; the document
    /// is already aborted.
    pub(crate) fn feed(&mut self, payload: &[u8], sink: &mut impl QuerySink) -> Result<(), String> {
        self.doc_active = true;
        self.stats.bytes_in += payload.len() as u64;
        let t0 = Instant::now();
        self.parser.push(payload);
        let drained = self.pump(sink);
        self.stats.ingest_nanos += t0.elapsed().as_nanos() as u64;
        drained
    }

    /// END-DOC: evaluate the document's tail, emit pending aggregates,
    /// fold the document's peaks into the counters and get ready for
    /// the next one. Returns the finished document's number. `Err` as
    /// for [`Ingest::feed`].
    pub(crate) fn end_doc(&mut self, sink: &mut impl QuerySink) -> Result<u32, String> {
        let t0 = Instant::now();
        self.parser.finish();
        let drained = self.pump(sink);
        if drained.is_ok() {
            let run = self.index.finish(&mut Counting {
                inner: sink,
                stats: &mut self.stats,
            });
            let stats = &mut self.stats;
            stats.peak_buffered_bytes = stats.peak_buffered_bytes.max(run.memory.peak_bytes);
            stats.peak_configs = stats.peak_configs.max(run.memory.peak_configs);
        }
        self.stats.ingest_nanos += t0.elapsed().as_nanos() as u64;
        drained?;
        self.doc_active = false;
        self.parser.reset_push();
        self.stats.docs += 1;
        Ok(self.stats.docs - 1)
    }

    /// Drop the document in flight — a parse error, or a feeder that
    /// vanished mid-document: index and parser go back to a document
    /// start, so the next FEED opens a fresh document.
    pub(crate) fn abort(&mut self) {
        self.index.abort_document();
        self.parser.reset_push();
        self.doc_active = false;
    }

    /// Drain every event the parser can currently produce into the
    /// index. A parse error is fatal for the document: the byte stream
    /// position is unrecoverable.
    fn pump(&mut self, sink: &mut impl QuerySink) -> Result<(), String> {
        let mut counting = Counting {
            inner: sink,
            stats: &mut self.stats,
        };
        loop {
            match self.parser.poll_raw() {
                Ok(ParsePoll::Event(ev)) => self.index.feed_raw(&ev, &mut counting),
                Ok(ParsePoll::NeedMore) | Ok(ParsePoll::End) => return Ok(()),
                Err(e) => {
                    let message = format!("document {}: {e}", self.stats.docs);
                    self.abort();
                    return Err(message);
                }
            }
        }
    }

    /// Open a STAT_OK object with the ingest members every reply shares:
    /// RunReport-style counters plus ingest throughput (bytes and events
    /// over time spent inside FEED/END-DOC handling, so the client's
    /// think time between frames does not count). Each member is
    /// followed by a comma; the caller appends its own and closes with
    /// [`crate::session::TransportStats::finish_stat_json`].
    pub(crate) fn write_stat(&self, json: &mut String) {
        let secs = self.stats.ingest_nanos as f64 / 1e9;
        let per_sec = |n: f64| if secs > 0.0 { n / secs } else { 0.0 };
        let (buckets, entries, longest_bucket) = self.index.dispatch_shape();
        let _ = write!(
            json,
            "{{\"engine\":\"{}\",\"queries\":{},\"active\":{},\"groups\":{},\
             \"docs\":{},\"doc_active\":{},\"events\":{},\"touches\":{},\
             \"dispatch_buckets\":{buckets},\"dispatch_entries\":{entries},\
             \"dispatch_longest_bucket\":{longest_bucket},\"results\":{},\"updates\":{},\"peak_buffered_bytes\":{},\
             \"peak_configs\":{},\"bytes_in\":{},\
             \"ingest_mb_per_sec\":{:.2},\"events_per_sec\":{:.0},",
            json_escape(self.engine_name),
            self.index.len(),
            self.index.active_len(),
            self.index.group_count(),
            self.stats.docs,
            self.doc_active,
            self.index.events(),
            self.index.touches(),
            self.stats.results,
            self.stats.updates,
            self.stats.peak_buffered_bytes,
            self.stats.peak_configs,
            self.stats.bytes_in,
            per_sec(self.stats.bytes_in as f64 / (1024.0 * 1024.0)),
            per_sec(self.index.events() as f64),
        );
    }
}
