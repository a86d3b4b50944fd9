//! Sharded multi-document evaluation: N documents on N threads.
//!
//! The single-document engine is one-pass and CPU-bound, so a corpus of
//! documents scales out trivially *if* nothing in the stack is shared
//! mutably: the symbol table is process-wide and lock-free on the hot
//! path, compiled HPDTs are immutable behind `Arc`, and all runtime
//! state (runner configurations, buffers, parser scratch) lives per
//! worker. This module provides the driver on top of those guarantees:
//!
//! - [`run_sharded`] fans a corpus out over a fixed worker pool through
//!   a bounded channel (backpressure: at most two documents per worker
//!   are in flight beyond the ones being parsed),
//! - each worker owns a private [`QueryIndex`] instantiated from the
//!   shared [`QuerySet`] ([`QuerySet::index`]: fresh runtime state over
//!   the set's analyzer-checked HPDTs, no recompilation, ids equal to
//!   the set's query indices) plus one reusable [`StreamParser`] whose
//!   scratch buffers and symbol cache persist across the documents it
//!   processes,
//! - per-document result buffers are merged back in **global document
//!   order**: results stream out for document *i* as soon as every
//!   document `< i` has been emitted, and within a document they keep
//!   the arrival order the sequential engine produces,
//! - a parse error aborts gracefully: dispatch stops, in-flight
//!   documents drain, workers join, and the error reported is the one
//!   from the lowest-numbered failing document — exactly the error a
//!   sequential fail-fast run would hit first. Documents before it are
//!   still emitted.
//!
//! [`run_sequential`] is the same merge contract on one thread and the
//! reference the equivalence tests (`tests/shard_equivalence.rs`) hold
//! the pool to: byte-identical output, any worker count.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};

use xsq_xml::StreamParser;

use crate::error::EngineError;
use crate::multi::QuerySet;
use crate::qindex::{QueryId, QueryIndex, VecQuerySink};
use crate::report::MemoryStats;

/// Everything one document produced, in intra-document arrival order.
/// `QueryId`s are global: the query's index in the [`QuerySet`].
#[derive(Debug, Clone, PartialEq)]
pub struct DocOutput {
    pub results: Vec<(QueryId, String)>,
    /// Running aggregate updates (aggregation queries only).
    pub updates: Vec<(QueryId, f64)>,
    /// Events in this document alone (not cumulative across the run).
    pub events: u64,
    /// Buffer/config peaks while this document was live.
    pub memory: MemoryStats,
}

/// A completed corpus run: one [`DocOutput`] per input document, in
/// input order.
#[derive(Debug)]
pub struct ShardRun {
    pub per_doc: Vec<DocOutput>,
    /// Worker threads the pool actually used (1 for the sequential
    /// reference driver).
    pub workers: usize,
}

impl ShardRun {
    /// One query's results across the whole corpus, in global document
    /// order — the merged per-query view.
    pub fn of(&self, id: QueryId) -> Vec<&str> {
        self.per_doc
            .iter()
            .flat_map(|d| d.results.iter())
            .filter(|(i, _)| *i == id)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Total results across all documents and queries.
    pub fn result_count(&self) -> usize {
        self.per_doc.iter().map(|d| d.results.len()).sum()
    }
}

/// Why a corpus run stopped.
#[derive(Debug)]
pub enum ShardError {
    /// A document failed to parse (or its stream broke). `doc` is the
    /// lowest-numbered failing document — the same one a sequential
    /// fail-fast run would report.
    Document { doc: usize, error: EngineError },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Document { doc, error } => {
                write!(f, "document {doc}: {error}")
            }
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Document { error, .. } => Some(error),
        }
    }
}

/// One worker's evaluation state: a private index over the shared set
/// and a reusable parser.
struct Worker<'d> {
    index: QueryIndex,
    parser: Option<StreamParser<&'d [u8]>>,
}

impl<'d> Worker<'d> {
    fn new(set: &QuerySet) -> Self {
        Worker {
            index: set.index(),
            parser: None,
        }
    }

    /// Run one document through the private index. On error the index
    /// has aborted the document, so the worker stays usable for
    /// in-flight drains.
    fn run_doc(&mut self, doc: &'d [u8]) -> Result<DocOutput, EngineError> {
        let parser = match &mut self.parser {
            Some(p) => {
                p.reset_with(doc);
                p
            }
            None => self.parser.insert(StreamParser::new(doc)),
        };
        let mut sink = VecQuerySink::new();
        let stats = self.index.run_parser(parser, &mut sink)?;
        Ok(DocOutput {
            results: sink.results,
            updates: sink.updates,
            events: stats.events,
            memory: stats.memory,
        })
    }
}

/// Evaluate the set over every document on one thread, emitting each
/// document's output in order — the reference driver the pool must match
/// byte for byte.
pub fn run_sequential_with(
    set: &QuerySet,
    docs: &[impl AsRef<[u8]>],
    mut emit: impl FnMut(usize, DocOutput),
) -> Result<usize, ShardError> {
    let mut worker = Worker::new(set);
    for (di, doc) in docs.iter().enumerate() {
        match worker.run_doc(doc.as_ref()) {
            Ok(out) => emit(di, out),
            Err(error) => return Err(ShardError::Document { doc: di, error }),
        }
    }
    Ok(1)
}

/// [`run_sequential_with`], collected into a [`ShardRun`].
pub fn run_sequential(set: &QuerySet, docs: &[impl AsRef<[u8]>]) -> Result<ShardRun, ShardError> {
    let mut per_doc = Vec::with_capacity(docs.len());
    let workers = run_sequential_with(set, docs, |_, out| per_doc.push(out))?;
    Ok(ShardRun { per_doc, workers })
}

/// Fan `docs` out over a pool of `workers` threads (`0` means one per
/// available CPU) and stream merged output through `emit(doc_index,
/// output)`, called strictly in document order. Returns the worker
/// count used.
///
/// With one worker (or zero/one documents) this degrades to
/// [`run_sequential_with`] on the calling thread — no pool, identical
/// output.
pub fn run_sharded_with(
    set: &QuerySet,
    docs: &[impl AsRef<[u8]>],
    workers: usize,
    mut emit: impl FnMut(usize, DocOutput),
) -> Result<usize, ShardError> {
    let workers = match workers {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .min(docs.len().max(1));
    if workers <= 1 {
        return run_sequential_with(set, docs, emit);
    }

    // Feed: bounded to two documents per worker, enough to keep every
    // worker busy without reading the whole corpus ahead. Results:
    // unbounded, because every entry is a document that already left
    // the feed window.
    let (feed_tx, feed_rx) = mpsc::sync_channel::<(usize, &[u8])>(2 * workers);
    let feed_rx = Mutex::new(feed_rx);
    let (out_tx, out_rx) = mpsc::channel::<(usize, Result<DocOutput, EngineError>)>();
    // Raised on the first failure: the dispatcher stops feeding new
    // documents; already-dispatched ones still run to completion so the
    // emitted prefix stays deterministic.
    let abort = AtomicBool::new(false);

    std::thread::scope(|s| {
        for _ in 0..workers {
            let out_tx = out_tx.clone();
            let (feed_rx, abort) = (&feed_rx, &abort);
            s.spawn(move || {
                let mut worker = Worker::new(set);
                loop {
                    // Hold the lock only to receive, not to parse.
                    let msg = feed_rx.lock().expect("feed lock").recv();
                    let Ok((di, doc)) = msg else { break };
                    let result = worker.run_doc(doc);
                    if result.is_err() {
                        abort.store(true, Ordering::Relaxed);
                    }
                    if out_tx.send((di, result)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(out_tx);

        // Dispatch in document order from this thread; the bounded send
        // blocks when the pool is saturated.
        let mut dispatched = 0usize;
        for (di, doc) in docs.iter().enumerate() {
            if abort.load(Ordering::Relaxed) {
                break;
            }
            if feed_tx.send((di, doc.as_ref())).is_err() {
                break;
            }
            dispatched = di + 1;
        }
        drop(feed_tx);

        // Ordered merge: buffer out-of-order completions, emit the
        // contiguous prefix. Every dispatched document produces exactly
        // one message, so draining the channel sees them all.
        let mut pending: BTreeMap<usize, DocOutput> = BTreeMap::new();
        let mut next = 0usize;
        let mut first_err: Option<(usize, EngineError)> = None;
        for (di, result) in out_rx {
            match result {
                Ok(out) => {
                    pending.insert(di, out);
                }
                Err(e) => match &first_err {
                    Some((d, _)) if *d <= di => {}
                    _ => first_err = Some((di, e)),
                },
            }
            let limit = first_err.as_ref().map_or(dispatched, |(d, _)| *d);
            while next < limit {
                match pending.remove(&next) {
                    Some(out) => {
                        emit(next, out);
                        next += 1;
                    }
                    None => break,
                }
            }
        }
        match first_err {
            Some((doc, error)) => Err(ShardError::Document { doc, error }),
            None => Ok(workers),
        }
    })
}

/// [`run_sharded_with`], collected into a [`ShardRun`]: the whole corpus
/// evaluated on a pool, per-document outputs in global document order.
pub fn run_sharded(
    set: &QuerySet,
    docs: &[impl AsRef<[u8]>],
    workers: usize,
) -> Result<ShardRun, ShardError> {
    let mut per_doc = Vec::with_capacity(docs.len());
    let workers = run_sharded_with(set, docs, workers, |_, out| per_doc.push(out))?;
    Ok(ShardRun { per_doc, workers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::XsqEngine;

    fn corpus(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                format!(
                    "<pub><book id=\"{i}\"><name>B{i}</name><author>A{}</author>\
                     <price>{}</price></book><year>{}</year></pub>",
                    i % 3,
                    5 + (i % 7),
                    1998 + (i % 6),
                )
                .into_bytes()
            })
            .collect()
    }

    fn set() -> QuerySet {
        QuerySet::compile(
            XsqEngine::full(),
            &[
                "/pub/book/name/text()",
                "/pub/book/@id",
                "//book[author]/price/text()",
                "/pub/book/price/sum()",
            ],
        )
        .unwrap()
    }

    #[test]
    fn sharded_matches_sequential_exactly() {
        let docs = corpus(40);
        let set = set();
        let seq = run_sequential(&set, &docs).unwrap();
        for workers in [2, 3, 4, 8] {
            let sharded = run_sharded(&set, &docs, workers).unwrap();
            assert_eq!(sharded.workers, workers);
            assert_eq!(
                seq.per_doc, sharded.per_doc,
                "divergence at {workers} workers"
            );
        }
    }

    #[test]
    fn merged_per_query_view_is_document_ordered() {
        let docs = corpus(12);
        let set = set();
        let run = run_sharded(&set, &docs, 4).unwrap();
        let names = run.of(QueryId(0));
        let expected: Vec<String> = (0..12).map(|i| format!("B{i}")).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn streaming_emit_is_in_order_and_complete() {
        let docs = corpus(25);
        let set = set();
        let mut seen = Vec::new();
        run_sharded_with(&set, &docs, 4, |di, _| seen.push(di)).unwrap();
        let expected: Vec<usize> = (0..25).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn parse_error_reports_lowest_failing_document() {
        let mut docs = corpus(20);
        docs[7] = b"<pub><book></pub>".to_vec(); // tag mismatch
        docs[13] = b"not xml".to_vec();
        let set = set();
        let mut emitted = Vec::new();
        let err = run_sharded_with(&set, &docs, 4, |di, _| emitted.push(di)).unwrap_err();
        let ShardError::Document { doc, .. } = err;
        assert_eq!(doc, 7);
        // The emitted prefix is exactly the documents before the failure.
        assert_eq!(emitted, (0..7).collect::<Vec<_>>());
        // And it matches what sequential fail-fast produces.
        let seq_err = run_sequential(&set, &docs).unwrap_err();
        let ShardError::Document { doc, .. } = seq_err;
        assert_eq!(doc, 7);
    }

    #[test]
    fn workers_survive_a_failed_document_in_flight() {
        // The erroring document resets its worker's runner state; other
        // in-flight documents must still produce correct output.
        let mut docs = corpus(6);
        docs[5] = b"<a><b>".to_vec();
        let set = set();
        let err = run_sharded(&set, &docs, 2).unwrap_err();
        let ShardError::Document { doc, .. } = err;
        assert_eq!(doc, 5);
    }

    #[test]
    fn empty_corpus_and_tiny_pools() {
        let set = set();
        let docs: Vec<Vec<u8>> = Vec::new();
        let run = run_sharded(&set, &docs, 0).unwrap();
        assert!(run.per_doc.is_empty());
        let one = corpus(1);
        let run = run_sharded(&set, &one, 8).unwrap();
        assert_eq!(run.workers, 1, "one document never needs a pool");
        assert_eq!(run.per_doc.len(), 1);
    }

    #[test]
    fn aggregates_finalize_per_document() {
        let docs = corpus(5);
        let set = set();
        let run = run_sharded(&set, &docs, 2).unwrap();
        // One sum() result per document, not one for the whole corpus.
        assert_eq!(run.of(QueryId(3)).len(), 5);
        let seq = run_sequential(&set, &docs).unwrap();
        assert_eq!(seq.of(QueryId(3)), run.of(QueryId(3)));
    }
}
