//! The in-process query workloads: `scan_dblp`, `match_recursive`
//! (one compiled query behind the pull parser) and `multi_sub` (512
//! subscriptions in one `QueryIndex`), and the parser/engine passes
//! the other workloads' ladders reuse.

use std::hint::black_box;
use std::time::Instant;

use xsq_baselines::dom;
use xsq_core::{CompiledQuery, QueryId, QueryIndex, QuerySink, RunStats, VecQuerySink, XsqEngine};
use xsq_xml::{ParsePoll, PushParser, RawEvent, StreamParser};

use super::{
    dom_results, mb, run_ladder, sample_setups, timed_reps, Config, Rung, Untraced,
    IN_PROCESS_SETUPS,
};
use crate::hash::HashSink;
use crate::inputs::{self, CHUNK, MIB, SAMPLE_BYTES};
use crate::metrics::Layers;
use crate::trace::Tracer;

pub const WELL_FORMED: &str = "generated documents are well-formed";

/// R1 of the pull ladders: tokenize and discard. Returns the events.
pub fn pull_parse_only(doc: &[u8]) -> u64 {
    let mut parser = StreamParser::new(doc);
    let mut events = 0u64;
    while let Some(ev) = parser.next_raw().expect(WELL_FORMED) {
        black_box(&ev);
        events += 1;
    }
    events
}

/// One document through the push parser, one `push` per piece, every
/// event handed to `each`; the parser is reset for the next document.
/// Returns the polls that answered NeedMore.
pub fn push_doc<'a>(
    parser: &mut PushParser,
    pieces: impl IntoIterator<Item = &'a [u8]>,
    mut each: impl FnMut(&RawEvent<'_>),
) -> u64 {
    let mut need_more = 0;
    let mut drain = |parser: &mut PushParser| loop {
        match parser.poll_raw().expect(WELL_FORMED) {
            ParsePoll::Event(ev) => each(&ev),
            ParsePoll::NeedMore => {
                need_more += 1;
                break;
            }
            ParsePoll::End => break,
        }
    };
    for piece in pieces {
        parser.push(piece);
        drain(parser);
    }
    parser.finish();
    drain(parser);
    parser.reset_push();
    need_more
}

/// R1 of the push ladders: the same bytes in `chunk`-sized pushes,
/// events discarded. Returns (events, NeedMore polls).
pub fn push_parse_only(docs: &[&[u8]], chunk: usize) -> (u64, u64) {
    let mut parser = StreamParser::push_mode();
    let (mut events, mut need_more) = (0u64, 0u64);
    for doc in docs {
        need_more += push_doc(&mut parser, doc.chunks(chunk), |ev| {
            black_box(ev);
            events += 1;
        });
    }
    (events, need_more)
}

/// Documents through an index behind the push parser, in `chunk`-sized
/// pushes — R2 of the server ladders, and the push side of the
/// pull ≡ push gate.
pub fn push_index(index: &mut QueryIndex, docs: &[&[u8]], chunk: usize, sink: &mut dyn QuerySink) {
    let mut parser = StreamParser::push_mode();
    for doc in docs {
        push_doc(&mut parser, doc.chunks(chunk), |ev| {
            index.feed_raw(ev, sink)
        });
        black_box(index.finish(sink));
    }
}

/// One document through an index behind the pull parser.
pub fn pull_index(index: &mut QueryIndex, doc: &[u8], sink: &mut dyn QuerySink) -> RunStats {
    let mut parser = StreamParser::new(doc);
    while let Some(ev) = parser.next_raw().expect(WELL_FORMED) {
        index.feed_raw(&ev, sink);
    }
    index.finish(sink)
}

fn pull_query(compiled: &CompiledQuery, doc: &[u8], sink: &mut HashSink) -> RunStats {
    let mut parser = StreamParser::new(doc);
    let mut runner = compiled.runner();
    while let Some(ev) = parser.next_raw().expect(WELL_FORMED) {
        runner.feed_raw(&ev, sink);
    }
    runner.finish(sink)
}

fn push_query(compiled: &CompiledQuery, doc: &[u8], sink: &mut HashSink) -> RunStats {
    let mut runner = compiled.runner();
    push_doc(&mut StreamParser::push_mode(), doc.chunks(CHUNK), |ev| {
        runner.feed_raw(ev, sink)
    });
    runner.finish(sink)
}

/// The layer metrics every query workload shares: the queries parsed,
/// then compiled, timed apart (the set-up layers), and the corpus
/// pass's `RunStats`.
pub fn set_query_layers(
    layers: &mut Layers,
    queries: &[&str],
    stats: &RunStats,
    groups: usize,
) -> Result<(), String> {
    let engine = XsqEngine::full();
    let t0 = Instant::now();
    let parsed: Vec<_> = queries
        .iter()
        .map(|q| xsq_xpath::parse_query(q).map_err(|e| format!("{q}: {e}")))
        .collect::<Result<_, _>>()?;
    layers.set("xpath.parse_s", t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    let mut states = 0;
    for (q, p) in queries.iter().zip(&parsed) {
        let compiled = engine.compile(p).map_err(|e| format!("{q}: {e}"))?;
        states += compiled.hpdt().states.len();
    }
    layers.set("core.build.compile_s", t0.elapsed().as_secs_f64());
    layers.set("core.build.states", states as f64);
    layers.set("core.qindex.groups", groups as f64);
    let m = &stats.memory;
    layers.set("core.runtime.peak_configs", m.peak_configs as f64);
    layers.set("core.runtime.results", stats.results as f64);
    layers.set("core.buffers.peak_buffered_bytes", m.peak_bytes as f64);
    layers.set(
        "core.buffers.peak_buffered_items",
        m.peak_buffered_items as f64,
    );
    Ok(())
}

/// What R1 of a pull ladder measured.
fn set_parser_layers(layers: &mut Layers, events: u64, bytes: usize, r1_wall: f64) {
    layers.set("xmlstream.parser.events", events as f64);
    layers.set("xmlstream.parser.mb_s", mb(bytes) / r1_wall);
}

/// What R1 of a push ladder counted.
pub fn set_push_layers(layers: &mut Layers, (events, need_more): (u64, u64)) {
    layers.set("xmlstream.push.events", events as f64);
    layers.set("xmlstream.push.need_more_polls", need_more as f64);
}

/// A traced pass whose repetitions disagreed on the results is void.
pub fn same_results(mismatches: u64) -> Result<(), String> {
    if mismatches > 0 {
        return Err(format!(
            "{mismatches} traced passes changed their result hash"
        ));
    }
    Ok(())
}

/// `scan_dblp` and `match_recursive`: one query, pull parser.
pub struct SingleQuery {
    cfg: Config,
    query: &'static str,
    doc: Vec<u8>,
    gen_s: f64,
    compiled: CompiledQuery,
    expected: u64,
    stats: RunStats,
    gate: (u64, u64),
}

impl SingleQuery {
    pub fn scan_dblp(cfg: Config) -> Result<Self, String> {
        Self::new(
            cfg,
            "/dblp/article/title/text()",
            64 * MIB,
            inputs::dblp_doc,
        )
    }

    pub fn match_recursive(cfg: Config) -> Result<Self, String> {
        Self::new(
            cfg,
            "//pub[year>2000]//book[price]/title/text()",
            4 * MIB,
            inputs::recursive_doc,
        )
    }

    fn new(
        cfg: Config,
        query: &'static str,
        full_bytes: usize,
        generate: fn(u64, usize) -> Vec<u8>,
    ) -> Result<Self, String> {
        let bytes = cfg.bytes(full_bytes);
        let t0 = Instant::now();
        let doc = generate(cfg.seed, bytes);
        let gen_s = t0.elapsed().as_secs_f64();
        let sample = generate(cfg.seed, bytes.min(SAMPLE_BYTES));
        let compiled = XsqEngine::full()
            .compile_str(query)
            .map_err(|e| format!("{query}: {e}"))?;

        // Gate: pull ≡ push on the corpus, engine ≡ DOM on the sample.
        let mut pull = HashSink::new();
        let stats = pull_query(&compiled, &doc, &mut pull);
        let mut push = HashSink::new();
        push_query(&compiled, &doc, &mut push);
        let mut sampled = xsq_core::VecSink::new();
        compiled
            .run_document(&sample, &mut sampled)
            .map_err(|e| e.to_string())?;
        let tree = dom::Document::parse(&sample).map_err(|e| e.to_string())?;
        let oracle = dom_results(&tree, query)?;
        let failed = u64::from(push.h != pull.h) + u64::from(sampled.results != oracle);
        if pull.results == 0 {
            return Err(format!("{query} selects nothing: the workload is vacuous"));
        }
        Ok(SingleQuery {
            cfg,
            query,
            doc,
            gen_s,
            compiled,
            expected: pull.h,
            stats,
            gate: (2, failed),
        })
    }
}

impl super::Workload for SingleQuery {
    fn gate(&self) -> (u64, u64) {
        self.gate
    }

    fn untraced(&mut self, seconds: f64) -> Result<Untraced, String> {
        let (query, doc) = (self.query, &self.doc[..]);
        let setup_s = sample_setups(self.cfg, IN_PROCESS_SETUPS, || {
            let t0 = Instant::now();
            let compiled = XsqEngine::full()
                .compile_str(query)
                .map_err(|e| e.to_string())?;
            let runner = compiled.runner();
            let parser = StreamParser::new(doc);
            let s = t0.elapsed().as_secs_f64();
            black_box((&runner, &parser));
            Ok(s)
        })?;
        let (compiled, expected) = (&self.compiled, self.expected);
        let mut failed = 0u64;
        let walls = timed_reps(self.cfg, seconds, |timed| {
            let mut sink = HashSink::new();
            pull_query(compiled, doc, &mut sink);
            failed += u64::from(timed && sink.h != expected);
            Ok(())
        })?;
        Ok(Untraced {
            peak_buffered_bytes: self.stats.memory.peak_bytes,
            result_hash: expected,
            ..Untraced::per_repetition(setup_s, &walls, doc.len(), failed)
        })
    }

    fn traced(&mut self, seconds: f64, tracer: &mut Tracer) -> Result<Layers, String> {
        let mut layers = Layers::default();
        let (compiled, doc, expected) = (&self.compiled, &self.doc[..], self.expected);
        let mut events = 0u64;
        let mut mismatches = 0u64;
        let mut rungs = [
            Rung {
                name: "R1 StreamParser::next_raw",
                charge: "xmlstream.parser.busy_s",
                run: Box::new(|_, _| {
                    events = pull_parse_only(doc);
                    Ok(())
                }),
            },
            Rung {
                name: "R2 + Runner::feed_raw",
                charge: "core.runtime.busy_s",
                run: Box::new(|_, _| {
                    let mut sink = HashSink::new();
                    pull_query(compiled, doc, &mut sink);
                    mismatches += u64::from(sink.h != expected);
                    Ok(())
                }),
            },
        ];
        let ladder = run_ladder(seconds, tracer, &mut rungs)?;
        drop(rungs);
        same_results(mismatches)?;
        ladder.attribute(doc.len(), &mut layers);
        set_parser_layers(&mut layers, events, doc.len(), ladder.walls[0]);
        set_query_layers(&mut layers, &[self.query], &self.stats, 0)?;
        layers.set("datagen.gen_s", self.gen_s);
        Ok(layers)
    }
}

/// `multi_sub`: 512 seeded subscriptions behind one `QueryIndex`.
pub struct MultiSub {
    cfg: Config,
    doc: Vec<u8>,
    gen_s: f64,
    queries: Vec<String>,
    index: QueryIndex,
    /// Hash and stats of the corpus pass, set by the first (warm-up)
    /// repetition and held against every later one. Correctness
    /// proper is the gate's business, on the sample; a reference pass
    /// over the corpus here would cost a fifth of the run.
    seen: Option<(u64, RunStats)>,
    gate: (u64, u64),
}

pub const SUBSCRIPTIONS: usize = 512;

fn subscribe_all(queries: &[String]) -> Result<QueryIndex, String> {
    let texts: Vec<&str> = queries.iter().map(String::as_str).collect();
    let mut index = QueryIndex::new(XsqEngine::full());
    index.subscribe_group(&texts).map_err(|e| e.to_string())?;
    Ok(index)
}

impl MultiSub {
    pub fn new(cfg: Config) -> Result<Self, String> {
        let bytes = cfg.bytes(2 * MIB);
        let t0 = Instant::now();
        let doc = inputs::dblp_doc(cfg.seed, bytes);
        let queries = inputs::subscriptions(cfg.seed, SUBSCRIPTIONS);
        let gen_s = t0.elapsed().as_secs_f64();
        let sample = inputs::dblp_doc(cfg.seed, bytes.min(SAMPLE_BYTES));

        // Gate on the sample: pull ≡ push through the index, and every
        // subscription's results equal the DOM oracle's.
        let mut index = subscribe_all(&queries)?;
        let mut collected = VecQuerySink::new();
        pull_index(&mut index, &sample, &mut collected);
        let mut pull = HashSink::new();
        for (id, value) in &collected.results {
            QuerySink::result(&mut pull, *id, value);
        }
        let mut push = HashSink::new();
        push_index(&mut index, &[&sample], CHUNK, &mut push);
        let tree = dom::Document::parse(&sample).map_err(|e| e.to_string())?;
        let mut failed = u64::from(pull.h != push.h);
        for (i, q) in queries.iter().enumerate() {
            let oracle = dom_results(&tree, q)?;
            failed += u64::from(collected.of(QueryId(i as u32)) != oracle);
        }
        if pull.results == 0 {
            return Err("no subscription fires on the sample: the workload is vacuous".into());
        }
        Ok(MultiSub {
            cfg,
            doc,
            gen_s,
            queries,
            index,
            seen: None,
            gate: (1 + SUBSCRIPTIONS as u64, failed),
        })
    }

    /// One pass over the corpus; `true` if its hash differs from the
    /// first pass's.
    fn rep(index: &mut QueryIndex, seen: &mut Option<(u64, RunStats)>, doc: &[u8]) -> bool {
        let mut sink = HashSink::new();
        let stats = pull_index(index, doc, &mut sink);
        sink.h != seen.get_or_insert((sink.h, stats)).0
    }
}

impl super::Workload for MultiSub {
    fn gate(&self) -> (u64, u64) {
        self.gate
    }

    fn untraced(&mut self, seconds: f64) -> Result<Untraced, String> {
        let queries = &self.queries;
        let doc = &self.doc[..];
        let setup_s = sample_setups(self.cfg, IN_PROCESS_SETUPS, || {
            let t0 = Instant::now();
            let index = subscribe_all(queries)?;
            let parser = StreamParser::new(doc);
            let s = t0.elapsed().as_secs_f64();
            black_box((&index, &parser));
            Ok(s)
        })?;
        let (index, seen) = (&mut self.index, &mut self.seen);
        let touches0 = index.touches();
        let (mut failed, mut reps) = (0u64, 0u64);
        let walls = timed_reps(self.cfg, seconds, |timed| {
            failed += u64::from(Self::rep(index, seen, doc) && timed);
            reps += 1;
            Ok(())
        })?;
        let (expected, stats) = self.seen.as_ref().expect("the warm-up repetition ran");
        Ok(Untraced {
            peak_buffered_bytes: stats.memory.peak_bytes,
            result_hash: *expected,
            touches: (self.index.touches() - touches0) / reps,
            ..Untraced::per_repetition(setup_s, &walls, doc.len(), failed)
        })
    }

    fn traced(&mut self, seconds: f64, tracer: &mut Tracer) -> Result<Layers, String> {
        let mut layers = Layers::default();
        let (index, seen, doc) = (&mut self.index, &mut self.seen, &self.doc[..]);
        let (touches0, events0) = (index.touches(), index.events());
        let mut parser_events = 0u64;
        let (mut mismatches, mut reps) = (0u64, 0u64);
        let mut rungs = [
            Rung {
                name: "R1 StreamParser::next_raw",
                charge: "xmlstream.parser.busy_s",
                run: Box::new(|_, _| {
                    parser_events = pull_parse_only(doc);
                    Ok(())
                }),
            },
            Rung {
                name: "R2 + QueryIndex::feed_raw",
                charge: "core.qindex.busy_s",
                run: Box::new(|_, _| {
                    mismatches += u64::from(Self::rep(index, seen, doc));
                    reps += 1;
                    Ok(())
                }),
            },
        ];
        let ladder = run_ladder(seconds, tracer, &mut rungs)?;
        drop(rungs);
        same_results(mismatches)?;
        ladder.attribute(doc.len(), &mut layers);
        set_parser_layers(&mut layers, parser_events, doc.len(), ladder.walls[0]);
        let touches = (self.index.touches() - touches0) / reps;
        let events = (self.index.events() - events0) / reps;
        layers.set("core.qindex.touches", touches as f64);
        layers.set(
            "core.qindex.touches_per_event",
            touches as f64 / events as f64,
        );
        let texts: Vec<&str> = self.queries.iter().map(String::as_str).collect();
        let stats = &self.seen.as_ref().expect("the warm-up repetition ran").1;
        set_query_layers(&mut layers, &texts, stats, self.index.group_count())?;
        layers.set("datagen.gen_s", self.gen_s);
        Ok(layers)
    }
}
