//! `broadcast_fanout`: one feeder, 64 subscriber sessions.

use std::cell::Cell;
use std::time::Instant;

use xsq_core::{QueryIndex, RunStats, XsqEngine};
use xsq_server::proto::op;
use xsq_server::{stat_field_u64, ServerHandle};

use super::super::inproc::{
    push_index, push_parse_only, same_results, set_push_layers, set_query_layers,
};
use super::super::{mb, run_ladder, timed_reps, Config, Rung, Untraced, Workload};
use super::{
    corpus_hash, counters_since, dom_gate, encode_doc, index_reference, io_err, request_frames,
    sample_fresh_servers, session_pass, set_stat_layers, set_wire_layers, shutdown_all,
    start_server, stat, subscribed_session, EncodedDoc,
};
use crate::hash::{fold_frame, HashSink, NullSink, FNV_OFFSET};
use crate::inputs::{self, CHUNK, KIB};
use crate::metrics::Layers;
use crate::trace::{Tracer, NO_PARENT};
use crate::wire::{Conn, WireCounters, REPLY_TIMEOUT};

/// `serve-bench`'s standing set: paths, predicates, closures,
/// attributes, aggregations.
const FAN_QUERIES: [&str; 6] = [
    "//pub[year]//book[@id]/title/text()",
    "//pub/book/title/text()",
    "//book/@id",
    "//book/price/text()",
    "//price/sum()",
    "//book/count()",
];
const FAN_DOCS: usize = 12;
const FAN_SESSIONS: usize = 64;
/// Corpus replays per repetition (a traced one replays once).
const FAN_REPLAYS: usize = 2;

pub struct BroadcastFanout {
    cfg: Config,
    docs: Vec<Vec<u8>>,
    encoded: Vec<EncodedDoc>,
    gen_s: f64,
    expected: Vec<u64>,
    stats: RunStats,
    groups: usize,
    gate: (u64, u64),
}

/// A broadcast server with its two connections: a wire-v2 connection
/// carrying `sessions` subscriber sessions (ids 1..), all with the
/// same SUB batch, and the v1 feeder.
struct Rig {
    server: ServerHandle,
    feeder: Conn,
    subs: Conn,
    sessions: usize,
}

impl Rig {
    fn new(sessions: usize) -> Result<Rig, String> {
        let server = start_server(true)?;
        let mut subs = Conn::connect(server.addr(), true).map_err(io_err)?;
        let batch = FAN_QUERIES.join("\n");
        let mut requests = Vec::new();
        for sid in 1..=sessions as u32 {
            subs.encode(Some(sid), op::SUB, batch.as_bytes(), &mut requests);
        }
        subs.write_all(&requests).map_err(io_err)?;
        for _ in 0..sessions {
            let reply = subs.read_reply().map_err(io_err)?;
            if reply.op != op::SUB_OK {
                return Err(format!(
                    "broadcast SUB refused: {}",
                    String::from_utf8_lossy(&reply.payload)
                ));
            }
        }
        let mut feeder = Conn::connect(server.addr(), false).map_err(io_err)?;
        feeder
            .expect(None, op::FEEDER, &[], op::OK)
            .map_err(io_err)?;
        Ok(Rig {
            server,
            feeder,
            subs,
            sessions,
        })
    }

    /// Feed the corpus once. The feeder is a closed loop on its own
    /// DOC_OK; deliveries to the sessions are tracked per session and
    /// may trail the feeder. One operation is one session × document
    /// delivery; its latency runs from the document's first byte to
    /// that session's DOC_OK. Returns failed deliveries.
    fn feed(
        &mut self,
        encoded: &[EncodedDoc],
        expected: &[u64],
        latency_us: &mut Vec<f64>,
        tracer: &mut Tracer,
        parent: u32,
    ) -> Result<u64, String> {
        // Per session: the running hash and how many documents it has
        // been acknowledged. Per document: when its first byte went
        // out, its span, and the deliveries still owed.
        let mut hashes = vec![FNV_OFFSET; self.sessions];
        let mut acked = vec![0usize; self.sessions];
        let mut started: Vec<Instant> = Vec::with_capacity(encoded.len());
        let mut spans = Vec::with_capacity(encoded.len());
        let mut owed = vec![self.sessions; encoded.len()];
        let mut outstanding = self.sessions * encoded.len();
        let (mut doc, mut off, mut feeder_waits) = (0usize, 0usize, false);
        let mut failed = 0;
        let mut last_progress = Instant::now();
        while outstanding > 0 || doc < encoded.len() {
            let mut progress = false;
            if doc < encoded.len() && !feeder_waits {
                if started.len() == doc {
                    started.push(Instant::now());
                    spans.push(tracer.open("document", parent, doc as u64));
                }
                let bytes = &encoded[doc].bytes;
                let wrote = self.feeder.try_write(&bytes[off..]).map_err(io_err)?;
                off += wrote;
                progress |= wrote > 0;
                feeder_waits = off == bytes.len();
            }
            if self.feeder.fill().map_err(io_err)? > 0 {
                progress = true;
                while let Some(f) = self.feeder.next_frame().map_err(io_err)? {
                    if f.op != op::DOC_OK {
                        return Err(format!(
                            "feeder: unexpected reply 0x{:02x}: {}",
                            f.op,
                            String::from_utf8_lossy(f.payload)
                        ));
                    }
                    doc += 1;
                    off = 0;
                    feeder_waits = false;
                }
            }
            if self.subs.fill().map_err(io_err)? > 0 {
                progress = true;
                let now = Instant::now();
                while let Some(f) = self.subs.next_frame().map_err(io_err)? {
                    let s = f.sid.map_or(usize::MAX, |sid| sid as usize - 1);
                    if s >= self.sessions {
                        return Err(format!("reply for unknown session {:?}", f.sid));
                    }
                    match f.op {
                        op::RESULT | op::UPDATE => {
                            hashes[s] = fold_frame(hashes[s], f.op, f.payload)
                        }
                        op::DOC_OK => {
                            let d = acked[s];
                            if d >= started.len() {
                                return Err(format!("session {s}: DOC_OK for an unfed document"));
                            }
                            latency_us.push((now - started[d]).as_secs_f64() * 1e6);
                            failed += u64::from(hashes[s] != expected[d]);
                            hashes[s] = FNV_OFFSET;
                            acked[s] += 1;
                            outstanding -= 1;
                            owed[d] -= 1;
                            if owed[d] == 0 {
                                tracer.close(spans[d]);
                            }
                        }
                        other => {
                            return Err(format!(
                                "session {s}: unexpected reply 0x{other:02x}: {}",
                                String::from_utf8_lossy(f.payload)
                            ))
                        }
                    }
                }
            }
            if progress {
                last_progress = Instant::now();
            } else {
                if last_progress.elapsed() > REPLY_TIMEOUT {
                    return Err(format!(
                        "broadcast stalled: {outstanding} deliveries missing after 30 s"
                    ));
                }
                std::thread::yield_now();
            }
        }
        Ok(failed)
    }

    /// The hub's STAT (asked over the feeder connection), then close.
    fn finish(mut self) -> Result<(String, ServerHandle), String> {
        let stat_json = stat(&mut self.feeder)?;
        drop(self.feeder);
        drop(self.subs);
        Ok((stat_json, self.server))
    }
}

impl BroadcastFanout {
    pub fn new(cfg: Config) -> Result<Self, String> {
        let doc_bytes = cfg.bytes(64 * KIB);
        let t0 = Instant::now();
        let docs: Vec<Vec<u8>> = (0..FAN_DOCS)
            .map(|i| inputs::shallow_doc(cfg.seed, i, doc_bytes))
            .collect();
        let gen_s = t0.elapsed().as_secs_f64();
        let encoded: Vec<EncodedDoc> = docs.iter().map(|d| encode_doc(d, CHUNK)).collect();

        // Gate: index ≡ private session per document; engine ≡ DOM on
        // document 0. Every broadcast session is checked per delivery.
        let (expected, stats, groups) = index_reference(&FAN_QUERIES, &docs)?;
        let mut session = subscribed_session(&FAN_QUERIES)?;
        let mut via_session = HashSink::new();
        let frames = request_frames(&docs, CHUNK);
        session_pass(
            &mut session,
            &frames,
            &mut via_session,
            &mut Tracer::new(false),
            NO_PARENT,
        );
        let failed = u64::from(via_session.docs != expected) + dom_gate(&FAN_QUERIES, &docs[0])?;
        Ok(BroadcastFanout {
            cfg,
            docs,
            encoded,
            gen_s,
            expected,
            stats,
            groups,
            gate: (1 + FAN_QUERIES.len() as u64, failed),
        })
    }

    fn corpus_bytes(&self) -> usize {
        self.encoded.iter().map(|d| d.xml_len).sum()
    }
}

impl Workload for BroadcastFanout {
    fn gate(&self) -> (u64, u64) {
        self.gate
    }

    fn untraced(&mut self, seconds: f64) -> Result<Untraced, String> {
        let setup_s = sample_fresh_servers(self.cfg, || {
            let t0 = Instant::now();
            let rig = Rig::new(FAN_SESSIONS)?;
            Ok((t0.elapsed().as_secs_f64(), rig.server))
        })?;

        let mut rig = Rig::new(FAN_SESSIONS)?;
        let mut tracer = Tracer::new(false);
        let replays = if self.cfg.smoke { 1 } else { FAN_REPLAYS };
        let (encoded, expected) = (&self.encoded, &self.expected);
        let mut latency = Vec::new();
        let mut failed = 0;
        let mut warm_up = Vec::new();
        let walls = timed_reps(self.cfg, seconds, |timed| {
            let latency = if timed { &mut latency } else { &mut warm_up };
            for _ in 0..replays {
                let wrong = rig.feed(encoded, expected, latency, &mut tracer, NO_PARENT)?;
                failed += if timed { wrong } else { 0 };
            }
            Ok(())
        })?;
        let (_, server) = rig.finish()?;
        server.shutdown();

        let rep_bytes = self.corpus_bytes() * replays;
        Ok(Untraced {
            setup_s,
            throughput_mb_s: walls.iter().map(|w| mb(rep_bytes) / w).collect(),
            ops: latency.len() as u64,
            latency_us: latency,
            failed,
            // The hub's STAT has no buffer gauge; the shared index
            // holds what one private index holds.
            peak_buffered_bytes: self.stats.memory.peak_bytes,
            result_hash: corpus_hash(&self.expected),
            touches: 0,
        })
    }

    fn traced(&mut self, seconds: f64, tracer: &mut Tracer) -> Result<Layers, String> {
        let mut layers = Layers::default();
        let docs: Vec<&[u8]> = self.docs.iter().map(Vec::as_slice).collect();
        let (encoded, expected) = (&self.encoded[..], &self.expected[..]);
        let mut index = QueryIndex::new(XsqEngine::full());
        index
            .subscribe_group(&FAN_QUERIES)
            .map_err(|e| e.to_string())?;
        let mut solo = Rig::new(1)?;
        let mut full = Rig::new(FAN_SESSIONS)?;
        let push_counts = Cell::new((0u64, 0u64));
        let mismatches = Cell::new(0u64);
        let full_reps = Cell::new(0u64);
        let full_wall = Cell::new(0.0f64);
        let before = full.subs.counters;
        let fed_before = full.feeder.counters;
        let mut rungs = [
            Rung {
                name: "R1 PushParser::{push,poll_raw}",
                charge: "xmlstream.push.busy_s",
                run: Box::new(|_, _| {
                    push_counts.set(push_parse_only(&docs, CHUNK));
                    Ok(())
                }),
            },
            Rung {
                name: "R2 + QueryIndex::feed_raw (null sink)",
                charge: "core.qindex.busy_s",
                run: Box::new(|_, _| {
                    push_index(&mut index, &docs, CHUNK, &mut NullSink);
                    Ok(())
                }),
            },
            Rung {
                name: "R3 broadcast loopback, 1 session",
                charge: "server.eventloop.transport_s",
                run: Box::new(|tracer, span| {
                    let mut latency = Vec::new();
                    let failed = solo.feed(encoded, expected, &mut latency, tracer, span)?;
                    mismatches.set(mismatches.get() + failed);
                    Ok(())
                }),
            },
            Rung {
                name: "R4 broadcast loopback, 64 sessions",
                charge: "server.broadcast.fan_s",
                run: Box::new(|tracer, span| {
                    let t0 = Instant::now();
                    let mut latency = Vec::new();
                    let failed = full.feed(encoded, expected, &mut latency, tracer, span)?;
                    mismatches.set(mismatches.get() + failed);
                    full_reps.set(full_reps.get() + 1);
                    full_wall.set(full_wall.get() + t0.elapsed().as_secs_f64());
                    Ok(())
                }),
            },
        ];
        let ladder = run_ladder(seconds, tracer, &mut rungs)?;
        drop(rungs);
        ladder.attribute(self.corpus_bytes(), &mut layers);
        same_results(mismatches.get())?;
        let reps = full_reps.get();
        let delivered = counters_since(full.subs.counters, before, reps);
        let fed = counters_since(full.feeder.counters, fed_before, reps);
        let (stat_json, server) = full.finish()?;
        let (_, solo_server) = solo.finish()?;
        shutdown_all(vec![server, solo_server]);

        let frames_out: usize = encoded.iter().map(|d| d.frame_ends.len() + 1).sum();
        set_wire_layers(
            &mut layers,
            WireCounters {
                bytes_out: fed.bytes_out,
                write_calls: fed.write_calls,
                ..delivered
            },
            frames_out as u64,
        );
        layers.set(
            "server.broadcast.delivered_frames",
            delivered.frames_in as f64,
        );
        layers.set(
            "server.broadcast.dropped",
            stat_field_u64(&stat_json, "dropped_broadcast").unwrap_or(0) as f64,
        );
        set_stat_layers(&mut layers, &stat_json, full_wall.get());
        set_push_layers(&mut layers, push_counts.get());
        set_query_layers(&mut layers, &FAN_QUERIES, &self.stats, self.groups)?;
        layers.set("datagen.gen_s", self.gen_s);
        Ok(layers)
    }
}
