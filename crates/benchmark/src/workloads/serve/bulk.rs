//! `serve_bulk`: whole documents over loopback, closed loop.

use std::cell::Cell;
use std::time::Instant;

use xsq_core::{QueryIndex, RunStats, XsqEngine};
use xsq_server::proto::{op, Frame};
use xsq_server::stat_field_u64;

use super::super::inproc::{
    push_index, push_parse_only, same_results, set_push_layers, set_query_layers,
};
use super::super::{mb, run_ladder, timed_reps, Config, Rung, Untraced, Workload};
use super::{
    codec_pass, connect_subscribed, corpus_hash, counters_since, dom_gate, encode_doc,
    index_reference, io_err, request_frames, sample_server_setups, session_pass, set_stat_layers,
    set_wire_layers, start_server, stat_and_bye, subscribed_session, EncodedDoc,
};
use crate::hash::{fold_frame, HashSink, NullSink, FNV_OFFSET};
use crate::inputs::{self, CHUNK, MIB, SAMPLE_BYTES};
use crate::metrics::Layers;
use crate::trace::{Tracer, NO_PARENT};
use crate::wire::{Conn, REPLY_TIMEOUT};

const BULK_QUERIES: [&str; 4] = [
    "/dblp/inproceedings[booktitle]/title/text()",
    "/dblp/article/@key",
    "/dblp/article[year>1995]/author/text()",
    "//year/count()",
];
const BULK_DOCS: usize = 8;
/// Corpus replays per untraced repetition (a traced one replays once).
const BULK_REPLAYS: usize = 3;

pub struct ServeBulk {
    cfg: Config,
    docs: Vec<Vec<u8>>,
    encoded: Vec<EncodedDoc>,
    frames: Vec<Frame>,
    gen_s: f64,
    expected: Vec<u64>,
    stats: RunStats,
    groups: usize,
    gate: (u64, u64),
}

/// Closed loop: each document's frames, then its replies until DOC_OK
/// (drained while writing); the next document starts after that.
/// Pushes one latency per document; returns how many failed.
fn replay_closed(
    conn: &mut Conn,
    encoded: &[EncodedDoc],
    expected: &[u64],
    latency_us: &mut Vec<f64>,
    tracer: &mut Tracer,
    parent: u32,
) -> Result<u64, String> {
    let mut failed = 0;
    for (d, doc) in encoded.iter().enumerate() {
        let t0 = Instant::now();
        let span = tracer.open("document", parent, d as u64);
        let (mut off, mut frame, mut frame_start) = (0usize, 0usize, tracer.now_ns());
        let mut h = FNV_OFFSET;
        let mut done = false;
        while !done {
            let wrote = conn.try_write(&doc.bytes[off..]).map_err(io_err)?;
            off += wrote;
            if tracer.on {
                while frame < doc.frame_ends.len() && off >= doc.frame_ends[frame] {
                    let now = tracer.now_ns();
                    tracer.span("FEED frame", frame_start, now, span, d as u64);
                    frame_start = now;
                    frame += 1;
                }
            }
            let read = conn.fill().map_err(io_err)?;
            while let Some(f) = conn.next_frame().map_err(io_err)? {
                match f.op {
                    op::RESULT | op::UPDATE => h = fold_frame(h, f.op, f.payload),
                    op::DOC_OK => done = true,
                    other => {
                        return Err(format!(
                            "document {d}: unexpected reply 0x{other:02x}: {}",
                            String::from_utf8_lossy(f.payload)
                        ))
                    }
                }
            }
            if wrote == 0 && read == 0 {
                if t0.elapsed() > REPLY_TIMEOUT {
                    return Err(format!("document {d}: no DOC_OK within 30 s"));
                }
                std::thread::yield_now();
            }
        }
        tracer.close(span);
        latency_us.push(t0.elapsed().as_secs_f64() * 1e6);
        failed += u64::from(h != expected[d]);
    }
    Ok(failed)
}

impl ServeBulk {
    pub fn new(cfg: Config) -> Result<Self, String> {
        let doc_bytes = cfg.bytes(2 * MIB);
        let t0 = Instant::now();
        let docs: Vec<Vec<u8>> = (0..BULK_DOCS)
            .map(|i| inputs::dblp_doc(inputs::subseed(cfg.seed, i as u64), doc_bytes))
            .collect();
        let gen_s = t0.elapsed().as_secs_f64();
        let encoded: Vec<EncodedDoc> = docs.iter().map(|d| encode_doc(d, CHUNK)).collect();
        let frames = request_frames(&docs, CHUNK);

        // Gate: index (pull) ≡ session (push) per document; engine ≡
        // DOM on the sample. Loopback is checked on every operation.
        let (expected, stats, groups) = index_reference(&BULK_QUERIES, &docs)?;
        let mut session = subscribed_session(&BULK_QUERIES)?;
        let mut via_session = HashSink::new();
        session_pass(
            &mut session,
            &frames,
            &mut via_session,
            &mut Tracer::new(false),
            NO_PARENT,
        );
        let sample = inputs::dblp_doc(inputs::subseed(cfg.seed, 0), doc_bytes.min(SAMPLE_BYTES));
        let failed = u64::from(via_session.docs != expected) + dom_gate(&BULK_QUERIES, &sample)?;
        Ok(ServeBulk {
            cfg,
            docs,
            encoded,
            frames,
            gen_s,
            expected,
            stats,
            groups,
            gate: (1 + BULK_QUERIES.len() as u64, failed),
        })
    }

    fn corpus_bytes(&self) -> usize {
        self.encoded.iter().map(|d| d.xml_len).sum()
    }
}

impl Workload for ServeBulk {
    fn gate(&self) -> (u64, u64) {
        self.gate
    }

    fn untraced(&mut self, seconds: f64) -> Result<Untraced, String> {
        let setup_s = sample_server_setups(self.cfg, &BULK_QUERIES)?;
        let server = start_server(false)?;
        let mut conn = connect_subscribed(server.addr(), &BULK_QUERIES)?;
        let mut tracer = Tracer::new(false);
        let replays = if self.cfg.smoke { 1 } else { BULK_REPLAYS };
        let (encoded, expected) = (&self.encoded, &self.expected);
        let mut latency = Vec::new();
        let mut failed = 0;
        let mut warm_up = Vec::new();
        let walls = timed_reps(self.cfg, seconds, |timed| {
            let latency = if timed { &mut latency } else { &mut warm_up };
            for _ in 0..replays {
                let wrong = replay_closed(
                    &mut conn,
                    encoded,
                    expected,
                    latency,
                    &mut tracer,
                    NO_PARENT,
                )?;
                failed += if timed { wrong } else { 0 };
            }
            Ok(())
        })?;
        let stat_json = stat_and_bye(conn)?;
        server.shutdown();

        let rep_bytes = self.corpus_bytes() * replays;
        Ok(Untraced {
            setup_s,
            throughput_mb_s: walls.iter().map(|w| mb(rep_bytes) / w).collect(),
            ops: latency.len() as u64,
            latency_us: latency,
            failed,
            peak_buffered_bytes: stat_field_u64(&stat_json, "peak_buffered_bytes")
                .ok_or("STAT_OK carries no peak_buffered_bytes")?,
            result_hash: corpus_hash(&self.expected),
            touches: 0,
        })
    }

    fn traced(&mut self, seconds: f64, tracer: &mut Tracer) -> Result<Layers, String> {
        let mut layers = Layers::default();
        let docs: Vec<&[u8]> = self.docs.iter().map(Vec::as_slice).collect();
        let (frames, encoded, expected) = (&self.frames[..], &self.encoded[..], &self.expected[..]);
        let server = start_server(false)?;
        let mut conn = connect_subscribed(server.addr(), &BULK_QUERIES)?;
        let mut index = QueryIndex::new(XsqEngine::full());
        index
            .subscribe_group(&BULK_QUERIES)
            .map_err(|e| e.to_string())?;
        let mut session3 = subscribed_session(&BULK_QUERIES)?;
        let mut session4 = subscribed_session(&BULK_QUERIES)?;
        let push_counts = Cell::new((0u64, 0u64));
        let mismatches = Cell::new(0u64);
        let loop_reps = Cell::new(0u64);
        let loop_wall = Cell::new(0.0f64);
        let before = conn.counters;
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
                name: "R3 Session::handle_frame + Outbox",
                charge: "server.session.self_s",
                run: Box::new(|tracer, span| {
                    let mut out = HashSink::new();
                    session_pass(&mut session3, frames, &mut out, tracer, span);
                    mismatches.set(mismatches.get() + u64::from(out.docs != expected));
                    Ok(())
                }),
            },
            Rung {
                name: "R4 + proto::{frame_bytes,read_frame}",
                charge: "server.proto.codec_s",
                run: Box::new(|_, _| {
                    let mut out = HashSink::new();
                    codec_pass(&mut session4, frames, &mut out)?;
                    mismatches.set(mismatches.get() + u64::from(out.docs != expected));
                    Ok(())
                }),
            },
            Rung {
                name: "R5 loopback",
                charge: "server.eventloop.transport_s",
                run: Box::new(|tracer, span| {
                    let t0 = Instant::now();
                    let mut latency = Vec::new();
                    let failed =
                        replay_closed(&mut conn, encoded, expected, &mut latency, tracer, span)?;
                    mismatches.set(mismatches.get() + failed);
                    loop_reps.set(loop_reps.get() + 1);
                    loop_wall.set(loop_wall.get() + t0.elapsed().as_secs_f64());
                    Ok(())
                }),
            },
        ];
        let ladder = run_ladder(seconds, tracer, &mut rungs)?;
        drop(rungs);
        let input_bytes = self.corpus_bytes();
        ladder.attribute(input_bytes, &mut layers);
        same_results(mismatches.get())?;
        let per_rep = counters_since(conn.counters, before, loop_reps.get());
        let stat_json = stat_and_bye(conn)?;
        server.shutdown();

        set_wire_layers(&mut layers, per_rep, frames.len() as u64);
        set_push_layers(&mut layers, push_counts.get());
        layers.set("server.session.busy_s", ladder.walls[2]);
        layers.set(
            "server.session.frame_p50_us",
            tracer.call_p50_us("Session::handle_frame"),
        );
        set_stat_layers(&mut layers, &stat_json, loop_wall.get());
        set_query_layers(&mut layers, &BULK_QUERIES, &self.stats, self.groups)?;
        layers.set("datagen.gen_s", self.gen_s);
        Ok(layers)
    }
}
