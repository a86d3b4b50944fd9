//! `serve_records`: one record per FEED frame, open loop.

use std::cell::Cell;
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use xsq_core::{QueryIndex, RunStats, VecQuerySink, XsqEngine};
use xsq_server::proto::{frame_bytes, op, Frame};
use xsq_server::stat_field_u64;
use xsq_xml::StreamParser;

use super::super::inproc::{push_doc, same_results, set_push_layers, set_query_layers};
use super::super::{mb, run_ladder, Config, Rung, Untraced, Workload};
use super::{
    codec_pass, connect_subscribed, corpus_hash, counters_since, dom_gate, io_err,
    sample_server_setups, session_pass, set_stat_layers, set_wire_layers, start_server,
    stat_and_bye, subscribed_session,
};
use crate::hash::{fold_frame, HashSink, NullSink, FNV_OFFSET};
use crate::inputs::{self, MIB, SAMPLE_BYTES};
use crate::metrics::Layers;
use crate::stats;
use crate::trace::{Tracer, NO_PARENT};
use crate::wire::{Conn, REPLY_TIMEOUT};

const RECORD_QUERIES: [&str; 2] = [
    "/dblp/article/title/text()",
    "/dblp/inproceedings[booktitle]/title/text()",
];
/// Open-loop arrival rate, records per second. The issue that
/// specified the workload proposed 5 000/s; that gap (200 µs) equals
/// KVM's default halt-poll window, so the idle server vCPU is woken
/// now from polling, now from a halt, and p50 spread 28 % across ten
/// seeds (30 % at 2 500/s). At 10 000/s the gap stays inside the
/// window: p50 ≈ 12 µs, spread 1.3 %.
const RECORD_RATE: f64 = 10_000.0;
const WARM_SECONDS: f64 = 1.0;
/// A RESULT later than this past its record's due time fails the record.
const LATE_LIMIT_US: f64 = 250_000.0;
/// Records per ladder repetition.
const LADDER_RECORDS: usize = 20_000;

pub struct ServeRecords {
    cfg: Config,
    gen_s: f64,
    /// One FEED frame per record, encoded back to back.
    wire: Vec<u8>,
    /// `wire[ends[i-1]..ends[i]]` is record `i`'s frame.
    ends: Vec<usize>,
    /// XML bytes per record.
    xml_len: Vec<usize>,
    frames: Vec<Frame>,
    /// Hash of the one RESULT frame each record must produce.
    expected: Vec<u64>,
    stats: RunStats,
    groups: usize,
    gate: (u64, u64),
}

fn open_frame() -> Frame {
    Frame {
        op: op::FEED,
        payload: b"<dblp>".to_vec(),
    }
}

fn close_frames() -> [Frame; 2] {
    [
        Frame {
            op: op::FEED,
            payload: b"</dblp>".to_vec(),
        },
        Frame {
            op: op::END_DOC,
            payload: Vec::new(),
        },
    ]
}

/// What one open-loop run observed.
struct OpenLoop {
    latency_us: Vec<f64>,
    gen_late_us: Vec<f64>,
    failed: u64,
    wall_s: f64,
    xml_bytes: usize,
}

impl ServeRecords {
    pub fn new(cfg: Config) -> Result<Self, String> {
        let t0 = Instant::now();
        let doc = inputs::dblp_doc(cfg.seed, cfg.bytes(24 * MIB));
        let records = inputs::dblp_records(&doc);
        let gen_s = t0.elapsed().as_secs_f64();

        let mut wire = Vec::with_capacity(doc.len() + records.len() * 5);
        let mut ends = Vec::with_capacity(records.len());
        let mut frames = Vec::with_capacity(records.len());
        for r in &records {
            wire.extend_from_slice(&frame_bytes(op::FEED, &doc[r.clone()]));
            ends.push(wire.len());
            frames.push(Frame {
                op: op::FEED,
                payload: doc[r.clone()].to_vec(),
            });
        }

        // The reference: the whole document through one index. The
        // workload's premise — exactly one RESULT per record, in record
        // order — is checked here, not assumed.
        let mut index = QueryIndex::new(XsqEngine::full());
        index
            .subscribe_group(&RECORD_QUERIES)
            .map_err(|e| e.to_string())?;
        let mut collected = VecQuerySink::new();
        let stats = index
            .run_document(&doc, &mut collected)
            .map_err(|e| e.to_string())?;
        if collected.results.len() != records.len() {
            return Err(format!(
                "{} results for {} records: serve_records needs exactly one each",
                collected.results.len(),
                records.len()
            ));
        }
        let expected: Vec<u64> = collected
            .results
            .iter()
            .map(|(id, value)| {
                let mut one = HashSink::new();
                xsq_core::QuerySink::result(&mut one, *id, value);
                one.h
            })
            .collect();

        // Gate: the session, fed one record per frame, answers each
        // with exactly that RESULT; engine ≡ DOM on the sample.
        let mut session = subscribed_session(&RECORD_QUERIES)?;
        let mut sink = HashSink::new();
        session.handle_frame(&open_frame(), &mut sink);
        let mut wrong = 0u64;
        for (frame, want) in frames.iter().zip(&expected) {
            let mut one = HashSink::new();
            session.handle_frame(frame, &mut one);
            wrong += u64::from(one.results != 1 || one.h != *want);
        }
        let sample = inputs::dblp_doc(cfg.seed, doc.len().min(SAMPLE_BYTES));
        let failed = u64::from(wrong > 0) + dom_gate(&RECORD_QUERIES, &sample)?;
        Ok(ServeRecords {
            cfg,
            gen_s,
            wire,
            ends,
            xml_len: records.iter().map(|r| r.len()).collect(),
            frames,
            expected,
            stats,
            groups: index.group_count(),
            gate: (1 + RECORD_QUERIES.len() as u64, failed),
        })
    }

    fn frame(&self, i: usize) -> &[u8] {
        let i = i % self.ends.len();
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.wire[start..self.ends[i]]
    }

    /// A connection mid-document: subscribed, `<dblp>` already fed.
    fn connect(&self, addr: SocketAddr) -> Result<Conn, String> {
        let mut conn = connect_subscribed(addr, &RECORD_QUERIES)?;
        conn.write_all(&frame_bytes(op::FEED, b"<dblp>"))
            .map_err(io_err)?;
        Ok(conn)
    }

    /// Close the endless document and the connection.
    fn finish(&self, mut conn: Conn) -> Result<String, String> {
        conn.write_all(&frame_bytes(op::FEED, b"</dblp>"))
            .map_err(io_err)?;
        conn.expect(None, op::END_DOC, &[], op::DOC_OK)
            .map_err(io_err)?;
        stat_and_bye(conn)
    }

    /// Open loop: record `i` is due at `i / RECORD_RATE` whatever
    /// happened to the records before it; one spin-polling client both
    /// sends and receives. Latency is RESULT arrival minus the record's
    /// *due* time, so a stall charges every record it delayed. The
    /// first `warm` records are sent and checked but not reported.
    fn open_loop(
        &self,
        conn: &mut Conn,
        warm: usize,
        measured: usize,
        tracer: &mut Tracer,
    ) -> Result<OpenLoop, String> {
        let total = warm + measured;
        let gap = Duration::from_secs_f64(1.0 / RECORD_RATE);
        let due = |i: usize| gap * i as u32;
        let mut out = OpenLoop {
            latency_us: Vec::with_capacity(measured),
            gen_late_us: Vec::with_capacity(measured),
            failed: 0,
            wall_s: 0.0,
            xml_bytes: 0,
        };
        let (mut sent, mut received, mut off) = (0usize, 0usize, 0usize);
        let start = Instant::now();
        let mut last_progress = start;
        while received < total {
            let mut now = start.elapsed();
            while sent < total && now >= due(sent) {
                let frame = self.frame(sent);
                let wrote = conn.try_write(&frame[off..]).map_err(io_err)?;
                off += wrote;
                if off < frame.len() {
                    break;
                }
                if sent >= warm {
                    out.gen_late_us.push((now - due(sent)).as_secs_f64() * 1e6);
                    out.xml_bytes += self.xml_len[sent % self.xml_len.len()];
                }
                off = 0;
                sent += 1;
                now = start.elapsed();
            }
            if conn.fill().map_err(io_err)? > 0 {
                let arrived = start.elapsed();
                last_progress = start + arrived;
                while let Some(f) = conn.next_frame().map_err(io_err)? {
                    if f.op != op::RESULT {
                        return Err(format!(
                            "record {received}: unexpected reply 0x{:02x}: {}",
                            f.op,
                            String::from_utf8_lossy(f.payload)
                        ));
                    }
                    let want = self.expected[received % self.expected.len()];
                    let late_us = arrived.saturating_sub(due(received)).as_secs_f64() * 1e6;
                    let ok = fold_frame(FNV_OFFSET, f.op, f.payload) == want;
                    if received >= warm {
                        out.latency_us.push(late_us);
                        out.failed += u64::from(!ok || late_us > LATE_LIMIT_US);
                        if tracer.on {
                            let t0 = tracer.now_ns();
                            let lat = (late_us * 1e3) as u64;
                            tracer.span(
                                "record",
                                t0.saturating_sub(lat),
                                t0,
                                NO_PARENT,
                                received as u64,
                            );
                            tracer.call("record due→RESULT", lat);
                        }
                    } else if !ok {
                        return Err(format!("warm-up record {received}: wrong RESULT"));
                    }
                    received += 1;
                }
            } else if last_progress.elapsed() > REPLY_TIMEOUT {
                return Err(format!("record {received}: no RESULT within 30 s"));
            }
            std::hint::spin_loop();
        }
        out.wall_s = (start.elapsed() - due(warm)).as_secs_f64();
        Ok(out)
    }

    /// R5: the same records over loopback, one at a time — send a
    /// record, wait for its RESULT, send the next — so the wall-clock
    /// is the sum of unqueued round trips.
    fn ping_pong(&self, conn: &mut Conn, n: usize) -> Result<u64, String> {
        let mut wrong = 0;
        for i in 0..n {
            conn.write_all(self.frame(i)).map_err(io_err)?;
            let t0 = Instant::now();
            loop {
                if conn.fill().map_err(io_err)? > 0 {
                    if let Some(f) = conn.next_frame().map_err(io_err)? {
                        let want = self.expected[i % self.expected.len()];
                        wrong += u64::from(
                            f.op != op::RESULT || fold_frame(FNV_OFFSET, f.op, f.payload) != want,
                        );
                        break;
                    }
                } else if t0.elapsed() > REPLY_TIMEOUT {
                    return Err(format!("record {i}: no RESULT within 30 s"));
                }
                std::hint::spin_loop();
            }
        }
        Ok(wrong)
    }
}

impl Workload for ServeRecords {
    fn gate(&self) -> (u64, u64) {
        self.gate
    }

    fn untraced(&mut self, seconds: f64) -> Result<Untraced, String> {
        let setup_s = sample_server_setups(self.cfg, &RECORD_QUERIES)?;
        let server = start_server(false)?;
        let mut conn = self.connect(server.addr())?;
        let (warm_s, seconds) = if self.cfg.smoke {
            (0.05, 0.25)
        } else {
            (WARM_SECONDS, seconds)
        };
        let run = self.open_loop(
            &mut conn,
            (warm_s * RECORD_RATE) as usize,
            (seconds * RECORD_RATE) as usize,
            &mut Tracer::new(false),
        )?;
        let stat_json = self.finish(conn)?;
        server.shutdown();
        Ok(Untraced {
            setup_s,
            throughput_mb_s: vec![mb(run.xml_bytes) / run.wall_s],
            ops: run.latency_us.len() as u64,
            latency_us: run.latency_us,
            failed: run.failed,
            peak_buffered_bytes: stat_field_u64(&stat_json, "peak_buffered_bytes")
                .ok_or("STAT_OK carries no peak_buffered_bytes")?,
            result_hash: corpus_hash(&self.expected),
            touches: 0,
        })
    }

    fn traced(&mut self, seconds: f64, tracer: &mut Tracer) -> Result<Layers, String> {
        let mut layers = Layers::default();
        let this = &*self;
        let n = if this.cfg.smoke { 500 } else { LADDER_RECORDS }.min(this.frames.len());
        let records = &this.frames[..n];
        let expected = &this.expected[..n];
        let xml: usize = this.xml_len[..n].iter().sum();

        let server = start_server(false)?;
        let mut conn = this.connect(server.addr())?;
        let mut open_conn = this.connect(server.addr())?;
        let mut index = QueryIndex::new(XsqEngine::full());
        index
            .subscribe_group(&RECORD_QUERIES)
            .map_err(|e| e.to_string())?;
        let mut session3 = subscribed_session(&RECORD_QUERIES)?;
        let mut session4 = subscribed_session(&RECORD_QUERIES)?;
        let push_counts = Cell::new((0u64, 0u64));
        let mismatches = Cell::new(0u64);
        let first_hash: Cell<Option<u64>> = Cell::new(None);
        let check = |out: &HashSink| {
            // One endless document: every record's one RESULT, and the
            // same document hash from every pass of either rung (the
            // gate checked the records one by one).
            let doc_hash = out.docs.first().copied();
            let reference = first_hash.get().or(doc_hash);
            first_hash.set(reference);
            let ok =
                doc_hash.is_some() && doc_hash == reference && out.results == expected.len() as u64;
            mismatches.set(mismatches.get() + u64::from(!ok));
        };
        // The endless document as the parser sees it: one push per
        // record, between the root's tags.
        let pieces = || {
            std::iter::once(&b"<dblp>"[..])
                .chain(records.iter().map(|f| &f.payload[..]))
                .chain(std::iter::once(&b"</dblp>"[..]))
        };
        let mut rungs = [
            Rung {
                name: "R1 PushParser::{push,poll_raw}",
                charge: "xmlstream.push.busy_s",
                run: Box::new(|_, _| {
                    let mut events = 0u64;
                    let need_more = push_doc(&mut StreamParser::push_mode(), pieces(), |ev| {
                        black_box(ev);
                        events += 1;
                    });
                    push_counts.set((events, need_more));
                    Ok(())
                }),
            },
            Rung {
                name: "R2 + QueryIndex::feed_raw (null sink)",
                charge: "core.qindex.busy_s",
                run: Box::new(|_, _| {
                    push_doc(&mut StreamParser::push_mode(), pieces(), |ev| {
                        index.feed_raw(ev, &mut NullSink)
                    });
                    black_box(index.finish(&mut NullSink));
                    Ok(())
                }),
            },
            Rung {
                name: "R3 Session::handle_frame + Outbox",
                charge: "server.session.self_s",
                run: Box::new(|tracer, span| {
                    let mut out = HashSink::new();
                    session3.handle_frame(&open_frame(), &mut out);
                    session_pass(&mut session3, records, &mut out, tracer, span);
                    for f in close_frames() {
                        session3.handle_frame(&f, &mut out);
                    }
                    check(&out);
                    Ok(())
                }),
            },
            Rung {
                name: "R4 + proto::{frame_bytes,read_frame}",
                charge: "server.proto.codec_s",
                run: Box::new(|_, _| {
                    let mut out = HashSink::new();
                    codec_pass(&mut session4, &[open_frame()], &mut out)?;
                    codec_pass(&mut session4, records, &mut out)?;
                    codec_pass(&mut session4, &close_frames(), &mut out)?;
                    check(&out);
                    Ok(())
                }),
            },
            Rung {
                name: "R5 loopback, one record in flight",
                charge: "server.eventloop.transport_s",
                run: Box::new(|_, _| {
                    let wrong = this.ping_pong(&mut conn, n)?;
                    mismatches.set(mismatches.get() + wrong);
                    Ok(())
                }),
            },
        ];
        let ladder = run_ladder(seconds / 2.0, tracer, &mut rungs)?;
        drop(rungs);
        ladder.attribute(xml, &mut layers);
        same_results(mismatches.get())?;
        set_push_layers(&mut layers, push_counts.get());
        layers.set("server.session.busy_s", ladder.walls[2]);
        layers.set(
            "server.session.frame_p50_us",
            tracer.call_p50_us("Session::handle_frame"),
        );

        this.finish(conn)?;

        // The open loop itself, on a connection of its own, traced from
        // the client's side.
        let (warm_s, open_s) = if this.cfg.smoke {
            (0.05, 0.25)
        } else {
            (WARM_SECONDS, seconds / 2.0)
        };
        let before = open_conn.counters;
        let t0 = Instant::now();
        let run = this.open_loop(
            &mut open_conn,
            (warm_s * RECORD_RATE) as usize,
            (open_s * RECORD_RATE) as usize,
            tracer,
        )?;
        let open_wall = t0.elapsed().as_secs_f64();
        let per_run = counters_since(open_conn.counters, before, 1);
        let stat_json = this.finish(open_conn)?;
        server.shutdown();
        if run.failed > 0 {
            return Err(format!("{} traced records failed", run.failed));
        }
        let lat = stats::sorted(&run.latency_us);
        let late = stats::sorted(&run.gen_late_us);
        layers.set("client.result_latency_p50_us", stats::quantile(&lat, 0.50));
        layers.set("client.result_latency_p90_us", stats::quantile(&lat, 0.90));
        layers.set("client.result_latency_p99_us", stats::quantile(&lat, 0.99));
        layers.set(
            "client.result_latency_max_us",
            *lat.last().expect("records ran"),
        );
        layers.set("client.gen_late_p99_us", stats::quantile(&late, 0.99));
        set_wire_layers(&mut layers, per_run, run.latency_us.len() as u64);
        set_stat_layers(&mut layers, &stat_json, open_wall);
        set_query_layers(&mut layers, &RECORD_QUERIES, &this.stats, this.groups)?;
        layers.set("datagen.gen_s", this.gen_s);
        Ok(layers)
    }
}
