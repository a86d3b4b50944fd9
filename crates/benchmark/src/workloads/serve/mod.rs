//! The loopback workloads: `serve_bulk`, `serve_records`,
//! `broadcast_fanout`, and what they share. The server runs
//! in-process through `xsq_server::serve` (default event-loop model,
//! `127.0.0.1` only); the generator is this one thread with at most
//! two connections.

mod broadcast;
mod bulk;
mod records;

pub use broadcast::BroadcastFanout;
pub use bulk::ServeBulk;
pub use records::ServeRecords;

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use xsq_baselines::dom;
use xsq_core::{QueryId, QueryIndex, RunStats, VecQuerySink, XsqEngine};
use xsq_server::proto::{frame_bytes, op, read_frame, Frame, MAX_FRAME};
use xsq_server::{
    serve, stat_field_u64, BroadcastOptions, BroadcastPolicy, Outbox, ServeOptions, ServerHandle,
    Session,
};

use super::inproc::pull_index;
use super::{dom_results, sample_setups, Config};
use crate::hash::{HashSink, FNV_OFFSET};
use crate::metrics::Layers;
use crate::trace::Tracer;
use crate::wire::{Conn, WireCounters};

fn io_err(e: std::io::Error) -> String {
    format!("wire: {e}")
}

/// Pin the calling thread (and the threads it spawns from now on) to
/// one CPU. Best effort: elsewhere than Linux, or when refused, the
/// scheduler places threads as it likes.
fn pin_to_cpu(cpu: usize) {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        let mask: u64 = 1 << (cpu % 64);
        // SAFETY: `mask` is a live 8-byte CPU set and `cpusetsize` says
        // so; pid 0 is the calling thread. The call only reads `mask`.
        unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
    }
    #[cfg(not(target_os = "linux"))]
    let _ = cpu;
}

/// Start the in-process server with its threads on the last CPU and
/// keep the generator (this thread) on CPU 0. Unpinned, the kernel's
/// wake-affine placement puts the server's loop thread now beside the
/// spinning client, now on the other core: ten runs of `serve_bulk`
/// spread 19 % (1.8 % pinned). The server is started from a short-lived
/// thread that pins itself first — its threads inherit the mask — so
/// this thread is never migrated back and forth.
fn start_server(broadcast: bool) -> Result<ServerHandle, String> {
    let mut opts = ServeOptions::new("127.0.0.1:0");
    opts.idle_timeout = Duration::from_secs(120);
    if broadcast {
        opts.broadcast = Some(BroadcastOptions {
            queue: 4096,
            policy: BroadcastPolicy::Block,
        });
    }
    pin_to_cpu(0);
    let server_cpu = std::thread::available_parallelism().map_or(1, |n| n.get()) - 1;
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                pin_to_cpu(server_cpu);
                serve(opts)
            })
            .join()
    })
    .map_err(|_| "the server's starter thread panicked".to_string())?
    .map_err(|e| format!("bind: {e}"))
}

/// Stop servers side by side: each waits out its own 100 ms poll tick.
fn shutdown_all(servers: Vec<ServerHandle>) {
    std::thread::scope(|scope| {
        for server in servers {
            scope.spawn(move || server.shutdown());
        }
    });
}

/// The wire-v1 request frames of one document, encoded once: FEED per
/// `chunk`, then END-DOC.
struct EncodedDoc {
    bytes: Vec<u8>,
    /// Offset one past each FEED frame, for the per-frame spans.
    frame_ends: Vec<usize>,
    xml_len: usize,
}

fn encode_doc(doc: &[u8], chunk: usize) -> EncodedDoc {
    let mut bytes = Vec::with_capacity(doc.len() + doc.len() / chunk * 8 + 64);
    let mut frame_ends = Vec::new();
    for piece in doc.chunks(chunk) {
        bytes.extend_from_slice(&frame_bytes(op::FEED, piece));
        frame_ends.push(bytes.len());
    }
    bytes.extend_from_slice(&frame_bytes(op::END_DOC, &[]));
    EncodedDoc {
        bytes,
        frame_ends,
        xml_len: doc.len(),
    }
}

/// The decoded request frames of a corpus, for the in-process rungs.
fn request_frames(docs: &[Vec<u8>], chunk: usize) -> Vec<Frame> {
    let mut frames = Vec::new();
    for doc in docs {
        for piece in doc.chunks(chunk) {
            frames.push(Frame {
                op: op::FEED,
                payload: piece.to_vec(),
            });
        }
        frames.push(Frame {
            op: op::END_DOC,
            payload: Vec::new(),
        });
    }
    frames
}

fn sub_frame(queries: &[&str]) -> Frame {
    Frame {
        op: op::SUB,
        payload: queries.join("\n").into_bytes(),
    }
}

/// A session with `queries` subscribed, ready for FEED frames.
fn subscribed_session(queries: &[&str]) -> Result<Session, String> {
    let mut session = Session::new(XsqEngine::full());
    let mut out = HashSink::new();
    session.handle_frame(&sub_frame(queries), &mut out);
    if out.errors > 0 {
        return Err("in-process SUB was refused".into());
    }
    Ok(session)
}

/// R3: the frames through `Session::handle_frame`, a clock read either
/// side of each call.
fn session_pass(
    session: &mut Session,
    frames: &[Frame],
    out: &mut HashSink,
    tracer: &mut Tracer,
    parent: u32,
) {
    for (i, frame) in frames.iter().enumerate() {
        let t0 = if tracer.on { tracer.now_ns() } else { 0 };
        session.handle_frame(frame, out);
        if tracer.on {
            let t1 = tracer.now_ns();
            tracer.call("Session::handle_frame", t1 - t0);
            tracer.span("handle_frame", t0, t1, parent, i as u64);
        }
    }
}

/// An [`Outbox`] that encodes every reply as the server would.
struct EncodingOutbox(Vec<u8>);

impl Outbox for EncodingOutbox {
    fn send(&mut self, opcode: u8, payload: &[u8]) {
        self.0.extend_from_slice(&frame_bytes(opcode, payload));
    }
}

/// R4: R3 plus the codec — every request frame is encoded and decoded
/// again before the session sees it, every reply encoded by the
/// outbox and decoded before it is hashed.
fn codec_pass(session: &mut Session, frames: &[Frame], out: &mut HashSink) -> Result<(), String> {
    let mut replies = EncodingOutbox(Vec::new());
    for frame in frames {
        let wire = frame_bytes(frame.op, &frame.payload);
        let decoded = read_frame(&mut &wire[..], MAX_FRAME)
            .map_err(io_err)?
            .ok_or("empty request frame")?;
        session.handle_frame(&decoded, &mut replies);
        let mut cursor = &replies.0[..];
        while let Some(reply) = read_frame(&mut cursor, MAX_FRAME).map_err(io_err)? {
            out.send(reply.op, &reply.payload);
        }
        replies.0.clear();
    }
    Ok(())
}

/// Per-document reference hashes and stats from one in-process index.
fn index_reference(
    queries: &[&str],
    docs: &[Vec<u8>],
) -> Result<(Vec<u64>, RunStats, usize), String> {
    let mut index = QueryIndex::new(XsqEngine::full());
    index.subscribe_group(queries).map_err(|e| e.to_string())?;
    let mut sink = HashSink::new();
    let mut worst: Option<RunStats> = None;
    for doc in docs {
        let stats = pull_index(&mut index, doc, &mut sink);
        sink.end_doc();
        if worst
            .as_ref()
            .is_none_or(|w| stats.memory.peak_bytes > w.memory.peak_bytes)
        {
            worst = Some(stats);
        }
    }
    let groups = index.group_count();
    Ok((sink.docs, worst.expect("a corpus has documents"), groups))
}

/// The DOM half of the gate: each query over a ≤ 1 MiB same-seed
/// sample, against the index's per-query results. Returns failures.
fn dom_gate(queries: &[&str], sample: &[u8]) -> Result<u64, String> {
    let mut index = QueryIndex::new(XsqEngine::full());
    index.subscribe_group(queries).map_err(|e| e.to_string())?;
    let mut collected = VecQuerySink::new();
    index
        .run_document(sample, &mut collected)
        .map_err(|e| e.to_string())?;
    let tree = dom::Document::parse(sample).map_err(|e| e.to_string())?;
    let mut failed = 0;
    for (i, q) in queries.iter().enumerate() {
        failed += u64::from(collected.of(QueryId(i as u32)) != dom_results(&tree, q)?);
    }
    Ok(failed)
}

fn set_wire_layers(layers: &mut Layers, per_rep: WireCounters, frames_out: u64) {
    layers.set("server.proto.frames_in", frames_out as f64);
    layers.set("server.proto.frames_out", per_rep.frames_in as f64);
    layers.set("server.proto.bytes_in", per_rep.bytes_out as f64);
    layers.set("server.proto.bytes_out", per_rep.bytes_in as f64);
    layers.set("client.read_calls", per_rep.read_calls as f64);
    layers.set("client.write_calls", per_rep.write_calls as f64);
}

fn counters_since(now: WireCounters, then: WireCounters, reps: u64) -> WireCounters {
    WireCounters {
        read_calls: (now.read_calls - then.read_calls) / reps,
        write_calls: (now.write_calls - then.write_calls) / reps,
        bytes_in: (now.bytes_in - then.bytes_in) / reps,
        bytes_out: (now.bytes_out - then.bytes_out) / reps,
        frames_in: (now.frames_in - then.frames_in) / reps,
    }
}

/// One hash for a corpus: its documents' hashes folded together.
fn corpus_hash(docs: &[u64]) -> u64 {
    docs.iter().fold(FNV_OFFSET, |h, d| h ^ d)
}

/// What STAT_OK says about the event loop, against the `wall` seconds
/// the client spent feeding this connection.
fn set_stat_layers(layers: &mut Layers, stat_json: &str, wall: f64) {
    layers.set(
        "server.eventloop.queue_depth_hwm",
        stat_field_u64(stat_json, "queue_depth_hwm").unwrap_or(0) as f64,
    );
    layers.set(
        "server.eventloop.ingest_share",
        ingest_seconds(stat_json) / wall,
    );
}

/// STAT, then BYE: the session's final counters as the connection
/// closes.
fn stat_and_bye(mut conn: Conn) -> Result<String, String> {
    let stat_json = stat(&mut conn)?;
    conn.expect(None, op::BYE, &[], op::OK).map_err(io_err)?;
    Ok(stat_json)
}

/// STAT on a v1 connection; returns the JSON.
fn stat(conn: &mut Conn) -> Result<String, String> {
    let reply = conn
        .expect(None, op::STAT, &[], op::STAT_OK)
        .map_err(io_err)?;
    String::from_utf8(reply.payload).map_err(|e| e.to_string())
}

/// Seconds the server spent inside FEED/END-DOC handling, recovered
/// from STAT's `bytes_in` and `ingest_mb_per_sec` (MiB/s, 2 decimals).
fn ingest_seconds(stat_json: &str) -> f64 {
    let bytes = stat_field_u64(stat_json, "bytes_in").unwrap_or(0) as f64;
    let pat = "\"ingest_mb_per_sec\":";
    let rate: f64 = stat_json
        .find(pat)
        .and_then(|at| {
            let rest = &stat_json[at + pat.len()..];
            rest[..rest.find([',', '}']).unwrap_or(rest.len())]
                .parse()
                .ok()
        })
        .unwrap_or(0.0);
    if rate > 0.0 {
        bytes / (1024.0 * 1024.0) / rate
    } else {
        0.0
    }
}

/// A v1 connection to a fresh server with `queries` subscribed.
fn connect_subscribed(addr: SocketAddr, queries: &[&str]) -> Result<Conn, String> {
    let mut conn = Conn::connect(addr, false).map_err(io_err)?;
    conn.expect(None, op::SUB, queries.join("\n").as_bytes(), op::SUB_OK)
        .map_err(io_err)?;
    Ok(conn)
}

/// Fresh server set-ups: a warm-up batch that is thrown away (the
/// first servers of a process pay for its first thread stacks and
/// sockets: an A/A run's first pass read 40 % above its second), then
/// three batches of 31 (one of 3 under `--smoke`). Every sampled server
/// lives until its batch is stopped, and stopping is the slow part
/// (each waits out its 100 ms poll tick, side by side). `setup`
/// returns the timed seconds and the server.
fn sample_fresh_servers(
    cfg: Config,
    mut setup: impl FnMut() -> Result<(f64, ServerHandle), String>,
) -> Result<Vec<f64>, String> {
    let mut samples = Vec::new();
    let batches = if cfg.smoke { 1 } else { 3 };
    for batch in 0..=batches {
        let mut servers = Vec::new();
        let timed = sample_setups(cfg, cfg.min_setups(), || {
            let (seconds, server) = setup()?;
            servers.push(server);
            Ok(seconds)
        });
        shutdown_all(servers);
        if batch > 0 {
            samples.extend(timed?);
        }
    }
    Ok(samples)
}

/// Fresh set-ups of a query-serving connection: bind + connect +
/// SUB → SUB_OK.
fn sample_server_setups(cfg: Config, queries: &[&str]) -> Result<Vec<f64>, String> {
    sample_fresh_servers(cfg, || {
        let t0 = Instant::now();
        let server = start_server(false)?;
        let conn = connect_subscribed(server.addr(), queries)?;
        let seconds = t0.elapsed().as_secs_f64();
        drop(conn);
        Ok((seconds, server))
    })
}
