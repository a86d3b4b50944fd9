//! Server-path ablation for the streaming query server (dependency-free).
//!
//! Measures what the wire costs: the same corpus and standing query set
//! evaluated (a) **in-process** through the sequential reference driver,
//! (b) **over loopback TCP** through the server's readiness loop with
//! 1, 8, and 64 concurrent client sessions, and (c) in **broadcast
//! mode**, where one feeder parses the corpus once and a shared
//! `QueryIndex` fans results to every subscriber.
//!
//! Correctness is gated, throughput is not: the single-session client
//! transcript and every broadcast subscriber transcript must be
//! byte-identical to the reference driver's output; the
//! `relative_to_in_process` ratios and broadcast throughput are
//! recorded, never asserted.
//!
//! Per-session wire bytes are recorded so the fan-out amplification
//! factor (result bytes out / ingest bytes in) is visible — the number
//! that says what broadcast saves over N private sessions.
//!
//! Writes machine-readable results to `BENCH_serve.json` at the repo
//! root (override with the first CLI argument) and prints a table.
//! Run with `cargo run --release -p xsq-bench --bin serve-bench`.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use xsq_core::{run_sequential_with, QuerySet, XsqEngine};
use xsq_server::{
    broadcast_feed, broadcast_subscribe, reference_output, run_corpus, serve, BroadcastOptions,
    BroadcastPolicy, ConnectOptions, FeedOptions, ServeOptions,
};

const DOCS: usize = 12;
const DOC_BYTES: usize = 24 * 1024;
const SESSION_COUNTS: &[usize] = &[1, 8, 64];
const BROADCAST_SUBS: &[usize] = &[16, 256];

/// The paper-vocabulary standing set the shard ablation uses: structural
/// paths, predicates, closures, attributes, aggregations.
const QUERIES: &[&str] = &[
    "//pub[year]//book[@id]/title/text()",
    "//pub/book/title/text()",
    "//book/@id",
    "//book/price/text()",
    "//price/sum()",
    "//book/count()",
];

fn corpus() -> Vec<Vec<u8>> {
    (0..DOCS)
        .map(|i| {
            let params = xsq_datagen::xmlgen::XmlGenParams {
                nested_levels: 4 + (i as u32 % 4),
                max_repeats: 6 + (i as u32 % 5),
                seed: 100 + i as u64,
            };
            xsq_datagen::xmlgen::generate(params, DOC_BYTES).into_bytes()
        })
        .collect()
}

fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(r);
    }
    (best, last.unwrap())
}

struct Row {
    sessions: usize,
    secs: f64,
    events_per_sec: f64,
    results_per_sec: f64,
    relative: f64,
    /// Mean wire bytes one session sent (SUB + FEED framing + corpus).
    wire_out_per_session: u64,
    /// Mean wire bytes one session received (results + boundaries).
    wire_in_per_session: u64,
    /// Result bytes out / ingest bytes in, per session.
    amplification: f64,
}

struct BroadcastRow {
    subscribers: usize,
    secs: f64,
    /// Events the feeder's single parse produced per second.
    ingest_events_per_sec: f64,
    /// Events *delivered* per second: one parse, N deliveries.
    fanout_events_per_sec: f64,
    ingest_bytes: u64,
    results_bytes_total: u64,
    /// Total result bytes to all subscribers / ingest bytes once.
    amplification: f64,
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json").to_string()
    });
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let docs = corpus();
    let corpus_bytes: usize = docs.iter().map(Vec::len).sum();
    let reps = 3;

    // ---- In-process baseline: the zero-copy sequential driver ----
    let set = QuerySet::compile(XsqEngine::full(), QUERIES).expect("queries compile");
    let (seq_secs, (seq_events, seq_results)) = best_of(reps, || {
        let mut events = 0u64;
        let mut results = 0u64;
        run_sequential_with(&set, &docs, |_, out| {
            events += out.events;
            results += (out.results.len() + out.updates.len()) as u64;
        })
        .expect("sequential corpus run");
        (events, results)
    });
    let in_events_per_sec = seq_events as f64 / seq_secs;
    let in_results_per_sec = seq_results as f64 / seq_secs;

    println!(
        "corpus: {DOCS} docs, {corpus_bytes} bytes, {} queries, {cores} cores",
        QUERIES.len()
    );
    println!(
        "in-process: {seq_events} events, {seq_results} results in {seq_secs:.4}s \
         ({in_events_per_sec:.0} ev/s, {in_results_per_sec:.0} res/s)"
    );

    // ---- Correctness gate: 1-session transcript == reference driver ----
    let expected =
        reference_output(XsqEngine::full(), QUERIES, &docs, true).expect("reference run");
    serve_and_check(ServeOptions::new("127.0.0.1:0"), &docs, &expected);
    println!("gate: 1-session loopback transcript matches the sequential driver");

    // ---- Server rows: S concurrent sessions ----
    println!(
        "\n{:>9} {:>9} {:>10} {:>13} {:>13} {:>9} {:>11} {:>7}",
        "model", "sessions", "secs", "events/s", "results/s", "vs inproc", "in B/sess", "amp"
    );
    let mut rows: Vec<Row> = Vec::new();
    for &sessions in SESSION_COUNTS {
        let mut opts = ServeOptions::new("127.0.0.1:0");
        opts.idle_timeout = Duration::from_secs(60);
        let server = serve(opts).expect("server binds");
        let addr = server.addr().to_string();
        let docs_ref = &docs;
        let (secs, (wire_out, wire_in)) = best_of(reps, || {
            let sums = std::sync::Mutex::new((0u64, 0u64));
            std::thread::scope(|scope| {
                for _ in 0..sessions {
                    let addr = addr.clone();
                    let sums = &sums;
                    scope.spawn(move || {
                        let copts = ConnectOptions {
                            chunk: 64 * 1024,
                            running: true,
                            want_stats: false,
                        };
                        let mut out = Vec::new();
                        let report = run_corpus(&addr, QUERIES, docs_ref, &copts, &mut out)
                            .expect("session replay");
                        let mut s = sums.lock().unwrap();
                        s.0 += report.wire_out;
                        s.1 += report.wire_in;
                    });
                }
            });
            sums.into_inner().unwrap()
        });
        server.shutdown();
        let total_events = seq_events * sessions as u64;
        let total_results = seq_results * sessions as u64;
        let events_per_sec = total_events as f64 / secs;
        let results_per_sec = total_results as f64 / secs;
        let relative = events_per_sec / in_events_per_sec;
        let wire_out_per_session = wire_out / sessions as u64;
        let wire_in_per_session = wire_in / sessions as u64;
        let amplification = wire_in as f64 / wire_out as f64;
        println!(
            "{:>9} {:>9} {:>10.4} {:>13.0} {:>13.0} {:>8.2}x {:>11} {:>7.3}",
            "eventloop",
            sessions,
            secs,
            events_per_sec,
            results_per_sec,
            relative,
            wire_in_per_session,
            amplification
        );
        rows.push(Row {
            sessions,
            secs,
            events_per_sec,
            results_per_sec,
            relative,
            wire_out_per_session,
            wire_in_per_session,
            amplification,
        });
    }

    // ---- Broadcast rows: one feeder parse, N subscriber deliveries ----
    let mut brows: Vec<BroadcastRow> = Vec::new();
    println!(
        "\n{:>11} {:>10} {:>14} {:>16} {:>11} {:>7}",
        "subscribers", "secs", "ingest ev/s", "fanout ev/s", "out bytes", "amp"
    );
    for &subs in BROADCAST_SUBS {
        let (secs, (ingest_bytes, results_bytes_total)) = best_of(2, || {
            let mut opts = ServeOptions::new("127.0.0.1:0");
            opts.idle_timeout = Duration::from_secs(60);
            opts.broadcast = Some(BroadcastOptions {
                queue: 4096,
                policy: BroadcastPolicy::Block,
            });
            let server = serve(opts).expect("server binds");
            let addr = server.addr().to_string();
            let threads: Vec<_> = (0..subs)
                .map(|_| {
                    let addr = addr.clone();
                    std::thread::spawn(move || {
                        let mut out = Vec::new();
                        let report = broadcast_subscribe(&addr, QUERIES, DOCS, true, &mut out)
                            .expect("subscriber completes");
                        (String::from_utf8(out).unwrap(), report.wire_in)
                    })
                })
                .collect();
            let fopts = FeedOptions {
                chunk: 64 * 1024,
                wait_subs: Some(subs as u64),
                want_stats: false,
            };
            let feed = broadcast_feed(&addr, &docs, &fopts).expect("feed completes");
            let mut results_bytes = 0u64;
            for t in threads {
                let (got, wire_in) = t.join().expect("subscriber thread");
                // Identity gate: every subscriber byte-identical to
                // the solo sequential driver.
                assert_eq!(got, expected, "broadcast subscriber diverged");
                results_bytes += wire_in;
            }
            server.shutdown();
            (feed.wire_out, results_bytes)
        });
        let ingest_events_per_sec = seq_events as f64 / secs;
        let fanout_events_per_sec = ingest_events_per_sec * subs as f64;
        let amplification = results_bytes_total as f64 / ingest_bytes as f64;
        println!(
            "{:>11} {:>10.4} {:>14.0} {:>16.0} {:>11} {:>7.1}",
            subs,
            secs,
            ingest_events_per_sec,
            fanout_events_per_sec,
            results_bytes_total,
            amplification
        );
        brows.push(BroadcastRow {
            subscribers: subs,
            secs,
            ingest_events_per_sec,
            fanout_events_per_sec,
            ingest_bytes,
            results_bytes_total,
            amplification,
        });
    }
    println!("gate: every broadcast subscriber transcript matches the sequential driver");

    let mut json = String::from("{\n  \"benchmark\": \"serve_loopback\",\n");
    let _ = writeln!(
        json,
        "  \"kernel\": \"{}\",\n  \"cores\": {cores},\n  \"cpu_features\": \"{}\",",
        xsq_xml::scan::active_kernel(),
        xsq_xml::scan::cpu_features()
    );
    let _ = writeln!(
        json,
        "  \"corpus\": {{\"docs\": {DOCS}, \"bytes\": {corpus_bytes}, \
         \"queries\": {}, \"cores\": {cores}}},",
        QUERIES.len()
    );
    let _ = writeln!(
        json,
        "  \"in_process\": {{\"secs\": {seq_secs:.6}, \"events\": {seq_events}, \
         \"results\": {seq_results}, \"events_per_sec\": {in_events_per_sec:.0}, \
         \"results_per_sec\": {in_results_per_sec:.0}}},"
    );
    json.push_str("  \"sessions\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"model\": \"eventloop\", \"sessions\": {}, \"secs\": {:.6}, \
             \"corpus_replays\": {}, \"events_per_sec\": {:.0}, \"results_per_sec\": {:.0}, \
             \"relative_to_in_process\": {:.3}, \"wire_out_per_session\": {}, \
             \"wire_in_per_session\": {}, \"amplification\": {:.3}}}",
            r.sessions,
            r.secs,
            r.sessions,
            r.events_per_sec,
            r.results_per_sec,
            r.relative,
            r.wire_out_per_session,
            r.wire_in_per_session,
            r.amplification
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"broadcast\": [\n");
    for (i, b) in brows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"subscribers\": {}, \"secs\": {:.6}, \"ingest_events_per_sec\": {:.0}, \
             \"fanout_events_per_sec\": {:.0}, \"ingest_bytes\": {}, \
             \"results_bytes_total\": {}, \"amplification\": {:.1}}}",
            b.subscribers,
            b.secs,
            b.ingest_events_per_sec,
            b.fanout_events_per_sec,
            b.ingest_bytes,
            b.results_bytes_total,
            b.amplification
        );
        json.push_str(if i + 1 < brows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"gates\": {{\"single_session_byte_identical\": true, \
         \"broadcast_subscribers_byte_identical\": true, \
         \"speedup_asserted\": false}}\n}}"
    );
    std::fs::write(&out_path, json).expect("write BENCH_serve.json");
    println!("\nwrote {out_path}");
}

fn serve_and_check(opts: ServeOptions, docs: &[Vec<u8>], expected: &str) {
    let server = serve(opts).expect("server binds");
    let copts = ConnectOptions {
        chunk: 64 * 1024,
        running: true,
        want_stats: false,
    };
    let mut out = Vec::new();
    run_corpus(&server.addr().to_string(), QUERIES, docs, &copts, &mut out).expect("gate replay");
    assert_eq!(
        String::from_utf8(out).expect("client output is UTF-8"),
        expected,
        "loopback transcript diverged from the sequential driver"
    );
    server.shutdown();
}
