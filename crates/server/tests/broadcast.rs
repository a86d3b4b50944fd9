//! Broadcast mode: one feeder, one shared `QueryIndex`, many
//! subscribers — identity against the sequential driver, join-at-
//! boundary activation, slow-reader policies, and feeder-loss
//! poisoning.

#![cfg(unix)]

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use xsq_core::XsqEngine;
use xsq_server::proto::{errcode, frame_bytes, op, read_frame};
use xsq_server::{
    broadcast_feed, broadcast_subscribe, reference_output, serve, stat_field_u64, BroadcastOptions,
    BroadcastPolicy, FeedOptions, ServeOptions, MAX_FRAME,
};

const FIG1: &str = r#"<pub><name>PrenticeHall</name><book id="1">
<name>First</name><author>A1</author><price>55.00</price></book>
<book id="2"><name>Second</name><author>A2</author><author>A3</author>
<price>21.50</price></book><year>2002</year></pub>"#;

const RECURSIVE: &str = r#"<pub><pub><book id="7"><name>Inner</name>
<author>X</author><price>9.99</price></book><year>2003</year></pub>
<book id="8"><name>Outer</name><price>12.00</price></book>
<year>2001</year></pub>"#;

fn corpus() -> Vec<Vec<u8>> {
    vec![
        FIG1.as_bytes().to_vec(),
        RECURSIVE.as_bytes().to_vec(),
        FIG1.as_bytes().to_vec(),
    ]
}

fn start_broadcast(queue: usize, policy: BroadcastPolicy) -> xsq_server::ServerHandle {
    let mut opts = ServeOptions::new("127.0.0.1:0");
    opts.idle_timeout = Duration::from_secs(30);
    opts.broadcast = Some(BroadcastOptions { queue, policy });
    serve(opts).expect("server binds")
}

/// The acceptance gate: 256 concurrent subscribers on one shared
/// index, every one of them byte-identical to a solo sequential run
/// of its own query batch.
#[test]
fn broadcast_serves_256_subscribers_byte_identically() {
    let server = start_broadcast(1024, BroadcastPolicy::Block);
    let addr = server.addr().to_string();
    let docs = corpus();

    // Four distinct SUB batches cycle across 256 subscribers: the hub
    // shares one plan + one set of index subscriptions per batch.
    let batches: [&[&str]; 4] = [
        &["//book/name/text()", "//price/sum()"],
        &["//book/@id"],
        &["//pub//book[price<30]/price/text()", "//book/count()"],
        &["//name/text()"],
    ];
    let expected: Vec<String> = batches
        .iter()
        .map(|qs| reference_output(XsqEngine::full(), qs, &docs, true).unwrap())
        .collect();

    const SUBS: usize = 256;
    let threads: Vec<_> = (0..SUBS)
        .map(|i| {
            let addr = addr.clone();
            let queries: Vec<String> = batches[i % 4].iter().map(|s| s.to_string()).collect();
            let n_docs = docs.len();
            std::thread::spawn(move || {
                let queries: Vec<&str> = queries.iter().map(String::as_str).collect();
                let mut out = Vec::new();
                let report = broadcast_subscribe(&addr, &queries, n_docs, true, &mut out)
                    .expect("subscriber completes");
                assert_eq!(report.docs, n_docs);
                (i, String::from_utf8(out).unwrap())
            })
        })
        .collect();

    let fopts = FeedOptions {
        chunk: 113, // torn token boundaries for everyone at once
        wait_subs: Some(SUBS as u64),
        want_stats: true,
    };
    let feed = broadcast_feed(&addr, &docs, &fopts).expect("feed completes");
    assert_eq!(feed.docs, docs.len());
    let stats = feed.stats_json.expect("STAT after feed");
    assert_eq!(stat_field_u64(&stats, "docs"), Some(docs.len() as u64));
    assert_eq!(stat_field_u64(&stats, "dropped_broadcast"), Some(0));
    // The hub reports the shared index through the same ingest core a
    // private session does: six queries over the four batches, however
    // many of their subscribers have already said BYE.
    assert_eq!(stat_field_u64(&stats, "queries"), Some(6));
    for key in ["groups", "touches", "peak_buffered_bytes", "peak_configs"] {
        assert!(stat_field_u64(&stats, key) > Some(0), "{key} in {stats}");
    }
    for key in ["active", "events_per_sec"] {
        assert!(stat_field_u64(&stats, key).is_some(), "{key} in {stats}");
    }
    // The dispatch table's shape is current, not cumulative: a group
    // leaves the table with its last member, so once nobody is
    // subscribed it is empty. Its keys are prefixed because the hub has
    // an `entries` of its own (its plan entries): one flat object, no
    // key twice.
    let nobody = stat_field_u64(&stats, "active") == Some(0);
    for key in [
        "dispatch_buckets",
        "dispatch_entries",
        "dispatch_longest_bucket",
    ] {
        let shape = stat_field_u64(&stats, key);
        assert!(shape.is_some(), "{key} in {stats}");
        assert_eq!(shape == Some(0), nobody, "{key} in {stats}");
    }
    assert_eq!(stats.matches("\"entries\":").count(), 1, "{stats}");

    for t in threads {
        let (i, got) = t.join().expect("subscriber thread");
        assert_eq!(got, expected[i % 4], "subscriber {i} diverged");
    }
    server.shutdown();
}

/// A subscriber that joins mid-document activates at the next
/// boundary and numbers its documents from zero — exactly what a
/// fresh solo session would see.
#[test]
fn mid_stream_join_defers_to_next_document_boundary() {
    let server = start_broadcast(1024, BroadcastPolicy::Block);
    let addr = server.addr().to_string();

    // Raw feeder so the test controls exactly when a document is open.
    let feeder = TcpStream::connect(&addr).unwrap();
    feeder.set_nodelay(true).unwrap();
    feeder
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut freader = BufReader::new(feeder.try_clone().unwrap());
    let mut fwriter = feeder;
    let send = |w: &mut TcpStream, opc: u8, p: &[u8]| {
        w.write_all(&frame_bytes(opc, p)).unwrap();
        w.flush().unwrap();
    };
    send(&mut fwriter, op::FEEDER, &[]);
    let ok = read_frame(&mut freader, MAX_FRAME).unwrap().unwrap();
    assert_eq!(ok.op, op::OK);

    // Document 0 is half-fed when the subscriber arrives.
    let half = FIG1.len() / 2;
    send(&mut fwriter, op::FEED, &FIG1.as_bytes()[..half]);

    let queries = ["//book/name/text()"];
    let sub = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut out = Vec::new();
            let report = broadcast_subscribe(&addr, &queries, 1, false, &mut out).unwrap();
            (report, String::from_utf8(out).unwrap())
        }
    });
    // Wait until the hub has registered the subscription (STAT over
    // the feeder connection sees the shared hub state).
    loop {
        send(&mut fwriter, op::STAT, &[]);
        let f = read_frame(&mut freader, MAX_FRAME).unwrap().unwrap();
        assert_eq!(f.op, op::STAT_OK);
        let json = String::from_utf8(f.payload).unwrap();
        if stat_field_u64(&json, "subscribers") == Some(1) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // Finish document 0 — the subscriber must see none of it — then
    // feed document 1, which becomes the subscriber's document 0.
    send(&mut fwriter, op::FEED, &FIG1.as_bytes()[half..]);
    send(&mut fwriter, op::END_DOC, &[]);
    let ack = read_frame(&mut freader, MAX_FRAME).unwrap().unwrap();
    assert_eq!(ack.op, op::DOC_OK);
    assert_eq!(ack.payload, 0u32.to_le_bytes());

    send(&mut fwriter, op::FEED, RECURSIVE.as_bytes());
    send(&mut fwriter, op::END_DOC, &[]);
    let ack = read_frame(&mut freader, MAX_FRAME).unwrap().unwrap();
    assert_eq!(ack.op, op::DOC_OK);
    assert_eq!(ack.payload, 1u32.to_le_bytes());

    let (report, got) = sub.join().unwrap();
    assert_eq!(report.docs, 1);
    let expect =
        reference_output(XsqEngine::full(), &queries, &[RECURSIVE.as_bytes()], false).unwrap();
    assert_eq!(got, expect, "late joiner must see doc 1 as its doc 0");
    server.shutdown();
}

/// A corpus big enough that a non-reading subscriber must overflow
/// both its server-side queue and the socket buffers.
fn heavy_corpus() -> (Vec<Vec<u8>>, Vec<u8>) {
    let mut doc = String::from("<pub>");
    for i in 0..2000 {
        doc.push_str(&format!(
            "<book id=\"{i}\"><name>{}</name></book>",
            "x".repeat(500)
        ));
    }
    doc.push_str("</pub>");
    let doc = doc.into_bytes();
    ((0..8).map(|_| doc.clone()).collect(), doc)
}

/// Drop policy: a subscriber that stops reading loses RESULT frames
/// (counted) but never DOC_OK — the protocol stays consistent and the
/// feeder is never stalled.
#[test]
fn slow_reader_under_drop_policy_loses_results_not_boundaries() {
    let server = start_broadcast(8, BroadcastPolicy::Drop);
    let addr = server.addr().to_string();
    let (docs, _) = heavy_corpus();

    // A raw, deliberately slow subscriber: subscribes, then does not
    // read until the whole corpus has been fed.
    let slow = TcpStream::connect(&addr).unwrap();
    slow.set_nodelay(true).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut sreader = BufReader::new(slow.try_clone().unwrap());
    let mut swriter = slow;
    swriter
        .write_all(&frame_bytes(op::SUB, b"//book/name/text()"))
        .unwrap();
    swriter.flush().unwrap();
    let subok = read_frame(&mut sreader, MAX_FRAME).unwrap().unwrap();
    assert_eq!(subok.op, op::SUB_OK);

    let fopts = FeedOptions {
        chunk: 64 * 1024,
        wait_subs: Some(1),
        want_stats: true,
    };
    let feed = broadcast_feed(&addr, &docs, &fopts).expect("feeder never blocks under drop");
    let stats = feed.stats_json.expect("STAT");
    let dropped = stat_field_u64(&stats, "dropped_broadcast").unwrap_or(0);
    assert!(dropped > 0, "expected drops, stats: {stats}");

    // Now drain: every DOC_OK must still be there, in order.
    let mut doc_oks = 0u32;
    let mut results = 0u64;
    while doc_oks < docs.len() as u32 {
        let f = read_frame(&mut sreader, MAX_FRAME).unwrap().unwrap();
        match f.op {
            op::RESULT => results += 1,
            op::DOC_OK => {
                assert_eq!(f.payload, doc_oks.to_le_bytes(), "boundary out of order");
                doc_oks += 1;
            }
            other => panic!("unexpected opcode 0x{other:02x}"),
        }
    }
    let total = docs.len() as u64 * 2000;
    assert!(
        results < total,
        "a slow reader under drop policy cannot have received all {total} results"
    );
    server.shutdown();
}

/// Block policy: the feeder stalls instead, and the slow subscriber
/// eventually receives every result byte-identically.
#[test]
fn slow_reader_under_block_policy_loses_nothing() {
    let server = start_broadcast(8, BroadcastPolicy::Block);
    let addr = server.addr().to_string();
    let (docs, _) = heavy_corpus();
    // The text query fans real bytes through the queue; the aggregate
    // rides along to exercise UPDATE suppression in the slow reader.
    let heavy_queries = ["//book/name/text()", "//book/count()"];

    let sub = std::thread::spawn({
        let addr = addr.clone();
        let n_docs = docs.len();
        move || {
            let mut out = Vec::new();
            // Sleep before reading: the server must park the feeder,
            // not drop frames or kill the connection.
            let report = broadcast_subscribe_slow(&addr, &heavy_queries, n_docs, &mut out);
            (report, out)
        }
    });

    let fopts = FeedOptions {
        chunk: 64 * 1024,
        wait_subs: Some(1),
        want_stats: true,
    };
    let feed = broadcast_feed(&addr, &docs, &fopts).expect("feed completes after the stall");
    let stats = feed.stats_json.expect("STAT");
    assert_eq!(
        stat_field_u64(&stats, "dropped_broadcast"),
        Some(0),
        "block policy must not drop: {stats}"
    );

    let (docs_seen, out) = sub.join().unwrap();
    assert_eq!(docs_seen, docs.len());
    let expect = reference_output(XsqEngine::full(), &heavy_queries, &docs, false).unwrap();
    assert_eq!(String::from_utf8(out).unwrap(), expect);
    server.shutdown();
}

/// Like `broadcast_subscribe`, but sleeps after SUB so the server-side
/// queue fills while the feeder runs.
fn broadcast_subscribe_slow(
    addr: &str,
    queries: &[&str],
    expect_docs: usize,
    out: &mut Vec<u8>,
) -> usize {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writer
        .write_all(&frame_bytes(op::SUB, queries.join("\n").as_bytes()))
        .unwrap();
    writer.flush().unwrap();
    let subok = read_frame(&mut reader, MAX_FRAME).unwrap().unwrap();
    assert_eq!(subok.op, op::SUB_OK);
    std::thread::sleep(Duration::from_millis(500));

    let mut docs = 0usize;
    let mut results: Vec<(u32, String)> = Vec::new();
    while docs < expect_docs {
        let f = read_frame(&mut reader, MAX_FRAME).unwrap().unwrap();
        match f.op {
            op::RESULT => {
                let id = u32::from_le_bytes(f.payload[..4].try_into().unwrap());
                results.push((id, String::from_utf8_lossy(&f.payload[4..]).into_owned()));
            }
            op::UPDATE => {}
            op::DOC_OK => {
                for (id, v) in results.drain(..) {
                    writeln!(out, "{docs}\t{id}\t{v}").unwrap();
                }
                docs += 1;
                // Keep reading slowly so backpressure oscillates.
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("unexpected opcode 0x{other:02x}"),
        }
    }
    writer.write_all(&frame_bytes(op::BYE, &[])).unwrap();
    writer.flush().unwrap();
    let f = read_frame(&mut reader, MAX_FRAME).unwrap().unwrap();
    assert_eq!(f.op, op::OK);
    docs
}

/// The feeder vanishing inside a document poisons the stream: every
/// subscriber gets a framed protocol error and the connection closes.
#[test]
fn feeder_disconnect_mid_document_poisons_subscribers() {
    let server = start_broadcast(1024, BroadcastPolicy::Block);
    let addr = server.addr().to_string();

    let sub = TcpStream::connect(&addr).unwrap();
    sub.set_nodelay(true).unwrap();
    sub.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut sreader = BufReader::new(sub.try_clone().unwrap());
    let mut swriter = sub;
    swriter
        .write_all(&frame_bytes(op::SUB, b"//book/name/text()"))
        .unwrap();
    swriter.flush().unwrap();
    assert_eq!(
        read_frame(&mut sreader, MAX_FRAME).unwrap().unwrap().op,
        op::SUB_OK
    );

    let feeder = TcpStream::connect(&addr).unwrap();
    feeder.set_nodelay(true).unwrap();
    feeder
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut freader = BufReader::new(feeder.try_clone().unwrap());
    let mut fwriter = feeder;
    fwriter.write_all(&frame_bytes(op::FEEDER, &[])).unwrap();
    fwriter.flush().unwrap();
    assert_eq!(
        read_frame(&mut freader, MAX_FRAME).unwrap().unwrap().op,
        op::OK
    );
    fwriter
        .write_all(&frame_bytes(op::FEED, b"<pub><book><name>x"))
        .unwrap();
    fwriter.flush().unwrap();
    drop(fwriter);
    drop(freader);

    // The subscriber receives a framed PROTOCOL error, then EOF.
    let f = read_frame(&mut sreader, MAX_FRAME).unwrap().unwrap();
    assert_eq!(f.op, op::ERR);
    assert_eq!(
        xsq_server::proto::err_code(&f.payload),
        Some(errcode::PROTOCOL)
    );
    let mut rest = Vec::new();
    sreader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "nothing after the poison error");
    server.shutdown();
}

/// Role rules: a second feeder is refused, a subscriber cannot claim
/// the feeder role, the feeder cannot subscribe, UNSUB is refused.
#[test]
fn broadcast_role_violations_are_framed_errors() {
    let server = start_broadcast(1024, BroadcastPolicy::Block);
    let addr = server.addr().to_string();
    let mut conns: Vec<(BufReader<TcpStream>, TcpStream)> = (0..2)
        .map(|_| {
            let s = TcpStream::connect(&addr).unwrap();
            s.set_nodelay(true).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
            (BufReader::new(s.try_clone().unwrap()), s)
        })
        .collect();

    let send = |w: &mut TcpStream, opc: u8, p: &[u8]| {
        w.write_all(&frame_bytes(opc, p)).unwrap();
        w.flush().unwrap();
    };
    let recv = |r: &mut BufReader<TcpStream>| read_frame(r, MAX_FRAME).unwrap().unwrap();

    // First connection takes the feeder role.
    send(&mut conns[0].1, op::FEEDER, &[]);
    assert_eq!(recv(&mut conns[0].0).op, op::OK);
    // …and may not subscribe.
    send(&mut conns[0].1, op::SUB, b"//a/text()");
    let f = recv(&mut conns[0].0);
    assert_eq!(
        xsq_server::proto::err_code(&f.payload),
        Some(errcode::BROADCAST_ROLE)
    );

    // Second connection subscribes; its FEEDER claim and UNSUB are
    // refused, recoverably.
    send(&mut conns[1].1, op::SUB, b"//a/text()");
    assert_eq!(recv(&mut conns[1].0).op, op::SUB_OK);
    send(&mut conns[1].1, op::FEEDER, &[]);
    let f = recv(&mut conns[1].0);
    assert_eq!(
        xsq_server::proto::err_code(&f.payload),
        Some(errcode::BROADCAST_ROLE)
    );
    send(&mut conns[1].1, op::UNSUB, &0u32.to_le_bytes());
    let f = recv(&mut conns[1].0);
    assert_eq!(
        xsq_server::proto::err_code(&f.payload),
        Some(errcode::BROADCAST_ROLE)
    );
    // Still attached and serviceable after all three refusals.
    send(&mut conns[1].1, op::STAT, &[]);
    assert_eq!(recv(&mut conns[1].0).op, op::STAT_OK);
    server.shutdown();
}

/// What a private in-process session replies to one SUB batch and a
/// corpus: the oracle for "byte-identical to a solo session".
fn solo_transcript(queries: &[&str], docs: &[Vec<u8>]) -> Vec<(u8, Vec<u8>)> {
    let mut session = xsq_server::Session::new(XsqEngine::full());
    let mut replies: Vec<(u8, Vec<u8>)> = Vec::new();
    let mut out = |opcode: u8, payload: &[u8]| replies.push((opcode, payload.to_vec()));
    session.handle(op::SUB, queries.join("\n").as_bytes(), &mut out);
    for doc in docs {
        session.handle(op::FEED, doc, &mut out);
        session.handle(op::END_DOC, &[], &mut out);
    }
    replies
}

fn raw_conn(addr: &str) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    (BufReader::new(stream.try_clone().unwrap()), stream)
}

/// A broadcast entry holds its cached plan: the plan outlives the first
/// of two identical subscribers and leaves the cache with the last.
#[test]
fn the_last_subscriber_of_an_entry_takes_its_cached_plan_along() {
    let server = start_broadcast(1024, BroadcastPolicy::Block);
    let addr = server.addr().to_string();
    let send = |w: &mut TcpStream, opc: u8, p: &[u8]| {
        w.write_all(&frame_bytes(opc, p)).unwrap();
        w.flush().unwrap();
    };
    let recv = |r: &mut BufReader<TcpStream>| read_frame(r, MAX_FRAME).unwrap().unwrap();
    let (mut feeder_r, mut feeder_w) = raw_conn(&addr);
    send(&mut feeder_w, op::FEEDER, &[]);
    assert_eq!(recv(&mut feeder_r).op, op::OK);
    let mut subscribers: Vec<_> = (0..2).map(|_| raw_conn(&addr)).collect();
    for (r, w) in &mut subscribers {
        send(w, op::SUB, b"//name/text()\n//book/count()");
        assert_eq!(recv(r).op, op::SUB_OK);
    }
    // The feeder's STAT, once the hub has seen `attached` subscribers.
    let mut stat_at = |attached: u64| {
        for _ in 0..500 {
            send(&mut feeder_w, op::STAT, &[]);
            let json = String::from_utf8(recv(&mut feeder_r).payload).unwrap();
            if stat_field_u64(&json, "subscribers") == Some(attached) {
                return json;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("the hub never reported {attached} subscriber(s)");
    };
    let entries = |json: &str| stat_field_u64(json, "plan_cache_entries");
    assert_eq!(entries(&stat_at(2)), Some(1));
    subscribers.pop();
    assert_eq!(
        entries(&stat_at(1)),
        Some(1),
        "one subscriber still holds it"
    );
    subscribers.pop();
    assert_eq!(entries(&stat_at(0)), Some(0), "nobody holds the plan");
    server.shutdown();
}

/// Drop policy sheds *whole frames*: a saturated subscriber's byte
/// stream still decodes frame by frame to EOF, every boundary is
/// there, and what it received plus what the server counted as dropped
/// is exactly what a solo session would have been sent.
#[test]
fn drop_policy_sheds_whole_frames_and_accounts_for_each() {
    let server = start_broadcast(8, BroadcastPolicy::Drop);
    let addr = server.addr().to_string();
    let (docs, _) = heavy_corpus();
    let queries = ["//book/name/text()", "//book/count()"];

    let (mut sreader, mut swriter) = raw_conn(&addr);
    swriter
        .write_all(&frame_bytes(op::SUB, queries.join("\n").as_bytes()))
        .unwrap();
    assert_eq!(
        read_frame(&mut sreader, MAX_FRAME).unwrap().unwrap().op,
        op::SUB_OK
    );

    // The subscriber reads nothing while the corpus is fed.
    let fopts = FeedOptions {
        chunk: 64 * 1024,
        wait_subs: Some(1),
        want_stats: true,
    };
    let feed = broadcast_feed(&addr, &docs, &fopts).expect("feeder never blocks under drop");
    let stats = feed.stats_json.expect("STAT");
    let dropped = stat_field_u64(&stats, "dropped_broadcast").unwrap();
    assert!(dropped > 0, "expected drops, stats: {stats}");

    // BYE, then decode everything the server ever queued, to EOF.
    swriter.write_all(&frame_bytes(op::BYE, &[])).unwrap();
    let (mut received, mut doc_oks) = (0u64, 0u32);
    let mut last = 0u8;
    while let Some(f) = read_frame(&mut sreader, MAX_FRAME).expect("whole frames only") {
        match f.op {
            op::RESULT | op::UPDATE => received += 1,
            op::DOC_OK => {
                assert_eq!(f.payload, doc_oks.to_le_bytes(), "boundary out of order");
                doc_oks += 1;
            }
            op::OK => {}
            other => panic!("unexpected opcode 0x{other:02x}"),
        }
        last = f.op;
    }
    assert_eq!(last, op::OK, "the BYE ack is the last frame before EOF");
    assert_eq!(doc_oks as usize, docs.len());
    let solo = solo_transcript(&queries, &docs)
        .iter()
        .filter(|(o, _)| matches!(*o, op::RESULT | op::UPDATE))
        .count() as u64;
    assert_eq!(received + dropped, solo, "every shed frame is counted once");
    server.shutdown();
}

/// One audience, both framings: wire-v2 sessions multiplexed on one
/// connection beside v1 subscribers on their own connections, all on
/// the same SUB batch (one shared entry). Every session's transcript —
/// SUB_OK through the last DOC_OK — is byte-identical to a solo
/// session's.
#[test]
fn mixed_v1_and_multiplexed_v2_audience_matches_solo_sessions() {
    use xsq_server::proto::WIRE_V2;

    let server = start_broadcast(1024, BroadcastPolicy::Block);
    let addr = server.addr().to_string();
    let docs = corpus();
    let queries = ["//book/name/text()", "//price/sum()", "//book/@id"];
    let batch = queries.join("\n");
    let expected = solo_transcript(&queries, &docs);
    const V2_SESSIONS: u32 = 3;
    const V1_CONNS: usize = 2;

    let (mut mreader, mut mwriter) = raw_conn(&addr);
    mwriter
        .write_all(&frame_bytes(op::HELLO, &WIRE_V2.to_le_bytes()))
        .unwrap();
    assert_eq!(
        read_frame(&mut mreader, MAX_FRAME).unwrap().unwrap().op,
        op::HELLO_OK
    );
    for sid in 1..=V2_SESSIONS {
        let payload = [&sid.to_le_bytes()[..], batch.as_bytes()].concat();
        mwriter.write_all(&frame_bytes(op::SUB, &payload)).unwrap();
    }
    let mut v1: Vec<_> = (0..V1_CONNS).map(|_| raw_conn(&addr)).collect();
    for (_, writer) in &mut v1 {
        writer
            .write_all(&frame_bytes(op::SUB, batch.as_bytes()))
            .unwrap();
    }

    let fopts = FeedOptions {
        chunk: 113,
        wait_subs: Some(u64::from(V2_SESSIONS) + V1_CONNS as u64),
        want_stats: false,
    };
    broadcast_feed(&addr, &docs, &fopts).expect("feed completes");

    // Demultiplex the v2 connection by session id.
    let mut by_sid: Vec<Vec<(u8, Vec<u8>)>> = vec![Vec::new(); V2_SESSIONS as usize];
    let mut open = V2_SESSIONS as usize;
    while open > 0 {
        let f = read_frame(&mut mreader, MAX_FRAME).unwrap().unwrap();
        let sid = u32::from_le_bytes(f.payload[..4].try_into().unwrap());
        let transcript = &mut by_sid[sid as usize - 1];
        transcript.push((f.op, f.payload[4..].to_vec()));
        if transcript.len() == expected.len() {
            open -= 1;
        }
    }
    for (i, got) in by_sid.iter().enumerate() {
        assert_eq!(got, &expected, "v2 session {} diverged", i + 1);
    }
    for (i, (reader, _)) in v1.iter_mut().enumerate() {
        let got: Vec<(u8, Vec<u8>)> = (0..expected.len())
            .map(|_| {
                let f = read_frame(reader, MAX_FRAME).unwrap().unwrap();
                (f.op, f.payload)
            })
            .collect();
        assert_eq!(got, expected, "v1 subscriber {i} diverged");
    }
    server.shutdown();
}
