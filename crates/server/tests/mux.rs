//! Wire-v2 session multiplexing: HELLO negotiation, interleaved
//! logical sessions on one connection, recoverable bad-session errors,
//! per-session fatality isolation, and wire v1 as the session with no
//! id — the same replies, minus the prefix.

#![cfg(unix)]

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use xsq_core::XsqEngine;
use xsq_server::proto::{errcode, frame_bytes, op, read_frame, CONTROL_SESSION, WIRE_V2};
use xsq_server::{reference_output, serve, Frame, ServeOptions, MAX_FRAME};

const DOC_A: &str = r#"<pub><book id="1"><name>First</name><price>10</price></book>
<book id="2"><name>Second</name><price>20</price></book></pub>"#;
const DOC_B: &str = r#"<pub><pub><book id="7"><name>Inner</name><price>9.99</price></book>
<year>2003</year></pub><year>2001</year></pub>"#;

fn start_server() -> xsq_server::ServerHandle {
    let mut opts = ServeOptions::new("127.0.0.1:0");
    opts.idle_timeout = Duration::from_secs(10);
    serve(opts).expect("server binds")
}

/// A raw wire-v2 client: session-id-prefixed frames over one socket.
struct Mux {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Mux {
    fn connect(addr: &str) -> Mux {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        Mux {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn hello(addr: &str) -> Mux {
        let mut m = Mux::connect(addr);
        m.send_raw(op::HELLO, &WIRE_V2.to_le_bytes());
        let reply = m.recv_raw();
        assert_eq!(reply.op, op::HELLO_OK);
        assert_eq!(reply.payload, WIRE_V2.to_le_bytes());
        m
    }

    fn send_raw(&mut self, opcode: u8, payload: &[u8]) {
        self.writer
            .write_all(&frame_bytes(opcode, payload))
            .expect("send");
        self.writer.flush().unwrap();
    }

    fn send(&mut self, sid: u32, opcode: u8, payload: &[u8]) {
        let mut p = Vec::with_capacity(4 + payload.len());
        p.extend_from_slice(&sid.to_le_bytes());
        p.extend_from_slice(payload);
        self.send_raw(opcode, &p);
    }

    fn recv_raw(&mut self) -> Frame {
        read_frame(&mut self.reader, MAX_FRAME)
            .expect("read")
            .expect("server closed early")
    }

    /// Receive one v2 frame, splitting off the session-id prefix.
    fn recv(&mut self) -> (u32, Frame) {
        let f = self.recv_raw();
        assert!(f.payload.len() >= 4, "v2 reply without a session id");
        let sid = u32::from_le_bytes(f.payload[..4].try_into().unwrap());
        (
            sid,
            Frame {
                op: f.op,
                payload: f.payload[4..].to_vec(),
            },
        )
    }

    /// Receive frames until `want_sid` delivers one, queuing nothing:
    /// fails if a different session's frame arrives when strict.
    fn recv_for(&mut self, want_sid: u32) -> Frame {
        let (sid, f) = self.recv();
        assert_eq!(sid, want_sid, "reply for unexpected session");
        f
    }
}

/// The control session's STAT reply: the server-wide counters.
fn server_stat(m: &mut Mux) -> String {
    m.send(CONTROL_SESSION, op::STAT, &[]);
    let f = m.recv_for(CONTROL_SESSION);
    assert_eq!(f.op, op::STAT_OK);
    String::from_utf8(f.payload).unwrap()
}

fn err_code_of(frame: &Frame) -> &str {
    assert_eq!(frame.op, op::ERR, "expected ERR, got 0x{:02x}", frame.op);
    xsq_server::proto::err_code(&frame.payload).expect("coded error")
}

/// Drive one document through an open logical session and collect its
/// rendered lines exactly like the reference client would.
fn feed_doc(m: &mut Mux, sid: u32, doc: &str, di: usize, chunk: usize, out: &mut String) {
    use std::fmt::Write as _;
    for piece in doc.as_bytes().chunks(chunk) {
        m.send(sid, op::FEED, piece);
    }
    m.send(sid, op::END_DOC, &[]);
    let mut results: Vec<(u32, String)> = Vec::new();
    loop {
        let f = m.recv_for(sid);
        match f.op {
            op::RESULT => {
                let id = u32::from_le_bytes(f.payload[..4].try_into().unwrap());
                results.push((id, String::from_utf8_lossy(&f.payload[4..]).into_owned()));
            }
            op::UPDATE => {}
            op::DOC_OK => break,
            other => panic!("unexpected opcode 0x{other:02x} during document"),
        }
    }
    for (id, v) in results {
        let _ = writeln!(out, "{di}\t{id}\t{v}");
    }
}

fn sub(m: &mut Mux, sid: u32, queries: &[&str]) {
    m.send(sid, op::SUB, queries.join("\n").as_bytes());
    let f = m.recv_for(sid);
    assert_eq!(f.op, op::SUB_OK, "SUB failed: {:?}", f.payload);
}

#[test]
fn interleaved_sessions_on_one_connection_stay_isolated() {
    let server = start_server();
    let addr = server.addr().to_string();
    let mut m = Mux::hello(&addr);

    let qa = ["//book/name/text()", "//price/sum()"];
    let qb = ["//book/@id"];
    sub(&mut m, 1, &qa);
    sub(&mut m, 2, &qb);

    // Interleave the two sessions' FEED chunks byte-wise: session 1
    // streams DOC_A while session 2 streams DOC_B, alternating frames.
    let a = DOC_A.as_bytes();
    let b = DOC_B.as_bytes();
    let mut ai = a.chunks(7);
    let mut bi = b.chunks(5);
    loop {
        let ca = ai.next();
        let cb = bi.next();
        if let Some(c) = ca {
            m.send(1, op::FEED, c);
        }
        if let Some(c) = cb {
            m.send(2, op::FEED, c);
        }
        if ca.is_none() && cb.is_none() {
            break;
        }
    }
    // Close session 2's document first, then session 1's, and
    // demultiplex the interleaved replies by session id: results
    // stream as they are determined, so both sessions' frames mix
    // freely on the wire.
    m.send(2, op::END_DOC, &[]);
    m.send(1, op::END_DOC, &[]);
    let mut results: std::collections::HashMap<u32, Vec<(u32, String)>> = Default::default();
    let mut done = std::collections::HashSet::new();
    while done.len() < 2 {
        let (sid, f) = m.recv();
        match f.op {
            op::RESULT => {
                let id = u32::from_le_bytes(f.payload[..4].try_into().unwrap());
                results
                    .entry(sid)
                    .or_default()
                    .push((id, String::from_utf8_lossy(&f.payload[4..]).into_owned()));
            }
            op::UPDATE => {}
            op::DOC_OK => {
                assert!(done.insert(sid), "double DOC_OK for session {sid}");
            }
            other => panic!("unexpected opcode 0x{other:02x}"),
        }
    }
    let render = |rs: &[(u32, String)]| {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (id, v) in rs {
            let _ = writeln!(out, "0\t{id}\t{v}");
        }
        out
    };
    let expect_a = reference_output(XsqEngine::full(), &qa, &[DOC_A.as_bytes()], false).unwrap();
    let expect_b = reference_output(XsqEngine::full(), &qb, &[DOC_B.as_bytes()], false).unwrap();
    assert_eq!(render(results.get(&1).map_or(&[], |v| v)), expect_a);
    assert_eq!(render(results.get(&2).map_or(&[], |v| v)), expect_b);
    server.shutdown();
}

#[test]
fn hello_clamps_future_versions_and_v1_still_works() {
    let server = start_server();
    let addr = server.addr().to_string();

    // A client from the future negotiates down to v2.
    let mut m = Mux::connect(&addr);
    m.send_raw(op::HELLO, &99u32.to_le_bytes());
    let reply = m.recv_raw();
    assert_eq!(reply.op, op::HELLO_OK);
    assert_eq!(reply.payload, WIRE_V2.to_le_bytes());
    drop(m);

    // A v1 HELLO pins the connection to unprefixed framing.
    let mut m = Mux::connect(&addr);
    m.send_raw(op::HELLO, &1u32.to_le_bytes());
    let reply = m.recv_raw();
    assert_eq!(reply.op, op::HELLO_OK);
    assert_eq!(reply.payload, 1u32.to_le_bytes());
    m.send_raw(op::SUB, b"//name/text()");
    let reply = m.recv_raw();
    assert_eq!(reply.op, op::SUB_OK);
    drop(m);

    // A legacy client that never says HELLO speaks v1 implicitly; a
    // late HELLO is a recoverable protocol error.
    let mut m = Mux::connect(&addr);
    m.send_raw(op::SUB, b"//name/text()");
    assert_eq!(m.recv_raw().op, op::SUB_OK);
    m.send_raw(op::HELLO, &WIRE_V2.to_le_bytes());
    let reply = m.recv_raw();
    assert_eq!(err_code_of(&reply), errcode::PROTOCOL);
    m.send_raw(op::BYE, &[]);
    assert_eq!(m.recv_raw().op, op::OK);
    server.shutdown();
}

#[test]
fn unknown_session_id_errors_recoverably() {
    let server = start_server();
    let addr = server.addr().to_string();
    let mut m = Mux::hello(&addr);

    // FEED on a session that never opened: recoverable BAD_SESSION.
    m.send(7, op::FEED, b"<a/>");
    let f = m.recv_for(7);
    assert_eq!(err_code_of(&f), errcode::BAD_SESSION);

    // The connection is still healthy: the same sid opens with SUB.
    sub(&mut m, 7, &["//a/count()"]);
    let mut out = String::new();
    feed_doc(&mut m, 7, "<a/>", 0, 64, &mut out);
    assert_eq!(out, "0\t0\t1\n");
    server.shutdown();
}

#[test]
fn fatal_error_in_one_session_leaves_siblings_running() {
    let server = start_server();
    let addr = server.addr().to_string();
    let mut m = Mux::hello(&addr);
    let qa = ["//book/name/text()"];
    sub(&mut m, 1, &qa);
    sub(&mut m, 2, &["//book/@id"]);

    // Session 2 feeds a malformed document — fatal for that session
    // (the mismatched close tag errors during the FEED itself).
    m.send(2, op::FEED, b"<pub><book></pub>");
    let f = m.recv_for(2);
    assert_eq!(err_code_of(&f), errcode::PARSE);

    // Its sid is now stale: further frames get BAD_SESSION, not a dead
    // connection.
    m.send(2, op::FEED, b"<a/>");
    let f = m.recv_for(2);
    assert_eq!(err_code_of(&f), errcode::BAD_SESSION);

    // Session 1 is untouched and completes against its oracle.
    let mut out = String::new();
    feed_doc(&mut m, 1, DOC_A, 0, 9, &mut out);
    let expect = reference_output(XsqEngine::full(), &qa, &[DOC_A.as_bytes()], false).unwrap();
    assert_eq!(out, expect);
    server.shutdown();
}

#[test]
fn mid_frame_disconnect_of_one_connection_leaves_others_intact() {
    let server = start_server();
    let addr = server.addr().to_string();

    // Connection A dies mid-frame (length prefix promises more bytes
    // than ever arrive) while connection B is mid-conversation.
    let mut b = Mux::hello(&addr);
    sub(&mut b, 1, &["//book/name/text()"]);

    let mut a = Mux::hello(&addr);
    sub(&mut a, 1, &["//price/text()"]);
    a.writer.write_all(&[200, 0, 0, 0, op::FEED]).unwrap();
    a.writer.flush().unwrap();
    drop(a);

    let mut out = String::new();
    feed_doc(&mut b, 1, DOC_A, 0, 3, &mut out);
    let expect = reference_output(
        XsqEngine::full(),
        &["//book/name/text()"],
        &[DOC_A.as_bytes()],
        false,
    )
    .unwrap();
    assert_eq!(out, expect);
    server.shutdown();
}

#[test]
fn control_session_serves_server_level_stat() {
    let server = start_server();
    let addr = server.addr().to_string();
    let mut m = Mux::hello(&addr);
    sub(&mut m, 3, &["//a/text()"]);

    m.send(CONTROL_SESSION, op::STAT, &[]);
    let (sid, f) = m.recv();
    assert_eq!(sid, CONTROL_SESSION);
    assert_eq!(f.op, op::STAT_OK);
    let json = String::from_utf8(f.payload).unwrap();
    for needle in [
        "\"model\":\"eventloop\"",
        "\"backend\":",
        "\"connections\":1",
        "\"sessions\":1",
        "\"queue_depth_hwm\":",
        "\"dropped_broadcast\":0",
        "\"plan_cache_entries\":",
    ] {
        assert!(json.contains(needle), "missing {needle} in {json}");
    }

    // A second connection with a session counts, and its close is
    // counted back out.
    let mut second = Mux::hello(&addr);
    sub(&mut second, 5, &["//b/text()"]);
    let json = server_stat(&mut m);
    assert!(json.contains("\"connections\":2,\"sessions\":2"), "{json}");
    drop(second);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let json = server_stat(&mut m);
        if json.contains("\"connections\":1,\"sessions\":1") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "never decremented: {json}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // SUB cannot address the control session.
    m.send(CONTROL_SESSION, op::FEED, b"<a/>");
    let f = m.recv_for(CONTROL_SESSION);
    assert_eq!(err_code_of(&f), errcode::PROTOCOL);

    // Control BYE closes the whole connection.
    m.send(CONTROL_SESSION, op::BYE, &[]);
    let f = m.recv_for(CONTROL_SESSION);
    assert_eq!(f.op, op::OK);
    server.shutdown();
}

#[test]
fn per_session_stat_reports_transport_counters() {
    let server = start_server();
    let addr = server.addr().to_string();
    let mut m = Mux::hello(&addr);
    sub(&mut m, 1, &["//a/text()"]);
    let mut out = String::new();
    feed_doc(&mut m, 1, "<a>x</a>", 0, 64, &mut out);
    m.send(1, op::STAT, &[]);
    let f = m.recv_for(1);
    assert_eq!(f.op, op::STAT_OK);
    let json = String::from_utf8(f.payload).unwrap();
    for needle in [
        "\"model\":\"eventloop\"",
        "\"connections\":1",
        "\"sessions\":1",
        "\"queue_depth_hwm\":",
        "\"dropped_broadcast\":0",
        "\"plan_cache_",
    ] {
        assert!(json.contains(needle), "missing {needle} in {json}");
    }
    server.shutdown();
}

/// Send `script` as logical session `sid` (`None`: wire v1, no prefix)
/// and collect the replies up to the fatal parse error that ends it,
/// session prefix stripped.
fn replay(m: &mut Mux, sid: Option<u32>, script: &[(u8, Vec<u8>)]) -> Vec<Frame> {
    for (opcode, payload) in script {
        match sid {
            Some(sid) => m.send(sid, *opcode, payload),
            None => m.send_raw(*opcode, payload),
        }
    }
    let mut replies = Vec::new();
    loop {
        let f = match sid {
            Some(sid) => m.recv_for(sid),
            None => m.recv_raw(),
        };
        let last =
            f.op == op::ERR && xsq_server::proto::err_code(&f.payload) == Some(errcode::PARSE);
        replies.push(f);
        if last {
            return replies;
        }
    }
}

/// The member names of a flat STAT_OK object.
fn stat_keys(json: &[u8]) -> Vec<String> {
    let json = std::str::from_utf8(json).unwrap();
    json.trim_matches(|c| c == '{' || c == '}')
        .split(',')
        .map(|member| member.split(':').next().unwrap().to_string())
        .collect()
}

/// Wire v1 is the v2 session with no id: the same frames through either
/// framing produce the same replies, byte for byte, once the v2 prefix
/// is stripped — admission, streaming, document boundaries, a
/// recoverable error and a fatal one alike.
#[test]
fn wire_v1_replies_equal_a_single_v2_session_minus_the_prefix() {
    let server = start_server();
    let addr = server.addr().to_string();
    let queries = [
        "//pub[year>2000]//book//name/text()",
        "//book/@id",
        "//price/sum()",
        "//book/count()",
    ];
    // The second SUB's third query is unsupported; it shares a prefix
    // group with the first two, so the rejection surfaces from planning.
    let unsupported = "/a/b/text()\n/a/c/text()\n/a/b[position()=2]/text()";
    let mut script: Vec<(u8, Vec<u8>)> = vec![
        (op::SUB, b"/a[".to_vec()),
        (op::SUB, unsupported.as_bytes().to_vec()),
        (op::SUB, queries.join("\n").into_bytes()),
    ];
    for doc in [DOC_A, DOC_B, DOC_A] {
        script.extend(doc.as_bytes().chunks(13).map(|c| (op::FEED, c.to_vec())));
        script.push((op::END_DOC, Vec::new()));
    }
    script.push((op::STAT, Vec::new()));
    script.push((op::FEED, b"<pub><book></pub>".to_vec()));

    let v1 = replay(&mut Mux::connect(&addr), None, &script);
    let mut m = Mux::hello(&addr);
    let v2 = replay(&mut m, Some(5), &script);

    let ops = |frames: &[Frame]| frames.iter().map(|f| f.op).collect::<Vec<_>>();
    assert_eq!(ops(&v1), ops(&v2));
    for want in [op::ERR, op::SUB_OK, op::RESULT, op::UPDATE, op::DOC_OK] {
        assert!(ops(&v1).contains(&want), "no 0x{want:02x} reply in the run");
    }
    assert_eq!(err_code_of(&v1[0]), errcode::BAD_QUERY);
    // A rejected batch names the query that carries the offence — text
    // and diagnostics alike — in either framing (payloads compare below).
    assert_eq!(err_code_of(&v1[1]), errcode::BAD_QUERY);
    let rejected = String::from_utf8_lossy(&v1[1].payload).into_owned();
    assert!(
        rejected.contains("query 3 (/a/b[position()=2]/text())"),
        "{rejected}"
    );
    assert!(!rejected.contains("query 1"), "{rejected}");
    assert!(
        rejected.contains("\"diagnostics\":[") && rejected.contains("step `/b[position()=2]`"),
        "{rejected}"
    );
    for (a, b) in v1.iter().zip(&v2) {
        if a.op == op::STAT_OK {
            // Counters differ (connections, queue marks); the shape may not.
            assert_eq!(stat_keys(&a.payload), stat_keys(&b.payload));
        } else {
            assert_eq!(a.payload, b.payload, "opcode 0x{:02x} diverged", a.op);
        }
    }
    // The one policy difference: the fatal error took only session 5,
    // not the v2 connection.
    sub(&mut m, 6, &["//a/count()"]);
    server.shutdown();
}

#[test]
fn a_v2_frame_too_short_for_a_session_id_is_recoverable() {
    let server = start_server();
    let addr = server.addr().to_string();
    let mut m = Mux::hello(&addr);
    let qa = ["//book/name/text()"];
    sub(&mut m, 1, &qa);

    m.send_raw(op::FEED, b"ab");
    let f = m.recv_for(CONTROL_SESSION);
    assert_eq!(err_code_of(&f), errcode::PROTOCOL);

    let mut out = String::new();
    feed_doc(&mut m, 1, DOC_A, 0, 9, &mut out);
    let expect = reference_output(XsqEngine::full(), &qa, &[DOC_A.as_bytes()], false).unwrap();
    assert_eq!(out, expect);
    server.shutdown();
}
