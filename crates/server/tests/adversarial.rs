//! Adversarial-client tests: torn writes, mid-frame disconnects,
//! oversized frames, protocol violations. The server must reply with
//! framed errors where possible, never corrupt other sessions, and
//! never wedge a worker.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use xsq_server::proto::{err_code, errcode, frame_bytes, op, read_frame, WireBound, MAX_FRAME};
use xsq_server::{serve, ServeOptions, ServerHandle, SessionLimits};

fn start_server(configure: impl FnOnce(&mut ServeOptions)) -> ServerHandle {
    let mut opts = ServeOptions::new("127.0.0.1:0");
    opts.idle_timeout = Duration::from_secs(5);
    configure(&mut opts);
    serve(opts).expect("server binds")
}

fn connect(server: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
}

fn expect_frame(stream: &mut TcpStream, expected_op: u8) -> Vec<u8> {
    let frame = read_frame(stream, MAX_FRAME)
        .expect("read reply")
        .expect("connection open");
    assert_eq!(
        frame.op,
        expected_op,
        "expected opcode 0x{expected_op:02x}, got 0x{:02x} ({:?})",
        frame.op,
        String::from_utf8_lossy(&frame.payload)
    );
    frame.payload
}

fn expect_eof(stream: &mut TcpStream) {
    assert!(
        read_frame(stream, MAX_FRAME).expect("read").is_none(),
        "expected the server to close the connection"
    );
}

/// A full valid conversation written one byte at a time: every frame
/// header, opcode, and payload boundary is torn.
#[test]
fn one_byte_socket_writes_still_parse() {
    let server = start_server(|_| {});
    let mut stream = connect(&server);
    let mut conversation = Vec::new();
    conversation.extend_from_slice(&frame_bytes(op::SUB, b"/a/b/text()"));
    conversation.extend_from_slice(&frame_bytes(op::FEED, b"<a><b>torn</b></a>"));
    conversation.extend_from_slice(&frame_bytes(op::END_DOC, &[]));
    conversation.extend_from_slice(&frame_bytes(op::BYE, &[]));
    for byte in conversation {
        stream.write_all(&[byte]).unwrap();
    }
    stream.flush().unwrap();
    expect_frame(&mut stream, op::SUB_OK);
    let result = expect_frame(&mut stream, op::RESULT);
    assert_eq!(&result[4..], b"torn");
    expect_frame(&mut stream, op::DOC_OK);
    expect_frame(&mut stream, op::OK);
    expect_eof(&mut stream);
    server.shutdown();
}

#[test]
fn mid_frame_disconnect_leaves_the_server_serving() {
    let server = start_server(|_| {});
    {
        let mut stream = connect(&server);
        // A declared 100-byte frame with only 3 bytes sent, then gone.
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[op::FEED, b'<', b'a']).unwrap();
        stream.flush().unwrap();
    } // dropped: RST/FIN inside a frame body
      // The worker must shrug that off and serve the next client fully.
    let mut stream = connect(&server);
    stream
        .write_all(&frame_bytes(op::SUB, b"//b/count()"))
        .unwrap();
    stream
        .write_all(&frame_bytes(op::FEED, b"<a><b/><b/></a>"))
        .unwrap();
    stream.write_all(&frame_bytes(op::END_DOC, &[])).unwrap();
    stream.flush().unwrap();
    expect_frame(&mut stream, op::SUB_OK);
    // count() streams running UPDATE frames before its final RESULT.
    let mut results = Vec::new();
    loop {
        let frame = read_frame(&mut stream, MAX_FRAME).unwrap().unwrap();
        match frame.op {
            op::UPDATE => {}
            op::RESULT => results.push(frame.payload[4..].to_vec()),
            op::DOC_OK => break,
            other => panic!("unexpected opcode 0x{other:02x}"),
        }
    }
    assert_eq!(results, [b"2".to_vec()]);
    server.shutdown();
}

#[test]
fn oversized_frame_is_rejected_with_framed_error() {
    let server = start_server(|_| {});
    let mut stream = connect(&server);
    // Declare a frame far over the 16 MiB cap; the body is never sent —
    // the server must reject on the declared length alone.
    stream
        .write_all(&(64 * 1024 * 1024u32).to_le_bytes())
        .unwrap();
    stream.flush().unwrap();
    let payload = expect_frame(&mut stream, op::ERR);
    assert_eq!(err_code(&payload), Some(errcode::TOO_LARGE));
    expect_eof(&mut stream);
    server.shutdown();
}

#[test]
fn unknown_opcode_is_rejected_and_closed() {
    let server = start_server(|_| {});
    let mut stream = connect(&server);
    stream.write_all(&frame_bytes(0x42, b"junk")).unwrap();
    stream.flush().unwrap();
    let payload = expect_frame(&mut stream, op::ERR);
    assert_eq!(err_code(&payload), Some(errcode::UNKNOWN_OP));
    expect_eof(&mut stream);
    server.shutdown();
}

#[test]
fn interleaved_sub_during_feed_is_deferred_over_the_wire() {
    let server = start_server(|_| {});
    let mut stream = connect(&server);
    let doc: &[u8] = b"<a><b>v</b></a>";
    stream
        .write_all(&frame_bytes(op::SUB, b"/a/b/text()"))
        .unwrap();
    stream.write_all(&frame_bytes(op::FEED, &doc[..6])).unwrap();
    // SUB while the document is in flight: promised now, live next doc.
    stream
        .write_all(&frame_bytes(op::SUB, b"//b/text()"))
        .unwrap();
    stream.write_all(&frame_bytes(op::FEED, &doc[6..])).unwrap();
    stream.write_all(&frame_bytes(op::END_DOC, &[])).unwrap();
    stream.flush().unwrap();
    expect_frame(&mut stream, op::SUB_OK);
    let second = expect_frame(&mut stream, op::SUB_OK);
    assert_eq!(u32::from_le_bytes(second[4..8].try_into().unwrap()), 1);
    // Document 1: only query 0 answers.
    let r = expect_frame(&mut stream, op::RESULT);
    assert_eq!(u32::from_le_bytes(r[..4].try_into().unwrap()), 0);
    expect_frame(&mut stream, op::DOC_OK);
    // Document 2: both answer.
    stream.write_all(&frame_bytes(op::FEED, doc)).unwrap();
    stream.write_all(&frame_bytes(op::END_DOC, &[])).unwrap();
    stream.flush().unwrap();
    let r1 = expect_frame(&mut stream, op::RESULT);
    let r2 = expect_frame(&mut stream, op::RESULT);
    let mut ids = [
        u32::from_le_bytes(r1[..4].try_into().unwrap()),
        u32::from_le_bytes(r2[..4].try_into().unwrap()),
    ];
    ids.sort_unstable();
    assert_eq!(ids, [0, 1]);
    expect_frame(&mut stream, op::DOC_OK);
    server.shutdown();
}

#[test]
fn malformed_document_gets_parse_error_and_close() {
    let server = start_server(|_| {});
    let mut stream = connect(&server);
    stream
        .write_all(&frame_bytes(op::SUB, b"/a/text()"))
        .unwrap();
    stream
        .write_all(&frame_bytes(op::FEED, b"<a><b></a>"))
        .unwrap();
    stream.write_all(&frame_bytes(op::END_DOC, &[])).unwrap();
    stream.flush().unwrap();
    expect_frame(&mut stream, op::SUB_OK);
    let payload = expect_frame(&mut stream, op::ERR);
    assert_eq!(err_code(&payload), Some(errcode::PARSE));
    expect_eof(&mut stream);
    server.shutdown();
}

#[test]
fn idle_connection_times_out_with_framed_error() {
    let server = start_server(|o| o.idle_timeout = Duration::from_millis(300));
    let mut stream = connect(&server);
    // Send nothing; within the idle window the server must close with
    // a framed idle-timeout error.
    let payload = expect_frame(&mut stream, op::ERR);
    assert_eq!(err_code(&payload), Some(errcode::IDLE_TIMEOUT));
    expect_eof(&mut stream);
    server.shutdown();
}

#[test]
fn over_budget_sub_is_rejected_recoverably_over_tcp() {
    // `xsq serve --max-bound 0 --dtd dblp.dtd`: a query whose static
    // bound is Items(1) must be refused with a recoverable framed error
    // carrying the bound analyzer's derivation, and the session must
    // keep serving admitted queries afterwards.
    let dtd = std::sync::Arc::new(
        xsq_xml::dtd::Dtd::parse(
            "<!ELEMENT dblp ((article | inproceedings)*)>\
             <!ELEMENT article (author*, title, year, pages)>\
             <!ELEMENT inproceedings (author*, title, year, pages, booktitle?)>\
             <!ELEMENT author (#PCDATA)> <!ELEMENT title (#PCDATA)>\
             <!ELEMENT year (#PCDATA)> <!ELEMENT pages (#PCDATA)>\
             <!ELEMENT booktitle (#PCDATA)>",
        )
        .unwrap(),
    );
    let server = start_server(|o| {
        o.limits = SessionLimits {
            max_bound: Some(0),
            dtd: Some(dtd),
        };
    });
    let mut stream = connect(&server);
    stream
        .write_all(&frame_bytes(
            op::SUB,
            b"/dblp/inproceedings[author]/title/text()",
        ))
        .unwrap();
    stream.flush().unwrap();
    let payload = expect_frame(&mut stream, op::ERR);
    assert_eq!(err_code(&payload), Some(errcode::OVER_BUDGET));
    let text = String::from_utf8_lossy(&payload);
    assert!(text.contains("memory-bound"), "payload: {text}");
    assert!(text.contains("outermost-undecided-step"), "payload: {text}");
    // Recoverable: a bufferless query is admitted on the same socket,
    // gets id 0 (the rejected batch consumed none), reports a Zero
    // bound in the SUB_OK tail, and answers documents.
    stream
        .write_all(&frame_bytes(op::SUB, b"/dblp/article/title/text()"))
        .unwrap();
    stream
        .write_all(&frame_bytes(
            op::FEED,
            b"<dblp><article><title>T</title></article></dblp>",
        ))
        .unwrap();
    stream.write_all(&frame_bytes(op::END_DOC, &[])).unwrap();
    stream.flush().unwrap();
    let sub_ok = expect_frame(&mut stream, op::SUB_OK);
    assert_eq!(u32::from_le_bytes(sub_ok[..4].try_into().unwrap()), 1);
    assert_eq!(u32::from_le_bytes(sub_ok[4..8].try_into().unwrap()), 0);
    assert_eq!(WireBound::decode(&sub_ok[8..]), Some(WireBound::Zero));
    let result = expect_frame(&mut stream, op::RESULT);
    assert_eq!(&result[4..], b"T");
    expect_frame(&mut stream, op::DOC_OK);
    server.shutdown();
}

#[test]
fn bad_query_error_carries_analyzer_diagnostics() {
    let server = start_server(|_| {});
    let mut stream = connect(&server);
    stream.write_all(&frame_bytes(op::SUB, b"/a[")).unwrap();
    stream.flush().unwrap();
    let payload = expect_frame(&mut stream, op::ERR);
    assert_eq!(err_code(&payload), Some(errcode::BAD_QUERY));
    let text = String::from_utf8_lossy(&payload);
    assert!(text.contains("\"diagnostics\":["), "payload: {text}");
    // Recoverable: the session still accepts a corrected SUB.
    stream
        .write_all(&frame_bytes(op::SUB, b"/a/text()"))
        .unwrap();
    stream.flush().unwrap();
    expect_frame(&mut stream, op::SUB_OK);
    server.shutdown();
}
