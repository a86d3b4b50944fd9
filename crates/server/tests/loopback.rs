//! Loopback end-to-end conformance: a real server on 127.0.0.1, the
//! reference client, and byte-comparison against the in-process
//! sequential driver — the ISSUE's acceptance gate.

use std::time::Duration;

use xsq_core::XsqEngine;
use xsq_server::{
    reference_output, run_corpus, serve, stat_field_u64, ConnectOptions, ServeOptions,
};

/// Figure 1 of the paper (annotated bookstore document), plus a
/// recursive sibling — the same corpus style as `tests/shard_equivalence.rs`.
const FIG1: &str = r#"<pub><name>PrenticeHall</name><book id="1">
<name>First</name><author>A1</author><price>55.00</price></book>
<book id="2"><name>Second</name><author>A2</author><author>A3</author>
<price>21.50</price></book><year>2002</year></pub>"#;

const RECURSIVE: &str = r#"<pub><pub><book id="7"><name>Inner</name>
<author>X</author><price>9.99</price></book><year>2003</year></pub>
<book id="8"><name>Outer</name><price>12.00</price></book>
<year>2001</year></pub>"#;

const HAZARDS: &str =
    "<pub year=\"2002\r\n2003\"><book id=\"1\"><name>\u{65e5}\u{672c}\r\nX</name>\
     <![CDATA[x]]y\r\nz\u{1F680}]]><price>10.5</price></book>\
     <book id=\"2\"><name>&lt;tag&gt; &#x41;</name><price>20.5</price></book></pub>";

/// The paper-suite queries the shard tests run: structural paths,
/// predicates, closures, attributes, aggregations.
const QUERIES: &[&str] = &[
    "//pub[year>2000]//book[author]//name/text()",
    "/pub/book/name/text()",
    "//book/@id",
    "//book[price<30]/price/text()",
    "//price/sum()",
    "//book/count()",
];

fn corpus() -> Vec<Vec<u8>> {
    vec![
        FIG1.as_bytes().to_vec(),
        RECURSIVE.as_bytes().to_vec(),
        HAZARDS.as_bytes().to_vec(),
        FIG1.as_bytes().to_vec(),
    ]
}

fn start_server() -> xsq_server::ServerHandle {
    let mut opts = ServeOptions::new("127.0.0.1:0");
    opts.idle_timeout = Duration::from_secs(10);
    serve(opts).expect("server binds")
}

fn client_output(addr: &str, queries: &[&str], docs: &[Vec<u8>], chunk: usize) -> String {
    let mut out = Vec::new();
    let opts = ConnectOptions {
        chunk,
        running: true,
        want_stats: false,
    };
    run_corpus(addr, queries, docs, &opts, &mut out).expect("corpus replay succeeds");
    String::from_utf8(out).expect("client output is UTF-8")
}

#[test]
fn loopback_output_is_byte_identical_to_sequential_driver() {
    let server = start_server();
    let addr = server.addr().to_string();
    let docs = corpus();
    let expected = reference_output(XsqEngine::full(), QUERIES, &docs, true).unwrap();
    assert!(!expected.is_empty(), "oracle produced no output");
    for chunk in [64 * 1024, 7, 1] {
        let got = client_output(&addr, QUERIES, &docs, chunk);
        assert_eq!(got, expected, "chunk size {chunk} diverged from the driver");
    }
    server.shutdown();
}

#[test]
fn sessions_reuse_parser_and_index_across_many_documents() {
    // One session, 32 documents: the push parser is reset between
    // documents and the index runners are finished/rearmed each time;
    // any state leak shows up as a diff against the per-doc oracle.
    let server = start_server();
    let addr = server.addr().to_string();
    let docs: Vec<Vec<u8>> = (0..32)
        .map(|i| match i % 3 {
            0 => FIG1.as_bytes().to_vec(),
            1 => RECURSIVE.as_bytes().to_vec(),
            _ => HAZARDS.as_bytes().to_vec(),
        })
        .collect();
    let expected = reference_output(XsqEngine::full(), QUERIES, &docs, true).unwrap();
    let got = client_output(&addr, QUERIES, &docs, 13);
    assert_eq!(got, expected);
    server.shutdown();
}

#[test]
fn concurrent_sessions_are_isolated() {
    let server = start_server();
    let addr = server.addr().to_string();
    // Each session subscribes a different slice of the suite over a
    // different corpus; outputs must match each session's own oracle.
    let jobs: Vec<(Vec<&str>, Vec<Vec<u8>>)> = vec![
        (QUERIES[..2].to_vec(), corpus()),
        (QUERIES[2..4].to_vec(), vec![RECURSIVE.as_bytes().to_vec()]),
        (QUERIES[4..].to_vec(), corpus()),
        (vec!["//name/text()"], vec![HAZARDS.as_bytes().to_vec(); 5]),
    ];
    let threads: Vec<_> = jobs
        .into_iter()
        .map(|(queries, docs)| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let expected = reference_output(XsqEngine::full(), &queries, &docs, true).unwrap();
                let got = client_output(&addr, &queries, &docs, 5);
                assert_eq!(got, expected);
            })
        })
        .collect();
    for t in threads {
        t.join().expect("session thread");
    }
    server.shutdown();
}

#[test]
fn stat_frame_reports_session_metrics() {
    let server = start_server();
    let addr = server.addr().to_string();
    let docs = corpus();
    let mut out = Vec::new();
    let opts = ConnectOptions {
        chunk: 11,
        running: false,
        want_stats: true,
    };
    let report = run_corpus(&addr, QUERIES, &docs, &opts, &mut out).unwrap();
    assert_eq!(report.docs, docs.len());
    assert!(report.results > 0);
    let stats = report.stats_json.expect("STAT_OK payload");
    let bytes: u64 = docs.iter().map(|d| d.len() as u64).sum();
    for needle in [
        "\"engine\":\"xsq-f\"".to_string(),
        format!("\"docs\":{}", docs.len()),
        format!("\"bytes_in\":{bytes}"),
        format!("\"results\":{}", report.results),
        "\"peak_configs\":".to_string(),
        "\"frames_in\":".to_string(),
    ] {
        assert!(stats.contains(&needle), "missing {needle} in {stats}");
    }
    server.shutdown();
}

/// The compiled-plan cache is cross-connection: a second connection
/// subscribing the same batch hits the cache.
#[test]
fn plan_cache_is_shared_across_connections() {
    let server = start_server();
    let addr = server.addr().to_string();
    let docs = vec![FIG1.as_bytes().to_vec()];
    let copts = ConnectOptions {
        chunk: 64 * 1024,
        running: false,
        want_stats: true,
    };
    // Entries are evicted on last unsubscribe, so the first
    // subscription must still be live when the second arrives.
    use std::io::{BufReader, Write};
    use xsq_server::proto::{frame_bytes, op, read_frame};
    use xsq_server::MAX_FRAME;
    let holder = std::net::TcpStream::connect(&addr).unwrap();
    holder.set_nodelay(true).unwrap();
    holder
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut hreader = BufReader::new(holder.try_clone().unwrap());
    let mut hwriter = holder;
    hwriter
        .write_all(&frame_bytes(op::SUB, QUERIES.join("\n").as_bytes()))
        .unwrap();
    hwriter.flush().unwrap();
    let subok = read_frame(&mut hreader, MAX_FRAME).unwrap().unwrap();
    assert_eq!(subok.op, op::SUB_OK);

    let mut out = Vec::new();
    let report = run_corpus(&addr, QUERIES, &docs, &copts, &mut out).unwrap();
    let stats = report.stats_json.expect("STAT_OK payload");
    let hits = stat_field_u64(&stats, "plan_cache_hits")
        .unwrap_or_else(|| panic!("no plan_cache_hits in {stats}"));
    assert!(
        hits >= 1,
        "second identical SUB batch should hit the live plan cache: {stats}"
    );

    // After the holder unsubscribes too, the entry is evicted: a
    // fresh identical batch misses again.
    hwriter.write_all(&frame_bytes(op::BYE, &[])).unwrap();
    hwriter.flush().unwrap();
    assert_eq!(
        read_frame(&mut hreader, MAX_FRAME).unwrap().unwrap().op,
        op::OK
    );
    drop(hwriter);
    let mut out = Vec::new();
    let report = run_corpus(&addr, QUERIES, &docs, &copts, &mut out).unwrap();
    let stats = report.stats_json.expect("STAT_OK payload");
    assert_eq!(
        stat_field_u64(&stats, "plan_cache_entries"),
        Some(1),
        "only the fresh checkout remains after eviction: {stats}"
    );
    server.shutdown();
}

#[test]
fn shutdown_drains_idle_sessions_and_joins() {
    let server = start_server();
    let addr = server.addr().to_string();
    // A completed conversation, then a lingering idle connection.
    let docs = vec![FIG1.as_bytes().to_vec()];
    let _ = client_output(&addr, &["//name/text()"], &docs, 17);
    let lingering = std::net::TcpStream::connect(&addr).unwrap();
    // Shutdown must disconnect the idle session promptly (the framed
    // shutting-down error or a plain close) and join every worker.
    let t0 = std::time::Instant::now();
    server.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown took {:?}",
        t0.elapsed()
    );
    drop(lingering);
    // The listener is gone: new connections are refused.
    assert!(std::net::TcpStream::connect(&addr).is_err());
}
