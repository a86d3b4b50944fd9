//! Many standing queries over one stream (§5's YFilter-style grouping),
//! plus stream projection.
//!
//! A publish/subscribe scenario: several subscribers register XPath
//! queries over a document feed; the engine parses each document once
//! and evaluates the whole query set against it. A projector shows how
//! much of the stream a selective query even needs to see.
//!
//! ```sh
//! cargo run --release --example multi_subscriber
//! ```

use xsq::engine::{projector::Projector, QuerySet, XsqEngine};
use xsq::xpath::parse_query;

fn main() {
    let subscriptions = [
        "//book[author]/name/text()",    // notify on attributed books
        "//book[price<11]/name/text()",  // bargain watcher
        "//pub[year=2002]//name/text()", // current-year digest
        "//price/sum()",                 // spend tracker
        "//book/count()",                // volume metric
    ];
    let set =
        QuerySet::compile(XsqEngine::full(), &subscriptions).expect("all subscriptions compile");

    // Three documents arrive on the feed.
    let feed: [&[u8]; 3] = [
        br#"<root><pub><book id="1"><price>12.00</price><name>First</name>
            <author>A</author><price type="discount">10.00</price></book>
            <book id="2"><price>14.00</price><name>Second</name><author>A</author>
            <author>B</author><price type="discount">12.00</price></book>
            <year>2002</year></pub></root>"#,
        br#"<root><pub><book><name>Anonymous</name><price>8.00</price></book>
            <year>1999</year></pub></root>"#,
        br#"<root><pub><year>2002</year></pub></root>"#,
    ];

    for (d, doc) in feed.iter().enumerate() {
        println!("document {d}: one parse, {} queries", set.len());
        let results = set.run_document(doc).expect("well-formed feed");
        for (q, r) in set.texts().zip(&results) {
            println!("  {q:<34} -> {r:?}");
        }
    }

    // The same workload through the dynamic subscription API: subscribers
    // come and go between documents, the index recompiles nothing, and
    // the dispatch index steps only the runners each event can affect.
    use xsq::{QueryId, QueryIndex, QuerySink};

    struct Notify;
    impl QuerySink for Notify {
        fn result(&mut self, id: QueryId, value: &str) {
            println!("  notify subscriber {}: {value}", id.0);
        }
    }

    let mut index = QueryIndex::new(XsqEngine::full());
    let ids = index
        .subscribe_group(&subscriptions)
        .expect("all subscriptions compile");
    println!(
        "\nquery index: {} subscriptions in {} runner groups",
        index.len(),
        index.group_count()
    );
    let mut notify = Notify;
    for (d, doc) in feed.iter().enumerate() {
        println!("document {d}:");
        index
            .run_document(doc, &mut notify)
            .expect("well-formed feed");
        if d == 0 {
            // The bargain watcher churns out after the first document …
            index.unsubscribe(ids[1]);
            // … and a new subscriber joins for the rest of the feed.
            index.subscribe("//pub/year/text()").expect("compiles");
        }
    }
    println!(
        "dispatch: {} runner touches for {} events × {} queries (loop path: {})",
        index.touches(),
        index.events(),
        index.len(),
        index.events() * index.len() as u64
    );

    // Projection: how much of the stream does a selective subscription
    // actually need?
    let query = parse_query("/root/pub/book[author]/name/text()").unwrap();
    let mut projector = Projector::new(&query);
    let events = xsq::xml::parse_to_events(feed[0]).unwrap();
    let kept: Vec<_> = events
        .iter()
        .filter(|e| projector.keep(&e.as_raw()))
        .collect();
    println!(
        "\nprojection for {}: kept {} of {} events ({:.0}% dropped)",
        query,
        kept.len(),
        events.len(),
        projector.selectivity() * 100.0
    );
}
