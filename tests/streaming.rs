//! Streaming-specific behavior: incremental feeding, bounded memory, the
//! "buffers only what must be buffered" claim, and aggregation over
//! never-ending feeds.

use xsq::datagen;
use xsq::engine::{Sink, VecSink, XsqEngine};
use xsq::xml::{RawEvent, SaxEvent};

fn events_of(doc: &str) -> Vec<SaxEvent> {
    xsq::xml::parse_to_events(doc.as_bytes()).unwrap()
}

#[test]
fn memory_stays_flat_while_the_stream_grows() {
    // Stream 50 identical record groups through one runner; peak buffered
    // bytes must not grow with the stream (only with the largest single
    // undecided region).
    let compiled = XsqEngine::full()
        .compile_str("//rec[flag=1]/value/text()")
        .unwrap();
    let one = "<rec><value>0123456789</value><flag>1</flag></rec>";
    let mut runner = compiled.runner();
    let mut sink = VecSink::new();
    runner.feed_raw(&SaxEvent::StartDocument.as_raw(), &mut sink);
    runner.feed_raw(
        &RawEvent::Begin {
            name: "feed".into(),
            attributes: &[],
            depth: 1,
        },
        &mut sink,
    );
    let mut group_events = Vec::new();
    for ev in events_of(&format!("<feed>{one}</feed>")) {
        if !matches!(ev, SaxEvent::StartDocument | SaxEvent::EndDocument)
            && ev.name() != Some("feed")
        {
            group_events.push(ev);
        }
    }
    let mut peaks = Vec::new();
    for _ in 0..50 {
        for ev in &group_events {
            runner.feed_raw(&ev.as_raw(), &mut sink);
        }
        peaks.push(runner.memory().peak_bytes);
    }
    assert_eq!(sink.results.len(), 50);
    // Peak after 50 groups equals the peak after the first few: memory
    // does not scale with stream length.
    assert_eq!(peaks[4], *peaks.last().unwrap());
}

#[test]
fn aggregation_over_an_unbounded_feed_emits_running_values() {
    let compiled = XsqEngine::full()
        .compile_str("//trade/price/sum()")
        .unwrap();
    let mut runner = compiled.runner();
    let mut sink = VecSink::new();
    runner.feed_raw(&SaxEvent::StartDocument.as_raw(), &mut sink);
    runner.feed_raw(
        &RawEvent::Begin {
            name: "feed".into(),
            attributes: &[],
            depth: 1,
        },
        &mut sink,
    );
    for i in 1..=5 {
        for ev in events_of(&format!("<x><trade><price>{i}</price></trade></x>")) {
            // Re-anchor the fragment one level deeper.
            let ev = match ev {
                SaxEvent::StartDocument | SaxEvent::EndDocument => continue,
                SaxEvent::Begin {
                    name,
                    attributes,
                    depth,
                } if name != "x" => SaxEvent::Begin {
                    name,
                    attributes,
                    depth: depth + 1,
                },
                SaxEvent::End { name, depth } if name != "x" => SaxEvent::End {
                    name,
                    depth: depth + 1,
                },
                SaxEvent::Text {
                    element,
                    text,
                    depth,
                } => SaxEvent::Text {
                    element,
                    text,
                    depth: depth + 1,
                },
                other => {
                    // The wrapper <x> becomes a depth-2 element.
                    match other {
                        SaxEvent::Begin {
                            name, attributes, ..
                        } => SaxEvent::Begin {
                            name,
                            attributes,
                            depth: 2,
                        },
                        SaxEvent::End { name, .. } => SaxEvent::End { name, depth: 2 },
                        e => e,
                    }
                }
            };
            runner.feed_raw(&ev.as_raw(), &mut sink);
        }
    }
    // Running sums 1, 3, 6, 10, 15 appeared while the feed was open.
    assert_eq!(sink.updates, vec![1.0, 3.0, 6.0, 10.0, 15.0]);
    assert_eq!(runner.aggregate_value(), Some(15.0));
}

#[test]
fn xsq_buffers_only_undecidable_data() {
    // On the ordering template: a falsified @id predicate is known at the
    // begin event, so nothing buffers; a posterior-gated predicate keeps
    // each group buffered until its end. This is Fig. 21's mechanism.
    let doc = datagen::toxgene::ordering_dataset(40_000, 100);
    let by_id = XsqEngine::full().compile_str("/doc/a[@id=0]").unwrap();
    let by_post = XsqEngine::full()
        .compile_str("/doc/a[posterior=0]")
        .unwrap();
    let mut s1 = VecSink::new();
    let r1 = by_id.run_document(doc.as_bytes(), &mut s1).unwrap();
    let mut s2 = VecSink::new();
    let r2 = by_post.run_document(doc.as_bytes(), &mut s2).unwrap();
    assert!(s1.results.is_empty() && s2.results.is_empty());
    assert_eq!(
        r1.memory.peak_items, 0,
        "@id=0 is falsified at begin: no buffering"
    );
    assert!(
        r2.memory.peak_bytes > 100 * r1.memory.peak_bytes.max(1),
        "posterior-gated groups must be buffered ({} vs {})",
        r2.memory.peak_bytes,
        r1.memory.peak_bytes
    );
}

#[test]
fn buffered_region_bounded_by_one_top_level_group() {
    // Two consecutive groups: the first resolves (and frees) before the
    // second buffers, so peak ≈ one group, not two.
    let one_group = "<g><v>xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx</v><k>1</k></g>";
    let doc2 = format!("<r>{one_group}{one_group}</r>");
    let doc4 = format!("<r>{one_group}{one_group}{one_group}{one_group}</r>");
    let q = "//g[k=1]/v/text()";
    let compiled = XsqEngine::full().compile_str(q).unwrap();
    let mut s = VecSink::new();
    let m2 = compiled
        .run_document(doc2.as_bytes(), &mut s)
        .unwrap()
        .memory;
    let m4 = compiled
        .run_document(doc4.as_bytes(), &mut s)
        .unwrap()
        .memory;
    assert_eq!(
        m2.peak_bytes, m4.peak_bytes,
        "peak must not scale with group count"
    );
}

#[test]
fn results_arrive_in_document_order_even_when_resolved_out_of_order() {
    // The first book resolves late (price at the end), the second early;
    // output order must still be document order.
    let doc = "<pub>\
        <book><name>First</name><price>5</price></book>\
        <book><price>5</price><name>Second</name></book>\
        </pub>";
    let r = xsq::engine::evaluate("/pub/book[price<11]/name/text()", doc.as_bytes()).unwrap();
    assert_eq!(r, ["First", "Second"]);
}

#[test]
fn runner_reset_reuses_the_compiled_query() {
    let compiled = XsqEngine::full().compile_str("//g[k=1]/v/text()").unwrap();
    let mut runner = compiled.runner();
    for (doc, expected) in [
        ("<r><g><v>a</v><k>1</k></g></r>", vec!["a"]),
        ("<r><g><v>b</v><k>0</k></g></r>", vec![]),
        ("<r><g><k>1</k><v>c</v></g></r>", vec!["c"]),
    ] {
        runner.reset();
        let mut sink = VecSink::new();
        for ev in events_of(doc) {
            runner.feed_raw(&ev.as_raw(), &mut sink);
        }
        assert_eq!(sink.results, expected, "{doc}");
        assert_eq!(runner.buffered_entries(), 0);
    }
}

#[test]
fn fnsink_streams_into_a_closure() {
    let compiled = XsqEngine::full().compile_str("//b/text()").unwrap();
    let mut collected = Vec::new();
    {
        let mut sink = xsq::engine::FnSink(|v: &str| collected.push(v.len()));
        compiled
            .run_document(b"<a><b>xy</b><b>z</b></a>", &mut sink)
            .unwrap();
    }
    assert_eq!(collected, [2, 1]);
}

#[test]
fn runner_is_reusable_per_document_via_fresh_instances() {
    let compiled = XsqEngine::full().compile_str("//b/count()").unwrap();
    for n in 1..4 {
        let doc = format!("<a>{}</a>", "<b/>".repeat(n));
        let mut sink = VecSink::new();
        compiled.run_document(doc.as_bytes(), &mut sink).unwrap();
        assert_eq!(sink.results, [n.to_string()]);
    }
}

#[test]
fn sink_trait_objects_compose() {
    struct Tee<'a>(&'a mut Vec<String>, &'a mut u64);
    impl Sink for Tee<'_> {
        fn result(&mut self, v: &str) {
            self.0.push(v.to_string());
            *self.1 += 1;
        }
    }
    let mut values = Vec::new();
    let mut count = 0;
    let compiled = XsqEngine::no_closure().compile_str("/a/b/text()").unwrap();
    compiled
        .run_document(
            b"<a><b>1</b><b>2</b></a>",
            &mut Tee(&mut values, &mut count),
        )
        .unwrap();
    assert_eq!(values, ["1", "2"]);
    assert_eq!(count, 2);
}
