//! Example 5, §4.1: the paper walks Fig. 11's HPDT over Figure 1's
//! stream and narrates each buffer operation. This test replays the
//! walkthrough with the execution tracer and asserts the operations fire
//! at the narrated events.
//!
//! One fused hop relative to the paper: values produced under an
//! undecided ancestor are enqueued directly into the nearest undecided
//! ancestor's queue (the paper enqueues locally and uploads at the end
//! tag — Fig. 11's bpdt(3,4)); both routes are equivalent by the upload
//! definition of §4.3, and the observable operations from bpdt(2,2)
//! upward are identical.

use xsq_core::trace::TraceStep;
use xsq_core::{VecSink, XsqEngine};

const FIG1: &str = r#"<root><pub>
    <book id="1"><price>12.00</price><name>First</name><author>A</author>
      <price type="discount">10.00</price></book>
    <book id="2"><price>14.00</price><name>Second</name><author>A</author>
      <author>B</author><price type="discount">12.00</price></book>
    <year>2002</year>
</pub></root>"#;

#[test]
fn example_5_walkthrough_operations_fire_at_the_narrated_events() {
    // Fig. 11's query. Figure 1's document has a literal <root> element,
    // so the closure axes address it as in the paper.
    let query = "//pub[year>2000]//book[author]//name/text()";
    let compiled = XsqEngine::full().compile_str(query).unwrap();
    let mut steps: Vec<TraceStep> = Vec::new();
    let mut tracer = |s: TraceStep| steps.push(s);
    let mut runner = compiled.runner();
    runner.set_tracer(&mut tracer);
    let mut sink = VecSink::new();
    let mut parser = xsq_xml::StreamParser::new(FIG1.as_bytes());

    // Record when each result value is emitted (which input event).
    let mut emissions: Vec<(usize, String)> = Vec::new();
    let mut i = 0;
    while let Some(ev) = parser.next_raw().unwrap() {
        let before = sink.results.len();
        runner.feed_raw(&ev, &mut sink);
        for v in &sink.results[before..] {
            emissions.push((i, v.clone()));
        }
        i += 1;
    }
    runner.finish(&mut sink);
    assert_eq!(sink.results, ["First", "Second"]);

    let find_step = |pred: &dyn Fn(&TraceStep) -> bool| -> &TraceStep {
        steps.iter().find(|s| pred(s)).expect("step present")
    };

    // "When it encounters the name 'First' … it enqueues the text content
    //  into the buffer" — the text event of the first name emits a value.
    let first_text = find_step(&|s| s.event.contains("(name,text()"));
    assert!(
        first_text
            .fired
            .iter()
            .any(|f| f.actions.iter().any(|a| a == "emit")),
        "value produced at the name text event: {first_text}"
    );
    assert!(first_text.buffered_after > 0, "…and it is buffered");

    // "The next event is the begin event of the author element, thus the
    //  HPDT … uploads the item to the buffer of bpdt(1,1)." Example 5
    // narrates the upload at <author>; Fig. 8's template (and Example 7's
    // correctness argument) place the resolution on </author> so that
    // same-event uploads from inside the witness child arrive first —
    // this implementation follows the figure.
    let author_end = find_step(&|s| s.event.starts_with("(/author"));
    assert!(
        author_end.fired.iter().any(|f| f.owner.contains("bpdt(2,")
            && f.actions
                .iter()
                .any(|a| a.contains("upload") && a.contains("bpdt(1,1)"))),
        "the author witness uploads book-level buffers to bpdt(1,1): {author_end}"
    );

    // "When the HPDT encounters the text event of the year element, it
    //  evaluates [year.text()>2000] … and flushes the content of its
    //  buffer to the output."
    let year_text = find_step(&|s| s.event.contains("(year,text()"));
    assert!(
        year_text
            .fired
            .iter()
            .any(|f| f.owner == "bpdt(1,1)" && f.actions.iter().any(|a| a.contains("flush"))),
        "the year witness flushes bpdt(1,1): {year_text}"
    );

    // Both names were buffered until exactly that event — document order,
    // released together by the flush.
    let year_index = steps
        .iter()
        .position(|s| s.event.contains("(year,text()"))
        .unwrap();
    assert_eq!(
        emissions
            .iter()
            .map(|(i, v)| (*i, v.as_str()))
            .collect::<Vec<_>>(),
        vec![(year_index, "First"), (year_index, "Second")],
        "results must stream out at the year text event, in document order"
    );

    // After the document closes, no buffered state remains.
    assert_eq!(steps.last().unwrap().buffered_after, 0);
    assert_eq!(steps.last().unwrap().configs_after, 1);
}

#[test]
fn failed_predicate_path_clears_at_the_end_tag() {
    // Flip the year so the predicate fails: the clear must fire at the
    // </pub> end event and nothing is emitted.
    let doc = FIG1.replace("2002", "1999");
    let compiled = XsqEngine::full()
        .compile_str("//pub[year>2000]//book[author]//name/text()")
        .unwrap();
    let mut steps: Vec<TraceStep> = Vec::new();
    let mut tracer = |s: TraceStep| steps.push(s);
    let mut runner = compiled.runner();
    runner.set_tracer(&mut tracer);
    let mut sink = VecSink::new();
    let mut parser = xsq_xml::StreamParser::new(doc.as_bytes());
    while let Some(ev) = parser.next_raw().unwrap() {
        runner.feed_raw(&ev, &mut sink);
    }
    runner.finish(&mut sink);
    assert!(sink.results.is_empty());
    let pub_end = steps.iter().find(|s| s.event.starts_with("(/pub")).unwrap();
    assert!(
        pub_end
            .fired
            .iter()
            .any(|f| f.actions.iter().any(|a| a.contains("clear"))),
        "the failed predicate clears at </pub>: {pub_end}"
    );
    assert_eq!(pub_end.buffered_after, 0);
}
