//! The paper's running examples, replayed literally.
//!
//! Figure 1 / Example 1: out-of-order predicates force buffering and
//! selective release. Figure 2 / Examples 2, 5, 6, 7: recursive data plus
//! closures create multiple simultaneous match paths; exactly one of
//! them satisfies all predicates.

use xsq::engine::{evaluate, Sink, VecSink, XsqEngine};

/// Figure 1's document (whitespace-normalized).
const FIG1: &str = r#"<root>
  <pub>
    <book id="1">
      <price>12.00</price>
      <name>First</name>
      <author>A</author>
      <price type="discount">10.00</price>
    </book>
    <book id="2">
      <price>14.00</price>
      <name>Second</name>
      <author>A</author>
      <author>B</author>
      <price type="discount">12.00</price>
    </book>
    <year>2002</year>
  </pub>
</root>"#;

/// Figure 2's document.
const FIG2: &str = r#"<root>
  <pub>
    <book>
      <name>X</name>
      <author>A</author>
    </book>
    <book>
      <name>Y</name>
      <pub>
        <book>
          <name>Z</name>
          <author>B</author>
        </book>
        <year>1999</year>
      </pub>
    </book>
    <year>2002</year>
  </pub>
</root>"#;

#[test]
fn example_1_buffers_until_predicates_resolve() {
    // /pub[year=2002]/book[price<11]/author — under the figure's real
    // root element the path starts at root/pub.
    let r = evaluate(
        "/root/pub[year=2002]/book[price<11]/author",
        FIG1.as_bytes(),
    )
    .unwrap();
    // Only book 1 has a price < 11; its author A is the sole result,
    // released when <year>2002 finally satisfies the first predicate.
    assert_eq!(r, ["<author>A</author>"]);
}

#[test]
fn example_1_text_output_variant() {
    let r = evaluate(
        "/root/pub[year=2002]/book[price<11]/author/text()",
        FIG1.as_bytes(),
    )
    .unwrap();
    assert_eq!(r, ["A"]);
}

#[test]
fn example_1_authors_of_book_2_are_discarded() {
    // Tighten the price bound so no book passes: the buffered authors of
    // both books must be cleared, not emitted.
    let r = evaluate(
        "/root/pub[year=2002]/book[price<9]/author/text()",
        FIG1.as_bytes(),
    )
    .unwrap();
    assert!(r.is_empty());
}

#[test]
fn example_1_year_mismatch_discards_everything() {
    let r = evaluate(
        "/root/pub[year=2001]/book[price<11]/author/text()",
        FIG1.as_bytes(),
    )
    .unwrap();
    assert!(r.is_empty());
}

#[test]
fn headline_query_from_the_introduction() {
    // //book[year>2000]/name/text() — Figure 1's books have no year
    // children (year belongs to pub), so the result is empty…
    let r = evaluate("//book[year>2000]/name/text()", FIG1.as_bytes()).unwrap();
    assert!(r.is_empty());
    // …while //pub[year>2000]//name/text() returns both names.
    let r = evaluate("//pub[year>2000]//name/text()", FIG1.as_bytes()).unwrap();
    assert_eq!(r, ["First", "Second"]);
}

#[test]
fn example_2_only_the_satisfying_match_path_survives() {
    // //pub[year=2002]//book[author]//name: three match paths reach the
    // name Z (the paper's table); only pub(line 2) + book(line 10)
    // satisfies both predicates. X also qualifies via pub(2)+book(3).
    // Y's book has no author child.
    let r = evaluate("//pub[year=2002]//book[author]//name", FIG2.as_bytes()).unwrap();
    assert_eq!(r, ["<name>X</name>", "<name>Z</name>"]);
}

#[test]
fn example_2_text_output() {
    let r = evaluate(
        "//pub[year=2002]//book[author]//name/text()",
        FIG2.as_bytes(),
    )
    .unwrap();
    assert_eq!(r, ["X", "Z"]);
}

#[test]
fn example_2_duplicate_avoidance_when_two_paths_satisfy() {
    // The paper: "if we add an author element … for the book element in
    // line 7, the match in the first row would also evaluate both
    // predicates to true. In such cases, we have to avoid duplicates."
    let doc = FIG2.replace("<name>Y</name>", "<name>Y</name><author>C</author>");
    let r = evaluate(
        "//pub[year=2002]//book[author]//name/text()",
        doc.as_bytes(),
    )
    .unwrap();
    // Z now matches via book(7) and book(10) — but appears once; Y's
    // book now qualifies so Y and Z are results, plus X.
    assert_eq!(r, ["X", "Y", "Z"]);
}

#[test]
fn example_2_inner_pub_year_fails() {
    // Restrict to the inner pub's year (1999): no pub satisfies
    // [year=1999] except the inner one, whose book has an author → Z.
    let r = evaluate(
        "//pub[year=1999]//book[author]//name/text()",
        FIG2.as_bytes(),
    )
    .unwrap();
    assert_eq!(r, ["Z"]);
}

#[test]
fn example_4_catchall_element_output() {
    // Fig. 10's query /pub[year>2000] with no output expression emits
    // whole pub elements (catchall transitions).
    let doc = "<pub><book><name>N</name></book><year>2002</year></pub>";
    let r = evaluate("/pub[year>2000]", doc.as_bytes()).unwrap();
    assert_eq!(r, [doc]);
    let doc_no = "<pub><book><name>N</name></book><year>1999</year></pub>";
    let r = evaluate("/pub[year>2000]", doc_no.as_bytes()).unwrap();
    assert!(r.is_empty());
}

#[test]
fn example_5_fig11_walkthrough_on_fig1_stream() {
    // §4.1 walks Fig. 11's HPDT over Figure 1's stream (conceptually:
    // names buffered, uploaded at author, flushed at year>2000).
    let r = evaluate(
        "//pub[year>2000]//book[author]//name/text()",
        FIG1.as_bytes(),
    )
    .unwrap();
    assert_eq!(r, ["First", "Second"]);
}

#[test]
fn example_7_values_between_witness_text_and_end_tag() {
    // The paper's Example 7 worries about a result element arriving
    // after the text event of year but before its end tag (mixed
    // content). The upload definition guarantees it is not lost.
    let doc = "<root><pub><book><author>A</author>\
               <name>Early</name></book>\
               <year>2002<extra/></year>\
               <book><author>B</author><name>Late</name></book></pub></root>";
    let r = evaluate(
        "//pub[year=2002]//book[author]//name/text()",
        doc.as_bytes(),
    )
    .unwrap();
    assert_eq!(r, ["Early", "Late"]);
}

#[test]
fn aggregation_example_from_section_4_4() {
    // //pub[year>2000]//book[author]//name/count() — replacing flush
    // with stat.update; running updates emitted as the stream advances.
    let mut sink = VecSink::new();
    let compiled = XsqEngine::full()
        .compile_str("//pub[year>2000]//book[author]//name/count()")
        .unwrap();
    compiled.run_document(FIG2.as_bytes(), &mut sink).unwrap();
    assert_eq!(sink.results, ["2"]); // X and Z
    assert!(!sink.updates.is_empty(), "running updates must stream");
    assert_eq!(*sink.updates.last().unwrap(), 2.0);
}

#[test]
fn results_stream_as_soon_as_determined() {
    // Feed Figure 1 event by event; the authors must be emitted exactly
    // when the year arrives, not at document end.
    let compiled = XsqEngine::full()
        .compile_str("/root/pub[year=2002]/book[price<11]/author/text()")
        .unwrap();
    let events = xsq::xml::parse_to_events(FIG1.as_bytes()).unwrap();
    let mut runner = compiled.runner();

    struct Probe {
        results: Vec<String>,
    }
    impl Sink for Probe {
        fn result(&mut self, v: &str) {
            self.results.push(v.to_string());
        }
    }
    let mut sink = Probe { results: vec![] };
    let year_text_pos = events
        .iter()
        .position(|e| matches!(e, xsq::xml::SaxEvent::Text { text, .. } if text.trim() == "2002"))
        .unwrap();
    for e in &events[..year_text_pos] {
        runner.feed_raw(&e.as_raw(), &mut sink);
    }
    assert!(
        sink.results.is_empty(),
        "nothing should emit before the year"
    );
    runner.feed_raw(&events[year_text_pos].as_raw(), &mut sink);
    assert_eq!(
        sink.results,
        ["A"],
        "the year event releases the buffered author"
    );
}
