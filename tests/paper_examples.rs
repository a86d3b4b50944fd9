//! The paper's running examples, replayed literally.
//!
//! Figure 1 / Example 1: out-of-order predicates force buffering and
//! selective release. Figure 2 / Examples 2, 5, 6, 7: recursive data plus
//! closures create multiple simultaneous match paths; exactly one of
//! them satisfies all predicates.

use xsq::engine::{evaluate, Sink, VecSink, XsqEngine};
use xsq::xml::RawEvent;

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
    let mut parser = xsq::xml::StreamParser::new(FIG1.as_bytes());
    let year = loop {
        let e = parser.next_raw().unwrap().expect("a year text event");
        if matches!(e, RawEvent::Text { text, .. } if text.trim() == "2002") {
            break e;
        }
        runner.feed_raw(&e, &mut sink);
    };
    assert!(
        sink.results.is_empty(),
        "nothing should emit before the year"
    );
    runner.feed_raw(&year, &mut sink);
    assert_eq!(
        sink.results,
        ["A"],
        "the year event releases the buffered author"
    );
}

// ---- Dominated configurations -------------------------------------------
//
// Beyond the paper: while a `pub` is proved TRUE, XSQ-F enters no `pub`
// below it (DESIGN.md, *Dominated configurations*), since everything an
// inner `pub` could select through `//book…` the outer one selects too.
// The paper keeps those match paths and drops their duplicates at output.

const RECURSIVE_QUERY: &str = "//pub[year>2000]//book[price]/title/text()";

/// Run `query` over `doc` event by event: each result beside the event
/// whose feed emitted it, and the depth vector of every configuration
/// that entered a `pub`. Checks the results against the DOM evaluator.
fn walk(query: &str, doc: &str) -> (Vec<(String, String)>, Vec<String>) {
    let compiled = XsqEngine::full().compile_str(query).unwrap();
    assert!(compiled.hpdt().has_dominance_marks(), "{query}");
    let mut steps = Vec::new();
    let mut tracer = |step: xsq::engine::trace::TraceStep| steps.push(step);
    let mut runner = compiled.runner();
    runner.set_tracer(&mut tracer);
    let (mut sink, mut emitted) = (VecSink::new(), Vec::new());
    let mut parser = xsq::xml::StreamParser::new(doc.as_bytes());
    while let Some(e) = parser.next_raw().unwrap() {
        let before = sink.results.len();
        runner.feed_raw(&e, &mut sink);
        let event = e.to_string();
        emitted.extend(
            sink.results[before..]
                .iter()
                .map(|r| (r.clone(), event.clone())),
        );
    }
    runner.finish(&mut sink);
    let tree = xsq::baselines::dom::Document::parse(doc.as_bytes()).unwrap();
    let parsed = xsq::xpath::parse_query(query).unwrap();
    let dom = xsq::baselines::dom::eval_stepwise(&tree, &parsed);
    assert_eq!(sink.results, dom, "{query} over {doc}");
    let entered = steps
        .iter()
        .flat_map(|s| &s.fired)
        .filter(|a| a.label == "=<pub>")
        .map(|a| a.dv.clone())
        .collect();
    (emitted, entered)
}

fn pairs(expected: &[(&str, &str)]) -> Vec<(String, String)> {
    expected
        .iter()
        .map(|&(r, e)| (r.to_string(), e.to_string()))
        .collect()
}

#[test]
fn dominance_an_inner_pub_whose_year_comes_first_is_never_entered() {
    // The inner `pub`'s year comes first, so in the paper's run it turns
    // TRUE and then duplicates every match of the TRUE `pub` around it.
    // Here it is never entered; its book is the outer one's match.
    let doc = "<r><pub><year>2001</year><book><price>1</price><title>o1</title></book>\
               <pub><year>2002</year><book><title>i1</title><price>2</price></book></pub>\
               <book><title>o2</title><price>3</price></book></pub></r>";
    let (emitted, entered) = walk(RECURSIVE_QUERY, doc);
    assert_eq!(entered, ["(0,2)"]);
    assert_eq!(
        emitted,
        pairs(&[
            ("o1", "(title,text(),4)"),
            ("i1", "(/price,5)"),
            ("o2", "(/price,4)"),
        ])
    );
    // One level down: the outer `pub` stays undecided, the middle one
    // turns TRUE first and covers the innermost, which is never entered;
    // the outer one is TRUE only after the middle one has closed.
    let doc = "<r><pub><pub><year>2002</year>\
               <pub><year>2003</year><book><price>1</price><title>t1</title></book></pub>\
               <book><title>t2</title><price>2</price></book></pub>\
               <year>2001</year><book><price>3</price><title>t3</title></book></pub></r>";
    let (emitted, entered) = walk(RECURSIVE_QUERY, doc);
    assert_eq!(entered, ["(0,2)", "(0,3)"]);
    assert_eq!(
        emitted,
        pairs(&[
            ("t1", "(title,text(),6)"),
            ("t2", "(/price,5)"),
            ("t3", "(title,text(),4)"),
        ])
    );
}

#[test]
fn dominance_entries_buffered_before_the_outer_pub_resolves_are_kept() {
    // The outer `year` comes after a nested `pub`'s book: that book's
    // title is buffered along both match paths before the outer `pub`
    // is TRUE. The inner path's entries leave with the inner `pub` (its
    // year fails); the outer path's stay in the outer queue and are
    // flushed by the outer year's text. A `pub` nested after that is
    // covered.
    let doc = "<r><pub><pub><book><price>1</price><title>t1</title></book>\
               <year>1999</year></pub>\
               <book><title>t2</title><price>2</price></book><year>2001</year>\
               <pub><book><price>3</price><title>t3</title></book></pub></pub></r>";
    let (emitted, entered) = walk(RECURSIVE_QUERY, doc);
    assert_eq!(entered, ["(0,2)", "(0,3)"]);
    assert_eq!(
        emitted,
        pairs(&[
            ("t1", "(year,text(),3)"),
            ("t2", "(year,text(),3)"),
            ("t3", "(title,text(),5)"),
        ])
    );
}

#[test]
fn dominance_waits_for_true_in_example_7s_window() {
    // Example 7's timing: between the witness text `2002` and `</year>`
    // the outer `pub` is not yet TRUE, so a `pub` nested in that window
    // is entered as in the paper; its item reaches the outer queue and
    // is flushed at `</year>` before any clear on that event. After
    // `</year>` the outer `pub` is TRUE and the `pub` nested next is
    // covered.
    let query = "//pub[year=2002]//book[author]//name/text()";
    let doc = "<root><pub><year>2002<pub><book><author>A</author><name>Inner</name>\
               </book></pub></year><book><author>B</author><name>Late</name></book>\
               <pub><book><author>C</author><name>Covered</name></book></pub></pub></root>";
    let (emitted, entered) = walk(query, doc);
    assert_eq!(entered, ["(0,2)", "(0,4)"]);
    assert_eq!(
        emitted,
        pairs(&[
            ("Inner", "(/year,3)"),
            ("Late", "(name,text(),4)"),
            ("Covered", "(name,text(),5)"),
        ])
    );
}

// ---- The NA twin -----------------------------------------------------------
//
// Beyond the paper, with the dominance rule: once a `pub`'s predicate
// resolves, the NA configuration at the same `pub` (its twin) leaves
// instead of entering an NA-side copy of every later `book` (DESIGN.md,
// *Dominated configurations*). Each case's results and the events that
// emit them are the ones the runner read before the twin was dropped.

/// The results and the events that emitted them, as the runner read them
/// before the twin was dropped (the twin then entered 5, 2, 2, 2 and 3
/// books in these cases).
const TWIN_MIXED: [(&str, &str); 4] = [
    ("a", "(year,text(),3)"),
    ("b", "(year,text(),3)"),
    ("c", "(/price,4)"),
    ("e", "(title,text(),4)"),
];
const TWIN_BEFORE: [(&str, &str); 2] = [("a", "(/price,4)"), ("b", "(title,text(),4)")];
const TWIN_AFTER: [(&str, &str); 2] = [("a", "(year,text(),3)"), ("b", "(year,text(),3)")];
const TWIN_WINDOW: [(&str, &str); 2] = [("in", "(/year,3)"), ("after", "(title,text(),4)")];
const TWIN_ELEMENTS: [(&str, &str); 3] = [
    (
        "<book><price>1</price><title>a</title></book>",
        "(year,text(),3)",
    ),
    ("<book><title>b</title><price>2</price></book>", "(/book,3)"),
    ("<book><price>3</price></book>", "(/book,4)"),
];

/// The depth vectors at which the NA side of the outermost predicated
/// step (`bpdt(2,2)`, grown from `bpdt(1,1)`'s NA state) entered a `book`.
fn na_side_entries(query: &str, doc: &str) -> Vec<String> {
    let compiled = XsqEngine::full().compile_str(query).unwrap();
    let mut steps = Vec::new();
    let mut tracer = |step: xsq::engine::trace::TraceStep| steps.push(step);
    let mut runner = compiled.runner();
    runner.set_tracer(&mut tracer);
    let mut sink = VecSink::new();
    let mut parser = xsq::xml::StreamParser::new(doc.as_bytes());
    while let Some(e) = parser.next_raw().unwrap() {
        runner.feed_raw(&e, &mut sink);
    }
    runner.finish(&mut sink);
    steps
        .iter()
        .flat_map(|s| &s.fired)
        .filter(|a| a.label == "=<book>" && a.owner == "bpdt(2,2)")
        .map(|a| a.dv.clone())
        .collect()
}

#[test]
fn twin_several_witnesses_true_and_false_mixed() {
    // Four `year`s, false, true, true, false, with books between them:
    // the twin enters the two books before the first true `year` and
    // none after it; a later `year`, true or false, changes nothing.
    let doc = "<r><pub><book><title>a</title><price>1</price></book><year>1999</year>\
               <book><title>b</title><price>2</price></book><year>2001</year>\
               <book><title>c</title><price>3</price></book><year>2002</year>\
               <book><title>d</title></book><year>1998</year>\
               <book><price>5</price><title>e</title></book></pub></r>";
    let (emitted, _) = walk(RECURSIVE_QUERY, doc);
    assert_eq!(emitted, pairs(&TWIN_MIXED));
    assert_eq!(
        na_side_entries(RECURSIVE_QUERY, doc),
        ["(0,2,3)", "(0,2,3)"]
    );
}

#[test]
fn twin_witness_before_and_after_the_books() {
    // Before: the `pub` resolves at once and no NA-side book is entered.
    // After: every book is entered on both sides, as in the paper, and
    // the twin leaves at `</year>` with nothing left to enter.
    let before = "<r><pub><year>2001</year><book><title>a</title><price>1</price></book>\
                  <book><price>2</price><title>b</title></book></pub></r>";
    let after = "<r><pub><book><title>a</title><price>1</price></book>\
                 <book><price>2</price><title>b</title></book><year>2001</year></pub></r>";
    let (emitted, _) = walk(RECURSIVE_QUERY, before);
    assert_eq!(emitted, pairs(&TWIN_BEFORE));
    assert!(na_side_entries(RECURSIVE_QUERY, before).is_empty());
    let (emitted, _) = walk(RECURSIVE_QUERY, after);
    assert_eq!(emitted, pairs(&TWIN_AFTER));
    assert_eq!(
        na_side_entries(RECURSIVE_QUERY, after),
        ["(0,2,3)", "(0,2,3)"]
    );
}

#[test]
fn twin_keeps_example_7s_window() {
    // A book inside the witness, after its text: the `pub` is not TRUE
    // until `</year>`, so the twin still enters it; its item reaches the
    // `pub`'s queue and `</year>`'s flush releases it. The book after
    // `</year>` is the TRUE side's alone.
    let doc = "<r><pub><year>2001<book><price>1</price><title>in</title></book></year>\
               <book><price>2</price><title>after</title></book></pub></r>";
    let (emitted, _) = walk(RECURSIVE_QUERY, doc);
    assert_eq!(emitted, pairs(&TWIN_WINDOW));
    assert_eq!(na_side_entries(RECURSIVE_QUERY, doc), ["(0,2,4)"]);
}

#[test]
fn twin_whole_element_output() {
    // Whole `book`s out: the serialized items are the TRUE side's, each
    // emitted where it was before the twin was dropped.
    let query = "//pub[year>2000]//book[price]";
    let doc = "<r><pub><book><price>1</price><title>a</title></book><year>2001</year>\
               <book><title>b</title><price>2</price></book>\
               <pub><book><price>3</price></book></pub></pub></r>";
    let (emitted, _) = walk(query, doc);
    assert_eq!(emitted, pairs(&TWIN_ELEMENTS));
    assert_eq!(na_side_entries(query, doc), ["(0,2,3)"]);
}
