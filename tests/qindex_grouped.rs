//! Differential tests for the multi-query paths: the grouped `QuerySet`
//! (prefix-shared, dispatch-indexed) and the dynamic `QueryIndex` must
//! produce exactly the per-query result vectors that N independent
//! `XsqEngine` runs produce — same values, same document order — over
//! generated documents, including deeply recursive ones where closures
//! create many simultaneous match paths.

use xsq::datagen::rng::StdRng;
use xsq::datagen::{dblp, words, xmark, xmlgen, xmlgen::XmlGenParams};
use xsq::engine::{evaluate, VecSink};
use xsq::xml::{PureParser, StreamParser};
use xsq::{QueryIndex, QuerySet, VecQuerySink, XsqEngine};

/// Per-query expected results from N independent single-query runs.
fn individually(queries: &[&str], doc: &[u8]) -> Vec<Vec<String>> {
    queries
        .iter()
        .map(|q| evaluate(q, doc).expect("single-query run"))
        .collect()
}

/// Assert both grouped paths against the per-query oracle.
fn check_grouped(queries: &[&str], doc: &[u8], label: &str) {
    let expected = individually(queries, doc);

    // Path 1: QuerySet::run_document (plans groups once, runs through
    // the query index).
    let set = QuerySet::compile(XsqEngine::full(), queries).expect("set compiles");
    let grouped = set.run_document(doc).expect("grouped run");
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(
            grouped[i], expected[i],
            "[{label}] QuerySet vs single on {q}"
        );
    }

    // Path 2: the subscription API with a shared, id-tagging sink.
    let mut index = QueryIndex::new(XsqEngine::full());
    let ids = index
        .subscribe_group(queries)
        .expect("subscriptions compile");
    let mut sink = VecQuerySink::new();
    index.run_document(doc, &mut sink).expect("index run");
    for (i, q) in queries.iter().enumerate() {
        let got: Vec<String> = sink.of(ids[i]).iter().map(|s| s.to_string()).collect();
        assert_eq!(got, expected[i], "[{label}] QueryIndex vs single on {q}");
    }
}

#[test]
fn grouped_paths_match_single_runs_on_recursive_xmlgen_data() {
    // Recursive documents: `pub` nests inside `pub`, so `//` queries keep
    // many configurations alive at once — the hard case for any shared
    // evaluation that might confuse runners' state.
    let queries = [
        "//pub[year]//book[@id]/title/text()",
        "//pub/book/title/text()",
        "//pub/book/@id",
        "//book/price/text()",
        "//book/count()",
        "/site/pub/year/text()",
        "//price/sum()",
    ];
    for seed in [1u64, 7, 42] {
        let doc = xmlgen::generate(
            XmlGenParams {
                nested_levels: 6,
                max_repeats: 4,
                seed,
            },
            20_000,
        );
        check_grouped(&queries, doc.as_bytes(), &format!("xmlgen seed {seed}"));
    }
}

#[test]
fn grouped_paths_match_single_runs_on_xmark_data() {
    let queries = [
        "/site/regions/region/item/name/text()",
        "/site/regions/region/item/quantity/text()",
        "/site/people/person/name/text()",
        "/site/people/person/@id",
        "//item[quantity]/name/text()",
        "//bidder/increase/text()",
        "//increase/sum()",
        "/site/open_auctions/open_auction/@id",
    ];
    for seed in [3u64, 11] {
        let doc = xmark::generate(seed, 30_000);
        check_grouped(&queries, doc.as_bytes(), &format!("xmark seed {seed}"));
    }
}

#[test]
fn prefix_shared_groups_match_on_templated_query_sets() {
    // The prefix-sharing sweet spot: one shared chain, many divergent
    // tails, including predicates at the divergence point.
    let queries = [
        "/site/pub/book/title/text()",
        "/site/pub/book/price/text()",
        "/site/pub/book/@id",
        "/site/pub/year/text()",
        "/site/pub/book[price]/title/text()",
        "/site/pub/book/count()",
    ];
    let set = QuerySet::compile(XsqEngine::full(), &queries).expect("set compiles");
    assert!(
        set.group_count() < queries.len(),
        "expected prefix sharing to merge some of the {} queries, got {} groups",
        queries.len(),
        set.group_count()
    );
    let doc = xmlgen::generate(
        XmlGenParams {
            nested_levels: 5,
            max_repeats: 5,
            seed: 99,
        },
        15_000,
    );
    check_grouped(&queries, doc.as_bytes(), "templated set");
}

#[test]
fn unsubscribed_queries_do_not_disturb_the_others() {
    let queries = [
        "//pub/book/title/text()",
        "//pub/book/@id",
        "//pub/year/text()",
    ];
    let doc = xmlgen::generate(XmlGenParams::default(), 10_000);
    let expected = individually(&queries, doc.as_bytes());

    let mut index = QueryIndex::new(XsqEngine::full());
    let ids = index
        .subscribe_group(&queries)
        .expect("subscriptions compile");
    index.unsubscribe(ids[1]);
    let mut sink = VecQuerySink::new();
    index.run_document(doc.as_bytes(), &mut sink).expect("run");
    assert_eq!(
        sink.of(ids[0])
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        expected[0]
    );
    assert_eq!(sink.of(ids[1]), Vec::<&str>::new());
    assert_eq!(
        sink.of(ids[2])
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        expected[2]
    );
}

#[test]
fn the_index_is_reusable_across_a_document_feed() {
    let mut index = QueryIndex::new(XsqEngine::full());
    let id = index.subscribe("//book/title/text()").expect("compiles");
    let mut sink = VecQuerySink::new();
    let mut expected: Vec<String> = Vec::new();
    for seed in 0..4u64 {
        let doc = xmlgen::generate(
            XmlGenParams {
                nested_levels: 4,
                max_repeats: 3,
                seed,
            },
            5_000,
        );
        expected.extend(evaluate("//book/title/text()", doc.as_bytes()).unwrap());
        index.run_document(doc.as_bytes(), &mut sink).expect("run");
    }
    let got: Vec<String> = sink.of(id).iter().map(|s| s.to_string()).collect();
    assert_eq!(got, expected);
    assert_eq!(sink.results.iter().filter(|(i, _)| *i != id).count(), 0);
}

// ---- Dispatch gates on a low tag-selectivity feed ---------------------
//
// N standing queries, each watching its own element tag of a 512-tag
// feed, so one event interests at most a handful of them. A loop of N
// runners steps every runner on every event (events × N touches, by
// construction); the index must route each event to the interested
// runners only.

const FEED_TAGS: usize = 512;

/// `<feed><t17><f17>v</f17></t17><t18>…</feed>`, cycling over the tags.
fn generate_feed(records: usize) -> String {
    let mut out = String::from("<feed>");
    for r in 0..records {
        let k = r % FEED_TAGS;
        out.push_str(&format!("<t{k}><f{k}>v{r}</f{k}></t{k}>"));
    }
    out.push_str("</feed>");
    out
}

/// One query per tag. Every 8th is a tombstone — a relational predicate
/// against a non-numeric constant can never hold — as templated standing
/// sets accumulate them; a dead query emits nothing on any path.
fn feed_queries(n: usize) -> Vec<String> {
    (0..n)
        .map(|k| {
            let t = k % FEED_TAGS;
            if k % 8 == 7 {
                format!("/feed/t{t}[@sev>none]/f{t}/text()")
            } else {
                format!("/feed/t{t}/f{t}/text()")
            }
        })
        .collect()
}

/// One group per query: any saving in touches is the dispatch index alone.
fn solo_index(queries: &[&str]) -> QueryIndex {
    let mut index = QueryIndex::new(XsqEngine::full());
    for q in queries {
        index.subscribe(q).expect("query compiles");
    }
    index
}

/// Prefix-shared groups: here the whole set merges under `/feed`.
fn merged_index(queries: &[&str]) -> QueryIndex {
    let mut index = QueryIndex::new(XsqEngine::full());
    index.subscribe_group(queries).expect("queries compile");
    index
}

#[test]
fn dispatch_touches_a_fraction_of_what_a_runner_loop_would() {
    let doc = generate_feed(2 * FEED_TAGS);
    for n in [8usize, 64, 512] {
        let queries = feed_queries(n);
        let texts: Vec<&str> = queries.iter().map(String::as_str).collect();

        let mut solo = solo_index(&texts);
        let mut solo_sink = VecQuerySink::new();
        solo.run_document(doc.as_bytes(), &mut solo_sink)
            .expect("solo run");
        let mut merged = merged_index(&texts);
        let mut merged_sink = VecQuerySink::new();
        merged
            .run_document(doc.as_bytes(), &mut merged_sink)
            .expect("merged run");

        let loop_touches = solo.events() * n as u64;
        assert!(loop_touches > 0 && merged.events() == solo.events());
        for (label, index) in [("one group per query", &solo), ("merged", &merged)] {
            assert!(
                index.touches() <= loop_touches / 5,
                "N={n}, {label}: {} touches, a runner loop makes {loop_touches}",
                index.touches()
            );
        }
        assert!(
            merged.touches() <= solo.touches(),
            "N={n}: sharing the prefix costs touches ({} merged, {} solo)",
            merged.touches(),
            solo.touches()
        );

        // Seven live queries in eight, two records per tag.
        assert_eq!(solo_sink.results.len(), 2 * (n - n / 8), "N={n}");
        assert_eq!(merged_sink.results, solo_sink.results, "N={n}");
        if n <= 64 {
            let looped: usize = individually(&texts, doc.as_bytes())
                .iter()
                .map(Vec::len)
                .sum();
            assert_eq!(looped, solo_sink.results.len(), "N={n}: loop vs index");
        }

        if n == 512 {
            let states = |queries: &[String]| {
                let parsed: Vec<_> = queries
                    .iter()
                    .map(|q| xsq::xpath::parse_query(q).expect("queries parse"))
                    .collect();
                let hpdt = xsq::engine::build::build_merged_hpdt(parsed).expect("set merges");
                hpdt.states.len()
            };
            let live: Vec<String> = queries.iter().map(|q| q.replace("none", "5")).collect();
            let (tombstoned, live) = (states(&queries), states(&live));
            assert!(
                tombstoned < live,
                "the tombstoned merged HPDT must build smaller: {tombstoned} states, \
                 {live} with satisfiable literals"
            );
        }
    }
}

/// The opposite feed: every record is `<t{k}><x>v</x></t{k}>`, so all
/// subscriptions `/feed/t{k}/x/text()` share their inner tag and every
/// group is filed under `x`.
fn generate_shared_inner_feed(records: usize) -> String {
    let mut out = String::from("<feed>");
    for r in 0..records {
        let k = r % FEED_TAGS;
        out.push_str(&format!("<t{k}><x>v{r}</x></t{k}>"));
    }
    out.push_str("</feed>");
    out
}

fn shared_inner_queries(n: usize) -> Vec<String> {
    (0..n).map(|k| format!("/feed/t{k}/x/text()")).collect()
}

/// A group is heard on a key only while one of its live states has an
/// arc for it, however many keys it is filed under. 64 subscriptions on
/// a feed of 512 record tags that all contain `<x>`: merged, they are
/// one group of 129 named keys, and it must hear `x` only inside the
/// records it subscribed to — exactly five events a record, plus the
/// feed's and the document's brackets. (A group registered under the
/// union of all its states' keys, as broad groups once were, hears every
/// `x` of the feed: 3 × 1 024 touches more.)
#[test]
fn a_broad_merged_group_is_heard_only_where_it_is_live() {
    let doc = generate_shared_inner_feed(2 * FEED_TAGS);
    let queries = shared_inner_queries(64);
    let texts: Vec<&str> = queries.iter().map(String::as_str).collect();
    let mut solo = solo_index(&texts);
    let mut solo_sink = VecQuerySink::new();
    solo.run_document(doc.as_bytes(), &mut solo_sink)
        .expect("solo run");
    let mut merged = merged_index(&texts);
    assert_eq!(merged.group_count(), 1);
    let (buckets, entries, longest) = merged.dispatch_shape();
    assert!(buckets >= 32 && entries >= buckets, "{buckets} buckets");
    assert!(longest <= 3, "one group, {longest} entries in a bucket");
    let mut merged_sink = VecQuerySink::new();
    merged
        .run_document(doc.as_bytes(), &mut merged_sink)
        .expect("merged run");
    assert_eq!(merged_sink.results.len(), 2 * 64);
    assert_eq!(merged_sink.results, solo_sink.results);
    assert_eq!(merged.touches(), 2 + 2 + 5 * 2 * 64);
    assert!(merged.touches() <= solo.touches());
    // Solo, the `x` bucket holds a state of each of the 64 groups, a
    // word's worth of groups to an entry, and an event walks them all.
    let (_, _, longest) = solo.dispatch_shape();
    println!("64 solo groups: the x bucket has {longest} entries");
    assert!(1 < longest && longest < 64 / 4, "{longest}");
}

/// The referee's `serve_bulk` subscription on a seeded 256 KiB DBLP
/// document: the groups move on almost every record, and dispatch must
/// stay exactly as sharp as a per-event mirror of each group's frontier
/// in the buckets was — 14 023 touches over these events, the count
/// measured with that mirror in place.
#[test]
fn the_serve_bulk_queries_touch_what_a_frontier_mirror_touched() {
    let doc = dblp::generate(2003, 256 * 1024);
    let mut index = merged_index(&[
        "/dblp/inproceedings[booktitle]/title/text()",
        "/dblp/article/@key",
        "/dblp/article[year>1995]/author/text()",
        "//year/count()",
    ]);
    assert_eq!(index.group_count(), 2);
    let mut sink = VecQuerySink::new();
    let stats = index.run_document(doc.as_bytes(), &mut sink).expect("run");
    assert_eq!(sink.results.len(), 1713);
    assert_eq!(index.touches(), 14_023);
    assert!(index.touches() < stats.events, "{} events", stats.events);
}

// ---- Dispatch gate on a feed whose subscriptions share tags -----------
//
// The opposite shape: every subscription watches the same few record
// tags and differs from its neighbours in a predicate constant (the
// referee's `multi_sub` mix). Grouping by the first step's axis and
// name makes that one group per distinct first step, and a closure
// group wakes on its own tags, not on every begin event.

#[test]
fn shared_tag_subscriptions_are_one_group_per_first_step_name() {
    const RECORDS: [&str; 2] = ["article", "inproceedings"];
    const FIELDS: [&str; 3] = ["title/text()", "pages/text()", "@key"];
    let doc = dblp::generate(2003, 48 * 1024);
    // Half the names are authors the document has, half may be nobody's.
    let mut authors = evaluate("//author/text()", doc.as_bytes()).expect("runs");
    authors.sort();
    authors.dedup();
    let mut rng = StdRng::seed_from_u64(2003);
    let mut queries: Vec<String> = Vec::new();
    for i in 0..64 {
        let name = match i % 2 {
            0 => authors[rng.gen_range(0..authors.len())].clone(),
            _ => words::name(&mut rng),
        };
        queries.push(format!("//{}[author=\"{name}\"]/@key", RECORDS[i % 2]));
    }
    for i in 0..64 {
        let (year, field) = (1980 + rng.gen_range(0..25), FIELDS[i % 3]);
        queries.push(format!("/dblp/{}[year={year}]/{field}", RECORDS[i % 2]));
    }
    let texts: Vec<&str> = queries.iter().map(String::as_str).collect();
    let mut first_steps: Vec<String> = texts
        .iter()
        .map(|q| {
            let step = &xsq::xpath::parse_query(q).expect("parses").steps[0];
            format!("{:?} {:?}", step.axis, step.test)
        })
        .collect();
    first_steps.sort();
    first_steps.dedup();
    assert_eq!(first_steps.len(), 3, "//article, //inproceedings, /dblp");

    let mut index = QueryIndex::new(XsqEngine::full());
    let ids = index.subscribe_group(&texts).expect("queries compile");
    assert!(
        index.group_count() <= first_steps.len(),
        "{} groups for {} distinct first steps",
        index.group_count(),
        first_steps.len()
    );
    let mut sink = VecQuerySink::new();
    index.run_document(doc.as_bytes(), &mut sink).expect("run");
    let (events, touches) = (index.events(), index.touches());
    assert!(
        touches <= 2 * events,
        "{touches} touches over {events} events: more than 2 per event"
    );
    let expected = individually(&texts, doc.as_bytes());
    assert!(
        expected[..64].iter().any(|r| !r.is_empty()),
        "closures fire"
    );
    assert!(expected[64..].iter().any(|r| !r.is_empty()), "paths fire");
    for ((q, &id), want) in texts.iter().zip(&ids).zip(&expected) {
        assert_eq!(&sink.of(id), want, "{q}");
    }

    // Unsubscribing every member of one name drops that group from
    // dispatch: the next document costs what it costs an index that
    // never had them.
    let (gone, kept): (Vec<usize>, Vec<usize>) =
        (0..texts.len()).partition(|&i| texts[i].starts_with("//article"));
    for &i in &gone {
        assert!(index.unsubscribe(ids[i]));
    }
    let mut sink = VecQuerySink::new();
    index.run_document(doc.as_bytes(), &mut sink).expect("run");
    let kept_texts: Vec<&str> = kept.iter().map(|&i| texts[i]).collect();
    let mut fresh = merged_index(&kept_texts);
    fresh
        .run_document(doc.as_bytes(), &mut VecQuerySink::new())
        .expect("run");
    assert_eq!(index.touches() - touches, fresh.touches());
    assert!(fresh.touches() < touches);
    for &i in &gone {
        assert!(sink.of(ids[i]).is_empty());
    }
    for &i in &kept {
        assert_eq!(sink.of(ids[i]), expected[i], "{}", texts[i]);
    }
}

/// The referee's `multi_sub` mix: 40 % `/dblp/R[year=Y]/F`, 40 %
/// `/dblp/R[author="N"]/title/text()`, 20 % `//R[author="N"]/@key`, years
/// and names from the generator's own vocabulary.
fn pubsub_subscriptions(seed: u64, n: usize) -> Vec<String> {
    const RECORDS: [&str; 2] = ["article", "inproceedings"];
    const FIELDS: [&str; 4] = ["title/text()", "author/text()", "pages/text()", "@key"];
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let record = RECORDS[rng.gen_range(0..RECORDS.len())];
            match rng.gen_range(0..10) {
                0..=3 => {
                    let year = 1980 + rng.gen_range(0..25);
                    let field = FIELDS[rng.gen_range(0..FIELDS.len())];
                    format!("/dblp/{record}[year={year}]/{field}")
                }
                4..=7 => {
                    let name = words::name(&mut rng);
                    format!("/dblp/{record}[author=\"{name}\"]/title/text()")
                }
                _ => format!("//{record}[author=\"{}\"]/@key", words::name(&mut rng)),
            }
        })
        .collect()
}

/// The structural half of what keyed steps buy, pinned as counts: a
/// family of `[child = literal]` siblings is one BPDT, so what the index
/// holds per record does not grow with the number of subscriptions, and
/// every subscription still gets exactly what its own engine gives it.
/// Configurations: no more at 512 than at 64. Buffered entries: the
/// items are the record's, whoever subscribed; what can still grow is
/// the truth entries — one per witness child that hits a subscribed
/// literal, so at most one per `year` and, in the `/dblp` and in the `//`
/// group alike, one per `author` of the open record. (Sibling BPDTs per
/// literal held 366 entries at 512 subscriptions where these hold 19.)
#[test]
fn pubsub_templates_cost_the_same_at_512_subscriptions_as_at_64() {
    let doc = dblp::generate(2003, 256 * 1024);
    let mut peaks = Vec::new();
    for n in [64, 512] {
        let queries = pubsub_subscriptions(2003, n);
        let texts: Vec<&str> = queries.iter().map(String::as_str).collect();
        let mut index = merged_index(&texts);
        assert!(index.group_count() <= 3, "{} groups", index.group_count());
        // The index and one solo runner per query, over one parse.
        let compiled: Vec<_> = texts
            .iter()
            .map(|q| XsqEngine::full().compile_str(q).expect("compiles"))
            .collect();
        let mut solos: Vec<_> = compiled
            .iter()
            .map(|c| (c.runner(), VecSink::new()))
            .collect();
        let mut sink = VecQuerySink::new();
        let mut parser = StreamParser::new(doc.as_bytes());
        while let Some(ev) = parser.next_raw().expect("dblp parses") {
            index.feed_raw(&ev, &mut sink);
            for (runner, solo) in &mut solos {
                runner.feed_raw(&ev, solo);
            }
        }
        let stats = index.finish(&mut sink);
        let mut fired = 0;
        for (i, (q, (runner, mut solo))) in texts.iter().zip(solos).enumerate() {
            runner.finish(&mut solo);
            assert_eq!(
                sink.of(xsq::QueryId(i as u32)),
                solo.results,
                "{q} at N = {n}"
            );
            fired += usize::from(!solo.results.is_empty());
        }
        assert!(fired * 4 >= n, "only {fired} of {n} subscriptions fire");
        peaks.push((stats.memory.peak_configs, stats.memory.peak_buffered_items));
    }
    let most_authors = doc
        .split("</article>")
        .flat_map(|part| part.split("</inproceedings>"))
        .map(|record| record.matches("<author>").count() as u64)
        .max()
        .expect("records");
    println!(
        "(peak_configs, peak_buffered_items) at N = 64, 512: {peaks:?}; \
         at most {most_authors} authors a record"
    );
    assert!(
        peaks[1].0 <= peaks[0].0 && peaks[1].1 <= peaks[0].1 + 2 * most_authors + 1,
        "per-record state grew with the subscription count: {peaks:?}"
    );
}

/// Seconds a fresh `build()` index takes to feed on `doc`'s events, best
/// of three, and the document's event count. The parse is timed alone
/// (also best of three) and taken out, so what is left is the feeding;
/// `check` sees each run's results.
fn feed_secs(
    build: impl Fn() -> QueryIndex,
    doc: &str,
    check: impl Fn(&VecQuerySink),
) -> (f64, u64) {
    let (mut parse, mut run, mut events) = (f64::INFINITY, f64::INFINITY, 0);
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        PureParser::run(doc.as_bytes()).expect("feed parses");
        parse = parse.min(t0.elapsed().as_secs_f64());
        let (mut index, mut sink) = (build(), VecQuerySink::new());
        let t0 = std::time::Instant::now();
        let stats = index
            .run_document(doc.as_bytes(), &mut sink)
            .expect("feed parses");
        run = run.min(t0.elapsed().as_secs_f64());
        check(&sink);
        events = stats.events;
    }
    (run - parse, events)
}

/// The N=512 dispatch cliff: one merged group used to run ~13× slower
/// than one group per query (ratio 0.07) — dispatch won on touches, but
/// the frontier state's O(N) arc scan and per-record reindex ate it.
/// A same-process ratio is machine-independent; feeding alone is timed
/// (not the 512 compiles) and measures 2.2.
/// Timing: run in release (`cargo test --release --test qindex_grouped
/// -- --include-ignored`, as CI does).
#[test]
#[ignore = "timing; CI runs it in release with --include-ignored"]
fn merged_index_keeps_pace_with_solo_groups_at_512_queries() {
    let doc = generate_feed(16 * FEED_TAGS);
    let queries = feed_queries(512);
    let texts: Vec<&str> = queries.iter().map(String::as_str).collect();

    let best_of_3 = |build: fn(&[&str]) -> QueryIndex| {
        let check = |sink: &VecQuerySink| assert_eq!(sink.results.len(), 16 * (512 - 512 / 8));
        feed_secs(|| build(&texts), &doc, check).0
    };
    let (solo_secs, merged_secs) = (best_of_3(solo_index), best_of_3(merged_index));
    let ratio = solo_secs / merged_secs;
    println!("index/solo events-per-sec ratio at N=512: {ratio:.2}");
    assert!(
        ratio >= 1.0,
        "the merged index fell off the dispatch cliff: {ratio:.2}× the solo grouping's pace"
    );
}

/// The price of a static table: a bucket walk is linear in the groups
/// filed under the key, live or not. 512 separately subscribed groups
/// that all watch `x` make every `x` event walk 512 entries to find the
/// one that is live; the same 512 on the one-tag-per-query feed walk
/// one. That walk is a sequential read of 16-byte entries and must stay
/// a small multiple of the sharp case (measures ≈ 1.3–2.2; registering
/// every group under all its keys with no liveness gate measured 17×).
/// Same process, feeding alone timed, best of three.
#[test]
#[ignore = "timing; CI runs it in release with --include-ignored"]
fn a_shared_inner_tag_costs_solo_groups_a_bounded_bucket_walk() {
    let best_of_3 = |doc: String, queries: Vec<String>| {
        let texts: Vec<&str> = queries.iter().map(String::as_str).collect();
        let check = |sink: &VecQuerySink| assert!(sink.results.len() >= 64 * (512 - 512 / 8));
        let (secs, events) = feed_secs(|| solo_index(&texts), &doc, check);
        secs / events as f64
    };
    let distinct = best_of_3(generate_feed(64 * FEED_TAGS), feed_queries(512));
    let shared = best_of_3(
        generate_shared_inner_feed(64 * FEED_TAGS),
        shared_inner_queries(512),
    );
    let ratio = shared / distinct;
    println!(
        "512 solo groups, ns/event: shared inner tag {:.0}, distinct tags {:.0}, ratio {ratio:.2}",
        shared * 1e9,
        distinct * 1e9
    );
    assert!(
        ratio <= 3.0,
        "walking the shared bucket costs {ratio:.2}× the one-entry walk"
    );
}
