//! End-to-end tests of the `xsq` command-line binary.

use std::io::Write;
use std::process::{Command, Stdio};

fn xsq() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xsq"))
}

fn run_with_stdin(args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = xsq()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    // The binary may exit before reading stdin (e.g. a bad query fails at
    // compile time); a broken pipe here is fine.
    let _ = child.stdin.as_mut().unwrap().write_all(stdin.as_bytes());
    let out = child.wait_with_output().unwrap();
    (
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
        out.status.success(),
    )
}

const DOC: &str =
    "<pub><book id=\"1\"><name>N</name><author>A</author></book><year>2002</year></pub>";

#[test]
fn evaluates_query_over_stdin() {
    let (stdout, _, ok) = run_with_stdin(&["//pub[year=2002]//name/text()"], DOC);
    assert!(ok);
    assert_eq!(stdout.trim(), "N");
}

#[test]
fn engine_selection() {
    for engine in ["xsq-f", "xsq-nc", "saxon", "galax", "joost"] {
        let (stdout, stderr, ok) = run_with_stdin(&["--engine", engine, "/pub/book/@id"], DOC);
        assert!(ok, "{engine} failed: {stderr}");
        assert_eq!(stdout.trim(), "1", "{engine}");
    }
}

#[test]
fn xmltk_engine_runs_plain_paths() {
    let (stdout, _, ok) = run_with_stdin(&["--engine", "xmltk", "/pub/book/name/text()"], DOC);
    assert!(ok);
    assert_eq!(stdout.trim(), "N");
}

#[test]
fn stats_go_to_stderr() {
    let (stdout, stderr, ok) = run_with_stdin(&["--stats", "//name/text()"], DOC);
    assert!(ok);
    assert_eq!(stdout.trim(), "N");
    assert!(stderr.contains("results"), "stderr: {stderr}");
    assert!(stderr.contains("peak_buffered_bytes"));
}

#[test]
fn quiet_suppresses_results() {
    let (stdout, _, ok) = run_with_stdin(&["--quiet", "--stats", "//name/text()"], DOC);
    assert!(ok);
    assert!(stdout.is_empty());
}

#[test]
fn running_aggregates_stream() {
    let (stdout, _, ok) = run_with_stdin(&["--running", "//book/count()"], DOC);
    assert!(ok);
    assert!(stdout.contains("# running: 1"));
    assert!(stdout.trim_end().ends_with('1'));
}

#[test]
fn dump_and_dot_print_the_automaton() {
    let (stdout, _, ok) = run_with_stdin(&["--dump", "/a[b]/c/text()"], "");
    assert!(ok);
    assert!(stdout.contains("HPDT for /a[b]/c/text()"));
    let (stdout, _, ok) = run_with_stdin(&["--dot", "/a[b]/c/text()"], "");
    assert!(ok);
    assert!(stdout.starts_with("digraph hpdt {"));
}

#[test]
fn schema_optimize_rewrites_and_skips() {
    let doc = "<!DOCTYPE r [ <!ELEMENT r (a*)> <!ELEMENT a (b*)> <!ELEMENT b (#PCDATA)> ]>\
               <r><a><b>1</b></a></r>";
    let (stdout, stderr, ok) = run_with_stdin(&["--schema-optimize", "//a//b/text()"], doc);
    assert!(ok);
    assert_eq!(stdout.trim(), "1");
    assert!(
        stderr.contains("rewrote to //a/b/text()"),
        "stderr: {stderr}"
    );
    let (stdout, stderr, ok) = run_with_stdin(&["--schema-optimize", "//zzz/text()"], doc);
    assert!(ok);
    assert!(stdout.is_empty());
    assert!(stderr.contains("never match"));
}

#[test]
fn json_output_escapes_values() {
    let doc = r#"<a><b>say "hi"</b></a>"#;
    let (stdout, _, ok) = run_with_stdin(&["--json", "//b/text()"], doc);
    assert!(ok);
    assert_eq!(stdout.trim(), r#"{"result":"say \"hi\""}"#);
    let (stdout, _, ok) = run_with_stdin(&["--json", "--running", "//b/count()"], doc);
    assert!(ok);
    assert!(stdout.contains(r#"{"running":1}"#));
}

#[test]
fn bad_query_fails_with_nonzero_exit() {
    let (_, stderr, ok) = run_with_stdin(&["/a[["], "<a/>");
    assert!(!ok);
    assert!(stderr.contains("error"));
}

#[test]
fn malformed_document_fails() {
    let (_, stderr, ok) = run_with_stdin(&["/a/text()"], "<a><b></a>");
    assert!(!ok);
    assert!(stderr.contains("error"));
}

#[test]
fn unknown_engine_is_a_usage_error() {
    let (_, stderr, ok) = run_with_stdin(&["--engine", "nope", "/a"], "<a/>");
    assert!(!ok);
    assert!(stderr.contains("unknown engine"));
}

/// `serve` has one model: the flags that used to pick and size the other
/// one are unknown options now, with the usage exit code of any other.
#[test]
fn retired_serve_flags_are_usage_errors() {
    let exit_code = |args: &[&str]| {
        let out = xsq().args(args).stdin(Stdio::null()).output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("unknown option"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: xsq"), "{args:?}: {stderr}");
        out.status.code()
    };
    let unknown = exit_code(&["serve", "--no-such-flag"]);
    assert_eq!(unknown, Some(2));
    assert_eq!(exit_code(&["serve", "--workers", "2"]), unknown);
    assert_eq!(exit_code(&["serve", "--model", "threaded"]), unknown);
    assert_eq!(exit_code(&["serve", "--loop-threads", "2"]), unknown);
}

/// `serve` builds its event loop before it reports anything, so the
/// banner names the poller the running loop holds; closing stdin drains
/// it and exits cleanly.
#[test]
fn serve_banner_names_the_running_loops_poller() {
    use std::io::BufRead;
    let mut child = xsq()
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stderr = std::io::BufReader::new(child.stderr.take().unwrap());
    let mut banner = String::new();
    stderr.read_line(&mut banner).unwrap();
    assert!(banner.contains("poller=epoll"), "{banner}");
    assert!(!banner.contains("loop-threads="), "{banner}");
    drop(child.stdin.take());
    // Keep reading: the drain notice must find stderr open.
    std::io::copy(&mut stderr, &mut std::io::sink()).unwrap();
    assert_eq!(child.wait().unwrap().code(), Some(0));
}

/// A query file with no query in it is the same usage error (exit 2)
/// wherever it is read; a query in it that does not compile is the
/// query error (exit 4), blamed on its own line.
#[test]
fn query_files_fail_alike_in_every_batch_mode() {
    let dir = std::env::temp_dir().join("xsq_cli_qfile_test");
    std::fs::create_dir_all(&dir).unwrap();
    let (empty, bad, doc) = (dir.join("empty.q"), dir.join("bad.q"), dir.join("d.xml"));
    std::fs::write(&empty, "# nothing\n\n   \n").unwrap();
    std::fs::write(
        &bad,
        "/a/b/text()\n/a/c/text()\n/a/b[position()=2]/text()\n",
    )
    .unwrap();
    std::fs::write(&doc, DOC).unwrap();
    let run = |mode: &[&str], qfile: &std::path::Path| {
        let out = xsq()
            .args(mode)
            .arg("--queries")
            .arg(qfile)
            .arg(&doc)
            .stdin(Stdio::null())
            .output()
            .unwrap();
        (out.status.code(), String::from_utf8(out.stderr).unwrap())
    };
    for mode in [&[][..], &["multi"], &["connect", "--addr", "127.0.0.1:1"]] {
        let (code, stderr) = run(mode, &empty);
        assert_eq!(code, Some(2), "{mode:?}: {stderr}");
        assert!(stderr.contains("needs at least one query"), "{stderr}");
    }
    for mode in [&[][..], &["multi"]] {
        let (code, stderr) = run(mode, &bad);
        assert_eq!(code, Some(4), "{mode:?}: {stderr}");
        assert!(
            stderr.contains("query 3 (/a/b[position()=2]/text())"),
            "{stderr}"
        );
    }
}

/// A member that fails inside a keyed family — its siblings differ only
/// in the `=` literal — is blamed by its own line, not by the family's
/// first member.
#[test]
fn a_failing_member_of_a_keyed_family_is_blamed_by_its_line() {
    let dir = std::env::temp_dir().join("xsq_cli_keyed_blame_test");
    std::fs::create_dir_all(&dir).unwrap();
    let (qfile, doc) = (dir.join("q.txt"), dir.join("d.xml"));
    std::fs::write(
        &qfile,
        "/a[b=\"x\"]/c/text()\n/a[b=\"y\"]/c[position()=2]/text()\n/a[b=\"z\"]/c/text()\n",
    )
    .unwrap();
    std::fs::write(&doc, "<a><b>x</b><c>1</c></a>").unwrap();
    let out = xsq()
        .arg("--queries")
        .arg(&qfile)
        .arg(&doc)
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(
        stderr.contains("query 2 (/a[b=\"y\"]/c[position()=2]/text())"),
        "{stderr}"
    );
}

/// XML 1.0 names admit non-ASCII letters, and so do queries: the stream
/// engine selects what the DOM engine selects, a batch with a family of
/// non-ASCII literals equals its solo runs, and a rule renames into a
/// non-ASCII name.
#[test]
fn non_ascii_names_select_what_the_dom_engine_selects() {
    let doc = "<r><café>x</café><été a=\"1\">y</été><auteur>é</auteur></r>";
    for q in ["/r/café/text()", "/r/été/@a", "/r[été]/café/text()"] {
        let (stream, stderr, ok) = run_with_stdin(&[q], doc);
        assert!(ok, "{q}: {stderr}");
        let (dom, stderr, ok) = run_with_stdin(&["--engine", "saxon", q], doc);
        assert!(ok, "{q}: {stderr}");
        assert_eq!(stream, dom, "{q}");
        assert!(!stream.is_empty(), "{q} selects nothing");
    }

    let dir = std::env::temp_dir().join("xsq_cli_non_ascii_test");
    std::fs::create_dir_all(&dir).unwrap();
    let (qfile, rules) = (dir.join("q.txt"), dir.join("r.xfm"));
    let family = [
        "/r[auteur=\"é\"]/café/text()",
        "/r[auteur=\"è\"]/café/text()",
    ];
    std::fs::write(&qfile, family.join("\n")).unwrap();
    let (dump, stderr, ok) = run_with_stdin(&["--queries", qfile.to_str().unwrap(), "--dump"], "");
    assert!(ok, "{stderr}");
    assert!(dump.contains("keyed bpdt(1,0): r[auteur=?×2]"), "{dump}");
    let (batch, stderr, ok) = run_with_stdin(&["--queries", qfile.to_str().unwrap()], doc);
    assert!(ok, "{stderr}");
    let mut solo = String::new();
    for (i, q) in family.iter().enumerate() {
        let (out, stderr, ok) = run_with_stdin(&[q], doc);
        assert!(ok, "{q}: {stderr}");
        for line in out.lines() {
            solo.push_str(&format!("{i}\t{line}\n"));
        }
    }
    assert_eq!(batch, solo);
    assert_eq!(batch, "0\tx\n");

    std::fs::write(&rules, "//café => rename(été)\n").unwrap();
    let (out, stderr, ok) =
        run_with_stdin(&["transform", "--verify", rules.to_str().unwrap()], doc);
    assert!(ok, "{stderr}");
    assert!(out.contains("<été>x</été>"), "{out}");
}

/// `--queries --stats` says what a dispatch walk costs beside what it
/// touched: three groups filed under thirteen named buckets, their few
/// states all in one word of the live bits, so one entry a bucket.
#[test]
fn multi_query_stats_report_the_dispatch_table_shape() {
    let dir = std::env::temp_dir().join("xsq_cli_stats_shape_test");
    std::fs::create_dir_all(&dir).unwrap();
    let qfile = dir.join("q.txt");
    std::fs::write(
        &qfile,
        "/pub/book/name/text()\n/pub/year/text()\n//author/text()\n//name/count()\n",
    )
    .unwrap();
    let (stdout, stderr, ok) =
        run_with_stdin(&["--queries", qfile.to_str().unwrap(), "--stats"], DOC);
    assert!(ok, "{stderr}");
    assert_eq!(stdout, "0\tN\n2\tA\n1\t2002\n3\t1\n");
    let line = stderr.lines().find(|l| l.starts_with("# ")).expect(&stderr);
    assert!(line.contains("[4 queries, 3 groups]"), "{line}");
    let tail = &line[line.find("events=").expect(line)..];
    assert_eq!(
        tail,
        "events=15 firings=21 steps=21 probed=19 touches=21 (loop path: 60) \
         buckets=13 entries=13 longest_bucket=1"
    );
}

/// A rules file is bytes from outside: a misplaced token after a wide
/// character is a compile error at its byte column (exit 4) — a wide
/// character used to abort the process (exit 101) — and non-ASCII is a
/// name like any other (XML 1.0 names) and plain data inside a quoted
/// value or a comment.
#[test]
fn transform_rules_with_non_ascii_text_are_diagnosed_not_fatal() {
    let dir = std::env::temp_dir().join("xsq_cli_xfm_test");
    std::fs::create_dir_all(&dir).unwrap();
    let (bad, good, doc) = (dir.join("bad.xfm"), dir.join("good.xfm"), dir.join("d.xml"));
    std::fs::write(&bad, "//café ☕ => drop\n").unwrap();
    std::fs::write(
        &good,
        "# règle ☕\n//name => rename(nom) +@lang=\"français\"\n//café => drop\n",
    )
    .unwrap();
    std::fs::write(&doc, DOC).unwrap();
    let run = |rules: &std::path::Path| {
        let out = xsq()
            .arg("transform")
            .arg(rules)
            .arg(&doc)
            .output()
            .unwrap();
        (
            out.status.code(),
            String::from_utf8(out.stdout).unwrap(),
            String::from_utf8(out.stderr).unwrap(),
        )
    };
    let (code, _, stderr) = run(&bad);
    assert_eq!(code, Some(4), "{stderr}");
    assert!(
        stderr.contains("line 1, column 9: expected '/' or '//'"),
        "{stderr}"
    );
    let (code, stdout, stderr) = run(&good);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(
        stdout.contains("<nom lang=\"français\">N</nom>"),
        "{stdout}"
    );
}

#[test]
fn dataset_stats_prints_fig15_row() {
    let dir = std::env::temp_dir().join("xsq_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("stats.xml");
    std::fs::write(&file, DOC).unwrap();
    let out = xsq()
        .args(["--dataset-stats", file.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("elements"));
    assert!(stdout.contains("stats.xml"));
}

/// `xsq analyze --json` output is a machine interface (CI smoke tests
/// and editor tooling parse it), so it is pinned by golden snapshots.
/// Regenerate with
/// `xsq analyze --json [--dtd data/dblp.dtd] QUERY > tests/golden/…`.
#[test]
fn analyze_json_matches_golden_snapshots() {
    let root = env!("CARGO_MANIFEST_DIR");
    let dtd = format!("{root}/data/dblp.dtd");
    let cases: [(&str, Option<&str>, &str); 4] = [
        (
            "analyze_article_title.json",
            Some(&dtd),
            "/dblp/article/title/text()",
        ),
        (
            "analyze_inproceedings_author_title.json",
            Some(&dtd),
            "/dblp/inproceedings[author]/title/text()",
        ),
        (
            "analyze_inproceedings_booktitle_author.json",
            Some(&dtd),
            "/dblp/inproceedings[booktitle]/author/text()",
        ),
        (
            "analyze_no_schema.json",
            None,
            "/dblp/inproceedings[author]/title/text()",
        ),
    ];
    for (golden, dtd, query) in cases {
        let mut args = vec!["analyze", "--json"];
        if let Some(d) = dtd {
            args.extend(["--dtd", d]);
        }
        args.push(query);
        let (stdout, stderr, ok) = run_with_stdin(&args, "");
        assert!(ok, "{query}: {stderr}");
        let expected = std::fs::read_to_string(format!("{root}/tests/golden/{golden}")).unwrap();
        assert_eq!(stdout, expected, "snapshot drift for {golden} ({query})");
    }
}

/// Six nested `pub`s — three of them matching `[year>2000]`, books with
/// and without a `price`, one book inside another — so the closure keeps
/// up to seven configurations in one state at one anchor.
const RECURSIVE_DOC: &str = concat!(
    "<r><pub><year>2001</year><book><title>t1</title><price>1</price></book>",
    "<pub><book><price>2</price><title>t2</title></book><year>1999</year>",
    "<pub><year>2002</year><pub><book><title>t4</title></book>",
    "<pub><book><price>5</price><title>t5</title>",
    "<book><price>6</price><title>t6</title></book></book>",
    "<pub><year>2003</year><book><title>t7</title><price>7</price></book>",
    "</pub></pub></pub></pub></pub></pub></r>",
);

/// `--trace` is pinned byte for byte on the referee's closure query over
/// [`RECURSIVE_DOC`]: every fired arc, one line per configuration that
/// took it, in execution order, with the set and buffer sizes after each
/// event. A change to how the runtime steps its set must leave this
/// transcript as it is. Regenerate (only for a deliberate format change)
/// with `xsq --trace QUERY < doc 2> tests/golden/trace_recursive.txt`.
#[test]
fn trace_of_a_recursive_document_matches_the_golden_transcript() {
    let (stdout, stderr, ok) = run_with_stdin(
        &["--trace", "//pub[year>2000]//book[price]/title/text()"],
        RECURSIVE_DOC,
    );
    assert!(ok, "{stderr}");
    assert_eq!(stdout, "t1\nt2\nt5\nt6\nt7\n");
    let root = env!("CARGO_MANIFEST_DIR");
    let golden =
        std::fs::read_to_string(format!("{root}/tests/golden/trace_recursive.txt")).unwrap();
    assert!(stderr == golden, "trace drift:\n{stderr}");
}

/// `--stats` counts what a lock-step run costs: each arc a run of
/// configurations takes together is one step, however many members fired
/// it. Over [`RECURSIVE_DOC`] 254 firings are 130 steps.
#[test]
fn solo_stats_count_a_lock_step_run_once() {
    let (_, stderr, ok) = run_with_stdin(
        &["--stats", "//pub[year>2000]//book[price]/title/text()"],
        RECURSIVE_DOC,
    );
    assert!(ok, "{stderr}");
    let line = stderr.lines().find(|l| l.starts_with("# ")).expect(&stderr);
    let tail = &line[line.find("events=").expect(line)..];
    assert_eq!(
        tail,
        "events=73 firings=254 steps=130 probed=106 peak_buffered_bytes=530 peak_configs=22"
    );
}

/// A traced run is the same streaming run with a tracer installed: its
/// `--stats` line counts what the plain run counts, after the transcript.
#[test]
fn traced_stats_equal_plain_stats() {
    let (_, stderr, ok) = run_with_stdin(
        &[
            "--trace",
            "--stats",
            "//pub[year>2000]//book[price]/title/text()",
        ],
        RECURSIVE_DOC,
    );
    assert!(ok, "{stderr}");
    let root = env!("CARGO_MANIFEST_DIR");
    let golden =
        std::fs::read_to_string(format!("{root}/tests/golden/trace_recursive.txt")).unwrap();
    let stats = stderr.strip_prefix(golden.as_str()).expect(&stderr);
    assert_eq!(stats.lines().count(), 1, "{stats}");
    let tail = &stats[stats.find("events=").expect(stats)..];
    assert_eq!(
        tail,
        "events=73 firings=254 steps=130 probed=106 peak_buffered_bytes=530 peak_configs=22\n"
    );
}

/// The CI bounds smoke contract: with the dblp DTD, the paper's
/// closure-free buffering query must report a *finite* bound — the
/// tentpole's showcase tightening — and the text renderer must carry
/// the derivation.
#[test]
fn analyze_with_dtd_reports_a_finite_bound_for_the_paper_query() {
    let dtd = concat!(env!("CARGO_MANIFEST_DIR"), "/data/dblp.dtd");
    let (stdout, stderr, ok) = run_with_stdin(
        &[
            "analyze",
            "--dtd",
            dtd,
            "/dblp/inproceedings[author]/title/text()",
        ],
        "",
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("memory bound:  ≤ 1 items"), "{stdout}");
    assert!(stdout.contains("[single-instance]"), "{stdout}");
    assert!(!stdout.contains("unbounded"), "{stdout}");
}

/// A `number()` or `string-length()` test against a non-numeric
/// constant compares with NaN, so only `!=` (or `%`) can hold. The stream
/// engine, which builds no arc for a test no value passes, answers what
/// the DOM engine does on an `@x` that is numeric, non-numeric and
/// missing, and `analyze` names each test that can never hold.
#[test]
fn function_tests_against_a_word_match_the_dom_engine() {
    let doc = r#"<r><a x="5"><b>n</b></a><a x="abc"><b>w</b></a><a><b>m</b></a></r>"#;
    for (query, want) in [
        ("/r/a[number(@x)>abc]/b/text()", ""),
        ("/r/a[number(@x)=abc]/b/text()", ""),
        ("/r/a[string-length(@x)=abc]/b/text()", ""),
        ("/r/a[number(@x)!=abc]/b/text()", "n\nw"),
        ("/r/a[number(@x)=5]/b/text()", "n"),
        ("/r/a[string-length(@x)=3]/b/text()", "w"),
    ] {
        let (stream, stderr, ok) = run_with_stdin(&[query], doc);
        assert!(ok, "{query}: {stderr}");
        assert_eq!(stream.trim_end(), want, "{query}");
        let (dom, stderr, ok) = run_with_stdin(&["--engine", "saxon", query], doc);
        assert!(ok, "{query}: {stderr}");
        assert_eq!(stream, dom, "{query}");
        let (report, _, ok) = run_with_stdin(&["analyze", query], "");
        assert!(ok, "{query}: {report}");
        let linted = report.contains("warning[unsatisfiable-predicate]");
        assert_eq!(linted, want.is_empty(), "{query}: {report}");
    }
}

/// A reader that hangs up early (`xsq … | head -1`) is an I/O error,
/// exit 3, in every mode that prints; each used to panic on the broken
/// pipe (exit 101). Every mode here prints well over 1 MiB, far past
/// what a pipe holds, so a write after the hang-up is certain to fail.
#[test]
fn a_closed_stdout_exits_3_without_a_panic() {
    use std::io::BufRead;
    let dir = std::env::temp_dir().join("xsq_cli_closed_stdout_test");
    std::fs::create_dir_all(&dir).unwrap();
    let (doc, qfile) = (dir.join("big.xml"), dir.join("q.txt"));
    let record = format!("<a>{}</a>", "x".repeat(40));
    std::fs::write(&doc, format!("<r>{}</r>", record.repeat(40_000))).unwrap();
    std::fs::write(&qfile, "//a/text()\n").unwrap();
    // 3·2¹² − 1 states: a 2 MB dump, a little more as a DOT graph.
    let chain = format!("{}/text()", "//a[b]".repeat(12));
    let (doc, qfile) = (doc.to_str().unwrap(), qfile.to_str().unwrap());
    let modes: [&[&str]; 5] = [
        &["//a/text()", doc],
        &["--queries", qfile, doc],
        &["multi", "//a/text()", doc],
        &["--dump", &chain],
        &["analyze", "--dot", &chain],
    ];
    for args in modes {
        let mut child = xsq()
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
        let mut first = String::new();
        stdout.read_line(&mut first).unwrap();
        assert!(!first.is_empty(), "{args:?}");
        drop(stdout);
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(3), "{args:?}: {stderr}");
        assert!(stderr.contains("error: writing to stdout"), "{stderr}");
    }
}

/// `xsq --help` names every flag the parser matches. The flags are read
/// off the `"--flag" =>` arms of the binary's own source, so a flag added
/// without a help line fails here.
#[test]
fn help_names_every_flag_the_parser_matches() {
    let source = include_str!("../src/bin/xsq.rs");
    let flags: Vec<&str> = source
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix('"')?.split_once("\" =>"))
        .map(|(flag, _)| flag)
        .filter(|f| f.starts_with("--") && !f.contains('"'))
        .collect();
    assert!(flags.len() >= 25, "{flags:?}");
    let out = xsq().arg("--help").output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8(out.stderr).unwrap();
    for flag in flags {
        // `--broadcast` must appear by itself, not only inside
        // `--broadcast-queue`.
        let named = help.match_indices(flag).any(|(i, _)| {
            !help[i + flag.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '-')
        });
        assert!(named, "--help does not name {flag}");
    }
}

/// `analyze` is a subcommand; the `--analyze` spelling of it is gone.
#[test]
fn the_analyze_flag_is_an_unknown_option() {
    let out = xsq()
        .args(["--analyze", "/a/b/text()"])
        .stdin(Stdio::null())
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown option '--analyze'"), "{stderr}");
}

/// An idle timeout that is not finite, not positive or too large for a
/// `Duration` is a usage error. `inf` and `1e300` used to panic inside
/// `Duration::from_secs_f64` (exit 101); `NaN` and `-1` were quietly
/// taken as 0.1 s.
#[test]
fn serve_refuses_an_idle_timeout_it_cannot_keep() {
    for secs in ["inf", "NaN", "-1", "1e300"] {
        let out = xsq()
            .args(["serve", "--addr", "127.0.0.1:0", "--idle-timeout", secs])
            .stdin(Stdio::null())
            .output()
            .unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{secs}: {stderr}");
        assert!(stderr.contains("--idle-timeout needs"), "{secs}: {stderr}");
    }
}

/// `analyze`, `--dump` and `--dot` describe the engine `--engine` names:
/// XSQ-NC refuses the closure axis there exactly as a run does (exit 4,
/// the run's message), a name that is not a native engine is a usage
/// error (exit 2), and the label is the engine that runs.
#[test]
fn analyze_and_dump_compile_for_the_engine_named() {
    let status = |args: &[&str]| {
        let out = xsq().args(args).stdin(Stdio::null()).output().unwrap();
        let stdout = String::from_utf8(out.stdout).unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        (out.status.code(), stdout, stderr)
    };
    let (code, _, run) = status(&["--engine", "xsq-nc", "//a/text()"]);
    assert_eq!(code, Some(4), "{run}");
    assert!(run.contains("closure axis"), "{run}");
    for args in [
        &["analyze", "--engine", "xsq-nc", "//a/text()"][..],
        &["analyze", "--engine", "xsq-nc", "--json", "//a/text()"],
        &["--dump", "--engine", "xsq-nc", "//a/text()"],
        &["--dot", "--engine", "xsq-nc", "//a/text()"],
    ] {
        let (code, stdout, stderr) = status(args);
        assert_eq!((code, stdout.as_str()), (Some(4), ""), "{args:?}: {stderr}");
        assert_eq!(stderr, run, "{args:?}");
    }
    for args in [
        &["analyze", "--engine", "bogus", "/a/text()"][..],
        &["analyze", "--engine", "saxon", "/a/text()"],
        &["--dump", "--engine", "bogus", "/a/text()"],
        &["--dot", "--engine", "saxon", "/a/text()"],
    ] {
        let (code, _, stderr) = status(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("on xsq-f or xsq-nc"), "{args:?}: {stderr}");
    }
    let (code, report, _) = status(&["analyze", "--engine", "xsq-nc", "/a/b/text()"]);
    assert_eq!(code, Some(0));
    assert!(report.contains("engine:        XSQ-NC\n"), "{report}");
}

/// The tombstone `/a[b]/c[d]/e[@x>nope]/text()` builds upload arcs for
/// `[b]` and `[d]` but no arc that enqueues a value: every queue is
/// unused, in the text report and the JSON one alike, and the bound
/// agrees.
#[test]
fn a_query_that_enqueues_nothing_reports_every_buffer_unused() {
    let query = "/a[b]/c[d]/e[@x>nope]/text()";
    let (json, _, ok) = run_with_stdin(&["analyze", "--json", query], "");
    assert!(ok, "{json}");
    assert!(
        json.contains("\"buffered\":false,\"live_buffers\":0"),
        "{json}"
    );
    assert!(!json.contains("-predicate\"}"), "{json}");
    let (text, _, ok) = run_with_stdin(&["analyze", query], "");
    assert!(ok, "{text}");
    assert!(
        text.contains("buffers:       none (buffering statically elided)"),
        "{text}"
    );
    for class in ["own-predicate", "upstream-predicate"] {
        assert!(!text.contains(class), "{text}");
    }
    assert!(
        text.contains("memory bound:  zero (no buffering)"),
        "{text}"
    );
}
