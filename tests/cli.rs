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

/// A rules file is bytes from outside: a character the pattern language
/// has no use for is a positioned compile error (exit 4) — it used to
/// abort the process (exit 101) — and is plain data inside a quoted
/// value or a comment.
#[test]
fn transform_rules_with_non_ascii_text_are_diagnosed_not_fatal() {
    let dir = std::env::temp_dir().join("xsq_cli_xfm_test");
    std::fs::create_dir_all(&dir).unwrap();
    let (bad, good, doc) = (dir.join("bad.xfm"), dir.join("good.xfm"), dir.join("d.xml"));
    std::fs::write(&bad, "//café => drop\n").unwrap();
    std::fs::write(
        &good,
        "# règle ☕\n//name => rename(nom) +@lang=\"français\"\n",
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
        stderr.contains("line 1, column 6: unexpected character 'é'"),
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
        "events=73 firings=254 steps=130 probed=109 peak_buffered_bytes=530 peak_configs=22"
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
