//! `xsq` — command-line streaming XPath over XML files or stdin.
//!
//! ```text
//! xsq [OPTIONS] QUERY [FILE...]        evaluate QUERY (stdin if no FILE)
//! xsq --queries FILE [FILE...]         evaluate a whole query set (one
//!                                      query per line) in a single pass,
//!                                      results tagged with the query index
//! xsq multi [--shard N] (QUERY | --queries QFILE) FILE...
//!                                      evaluate over a document corpus on
//!                                      an N-worker pool (0 = one per CPU),
//!                                      output merged in document order and
//!                                      tagged doc<TAB>query<TAB>value
//! xsq --dataset-stats FILE...          print Fig. 15-style statistics
//! xsq --dump QUERY                     print the compiled HPDT
//! xsq --queries FILE (--dump | --dot)  print every group's merged HPDT
//! xsq analyze [--json] [--dot] [--dtd FILE] QUERY
//!                                      static analysis: verifier
//!                                      diagnostics, dead-state pruning,
//!                                      buffer-necessity classes, engine
//!                                      auto-selection, and (with --dtd)
//!                                      the static memory bound with its
//!                                      derivation; exits nonzero if any
//!                                      diagnostic is an error
//!
//! Options:
//!   --engine NAME   xsq-f (default) | xsq-nc | saxon | galax | xmltk |
//!                   joost | xqengine
//!   --stats         print events / results / arc firings / steps (firings
//!                   of a lock-step run counted once) / runs probed /
//!                   memory / time to stderr
//!   --running       for aggregations, print running updates as they occur
//!   --quiet         suppress result output (timing runs)
//!   --json          emit results as JSON lines ({"result": …})
//!   --schema-optimize  use the document's internal DTD (if any) to
//!                   rewrite provably-child closures and skip provably
//!                   empty queries
//! xsq --dot QUERY                      print the HPDT as Graphviz
//! xsq serve [--addr A] [--loop-threads N] [--dtd FILE] [--max-bound K]
//!           [--broadcast] [--broadcast-queue N]
//!           [--broadcast-policy block|drop]
//!                                      streaming query server: framed
//!                                      SUB/FEED protocol over TCP; runs
//!                                      until stdin reaches EOF, then
//!                                      drains and exits. --max-bound K
//!                                      rejects subscriptions whose
//!                                      static memory bound (proven
//!                                      against --dtd) exceeds K
//!                                      buffered items. --broadcast: one
//!                                      feeder fans one stream through a
//!                                      shared index to every subscriber
//! xsq connect [--addr A] [--chunk N] [--verify]
//!             (QUERY | --queries QFILE) [FILE...]
//!                                      replay a corpus over the wire;
//!                                      --verify byte-compares the replies
//!                                      against the sequential driver
//! xsq connect --broadcast-feed [--wait-subs N] FILE...
//!                                      claim the broadcast feeder role
//! xsq connect --broadcast-sub --expect-docs N [--verify]
//!             (QUERY | --queries QFILE) [FILE...]
//!                                      subscribe to a broadcast stream
//! xsq transform [--engine stream|dom] [--chunk N] [--verify]
//!               RULES.xfm [FILE...]    rewrite documents under .xfm
//!                                      template rules; stream engine is
//!                                      one-pass push-mode, dom is the
//!                                      two-pass reference; --verify
//!                                      byte-compares the two
//! ```
//!
//! Exit codes: 0 success, 1 analysis found errors, 2 usage, 3 I/O,
//! 4 query compile error, 5 evaluation error, 6 protocol/server error,
//! 7 --verify mismatch.

use std::io::{BufReader, Read, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use xsq::baselines::{GalaxLike, JoostLike, SaxonLike, XmltkLike, XqEngineLike};
use xsq::engine::{
    query_lines, run_sharded_with, QueryId, QuerySet, QuerySink, ShardOptions, Sink, XPathEngine,
    XsqEngine,
};
use xsq::server::proto::json_escape;

/// Distinct exit codes per error class, so scripts (and CI) can tell
/// a bad query from a dead server from an unreadable file.
const EXIT_USAGE: u8 = 2;
const EXIT_IO: u8 = 3;
const EXIT_QUERY: u8 = 4;
const EXIT_RUN: u8 = 5;
const EXIT_PROTOCOL: u8 = 6;
const EXIT_VERIFY: u8 = 7;

struct Options {
    engine: String,
    queries: Option<String>,
    /// Worker threads for `xsq multi` (0 = one per CPU).
    shard: usize,
    /// Bind/connect address for `serve` / `connect`.
    addr: String,
    /// FEED chunk size for `connect`.
    chunk: usize,
    /// Idle timeout in seconds for `serve`.
    idle_timeout: f64,
    /// `connect`: byte-compare replies against the sequential driver.
    verify: bool,
    stats: bool,
    running: bool,
    quiet: bool,
    json: bool,
    dump: bool,
    dot: bool,
    trace: bool,
    schema_optimize: bool,
    dataset_stats: bool,
    analyze: bool,
    dtd: Option<String>,
    /// `serve`: per-subscription static-bound budget (buffered items).
    max_bound: Option<u64>,
    /// `serve`: event-loop shard count.
    loop_threads: usize,
    /// `serve`: broadcast mode (one feeder, shared index, fan-out).
    broadcast: bool,
    /// `serve`: per-subscriber broadcast queue bound (frames).
    broadcast_queue: usize,
    /// `serve`: overflow policy, `block` (default) or `drop`.
    broadcast_policy: String,
    /// `connect`: claim the broadcast feeder role and push the corpus.
    broadcast_feed: bool,
    /// `connect`: subscribe to a broadcast stream instead of feeding.
    broadcast_sub: bool,
    /// `connect --broadcast-sub`: documents to render before detaching.
    expect_docs: usize,
    /// `connect --broadcast-feed`: wait until N subscribers attached.
    wait_subs: Option<u64>,
    positional: Vec<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options {
        engine: "xsq-f".into(),
        queries: None,
        shard: 0,
        addr: "127.0.0.1:7878".into(),
        chunk: 64 * 1024,
        idle_timeout: 30.0,
        verify: false,
        stats: false,
        running: false,
        quiet: false,
        json: false,
        dump: false,
        dot: false,
        trace: false,
        schema_optimize: false,
        dataset_stats: false,
        analyze: false,
        dtd: None,
        max_bound: None,
        loop_threads: 1,
        broadcast: false,
        broadcast_queue: 1024,
        broadcast_policy: "block".into(),
        broadcast_feed: false,
        broadcast_sub: false,
        expect_docs: 1,
        wait_subs: None,
        positional: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--engine" => {
                o.engine = args.next().ok_or("--engine needs a name")?;
            }
            "--queries" => {
                o.queries = Some(args.next().ok_or("--queries needs a file")?);
            }
            "--shard" => {
                o.shard = number(&mut args, "--shard", "a worker count (0 = one per CPU)")?
            }
            "--addr" => {
                o.addr = args.next().ok_or("--addr needs HOST:PORT")?;
            }
            "--chunk" => o.chunk = positive(&mut args, "--chunk", "a byte count")?,
            "--idle-timeout" => {
                o.idle_timeout =
                    number(&mut args, "--idle-timeout", "seconds (may be fractional)")?;
            }
            "--verify" => o.verify = true,
            "--stats" => o.stats = true,
            "--running" => o.running = true,
            "--quiet" => o.quiet = true,
            "--json" => o.json = true,
            "--dump" => o.dump = true,
            "--dot" => o.dot = true,
            "--trace" => o.trace = true,
            "--schema-optimize" => o.schema_optimize = true,
            "--dataset-stats" => o.dataset_stats = true,
            "--analyze" => o.analyze = true,
            "--dtd" => {
                o.dtd = Some(args.next().ok_or("--dtd needs a file")?);
            }
            "--max-bound" => o.max_bound = Some(number(&mut args, "--max-bound", "an item count")?),
            "--loop-threads" => {
                o.loop_threads = positive(&mut args, "--loop-threads", "a thread count")?;
            }
            "--broadcast" => o.broadcast = true,
            "--broadcast-queue" => {
                o.broadcast_queue = positive(&mut args, "--broadcast-queue", "a frame count")?;
            }
            "--broadcast-policy" => {
                o.broadcast_policy = args
                    .next()
                    .ok_or("--broadcast-policy needs block or drop")?;
            }
            "--broadcast-feed" => o.broadcast_feed = true,
            "--broadcast-sub" => o.broadcast_sub = true,
            "--expect-docs" => {
                o.expect_docs = number(&mut args, "--expect-docs", "a document count")?
            }
            "--wait-subs" => {
                o.wait_subs = Some(number(&mut args, "--wait-subs", "a subscriber count")?);
            }
            "--help" | "-h" => return Err(String::new()),
            _ if a.starts_with("--") => return Err(format!("unknown option '{a}'")),
            _ => o.positional.push(a),
        }
    }
    Ok(o)
}

/// The value of numeric option `flag` — `what`, in words, for the error.
fn number<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    args.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs {what}"))
}

/// [`number`], at least 1.
fn positive(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<usize, String> {
    match number(args, flag, what)? {
        0 => Err(format!("{flag} needs {what}, at least 1")),
        n => Ok(n),
    }
}

struct StdoutSink {
    quiet: bool,
    running: bool,
    json: bool,
    results: u64,
}

impl Sink for StdoutSink {
    fn result(&mut self, value: &str) {
        self.results += 1;
        if self.quiet {
            return;
        }
        if self.json {
            println!("{{\"result\":\"{}\"}}", json_escape(value));
        } else {
            println!("{value}");
        }
    }
    fn aggregate_update(&mut self, value: f64) {
        if !self.running || self.quiet {
            return;
        }
        if self.json {
            println!("{{\"running\":{value}}}");
        } else {
            println!("# running: {value}");
        }
    }
}

/// Shared sink for `--queries` mode: every line says which query matched.
struct QueryStdoutSink {
    quiet: bool,
    running: bool,
    json: bool,
    results: u64,
}

impl QuerySink for QueryStdoutSink {
    fn result(&mut self, id: QueryId, value: &str) {
        self.results += 1;
        if self.quiet {
            return;
        }
        if self.json {
            println!(
                "{{\"query\":{},\"result\":\"{}\"}}",
                id.0,
                json_escape(value)
            );
        } else {
            println!("{}\t{}", id.0, value);
        }
    }

    fn aggregate_update(&mut self, id: QueryId, value: f64) {
        if !self.running || self.quiet {
            return;
        }
        if self.json {
            println!("{{\"query\":{},\"running\":{value}}}", id.0);
        } else {
            println!("# running[{}]: {value}", id.0);
        }
    }
}

/// The native engine `name` selects, if it names one.
fn native_engine(name: &str) -> Option<XsqEngine> {
    match name {
        "xsq-f" => Some(XsqEngine::full()),
        "xsq-nc" => Some(XsqEngine::no_closure()),
        _ => None,
    }
}

/// What every query-batch mode starts from: the native engine, the
/// batch text (`--queries QFILE`, else the first of `rest` as the one
/// QUERY) and the FILE arguments after it. A batch with no query in it
/// is a usage error, whichever way it was given.
fn batch_inputs<'a>(
    opts: &Options,
    rest: &'a [String],
    what: &str,
) -> Result<(XsqEngine, String, &'a [String]), ExitCode> {
    let Some(engine) = native_engine(&opts.engine) else {
        return Err(usage(&format!(
            "{what} runs on xsq-f or xsq-nc, not '{}'",
            opts.engine
        )));
    };
    let (text, files) = match &opts.queries {
        Some(qfile) => match std::fs::read_to_string(qfile) {
            Ok(t) => (t, rest),
            Err(e) => return Err(fail_io(&format!("reading {qfile}: {e}"))),
        },
        None => match rest.split_first() {
            Some((q, files)) => (q.clone(), files),
            None => return Err(usage(&format!("{what} needs a QUERY (or --queries QFILE)"))),
        },
    };
    if query_lines(&text).is_empty() {
        return Err(usage(&format!("{what} needs at least one query")));
    }
    Ok((engine, text, files))
}

fn compile_set(engine: XsqEngine, queries: &[&str]) -> Result<QuerySet, ExitCode> {
    QuerySet::compile(engine, queries)
        .map_err(|(i, e)| fail_query(&format!("query {} ({}): {e}", i + 1, queries[i])))
}

fn read_docs(files: &[String]) -> Result<Vec<Vec<u8>>, ExitCode> {
    files
        .iter()
        .map(|f| read_input(Some(f)).map_err(|e| fail_io(&e)))
        .collect()
}

fn load_dtd(path: Option<&String>) -> Result<Option<xsq::xml::dtd::Dtd>, ExitCode> {
    let Some(path) = path else { return Ok(None) };
    let text =
        std::fs::read_to_string(path).map_err(|e| fail_io(&format!("reading {path}: {e}")))?;
    match xsq::xml::dtd::Dtd::parse(&text) {
        Ok(dtd) => Ok(Some(dtd)),
        Err(e) => Err(fail_run(&format!("parsing {path}: {e}"))),
    }
}

/// `--queries FILE` mode: the whole standing query set evaluates in one
/// pass per document via the query index (prefix-shared compilation,
/// dispatch-indexed event routing).
fn run_query_file(opts: &Options) -> ExitCode {
    let (engine, text, _) = match batch_inputs(opts, &opts.positional, "--queries") {
        Ok(inputs) => inputs,
        Err(code) => return code,
    };
    let set = match compile_set(engine, &query_lines(&text)) {
        Ok(s) => s,
        Err(code) => return code,
    };
    if opts.dump || opts.dot {
        for (g, hpdt) in set.hpdts().enumerate() {
            if opts.dot {
                let title = format!("group {g}: HPDT for {} queries", hpdt.merged.len());
                let name = format!("group{g}");
                print!("{}", xsq::engine::dot::to_dot_named(hpdt, &name, &title));
            } else {
                print!("{}", hpdt.dump());
            }
        }
        return ExitCode::SUCCESS;
    }

    let files: Vec<Option<String>> = if opts.positional.is_empty() {
        vec![None]
    } else {
        opts.positional.iter().cloned().map(Some).collect()
    };
    for file in files {
        let t0 = Instant::now();
        let mut index = set.index();
        let mut sink = QueryStdoutSink {
            quiet: opts.quiet,
            running: opts.running,
            json: opts.json,
            results: 0,
        };
        let run = match &file {
            None => index.run_reader(BufReader::new(std::io::stdin()), &mut sink),
            Some(p) => match std::fs::File::open(p) {
                Ok(f) => index.run_reader(BufReader::new(f), &mut sink),
                Err(e) => return fail_io(&format!("reading {p}: {e}")),
            },
        };
        match run {
            Err(e) => return fail_run(&e.to_string()),
            Ok(stats) => {
                if opts.stats {
                    let (buckets, entries, longest_bucket) = index.dispatch_shape();
                    eprintln!(
                        "# {}: {} results in {:.1} ms [{} queries, {} groups] engine={} \
                         events={} firings={} steps={} probed={} touches={} (loop path: {}) \
                         buckets={buckets} entries={entries} longest_bucket={longest_bucket}",
                        file.as_deref().unwrap_or("<stdin>"),
                        sink.results,
                        t0.elapsed().as_secs_f64() * 1e3,
                        set.len(),
                        set.group_count(),
                        opts.engine,
                        stats.events,
                        stats.firings,
                        stats.steps,
                        stats.probed,
                        index.touches(),
                        stats.events * set.len() as u64,
                    );
                }
            }
        }
    }
    ExitCode::SUCCESS
}

/// `xsq multi [--shard N] (QUERY | --queries QFILE) FILE...`: evaluate
/// the query (or query set) over a corpus of documents on a worker pool,
/// results merged back in global document order. Each output line is
/// tagged with the document index and the query index. `--shard 0` (the
/// default) sizes the pool to the machine; `--shard 1` is the sequential
/// driver with identical output.
fn run_multi(opts: &Options) -> ExitCode {
    let (engine, text, files) = match batch_inputs(opts, &opts.positional[1..], "multi") {
        Ok(inputs) => inputs,
        Err(code) => return code,
    };
    if files.is_empty() {
        return usage("multi needs at least one FILE");
    }
    let set = match compile_set(engine, &query_lines(&text)) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let docs = match read_docs(files) {
        Ok(d) => d,
        Err(code) => return code,
    };

    let t0 = Instant::now();
    let shard_opts = ShardOptions::with_workers(opts.shard);
    let mut results = 0u64;
    let mut events = 0u64;
    let run = run_sharded_with(&set, &docs, &shard_opts, |di, out| {
        events += out.events;
        results += out.results.len() as u64;
        if opts.quiet {
            return;
        }
        if !opts.json {
            // The same renderer the wire clients print through.
            let mut stdout = std::io::stdout().lock();
            xsq::server::render_doc(&mut stdout, di, &out.results, &out.updates, opts.running)
                .expect("failed printing to stdout");
            return;
        }
        if opts.running {
            for (id, v) in &out.updates {
                println!("{{\"doc\":{di},\"query\":{},\"running\":{v}}}", id.0);
            }
        }
        for (id, v) in &out.results {
            println!(
                "{{\"doc\":{di},\"query\":{},\"result\":\"{}\"}}",
                id.0,
                json_escape(v)
            );
        }
    });
    match run {
        Err(e) => fail_run(&e.to_string()),
        Ok(workers) => {
            if opts.stats {
                let secs = t0.elapsed().as_secs_f64();
                let corpus_bytes: usize = docs.iter().map(Vec::len).sum();
                eprintln!(
                    "# multi: {} docs, {} results in {:.1} ms [{} queries, {} groups] \
                     engine={} workers={} events={} ingest={:.1} MB/s \
                     events/s={:.0} kernel={}",
                    docs.len(),
                    results,
                    secs * 1e3,
                    set.len(),
                    set.group_count(),
                    opts.engine,
                    workers,
                    events,
                    corpus_bytes as f64 / (1024.0 * 1024.0) / secs,
                    events as f64 / secs,
                    xsq::xml::scan::active_kernel(),
                );
            }
            ExitCode::SUCCESS
        }
    }
}

/// Render a [`BoundAnalysis`] as the `"bound"` JSON object of
/// `xsq analyze --json` — kind, count, display form, and the full
/// derivation trace (rule names are stable identifiers).
fn bound_json(b: &xsq::engine::BoundAnalysis) -> String {
    use xsq::engine::MemoryBound;
    let mut obj = format!("{{\"kind\":\"{}\"", b.bound.label());
    match &b.bound {
        MemoryBound::Zero => obj.push_str(",\"items\":0"),
        MemoryBound::Items(k) => obj.push_str(&format!(",\"items\":{k}")),
        MemoryBound::PerDepth(k) => obj.push_str(&format!(",\"items_per_level\":{k}")),
        MemoryBound::Unbounded { reason, span } => {
            obj.push_str(&format!(",\"reason\":\"{}\"", json_escape(reason)));
            if !span.is_empty() {
                obj.push_str(&format!(",\"span\":[{},{}]", span.start, span.end));
            }
        }
    }
    obj.push_str(&format!(
        ",\"display\":\"{}\"",
        json_escape(&b.bound.to_string())
    ));
    let trace: Vec<String> = b
        .trace
        .iter()
        .map(|s| {
            format!(
                "{{\"rule\":\"{}\",\"detail\":\"{}\"}}",
                s.rule,
                json_escape(&s.detail)
            )
        })
        .collect();
    obj.push_str(&format!(",\"derivation\":[{}]", trace.join(",")));
    if !b.elidable_predicates.is_empty() {
        let idx: Vec<String> = b
            .elidable_predicates
            .iter()
            .map(|i| i.to_string())
            .collect();
        obj.push_str(&format!(",\"elidable_predicates\":[{}]", idx.join(",")));
    }
    obj.push('}');
    obj
}

/// `xsq analyze QUERY`: run the full static-analysis pipeline (verify,
/// lint, prune, buffer classification, determinism proof) and report it.
/// Exit status is nonzero iff any diagnostic is an error — the smoke-test
/// contract CI relies on.
fn run_analyze(query: &str, opts: &Options) -> ExitCode {
    let parsed = match xsq::xpath::parse_query(query) {
        Ok(q) => q,
        Err(e) => return fail_query(&e.to_string()),
    };
    // Queries outside the HPDT surface (reverse axes, positional
    // predicates) can't build a transducer; report the streamability
    // diagnostics instead of a bare compile error — spanned, never a
    // panic. Errors exit 1 like any other analysis failure;
    // transform-only findings alone exit 0 (the query is fine for
    // `xsq transform`, just not for selection).
    if !xsq::xpath::streamability(&parsed).hpdt_supported() {
        let mut diags = xsq::engine::analyze::lint_streamability(&parsed);
        diags.extend(xsq::engine::analyze::lint_query(&parsed));
        let errors = xsq::engine::analyze::has_errors(&diags);
        if opts.json {
            let rendered: Vec<String> = diags
                .iter()
                .map(|d| {
                    let mut obj = format!(
                        "{{\"severity\":\"{}\",\"code\":\"{}\",\"message\":\"{}\"",
                        d.severity.label(),
                        d.code,
                        json_escape(&d.message)
                    );
                    if let Some(s) = d.step {
                        obj.push_str(&format!(",\"step\":{s}"));
                    }
                    obj.push('}');
                    obj
                })
                .collect();
            println!(
                "{{\"query\":\"{}\",\"engine\":null,\"diagnostics\":[{}]}}",
                json_escape(query),
                rendered.join(","),
            );
        } else {
            println!("query:         {query}");
            println!("engine:        none (outside the HPDT surface)");
            println!("diagnostics:");
            for d in &diags {
                println!("  {d}");
            }
        }
        return if errors {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    let dtd = match load_dtd(opts.dtd.as_ref()) {
        Ok(dtd) => dtd,
        Err(code) => return code,
    };
    let analysis = match xsq::engine::analyze_with_dtd(&parsed, dtd.as_ref()) {
        Ok(a) => a,
        Err(e) => return fail_query(&e.to_string()),
    };

    let errors = xsq::engine::analyze::has_errors(&analysis.diagnostics);
    if opts.dot {
        // Both transducers, concatenable into one Graphviz input; the
        // summary still goes to stderr so pipelines stay clean.
        print!(
            "{}",
            xsq::engine::dot::to_dot_named(
                &analysis.original,
                "original",
                &format!("original HPDT for {query}")
            )
        );
        print!(
            "{}",
            xsq::engine::dot::to_dot_named(
                &analysis.pruned,
                "pruned",
                &format!("pruned HPDT for {query}")
            )
        );
        for d in &analysis.diagnostics {
            eprintln!("{d}");
        }
    } else if opts.json {
        let buffers: Vec<String> = analysis
            .plan
            .buffers
            .iter()
            .map(|b| {
                format!(
                    "{{\"bpdt\":\"{}\",\"class\":\"{}\"}}",
                    b.bpdt,
                    b.class.label()
                )
            })
            .collect();
        let diags: Vec<String> = analysis
            .diagnostics
            .iter()
            .map(|d| {
                let mut obj = format!(
                    "{{\"severity\":\"{}\",\"code\":\"{}\",\"message\":\"{}\"",
                    d.severity.label(),
                    d.code,
                    json_escape(&d.message)
                );
                if let Some(s) = d.step {
                    obj.push_str(&format!(",\"step\":{s}"));
                }
                if let Some(s) = d.state {
                    obj.push_str(&format!(",\"state\":{s}"));
                }
                if let Some(b) = d.bpdt {
                    obj.push_str(&format!(",\"bpdt\":\"{b}\""));
                }
                obj.push('}');
                obj
            })
            .collect();
        println!(
            "{{\"query\":\"{}\",\"engine\":\"{}\",\"deterministic\":{},\
             \"states_before\":{},\"states_after\":{},\
             \"arcs_before\":{},\"arcs_after\":{},\
             \"buffered\":{},\"live_buffers\":{},\
             \"buffers\":[{}],\"bound\":{},\"diagnostics\":[{}]}}",
            json_escape(query),
            analysis.engine,
            analysis.proven_deterministic,
            analysis.stats.states_before,
            analysis.stats.states_after,
            analysis.stats.arcs_before,
            analysis.stats.arcs_after,
            analysis.plan.buffered,
            analysis.plan.live_buffers(),
            buffers.join(","),
            bound_json(&analysis.bound),
            diags.join(","),
        );
    } else {
        println!("query:         {query}");
        println!("engine:        {}", analysis.engine);
        println!(
            "deterministic: {}",
            if analysis.proven_deterministic {
                "proven (first-match execution is exact)"
            } else {
                "not proven (closure arcs present; scan-all execution)"
            }
        );
        println!(
            "states:        {} -> {}{}",
            analysis.stats.states_before,
            analysis.stats.states_after,
            if analysis.stats.changed() {
                "  (pruned)"
            } else {
                ""
            }
        );
        println!(
            "arcs:          {} -> {}",
            analysis.stats.arcs_before, analysis.stats.arcs_after
        );
        if analysis.plan.buffered {
            println!(
                "buffers:       {} live of {}",
                analysis.plan.live_buffers(),
                analysis.plan.buffers.len()
            );
        } else {
            println!("buffers:       none (buffering statically elided)");
        }
        for b in &analysis.plan.buffers {
            println!("  {}: {}", b.bpdt, b.class.label());
        }
        println!("memory bound:  {}", analysis.bound.bound);
        if !analysis.bound.trace.is_empty() {
            println!("derivation:");
            for s in &analysis.bound.trace {
                println!("  [{}] {}", s.rule, s.detail);
            }
        }
        if analysis.diagnostics.is_empty() {
            println!("diagnostics:   none");
        } else {
            println!("diagnostics:");
            for d in &analysis.diagnostics {
                println!("  {d}");
            }
        }
    }
    if errors {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `xsq serve [--addr A] [--engine E] [--idle-timeout S]`:
/// run the streaming query server until stdin reaches EOF, then drain
/// in-flight sessions and exit. The stdin gate is the clean-shutdown
/// hook: interactively Ctrl-D stops the server; in scripts, holding a
/// pipe open keeps it serving and closing the pipe shuts it down.
fn run_serve(opts: &Options) -> ExitCode {
    let Some(engine) = native_engine(&opts.engine) else {
        return usage(&format!(
            "serve runs on xsq-f or xsq-nc, not '{}'",
            opts.engine
        ));
    };
    let mut sopts = xsq::server::ServeOptions::new(opts.addr.clone());
    sopts.engine = engine;
    sopts.idle_timeout = Duration::from_secs_f64(opts.idle_timeout.max(0.1));
    // Admission control: `--max-bound K` refuses subscriptions whose
    // static memory bound exceeds K buffered items; `--dtd FILE` gives
    // the analyzer the schema to prove bounds against.
    let dtd = match load_dtd(opts.dtd.as_ref()) {
        Ok(dtd) => dtd.map(std::sync::Arc::new),
        Err(code) => return code,
    };
    sopts.limits = xsq::server::SessionLimits {
        max_bound: opts.max_bound,
        dtd,
    };
    sopts.loop_threads = opts.loop_threads;
    if opts.broadcast {
        let policy = match opts.broadcast_policy.as_str() {
            "block" => xsq::server::BroadcastPolicy::Block,
            "drop" => xsq::server::BroadcastPolicy::Drop,
            other => {
                return usage(&format!(
                    "--broadcast-policy is block or drop, not '{other}'"
                ))
            }
        };
        sopts.broadcast = Some(xsq::server::BroadcastOptions {
            queue: opts.broadcast_queue,
            policy,
        });
    }
    // Broadcast keeps every connection on one loop thread.
    let (model_label, loop_threads) = if opts.broadcast {
        ("broadcast", 1)
    } else {
        ("eventloop", opts.loop_threads)
    };
    let handle = match xsq::server::serve(sopts) {
        Ok(h) => h,
        Err(e) => return fail_io(&format!("binding {}: {e}", opts.addr)),
    };
    // The bound address goes to stdout (machine-readable: with port 0
    // a script learns the real port here), status to stderr.
    println!("{}", handle.addr());
    let _ = std::io::stdout().flush();
    eprintln!(
        "# xsq serve: listening on {} (model={model_label}, \
         loop-threads={loop_threads}, poller={}, \
         engine={}, idle={}s, scan-kernel={}, max-bound={}); EOF on stdin \
         shuts down; STAT replies carry ingest MB/s and events/s",
        handle.addr(),
        xsq::server::eventloop::poller::Poller::new().map_or("none", |p| p.backend_name()),
        opts.engine,
        opts.idle_timeout,
        xsq::xml::scan::active_kernel(),
        match opts.max_bound {
            Some(k) => format!("{k} items"),
            None => "off".to_string(),
        },
    );
    let mut sink = [0u8; 4096];
    let mut stdin = std::io::stdin();
    loop {
        match stdin.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    eprintln!("# xsq serve: stdin closed, draining");
    handle.shutdown();
    ExitCode::SUCCESS
}

/// `xsq connect [--addr A] [--chunk N] [--verify] (QUERY | --queries
/// QFILE) [FILE...]`: subscribe the query set, replay the corpus as
/// FEED chunks, and print replies exactly like `xsq multi --shard 1`.
/// With `--verify`, the output is additionally byte-compared against
/// the in-process sequential driver.
fn run_connect(opts: &Options) -> ExitCode {
    // The feeder subscribes nothing, so it has no batch to read — but a
    // bad --engine is still refused below.
    if opts.broadcast_feed && native_engine(&opts.engine).is_some() {
        return run_broadcast_feed(opts);
    }
    let what = if opts.broadcast_sub {
        "connect --broadcast-sub"
    } else {
        "connect"
    };
    let (engine, text, files) = match batch_inputs(opts, &opts.positional[1..], what) {
        Ok(inputs) => inputs,
        Err(code) => return code,
    };
    let queries = query_lines(&text);
    if opts.broadcast_sub {
        return run_broadcast_sub(engine, &queries, files, opts);
    }
    let docs = match files {
        [] => read_input(None).map(|d| vec![d]).map_err(|e| fail_io(&e)),
        files => read_docs(files),
    };
    let docs = match docs {
        Ok(d) => d,
        Err(code) => return code,
    };

    let copts = xsq::server::ConnectOptions {
        chunk: opts.chunk,
        running: opts.running,
        want_stats: opts.stats,
    };
    let t0 = Instant::now();
    let mut out = Vec::new();
    let report = match xsq::server::run_corpus(&opts.addr, &queries, &docs, &copts, &mut out) {
        Ok(r) => r,
        Err(e) => return fail_client(&opts.addr, e),
    };
    if let Err(code) = print_results(&out, opts) {
        return code;
    }
    if opts.stats {
        eprintln!(
            "# connect {}: {} docs, {} results, {} updates in {:.1} ms [{} queries] chunk={}",
            opts.addr,
            report.docs,
            report.results,
            report.updates,
            t0.elapsed().as_secs_f64() * 1e3,
            queries.len(),
            opts.chunk,
        );
        print_wire_stats(
            report.stats_json.as_deref(),
            report.wire_out,
            report.wire_in,
        );
    }
    if opts.verify {
        return verify_against_driver("server", engine, &queries, &docs, &out, opts);
    }
    ExitCode::SUCCESS
}

/// A failed conversation: a dead socket is an I/O failure, anything
/// else the peer's (or the protocol's) fault.
fn fail_client(addr: &str, e: xsq::server::ClientError) -> ExitCode {
    match e {
        xsq::server::ClientError::Io(e) => fail_io(&format!("talking to {addr}: {e}")),
        e => fail_protocol(&e.to_string()),
    }
}

/// A client's rendered transcript goes to stdout unless `--quiet`.
fn print_results(out: &[u8], opts: &Options) -> Result<(), ExitCode> {
    if opts.quiet {
        return Ok(());
    }
    let mut stdout = std::io::stdout();
    stdout
        .write_all(out)
        .and_then(|()| stdout.flush())
        .map_err(|_| fail_io("writing results to stdout"))
}

/// The `--stats` tail of every client role: the server's STAT (when it
/// was asked for) and this side's wire footprint.
fn print_wire_stats(stats_json: Option<&str>, wire_out: u64, wire_in: u64) {
    if let Some(json) = stats_json {
        eprintln!("# stat: {json}");
        if let Some(summary) = xsq::server::stat_transport_summary(json) {
            eprintln!("# transport: {summary}");
        }
    }
    eprintln!("# wire: {wire_out} bytes out, {wire_in} bytes in");
}

/// `--verify`: byte-compare a client's transcript (`what` output) with
/// the in-process sequential driver over the same queries and corpus.
fn verify_against_driver(
    what: &str,
    engine: XsqEngine,
    queries: &[&str],
    docs: &[Vec<u8>],
    out: &[u8],
    opts: &Options,
) -> ExitCode {
    let expected = match xsq::server::reference_output(engine, queries, docs, opts.running) {
        Ok(t) => t,
        Err(e) => return fail_run(&format!("reference run: {e}")),
    };
    if out != expected.as_bytes() {
        eprintln!(
            "error: {what} output diverged from the sequential driver \
             ({} vs {} bytes)",
            out.len(),
            expected.len()
        );
        return ExitCode::from(EXIT_VERIFY);
    }
    eprintln!(
        "# verify: {what} output matches the sequential driver ({} bytes)",
        out.len()
    );
    ExitCode::SUCCESS
}

/// `xsq connect --broadcast-feed [--wait-subs N] FILE...`: claim the
/// feeder role on a broadcast server and push the corpus through the
/// shared index. With `--wait-subs N` the feed starts only once N
/// subscribers are attached (STAT polling), so scripted fan-outs are
/// deterministic.
fn run_broadcast_feed(opts: &Options) -> ExitCode {
    let files = &opts.positional[1..];
    if files.is_empty() {
        return usage("connect --broadcast-feed needs at least one FILE");
    }
    let docs = match read_docs(files) {
        Ok(d) => d,
        Err(code) => return code,
    };
    let fopts = xsq::server::FeedOptions {
        chunk: opts.chunk,
        wait_subs: opts.wait_subs,
        want_stats: opts.stats,
    };
    let t0 = Instant::now();
    let report = match xsq::server::broadcast_feed(&opts.addr, &docs, &fopts) {
        Ok(r) => r,
        Err(e) => return fail_client(&opts.addr, e),
    };
    if opts.stats {
        eprintln!(
            "# feed {}: {} docs, {} bytes in {:.1} ms",
            opts.addr,
            report.docs,
            report.bytes,
            t0.elapsed().as_secs_f64() * 1e3,
        );
        print_wire_stats(
            report.stats_json.as_deref(),
            report.wire_out,
            report.wire_in,
        );
    }
    ExitCode::SUCCESS
}

/// `xsq connect --broadcast-sub --expect-docs N (QUERY | --queries
/// QFILE) [FILE...]`: subscribe to a broadcast stream and render N
/// documents of fan-out in the `xsq multi --shard 1` output format.
/// With `--verify` and the corpus FILEs given, the received output is
/// byte-compared against the in-process sequential driver over those
/// files — the CI smoke gate.
fn run_broadcast_sub(
    engine: XsqEngine,
    queries: &[&str],
    files: &[String],
    opts: &Options,
) -> ExitCode {
    let t0 = Instant::now();
    let mut out = Vec::new();
    let report = match xsq::server::broadcast_subscribe(
        &opts.addr,
        queries,
        opts.expect_docs,
        opts.running,
        &mut out,
    ) {
        Ok(r) => r,
        Err(e) => return fail_client(&opts.addr, e),
    };
    if let Err(code) = print_results(&out, opts) {
        return code;
    }
    if opts.stats {
        eprintln!(
            "# subscribe {}: {} docs, {} results, {} updates in {:.1} ms [{} queries]",
            opts.addr,
            report.docs,
            report.results,
            report.updates,
            t0.elapsed().as_secs_f64() * 1e3,
            queries.len(),
        );
        print_wire_stats(None, report.wire_out, report.wire_in);
    }
    if opts.verify {
        if files.is_empty() {
            return usage("--verify on --broadcast-sub needs the corpus FILEs to compare against");
        }
        return match read_docs(files) {
            Ok(docs) => verify_against_driver("broadcast", engine, queries, &docs, &out, opts),
            Err(code) => code,
        };
    }
    ExitCode::SUCCESS
}

/// `xsq transform [--engine stream|dom] [--chunk N] [--verify] [--stats]
/// RULES.xfm [FILE...]`: rewrite documents under a `.xfm` template rule
/// file. The default engine is the one-pass streaming transducer, pushed
/// in `--chunk`-byte pieces with output written as soon as each region's
/// verdict is known; `--engine dom` runs the two-pass DOM reference
/// instead; `--verify` runs both and byte-compares them (exit 7 on
/// mismatch). Rule compile errors carry line:col spans and exit 4.
fn run_transform(opts: &Options) -> ExitCode {
    let rest = &opts.positional[1..];
    let Some((rules_path, files)) = rest.split_first() else {
        return usage("transform needs a RULES.xfm file");
    };
    let rules_text = match std::fs::read_to_string(rules_path) {
        Ok(t) => t,
        Err(e) => return fail_io(&format!("reading {rules_path}: {e}")),
    };
    let transformer = match xsq::transform::Transformer::compile(&rules_text) {
        Ok(t) => t,
        Err(e) => return fail_query(&format!("{rules_path}:{e}")),
    };
    for w in &transformer.warnings {
        eprintln!("warning: {rules_path}: {w}");
    }
    let rules = match xsq::xpath::RuleSet::parse(&rules_text) {
        Ok(r) => r,
        Err(e) => return fail_query(&format!("{rules_path}:{e}")),
    };
    let engine = opts.engine.as_str();
    // `xsq transform` ignores the query-engine default; only these two
    // names are meaningful here.
    let engine = if engine == "xsq-f" { "stream" } else { engine };
    if !matches!(engine, "stream" | "dom") {
        return usage(&format!("transform runs on stream or dom, not '{engine}'"));
    }

    let inputs: Vec<Option<String>> = if files.is_empty() {
        vec![None]
    } else {
        files.iter().cloned().map(Some).collect()
    };
    let stdout = std::io::stdout();
    for file in inputs {
        let t0 = Instant::now();
        let data = match read_input(file.as_deref()) {
            Ok(d) => d,
            Err(e) => return fail_io(&e),
        };
        let label = file.as_deref().unwrap_or("<stdin>");
        let dom_out = if engine == "dom" || opts.verify {
            match xsq::baselines::dom::transform::transform_bytes(&data, &rules) {
                Ok(x) => Some(x),
                Err(e) => return fail_run(&format!("{label}: {e}")),
            }
        } else {
            None
        };
        let written: u64;
        let mut stats_line = String::new();
        if engine == "stream" {
            // Push-mode: output streams out as verdicts are decided, in
            // `--chunk`-byte input pieces regardless of file size.
            let mut session = transformer.session();
            let mut out = stdout.lock();
            let mut stream_xml = String::new();
            let mut emit = |piece: &str, out: &mut std::io::StdoutLock<'_>| -> Result<(), String> {
                if opts.verify {
                    stream_xml.push_str(piece);
                }
                if opts.quiet {
                    return Ok(());
                }
                out.write_all(piece.as_bytes())
                    .map_err(|e| format!("writing output: {e}"))
            };
            // One output buffer for the whole document: after the first
            // few chunks a push allocates nothing.
            let mut piece = String::new();
            for chunk in data.chunks(opts.chunk.max(1)) {
                piece.clear();
                if let Err(e) = session.push_into(chunk, &mut piece) {
                    return fail_run(&format!("{label}: {e}"));
                }
                if let Err(e) = emit(&piece, &mut out) {
                    return fail_io(&e);
                }
            }
            let tail = match session.finish() {
                Ok(t) => t,
                Err(e) => return fail_run(&format!("{label}: {e}")),
            };
            if let Err(e) = emit(&tail.xml, &mut out) {
                return fail_io(&e);
            }
            if !opts.quiet {
                let _ = out.write_all(b"\n");
                let _ = out.flush();
            }
            written = tail.stats.bytes_out;
            stats_line = format!(
                "elements={} matched={} deferred={} peak_buffered={}",
                tail.stats.elements,
                tail.stats.matched,
                tail.stats.deferred,
                tail.stats.peak_buffered
            );
            if opts.verify {
                let dom = dom_out.as_deref().unwrap_or_default();
                if stream_xml != dom {
                    eprintln!(
                        "error: {label}: stream output diverged from the DOM \
                         reference ({} vs {} bytes)",
                        stream_xml.len(),
                        dom.len()
                    );
                    return ExitCode::from(EXIT_VERIFY);
                }
                eprintln!(
                    "# verify: {label}: stream output matches the DOM reference \
                     ({} bytes)",
                    stream_xml.len()
                );
            }
        } else {
            let xml = dom_out.expect("dom engine always materializes");
            written = xml.len() as u64;
            if !opts.quiet {
                let mut out = stdout.lock();
                if out
                    .write_all(xml.as_bytes())
                    .and_then(|_| out.write_all(b"\n"))
                    .is_err()
                {
                    return fail_io("writing output");
                }
                let _ = out.flush();
            }
        }
        if opts.stats {
            eprintln!(
                "# {label}: {} -> {} bytes in {:.1} ms [{} rules] engine={engine}{}{}",
                data.len(),
                written,
                t0.elapsed().as_secs_f64() * 1e3,
                rules.rules.len(),
                if stats_line.is_empty() { "" } else { " " },
                stats_line,
            );
        }
    }
    ExitCode::SUCCESS
}

fn read_input(path: Option<&str>) -> Result<Vec<u8>, String> {
    match path {
        None => {
            let mut buf = Vec::new();
            BufReader::new(std::io::stdin())
                .read_to_end(&mut buf)
                .map_err(|e| format!("reading stdin: {e}"))?;
            Ok(buf)
        }
        Some(p) => std::fs::read(p).map_err(|e| format!("reading {p}: {e}")),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };

    if opts.dataset_stats {
        if opts.positional.is_empty() {
            return usage("--dataset-stats needs at least one file");
        }
        println!(
            "{:<24} {:>9} {:>9} {:>10} {:>12} {:>8}",
            "file", "size(MB)", "text(MB)", "elements", "avg/max dep", "tag len"
        );
        for f in &opts.positional {
            let data = match read_input(Some(f)) {
                Ok(d) => d,
                Err(e) => return fail_io(&e),
            };
            match xsq::xml::dataset_stats(&data) {
                Ok(s) => println!(
                    "{:<24} {:>9.2} {:>9.2} {:>10} {:>7.2}/{:<4} {:>8.2}",
                    f,
                    s.size_bytes as f64 / 1048576.0,
                    s.text_bytes as f64 / 1048576.0,
                    s.elements,
                    s.avg_depth,
                    s.max_depth,
                    s.avg_tag_length
                ),
                Err(e) => return fail_run(&format!("{f}: {e}")),
            }
        }
        return ExitCode::SUCCESS;
    }

    // Subcommands own --queries when present, so route them first.
    match opts.positional.first().map(String::as_str) {
        Some("multi") => return run_multi(&opts),
        Some("serve") => return run_serve(&opts),
        Some("connect") => return run_connect(&opts),
        Some("transform") => return run_transform(&opts),
        _ => {}
    }

    if opts.queries.is_some() {
        return run_query_file(&opts);
    }

    let Some(mut query) = opts.positional.first().cloned() else {
        return usage("missing QUERY");
    };

    // `xsq analyze QUERY` is an alias for `xsq --analyze QUERY`.
    let mut analyze_mode = opts.analyze;
    if query == "analyze" {
        analyze_mode = true;
        match opts.positional.get(1) {
            Some(q) => query = q.clone(),
            None => return usage("analyze needs a QUERY"),
        }
    }
    if analyze_mode {
        return run_analyze(&query, &opts);
    }

    if opts.dump || opts.dot {
        return match XsqEngine::full().compile_str(&query) {
            Ok(c) => {
                if opts.dot {
                    print!("{}", xsq::engine::dot::to_dot(c.hpdt()));
                } else {
                    print!("{}", c.hpdt().dump());
                }
                ExitCode::SUCCESS
            }
            Err(e) => fail_query(&e.to_string()),
        };
    }

    let files: Vec<Option<String>> = if opts.positional.len() > 1 {
        opts.positional[1..].iter().cloned().map(Some).collect()
    } else {
        vec![None]
    };

    for file in files {
        let t0 = Instant::now();
        // The native engines stream directly from the source in constant
        // memory unless a feature needs the whole document (DTD
        // extraction for --schema-optimize) or another engine runs.
        let native = native_engine(&opts.engine);
        if let Some(engine) = native.filter(|_| !opts.schema_optimize && !opts.trace) {
            let compiled = match engine.compile_str(&query) {
                Ok(c) => c,
                Err(e) => return fail_query(&e.to_string()),
            };
            let mut sink = StdoutSink {
                quiet: opts.quiet,
                running: opts.running,
                json: opts.json,
                results: 0,
            };
            let run = match &file {
                None => compiled.run_reader(BufReader::new(std::io::stdin()), &mut sink),
                Some(p) => match std::fs::File::open(p) {
                    Ok(f) => compiled.run_reader(BufReader::new(f), &mut sink),
                    Err(e) => return fail_io(&format!("reading {p}: {e}")),
                },
            };
            match run {
                Err(e) => return fail_run(&e.to_string()),
                Ok(stats) => {
                    if opts.stats {
                        eprintln!(
                            "# {}: {} results in {:.1} ms [{}] engine={} events={} \
                             firings={} steps={} probed={} peak_buffered_bytes={} peak_configs={}",
                            file.as_deref().unwrap_or("<stdin>"),
                            sink.results,
                            t0.elapsed().as_secs_f64() * 1e3,
                            query,
                            opts.engine,
                            stats.events,
                            stats.firings,
                            stats.steps,
                            stats.probed,
                            stats.memory.peak_bytes,
                            stats.memory.peak_configs,
                        );
                    }
                }
            }
            continue;
        }
        let data = match read_input(file.as_deref()) {
            Ok(d) => d,
            Err(e) => return fail_io(&e),
        };
        let outcome: Result<(u64, String), String> = match (native, opts.engine.as_str()) {
            // The native engines stream through a sink (results appear as
            // soon as they are determined).
            (Some(engine), _) => {
                // Schema-aware rewrite (paper §5's future-work item):
                // prove emptiness or remove redundant closures using the
                // document's internal DTD.
                let mut effective = query.clone();
                if opts.schema_optimize {
                    if let Some(dtd) = xsq::xml::dtd::extract_from_document(&data) {
                        if let Ok(parsed) = xsq::xpath::parse_query(&query) {
                            let (optimized, analysis) =
                                xsq::engine::schema::optimize(&parsed, &dtd);
                            if !analysis.satisfiable {
                                eprintln!("# schema: query can never match; skipping stream");
                                continue;
                            }
                            // Earliest-flush: drop existence predicates
                            // the DTD proves always true, so nothing is
                            // buffered waiting on them. Same validity
                            // assumption as the closure rewrite, same
                            // opt-in flag.
                            let (optimized, dropped) =
                                xsq::engine::analyze::elide_always_true(&optimized, &dtd);
                            if !dropped.is_empty() {
                                eprintln!(
                                    "# schema: elided {} always-true predicate(s)",
                                    dropped.len()
                                );
                            }
                            if optimized.to_string() != query {
                                eprintln!("# schema: rewrote to {optimized}");
                                effective = optimized.to_string();
                            }
                        }
                    }
                }
                engine
                    .compile_str(&effective)
                    .map_err(|e| e.to_string())
                    .and_then(|compiled| {
                        let mut sink = StdoutSink {
                            quiet: opts.quiet,
                            running: opts.running,
                            json: opts.json,
                            results: 0,
                        };
                        let run = |sink: &mut StdoutSink| -> Result<_, String> {
                            if opts.trace {
                                // Example 5-style walkthrough on stderr.
                                let mut tracer =
                                    |step: xsq::engine::trace::TraceStep| eprintln!("{step}");
                                let mut parser = xsq::xml::StreamParser::new(&data[..]);
                                let mut runner = compiled.runner();
                                runner.set_tracer(&mut tracer);
                                while let Some(ev) = parser.next_raw().map_err(|e| e.to_string())? {
                                    runner.feed_raw(&ev, sink);
                                }
                                Ok(runner.finish(sink))
                            } else {
                                compiled
                                    .run_document(&data, sink)
                                    .map_err(|e| e.to_string())
                            }
                        };
                        run(&mut sink).map(|stats| {
                            (
                                sink.results,
                                format!(
                                    "events={} peak_buffered_bytes={} peak_configs={}",
                                    stats.events,
                                    stats.memory.peak_bytes,
                                    stats.memory.peak_configs
                                ),
                            )
                        })
                    })
            }
            // The study baselines run whole-document.
            (None, name) => {
                let engine: &dyn XPathEngine = match name {
                    "saxon" => &SaxonLike,
                    "galax" => &GalaxLike,
                    "xmltk" => &XmltkLike,
                    "joost" => &JoostLike,
                    "xqengine" => &XqEngineLike,
                    other => return usage(&format!("unknown engine '{other}'")),
                };
                engine
                    .run(&query, &data)
                    .map_err(|e| e.to_string())
                    .map(|r| {
                        if !opts.quiet {
                            for v in &r.results {
                                println!("{v}");
                            }
                        }
                        (
                            r.results.len() as u64,
                            format!("peak_bytes={}", r.memory.total_peak_bytes()),
                        )
                    })
            }
        };
        match outcome {
            Err(e) => return fail_run(&e),
            Ok((results, mem)) => {
                if opts.stats {
                    eprintln!(
                        "# {}: {} results in {:.1} ms [{}] engine={} {}",
                        file.as_deref().unwrap_or("<stdin>"),
                        results,
                        t0.elapsed().as_secs_f64() * 1e3,
                        query,
                        opts.engine,
                        mem
                    );
                }
            }
        }
    }
    ExitCode::SUCCESS
}

/// Print `error: …` to stderr and exit with the class's code. Every
/// failure path funnels through here — no subcommand panics or
/// unwraps on bad input.
fn fail_with(code: u8, err: &str) -> ExitCode {
    eprintln!("error: {err}");
    ExitCode::from(code)
}

/// Unreadable file, unwritable socket, dead connection.
fn fail_io(err: &str) -> ExitCode {
    fail_with(EXIT_IO, err)
}

/// A query that does not parse or compile.
fn fail_query(err: &str) -> ExitCode {
    fail_with(EXIT_QUERY, err)
}

/// The stream or engine failed during evaluation.
fn fail_run(err: &str) -> ExitCode {
    fail_with(EXIT_RUN, err)
}

/// The server (or a peer) broke the wire protocol.
fn fail_protocol(err: &str) -> ExitCode {
    fail_with(EXIT_PROTOCOL, err)
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: xsq [--engine NAME] [--stats] [--running] [--quiet] QUERY [FILE...]\n\
         \u{20}      xsq --queries QFILE [FILE...]   (one query per line, '#' comments)\n\
         \u{20}      xsq multi [--shard N] (QUERY | --queries QFILE) FILE...\n\
         \u{20}          corpus evaluation on an N-worker pool (0 = one per CPU);\n\
         \u{20}          output merged in document order, doc<TAB>query<TAB>value\n\
         \u{20}      xsq --dataset-stats FILE...\n\
         \u{20}      xsq --dump QUERY\n\
         \u{20}      xsq --queries QFILE (--dump | --dot)   every group's merged HPDT\n\
         \u{20}      xsq analyze [--json] [--dot] [--dtd FILE] QUERY\n\
         \u{20}          static analysis: verifier diagnostics, dead-state pruning,\n\
         \u{20}          buffer classes, engine auto-selection, and (with --dtd) the\n\
         \u{20}          static memory bound + derivation; exits nonzero on errors\n\
         \u{20}      xsq serve [--addr A] [--loop-threads N] [--idle-timeout S] \\\n\
         \u{20}                [--dtd FILE] [--max-bound K] [--broadcast] \\\n\
         \u{20}                [--broadcast-queue N] [--broadcast-policy block|drop]\n\
         \u{20}          streaming query server; prints the bound address, runs\n\
         \u{20}          until stdin reaches EOF, then drains and exits;\n\
         \u{20}          --max-bound K rejects subscriptions whose static memory\n\
         \u{20}          bound (proven against --dtd) exceeds K buffered items;\n\
         \u{20}          --broadcast: one feeder fans one stream through a shared\n\
         \u{20}          index to every subscriber (bounded per-subscriber queues)\n\
         \u{20}      xsq connect [--addr A] [--chunk N] [--verify] \\\n\
         \u{20}                  (QUERY | --queries QFILE) [FILE...]\n\
         \u{20}          replay a corpus against a server; --verify byte-compares\n\
         \u{20}          the replies with the in-process sequential driver\n\
         \u{20}      xsq connect --broadcast-feed [--wait-subs N] FILE...\n\
         \u{20}          claim the broadcast feeder role and push the corpus\n\
         \u{20}      xsq connect --broadcast-sub --expect-docs N [--verify] \\\n\
         \u{20}                  (QUERY | --queries QFILE) [FILE...]\n\
         \u{20}          subscribe to a broadcast stream and render N documents;\n\
         \u{20}          --verify compares against the driver over FILE...\n\
         \u{20}      xsq transform [--engine stream|dom] [--chunk N] [--verify] \\\n\
         \u{20}                    RULES.xfm [FILE...]\n\
         \u{20}          rewrite documents under .xfm template rules; --verify\n\
         \u{20}          byte-compares the streaming engine with the DOM reference\n\
         engines: xsq-f (default), xsq-nc, saxon, galax, xmltk, joost, xqengine\n\
         exit codes: 0 ok, 1 analysis errors, 2 usage, 3 io, 4 query,\n\
         \u{20}           5 runtime, 6 protocol, 7 verify mismatch"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_USAGE)
    }
}
