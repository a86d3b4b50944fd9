//! `xsq`: streaming XPath over XML files or stdin, the command-line
//! face of the engine. `xsq --help` lists every mode, flag and exit code.

use std::fmt;
use std::io::{BufRead, BufReader, Read, StdoutLock, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use xsq::engine::analyze::Diagnostic;
use xsq::engine::trace::TraceStep;
use xsq::engine::{
    query_lines, run_sharded_with, CompiledQuery, DocOutput, EngineError, QueryId, QuerySet,
    QuerySink, RunStats, Sink, XsqEngine,
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
    /// Idle timeout for `serve`.
    idle_timeout: Duration,
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
    dtd: Option<String>,
    /// `serve`: per-subscription static-bound budget (buffered items).
    max_bound: Option<u64>,
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
        idle_timeout: Duration::from_secs(30),
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
        dtd: None,
        max_bound: None,
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
                // Not finite, not positive or past `Duration`'s range:
                // all one usage error.
                let what = "--idle-timeout needs a positive number of seconds";
                let v = args.next().ok_or(what)?;
                o.idle_timeout = (v.parse::<f64>().ok())
                    .filter(|secs| *secs > 0.0)
                    .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
                    .ok_or_else(|| format!("{what}, not '{v}'"))?;
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
            "--dtd" => {
                o.dtd = Some(args.next().ok_or("--dtd needs a file")?);
            }
            "--max-bound" => o.max_bound = Some(number(&mut args, "--max-bound", "an item count")?),
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

/// Stdout: every byte the binary prints goes through here, `write!` and
/// `writeln!` included. Std's stdout is line-buffered, so each result
/// leaves the moment its line is complete. The first failed write (a
/// reader that hung up) ends the process with exit 3 and its error on
/// stderr: nothing panics, and a run over an endless feed stops instead
/// of discarding what it finds.
struct Out {
    stdout: StdoutLock<'static>,
}

impl Out {
    fn new() -> Out {
        Out {
            stdout: std::io::stdout().lock(),
        }
    }

    fn with(&mut self, write: impl FnOnce(&mut StdoutLock<'static>) -> std::io::Result<()>) {
        if let Err(e) = write(&mut self.stdout) {
            fail_io(&format!("writing to stdout: {e}"));
            std::process::exit(EXIT_IO.into());
        }
    }

    fn write_fmt(&mut self, args: fmt::Arguments<'_>) {
        self.with(|w| w.write_fmt(args));
    }

    fn write_all(&mut self, bytes: &[u8]) {
        self.with(|w| w.write_all(bytes));
    }
}

/// The one result printer: results and running aggregate updates as
/// text or JSON lines, untagged (one query), tagged with the query
/// (`--queries`), or with the document and the query (`multi`, whose
/// text is the wire clients' [`xsq::server::render_doc`]).
struct Printer<'o> {
    out: &'o mut Out,
    quiet: bool,
    running: bool,
    json: bool,
    results: u64,
}

/// The tag fields in front of a JSON result: `"doc":D,"query":Q,`.
struct JsonTag(Option<usize>, Option<QueryId>);

impl fmt::Display for JsonTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(d) = self.0 {
            write!(f, "\"doc\":{d},")?;
        }
        if let Some(q) = self.1 {
            write!(f, "\"query\":{},", q.0)?;
        }
        Ok(())
    }
}

impl<'o> Printer<'o> {
    fn new(out: &'o mut Out, opts: &Options) -> Self {
        Printer {
            out,
            quiet: opts.quiet,
            running: opts.running,
            json: opts.json,
            results: 0,
        }
    }

    fn print_result(&mut self, doc: Option<usize>, query: Option<QueryId>, value: &str) {
        self.results += 1;
        if self.quiet {
            return;
        }
        match (self.json, query) {
            (true, _) => {
                let tag = JsonTag(doc, query);
                writeln!(self.out, "{{{tag}\"result\":\"{}\"}}", json_escape(value))
            }
            (false, Some(q)) => writeln!(self.out, "{}\t{value}", q.0),
            (false, None) => writeln!(self.out, "{value}"),
        }
    }

    fn print_update(&mut self, doc: Option<usize>, query: Option<QueryId>, value: f64) {
        if !self.running || self.quiet {
            return;
        }
        match (self.json, query) {
            (true, _) => writeln!(self.out, "{{{}\"running\":{value}}}", JsonTag(doc, query)),
            (false, Some(q)) => writeln!(self.out, "# running[{}]: {value}", q.0),
            (false, None) => writeln!(self.out, "# running: {value}"),
        }
    }

    /// One document of `multi`: its updates (when asked for), then its
    /// results.
    fn print_doc(&mut self, di: usize, doc: &DocOutput) {
        if self.json || self.quiet {
            for (id, v) in &doc.updates {
                self.print_update(Some(di), Some(*id), *v);
            }
            for (id, v) in &doc.results {
                self.print_result(Some(di), Some(*id), v);
            }
        } else {
            self.results += doc.results.len() as u64;
            let running = self.running;
            self.out
                .with(|w| xsq::server::render_doc(w, di, &doc.results, &doc.updates, running));
        }
    }
}

impl Sink for Printer<'_> {
    fn result(&mut self, value: &str) {
        self.print_result(None, None, value);
    }
    fn aggregate_update(&mut self, value: f64) {
        self.print_update(None, None, value);
    }
}

impl QuerySink for Printer<'_> {
    fn result(&mut self, id: QueryId, value: &str) {
        self.print_result(None, Some(id), value);
    }
    fn aggregate_update(&mut self, id: QueryId, value: f64) {
        self.print_update(None, Some(id), value);
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
    files.iter().map(|f| read_input(Some(f))).collect()
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
fn run_query_file(opts: &Options, out: &mut Out) -> Result<(), ExitCode> {
    let (engine, text, files) = batch_inputs(opts, &opts.positional, "--queries")?;
    let set = compile_set(engine, &query_lines(&text))?;
    if opts.dump || opts.dot {
        for (g, hpdt) in set.hpdts().enumerate() {
            if opts.dot {
                let title = format!("group {g}: HPDT for {} queries", hpdt.merged.len());
                let name = format!("group{g}");
                write!(
                    out,
                    "{}",
                    xsq::engine::dot::to_dot_named(hpdt, &name, &title)
                );
            } else {
                write!(out, "{}", hpdt.dump());
            }
        }
        return Ok(());
    }

    for file in inputs(files) {
        let t0 = Instant::now();
        let mut index = set.index();
        let mut printer = Printer::new(out, opts);
        let stats = index
            .run_reader(open_input(file)?, &mut printer)
            .map_err(|e| fail_run(&e.to_string()))?;
        if opts.stats {
            let (buckets, entries, longest_bucket) = index.dispatch_shape();
            eprintln!(
                "# {}: {} results in {:.1} ms [{} queries, {} groups] engine={} \
                 events={} firings={} steps={} probed={} touches={} (loop path: {}) \
                 buckets={buckets} entries={entries} longest_bucket={longest_bucket}",
                file.unwrap_or("<stdin>"),
                printer.results,
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
    Ok(())
}

/// `xsq multi [--shard N] (QUERY | --queries QFILE) FILE...`: evaluate
/// the query (or query set) over a corpus of documents on a worker pool,
/// results merged back in global document order. Each output line is
/// tagged with the document index and the query index. `--shard 0` (the
/// default) sizes the pool to the machine; `--shard 1` is the sequential
/// driver with identical output.
fn run_multi(opts: &Options, out: &mut Out) -> Result<(), ExitCode> {
    let (engine, text, files) = batch_inputs(opts, &opts.positional[1..], "multi")?;
    if files.is_empty() {
        return Err(usage("multi needs at least one FILE"));
    }
    let set = compile_set(engine, &query_lines(&text))?;
    let docs = read_docs(files)?;

    let t0 = Instant::now();
    let mut events = 0u64;
    let mut printer = Printer::new(out, opts);
    let workers = run_sharded_with(&set, &docs, opts.shard, |di, doc| {
        events += doc.events;
        printer.print_doc(di, &doc);
    })
    .map_err(|e| fail_run(&e.to_string()))?;
    if opts.stats {
        let secs = t0.elapsed().as_secs_f64();
        let corpus_bytes: usize = docs.iter().map(Vec::len).sum();
        eprintln!(
            "# multi: {} docs, {} results in {:.1} ms [{} queries, {} groups] \
             engine={} workers={} events={} ingest={:.1} MB/s \
             events/s={:.0} kernel={}",
            docs.len(),
            printer.results,
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
    Ok(())
}

/// Render a [`BoundAnalysis`] as the `"bound"` JSON object of
/// `xsq analyze --json` — kind, count, display form, and the full
/// derivation trace (rule names are stable identifiers).
///
/// [`BoundAnalysis`]: xsq::engine::BoundAnalysis
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

/// `xsq analyze`'s diagnostics as the members of a JSON array. The
/// anchors a diagnostic lacks are left out, so lints (which anchor to a
/// step, never to a state or a BPDT) carry `step` alone.
fn diagnostics_json(diags: &[Diagnostic]) -> String {
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
    rendered.join(",")
}

/// The text report's `diagnostics:` section.
fn print_diagnostics(out: &mut Out, diags: &[Diagnostic]) {
    if diags.is_empty() {
        writeln!(out, "diagnostics:   none");
    } else {
        writeln!(out, "diagnostics:");
        for d in diags {
            writeln!(out, "  {d}");
        }
    }
}

/// `xsq analyze QUERY`: run the full static-analysis pipeline (build,
/// verify, lint, buffer classification, determinism proof) and report it.
/// Exit status is nonzero iff any diagnostic is an error — the smoke-test
/// contract CI relies on.
fn run_analyze(query: &str, opts: &Options, out: &mut Out) -> Result<(), ExitCode> {
    let parsed = xsq::xpath::parse_query(query).map_err(|e| fail_query(&e.to_string()))?;
    // Queries outside the HPDT surface (reverse axes, positional
    // predicates) can't build a transducer; report the streamability
    // diagnostics instead of a bare compile error — spanned, never a
    // panic. Errors exit 1 like any other analysis failure;
    // transform-only findings alone exit 0 (the query is fine for
    // `xsq transform`, just not for selection).
    let diagnostics = if xsq::xpath::streamability(&parsed).hpdt_supported() {
        analyze_hpdt(query, &parsed, opts, out)?
    } else {
        let mut diags = xsq::engine::analyze::lint_streamability(&parsed);
        diags.extend(xsq::engine::analyze::lint_query(&parsed));
        if opts.json {
            writeln!(
                out,
                "{{\"query\":\"{}\",\"engine\":null,\"diagnostics\":[{}]}}",
                json_escape(query),
                diagnostics_json(&diags),
            );
        } else {
            writeln!(out, "query:         {query}");
            writeln!(out, "engine:        none (outside the HPDT surface)");
            print_diagnostics(out, &diags);
        }
        diags
    };
    if xsq::engine::analyze::has_errors(&diagnostics) {
        Err(ExitCode::FAILURE)
    } else {
        Ok(())
    }
}

/// [`run_analyze`] for a query inside the HPDT surface: print the
/// report, return its diagnostics.
fn analyze_hpdt(
    query: &str,
    parsed: &xsq::xpath::Query,
    opts: &Options,
    out: &mut Out,
) -> Result<Vec<Diagnostic>, ExitCode> {
    let dtd = load_dtd(opts.dtd.as_ref())?;
    let analysis = xsq::engine::analyze_with_dtd(parsed, dtd.as_ref())
        .map_err(|e| fail_query(&e.to_string()))?;
    if opts.dot {
        // The transducer the engine runs; the diagnostics still go to
        // stderr so pipelines stay clean.
        write!(out, "{}", xsq::engine::dot::to_dot(&analysis.hpdt));
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
        writeln!(
            out,
            "{{\"query\":\"{}\",\"engine\":\"{}\",\"deterministic\":{},\
             \"states\":{},\"arcs\":{},\
             \"buffered\":{},\"live_buffers\":{},\
             \"buffers\":[{}],\"bound\":{},\"diagnostics\":[{}]}}",
            json_escape(query),
            analysis.engine,
            analysis.hpdt.deterministic,
            analysis.hpdt.states.len(),
            analysis.hpdt.arc_count(),
            analysis.plan.buffered,
            analysis.plan.live_buffers(),
            buffers.join(","),
            bound_json(&analysis.bound),
            diagnostics_json(&analysis.diagnostics),
        );
    } else {
        writeln!(out, "query:         {query}");
        writeln!(out, "engine:        {}", analysis.engine);
        writeln!(
            out,
            "deterministic: {}",
            if analysis.hpdt.deterministic {
                "proven (first-match execution is exact)"
            } else {
                "not proven (closure arcs present; scan-all execution)"
            }
        );
        writeln!(out, "states:        {}", analysis.hpdt.states.len());
        writeln!(out, "arcs:          {}", analysis.hpdt.arc_count());
        if analysis.plan.buffered {
            writeln!(
                out,
                "buffers:       {} live of {}",
                analysis.plan.live_buffers(),
                analysis.plan.buffers.len()
            );
        } else {
            writeln!(out, "buffers:       none (buffering statically elided)");
        }
        for b in &analysis.plan.buffers {
            writeln!(out, "  {}: {}", b.bpdt, b.class.label());
        }
        writeln!(out, "memory bound:  {}", analysis.bound.bound);
        if !analysis.bound.trace.is_empty() {
            writeln!(out, "derivation:");
            for s in &analysis.bound.trace {
                writeln!(out, "  [{}] {}", s.rule, s.detail);
            }
        }
        print_diagnostics(out, &analysis.diagnostics);
    }
    Ok(analysis.diagnostics)
}

/// `xsq serve [--addr A] [--engine E] [--idle-timeout S]`:
/// run the streaming query server until stdin reaches EOF, then drain
/// in-flight sessions and exit. The stdin gate is the clean-shutdown
/// hook: interactively Ctrl-D stops the server; in scripts, holding a
/// pipe open keeps it serving and closing the pipe shuts it down.
fn run_serve(opts: &Options, out: &mut Out) -> Result<(), ExitCode> {
    let Some(engine) = native_engine(&opts.engine) else {
        return Err(usage(&format!(
            "serve runs on xsq-f or xsq-nc, not '{}'",
            opts.engine
        )));
    };
    let mut sopts = xsq::server::ServeOptions::new(opts.addr.clone());
    sopts.engine = engine;
    sopts.idle_timeout = opts.idle_timeout.max(Duration::from_millis(100));
    // Admission control: `--max-bound K` refuses subscriptions whose
    // static memory bound exceeds K buffered items; `--dtd FILE` gives
    // the analyzer the schema to prove bounds against.
    sopts.limits = xsq::server::SessionLimits {
        max_bound: opts.max_bound,
        dtd: load_dtd(opts.dtd.as_ref())?.map(std::sync::Arc::new),
    };
    if opts.broadcast {
        let policy = match opts.broadcast_policy.as_str() {
            "block" => xsq::server::BroadcastPolicy::Block,
            "drop" => xsq::server::BroadcastPolicy::Drop,
            other => {
                return Err(usage(&format!(
                    "--broadcast-policy is block or drop, not '{other}'"
                )))
            }
        };
        sopts.broadcast = Some(xsq::server::BroadcastOptions {
            queue: opts.broadcast_queue,
            policy,
        });
    }
    let model_label = if opts.broadcast {
        "broadcast"
    } else {
        "eventloop"
    };
    let handle = xsq::server::serve(sopts)
        .map_err(|e| fail_io(&format!("serving on {}: {e}", opts.addr)))?;
    // The bound address goes to stdout (machine-readable: with port 0
    // a script learns the real port here), status to stderr.
    writeln!(out, "{}", handle.addr());
    eprintln!(
        "# xsq serve: listening on {} (model={model_label}, \
         poller={}, engine={}, idle={}s, scan-kernel={}, max-bound={}); EOF on stdin \
         shuts down; STAT replies carry ingest MB/s and events/s",
        handle.addr(),
        handle.backend(),
        opts.engine,
        opts.idle_timeout.as_secs_f64(),
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
    Ok(())
}

/// `xsq connect [--addr A] [--chunk N] [--verify] (QUERY | --queries
/// QFILE) [FILE...]`: subscribe the query set, replay the corpus as
/// FEED chunks, and print replies exactly like `xsq multi --shard 1`.
/// With `--verify`, the output is additionally byte-compared against
/// the in-process sequential driver.
fn run_connect(opts: &Options, out: &mut Out) -> Result<(), ExitCode> {
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
    let (engine, text, files) = batch_inputs(opts, &opts.positional[1..], what)?;
    let queries = query_lines(&text);
    if opts.broadcast_sub {
        return run_broadcast_sub(engine, &queries, files, opts, out);
    }
    let docs = match files {
        [] => vec![read_input(None)?],
        files => read_docs(files)?,
    };

    let copts = xsq::server::ConnectOptions {
        chunk: opts.chunk,
        running: opts.running,
        want_stats: opts.stats,
    };
    let t0 = Instant::now();
    let mut transcript = Vec::new();
    let report = xsq::server::run_corpus(&opts.addr, &queries, &docs, &copts, &mut transcript)
        .map_err(|e| fail_client(&opts.addr, e))?;
    if !opts.quiet {
        out.write_all(&transcript);
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
        return verify_against_driver("server", engine, &queries, &docs, &transcript, opts);
    }
    Ok(())
}

/// A failed conversation: a dead socket is an I/O failure, anything
/// else the peer's (or the protocol's) fault.
fn fail_client(addr: &str, e: xsq::server::ClientError) -> ExitCode {
    match e {
        xsq::server::ClientError::Io(e) => fail_io(&format!("talking to {addr}: {e}")),
        e => fail_protocol(&e.to_string()),
    }
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
    transcript: &[u8],
    opts: &Options,
) -> Result<(), ExitCode> {
    let expected = xsq::server::reference_output(engine, queries, docs, opts.running)
        .map_err(|e| fail_run(&format!("reference run: {e}")))?;
    if transcript != expected.as_bytes() {
        eprintln!(
            "error: {what} output diverged from the sequential driver \
             ({} vs {} bytes)",
            transcript.len(),
            expected.len()
        );
        return Err(ExitCode::from(EXIT_VERIFY));
    }
    eprintln!(
        "# verify: {what} output matches the sequential driver ({} bytes)",
        transcript.len()
    );
    Ok(())
}

/// `xsq connect --broadcast-feed [--wait-subs N] FILE...`: claim the
/// feeder role on a broadcast server and push the corpus through the
/// shared index. With `--wait-subs N` the feed starts only once N
/// subscribers are attached (STAT polling), so scripted fan-outs are
/// deterministic.
fn run_broadcast_feed(opts: &Options) -> Result<(), ExitCode> {
    let files = &opts.positional[1..];
    if files.is_empty() {
        return Err(usage("connect --broadcast-feed needs at least one FILE"));
    }
    let docs = read_docs(files)?;
    let fopts = xsq::server::FeedOptions {
        chunk: opts.chunk,
        wait_subs: opts.wait_subs,
        want_stats: opts.stats,
    };
    let t0 = Instant::now();
    let report = xsq::server::broadcast_feed(&opts.addr, &docs, &fopts)
        .map_err(|e| fail_client(&opts.addr, e))?;
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
    Ok(())
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
    out: &mut Out,
) -> Result<(), ExitCode> {
    let t0 = Instant::now();
    let mut transcript = Vec::new();
    let report = xsq::server::broadcast_subscribe(
        &opts.addr,
        queries,
        opts.expect_docs,
        opts.running,
        &mut transcript,
    )
    .map_err(|e| fail_client(&opts.addr, e))?;
    if !opts.quiet {
        out.write_all(&transcript);
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
            return Err(usage(
                "--verify on --broadcast-sub needs the corpus FILEs to compare against",
            ));
        }
        let docs = read_docs(files)?;
        return verify_against_driver("broadcast", engine, queries, &docs, &transcript, opts);
    }
    Ok(())
}

/// `xsq transform [--engine stream|dom] [--chunk N] [--verify] [--stats]
/// RULES.xfm [FILE...]`: rewrite documents under a `.xfm` template rule
/// file. The default engine is the one-pass streaming transducer, pushed
/// in `--chunk`-byte pieces with output written as soon as each region's
/// verdict is known; `--engine dom` runs the two-pass DOM reference
/// instead; `--verify` runs both and byte-compares them (exit 7 on
/// mismatch). Rule compile errors carry line:col spans and exit 4.
fn run_transform(opts: &Options, out: &mut Out) -> Result<(), ExitCode> {
    let rest = &opts.positional[1..];
    let Some((rules_path, files)) = rest.split_first() else {
        return Err(usage("transform needs a RULES.xfm file"));
    };
    let rules_text = std::fs::read_to_string(rules_path)
        .map_err(|e| fail_io(&format!("reading {rules_path}: {e}")))?;
    let transformer = xsq::transform::Transformer::compile(&rules_text)
        .map_err(|e| fail_query(&format!("{rules_path}:{e}")))?;
    for w in &transformer.warnings {
        eprintln!("warning: {rules_path}: {w}");
    }
    let rules = xsq::xpath::RuleSet::parse(&rules_text)
        .map_err(|e| fail_query(&format!("{rules_path}:{e}")))?;
    let engine = opts.engine.as_str();
    // `xsq transform` ignores the query-engine default; only these two
    // names are meaningful here.
    let engine = if engine == "xsq-f" { "stream" } else { engine };
    if !matches!(engine, "stream" | "dom") {
        return Err(usage(&format!(
            "transform runs on stream or dom, not '{engine}'"
        )));
    }

    for file in inputs(files) {
        let t0 = Instant::now();
        let data = read_input(file)?;
        let label = file.unwrap_or("<stdin>");
        let dom_out = if engine == "dom" || opts.verify {
            let xml = xsq::baselines::dom::transform::transform_bytes(&data, &rules)
                .map_err(|e| fail_run(&format!("{label}: {e}")))?;
            Some(xml)
        } else {
            None
        };
        let written: u64;
        let mut stats_line = String::new();
        if engine == "stream" {
            // Push-mode: output streams out as verdicts are decided, in
            // `--chunk`-byte input pieces regardless of file size.
            let mut session = transformer.session();
            let mut stream_xml = String::new();
            let mut emit = |piece: &str| {
                if opts.verify {
                    stream_xml.push_str(piece);
                }
                if !opts.quiet {
                    out.write_all(piece.as_bytes());
                }
            };
            // One output buffer for the whole document: after the first
            // few chunks a push allocates nothing.
            let mut piece = String::new();
            for chunk in data.chunks(opts.chunk.max(1)) {
                piece.clear();
                session
                    .push_into(chunk, &mut piece)
                    .map_err(|e| fail_run(&format!("{label}: {e}")))?;
                emit(&piece);
            }
            let tail = session
                .finish()
                .map_err(|e| fail_run(&format!("{label}: {e}")))?;
            emit(&tail.xml);
            if !opts.quiet {
                out.write_all(b"\n");
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
                    return Err(ExitCode::from(EXIT_VERIFY));
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
                out.write_all(xml.as_bytes());
                out.write_all(b"\n");
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
    Ok(())
}

/// The inputs FILE arguments name: each file, or stdin (`None`) when
/// there is none.
fn inputs(files: &[String]) -> Vec<Option<&str>> {
    if files.is_empty() {
        vec![None]
    } else {
        files.iter().map(|f| Some(f.as_str())).collect()
    }
}

/// Input `path` (stdin when `None`), opened for streaming.
fn open_input(path: Option<&str>) -> Result<Box<dyn BufRead>, ExitCode> {
    match path {
        None => Ok(Box::new(BufReader::new(std::io::stdin()))),
        Some(p) => match std::fs::File::open(p) {
            Ok(f) => Ok(Box::new(BufReader::new(f))),
            Err(e) => Err(fail_io(&format!("reading {p}: {e}"))),
        },
    }
}

/// All of input `path` (stdin when `None`).
fn read_input(path: Option<&str>) -> Result<Vec<u8>, ExitCode> {
    let mut buf = Vec::new();
    match open_input(path)?.read_to_end(&mut buf) {
        Ok(_) => Ok(buf),
        Err(e) => Err(fail_io(&format!(
            "reading {}: {e}",
            path.unwrap_or("stdin")
        ))),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let mut out = Out::new();
    let code = run(&opts, &mut out).err().unwrap_or(ExitCode::SUCCESS);
    out.with(|w| w.flush());
    code
}

/// Route to the mode `opts` asks for. `Err` carries the exit code of a
/// failure whose message is already on stderr.
fn run(opts: &Options, out: &mut Out) -> Result<(), ExitCode> {
    if opts.dataset_stats {
        return run_dataset_stats(opts, out);
    }
    // Subcommands own --queries when present, so route them first.
    match opts.positional.first().map(String::as_str) {
        Some("multi") => run_multi(opts, out),
        Some("serve") => run_serve(opts, out),
        Some("connect") => run_connect(opts, out),
        Some("transform") => run_transform(opts, out),
        _ if opts.queries.is_some() => run_query_file(opts, out),
        Some("analyze") => match opts.positional.get(1) {
            Some(query) => run_analyze(query, opts, out),
            None => Err(usage("analyze needs a QUERY")),
        },
        Some(query) if opts.dump || opts.dot => run_dump(query, opts, out),
        Some(query) => run_solo(query, &opts.positional[1..], opts, out),
        None => Err(usage("missing QUERY")),
    }
}

/// `xsq --dataset-stats FILE...`: one Fig. 15-style row per file.
fn run_dataset_stats(opts: &Options, out: &mut Out) -> Result<(), ExitCode> {
    if opts.positional.is_empty() {
        return Err(usage("--dataset-stats needs at least one file"));
    }
    writeln!(
        out,
        "{:<24} {:>9} {:>9} {:>10} {:>12} {:>8}",
        "file", "size(MB)", "text(MB)", "elements", "avg/max dep", "tag len"
    );
    for f in &opts.positional {
        let s = xsq::xml::dataset_stats(&read_input(Some(f))?)
            .map_err(|e| fail_run(&format!("{f}: {e}")))?;
        writeln!(
            out,
            "{:<24} {:>9.2} {:>9.2} {:>10} {:>7.2}/{:<4} {:>8.2}",
            f,
            s.size_bytes as f64 / 1048576.0,
            s.text_bytes as f64 / 1048576.0,
            s.elements,
            s.avg_depth,
            s.max_depth,
            s.avg_tag_length
        );
    }
    Ok(())
}

/// Schema-aware rewrite (paper §5's future-work item) for
/// `--schema-optimize`: prove emptiness or remove redundant closures using
/// the document's internal DTD. `None` when the query can never match;
/// the query as given when there is no DTD to use.
fn schema_rewrite(query: &str, data: &[u8]) -> Option<String> {
    let (Some(dtd), Ok(parsed)) = (
        xsq::xml::dtd::extract_from_document(data),
        xsq::xpath::parse_query(query),
    ) else {
        return Some(query.to_string());
    };
    let (optimized, analysis) = xsq::engine::schema::optimize(&parsed, &dtd);
    if !analysis.satisfiable {
        return None;
    }
    // Earliest-flush: drop existence predicates the DTD proves always
    // true, so nothing is buffered waiting on them. Same validity
    // assumption as the closure rewrite, same opt-in flag.
    let (optimized, dropped) = xsq::engine::analyze::elide_always_true(&optimized, &dtd);
    if !dropped.is_empty() {
        eprintln!(
            "# schema: elided {} always-true predicate(s)",
            dropped.len()
        );
    }
    let optimized = optimized.to_string();
    if optimized != query {
        eprintln!("# schema: rewrote to {optimized}");
    }
    Some(optimized)
}

/// `xsq QUERY [FILE...]`: one query over each input in turn. `--engine`
/// names a row of the study's engine table; the native engines stream
/// from the source in constant memory, the baselines run whole-document.
fn run_solo(query: &str, files: &[String], opts: &Options, out: &mut Out) -> Result<(), ExitCode> {
    let Some(table_engine) = xsq::baselines::all_engines()
        .into_iter()
        .find(|e| e.name().to_lowercase() == opts.engine)
    else {
        return Err(usage(&format!("unknown engine '{}'", opts.engine)));
    };
    for file in inputs(files) {
        let t0 = Instant::now();
        let label = file.unwrap_or("<stdin>");
        let Some(engine) = native_engine(&opts.engine) else {
            let report = table_engine
                .run(query, &read_input(file)?)
                .map_err(|e| fail_run(&e.to_string()))?;
            if !opts.quiet {
                for v in &report.results {
                    writeln!(out, "{v}");
                }
            }
            if opts.stats {
                eprintln!(
                    "# {label}: {} results in {:.1} ms [{query}] engine={} peak_bytes={}",
                    report.results.len(),
                    t0.elapsed().as_secs_f64() * 1e3,
                    opts.engine,
                    report.memory.total_peak_bytes()
                );
            }
            continue;
        };
        // Only --schema-optimize reads the whole document first: the DTD
        // it rewrites the query with is inside it.
        let (effective, data) = if opts.schema_optimize {
            let data = read_input(file)?;
            let Some(effective) = schema_rewrite(query, &data) else {
                eprintln!("# schema: query can never match; skipping stream");
                continue;
            };
            (effective, Some(data))
        } else {
            (query.to_string(), None)
        };
        let compiled = engine
            .compile_str(&effective)
            .map_err(|e| fail_query(&e.to_string()))?;
        let reader: Box<dyn BufRead> = match data {
            Some(data) => Box::new(std::io::Cursor::new(data)),
            None => open_input(file)?,
        };
        let mut printer = Printer::new(out, opts);
        let stats = stream(&compiled, reader, opts.trace, &mut printer)
            .map_err(|e| fail_run(&e.to_string()))?;
        if opts.stats {
            eprintln!(
                "# {label}: {} results in {:.1} ms [{query}] engine={} events={} \
                 firings={} steps={} probed={} peak_buffered_bytes={} peak_configs={}",
                printer.results,
                t0.elapsed().as_secs_f64() * 1e3,
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
    Ok(())
}

/// Stream `reader` through one native run, printing the Example 5-style
/// walkthrough to stderr under `--trace`.
fn stream(
    compiled: &CompiledQuery,
    reader: impl BufRead,
    trace: bool,
    sink: &mut dyn Sink,
) -> Result<RunStats, EngineError> {
    let mut tracer = |step: TraceStep| eprintln!("{step}");
    let mut parser = xsq::xml::StreamParser::new(reader);
    let mut runner = compiled.runner();
    if trace {
        runner.set_tracer(&mut tracer);
    }
    while let Some(ev) = parser.next_raw()? {
        runner.feed_raw(&ev, sink);
    }
    Ok(runner.finish(sink))
}

/// `xsq (--dump | --dot) QUERY`: print the compiled HPDT.
fn run_dump(query: &str, opts: &Options, out: &mut Out) -> Result<(), ExitCode> {
    let compiled = XsqEngine::full()
        .compile_str(query)
        .map_err(|e| fail_query(&e.to_string()))?;
    if opts.dot {
        write!(out, "{}", xsq::engine::dot::to_dot(compiled.hpdt()));
    } else {
        write!(out, "{}", compiled.hpdt().dump());
    }
    Ok(())
}

/// Print `error: …` to stderr and exit with the class's code. Every
/// failure path funnels through here — no subcommand panics or
/// unwraps on bad input.
fn fail_with(code: u8, err: &str) -> ExitCode {
    eprintln!("error: {err}");
    ExitCode::from(code)
}

/// Unreadable file, unwritable socket or stdout, dead connection.
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
    let engines: Vec<String> = xsq::baselines::all_engines()
        .iter()
        .map(|e| e.name().to_lowercase())
        .collect();
    eprintln!(
        "usage: xsq [--engine NAME] [--stats] [--running] [--quiet] [--json] \\\n\
         \u{20}          [--trace] [--schema-optimize] QUERY [FILE...]\n\
         \u{20}          evaluate QUERY over each FILE (stdin if none);\n\
         \u{20}          --stats: events, results, arc firings, steps (a lock-step\n\
         \u{20}          run's firings counted once), runs probed, memory and time\n\
         \u{20}          to stderr; --running: running aggregate updates as they\n\
         \u{20}          occur; --quiet: no result output (timing runs); --json:\n\
         \u{20}          JSON lines; --trace: the Example 5 walkthrough of every\n\
         \u{20}          fired arc to stderr; --schema-optimize: use the document's\n\
         \u{20}          internal DTD to rewrite provably-child closures and skip\n\
         \u{20}          provably empty queries\n\
         \u{20}      xsq --queries QFILE [FILE...]   (one query per line, '#' comments)\n\
         \u{20}          the whole set in one pass, results tagged query<TAB>value\n\
         \u{20}      xsq multi [--shard N] (QUERY | --queries QFILE) FILE...\n\
         \u{20}          corpus evaluation on an N-worker pool (0 = one per CPU);\n\
         \u{20}          output merged in document order, doc<TAB>query<TAB>value\n\
         \u{20}      xsq --dataset-stats FILE...      Fig. 15-style statistics\n\
         \u{20}      xsq (--dump | --dot) QUERY       the compiled HPDT\n\
         \u{20}      xsq --queries QFILE (--dump | --dot)   every group's merged HPDT\n\
         \u{20}      xsq analyze [--json] [--dot] [--dtd FILE] QUERY\n\
         \u{20}          static analysis: verifier diagnostics, automaton size,\n\
         \u{20}          buffer classes, engine auto-selection, and (with --dtd) the\n\
         \u{20}          static memory bound + derivation; exits nonzero on errors\n\
         \u{20}      xsq serve [--addr A] [--idle-timeout S] [--dtd FILE] \\\n\
         \u{20}                [--max-bound K] [--broadcast] \\\n\
         \u{20}                [--broadcast-queue N] [--broadcast-policy block|drop]\n\
         \u{20}          streaming query server on one event-loop thread; prints\n\
         \u{20}          the bound address, runs until stdin reaches EOF, then\n\
         \u{20}          drains and exits; --idle-timeout S (default 30) closes a\n\
         \u{20}          connection that sends no frame for S seconds;\n\
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
         engines: {} (xsq-f is the default)\n\
         exit codes: 0 ok, 1 analysis errors, 2 usage, 3 io, 4 query,\n\
         \u{20}           5 runtime, 6 protocol, 7 verify mismatch",
        engines.join(", ")
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_USAGE)
    }
}
