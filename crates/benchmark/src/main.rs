//! `xsq-benchmark` — see the crate's README.
//!
//! ```text
//! xsq-benchmark --workload NAME --seed N --seconds S --trace 0|1   one pass, one JSON line
//! xsq-benchmark [--seed N] [--seconds S] [--out FILE]               all workloads, both passes
//! xsq-benchmark --smoke [--seed N] [--out FILE]                     the same at 1/64 size
//! xsq-benchmark --aa [--seed N] [--seconds S]                       untraced pass twice, compared
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use xsq_benchmark::alloc::Counting;
use xsq_benchmark::metrics::{END_TO_END, WORKLOADS};
use xsq_benchmark::report::{
    end_to_end_line, per_layer_line, print_tables, report_json, EndToEnd, WorkloadReport,
};
use xsq_benchmark::trace::Tracer;
use xsq_benchmark::workloads::{prepare, Config};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The generator is one thread driving at most two connections.
const GENERATOR_THREADS: usize = 1;
const GENERATOR_CONNECTIONS: usize = 2;

/// Self times must explain the untraced wall-clock this closely.
const UNATTRIBUTED_LIMIT: f64 = 0.10;

/// Seconds per pass when `--seconds` is not given: sized so the whole
/// command ends within three minutes here.
const DEFAULT_SECONDS: f64 = 4.0;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    aa: bool,
    out: Option<PathBuf>,
}

impl Cli {
    fn config(&self) -> Config {
        Config {
            seed: self.seed,
            smoke: self.smoke,
        }
    }

    /// The time budget of one pass; `--smoke` runs one repetition of
    /// everything instead.
    fn seconds(&self) -> f64 {
        if self.smoke {
            0.0
        } else {
            self.seconds.unwrap_or(DEFAULT_SECONDS)
        }
    }
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 2003,
        seconds: None,
        trace: false,
        smoke: false,
        aa: false,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => cli.smoke = true,
            "--aa" => cli.aa = true,
            "--out" => cli.out = Some(PathBuf::from(value("a path")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// Where build products go: the report and trace land beside them.
fn output_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("xsq-benchmark")
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn tool_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string())
}

fn poller() -> String {
    #[cfg(unix)]
    if let Ok(p) = xsq_server::eventloop::poller::Poller::new() {
        return p.backend_name().to_string();
    }
    "threaded".into()
}

/// The JSON header: what the numbers were measured on.
fn header(cli: &Cli) -> String {
    format!(
        "{{\"seed\": {}, \"smoke\": {}, \"nproc\": {}, \"generator_threads\": {GENERATOR_THREADS}, \
         \"generator_connections\": {GENERATOR_CONNECTIONS}, \
         \"server\": \"in-process xsq_server::serve, eventloop model, loopback only\", \
         \"scan_kernel\": \"{}\", \"cpu_features\": \"{}\", \"poller\": \"{}\", \
         \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        cli.seed,
        cli.smoke,
        nproc(),
        xsq_xml::scan::active_kernel().name(),
        xsq_xml::scan::cpu_features(),
        poller(),
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "HEAD"]),
    )
}

/// One workload, one pass, one line: the driver's contract.
fn run_driver(cli: &Cli, name: &str) -> Result<bool, String> {
    let (cfg, seconds) = (cli.config(), cli.seconds());
    let name = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .map(|w| w.name)
        .ok_or(format!("unknown workload {name}"))?;
    let mut workload = prepare(name, cfg)?;
    if !cli.trace {
        let run = workload.untraced(seconds)?;
        let e = EndToEnd::new(&run, workload.gate());
        println!("{}", end_to_end_line(&e));
        return Ok(e.failed == 0);
    }
    let mut tracer = Tracer::new(true);
    tracer.enter(name);
    let mut layers = workload.traced(seconds, &mut tracer)?;
    tracer.leave();
    layers.set("trace.clock_read_ns", tracer.clock_read_ns);
    let path = output_dir().join(format!("trace-{name}.json"));
    tracer
        .write(&path, &header(cli))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", per_layer_line(&layers, workload.gate()));
    Ok(workload.gate().1 == 0)
}

/// Every workload, untraced then traced; prints every metric by name
/// and writes the report and the trace.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let (cfg, seconds) = (cli.config(), cli.seconds());
    let mut tracer = Tracer::new(true);
    let mut reports = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        eprintln!(
            "# {}: preparing inputs, running the correctness gate",
            w.name
        );
        let mut workload = prepare(w.name, cfg)?;
        eprintln!("# {}: untraced pass", w.name);
        let run = workload.untraced(seconds)?;
        eprintln!("# {}: traced pass", w.name);
        tracer.enter(w.name);
        let mut layers = workload.traced(seconds, &mut tracer)?;
        tracer.leave();
        layers.set("trace.clock_read_ns", tracer.clock_read_ns);
        let end_to_end = EndToEnd::new(&run, workload.gate());
        if end_to_end.failed > 0 {
            eprintln!("{}: {} failed operations", w.name, end_to_end.failed);
            ok = false;
        }
        let unattributed = layers.get("trace.unattributed_share");
        if unattributed > UNATTRIBUTED_LIMIT && !cli.smoke {
            eprintln!(
                "{}: self times miss the untraced wall-clock by {:.1} % (limit {:.0} %)",
                w.name,
                unattributed * 100.0,
                UNATTRIBUTED_LIMIT * 100.0
            );
            ok = false;
        }
        reports.push(WorkloadReport {
            name: w.name,
            end_to_end,
            layers,
        });
    }
    print_tables(&reports);
    let head = header(cli);
    let out = cli.out.clone().unwrap_or(output_dir().join("report.json"));
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, report_json(&head, &reports))
        .map_err(|e| format!("{}: {e}", out.display()))?;
    let trace = output_dir().join("trace.json");
    tracer
        .write(&trace, &head)
        .map_err(|e| format!("{}: {e}", trace.display()))?;
    println!("\nwrote {} and {}", out.display(), trace.display());
    Ok(ok)
}

/// A/A: the untraced pass twice on the same build and inputs. Two
/// runs of one program must agree within each metric's own bound, or
/// the bound is too tight for this machine.
fn run_aa(cli: &Cli) -> Result<bool, String> {
    let (cfg, seconds) = (cli.config(), cli.seconds());
    let mut ok = true;
    println!(
        "{:<19} {:<22} {:>14} {:>14} {:>9} {:>7}",
        "workload", "end-to-end metric", "run A", "run B", "diff", "bound"
    );
    for w in &WORKLOADS {
        let mut workload = prepare(w.name, cfg)?;
        let a = EndToEnd::new(&workload.untraced(seconds)?, workload.gate());
        let b = EndToEnd::new(&workload.untraced(seconds)?, workload.gate());
        for (i, def) in END_TO_END.iter().enumerate() {
            let (ma, mb) = (a.values[i], b.values[i]);
            let diff = (ma - mb).abs() / ma;
            let verdict = if diff > def.bound { "  DISAGREE" } else { "" };
            println!(
                "{:<19} {:<22} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}%{verdict}",
                w.name,
                def.name,
                ma,
                mb,
                diff * 100.0,
                def.bound * 100.0
            );
            ok &= diff <= def.bound;
        }
        let exact = (a.peak_buffered_bytes, a.result_hash, a.touches)
            == (b.peak_buffered_bytes, b.result_hash, b.touches);
        if !exact || a.failed + b.failed > 0 {
            println!("{:<19} exact counts differ or operations failed", w.name);
            ok = false;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("xsq-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // A generator wider than the machine measures its own contention.
    if !cli.smoke && GENERATOR_THREADS.max(GENERATOR_CONNECTIONS) > nproc() {
        eprintln!(
            "xsq-benchmark: the generator uses {GENERATOR_THREADS} thread and \
             {GENERATOR_CONNECTIONS} connections but nproc is {}",
            nproc()
        );
        return ExitCode::from(2);
    }
    let outcome = match (&cli.workload, cli.aa) {
        (Some(name), _) => run_driver(&cli, name),
        (None, true) => run_aa(&cli),
        (None, false) => run_all(&cli),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xsq-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
