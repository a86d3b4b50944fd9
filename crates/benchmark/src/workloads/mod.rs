//! The seven workloads and the machinery they share: time-boxed
//! repetitions, fresh set-up sampling, and the traced **ladder**.
//!
//! A ladder runs the identical bytes and chunking through a growing
//! stack of layers — rung *k* is rung *k − 1* plus one layer, entered
//! through that layer's public functions — and charges each layer its
//! rung's wall-clock minus the rung below. That attributes time
//! without a clock read inside loops whose iterations are as short as
//! the read itself (one `next_raw` + `feed_raw` pair on `scan_dblp`
//! is ≈ 80 ns, two clock reads ≈ 58 ns; see the README).

pub mod inproc;
pub mod serve;
pub mod transform;

use std::time::Instant;

use xsq_baselines::dom;

use crate::alloc::{self, Counted};
use crate::metrics::Layers;
use crate::trace::{Tracer, NO_PARENT};

/// What a run is asked to do, beyond which workload.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// `--smoke`: every input at ≈ 1/64 size, one repetition (the
    /// caller passes 0 seconds), three set-ups; reconciliation is
    /// reported but not enforced.
    pub smoke: bool,
}

impl Config {
    /// Scale a full-size byte count to this run.
    pub fn bytes(&self, full: usize) -> usize {
        if self.smoke {
            (full / 64).max(4096)
        } else {
            full
        }
    }

    pub fn min_setups(&self) -> usize {
        if self.smoke {
            3
        } else {
            31
        }
    }
}

/// The untraced pass: samples behind the end-to-end metrics.
#[derive(Debug, Default, Clone)]
pub struct Untraced {
    /// One sample per fresh set-up.
    pub setup_s: Vec<f64>,
    /// One sample per timed repetition.
    pub throughput_mb_s: Vec<f64>,
    /// One sample per operation.
    pub latency_us: Vec<f64>,
    pub ops: u64,
    pub failed: u64,
    /// Exact counts, which must repeat run to run.
    pub peak_buffered_bytes: u64,
    pub result_hash: u64,
    pub touches: u64,
}

impl Untraced {
    /// The pass of a workload whose operation is one repetition over
    /// `rep_bytes` of input: one throughput and one latency sample per
    /// repetition. The exact counts are the caller's to fill in.
    pub fn per_repetition(setup_s: Vec<f64>, walls: &[f64], rep_bytes: usize, failed: u64) -> Self {
        Untraced {
            setup_s,
            throughput_mb_s: walls.iter().map(|w| mb(rep_bytes) / w).collect(),
            latency_us: walls.iter().map(|w| w * 1e6).collect(),
            ops: walls.len() as u64,
            failed,
            ..Untraced::default()
        }
    }
}

pub trait Workload {
    /// Correctness-gate checks made while preparing, and how many
    /// failed; both count as operations.
    fn gate(&self) -> (u64, u64);
    fn untraced(&mut self, seconds: f64) -> Result<Untraced, String>;
    fn traced(&mut self, seconds: f64, tracer: &mut Tracer) -> Result<Layers, String>;
}

/// Generate the workload's inputs from the seed and run its
/// correctness gate (outside every timed section).
pub fn prepare(name: &str, cfg: Config) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "scan_dblp" => Box::new(inproc::SingleQuery::scan_dblp(cfg)?),
        "match_recursive" => Box::new(inproc::SingleQuery::match_recursive(cfg)?),
        "multi_sub" => Box::new(inproc::MultiSub::new(cfg)?),
        "serve_bulk" => Box::new(serve::ServeBulk::new(cfg)?),
        "serve_records" => Box::new(serve::ServeRecords::new(cfg)?),
        "broadcast_fanout" => Box::new(serve::BroadcastFanout::new(cfg)?),
        "transform_deferred" => Box::new(transform::TransformDeferred::new(cfg)?),
        other => return Err(format!("unknown workload {other}")),
    })
}

pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

/// One warm-up repetition, then timed ones until `seconds` have
/// passed (at least two; one under `--smoke`, which passes 0 seconds).
/// `rep` is told whether it is timed, so a warm-up's operations stay
/// out of the counts. Returns each timed repetition's wall-clock
/// seconds.
pub fn timed_reps(
    cfg: Config,
    seconds: f64,
    mut rep: impl FnMut(bool) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    rep(false)?;
    let min_reps = if cfg.smoke { 1 } else { 2 };
    let mut walls = Vec::new();
    let start = Instant::now();
    while walls.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        rep(true)?;
        walls.push(t0.elapsed().as_secs_f64());
    }
    Ok(walls)
}

/// Cap on in-process set-up samples (each is microseconds).
pub const IN_PROCESS_SETUPS: usize = 50_000;

/// Fresh set-ups: at least 31 (3 under `--smoke`), and more while
/// they are cheap — until a quarter second is spent or `max` are
/// taken — so a microsecond-scale set-up still has a steady median.
/// `setup` returns the seconds from "inputs ready" to "first byte
/// accepted"; tear-down is the caller's and is not timed.
pub fn sample_setups(
    cfg: Config,
    max: usize,
    mut setup: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < cfg.min_setups()
        || (!cfg.smoke && samples.len() < max && start.elapsed().as_secs_f64() < 0.25)
    {
        samples.push(setup()?);
    }
    Ok(samples)
}

/// A rung's pass: records its own child spans under the parent span
/// it is handed.
pub type Pass<'a> = Box<dyn FnMut(&mut Tracer, u32) -> Result<(), String> + 'a>;

/// One rung of a ladder: a span name and the pass itself.
pub struct Rung<'a> {
    pub name: &'static str,
    /// The per-layer metric charged with this rung's self time.
    pub charge: &'static str,
    pub run: Pass<'a>,
}

#[derive(Debug)]
pub struct Ladder {
    /// The per-layer metric each rung's self time is charged to.
    charges: Vec<&'static str>,
    /// Wall-clock seconds of each rung's least-disturbed repetition,
    /// bottom to top, spans on. A rung difference is a difference of
    /// two timings, so a burst of outside load on one of them moves it
    /// by more than most layers cost (repetitions of one rung differ
    /// by up to 40 % on the shared box this was sized on); the minimum
    /// is the estimate such bursts cannot reach.
    pub walls: Vec<f64>,
    /// The top rung run again with tracing off, likewise least
    /// disturbed: the untraced wall-clock the rungs must explain.
    pub reference: f64,
    /// The top rung once more with spans *and* allocation counting on:
    /// its wall-clock (everything tracing costs) and what it counted.
    pub counted_wall: f64,
    pub allocs: Counted,
}

/// Warm the top rung once, then run rounds until another round would
/// overrun `seconds` (at least one round; exactly one under `--smoke`,
/// which passes 0 seconds). A round is every rung once
/// with spans on, then the top rung twice more: untraced, and with
/// allocations counted. Rungs of one round run back to back, so drift
/// in the machine's speed hits neighbours alike. Allocation counting
/// stays out of the rungs' own timings: the counters are atomics
/// shared with the in-process server's thread, and on
/// `broadcast_fanout` (15 M allocations per MB) counting alone adds
/// 40 %.
pub fn run_ladder(
    seconds: f64,
    tracer: &mut Tracer,
    rungs: &mut [Rung<'_>],
) -> Result<Ladder, String> {
    let top = rungs.len() - 1;
    let root = tracer.open("ladder", NO_PARENT, 0);
    let spans_on = tracer.on;
    tracer.on = false;
    (rungs[top].run)(tracer, NO_PARENT)?;

    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); rungs.len()];
    let (mut reference, mut counted) = (Vec::new(), Vec::new());
    let allocs;
    let start = Instant::now();
    loop {
        let round = Instant::now();
        tracer.on = spans_on;
        for (i, rung) in rungs.iter_mut().enumerate() {
            let span = tracer.open(rung.name, root, walls[i].len() as u64);
            let t0 = Instant::now();
            (rung.run)(tracer, span)?;
            walls[i].push(t0.elapsed().as_secs_f64());
            tracer.close(span);
        }
        tracer.on = false;
        let t0 = Instant::now();
        (rungs[top].run)(tracer, NO_PARENT)?;
        reference.push(t0.elapsed().as_secs_f64());

        tracer.on = spans_on;
        let span = tracer.open("top rung, allocations counted", root, counted.len() as u64);
        alloc::start();
        let t0 = Instant::now();
        let done = (rungs[top].run)(tracer, span);
        counted.push(t0.elapsed().as_secs_f64());
        let counts = alloc::stop();
        done?;
        tracer.close(span);

        let spent = start.elapsed().as_secs_f64();
        if spent + round.elapsed().as_secs_f64() > seconds {
            allocs = counts;
            break;
        }
    }
    tracer.close(root);
    Ok(Ladder {
        charges: rungs.iter().map(|r| r.charge).collect(),
        walls: walls.iter().map(|w| least(w)).collect(),
        reference: least(&reference),
        counted_wall: least(&counted),
        allocs,
    })
}

fn least(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

impl Ladder {
    /// Charge each rung's layer its self time (rung minus the rung
    /// below, floored at zero) and report how well the self times
    /// explain the untraced wall-clock.
    pub fn attribute(&self, input_bytes: usize, layers: &mut Layers) {
        let mut below = 0.0;
        let mut explained = 0.0;
        for (&charge, &wall) in self.charges.iter().zip(&self.walls) {
            let own = (wall - below).max(0.0);
            layers.set(charge, own);
            explained += own;
            below = wall;
        }
        layers.set("trace.rep_wall_s", self.reference);
        layers.set("trace.overhead_ratio", self.counted_wall / self.reference);
        layers.set(
            "trace.unattributed_share",
            (explained - self.reference).abs() / self.reference,
        );
        layers.set(
            "alloc.count_per_mb",
            self.allocs.allocations as f64 / mb(input_bytes),
        );
        layers.set("alloc.peak_live_bytes", self.allocs.peak_live_bytes as f64);
    }
}

/// The DOM oracle: one query's results over a parsed sample.
pub fn dom_results(doc: &dom::Document, query: &str) -> Result<Vec<String>, String> {
    let parsed = xsq_xpath::parse_query(query).map_err(|e| format!("{query}: {e}"))?;
    Ok(dom::eval_stepwise(doc, &parsed))
}
