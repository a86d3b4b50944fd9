//! The traced pass's span store.
//!
//! Spans for coarse units (workload, rung repetition, document, FEED
//! frame) are kept whole and written out when the benchmark ends;
//! per-call timings the benchmark takes around a public function
//! (`Session::handle_frame`, one record's round trip) are folded into
//! count / sum / log₂ histogram. Everything is recorded from the
//! benchmark's side of a public call; nothing inside the programs
//! under test is instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

use crate::stats;

/// Whole spans kept per run; further ones are counted, not stored
/// (`serve_records` alone would keep one per record otherwise).
const SPAN_CAP: usize = 20_000;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Spans of one operation (document, record) share this id.
    pub op_id: u64,
}

pub struct Tracer {
    epoch: Instant,
    /// Off in the untraced pass: every recording method returns at once.
    pub on: bool,
    spans: Vec<Span>,
    dropped: u64,
    /// The workload being traced: parent of otherwise parentless
    /// spans, and namespace of the folded calls.
    scope: (&'static str, u32),
    calls: BTreeMap<(&'static str, &'static str), Vec<u64>>,
    /// Calibrated cost of one clock read, subtracted from every
    /// per-call duration.
    pub clock_read_ns: f64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
            dropped: 0,
            scope: ("", NO_PARENT),
            calls: BTreeMap::new(),
            clock_read_ns: if on { calibrate_clock() } else { 0.0 },
        }
    }

    /// Enter a workload: opens its root span. Spans recorded with
    /// [`NO_PARENT`] hang off it; folded calls are kept apart from
    /// other workloads' calls of the same name.
    pub fn enter(&mut self, workload: &'static str) {
        self.scope = (workload, NO_PARENT);
        self.scope.1 = self.open(workload, NO_PARENT, 0);
    }

    /// Leave the workload entered last: closes its root span.
    pub fn leave(&mut self) {
        self.close(self.scope.1);
        self.scope = ("", NO_PARENT);
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; [`Tracer::close`] stamps its end.
    pub fn open(&mut self, name: &'static str, parent: u32, op_id: u64) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let now = self.now_ns();
        self.span(name, now, now, parent, op_id)
    }

    pub fn close(&mut self, id: u32) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Record a finished span; returns its index for children.
    pub fn span(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        op_id: u64,
    ) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: if parent == NO_PARENT {
                self.scope.1
            } else {
                parent
            },
            op_id,
        });
        (self.spans.len() - 1) as u32
    }

    /// Fold one call's duration (two clock reads apart) into `name`.
    pub fn call(&mut self, name: &'static str, dur_ns: u64) {
        if self.on {
            let net = (dur_ns as f64 - self.clock_read_ns).max(0.0) as u64;
            self.calls
                .entry((self.scope.0, name))
                .or_default()
                .push(net);
        }
    }

    /// Median of the current workload's folded calls under `name`, in
    /// µs (0 if none).
    pub fn call_p50_us(&self, name: &'static str) -> f64 {
        match self.calls.get(&(self.scope.0, name)) {
            Some(d) if !d.is_empty() => {
                let v: Vec<f64> = d.iter().map(|&n| n as f64).collect();
                stats::median(&v) / 1e3
            }
            _ => 0.0,
        }
    }

    pub fn to_json(&self, header: &str) -> String {
        let mut out = format!(
            "{{\n  \"header\": {header},\n  \"clock_read_ns\": {:.2},\n  \
             \"spans_dropped\": {},\n  \"calls\": {{",
            self.clock_read_ns, self.dropped
        );
        for (i, ((scope, name), durs)) in self.calls.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let hist: Vec<String> = stats::log2_histogram(durs)
                .iter()
                .map(u64::to_string)
                .collect();
            let _ = write!(
                out,
                "{sep}\n    \"{scope}: {name}\": {{\"count\": {}, \"sum_ns\": {}, \"log2_ns\": [{}]}}",
                durs.len(),
                durs.iter().sum::<u64>(),
                hist.join(",")
            );
        }
        out.push_str("\n  },\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "{sep}\n    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op_id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    pub fn write(&self, path: &Path, header: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json(header))
    }
}

/// Mean cost of one `Instant::now()`, from back-to-back reads.
fn calibrate_clock() -> f64 {
    const READS: u32 = 200_000;
    let t0 = Instant::now();
    let mut last = t0;
    for _ in 0..READS {
        last = std::hint::black_box(Instant::now());
    }
    last.duration_since(t0).as_nanos() as f64 / f64::from(READS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Tracer::new(true);
        assert!(t.clock_read_ns > 0.0);
        t.enter("w");
        let child = t.span("doc", 5, 9, NO_PARENT, 7);
        t.call("handle_frame", 1_000_000);
        assert!(t.call_p50_us("handle_frame") > 900.0);
        t.leave();
        assert_eq!(child, 1);
        assert_eq!(t.call_p50_us("handle_frame"), 0.0);
        let json = t.to_json("{}");
        assert!(json.contains("\"name\": \"doc\", \"start_ns\": 5, \"end_ns\": 9, \"parent\": 0"));
        assert!(json.contains("\"w: handle_frame\": {\"count\": 1"));
    }

    #[test]
    fn an_untraced_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", NO_PARENT, 0);
        t.call("y", 10);
        assert_eq!(id, NO_PARENT);
        assert!(t.to_json("{}").contains("\"spans\": [\n  ]"));
    }
}
