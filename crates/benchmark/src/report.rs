//! What the benchmark prints and writes: the driver's one-line result,
//! the full run's table and report JSON.

use std::fmt::Write as _;

use crate::metrics::{
    Layers, END_TO_END, PER_LAYER, RESULT_LATENCY_P25_US, SETUP_S, THROUGHPUT_MB_S, WORKLOADS,
};
use crate::stats::{summarize, Summary};
use crate::workloads::Untraced;

/// A JSON number with all its digits (JSON has no NaN or infinity; a
/// non-finite value is a bug upstream and prints as 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// One workload's untraced pass, summarized per end-to-end metric.
pub struct EndToEnd {
    pub attempted: u64,
    pub failed: u64,
    /// In [`END_TO_END`] order.
    pub metrics: [Summary; 3],
    /// The reported (and gated) statistic of each metric: the median
    /// for set-up and throughput, the lower quartile for latency.
    pub values: [f64; 3],
    pub peak_buffered_bytes: u64,
    pub result_hash: u64,
    pub touches: u64,
}

impl EndToEnd {
    pub fn new(run: &Untraced, gate: (u64, u64)) -> EndToEnd {
        debug_assert_eq!(
            [END_TO_END[0].name, END_TO_END[1].name, END_TO_END[2].name],
            [SETUP_S, THROUGHPUT_MB_S, RESULT_LATENCY_P25_US]
        );
        let metrics = [
            summarize(&run.setup_s),
            summarize(&run.throughput_mb_s),
            summarize(&run.latency_us),
        ];
        EndToEnd {
            attempted: run.ops + gate.0,
            failed: run.failed + gate.1,
            values: [metrics[0].median, metrics[1].median, metrics[2].q1],
            metrics,
            peak_buffered_bytes: run.peak_buffered_bytes,
            result_hash: run.result_hash,
            touches: run.touches,
        }
    }
}

/// The driver contract's last line of standard output.
pub fn driver_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    out.push_str("}}");
    out
}

pub fn end_to_end_line(e: &EndToEnd) -> String {
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(e.values)
        .map(|(def, value)| (def.name, value, def.unit))
        .collect();
    driver_line(e.attempted, e.failed, &metrics)
}

pub fn per_layer_line(layers: &Layers, gate: (u64, u64)) -> String {
    let metrics: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .map(|def| (def.name, layers.get(def.name), def.unit))
        .collect();
    driver_line(gate.0.max(1), gate.1, &metrics)
}

/// Everything one workload produced in a full run.
pub struct WorkloadReport {
    pub name: &'static str,
    pub end_to_end: EndToEnd,
    pub layers: Layers,
}

/// Whether the workload's arrival process is open or closed, with its
/// rate or client count — stated in the report beside the numbers.
pub fn load_shape(workload: &str) -> &'static str {
    match workload {
        "serve_bulk" => "closed loop, 1 client, 1 connection",
        "serve_records" => "open loop, 10000 records/s, 1 client, 1 connection",
        "broadcast_fanout" => "closed loop, 1 feeder + 64 sessions on 2 connections",
        _ => "closed loop, in-process, 1 thread",
    }
}

pub fn print_tables(reports: &[WorkloadReport]) {
    println!(
        "\n{:<19} {:<22} {:>14} {:>14} {:>14} {:>14} {:>7}  unit",
        "workload", "end-to-end metric", "value", "median", "q1", "q3", "n"
    );
    for r in reports {
        let e = &r.end_to_end;
        for ((def, s), value) in END_TO_END.iter().zip(&e.metrics).zip(e.values) {
            println!(
                "{:<19} {:<22} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>7}  {}",
                r.name, def.name, value, s.median, s.q1, s.q3, s.n, def.unit
            );
        }
        println!(
            "{:<19} ops {} failed_ops {} peak_buffered_bytes {} result_hash {:016x}",
            r.name,
            r.end_to_end.attempted,
            r.end_to_end.failed,
            r.end_to_end.peak_buffered_bytes,
            r.end_to_end.result_hash
        );
    }
    print!("\n{:<34} {:>6}", "per-layer metric", "unit");
    for r in reports {
        print!(" {:>13.13}", r.name);
    }
    println!();
    for def in &PER_LAYER {
        print!("{:<34} {:>6}", def.name, def.unit);
        for r in reports {
            print!(" {:>13.6}", r.layers.get(def.name));
        }
        println!();
    }
}

pub fn report_json(header: &str, reports: &[WorkloadReport]) -> String {
    let mut out = format!("{{\n  \"header\": {header},\n  \"claim\": null,\n  \"workloads\": [");
    for (i, r) in reports.iter().enumerate() {
        let why = WORKLOADS
            .iter()
            .find(|w| w.name == r.name)
            .map_or("", |w| w.why);
        let e = &r.end_to_end;
        let _ = write!(
            out,
            "{}\n    {{\n      \"name\": \"{}\",\n      \"why\": \"{why}\",\n      \
             \"load\": \"{}\",\n      \"ops\": {},\n      \"failed_ops\": {},\n      \
             \"exact\": {{\"peak_buffered_bytes\": {}, \"result_hash\": \"{:016x}\", \
             \"core.qindex.touches\": {}}},\n      \"end_to_end\": {{",
            if i == 0 { "" } else { "," },
            r.name,
            load_shape(r.name),
            e.attempted,
            e.failed,
            e.peak_buffered_bytes,
            e.result_hash,
            e.touches
        );
        for (k, (def, s)) in END_TO_END.iter().zip(&e.metrics).enumerate() {
            let _ = write!(
                out,
                "{}\n        \"{}\": {{\"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}, \
                 \"value\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                if k == 0 { "" } else { "," },
                def.name,
                def.unit,
                def.better,
                def.bound,
                num(e.values[k]),
                num(s.median),
                num(s.q1),
                num(s.q3),
                s.n
            );
        }
        out.push_str("\n      },\n      \"per_layer\": {");
        for (k, def) in PER_LAYER.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n        \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if k == 0 { "" } else { "," },
                def.name,
                num(r.layers.get(def.name)),
                def.unit
            );
        }
        out.push_str("\n      }\n    }");
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_line_keeps_every_digit() {
        let line = driver_line(3, 0, &[("setup_s", 0.000_012_345_678_9, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.0000123456789, \"unit\": \"s\"}}}"
        );
        assert!(driver_line(3, 1, &[]).starts_with("{\"correct\": false"));
    }
}
