//! The names the benchmark speaks: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root lists exactly these (a test compares them); later
//! changes name their claims with them.

use std::collections::BTreeMap;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "scan_dblp",
        why: "pull parser, 64 MiB DBLP, one bufferless path query: the tokenizer is about half the time; bypasses buffers, index and server",
    },
    WorkloadDef {
        name: "match_recursive",
        why: "closure + predicate on 4 MiB recursive xmlgen (Fig. 20 shape): runtime, buffers and depth vectors dominate, tokenizer under 5 %",
    },
    WorkloadDef {
        name: "multi_sub",
        why: "2 MiB DBLP through one QueryIndex of 512 seeded subscriptions that share tags: dispatch and prefix sharing; setup is 512 compiles",
    },
    WorkloadDef {
        name: "serve_bulk",
        why: "loopback closed loop, 8 x 2 MiB DBLP in 64 KiB FEED frames, 4 selective queries: matching is cheap, so session, framing and event loop are a fifth of the time and show",
    },
    WorkloadDef {
        name: "serve_records",
        why: "loopback open loop at 10000 one-record FEED frames/s on an endless document: per-frame fixed cost sets latency, bytes/s is irrelevant",
    },
    WorkloadDef {
        name: "broadcast_fanout",
        why: "broadcast server, 1 feeder + 64 wire-v2 subscriber sessions on one connection: parse once, deliver 64 times; isolates O(audience) staging",
    },
    WorkloadDef {
        name: "transform_deferred",
        why: "16 MiB DBLP through TransformSession with two deferred-verdict rules: the transform matcher and pending frames are most of the time",
    },
];

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const THROUGHPUT_MB_S: &str = "throughput_mb_s";
pub const RESULT_LATENCY_P25_US: &str = "result_latency_p25_us";

pub const END_TO_END: [EndToEndDef; 3] = [
    EndToEndDef {
        name: SETUP_S,
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEndDef {
        name: THROUGHPUT_MB_S,
        unit: "MB/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEndDef {
        name: RESULT_LATENCY_P25_US,
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
];

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> LayerDef {
    LayerDef { name, unit, better }
}

/// Per-layer metrics; the layer is the module name. All `_s` values
/// are seconds per repetition of the workload's corpus, so a layer's
/// share is its `busy_s`/`self_s` over `trace.rep_wall_s`.
pub const PER_LAYER: [LayerDef; 52] = [
    layer("xmlstream.parser.busy_s", "s", "lower"),
    layer("xmlstream.parser.events", "count", "lower"),
    layer("xmlstream.parser.mb_s", "MB/s", "higher"),
    layer("xmlstream.push.busy_s", "s", "lower"),
    layer("xmlstream.push.events", "count", "lower"),
    layer("xmlstream.push.need_more_polls", "count", "lower"),
    layer("xpath.parse_s", "s", "lower"),
    layer("core.build.compile_s", "s", "lower"),
    layer("core.build.states", "count", "lower"),
    layer("core.qindex.groups", "count", "lower"),
    layer("core.runtime.busy_s", "s", "lower"),
    layer("core.runtime.peak_configs", "count", "lower"),
    layer("core.runtime.results", "count", "higher"),
    layer("core.qindex.busy_s", "s", "lower"),
    layer("core.qindex.touches", "count", "lower"),
    layer("core.qindex.touches_per_event", "count", "lower"),
    layer("core.buffers.peak_buffered_bytes", "bytes", "lower"),
    layer("core.buffers.peak_buffered_items", "count", "lower"),
    layer("server.proto.codec_s", "s", "lower"),
    layer("server.proto.frames_in", "count", "lower"),
    layer("server.proto.frames_out", "count", "lower"),
    layer("server.proto.bytes_in", "bytes", "lower"),
    layer("server.proto.bytes_out", "bytes", "lower"),
    layer("server.session.busy_s", "s", "lower"),
    layer("server.session.self_s", "s", "lower"),
    layer("server.session.frame_p50_us", "us", "lower"),
    layer("server.eventloop.transport_s", "s", "lower"),
    layer("server.eventloop.queue_depth_hwm", "count", "lower"),
    layer("server.eventloop.ingest_share", "ratio", "higher"),
    layer("server.broadcast.fan_s", "s", "lower"),
    layer("server.broadcast.delivered_frames", "count", "higher"),
    layer("server.broadcast.dropped", "count", "lower"),
    layer("transform.self_s", "s", "lower"),
    layer("transform.deferred", "count", "lower"),
    layer("transform.matched", "count", "higher"),
    layer("transform.out_bytes", "bytes", "lower"),
    layer("transform.stream_vs_dom_ratio", "ratio", "higher"),
    layer("baselines.dom.transform_mb_s", "MB/s", "higher"),
    layer("client.result_latency_p50_us", "us", "lower"),
    layer("client.result_latency_p90_us", "us", "lower"),
    layer("client.result_latency_p99_us", "us", "lower"),
    layer("client.result_latency_max_us", "us", "lower"),
    layer("client.gen_late_p99_us", "us", "lower"),
    layer("client.read_calls", "count", "lower"),
    layer("client.write_calls", "count", "lower"),
    layer("alloc.count_per_mb", "1/MB", "lower"),
    layer("alloc.peak_live_bytes", "bytes", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
    layer("trace.unattributed_share", "ratio", "lower"),
    layer("trace.clock_read_ns", "ns", "lower"),
    layer("trace.rep_wall_s", "s", "lower"),
    layer("datagen.gen_s", "s", "lower"),
];

/// One traced pass's per-layer values. Setting a name that is not in
/// [`PER_LAYER`] is a bug in the benchmark; names never set read 0
/// (the layer is not on that workload's path).
#[derive(Debug, Default, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|d| d.name == name),
            "per-layer metric {name} is not registered"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_meet_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for n in names {
            assert!(well_formed(n), "{n}");
            assert!(seen.insert(n), "{n} used twice");
        }
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
