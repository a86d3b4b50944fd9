//! `transform_deferred`: the streaming rewriter with pending frames,
//! beside the DOM reference transformer.

use std::hint::black_box;
use std::time::Instant;

use xsq_baselines::dom::transform::transform_bytes;
use xsq_transform::{TransformStats, Transformer};
use xsq_xpath::RuleSet;

use super::inproc::{push_parse_only, same_results, set_push_layers};
use super::{mb, run_ladder, sample_setups, timed_reps, Config, Rung, Untraced, IN_PROCESS_SETUPS};
use crate::hash::{fnv, FNV_OFFSET};
use crate::inputs::{self, CHUNK, MIB};
use crate::metrics::Layers;
use crate::stats;
use crate::trace::Tracer;

/// Both verdicts are open at the element's begin tag: `[author]` waits
/// for a child, `[year=2002]` for a child's text.
const RULES: &str = "//inproceedings[author] => wrap(talk)\n//article[year=2002] => rename(recent)";

pub struct TransformDeferred {
    cfg: Config,
    doc: Vec<u8>,
    gen_s: f64,
    transformer: Transformer,
    rules: RuleSet,
    expected: u64,
    stats: TransformStats,
    gate: (u64, u64),
}

/// One document through a fresh session in `CHUNK` pushes; returns
/// the FNV hash of the output and the session's stats.
fn stream_once(t: &Transformer, doc: &[u8]) -> Result<(u64, TransformStats), String> {
    let mut session = t.session();
    let mut h = FNV_OFFSET;
    for piece in doc.chunks(CHUNK) {
        h = fnv(
            h,
            session.push(piece).map_err(|e| e.to_string())?.as_bytes(),
        );
    }
    let tail = session.finish().map_err(|e| e.to_string())?;
    Ok((fnv(h, tail.xml.as_bytes()), tail.stats))
}

impl TransformDeferred {
    pub fn new(cfg: Config) -> Result<Self, String> {
        let t0 = Instant::now();
        let doc = inputs::dblp_doc(cfg.seed, cfg.bytes(16 * MIB));
        let gen_s = t0.elapsed().as_secs_f64();
        let transformer = Transformer::compile(RULES).map_err(|e| e.to_string())?;
        let rules = RuleSet::parse(RULES).map_err(|e| e.to_string())?;

        // Gate: the streamed output is byte-identical to the DOM
        // reference on the whole corpus, whole or chunked.
        let dom = transform_bytes(&doc, &rules).map_err(|e| e.to_string())?;
        let whole = transformer.transform(&doc).map_err(|e| e.to_string())?;
        let (chunked, stats) = stream_once(&transformer, &doc)?;
        let expected = fnv(FNV_OFFSET, dom.as_bytes());
        let failed = u64::from(whole.xml != dom) + u64::from(chunked != expected);
        if stats.deferred == 0 {
            return Err("no verdict was deferred: the workload is vacuous".into());
        }
        Ok(TransformDeferred {
            cfg,
            doc,
            gen_s,
            transformer,
            rules,
            expected,
            stats,
            gate: (2, failed),
        })
    }
}

impl super::Workload for TransformDeferred {
    fn gate(&self) -> (u64, u64) {
        self.gate
    }

    fn untraced(&mut self, seconds: f64) -> Result<Untraced, String> {
        let setup_s = sample_setups(self.cfg, IN_PROCESS_SETUPS, || {
            let t0 = Instant::now();
            let t = Transformer::compile(RULES).map_err(|e| e.to_string())?;
            let session = t.session();
            let s = t0.elapsed().as_secs_f64();
            black_box(&session);
            Ok(s)
        })?;
        let (t, doc, expected) = (&self.transformer, &self.doc[..], self.expected);
        let mut failed = 0u64;
        let walls = timed_reps(self.cfg, seconds, |timed| {
            failed += u64::from(stream_once(t, doc)?.0 != expected && timed);
            Ok(())
        })?;
        Ok(Untraced {
            peak_buffered_bytes: self.stats.peak_buffered as u64,
            result_hash: expected,
            ..Untraced::per_repetition(setup_s, &walls, doc.len(), failed)
        })
    }

    fn traced(&mut self, seconds: f64, tracer: &mut Tracer) -> Result<Layers, String> {
        let mut layers = Layers::default();
        let (t, rules, doc, expected) =
            (&self.transformer, &self.rules, &self.doc[..], self.expected);
        let mut push_counts = (0u64, 0u64);
        let mut mismatches = 0u64;
        let mut rungs = [
            Rung {
                name: "R1 PushParser::{push,poll_raw}",
                charge: "xmlstream.push.busy_s",
                run: Box::new(|_, _| {
                    push_counts = push_parse_only(&[doc], CHUNK);
                    Ok(())
                }),
            },
            Rung {
                name: "R2 TransformSession::push",
                charge: "transform.self_s",
                run: Box::new(|_, _| {
                    mismatches += u64::from(stream_once(t, doc)?.0 != expected);
                    Ok(())
                }),
            },
        ];
        let ladder = run_ladder(seconds, tracer, &mut rungs)?;
        drop(rungs);
        ladder.attribute(doc.len(), &mut layers);
        // The DOM reference is beside the ladder, not a rung of it.
        let mut dom_walls = Vec::new();
        for _ in 0..if self.cfg.smoke { 1 } else { 3 } {
            let t0 = Instant::now();
            black_box(transform_bytes(doc, rules).map_err(|e| e.to_string())?);
            dom_walls.push(t0.elapsed().as_secs_f64());
        }
        let dom_s = stats::median(&dom_walls);
        same_results(mismatches)?;
        set_push_layers(&mut layers, push_counts);
        layers.set("transform.deferred", self.stats.deferred as f64);
        layers.set("transform.matched", self.stats.matched as f64);
        layers.set("transform.out_bytes", self.stats.bytes_out as f64);
        layers.set("transform.stream_vs_dom_ratio", dom_s / ladder.reference);
        layers.set("baselines.dom.transform_mb_s", mb(doc.len()) / dom_s);
        layers.set(
            "core.buffers.peak_buffered_bytes",
            self.stats.peak_buffered as f64,
        );
        layers.set("datagen.gen_s", self.gen_s);
        Ok(layers)
    }
}
