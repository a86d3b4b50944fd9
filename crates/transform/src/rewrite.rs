//! The output rewriter: turns events plus matcher verdicts into a
//! serialized document, buffering only what undecided verdicts force it
//! to buffer.
//!
//! This is the transform analogue of the paper's buffered items (§3.4):
//! where the HPDT's buffers hold *potential output* pending predicate
//! flags, the rewriter holds *regions of the output document* pending a
//! rule verdict. The three verdict timings map to three emission modes:
//!
//! * **decided at begin** (the common case — no candidate patterns, or
//!   only immediate predicates): the rewritten begin tag streams out at
//!   once, nothing is buffered, and the end event writes the matching
//!   end tag from `(name, rule)`;
//! * **decided `drop` at begin**: the whole subtree is skipped as it
//!   streams past — zero buffering, the transform analogue of dead-state
//!   pruning;
//! * **pending at begin**: the element gets a record and output is
//!   held in the *log* until the record's
//!   [`Resolution`](crate::matcher::Resolution) arrives.
//!
//! # The log
//!
//! Held-back output is one byte string in document order — text and the
//! tags of decided elements exactly as they will be written, with a hole
//! where each pending element's own tags belong. A record is fixed-size:
//! name, verdict, where its (already serialized) attributes and its
//! content start and end in the log, and which records nest inside it.
//! Records nest and resolve out of order; a region is *renderable* when
//! its verdict is in, its end event has been seen, and every nested
//! region is renderable. When the earliest region is renderable the log
//! flushes from the front in one walk: bytes are copied out, begin and
//! end tags are written into the holes from `(name, rule)`, and a `drop`
//! verdict skips to the record's close offset. Nothing is copied per
//! nesting level and nothing is allocated per element: the log, the
//! record table and the walk's stack keep their capacity, and the
//! flushed prefix of log and table is cut off once it outweighs the rest
//! (at once when nothing is pending, which on record-shaped data is
//! every record boundary).
//!
//! Because verdicts depend only on the event stream — never on how the
//! input bytes were chunked — the concatenated output of incremental
//! pushes is byte-identical for every chunking of the same document.

use xsq_xml::entities::{escape_attr_into, escape_text_into};
use xsq_xml::{Attribute, Sym};
use xsq_xpath::{AttrOp, Rule, RuleAction, Shape};

use crate::matcher::PendingId;

/// "No record": a root-level parent, an open close offset, an unmapped
/// pending id.
const NONE: usize = usize::MAX;

/// A pending region of the log. Offsets are absolute positions in the
/// held-back stream and ids absolute record numbers, so cutting off the
/// flushed prefix moves nothing.
#[derive(Debug)]
struct Record {
    name: Sym,
    /// `None` until resolved; `Some(None)` = no rule (copy).
    verdict: Option<Option<usize>>,
    /// The innermost pending element open when this one began, whose
    /// region this one is a hole in; [`NONE`] at root level.
    parent: usize,
    /// Log span of the element's attributes, serialized as the identity
    /// begin tag would write them; content starts where it ends.
    attrs_at: usize,
    open_at: usize,
    /// End of content; [`NONE`] until the end event.
    close_at: usize,
    /// First record id after this one's nested records (set at close).
    end_rec: usize,
    /// Nested regions not yet renderable.
    pending_children: usize,
    rendered: bool,
    /// Held-back bytes charged to this region: its content and, once
    /// they are renderable, its nested regions with their tags; after
    /// rendering, the region's own rendered length.
    buffered: usize,
}

/// Stack entry per open input element.
#[derive(Debug)]
enum OpenElem {
    /// Verdict was known at begin: the begin tag went out already; the
    /// end event writes the end tag for `(name, rule)`.
    Streamed { name: Sym, rule: Option<usize> },
    /// Verdict `drop`: the whole subtree is suppressed.
    Dropped,
    /// Verdict pending: the element's tags are a hole in the log.
    Pending { record: usize },
}

/// Counters reported with the transform output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransformStats {
    /// Elements in the input document.
    pub elements: u64,
    /// Elements a rule matched (including `drop`).
    pub matched: u64,
    /// Elements whose verdict was still open at their begin event.
    pub deferred: u64,
    /// Peak bytes buffered awaiting verdicts — the streaming-memory
    /// figure of merit; 0 when every verdict lands at begin time. Counts
    /// rewritten output: a region's content as it arrives, its own tags
    /// from the moment it is renderable.
    pub peak_buffered: usize,
    /// Total output bytes.
    pub bytes_out: u64,
}

/// The rewriter. Drive it with events + verdicts from the matcher; every
/// call appends whatever became final to the `out` it is handed.
pub struct Rewriter<'r> {
    rules: &'r [Rule],
    open: Vec<OpenElem>,
    /// Held-back output; `log[0]` is stream offset `log_base`.
    log: String,
    log_base: usize,
    /// Stream offset up to which the log has been written out.
    flushed: usize,
    /// Pending regions in begin order; `records[0]` has id `rec_base`.
    records: Vec<Record>,
    rec_base: usize,
    /// The earliest record not yet written out — always root-level.
    /// Equal to the next id when nothing is pending: output then streams
    /// straight through.
    front: usize,
    /// The innermost open pending element, or [`NONE`].
    current: usize,
    /// Record id per matcher pending id ([`NONE`]: resolved, or the
    /// element sits in a dropped subtree and has no record).
    by_pending: Vec<usize>,
    /// Bytes currently held back — tracked incrementally.
    buffered_now: usize,
    /// The flush walk's stack of regions whose end tag is still due.
    walk: Vec<usize>,
    /// Where rewritten attributes are measured before they are written.
    scratch: String,
    pub stats: TransformStats,
}

impl<'r> Rewriter<'r> {
    pub fn new(rules: &'r [Rule]) -> Self {
        Rewriter {
            rules,
            open: Vec::new(),
            log: String::new(),
            log_base: 0,
            flushed: 0,
            records: Vec::new(),
            rec_base: 0,
            front: 0,
            current: NONE,
            by_pending: Vec::new(),
            buffered_now: 0,
            walk: Vec::new(),
            scratch: String::new(),
            stats: TransformStats::default(),
        }
    }

    fn next_id(&self) -> usize {
        self.rec_base + self.records.len()
    }

    fn log_end(&self) -> usize {
        self.log_base + self.log.len()
    }

    fn record(&mut self, id: usize) -> &mut Record {
        &mut self.records[id - self.rec_base]
    }

    /// Is the element stream currently inside a dropped subtree?
    fn suppressed(&self) -> bool {
        matches!(self.open.last(), Some(OpenElem::Dropped))
    }

    /// Serialize through `write` into wherever output currently goes:
    /// `out` when nothing is pending, else the log, charged to the
    /// innermost pending region.
    fn write(&mut self, out: &mut String, write: impl FnOnce(&mut String)) {
        if self.front == self.next_id() {
            return write(out);
        }
        let before = self.log.len();
        write(&mut self.log);
        let added = self.log.len() - before;
        if self.current != NONE {
            self.record(self.current).buffered += added;
        }
        self.hold(added);
    }

    fn hold(&mut self, bytes: usize) {
        self.buffered_now += bytes;
        self.stats.peak_buffered = self.stats.peak_buffered.max(self.buffered_now);
    }

    /// Process a begin event with the verdict known at begin, or open a
    /// record for a pending one.
    pub fn begin(
        &mut self,
        out: &mut String,
        name: Sym,
        attributes: &[Attribute],
        decision: BeginDecision,
    ) {
        self.stats.elements += 1;
        if self.suppressed() {
            // Anything inside a dropped subtree is dropped with it,
            // regardless of its own verdict.
            self.open.push(OpenElem::Dropped);
            return;
        }
        match decision {
            BeginDecision::Decided(rule) => {
                self.stats.matched += u64::from(rule.is_some());
                let action = rule.map(|r| &self.rules[r].action);
                if action.is_some_and(|a| a.shape == Shape::Drop) {
                    self.open.push(OpenElem::Dropped);
                    return;
                }
                self.write(out, |s| {
                    write_begin_tag(s, name, Attrs::Parsed(attributes), action)
                });
                self.open.push(OpenElem::Streamed { name, rule });
            }
            BeginDecision::Pending(pid) => {
                self.stats.deferred += 1;
                let id = self.next_id();
                let parent = self.current;
                if parent != NONE {
                    self.record(parent).pending_children += 1;
                }
                // The attributes wait in the log, uncharged: tags count
                // once the region is renderable.
                let attrs_at = self.log_end();
                write_attrs(&mut self.log, attributes);
                self.records.push(Record {
                    name,
                    verdict: None,
                    parent,
                    attrs_at,
                    open_at: self.log_end(),
                    close_at: NONE,
                    end_rec: NONE,
                    pending_children: 0,
                    rendered: false,
                    buffered: 0,
                });
                let pid = pid as usize;
                if self.by_pending.len() <= pid {
                    self.by_pending.resize(pid + 1, NONE);
                }
                self.by_pending[pid] = id;
                self.current = id;
                self.open.push(OpenElem::Pending { record: id });
            }
        }
    }

    /// Process a text event.
    pub fn text(&mut self, out: &mut String, text: &str) {
        if !self.suppressed() {
            self.write(out, |s| escape_text_into(text, s));
        }
    }

    /// Process an end event.
    pub fn end(&mut self, out: &mut String) {
        match self.open.pop().expect("balanced events") {
            OpenElem::Dropped => {}
            OpenElem::Streamed { name, rule } => {
                let action = rule.map(|r| &self.rules[r].action);
                self.write(out, |s| write_end_tag(s, name, action));
            }
            OpenElem::Pending { record } => {
                let (close_at, end_rec) = (self.log_end(), self.next_id());
                let r = self.record(record);
                (r.close_at, r.end_rec) = (close_at, end_rec);
                self.current = r.parent;
                self.try_render(out, record);
            }
        }
    }

    /// Deliver a matcher resolution for a pending element.
    pub fn resolve(&mut self, out: &mut String, pid: PendingId, rule: Option<usize>) {
        let Some(slot) = self.by_pending.get_mut(pid as usize) else {
            return;
        };
        let id = std::mem::replace(slot, NONE);
        if id == NONE {
            // The element was inside a dropped subtree: no record exists.
            return;
        }
        self.stats.matched += u64::from(rule.is_some());
        self.record(id).verdict = Some(rule);
        self.try_render(out, id);
    }

    /// Mark the region renderable if its verdict is in, its element
    /// closed, and all nested regions renderable; cascade into the
    /// parent, and flush when the earliest region is reached.
    fn try_render(&mut self, out: &mut String, mut id: usize) {
        loop {
            let r = self.record(id);
            let Some(rule) = r.verdict else { return };
            if r.close_at == NONE || r.pending_children > 0 {
                return;
            }
            debug_assert!(!r.rendered);
            let held = r.buffered;
            let action = rule.map(|r| &self.rules[r].action);
            let rendered = match action {
                Some(a) if a.shape == Shape::Drop => 0,
                _ => held + self.tags_len(id, action),
            };
            // The region's tags are held from now on; a dropped region
            // releases its content.
            self.buffered_now -= held;
            self.hold(rendered);
            let r = self.record(id);
            (r.rendered, r.buffered) = (true, rendered);
            match r.parent {
                NONE => {
                    if id == self.front {
                        self.flush(out);
                    }
                    return;
                }
                parent => {
                    let p = self.record(parent);
                    p.buffered += rendered;
                    p.pending_children -= 1;
                    id = parent;
                }
            }
        }
    }

    /// Bytes of the begin and end tags `action` rewrites record `id`'s
    /// element to.
    fn tags_len(&mut self, id: usize, action: Option<&RuleAction>) -> usize {
        let r = &self.records[id - self.rec_base];
        let (name, wrapper) = tag_names(r.name, action);
        let attrs = &self.log[r.attrs_at - self.log_base..r.open_at - self.log_base];
        let attrs_len = match action {
            Some(a) if !a.attr_ops.is_empty() => {
                self.scratch.clear();
                write_attrs_with_ops(&mut self.scratch, Attrs::Logged(attrs), &a.attr_ops);
                self.scratch.len()
            }
            _ => attrs.len(),
        };
        // `<name` attrs `>` … `</name>`, inside `<w>` … `</w>`.
        2 * name.len() + 5 + attrs_len + wrapper.map_or(0, |w| 2 * w.len() + 5)
    }

    /// Write out the log from the front: every renderable root-level
    /// region and the bytes between them, up to the first region that is
    /// not renderable yet.
    fn flush(&mut self, out: &mut String) {
        let before = out.len();
        let next_id = self.next_id();
        while self.front < next_id && self.records[self.front - self.rec_base].rendered {
            self.emit_front(out);
        }
        let upto = match self.records.get(self.front - self.rec_base) {
            Some(pending) => pending.attrs_at,
            None => self.log_end(),
        };
        out.push_str(&self.log[self.flushed - self.log_base..upto - self.log_base]);
        self.flushed = upto;
        self.buffered_now -= out.len() - before;
        debug_assert!(self.front < next_id || self.buffered_now == 0);

        // Cut off what was written once it outweighs what is left.
        let dead = self.flushed - self.log_base;
        if dead >= self.log.len() - dead {
            self.log.drain(..dead);
            self.log_base = self.flushed;
        }
        let dead = self.front - self.rec_base;
        if dead >= self.records.len() - dead {
            self.records.drain(..dead);
            self.rec_base = self.front;
        }
    }

    /// Write out the front region with everything nested in it: one walk
    /// over its records in document order, filling each hole with the
    /// tags its verdict asks for.
    fn emit_front(&mut self, out: &mut String) {
        let (log, base) = (self.log.as_str(), self.log_base);
        let records = &self.records[..];
        let record = |id: usize| &records[id - self.rec_base];
        let action = |r: &Record| r.verdict.expect("rendered").map(|r| &self.rules[r].action);
        let end = record(self.front).end_rec;
        let (mut next, mut pos) = (self.front, self.flushed);
        loop {
            // Close every region the walk has left.
            while let Some(r) = self.walk.last().map(|&id| record(id)) {
                if next < r.end_rec {
                    break;
                }
                out.push_str(&log[pos - base..r.close_at - base]);
                write_end_tag(out, r.name, action(r));
                pos = r.close_at;
                self.walk.pop();
            }
            if next == end {
                break;
            }
            let r = record(next);
            out.push_str(&log[pos - base..r.attrs_at - base]);
            let action = action(r);
            if action.is_some_and(|a| a.shape == Shape::Drop) {
                (next, pos) = (r.end_rec, r.close_at);
            } else {
                let attrs = Attrs::Logged(&log[r.attrs_at - base..r.open_at - base]);
                write_begin_tag(out, r.name, attrs, action);
                self.walk.push(next);
                (next, pos) = (next + 1, r.open_at);
            }
        }
        (self.front, self.flushed) = (end, pos);
    }

    /// Finish the document: everything must have been written out.
    pub fn finish(self) -> TransformStats {
        debug_assert_eq!(
            self.front,
            self.next_id(),
            "verdicts settle by document end"
        );
        debug_assert!(self.open.is_empty(), "events balance by document end");
        debug_assert_eq!(self.buffered_now, 0);
        self.stats
    }
}

/// A begin-event verdict as the rewriter consumes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeginDecision {
    Decided(Option<usize>),
    Pending(PendingId),
}

/// The element and wrapper names an action rewrites a tag to.
fn tag_names(name: Sym, action: Option<&RuleAction>) -> (&str, Option<&str>) {
    let orig = name.as_str();
    match action.map(|a| &a.shape) {
        None | Some(Shape::Copy) => (orig, None),
        Some(Shape::Rename(n)) => (n.as_str(), None),
        Some(Shape::Wrap(w)) => (orig, Some(w.as_str())),
        Some(Shape::Drop) => unreachable!("drop emits no tags"),
    }
}

/// An element's attributes as a begin tag is written from them — the
/// parser's, or the serialized copy a pending record keeps in the log —
/// iterated as `(name, value)` pairs in document order.
#[derive(Debug, Clone, Copy)]
enum Attrs<'a> {
    Parsed(&'a [Attribute]),
    /// ` name="value"` runs, values already escaped.
    Logged(&'a str),
}

impl<'a> Iterator for Attrs<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            Attrs::Parsed(list) => {
                let (a, rest) = list.split_first()?;
                *list = rest;
                Some((a.name.as_str(), &a.value))
            }
            Attrs::Logged(s) => {
                // An escaped value holds no `"`, so the next one ends it.
                let (name, rest) = s.strip_prefix(' ')?.split_once("=\"")?;
                let (value, rest) = rest.split_once('"')?;
                *s = rest;
                Some((name, value))
            }
        }
    }
}

fn write_attr(buf: &mut String, name: &str, value: impl FnOnce(&mut String)) {
    buf.push(' ');
    buf.push_str(name);
    buf.push_str("=\"");
    value(buf);
    buf.push('"');
}

/// The attributes as the identity begin tag writes them.
fn write_attrs(buf: &mut String, attributes: &[Attribute]) {
    for a in attributes {
        write_attr(buf, a.name.as_str(), |b| escape_attr_into(&a.value, b));
    }
}

fn op_is_on(op: &AttrOp, name: &str) -> bool {
    match op {
        AttrOp::Set(n, _) | AttrOp::Remove(n) => n == name,
    }
}

/// What `ops` make of an attribute `name` that is present when they
/// start: `None` once one removes it, else the value the last `+@` sets
/// (`Some(None)`: none does, the value stays).
fn settle<'o>(name: &str, ops: &'o [AttrOp]) -> Option<Option<&'o str>> {
    let mut value = None;
    for op in ops.iter().filter(|op| op_is_on(op, name)) {
        match op {
            AttrOp::Set(_, v) => value = Some(v.as_str()),
            AttrOp::Remove(_) => return None,
        }
    }
    Some(value)
}

/// The attributes after `ops`, written while iterating — the semantics
/// of [`RuleAction::apply_attrs`] without its owned pair vector: ops
/// apply in rule order; `+@` on a present attribute replaces the value
/// in place, on an absent one appends; `-@` removes, so a later `+@`
/// appends afresh.
fn write_attrs_with_ops(buf: &mut String, attrs: Attrs<'_>, ops: &[AttrOp]) {
    let escaped = matches!(attrs, Attrs::Logged(_));
    for (name, original) in attrs {
        match settle(name, ops) {
            None => {}
            Some(Some(v)) => write_attr(buf, name, |b| escape_attr_into(v, b)),
            Some(None) if escaped => write_attr(buf, name, |b| b.push_str(original)),
            Some(None) => write_attr(buf, name, |b| escape_attr_into(original, b)),
        }
    }
    // Every `+@` that finds its attribute absent appends one, which the
    // ops after it may still rewrite or remove.
    for (k, op) in ops.iter().enumerate() {
        let AttrOp::Set(name, value) = op else {
            continue;
        };
        let present = match ops[..k].iter().rfind(|op| op_is_on(op, name)) {
            Some(prev) => matches!(prev, AttrOp::Set(..)),
            None => attrs.into_iter().any(|(n, _)| n == name),
        };
        if let (false, Some(v)) = (present, settle(name, &ops[k + 1..])) {
            write_attr(buf, name, |b| escape_attr_into(v.unwrap_or(value), b));
        }
    }
}

/// Serialize the rewritten begin tag for an element under an action
/// (`None` = identity copy) directly into `buf`. `wrap` puts the wrapper
/// outside the (possibly attribute-rewritten) original tag.
fn write_begin_tag(buf: &mut String, name: Sym, attrs: Attrs<'_>, action: Option<&RuleAction>) {
    let (out_name, wrapper) = tag_names(name, action);
    if let Some(w) = wrapper {
        buf.push('<');
        buf.push_str(w);
        buf.push('>');
    }
    buf.push('<');
    buf.push_str(out_name);
    match (action, attrs) {
        (Some(a), _) if !a.attr_ops.is_empty() => write_attrs_with_ops(buf, attrs, &a.attr_ops),
        (_, Attrs::Parsed(attributes)) => write_attrs(buf, attributes),
        (_, Attrs::Logged(written)) => buf.push_str(written),
    }
    buf.push('>');
}

/// The matching rewritten end tag.
fn write_end_tag(buf: &mut String, name: Sym, action: Option<&RuleAction>) {
    let (out_name, wrapper) = tag_names(name, action);
    buf.push_str("</");
    buf.push_str(out_name);
    buf.push('>');
    if let Some(w) = wrapper {
        buf.push_str("</");
        buf.push_str(w);
        buf.push('>');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsq_datagen::rng::cases;

    /// `/r/a[last()]`-shaped traffic: each region's verdict arrives after
    /// the next region has opened, so something is pending from the first
    /// sibling to the last and the "nothing pending" reset never fires.
    /// The flushed prefix must be cut off regardless.
    #[test]
    fn a_run_of_overlapping_regions_keeps_log_and_table_short() {
        let rules = xsq_xpath::RuleSet::parse("//a => rename(b)").unwrap();
        let mut rw = Rewriter::new(&rules.rules);
        let (mut out, mut total) = (String::new(), 0);
        let a = Sym::intern("a");
        rw.begin(
            &mut out,
            Sym::intern("r"),
            &[],
            BeginDecision::Decided(None),
        );
        for pid in 0..10_000u32 {
            rw.begin(&mut out, a, &[], BeginDecision::Pending(pid));
            if pid > 0 {
                rw.resolve(&mut out, pid - 1, Some(0));
            }
            rw.text(&mut out, "some text held back");
            rw.end(&mut out);
            assert!(rw.log.len() < 200 && rw.records.len() < 8);
            total += out.len();
            out.clear();
        }
        rw.resolve(&mut out, 9_999, None);
        rw.end(&mut out);
        assert_eq!(out, "<a>some text held back</a></r>");
        assert_eq!(
            total,
            "<r>".len() + 9_999 * "<b>some text held back</b>".len()
        );
        assert_eq!(rw.finish().peak_buffered, 19 + "<b></b>".len());
    }

    /// `write_attrs_with_ops` is `apply_attrs` without the pair vector:
    /// every op sequence over a small alphabet, from the parser's
    /// attributes and from their logged form.
    #[test]
    fn attribute_ops_match_apply_attrs_from_both_sources() {
        const NAMES: &[&str] = &["a", "b", "c"];
        const VALUES: &[&str] = &["", "v", "x<y", "q\"t\"", "caf\u{e9}&"];
        cases(0..2000, |rng| {
            let attributes: Vec<Attribute> = NAMES
                .iter()
                .filter_map(|n| {
                    let value = VALUES[rng.gen_range(0..VALUES.len())];
                    rng.gen_bool(0.5).then(|| Attribute::new(*n, value))
                })
                .collect();
            let attr_ops: Vec<AttrOp> = (0..rng.gen_range(1..6))
                .map(|_| {
                    let name = NAMES[rng.gen_range(0..NAMES.len())].to_string();
                    match rng.gen_bool(0.6) {
                        true => AttrOp::Set(name, VALUES[rng.gen_range(0..VALUES.len())].into()),
                        false => AttrOp::Remove(name),
                    }
                })
                .collect();
            let action = RuleAction {
                shape: Shape::Copy,
                attr_ops,
            };

            let pairs: Vec<(String, String)> = attributes
                .iter()
                .map(|a| (a.name.as_str().to_string(), a.value.clone()))
                .collect();
            let mut expected = String::from("<e");
            for (n, v) in action.apply_attrs(&pairs) {
                write_attr(&mut expected, &n, |b| escape_attr_into(&v, b));
            }
            expected.push('>');

            let name = Sym::intern("e");
            let mut parsed = String::new();
            write_begin_tag(&mut parsed, name, Attrs::Parsed(&attributes), Some(&action));
            assert_eq!(
                parsed, expected,
                "{attributes:?} under {:?}",
                action.attr_ops
            );

            let (mut log, mut logged) = (String::new(), String::new());
            write_attrs(&mut log, &attributes);
            write_begin_tag(&mut logged, name, Attrs::Logged(&log), Some(&action));
            assert_eq!(logged, expected, "{log:?} under {:?}", action.attr_ops);
        });
    }
}
