//! States, transition arcs, labels, guards, and actions of the HPDT.
//!
//! A transition arc stores (paper §3.4) the input-symbol pattern it
//! matches, an optional predicate guard evaluated against the event, the
//! new state, and the buffer/output operations to perform. Special labels
//! implement the closure machinery: `//` self-loops that accept any begin
//! event, closure entry arcs (the paper's `=`-marked arcs) that accept
//! their tag at any depth, and the catchall `*̄` that accepts any event
//! strictly below the current anchor (used for whole-element output).
//!
//! Everything the runtime would otherwise recompute per firing is
//! resolved when an arc is created: its place in the within-event
//! execution order ([`Arc::order`]) and the dense queue slot of every
//! BPDT it addresses ([`QueueRef`]).

use std::collections::HashMap;

use xsq_xml::{RawEvent, Sym};
use xsq_xpath::value::{str_to_number, XPathValue};
use xsq_xpath::{Comparison, FnTest};

use crate::depth_vector::DepthVector;
use crate::ids::BpdtId;

/// Index of a state in the HPDT's state table.
pub type StateId = u32;

/// Role a state plays inside its BPDT (for dumps and invariant checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateRole {
    /// The HPDT's global start state (START of the root BPDT).
    Start,
    /// A TRUE state: the BPDT's predicate is known true.
    True,
    /// An NA state: the predicate has not been evaluated yet.
    Na,
    /// Inside the predicate's witness child (between `<child>` and
    /// `</child>` of the begin-event-triggered categories).
    Witness,
}

/// Static information about a state.
#[derive(Debug, Clone)]
pub struct StateInfo {
    /// The BPDT that owns the state. (START states belong to the parent
    /// BPDT; the states listed here are the owned ones plus the root's.)
    pub owner: BpdtId,
    pub role: StateRole,
}

/// Tag pattern on begin/end/text labels. Names are interned at query
/// compile time, so matching an event tag is a single `u32` compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NamePat {
    Name(Sym),
    /// `*` — any tag.
    Any,
}

impl NamePat {
    #[inline]
    pub fn matches(&self, tag: Sym) -> bool {
        match self {
            NamePat::Name(n) => *n == tag,
            NamePat::Any => true,
        }
    }
}

/// What events an arc accepts, including the depth discipline of §4.3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArcLabel {
    /// The document-start event (consumed by the root BPDT, Fig. 12).
    StartDoc,
    /// The document-end event.
    EndDoc,
    /// A begin event of a *child* of the current anchor:
    /// `e.d == dv.top() + 1`.
    BeginChild(NamePat),
    /// A closure entry arc (the paper's `=`-marked transitions): a begin
    /// event with matching tag at **any** depth below the anchor
    /// (`e.d > dv.top()`).
    BeginAnyDepth(NamePat),
    /// The `//` self-loop on a closure step's START state: any begin
    /// event, no state or depth-vector change. Never matched as a
    /// transition: it compiles to the state's *stays* bit
    /// (`compute_stays`); the arc is kept for dumps, `--dot` and the
    /// analyses.
    ClosureSelfLoop,
    /// An end event at the anchor depth: `e.d == dv.top()`.
    End(NamePat),
    /// A text event of the anchor element itself: `e.d == dv.top()`.
    TextSelf(NamePat),
    /// A text event of a direct child: `e.d == dv.top() + 1` with the
    /// child's tag.
    TextChild(NamePat),
    /// The catchall `*̄`: any event with `e.d > dv.top()` (strict
    /// descendants of the anchor). Used for whole-element output.
    Catchall,
}

/// A predicate guard evaluated against the matched event. A failing guard
/// means the arc does not fire (the paper: "if f evaluates to false, it
/// does nothing").
#[derive(Debug, Clone, PartialEq)]
pub enum Guard {
    /// On a begin event: the named attribute exists and (if present)
    /// satisfies the comparison.
    Attr { name: Sym, cmp: Option<Comparison> },
    /// On a text event: the content satisfies the comparison (`None`
    /// means any text, for bare `[text()]`).
    Text { cmp: Option<Comparison> },
    /// On a begin event: the named attribute exists and satisfies a
    /// function test (`contains`, `starts-with`, …). Category-1 timing.
    AttrFn { name: Sym, test: FnTest },
    /// On a text event: the content satisfies a function test.
    /// Category-2 timing.
    TextFn { test: FnTest },
}

/// A BPDT's queue as an arc addresses it: the id the figures, dumps and
/// analyses name, and the dense slot the runtime indexes with
/// (`Hpdt::queues[slot] == id`) — known when the arc is created, because
/// the builder registers every BPDT before an arc can address it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueRef {
    pub id: BpdtId,
    pub slot: u32,
}

impl std::fmt::Display for QueueRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.id.fmt(f)
    }
}

/// Where a freshly produced result value is routed (the disposition is
/// fixed at compile time from the leaf BPDT's id, §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Every predicate on this path is known true: send to output
    /// directly (mark the item as "output" immediately, §4.3).
    Direct,
    /// The leaf's own predicate is still undecided: buffer in the leaf
    /// BPDT's own queue.
    OwnQueue,
    /// The leaf's predicate is true but an ancestor's is not: buffer in
    /// the queue of the nearest undecided ancestor (the upload target).
    Queue(QueueRef),
}

/// The value extracted for a result item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueSource {
    /// The text of the current text event (`text()` output, `sum()`…).
    Text,
    /// An attribute of the current begin event (`@attr` output).
    Attr(Sym),
    /// The constant `1` anchored at the begin event (`count()`).
    Unit,
}

/// What an `=` literal compares by — the key of a keyed step. A text
/// literal matches the stream value byte for byte; a numeric literal
/// matches whatever `number()` maps to the same value, so it is keyed by
/// the canonical bits of that value (`-0` folded into `0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyVal<'a> {
    Text(&'a str),
    Num(u64),
}

fn num_key(v: f64) -> Option<u64> {
    // NaN equals nothing, itself included: never a key, never a hit.
    (!v.is_nan()).then(|| (v + 0.0).to_bits())
}

impl<'a> KeyVal<'a> {
    /// The key of a comparison's right-hand side, if it has one.
    pub fn of(rhs: &'a XPathValue) -> Option<Self> {
        match rhs {
            XPathValue::Text(s) => Some(KeyVal::Text(s)),
            XPathValue::Number { value, .. } => num_key(*value).map(KeyVal::Num),
        }
    }
}

/// The literals of one keyed step, each mapped to its dense key id: one
/// hash probe per witnessed value answers, for every `[… = literal]`
/// sibling at once, what `Comparison::eval` would answer one by one.
#[derive(Debug, Clone, Default)]
pub struct KeyTable {
    text: HashMap<String, u32>,
    num: HashMap<u64, u32>,
}

impl KeyTable {
    /// Number of distinct keys.
    pub(crate) fn len(&self) -> usize {
        self.text.len() + self.num.len()
    }

    /// The id of `key`, assigned on first sight.
    pub(crate) fn intern(&mut self, key: KeyVal<'_>) -> u32 {
        let next = self.len() as u32;
        match key {
            KeyVal::Text(s) => match self.text.get(s) {
                Some(&id) => id,
                None => *self.text.entry(s.to_string()).or_insert(next),
            },
            KeyVal::Num(bits) => *self.num.entry(bits).or_insert(next),
        }
    }

    /// Call `hit` with the id of every key a stream value equals — at
    /// most one text key and one numeric key.
    #[inline]
    pub fn probe(&self, lhs: &str, mut hit: impl FnMut(u32)) {
        if let Some(&id) = self.text.get(lhs) {
            hit(id);
        }
        if !self.num.is_empty() {
            if let Some(&id) = num_key(str_to_number(lhs)).and_then(|bits| self.num.get(&bits)) {
                hit(id);
            }
        }
    }
}

/// Buffer and output operations attached to an arc. `Self` refers to the
/// BPDT owning the arc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Predicate resolved true and every ancestor predicate is true:
    /// mark all depth-matching items in this BPDT's queue as output.
    FlushSelf,
    /// Predicate resolved true but an ancestor is undecided: move the
    /// depth-matching items to the target BPDT's queue.
    UploadSelf(QueueRef),
    /// Predicate resolved false (end event from the NA side): drop the
    /// depth-matching items from this BPDT's queue.
    ClearSelf,
    /// Produce a result value from the current event, attributed to the
    /// query `tag` (0 for single-query HPDTs; the member index in a
    /// merged multi-query HPDT, where different leaves emit for
    /// different queries).
    Emit {
        source: ValueSource,
        to: Disposition,
        tag: u32,
    },
    /// Whole-element output: open a new element item at the begin event
    /// of the matched element (serializing the begin tag into it).
    ElementStart { to: Disposition, tag: u32 },
    /// Whole-element output: append the current event to the
    /// configuration's open element item.
    ElementAppend,
    /// Whole-element output: append the end tag and close the item.
    ElementEnd,
    /// Keyed step, at a witness event: probe `Hpdt::keyed[table]` with the
    /// event's text (or its `attr` attribute) and record every key hit as
    /// a depth-scoped *truth* entry in this BPDT's queue.
    RecordKey { table: u32, attr: Option<Sym> },
    /// Keyed step, at its element's end tag: bind every depth-matching
    /// buffered item to the query tags its leaf lists under the keys
    /// witnessed for this instance (`Hpdt::leaf_tags`) — released to the
    /// output when every ancestor predicate is true (`None`), uploaded as
    /// tag-bound entries to the nearest undecided ancestor otherwise —
    /// then drop the instance's entries, truths included.
    ResolveKeyed(Option<QueueRef>),
}

impl Action {
    /// The action in the figures' notation (`--dot`, `--trace`, dumps).
    pub fn name(&self) -> &'static str {
        match self {
            Action::FlushSelf => "queue.flush()",
            Action::UploadSelf(_) => "queue.upload()",
            Action::ClearSelf => "queue.clear()",
            Action::Emit { .. } => "emit",
            Action::ElementStart { .. } => "element.start",
            Action::ElementAppend => "element.append",
            Action::ElementEnd => "element.end",
            Action::RecordKey { .. } => "key.record",
            Action::ResolveKeyed(_) => "key.resolve",
        }
    }
}

/// One transition arc.
#[derive(Debug, Clone)]
pub struct Arc {
    pub label: ArcLabel,
    pub guard: Option<Guard>,
    pub target: StateId,
    /// The BPDT owning this arc (whose queue `*Self` actions address).
    pub owner: QueueRef,
    /// Place in the execution order among arcs fired by one input event
    /// (ascending; see [`execution_order`]), fixed when the arc is
    /// created.
    pub order: u32,
    pub actions: Vec<Action>,
}

/// The within-event execution order of an arc owned by a BPDT of `layer`
/// carrying `actions`, as one ascending key. Matched arcs execute
/// **deepest layer first**, so that uploads from closing inner elements
/// arrive in an ancestor's queue *before* the ancestor's own flush/clear
/// on the same event (cf. Fig. 8 placing the upload on `</child>`).
/// Within a layer, value production runs before the flush or upload that
/// would release it (an event can be both the witness and the value, e.g.
/// `//a[text()=2]/text()`), and flush/upload before a clear that would
/// otherwise drop the same entries (witness-true and NA-side
/// configurations resolving on one end event). A keyed resolve releases
/// and clears in one step and takes the clear's place.
pub fn execution_order(layer: u16, actions: &[Action]) -> u32 {
    let mut p = 1;
    for a in actions {
        match a {
            Action::Emit { .. } | Action::ElementStart { .. } => {
                p = 0;
                break;
            }
            Action::ClearSelf | Action::ResolveKeyed(_) => p = 2,
            _ => {}
        }
    }
    (u32::from(u16::MAX - layer) << 2) | p
}

impl Arc {
    pub fn new(
        label: ArcLabel,
        guard: Option<Guard>,
        target: StateId,
        owner: QueueRef,
        actions: Vec<Action>,
    ) -> Self {
        Arc {
            label,
            guard,
            target,
            owner,
            order: execution_order(owner.id.layer, &actions),
            actions,
        }
    }

    /// Does this arc accept `event` for a configuration whose depth
    /// vector is `dv`? (Guards are evaluated separately.) Tag checks are
    /// `u32` compares on interned symbols. (A `//` self-loop accepts
    /// nothing: it is the state's stays bit.)
    #[inline]
    pub fn label_matches(&self, event: &RawEvent<'_>, dv: &DepthVector) -> bool {
        use RawEvent as E;
        match (&self.label, event) {
            (ArcLabel::StartDoc, E::StartDocument) => true,
            (ArcLabel::EndDoc, E::EndDocument) => true,
            (ArcLabel::BeginChild(pat), E::Begin { name, depth, .. }) => {
                *depth == dv.top() + 1 && pat.matches(*name)
            }
            (ArcLabel::BeginAnyDepth(pat), E::Begin { name, depth, .. }) => {
                *depth > dv.top() && pat.matches(*name)
            }
            (ArcLabel::End(pat), E::End { name, depth }) => {
                *depth == dv.top() && pat.matches(*name)
            }
            (ArcLabel::TextSelf(pat), E::Text { element, depth, .. }) => {
                *depth == dv.top() && pat.matches(*element)
            }
            (ArcLabel::TextChild(pat), E::Text { element, depth, .. }) => {
                *depth == dv.top() + 1 && pat.matches(*element)
            }
            (ArcLabel::Catchall, e) => e.depth() > dv.top(),
            _ => false,
        }
    }

    /// Evaluate the guard against the event (label already matched).
    #[inline]
    pub fn guard_passes(&self, event: &RawEvent<'_>) -> bool {
        match &self.guard {
            None => true,
            Some(Guard::Attr { name, cmp }) => match event.attribute_sym(*name) {
                None => false,
                Some(v) => cmp.as_ref().is_none_or(|c| c.eval(v)),
            },
            Some(Guard::Text { cmp }) => match event {
                RawEvent::Text { text, .. } => cmp.as_ref().is_none_or(|c| c.eval(text)),
                _ => false,
            },
            Some(Guard::AttrFn { name, test }) => match event.attribute_sym(*name) {
                None => false,
                Some(v) => test.eval(v),
            },
            Some(Guard::TextFn { test }) => match event {
                RawEvent::Text { text, .. } => test.eval(text),
                _ => false,
            },
        }
    }

    /// True when firing this arc sets the open element item of every
    /// configuration that takes it alike (whole-element output opening or
    /// closing one), which can make configurations that differed only in
    /// their item equal.
    pub(crate) fn sets_item(&self) -> bool {
        self.actions
            .iter()
            .any(|a| matches!(a, Action::ElementStart { .. } | Action::ElementEnd))
    }

    /// True when firing this arc changes the configuration's state (the
    /// paper's dv rules only apply to real transitions: `s' ≠ s`).
    pub fn changes_state(&self, source: StateId) -> bool {
        self.target != source
    }
}

/// Event-kind half of a dispatch key (shared by the per-state arc tables
/// below and the query index's inverted dispatch).
pub(crate) const KIND_BEGIN: u64 = 0;
pub(crate) const KIND_END: u64 = 1;
pub(crate) const KIND_TEXT: u64 = 2;

/// Dense dispatch key for a (kind, tag) pair.
#[inline]
pub(crate) fn event_key(kind: u64, sym: Sym) -> u64 {
    (kind << 32) | sym.index() as u64
}

/// The dispatch key of an event, if it has one (document start/end do
/// not — only `rest` arcs can accept those).
#[inline]
pub(crate) fn raw_event_key(event: &RawEvent<'_>) -> Option<u64> {
    match event {
        RawEvent::Begin { name, .. } => Some(event_key(KIND_BEGIN, *name)),
        RawEvent::End { name, .. } => Some(event_key(KIND_END, *name)),
        RawEvent::Text { element, .. } => Some(event_key(KIND_TEXT, *element)),
        RawEvent::StartDocument | RawEvent::EndDocument => None,
    }
}

/// How an arc label participates in keyed dispatch: either it only ever
/// accepts events with one exact (kind, tag) key, or it must be probed
/// for every event (wildcard patterns, catchalls, document events).
pub(crate) fn label_dispatch_key(label: &ArcLabel) -> Option<u64> {
    match label {
        ArcLabel::BeginChild(NamePat::Name(s)) | ArcLabel::BeginAnyDepth(NamePat::Name(s)) => {
            Some(event_key(KIND_BEGIN, *s))
        }
        ArcLabel::End(NamePat::Name(s)) => Some(event_key(KIND_END, *s)),
        ArcLabel::TextSelf(NamePat::Name(s)) | ArcLabel::TextChild(NamePat::Name(s)) => {
            Some(event_key(KIND_TEXT, *s))
        }
        _ => None,
    }
}

/// Keyed index over one state's outgoing arcs. `label_matches` makes the
/// exact tag compare a *necessary* condition for every named label, so an
/// event only needs to probe the arcs filed under its own (kind, tag) key
/// plus the `rest` bucket — turning the per-event cost on a frontier
/// state with N named arcs (one per merged query) from O(N) into
/// O(matching + wildcards). This is what un-cliffs N=512 single-group
/// dispatch: the index's touch win finally shows up as wall-clock.
#[derive(Debug, Clone, Default)]
pub(crate) struct ArcTable {
    /// `(dispatch key, arc index)` sorted by key then index; probe with
    /// `partition_point`, entries for one key are contiguous and in
    /// ascending arc order.
    named: Vec<(u64, u32)>,
    /// Arc indices that must be probed for every event, ascending.
    rest: Vec<u32>,
}

impl ArcTable {
    /// Candidate arc indices for an event with dispatch key `key`, in
    /// ascending arc-index order (merging the key run with `rest`
    /// preserves the exact probe order of a linear scan, which the
    /// stop-early XSQ-NC mode relies on). `None` key (document events)
    /// yields `rest` alone.
    #[inline]
    pub(crate) fn candidates(&self, key: Option<u64>, out: &mut Vec<u32>) {
        out.clear();
        let run = match key {
            Some(k) => {
                let lo = self.named.partition_point(|&(nk, _)| nk < k);
                let hi = self.named[lo..].partition_point(|&(nk, _)| nk == k) + lo;
                &self.named[lo..hi]
            }
            None => &[],
        };
        // Merge two ascending sequences of arc indices.
        let (mut i, mut j) = (0, 0);
        while i < run.len() && j < self.rest.len() {
            if run[i].1 < self.rest[j] {
                out.push(run[i].1);
                i += 1;
            } else {
                out.push(self.rest[j]);
                j += 1;
            }
        }
        out.extend(run[i..].iter().map(|&(_, a)| a));
        out.extend_from_slice(&self.rest[j..]);
    }

    /// Would a linear scan be just as fast? Small states skip the table
    /// (`compute_arc_tables` applies the cutoff; this is the test hook).
    #[cfg(test)]
    pub(crate) fn worthwhile(&self) -> bool {
        self.named.len() + self.rest.len() >= ARC_TABLE_CUTOFF
    }
}

/// Below this many arcs a state is scanned linearly. Re-swept over {4,
/// 8, 16, always} on the anchor-ordered loop (EXPERIMENTS.md, *The set
/// is the stack*): `throughput_mb_s` is flat on `match_recursive` and
/// `multi_sub` — the probe is no slower than the scan — but *always*,
/// even as one flat index per HPDT, costs every small compile its
/// build: `setup_s` read +12 % on `match_recursive` and +28 % on
/// `scan_dblp` in ten pairs, with `scan_dblp` throughput 0.89×. What
/// the constant buys is that a query whose states have a handful of
/// arcs builds no table at all.
const ARC_TABLE_CUTOFF: usize = 8;

/// The candidates of a state below the cutoff: every arc, in order.
pub(crate) static LINEAR_SCAN: [u32; ARC_TABLE_CUTOFF] = [0, 1, 2, 3, 4, 5, 6, 7];

/// Build per-state arc tables for the HPDT's transition function. States
/// whose arc count is below the cutoff get `None` (linear scan). `//`
/// self-loops are not transitions (see `compute_stays`) and are filed
/// nowhere.
pub(crate) fn compute_arc_tables(arcs: &[Vec<Arc>]) -> Vec<Option<ArcTable>> {
    arcs.iter()
        .map(|state_arcs| {
            if state_arcs.len() < ARC_TABLE_CUTOFF {
                return None;
            }
            let mut table = ArcTable::default();
            for (ai, arc) in state_arcs.iter().enumerate() {
                match label_dispatch_key(&arc.label) {
                    Some(key) => table.named.push((key, ai as u32)),
                    None if arc.label == ArcLabel::ClosureSelfLoop => {}
                    None => table.rest.push(ai as u32),
                }
            }
            table.named.sort_unstable();
            Some(table)
        })
        .collect()
}

/// Per state, the arcs that accept an event at *any* depth below the
/// anchor. Every other label pins the anchor to the event's depth or the
/// one above (`label_matches`), so a configuration anchored any shallower
/// can fire only these — which most states, and most HPDTs, do not have.
/// Stored flat: one allocation pair per HPDT, none for an HPDT without
/// closures or whole-element output.
#[derive(Debug, Clone, Default)]
pub(crate) struct AnyDepthArcs {
    /// Per state, where its begin-event run (`BeginAnyDepth`, `Catchall`)
    /// and its text/end-event run (`Catchall`) start in `arcs`; a
    /// sentinel closes the last state's. Empty when `arcs` is.
    spans: Vec<(u32, u32)>,
    /// Arc indices, each run ascending — first-match stays first-match.
    arcs: Vec<u32>,
    /// The dispatch keys of the named `BeginAnyDepth` arcs, sorted.
    begin_keys: Vec<u64>,
    /// Is there a `BeginAnyDepth(*)` or a `Catchall` (every begin event
    /// may fire it)? A `Catchall` (every text and end event may)?
    any_begin: bool,
    catchall: bool,
}

impl AnyDepthArcs {
    pub(crate) fn new(arcs: &[Vec<Arc>]) -> Self {
        let any_depth: fn(&ArcLabel) -> bool =
            |l| matches!(l, ArcLabel::BeginAnyDepth(_) | ArcLabel::Catchall);
        let mut index = AnyDepthArcs::default();
        if !arcs.iter().flatten().any(|a| any_depth(&a.label)) {
            return index;
        }
        index.spans.reserve_exact(arcs.len() + 1);
        for state_arcs in arcs {
            let indices_of = |keep: fn(&ArcLabel) -> bool| {
                (0u32..)
                    .zip(state_arcs)
                    .filter_map(move |(ai, a)| keep(&a.label).then_some(ai))
            };
            let begin = index.arcs.len() as u32;
            index.arcs.extend(indices_of(any_depth));
            index.spans.push((begin, index.arcs.len() as u32));
            index.arcs.extend(indices_of(|l| *l == ArcLabel::Catchall));
        }
        let end = index.arcs.len() as u32;
        index.spans.push((end, end));
        for label in arcs.iter().flatten().map(|a| &a.label) {
            match (label, label_dispatch_key(label)) {
                (ArcLabel::BeginAnyDepth(_), Some(key)) => index.begin_keys.push(key),
                (ArcLabel::BeginAnyDepth(_), None) => index.any_begin = true,
                (ArcLabel::Catchall, _) => (index.any_begin, index.catchall) = (true, true),
                _ => {}
            }
        }
        index.begin_keys.sort_unstable();
        index.begin_keys.dedup();
        index
    }

    /// Can some state's any-depth arc accept an event with dispatch `key`
    /// (`begin`: a begin event)? If not, no configuration anchored above
    /// the event's parent has anything to fire.
    #[inline]
    pub(crate) fn may_accept(&self, key: Option<u64>, begin: bool) -> bool {
        if begin {
            self.any_begin || key.is_some_and(|k| self.begin_keys.binary_search(&k).is_ok())
        } else {
            self.catchall
        }
    }

    /// The arcs of `state` that can accept a begin event (`begin`), or a
    /// text or end event, from a configuration anchored above the
    /// event's parent (above the event's own element, for an end).
    #[inline]
    pub(crate) fn of(&self, state: StateId, begin: bool) -> &[u32] {
        let Some(&[(begin_at, other_at), (next, _)]) =
            self.spans.get(state as usize..state as usize + 2)
        else {
            return &[];
        };
        let (from, to) = if begin {
            (begin_at, other_at)
        } else {
            (other_at, next)
        };
        &self.arcs[from as usize..to as usize]
    }
}

/// Per state: does it carry a `//` self-loop? The loop has no guard, no
/// action and target = source, so firing it would only keep the
/// configuration where it is; the runtime reads this bit instead: when a
/// begin event below the anchor (`e.d > dv.top()`) fires an entry arc,
/// the configuration survives beside its successors. (One that matches
/// nothing survives anyway — §4.3's "simply ignores the event" — so the
/// bit costs nothing on events the state has no arc for.) Several
/// self-loops on one state, as the merged builder leaves, are one bit.
pub(crate) fn compute_stays(arcs: &[Vec<Arc>]) -> Vec<bool> {
    arcs.iter()
        .map(|outgoing| {
            outgoing
                .iter()
                .any(|a| a.label == ArcLabel::ClosureSelfLoop)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsq_xml::{Attribute, SaxEvent};
    use xsq_xpath::value::XPathValue;
    use xsq_xpath::{CmpOp, Comparison};

    fn begin(name: &str, depth: u32) -> SaxEvent {
        SaxEvent::Begin {
            name: name.into(),
            attributes: vec![Attribute::new("id", "5")],
            depth,
        }
    }

    fn text(element: &str, content: &str, depth: u32) -> SaxEvent {
        SaxEvent::Text {
            element: element.into(),
            text: content.into(),
            depth,
        }
    }

    fn end(name: &str, depth: u32) -> SaxEvent {
        SaxEvent::End {
            name: name.into(),
            depth,
        }
    }

    fn arc(label: ArcLabel) -> Arc {
        let root = QueueRef {
            id: BpdtId::ROOT,
            slot: 0,
        };
        Arc::new(label, None, 1, root, vec![])
    }

    fn matches(a: &Arc, ev: &SaxEvent, dv: &DepthVector) -> bool {
        a.label_matches(&ev.as_raw(), dv)
    }

    fn passes(a: &Arc, ev: &SaxEvent) -> bool {
        a.guard_passes(&ev.as_raw())
    }

    #[test]
    fn begin_child_requires_exact_depth() {
        let a = arc(ArcLabel::BeginChild(NamePat::Name("book".into())));
        let dv = DepthVector::from_depths(&[0, 1]);
        assert!(matches(&a, &begin("book", 2), &dv));
        assert!(!matches(&a, &begin("book", 3), &dv));
        assert!(!matches(&a, &begin("pub", 2), &dv));
    }

    #[test]
    fn begin_any_depth_accepts_deeper_descendants() {
        let a = arc(ArcLabel::BeginAnyDepth(NamePat::Name("book".into())));
        let dv = DepthVector::from_depths(&[0, 1]);
        assert!(matches(&a, &begin("book", 2), &dv));
        assert!(matches(&a, &begin("book", 7), &dv));
        assert!(!matches(&a, &begin("book", 1), &dv));
    }

    #[test]
    fn closure_self_loop_is_a_stays_bit_not_a_transition() {
        let a = arc(ArcLabel::ClosureSelfLoop);
        let dv = DepthVector::from_depths(&[0, 3]);
        assert!(!matches(&a, &begin("anything", 4), &dv));
        assert!(!matches(&a, &text("x", "t", 5), &dv));
        let entry = arc(ArcLabel::BeginAnyDepth(NamePat::Name("b".into())));
        // Duplicate self-loops (the merged builder's) fold into one bit.
        let states = [vec![a.clone(), entry.clone(), a], vec![entry]];
        assert_eq!(compute_stays(&states), [true, false]);
    }

    #[test]
    fn execution_order_is_deepest_layer_first_then_value_release_clear() {
        let to = Disposition::Direct;
        let emit = Action::Emit {
            source: ValueSource::Text,
            to,
            tag: 0,
        };
        let keys = [
            execution_order(3, &[Action::ElementEnd, emit.clone()]),
            execution_order(3, &[Action::FlushSelf]),
            execution_order(3, &[]),
            execution_order(3, &[Action::ElementEnd, Action::ClearSelf]),
            execution_order(2, &[emit]),
            execution_order(0, &[Action::ClearSelf]),
        ];
        assert_eq!(keys[1], keys[2]);
        assert!(keys[0] < keys[1] && keys[2] < keys[3] && keys[3] < keys[4] && keys[4] < keys[5]);
    }

    #[test]
    fn text_self_vs_text_child_depths() {
        let dv = DepthVector::from_depths(&[0, 2]);
        let self_arc = arc(ArcLabel::TextSelf(NamePat::Name("year".into())));
        let child_arc = arc(ArcLabel::TextChild(NamePat::Name("year".into())));
        assert!(matches(&self_arc, &text("year", "2002", 2), &dv));
        assert!(!matches(&self_arc, &text("year", "2002", 3), &dv));
        assert!(matches(&child_arc, &text("year", "2002", 3), &dv));
        assert!(!matches(&child_arc, &text("other", "2002", 3), &dv));
    }

    #[test]
    fn catchall_matches_strict_descendants_of_any_kind() {
        let a = arc(ArcLabel::Catchall);
        let dv = DepthVector::from_depths(&[0, 1]);
        assert!(matches(&a, &begin("x", 2), &dv));
        assert!(matches(&a, &text("x", "t", 2), &dv));
        assert!(matches(&a, &end("x", 2), &dv));
        // The anchor's own events are not descendants.
        assert!(!matches(&a, &text("a", "t", 1), &dv));
        assert!(!matches(&a, &end("a", 1), &dv));
    }

    #[test]
    fn attr_guard_checks_existence_and_comparison() {
        let mut a = arc(ArcLabel::BeginChild(NamePat::Any));
        a.guard = Some(Guard::Attr {
            name: "id".into(),
            cmp: None,
        });
        assert!(passes(&a, &begin("b", 1)));
        a.guard = Some(Guard::Attr {
            name: "id".into(),
            cmp: Some(Comparison {
                op: CmpOp::Le,
                rhs: XPathValue::number(10.0),
            }),
        });
        assert!(passes(&a, &begin("b", 1))); // id=5 <= 10
        a.guard = Some(Guard::Attr {
            name: "missing".into(),
            cmp: None,
        });
        assert!(!passes(&a, &begin("b", 1)));
    }

    #[test]
    fn text_guard_evaluates_content() {
        let mut a = arc(ArcLabel::TextSelf(NamePat::Any));
        a.guard = Some(Guard::Text {
            cmp: Some(Comparison {
                op: CmpOp::Gt,
                rhs: XPathValue::number(2000.0),
            }),
        });
        assert!(passes(&a, &text("year", "2002", 1)));
        assert!(!passes(&a, &text("year", "1999", 1)));
        assert!(!passes(&a, &begin("year", 1)));
    }

    #[test]
    fn key_table_probe_agrees_with_comparison_eval() {
        let literals = [
            XPathValue::number(1990.0),
            XPathValue::number_raw(1990.0, "1990.0"),
            XPathValue::text("1990"),
            XPathValue::text(" 1990 "),
            XPathValue::number(0.0),
            XPathValue::number(-0.0),
            XPathValue::number(2.5),
            XPathValue::text("Ada Lovelace"),
            XPathValue::text(""),
            XPathValue::number(f64::NAN),
        ];
        let mut table = KeyTable::default();
        let ids: Vec<Option<u32>> = literals
            .iter()
            .map(|l| KeyVal::of(l).map(|k| table.intern(k)))
            .collect();
        // 1990 ≡ 1990.0 and 0 ≡ -0 share a key; a NaN literal has none.
        assert_eq!(ids[0], ids[1]);
        assert_eq!(ids[4], ids[5]);
        assert_ne!(ids[0], ids[2]);
        assert_eq!(ids[9], None);
        assert_eq!(table.len(), 7);
        for text in [
            "1990",
            " 1990 ",
            "1990.0",
            "01990",
            "1990.",
            "1991",
            "0",
            "-0",
            "0.0",
            "-0.0",
            "2.5",
            "2.50",
            "+2.5",
            "25e-1",
            "Ada Lovelace",
            "ada lovelace",
            "",
            " ",
            "NaN",
            "nan",
            "inf",
        ] {
            let mut hits = Vec::new();
            table.probe(text, |id| hits.push(id));
            for (literal, id) in literals.iter().zip(&ids) {
                let cmp = Comparison {
                    op: CmpOp::Eq,
                    rhs: literal.clone(),
                };
                let hit = id.is_some_and(|id| hits.contains(&id));
                assert_eq!(hit, cmp.eval(text), "{text:?} against literal {literal}");
            }
        }
    }

    #[test]
    fn end_label_matches_at_anchor_depth() {
        let a = arc(ArcLabel::End(NamePat::Name("pub".into())));
        let dv = DepthVector::from_depths(&[0, 1]);
        assert!(matches(&a, &end("pub", 1), &dv));
        assert!(!matches(&a, &end("pub", 2), &dv));
    }

    #[test]
    fn arc_table_candidates_match_linear_scan() {
        // A frontier-like state: many named begin arcs plus wildcard and
        // document arcs. The keyed candidates must be exactly the arcs a
        // linear scan could match, in the same (ascending) order.
        let mut arcs_of_state = Vec::new();
        for i in 0..10 {
            arcs_of_state.push(arc(ArcLabel::BeginChild(NamePat::Name(
                format!("t{i}").as_str().into(),
            ))));
        }
        arcs_of_state.push(arc(ArcLabel::ClosureSelfLoop));
        arcs_of_state.push(arc(ArcLabel::BeginChild(NamePat::Any)));
        arcs_of_state.push(arc(ArcLabel::End(NamePat::Name("t3".into()))));
        arcs_of_state.push(arc(ArcLabel::TextChild(NamePat::Name("t3".into()))));
        arcs_of_state.push(arc(ArcLabel::StartDoc));
        let tables = compute_arc_tables(std::slice::from_ref(&arcs_of_state));
        let table = tables[0].as_ref().expect("above cutoff");
        assert!(table.worthwhile());

        let events = [
            begin("t3", 2),
            begin("t7", 2),
            begin("unknown", 2),
            end("t3", 1),
            text("t3", "v", 2),
            SaxEvent::StartDocument,
        ];
        let dv = DepthVector::from_depths(&[0, 1]);
        let mut got = Vec::new();
        for ev in &events {
            let raw = ev.as_raw();
            table.candidates(raw_event_key(&raw), &mut got);
            // Keyed dispatch is an over-approximation of label_matches:
            // every arc the linear scan would fire must be a candidate,
            // and candidates stay in ascending arc order.
            for (ai, a) in arcs_of_state.iter().enumerate() {
                if a.label_matches(&raw, &dv) {
                    assert!(got.contains(&(ai as u32)), "missing arc {ai} for {ev:?}");
                }
            }
            assert!(got.windows(2).all(|w| w[0] < w[1]), "order for {ev:?}");
        }

        // Small states skip the table entirely.
        let small = compute_arc_tables(&[vec![arc(ArcLabel::Catchall)]]);
        assert!(small[0].is_none());
    }

    #[test]
    fn any_depth_arcs_are_all_a_shallower_anchor_can_fire() {
        let name = |n: &str| NamePat::Name(n.into());
        let labels = [
            ArcLabel::BeginChild(name("a")),
            ArcLabel::BeginAnyDepth(name("a")),
            ArcLabel::ClosureSelfLoop,
            ArcLabel::Catchall,
            ArcLabel::End(name("a")),
            ArcLabel::TextSelf(name("a")),
            ArcLabel::TextChild(name("a")),
            ArcLabel::BeginAnyDepth(NamePat::Any),
            ArcLabel::EndDoc,
        ];
        let states = [
            vec![arc(ArcLabel::TextSelf(NamePat::Any))],
            labels.iter().cloned().map(arc).collect::<Vec<_>>(),
        ];
        let index = AnyDepthArcs::new(&states);
        assert_eq!(index.of(1, true), [1, 3, 7]);
        assert_eq!(index.of(1, false), [3]);
        assert!(index.of(0, true).is_empty() && index.of(0, false).is_empty());
        // An HPDT without such arcs stores nothing and answers alike.
        let none = AnyDepthArcs::new(&states[..1]);
        assert!(none.spans.is_empty() && none.of(0, true).is_empty());
        // Which events a shallower anchor can fire on at all: with a
        // catchall or `=<*>`, every begin (and with a catchall every other
        // event); with named entry arcs alone, a begin of those names.
        let key = |n: &str| raw_event_key(&begin(n, 3).as_raw());
        let text_key = raw_event_key(&text("a", "t", 3).as_raw());
        assert!(index.may_accept(key("zz"), true) && index.may_accept(text_key, false));
        let named = AnyDepthArcs::new(&[vec![arc(ArcLabel::BeginAnyDepth(name("a")))]]);
        assert!(named.may_accept(key("a"), true));
        assert!(!named.may_accept(key("b"), true) && !named.may_accept(text_key, false));
        assert!(!none.may_accept(key("a"), true) && !none.may_accept(None, false));
        // The lists are exact: anchored at depth 1, an event at depth 3
        // (4 for the element whose end it is) is accepted by those arcs
        // and no others.
        let dv = DepthVector::from_depths(&[0, 1]);
        for (ev, begin) in [
            (begin("a", 3), true),
            (text("a", "t", 3), false),
            (end("a", 2), false),
        ] {
            let accepted: Vec<u32> = (0u32..)
                .zip(&states[1])
                .filter_map(|(ai, a)| matches(a, &ev, &dv).then_some(ai))
                .collect();
            assert_eq!(accepted, index.of(1, begin), "{ev:?}");
        }
    }
}
