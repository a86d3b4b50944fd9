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
//! What a label accepts is written once, as its row in
//! `ArcLabel::pattern` (event kinds, name, depth relative to the
//! anchor). Every consumer reads that `Pattern`: `Pattern::accepts`, the
//! per-state arc tables and any-depth runs, the overlap check behind
//! `scan_all`, the query index's buckets and the verifier's depth model.
//!
//! Everything the runtime would otherwise recompute per firing is
//! resolved when an arc is created: its place in the within-event
//! execution order ([`Arc::order`]) and the dense queue slot of every
//! BPDT it addresses ([`QueueRef`]); its pattern is fixed when the HPDT
//! is sealed, in a column beside the arcs.
//!
//! The arcs are stored flat (`Hpdt::arcs`, grouped by state through
//! `Hpdt::offsets`): an arc is plain data that names its actions and
//! its guard by position in the HPDT's pools, so the per-state tables
//! below read runs of one `Pattern` slice (`runs`).

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
    /// The dominance mark (DESIGN.md, *Dominated configurations*): the
    /// TRUE state of a solo HPDT's all-TRUE BPDT whose next step is a
    /// closure. A configuration here selects, through the steps below,
    /// everything a deeper instance of its step could, so while one is
    /// live no deeper instance is entered. Set by the solo builder on
    /// layers below 64 (one bit of [`Hpdt::marks`](crate::build::Hpdt)
    /// each); lives in what was padding.
    pub dominates: bool,
}

/// Tag pattern on begin/end/text labels. Names are interned at query
/// compile time, so matching an event tag is a single `u32` compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NamePat {
    Name(Sym),
    /// `*` — any tag.
    Any,
}

/// What events an arc accepts, including the depth discipline of §4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// The catchall `*̄`: any event with `e.d > dv.top()` (strict
    /// descendants of the anchor). Used for whole-element output.
    Catchall,
}

impl ArcLabel {
    /// What the label accepts: its row of event kinds, name and depth
    /// relative to the anchor. The one description every consumer reads
    /// (DESIGN.md reproduces this table).
    pub(crate) fn pattern(&self) -> Pattern {
        use ArcLabel as L;
        use EventKind as K;
        let (kinds, name, depth) = match *self {
            L::StartDoc => (K::StartDoc.mask(), NamePat::Any, ANY_DEPTH),
            L::EndDoc => (K::EndDoc.mask(), NamePat::Any, ANY_DEPTH),
            L::BeginChild(p) => (K::Begin.mask(), p, CHILD),
            L::BeginAnyDepth(p) => (K::Begin.mask(), p, BELOW),
            L::ClosureSelfLoop => (K::Begin.mask(), NamePat::Any, BELOW),
            L::End(p) => (K::End.mask(), p, ANCHOR),
            L::TextSelf(p) => (K::Text.mask(), p, ANCHOR),
            L::Catchall => (K::ELEMENT_MASK, NamePat::Any, BELOW),
        };
        let name = match name {
            NamePat::Name(n) => Some(n),
            NamePat::Any => None,
        };
        let transition = !matches!(self, L::ClosureSelfLoop);
        Pattern {
            kinds,
            name,
            depth,
            transition,
        }
    }
}

/// The paper's notation (`--dot`, `--trace`).
impl std::fmt::Display for ArcLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = |p: &NamePat| match p {
            NamePat::Name(n) => n.as_str(),
            NamePat::Any => "*",
        };
        match self {
            ArcLabel::StartDoc => f.write_str("<root>"),
            ArcLabel::EndDoc => f.write_str("</root>"),
            ArcLabel::BeginChild(p) => write!(f, "<{}>", name(p)),
            ArcLabel::BeginAnyDepth(p) => write!(f, "=<{}>", name(p)),
            ArcLabel::ClosureSelfLoop => f.write_str("//"),
            ArcLabel::End(p) => write!(f, "</{}>", name(p)),
            ArcLabel::TextSelf(p) => write!(f, "<{}.text()>", name(p)),
            ArcLabel::Catchall => f.write_str("*̄"),
        }
    }
}

/// The kind of an event. The element kinds come first: their
/// discriminant is the kind half of a dispatch key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    Begin,
    End,
    Text,
    StartDoc,
    EndDoc,
}

impl EventKind {
    /// The cells of the element kinds: begin, end and text.
    const ELEMENT_MASK: u32 = 0xFFF;

    /// Where the kind's four offset classes sit in `Pattern::cells`.
    const fn mask(self) -> u32 {
        0xF << (4 * self as u32)
    }
}

/// An event's kind, tag and depth.
fn parts(event: &RawEvent<'_>) -> (EventKind, Option<Sym>, u32) {
    match *event {
        RawEvent::Begin { name, depth, .. } => (EventKind::Begin, Some(name), depth),
        RawEvent::End { name, depth } => (EventKind::End, Some(name), depth),
        RawEvent::Text { element, depth, .. } => (EventKind::Text, Some(element), depth),
        RawEvent::StartDocument => (EventKind::StartDoc, None, 0),
        RawEvent::EndDocument => (EventKind::EndDoc, None, 0),
    }
}

/// Where an accepted event lies relative to the configuration's anchor
/// (§4.3), as the classes of `e.d − dv.top()` it admits, one bit each:
/// below 0, 0, 1, 2 and more.
type Depth = u8;
/// `e.d == dv.top()`: the anchor element's own text and end tag.
const ANCHOR: Depth = 0b0010;
/// `e.d == dv.top() + 1`: a child of the anchor.
const CHILD: Depth = 0b0100;
/// `e.d > dv.top()`: anywhere below the anchor.
const BELOW: Depth = 0b1100;
/// The document brackets.
const ANY_DEPTH: Depth = 0b1111;

/// What an arc label accepts (§3.4's input-symbol pattern under §4.3's
/// depth discipline): its row — and whether it is a transition at all.
/// The `//` self-loop is not: it keeps its pattern, so it overlaps what
/// it would have fired beside, but it compiles to its state's stays bit
/// (`compute_stays`), [`Pattern::accepts`] never accepts it and no
/// dispatch table files it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pattern {
    /// The row's kinds, each as its [`EventKind::mask`].
    kinds: u32,
    /// `None` for `*`.
    name: Option<Sym>,
    depth: Depth,
    transition: bool,
}

impl Pattern {
    /// Does an arc with this pattern accept `event` for a configuration
    /// whose depth vector is `dv`? (Guards are evaluated separately.) Tag
    /// checks are `u32` compares on interned symbols. (A `//` self-loop
    /// accepts nothing: it is the state's stays bit.)
    pub(crate) fn accepts(self, event: &RawEvent<'_>, dv: &DepthVector) -> bool {
        self.transition && self.fits(event, dv)
    }

    /// Does an event fit the pattern, seen from a configuration whose
    /// depth vector is `dv`? (For the `//` self-loop too: see
    /// `transition`.) The anchor is read only when the kind fits.
    fn fits(self, event: &RawEvent<'_>, dv: &DepthVector) -> bool {
        let (kind, tag, depth) = parts(event);
        self.kinds & kind.mask() != 0
            && match self.depth {
                ANCHOR => depth == dv.top(),
                CHILD => depth == dv.top() + 1,
                BELOW => depth > dv.top(),
                _ => true,
            }
            && self.name.is_none_or(|n| tag == Some(n))
    }

    /// The (event kind, offset class) pairs the pattern accepts, one bit
    /// each: the depth's classes under every kind of the row. Two
    /// patterns meet exactly where their cells do and their names meet.
    fn cells(self) -> u32 {
        self.kinds & (u32::from(self.depth) * 0x11111)
    }

    /// The cells an arc fires on: its pattern's, none for the stays bit.
    fn fired(self) -> u32 {
        self.cells() * u32::from(self.transition)
    }

    /// The one kind the pattern accepts, if it accepts one.
    pub(crate) fn kind(self) -> Option<EventKind> {
        use EventKind::*;
        let kinds = [Begin, End, Text, StartDoc, EndDoc];
        kinds.into_iter().find(|k| self.kinds & !k.mask() == 0)
    }

    /// The dispatch buckets the label is filed under: `(kind, name)` per
    /// element kind it accepts, `None` naming the wildcard bucket.
    /// Document brackets reach every state unfiled, and the stays bit is
    /// not a transition: neither files anything.
    pub(crate) fn filings(self) -> impl Iterator<Item = (EventKind, Option<Sym>)> {
        let filed = self.fired() & EventKind::ELEMENT_MASK;
        let kinds = [EventKind::Begin, EventKind::End, EventKind::Text].into_iter();
        kinds.filter_map(move |k| (filed & k.mask() != 0).then_some((k, self.name)))
    }

    /// The dispatch key every event the pattern accepts carries, if they
    /// all carry one: an exact tag on one element kind.
    fn key(self) -> Option<u64> {
        let (kind, name) = self.filings().next()?;
        (self.kinds & !kind.mask() == 0).then_some(event_key(kind, name?))
    }

    /// The cells a configuration anchored above a begin event's parent —
    /// above a text or end event's own element — can fire the label on:
    /// those `RunnerCore::feed_traced` asks only for [`AnyDepthArcs`].
    fn shallow_cells(self) -> u32 {
        // In the begin, end and text nibbles: two levels down and more
        // for a begin, one and more for an end or a text.
        let deeper = u32::from(BELOW & !CHILD);
        let below = u32::from(BELOW);
        let shallow = deeper | below << 4 | below << 8;
        self.fired() & shallow
    }
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

impl Guard {
    /// Does no event pass the guard? Read off its test alone
    /// (`Comparison::unsatisfiable`, `FnTest::unsatisfiable`).
    pub(crate) fn unsatisfiable(&self) -> bool {
        match self {
            Guard::Attr { cmp, .. } | Guard::Text { cmp } => {
                cmp.as_ref().is_some_and(Comparison::unsatisfiable)
            }
            Guard::AttrFn { test, .. } | Guard::TextFn { test } => test.unsatisfiable(),
        }
    }

    /// Evaluate the guard against the event (label already matched).
    pub fn passes(&self, event: &RawEvent<'_>) -> bool {
        match self {
            Guard::Attr { name, cmp } => match event.attribute_sym(*name) {
                None => false,
                Some(v) => cmp.as_ref().is_none_or(|c| c.eval(v)),
            },
            Guard::Text { cmp } => match event {
                RawEvent::Text { text, .. } => cmp.as_ref().is_none_or(|c| c.eval(text)),
                _ => false,
            },
            Guard::AttrFn { name, test } => match event.attribute_sym(*name) {
                None => false,
                Some(v) => test.eval(v),
            },
            Guard::TextFn { test } => match event {
                RawEvent::Text { text, .. } => test.eval(text),
                _ => false,
            },
        }
    }
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
/// BPDT owning the arc. Plain data: the HPDT keeps every arc's actions
/// in one pool (`Hpdt::actions`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

    /// Which queue this action fills, and how (§3.3): a produced value
    /// enqueued in the owner's own queue ([`Fill::Own`], which names no
    /// queue) or in a named one, or a resolved queue's entries uploaded
    /// into a named one. The one place that reads this off the variants;
    /// `&mut` so the builder can re-slot the named queue in place.
    pub(crate) fn fill_mut(&mut self) -> Option<(Fill, Option<&mut QueueRef>)> {
        match self {
            Action::Emit { to, .. } | Action::ElementStart { to, .. } => match to {
                Disposition::Direct => None,
                Disposition::OwnQueue => Some((Fill::Own, None)),
                Disposition::Queue(q) => Some((Fill::Enqueue, Some(q))),
            },
            Action::UploadSelf(q) | Action::ResolveKeyed(Some(q)) => Some((Fill::Upload, Some(q))),
            _ => None,
        }
    }

    /// [`Self::fill_mut`], read through a copy.
    pub(crate) fn fill(&self) -> Option<(Fill, Option<QueueRef>)> {
        let mut action = *self;
        action.fill_mut().map(|(how, queue)| (how, queue.copied()))
    }
}

/// How an action fills a queue ([`Action::fill`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fill {
    /// A produced value, into the owning BPDT's own queue.
    Own,
    /// A produced value, into the nearest undecided ancestor's queue.
    Enqueue,
    /// A resolved queue's entries, moved up into the nearest undecided
    /// ancestor's queue (a keyed resolve uploads too).
    Upload,
}

/// A run of one of the HPDT's pools: `start..end`.
#[derive(Debug, Clone, Copy)]
pub struct PoolRange {
    pub start: u32,
    pub end: u32,
}

impl PoolRange {
    pub fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// One transition arc. Its source state is where it stands in
/// `Hpdt::arcs`; its pattern stands beside it (`Hpdt::patterns`).
#[derive(Debug, Clone, Copy)]
pub struct Arc {
    pub label: ArcLabel,
    /// Index of the arc's guard in `Hpdt::guards`.
    pub guard: Option<u32>,
    pub target: StateId,
    /// The BPDT owning this arc (whose queue `*Self` actions address).
    pub owner: QueueRef,
    /// Place in the execution order among arcs fired by one input event
    /// (ascending; see [`execution_order`]), fixed when the arc is
    /// created.
    pub order: u32,
    /// The arc's run of `Hpdt::actions`.
    pub actions: PoolRange,
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
    /// True when firing this arc changes the configuration's state (the
    /// paper's dv rules only apply to real transitions: `s' ≠ s`).
    pub fn changes_state(&self, source: StateId) -> bool {
        self.target != source
    }
}

/// Each run of a pool grouped by `offsets` (CSR: run `i` is
/// `pool[offsets[i]..offsets[i + 1]]`), in order.
pub(crate) fn runs<'a, T>(pool: &'a [T], offsets: &'a [u32]) -> impl Iterator<Item = &'a [T]> {
    offsets
        .windows(2)
        .map(move |w| &pool[w[0] as usize..w[1] as usize])
}

/// True when firing an arc with these actions sets the open element
/// item of every configuration that takes it alike (whole-element output
/// opening or closing one), which can make configurations that differed
/// only in their item equal.
pub(crate) fn sets_item(actions: &[Action]) -> bool {
    actions
        .iter()
        .any(|a| matches!(a, Action::ElementStart { .. } | Action::ElementEnd))
}

/// Dense dispatch key for a (kind, tag) pair.
pub(crate) fn event_key(kind: EventKind, sym: Sym) -> u64 {
    ((kind as u64) << 32) | sym.index() as u64
}

/// The dispatch key of an event, if it has one (document start/end do
/// not — only `rest` arcs can accept those).
pub(crate) fn raw_event_key(event: &RawEvent<'_>) -> Option<u64> {
    let (kind, tag, _) = parts(event);
    Some(event_key(kind, tag?))
}

/// Keyed index over one state's outgoing arcs. `Pattern::accepts` makes the
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
    /// (`ArcTables::new` applies the cutoff; this is the test hook).
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

/// The arc tables of the states of the HPDT's transition function that
/// have at least the cutoff's arcs; the others are scanned linearly and
/// have no table. `//` self-loops are not transitions (see
/// `compute_stays`) and are filed nowhere.
#[derive(Debug, Clone, Default)]
pub(crate) struct ArcTables {
    /// Per state, the place of its table in `tables` (`u32::MAX`, never
    /// read, for a state below the cutoff); empty when no state has a
    /// table, so an HPDT of small states allocates nothing here.
    slots: Vec<u32>,
    tables: Vec<ArcTable>,
}

impl ArcTables {
    pub(crate) fn new(patterns: &[Pattern], offsets: &[u32]) -> Self {
        let mut built = ArcTables::default();
        let big = runs(patterns, offsets).enumerate();
        for (s, state) in big.filter(|(_, state)| state.len() >= ARC_TABLE_CUTOFF) {
            let mut table = ArcTable::default();
            for (ai, p) in (0u32..).zip(state) {
                match p.key() {
                    Some(key) => table.named.push((key, ai)),
                    None if p.transition => table.rest.push(ai),
                    None => {}
                }
            }
            table.named.sort_unstable();
            if built.slots.is_empty() {
                built.slots = vec![u32::MAX; offsets.len() - 1];
            }
            built.slots[s] = built.tables.len() as u32;
            built.tables.push(table);
        }
        built
    }

    /// The table of `state`, which has `arcs` arcs: none below the
    /// cutoff, and those are not looked up.
    pub(crate) fn of(&self, state: StateId, arcs: usize) -> Option<&ArcTable> {
        if arcs < ARC_TABLE_CUTOFF {
            return None;
        }
        let &slot = self.slots.get(state as usize)?;
        self.tables.get(slot as usize)
    }
}

/// Per state, the arcs that accept an event at *any* depth below the
/// anchor. Every other label pins the anchor to the event's depth, or to
/// the one above for a begin (`Pattern::accepts`), so a configuration
/// anchored any shallower can fire only these — which most states, and
/// most HPDTs, do not have.
/// Stored flat: one allocation pair per HPDT, none for an HPDT without
/// closures or whole-element output.
#[derive(Debug, Clone, Default)]
pub(crate) struct AnyDepthArcs {
    /// Per state, where its begin-event run and its text/end-event run
    /// start in `arcs`; a sentinel closes the last state's. Empty when
    /// `arcs` is.
    spans: Vec<(u32, u32)>,
    /// Arc indices, each run ascending — first-match stays first-match.
    arcs: Vec<u32>,
    /// The dispatch keys those arcs are filed under, sorted, and per
    /// element kind whether one of them is a wildcard.
    keys: Vec<u64>,
    wild: [bool; 3],
}

impl AnyDepthArcs {
    pub(crate) fn new(patterns: &[Pattern], offsets: &[u32]) -> Self {
        let mut index = AnyDepthArcs::default();
        for p in patterns.iter().filter(|p| p.shallow_cells() != 0) {
            let shallow = p.shallow_cells();
            for (kind, name) in p.filings().filter(|(k, _)| shallow & k.mask() != 0) {
                match name {
                    Some(name) => index.keys.push(event_key(kind, name)),
                    None => index.wild[kind as usize] = true,
                }
            }
        }
        if index.keys.is_empty() && index.wild == [false; 3] {
            return index;
        }
        index.keys.sort_unstable();
        index.keys.dedup();
        index.spans.reserve_exact(offsets.len());
        for state in runs(patterns, offsets) {
            let indices_of = |run: u32| {
                (0u32..)
                    .zip(state)
                    .filter_map(move |(ai, p)| (p.shallow_cells() & run != 0).then_some(ai))
            };
            let at = index.arcs.len() as u32;
            index.arcs.extend(indices_of(EventKind::Begin.mask()));
            index.spans.push((at, index.arcs.len() as u32));
            index.arcs.extend(indices_of(!EventKind::Begin.mask()));
        }
        let end = index.arcs.len() as u32;
        index.spans.push((end, end));
        index
    }

    /// Can some state's any-depth arc accept an event with dispatch
    /// `key`? If not, no configuration anchored above a begin event's
    /// parent, or above a text or end event's element, has anything to
    /// fire.
    pub(crate) fn may_accept(&self, key: Option<u64>) -> bool {
        key.is_some_and(|k| self.wild[(k >> 32) as usize] || self.keys.binary_search(&k).is_ok())
    }

    /// The arcs of `state` that can accept a begin event (`begin`) from
    /// a configuration anchored above the event's parent, or a text or
    /// end event from one anchored above the event's own element.
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
pub(crate) fn compute_stays(patterns: &[Pattern], offsets: &[u32]) -> Vec<bool> {
    runs(patterns, offsets)
        .map(|outgoing| outgoing.iter().any(|p| !p.transition))
        .collect()
}

/// Per state: could two outgoing arcs accept one event? Two labels
/// overlap exactly when their patterns share a cell and their names
/// meet (`Pattern::cells`) — the `//` self-loop by its pattern too.
/// Where none do, a deterministic runtime may stop at the first matching
/// arc (the XSQ-NC fast path of §6.2). Named patterns are bucketed by
/// name, so a state costs its arcs, not their pairs. Lazy, so the
/// verifier compares without storing the flags.
pub(crate) fn compute_scan_all<'a>(
    patterns: &'a [Pattern],
    offsets: &'a [u32],
) -> impl Iterator<Item = bool> + 'a {
    let mut buckets = Vec::new();
    runs(patterns, offsets).map(move |outgoing| {
        // A wildcard meets every name: its cells against all others'.
        let (mut wild, mut taken, mut shared) = (0, 0, false);
        for &p in outgoing {
            let cells = p.cells();
            match p.name {
                None if taken & cells != 0 => return true,
                None => wild |= cells,
                Some(_) if wild & cells != 0 => return true,
                Some(_) => {}
            }
            // Only a name sharing a cell with another name gets here.
            shared |= taken & cells != 0;
            taken |= cells;
        }
        // Two names meet when they are one name: bucket by name, and a
        // bucket overlaps when its cells do not add up to its union.
        shared && {
            buckets.clear();
            buckets.reserve(outgoing.len());
            let of = |p: &Pattern| Some((p.name?.index(), p.cells()));
            buckets.extend(outgoing.iter().filter_map(of));
            buckets.sort_unstable();
            buckets.chunk_by(|a, b| a.0 == b.0).any(|bucket| {
                let union = bucket.iter().fold(0, |union, &(_, cells)| union | cells);
                let sum: u32 = bucket.iter().map(|&(_, cells)| cells.count_ones()).sum();
                union.count_ones() < sum
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::LazyLock;
    use xsq_xml::{Attribute, RawEvent};
    use xsq_xpath::value::XPathValue;
    use xsq_xpath::{CmpOp, Comparison};

    static ID_5: LazyLock<[Attribute; 1]> = LazyLock::new(|| [Attribute::new("id", "5")]);

    fn begin(name: &str, depth: u32) -> RawEvent<'static> {
        RawEvent::Begin {
            name: name.into(),
            attributes: &*ID_5,
            depth,
        }
    }

    fn text<'a>(element: &str, content: &'a str, depth: u32) -> RawEvent<'a> {
        RawEvent::Text {
            element: element.into(),
            text: content,
            depth,
        }
    }

    fn end(name: &str, depth: u32) -> RawEvent<'static> {
        RawEvent::End {
            name: name.into(),
            depth,
        }
    }

    fn arc(label: ArcLabel) -> Pattern {
        label.pattern()
    }

    fn matches(a: &Pattern, ev: &RawEvent<'_>, dv: &DepthVector) -> bool {
        a.accepts(ev, dv)
    }

    /// Per-state pattern lists, stored as the HPDT stores them: one
    /// column and its CSR offsets.
    fn flat(states: &[Vec<Pattern>]) -> (Vec<Pattern>, Vec<u32>) {
        let mut offsets = vec![0];
        for state in states {
            offsets.push(offsets[offsets.len() - 1] + state.len() as u32);
        }
        (states.concat(), offsets)
    }

    fn stays(states: &[Vec<Pattern>]) -> Vec<bool> {
        let (patterns, offsets) = flat(states);
        compute_stays(&patterns, &offsets)
    }

    fn scan_all(states: &[Vec<Pattern>]) -> Vec<bool> {
        let (patterns, offsets) = flat(states);
        compute_scan_all(&patterns, &offsets).collect()
    }

    /// The table of a state, if it gets one.
    fn table_of(state: &[Pattern]) -> Option<ArcTable> {
        let (patterns, offsets) = flat(&[state.to_vec()]);
        let tables = ArcTables::new(&patterns, &offsets);
        assert_eq!(tables.slots.len(), tables.tables.len());
        tables.of(0, state.len()).cloned()
    }

    fn any_depth(states: &[Vec<Pattern>]) -> AnyDepthArcs {
        let (patterns, offsets) = flat(states);
        AnyDepthArcs::new(&patterns, &offsets)
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
        let states = [vec![a, entry, a], vec![entry]];
        assert_eq!(stays(&states), [true, false]);
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
            execution_order(3, &[Action::ElementEnd, emit]),
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
        let guard = Guard::Attr {
            name: "id".into(),
            cmp: None,
        };
        assert!(guard.passes(&begin("b", 1)));
        let guard = Guard::Attr {
            name: "id".into(),
            cmp: Some(Comparison {
                op: CmpOp::Le,
                rhs: XPathValue::number(10.0),
            }),
        };
        assert!(guard.passes(&begin("b", 1))); // id=5 <= 10
        let guard = Guard::Attr {
            name: "missing".into(),
            cmp: None,
        };
        assert!(!guard.passes(&begin("b", 1)));
    }

    #[test]
    fn text_guard_evaluates_content() {
        let guard = Guard::Text {
            cmp: Some(Comparison {
                op: CmpOp::Gt,
                rhs: XPathValue::number(2000.0),
            }),
        };
        assert!(guard.passes(&text("year", "2002", 1)));
        assert!(!guard.passes(&text("year", "1999", 1)));
        assert!(!guard.passes(&begin("year", 1)));
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
        arcs_of_state.push(arc(ArcLabel::TextSelf(NamePat::Name("t3".into()))));
        arcs_of_state.push(arc(ArcLabel::StartDoc));
        let table = table_of(&arcs_of_state).expect("above cutoff");
        assert!(table.worthwhile());

        let events = [
            begin("t3", 2),
            begin("t7", 2),
            begin("unknown", 2),
            end("t3", 1),
            text("t3", "v", 2),
            RawEvent::StartDocument,
        ];
        let dv = DepthVector::from_depths(&[0, 1]);
        let mut got = Vec::new();
        for ev in &events {
            table.candidates(raw_event_key(ev), &mut got);
            // Keyed dispatch is an over-approximation of `Pattern::accepts`:
            // every arc the linear scan would fire must be a candidate,
            // and candidates stay in ascending arc order.
            for (ai, a) in arcs_of_state.iter().enumerate() {
                if a.accepts(ev, &dv) {
                    assert!(got.contains(&(ai as u32)), "missing arc {ai} for {ev:?}");
                }
            }
            assert!(got.windows(2).all(|w| w[0] < w[1]), "order for {ev:?}");
        }

        // Small states skip the table entirely.
        assert!(table_of(&[arc(ArcLabel::Catchall)]).is_none());
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
            ArcLabel::BeginAnyDepth(NamePat::Any),
            ArcLabel::EndDoc,
        ];
        let states = [
            vec![arc(ArcLabel::TextSelf(NamePat::Any))],
            labels.iter().cloned().map(arc).collect::<Vec<_>>(),
        ];
        let index = any_depth(&states);
        assert_eq!(index.of(1, true), [1, 3, 6]);
        assert_eq!(index.of(1, false), [3]);
        assert!(index.of(0, true).is_empty() && index.of(0, false).is_empty());
        // An HPDT without such arcs stores nothing and answers alike.
        let none = any_depth(&states[..1]);
        assert!(none.spans.is_empty() && none.of(0, true).is_empty());
        // Which events a shallower anchor can fire on at all: with a
        // catchall or `=<*>`, every begin (and with a catchall every other
        // event); with named entry arcs alone, a begin of those names.
        let key = |n: &str| raw_event_key(&begin(n, 3));
        let text_key = raw_event_key(&text("a", "t", 3));
        assert!(index.may_accept(key("zz")) && index.may_accept(text_key));
        let named = any_depth(&[vec![arc(ArcLabel::BeginAnyDepth(name("a")))]]);
        assert!(named.may_accept(key("a")));
        assert!(!named.may_accept(key("b")) && !named.may_accept(text_key));
        assert!(!none.may_accept(key("a")) && !none.may_accept(None));
        // The lists are exact: anchored at depth 1, a begin at depth 3,
        // or a text or end at depth 2, is accepted by those arcs and no
        // others.
        let dv = DepthVector::from_depths(&[0, 1]);
        for (ev, begin) in [
            (begin("a", 3), true),
            (text("a", "t", 2), false),
            (end("a", 2), false),
        ] {
            let accepted: Vec<u32> = (0u32..)
                .zip(&states[1])
                .filter_map(|(ai, a)| matches(a, &ev, &dv).then_some(ai))
                .collect();
            assert_eq!(accepted, index.of(1, begin), "{ev:?}");
        }
    }

    /// Every label form, with the names `a` and `b` and the `*` pattern
    /// where it takes one. The `match` fails to compile when a variant is
    /// added, so the oracle below cannot miss it.
    fn every_label() -> Vec<ArcLabel> {
        let _every_variant = |l: &ArcLabel| match l {
            ArcLabel::StartDoc
            | ArcLabel::EndDoc
            | ArcLabel::BeginChild(_)
            | ArcLabel::BeginAnyDepth(_)
            | ArcLabel::ClosureSelfLoop
            | ArcLabel::End(_)
            | ArcLabel::TextSelf(_)
            | ArcLabel::Catchall => {}
        };
        let mut labels = vec![
            ArcLabel::StartDoc,
            ArcLabel::EndDoc,
            ArcLabel::ClosureSelfLoop,
            ArcLabel::Catchall,
        ];
        for p in [
            NamePat::Name("a".into()),
            NamePat::Name("b".into()),
            NamePat::Any,
        ] {
            labels.extend([
                ArcLabel::BeginChild(p),
                ArcLabel::BeginAnyDepth(p),
                ArcLabel::End(p),
                ArcLabel::TextSelf(p),
            ]);
        }
        labels
    }

    /// The anchor the universe is seen from.
    const TOP: u32 = 2;

    /// Every event kind, two names, depths `TOP − 1` to `TOP + 2` (the
    /// document brackets have depth 0).
    fn every_event() -> Vec<RawEvent<'static>> {
        let mut events = vec![RawEvent::StartDocument, RawEvent::EndDocument];
        for name in ["a", "b"] {
            for d in TOP - 1..=TOP + 2 {
                events.extend([begin(name, d), text(name, "t", d), end(name, d)]);
            }
        }
        events
    }

    fn kind_of(event: &RawEvent<'_>) -> EventKind {
        match event {
            RawEvent::Begin { .. } => EventKind::Begin,
            RawEvent::End { .. } => EventKind::End,
            RawEvent::Text { .. } => EventKind::Text,
            RawEvent::StartDocument => EventKind::StartDoc,
            RawEvent::EndDocument => EventKind::EndDoc,
        }
    }

    /// The label's row read as a set: its kinds, its name, and its
    /// depth relative to the anchor at `TOP`. Ignores `transition`.
    fn described(l: &ArcLabel, ev: &RawEvent<'_>) -> bool {
        let Pattern {
            kinds, name, depth, ..
        } = l.pattern();
        let d = ev.depth();
        let at = match depth {
            ANY_DEPTH => true,
            ANCHOR => d == TOP,
            CHILD => d == TOP + 1,
            BELOW => d > TOP,
            _ => unreachable!("a depth no row uses"),
        };
        let name = name.is_none_or(|n| ev.name_sym() == Some(n));
        kinds & kind_of(ev).mask() != 0 && name && at
    }

    /// Exhaustive over the universe above: what `Pattern::accepts`
    /// accepts, which states `compute_scan_all` flags, and where every
    /// dispatch table files a label are all what the label's pattern
    /// says.
    #[test]
    fn every_consumer_of_a_label_agrees_with_its_pattern() {
        let (labels, events) = (every_label(), every_event());
        let dv = DepthVector::from_depths(&[0, TOP]);
        let accepts = |l: &ArcLabel, ev: &RawEvent<'_>| arc(*l).accepts(ev, &dv);
        for l in &labels {
            let p = l.pattern();
            for ev in &events {
                assert_eq!(
                    accepts(l, ev),
                    p.transition && described(l, ev),
                    "{l:?} on {ev:?}"
                );
                assert_eq!(p.fits(ev, &dv), described(l, ev), "{l:?} on {ev:?}");
            }
        }

        // Two labels overlap exactly when some event fits both; a state
        // is flagged exactly when two of its labels overlap. States: every
        // set of up to four labels.
        let overlap: Vec<Vec<bool>> = labels
            .iter()
            .map(|x| {
                let both = |y| events.iter().any(|e| described(x, e) && described(y, e));
                labels.iter().map(both).collect()
            })
            .collect();
        let sets: Vec<u32> = (0u32..1 << labels.len())
            .filter(|set| set.count_ones() <= 4)
            .collect();
        let states: Vec<Vec<Pattern>> = (sets.iter())
            .map(|&set| {
                let members = labels
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| set & (1 << i) != 0);
                members.map(|(_, l)| arc(*l)).collect()
            })
            .collect();
        let flags = scan_all(&states);
        for ((set, flagged), state) in sets.iter().zip(flags).zip(&states) {
            let members: Vec<usize> = (0..labels.len()).filter(|i| set & (1 << i) != 0).collect();
            let want = members
                .iter()
                .enumerate()
                .any(|(k, &i)| members[k + 1..].iter().any(|&j| overlap[i][j]));
            assert_eq!(flagged, want, "{state:?}");
        }
        for (i, l) in labels.iter().enumerate() {
            let pair = scan_all(&[vec![arc(*l), arc(*l)]]);
            assert_eq!(pair[0], overlap[i][i], "{l:?} twice");
        }

        // Filing. The keys of the events a label accepts, and from a
        // configuration anchored above a begin event's parent (above a
        // text or end event's element) — the ones `feed_traced` does not
        // probe.
        let keys: Vec<Option<u64>> = events.iter().map(raw_event_key).collect();
        let from_above = |ev: &RawEvent<'_>| match ev {
            RawEvent::End { depth, .. } | RawEvent::Text { depth, .. } => *depth > TOP,
            RawEvent::Begin { depth, .. } => *depth > TOP + 1,
            RawEvent::StartDocument | RawEvent::EndDocument => false,
        };
        for l in &labels {
            let taken = |shallow: bool| {
                let mut k: Vec<Option<u64>> = (events.iter().zip(&keys))
                    .filter(|(ev, _)| accepts(l, ev) && (!shallow || from_above(ev)))
                    .map(|(_, &key)| key)
                    .collect();
                k.sort_unstable();
                k.dedup();
                k
            };
            let (accepted, shallow) = (taken(false), taken(true));
            // The query index's buckets, a wildcard standing for both
            // names: exactly the accepted keys (document events, which
            // have none, reach every group unfiled).
            let mut filed: Vec<Option<u64>> = l
                .pattern()
                .filings()
                .flat_map(|(kind, name)| match name {
                    Some(n) => vec![Some(event_key(kind, n))],
                    None => ["a", "b"].map(|n| Some(event_key(kind, n.into()))).to_vec(),
                })
                .collect();
            filed.sort_unstable();
            let accepted_keys: Vec<Option<u64>> =
                accepted.iter().copied().filter(Option::is_some).collect();
            assert_eq!(filed, accepted_keys, "{l:?} filings");
            // A state's arc table files it under its one key, probes it
            // for every event when it accepts several (or an unkeyed
            // document event), and never when it accepts none.
            let table = table_of(&[arc(*l); ARC_TABLE_CUTOFF]).expect("at the cutoff");
            let mut got = Vec::new();
            for key in keys.iter().copied().chain([None]) {
                table.candidates(key, &mut got);
                let want = match &accepted[..] {
                    [] => false,
                    [Some(only)] => key == Some(*only),
                    _ => true,
                };
                assert_eq!(!got.is_empty(), want, "{l:?} table under {key:?}");
            }
            // The any-depth runs hold it exactly when a shallower anchor
            // can fire it, and `may_accept` says which keys can.
            let index = any_depth(&[vec![arc(*l)]]);
            let run = |kinds: &[EventKind]| {
                let fires = events
                    .iter()
                    .any(|ev| kinds.contains(&kind_of(ev)) && from_above(ev) && accepts(l, ev));
                if fires {
                    vec![0]
                } else {
                    vec![]
                }
            };
            assert_eq!(
                index.of(0, true),
                run(&[EventKind::Begin]),
                "{l:?} begin run"
            );
            let other = run(&[EventKind::End, EventKind::Text]);
            assert_eq!(index.of(0, false), other, "{l:?} text/end run");
            for key in keys.iter().copied().chain([None]) {
                let want = key.is_some() && shallow.contains(&key);
                assert_eq!(index.may_accept(key), want, "{l:?} may_accept {key:?}");
            }
        }
    }

    #[test]
    fn labels_print_in_the_paper_notation() {
        let shown: Vec<String> = every_label().iter().map(ToString::to_string).collect();
        assert_eq!(
            shown,
            [
                "<root>",
                "</root>",
                "//",
                "*̄",
                "<a>",
                "=<a>",
                "</a>",
                "<a.text()>",
                "<b>",
                "=<b>",
                "</b>",
                "<b.text()>",
                "<*>",
                "=<*>",
                "</*>",
                "<*.text()>"
            ]
        );
    }
}
