//! The HPDT runtime (§4.3): configurations, transitions, buffer actions.
//!
//! A *configuration* is a `(state, depth-vector)` pair plus, for
//! whole-element output, the item currently being serialized. The
//! nondeterministic runtime (XSQ-F) keeps a set of configurations: every
//! arc whose label, depth discipline, and guard accept the event fires,
//! each producing a successor; configurations that match nothing simply
//! ignore the event (the paper's rule).
//!
//! **The set is the stack.** Every depth test an arc makes compares the
//! event's depth with the top of the configuration's depth vector — its
//! *anchor*: a child's begin needs `top == d − 1`, the anchor's own text
//! or end needs `top == d`, and only a closure entry arc and the
//! catchall accept a shallower anchor. So the duplicate-free set (§4.3:
//! closures can re-derive the same `(state, dv)` along several arcs) is
//! kept ordered by `(top, state, dv, item)`, which makes it the element
//! stack: the configurations an event can address are the tail of the
//! vector. An event probes the arcs of that tail, asks every shallower
//! configuration only for its state's any-depth arcs
//! (`arcs::AnyDepthArcs`, usually an empty slice), and
//! rewrites the set only from the first place it changes — for a begin
//! event in a recursive document that is the end: successors anchored at
//! the new depth are appended.
//!
//! An event costs what it moves. The `//` self-loop never fires: it is a
//! per-state *stays* bit, read only for a configuration some other arc
//! moved, which then survives beside its successors — so a closure state
//! pays nothing for the begin events it merely descends past, and a
//! configuration nothing matched is not looked at again: it survives
//! where it is. Three rules make the common steps cost that little:
//!
//! * **Decide first, keep books after.** A feed looks for matches before
//!   it touches anything else, and an event nothing matches (§4.3: the
//!   configurations "simply ignore" it) returns there: no per-event
//!   anchor reset in the item store, no drain, no recycling check —
//!   nothing can have become determined since the previous event's
//!   drain. Only a tracer still hears of it.
//! * **Lock-step runs step once.** A closure over recursive data keeps
//!   *k* configurations in one state anchored at one element — one per
//!   enclosing match — and they sit together in the set, a run of equal
//!   `(top, state)`. Which arcs a configuration takes, and whether it
//!   survives, depend on its state, its anchor and the event only, so a
//!   run is matched, survived, sorted and merged once; only the depth
//!   vector's push or pop and the actions that scope by prefix run per
//!   member (`step_arc`). On `match_recursive` an event that fires fires
//!   ≈ 17 arcs in ≈ 4.4 runs. A run that leaves along one arc is
//!   rewritten where it stands (the top-down order of depth vectors
//!   keeps it ascending), and moves only if it fell out of order.
//! * **One run, one arc, in place.** When exactly one run took one arc —
//!   for a lone configuration, the deterministic step §6.2 prices at one
//!   lookup — there are no use counts and no sort. The general step is
//!   also what every traced run takes.
//!
//! Two orderings matter:
//!
//! * Within one input event, matched arcs execute **deepest layer first**,
//!   so that an inner element's upload lands in an ancestor's queue before
//!   that ancestor's own flush/clear runs on the same event (this is why
//!   Fig. 8 resolves `[child]` on `</child>`) — the order each arc
//!   carries, resolved when it was created ([`crate::arcs::Arc::order`]).
//! * Result emission is globally ordered by the item store (document
//!   order), independent of when predicates resolve.
//!
//! The deterministic fast path (XSQ-NC, §6.2) runs the same machinery but
//! stops scanning a state's arcs at the first match — the paper's "XSQ-NC
//! can stop searching after it finds one match". Which path runs is read
//! off the automaton: first-match wherever `hpdt.deterministic` holds and
//! the state's arcs cannot overlap (`!hpdt.scan_all[state]`), so a solo
//! runner and an index group over the same HPDT run alike.
//!
//! The runtime state lives in [`RunnerCore`], which borrows the compiled
//! [`Hpdt`] only for the duration of each call — that is what lets the
//! multi-query index own `Arc<Hpdt>`s and runner states side by side with
//! no self-referential borrows. [`Runner`] is the single-query facade
//! that pairs a core with one `&Hpdt` for the classic borrowed API.

use std::ops::Range;

use xsq_xml::RawEvent;
use xsq_xpath::Output;

use crate::aggregate::Aggregator;
use crate::arcs::{Action, Disposition, QueueRef, StateId, ValueSource};
use crate::buffers::QueueSet;
use crate::build::Hpdt;
use crate::depth_vector::DepthVector;
use crate::items::{ItemId, ItemStore};
use crate::report::MemoryStats;
use crate::sink::{QueryId, QuerySink, Sink};
use crate::trace::TraceStep;

/// One runtime configuration. Field order is sort order: by anchor
/// depth first (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Config {
    /// `dv.top()`, the depth of the open element this configuration is
    /// anchored at.
    top: u32,
    state: StateId,
    dv: DepthVector,
    /// Open element item being serialized (whole-element output only).
    item: Option<ItemId>,
}

/// `Config::state` of a configuration that left the set during the
/// current event, until the merge drops it.
const LEFT: StateId = StateId::MAX;

/// Take `c` out of the set, leaving it marked [`LEFT`].
fn leave(c: &mut Config) -> Config {
    Config {
        state: std::mem::replace(&mut c.state, LEFT),
        dv: std::mem::take(&mut c.dv),
        ..*c
    }
}

impl Config {
    fn new(state: StateId, dv: DepthVector, item: Option<ItemId>) -> Self {
        Config {
            top: dv.top(),
            state,
            dv,
            item,
        }
    }

    fn start(hpdt: &Hpdt) -> Self {
        Config::new(hpdt.start, DepthVector::new(), None)
    }
}

/// Statistics of one completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// SAX events processed (including the document brackets).
    pub events: u64,
    /// Results emitted (for aggregations: 1 per aggregation query, the
    /// final value).
    pub results: u64,
    /// Arcs fired, one per configuration that took one (a `//` self-loop
    /// is not an arc that fires).
    pub firings: u64,
    /// Arcs fired, counted once per lock-step run: *k* configurations of
    /// one state anchored at one element that take an arc together are
    /// one step and *k* firings.
    pub steps: u64,
    /// Runs whose arcs were probed in full, summed over the events that
    /// fired something: the runs in the tail of the set an event could
    /// address. Stays below `firings` while a step touches what moves.
    pub probed: u64,
    /// Peak memory held by the engine.
    pub memory: MemoryStats,
}

/// The runtime state of one HPDT evaluation, decoupled from the compiled
/// automaton: every method takes the `Hpdt` as a parameter, so callers
/// decide how the automaton is owned (plain borrow in [`Runner`],
/// `Arc<Hpdt>` in the multi-query index).
///
/// Results leave through a [`QuerySink`]; for an ordinary single-query
/// HPDT every result carries `QueryId(0)`, while a merged multi-query
/// HPDT labels each result `QueryId(t)`, `t` the index of its
/// originating query in `hpdt.merged`.
pub struct RunnerCore {
    /// Mirror of `hpdt.buffered`: when false, buffer-necessity analysis
    /// proved no action ever enqueues, so no queues are allocated and the
    /// flush/upload/clear actions (which still exist on some arcs) are
    /// statically known no-ops.
    buffered: bool,
    configs: Vec<Config>,
    items: ItemStore,
    queues: QueueSet,
    /// Per-tag aggregation state (`aggs[t]` is `Some` iff `merged[t]` is
    /// an aggregation query).
    aggs: Vec<Option<Aggregator>>,
    agg_count: usize,
    /// Events fed this document; the current one's ordinal.
    events: u64,
    results: u64,
    firings: u64,
    steps: u64,
    probed: u64,
    peak_configs: usize,
    // Scratch buffers reused across events (the hot loop allocates
    // nothing on the no-match and single-match paths, and nothing on the
    // match path either once capacities have warmed up).
    /// `(arc order, state, run start, run length, arc)` per match of a
    /// run: sorts into execution order as plain integers.
    scratch_matches: Vec<(u32, StateId, u32, u32, u32)>,
    /// Per run, at its first position: how many matched arcs have yet to
    /// read it. All zero between events.
    scratch_uses: Vec<u32>,
    scratch_candidates: Vec<u32>,
    scratch_ser: String,
    scratch_successors: Vec<Config>,
    /// The runs phase 2 rewrote in place, with the state and arc that
    /// moved them.
    scratch_rewritten: Vec<(Range<usize>, StateId, u32)>,
    spare_configs: Vec<Config>,
}

/// The scope-prefix length of every queue the runtime allocates: none
/// when buffer-necessity analysis proved nothing ever enqueues.
fn queue_scopes(hpdt: &Hpdt) -> impl ExactSizeIterator<Item = usize> + '_ {
    let queues = if hpdt.buffered { &hpdt.queues[..] } else { &[] };
    queues.iter().map(|q| q.layer as usize + 1)
}

fn make_aggs(hpdt: &Hpdt) -> (Vec<Option<Aggregator>>, usize) {
    let aggs: Vec<Option<Aggregator>> = hpdt
        .merged
        .iter()
        .map(|q| match &q.output {
            Output::Aggregate(f) => Some(Aggregator::new(*f)),
            _ => None,
        })
        .collect();
    let count = aggs.iter().filter(|a| a.is_some()).count();
    (aggs, count)
}

/// Does `//` keep a configuration that fired an arc searching where it
/// is? The self-loop's own depth test: a begin event below the anchor.
fn closure_keeps(hpdt: &Hpdt, state: StateId, event: &RawEvent<'_>, top: u32) -> bool {
    hpdt.stays[state as usize] && matches!(event, RawEvent::Begin { depth, .. } if *depth > top)
}

impl RunnerCore {
    /// Create runtime state for a compiled HPDT.
    pub fn new(hpdt: &Hpdt) -> Self {
        let (aggs, agg_count) = make_aggs(hpdt);
        RunnerCore {
            buffered: hpdt.buffered,
            configs: vec![Config::start(hpdt)],
            items: ItemStore::new(),
            queues: QueueSet::new(queue_scopes(hpdt)),
            aggs,
            agg_count,
            events: 0,
            results: 0,
            firings: 0,
            steps: 0,
            probed: 0,
            peak_configs: 1,
            scratch_matches: Vec::new(),
            scratch_uses: Vec::new(),
            scratch_candidates: Vec::new(),
            scratch_ser: String::new(),
            scratch_successors: Vec::new(),
            scratch_rewritten: Vec::new(),
            spare_configs: Vec::new(),
        }
    }

    /// Reset to the start state for a fresh document, keeping the
    /// allocated scratch buffers (multi-document feeds).
    pub fn reset(&mut self, hpdt: &Hpdt) {
        self.configs.clear();
        self.configs.push(Config::start(hpdt));
        self.items.reset();
        self.buffered = hpdt.buffered;
        self.queues.reset(queue_scopes(hpdt));
        // Reset the aggregators in place when the shape still matches
        // this HPDT (the usual multi-document reuse); rebuilding is only
        // needed when the caller swapped automata under the core.
        let shape_ok = self.aggs.len() == hpdt.merged.len()
            && self
                .aggs
                .iter()
                .zip(&hpdt.merged)
                .all(|(a, q)| a.is_some() == matches!(q.output, Output::Aggregate(_)));
        if shape_ok {
            for (agg, q) in self.aggs.iter_mut().zip(&hpdt.merged) {
                if let (Some(agg), Output::Aggregate(f)) = (agg, &q.output) {
                    agg.reset(*f);
                }
            }
        } else {
            let (aggs, agg_count) = make_aggs(hpdt);
            self.aggs = aggs;
            self.agg_count = agg_count;
        }
        self.events = 0;
        self.results = 0;
        self.firings = 0;
        self.steps = 0;
        self.probed = 0;
        // The config high-water mark is per-document, like the item and
        // queue peaks the fresh stores reset above; without this a
        // reused runner reports the previous document's peak.
        self.peak_configs = 1;
    }

    /// Process one borrowed SAX event, pushing any newly determined
    /// results into the sink. Returns `true` when an arc fired — the only
    /// way the configuration set moves (the dispatch index re-marks a
    /// runner's live states on it); a begin event a closure state merely
    /// descends past returns `false`. This is the zero-copy hot path: an
    /// event no arc accepts performs no heap allocation.
    pub fn feed_raw(
        &mut self,
        hpdt: &Hpdt,
        event: &RawEvent<'_>,
        sink: &mut dyn QuerySink,
    ) -> bool {
        self.feed_traced(hpdt, event, sink, None)
    }

    /// [`Self::feed_raw`] with an optional execution tracer (`--trace`;
    /// see [`crate::trace`]). Zero cost when `tracer` is `None`.
    pub fn feed_traced(
        &mut self,
        hpdt: &Hpdt,
        event: &RawEvent<'_>,
        sink: &mut dyn QuerySink,
        tracer: Option<&mut dyn FnMut(TraceStep)>,
    ) -> bool {
        self.events += 1;

        // Phase 1: find every (run, arc) match. The set is ordered by
        // anchor depth, so the configurations whose child, own-text or
        // own-end arcs the event can satisfy are its tail — anchored at a
        // begin event's parent, at a text or end event's own element (no
        // label but an any-depth one accepts a text below its anchor);
        // those probe their arcs — a high-fanout state (a merged frontier
        // with one named arc per query) through its keyed table, so it
        // costs the arcs filed under the event's key, not all of them. A
        // shallower configuration can only fire an arc that accepts any
        // depth below its anchor — most states have none, and when no
        // state has one for this event the shallower part is not visited
        // at all. A run of equal `(top, state)` probes once, through its
        // first member: a label reads only the anchor and a guard only the
        // event.
        self.scratch_matches.clear();
        let key = crate::arcs::raw_event_key(event);
        let (floor, begin) = match event {
            RawEvent::Begin { depth, .. } => (depth.saturating_sub(1), true),
            RawEvent::Text { depth, .. } | RawEvent::End { depth, .. } => (*depth, false),
            RawEvent::StartDocument | RawEvent::EndDocument => (0, false),
        };
        let tail = self.configs.partition_point(|c| c.top < floor);
        let (mut probed, mut firings) = (0, 0);
        let mut start = if hpdt.any_depth.may_accept(key) {
            0
        } else {
            tail
        };
        while let Some(cfg) = self.configs.get(start) {
            let len = self.configs[start..]
                .iter()
                .position(|c| (c.top, c.state) != (cfg.top, cfg.state))
                .unwrap_or(self.configs.len() - start);
            let arcs = &hpdt.arcs[cfg.state as usize];
            let candidates = if start < tail {
                hpdt.any_depth.of(cfg.state, begin)
            } else {
                probed += 1;
                if let Some(table) = &hpdt.arc_tables[cfg.state as usize] {
                    // Keyed candidates come out in ascending arc order, so
                    // stop-early sees the same first match as a scan.
                    table.candidates(key, &mut self.scratch_candidates);
                    &self.scratch_candidates
                } else {
                    &crate::arcs::LINEAR_SCAN[..arcs.len()]
                }
            };
            let stop_early = hpdt.deterministic && !hpdt.scan_all[cfg.state as usize];
            for &ai in candidates {
                let arc = &arcs[ai as usize];
                if arc.label_matches(event, &cfg.dv) && arc.guard_passes(event) {
                    firings += len as u64;
                    self.scratch_matches
                        .push((arc.order, cfg.state, start as u32, len as u32, ai));
                    if stop_early {
                        break;
                    }
                }
            }
            start += len;
        }
        if self.scratch_matches.is_empty() {
            // Every configuration ignores the event (the common case on
            // data the query does not touch): nothing moves, and nothing
            // is looked at — the item store, the queues and the sink are
            // where the previous event's drain left them.
            if let Some(tracer) = tracer {
                self.emit_trace(event, Vec::new(), tracer);
            }
            return false;
        }
        self.items.begin_event(self.events);
        self.steps += self.scratch_matches.len() as u64;
        self.firings += firings;
        self.probed += probed;

        // Phases 2 and 3, on the same path traced or not. Trace steps are
        // materialized only when a tracer is attached; the untraced paths
        // never touch `FiredArc`.
        let traced = tracer.is_some();
        let fired = match &self.scratch_matches[..] {
            &[(_, state, start, len, ai)] => {
                let mut fired = Vec::new();
                let run = start as usize..(start + len) as usize;
                self.step_in_place(hpdt, event, state, run, ai, traced.then_some(&mut fired));
                fired
            }
            _ => self.step_set(hpdt, event, traced),
        };
        self.peak_configs = self.peak_configs.max(self.configs.len());
        #[cfg(debug_assertions)]
        self.assert_invariants();

        // Emit whatever is now determined, in document order.
        self.drain(sink);

        // Quiescent-point recycling: when every item produced so far has
        // left the store (emitted or dead), no queue entry holds a
        // reference, and no configuration is mid-serialization, all
        // outstanding `ItemId`s are spent — the store's arena can be
        // reused wholesale. On per-record streams this point recurs at
        // every record boundary, which is what keeps the matching steady
        // state allocation-free.
        if self.items.recyclable() && self.configs.iter().all(|c| c.item.is_none()) {
            self.items.recycle();
        }

        if let Some(tracer) = tracer {
            self.emit_trace(event, fired, tracer);
        }
        true
    }

    /// One fired arc, for one member `c` of the run that took it, which
    /// becomes its successor in place: the depth-vector discipline (§4.3)
    /// around the arc's actions. Real transitions push the depth of a
    /// begin event and pop at an end event — the same depth, or the same
    /// top, for every member — while self-loops and text events leave the
    /// vector unchanged. Actions see the "inside" vector — after the push,
    /// before the pop — which is what tells members' buckets apart.
    ///
    /// Inlined into [`Self::step_members`], and [`Self::execute`] into it.
    /// As a call, under the release profile (fat LTO, one codegen unit),
    /// it reads `match_recursive` throughput 0.90× — ≈ 17 firings (4.4
    /// steps) a fired event — in 4 alternating referee pairs, 0 won.
    #[inline(always)]
    fn step_arc(
        &mut self,
        hpdt: &Hpdt,
        event: &RawEvent<'_>,
        state: StateId,
        arc: &crate::arcs::Arc,
        c: &mut Config,
        fired: Option<&mut Vec<crate::trace::FiredArc>>,
    ) {
        let changes = arc.changes_state(state);
        if changes {
            match event {
                RawEvent::StartDocument => c.dv.push_mut(0),
                RawEvent::Begin { depth, .. } => c.dv.push_mut(*depth),
                _ => {}
            }
        }
        if let Some(fired) = fired {
            fired.push(crate::trace::fired_arc(arc, state, &c.dv));
        }
        let item = c.item;
        for action in &arc.actions {
            self.execute(hpdt, action, arc.owner, event, &c.dv, item, &mut c.item);
        }
        if changes && matches!(event, RawEvent::End { .. } | RawEvent::EndDocument) {
            c.dv.pop_mut();
        }
        c.top = c.dv.top();
        c.state = arc.target;
    }

    /// The step when one run took one arc — for a lone configuration,
    /// the deterministic step §6.2 prices at one lookup. A run that leaves
    /// is rewritten where it stands ([`Self::rewrite_run`]); one that
    /// stays keeps its place and its successors are merged in. The same
    /// set, and the same fired arcs in the same order, that
    /// [`Self::step_set`] would leave, without its use counts and sort.
    fn step_in_place(
        &mut self,
        hpdt: &Hpdt,
        event: &RawEvent<'_>,
        state: StateId,
        run: Range<usize>,
        ai: u32,
        fired: Option<&mut Vec<crate::trace::FiredArc>>,
    ) {
        let arc = &hpdt.arcs[state as usize][ai as usize];
        if closure_keeps(hpdt, state, event, self.configs[run.start].top) {
            let mut block = std::mem::take(&mut self.scratch_successors);
            block.extend_from_slice(&self.configs[run]);
            self.step_members(hpdt, event, state, arc, &mut block, fired);
            self.merge(&mut block, self.configs.len());
            self.scratch_successors = block;
        } else {
            self.rewrite_run(hpdt, event, state, arc, run.clone(), fired);
            if !self.stands_in_order(run.clone(), arc) {
                self.move_run(run);
            }
        }
    }

    /// Put `run` — rewritten in place, out of order with its neighbours —
    /// where it belongs: rotated into the one gap it fits whole, or, when
    /// it is one configuration the set already holds, dropped (an end
    /// event returning it onto the closure state that stayed behind).
    /// Anything else is taken out and merged back.
    fn move_run(&mut self, run: Range<usize>) {
        let set = &mut self.configs;
        let members = &set[run.clone()];
        let (first, last) = (&members[0], &members[members.len() - 1]);
        if members.windows(2).all(|w| w[0] < w[1]) {
            if run.start > 0 && set[run.start - 1] >= *first {
                let at = set[..run.start].partition_point(|c| c < first);
                if *last < set[at] {
                    set[at..run.end].rotate_right(run.len());
                    return;
                }
                if run.len() == 1 && *first == set[at] {
                    set.remove(run.start);
                    return;
                }
            } else {
                let at = run.end + set[run.end..].partition_point(|c| c < first);
                if set.get(at).is_none_or(|next| last < next) {
                    set[run.start..at].rotate_left(run.len());
                    return;
                }
            }
        }
        let mut block = std::mem::take(&mut self.scratch_successors);
        self.take_out(run.clone(), &mut block);
        self.merge(&mut block, run.start);
        self.scratch_successors = block;
    }

    /// The general step: execute the matches in order, then bring the set
    /// back in order. Returns the fired arcs when `traced`.
    fn step_set(
        &mut self,
        hpdt: &Hpdt,
        event: &RawEvent<'_>,
        traced: bool,
    ) -> Vec<crate::trace::FiredArc> {
        // Phase 2: execute matches in the order their arcs carry — deepest
        // layer first, within a layer value production → flush/upload →
        // clear (see `arcs::execution_order`) — and within one order by
        // state, then position in the set, then arc. A run's members are
        // adjacent in the set, so a run executes member by member, each
        // member taking every arc its run took at that order.
        let mut matches = std::mem::take(&mut self.scratch_matches);
        matches.sort_unstable();
        let mut uses = std::mem::take(&mut self.scratch_uses);
        if uses.len() < self.configs.len() {
            uses.resize(self.configs.len(), 0);
        }
        for &(_, _, start, ..) in &matches {
            uses[start as usize] += 1;
        }

        let mut fired = Vec::new();
        let mut successors = std::mem::take(&mut self.scratch_successors);
        let mut rewritten = std::mem::take(&mut self.scratch_rewritten);
        let mut first_left = self.configs.len();
        let mut ascending = true;
        for taken in matches.chunk_by(|a, b| (a.0, a.2) == (b.0, b.2)) {
            let (_, state, start, len, _) = taken[0];
            let run = start as usize..(start + len) as usize;
            // Survival is decided for matched runs only, on their last
            // use (one nothing matched ignores the event and stays where
            // it is), and for a whole run at once: `closure_keeps` reads
            // the state, the event and the anchor. A matched run stays
            // where `//` keeps it searching, and otherwise leaves, each
            // member giving its depth vector to its last successor;
            // earlier (forking) uses clone it.
            uses[run.start] -= taken.len() as u32;
            let top = self.configs[run.start].top;
            let leaves = uses[run.start] == 0 && !closure_keeps(hpdt, state, event, top);
            if let (true, &[(.., ai)]) = (leaves, taken) {
                let arc = &hpdt.arcs[state as usize][ai as usize];
                let fired = traced.then_some(&mut fired);
                self.rewrite_run(hpdt, event, state, arc, run.clone(), fired);
                rewritten.push((run, state, ai));
                continue;
            }
            // A run that stays, or forks, steps copies of its members.
            let block = successors.len();
            for ci in run.clone() {
                for (j, &(.., ai)) in taken.iter().enumerate() {
                    let c = &mut self.configs[ci];
                    successors.push(if leaves && j + 1 == taken.len() {
                        leave(c)
                    } else {
                        c.clone()
                    });
                    let arc = &hpdt.arcs[state as usize][ai as usize];
                    let fired = traced.then_some(&mut fired);
                    let at = successors.len() - 1;
                    self.step_members(hpdt, event, state, arc, &mut successors[at..], fired);
                }
            }
            if leaves {
                first_left = first_left.min(run.start);
            }
            // One arc moves a run's members alike, so its successors come
            // out ascending (see `rewrite_run`); several interleave theirs.
            ascending &=
                taken.len() == 1 && (block == 0 || successors[block - 1] <= successors[block]);
        }

        // Phase 3: every run rewritten in place must still stand in order
        // between its neighbours. If one does not — an end event returning
        // members to a shallower anchor — they all join the successors,
        // which are merged in block by block when the blocks came out in
        // order.
        if !rewritten.iter().all(|(run, state, ai)| {
            self.stands_in_order(run.clone(), &hpdt.arcs[*state as usize][*ai as usize])
        }) {
            for (run, ..) in &rewritten {
                first_left = first_left.min(run.start);
                self.take_out(run.clone(), &mut successors);
            }
            ascending = false;
        }
        rewritten.clear();
        if !ascending {
            successors.sort_unstable();
        }
        self.merge(&mut successors, first_left);
        self.scratch_rewritten = rewritten;
        self.scratch_successors = successors;
        self.scratch_matches = matches;
        self.scratch_uses = uses;
        fired
    }

    /// Every member of `run` takes `arc` and becomes its successor where
    /// it stands: how a run that leaves along one arc steps. One arc moves
    /// every member alike — a begin pushes one depth above the top they
    /// share, an end pops that top — and the top-down order of depth
    /// vectors keeps them ascending through either, so the successors are
    /// still a block; only the actions that scope by prefix tell members
    /// apart.
    ///
    /// Inlined into both step paths: as a call it reads `multi_sub`
    /// throughput 0.96× and `scan_dblp` 0.98× (4 referee pairs each, 0
    /// won), `match_recursive` 1.01×.
    #[inline(always)]
    fn rewrite_run(
        &mut self,
        hpdt: &Hpdt,
        event: &RawEvent<'_>,
        state: StateId,
        arc: &crate::arcs::Arc,
        run: Range<usize>,
        fired: Option<&mut Vec<crate::trace::FiredArc>>,
    ) {
        let mut set = std::mem::take(&mut self.configs);
        self.step_members(hpdt, event, state, arc, &mut set[run], fired);
        self.configs = set;
    }

    /// Step every configuration of `members` — held outside the set —
    /// along `arc`, in order: the one loop that runs [`Self::step_arc`].
    /// Inlined: as a call it reads `match_recursive` throughput 0.98× (4
    /// referee pairs, 0 won).
    #[inline(always)]
    fn step_members(
        &mut self,
        hpdt: &Hpdt,
        event: &RawEvent<'_>,
        state: StateId,
        arc: &crate::arcs::Arc,
        members: &mut [Config],
        mut fired: Option<&mut Vec<crate::trace::FiredArc>>,
    ) {
        for c in members {
            self.step_arc(hpdt, event, state, arc, c, fired.as_deref_mut());
        }
    }

    /// Does `run`, rewritten in place by `arc`, still stand strictly
    /// between its neighbours — and, when the arc gave every member one
    /// item, are its members still apart? A neighbour on the right that
    /// left does not count as in order: what follows it is unknown.
    /// Inlined: as a call it reads `multi_sub` throughput 0.95× and
    /// `match_recursive` 0.975× (8 referee pairs each, 0 won).
    #[inline(always)]
    fn stands_in_order(&self, run: Range<usize>, arc: &crate::arcs::Arc) -> bool {
        let set = &self.configs;
        let block = &set[run.clone()];
        debug_assert!(
            block.windows(2).all(|w| w[0] <= w[1]),
            "a run's successors form an ascending block"
        );
        (run.start == 0 || set[run.start - 1] < block[0])
            && set
                .get(run.end)
                .is_none_or(|next| next.state != LEFT && block[block.len() - 1] < *next)
            && (block.len() == 1 || !arc.sets_item() || block.windows(2).all(|w| w[0] < w[1]))
    }

    /// Move `run` out to `successors`, leaving its members marked
    /// [`LEFT`] for the merge to drop.
    fn take_out(&mut self, run: Range<usize>, successors: &mut Vec<Config>) {
        successors.extend(self.configs[run].iter_mut().map(leave));
    }

    /// Merge `successors` — ascending, repeats allowed — into the set,
    /// dropping the configurations marked [`LEFT`], none of which stands
    /// before `first_left`. Closures re-derive the same (state, dv) along
    /// several arcs, and an element's end returns its configurations onto
    /// the closure state that stayed behind, so successors are
    /// deduplicated among themselves and against the set. One the
    /// untouched part already holds is dropped where a binary search
    /// finds it, so the set is rewritten only from the first configuration
    /// that left or the place of the first successor that is new,
    /// whichever comes first. Everything before is untouched; for a begin
    /// event below closure states that is the whole set, and the
    /// successors go in with one splice.
    fn merge(&mut self, successors: &mut Vec<Config>, first_left: usize) {
        debug_assert!(
            successors.windows(2).all(|w| w[0] <= w[1]),
            "successors ascend"
        );
        let cur = &mut self.configs;
        let kept = &cur[..first_left];
        let (mut at, mut from) = (0, first_left);
        successors.retain(|s| {
            let found = kept[at..].binary_search(s);
            let (Ok(i) | Err(i)) = found;
            at += i;
            if found.is_err() {
                from = from.min(at);
            }
            found.is_err()
        });
        if first_left == cur.len()
            && cur
                .get(from)
                .is_none_or(|next| successors.last() < Some(next))
        {
            // Nothing left, and the new successors fit one gap.
            successors.dedup();
            cur.splice(from..from, successors.drain(..));
            return;
        }
        let mut displaced = std::mem::take(&mut self.spare_configs);
        displaced.extend(cur.drain(from..).filter(|c| c.state != LEFT));
        let push_new = |cur: &mut Vec<Config>, s: Config| {
            if cur.last() != Some(&s) {
                cur.push(s);
            }
        };
        let mut incoming = successors.drain(..).peekable();
        for c in displaced.drain(..) {
            while let Some(s) = incoming.next_if(|s| *s < c) {
                push_new(cur, s);
            }
            while incoming.next_if(|s| *s == c).is_some() {}
            cur.push(c);
        }
        for s in incoming {
            push_new(cur, s);
        }
        self.spare_configs = displaced;
    }

    /// What every fired event must leave behind: the set strictly
    /// ascending in `(top, state, dv, item)` with `top` in step with the
    /// depth vector, and the queues' buckets consistent.
    #[cfg(debug_assertions)]
    fn assert_invariants(&self) {
        assert!(self.configs.windows(2).all(|w| w[0] < w[1]));
        assert!(self.configs.iter().all(|c| c.top == c.dv.top()));
        assert!(self.scratch_uses.iter().all(|&n| n == 0));
        self.queues.assert_invariants();
    }

    #[cold]
    fn emit_trace(
        &mut self,
        event: &RawEvent<'_>,
        fired: Vec<crate::trace::FiredArc>,
        tracer: &mut dyn FnMut(TraceStep),
    ) {
        tracer(TraceStep {
            ordinal: self.events,
            event: event.to_string(),
            fired,
            configs_after: self.configs.len(),
            buffered_after: self.queues.live_entries(),
        });
    }

    /// One action of a fired arc, for the configuration whose inside
    /// vector is `inside_dv`. Inlined into [`Self::step_arc`]: as a call
    /// it reads `multi_sub` throughput 0.975× (8 referee pairs, 0 won).
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn execute(
        &mut self,
        hpdt: &Hpdt,
        action: &Action,
        owner: QueueRef,
        event: &RawEvent<'_>,
        inside_dv: &DepthVector,
        current_item: Option<ItemId>,
        new_item: &mut Option<ItemId>,
    ) {
        let own = owner.slot as usize;
        match action {
            // The three pure buffer operations are no-ops when nothing
            // ever enqueues (`!self.buffered` — no queues are allocated).
            Action::FlushSelf => {
                if self.buffered {
                    self.queues.flush_matching(own, inside_dv, &mut self.items);
                }
            }
            Action::UploadSelf(target) => {
                if self.buffered {
                    self.queues
                        .upload_matching(own, target.slot as usize, inside_dv);
                }
            }
            Action::ClearSelf => {
                if self.buffered {
                    self.queues.clear_matching(own, inside_dv, &mut self.items);
                }
            }
            Action::Emit { source, to, tag } => {
                let value: Option<&str> = match source {
                    ValueSource::Text => match event {
                        RawEvent::Text { text, .. } => Some(text),
                        _ => None,
                    },
                    ValueSource::Attr(a) => event.attribute_sym(*a),
                    ValueSource::Unit => Some("1"),
                };
                if let Some(v) = value {
                    let item = self.items.anchor(*tag, v, true);
                    self.route(item, to, own, inside_dv);
                }
            }
            Action::RecordKey { table, attr } => {
                let value = match (attr, event) {
                    (Some(a), _) => event.attribute_sym(*a),
                    (None, RawEvent::Text { text, .. }) => Some(*text),
                    _ => None,
                };
                if let (Some(v), true) = (value, self.buffered) {
                    let queues = &mut self.queues;
                    hpdt.keyed[*table as usize]
                        .table
                        .probe(v, |key| queues.record_truth(own, key, inside_dv));
                }
            }
            Action::ResolveKeyed(target) => {
                if self.buffered {
                    let upload = target.map(|t| t.slot as usize);
                    let (tags, items) = (&hpdt.leaf_tags, &mut self.items);
                    self.queues
                        .resolve_keyed(own, upload, inside_dv, tags, items);
                }
            }
            Action::ElementStart { to, tag } => {
                self.scratch_ser.clear();
                xsq_xml::writer::write_raw_event_into(event, &mut self.scratch_ser);
                let item = self.items.anchor(*tag, &self.scratch_ser, false);
                *new_item = Some(item);
                self.route(item, to, own, inside_dv);
            }
            Action::ElementAppend => {
                if let Some(item) = current_item {
                    self.scratch_ser.clear();
                    xsq_xml::writer::write_raw_event_into(event, &mut self.scratch_ser);
                    self.items.append(item, &self.scratch_ser);
                }
            }
            Action::ElementEnd => {
                if let Some(item) = current_item {
                    if !self.items.is_closed(item) {
                        self.scratch_ser.clear();
                        xsq_xml::writer::write_raw_event_into(event, &mut self.scratch_ser);
                        self.items.append(item, &self.scratch_ser);
                        self.items.close(item);
                    }
                    *new_item = None;
                }
            }
        }
    }

    fn route(&mut self, item: ItemId, to: &Disposition, own_queue: usize, inside_dv: &DepthVector) {
        match to {
            Disposition::Direct => self.items.mark_output(item),
            Disposition::OwnQueue => {
                self.queues
                    .enqueue(own_queue, item, inside_dv, &mut self.items)
            }
            Disposition::Queue(q) => {
                self.queues
                    .enqueue(q.slot as usize, item, inside_dv, &mut self.items)
            }
        }
    }

    /// The one delivery step: every resolved item at the emission cursor
    /// goes into its query's aggregate or out as a result. At the end of
    /// the stream (`end`) anything still pending dies first.
    fn deliver(&mut self, sink: &mut dyn QuerySink, end: bool) {
        let Self {
            items,
            aggs,
            results,
            ..
        } = self;
        let deliver = |tag: u32, v: &str| match aggs.get_mut(tag as usize) {
            Some(Some(agg)) => agg.add(v),
            _ => {
                *results += 1;
                sink.result(QueryId(tag), v);
            }
        };
        if end {
            items.finish(deliver);
        } else {
            items.drain(deliver);
        }
    }

    fn drain(&mut self, sink: &mut dyn QuerySink) {
        self.deliver(sink, false);
        if self.agg_count > 0 {
            for (t, agg) in self.aggs.iter_mut().enumerate() {
                if let Some(agg) = agg {
                    if agg.take_dirty() {
                        sink.aggregate_update(QueryId(t as u32), agg.current());
                    }
                }
            }
        }
    }

    /// Finish the stream: resolve stragglers, emit the aggregation
    /// results, and return run statistics. For complete documents
    /// (`EndDocument` was fed) there are never stragglers — the paper's
    /// invariant that all buffers resolve by the closing tag of the
    /// outermost queried element. The core stays usable (call
    /// [`Self::reset`] for the next document).
    pub fn finish(&mut self, sink: &mut dyn QuerySink) -> RunStats {
        self.deliver(sink, true);
        if self.agg_count > 0 {
            for (t, agg) in self.aggs.iter().enumerate() {
                if let Some(agg) = agg {
                    sink.result(QueryId(t as u32), &agg.render());
                    self.results += 1;
                }
            }
        }
        RunStats {
            events: self.events,
            results: self.results,
            firings: self.firings,
            steps: self.steps,
            probed: self.probed,
            memory: self.memory(),
        }
    }

    /// Current memory accounting.
    pub fn memory(&self) -> MemoryStats {
        MemoryStats {
            peak_bytes: (self.items.peak_bytes()
                + self.queues.peak_entries() * std::mem::size_of::<crate::buffers::Entry>())
                as u64,
            peak_items: self.items.peak_live_items() as u64,
            peak_buffered_items: self.queues.peak_entries() as u64,
            peak_configs: self.peak_configs as u64,
            resident_structure_bytes: 0,
        }
    }

    /// Buffered references right now (diagnostics; must be 0 after
    /// `EndDocument`).
    pub fn buffered_entries(&self) -> usize {
        self.queues.live_entries()
    }

    /// Live configurations right now.
    pub fn config_count(&self) -> usize {
        self.configs.len()
    }

    /// Set the bit `base + s` of `live` for every state *s* a
    /// configuration is in — the frontier, as the dispatch index gates a
    /// group's bucket entries by it. The caller cleared the bits.
    pub fn mark_frontier(&self, live: &mut [u64], base: usize) {
        for c in &self.configs {
            let bit = base + c.state as usize;
            live[bit / 64] |= 1 << (bit % 64);
        }
    }

    /// The running aggregate value of query `tag`, if it aggregates.
    pub fn aggregate_value(&self, tag: u32) -> Option<f64> {
        self.aggs
            .get(tag as usize)
            .and_then(|a| a.as_ref())
            .map(|a| a.current())
    }

    /// Events fed so far.
    pub fn events(&self) -> u64 {
        self.events
    }
}

/// A plain [`Sink`] behind the tagged interface: a single query's runner
/// labels every result `QueryId(0)`, so the label carries nothing.
struct Untagged<'a>(&'a mut dyn Sink);

impl QuerySink for Untagged<'_> {
    fn result(&mut self, _id: QueryId, value: &str) {
        self.0.result(value);
    }

    fn aggregate_update(&mut self, _id: QueryId, value: f64) {
        self.0.aggregate_update(value);
    }
}

/// An incremental evaluator: feed it SAX events, results stream out of
/// the sink as soon as the paper's semantics allow. The single-query
/// facade over [`RunnerCore`].
pub struct Runner<'q> {
    hpdt: &'q Hpdt,
    core: RunnerCore,
    /// Optional execution tracer (`--trace`; see [`crate::trace`]).
    tracer: Option<&'q mut dyn FnMut(TraceStep)>,
}

impl<'q> Runner<'q> {
    /// Create a runner over a compiled HPDT.
    pub fn new(hpdt: &'q Hpdt) -> Self {
        Runner {
            hpdt,
            core: RunnerCore::new(hpdt),
            tracer: None,
        }
    }

    /// Reset the runner to its start state for a fresh document,
    /// keeping the allocated scratch buffers (multi-document feeds).
    pub fn reset(&mut self) {
        self.core.reset(self.hpdt);
    }

    /// Install an execution tracer: it receives one [`TraceStep`] per
    /// input event (the Example 5-style walkthrough). Zero cost when
    /// unset.
    pub fn set_tracer(&mut self, tracer: &'q mut dyn FnMut(TraceStep)) {
        self.tracer = Some(tracer);
    }

    /// Process one borrowed SAX event — the zero-copy hot path for
    /// callers driving [`xsq_xml::StreamParser::next_raw`].
    pub fn feed_raw(&mut self, event: &RawEvent<'_>, sink: &mut dyn Sink) {
        let tracer: Option<&mut dyn FnMut(TraceStep)> = self.tracer.as_mut().map(|t| &mut **t as _);
        self.core
            .feed_traced(self.hpdt, event, &mut Untagged(sink), tracer);
    }

    /// Finish the stream: resolve stragglers, emit the aggregation
    /// result, and return run statistics.
    pub fn finish(mut self, sink: &mut dyn Sink) -> RunStats {
        self.core.finish(&mut Untagged(sink))
    }

    /// Current memory accounting.
    pub fn memory(&self) -> MemoryStats {
        self.core.memory()
    }

    /// Buffered references right now (diagnostics; must be 0 after
    /// `EndDocument`).
    pub fn buffered_entries(&self) -> usize {
        self.core.buffered_entries()
    }

    /// Live configurations right now.
    pub fn config_count(&self) -> usize {
        self.core.config_count()
    }

    /// The running aggregate value, if this is an aggregation query.
    pub fn aggregate_value(&self) -> Option<f64> {
        self.core.aggregate_value(0)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::build::build_hpdt;
    use crate::sink::VecSink;
    use xsq_xpath::parse_query;

    /// Call `f` on every event of the well-formed document `doc`.
    pub(crate) fn each_event(doc: &[u8], mut f: impl FnMut(&RawEvent<'_>)) {
        let mut parser = xsq_xml::StreamParser::new(doc);
        while let Some(ev) = parser.next_raw().unwrap() {
            f(&ev);
        }
    }

    fn run(query: &str, doc: &str) -> Vec<String> {
        let hpdt = build_hpdt(&parse_query(query).unwrap()).unwrap();
        let mut runner = Runner::new(&hpdt);
        let mut sink = VecSink::new();
        each_event(doc.as_bytes(), |e| runner.feed_raw(e, &mut sink));
        assert_eq!(runner.buffered_entries(), 0, "buffers must drain");
        runner.finish(&mut sink);
        sink.results
    }

    #[test]
    fn simple_path_text() {
        assert_eq!(
            run("/a/b/text()", "<a><b>one</b><c><b>no</b></c><b>two</b></a>"),
            ["one", "two"]
        );
    }

    #[test]
    fn predicate_buffers_until_decided() {
        // Value arrives before the deciding year element.
        assert_eq!(
            run(
                "/pub[year=2002]/name/text()",
                "<pub><name>N</name><year>2002</year></pub>"
            ),
            ["N"]
        );
        assert_eq!(
            run(
                "/pub[year=2002]/name/text()",
                "<pub><name>N</name><year>1999</year></pub>"
            ),
            Vec::<String>::new()
        );
    }

    #[test]
    fn closure_matches_all_depths() {
        assert_eq!(
            run(
                "//b/text()",
                "<a><b>1</b><c><b>2</b><d><b>3</b></d></c></a>"
            ),
            ["1", "2", "3"]
        );
    }

    #[test]
    fn recursive_closure_no_duplicates() {
        // <b> nested in <b>: //b//c must return c once per distinct c.
        assert_eq!(run("//b//c/text()", "<a><b><b><c>x</c></b></b></a>"), ["x"]);
    }

    #[test]
    fn attribute_output() {
        assert_eq!(
            run("/a/b/@id", r#"<a><b id="1"/><b/><b id="3"/></a>"#),
            ["1", "3"]
        );
    }

    #[test]
    fn count_aggregation() {
        assert_eq!(run("//b/count()", "<a><b/><c><b/></c></a>"), ["2"]);
    }

    #[test]
    fn sum_aggregation() {
        assert_eq!(
            run(
                "//price/sum()",
                "<a><price>1.5</price><price>2.5</price></a>"
            ),
            ["4"]
        );
    }

    #[test]
    fn element_output() {
        assert_eq!(
            run("/a/b", r#"<a><b id="1"><c>x</c></b></a>"#),
            [r#"<b id="1"><c>x</c></b>"#]
        );
    }

    #[test]
    fn deterministic_mode_matches_full_mode() {
        let q = "/pub[year=2002]/book[price<11]/author/text()";
        let doc = "<pub><book><price>10</price><author>A</author></book>\
                   <book><price>14</price><author>B</author></book>\
                   <year>2002</year></pub>";
        let mut hpdt = build_hpdt(&parse_query(q).unwrap()).unwrap();
        assert!(hpdt.deterministic);
        let mut outs = Vec::new();
        for deterministic in [false, true] {
            hpdt.deterministic = deterministic;
            let mut runner = Runner::new(&hpdt);
            let mut sink = VecSink::new();
            each_event(doc.as_bytes(), |e| runner.feed_raw(e, &mut sink));
            runner.finish(&mut sink);
            outs.push(sink.results);
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[0], ["A"]);
    }

    #[test]
    fn streaming_results_appear_before_document_end() {
        let hpdt = build_hpdt(&parse_query("/a/b/text()").unwrap()).unwrap();
        let mut runner = Runner::new(&hpdt);
        let mut sink = VecSink::new();
        // Feed only through </b>.
        let mut fed = 0;
        each_event(b"<a><b>early</b><c/></a>", |e| {
            if fed < 5 {
                runner.feed_raw(e, &mut sink);
                fed += 1;
            }
        });
        assert_eq!(sink.results, ["early"]);
    }

    #[test]
    fn running_aggregate_updates_stream() {
        let hpdt = build_hpdt(&parse_query("//b/count()").unwrap()).unwrap();
        let mut runner = Runner::new(&hpdt);
        let mut sink = VecSink::new();
        each_event(b"<a><b/><b/><b/></a>", |e| runner.feed_raw(e, &mut sink));
        runner.finish(&mut sink);
        assert_eq!(sink.updates, vec![1.0, 2.0, 3.0]);
        assert_eq!(sink.results, ["3"]);
    }

    #[test]
    fn core_feed_reports_whether_arcs_fired() {
        let hpdt = build_hpdt(&parse_query("/a/b/text()").unwrap()).unwrap();
        let mut core = RunnerCore::new(&hpdt);
        let mut sink = crate::sink::VecQuerySink::new();
        let mut fired = Vec::new();
        each_event(b"<a><z>skip</z><b>hit</b></a>", |e| {
            fired.push(core.feed_raw(&hpdt, e, &mut sink))
        });
        // StartDocument, <a>, <b>, text, </b>, </a>, EndDocument all move
        // configurations; <z> and its text do not.
        assert!(fired[0] && fired[1]);
        assert!(!fired[2] && !fired[3], "irrelevant element must not fire");
        assert_eq!(sink.of(QueryId(0)), ["hit"]);
    }

    #[test]
    fn an_event_nothing_matches_is_rejected_before_any_bookkeeping() {
        // Whole-element output and a running count: the first leans on the
        // item store's per-event ordinal (appends are deduplicated by it),
        // the second talks to the sink from `drain`.
        let doc = b"<a><z>skip</z><b><c>x</c></b><z>t</z><b>2</b><z/></a>";
        // What each ignores: the three `z` elements (two with text); the
        // count also everything inside a `b`.
        for (query, want, ignores) in [
            ("/a/b", vec!["<b><c>x</c></b>", "<b>2</b>"], 8),
            ("/a/b/count()", vec!["2"], 8 + 4),
        ] {
            let hpdt = build_hpdt(&parse_query(query).unwrap()).unwrap();
            let mut core = RunnerCore::new(&hpdt);
            let mut sink = crate::sink::VecQuerySink::new();
            let (mut ignored, mut i) = (0, 0);
            each_event(doc, |e| {
                let before = (
                    core.configs.clone(),
                    core.items.total_items(),
                    core.items.pending_items(),
                    core.memory(),
                    (sink.results.len(), sink.updates.len()),
                );
                let fired = core.feed_raw(&hpdt, e, &mut sink);
                let after = (
                    core.configs.clone(),
                    core.items.total_items(),
                    core.items.pending_items(),
                    core.memory(),
                    (sink.results.len(), sink.updates.len()),
                );
                if !fired {
                    assert_eq!(before, after, "{query}: {e:?} fired nothing");
                    ignored += 1;
                }
                // Ignored events still count: the next firing is anchored
                // at its own ordinal, not at the last one that fired.
                i += 1;
                assert_eq!(core.events, i);
            });
            assert_eq!(ignored, ignores, "{query}");
            core.finish(&mut sink);
            assert_eq!(sink.of(QueryId(0)), want, "{query}");
        }
    }

    #[test]
    fn a_descent_only_the_closure_self_loop_would_accept_fires_nothing() {
        let hpdt = build_hpdt(&parse_query("//b/text()").unwrap()).unwrap();
        let mut core = RunnerCore::new(&hpdt);
        let mut sink = crate::sink::VecQuerySink::new();
        let mut fired = Vec::new();
        each_event(b"<a><z><b>hit</b></z></a>", |e| {
            fired.push(core.feed_raw(&hpdt, e, &mut sink))
        });
        // StartDocument fires; <a> and <z> are begin events below the
        // closure state's anchor that only `//` accepts: the state keeps
        // searching, no arc fires, the set does not move.
        assert_eq!(fired[..3], [true, false, false]);
        // <b> fires the entry arc — and the closure configuration stays
        // beside its successor; text and </b> fire, </z> and </a> do not.
        assert_eq!(fired[3..8], [true, true, true, false, false]);
        assert_eq!(sink.of(QueryId(0)), ["hit"]);
    }

    #[test]
    fn survival_maintains_the_same_set_the_self_loop_did() {
        // The Fig. 20 shape the referee's `match_recursive` runs, at
        // 64 KiB: the peak is the value measured with the `//` self-loop
        // fired as a transition and the whole set re-sorted per event.
        let params = xsq_datagen::xmlgen::XmlGenParams {
            nested_levels: 15,
            max_repeats: 20,
            seed: 2003,
        };
        let doc = xsq_datagen::xmlgen::generate(params, 64 * 1024);
        let query = parse_query("//pub[year>2000]//book[price]/title/text()").unwrap();
        let hpdt = build_hpdt(&query).unwrap();
        let mut runner = Runner::new(&hpdt);
        let mut sink = VecSink::new();
        each_event(doc.as_bytes(), |e| runner.feed_raw(e, &mut sink));
        let stats = runner.finish(&mut sink);
        assert_eq!((stats.memory.peak_configs, stats.results), (47, 484));
        // A step touches what moves: the runs probed in full are the tail
        // of the set the event addresses — fewer than the arcs that fire.
        // Walking the whole set again would read about twice the firings
        // here; a count fails, not a timing.
        assert_eq!(stats.firings, 114_198);
        assert!(stats.probed <= stats.firings, "probed {}", stats.probed);
        // Configurations anchored at one element in one state move in
        // lock step: their arcs fire once per run, 3.9 firings a step
        // here. Stepping members one by one would read `steps ==
        // firings`.
        assert_eq!(stats.steps, 29_192);
        assert!(2 * stats.steps <= stats.firings, "steps {}", stats.steps);
    }

    #[test]
    fn core_reset_supports_multiple_documents() {
        let hpdt = build_hpdt(&parse_query("//b/count()").unwrap()).unwrap();
        let mut core = RunnerCore::new(&hpdt);
        let mut stats = Vec::new();
        for _ in 0..2 {
            let mut sink = crate::sink::VecQuerySink::new();
            each_event(b"<a><b/><b/></a>", |e| {
                core.feed_raw(&hpdt, e, &mut sink);
            });
            stats.push(core.finish(&mut sink));
            assert_eq!(sink.of(QueryId(0)), ["2"]);
            core.reset(&hpdt);
        }
        // Every count is per document, the event count included.
        assert_eq!(stats[0].events, 8);
        assert_eq!(stats[0], stats[1]);
    }

    #[test]
    fn merged_hpdt_tags_results_by_query() {
        use crate::build::build_merged_hpdt;
        let queries: Vec<_> = ["/a/b/text()", "/a/b/@id", "/a/c/text()"]
            .iter()
            .map(|q| parse_query(q).unwrap())
            .collect();
        let hpdt = build_merged_hpdt(queries).unwrap();
        let mut core = RunnerCore::new(&hpdt);
        let mut sink = crate::sink::VecQuerySink::new();
        let doc = br#"<a><b id="7">x</b><c>y</c></a>"#;
        each_event(doc, |e| {
            core.feed_raw(&hpdt, e, &mut sink);
        });
        core.finish(&mut sink);
        assert_eq!(sink.of(QueryId(0)), ["x"]);
        assert_eq!(sink.of(QueryId(1)), ["7"]);
        assert_eq!(sink.of(QueryId(2)), ["y"]);
    }
}
