//! HPDT construction from an XPath query (§4.2).
//!
//! The builder generates a root BPDT (Fig. 12), then for each location
//! step `Ni` expands every BPDT of the previous layer: a **right child**
//! `bpdt(i, 2k)` grows out of the parent's NA state (if it has one) and a
//! **left child** `bpdt(i, 2k+1)` out of its TRUE state. Each BPDT is
//! instantiated from the template for its predicate category (Figs. 5–9),
//! closure steps get the `//` self-loop and `=`-marked any-depth entry
//! arcs, and the lowest layer gets the output machinery (direct output in
//! `bpdt(n, 2^n − 1)`, buffered output elsewhere — Fig. 11).
//!
//! A step is resolved once, before any of its BPDTs is instantiated
//! (`StepPlan`): its names interned, its guard placed in the guard pool,
//! its template chosen. Every instance copies the plan, and appends its
//! arcs and their actions to flat arrays that `Builder::finish` groups by
//! state.
//!
//! Every buffer decision is precomputed from the BPDT id: whether a
//! predicate-true transition flushes (all ancestor bits set) or uploads
//! (to the nearest zero bit), and where produced values are routed.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

use xsq_xml::Sym;
use xsq_xpath::classify::classify;
use xsq_xpath::{AggFunc, Axis, CmpOp, FnArg, NodeTest, Output, Predicate, Query, Step};

use crate::analyze::prove_deterministic;
use crate::analyze::verify::reachable_states;
use crate::arcs::{
    compute_scan_all, compute_stays, execution_order, Action, AnyDepthArcs, Arc, ArcLabel,
    ArcTables, Disposition, Fill, Guard, KeyTable, KeyVal, NamePat, Pattern, PoolRange, QueueRef,
    StateId, StateInfo, StateRole, ValueSource,
};
use crate::error::CompileError;
use crate::ids::BpdtId;
use crate::items::LEAF_BIT;

/// Hard cap on generated states. The binary tree of BPDTs is exponential
/// in the number of *predicated* steps, which is tiny for real queries;
/// the cap turns pathological inputs into a clean error.
const MAX_STATES: usize = 100_000;

/// A compiled hierarchical pushdown transducer, stored flat: one arc
/// array grouped by state (CSR), one pool each for the arcs' actions and
/// guards, and one for the keyed leaves' tags.
#[derive(Debug)]
pub struct Hpdt {
    pub states: Vec<StateInfo>,
    /// Every arc, grouped by source state, each state's in the order the
    /// builder made them: state `s` owns `arcs[offsets[s]..offsets[s + 1]]`
    /// ([`Self::arcs_of`]).
    pub arcs: Vec<Arc>,
    /// Where each state's arcs start, ascending, and one past the last:
    /// one more entry than `states`, the last equal to `arcs.len()`.
    pub offsets: Vec<u32>,
    /// `arcs[i].label.pattern()`, a dense column beside the arcs: what
    /// the runtime's probe reads, back to back.
    pub(crate) patterns: Vec<Pattern>,
    /// The action pool: an arc's actions are `actions[arc.actions]`
    /// ([`Self::actions_of`]), in the order they execute.
    pub actions: Vec<Action>,
    /// The guard pool, one guard per guarded step, shared by every
    /// instance of the step (`Arc::guard`).
    pub guards: Vec<Guard>,
    /// Per state: `true` when several arcs might accept the same event,
    /// so a runtime must scan all arcs even in deterministic mode.
    pub scan_all: Vec<bool>,
    /// Per state: the `//` self-loop, compiled (`compute_stays`).
    pub(crate) stays: Vec<bool>,
    /// Keyed indexes over the outgoing arcs of the states where probing
    /// is cheaper than a linear scan (merged frontier states with hundreds
    /// of named arcs); the other states have none. Shared by every runner
    /// of this HPDT.
    pub(crate) arc_tables: ArcTables,
    /// Per state: the arcs a configuration anchored above the event's
    /// parent can still fire (closure entry arcs, the catchall).
    pub(crate) any_depth: AnyDepthArcs,
    /// Bit `l` set when layer `l`'s TRUE state carries the dominance
    /// mark ([`StateInfo::dominates`]); 0 for an HPDT with none, whose
    /// runner then never looks at the rule.
    pub(crate) marks: u64,
    /// The global start state.
    pub start: StateId,
    /// The BPDT behind every dense queue slot (buffer storage at
    /// runtime); arcs carry the slot beside the id ([`QueueRef`]).
    pub queues: Vec<BpdtId>,
    /// Number of location steps (for a merged HPDT: the longest path).
    pub layers: u16,
    /// All queries this HPDT answers, in tag order: `merged[t]` is the
    /// query whose results carry tag `t`. A single-query HPDT has exactly
    /// one entry. Built by [`build_merged_hpdt`] for prefix-shared
    /// multi-query evaluation.
    pub merged: Vec<Query>,
    /// True when no arc is a closure arc: the HPDT is deterministic (§3.4)
    /// and eligible for the XSQ-NC runtime. A query with no closure axis
    /// builds one; so does a query whose every closure step lies below a
    /// predicate that can never hold, since those steps are never built.
    pub deterministic: bool,
    /// True when some action enqueues into a buffer (§3.3). When false,
    /// every predicate resolves before its output node closes, so results
    /// are emitted directly and the runner allocates no queues at all.
    pub buffered: bool,
    /// The keyed steps of a merged HPDT (`Action::RecordKey` indexes
    /// here); empty for a single query.
    pub keyed: Vec<KeyedStep>,
    /// Per leaf at or below a keyed step (items anchored under
    /// `LEAF_BIT | leaf`): the `(key, query tag)` pairs it answers, sorted
    /// — a resolve binds an item to the tags listed under the keys its
    /// instance witnessed.
    pub leaf_tags: LeafTags,
}

/// A family of sibling steps equal up to the literal of an `=` predicate,
/// compiled as one BPDT (see [`build_merged_hpdt`]).
#[derive(Debug, Clone)]
pub struct KeyedStep {
    pub bpdt: BpdtId,
    /// The step with the literal erased, e.g. `article[year=?×25]`.
    pub step: String,
    pub table: KeyTable,
}

/// The `(key, query tag)` pairs of every keyed leaf, in one pool: leaf
/// `l`'s are `tags[offsets[l]..offsets[l + 1]]` ([`Self::of`]). Both are
/// empty when no step is keyed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LeafTags {
    pub tags: Vec<(u32, u32)>,
    pub offsets: Vec<u32>,
}

impl LeafTags {
    /// Pool per-leaf lists, keeping their order.
    fn pooled(lists: &[Vec<(u32, u32)>]) -> Self {
        if lists.is_empty() {
            return LeafTags::default();
        }
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut tags = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        offsets.push(0);
        for list in lists {
            tags.extend_from_slice(list);
            offsets.push(tags.len() as u32);
        }
        LeafTags { tags, offsets }
    }

    /// The pairs of leaf `leaf`, sorted.
    pub fn of(&self, leaf: u32) -> &[(u32, u32)] {
        let l = leaf as usize;
        &self.tags[self.offsets[l] as usize..self.offsets[l + 1] as usize]
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Hpdt {
    /// Seal flat arrays into an HPDT. Everything else is derived here,
    /// from the arcs alone: their pattern column, what the runtime reads
    /// per state (`scan_all`, `stays`, `arc_tables`, `any_depth`) and the
    /// two verdicts the engine acts on (`buffered`, `deterministic`). Both
    /// builders end here, through `Builder::finish`, so no table can
    /// disagree with the arcs it was derived from.
    /// `merged` is never empty; its first member names the HPDT in dumps.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn seal(
        states: Vec<StateInfo>,
        (arcs, offsets): (Vec<Arc>, Vec<u32>),
        actions: Vec<Action>,
        guards: Vec<Guard>,
        start: StateId,
        queues: Vec<BpdtId>,
        layers: u16,
        merged: Vec<Query>,
        keyed: Vec<KeyedStep>,
        leaf_tags: LeafTags,
    ) -> Hpdt {
        let patterns: Vec<Pattern> = arcs.iter().map(|a| a.label.pattern()).collect();
        let marks = states
            .iter()
            .filter(|info| info.dominates)
            .fold(0u64, |marks, info| marks | 1 << info.owner.layer);
        Hpdt {
            scan_all: compute_scan_all(&patterns, &offsets).collect(),
            stays: compute_stays(&patterns, &offsets),
            marks,
            arc_tables: ArcTables::new(&patterns, &offsets),
            any_depth: AnyDepthArcs::new(&patterns, &offsets),
            buffered: uses_buffers(&arcs, &actions),
            deterministic: prove_deterministic(&arcs),
            patterns,
            start,
            states,
            arcs,
            offsets,
            actions,
            guards,
            queues,
            layers,
            merged,
            keyed,
            leaf_tags,
        }
    }

    /// The outgoing arcs of `state`, in the order the builder made them.
    pub fn arcs_of(&self, state: StateId) -> &[Arc] {
        &self.arcs[self.run_of(state)]
    }

    /// `state`'s patterns and arcs, index for index: what a probe reads.
    pub(crate) fn probe_of(&self, state: StateId) -> (&[Pattern], &[Arc]) {
        let run = self.run_of(state);
        (&self.patterns[run.clone()], &self.arcs[run])
    }

    fn run_of(&self, state: StateId) -> std::ops::Range<usize> {
        let s = state as usize;
        self.offsets[s] as usize..self.offsets[s + 1] as usize
    }

    /// The actions `arc` performs, in order.
    pub fn actions_of(&self, arc: &Arc) -> &[Action] {
        &self.actions[arc.actions.range()]
    }

    /// Does some state carry the dominance mark? Only then does a runner
    /// apply the rule (DESIGN.md, *Dominated configurations*).
    pub fn has_dominance_marks(&self) -> bool {
        self.marks != 0
    }

    /// Number of BPDTs (one queue each).
    pub fn bpdt_count(&self) -> usize {
        self.queues.len()
    }

    /// Total number of transition arcs.
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// [`Self::buffered`] per answered query, in tag order: does any
    /// action enqueue a value of `merged[t]` into a buffer? A merged
    /// group answers for each member what that member's own HPDT would.
    pub(crate) fn buffered_members(&self) -> Vec<bool> {
        let mut buffered = vec![false; self.merged.len()];
        for action in self.arcs.iter().flat_map(|arc| self.actions_of(arc)) {
            if let Action::Emit { to, tag, .. } | Action::ElementStart { to, tag } = action {
                let enqueues = !matches!(to, Disposition::Direct);
                if tag & LEAF_BIT == 0 {
                    buffered[*tag as usize] |= enqueues;
                } else {
                    for &(_, t) in self.leaf_tags.of(tag & !LEAF_BIT) {
                        buffered[t as usize] |= enqueues;
                    }
                }
            }
        }
        buffered
    }

    /// Human-readable dump of states and arcs (debugging, tests).
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "HPDT for {} — {} states, {} arcs, {} BPDTs{}",
            self.merged[0],
            self.states.len(),
            self.arc_count(),
            self.bpdt_count(),
            if self.deterministic {
                " (deterministic)"
            } else {
                ""
            }
        );
        for (i, info) in (0..).zip(&self.states) {
            let _ = writeln!(s, "  ${i} {:?} of {}", info.role, info.owner);
            for a in self.arcs_of(i) {
                let _ = writeln!(
                    s,
                    "    --{:?}{}--> ${} {:?}",
                    a.label,
                    if a.guard.is_some() { " [guarded]" } else { "" },
                    a.target,
                    self.actions_of(a)
                );
            }
        }
        for k in &self.keyed {
            let _ = writeln!(
                s,
                "  keyed {}: {} — key.record at the witness, key.resolve at the end tag",
                k.bpdt, k.step
            );
        }
        s
    }
}

/// Build the HPDT for a parsed query (a copy of it goes into
/// `Hpdt::merged`; [`crate::XsqEngine::compile_str`] moves its own in).
pub fn build_hpdt(query: &Query) -> Result<Hpdt, CompileError> {
    build_group(vec![query.clone()]).map_err(|(e, _)| e)
}

#[derive(Default)]
struct Builder {
    states: Vec<StateInfo>,
    /// Every arc made, beside its source state, in the order made;
    /// [`Self::finish`] groups them by state.
    arcs: Vec<(StateId, Arc)>,
    /// The action pool, in the order the arcs were made.
    actions: Vec<Action>,
    /// The guard pool, one per guarded step ([`StepPlan`]).
    guards: Vec<Guard>,
    queues: Vec<BpdtId>,
    keyed: Vec<KeyedStep>,
    leaf_tags: Vec<Vec<(u32, u32)>>,
    /// Did [`Self::add_arc`] refuse an arc? Only then can a state be
    /// unreachable.
    refused: bool,
}

/// The externally visible states of a freshly built BPDT.
struct BuiltBpdt {
    na: Option<StateId>,
    true_state: StateId,
}

/// Predicate context of a BPDT: which buffer operations its position in
/// the tree dictates (§4.2). For the binary tree of a single query this
/// is exactly what the id bits say — all ones flushes, otherwise the
/// lowest zero bit names the upload target (pinned on Fig. 11 by
/// `flush_vs_upload_follows_id_bits`); carrying it explicitly lets the
/// same templates build *merged* trees whose fan-out is no longer binary
/// (prefix-shared multi-query HPDTs), where the bit encoding breaks down.
#[derive(Debug, Clone, Copy)]
struct PredCx {
    /// Every ancestor predicate on this path is known true.
    all_true: bool,
    /// Nearest ancestor whose predicate is undecided (upload target);
    /// `None` iff `all_true`.
    upload: Option<QueueRef>,
}

impl PredCx {
    const ROOT: PredCx = PredCx {
        all_true: true,
        upload: None,
    };

    /// Context of a child entered from this BPDT's TRUE state: this
    /// predicate is true, so the child inherits the context unchanged.
    fn true_side(self) -> PredCx {
        self
    }

    /// Context of a child entered from this BPDT's NA state: this BPDT
    /// becomes the nearest undecided ancestor.
    fn na_side(self, parent: QueueRef) -> PredCx {
        PredCx {
            all_true: false,
            upload: Some(parent),
        }
    }
}

/// A step's guard as the arcs that test it carry it.
#[derive(Debug, Clone, Copy)]
enum GuardRef {
    /// `Hpdt::guards[i]`.
    Pool(u32),
    /// No event passes it (`Guard::unsatisfiable`): its arcs are never
    /// built.
    Never,
}

/// A location step resolved once for all its BPDTs: names interned, the
/// guard pooled, the template chosen. Instances copy it.
#[derive(Debug, Clone, Copy)]
struct StepPlan {
    tag: NamePat,
    closure: bool,
    template: Template,
}

/// The predicate template a step instantiates (Figs. 5–9), with what
/// its arcs carry.
#[derive(Debug, Clone, Copy)]
enum Template {
    /// No predicate.
    Plain,
    /// Categories 1 and 1f: decided at the begin event, by the entry
    /// arc's guard.
    AttrOfSelf(GuardRef),
    /// Categories 2 and 2f: the element's own text, guarded.
    TextOfSelf(GuardRef),
    /// Categories 3 and 4: a witness child, its attribute guarded for 4.
    Child { child: Sym, guard: Option<GuardRef> },
    /// Category 5: a witness child whose text is guarded (Fig. 9).
    TextOfChild { child: Sym, guard: GuardRef },
    /// A keyed family's step ([`Builder::build_keyed_bpdt`]).
    Keyed(KeyWitness),
}

/// Where a keyed step's witness value is read, names interned.
#[derive(Debug, Clone, Copy)]
enum KeyWitness {
    SelfText,
    ChildText(Sym),
    ChildAttr(Sym, Sym),
}

/// What a query's last step produces, as its leaf's actions read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LeafValue {
    /// Text-anchored: `text()` and the numeric aggregates.
    Text,
    /// Begin-anchored: `@attr`.
    Attr(Sym),
    /// Begin-anchored: `count()`'s unit.
    Unit,
    /// The whole element.
    Element,
}

impl LeafValue {
    fn of(output: &Output) -> Self {
        match output {
            Output::Text | Output::Aggregate(AggFunc::Sum | AggFunc::Avg) => LeafValue::Text,
            Output::Aggregate(AggFunc::Min | AggFunc::Max) => LeafValue::Text,
            Output::Attr(a) => LeafValue::Attr(Sym::intern(a)),
            Output::Aggregate(AggFunc::Count) => LeafValue::Unit,
            Output::Element => LeafValue::Element,
        }
    }
}

impl Builder {
    fn add_state(&mut self, owner: BpdtId, role: StateRole) -> Result<StateId, CompileError> {
        if self.states.len() >= MAX_STATES {
            return Err(CompileError::Unsupported {
                feature: format!("queries compiling to more than {MAX_STATES} states"),
                engine: "XSQ".into(),
            });
        }
        let id = self.states.len() as StateId;
        self.states.push(StateInfo {
            owner,
            role,
            dominates: false,
        });
        Ok(id)
    }

    /// Add an arc, its actions appended to the pool, unless it can never
    /// fire: its guard passes no event. A refused arc leaves the states
    /// behind it unreachable; [`Self::finish`] drops them.
    fn add_arc(
        &mut self,
        from: StateId,
        label: ArcLabel,
        guard: Option<GuardRef>,
        target: StateId,
        owner: QueueRef,
        actions: impl IntoIterator<Item = Action>,
    ) {
        let guard = match guard {
            Some(GuardRef::Never) => {
                self.refused = true;
                return;
            }
            Some(GuardRef::Pool(g)) => Some(g),
            None => None,
        };
        let start = self.actions.len() as u32;
        self.actions.extend(actions);
        let actions = PoolRange {
            start,
            end: self.actions.len() as u32,
        };
        let arc = Arc {
            label,
            guard,
            target,
            owner,
            order: execution_order(owner.id.layer, &self.actions[actions.range()]),
            actions,
        };
        self.arcs.push((from, arc));
    }

    /// Place a step's guard in the pool, unless no event passes it.
    fn pool_guard(&mut self, guard: Guard) -> GuardRef {
        if guard.unsatisfiable() {
            return GuardRef::Never;
        }
        self.guards.push(guard);
        GuardRef::Pool(self.guards.len() as u32 - 1)
    }

    /// Give `id` the next queue slot. Each BPDT is registered once,
    /// before any arc that addresses it is created.
    fn register_queue(&mut self, id: BpdtId) -> QueueRef {
        let slot = self.queues.len() as u32;
        self.queues.push(id);
        QueueRef { id, slot }
    }

    /// Root BPDT (Fig. 12): START --StartDoc--> TRUE; TRUE --EndDoc-->
    /// START. Returns `(START, TRUE)`.
    fn build_root(&mut self) -> Result<(StateId, StateId), CompileError> {
        let root = self.register_queue(BpdtId::ROOT);
        let start = self.add_state(BpdtId::ROOT, StateRole::Start)?;
        let root_true = self.add_state(BpdtId::ROOT, StateRole::True)?;
        self.add_arc(start, ArcLabel::StartDoc, None, root_true, root, []);
        self.add_arc(root_true, ArcLabel::EndDoc, None, start, root, []);
        Ok((start, root_true))
    }

    /// Seal the arcs into an [`Hpdt`] answering `merged` — the one point
    /// before sealing for both builders. The arcs are grouped by state in
    /// one counting pass that keeps each state's in the order made, and
    /// their actions are copied out in that order, so the pool runs state
    /// by state — unless the arcs were made in state order, as a
    /// predicate-free query's are: then grouping moves none, and the pool
    /// is kept as built, spare capacity included. The states `start`
    /// cannot reach are those behind an arc
    /// [`Self::add_arc`] refused; with none refused, every state is
    /// reachable and nothing moves.
    fn finish(mut self, start: StateId, layers: u16, merged: Vec<Query>) -> Hpdt {
        let mut start = start;
        let mut pruned = false;
        if self.refused {
            let (arcs, offsets) = group_by_state(&self.arcs, self.states.len());
            let live = reachable_states(&arcs, &offsets, start);
            if live.contains(&false) {
                start = self.drop_dead(&live, start);
                pruned = true;
            }
        }
        let in_state_order = self.arcs.is_sorted_by_key(|&(from, _)| from);
        let (mut arcs, offsets) = group_by_state(&self.arcs, self.states.len());
        let actions = if in_state_order && !pruned {
            // Grouping moved no arc, so every action range still holds.
            self.actions
        } else {
            let pooled = arcs.iter().map(|a| a.actions.range().len()).sum();
            let mut actions = Vec::with_capacity(pooled);
            for arc in &mut arcs {
                let at = actions.len() as u32;
                actions.extend_from_slice(&self.actions[arc.actions.range()]);
                arc.actions = PoolRange {
                    start: at,
                    end: actions.len() as u32,
                };
            }
            actions
        };
        Hpdt::seal(
            self.states,
            (arcs, offsets),
            actions,
            self.guards,
            start,
            self.queues,
            layers,
            merged,
            self.keyed,
            LeafTags::pooled(&self.leaf_tags),
        )
    }

    /// Remove the states `live` does not mark, the arcs leaving them and
    /// the guards and queues nothing surviving addresses, in place: the
    /// survivors keep their order, every arc is retargeted, and the queue
    /// slots are re-densified (a single query keeps its layer-major
    /// layout). The dropped arcs' actions stay behind in the builder's
    /// pool; `finish` copies out only what a surviving arc runs. Returns
    /// `start`'s new id.
    fn drop_dead(&mut self, live: &[bool], start: StateId) -> StateId {
        let remap = ranks(live);
        retain_flagged(&mut self.states, live);
        self.arcs.retain(|&(from, _)| live[from as usize]);
        for (from, arc) in &mut self.arcs {
            *from = remap[*from as usize];
            arc.target = remap[arc.target as usize];
        }
        let mut carried = vec![false; self.guards.len()];
        for g in self.arcs.iter().filter_map(|(_, arc)| arc.guard) {
            carried[g as usize] = true;
        }
        if carried.contains(&false) {
            let index = ranks(&carried);
            retain_flagged(&mut self.guards, &carried);
            for g in self
                .arcs
                .iter_mut()
                .filter_map(|(_, arc)| arc.guard.as_mut())
            {
                *g = index[*g as usize];
            }
        }
        // The queues still addressed: arc owners (the runtime resolves
        // every acting arc's own queue), upload targets and enqueue
        // destinations, plus the root, which anchors the id tree.
        let mut used = vec![false; self.queues.len()];
        used[0] = true;
        for (_, arc) in &self.arcs {
            used[arc.owner.slot as usize] = true;
            for a in &self.actions[arc.actions.range()] {
                if let Some((_, Some(q))) = a.fill() {
                    used[q.slot as usize] = true;
                }
            }
        }
        if used.contains(&false) {
            let slot_of = ranks(&used);
            retain_flagged(&mut self.queues, &used);
            for (_, arc) in &mut self.arcs {
                arc.owner.slot = slot_of[arc.owner.slot as usize];
                for a in &mut self.actions[arc.actions.range()] {
                    if let Some((_, Some(q))) = a.fill_mut() {
                        q.slot = slot_of[q.slot as usize];
                    }
                }
            }
        }
        remap[start as usize]
    }

    /// Resolve `step` for all its instances: reject what the HPDT cannot
    /// run, intern its names, pool its guard and pick its template —
    /// for a keyed family's step, the keyed template.
    fn plan_step(&mut self, step: &Step, keyed: bool) -> Result<StepPlan, CompileError> {
        if !step.axis.is_forward() {
            return Err(CompileError::Unsupported {
                feature: format!(
                    "reverse axis `{}` (step `{step}`): a single forward pass \
                     cannot look backward in the document",
                    step.axis.prefix()
                ),
                engine: "hpdt".into(),
            });
        }
        let template = if keyed {
            let (witness, _) = keyable(step).expect("a keyed node's step is keyable");
            Template::Keyed(match witness {
                Witness::SelfText => KeyWitness::SelfText,
                Witness::ChildText(child) => KeyWitness::ChildText(Sym::intern(child)),
                Witness::ChildAttr(child, attr) => {
                    KeyWitness::ChildAttr(Sym::intern(child), Sym::intern(attr))
                }
            })
        } else {
            self.template(step)?
        };
        Ok(StepPlan {
            tag: name_pat(&step.test),
            closure: step.axis == Axis::Closure,
            template,
        })
    }

    /// The template of a classic step's predicate category.
    fn template(&mut self, step: &Step) -> Result<Template, CompileError> {
        let Some(predicate) = &step.predicate else {
            return Ok(Template::Plain);
        };
        let guard = match predicate {
            Predicate::Attr { name, cmp } => Guard::Attr {
                name: Sym::intern(name),
                cmp: cmp.clone(),
            },
            Predicate::Func {
                arg: FnArg::Attr(name),
                test,
            } => Guard::AttrFn {
                name: Sym::intern(name),
                test: test.clone(),
            },
            Predicate::Text { cmp } => Guard::Text { cmp: cmp.clone() },
            Predicate::Func {
                arg: FnArg::Text,
                test,
            } => Guard::TextFn { test: test.clone() },
            Predicate::Child { name } => {
                let child = Sym::intern(name);
                return Ok(Template::Child { child, guard: None });
            }
            Predicate::ChildAttr { child, attr, cmp } => {
                let child = Sym::intern(child);
                let guard = Guard::Attr {
                    name: Sym::intern(attr),
                    cmp: cmp.clone(),
                };
                let guard = Some(self.pool_guard(guard));
                return Ok(Template::Child { child, guard });
            }
            Predicate::ChildText { child, cmp } => {
                let child = Sym::intern(child);
                let guard = self.pool_guard(Guard::Text {
                    cmp: Some(cmp.clone()),
                });
                return Ok(Template::TextOfChild { child, guard });
            }
            // Streamable via sibling counters / parent-end hold-back,
            // which only the transformation engine implements; the HPDT
            // machinery has no per-parent counter state.
            Predicate::Position { .. } | Predicate::Last => {
                let what = match predicate {
                    Predicate::Last => "last()",
                    _ => "position()",
                };
                return Err(CompileError::Unsupported {
                    feature: format!(
                        "`{what}` (step `{step}`): supported in transform match \
                         patterns (`xsq transform`), not by the HPDT selection engine"
                    ),
                    engine: "hpdt".into(),
                });
            }
        };
        let attr = matches!(guard, Guard::Attr { .. } | Guard::AttrFn { .. });
        let guard = self.pool_guard(guard);
        Ok(if attr {
            Template::AttrOfSelf(guard)
        } else {
            Template::TextOfSelf(guard)
        })
    }

    /// The arcs of `query`'s HPDT; returns its start state and layer
    /// count.
    fn build(&mut self, query: &Query) -> Result<(StateId, u16), CompileError> {
        let n = query.steps.len() as u16;
        debug_assert!(n > 0, "parser guarantees at least one step");

        let leaf = [(0u32, LeafValue::of(&query.output))];
        let bpdts = self.reserve(query);
        let (start, root_true) = self.build_root()?;

        // Layer-by-layer expansion, one queue of BPDTs to instantiate in
        // layer order. The root has no NA state, so its right child is
        // NULL and layer 1 contains only bpdt(1,1).
        let mut bpdts: Vec<(BpdtId, PredCx, StateId)> = Vec::with_capacity(bpdts);
        bpdts.push((BpdtId::ROOT.left_child(), PredCx::ROOT, root_true));
        let mut layer_start = 0;
        for (i, step) in query.steps.iter().enumerate() {
            let layer = i as u16 + 1;
            let is_leaf = layer == n;
            let leaf: &[(u32, LeafValue)] = if is_leaf { &leaf } else { &[] };
            let plan = self.plan_step(step, false)?;
            let closure_follows = query
                .steps
                .get(i + 1)
                .is_some_and(|next| next.axis == Axis::Closure);
            let layer_end = bpdts.len();
            for k in layer_start..layer_end {
                let (id, cx, start_state) = bpdts[k];
                debug_assert_eq!(id.layer, layer);
                let own = self.register_queue(id);
                // In a single query's tree one BPDT grows out of each
                // state, so a closure step always adds its start's loop.
                let built = self.build_bpdt(plan, own, cx, start_state, leaf, true)?;
                // The dominance mark: every predicate on the path to this
                // TRUE state holds, and the next step searches below it.
                if cx.all_true && closure_follows && layer < 64 {
                    self.states[built.true_state as usize].dominates = true;
                }
                if !is_leaf {
                    if let Some(na) = built.na {
                        bpdts.push((id.right_child(), cx.na_side(own), na));
                    }
                    bpdts.push((id.left_child(), cx.true_side(), built.true_state));
                }
            }
            layer_start = layer_end;
        }
        Ok((start, n))
    }

    /// Size the arrays a single query's build fills, so that each is
    /// usually allocated once: every step is instantiated once per BPDT
    /// of its layer, and a layer has twice the BPDTs of the one above
    /// where that step has an NA state. The queues are exact; the states,
    /// arcs and actions take each BPDT at `BPDT_BOUND`, and `finish`
    /// copies the arcs out exactly, and the actions unless the arcs came
    /// in state order. Returns the number of
    /// BPDTs below the root.
    fn reserve(&mut self, query: &Query) -> usize {
        let (mut width, mut bpdts) = (1usize, 0usize);
        for step in &query.steps {
            bpdts = bpdts.saturating_add(width);
            if classify(step).has_na_state() {
                width = width.saturating_mul(2);
            }
        }
        let (states, arcs, actions) = BPDT_BOUND;
        // The root's two states and two arcs.
        if bpdts.saturating_mul(states).saturating_add(2) <= MAX_STATES {
            self.states.reserve_exact(bpdts * states + 2);
            self.arcs.reserve_exact(bpdts * arcs + 2);
            self.actions.reserve_exact(bpdts * actions);
            self.queues.reserve_exact(bpdts + 1);
        }
        bpdts.min(MAX_STATES)
    }

    /// The label of a step's entry arcs. Closure steps: `//` self-loop on
    /// the START state so the search keeps descending — unless an earlier
    /// sibling's instance put one there (`adds_loop` false: the runtime
    /// reads the loop only as the state's `stays` bit) — and any-depth
    /// (`=`-marked) entry arcs.
    fn entry_label(
        &mut self,
        plan: StepPlan,
        start: StateId,
        own: QueueRef,
        adds_loop: bool,
    ) -> ArcLabel {
        if !plan.closure {
            return ArcLabel::BeginChild(plan.tag);
        }
        if adds_loop {
            self.add_arc(start, ArcLabel::ClosureSelfLoop, None, start, own, []);
        }
        ArcLabel::BeginAnyDepth(plan.tag)
    }

    /// Instantiate a keyed step — a family of siblings equal up to the
    /// literal of `[witness = literal]` — as one BPDT that never reaches
    /// TRUE: the witness events probe the family's key table and record
    /// the hits, values buffer in the own queue as for any undecided
    /// predicate, and the element's end tag resolves them per key
    /// ([`Action::ResolveKeyed`]). Returns the NA state, the only one
    /// children hang off.
    #[allow(clippy::too_many_arguments)]
    fn build_keyed_bpdt(
        &mut self,
        step: &Step,
        plan: StepPlan,
        table: &KeyTable,
        own: QueueRef,
        cx: PredCx,
        start: StateId,
        leaf: &[(u32, LeafValue)],
        adds_loop: bool,
    ) -> Result<StateId, CompileError> {
        self.keyed.push(KeyedStep {
            bpdt: own.id,
            step: keyed_step_name(step, table.len()),
            table: table.clone(),
        });
        let table = self.keyed.len() as u32 - 1;
        let Template::Keyed(witness) = plan.template else {
            unreachable!("a keyed node's plan is keyed");
        };
        let tag = plan.tag;
        let entry_label = self.entry_label(plan, start, own, adds_loop);
        let na = self.add_state(own.id, StateRole::Na)?;
        let entry_values = entry_values(leaf, Disposition::OwnQueue);
        self.add_arc(start, entry_label, None, na, own, entry_values);
        let record = |attr| Action::RecordKey { table, attr };
        let mut self_text = None;
        match witness {
            KeyWitness::SelfText => self_text = Some(record(None)),
            // Through a state of its own, as in Fig. 9: the witness child
            // may carry the next step's tag, and its begin event then both
            // enters the witness and continues the path.
            KeyWitness::ChildText(child) => {
                let child = NamePat::Name(child);
                let w = self.add_state(own.id, StateRole::Witness)?;
                self.add_arc(na, ArcLabel::BeginChild(child), None, w, own, []);
                let probe = [record(None)];
                self.add_arc(w, ArcLabel::TextSelf(child), None, w, own, probe);
                self.add_arc(w, ArcLabel::End(child), None, na, own, []);
            }
            KeyWitness::ChildAttr(child, attr) => {
                let label = ArcLabel::BeginChild(NamePat::Name(child));
                self.add_arc(na, label, None, na, own, [record(Some(attr))]);
            }
        }
        let own_text = text_values(leaf, Disposition::OwnQueue);
        let mut own_text = self_text.into_iter().chain(own_text).peekable();
        if own_text.peek().is_some() {
            self.add_arc(na, ArcLabel::TextSelf(tag), None, na, own, own_text);
        }
        let resolve = [Action::ResolveKeyed(cx.upload)];
        self.add_arc(na, ArcLabel::End(tag), None, start, own, resolve);
        Ok(na)
    }

    /// Instantiate the template of one planned location step as
    /// `bpdt(id)`, entered from `start` (the parent's TRUE or NA state).
    /// `leaf` lists the queries whose *last* step this is, as `(tag,
    /// value)` pairs — empty for interior steps, one entry for a plain
    /// build, and possibly several for a merged HPDT where queries of
    /// different output kinds end at the same shared step.
    fn build_bpdt(
        &mut self,
        plan: StepPlan,
        own: QueueRef,
        cx: PredCx,
        start: StateId,
        leaf: &[(u32, LeafValue)],
        adds_loop: bool,
    ) -> Result<BuiltBpdt, CompileError> {
        let id = own.id;
        let tag = plan.tag;
        let entry_label = self.entry_label(plan, start, own, adds_loop);

        // Dispositions and the predicate-true resolution action are fixed
        // by the BPDT's position (§4.2), carried in the explicit context.
        let resolution = if cx.all_true {
            Action::FlushSelf
        } else {
            Action::UploadSelf(cx.upload.expect("not all ancestors true"))
        };
        let disp_true = if cx.all_true {
            Disposition::Direct
        } else {
            Disposition::Queue(cx.upload.expect("not all ancestors true"))
        };

        // Value-producing actions for the leaf layer: attached to the
        // entry arcs (begin-anchored values) or as text self-loops.
        let entry_value = |disp: Disposition| entry_values(leaf, disp);
        // Whole-element output (Fig. 10) closes the element item on the
        // way back to START: the exit arcs from NA and TRUE close it
        // before anything else they do.
        let close = leaf
            .iter()
            .any(|&(_, v)| v == LeafValue::Element)
            .then_some(Action::ElementEnd);
        let clear = close.into_iter().chain([Action::ClearSelf]);

        // --- instantiate the category template --------------------------
        let built = match plan.template {
            Template::Plain => {
                let t = self.add_state(id, StateRole::True)?;
                self.add_arc(start, entry_label, None, t, own, entry_value(disp_true));
                self.add_arc(t, ArcLabel::End(tag), None, start, own, close);
                BuiltBpdt {
                    na: None,
                    true_state: t,
                }
            }
            Template::AttrOfSelf(guard) => {
                let t = self.add_state(id, StateRole::True)?;
                let values = entry_value(disp_true);
                self.add_arc(start, entry_label, Some(guard), t, own, values);
                self.add_arc(t, ArcLabel::End(tag), None, start, own, close);
                BuiltBpdt {
                    na: None,
                    true_state: t,
                }
            }
            Template::TextOfSelf(guard) => {
                let na = self.add_state(id, StateRole::Na)?;
                let t = self.add_state(id, StateRole::True)?;
                let values = entry_value(Disposition::OwnQueue);
                self.add_arc(start, entry_label, None, na, own, values);
                // Witness: the element's own text satisfying the test.
                let label = ArcLabel::TextSelf(tag);
                self.add_arc(na, label, Some(guard), t, own, [resolution]);
                self.add_arc(na, ArcLabel::End(tag), None, start, own, clear);
                self.add_arc(t, ArcLabel::End(tag), None, start, own, close);
                BuiltBpdt {
                    na: Some(na),
                    true_state: t,
                }
            }
            Template::Child { child, guard } => {
                let child = NamePat::Name(child);
                let na = self.add_state(id, StateRole::Na)?;
                let wit = self.add_state(id, StateRole::Witness)?;
                let t = self.add_state(id, StateRole::True)?;
                let values = entry_value(Disposition::OwnQueue);
                self.add_arc(start, entry_label, None, na, own, values);
                // Witness child: enter at its begin event (guard checks
                // the attribute for category 4), resolve at its end event
                // so that same-event uploads from the child's subtree are
                // already in this queue (Fig. 8 places the upload on
                // `</child>`).
                self.add_arc(na, ArcLabel::BeginChild(child), guard, wit, own, []);
                self.add_arc(wit, ArcLabel::End(child), None, t, own, [resolution]);
                self.add_arc(na, ArcLabel::End(tag), None, start, own, clear);
                self.add_arc(t, ArcLabel::End(tag), None, start, own, close);
                BuiltBpdt {
                    na: Some(na),
                    true_state: t,
                }
            }
            Template::TextOfChild { child, guard } => {
                let child = NamePat::Name(child);
                let na = self.add_state(id, StateRole::Na)?;
                let child_na = self.add_state(id, StateRole::Witness)?;
                let child_true = self.add_state(id, StateRole::Witness)?;
                let t = self.add_state(id, StateRole::True)?;
                let values = entry_value(Disposition::OwnQueue);
                self.add_arc(start, entry_label, None, na, own, values);
                // Fig. 9: descend into each child, test its text, come
                // back. Descending through its own states (rather than a
                // flat text-at-depth+1 arc) matters when the predicate
                // child carries the same tag as the next location step:
                // the begin event then nondeterministically both enters
                // the witness and continues the path.
                self.add_arc(na, ArcLabel::BeginChild(child), None, child_na, own, []);
                let witness = ArcLabel::TextSelf(child);
                self.add_arc(
                    child_na,
                    witness,
                    Some(guard),
                    child_true,
                    own,
                    [resolution],
                );
                self.add_arc(child_na, ArcLabel::End(child), None, na, own, []);
                // The second resolution on `</child>` is Example 7 / the
                // Fig. 10 flush on $5→$6: it catches result items
                // enqueued *between* the witness text event and the end
                // of the witness child (mixed content, nested matches
                // under closure).
                let end = ArcLabel::End(child);
                self.add_arc(child_true, end, None, t, own, [resolution]);
                self.add_arc(na, ArcLabel::End(tag), None, start, own, clear);
                self.add_arc(t, ArcLabel::End(tag), None, start, own, close);
                BuiltBpdt {
                    na: Some(na),
                    true_state: t,
                }
            }
            Template::Keyed(_) => unreachable!("keyed steps build through build_keyed_bpdt"),
        };

        if !leaf.is_empty() {
            self.attach_leaf_output(own, &built, tag, disp_true, leaf);
        }
        Ok(built)
    }

    /// Attach value-producing arcs to a BPDT that is some query's lowest
    /// layer.
    fn attach_leaf_output(
        &mut self,
        own: QueueRef,
        built: &BuiltBpdt,
        tag: NamePat,
        disp_true: Disposition,
        leaf: &[(u32, LeafValue)],
    ) {
        // Text-anchored values (`text()`, `sum()`, …): self-loops on the
        // NA state (buffer in own queue, pending the own predicate) and
        // the TRUE state (direct or to the nearest undecided ancestor).
        if leaf.iter().any(|&(_, v)| v == LeafValue::Text) {
            if let Some(na) = built.na {
                let values = text_values(leaf, Disposition::OwnQueue);
                self.add_arc(na, ArcLabel::TextSelf(tag), None, na, own, values);
            }
            let t = built.true_state;
            let values = text_values(leaf, disp_true);
            self.add_arc(t, ArcLabel::TextSelf(tag), None, t, own, values);
        }
        // Whole-element output (`*̄` catchall, Fig. 10): every event
        // strictly inside the matched element is appended, plus the
        // element's own text (which shares its depth); the template's
        // exit arcs close the item (`build_bpdt`'s `close`).
        if leaf.iter().any(|&(_, v)| v == LeafValue::Element) {
            for s in std::iter::once(built.true_state).chain(built.na) {
                let append = [Action::ElementAppend];
                self.add_arc(s, ArcLabel::Catchall, None, s, own, append);
                self.add_arc(s, ArcLabel::TextSelf(tag), None, s, own, append);
            }
        }
    }
}

/// At most what one BPDT instance adds, in states, arcs and actions:
/// the largest template's (text-of-child, Fig. 9: four states, seven
/// arcs, three actions), plus a closure self-loop and a whole-element
/// leaf's four arcs and seven actions. Read off `Builder::build_bpdt`;
/// an instance above it only costs the builder's arrays a regrowth.
const BPDT_BOUND: (usize, usize, usize) = (4, 12, 10);

/// Actions producing begin-anchored values (`@attr`, `count()`, element
/// output) on a leaf BPDT's entry arcs — one action per ending query
/// whose output is begin-anchored, each attributed to its tag.
fn entry_values(leaf: &[(u32, LeafValue)], to: Disposition) -> impl Iterator<Item = Action> + '_ {
    leaf.iter().filter_map(move |&(tag, value)| match value {
        LeafValue::Attr(a) => Some(Action::Emit {
            source: ValueSource::Attr(a),
            to,
            tag,
        }),
        LeafValue::Unit => Some(Action::Emit {
            source: ValueSource::Unit,
            to,
            tag,
        }),
        LeafValue::Element => Some(Action::ElementStart { to, tag }),
        LeafValue::Text => None,
    })
}

/// Actions producing text-anchored values (`text()`, numeric aggregates)
/// as self-loops on a leaf BPDT's NA/TRUE states — one per ending query
/// with text-anchored output.
fn text_values(leaf: &[(u32, LeafValue)], to: Disposition) -> impl Iterator<Item = Action> + '_ {
    leaf.iter()
        .filter(|&&(_, v)| v == LeafValue::Text)
        .map(move |&(tag, _)| Action::Emit {
            source: ValueSource::Text,
            to,
            tag,
        })
}

fn name_pat(test: &NodeTest) -> NamePat {
    match test {
        NodeTest::Name(n) => NamePat::Name(Sym::intern(n)),
        NodeTest::Wildcard => NamePat::Any,
    }
}

// ---- prefix-shared multi-query construction (§5 remark) ---------------

/// Items filed under a 64-bit hash of what their equality compares. A
/// lookup walks the items filed under one hash and confirms each with
/// that equality, so an item needs no `Eq` (a step may carry an `f64`),
/// and since nothing ever iterates the map, no output order comes from
/// it. Items are dense indices into the caller's own vector.
#[derive(Default)]
pub(crate) struct HashChains {
    /// Randomly keyed, as the standard maps are: query texts come from
    /// outside the program (a server's SUB), and crafted steps that
    /// collide under a fixed hash would make every lookup a scan.
    keys: RandomState,
    /// Per hash: the item filed last under it.
    head: HashMap<u64, usize>,
    /// Per item: the item filed before it under the same hash.
    next: Vec<Option<usize>>,
}

impl HashChains {
    /// The hash `key` is filed under; `Hash` must agree with the
    /// equality a lookup confirms with.
    pub(crate) fn hash(&self, key: &impl Hash) -> u64 {
        self.keys.hash_one(key)
    }

    /// The first item filed under `hash` that `same` confirms.
    pub(crate) fn find(&self, hash: u64, mut same: impl FnMut(usize) -> bool) -> Option<usize> {
        let mut item = self.head.get(&hash).copied();
        while let Some(i) = item {
            if same(i) {
                return Some(i);
            }
            item = self.next[i];
        }
        None
    }

    /// File `item` under `hash`.
    pub(crate) fn insert(&mut self, hash: u64, item: usize) {
        if self.next.len() <= item {
            self.next.resize(item + 1, None);
        }
        self.next[item] = self.head.insert(hash, item);
    }
}

/// One node of the location-step trie: a step shared by every query whose
/// path runs through this node.
struct TrieNode<'q> {
    /// Borrowed from the first query through this node; every other
    /// query through it has an equal step.
    step: &'q Step,
    /// `None` for a root.
    parent: Option<usize>,
    children: Vec<usize>,
    /// Queries whose last step this is, as `(tag, value)`. At or below a
    /// keyed node: the node's leaves instead, one per distinct value
    /// among those queries, as `(LEAF_BIT | leaf, value)` — the queries
    /// themselves are filed in `leaf_tags[leaf]`.
    leaf: Vec<(u32, LeafValue)>,
    /// Set on a keyed node: `step` stands for its whole family, whose
    /// literals these are.
    keyed: Option<KeyTable>,
    /// The step resolved for its BPDTs, at the first one built.
    plan: Option<StepPlan>,
}

/// The location-step trie of a query group. Roots and every child list
/// keep insertion order; a step finds its node through one hash lookup on
/// `(parent, step)`, not a scan of the siblings.
#[derive(Default)]
struct Trie<'q> {
    nodes: Vec<TrieNode<'q>>,
    roots: Vec<usize>,
    /// Every node made by [`Self::child`], filed by `(parent, step)`.
    index: HashChains,
}

impl<'q> Trie<'q> {
    /// A node for `step` under `parent`, not filed in the index.
    fn push(&mut self, step: &'q Step, parent: Option<usize>) -> usize {
        self.nodes.push(TrieNode {
            step,
            parent,
            children: Vec::new(),
            leaf: Vec::new(),
            keyed: None,
            plan: None,
        });
        self.nodes.len() - 1
    }

    /// The child of `parent` (a root for `None`) whose step equals
    /// `step`, appended to the child list if there is none yet.
    fn child(&mut self, parent: Option<usize>, step: &'q Step) -> usize {
        let hash = self.index.hash(&(parent, step));
        let nodes = &self.nodes;
        let found = self
            .index
            .find(hash, |c| nodes[c].parent == parent && nodes[c].step == step);
        if let Some(c) = found {
            return c;
        }
        let c = self.push(step, parent);
        self.index.insert(hash, c);
        match parent {
            Some(p) => self.nodes[p].children.push(c),
            None => self.roots.push(c),
        }
        c
    }
}

/// Where a keyable predicate reads the value it compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Witness<'a> {
    /// Category 2, `[text() = lit]`.
    SelfText,
    /// Category 5, `[child = lit]`.
    ChildText(&'a str),
    /// Category 4, `[child@attr = lit]`.
    ChildAttr(&'a str, &'a str),
}

/// Is the step's predicate an `=` comparison of a *buffering* category —
/// one whose values wait in a queue anyway? Category 1 (`[@attr = lit]`)
/// is not: it is decided at the begin event and buffers nothing, so
/// keying it would add a buffer.
fn keyable(step: &Step) -> Option<(Witness<'_>, KeyVal<'_>)> {
    let (witness, cmp) = match step.predicate.as_ref()? {
        Predicate::Text { cmp: Some(cmp) } => (Witness::SelfText, cmp),
        Predicate::ChildText { child, cmp } => (Witness::ChildText(child), cmp),
        Predicate::ChildAttr {
            child,
            attr,
            cmp: Some(cmp),
        } => (Witness::ChildAttr(child, attr), cmp),
        _ => return None,
    };
    let keyed = cmp.op == CmpOp::Eq && step.axis.is_forward();
    Some((witness, KeyVal::of(&cmp.rhs).filter(|_| keyed)?))
}

/// Fold `from`'s subtree into `into`'s, every query in it filed under the
/// family member `key` it came through: a query ending at a node joins
/// the node's leaf for its value (text-anchored outputs share the text,
/// `count()` the unit) — one shared item per event per leaf, whichever
/// side of an undecided ancestor reaches it. Steps below merge by
/// equality, as they do everywhere in the trie.
fn graft(
    trie: &mut Trie<'_>,
    leaf_tags: &mut Vec<Vec<(u32, u32)>>,
    into: usize,
    from: usize,
    key: u32,
) {
    for (tag, value) in std::mem::take(&mut trie.nodes[from].leaf) {
        let leaves = &mut trie.nodes[into].leaf;
        let leaf = match leaves.iter().find(|&&(_, v)| v == value) {
            Some((leaf, _)) => leaf & !LEAF_BIT,
            None => {
                leaves.push((LEAF_BIT | leaf_tags.len() as u32, value));
                leaf_tags.push(Vec::new());
                leaf_tags.len() as u32 - 1
            }
        };
        leaf_tags[leaf as usize].push((key, tag));
    }
    for child in std::mem::take(&mut trie.nodes[from].children) {
        let twin = trie.child(Some(into), trie.nodes[child].step);
        graft(trie, leaf_tags, twin, child, key);
    }
}

/// The siblings of one family class — same witness, axis and node test —
/// in sibling order, with their literals interned in that order.
struct FamilyClass<'q> {
    class: (Witness<'q>, Axis, &'q NodeTest),
    members: Vec<(usize, u32)>,
    table: KeyTable,
}

/// Among `siblings`, replace every family — same axis, node test and
/// witness, ≥ 2 distinct `=` literals — by one keyed node holding the
/// members' merged subtrees, at its first member's place; then do the
/// same below every node that stayed classic. One pass files each
/// keyable sibling in its class, a second forms the families. Nothing
/// below a keyed node is keyed again: a path has at most one keyed step,
/// its first. A batch without a family is left as it was.
fn key_families(
    trie: &mut Trie<'_>,
    leaf_tags: &mut Vec<Vec<(u32, u32)>>,
    siblings: &mut Vec<usize>,
) {
    let mut classes: Vec<FamilyClass<'_>> = Vec::new();
    let mut class_of: Vec<Option<usize>> = vec![None; siblings.len()];
    let mut index = HashChains::default();
    for (pos, &s) in siblings.iter().enumerate() {
        let step = trie.nodes[s].step;
        let Some((witness, key)) = keyable(step) else {
            continue;
        };
        let of = (witness, step.axis, &step.test);
        let hash = index.hash(&of);
        let class = index.find(hash, |c| classes[c].class == of);
        let class = class.unwrap_or_else(|| {
            classes.push(FamilyClass {
                class: of,
                members: Vec::new(),
                table: KeyTable::default(),
            });
            index.insert(hash, classes.len() - 1);
            classes.len() - 1
        });
        let key = classes[class].table.intern(key);
        classes[class].members.push((s, key));
        class_of[pos] = Some(class);
    }
    let family: Vec<bool> = classes.iter().map(|c| c.table.len() >= 2).collect();
    if family.contains(&true) {
        let mut kept = Vec::with_capacity(siblings.len());
        for (pos, &s) in siblings.iter().enumerate() {
            let class = match class_of[pos] {
                Some(c) if family[c] => &mut classes[c],
                _ => {
                    kept.push(s);
                    continue;
                }
            };
            if class.members[0].0 != s {
                continue;
            }
            let node = trie.push(trie.nodes[s].step, trie.nodes[s].parent);
            for &(member, key) in &class.members {
                graft(trie, leaf_tags, node, member, key);
            }
            trie.nodes[node].keyed = Some(std::mem::take(&mut class.table));
            kept.push(node);
        }
        *siblings = kept;
    }
    for &s in siblings.iter() {
        if trie.nodes[s].keyed.is_none() {
            let mut children = std::mem::take(&mut trie.nodes[s].children);
            key_families(trie, leaf_tags, &mut children);
            trie.nodes[s].children = children;
        }
    }
}

/// Build one HPDT answering several queries at once, moving them into it.
/// Queries whose location-step prefixes coincide (same axis, node test,
/// and predicate) share a single BPDT chain up to the divergence point
/// and fan out below it — the grouping the paper's §5 remark says the
/// HPDT's "simple and regular structure" makes possible. Every emitted
/// result carries the tag of its originating query (`merged[tag]`), so
/// attribution survives the merge.
///
/// Whole-element output is only supported for a singleton group: its
/// catchall serialization machinery assumes the configuration's open
/// item belongs to it alone, which sharing would violate.
pub fn build_merged_hpdt(queries: Vec<Query>) -> Result<Hpdt, CompileError> {
    let mut b = Builder::default();
    let (start, layers) = b.build_merged(&queries)?;
    Ok(b.finish(start, layers, queries))
}

/// Compile one planned group, moving its queries into the HPDT: a lone
/// query on the single-query path, bit-identical to [`build_hpdt`],
/// several through [`build_merged_hpdt`]'s trie. A failure hands the
/// group back beside the error, for the planner to blame a member.
pub(crate) fn build_group(queries: Vec<Query>) -> Result<Hpdt, (CompileError, Vec<Query>)> {
    let mut b = Builder::default();
    let built = match queries.as_slice() {
        [query] => b.build(query),
        _ => b.build_merged(&queries),
    };
    match built {
        Ok((start, layers)) => Ok(b.finish(start, layers, queries)),
        Err(e) => Err((e, queries)),
    }
}

impl Builder {
    /// The arcs of a merged HPDT over `queries`; returns its start state
    /// and layer count.
    fn build_merged(&mut self, queries: &[Query]) -> Result<(StateId, u16), CompileError> {
        if queries.is_empty() {
            return Err(CompileError::Unsupported {
                feature: "an empty query group".into(),
                engine: "XSQ".into(),
            });
        }
        if queries.len() > 1 && queries.iter().any(|q| q.output == Output::Element) {
            return Err(CompileError::Unsupported {
                feature: "element output inside a merged query group".into(),
                engine: "XSQ".into(),
            });
        }

        // Build the step trie. Two steps share a node iff they are equal
        // (axis + node test + predicate), which keeps the shared chain's
        // buffer semantics identical to each member's private chain.
        let mut trie = Trie::default();
        for (i, q) in queries.iter().enumerate() {
            let mut parent: Option<usize> = None;
            for step in &q.steps {
                parent = Some(trie.child(parent, step));
            }
            let leaf = parent.expect("parser guarantees at least one step");
            trie.nodes[leaf]
                .leaf
                .push((i as u32, LeafValue::of(&q.output)));
        }

        // Expand the trie breadth-first, exactly like the single-query
        // builder but with (a) fresh sequence numbers per layer — the
        // binary id encoding cannot describe fan-out beyond two — and (b)
        // the predicate context carried explicitly.
        let mut roots = std::mem::take(&mut trie.roots);
        key_families(&mut trie, &mut self.leaf_tags, &mut roots);
        for tags in &mut self.leaf_tags {
            tags.sort_unstable();
        }
        let (start, root_true) = self.build_root()?;

        let mut layer: u16 = 1;
        let mut layers: u16 = 0;
        // A state that several closure steps grow out of carries one `//`
        // self-loop, put there by the first of them: `(node, context,
        // start, adds the loop)`.
        let mut looped = false;
        let mut frontier: Vec<(usize, PredCx, StateId, bool)> = Vec::with_capacity(roots.len());
        for &r in &roots {
            let closure = trie.nodes[r].step.axis == Axis::Closure;
            frontier.push((r, PredCx::ROOT, root_true, closure && !looped));
            looped |= closure;
        }
        while !frontier.is_empty() {
            layers = layer;
            let mut next = Vec::new();
            for (seq, (node_idx, cx, start_state, adds_loop)) in frontier.into_iter().enumerate() {
                let own = self.register_queue(BpdtId::new(layer, seq as u64));
                let node = &trie.nodes[node_idx];
                let plan = match node.plan {
                    Some(plan) => plan,
                    None => self.plan_step(node.step, node.keyed.is_some())?,
                };
                trie.nodes[node_idx].plan = Some(plan);
                let node = &trie.nodes[node_idx];
                let (na, true_state) = match &node.keyed {
                    None => {
                        let built =
                            self.build_bpdt(plan, own, cx, start_state, &node.leaf, adds_loop)?;
                        (built.na, Some(built.true_state))
                    }
                    Some(family) => {
                        let (step, leaf) = (node.step, &node.leaf);
                        let na = self.build_keyed_bpdt(
                            step,
                            plan,
                            family,
                            own,
                            cx,
                            start_state,
                            leaf,
                            adds_loop,
                        )?;
                        (Some(na), None)
                    }
                };
                let (mut na_looped, mut true_looped) = (false, false);
                for &child in &node.children {
                    let closure = trie.nodes[child].step.axis == Axis::Closure;
                    if let Some(na) = na {
                        next.push((child, cx.na_side(own), na, closure && !na_looped));
                        na_looped |= closure;
                    }
                    if let Some(t) = true_state {
                        next.push((child, cx.true_side(), t, closure && !true_looped));
                        true_looped |= closure;
                    }
                }
            }
            frontier = next;
            layer += 1;
        }
        Ok((start, layers))
    }
}

/// A keyed step as dumps name it: `tag[child=?×N]`.
fn keyed_step_name(step: &Step, literals: usize) -> String {
    let text = step.to_string();
    let (head, _) = text.split_once('=').expect("a keyed step compares by `=`");
    format!("{}=?×{literals}]", head.trim_start_matches('/'))
}

/// Per flag, how many set flags precede it: a kept item's new index.
fn ranks(flags: &[bool]) -> Vec<u32> {
    let mut next = 0;
    flags
        .iter()
        .map(|&f| {
            let rank = next;
            next += f as u32;
            rank
        })
        .collect()
}

/// Keep the items whose flag is set, in order.
fn retain_flagged<T>(items: &mut Vec<T>, flags: &[bool]) {
    let mut flag = flags.iter();
    items.retain(|_| *flag.next().expect("one flag per item"));
}

/// The arcs made, grouped by source state in one counting pass that
/// keeps each state's in the order made: the arc array and its CSR
/// offsets (`Hpdt::offsets`) over `states` states.
fn group_by_state(made: &[(StateId, Arc)], states: usize) -> (Vec<Arc>, Vec<u32>) {
    let mut offsets = vec![0u32; states + 1];
    for &(from, _) in made {
        offsets[from as usize] += 1;
    }
    // Each state's count becomes where its run starts.
    let mut at = 0;
    for slot in &mut offsets {
        (*slot, at) = (at, at + *slot);
    }
    let Some(&(_, filler)) = made.first() else {
        return (Vec::new(), offsets);
    };
    let mut arcs = vec![filler; made.len()];
    for &(from, arc) in made {
        let next = &mut offsets[from as usize];
        arcs[*next as usize] = arc;
        *next += 1;
    }
    // Each start has moved to its run's end — the next state's start.
    offsets.copy_within(..states, 1);
    offsets[0] = 0;
    (arcs, offsets)
}

/// Does any action enqueue a value into a buffer? When nothing ever
/// enqueues, the flush/upload/clear machinery is provably a no-op and the
/// runner can skip allocating queues entirely (buffer-necessity analysis).
fn uses_buffers(arcs: &[Arc], actions: &[Action]) -> bool {
    arcs.iter()
        .flat_map(|arc| &actions[arc.actions.range()])
        .any(|a| matches!(a.fill(), Some((Fill::Own | Fill::Enqueue, _))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsq_xpath::parse_query;

    fn hpdt(q: &str) -> Hpdt {
        build_hpdt(&parse_query(q).unwrap()).unwrap()
    }

    #[test]
    fn fig11_structure_has_expected_bpdts() {
        let h = hpdt("//pub[year>2000]//book[author]//name/text()");
        // Fig. 11: root, (1,1), (2,2), (2,3), (3,4), (3,5), (3,6), (3,7).
        assert_eq!(h.bpdt_count(), 8);
        assert!(!h.deterministic);
        assert_eq!(h.layers, 3);
        for id in [
            BpdtId::ROOT,
            BpdtId::new(1, 1),
            BpdtId::new(2, 2),
            BpdtId::new(2, 3),
            BpdtId::new(3, 4),
            BpdtId::new(3, 5),
            BpdtId::new(3, 6),
            BpdtId::new(3, 7),
        ] {
            assert!(h.queues.contains(&id), "missing {id}");
        }
    }

    #[test]
    fn no_predicate_steps_spawn_no_right_children() {
        let h = hpdt("/a/b/c/text()");
        // Root + one BPDT per layer: no predicates, so no NA states.
        assert_eq!(h.bpdt_count(), 4);
        assert!(h.deterministic);
    }

    #[test]
    fn attr_predicates_have_no_na_state() {
        let h = hpdt("/a[@id]/b/text()");
        // Category 1 is decided at begin: right child of layer 1 is NULL.
        assert_eq!(h.bpdt_count(), 3); // root, (1,1), (2,3)
        assert!(h.queues.contains(&BpdtId::new(2, 3)));
        assert!(!h.queues.contains(&BpdtId::new(2, 2)));
    }

    #[test]
    fn closure_adds_self_loops() {
        let h = hpdt("//a/text()");
        let self_loops = h
            .arcs
            .iter()
            .filter(|a| a.label == ArcLabel::ClosureSelfLoop)
            .count();
        assert_eq!(self_loops, 1);
        assert!(!h.deterministic);
    }

    #[test]
    fn deterministic_query_mostly_avoids_scan_all() {
        let h = hpdt("/pub[year=2002]/book[price<11]/author/text()");
        // A few states may be conservatively flagged, but the majority of
        // states of a closure-free query are first-match safe.
        let flagged = h.scan_all.iter().filter(|b| **b).count();
        assert!(
            flagged * 2 <= h.states.len(),
            "too many scan-all states: {flagged}/{}",
            h.states.len()
        );
    }

    #[test]
    fn element_output_adds_catchall() {
        let h = hpdt("//book[author]");
        assert!(h.arcs.iter().any(|a| a.label == ArcLabel::Catchall));
        assert!(h.actions.contains(&Action::ElementEnd));
    }

    #[test]
    fn state_count_is_modest_for_paper_queries() {
        for q in [
            "/pub[year=2002]/book[price<11]/author",
            "//pub[year>2000]//book[author]//name/text()",
            "/PLAY/ACT/SCENE/SPEECH[LINE%love]/SPEAKER/text()",
            "/dblp/inproceedings[author]/title/text()",
            "//pub[year]//book[@id]/title/text()",
        ] {
            let h = hpdt(q);
            assert!(h.states.len() < 100, "{q}: {} states", h.states.len());
        }
    }

    #[test]
    fn flush_vs_upload_follows_id_bits() {
        // Fig. 11, read off what the builder emits. Writing k = (b1 … bl)₂,
        // an all-ones id flushes to the output; otherwise its values and
        // uploads go to the nearest undecided ancestor, the lowest zero bit.
        let h = hpdt("//pub[year>2000]//book[author]//name/text()");
        let id = BpdtId::new;
        // Where `owner`'s arcs send what they release: `None` is straight
        // to the output. Every named queue is named both ways, by id and
        // by slot.
        let routes = |owner: BpdtId, emits: bool| -> Vec<Option<BpdtId>> {
            let arcs = h.arcs.iter().filter(|a| a.owner.id == owner);
            let queue = |q: &QueueRef| {
                assert_eq!(h.queues[q.slot as usize], q.id);
                Some(Some(q.id))
            };
            arcs.flat_map(|a| h.actions_of(a))
                .filter_map(|act| match (act, emits) {
                    (Action::Emit { to, .. }, true) => match to {
                        Disposition::Direct => Some(None),
                        Disposition::Queue(q) => queue(q),
                        Disposition::OwnQueue => panic!("the leaf `name` has no predicate"),
                    },
                    (Action::FlushSelf, false) => Some(None),
                    (Action::UploadSelf(q), false) => queue(q),
                    _ => None,
                })
                .collect()
        };
        // Example 5: bpdt(3,4) = (100)₂, book and pub undecided — the name
        // text waits in the book BPDT's queue first.
        assert_eq!(routes(id(3, 4), true), [Some(id(2, 2))]);
        // Example 7: bpdt(3,5) = (101)₂, book true and pub undecided — the
        // text goes straight to bpdt(1,1), skipping bpdt(2,2).
        assert_eq!(routes(id(3, 5), true), [Some(id(1, 1))]);
        // bpdt(3,6) = (110)₂: pub true, book undecided.
        assert_eq!(routes(id(3, 6), true), [Some(id(2, 3))]);
        // bpdt(3,7) = (111)₂: every predicate true, so straight out.
        assert_eq!(routes(id(3, 7), true), [None]);
        // Example 5: bpdt(2,2)'s `[author]` witness uploads to bpdt(1,1);
        // all-true bpdt(2,3) flushes instead.
        assert_eq!(routes(id(2, 2), false), [Some(id(1, 1))]);
        assert_eq!(routes(id(2, 3), false), [None]);
    }

    fn merged(queries: &[String]) -> Hpdt {
        let parsed: Vec<_> = queries.iter().map(|q| parse_query(q).unwrap()).collect();
        build_merged_hpdt(parsed).unwrap()
    }

    #[test]
    fn a_family_is_one_bpdt_however_many_literals_it_has() {
        let family = |n: usize| -> Vec<String> {
            (0..n)
                .flat_map(|y| {
                    [
                        format!("/dblp/article[year={}]/title/text()", 1900 + y),
                        format!("/dblp/article[year={}]/@key", 1900 + y),
                    ]
                })
                .collect()
        };
        let (two, many) = (merged(&family(2)), merged(&family(64)));
        // root, dblp, the keyed article step, title: NA and witness state
        // once, however many subscriptions hang off them.
        assert_eq!((two.states.len(), two.bpdt_count()), (6, 4));
        assert_eq!((many.states.len(), many.bpdt_count()), (6, 4));
        assert_eq!(many.arc_count(), two.arc_count());
        assert_eq!(many.keyed.len(), 1);
        assert_eq!(many.keyed[0].step, "article[year=?×64]");
        assert_eq!(many.keyed[0].table.len(), 64);
        // One leaf per value source; each lists its 64 (key, tag) pairs.
        assert_eq!(many.leaf_tags.len(), 2);
        assert!((0..2).all(|leaf| many.leaf_tags.of(leaf).len() == 64));
        assert_eq!(many.buffered_members(), [true; 128]);
        assert!(many.dump().contains("keyed bpdt(2,0): article[year=?×64]"));
        for hpdt in [&two, &many] {
            let diags = crate::analyze::verify(hpdt);
            assert!(!crate::analyze::has_errors(&diags), "{diags:?}");
        }
    }

    #[test]
    fn every_buffering_category_keys_and_category_one_does_not() {
        for (a, b, name) in [
            (
                "/r/a[text()=1]/@x",
                "/r/a[text()=\"one\"]/@x",
                "a[text()=?×2]",
            ),
            ("//a[b=1]/c/text()", "//a[b=2]/c/count()", "a[b=?×2]"),
            ("/r/*[b@x=1]/text()", "/r/*[b@x=2]/c/text()", "*[b@x=?×2]"),
        ] {
            let h = merged(&[a.into(), b.into()]);
            assert_eq!(h.keyed.len(), 1, "{a} + {b}");
            assert_eq!(h.keyed[0].step, name);
            let diags = crate::analyze::verify(&h);
            assert!(!crate::analyze::has_errors(&diags), "{a} + {b}: {diags:?}");
        }
        // Decided at the begin event, buffers nothing: stays per literal.
        // So do other operators, and literals that are one value.
        for (a, b) in [
            ("/r/a[@x=1]/c/text()", "/r/a[@x=2]/c/text()"),
            ("/r/a[b>1]/c/text()", "/r/a[b>2]/c/text()"),
            ("/r/a[b!=1]/c/text()", "/r/a[b!=2]/c/text()"),
            ("/r/a[b=1]/c/text()", "/r/a[b=1.0]/d/text()"),
        ] {
            assert!(merged(&[a.into(), b.into()]).keyed.is_empty(), "{a} + {b}");
        }
    }

    #[test]
    fn only_the_first_keyable_step_of_a_path_is_keyed() {
        let h = merged(&[
            "/r/a[k=1]/b[y=1]/text()".into(),
            "/r/a[k=1]/b[y=2]/text()".into(),
            "/r/a[k=2]/b[y=1]/text()".into(),
            "/r/a[k=2]/b[y=3]/text()".into(),
        ]);
        assert_eq!(h.keyed.len(), 1);
        assert_eq!(h.keyed[0].step, "a[k=?×2]");
        // Below it b[y=1], b[y=2], b[y=3] are three classic BPDTs — each
        // hanging off the keyed NA state only — with their guards intact.
        assert_eq!(h.bpdt_count(), 3 + 3);
        let guards = h.arcs.iter().filter(|a| a.guard.is_some());
        assert_eq!(guards.count(), 3);
        // A lone literal at the first keyable step leaves it classic and
        // moves the keyed step down the path.
        let h = merged(&[
            "/r/a[k=1]/b[y=1]/text()".into(),
            "/r/a[k=1]/b[y=2]/text()".into(),
        ]);
        assert_eq!(h.keyed[0].step, "b[y=?×2]");
    }

    /// FNV-1a of a dump, for pinning the builder's output.
    fn fnv(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        })
    }

    #[test]
    fn batches_without_a_family_build_what_they_always_built() {
        // Dump hashes taken from the builder as it was before keyed steps
        // existed: the referee's `serve_bulk` and `broadcast_fanout`
        // batches, and a batch of one-literal "families" (1 ≡ 1.0),
        // relational and category-1 siblings. The `broadcast_fanout`
        // hash is of that output with its four `//` self-loops on the
        // root's TRUE state folded to one, the automaton that always ran.
        let pinned: [(&[&str], u64, usize, usize); 3] = [
            (
                &[
                    "/dblp/inproceedings[booktitle]/title/text()",
                    "/dblp/article/@key",
                    "/dblp/article[year>1995]/author/text()",
                    "//year/count()",
                ],
                0x6ba3_3716_ada2_5f2f,
                16,
                10,
            ),
            (
                &[
                    "//pub[year]//book[@id]/title/text()",
                    "//pub/book/title/text()",
                    "//book/@id",
                    "//book/price/text()",
                    "//price/sum()",
                    "//book/count()",
                ],
                0xa29f_be36_5466_c7d9,
                15,
                12,
            ),
            (
                &[
                    "/r/a[k=1]/v/text()",
                    "/r/a[k=1]/w/text()",
                    "/r/a[k=1.0]/v/@id",
                    "/r/a[k>1]/v/text()",
                    "/r/a[@k=1]/v/text()",
                    "/r/a[@k=2]/v/text()",
                ],
                0x6b86_237d_e4cd_2340,
                27,
                17,
            ),
        ];
        for (batch, hash, states, bpdts) in pinned {
            let queries: Vec<String> = batch.iter().map(|q| q.to_string()).collect();
            let h = merged(&queries);
            assert!(h.keyed.is_empty() && h.leaf_tags.is_empty());
            assert_eq!(
                (h.states.len(), h.bpdt_count()),
                (states, bpdts),
                "{batch:?}"
            );
            assert_eq!(fnv(&h.dump()), hash, "{batch:?}\n{}", h.dump());
        }
    }

    #[test]
    fn clean_queries_reach_every_state() {
        for q in [
            "/a/b/text()",
            "/pub[year=2002]/book[price<11]/author",
            "//pub[year>2000]//book[author]//name/text()",
            "/a[@id]/b/text()",
            "//b/count()",
        ] {
            let h = hpdt(q);
            let reachable = reachable_states(&h.arcs, &h.offsets, h.start);
            assert!(reachable.iter().all(|&r| r), "{q}");
            let diags = crate::analyze::verify(&h);
            assert!(diags.is_empty(), "{q}: {diags:?}");
        }
    }

    #[test]
    fn unsatisfiable_guards_build_only_the_live_part() {
        // `@sev > "critical"` and `b < "xyz"` compare numerically against
        // NaN: never true. The guarded arc is never made, and the states
        // behind it — the step's TRUE side and everything below — are
        // dropped before sealing.
        for (dead, twin) in [
            (
                "/feed/t[@sev>critical]/f/text()",
                "/feed/t[@sev>5]/f/text()",
            ),
            ("/a[b<xyz]/c/text()", "/a[b<5]/c/text()"),
        ] {
            let (h, t) = (hpdt(dead), hpdt(twin));
            assert!(h.states.len() < t.states.len(), "{dead}");
            assert!(h.queues.len() < t.queues.len(), "{dead}");
            assert!(reachable_states(&h.arcs, &h.offsets, h.start)
                .iter()
                .all(|&r| r));
            let diags = crate::analyze::verify(&h);
            assert!(!crate::analyze::has_errors(&diags), "{dead}: {diags:?}");
        }
    }

    #[test]
    fn a_shared_state_has_one_closure_self_loop() {
        // Both closure steps expand from the shared `/feed` TRUE state;
        // the runtime reads the loop as one `stays` bit, so one is built.
        let h = merged(&["/feed//a/text()".into(), "/feed//b/text()".into()]);
        let loops = |arcs: &[Arc]| {
            let loops = arcs.iter().filter(|a| a.label == ArcLabel::ClosureSelfLoop);
            loops.count()
        };
        let per_state = crate::arcs::runs(&h.arcs, &h.offsets).map(loops);
        assert_eq!(per_state.max(), Some(1));
        assert_eq!(loops(&h.arcs), 1);
    }

    #[test]
    fn a_closure_below_a_dead_predicate_compiles_deterministic() {
        // The closure lives below an unsatisfiable guard, so it is never
        // built: the artifact is deterministic although the query says `//`.
        let h = hpdt("/a[@x>nope]//b/text()");
        assert!(h.deterministic);
        let compiled = crate::XsqEngine::full().compile_str("/a[@x>nope]//b/text()");
        assert_eq!(compiled.unwrap().engine_label(), "XSQ-NC (auto)");
    }

    #[test]
    fn dump_is_readable() {
        let h = hpdt("/a[b]/c/text()");
        let d = h.dump();
        assert!(d.contains("HPDT for /a[b]/c/text()"));
        assert!(d.contains("bpdt(1,1)"));
    }

    #[test]
    fn deep_predicate_queries_hit_the_state_cap() {
        // 20 predicated closure steps would want 2^20 BPDTs; 70 more
        // than a `usize` counts, which the sizing must survive.
        for steps in [20, 70] {
            let q = "//a[b]".repeat(steps) + "/text()";
            let parsed = parse_query(&q).unwrap();
            assert!(matches!(
                build_hpdt(&parsed),
                Err(CompileError::Unsupported { .. })
            ));
        }
    }
}
