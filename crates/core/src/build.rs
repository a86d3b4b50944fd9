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
//! Every buffer decision is precomputed from the BPDT id: whether a
//! predicate-true transition flushes (all ancestor bits set) or uploads
//! (to the nearest zero bit), and where produced values are routed.

use xsq_xml::Sym;
use xsq_xpath::classify::{classify, StepCategory};
use xsq_xpath::{AggFunc, Axis, CmpOp, FnArg, NodeTest, Output, Predicate, Query, Step};

use crate::analyze::prove_deterministic;
use crate::arcs::{
    compute_arc_tables, compute_stays, Action, AnyDepthArcs, Arc, ArcLabel, ArcTable, Disposition,
    Fill, Guard, KeyTable, KeyVal, NamePat, QueueRef, StateId, StateInfo, StateRole, ValueSource,
};
use crate::error::CompileError;
use crate::ids::BpdtId;
use crate::items::LEAF_BIT;

/// Hard cap on generated states. The binary tree of BPDTs is exponential
/// in the number of *predicated* steps, which is tiny for real queries;
/// the cap turns pathological inputs into a clean error.
const MAX_STATES: usize = 100_000;

/// A compiled hierarchical pushdown transducer.
#[derive(Debug)]
pub struct Hpdt {
    pub states: Vec<StateInfo>,
    /// Outgoing arcs per state.
    pub arcs: Vec<Vec<Arc>>,
    /// Per state: `true` when several arcs might accept the same event,
    /// so a runtime must scan all arcs even in deterministic mode.
    pub scan_all: Vec<bool>,
    /// Per state: the `//` self-loop, compiled (`compute_stays`).
    pub(crate) stays: Vec<bool>,
    /// Per state: keyed index over the outgoing arcs, present only where
    /// the arc count makes probing cheaper than a linear scan (merged
    /// frontier states with hundreds of named arcs). Shared by every
    /// runner of this HPDT.
    pub(crate) arc_tables: Vec<Option<ArcTable>>,
    /// Per state: the arcs a configuration anchored above the event's
    /// parent can still fire (closure entry arcs, the catchall).
    pub(crate) any_depth: AnyDepthArcs,
    /// The global start state.
    pub start: StateId,
    /// The BPDT behind every dense queue slot (buffer storage at
    /// runtime); arcs carry the slot beside the id ([`QueueRef`]).
    pub queues: Vec<BpdtId>,
    /// Number of BPDTs (= number of queues).
    pub bpdt_count: usize,
    /// Number of location steps (for a merged HPDT: the longest path).
    pub layers: u16,
    /// The query this HPDT answers (for a merged HPDT: the first member,
    /// kept for display purposes).
    pub query: Query,
    /// All queries this HPDT answers, in tag order: `merged[t]` is the
    /// query whose results carry tag `t`. A single-query HPDT has exactly
    /// one entry. Built by [`build_merged_hpdt`] for prefix-shared
    /// multi-query evaluation.
    pub merged: Vec<Query>,
    /// True when no arc is a closure arc: the HPDT is deterministic (§3.4)
    /// and eligible for the XSQ-NC runtime. A freshly built HPDT has one
    /// exactly when its query has no closure axis; pruning can delete
    /// every closure arc of a query that has one.
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
    pub leaf_tags: Vec<Vec<(u32, u32)>>,
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

impl Hpdt {
    /// Seal arcs into an HPDT. Everything else is derived here, from the
    /// arcs alone: what the runtime reads per state (`scan_all`, `stays`,
    /// `arc_tables`, `any_depth`) and the two verdicts the engine acts on
    /// (`buffered`, `deterministic`). The builders and the pruner all end
    /// here, so no table can disagree with the arcs it was derived from.
    /// `merged` is never empty; its first member is [`Self::query`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn seal(
        states: Vec<StateInfo>,
        arcs: Vec<Vec<Arc>>,
        start: StateId,
        queues: Vec<BpdtId>,
        layers: u16,
        merged: Vec<Query>,
        keyed: Vec<KeyedStep>,
        leaf_tags: Vec<Vec<(u32, u32)>>,
    ) -> Hpdt {
        Hpdt {
            scan_all: compute_scan_all(&arcs),
            stays: compute_stays(&arcs),
            arc_tables: compute_arc_tables(&arcs),
            any_depth: AnyDepthArcs::new(&arcs),
            buffered: uses_buffers(&arcs),
            deterministic: prove_deterministic(&arcs),
            bpdt_count: queues.len(),
            start,
            states,
            arcs,
            queues,
            layers,
            query: merged[0].clone(),
            merged,
            keyed,
            leaf_tags,
        }
    }

    /// Total number of transition arcs.
    pub fn arc_count(&self) -> usize {
        self.arcs.iter().map(Vec::len).sum()
    }

    /// [`Self::buffered`] per answered query, in tag order: does any
    /// action enqueue a value of `merged[t]` into a buffer? A merged
    /// group answers for each member what that member's own HPDT would.
    pub(crate) fn buffered_members(&self) -> Vec<bool> {
        let mut buffered = vec![false; self.merged.len()];
        for action in self.arcs.iter().flatten().flat_map(|arc| &arc.actions) {
            if let Action::Emit { to, tag, .. } | Action::ElementStart { to, tag } = action {
                let enqueues = !matches!(to, Disposition::Direct);
                if tag & LEAF_BIT == 0 {
                    buffered[*tag as usize] |= enqueues;
                } else {
                    for &(_, t) in &self.leaf_tags[(tag & !LEAF_BIT) as usize] {
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
            self.query,
            self.states.len(),
            self.arc_count(),
            self.bpdt_count,
            if self.deterministic {
                " (deterministic)"
            } else {
                ""
            }
        );
        for (i, info) in self.states.iter().enumerate() {
            let _ = writeln!(s, "  ${i} {:?} of {}", info.role, info.owner);
            for a in &self.arcs[i] {
                let _ = writeln!(
                    s,
                    "    --{:?}{}--> ${} {:?}",
                    a.label,
                    if a.guard.is_some() { " [guarded]" } else { "" },
                    a.target,
                    a.actions
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

/// Build the HPDT for a parsed query.
pub fn build_hpdt(query: &Query) -> Result<Hpdt, CompileError> {
    Builder::default().build(query)
}

#[derive(Default)]
struct Builder {
    states: Vec<StateInfo>,
    arcs: Vec<Vec<Arc>>,
    queues: Vec<BpdtId>,
    keyed: Vec<KeyedStep>,
    leaf_tags: Vec<Vec<(u32, u32)>>,
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

impl Builder {
    fn add_state(&mut self, owner: BpdtId, role: StateRole) -> Result<StateId, CompileError> {
        if self.states.len() >= MAX_STATES {
            return Err(CompileError::Unsupported {
                feature: format!("queries compiling to more than {MAX_STATES} states"),
                engine: "XSQ".into(),
            });
        }
        let id = self.states.len() as StateId;
        self.states.push(StateInfo { owner, role });
        self.arcs.push(Vec::new());
        Ok(id)
    }

    fn add_arc(
        &mut self,
        from: StateId,
        label: ArcLabel,
        guard: Option<Guard>,
        target: StateId,
        owner: QueueRef,
        actions: Vec<Action>,
    ) {
        self.arcs[from as usize].push(Arc::new(label, guard, target, owner, actions));
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
        self.add_arc(start, ArcLabel::StartDoc, None, root_true, root, vec![]);
        self.add_arc(root_true, ArcLabel::EndDoc, None, start, root, vec![]);
        Ok((start, root_true))
    }

    /// Seal the arcs into an [`Hpdt`] answering `merged`.
    fn finish(self, start: StateId, layers: u16, merged: Vec<Query>) -> Hpdt {
        Hpdt::seal(
            self.states,
            self.arcs,
            start,
            self.queues,
            layers,
            merged,
            self.keyed,
            self.leaf_tags,
        )
    }

    fn build(mut self, query: &Query) -> Result<Hpdt, CompileError> {
        let n = query.steps.len() as u16;
        debug_assert!(n > 0, "parser guarantees at least one step");

        let (start, root_true) = self.build_root()?;

        // Layer-by-layer expansion. The root has no NA state, so its right
        // child is NULL and layer 1 contains only bpdt(1,1).
        let leaf_spec = [(0u32, query.output.clone())];
        let mut frontier: Vec<(BpdtId, PredCx, StateId)> =
            vec![(BpdtId::ROOT.left_child(), PredCx::ROOT, root_true)];
        for (i, step) in query.steps.iter().enumerate() {
            let layer = i as u16 + 1;
            let is_leaf = layer == n;
            let leaf_specs: &[(u32, Output)] = if is_leaf { &leaf_spec } else { &[] };
            let mut next = Vec::new();
            for (id, cx, start_state) in frontier {
                debug_assert_eq!(id.layer, layer);
                let own = self.register_queue(id);
                let built = self.build_bpdt(step, own, cx, start_state, leaf_specs)?;
                if !is_leaf {
                    if let Some(na) = built.na {
                        next.push((id.right_child(), cx.na_side(own), na));
                    }
                    next.push((id.left_child(), cx.true_side(), built.true_state));
                }
            }
            frontier = next;
        }

        Ok(self.finish(start, n, vec![query.clone()]))
    }

    /// The label of a step's entry arcs. Closure steps: `//` self-loop on
    /// the START state so the search keeps descending, and any-depth
    /// (`=`-marked) entry arcs.
    fn entry_label(&mut self, step: &Step, start: StateId, own: QueueRef) -> ArcLabel {
        let tag = name_pat(&step.test);
        if step.axis == Axis::Closure {
            self.add_arc(start, ArcLabel::ClosureSelfLoop, None, start, own, vec![]);
            ArcLabel::BeginAnyDepth(tag)
        } else {
            ArcLabel::BeginChild(tag)
        }
    }

    /// Instantiate a keyed step — a family of siblings equal up to the
    /// literal of `[witness = literal]` — as one BPDT that never reaches
    /// TRUE: the witness events probe the family's key table and record
    /// the hits, values buffer in the own queue as for any undecided
    /// predicate, and the element's end tag resolves them per key
    /// ([`Action::ResolveKeyed`]). Returns the NA state, the only one
    /// children hang off.
    fn build_keyed_bpdt(
        &mut self,
        step: &Step,
        table: &KeyTable,
        own: QueueRef,
        cx: PredCx,
        start: StateId,
        leaf_specs: &[(u32, Output)],
    ) -> Result<StateId, CompileError> {
        self.keyed.push(KeyedStep {
            bpdt: own.id,
            step: keyed_step_name(step, table.len()),
            table: table.clone(),
        });
        let table = self.keyed.len() as u32 - 1;
        let (witness, _) = keyable(step).expect("a keyed node's step is keyable");
        let tag = name_pat(&step.test);
        let entry_label = self.entry_label(step, start, own);
        let na = self.add_state(own.id, StateRole::Na)?;
        let entry_values = entry_value_actions(leaf_specs, Disposition::OwnQueue);
        self.add_arc(start, entry_label, None, na, own, entry_values);
        let record = |attr| Action::RecordKey { table, attr };
        let mut own_text = text_value_actions(leaf_specs, Disposition::OwnQueue);
        match witness {
            Witness::SelfText => own_text.insert(0, record(None)),
            // Through a state of its own, as in Fig. 9: the witness child
            // may carry the next step's tag, and its begin event then both
            // enters the witness and continues the path.
            Witness::ChildText(child) => {
                let child = NamePat::Name(Sym::intern(child));
                let w = self.add_state(own.id, StateRole::Witness)?;
                self.add_arc(na, ArcLabel::BeginChild(child), None, w, own, vec![]);
                let probe = vec![record(None)];
                self.add_arc(w, ArcLabel::TextSelf(child), None, w, own, probe);
                self.add_arc(w, ArcLabel::End(child), None, na, own, vec![]);
            }
            Witness::ChildAttr(child, attr) => {
                let label = ArcLabel::BeginChild(NamePat::Name(Sym::intern(child)));
                let probe = vec![record(Some(Sym::intern(attr)))];
                self.add_arc(na, label, None, na, own, probe);
            }
        }
        if !own_text.is_empty() {
            self.add_arc(na, ArcLabel::TextSelf(tag), None, na, own, own_text);
        }
        let resolve = vec![Action::ResolveKeyed(cx.upload)];
        self.add_arc(na, ArcLabel::End(tag), None, start, own, resolve);
        Ok(na)
    }

    /// Instantiate the template for one location step as `bpdt(id)`,
    /// entered from `start` (the parent's TRUE or NA state). `leaf_specs`
    /// lists the queries whose *last* step this is, as `(tag, output)`
    /// pairs — empty for interior steps, one entry for a plain build, and
    /// possibly several for a merged HPDT where queries of different
    /// output kinds end at the same shared step.
    fn build_bpdt(
        &mut self,
        step: &Step,
        own: QueueRef,
        cx: PredCx,
        start: StateId,
        leaf_specs: &[(u32, Output)],
    ) -> Result<BuiltBpdt, CompileError> {
        let id = own.id;
        let tag = name_pat(&step.test);
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
        let category = classify(step);
        let entry_label = self.entry_label(step, start, own);

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
        let entry_value = |disp: Disposition| entry_value_actions(leaf_specs, disp);

        // --- instantiate the category template --------------------------
        let built = match category {
            StepCategory::NoPredicate => {
                let t = self.add_state(id, StateRole::True)?;
                self.add_arc(start, entry_label, None, t, own, entry_value(disp_true));
                self.add_arc(t, ArcLabel::End(tag), None, start, own, vec![]);
                BuiltBpdt {
                    na: None,
                    true_state: t,
                }
            }
            StepCategory::PositionOfSelf | StepCategory::LastOfSelf => {
                // Streamable via sibling counters / parent-end hold-back,
                // which only the transformation engine implements; the
                // HPDT machinery has no per-parent counter state.
                let what = if category == StepCategory::LastOfSelf {
                    "last()"
                } else {
                    "position()"
                };
                return Err(CompileError::Unsupported {
                    feature: format!(
                        "`{what}` (step `{step}`): supported in transform match \
                         patterns (`xsq transform`), not by the HPDT selection engine"
                    ),
                    engine: "hpdt".into(),
                });
            }
            StepCategory::AttrOfSelf | StepCategory::FnAttrOfSelf => {
                let guard = match &step.predicate {
                    Some(Predicate::Attr { name, cmp }) => Guard::Attr {
                        name: Sym::intern(name),
                        cmp: cmp.clone(),
                    },
                    Some(Predicate::Func {
                        arg: FnArg::Attr(name),
                        test,
                    }) => Guard::AttrFn {
                        name: Sym::intern(name),
                        test: test.clone(),
                    },
                    _ => unreachable!("classified attr-of-self category"),
                };
                let t = self.add_state(id, StateRole::True)?;
                self.add_arc(
                    start,
                    entry_label,
                    Some(guard),
                    t,
                    own,
                    entry_value(disp_true),
                );
                self.add_arc(t, ArcLabel::End(tag), None, start, own, vec![]);
                BuiltBpdt {
                    na: None,
                    true_state: t,
                }
            }
            StepCategory::TextOfSelf | StepCategory::FnTextOfSelf => {
                let guard = match &step.predicate {
                    Some(Predicate::Text { cmp }) => Guard::Text { cmp: cmp.clone() },
                    Some(Predicate::Func {
                        arg: FnArg::Text,
                        test,
                    }) => Guard::TextFn { test: test.clone() },
                    _ => unreachable!("classified text-of-self category"),
                };
                let na = self.add_state(id, StateRole::Na)?;
                let t = self.add_state(id, StateRole::True)?;
                self.add_arc(
                    start,
                    entry_label,
                    None,
                    na,
                    own,
                    entry_value(Disposition::OwnQueue),
                );
                // Witness: the element's own text satisfying the test.
                self.add_arc(
                    na,
                    ArcLabel::TextSelf(tag),
                    Some(guard),
                    t,
                    own,
                    vec![resolution.clone()],
                );
                self.add_arc(
                    na,
                    ArcLabel::End(tag),
                    None,
                    start,
                    own,
                    vec![Action::ClearSelf],
                );
                self.add_arc(t, ArcLabel::End(tag), None, start, own, vec![]);
                BuiltBpdt {
                    na: Some(na),
                    true_state: t,
                }
            }
            StepCategory::ChildExists | StepCategory::AttrOfChild => {
                let (child, guard) = match &step.predicate {
                    Some(Predicate::Child { name }) => (Sym::intern(name), None),
                    Some(Predicate::ChildAttr { child, attr, cmp }) => (
                        Sym::intern(child),
                        Some(Guard::Attr {
                            name: Sym::intern(attr),
                            cmp: cmp.clone(),
                        }),
                    ),
                    _ => unreachable!("classified child-witness category"),
                };
                let na = self.add_state(id, StateRole::Na)?;
                let wit = self.add_state(id, StateRole::Witness)?;
                let t = self.add_state(id, StateRole::True)?;
                self.add_arc(
                    start,
                    entry_label,
                    None,
                    na,
                    own,
                    entry_value(Disposition::OwnQueue),
                );
                // Witness child: enter at its begin event (guard checks
                // the attribute for category 4), resolve at its end event
                // so that same-event uploads from the child's subtree are
                // already in this queue (Fig. 8 places the upload on
                // `</child>`).
                self.add_arc(
                    na,
                    ArcLabel::BeginChild(NamePat::Name(child)),
                    guard,
                    wit,
                    own,
                    vec![],
                );
                self.add_arc(
                    wit,
                    ArcLabel::End(NamePat::Name(child)),
                    None,
                    t,
                    own,
                    vec![resolution.clone()],
                );
                self.add_arc(
                    na,
                    ArcLabel::End(tag),
                    None,
                    start,
                    own,
                    vec![Action::ClearSelf],
                );
                self.add_arc(t, ArcLabel::End(tag), None, start, own, vec![]);
                BuiltBpdt {
                    na: Some(na),
                    true_state: t,
                }
            }
            StepCategory::TextOfChild => {
                let Some(Predicate::ChildText { child, cmp }) = &step.predicate else {
                    unreachable!("classified TextOfChild");
                };
                let child = Sym::intern(child);
                let na = self.add_state(id, StateRole::Na)?;
                let child_na = self.add_state(id, StateRole::Witness)?;
                let child_true = self.add_state(id, StateRole::Witness)?;
                let t = self.add_state(id, StateRole::True)?;
                self.add_arc(
                    start,
                    entry_label,
                    None,
                    na,
                    own,
                    entry_value(Disposition::OwnQueue),
                );
                // Fig. 9: descend into each child, test its text, come
                // back. Descending through its own states (rather than a
                // flat text-at-depth+1 arc) matters when the predicate
                // child carries the same tag as the next location step:
                // the begin event then nondeterministically both enters
                // the witness and continues the path.
                self.add_arc(
                    na,
                    ArcLabel::BeginChild(NamePat::Name(child)),
                    None,
                    child_na,
                    own,
                    vec![],
                );
                self.add_arc(
                    child_na,
                    ArcLabel::TextSelf(NamePat::Name(child)),
                    Some(Guard::Text {
                        cmp: Some(cmp.clone()),
                    }),
                    child_true,
                    own,
                    vec![resolution.clone()],
                );
                self.add_arc(
                    child_na,
                    ArcLabel::End(NamePat::Name(child)),
                    None,
                    na,
                    own,
                    vec![],
                );
                // The second resolution on `</child>` is Example 7 / the
                // Fig. 10 flush on $5→$6: it catches result items
                // enqueued *between* the witness text event and the end
                // of the witness child (mixed content, nested matches
                // under closure).
                self.add_arc(
                    child_true,
                    ArcLabel::End(NamePat::Name(child)),
                    None,
                    t,
                    own,
                    vec![resolution.clone()],
                );
                self.add_arc(
                    na,
                    ArcLabel::End(tag),
                    None,
                    start,
                    own,
                    vec![Action::ClearSelf],
                );
                self.add_arc(t, ArcLabel::End(tag), None, start, own, vec![]);
                BuiltBpdt {
                    na: Some(na),
                    true_state: t,
                }
            }
        };

        if !leaf_specs.is_empty() {
            self.attach_leaf_output(own, start, &built, &tag, disp_true, leaf_specs)?;
        }
        Ok(built)
    }

    /// Attach value-producing arcs to a BPDT that is some query's lowest
    /// layer.
    fn attach_leaf_output(
        &mut self,
        own: QueueRef,
        start: StateId,
        built: &BuiltBpdt,
        tag: &NamePat,
        disp_true: Disposition,
        leaf_specs: &[(u32, Output)],
    ) -> Result<(), CompileError> {
        // Text-anchored values (`text()`, `sum()`, …): self-loops on the
        // NA state (buffer in own queue, pending the own predicate) and
        // the TRUE state (direct or to the nearest undecided ancestor).
        let actions = text_value_actions(leaf_specs, Disposition::OwnQueue);
        if !actions.is_empty() {
            if let Some(na) = built.na {
                self.add_arc(na, ArcLabel::TextSelf(*tag), None, na, own, actions);
            }
        }
        let actions = text_value_actions(leaf_specs, disp_true);
        if !actions.is_empty() {
            let t = built.true_state;
            self.add_arc(t, ArcLabel::TextSelf(*tag), None, t, own, actions);
        }
        // Whole-element output (`*̄` catchall, Fig. 10): every event
        // strictly inside the matched element is appended, plus the
        // element's own text (which shares its depth), plus the closing
        // tag on the exit arcs. The exit from the NA side also clears —
        // the ClearSelf added by the category template already handles
        // that; here we only append/close.
        if leaf_specs.iter().any(|(_, o)| *o == Output::Element) {
            let mut exit_states = vec![built.true_state];
            if let Some(na) = built.na {
                exit_states.push(na);
            }
            for &s in &exit_states {
                self.add_arc(
                    s,
                    ArcLabel::Catchall,
                    None,
                    s,
                    own,
                    vec![Action::ElementAppend],
                );
                self.add_arc(
                    s,
                    ArcLabel::TextSelf(*tag),
                    None,
                    s,
                    own,
                    vec![Action::ElementAppend],
                );
            }
            // Close the element item on the way back to START. The
            // template's end arcs already exist; prepend the close action
            // to each end(tag) arc leaving NA or TRUE toward START.
            for &s in &exit_states {
                for arc in self.arcs[s as usize].iter_mut() {
                    if arc.target == start && matches!(arc.label, ArcLabel::End(_)) {
                        arc.actions.insert(0, Action::ElementEnd);
                    }
                }
            }
        }
        Ok(())
    }
}

/// Actions producing begin-anchored values (`@attr`, `count()`, element
/// output) on a leaf BPDT's entry arcs — one action per ending query
/// whose output is begin-anchored, each attributed to its tag.
fn entry_value_actions(leaf_specs: &[(u32, Output)], disp: Disposition) -> Vec<Action> {
    let mut actions = Vec::new();
    for (tag, output) in leaf_specs {
        match output {
            Output::Attr(a) => actions.push(Action::Emit {
                source: ValueSource::Attr(Sym::intern(a)),
                to: disp,
                tag: *tag,
            }),
            Output::Aggregate(AggFunc::Count) => actions.push(Action::Emit {
                source: ValueSource::Unit,
                to: disp,
                tag: *tag,
            }),
            Output::Element => actions.push(Action::ElementStart {
                to: disp,
                tag: *tag,
            }),
            _ => {}
        }
    }
    actions
}

/// Actions producing text-anchored values (`text()`, numeric aggregates)
/// as self-loops on a leaf BPDT's NA/TRUE states — one per ending query
/// with text-anchored output.
fn text_value_actions(leaf_specs: &[(u32, Output)], disp: Disposition) -> Vec<Action> {
    let mut actions = Vec::new();
    for (tag, output) in leaf_specs {
        match output {
            Output::Text
            | Output::Aggregate(AggFunc::Sum)
            | Output::Aggregate(AggFunc::Avg)
            | Output::Aggregate(AggFunc::Min)
            | Output::Aggregate(AggFunc::Max) => actions.push(Action::Emit {
                source: ValueSource::Text,
                to: disp,
                tag: *tag,
            }),
            _ => {}
        }
    }
    actions
}

fn name_pat(test: &NodeTest) -> NamePat {
    match test {
        NodeTest::Name(n) => NamePat::Name(Sym::intern(n)),
        NodeTest::Wildcard => NamePat::Any,
    }
}

// ---- prefix-shared multi-query construction (§5 remark) ---------------

/// One node of the location-step trie: a step shared by every query whose
/// path runs through this node.
struct TrieNode {
    step: Step,
    children: Vec<usize>,
    /// Queries whose last step this is, as `(tag, output)`. At or below a
    /// keyed node: the node's leaves instead, one per distinct value
    /// source among those queries, as `(LEAF_BIT | leaf, output)` — the
    /// queries themselves are filed in `leaf_tags[leaf]`.
    leaf: Vec<(u32, Output)>,
    /// Set on a keyed node: `step` stands for its whole family, whose
    /// literals these are.
    keyed: Option<KeyTable>,
}

impl TrieNode {
    fn new(step: Step) -> Self {
        TrieNode {
            step,
            children: Vec::new(),
            leaf: Vec::new(),
            keyed: None,
        }
    }
}

/// Where a keyable predicate reads the value it compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
/// the node's leaf for its value source (text-anchored outputs share the
/// text, `count()` the unit) — one shared item per event per leaf,
/// whichever side of an undecided ancestor reaches it. Steps below merge
/// by equality, as they do everywhere in the trie.
fn graft(
    nodes: &mut Vec<TrieNode>,
    leaf_tags: &mut Vec<Vec<(u32, u32)>>,
    into: usize,
    from: usize,
    key: u32,
) {
    for (tag, output) in std::mem::take(&mut nodes[from].leaf) {
        let source = match output {
            Output::Attr(_) | Output::Aggregate(AggFunc::Count) | Output::Element => output,
            Output::Text | Output::Aggregate(_) => Output::Text,
        };
        let leaves = &mut nodes[into].leaf;
        let leaf = match leaves.iter().find(|(_, o)| *o == source) {
            Some((leaf, _)) => leaf & !LEAF_BIT,
            None => {
                leaves.push((LEAF_BIT | leaf_tags.len() as u32, source));
                leaf_tags.push(Vec::new());
                leaf_tags.len() as u32 - 1
            }
        };
        leaf_tags[leaf as usize].push((key, tag));
    }
    for child in std::mem::take(&mut nodes[from].children) {
        let twin = nodes[into]
            .children
            .iter()
            .copied()
            .find(|&c| nodes[c].step == nodes[child].step);
        let twin = twin.unwrap_or_else(|| {
            nodes.push(TrieNode::new(nodes[child].step.clone()));
            let new = nodes.len() - 1;
            nodes[into].children.push(new);
            new
        });
        graft(nodes, leaf_tags, twin, child, key);
    }
}

/// Among `siblings`, replace every family — same axis, node test and
/// witness, ≥ 2 distinct `=` literals — by one keyed node holding the
/// members' merged subtrees; then do the same below every node that stayed
/// classic. Nothing below a keyed node is keyed again: a path has at most
/// one keyed step, its first. A batch without a family is left as it was.
fn key_families(
    nodes: &mut Vec<TrieNode>,
    leaf_tags: &mut Vec<Vec<(u32, u32)>>,
    siblings: &mut Vec<usize>,
) {
    for i in 0.. {
        let Some(&head) = siblings.get(i) else { break };
        let first = &nodes[head].step;
        let Some((witness, _)) = keyable(first) else {
            continue;
        };
        let mut table = KeyTable::default();
        let family: Vec<(usize, u32)> = siblings[i..]
            .iter()
            .filter_map(|&s| {
                let step = &nodes[s].step;
                let (w, key) = keyable(step)?;
                (w == witness && step.axis == first.axis && step.test == first.test)
                    .then(|| (s, table.intern(key)))
            })
            .collect();
        if table.len() < 2 {
            continue;
        }
        nodes.push(TrieNode::new(nodes[head].step.clone()));
        let node = nodes.len() - 1;
        for &(member, key) in &family {
            graft(nodes, leaf_tags, node, member, key);
        }
        nodes[node].keyed = Some(table);
        siblings[i] = node;
        siblings.retain(|s| family.iter().all(|(member, _)| member != s));
    }
    for &s in siblings.iter() {
        if nodes[s].keyed.is_none() {
            let mut children = std::mem::take(&mut nodes[s].children);
            key_families(nodes, leaf_tags, &mut children);
            nodes[s].children = children;
        }
    }
}

/// Build one HPDT answering several queries at once. Queries whose
/// location-step prefixes coincide (same axis, node test, and predicate)
/// share a single BPDT chain up to the divergence point and fan out below
/// it — the grouping the paper's §5 remark says the HPDT's "simple and
/// regular structure" makes possible. Every emitted result carries the
/// tag of its originating query (`merged[tag]`), so attribution survives
/// the merge.
///
/// Whole-element output is only supported for a singleton group: its
/// catchall serialization machinery assumes the configuration's open
/// item belongs to it alone, which sharing would violate.
pub fn build_merged_hpdt(queries: &[Query]) -> Result<Hpdt, CompileError> {
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
    let mut nodes: Vec<TrieNode> = Vec::new();
    let mut roots: Vec<usize> = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let mut parent: Option<usize> = None;
        for step in &q.steps {
            let siblings = match parent {
                Some(p) => nodes[p].children.clone(),
                None => roots.clone(),
            };
            let found = siblings.iter().copied().find(|&c| nodes[c].step == *step);
            let node = match found {
                Some(c) => c,
                None => {
                    let c = nodes.len();
                    nodes.push(TrieNode::new(step.clone()));
                    match parent {
                        Some(p) => nodes[p].children.push(c),
                        None => roots.push(c),
                    }
                    c
                }
            };
            parent = Some(node);
        }
        let leaf = parent.expect("parser guarantees at least one step");
        nodes[leaf].leaf.push((i as u32, q.output.clone()));
    }

    // Expand the trie breadth-first, exactly like the single-query
    // builder but with (a) fresh sequence numbers per layer — the binary
    // id encoding cannot describe fan-out beyond two — and (b) the
    // predicate context carried explicitly.
    let mut b = Builder::default();
    key_families(&mut nodes, &mut b.leaf_tags, &mut roots);
    for tags in &mut b.leaf_tags {
        tags.sort_unstable();
    }
    let (start, root_true) = b.build_root()?;

    let mut layer: u16 = 1;
    let mut layers: u16 = 0;
    let mut frontier: Vec<(usize, PredCx, StateId)> = roots
        .iter()
        .map(|&r| (r, PredCx::ROOT, root_true))
        .collect();
    while !frontier.is_empty() {
        layers = layer;
        let mut next = Vec::new();
        for (seq, (node_idx, cx, start_state)) in frontier.into_iter().enumerate() {
            let own = b.register_queue(BpdtId::new(layer, seq as u64));
            let node = &nodes[node_idx];
            let (na, true_state) = match &node.keyed {
                None => {
                    let built = b.build_bpdt(&node.step, own, cx, start_state, &node.leaf)?;
                    (built.na, Some(built.true_state))
                }
                Some(family) => {
                    let step = &node.step;
                    let na = b.build_keyed_bpdt(step, family, own, cx, start_state, &node.leaf)?;
                    (Some(na), None)
                }
            };
            for &child in &node.children {
                if let Some(na) = na {
                    next.push((child, cx.na_side(own), na));
                }
                if let Some(t) = true_state {
                    next.push((child, cx.true_side(), t));
                }
            }
        }
        frontier = next;
        layer += 1;
    }

    Ok(b.finish(start, layers, queries.to_vec()))
}

/// A keyed step as dumps name it: `tag[child=?×N]`.
fn keyed_step_name(step: &Step, literals: usize) -> String {
    let text = step.to_string();
    let (head, _) = text.split_once('=').expect("a keyed step compares by `=`");
    format!("{}=?×{literals}]", head.trim_start_matches('/'))
}

/// Does any action enqueue a value into a buffer? When nothing ever
/// enqueues, the flush/upload/clear machinery is provably a no-op and the
/// runner can skip allocating queues entirely (buffer-necessity analysis).
fn uses_buffers(arcs: &[Vec<Arc>]) -> bool {
    arcs.iter()
        .flatten()
        .flat_map(|arc| &arc.actions)
        .any(|a| matches!(a.fill(), Some((Fill::Own | Fill::Enqueue, _))))
}

/// Conservative static check: for each state, could two outgoing arcs
/// accept the same event? If not, a deterministic runtime may stop at the
/// first matching arc (the XSQ-NC fast path of §6.2).
pub(crate) fn compute_scan_all(arcs: &[Vec<Arc>]) -> Vec<bool> {
    arcs.iter()
        .map(|outgoing| {
            for (i, a) in outgoing.iter().enumerate() {
                for b in &outgoing[i + 1..] {
                    if labels_may_overlap(a, b) {
                        return true;
                    }
                }
            }
            false
        })
        .collect()
}

fn labels_may_overlap(a: &Arc, b: &Arc) -> bool {
    use ArcLabel::*;
    let names_overlap = |x: &NamePat, y: &NamePat| match (x, y) {
        (NamePat::Any, _) | (_, NamePat::Any) => true,
        (NamePat::Name(p), NamePat::Name(q)) => p == q,
    };
    match (&a.label, &b.label) {
        // Catchall overlaps everything except the document brackets and
        // anchor-depth labels… being conservative, treat it as
        // overlapping all element/text labels.
        (Catchall, l) | (l, Catchall) => !matches!(l, StartDoc | EndDoc),
        (ClosureSelfLoop, BeginChild(_) | BeginAnyDepth(_) | ClosureSelfLoop)
        | (BeginChild(_) | BeginAnyDepth(_), ClosureSelfLoop) => true,
        (BeginChild(x), BeginChild(y)) => names_overlap(x, y),
        (BeginAnyDepth(x), BeginAnyDepth(y)) => names_overlap(x, y),
        (BeginChild(x), BeginAnyDepth(y)) | (BeginAnyDepth(x), BeginChild(y)) => {
            names_overlap(x, y)
        }
        (End(x), End(y)) => names_overlap(x, y),
        (TextSelf(x), TextSelf(y)) => names_overlap(x, y),
        (TextChild(x), TextChild(y)) => names_overlap(x, y),
        // TextSelf and TextChild differ in depth: disjoint.
        _ => false,
    }
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
        assert_eq!(h.bpdt_count, 8);
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
        assert_eq!(h.bpdt_count, 4);
        assert!(h.deterministic);
    }

    #[test]
    fn attr_predicates_have_no_na_state() {
        let h = hpdt("/a[@id]/b/text()");
        // Category 1 is decided at begin: right child of layer 1 is NULL.
        assert_eq!(h.bpdt_count, 3); // root, (1,1), (2,3)
        assert!(h.queues.contains(&BpdtId::new(2, 3)));
        assert!(!h.queues.contains(&BpdtId::new(2, 2)));
    }

    #[test]
    fn closure_adds_self_loops() {
        let h = hpdt("//a/text()");
        let self_loops = h
            .arcs
            .iter()
            .flatten()
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
        assert!(h
            .arcs
            .iter()
            .flatten()
            .any(|a| a.label == ArcLabel::Catchall));
        assert!(h
            .arcs
            .iter()
            .flatten()
            .any(|a| a.actions.contains(&Action::ElementEnd)));
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
            let arcs = h.arcs.iter().flatten().filter(|a| a.owner.id == owner);
            let queue = |q: &QueueRef| {
                assert_eq!(h.queues[q.slot as usize], q.id);
                Some(Some(q.id))
            };
            arcs.flat_map(|a| &a.actions)
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
        build_merged_hpdt(&parsed).unwrap()
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
        assert_eq!((two.states.len(), two.bpdt_count), (6, 4));
        assert_eq!((many.states.len(), many.bpdt_count), (6, 4));
        assert_eq!(many.arc_count(), two.arc_count());
        assert_eq!(many.keyed.len(), 1);
        assert_eq!(many.keyed[0].step, "article[year=?×64]");
        assert_eq!(many.keyed[0].table.len(), 64);
        // One leaf per value source; each lists its 64 (key, tag) pairs.
        assert_eq!(many.leaf_tags.len(), 2);
        assert!(many.leaf_tags.iter().all(|tags| tags.len() == 64));
        assert_eq!(many.buffered_members(), [true; 128]);
        assert!(many.dump().contains("keyed bpdt(2,0): article[year=?×64]"));
        for hpdt in [&two, &many] {
            let diags = crate::analyze::verify(hpdt);
            assert!(!crate::analyze::has_errors(&diags), "{diags:?}");
            let (pruned, stats) = crate::analyze::prune(hpdt);
            assert!(!stats.changed(), "{stats:?}");
            assert_eq!(pruned.leaf_tags, hpdt.leaf_tags);
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
        assert_eq!(h.bpdt_count, 3 + 3);
        let guards = h.arcs.iter().flatten().filter(|a| a.guard.is_some());
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
        // relational and category-1 siblings.
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
                0xc750_8ee4_4858_8c24,
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
            assert_eq!((h.states.len(), h.bpdt_count), (states, bpdts), "{batch:?}");
            assert_eq!(fnv(&h.dump()), hash, "{batch:?}\n{}", h.dump());
        }
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
        // 20 predicated closure steps would want 2^20 BPDTs.
        let q = "//a[b]".repeat(20) + "/text()";
        let parsed = parse_query(&q).unwrap();
        assert!(matches!(
            build_hpdt(&parsed),
            Err(CompileError::Unsupported { .. })
        ));
    }
}
