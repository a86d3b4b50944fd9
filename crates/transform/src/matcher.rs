//! The streaming pattern matcher: which rule applies to each element?
//!
//! An NFA over the event stream, in the spirit of the HPDT's
//! configuration sets (§3.3 of the paper) but specialized for *per-element
//! decisions* instead of buffered item selection: every element must be
//! assigned a verdict — matched by rule `r`, or matched by no rule — and
//! the verdict must be delivered as early as the stream permits, because
//! the rewriter buffers output until it arrives.
//!
//! Each open element carries a *frontier* of partial-match states
//! `(rule, next_step, conds)`: the pattern's steps `0..next_step` matched
//! along the path down to this element, contingent on the condition set
//! `conds` — deferred predicate instances whose truth the stream has not
//! yet revealed. This mirrors the BPDT timing table of §3.2:
//!
//! * category 1 (`[@attr…]`), `position()`, and attribute functions are
//!   decided at the begin event itself — no condition is created;
//! * categories 2/5 (`[text()…]`, `[child op v]`) and text functions wait
//!   for a text event (true) or the owner's end event (false);
//! * categories 3/4 (`[child]`, `[child@attr…]`) wait for a child begin
//!   (true) or the owner's end event (false);
//! * `last()` inverts the timing: *false* at a later matching sibling's
//!   begin, *true* at the parent's end — the only condition owned by the
//!   candidate's parent rather than the step's own element.
//!
//! When a pattern completes at an element, the element gets a *candidate*
//! `(rule, conds)`. The element matches rule `r` iff any of `r`'s
//! candidates has all conditions true (OR across derivations, AND within
//! one). Rules apply first-match-wins in file order, so the verdict for
//! an element is the lowest-numbered matching rule — which may stay
//! undecided while an earlier rule's conditions are pending even if a
//! later rule already matched.
//!
//! A state or candidate carries only the conditions still pending when
//! it is made: a parent state with a condition already false derives
//! nothing, and conditions already true are left out of what it passes
//! on. So derivations that differ only in settled conditions (which
//! ancestor matched which closure step, once each one's predicate held)
//! are one state, and a frame holds at most steps × distinct
//! pending-condition sets — the lazy counterpart of the HPDT's 2^k BPDT
//! positions, paid only for conditions the stream has not yet decided.
//!
//! # Storage
//!
//! The matcher allocates while it warms up and then stops. Rules are
//! compiled once into a [`Program`] (flat steps, names interned), so an
//! event compares symbols, not strings. Per-element frames are pooled
//! by depth: an end event leaves the frame where it is and the next begin
//! at that depth clears and refills it. A state's condition set is a span
//! in its frame's `cond_ids`; a candidate's is a span in the shared
//! `cand_conds` arena, where candidates are built in place and either
//! truncated away (verdict known) or left as the pending element's
//! record. Conditions, dependents and pending elements are append-only
//! arenas indexed by id, emptied wholesale at *quiescent points* — no
//! live condition, no open pending element, no condition id held by a
//! frame on the stack — which on record-shaped data is every record
//! boundary; ids restart from zero there.

use xsq_xml::{Attribute, Sym};
use xsq_xpath::{Axis, Comparison, FnArg, FnTest, NodeTest, Predicate, RuleSet};

/// Index of a condition in the matcher's arena.
type CondId = u32;

/// Identifier handed to the rewriter for an element whose verdict is
/// still open; the eventual [`Resolution`] carries it back. Ids are dense
/// and restart at every quiescent point, when none is outstanding.
pub type PendingId = u32;

/// End of a dependents list.
const NIL: u32 = u32::MAX;

/// The matcher's verdict for one element, delivered at its begin event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchDecision {
    /// Verdict known now: `Some(rule)` or `None` for "no rule matches"
    /// (the identity action).
    Decided(Option<usize>),
    /// Verdict depends on events not yet seen; a [`Resolution`] with this
    /// id will follow, at the latest when the element's last open
    /// ancestor ends.
    Pending(PendingId),
}

/// A deferred verdict coming in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    pub pending: PendingId,
    /// The matching rule, or `None` for "no rule matches".
    pub rule: Option<usize>,
}

/// How a text-owned condition tests a text run.
#[derive(Debug)]
enum TextTest {
    /// `[text()]` — any text run at all.
    Exists,
    /// `[text() op v]`.
    Cmp(Comparison),
    /// `contains(text(),v)` etc.
    Fn(FnTest),
}

/// A step's predicate with its names interned, grouped by when the
/// stream decides it.
#[derive(Debug)]
enum Pred {
    None,
    /// Decided at the begin event: `[@attr…]`.
    Attr {
        name: Sym,
        cmp: Option<Comparison>,
    },
    /// Decided at the begin event: a function over an attribute.
    AttrFn {
        name: Sym,
        test: FnTest,
    },
    /// Decided at the begin event from the parent's sibling counter
    /// `slot` ([`NIL`]: the step is a wildcard and counts every child).
    Position {
        cmp: Comparison,
        slot: u32,
    },
    /// Watches the element's own text runs.
    Text(TextTest),
    /// Watches child begin events: `[child]`, or `[child@attr…]` when
    /// `attr` is set.
    Child {
        child: Sym,
        attr: Option<(Sym, Option<Comparison>)>,
    },
    /// Watches the text runs of `child` children.
    ChildText {
        child: Sym,
        cmp: Comparison,
    },
    /// `last()`: owned by the candidate's parent; falsified by a later
    /// sibling passing the step's node test, confirmed at the owner's end.
    Last,
}

/// One location step of one rule's pattern.
#[derive(Debug)]
struct Step {
    rule: u32,
    closure: bool,
    /// The pattern ends here: matching this step yields a candidate.
    last: bool,
    /// `None` is the wildcard.
    test: Option<Sym>,
    pred: Pred,
}

impl Step {
    fn accepts(&self, name: Sym) -> bool {
        self.test.is_none_or(|t| t == name)
    }
}

/// A rule set compiled for the matcher: every pattern's steps in one
/// flat table, names interned once.
#[derive(Debug)]
pub struct Program {
    steps: Vec<Step>,
    /// First step of each rule, in rule order: the document frame's
    /// frontier.
    entry: Vec<u32>,
    /// Tags whose siblings some `position()` step counts; a frame keeps
    /// one counter per entry.
    counted: Vec<Sym>,
}

impl Program {
    pub fn new(rules: &RuleSet) -> Program {
        let patterns = rules.rules.iter().map(|r| &r.pattern.steps);
        let mut prog = Program {
            steps: Vec::with_capacity(patterns.map(Vec::len).sum()),
            entry: Vec::with_capacity(rules.rules.len()),
            counted: Vec::new(),
        };
        for (r, rule) in rules.rules.iter().enumerate() {
            prog.entry.push(prog.steps.len() as u32);
            let n = rule.pattern.steps.len();
            for (i, step) in rule.pattern.steps.iter().enumerate() {
                let test = match &step.test {
                    NodeTest::Name(n) => Some(Sym::intern(n)),
                    NodeTest::Wildcard => None,
                };
                let pred = prog.compile_pred(step.predicate.as_ref(), test);
                prog.steps.push(Step {
                    rule: r as u32,
                    closure: step.axis == Axis::Closure,
                    last: i + 1 == n,
                    test,
                    pred,
                });
            }
        }
        prog
    }

    fn compile_pred(&mut self, pred: Option<&Predicate>, test: Option<Sym>) -> Pred {
        let Some(pred) = pred else {
            return Pred::None;
        };
        match pred {
            Predicate::Attr { name, cmp } => Pred::Attr {
                name: Sym::intern(name),
                cmp: cmp.clone(),
            },
            Predicate::Func {
                arg: FnArg::Attr(attr),
                test,
            } => Pred::AttrFn {
                name: Sym::intern(attr),
                test: test.clone(),
            },
            Predicate::Func {
                arg: FnArg::Text,
                test,
            } => Pred::Text(TextTest::Fn(test.clone())),
            Predicate::Position { cmp } => {
                let slot = test.map_or(NIL, |t| {
                    let known = self.counted.iter().position(|&s| s == t);
                    known.unwrap_or_else(|| {
                        self.counted.push(t);
                        self.counted.len() - 1
                    }) as u32
                });
                Pred::Position {
                    cmp: cmp.clone(),
                    slot,
                }
            }
            Predicate::Text { cmp } => Pred::Text(match cmp {
                None => TextTest::Exists,
                Some(c) => TextTest::Cmp(c.clone()),
            }),
            Predicate::Child { name } => Pred::Child {
                child: Sym::intern(name),
                attr: None,
            },
            Predicate::ChildAttr { child, attr, cmp } => Pred::Child {
                child: Sym::intern(child),
                attr: Some((Sym::intern(attr), cmp.clone())),
            },
            Predicate::ChildText { child, cmp } => Pred::ChildText {
                child: Sym::intern(child),
                cmp: cmp.clone(),
            },
            Predicate::Last => Pred::Last,
        }
    }
}

/// A run of ids in an arena.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// One partial-match state: the pattern steps before `step` matched on
/// the path to the owning element, contingent on `conds` (a span of the
/// frame's `cond_ids`).
#[derive(Debug, Clone, Copy)]
struct State {
    step: u32,
    conds: Span,
}

/// One completed pattern at an element; `conds` spans `cand_conds`.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    rule: u32,
    conds: Span,
}

/// An element whose verdict awaits conditions; `cands` spans `cands`,
/// sorted by rule.
#[derive(Debug, Clone, Copy)]
struct PendingElem {
    cands: Span,
    open: bool,
}

/// A deferred predicate instance some frame is listening for.
#[derive(Debug, Clone, Copy)]
struct Watch {
    cond: CondId,
    step: u32,
}

/// Per-open-element matcher bookkeeping; pooled by depth.
#[derive(Debug, Default)]
struct Frame {
    /// States whose next step is matched against this element's children
    /// (or, for closure steps, any descendant).
    states: Vec<State>,
    /// The states' condition sets, back to back.
    cond_ids: Vec<CondId>,
    /// Conditions watching this element's own text runs.
    text_conds: Vec<Watch>,
    /// Conditions watching this element's child begin events.
    child_conds: Vec<Watch>,
    /// Conditions watching text events of this element's children.
    child_text_conds: Vec<Watch>,
    /// `last()` conditions owned by this element as the candidates'
    /// parent.
    last_conds: Vec<Watch>,
    /// Element children seen so far per [`Program::counted`] tag — the
    /// `position()` counters.
    child_counts: Vec<u32>,
    /// Total element children seen so far (wildcard positions).
    total_children: u32,
}

impl Frame {
    /// Empty the frame for a new element, keeping every capacity.
    fn reset(&mut self, counters: usize) {
        self.states.clear();
        self.cond_ids.clear();
        self.text_conds.clear();
        self.child_conds.clear();
        self.child_text_conds.clear();
        self.last_conds.clear();
        self.child_counts.clear();
        self.child_counts.resize(counters, 0);
        self.total_children = 0;
    }

    /// Condition ids this frame holds: none of them may dangle, so the
    /// arena is not recycled while any live frame holds one.
    fn holds(&self) -> usize {
        self.cond_ids.len()
            + self.text_conds.len()
            + self.child_conds.len()
            + self.child_text_conds.len()
            + self.last_conds.len()
    }

    /// Add the state `(step, pending(inherited) ∪ extra)` unless it is
    /// already there: two derivations that agree on step and conditions
    /// are one.
    fn add_state(&mut self, step: u32, conds: &Conds, inherited: &[CondId], extra: Option<CondId>) {
        let conds = append_conds(&mut self.cond_ids, conds, inherited, extra);
        let (old, new) = self.cond_ids.split_at(conds.start as usize);
        if self
            .states
            .iter()
            .any(|s| s.step == step && old[s.conds.range()] == *new)
        {
            self.cond_ids.truncate(conds.start as usize);
            return;
        }
        self.states.push(State { step, conds });
    }
}

/// Append the condition set `pending(inherited) ∪ extra` to `arena`:
/// the inherited conditions `conds` has not settled yet, then `extra`.
fn append_conds(
    arena: &mut Vec<CondId>,
    conds: &Conds,
    inherited: &[CondId],
    extra: Option<CondId>,
) -> Span {
    let start = arena.len();
    arena.extend(inherited.iter().filter(|&&c| conds.value(c).is_none()));
    arena.extend(extra.filter(|c| !inherited.contains(c)));
    Span {
        start: start as u32,
        len: (arena.len() - start) as u32,
    }
}

/// One condition: its value (`None` while pending) and the list of
/// pending elements waiting on it, threaded through `Matcher::deps`.
#[derive(Debug, Clone, Copy)]
struct Cond {
    value: Option<bool>,
    dep_head: u32,
    dep_tail: u32,
}

/// The condition arena with its live count.
#[derive(Debug, Default)]
struct Conds {
    vals: Vec<Cond>,
    /// Unresolved conditions.
    live: usize,
}

impl Conds {
    fn alloc(&mut self) -> CondId {
        self.vals.push(Cond {
            value: None,
            dep_head: NIL,
            dep_tail: NIL,
        });
        self.live += 1;
        (self.vals.len() - 1) as CondId
    }

    fn value(&self, id: CondId) -> Option<bool> {
        self.vals[id as usize].value
    }

    /// Resolve `id` unless it already is; newly resolved ids queue on
    /// `settled` for the dependents walk.
    fn settle(&mut self, id: CondId, value: bool, settled: &mut Vec<CondId>) {
        let c = &mut self.vals[id as usize];
        if c.value.is_none() {
            c.value = Some(value);
            self.live -= 1;
            settled.push(id);
        }
    }
}

/// Outcome of evaluating one predicate instance at a begin event.
#[derive(Debug, Clone, Copy)]
enum Outcome {
    True,
    False,
    Deferred(CondId),
}

impl From<bool> for Outcome {
    fn from(b: bool) -> Outcome {
        if b {
            Outcome::True
        } else {
            Outcome::False
        }
    }
}

/// The streaming matcher. Feed it the begin/text/end events of one
/// document; it returns verdicts and resolutions. The resolution slice an
/// event returns is valid until the next event.
pub struct Matcher<'p> {
    prog: &'p Program,
    /// The frame pool: `stack[0]` is the virtual document frame,
    /// `stack[..=depth]` are live, anything above is kept for reuse.
    stack: Vec<Frame>,
    depth: usize,
    conds: Conds,
    /// Condition ids held by live frames (see [`Frame::holds`]).
    held: usize,
    /// Dependents lists: `(pending element, next entry)`.
    deps: Vec<(PendingId, u32)>,
    pending: Vec<PendingElem>,
    open_pendings: usize,
    /// Candidates of pending elements and, at the tail during `begin`, of
    /// the element being decided.
    cands: Vec<Candidate>,
    cand_conds: Vec<CondId>,
    /// One predicate instance per step at one element, shared across
    /// derivations (`[b]` asked twice is the same question): the outcome
    /// is valid when its stamp is the current begin event's.
    memo: Vec<(u64, Outcome)>,
    stamp: u64,
    /// Conditions the current event resolved.
    settled: Vec<CondId>,
    resolutions: Vec<Resolution>,
}

impl<'p> Matcher<'p> {
    pub fn new(prog: &'p Program) -> Self {
        let mut doc = Frame::default();
        doc.reset(prog.counted.len());
        doc.states.extend(prog.entry.iter().map(|&step| State {
            step,
            conds: Span::default(),
        }));
        Matcher {
            prog,
            stack: vec![doc],
            depth: 0,
            conds: Conds::default(),
            held: 0,
            deps: Vec::new(),
            pending: Vec::new(),
            open_pendings: 0,
            cands: Vec::new(),
            cand_conds: Vec::new(),
            memo: Vec::new(),
            stamp: 0,
            settled: Vec::new(),
            resolutions: Vec::new(),
        }
    }

    /// Process a begin event. Returns the verdict for the new element and
    /// any resolutions of earlier pending elements this event triggered
    /// (child-condition confirmations, `last()` falsifications).
    pub fn begin(&mut self, name: Sym, attributes: &[Attribute]) -> (MatchDecision, &[Resolution]) {
        let prog = self.prog;
        self.settled.clear();
        if self.stack.len() < self.depth + 2 {
            self.stack.push(Frame::default());
        }
        let (live, spare) = self.stack.split_at_mut(self.depth + 1);
        let (parent, frame) = (&mut live[self.depth], &mut spare[0]);
        frame.reset(prog.counted.len());

        // Parent bookkeeping: sibling counters, last() falsification,
        // child-condition confirmation — all *before* this element's own
        // conditions exist.
        parent.total_children += 1;
        if let Some(k) = prog.counted.iter().position(|&s| s == name) {
            parent.child_counts[k] += 1;
        }
        // A resolved last() condition has nothing left to hear; dropping
        // it keeps a long sibling run from rescanning every predecessor.
        let watching = parent.last_conds.len();
        parent.last_conds.retain(|w| {
            if prog.steps[w.step as usize].accepts(name) {
                self.conds.settle(w.cond, false, &mut self.settled);
            }
            self.conds.value(w.cond).is_none()
        });
        self.held -= watching - parent.last_conds.len();
        for w in &parent.child_conds {
            let Pred::Child { child, attr } = &prog.steps[w.step as usize].pred else {
                unreachable!("child watches come from child predicates");
            };
            let holds = *child == name
                && attr.as_ref().is_none_or(|(attr, cmp)| {
                    attributes
                        .iter()
                        .find(|a| a.name == *attr)
                        .is_some_and(|a| cmp.as_ref().is_none_or(|c| c.eval(&a.value)))
                });
            if holds {
                self.conds.settle(w.cond, true, &mut self.settled);
            }
        }

        // Advance the frontier into the new element. Candidates are
        // built at the tail of the pending arenas: `decide` either
        // truncates them away or leaves them as the pending record.
        let cands_from = self.cands.len();
        let cand_conds_from = self.cand_conds.len();
        self.stamp += 1;
        if self.memo.len() < prog.steps.len() {
            self.memo.resize(prog.steps.len(), (0, Outcome::False));
        }
        let watching = parent.last_conds.len();
        for si in 0..parent.states.len() {
            let state = parent.states[si];
            let step = &prog.steps[state.step as usize];
            let inherited = &parent.cond_ids[state.conds.range()];
            if inherited
                .iter()
                .any(|&c| self.conds.value(c) == Some(false))
            {
                // This derivation has already failed.
                continue;
            }
            if step.closure {
                // Descendant steps stay live arbitrarily deep.
                frame.add_state(state.step, &self.conds, inherited, None);
            }
            if !step.accepts(name) {
                continue;
            }
            let memo = &mut self.memo[state.step as usize];
            if memo.0 != self.stamp {
                let outcome = eval_predicate(
                    state.step,
                    step,
                    attributes,
                    (&parent.child_counts, parent.total_children),
                    &mut parent.last_conds,
                    frame,
                    &mut self.conds,
                );
                *memo = (self.stamp, outcome);
            }
            let extra = match memo.1 {
                Outcome::False => continue,
                Outcome::True => None,
                Outcome::Deferred(cid) => Some(cid),
            };
            if step.last {
                let conds = append_conds(&mut self.cand_conds, &self.conds, inherited, extra);
                self.cands.push(Candidate {
                    rule: step.rule,
                    conds,
                });
            } else {
                frame.add_state(state.step + 1, &self.conds, inherited, extra);
            }
        }
        self.held += frame.holds() + parent.last_conds.len() - watching;
        self.depth += 1;

        let decision = self.decide(cands_from, cand_conds_from);
        self.drain_resolutions();
        (decision, &self.resolutions)
    }

    /// Process a text event, with the owning element's tag (needed to
    /// check the parent's `[child op v]` conditions).
    pub fn text_of(&mut self, element: Sym, text: &str) -> &[Resolution] {
        let prog = self.prog;
        self.settled.clear();
        for w in &self.stack[self.depth].text_conds {
            let Pred::Text(test) = &prog.steps[w.step as usize].pred else {
                unreachable!("text watches come from text predicates");
            };
            let holds = match test {
                TextTest::Exists => true,
                TextTest::Cmp(c) => c.eval(text),
                TextTest::Fn(f) => f.eval(text),
            };
            if holds {
                self.conds.settle(w.cond, true, &mut self.settled);
            }
        }
        if self.depth >= 1 {
            for w in &self.stack[self.depth - 1].child_text_conds {
                let Pred::ChildText { child, cmp } = &prog.steps[w.step as usize].pred else {
                    unreachable!("child-text watches come from child-text predicates");
                };
                if *child == element && cmp.eval(text) {
                    self.conds.settle(w.cond, true, &mut self.settled);
                }
            }
        }
        self.drain_resolutions();
        &self.resolutions
    }

    /// Process the end event of the current element: every condition it
    /// owns resolves now — text/child conditions that never fired are
    /// false, `last()` conditions that were never falsified are true.
    pub fn end(&mut self) -> &[Resolution] {
        self.settled.clear();
        let frame = &self.stack[self.depth];
        self.depth -= 1;
        let unheard = [
            &frame.text_conds,
            &frame.child_conds,
            &frame.child_text_conds,
        ];
        for w in unheard.into_iter().flatten() {
            self.conds.settle(w.cond, false, &mut self.settled);
        }
        for w in &frame.last_conds {
            self.conds.settle(w.cond, true, &mut self.settled);
        }
        self.held -= frame.holds();
        if self.depth == 0 {
            // The root element closed. The document frame never gets an
            // end event of its own, and a document has one root: nothing
            // can follow it, so a `last()` on the root step holds.
            let doc = &mut self.stack[0];
            for w in doc.last_conds.drain(..) {
                self.conds.settle(w.cond, true, &mut self.settled);
                self.held -= 1;
            }
        }
        self.drain_resolutions();
        if self.conds.live == 0 && self.open_pendings == 0 && self.held == 0 {
            // Quiescent: nothing refers to a condition or a pending
            // element any more, so the arenas start over.
            self.conds.vals.clear();
            self.deps.clear();
            self.pending.clear();
            self.cands.clear();
            self.cand_conds.clear();
        }
        &self.resolutions
    }

    /// Turn the candidates built at the tail of the arenas into a
    /// verdict, leaving them in place as a pending entry when the stream
    /// hasn't decided yet.
    fn decide(&mut self, cands_from: usize, cand_conds_from: usize) -> MatchDecision {
        if self.cands.len() == cands_from {
            return MatchDecision::Decided(None);
        }
        self.cands[cands_from..].sort_unstable_by_key(|c| c.rule);
        let span = Span {
            start: cands_from as u32,
            len: (self.cands.len() - cands_from) as u32,
        };
        if let Some(v) = self.verdict(span) {
            self.cands.truncate(cands_from);
            self.cand_conds.truncate(cand_conds_from);
            return MatchDecision::Decided(v);
        }
        let id = self.pending.len() as PendingId;
        for &cid in &self.cand_conds[cand_conds_from..] {
            let cond = &mut self.conds.vals[cid as usize];
            if cond.value.is_none() {
                let entry = self.deps.len() as u32;
                self.deps.push((id, NIL));
                match cond.dep_tail {
                    NIL => cond.dep_head = entry,
                    tail => self.deps[tail as usize].1 = entry,
                }
                cond.dep_tail = entry;
            }
        }
        self.pending.push(PendingElem {
            cands: span,
            open: true,
        });
        self.open_pendings += 1;
        MatchDecision::Pending(id)
    }

    /// First-match-wins evaluation over candidates sorted by rule. `None`
    /// means "still pending"; `Some(None)` means "no rule matches".
    fn verdict(&self, cands: Span) -> Option<Option<usize>> {
        // Walk rules in priority order; a rule's own candidates OR
        // together.
        let mut cands = self.cands[cands.range()].iter().peekable();
        while let Some(first) = cands.peek() {
            let rule = first.rule;
            let mut any_pending = false;
            while let Some(cand) = cands.next_if(|c| c.rule == rule) {
                let mut values = self.cand_conds[cand.conds.range()]
                    .iter()
                    .map(|&cid| self.conds.value(cid));
                if values.clone().any(|v| v == Some(false)) {
                    continue;
                }
                if values.all(|v| v == Some(true)) {
                    return Some(Some(rule as usize));
                }
                any_pending = true;
            }
            if any_pending {
                // An earlier rule is still undecided; everything after it
                // must wait (first match wins).
                return None;
            }
        }
        Some(None)
    }

    /// Re-evaluate the pending elements waiting on the conditions this
    /// event settled; verdicts land in `resolutions`.
    fn drain_resolutions(&mut self) {
        self.resolutions.clear();
        for i in 0..self.settled.len() {
            let mut entry = self.conds.vals[self.settled[i] as usize].dep_head;
            while entry != NIL {
                let (pid, next) = self.deps[entry as usize];
                entry = next;
                let pe = self.pending[pid as usize];
                if !pe.open {
                    continue;
                }
                if let Some(rule) = self.verdict(pe.cands) {
                    self.pending[pid as usize].open = false;
                    self.open_pendings -= 1;
                    self.resolutions.push(Resolution { pending: pid, rule });
                }
            }
        }
    }

    /// Pending verdicts still open (must be 0 after the root closes).
    pub fn open_pendings(&self) -> usize {
        self.open_pendings
    }
}

/// Evaluate `step`'s predicate against the element now beginning.
/// Immediate predicates return a boolean; deferred ones allocate a
/// condition and register its watch on the right owner — the new
/// element's `frame`, or for `last()` the parent.
fn eval_predicate(
    id: u32,
    step: &Step,
    attributes: &[Attribute],
    (child_counts, total_children): (&[u32], u32),
    parent_last: &mut Vec<Watch>,
    frame: &mut Frame,
    conds: &mut Conds,
) -> Outcome {
    let attr_value = |n: Sym| attributes.iter().find(|a| a.name == n).map(|a| &a.value);
    let watches = match &step.pred {
        Pred::None => return Outcome::True,
        Pred::Attr { name, cmp } => {
            return attr_value(*name)
                .is_some_and(|v| cmp.as_ref().is_none_or(|c| c.eval(v)))
                .into()
        }
        Pred::AttrFn { name, test } => {
            return attr_value(*name).is_some_and(|v| test.eval(v)).into()
        }
        Pred::Position { cmp, slot } => {
            // Counters were incremented before matching, so the count
            // for this tag is this element's 1-based position among
            // siblings passing the step's node test.
            let pos = match *slot {
                NIL => total_children,
                slot => child_counts[slot as usize],
            };
            return xsq_xpath::value::num_compare(pos as f64, cmp.op, cmp.rhs.as_number()).into();
        }
        Pred::Text(_) => &mut frame.text_conds,
        Pred::Child { .. } => &mut frame.child_conds,
        Pred::ChildText { .. } => &mut frame.child_text_conds,
        Pred::Last => parent_last,
    };
    let cond = conds.alloc();
    watches.push(Watch { cond, step: id });
    Outcome::Deferred(cond)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use xsq_xml::{RawEvent, StreamParser};

    /// Run the matcher over a document, returning each element's final
    /// verdict in begin-event order. Pending ids restart at quiescent
    /// points, so an id names an element only while its verdict is open.
    fn verdicts(rules: &str, doc: &str) -> Vec<Option<usize>> {
        let rs = RuleSet::parse(rules).unwrap();
        let prog = Program::new(&rs);
        let mut m = Matcher::new(&prog);
        let mut parser = StreamParser::new(doc.as_bytes());
        let mut order: Vec<Option<usize>> = Vec::new();
        let mut open: HashMap<PendingId, usize> = HashMap::new();
        while let Some(ev) = parser.next_raw().unwrap() {
            let res: &[Resolution] = match ev {
                RawEvent::Begin {
                    name, attributes, ..
                } => {
                    let (d, res) = m.begin(name, attributes);
                    match d {
                        MatchDecision::Decided(v) => order.push(v),
                        MatchDecision::Pending(id) => {
                            assert!(open.insert(id, order.len()).is_none(), "id {id} reused");
                            order.push(None);
                        }
                    }
                    res
                }
                RawEvent::Text { element, text, .. } => m.text_of(element, text),
                RawEvent::End { .. } => m.end(),
                _ => &[],
            };
            for r in res {
                order[open.remove(&r.pending).expect("an open id")] = r.rule;
            }
        }
        assert_eq!(m.open_pendings(), 0, "verdicts must settle by EOF");
        assert!(open.is_empty());
        order
    }

    #[test]
    fn immediate_attr_predicates_decide_at_begin() {
        let v = verdicts(
            "/a/b[@id=1] => drop",
            r#"<a><b id="1"/><b id="2"/><c/></a>"#,
        );
        assert_eq!(v, [None, Some(0), None, None]);
    }

    #[test]
    fn child_predicates_defer_until_seen_or_end() {
        let v = verdicts("/a/b[c] => rename(x)", "<a><b><c/></b><b><d/></b></a>");
        assert_eq!(v, [None, Some(0), None, None, None]);
    }

    #[test]
    fn closure_matches_all_depths() {
        let v = verdicts("//x => drop", "<a><x><x/></x><b><x/></b></a>");
        assert_eq!(v, [None, Some(0), Some(0), None, Some(0)]);
    }

    #[test]
    fn first_match_wins_waits_for_earlier_rules() {
        // Rule 0 (pending on [c]) beats rule 1 (immediate) when c shows.
        let rules = "/a/b[c] => drop\n/a/b => rename(x)";
        let v = verdicts(rules, "<a><b><c/></b><b><d/></b></a>");
        assert_eq!(v, [None, Some(0), None, Some(1), None]);
    }

    #[test]
    fn position_and_last_verdicts() {
        let v = verdicts("/a/b[2] => drop", "<a><b/><b/><b/></a>");
        assert_eq!(v, [None, None, Some(0), None]);
        let v = verdicts("/a/b[last()] => drop", "<a><b/><b/><c/></a>");
        assert_eq!(v, [None, None, Some(0), None]);
        // The root is the last (only) child of the document, which has
        // no end event of its own: the verdict lands at the root's.
        let v = verdicts("/*[last()]/b => drop", "<a><b/><c/></a>");
        assert_eq!(v, [None, Some(0), None]);
        // last() among a name test ignores other tags.
        let v = verdicts("/a/b[position()=last()] => drop", "<a><b/><c/></a>");
        assert_eq!(v, [None, Some(0), None]);
    }

    #[test]
    fn text_predicates() {
        let v = verdicts(
            "//b[text()%lo] => wrap(hit)",
            "<a><b>hello</b><b>nope</b></a>",
        );
        assert_eq!(v, [None, Some(0), None]);
        let v = verdicts(
            "//b[contains(text(),ell)] => drop",
            "<a><b>hello</b><b>x</b></a>",
        );
        assert_eq!(v, [None, Some(0), None]);
    }

    #[test]
    fn recursive_document_multiple_derivations() {
        // //b//c: the inner c matches via either b; one derivation
        // suffices.
        let v = verdicts("//b//c => drop", "<a><b><b><c/></b></b></a>");
        assert_eq!(v, [None, None, None, Some(0)]);
    }

    #[test]
    fn pending_conds_on_ancestors_settle_late() {
        // [year=2002] on the ancestor resolves after the name closed.
        let v = verdicts(
            "//pub[year=2002]//name => wrap(hit)",
            "<pub><book><name>N</name></book><year>2002</year></pub>",
        );
        assert_eq!(v, [None, None, Some(0), None]);
        let v = verdicts(
            "//pub[year=2002]//name => wrap(hit)",
            "<pub><book><name>N</name></book><year>1999</year></pub>",
        );
        assert_eq!(v, [None, None, None, None]);
    }
}
