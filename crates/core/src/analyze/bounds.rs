//! Static per-query memory bounds from schema knowledge (the FluX idea:
//! Koch et al., "Schema-based Scheduling of Event Processors and Buffer
//! Minimization", applied to the XSQ buffering model).
//!
//! §3.2's runtime buffers exactly the *potential* result items whose
//! predicates are still undecided. This pass bounds how many such items
//! can be pending at once, by abstract interpretation over DTD content
//! models composed with the buffer-necessity pass:
//!
//! * no buffering-capable predicate ⇒ [`MemoryBound::Zero`];
//! * otherwise an undecided predicate instance is always *open* (its
//!   element's end event decides every §3.2 template), so simultaneous
//!   undecided instances of the outermost NA-state step form an ancestor
//!   chain. If the DTD proves that step's candidate tags cannot nest
//!   within themselves, at most **one** instance is pending at a time,
//!   and the items below it are counted by multiplying per-level maximum
//!   occurrence counts ⇒ [`MemoryBound::Items`];
//! * self-nesting candidates cap the chain at the document's nesting
//!   depth instead ⇒ [`MemoryBound::PerDepth`] (K items per open level);
//! * a `*`/`+`/`ANY`/mixed multiplicity on the path, or no DTD at all,
//!   leaves the count open ⇒ [`MemoryBound::Unbounded`] with the reason
//!   and the offending step's source span.
//!
//! Bounds count buffered *items* (queue entries — what
//! `MemoryStats::peak_buffered_items` observes), not bytes: an `Element`
//! output buffers one item per match however large the subtree. Every
//! claim assumes input valid against the DTD; invalid documents void the
//! bound (which is why admission control pairs a claimed bound with the
//! schema it came from). The derivation is recorded step by step in
//! [`BoundAnalysis::trace`] for `xsq analyze --json` and server
//! diagnostics.

use std::collections::{BTreeMap, BTreeSet};

use xsq_xml::dtd::{Dtd, Occurs};
use xsq_xpath::{classify, Axis, Output, Predicate, Query, Span};

use crate::schema;

/// The bound lattice: `Zero < Items(K) < PerDepth(K) < Unbounded`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoryBound {
    /// No queue can ever hold an entry: buffering statically elided.
    Zero,
    /// At most `K` items pending at any instant, document-independent.
    Items(u64),
    /// At most `K` items per open nesting level of the deciding step's
    /// tags: total ≤ K × that nesting depth. Depth-bounded deployments
    /// can multiply; admission control treats it as over-budget.
    PerDepth(u64),
    /// No static bound. `reason` says which rule failed; `span` is the
    /// byte range of the offending step in the query text (empty when
    /// the failure is not tied to one step).
    Unbounded { reason: String, span: Span },
}

impl MemoryBound {
    pub fn label(&self) -> &'static str {
        match self {
            MemoryBound::Zero => "zero",
            MemoryBound::Items(_) => "items",
            MemoryBound::PerDepth(_) => "per-depth",
            MemoryBound::Unbounded { .. } => "unbounded",
        }
    }

    /// A document-independent item count, when one exists.
    pub fn items(&self) -> Option<u64> {
        match self {
            MemoryBound::Zero => Some(0),
            MemoryBound::Items(k) => Some(*k),
            _ => None,
        }
    }

    /// Admission test: does the bound fit a per-subscription budget of
    /// `max` items? `PerDepth` and `Unbounded` never do — the budget is
    /// a guarantee, and those depend on the document.
    pub fn admits(&self, max: u64) -> bool {
        self.items().is_some_and(|k| k <= max)
    }
}

impl std::fmt::Display for MemoryBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryBound::Zero => write!(f, "zero (no buffering)"),
            MemoryBound::Items(k) => write!(f, "≤ {k} items"),
            MemoryBound::PerDepth(k) => write!(f, "≤ {k} items per nesting level"),
            MemoryBound::Unbounded { reason, span } => {
                write!(f, "unbounded: {reason}")?;
                if !span.is_empty() {
                    write!(f, " (at {span})")?;
                }
                Ok(())
            }
        }
    }
}

/// One rule application in the derivation.
#[derive(Debug, Clone)]
pub struct BoundStep {
    /// Stable kebab-case rule name.
    pub rule: &'static str,
    pub detail: String,
}

/// The bound plus how it was derived.
#[derive(Debug, Clone)]
pub struct BoundAnalysis {
    pub bound: MemoryBound,
    pub trace: Vec<BoundStep>,
    /// 0-based indices of steps whose existence predicate the DTD proves
    /// always true on valid input — candidates for
    /// [`elide_always_true`], the earliest-flush rewrite.
    pub elidable_predicates: Vec<usize>,
}

impl BoundAnalysis {
    fn rule(mut self, rule: &'static str, detail: impl Into<String>) -> Self {
        self.trace.push(BoundStep {
            rule,
            detail: detail.into(),
        });
        self
    }

    fn finish(mut self, bound: MemoryBound) -> Self {
        self.bound = bound;
        self
    }
}

/// Compute the static memory bound of `query` given an optional DTD and
/// whether its compiled HPDT can enqueue at all (`buffered`: for a solo
/// compile [`crate::build::Hpdt::buffered`], for a member of a merged
/// group its entry in `Hpdt::buffered_members`).
pub fn analyze_bounds(query: &Query, buffered: bool, dtd: Option<&Dtd>) -> BoundAnalysis {
    let mut out = BoundAnalysis {
        bound: MemoryBound::Zero,
        trace: Vec::new(),
        elidable_predicates: Vec::new(),
    };

    if !buffered {
        return out
            .rule(
                "buffer-free",
                "every queue is statically unused: predicates (if any) are \
                 decided at the begin event, results emit directly",
            )
            .finish(MemoryBound::Zero);
    }

    // Steps whose BPDT has an NA state — the only ones that can hold a
    // predicate undecided past the begin event (§3.2 categories 2–5).
    let na_steps: Vec<usize> = query
        .steps
        .iter()
        .enumerate()
        .filter(|(_, s)| classify(s).has_na_state())
        .map(|(i, _)| i)
        .collect();
    if na_steps.is_empty() {
        // Defensive: the builder claimed buffering without an NA-state
        // predicate; claim nothing rather than a wrong bound.
        return out
            .rule(
                "no-na-step",
                "buffers exist but no step's predicate model explains them",
            )
            .finish(MemoryBound::Unbounded {
                reason: "buffer plan has live queues but no NA-state step to bound".into(),
                span: Span::new(0, 0),
            });
    }
    if query.steps[na_steps[0]..]
        .iter()
        .any(|s| !matches!(s.axis, Axis::Child | Axis::Closure))
    {
        return out
            .rule(
                "reverse-axis",
                "a reverse axis below the first undecided step",
            )
            .finish(MemoryBound::Unbounded {
                reason: "reverse axes are outside the bound model".into(),
                span: Span::new(0, 0),
            });
    }

    let Some(dtd) = dtd else {
        let step = &query.steps[na_steps[0]];
        return out
            .rule(
                "no-schema",
                format!(
                    "step {} ({step}) can hold its predicate undecided while \
                     arbitrarily many candidates stream past; only a schema \
                     can bound them",
                    na_steps[0] + 1,
                ),
            )
            .finish(MemoryBound::Unbounded {
                reason: format!(
                    "no DTD: step {} ({step}) buffers without a static limit",
                    na_steps[0] + 1,
                ),
                span: step.span,
            });
    };

    let sa = schema::analyze(query, dtd, &BTreeSet::new());
    if !sa.satisfiable {
        return out
            .rule(
                "schema-unsatisfiable",
                "no document valid against the DTD matches the query: \
                 nothing is ever buffered",
            )
            .finish(MemoryBound::Zero);
    }

    // Existence predicates the schema proves always true: `[c]` where
    // every candidate tag must hold ≥ 1 `c` child. Their NA state can
    // never resolve false on valid input, so the earliest-flush rewrite
    // may drop them, and this bound may ignore them.
    let mut undecided: Vec<usize> = Vec::new();
    for &i in &na_steps {
        let always_true = match &query.steps[i].predicate {
            Some(Predicate::Child { name }) => {
                !sa.step_tags[i].is_empty()
                    && sa.step_tags[i].iter().all(|t| dtd.min_count(t, name) >= 1)
            }
            _ => false,
        };
        if always_true {
            out = out.rule(
                "always-true-predicate",
                format!(
                    "step {} ({}): every candidate tag must contain a \
                     \"{}\" child, so the predicate cannot resolve false \
                     on valid input — buffering for it is removable",
                    i + 1,
                    query.steps[i],
                    match &query.steps[i].predicate {
                        Some(Predicate::Child { name }) => name.as_str(),
                        _ => unreachable!(),
                    },
                ),
            );
            out.elidable_predicates.push(i);
        } else {
            undecided.push(i);
        }
    }
    if undecided.is_empty() {
        return out
            .rule(
                "all-predicates-schema-decided",
                "every buffering predicate is always true under the DTD; \
                 with the elision rewrite applied, nothing is buffered",
            )
            .finish(MemoryBound::Zero);
    }

    // The outermost still-undecided step. Undecided instances are open
    // elements, so simultaneous ones form an ancestor chain; whether
    // that chain can exceed length 1 is a self-nesting question on the
    // step's candidate tags.
    let p = undecided[0];
    let tags_p = &sa.step_tags[p];
    let self_nesting = tags_p
        .iter()
        .any(|t| !dtd.descendants_of(t).is_disjoint(tags_p));
    out = out.rule(
        "outermost-undecided-step",
        format!(
            "step {} ({}) is the outermost step whose predicate can stay \
             undecided past its begin event; candidate tags: {{{}}}",
            p + 1,
            query.steps[p],
            tags_p.iter().cloned().collect::<Vec<_>>().join(", "),
        ),
    );

    // Items pending under ONE open instance of step p: the product of
    // per-level maximum occurrence counts down to the output step, times
    // the items one output element contributes.
    let mut k = Occurs::ONE;
    for i in p + 1..query.steps.len() {
        let (count, how) = level_count(
            dtd,
            &sa.step_tags[i - 1],
            &sa.step_tags[i],
            query.steps[i].axis,
        );
        out = out.rule(
            "level-count",
            format!(
                "step {} ({}): ≤ {count} matches per instance of step {} ({how})",
                i + 1,
                query.steps[i],
                i,
            ),
        );
        if let Occurs::Bounded(0) = count {
            // Satisfiable overall but this transition contributes zero —
            // defensive; schema::analyze would have emptied the tag set.
            return out
                .rule("zero-transition", "a transition admits no matches")
                .finish(MemoryBound::Zero);
        }
        k = k.times(count);
        if !k.is_bounded() {
            let step = &query.steps[i];
            return out.finish(MemoryBound::Unbounded {
                reason: format!(
                    "step {} ({step}): the DTD admits unboundedly many \
                     matches per parent instance",
                    i + 1,
                ),
                span: step.span,
            });
        }
    }

    let last = query.steps.len() - 1;
    let mult = match &query.output {
        Output::Element | Output::Attr(_) => {
            out = out.rule(
                "output-multiplier",
                "element/attribute output: one buffered item per match \
                 (element items grow with subtree bytes; the bound counts \
                 items, not bytes)",
            );
            Occurs::ONE
        }
        Output::Text | Output::Aggregate(_) => {
            // The parser coalesces character data across comments, PIs,
            // and CDATA, so one element yields at most (children + 1)
            // text events — one run per gap between child elements.
            let runs = sa.step_tags[last].iter().fold(Occurs::ZERO, |acc, t| {
                acc.join(Occurs::ONE.plus(dtd.max_child_elements(t)))
            });
            out = out.rule(
                "output-multiplier",
                format!(
                    "text output: ≤ {runs} coalesced text runs per matching \
                     element under the DTD's content models",
                ),
            );
            runs
        }
    };
    k = k.times(mult);
    let Occurs::Bounded(k) = k else {
        let step = &query.steps[last];
        return out.finish(MemoryBound::Unbounded {
            reason: format!(
                "step {} ({step}): mixed/ANY content admits unboundedly many \
                 text runs per match",
                last + 1,
            ),
            span: step.span,
        });
    };

    if self_nesting {
        out.rule(
            "recursive-nesting",
            format!(
                "candidate tags of step {} can nest within themselves, so \
                 one undecided instance may be open per nesting level: \
                 ≤ {k} items each",
                p + 1,
            ),
        )
        .finish(MemoryBound::PerDepth(k))
    } else {
        out.rule(
            "single-instance",
            format!(
                "candidate tags of step {} cannot nest within themselves, \
                 so at most one undecided instance is open: ≤ {k} items total",
                p + 1,
            ),
        )
        .finish(MemoryBound::Items(k))
    }
}

/// Maximum matches of the `next` tag set per single instance of a `ctx`
/// tag, along the given axis. Returns the count and a short explanation.
fn level_count(
    dtd: &Dtd,
    ctx: &BTreeSet<String>,
    next: &BTreeSet<String>,
    axis: Axis,
) -> (Occurs, &'static str) {
    match axis {
        Axis::Child => {
            let count = ctx.iter().fold(Occurs::ZERO, |acc, t| {
                let per_parent = next
                    .iter()
                    .fold(Occurs::ZERO, |a, c| a.plus(dtd.max_count(t, c)));
                acc.join(per_parent)
            });
            (count, "sum of child multiplicities, max over context tags")
        }
        Axis::Closure => {
            let mut memo = BTreeMap::new();
            let count = ctx.iter().fold(Occurs::ZERO, |acc, t| {
                acc.join(subtree_count(dtd, t, next, &mut memo))
            });
            (count, "subtree occurrence count, max over context tags")
        }
        // Callers guard reverse axes before getting here.
        _ => (Occurs::Unbounded, "reverse axis"),
    }
}

enum Mark {
    InProgress,
    Done(Occurs),
}

/// How many `targets` elements one `tag` subtree can contain (strictly
/// below `tag`), multiplicity-aware. A content-model cycle means the
/// subtree can repeat the path without limit: `Unbounded`.
fn subtree_count(
    dtd: &Dtd,
    tag: &str,
    targets: &BTreeSet<String>,
    memo: &mut BTreeMap<String, Mark>,
) -> Occurs {
    match memo.get(tag) {
        Some(Mark::Done(c)) => return *c,
        Some(Mark::InProgress) => return Occurs::Unbounded,
        None => {}
    }
    memo.insert(tag.to_string(), Mark::InProgress);
    let mut total = Occurs::ZERO;
    let children: Vec<String> = dtd.children_of(tag).map(str::to_string).collect();
    for c in children {
        let per_child = if targets.contains(&c) {
            Occurs::ONE
        } else {
            Occurs::ZERO
        }
        .plus(subtree_count(dtd, &c, targets, memo));
        total = total.plus(dtd.max_count(tag, &c).times(per_child));
    }
    memo.insert(tag.to_string(), Mark::Done(total));
    total
}

/// The earliest-flush rewrite: drop existence predicates the DTD proves
/// always true, so the §3.2 machinery never opens an NA state for them
/// and buffered items flush at the earliest schema-permitted point.
///
/// Changes semantics on documents *invalid* against the DTD (an element
/// missing its required child would wrongly match), so callers must gate
/// it behind the same explicit opt-in as closure elimination
/// (`--schema-optimize`). Returns the rewritten query and the 0-based
/// indices of the dropped predicates.
pub fn elide_always_true(query: &Query, dtd: &Dtd) -> (Query, Vec<usize>) {
    let sa = schema::analyze(query, dtd, &BTreeSet::new());
    let mut q = query.clone();
    let mut dropped = Vec::new();
    if !sa.satisfiable {
        return (q, dropped);
    }
    for (i, step) in q.steps.iter_mut().enumerate() {
        if let Some(Predicate::Child { name }) = &step.predicate {
            if !sa.step_tags[i].is_empty()
                && sa.step_tags[i].iter().all(|t| dtd.min_count(t, name) >= 1)
            {
                step.predicate = None;
                dropped.push(i);
            }
        }
    }
    (q, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::checked;
    use crate::build::build_hpdt;
    use xsq_xpath::parse_query;

    fn bound(q: &str, dtd: Option<&Dtd>) -> BoundAnalysis {
        let query = parse_query(q).unwrap();
        let hpdt = build_hpdt(&query).unwrap();
        checked(&hpdt).unwrap();
        analyze_bounds(&query, hpdt.buffered, dtd)
    }

    fn dblp_dtd() -> Dtd {
        Dtd::parse(
            "<!ELEMENT dblp ((article | inproceedings)*)>\
             <!ELEMENT article (author*, title, year, pages)>\
             <!ELEMENT inproceedings (author*, title, year, pages, booktitle?)>\
             <!ELEMENT author (#PCDATA)> <!ELEMENT title (#PCDATA)>\
             <!ELEMENT year (#PCDATA)> <!ELEMENT pages (#PCDATA)>\
             <!ELEMENT booktitle (#PCDATA)>",
        )
        .unwrap()
    }

    #[test]
    fn predicate_free_queries_are_zero_without_any_schema() {
        let b = bound("/a/b/c/text()", None);
        assert_eq!(b.bound, MemoryBound::Zero);
        assert_eq!(b.trace[0].rule, "buffer-free");
    }

    #[test]
    fn buffered_queries_without_schema_are_unbounded_with_a_span() {
        let b = bound("/dblp/inproceedings[author]/title/text()", None);
        match &b.bound {
            MemoryBound::Unbounded { reason, span } => {
                assert!(reason.contains("no DTD"), "{reason}");
                assert!(!span.is_empty());
            }
            other => panic!("expected Unbounded, got {other:?}"),
        }
    }

    #[test]
    fn the_dblp_dtd_tightens_a_paper_query_to_items() {
        // The showcase: [author] is undecided until an author child or
        // the record's end, but records cannot nest and each holds
        // exactly one title with pure-text content → ≤ 1 item pending.
        let b = bound(
            "/dblp/inproceedings[author]/title/text()",
            Some(&dblp_dtd()),
        );
        assert_eq!(b.bound, MemoryBound::Items(1), "trace: {:#?}", b.trace);
        assert!(b.trace.iter().any(|s| s.rule == "outermost-undecided-step"));
        assert!(b.trace.iter().any(|s| s.rule == "level-count"));
        assert!(b.trace.iter().any(|s| s.rule == "output-multiplier"));
    }

    #[test]
    fn unsatisfiable_queries_are_zero() {
        let b = bound("/pub[year=2002]/book[price<11]/author", Some(&dblp_dtd()));
        assert_eq!(b.bound, MemoryBound::Zero);
        assert_eq!(b.trace.last().unwrap().rule, "schema-unsatisfiable");
    }

    #[test]
    fn starred_children_below_the_undecided_step_stay_unbounded() {
        // author* admits unboundedly many matches per record.
        let b = bound(
            "/dblp/inproceedings[booktitle]/author/text()",
            Some(&dblp_dtd()),
        );
        assert!(
            matches!(b.bound, MemoryBound::Unbounded { .. }),
            "{:?}",
            b.bound
        );
    }

    #[test]
    fn always_true_predicates_elide_to_zero() {
        let dtd = Dtd::parse(
            "<!ELEMENT dblp (rec*)> <!ELEMENT rec (author+, title)>\
             <!ELEMENT author (#PCDATA)> <!ELEMENT title (#PCDATA)>",
        )
        .unwrap();
        let b = bound("/dblp/rec[author]/title/text()", Some(&dtd));
        assert_eq!(b.bound, MemoryBound::Zero, "trace: {:#?}", b.trace);
        assert_eq!(b.elidable_predicates, vec![1]);

        let q = parse_query("/dblp/rec[author]/title/text()").unwrap();
        let (rewritten, dropped) = elide_always_true(&q, &dtd);
        assert_eq!(dropped, vec![1]);
        assert_eq!(rewritten.to_string(), "/dblp/rec/title/text()");
    }

    #[test]
    fn recursive_candidates_give_per_depth() {
        let dtd = Dtd::parse(
            "<!ELEMENT pub (year?, book?, pub?)>\
             <!ELEMENT book (name, author?)> <!ELEMENT year (#PCDATA)>\
             <!ELEMENT name (#PCDATA)> <!ELEMENT author (#PCDATA)>",
        )
        .unwrap();
        // pub nests in pub; [year=…] is undecided until the year child.
        let b = bound("//pub[year=2002]/book/name/text()", Some(&dtd));
        assert_eq!(b.bound, MemoryBound::PerDepth(1), "trace: {:#?}", b.trace);
        assert!(b.trace.iter().any(|s| s.rule == "recursive-nesting"));
    }

    #[test]
    fn closure_below_the_undecided_step_uses_subtree_counts() {
        let dtd = Dtd::parse(
            "<!ELEMENT r (sec?)> <!ELEMENT sec (meta?, box?)>\
             <!ELEMENT box (leaf, leaf?)> <!ELEMENT meta (#PCDATA)>\
             <!ELEMENT leaf (#PCDATA)>",
        )
        .unwrap();
        // sec subtree holds ≤ 2 leaf elements (box → leaf, leaf?).
        let b = bound("/r/sec[meta]//leaf/text()", Some(&dtd));
        assert_eq!(b.bound, MemoryBound::Items(2), "trace: {:#?}", b.trace);
    }

    #[test]
    fn content_model_cycles_under_a_closure_are_unbounded() {
        let dtd = Dtd::parse(
            "<!ELEMENT r (sec?)> <!ELEMENT sec (meta?, sec?, leaf?)>\
             <!ELEMENT meta (#PCDATA)> <!ELEMENT leaf (#PCDATA)>",
        )
        .unwrap();
        let b = bound("/r/sec[meta]//leaf/text()", Some(&dtd));
        assert!(
            matches!(b.bound, MemoryBound::Unbounded { .. }),
            "{:?}",
            b.bound
        );
    }

    #[test]
    fn admission_tests_follow_the_lattice() {
        assert!(MemoryBound::Zero.admits(0));
        assert!(MemoryBound::Items(4).admits(4));
        assert!(!MemoryBound::Items(5).admits(4));
        assert!(!MemoryBound::PerDepth(1).admits(u64::MAX));
        let ub = MemoryBound::Unbounded {
            reason: "x".into(),
            span: Span::new(0, 0),
        };
        assert!(!ub.admits(u64::MAX));
    }

    #[test]
    fn element_output_counts_one_item_per_match() {
        let dtd = Dtd::parse(
            "<!ELEMENT r (item?)> <!ELEMENT item (meta?, payload)>\
             <!ELEMENT meta (#PCDATA)> <!ELEMENT payload (a?, b?)>\
             <!ELEMENT a (#PCDATA)> <!ELEMENT b (#PCDATA)>",
        )
        .unwrap();
        let b = bound("/r/item[meta]/payload", Some(&dtd));
        assert_eq!(b.bound, MemoryBound::Items(1), "trace: {:#?}", b.trace);
    }

    #[test]
    fn text_output_counts_runs_from_the_content_model() {
        let dtd = Dtd::parse(
            "<!ELEMENT r (w?)> <!ELEMENT w (meta?, mix)>\
             <!ELEMENT mix (a?, b?)> <!ELEMENT meta (#PCDATA)>\
             <!ELEMENT a (#PCDATA)> <!ELEMENT b (#PCDATA)>",
        )
        .unwrap();
        // mix can hold two child elements → up to 3 text runs.
        let b = bound("/r/w[meta]/mix/text()", Some(&dtd));
        assert_eq!(b.bound, MemoryBound::Items(3), "trace: {:#?}", b.trace);
    }
}
