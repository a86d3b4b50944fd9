//! Static analysis over compiled HPDTs.
//!
//! The paper builds one HPDT per query and leaves all reasoning about it
//! to the nondeterministic runtime. This module adds the missing
//! compile-time layer. Every HPDT — a single query's or a merged
//! multi-query group's from `qindex` — passes through `checked`
//! (items 1–3) between `build` and execution:
//!
//! 1. **Structural verifier** ([`verify()`]) — checks the invariants the
//!    builder is supposed to maintain (reachability, buffer release/clear
//!    arcs, depth-vector discipline, BPDT tree positions) and returns
//!    machine-readable [`Diagnostic`]s instead of letting the runtime
//!    panic deep inside `execute`.
//! 2. **Dead-state pruning** ([`prune()`]) — removes arcs whose guards are
//!    statically unsatisfiable, deduplicates action-free arcs, and drops
//!    states unreachable from the start state, shrinking the
//!    configuration sets the runtime scans and the `qindex` dispatch
//!    buckets.
//! 3. **Determinism proof** ([`prove_deterministic`]) — detects automata
//!    with no closure arcs. Pruning records the verdict in the artifact
//!    (`Hpdt::deterministic`), and every runner of it — solo or inside
//!    an index group — takes the XSQ-NC first-match fast path from that.
//! 4. **Buffer-necessity analysis** ([`analyze_buffers`]) — classifies
//!    each buffer per §3.2's predicate templates, for `xsq analyze`. The
//!    one bit the engine acts on — can anything enqueue at all — is the
//!    artifact's own `Hpdt::buffered`: when false, results emit directly,
//!    no queue is allocated and the static bound is zero.

pub mod bounds;
pub mod buffers;
pub mod prune;
pub mod verify;

pub use bounds::{analyze_bounds, elide_always_true, BoundAnalysis, BoundStep, MemoryBound};
pub use buffers::{analyze_buffers, BufferClass, BufferInfo, BufferPlan};
pub use prune::{prune, PruneStats};
pub use verify::verify;

use xsq_xpath::{streamability, CmpOp, Comparison, FnTest, IssueKind, Predicate, Query};

use crate::arcs::{ArcLabel, StateId};
use crate::build::{build_hpdt, Hpdt};
use crate::error::CompileError;
use crate::ids::BpdtId;

/// How serious a diagnostic is. `Error` means the transducer must not be
/// executed; `Warning` flags suspicious-but-sound structure (e.g. a query
/// that can never produce results); `Info` is advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Info,
    Warning,
    Error,
}

impl Severity {
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One machine-readable finding from the analyzer.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub severity: Severity,
    /// Stable kebab-case identifier for the class of finding.
    pub code: &'static str,
    pub message: String,
    /// The state the finding anchors to, if any.
    pub state: Option<StateId>,
    /// The BPDT the finding anchors to, if any.
    pub bpdt: Option<BpdtId>,
    /// 1-based location-step index into the query, for query-level lints.
    pub step: Option<usize>,
}

impl Diagnostic {
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            code,
            message: message.into(),
            state: None,
            bpdt: None,
            step: None,
        }
    }

    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, message)
        }
    }

    pub fn info(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Info,
            ..Diagnostic::error(code, message)
        }
    }

    pub fn at_state(mut self, state: StateId) -> Self {
        self.state = Some(state);
        self
    }

    pub fn at_bpdt(mut self, bpdt: BpdtId) -> Self {
        self.bpdt = Some(bpdt);
        self
    }

    pub fn at_step(mut self, step: usize) -> Self {
        self.step = Some(step);
        self
    }

    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity.label(),
            self.code,
            self.message
        )?;
        if let Some(s) = self.state {
            write!(f, " (state ${s})")?;
        }
        if let Some(b) = self.bpdt {
            write!(f, " ({b})")?;
        }
        Ok(())
    }
}

/// Any error-severity diagnostics in the list?
pub fn has_errors(diagnostics: &[Diagnostic]) -> bool {
    diagnostics.iter().any(Diagnostic::is_error)
}

/// Convert verifier output into a [`CompileError`] if any finding is an
/// error: malformed transducers are rejected before they reach the
/// runtime.
pub fn reject_malformed(diagnostics: &[Diagnostic]) -> Result<(), CompileError> {
    match diagnostics.iter().find(|d| d.is_error()) {
        Some(d) => Err(CompileError::Malformed {
            diagnostic: d.to_string(),
        }),
        None => Ok(()),
    }
}

/// The one post-build step, for a single query's HPDT and a merged
/// group's alike: verify the builder's invariants, then prune dead
/// structure — merged transducers accumulate duplicate closure
/// self-loops (one per trie child expanding a shared state) that pruning
/// folds back to one. The result carries its own determinism proof
/// (`deterministic`) and buffering verdict (`buffered`), which is what
/// the runtime and the bound analysis read.
pub(crate) fn checked(hpdt: Hpdt) -> Result<Hpdt, CompileError> {
    reject_malformed(&verify(&hpdt))?;
    Ok(prune(&hpdt).0)
}

/// Determinism proof over the compiled artifact: with no closure self-loop
/// and no any-depth entry arcs, every event matches at most one path, so
/// the per-state `scan_all` flags make first-match execution exact and the
/// query can auto-run on the XSQ-NC fast path. Strictly stronger than the
/// query-level `has_closure` test: pruning can remove every closure arc of
/// a query that *textually* uses `//`.
pub fn prove_deterministic(hpdt: &Hpdt) -> bool {
    !hpdt.arcs.iter().flatten().any(|a| {
        matches!(
            a.label,
            ArcLabel::ClosureSelfLoop | ArcLabel::BeginAnyDepth(_)
        )
    })
}

/// Is the comparison statically unsatisfiable? XPath 1.0 relational
/// operators always compare numerically, and `number()` of a non-numeric
/// constant is NaN — which every relational comparison rejects. So
/// `[price<abc]` can never hold, regardless of the stream.
pub fn comparison_unsatisfiable(cmp: &Comparison) -> bool {
    matches!(cmp.op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge) && cmp.rhs.as_number().is_nan()
}

/// Query-level lints: predicates that can never be true. These are
/// warnings, not errors — the query is legal and runs fine, it just
/// provably emits nothing past the offending step.
pub fn lint_query(query: &Query) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, step) in query.steps.iter().enumerate() {
        let cmp = match &step.predicate {
            Some(Predicate::Attr { cmp: Some(c), .. })
            | Some(Predicate::Text { cmp: Some(c) })
            | Some(Predicate::ChildAttr { cmp: Some(c), .. })
            | Some(Predicate::ChildText { cmp: c, .. }) => c,
            Some(Predicate::Func {
                test: FnTest::StringLength(c) | FnTest::Number(c),
                ..
            }) => c,
            _ => continue,
        };
        if comparison_unsatisfiable(cmp) {
            let mut d = Diagnostic::warning(
                "unsatisfiable-predicate",
                format!(
                    "predicate of step {} ({}) can never be true: relational \
                     comparison against non-numeric constant {}",
                    i + 1,
                    step,
                    cmp.rhs,
                ),
            )
            .at_step(i + 1);
            if !step.span.is_empty() {
                d.message.push_str(&format!(" (at {})", step.span));
            }
            out.push(d);
        }
    }
    out
}

/// Streamability lints: surface features the query uses that the HPDT
/// selection engines cannot evaluate in one forward pass. Reverse axes
/// and `position()`/`last()` under `//` are errors (no engine in this
/// workspace streams them); `position()`/`last()` on child steps are
/// informational — the transform matcher (`xsq transform`) handles them,
/// the selection engines do not. The mapping is pure query analysis, so
/// it runs (and the CLI reports it) even when `build_hpdt` would refuse
/// the query — diagnostics instead of a panic or a bare error string.
pub fn lint_streamability(query: &Query) -> Vec<Diagnostic> {
    let report = streamability(query);
    let mut out = Vec::new();
    for issue in &report.issues {
        let mut d = match issue.kind {
            IssueKind::NonStreamable => Diagnostic::error("non-streamable", issue.message.clone()),
            IssueKind::TransformOnly => Diagnostic::info("transform-only", issue.message.clone()),
        }
        .at_step(issue.step + 1);
        if !issue.span.is_empty() {
            d.message.push_str(&format!(" (at {})", issue.span));
        }
        out.push(d);
    }
    out
}

/// Schema-aware lints, available when a DTD is at hand: steps that can
/// never match any document valid against the schema, plus closures the
/// schema proves removable. Reuses `schema::analyze`.
pub fn lint_schema(query: &Query, dtd: &xsq_xml::dtd::Dtd) -> Vec<Diagnostic> {
    let roots = std::collections::BTreeSet::new();
    let analysis = crate::schema::analyze(query, dtd, &roots);
    let mut out = Vec::new();
    if !analysis.satisfiable {
        out.push(Diagnostic::warning(
            "schema-empty-step",
            "no document valid against the DTD can match this query: some \
             step's tag cannot occur at its position",
        ));
    }
    for (i, tags) in analysis.step_tags.iter().enumerate() {
        if tags.is_empty() {
            out.push(
                Diagnostic::warning(
                    "schema-empty-step",
                    format!(
                        "step {} ({}) matches no element allowed by the DTD",
                        i + 1,
                        query.steps[i],
                    ),
                )
                .at_step(i + 1),
            );
        }
    }
    for &i in &analysis.removable_closures {
        out.push(
            Diagnostic::info(
                "removable-closure",
                format!(
                    "the DTD proves the closure axis of step {} ({}) only ever \
                     descends one level; `xsq --schema-optimize` rewrites it to `/`",
                    i + 1,
                    query.steps[i],
                ),
            )
            .at_step(i + 1),
        );
    }
    out
}

/// Full analysis of one query: build, verify, lint, prune, classify
/// buffers, and prove (or fail to prove) determinism.
#[derive(Debug)]
pub struct Analysis {
    pub query: Query,
    pub diagnostics: Vec<Diagnostic>,
    /// The freshly built, unpruned transducer.
    pub original: Hpdt,
    /// The transducer after dead-state pruning — what the engine runs.
    pub pruned: Hpdt,
    pub stats: PruneStats,
    /// Buffer-necessity classification of the pruned transducer.
    pub plan: BufferPlan,
    /// Static memory bound from the schema (or the no-schema verdict).
    pub bound: BoundAnalysis,
    /// True when the pruned transducer has no overlapping-arc sources.
    pub proven_deterministic: bool,
    /// The engine the `XsqEngine::full` entry point would actually run.
    pub engine: &'static str,
}

/// Analyze a parsed query end to end. This is the backend of
/// `xsq analyze`; the engine runs the same verify/prune pipeline through
/// `checked` and keeps only the pruned transducer.
pub fn analyze(query: &Query) -> Result<Analysis, CompileError> {
    analyze_with_dtd(query, None)
}

/// [`analyze`], with schema knowledge when a DTD is at hand: adds the
/// schema lints and derives the static memory bound from the content
/// models instead of the conservative no-schema `Unbounded`.
pub fn analyze_with_dtd(
    query: &Query,
    dtd: Option<&xsq_xml::dtd::Dtd>,
) -> Result<Analysis, CompileError> {
    let original = build_hpdt(query)?;
    let mut diagnostics = verify(&original);
    diagnostics.extend(lint_streamability(query));
    diagnostics.extend(lint_query(query));
    if let Some(dtd) = dtd {
        diagnostics.extend(lint_schema(query, dtd));
    }
    let (pruned, stats) = prune(&original);
    let proven_deterministic = prove_deterministic(&pruned);
    let plan = analyze_buffers(&pruned);
    let bound = analyze_bounds(query, pruned.buffered, dtd);
    let engine = if proven_deterministic {
        "XSQ-NC (auto)"
    } else {
        "XSQ-F"
    };
    Ok(Analysis {
        query: query.clone(),
        diagnostics,
        original,
        pruned,
        stats,
        plan,
        bound,
        proven_deterministic,
        engine,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsq_xpath::parse_query;

    #[test]
    fn relational_comparison_against_text_is_unsatisfiable() {
        let q = parse_query("/a[price<abc]/b/text()").unwrap();
        let lints = lint_query(&q);
        assert_eq!(lints.len(), 1);
        assert_eq!(lints[0].code, "unsatisfiable-predicate");
        assert_eq!(lints[0].step, Some(1));
        assert!(!has_errors(&lints));
    }

    #[test]
    fn satisfiable_predicates_produce_no_lints() {
        for q in [
            "/a[price<11]/b/text()",
            "/a[name=abc]/b/text()",  // Eq on text: string comparison, fine
            "/a[line%love]/b/text()", // contains: substring, fine
            "/a[@id!=x]/b/text()",    // Ne: NaN != x is true
        ] {
            let parsed = parse_query(q).unwrap();
            assert!(lint_query(&parsed).is_empty(), "spurious lint for {q}");
        }
    }

    #[test]
    fn clean_queries_analyze_without_errors() {
        for q in [
            "/pub[year=2002]/book[price<11]/author",
            "//pub[year>2000]//book[author]//name/text()",
            "/PLAY/ACT/SCENE/SPEECH[LINE%love]/SPEAKER/text()",
        ] {
            let parsed = parse_query(q).unwrap();
            let a = analyze(&parsed).unwrap();
            assert!(!has_errors(&a.diagnostics), "{q}: {:?}", a.diagnostics);
        }
    }

    #[test]
    fn function_predicate_comparisons_are_linted() {
        let q = parse_query("/a[string-length(text())<abc]/b/text()").unwrap();
        let lints = lint_query(&q);
        assert_eq!(lints.len(), 1);
        assert_eq!(lints[0].code, "unsatisfiable-predicate");

        let q = parse_query("/a[number(@price)<10]/b/text()").unwrap();
        assert!(lint_query(&q).is_empty());
    }

    #[test]
    fn reverse_axes_lint_as_errors() {
        let q = parse_query("/a/b/parent::a/text()").unwrap();
        let lints = lint_streamability(&q);
        assert_eq!(lints.len(), 1);
        assert_eq!(lints[0].code, "non-streamable");
        assert_eq!(lints[0].step, Some(3));
        assert!(has_errors(&lints));
        // The span of the offending step is echoed into the message.
        assert!(lints[0].message.contains("(at "), "{}", lints[0].message);
    }

    #[test]
    fn child_position_lints_as_transform_only_info() {
        let q = parse_query("/a/b[2]/text()").unwrap();
        let lints = lint_streamability(&q);
        assert_eq!(lints.len(), 1);
        assert_eq!(lints[0].code, "transform-only");
        assert!(!has_errors(&lints));

        let q = parse_query("//a/b[last()]/text()").unwrap();
        // last() under a child step is transform-only; fine as info.
        assert!(!has_errors(&lint_streamability(&q)));

        let q = parse_query("//b[last()]/text()").unwrap();
        assert!(has_errors(&lint_streamability(&q)));
    }

    #[test]
    fn streamable_queries_have_no_streamability_lints() {
        for q in [
            "/a/b/text()",
            "//pub[year>2000]//name/text()",
            "/a[contains(text(),x)]/b/text()",
        ] {
            let parsed = parse_query(q).unwrap();
            assert!(lint_streamability(&parsed).is_empty(), "spurious: {q}");
        }
    }

    #[test]
    fn a_dead_output_step_is_bounded_by_what_the_engine_runs() {
        // The only `Emit` sits below an unsatisfiable guard and is pruned;
        // the upload arcs of the live `[b]`/`[d]` steps stay, so the
        // per-queue plan still shows a fed queue. Nothing can enqueue, the
        // runner allocates no queues, and explainer and compiler both say
        // so: the bound is read off the artifact.
        let q = parse_query("/a[b]/c[d]/e[@x>nope]/text()").unwrap();
        let a = analyze(&q).unwrap();
        assert!(a.plan.buffered && !a.pruned.buffered);
        assert_eq!(a.bound.bound, MemoryBound::Zero);
        let compiled = crate::XsqEngine::full().compile(&q).unwrap();
        assert_eq!(compiled.bound(), &MemoryBound::Zero);
    }

    #[test]
    fn closure_free_queries_are_proven_deterministic() {
        let q = parse_query("/pub[year=2002]/book[price<11]/author/text()").unwrap();
        let a = analyze(&q).unwrap();
        assert!(a.proven_deterministic);
        assert_eq!(a.engine, "XSQ-NC (auto)");

        let q = parse_query("//pub[year>2000]//book[author]//name/text()").unwrap();
        let a = analyze(&q).unwrap();
        assert!(!a.proven_deterministic);
        assert_eq!(a.engine, "XSQ-F");
    }
}
