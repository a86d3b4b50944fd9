//! Abstract syntax for the paper's XPath subset (Fig. 3).
//!
//! A query is `N1 N2 … Nn [/O]`: a location path of steps plus an optional
//! output expression. Each step has an axis (`/` child or `//`
//! descendant-or-self, the *closure* axis), a node test, and at most one
//! predicate. The predicate shapes mirror the five categories of §3.2
//! one-to-one, since each category instantiates a different BPDT template.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::value::XPathValue;

/// The axis of a location step.
///
/// `Child` and `Closure` are the paper's forward axes; the reverse axes
/// parse (so diagnostics can point at them by span) but no streaming
/// engine evaluates them — `classify::streamability` rejects them with a
/// clear message instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// `/tag` — child axis.
    Child,
    /// `//tag` — descendant-or-self, the paper's *closure* axis.
    Closure,
    /// `/parent::tag` — reverse axis, not streamable.
    Parent,
    /// `/ancestor::tag` — reverse axis, not streamable.
    Ancestor,
    /// `/preceding-sibling::tag` — reverse axis, not streamable.
    PrecedingSibling,
}

impl Axis {
    /// Does the axis look forward in document order? Only forward axes can
    /// be evaluated in a single pass over the event stream.
    pub fn is_forward(&self) -> bool {
        matches!(self, Axis::Child | Axis::Closure)
    }

    /// The `name::` spelling of a reverse axis (empty for forward axes,
    /// which are spelled as `/` and `//`).
    pub fn prefix(&self) -> &'static str {
        match self {
            Axis::Child | Axis::Closure => "",
            Axis::Parent => "parent::",
            Axis::Ancestor => "ancestor::",
            Axis::PrecedingSibling => "preceding-sibling::",
        }
    }
}

/// The node test of a location step.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeTest {
    /// A tag name.
    Name(String),
    /// `*` — matches any element.
    Wildcard,
}

impl NodeTest {
    /// Does this test accept an element with the given tag?
    pub fn matches(&self, tag: &str) -> bool {
        match self {
            NodeTest::Name(n) => n == tag,
            NodeTest::Wildcard => true,
        }
    }
}

/// Comparison operators (`OP` in Fig. 3). `Contains` is spelled `%` in the
/// paper's example queries (e.g. `SPEECH[LINE%love]`) and also accepted as
/// the word `contains`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Lt,
    Le,
    Eq,
    Ge,
    Gt,
    Ne,
    Contains,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "=",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
            CmpOp::Ne => "!=",
            CmpOp::Contains => "%",
        };
        f.write_str(s)
    }
}

/// `OP constant` — the right-hand side of a predicate test.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Comparison {
    pub op: CmpOp,
    pub rhs: XPathValue,
}

impl Comparison {
    /// Evaluate the comparison against a left-hand-side string taken from
    /// the stream (attribute value or text content).
    pub fn eval(&self, lhs: &str) -> bool {
        crate::value::compare(lhs, self.op, &self.rhs)
    }

    /// Can no stream value ever satisfy the comparison? A relational
    /// operator always compares numerically (XPath 1.0), and every
    /// relational comparison against NaN — the number of a non-numeric
    /// constant — is false. So `[price<abc]` never holds. `=`, `!=` and
    /// `%` compare strings when the constant is one, and may hold.
    pub fn unsatisfiable(&self) -> bool {
        let relational = matches!(self.op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge);
        relational && self.rhs.as_number().is_nan()
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.op, self.rhs)
    }
}

/// The argument of a streaming-safe string/number function: `X` in
/// `contains(X, v)`. Only values already visible at the element — its own
/// text runs or an attribute — keep the function evaluable in one pass.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum FnArg {
    /// `text()` — the element's own text content.
    Text,
    /// `@attr` — an attribute of the element.
    Attr(String),
}

impl fmt::Display for FnArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FnArg::Text => write!(f, "text()"),
            FnArg::Attr(a) => write!(f, "@{a}"),
        }
    }
}

/// The function tests of the streaming-safe surface subset. Each consumes
/// one string drawn from the stream (the [`FnArg`]) and decides a boolean
/// with no lookahead, so the BPDT timing of categories 1 and 2 carries
/// over unchanged.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum FnTest {
    /// `contains(X, v)`.
    Contains(XPathValue),
    /// `starts-with(X, v)`.
    StartsWith(XPathValue),
    /// `string-length(X) op n` — compared in characters, per XPath 1.0.
    StringLength(Comparison),
    /// `number(X) op v` — forces numeric comparison even for string `v`.
    Number(Comparison),
}

impl FnTest {
    /// Evaluate the test against a string taken from the stream.
    pub fn eval(&self, lhs: &str) -> bool {
        match self {
            FnTest::Contains(v) => lhs.contains(v.as_str()),
            FnTest::StartsWith(v) => lhs.starts_with(v.as_str()),
            FnTest::StringLength(c) => {
                crate::value::num_compare(lhs.chars().count() as f64, c.op, c.rhs.as_number())
            }
            FnTest::Number(c) => {
                crate::value::num_compare(crate::value::str_to_number(lhs), c.op, c.rhs.as_number())
            }
        }
    }

    /// Can no stream value ever pass the test? `string-length()` and
    /// `number()` compare numerically whatever the operator ([`Self::eval`]),
    /// so against a non-numeric constant (NaN) every operator but `!=`
    /// and `%` is false: `[number(@x)=abc]` never holds, `[number(@x)!=abc]`
    /// holds wherever `@x` is present.
    pub fn unsatisfiable(&self) -> bool {
        match self {
            FnTest::Contains(_) | FnTest::StartsWith(_) => false,
            FnTest::StringLength(c) | FnTest::Number(c) => {
                !matches!(c.op, CmpOp::Ne | CmpOp::Contains) && c.rhs.as_number().is_nan()
            }
        }
    }

    /// Render `name(arg, …)` with the argument spliced in.
    fn fmt_with_arg(&self, f: &mut fmt::Formatter<'_>, arg: &FnArg) -> fmt::Result {
        match self {
            FnTest::Contains(v) => write!(f, "contains({arg},{v})"),
            FnTest::StartsWith(v) => write!(f, "starts-with({arg},{v})"),
            FnTest::StringLength(c) => write!(f, "string-length({arg}){c}"),
            FnTest::Number(c) => write!(f, "number({arg}){c}"),
        }
    }
}

/// A predicate, one of the five categories of §3.2.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Predicate {
    /// Category 1: `[@attr]` / `[@attr op v]` — decided at the begin event
    /// of the element itself.
    Attr {
        name: String,
        cmp: Option<Comparison>,
    },
    /// Category 2: `[text()]` / `[text() op v]` — decided at a text event
    /// of the element (true) or its end event (false).
    Text { cmp: Option<Comparison> },
    /// Category 3: `[child]` — true at the begin event of a matching
    /// child, false at the end event of the element.
    Child { name: String },
    /// Category 4: `[child@attr]` / `[child@attr op v]` — decided at the
    /// begin events of `child` children.
    ChildAttr {
        child: String,
        attr: String,
        cmp: Option<Comparison>,
    },
    /// Category 5: `[child op v]` — decided at text events of `child`
    /// children (true) or the end event of the element (false).
    ChildText { child: String, cmp: Comparison },
    /// `[position() op n]` / `[n]` — decided at the begin event from a
    /// sibling counter kept by the parent. Streamable on child steps only.
    Position { cmp: Comparison },
    /// `[last()]` — decided *after* the element: false once a later
    /// matching sibling begins, true at the parent's end event.
    /// Streamable on child steps only.
    Last,
    /// A string/number function test over the element's own text or an
    /// attribute: same decision timing as categories 1 and 2.
    Func { arg: FnArg, test: FnTest },
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Attr { name, cmp } => {
                write!(f, "[@{name}")?;
                if let Some(c) = cmp {
                    write!(f, "{c}")?;
                }
                write!(f, "]")
            }
            Predicate::Text { cmp } => {
                write!(f, "[text()")?;
                if let Some(c) = cmp {
                    write!(f, "{c}")?;
                }
                write!(f, "]")
            }
            Predicate::Child { name } => write!(f, "[{name}]"),
            Predicate::ChildAttr { child, attr, cmp } => {
                write!(f, "[{child}@{attr}")?;
                if let Some(c) = cmp {
                    write!(f, "{c}")?;
                }
                write!(f, "]")
            }
            Predicate::ChildText { child, cmp } => write!(f, "[{child}{cmp}]"),
            Predicate::Position { cmp } => write!(f, "[position(){cmp}]"),
            Predicate::Last => write!(f, "[last()]"),
            Predicate::Func { arg, test } => {
                write!(f, "[")?;
                test.fmt_with_arg(f, arg)?;
                write!(f, "]")
            }
        }
    }
}

/// A byte range in the source query string, attached to each step so
/// diagnostics (`xsq analyze`) can point back into the query text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    pub start: usize,
    pub end: usize,
}

impl Span {
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// True for the zero span used by synthesized steps.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// One location step.
#[derive(Debug, Clone)]
pub struct Step {
    pub axis: Axis,
    pub test: NodeTest,
    pub predicate: Option<Predicate>,
    /// Source span of this step; metadata only (ignored by `PartialEq`).
    pub span: Span,
}

/// Spans are diagnostics metadata: two steps parsed from different query
/// strings must still compare equal for the multi-query index to share
/// common prefixes, so equality looks only at axis, test, and predicate.
impl PartialEq for Step {
    fn eq(&self, other: &Self) -> bool {
        self.axis == other.axis && self.test == other.test && self.predicate == other.predicate
    }
}

/// Hashes what [`PartialEq`] compares and nothing else, so equal steps
/// hash equal whatever their spans: the planner files trie nodes by this
/// hash and confirms a hit with `==`.
impl Hash for Step {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.axis.hash(state);
        self.test.hash(state);
        self.predicate.hash(state);
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.axis {
            Axis::Closure => write!(f, "//")?,
            _ => write!(f, "/{}", self.axis.prefix())?,
        }
        match &self.test {
            NodeTest::Name(n) => write!(f, "{n}")?,
            NodeTest::Wildcard => write!(f, "*")?,
        }
        if let Some(p) = &self.predicate {
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

/// Aggregation functions usable as output expressions (§4.4). `count` and
/// `sum` appear in Fig. 3; `avg`, `min`, `max` are the natural extensions
/// implemented on the same stat buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

/// The output expression `O` of a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// No output expression: emit each matching element whole (the
    /// catchall `*̄` transitions of §3.4).
    Element,
    /// `text()` — text content of the matching element.
    Text,
    /// `@attr` — an attribute of the matching element.
    Attr(String),
    /// An aggregation over the matches.
    Aggregate(AggFunc),
}

impl fmt::Display for Output {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Output::Element => Ok(()),
            Output::Text => write!(f, "/text()"),
            Output::Attr(a) => write!(f, "/@{a}"),
            Output::Aggregate(func) => write!(f, "/{}()", func.name()),
        }
    }
}

/// A complete query: location path plus output expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub steps: Vec<Step>,
    pub output: Output,
}

impl Query {
    /// Number of location steps (`n` in the paper's `N1…Nn/O`).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if there are no steps (never produced by the parser).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Does any step use the closure axis `//`? Queries without closures
    /// compile to a *deterministic* HPDT and can run on the XSQ-NC fast
    /// path (§6.2).
    pub fn has_closure(&self) -> bool {
        self.steps.iter().any(|s| s.axis == Axis::Closure)
    }

    /// Does any step carry a predicate?
    pub fn has_predicates(&self) -> bool {
        self.steps.iter().any(|s| s.predicate.is_some())
    }

    /// Is the output expression an aggregation?
    pub fn is_aggregation(&self) -> bool {
        matches!(self.output, Output::Aggregate(_))
    }

    /// Does any step use a wildcard node test?
    pub fn has_wildcard(&self) -> bool {
        self.steps.iter().any(|s| s.test == NodeTest::Wildcard)
    }

    /// Does any step use a reverse axis (`parent::`, `ancestor::`,
    /// `preceding-sibling::`)? Such queries parse but never stream.
    pub fn has_reverse_axis(&self) -> bool {
        self.steps.iter().any(|s| !s.axis.is_forward())
    }

    /// The first extended-surface feature used by the query (reverse
    /// axis, `position()`/`last()`, or a function predicate), if any.
    /// Baseline engines that implement only the paper's Fig. 3 subset
    /// use this to bail out with a clean `Unsupported` instead of
    /// silently evaluating the predicate as never-true.
    pub fn extended_feature(&self) -> Option<String> {
        for step in &self.steps {
            if !step.axis.is_forward() {
                return Some(format!("reverse axis `{}`", step.axis.prefix()));
            }
            match &step.predicate {
                Some(Predicate::Position { .. }) => return Some("position() predicates".into()),
                Some(Predicate::Last) => return Some("last() predicates".into()),
                Some(Predicate::Func { .. }) => return Some("function predicates".into()),
                _ => {}
            }
        }
        None
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.steps {
            write!(f, "{s}")?;
        }
        write!(f, "{}", self.output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(axis: Axis, name: &str, predicate: Option<Predicate>) -> Step {
        Step {
            axis,
            test: NodeTest::Name(name.into()),
            predicate,
            span: Span::default(),
        }
    }

    #[test]
    fn spans_are_ignored_by_step_equality() {
        let a = step(Axis::Child, "book", None);
        let mut b = a.clone();
        b.span = Span::new(3, 8);
        assert_eq!(a, b);
        assert!(a.span.is_empty());
        assert!(!b.span.is_empty());
        assert_eq!(b.span.to_string(), "3..8");
    }

    #[test]
    fn display_roundtrips_structure() {
        let q = Query {
            steps: vec![
                step(
                    Axis::Child,
                    "pub",
                    Some(Predicate::ChildText {
                        child: "year".into(),
                        cmp: Comparison {
                            op: CmpOp::Gt,
                            rhs: XPathValue::number(2000.0),
                        },
                    }),
                ),
                step(
                    Axis::Closure,
                    "book",
                    Some(Predicate::Child {
                        name: "author".into(),
                    }),
                ),
                step(Axis::Child, "name", None),
            ],
            output: Output::Text,
        };
        assert_eq!(q.to_string(), "/pub[year>2000]//book[author]/name/text()");
        assert!(q.has_closure());
        assert!(q.has_predicates());
        assert!(!q.is_aggregation());
        assert_eq!(q.len(), 3);
        assert!(!q.is_empty());
        assert!(!q.has_wildcard());
    }

    #[test]
    fn wildcard_matches_everything() {
        assert!(NodeTest::Wildcard.matches("anything"));
        assert!(NodeTest::Name("a".into()).matches("a"));
        assert!(!NodeTest::Name("a".into()).matches("b"));
    }

    #[test]
    fn output_display_forms() {
        assert_eq!(Output::Element.to_string(), "");
        assert_eq!(Output::Attr("id".into()).to_string(), "/@id");
        assert_eq!(Output::Aggregate(AggFunc::Count).to_string(), "/count()");
    }

    #[test]
    fn predicate_display_forms() {
        let p = Predicate::ChildAttr {
            child: "book".into(),
            attr: "id".into(),
            cmp: Some(Comparison {
                op: CmpOp::Le,
                rhs: XPathValue::number(10.0),
            }),
        };
        assert_eq!(p.to_string(), "[book@id<=10]");
        let p = Predicate::Attr {
            name: "id".into(),
            cmp: None,
        };
        assert_eq!(p.to_string(), "[@id]");
    }

    #[test]
    fn unsatisfiable_tests_pass_no_value() {
        let cmp = |op, rhs: &str| Comparison {
            op,
            rhs: XPathValue::text(rhs),
        };
        let values = ["", "5", " 5 ", "5.0", "abc", "NaN", "-1"];
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Eq,
            CmpOp::Ge,
            CmpOp::Gt,
            CmpOp::Ne,
            CmpOp::Contains,
        ] {
            for rhs in ["abc", "5"] {
                let c = cmp(op, rhs);
                let tests = [
                    (c.unsatisfiable(), values.map(|v| c.eval(v))),
                    (
                        FnTest::Number(c.clone()).unsatisfiable(),
                        values.map(|v| FnTest::Number(c.clone()).eval(v)),
                    ),
                    (
                        FnTest::StringLength(c.clone()).unsatisfiable(),
                        values.map(|v| FnTest::StringLength(c.clone()).eval(v)),
                    ),
                ];
                for (unsat, passes) in tests {
                    // Sound: a test called unsatisfiable passes no value.
                    assert!(!unsat || !passes.contains(&true), "{op} {rhs}");
                }
            }
        }
        assert!(cmp(CmpOp::Gt, "abc").unsatisfiable());
        assert!(!cmp(CmpOp::Eq, "abc").unsatisfiable());
        assert!(FnTest::Number(cmp(CmpOp::Eq, "abc")).unsatisfiable());
        assert!(FnTest::StringLength(cmp(CmpOp::Eq, "abc")).unsatisfiable());
        assert!(!FnTest::Number(cmp(CmpOp::Ne, "abc")).unsatisfiable());
        assert!(!FnTest::Number(cmp(CmpOp::Eq, "5")).unsatisfiable());
        assert!(!FnTest::Contains(XPathValue::text("abc")).unsatisfiable());
    }
}
