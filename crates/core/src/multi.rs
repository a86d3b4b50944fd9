//! Multi-query evaluation: many standing XPath queries over one stream.
//!
//! The paper notes (§5) that "the HPDT used by XSQ has a simple and
//! regular structure, so that multiple HPDTs can be grouped using methods
//! suggested by \[YFilter\]". This module provides that workload shape: a
//! [`QuerySet`] compiles any number of queries once, and evaluation runs
//! all of them over a single pass of the stream — one parse, N
//! evaluations, with per-query result attribution.
//!
//! The set is planned into prefix-sharing groups and driven through a
//! [`QueryIndex`], so each event touches only the runners whose dispatch
//! buckets match it — see [`crate::qindex`]. A caller that wants one
//! independent runner per query (a per-query tracer) steps its own `Vec`
//! of [`crate::CompiledQuery::runner`]s.

use std::io::BufRead;

use crate::engine::XsqEngine;
use crate::error::{CompileError, EngineError};
use crate::qindex::prefix::{plan_groups, QueryGroup};
use crate::qindex::{QueryIndex, VecQuerySink};

/// The queries of a query file or SUB payload: one per line, trimmed,
/// blank lines and `#` comments skipped.
pub fn query_lines(text: &str) -> Vec<&str> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// A set of compiled queries sharing one stream pass — the one compiled
/// batch: the CLI drivers, the sharded workers, [`QueryIndex`]
/// subscriptions and the server's plan cache all hold this artifact and
/// instantiate it through [`QueryIndex::subscribe_set`].
///
/// ```
/// use xsq_core::{QuerySet, XsqEngine};
///
/// let set = QuerySet::compile(
///     XsqEngine::full(),
///     &["//book/name/text()", "//book/count()"],
/// ).unwrap();
/// let results = set
///     .run_document(b"<pub><book><name>N</name></book></pub>")
///     .unwrap();
/// assert_eq!(results[0], ["N"]);
/// assert_eq!(results[1], ["1"]);
/// ```
#[derive(Debug)]
pub struct QuerySet {
    engine: XsqEngine,
    queries: Vec<String>,
    /// Prefix-sharing group plan (compiled once, instantiated per run).
    plan: Vec<QueryGroup>,
}

impl QuerySet {
    /// Compile a set of query strings with one engine — the only batch
    /// compiler: parse, engine-variant check (XSQ-NC refuses closures),
    /// then prefix-sharing planning, which builds, verifies and prunes
    /// each group's HPDT. Fails naming the offending query's index.
    pub fn compile(engine: XsqEngine, queries: &[&str]) -> Result<QuerySet, (usize, CompileError)> {
        let mut parsed = Vec::with_capacity(queries.len());
        for (i, q) in queries.iter().enumerate() {
            let query = xsq_xpath::parse_query(q).map_err(|e| (i, e.into()))?;
            engine.check(&query).map_err(|e| (i, e))?;
            parsed.push(query);
        }
        Ok(QuerySet {
            engine,
            queries: queries.iter().map(|q| q.to_string()).collect(),
            plan: plan_groups(&parsed)?,
        })
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The original query strings.
    pub fn texts(&self) -> impl Iterator<Item = &str> {
        self.queries.iter().map(String::as_str)
    }

    /// Number of runner groups after prefix sharing (≤ [`Self::len`]).
    pub fn group_count(&self) -> usize {
        self.plan.len()
    }

    /// The compiled automaton of every group, in group order — what
    /// `xsq --queries FILE --dump` prints.
    pub fn hpdts(&self) -> impl Iterator<Item = &crate::build::Hpdt> {
        self.plan.iter().map(|g| &*g.hpdt)
    }

    /// The engine variant the set compiled for.
    pub(crate) fn engine(&self) -> XsqEngine {
        self.engine
    }

    /// The compiled prefix-sharing groups; members index into
    /// [`Self::texts`].
    pub(crate) fn groups(&self) -> &[QueryGroup] {
        &self.plan
    }

    /// Start a run: fresh runtime state over the precompiled
    /// prefix-sharing plan, with dispatch-indexed event routing.
    pub fn index(&self) -> QueryIndex {
        let mut index = QueryIndex::new(self.engine);
        index.subscribe_set(self);
        index
    }

    /// Evaluate the whole set over one document in a single pass,
    /// collecting per-query result vectors.
    pub fn run_document(&self, document: &[u8]) -> Result<Vec<Vec<String>>, EngineError> {
        self.run_reader(document)
    }

    /// Single-pass evaluation over any reader, through the query index.
    pub fn run_reader<R: BufRead>(&self, reader: R) -> Result<Vec<Vec<String>>, EngineError> {
        let mut index = self.index();
        let mut sink = VecQuerySink::new();
        index.run_reader(reader, &mut sink)?;
        let mut per_query: Vec<Vec<String>> = (0..self.len()).map(|_| Vec::new()).collect();
        for (id, value) in sink.results {
            per_query[id.0 as usize].push(value);
        }
        Ok(per_query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &[u8] = br#"<pub>
        <book id="1"><name>First</name><author>A</author><price>10</price></book>
        <book id="2"><name>Second</name><price>14</price></book>
        <year>2002</year>
    </pub>"#;

    #[test]
    fn one_pass_many_queries() {
        let set = QuerySet::compile(
            XsqEngine::full(),
            &[
                "//book[author]/name/text()",
                "//book/@id",
                "//price/sum()",
                "/pub[year=2002]/book/name/text()",
            ],
        )
        .unwrap();
        assert_eq!(set.len(), 4);
        let results = set.run_document(DOC).unwrap();
        assert_eq!(results[0], ["First"]);
        assert_eq!(results[1], ["1", "2"]);
        assert_eq!(results[2], ["24"]);
        assert_eq!(results[3], ["First", "Second"]);
    }

    #[test]
    fn multi_matches_individual_runs() {
        let queries = [
            "//book[price<11]/name/text()",
            "//book//name",
            "//book/count()",
        ];
        let set = QuerySet::compile(XsqEngine::full(), &queries).unwrap();
        let multi = set.run_document(DOC).unwrap();
        for (i, q) in queries.iter().enumerate() {
            let single = crate::engine::evaluate(q, DOC).unwrap();
            assert_eq!(multi[i], single, "multi vs single on {q}");
        }
    }

    #[test]
    fn grouped_path_shares_prefixes() {
        let set = QuerySet::compile(
            XsqEngine::full(),
            &[
                "/pub/book/name/text()",
                "/pub/book/price/text()",
                "/pub/year/text()",
            ],
        )
        .unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(set.group_count(), 1);
        let results = set.run_document(DOC).unwrap();
        assert_eq!(results[0], ["First", "Second"]);
        assert_eq!(results[1], ["10", "14"]);
        assert_eq!(results[2], ["2002"]);
    }

    #[test]
    fn bad_query_is_reported_with_its_index() {
        let err = QuerySet::compile(XsqEngine::full(), &["/a/b", "/a[", "/c"]).unwrap_err();
        assert_eq!(err.0, 1);
    }

    #[test]
    fn an_unsupported_query_is_reported_with_its_index() {
        let batch = ["/a/b/text()", "/a/c/text()", "/a/b[last()]/text()"];
        let err = QuerySet::compile(XsqEngine::full(), &batch).unwrap_err();
        assert_eq!(err.0, 2);
        assert!(err.1.to_string().contains("last()"), "{}", err.1);
    }

    #[test]
    fn query_lines_skips_blanks_and_comments() {
        assert_eq!(query_lines(" /a \n\n# note\n//b\r\n"), ["/a", "//b"]);
        assert!(query_lines("# only\n  \n").is_empty());
    }

    #[test]
    fn nc_engine_rejects_closure_queries_in_the_set() {
        let err = QuerySet::compile(XsqEngine::no_closure(), &["/a/b", "//c"]).unwrap_err();
        assert_eq!(err.0, 1);
        assert!(matches!(err.1, CompileError::Unsupported { .. }));
    }

    #[test]
    fn empty_set_is_fine() {
        let set = QuerySet::compile(XsqEngine::full(), &[]).unwrap();
        assert!(set.is_empty());
        assert!(set.run_document(DOC).unwrap().is_empty());
    }

    #[test]
    fn texts_roundtrip() {
        let set = QuerySet::compile(XsqEngine::full(), &["/a/b", "//c"]).unwrap();
        let texts: Vec<&str> = set.texts().collect();
        assert_eq!(texts, ["/a/b", "//c"]);
    }
}
