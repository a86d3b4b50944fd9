//! Cross-connection compiled-plan cache.
//!
//! Standing-query serving is templated in practice: thousands of
//! subscribers ask for the *same* batch of queries (a stock ticker, a
//! feed filter), and the server used to recompile the whole batch —
//! parse, HPDT build, merge, verify, prune, bound analysis — once per
//! connection. [`PlanCache`] compiles a batch **once per distinct
//! (engine mode, batch text)** and hands out a shared
//! [`CachedPlan`]: the compiled [`QuerySet`] (each group an
//! `Arc<Hpdt>`) plus the per-query static memory bounds, read off those
//! same groups. Subscribing a cached set into a [`QueryIndex`] is pure
//! runtime-state instantiation — no compilation at all — via
//! [`QueryIndex::subscribe_set`], the same call every other holder of
//! a `QuerySet` makes, so the artifact that was bounded at admission
//! is the artifact that runs.
//!
//! [`QueryIndex`]: crate::qindex::QueryIndex
//! [`QueryIndex::subscribe_set`]: crate::qindex::QueryIndex::subscribe_set
//!
//! A plan lives exactly as long as someone holds its `Arc`: the cache
//! keeps only a `Weak`, so the holders (the server keeps a batch's `Arc`
//! until its last member unsubscribes or the session drops) are the
//! whole lifetime protocol, and a burst of one-off queries cannot grow
//! the cache without bound.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, Weak};

use xsq_xml::dtd::Dtd;

use crate::analyze::{analyze_bounds, MemoryBound};
use crate::engine::{XsqEngine, XsqMode};
use crate::error::CompileError;
use crate::multi::QuerySet;

/// One cached batch: the compiled [`QuerySet`] and each query's static
/// memory bound (derived against the cache's DTD, if any). Immutable
/// and shared — every subscriber of the same batch holds the same `Arc`.
#[derive(Debug)]
pub struct CachedPlan {
    key: String,
    set: QuerySet,
    bounds: Vec<MemoryBound>,
}

impl CachedPlan {
    /// The cache key this plan is filed under: engine mode and batch
    /// text, so equal keys mean the same plan.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The compiled batch.
    pub fn set(&self) -> &QuerySet {
        &self.set
    }

    /// Per-query static memory bounds, in input order.
    pub fn bounds(&self) -> &[MemoryBound] {
        &self.bounds
    }
}

#[derive(Default)]
struct Inner {
    entries: HashMap<String, Weak<CachedPlan>>,
    hits: u64,
    misses: u64,
}

impl Inner {
    fn get(&self, key: &str) -> Option<Arc<CachedPlan>> {
        self.entries.get(key).and_then(Weak::upgrade)
    }

    /// Forget the plans nobody holds any more.
    fn sweep(&mut self) {
        self.entries.retain(|_, plan| plan.strong_count() > 0);
    }
}

/// Cache observability counters (surfaced through STAT).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Live entries (batches with at least one subscriber).
    pub entries: usize,
    /// Checkouts served from an existing entry.
    pub hits: u64,
    /// Checkouts that had to compile.
    pub misses: u64,
}

/// A keyed compiled-plan cache, shared across every connection of one
/// server, or private to one bare session.
pub struct PlanCache {
    /// Bounds are schema-dependent; the cache is built with the same
    /// DTD the server's admission policy uses, so cached bounds are
    /// exactly what the uncached path would have computed.
    dtd: Option<Arc<Dtd>>,
    inner: Mutex<Inner>,
}

impl PlanCache {
    pub fn new(dtd: Option<Arc<Dtd>>) -> Arc<PlanCache> {
        Arc::new(PlanCache {
            dtd,
            inner: Mutex::new(Inner::default()),
        })
    }

    fn cache_key(mode: XsqMode, queries: &[&str]) -> String {
        let mut key = String::from(match mode {
            XsqMode::Full => "f",
            XsqMode::NoClosure => "nc",
        });
        for q in queries {
            key.push('\n');
            key.push_str(q);
        }
        key
    }

    /// Fetch (or compile) the plan for a batch. The entry stays live
    /// while any returned `Arc` does. A miss compiles through
    /// [`QuerySet::compile`], whose error names the offending query
    /// index; a failed checkout caches nothing.
    pub fn checkout(
        &self,
        engine: XsqEngine,
        queries: &[&str],
    ) -> Result<Arc<CachedPlan>, (usize, CompileError)> {
        let key = Self::cache_key(engine.mode(), queries);
        {
            let mut inner = self.inner.lock().unwrap();
            if let Some(plan) = inner.get(&key) {
                inner.hits += 1;
                return Ok(plan);
            }
        }
        // Compile outside the lock: a slow build must not stall every
        // other connection's checkout. Two racing misses both compile;
        // the loser's work is discarded below.
        let set = QuerySet::compile(engine, queries)?;
        let bounds = self.bounds(&set);
        let plan = Arc::new(CachedPlan { key, set, bounds });
        let mut inner = self.inner.lock().unwrap();
        inner.misses += 1;
        if let Some(winner) = inner.get(&plan.key) {
            return Ok(winner);
        }
        inner.sweep();
        inner
            .entries
            .insert(plan.key.clone(), Arc::downgrade(&plan));
        Ok(plan)
    }

    pub fn stats(&self) -> PlanCacheStats {
        let mut inner = self.inner.lock().unwrap();
        inner.sweep();
        PlanCacheStats {
            entries: inner.entries.len(),
            hits: inner.hits,
            misses: inner.misses,
        }
    }

    /// Each query's static bound against the cache's DTD, read off the
    /// group that runs it: the parsed query and whether that member can
    /// enqueue both come from the group's HPDT. The cache's own work —
    /// plain subscriptions never pay for it.
    fn bounds(&self, set: &QuerySet) -> Vec<MemoryBound> {
        let mut bounds = vec![MemoryBound::Zero; set.len()];
        for group in set.groups() {
            let buffered = group.hpdt.buffered_members();
            for (tag, &member) in group.members.iter().enumerate() {
                let query = &group.hpdt.merged[tag];
                bounds[member] = analyze_bounds(query, buffered[tag], self.dtd.as_deref()).bound;
            }
        }
        bounds
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("PlanCache")
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qindex::{QueryIndex, VecQuerySink};

    const DOC: &[u8] = b"<pub><book id=\"1\"><name>First</name><author>A</author>\
                         <price>10</price></book><year>2002</year></pub>";

    #[test]
    fn identical_batches_share_one_compiled_plan() {
        let cache = PlanCache::new(None);
        let batch = ["/pub/book/name/text()", "/pub/year/text()"];
        let a = cache.checkout(XsqEngine::full(), &batch).unwrap();
        let b = cache.checkout(XsqEngine::full(), &batch).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second checkout must hit");
        assert_eq!(a.set().group_count(), 1);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (1, 1, 1));
    }

    #[test]
    fn a_cached_set_subscribes_like_subscribe_group() {
        let cache = PlanCache::new(None);
        let batch = [
            "/pub/book/name/text()",
            "/pub/book/@id",
            "/pub/year/text()",
            "//price/sum()",
        ];
        let plan = cache.checkout(XsqEngine::full(), &batch).unwrap();

        let mut cached = QueryIndex::new(XsqEngine::full());
        let cached_ids = cached.subscribe_set(plan.set());
        let mut direct = QueryIndex::new(XsqEngine::full());
        let direct_ids = direct.subscribe_group(&batch).unwrap();
        assert_eq!(cached_ids, direct_ids);
        assert_eq!(cached.group_count(), direct.group_count());

        let mut got = VecQuerySink::new();
        cached.run_document(DOC, &mut got).unwrap();
        let mut want = VecQuerySink::new();
        direct.run_document(DOC, &mut want).unwrap();
        assert_eq!(got.results, want.results);
        assert_eq!(got.updates, want.updates);
    }

    #[test]
    fn a_plan_lives_as_long_as_someone_holds_it() {
        let cache = PlanCache::new(None);
        let batch = ["/a/b/text()"];
        let a = cache.checkout(XsqEngine::full(), &batch).unwrap();
        let b = cache.checkout(XsqEngine::full(), &batch).unwrap();
        drop(a);
        assert_eq!(cache.stats().entries, 1, "one holder still live");
        drop(b);
        assert_eq!(cache.stats().entries, 0, "the last holder evicts");
        // Re-checkout after eviction recompiles into a fresh entry.
        let _c = cache.checkout(XsqEngine::full(), &batch).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (1, 1, 2));
    }

    #[test]
    fn distinct_modes_get_distinct_entries() {
        let cache = PlanCache::new(None);
        let batch = ["/a/b/text()"];
        let f = cache.checkout(XsqEngine::full(), &batch).unwrap();
        let nc = cache.checkout(XsqEngine::no_closure(), &batch).unwrap();
        assert!(!Arc::ptr_eq(&f, &nc));
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn errors_attribute_the_offending_query_and_cache_nothing() {
        let cache = PlanCache::new(None);
        let (i, _) = cache
            .checkout(XsqEngine::full(), &["/a/b/text()", "/a["])
            .unwrap_err();
        assert_eq!(i, 1);
        let (i, e) = cache
            .checkout(XsqEngine::no_closure(), &["/a/text()", "//b/text()"])
            .unwrap_err();
        assert_eq!(i, 1);
        assert!(matches!(e, CompileError::Unsupported { .. }));
        // An unsupported construct deep in a merged group is still blamed
        // on the query that carries it, not on the group's first member.
        let batch = ["/a/b/text()", "/a/c/text()", "/a/b[position()=2]/text()"];
        let (i, e) = cache.checkout(XsqEngine::full(), &batch).unwrap_err();
        assert_eq!(i, 2);
        assert!(e.to_string().contains("position()"), "{e}");
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn cached_bounds_match_the_uncached_analysis() {
        let dtd = Arc::new(
            Dtd::parse(
                "<!ELEMENT dblp ((article | inproceedings)*)>\
                 <!ELEMENT article (author*, title, year, pages)>\
                 <!ELEMENT inproceedings (author*, title, year, pages, booktitle?)>\
                 <!ELEMENT author (#PCDATA)> <!ELEMENT title (#PCDATA)>\
                 <!ELEMENT year (#PCDATA)> <!ELEMENT pages (#PCDATA)>\
                 <!ELEMENT booktitle (#PCDATA)>",
            )
            .unwrap(),
        );
        let cache = PlanCache::new(Some(Arc::clone(&dtd)));
        let batch = [
            "/a/b/text()",
            "/dblp/inproceedings[author]/title/text()",
            "/dblp/inproceedings[booktitle]/author/text()",
        ];
        let plan = cache.checkout(XsqEngine::full(), &batch).unwrap();
        let direct: Vec<MemoryBound> = batch
            .iter()
            .map(|q| {
                XsqEngine::full()
                    .compile_str_with_dtd(q, Some(&dtd))
                    .unwrap()
                    .bound()
                    .clone()
            })
            .collect();
        assert_eq!(plan.bounds(), &direct[..]);
    }
}
