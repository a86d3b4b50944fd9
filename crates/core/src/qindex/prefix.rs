//! Prefix-sharing group planner.
//!
//! Standing query sets are usually templated — hundreds of subscriptions
//! differing only in a trailing step or predicate constant. Compiling
//! each one to a private HPDT repeats the shared prefix N times: N
//! copies of the same BPDT chain, N buffer queues holding the same
//! items, N arcs scanned per event. [`plan_groups`] instead partitions
//! the set so queries whose first step has the same axis and node test
//! compile into one merged HPDT (see [`crate::build::build_merged_hpdt`]):
//! the trie underneath shares every common step prefix, fanning out only
//! at the divergence point — a differing predicate, at the first step as
//! at any other — and tags each query's leaves so results stay
//! attributed. Siblings that differ in nothing but the literal of an `=`
//! comparison do not even fan out: the first such family on a path is
//! one *keyed* step — one BPDT, one hash probe on the witnessed value,
//! one buffered copy — whatever the number of literals.
//!
//! Element-output queries get singleton groups — their catchall
//! serialization machinery assumes sole ownership of a config's item
//! slot, so they never merge (and lose nothing: sharing only pays when
//! a prefix repeats).

use std::sync::Arc;

use xsq_xpath::{Output, Query};

use crate::build::{build_hpdt, build_merged_hpdt, Hpdt};
use crate::error::CompileError;

/// One compiled group: a (possibly merged) HPDT plus the indices of the
/// queries it answers, in tag order — `members[t]` is the original
/// index of the query whose results carry tag `t`.
#[derive(Debug, Clone)]
pub struct QueryGroup {
    pub hpdt: Arc<Hpdt>,
    pub members: Vec<usize>,
}

/// Partition `queries` into prefix-sharing groups and compile each.
///
/// Grouping is by the first location step's axis and node test — what
/// the dispatch index can tell apart. Queries that disagree there wake
/// on different events, and separate groups keep the buckets
/// fine-grained; queries that agree wake on the same events whatever
/// their predicates say, so N subscriptions differing in a predicate
/// constant are one group (one dispatch touch; one trie root per distinct
/// predicate, except that roots differing only in an `=` literal are one
/// keyed root) rather than N. Group order follows first appearance, and
/// members keep their input order inside a group, so result attribution
/// is stable across runs. A failure names the offending query by its
/// index in `queries`.
pub fn plan_groups(queries: &[Query]) -> Result<Vec<QueryGroup>, (usize, CompileError)> {
    // (representative of the first step, member indices) in first-seen
    // order.
    let mut buckets: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut singles: Vec<usize> = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        if q.output == Output::Element || q.is_empty() {
            singles.push(i);
            continue;
        }
        let first = &q.steps[0];
        match buckets.iter_mut().find(|(rep, _)| {
            let rep = &queries[*rep].steps[0];
            rep.axis == first.axis && rep.test == first.test
        }) {
            Some((_, members)) => members.push(i),
            None => buckets.push((i, vec![i])),
        }
    }

    let mut groups = Vec::with_capacity(buckets.len() + singles.len());
    for members in buckets
        .into_iter()
        .map(|(_, members)| members)
        .chain(singles.into_iter().map(|i| vec![i]))
    {
        let built = if members.len() == 1 {
            // A lone query compiles on the classic single-query path,
            // bit-identical to what `XsqEngine::compile` produces.
            build_hpdt(&queries[members[0]])
        } else {
            let group: Vec<Query> = members.iter().map(|&i| queries[i].clone()).collect();
            build_merged_hpdt(&group)
        };
        match built.and_then(crate::analyze::checked) {
            Ok(hpdt) => groups.push(QueryGroup {
                hpdt: Arc::new(hpdt),
                members,
            }),
            Err(e) => return Err(blame(queries, &members, e)),
        }
    }
    Ok(groups)
}

/// Attribute a group's build failure to one member: the first that does
/// not build alone, with its own error (an unsupported step names that
/// query's step). A failure only the merge exhibits — the state ceiling
/// — falls to the group's first member. Runs on the error path only.
fn blame(queries: &[Query], members: &[usize], error: CompileError) -> (usize, CompileError) {
    members
        .iter()
        .find_map(|&i| build_hpdt(&queries[i]).err().map(|e| (i, e)))
        .unwrap_or((members[0], error))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsq_xpath::parse_query;

    fn queries(texts: &[&str]) -> Vec<Query> {
        texts.iter().map(|t| parse_query(t).unwrap()).collect()
    }

    #[test]
    fn shared_first_step_merges_into_one_group() {
        let qs = queries(&["/a/b/text()", "/a/c/text()", "/a/b/@id"]);
        let groups = plan_groups(&qs).unwrap();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members, [0, 1, 2]);
        assert_eq!(groups[0].hpdt.merged.len(), 3);
    }

    #[test]
    fn distinct_first_steps_stay_separate() {
        let qs = queries(&["/a/b/text()", "/x/y/text()"]);
        let groups = plan_groups(&qs).unwrap();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].members, [0]);
        assert_eq!(groups[1].members, [1]);
    }

    #[test]
    fn predicate_differences_on_step_one_share_a_group() {
        use crate::runtime::RunnerCore;
        use crate::sink::TaggedVecSink;
        let texts = ["/a[b]/c/text()", "/a/c/text()"];
        let groups = plan_groups(&queries(&texts)).unwrap();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members, [0, 1]);
        // Same name, other axis: woken by other events, so another group.
        assert_eq!(
            plan_groups(&queries(&["/a/c/text()", "//a/c/text()"]))
                .unwrap()
                .len(),
            2
        );

        let doc = b"<r><a><c>1</c><b/><c>2</c></a><a><c>3</c></a></r>";
        let hpdt = &groups[0].hpdt;
        let mut core = RunnerCore::new(hpdt);
        let mut sink = TaggedVecSink::new();
        for e in xsq_xml::parse_to_events(doc).unwrap() {
            core.feed_raw(hpdt, &e.as_raw(), &mut sink);
        }
        core.finish(&mut sink);
        for (tag, q) in texts.iter().enumerate() {
            let solo = crate::engine::evaluate(q, doc).unwrap();
            assert_eq!(sink.of(tag as u32), solo, "{q}");
        }
    }

    #[test]
    fn element_output_queries_get_singleton_groups() {
        let qs = queries(&["/a/b", "/a/b/text()", "/a/c"]);
        let groups = plan_groups(&qs).unwrap();
        // text() query groups alone (nothing shares its category), the
        // two element queries each stand alone at the end.
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].members, [1]);
        assert_eq!(groups[1].members, [0]);
        assert_eq!(groups[2].members, [2]);
    }

    #[test]
    fn a_build_failure_names_the_offending_member() {
        // Query 2 shares a first step with 0 and 1, so the failure
        // surfaces from the merged build; query 3 fails alone.
        let qs = queries(&["/a/b/text()", "/a/c/text()", "/a/b[position()=2]/text()"]);
        let (i, e) = plan_groups(&qs).unwrap_err();
        assert_eq!(i, 2);
        assert!(e.to_string().contains("position()"), "{e}");
        let qs = queries(&["/a/b/text()", "/x/y/text()", "/z/preceding-sibling::w"]);
        assert_eq!(plan_groups(&qs).unwrap_err().0, 2);
    }

    #[test]
    fn lone_member_compiles_on_the_single_query_path() {
        let qs = queries(&["/a/b/text()"]);
        let groups = plan_groups(&qs).unwrap();
        let direct = build_hpdt(&qs[0]).unwrap();
        assert_eq!(groups[0].hpdt.states.len(), direct.states.len());
        assert_eq!(groups[0].hpdt.bpdt_count, direct.bpdt_count);
    }
}
