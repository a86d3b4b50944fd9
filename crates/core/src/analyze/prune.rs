//! Reachability + dead-arc elimination over a compiled HPDT.
//!
//! Three behavior-preserving reductions, applied in order:
//!
//! 1. **Unsatisfiable-guard arcs** are deleted. XPath 1.0 relational
//!    comparisons are always numeric, so a guard like `@price < "abc"`
//!    (NaN right-hand side) rejects every event; the arc can never fire.
//! 2. **Exact duplicate arcs with no actions** are deduplicated. Firing
//!    N identical action-free arcs derives N identical successor
//!    configurations that the runtime dedups anyway — one arc suffices.
//!    The merged builder's per-child closure self-loops on a shared state
//!    are the usual case; to the runtime those are already one stays bit
//!    (a bit-OR, `compute_stays`), so folding them only keeps dumps and
//!    analyses small. (Duplicates *with* actions are kept: collapsing
//!    them would drop repeated effects.)
//! 3. **States unreachable from the start state** are removed, with
//!    state ids remapped and the queue slots re-densified over the
//!    buffers still referenced.
//!
//! The result is a smaller configuration set for the nondeterministic
//! runtime to scan and smaller dispatch buckets in the multi-query index.

use crate::arcs::{
    compute_arc_tables, compute_stays, Action, AnyDepthArcs, Arc, Disposition, QueueRef, StateId,
};
use crate::build::{compute_scan_all, uses_buffers, Hpdt};

use super::{comparison_unsatisfiable, prove_deterministic};

/// Before/after sizes of one pruning pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneStats {
    pub states_before: usize,
    pub states_after: usize,
    pub arcs_before: usize,
    pub arcs_after: usize,
}

impl PruneStats {
    /// Did the pass remove anything?
    pub fn changed(&self) -> bool {
        self.states_before != self.states_after || self.arcs_before != self.arcs_after
    }
}

/// Is the arc's guard statically unsatisfiable?
fn guard_unsatisfiable(arc: &Arc) -> bool {
    use crate::arcs::Guard;
    match &arc.guard {
        Some(Guard::Attr { cmp: Some(c), .. }) | Some(Guard::Text { cmp: Some(c) }) => {
            comparison_unsatisfiable(c)
        }
        _ => false,
    }
}

/// Every queue an arc addresses: its owner's, and its actions' upload
/// and enqueue targets.
fn queue_refs(arc: &mut Arc) -> impl Iterator<Item = &mut QueueRef> {
    let targets = arc.actions.iter_mut().filter_map(|action| match action {
        Action::UploadSelf(q)
        | Action::ResolveKeyed(Some(q))
        | Action::Emit {
            to: Disposition::Queue(q),
            ..
        }
        | Action::ElementStart {
            to: Disposition::Queue(q),
            ..
        } => Some(q),
        _ => None,
    });
    std::iter::once(&mut arc.owner).chain(targets)
}

/// Prune one compiled HPDT, returning the reduced transducer and the
/// before/after sizes. Pruning is the identity on transducers with no
/// dead structure — the common case for well-formed queries.
pub fn prune(hpdt: &Hpdt) -> (Hpdt, PruneStats) {
    let states_before = hpdt.states.len();
    let arcs_before = hpdt.arc_count();

    // Step 1 + 2: per-state arc filtering (dead guards, exact duplicates
    // of action-free arcs already kept for this state).
    let mut kept_arcs: Vec<Vec<Arc>> = hpdt
        .arcs
        .iter()
        .map(|outgoing| {
            let mut kept: Vec<Arc> = Vec::with_capacity(outgoing.len());
            for arc in outgoing {
                if guard_unsatisfiable(arc) {
                    continue;
                }
                // Owner is ignored for action-free arcs: it only addresses
                // queues, which only actions touch. The merged builder's
                // per-query closure self-loops differ in nothing else.
                if arc.actions.is_empty()
                    && kept.iter().any(|k| {
                        k.actions.is_empty()
                            && k.label == arc.label
                            && k.guard == arc.guard
                            && k.target == arc.target
                    })
                {
                    continue;
                }
                kept.push(arc.clone());
            }
            kept
        })
        .collect();

    // Step 3: reachability over the reduced arc set, then remap.
    let n = hpdt.states.len();
    let mut reachable = vec![false; n];
    let mut stack = vec![hpdt.start as usize];
    reachable[hpdt.start as usize] = true;
    while let Some(s) = stack.pop() {
        for arc in &kept_arcs[s] {
            let t = arc.target as usize;
            if t < n && !reachable[t] {
                reachable[t] = true;
                stack.push(t);
            }
        }
    }

    let mut remap: Vec<Option<StateId>> = vec![None; n];
    let mut states = Vec::new();
    for s in 0..n {
        if reachable[s] {
            remap[s] = Some(states.len() as StateId);
            states.push(hpdt.states[s].clone());
        }
    }
    // The one pass that rewrites every surviving arc: retarget it, and
    // note which queues are still addressed — arc owners (the runtime
    // resolves every acting arc's own queue), upload targets and enqueue
    // destinations, plus the root, which anchors the id tree.
    let mut used = vec![false; hpdt.queues.len()];
    if let Some(root) = used.first_mut() {
        *root = true;
    }
    let mut arcs: Vec<Vec<Arc>> = Vec::with_capacity(states.len());
    for s in 0..n {
        if !reachable[s] {
            continue;
        }
        let mut outgoing = std::mem::take(&mut kept_arcs[s]);
        for arc in &mut outgoing {
            arc.target = remap[arc.target as usize].expect("kept arcs target reachable states");
            for q in queue_refs(arc) {
                used[q.slot as usize] = true;
            }
        }
        arcs.push(outgoing);
    }

    // Re-densify the slots, keeping their order (a single-query HPDT
    // keeps its layer-major queue layout). Arcs are only touched again
    // when a queue actually went away.
    let mut queues = hpdt.queues.clone();
    if used.contains(&false) {
        let mut slot_of = vec![0u32; used.len()];
        let mut next = 0;
        for (old, &u) in used.iter().enumerate() {
            slot_of[old] = next;
            next += u as u32;
        }
        let mut keep = used.iter();
        queues.retain(|_| *keep.next().expect("one flag per queue"));
        for arc in arcs.iter_mut().flatten() {
            for q in queue_refs(arc) {
                q.slot = slot_of[q.slot as usize];
            }
        }
    }

    let start = remap[hpdt.start as usize].expect("start state is always reachable");
    let mut pruned = Hpdt {
        bpdt_count: queues.len(),
        start,
        scan_all: compute_scan_all(&arcs),
        stays: compute_stays(&arcs),
        arc_tables: compute_arc_tables(&arcs),
        any_depth: AnyDepthArcs::new(&arcs),
        buffered: uses_buffers(&arcs),
        states,
        arcs,
        queues,
        layers: hpdt.layers,
        deterministic: hpdt.deterministic,
        query: hpdt.query.clone(),
        merged: hpdt.merged.clone(),
        keyed: hpdt.keyed.clone(),
        leaf_tags: hpdt.leaf_tags.clone(),
    };
    // Pruning can delete every closure arc of a query that textually
    // uses `//` (an unsatisfiable guard upstream of the closure); the
    // artifact is then deterministic even though the query is not.
    pruned.deterministic = pruned.deterministic || prove_deterministic(&pruned);

    let stats = PruneStats {
        states_before,
        states_after: pruned.states.len(),
        arcs_before,
        arcs_after: pruned.arc_count(),
    };
    (pruned, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_hpdt, build_merged_hpdt};
    use xsq_xpath::parse_query;

    fn built(q: &str) -> Hpdt {
        build_hpdt(&parse_query(q).unwrap()).unwrap()
    }

    #[test]
    fn pruning_clean_queries_is_identity() {
        for q in [
            "/a/b/text()",
            "/pub[year=2002]/book[price<11]/author",
            "//pub[year>2000]//book[author]//name/text()",
            "/a[@id]/b/text()",
            "//b/count()",
        ] {
            let h = built(q);
            let (p, stats) = prune(&h);
            assert!(!stats.changed(), "{q}: {stats:?}");
            assert_eq!(p.states.len(), h.states.len());
            assert_eq!(p.arc_count(), h.arc_count());
            assert_eq!(p.bpdt_count, h.bpdt_count);
            assert_eq!(p.queues, h.queues);
            assert_eq!(p.scan_all, h.scan_all);
            assert_eq!(p.buffered, h.buffered);
        }
    }

    #[test]
    fn unsatisfiable_attr_guard_prunes_the_subtree() {
        // `@sev > "critical"` is numeric-vs-NaN: never true. The guarded
        // entry arc dies, and everything below the step with it.
        let h = built("/feed/t[@sev>critical]/f/text()");
        let (p, stats) = prune(&h);
        assert!(stats.changed());
        assert!(stats.states_after < stats.states_before, "{stats:?}");
        // The surviving transducer still verifies clean.
        let diags = crate::analyze::verify(&p);
        assert!(!crate::analyze::has_errors(&diags), "{diags:?}");
    }

    #[test]
    fn unsatisfiable_text_guard_prunes_witness_states() {
        let h = built("/a[b<xyz]/c/text()");
        let (p, stats) = prune(&h);
        assert!(stats.states_after < stats.states_before, "{stats:?}");
        let diags = crate::analyze::verify(&p);
        assert!(!crate::analyze::has_errors(&diags), "{diags:?}");
    }

    #[test]
    fn duplicate_closure_self_loops_are_deduplicated() {
        // Two closure queries share the /feed prefix; each adds its own
        // self-loop on the shared TRUE state.
        let queries: Vec<_> = ["/feed//a/text()", "/feed//b/text()"]
            .iter()
            .map(|q| parse_query(q).unwrap())
            .collect();
        let h = build_merged_hpdt(&queries).unwrap();
        let dup_loops = h
            .arcs
            .iter()
            .map(|arcs| {
                arcs.iter()
                    .filter(|a| a.label == crate::arcs::ArcLabel::ClosureSelfLoop)
                    .count()
            })
            .max()
            .unwrap();
        assert!(
            dup_loops >= 2,
            "expected duplicated self-loops, got {dup_loops}"
        );
        let (p, stats) = prune(&h);
        let max_loops = p
            .arcs
            .iter()
            .map(|arcs| {
                arcs.iter()
                    .filter(|a| a.label == crate::arcs::ArcLabel::ClosureSelfLoop)
                    .count()
            })
            .max()
            .unwrap();
        assert_eq!(max_loops, 1);
        assert!(stats.arcs_after < stats.arcs_before);
    }

    #[test]
    fn fully_pruned_closure_becomes_deterministic() {
        // The closure lives below an unsatisfiable guard: pruning deletes
        // it, and the artifact is provably deterministic even though the
        // query text says `//`.
        let h = built("/a[@x>nope]//b/text()");
        assert!(!h.deterministic);
        let (p, _) = prune(&h);
        assert!(p.deterministic);
        assert!(prove_deterministic(&p));
    }
}
