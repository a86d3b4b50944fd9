//! The inverted dispatch index: event name → interested runners.
//!
//! Stepping every query's HPDT on every event makes the
//! per-event cost O(N queries) even when almost no query cares about
//! the element name — the exact failure mode Koch et al.'s schema-based
//! scheduling work identifies for structured-stream engines at scale.
//! This index inverts the question: for each (event kind, element name)
//! it keeps the set of runner groups whose *current* frontier states
//! have an arc that could accept such an event. A `Begin`/`End`/`Text`
//! event then touches only the groups in its bucket (plus the wildcard
//! bucket for `*` tests and catchalls), instead of all N. A `//`
//! self-loop registers no interest: it is not a transition (a closure
//! state that descends past a begin event does not move — see
//! [`crate::runtime`]), so a closure group is dispatched on the tags of
//! its entry arcs, not on every begin event.
//!
//! Names are the global [`xsq_xml::Sym`] symbols the parser already interned, so
//! the per-event lookup is a dense `Vec` index — no hashing, no string
//! comparison. The index is maintained incrementally: a runner's
//! interest only changes when one of its arcs fires (the only way its
//! configuration set moves), so the common skipped event costs one array
//! index total.
//! Interest is a deliberate *over*-approximation — it ignores the depth
//! discipline and guards that [`crate::arcs::Arc::label_matches`]
//! enforces — so a dispatched group may still match nothing; skipping a
//! group is safe precisely because a no-match feed is a no-op.
//!
//! All structures are sorted `Vec`s, not tree sets: bucket membership
//! changes are rare (and absent entirely for static-interest groups, see
//! [`super::subscribe`]), while candidate collection runs per event — so
//! the per-event path is dense sequential reads with no node chasing,
//! and a reindex reuses the index's scratch key buffer instead of
//! building fresh sets.

use xsq_xml::RawEvent;

use crate::arcs::{event_key, ArcLabel, NamePat, StateId, KIND_BEGIN, KIND_END, KIND_TEXT};
use crate::build::Hpdt;

fn key_parts(k: u64) -> (usize, usize) {
    ((k >> 32) as usize, (k & u32::MAX as u64) as usize)
}

fn insert_sorted(v: &mut Vec<u32>, x: u32) {
    if let Err(i) = v.binary_search(&x) {
        v.insert(i, x);
    }
}

fn remove_sorted(v: &mut Vec<u32>, x: u32) {
    if let Ok(i) = v.binary_search(&x) {
        v.remove(i);
    }
}

/// What events one HPDT state could react to, precomputed from its arcs.
#[derive(Debug, Clone, Default)]
pub(crate) struct StateInterest {
    keys: Vec<u64>,
    wild: [bool; 3],
}

/// A runner group's currently registered interest (union over its
/// frontier states). `keys` is sorted and deduplicated.
#[derive(Debug, Clone, Default)]
pub(crate) struct GroupInterest {
    keys: Vec<u64>,
    wild: [bool; 3],
}

impl GroupInterest {
    /// Number of named (kind, tag) keys registered.
    pub(crate) fn named_keys(&self) -> usize {
        self.keys.len()
    }
}

/// The inverted index over all registered groups. Buckets are sorted
/// group-id vectors.
#[derive(Debug, Default)]
pub struct DispatchIndex {
    /// Interested groups per symbol, indexed by [`Sym::index`]; one list
    /// per event kind. Grown on demand as arcs mention new names.
    by_sym: Vec<[Vec<u32>; 3]>,
    wildcard: [Vec<u32>; 3],
    /// Every registered group: document brackets go to all of them, and
    /// candidate iteration for unnamed events starts here.
    all: Vec<u32>,
    /// Reusable key buffer for reindex diffs.
    scratch_keys: Vec<u64>,
}

impl DispatchIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of named buckets currently populated (diagnostics).
    pub fn named_buckets(&self) -> usize {
        self.by_sym
            .iter()
            .flat_map(|kinds| kinds.iter())
            .filter(|s| !s.is_empty())
            .count()
    }

    fn bucket_mut(&mut self, sym_index: usize, kind: usize) -> &mut Vec<u32> {
        if self.by_sym.len() <= sym_index {
            self.by_sym.resize_with(sym_index + 1, Default::default);
        }
        &mut self.by_sym[sym_index][kind]
    }

    /// Compute one state's interest from its outgoing arcs.
    fn state_interest(hpdt: &Hpdt, state: StateId) -> StateInterest {
        let mut si = StateInterest::default();
        for arc in &hpdt.arcs[state as usize] {
            match &arc.label {
                // Document brackets reach every group unconditionally.
                ArcLabel::StartDoc | ArcLabel::EndDoc => {}
                ArcLabel::BeginChild(pat) | ArcLabel::BeginAnyDepth(pat) => match pat {
                    NamePat::Name(n) => si.keys.push(event_key(KIND_BEGIN, *n)),
                    NamePat::Any => si.wild[KIND_BEGIN as usize] = true,
                },
                // The stays bit, not a transition: nothing to wake for.
                ArcLabel::ClosureSelfLoop => {}
                ArcLabel::End(pat) => match pat {
                    NamePat::Name(n) => si.keys.push(event_key(KIND_END, *n)),
                    NamePat::Any => si.wild[KIND_END as usize] = true,
                },
                ArcLabel::TextSelf(pat) | ArcLabel::TextChild(pat) => match pat {
                    NamePat::Name(n) => si.keys.push(event_key(KIND_TEXT, *n)),
                    NamePat::Any => si.wild[KIND_TEXT as usize] = true,
                },
                // The catchall accepts begin, end, and text events alike.
                ArcLabel::Catchall => si.wild = [true, true, true],
            }
        }
        si.keys.sort_unstable();
        si.keys.dedup();
        si
    }

    /// (Re)register a group's interest for its current frontier states,
    /// diffing against what is currently in the index so only changed
    /// buckets are touched. `cache` memoizes per-state interest for the
    /// group's HPDT (states never change interest once compiled);
    /// `current` is updated in place to the new interest. After warmup
    /// (cache filled, bucket capacities grown) a reindex allocates
    /// nothing: the next-key set builds in the index's scratch buffer and
    /// is swapped into `current`.
    pub(crate) fn reindex(
        &mut self,
        group: u32,
        hpdt: &Hpdt,
        frontier: &[StateId],
        cache: &mut Vec<Option<StateInterest>>,
        current: &mut GroupInterest,
    ) {
        if cache.len() < hpdt.arcs.len() {
            cache.resize(hpdt.arcs.len(), None);
        }
        let mut next_keys = std::mem::take(&mut self.scratch_keys);
        next_keys.clear();
        let mut next_wild = [false; 3];
        for &s in frontier {
            let slot = &mut cache[s as usize];
            if slot.is_none() {
                *slot = Some(Self::state_interest(hpdt, s));
            }
            let si = slot.as_ref().unwrap();
            next_keys.extend_from_slice(&si.keys);
            for (w, &sw) in next_wild.iter_mut().zip(&si.wild) {
                *w |= sw;
            }
        }
        next_keys.sort_unstable();
        next_keys.dedup();

        // Apply the diff of two sorted key lists with one merge walk.
        let (mut i, mut j) = (0, 0);
        while i < next_keys.len() || j < current.keys.len() {
            let added = match (next_keys.get(i), current.keys.get(j)) {
                (Some(&n), Some(&c)) if n == c => {
                    i += 1;
                    j += 1;
                    continue;
                }
                (Some(&n), Some(&c)) => n < c,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if added {
                let (kind, sym) = key_parts(next_keys[i]);
                insert_sorted(self.bucket_mut(sym, kind), group);
                i += 1;
            } else {
                let (kind, sym) = key_parts(current.keys[j]);
                if let Some(kinds) = self.by_sym.get_mut(sym) {
                    remove_sorted(&mut kinds[kind], group);
                }
                j += 1;
            }
        }
        for (bucket, (&next, &cur)) in self
            .wildcard
            .iter_mut()
            .zip(next_wild.iter().zip(&current.wild))
        {
            if next && !cur {
                insert_sorted(bucket, group);
            } else if !next && cur {
                remove_sorted(bucket, group);
            }
        }
        insert_sorted(&mut self.all, group);
        std::mem::swap(&mut current.keys, &mut next_keys);
        current.wild = next_wild;
        self.scratch_keys = next_keys;
    }

    /// Remove a group entirely (unsubscription of its last member).
    pub(crate) fn remove_group(&mut self, group: u32, current: &GroupInterest) {
        for &k in &current.keys {
            let (kind, sym) = key_parts(k);
            if let Some(kinds) = self.by_sym.get_mut(sym) {
                remove_sorted(&mut kinds[kind], group);
            }
        }
        for k in 0..3 {
            remove_sorted(&mut self.wildcard[k], group);
        }
        remove_sorted(&mut self.all, group);
    }

    /// Collect the groups that might react to `event`, in ascending group
    /// order (deterministic feed order ⇒ deterministic result
    /// interleaving in shared sinks).
    pub fn candidates(&self, event: &RawEvent<'_>, out: &mut Vec<u32>) {
        out.clear();
        let (kind, sym) = match event {
            RawEvent::StartDocument | RawEvent::EndDocument => {
                out.extend_from_slice(&self.all);
                return;
            }
            RawEvent::Begin { name, .. } => (KIND_BEGIN as usize, *name),
            RawEvent::End { name, .. } => (KIND_END as usize, *name),
            RawEvent::Text { element, .. } => (KIND_TEXT as usize, *element),
        };
        if let Some(kinds) = self.by_sym.get(sym.index() as usize) {
            out.extend_from_slice(&kinds[kind]);
        }
        if !self.wildcard[kind].is_empty() {
            out.extend_from_slice(&self.wildcard[kind]);
            out.sort_unstable();
            out.dedup();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_hpdt;
    use xsq_xml::SaxEvent;
    use xsq_xpath::parse_query;

    fn begin(name: &str, depth: u32) -> SaxEvent {
        SaxEvent::Begin {
            name: name.into(),
            attributes: vec![],
            depth,
        }
    }

    fn candidates(idx: &DispatchIndex, ev: &SaxEvent, out: &mut Vec<u32>) {
        idx.candidates(&ev.as_raw(), out);
    }

    #[test]
    fn start_state_interest_routes_only_matching_names() {
        let hpdt = build_hpdt(&parse_query("/a/b/text()").unwrap()).unwrap();
        let mut idx = DispatchIndex::new();
        let mut cache = Vec::new();
        let mut cur = GroupInterest::default();
        idx.reindex(0, &hpdt, &[hpdt.start], &mut cache, &mut cur);

        let mut out = Vec::new();
        candidates(&idx, &begin("a", 1), &mut out);
        // The start state only has the StartDoc arc: no element interest
        // yet, but document brackets always dispatch.
        assert!(out.is_empty());
        candidates(&idx, &SaxEvent::StartDocument, &mut out);
        assert_eq!(out, [0]);
    }

    #[test]
    fn frontier_moves_change_the_buckets() {
        let hpdt = build_hpdt(&parse_query("/a/b/text()").unwrap()).unwrap();
        let mut idx = DispatchIndex::new();
        let mut cache = Vec::new();
        let mut cur = GroupInterest::default();
        // Frontier at the root TRUE state (after StartDocument): the
        // entry arc on `a` is live.
        let root_true = hpdt.arcs[hpdt.start as usize][0].target;
        idx.reindex(0, &hpdt, &[root_true], &mut cache, &mut cur);
        let mut out = Vec::new();
        candidates(&idx, &begin("a", 1), &mut out);
        assert_eq!(out, [0]);
        candidates(&idx, &begin("zzz", 1), &mut out);
        assert!(out.is_empty());

        // Move the frontier somewhere with no `a` interest: bucket empties.
        idx.reindex(0, &hpdt, &[hpdt.start], &mut cache, &mut cur);
        candidates(&idx, &begin("a", 1), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn wildcards_land_in_the_wildcard_bucket_and_named_closures_do_not() {
        // Every state of every group registered, as a static-interest
        // group would: group 0 is a named closure, 1–3 are wildcards.
        let mut idx = DispatchIndex::new();
        for (g, q) in ["//b/text()", "//*/text()", "/a/*/c", "//b"]
            .iter()
            .enumerate()
        {
            let hpdt = build_hpdt(&parse_query(q).unwrap()).unwrap();
            let states: Vec<StateId> = (0..hpdt.arcs.len() as StateId).collect();
            let (mut cache, mut cur) = (Vec::new(), GroupInterest::default());
            idx.reindex(g as u32, &hpdt, &states, &mut cache, &mut cur);
        }
        let mut out = Vec::new();
        // The `//` self-loop wakes nobody: a named closure is a candidate
        // for its own tag only; `*` tests and element-output catchalls
        // still hear every begin event.
        candidates(&idx, &begin("b", 3), &mut out);
        assert_eq!(out, [0, 1, 2, 3]);
        candidates(&idx, &begin("anything", 3), &mut out);
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    fn remove_group_clears_every_bucket() {
        let hpdt = build_hpdt(&parse_query("//b/text()").unwrap()).unwrap();
        let mut idx = DispatchIndex::new();
        let mut cache = Vec::new();
        let mut cur = GroupInterest::default();
        let root_true = hpdt.arcs[hpdt.start as usize][0].target;
        idx.reindex(0, &hpdt, &[root_true], &mut cache, &mut cur);
        idx.remove_group(0, &cur);
        let mut out = Vec::new();
        candidates(&idx, &begin("b", 1), &mut out);
        assert!(out.is_empty());
        candidates(&idx, &SaxEvent::StartDocument, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn reindex_diff_handles_partial_overlap() {
        // Two frontiers with overlapping interest: the diff must add the
        // new keys, drop the stale ones, and keep the shared ones intact.
        let hpdt = build_hpdt(&parse_query("/pub[year=2002]/book/name/text()").unwrap()).unwrap();
        let mut idx = DispatchIndex::new();
        let mut cache = Vec::new();
        let mut cur = GroupInterest::default();
        // Index every state in turn; after arbitrary reindex churn the
        // registered interest must equal the last frontier's interest.
        let states: Vec<StateId> = (0..hpdt.arcs.len() as StateId).collect();
        for w in states.windows(3) {
            idx.reindex(0, &hpdt, w, &mut cache, &mut cur);
        }
        let last = &states[states.len() - 3..];
        let mut fresh_idx = DispatchIndex::new();
        let mut fresh_cur = GroupInterest::default();
        let mut fresh_cache = Vec::new();
        fresh_idx.reindex(0, &hpdt, last, &mut fresh_cache, &mut fresh_cur);
        assert_eq!(cur.keys, fresh_cur.keys);
        assert_eq!(cur.wild, fresh_cur.wild);
        assert_eq!(idx.named_buckets(), fresh_idx.named_buckets());
    }
}
