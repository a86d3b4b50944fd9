//! The inverted dispatch index: event name → interested runners.
//!
//! Stepping every query's HPDT on every event makes the
//! per-event cost O(N queries) even when almost no query cares about
//! the element name — the exact failure mode Koch et al.'s schema-based
//! scheduling work identifies for structured-stream engines at scale.
//! This index inverts the question: for each (event kind, element name)
//! it lists the states, of whichever runner group, with an arc that
//! could accept such an event. A `Begin`/`End`/`Text` event then touches
//! only the groups that have a configuration in one of the states of its
//! bucket (plus the wildcard bucket for `*` tests and catchalls) right
//! now. A `//` self-loop registers no interest: it is not a transition (a closure
//! state that descends past a begin event does not move — see
//! [`crate::runtime`]), so a closure group is dispatched on the tags of
//! its entry arcs, not on every begin event.
//!
//! **Membership is static, liveness is a bit.** Every state of every
//! group owns one bit of a flat bit vector, `live`, groups laid out in
//! the order they were added (small ones sharing a word, none straddling
//! a word boundary it could avoid): the bit is set iff the group has a
//! configuration in that state
//! ([`crate::runtime::RunnerCore::mark_frontier`] rewrites a group's
//! span when an arc fired, the only way the set moves). A group is filed
//! once, when it is added, under every key any of its states has an arc
//! for; a bucket entry is `(word, mask)` — the states in that word of
//! `live`, whichever groups they belong to, that hold such an arc. An
//! event walks its bucket and `live[word] & mask` is the live states
//! with an arc on its key; the groups they belong to, found by their
//! bit positions, are exactly "a frontier state has an arc on this
//! key": the set a per-event mirror of each group's frontier in the
//! buckets would list, without the mirror. The price is that a bucket
//! walk is linear in the states *filed* under the key, live or not, 64
//! to an entry (EXPERIMENTS.md, *Liveness is a bit*, has the
//! shared-inner-tag table).
//!
//! Names are the global [`xsq_xml::Sym`] symbols the parser already
//! interned, so the per-event lookup is a dense `Vec` index — no
//! hashing, no string comparison — and buckets are sorted `Vec`s read
//! sequentially. Interest is a deliberate *over*-approximation — it
//! ignores the depth discipline and guards that
//! `Pattern::accepts` enforces — so a dispatched group
//! may still match nothing; skipping a group is safe precisely because a
//! no-match feed is a no-op.

use xsq_xml::RawEvent;

use crate::arcs::{raw_event_key, StateId};
use crate::build::Hpdt;

/// The states of one word of [`DispatchIndex::live`] that hold an arc
/// the bucket's events could fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    word: u32,
    mask: u64,
}

/// The inverted index over all registered groups. Buckets are sorted by
/// word.
#[derive(Debug, Default)]
pub struct DispatchIndex {
    /// Entries per symbol, indexed by [`xsq_xml::Sym::index`]; one list
    /// per event kind. Grown on demand as arcs mention new names.
    by_sym: Vec<[Vec<Entry>; 3]>,
    wildcard: [Vec<Entry>; 3],
    /// Every registered group: document brackets go to all of them.
    all: Vec<u32>,
    /// One bit per state of every group ever added: set iff the group has
    /// a configuration in that state.
    live: Vec<u64>,
    /// `spans[g]` are group `g`'s bits of `live`. Groups are numbered in
    /// the order they were added, so the spans ascend; one that does not
    /// fit in what is left of a word starts at the next.
    spans: Vec<std::ops::Range<usize>>,
    /// The group each bit of `live` belongs to.
    owner: Vec<u32>,
    #[cfg(debug_assertions)]
    check: Vec<u64>,
}

/// Call `f(state, kind, symbol index or None for the wildcard bucket)`
/// for every bucket an arc of `hpdt` files its state in (its label's
/// `Pattern::filings`).
fn for_each_filing(hpdt: &Hpdt, mut f: impl FnMut(StateId, usize, Option<usize>)) {
    for (state, patterns) in (0..).zip(crate::arcs::runs(&hpdt.patterns, &hpdt.offsets)) {
        for (kind, name) in patterns.iter().flat_map(|p| p.filings()) {
            f(state, kind as usize, name.map(|s| s.index() as usize));
        }
    }
}

impl DispatchIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// `(named buckets populated, entries in all buckets, longest
    /// bucket)`: what a walk costs. One entry is 64 states' worth of the
    /// groups an event of the bucket's key has to ask.
    pub fn shape(&self) -> (usize, usize, usize) {
        let named = self.by_sym.iter().flatten().filter(|b| !b.is_empty());
        let lens = self.by_sym.iter().flatten().chain(&self.wildcard);
        (
            named.count(),
            lens.clone().map(Vec::len).sum(),
            lens.map(Vec::len).max().unwrap_or(0),
        )
    }

    fn bucket_mut(&mut self, kind: usize, sym: Option<usize>) -> &mut Vec<Entry> {
        let Some(sym) = sym else {
            return &mut self.wildcard[kind];
        };
        if self.by_sym.len() <= sym {
            self.by_sym.resize_with(sym + 1, Default::default);
        }
        &mut self.by_sym[sym][kind]
    }

    /// File a new group — it is numbered after the last one added —
    /// under every key any of its states has an arc for. Its bits of
    /// `live` start out clear: the group is heard on document brackets
    /// only until its frontier is marked.
    pub(crate) fn add_group(&mut self, hpdt: &Hpdt) -> u32 {
        let group = self.spans.len() as u32;
        let (end, states) = (self.spans.last().map_or(0, |s| s.end), hpdt.states.len());
        let start = if end % 64 + states > 64 {
            end.next_multiple_of(64)
        } else {
            end
        };
        self.spans.push(start..start + states);
        self.live.resize((start + states).div_ceil(64), 0);
        self.owner.resize(start + states, group);
        self.all.push(group);
        for_each_filing(hpdt, |state, kind, sym| {
            let bit = start + state as usize;
            let (word, mask) = ((bit / 64) as u32, 1u64 << (bit % 64));
            let bucket = self.bucket_mut(kind, sym);
            let at = bucket.partition_point(|e| e.word < word);
            match bucket.get_mut(at) {
                Some(e) if e.word == word => e.mask |= mask,
                _ => bucket.insert(at, Entry { word, mask }),
            }
        });
        group
    }

    /// Remove a group entirely (unsubscription of its last member).
    pub(crate) fn remove_group(&mut self, group: u32, hpdt: &Hpdt) {
        let start = self.spans[group as usize].start;
        for_each_filing(hpdt, |state, kind, sym| {
            let bit = start + state as usize;
            let bucket = self.bucket_mut(kind, sym);
            if let Ok(at) = bucket.binary_search_by_key(&((bit / 64) as u32), |e| e.word) {
                bucket[at].mask &= !(1 << (bit % 64));
                if bucket[at].mask == 0 {
                    bucket.remove(at);
                }
            }
        });
        if let Ok(at) = self.all.binary_search(&group) {
            self.all.remove(at);
        }
    }

    /// Rewrite the group's live bits from its runner's configuration set.
    pub(crate) fn mark(&mut self, group: u32, core: &crate::runtime::RunnerCore) {
        let std::ops::Range { start, end } = self.spans[group as usize];
        // A span of several words starts at a word boundary; its last
        // word, like a small group's only one, may be shared.
        let (first, last) = (start / 64, (end - 1) / 64);
        self.live[first..last].fill(0);
        let (lo, hi) = (start.max(last * 64) % 64, (end - 1) % 64);
        self.live[last] &= !((u64::MAX >> (63 - hi)) & (u64::MAX << lo));
        core.mark_frontier(&mut self.live, start);
    }

    /// Debug builds, after every feed: the group's live bits are the
    /// states of its configuration set — also after a feed that said
    /// nothing fired and so was not followed by a re-mark.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_marked(&mut self, group: u32, core: &crate::runtime::RunnerCore) {
        self.check.clone_from(&self.live);
        self.mark(group, core);
        assert_eq!(self.check, self.live, "group {group}: stale live bits");
    }

    /// Collect the groups that might react to `event`, in ascending group
    /// order (deterministic feed order ⇒ deterministic result
    /// interleaving in shared sinks).
    pub fn candidates(&self, event: &RawEvent<'_>, out: &mut Vec<u32>) {
        out.clear();
        // A dispatch key is `(event kind, symbol index)`.
        let Some((kind, sym)) =
            raw_event_key(event).map(|k| ((k >> 32) as usize, k as u32 as usize))
        else {
            out.extend_from_slice(&self.all);
            return;
        };
        let keep = |bucket: &[Entry], out: &mut Vec<u32>| {
            for e in bucket {
                let mut hits = self.live[e.word as usize] & e.mask;
                while hits != 0 {
                    // The group owning the lowest hit; then past all its
                    // bits (a span may also continue from the last word).
                    let bit = e.word as usize * 64 + hits.trailing_zeros() as usize;
                    let group = self.owner[bit];
                    if out.last() != Some(&group) {
                        out.push(group);
                    }
                    let past = self.spans[group as usize].end - e.word as usize * 64;
                    hits &= u64::MAX.checked_shl(past as u32).unwrap_or(0);
                }
            }
        };
        if let Some(kinds) = self.by_sym.get(sym) {
            keep(&kinds[kind], out);
        }
        let named = out.len();
        keep(&self.wildcard[kind], out);
        if named > 0 && out.len() > named {
            out.sort_unstable();
            out.dedup();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arcs::event_key;
    use crate::build::{build_hpdt, build_merged_hpdt};
    use xsq_xml::RawEvent;
    use xsq_xpath::parse_query;

    fn begin(name: &str, depth: u32) -> RawEvent<'static> {
        RawEvent::Begin {
            name: name.into(),
            attributes: &[],
            depth,
        }
    }

    /// Begin, text and end events of one element name.
    fn events_of(name: &str) -> [RawEvent<'static>; 3] {
        let text = RawEvent::Text {
            element: name.into(),
            text: "v",
            depth: 2,
        };
        let end = RawEvent::End {
            name: name.into(),
            depth: 2,
        };
        [begin(name, 2), text, end]
    }

    fn candidates(idx: &DispatchIndex, ev: &RawEvent<'_>) -> Vec<u32> {
        let mut out = Vec::new();
        idx.candidates(ev, &mut out);
        out
    }

    /// Put `group`'s configurations in exactly `states`.
    fn mark(idx: &mut DispatchIndex, group: u32, states: &[StateId]) {
        let std::ops::Range {
            start: from,
            end: to,
        } = idx.spans[group as usize];
        for bit in from..to {
            idx.live[bit / 64] &= !(1 << (bit % 64));
        }
        for &s in states {
            assert!(from + (s as usize) < to);
            idx.live[(from + s as usize) / 64] |= 1 << ((from + s as usize) % 64);
        }
    }

    fn compile(query: &str) -> Hpdt {
        build_hpdt(&parse_query(query).unwrap()).unwrap()
    }

    fn merged(queries: &[String]) -> Hpdt {
        let parsed: Vec<_> = queries.iter().map(|q| parse_query(q).unwrap()).collect();
        build_merged_hpdt(parsed).unwrap()
    }

    /// The definition the table replaced, kept as its oracle: what one
    /// state could react to, read off its arcs — named keys and a
    /// wildcard flag per event kind. A group's interest is the union over
    /// its frontier states.
    fn state_interest(hpdt: &Hpdt, state: StateId) -> (Vec<u64>, [bool; 3]) {
        let (mut keys, mut wild) = (Vec::new(), [false; 3]);
        for p in hpdt.probe_of(state).0 {
            for (kind, name) in p.filings() {
                match name {
                    Some(n) => keys.push(event_key(kind, n)),
                    None => wild[kind as usize] = true,
                }
            }
        }
        (keys, wild)
    }

    fn oracle_hears(hpdt: &Hpdt, frontier: &[StateId], ev: &RawEvent<'_>) -> bool {
        let key = raw_event_key(ev).expect("an element event");
        frontier.iter().any(|&s| {
            let (keys, wild) = state_interest(hpdt, s);
            keys.contains(&key) || wild[(key >> 32) as usize]
        })
    }

    #[test]
    fn a_group_is_a_candidate_iff_a_live_state_has_an_arc_on_the_key() {
        let queries = [
            "/a/b/text()",
            "//b/text()",
            "//*/text()",
            "/a/*/c",
            "//b",
            "/pub[year=2002]/book/name/text()",
        ];
        let hpdts: Vec<Hpdt> = queries.iter().map(|q| compile(q)).collect();
        let mut idx = DispatchIndex::new();
        for (g, hpdt) in hpdts.iter().enumerate() {
            assert_eq!(idx.add_group(hpdt), g as u32);
        }
        let names = ["a", "b", "c", "pub", "year", "book", "name", "zzz"];
        // Every frontier of up to two states, the same in every group (a
        // state number a smaller group lacks is skipped there).
        let most = hpdts.iter().map(|h| h.states.len()).max().unwrap() as StateId;
        for s in 0..most {
            for t in s..most {
                let frontiers: Vec<Vec<StateId>> = hpdts
                    .iter()
                    .map(|h| {
                        [s, t]
                            .into_iter()
                            .filter(|&x| (x as usize) < h.states.len())
                    })
                    .map(Iterator::collect)
                    .collect();
                for (g, frontier) in frontiers.iter().enumerate() {
                    mark(&mut idx, g as u32, frontier);
                }
                for ev in names.iter().flat_map(|n| events_of(n)) {
                    let want: Vec<u32> = (0..hpdts.len())
                        .filter(|&g| oracle_hears(&hpdts[g], &frontiers[g], &ev))
                        .map(|g| g as u32)
                        .collect();
                    assert_eq!(candidates(&idx, &ev), want, "frontier {{{s}, {t}}}, {ev:?}");
                }
            }
        }
    }

    #[test]
    fn document_brackets_reach_every_group_whatever_is_live() {
        let hpdt = compile("/a/b/text()");
        let mut idx = DispatchIndex::new();
        idx.add_group(&hpdt);
        idx.add_group(&hpdt);
        assert_eq!(candidates(&idx, &RawEvent::StartDocument), [0, 1]);
        assert_eq!(candidates(&idx, &RawEvent::EndDocument), [0, 1]);
    }

    #[test]
    fn a_group_added_mid_document_is_silent_until_its_frontier_is_marked() {
        let hpdt = compile("/a/b/text()");
        let mut idx = DispatchIndex::new();
        idx.add_group(&hpdt);
        // Filed under `a`, but nothing of it is live.
        assert!(candidates(&idx, &begin("a", 1)).is_empty());
        // The start state only has the StartDoc arc: still no element
        // interest.
        mark(&mut idx, 0, &[hpdt.start]);
        assert!(candidates(&idx, &begin("a", 1)).is_empty());
        // After StartDocument the root's TRUE state is live, and its
        // entry arc on `a` with it.
        let root_true = hpdt.arcs_of(hpdt.start)[0].target;
        mark(&mut idx, 0, &[root_true]);
        assert_eq!(candidates(&idx, &begin("a", 1)), [0]);
        assert!(candidates(&idx, &begin("zzz", 1)).is_empty());
    }

    #[test]
    fn wildcard_and_named_buckets_merge_ascending_and_duplicate_free() {
        // Group 0 is a named closure, 1–3 hear every begin event through
        // a `*` test or an element-output catchall; 3 is in both buckets
        // of `b`. Every state live, as after arbitrary movement.
        let mut idx = DispatchIndex::new();
        for (g, q) in ["//b/text()", "//*/text()", "/a/*/c", "//b"]
            .iter()
            .enumerate()
        {
            let hpdt = compile(q);
            idx.add_group(&hpdt);
            let all: Vec<StateId> = (0..hpdt.states.len() as StateId).collect();
            mark(&mut idx, g as u32, &all);
        }
        // The `//` self-loop wakes nobody: a named closure is a candidate
        // for its own tag only.
        assert_eq!(candidates(&idx, &begin("b", 3)), [0, 1, 2, 3]);
        assert_eq!(candidates(&idx, &begin("anything", 3)), [1, 2, 3]);
    }

    #[test]
    fn remove_group_leaves_no_entry() {
        let mut idx = DispatchIndex::new();
        let hpdts = [compile("//b/text()"), compile("/a/*/c")];
        for (g, hpdt) in hpdts.iter().enumerate() {
            idx.add_group(hpdt);
            let all: Vec<StateId> = (0..hpdt.states.len() as StateId).collect();
            mark(&mut idx, g as u32, &all);
        }
        let (_, both, _) = idx.shape();
        idx.remove_group(0, &hpdts[0]);
        let (_, one, _) = idx.shape();
        assert!(0 < one && one < both);
        assert_eq!(candidates(&idx, &begin("b", 2)), [1]);
        assert_eq!(candidates(&idx, &RawEvent::StartDocument), [1]);
        idx.remove_group(1, &hpdts[1]);
        assert_eq!(idx.shape(), (0, 0, 0));
        assert!(candidates(&idx, &begin("b", 2)).is_empty());
        assert!(candidates(&idx, &RawEvent::StartDocument).is_empty());
    }

    #[test]
    fn groups_share_words_and_a_group_of_more_than_64_states_spans_them() {
        // One merged group, every member with its own outer tag and the
        // same inner one — the states holding the `x` arc are spread over
        // its whole span — between small groups: the first two share a
        // word, the big one starts at the next and shares its last with
        // the small one after it.
        let queries: Vec<String> = (0..100).map(|k| format!("/feed/t{k}/x/text()")).collect();
        let big = merged(&queries);
        assert!(big.states.len() > 3 * 64);
        let small = compile("/feed/t7/x/text()");
        let mut idx = DispatchIndex::new();
        for hpdt in [&small, &small, &big, &small] {
            idx.add_group(hpdt);
        }
        assert_eq!(idx.spans[1].start, small.states.len());
        assert_eq!(idx.spans[2].start, 64);
        assert_eq!(idx.spans[3].start, idx.spans[2].end);
        let (_, _, longest) = idx.shape();
        assert!(longest >= 4, "the x bucket holds {longest} entries");
        let hears_x: Vec<StateId> = (0..big.states.len() as StateId)
            .filter(|&s| oracle_hears(&big, &[s], &begin("x", 3)))
            .collect();
        assert_eq!(hears_x.len(), 100);

        // The big group one state at a time, its neighbours silent and
        // then with every state live: each is heard exactly where the
        // oracle says, on every key of the feed, never through another
        // group's bits.
        let names = ["feed", "t0", "t7", "t99", "x", "zzz"];
        let all_small: Vec<StateId> = (0..small.states.len() as StateId).collect();
        for neighbours in [&[][..], &all_small[..]] {
            for g in [0, 1, 3] {
                mark(&mut idx, g, neighbours);
            }
            for s in 0..big.states.len() as StateId {
                mark(&mut idx, 2, &[s]);
                for ev in names.iter().flat_map(|n| events_of(n)) {
                    let small_hears = oracle_hears(&small, neighbours, &ev);
                    let big_hears = oracle_hears(&big, &[s], &ev);
                    let want: Vec<u32> = [small_hears, small_hears, big_hears, small_hears]
                        .iter()
                        .zip(0..)
                        .filter_map(|(&hears, g)| hears.then_some(g))
                        .collect();
                    assert_eq!(candidates(&idx, &ev), want, "state {s}, {ev:?}");
                }
            }
        }
        // Live in several words of one bucket: still listed once.
        mark(&mut idx, 2, &hears_x);
        assert_eq!(candidates(&idx, &begin("x", 3)), [0, 1, 2, 3]);

        // Marking from a runner rewrites the group's own bits and nobody
        // else's: with every bit of every word set, a fresh runner — one
        // configuration, in the start state — leaves its group that one.
        for (g, hpdt) in [&small, &small, &big, &small].into_iter().enumerate() {
            idx.live.fill(u64::MAX);
            let before = idx.live.clone();
            idx.mark(g as u32, &crate::runtime::RunnerCore::new(hpdt));
            let span = idx.spans[g].clone();
            for bit in 0..idx.live.len() * 64 {
                let want = match span.contains(&bit) {
                    true => bit - span.start == hpdt.start as usize,
                    false => before[bit / 64] >> (bit % 64) & 1 == 1,
                };
                assert_eq!(
                    idx.live[bit / 64] >> (bit % 64) & 1 == 1,
                    want,
                    "{g}: bit {bit}"
                );
            }
        }

        // Removing the big group takes its bits out of the shared word's
        // mask and leaves its neighbour's.
        idx.live.fill(u64::MAX);
        idx.remove_group(2, &big);
        assert_eq!(candidates(&idx, &begin("x", 3)), [0, 1, 3]);
        assert_eq!(idx.shape().2, 2);
    }
}
