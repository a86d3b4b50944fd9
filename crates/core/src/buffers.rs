//! The per-BPDT buffers and their depth-scoped operations (§3.3, §4.3).
//!
//! Each BPDT owns a queue of references to shared items. The operations
//! are exactly the paper's: `enqueue`, `clear`, `flush`, and `upload` —
//! all scoped by depth vector, so that a predicate resolving for one
//! match path never disturbs items buffered under a different path
//! (Example 6). There is deliberately no `dequeue`: items leave a queue
//! only wholesale, via flush, clear, or upload.
//!
//! Emission *order* is handled globally by [`crate::items::ItemStore`]
//! (items are anchored in document order), so queues here are unordered
//! reference bags; `flush` marks rather than writes.

use crate::depth_vector::DepthVector;
use crate::items::{ItemId, ItemStore, LEAF_BIT};

/// [`Entry::bound`] of a plain reference: a flush marks its item output.
const UNBOUND: u32 = u32::MAX;
/// [`Entry::bound`] of a keyed step's *truth* entry: `item` is not an item
/// but the id of a key witnessed under `dv`.
const TRUTH: u32 = u32::MAX - 1;

/// One buffered reference: an item plus the depth vector under which it
/// was enqueued.
#[derive(Debug, Clone)]
pub struct Entry {
    pub item: ItemId,
    /// The query tag a keyed step resolved the item for, once it has
    /// (`UNBOUND` before): a flush then binds the item to that tag
    /// instead of marking it output. Lives in what was padding.
    pub bound: u32,
    pub dv: DepthVector,
}

/// All BPDT queues, indexed densely by queue slot (see
/// [`crate::arcs::QueueRef`]).
#[derive(Debug)]
pub struct QueueSet {
    queues: Vec<Vec<Entry>>,
    /// Reusable staging buffer for `upload_matching` and `resolve_keyed`
    /// (moving entries between two queues of the same set needs a third
    /// place to stand; owning it keeps the steady state allocation-free).
    scratch: Vec<Entry>,
    /// The keys one `resolve_keyed` call found witnessed.
    scratch_keys: Vec<u32>,
    live_entries: usize,
    peak_entries: usize,
}

impl QueueSet {
    pub fn new(count: usize) -> Self {
        QueueSet {
            queues: (0..count).map(|_| Vec::new()).collect(),
            scratch: Vec::new(),
            scratch_keys: Vec::new(),
            live_entries: 0,
            peak_entries: 0,
        }
    }

    /// Reset for a fresh document, keeping the queues' allocations when
    /// the count is unchanged (multi-document feeds).
    pub fn reset(&mut self, count: usize) {
        self.queues.resize_with(count, Vec::new);
        self.queues.truncate(count);
        for q in &mut self.queues {
            q.clear();
        }
        self.scratch.clear();
        self.live_entries = 0;
        self.peak_entries = 0;
    }

    /// Pre-size every queue from a static bound: a query the analyzer
    /// proved `Items(K)` never re-allocates its queues mid-stream.
    pub fn reserve(&mut self, per_queue: usize) {
        for q in &mut self.queues {
            let have = q.capacity();
            if have < per_queue {
                q.reserve_exact(per_queue - have);
            }
        }
    }

    /// `Q.enqueue(v)` — add a reference under the given depth vector.
    /// Takes the vector by reference: the entry shares the caller's tail
    /// (inline bits are a plain copy; spilled vectors are copy-on-write),
    /// so enqueueing never deep-copies the vector.
    pub fn enqueue(&mut self, queue: usize, item: ItemId, dv: &DepthVector, items: &mut ItemStore) {
        items.add_ref(item);
        self.push(queue, item, UNBOUND, dv);
    }

    fn push(&mut self, queue: usize, item: u32, bound: u32, dv: &DepthVector) {
        self.queues[queue].push(Entry {
            item,
            bound,
            dv: dv.clone(),
        });
        self.live_entries += 1;
        self.peak_entries = self.peak_entries.max(self.live_entries);
    }

    /// A keyed step witnessed `key` for the instance `dv` runs under:
    /// remember it, in the step's own queue, until that instance ends.
    pub fn record_truth(&mut self, queue: usize, key: u32, dv: &DepthVector) {
        self.push(queue, key, TRUTH, dv);
    }

    /// A keyed step's element ends: every depth-matching item is bound to
    /// the tags `leaf_tags[its leaf]` (sorted by key) lists under the
    /// depth-matching truths — directly when `upload` is `None`, else as
    /// one tag-bound entry per tag in the `upload` queue — and the
    /// instance's entries, truths included, leave the queue.
    pub fn resolve_keyed(
        &mut self,
        queue: usize,
        upload: Option<usize>,
        dv: &DepthVector,
        prefix: usize,
        leaf_tags: &[Vec<(u32, u32)>],
        items: &mut ItemStore,
    ) {
        let mut staged = std::mem::take(&mut self.scratch);
        let mut keys = std::mem::take(&mut self.scratch_keys);
        debug_assert!(staged.is_empty() && keys.is_empty());
        self.queues[queue].retain(|entry| {
            if !entry.dv.prefix_matches(dv, prefix) {
                return true;
            }
            match entry.bound {
                TRUTH => keys.push(entry.item),
                _ => staged.push(entry.clone()),
            }
            false
        });
        self.live_entries -= keys.len() + staged.len();
        keys.sort_unstable();
        keys.dedup();
        for entry in staged.drain(..) {
            let tags = &leaf_tags[(items.tag(entry.item) & !LEAF_BIT) as usize];
            for &key in &keys {
                let from = tags.partition_point(|&(k, _)| k < key);
                for &(_, tag) in tags[from..].iter().take_while(|&&(k, _)| k == key) {
                    match upload {
                        None => items.bind(entry.item, tag),
                        Some(to) => {
                            items.add_ref(entry.item);
                            self.push(to, entry.item, tag, &entry.dv);
                        }
                    }
                }
            }
            items.release_ref(entry.item);
        }
        keys.clear();
        self.scratch = staged;
        self.scratch_keys = keys;
    }

    /// `Q.flush()` — mark every depth-matching item as output (bind it,
    /// when the entry carries the tag a keyed step resolved it for) and
    /// drop the references (they are "sent to the output", §3.3; actual
    /// emission order is the item store's job).
    pub fn flush_matching(
        &mut self,
        queue: usize,
        dv: &DepthVector,
        prefix: usize,
        items: &mut ItemStore,
    ) {
        let live = &mut self.live_entries;
        self.queues[queue].retain(|entry| {
            if entry.dv.prefix_matches(dv, prefix) {
                match entry.bound {
                    UNBOUND => items.mark_output(entry.item),
                    tag => items.bind(entry.item, tag),
                }
                items.release_ref(entry.item);
                *live -= 1;
                false
            } else {
                true
            }
        });
    }

    /// `Q.clear()` — drop the depth-matching references; items with no
    /// remaining references die.
    pub fn clear_matching(
        &mut self,
        queue: usize,
        dv: &DepthVector,
        prefix: usize,
        items: &mut ItemStore,
    ) {
        let live = &mut self.live_entries;
        self.queues[queue].retain(|entry| {
            if entry.dv.prefix_matches(dv, prefix) {
                items.release_ref(entry.item);
                *live -= 1;
                false
            } else {
                true
            }
        });
    }

    /// `Q.upload()` — move the depth-matching references to the target
    /// queue (the nearest ancestor BPDT whose predicate is undecided,
    /// §4.3). Reference counts are unchanged.
    pub fn upload_matching(&mut self, from: usize, to: usize, dv: &DepthVector, prefix: usize) {
        debug_assert_ne!(from, to);
        // Stage through the set's owned scratch rather than a fresh Vec:
        // we cannot borrow two queues mutably at once, and the scratch
        // keeps its capacity across calls.
        let scratch = &mut self.scratch;
        debug_assert!(scratch.is_empty());
        self.queues[from].retain(|entry| {
            if entry.dv.prefix_matches(dv, prefix) {
                scratch.push(entry.clone());
                false
            } else {
                true
            }
        });
        self.queues[to].append(&mut self.scratch);
    }

    /// Number of references currently buffered across all queues.
    pub fn live_entries(&self) -> usize {
        self.live_entries
    }

    /// Peak simultaneous buffered references.
    pub fn peak_entries(&self) -> usize {
        self.peak_entries
    }

    /// Entries in one queue (tests, invariant checks).
    pub fn len(&self, queue: usize) -> usize {
        self.queues[queue].len()
    }

    /// Are all queues empty? (Must hold at end of document.)
    pub fn all_empty(&self) -> bool {
        self.live_entries == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::LEAF_BIT;

    fn dv(depths: &[u32]) -> DepthVector {
        DepthVector::from_depths(depths)
    }

    fn setup() -> (QueueSet, ItemStore, ItemId, ItemId) {
        let mut qs = QueueSet::new(3);
        let mut items = ItemStore::new();
        items.begin_event(1);
        let a = items.anchor(0, "A", true);
        items.begin_event(2);
        let b = items.anchor(0, "B", true);
        qs.enqueue(0, a, &dv(&[0, 1, 3]), &mut items);
        qs.enqueue(0, b, &dv(&[0, 2, 3]), &mut items);
        (qs, items, a, b)
    }

    #[test]
    fn flush_is_depth_scoped() {
        let (mut qs, mut items, a, b) = setup();
        qs.flush_matching(0, &dv(&[0, 1]), 2, &mut items);
        assert_eq!(items.state(a), crate::items::ItemState::Output);
        assert_eq!(items.state(b), crate::items::ItemState::Pending);
        assert_eq!(qs.len(0), 1);
    }

    #[test]
    fn clear_is_depth_scoped_and_kills() {
        let (mut qs, mut items, a, b) = setup();
        qs.clear_matching(0, &dv(&[0, 2]), 2, &mut items);
        assert_eq!(items.state(a), crate::items::ItemState::Pending);
        assert_eq!(items.state(b), crate::items::ItemState::Dead);
        assert_eq!(qs.live_entries(), 1);
    }

    #[test]
    fn upload_moves_without_changing_refs() {
        let (mut qs, mut items, a, _b) = setup();
        qs.upload_matching(0, 1, &dv(&[0, 1]), 2);
        assert_eq!(qs.len(0), 1);
        assert_eq!(qs.len(1), 1);
        assert_eq!(items.state(a), crate::items::ItemState::Pending);
        // Now a flush on the target queue resolves the moved item.
        qs.flush_matching(1, &dv(&[0, 1]), 2, &mut items);
        assert_eq!(items.state(a), crate::items::ItemState::Output);
    }

    #[test]
    fn entries_stay_three_words() {
        // `bound` lives in what was padding between `item` and `dv`.
        assert_eq!(std::mem::size_of::<Entry>(), 24);
    }

    /// Example 6's shape on a keyed step: item Z sits under two open
    /// instances of the keyed element — (1,2) and (1,9) — which witnessed
    /// different keys. Leaf 0 answers tag 10 under key 0, tags 11 and 12
    /// under key 1.
    fn keyed_setup() -> (QueueSet, ItemStore, ItemId) {
        let mut qs = QueueSet::new(2);
        let mut items = ItemStore::new();
        items.begin_event(1);
        let z = items.anchor(LEAF_BIT, "Z", true);
        qs.enqueue(0, z, &dv(&[1, 2, 10]), &mut items);
        qs.enqueue(0, z, &dv(&[1, 9, 10]), &mut items);
        qs.record_truth(0, 0, &dv(&[1, 2, 5]));
        qs.record_truth(0, 1, &dv(&[1, 9, 11]));
        qs.record_truth(0, 1, &dv(&[1, 9, 12])); // a repeated witness
        assert_eq!(qs.peak_entries(), 5, "truths count as buffered entries");
        (qs, items, z)
    }

    fn leaf_tags() -> [Vec<(u32, u32)>; 1] {
        [vec![(0, 10), (1, 11), (1, 12)]]
    }

    fn drained(items: &mut ItemStore) -> Vec<u32> {
        let mut tags = Vec::new();
        items.drain(|t, _| tags.push(t));
        tags
    }

    #[test]
    fn resolve_keyed_is_depth_scoped() {
        let (mut qs, mut items, z) = keyed_setup();
        let leaf_tags = leaf_tags();
        // The inner instance (1,9) ends: its truths bind its entry only.
        qs.resolve_keyed(0, None, &dv(&[1, 9]), 2, &leaf_tags, &mut items);
        assert_eq!(qs.len(0), 2, "the other instance keeps entry and truth");
        assert_eq!(items.state(z), crate::items::ItemState::Pending);
        assert!(drained(&mut items).is_empty());
        // The outer instance ends having witnessed key 0 alone.
        qs.resolve_keyed(0, None, &dv(&[1, 2]), 2, &leaf_tags, &mut items);
        assert!(qs.all_empty());
        assert_eq!(drained(&mut items), [11, 12, 10]);
        assert!(items.recyclable());
    }

    #[test]
    fn resolve_keyed_uploads_tag_bound_entries_with_refs_balanced() {
        let (mut qs, mut items, z) = keyed_setup();
        let leaf_tags = leaf_tags();
        qs.resolve_keyed(0, Some(1), &dv(&[1, 9]), 2, &leaf_tags, &mut items);
        qs.resolve_keyed(0, Some(1), &dv(&[1, 2]), 2, &leaf_tags, &mut items);
        // One entry per (item, tag), under the entry's own depth vector.
        assert_eq!((qs.len(0), qs.len(1), qs.live_entries()), (0, 3, 3));
        assert_eq!(items.state(z), crate::items::ItemState::Pending);
        // The ancestor clears one match path and flushes the other: a
        // flush of a bound entry binds instead of marking.
        qs.clear_matching(1, &dv(&[1, 2]), 2, &mut items);
        qs.flush_matching(1, &dv(&[1, 9]), 2, &mut items);
        assert!(qs.all_empty());
        assert_eq!(drained(&mut items), [11, 12]);
        assert!(items.recyclable(), "every reference was released");
    }

    #[test]
    fn an_instance_without_a_witnessed_key_drops_its_entries() {
        let (mut qs, mut items, z) = keyed_setup();
        qs.resolve_keyed(0, None, &dv(&[1, 9]), 2, &[vec![(5, 10)]], &mut items);
        qs.resolve_keyed(0, None, &dv(&[1, 2]), 2, &[vec![]], &mut items);
        assert!(qs.all_empty());
        assert_eq!(items.state(z), crate::items::ItemState::Dead);
    }

    #[test]
    fn peak_entries_track_high_water_mark() {
        let (mut qs, mut items, _, _) = setup();
        assert_eq!(qs.peak_entries(), 2);
        qs.clear_matching(0, &dv(&[0]), 1, &mut items);
        assert!(qs.all_empty());
        assert_eq!(qs.peak_entries(), 2);
    }

    #[test]
    fn example_6_scenario() {
        // Item Z is referenced under two match paths: (1,2,10,11) via the
        // pub on line 2, and (1,9,10,11) via the pub on line 9. Clearing
        // at </pub> of line 9 (config dv (1,9)) must keep the other
        // reference alive.
        let mut qs = QueueSet::new(1);
        let mut items = ItemStore::new();
        items.begin_event(1);
        let z = items.anchor(0, "Z", true);
        qs.enqueue(0, z, &dv(&[1, 2, 10, 11]), &mut items);
        qs.enqueue(0, z, &dv(&[1, 9, 10, 11]), &mut items);
        qs.clear_matching(0, &dv(&[1, 9]), 2, &mut items);
        assert_eq!(items.state(z), crate::items::ItemState::Pending);
        // The correct match later flushes with config dv (1,2).
        qs.flush_matching(0, &dv(&[1, 2]), 2, &mut items);
        assert_eq!(items.state(z), crate::items::ItemState::Output);
        assert!(qs.all_empty());
    }
}
